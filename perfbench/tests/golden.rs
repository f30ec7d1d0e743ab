//! The benchmark's harness path reproduces the repository's golden
//! stationary-baseline CSV byte for byte: the same campaign, executed
//! job by job through `run_timed` (timing observer and output check
//! included), streams exactly the committed bytes.

use cloud_sim::Environment;
use meterstick::{Campaign, CsvSink};
use meterstick_perfbench::TimedExecutor;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

/// The committed baseline, read in place from the repository.
const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/data/stationary_baseline.csv"
);

#[test]
fn harness_reproduces_the_stationary_baseline_csv() {
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Control, WorkloadKind::Farm])
        .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
        .environments([Environment::aws_default(), Environment::das5(2)])
        .duration_secs(6)
        .iterations(2)
        .seed(20_260_807);
    let mut sink = CsvSink::new(Vec::new());
    campaign
        .run_with(&TimedExecutor, &mut sink)
        .expect("every job passes the benchmark's output check");
    let csv = String::from_utf8(sink.into_inner()).expect("CSV output is UTF-8");
    // The baseline predates the trailing `start_time` column.
    let current: String = csv
        .lines()
        .map(|line| line.rsplit_once(',').expect("CSV line has columns").0)
        .map(|line| format!("{line}\n"))
        .collect();
    let baseline = std::fs::read_to_string(BASELINE).expect("baseline CSV is committed");
    assert_eq!(current, baseline);
}
