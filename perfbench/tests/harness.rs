//! Tests of the benchmark harness: output checks, failure isolation and
//! the metric tables `BENCHMARK.json` must agree with.

use cloud_sim::Environment;
use meterstick::{BenchmarkConfig, IterationResult};
use meterstick_perfbench::{
    check_result, isolated, result_json, run_timed, same_model, valid_metric_name, Workload,
    END_TO_END, PER_LAYER,
};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

type Perturbation = (&'static str, fn(&mut IterationResult));

fn short_iteration() -> IterationResult {
    let config = BenchmarkConfig::new(WorkloadKind::Control)
        .with_flavors(vec![ServerFlavor::Vanilla])
        .with_environment(Environment::das5(2))
        .with_duration_secs(1);
    run_timed(&config, ServerFlavor::Vanilla, 0, 7)
        .expect("an unperturbed iteration passes its check")
        .result
}

#[test]
fn a_perturbed_result_fails_the_check() {
    let good = short_iteration();
    let ticks = good.ticks_executed;
    assert_eq!(check_result(&good, ticks), Ok(()));

    let perturbations: [Perturbation; 4] = [
        ("stage total", |r| r.stage_busy.entity_ms += 0.5),
        ("tick count", |r| r.ticks_executed = r.ticks_planned + 1),
        ("ISR", |r| r.instability_ratio = 1.5),
        ("missing tick", |r| r.ticks_executed -= 1),
    ];
    for (what, perturb) in perturbations {
        let mut bad = good.clone();
        perturb(&mut bad);
        assert!(
            check_result(&bad, ticks).is_err(),
            "{what} must fail the check"
        );
    }

    let mut moved = good.clone();
    moved.stage_busy.other_ms += 1e-9;
    assert!(same_model(&good, &good.clone()).is_ok());
    assert!(
        same_model(&good, &moved).is_err(),
        "any change to a modeled value is a different model"
    );
}

#[test]
fn a_panic_is_isolated_and_reported() {
    let outcome: Result<(), String> = isolated(|| panic!("boom"));
    assert_eq!(outcome, Err("panicked: boom".to_string()));
    assert_eq!(isolated(|| 3), Ok(3));
}

#[test]
fn metric_tables_fit_the_contract() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for name in &names {
        assert!(valid_metric_name(name), "{name} must match [A-Za-z0-9_.-]+");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{} has unit {:?}",
            m.name,
            m.unit
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(
        !valid_metric_name("has space") && !valid_metric_name(".lead") && !valid_metric_name("")
    );
}

#[test]
fn the_result_line_prints_every_value_with_its_unit() {
    let metrics: Vec<_> = END_TO_END.iter().map(|m| (*m, 1.25)).collect();
    let line = result_json(true, 3, 0, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for m in &END_TO_END {
        let entry = format!(
            "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
        assert!(line.contains(&entry), "{entry} missing from {line}");
    }
}

/// The names listed under `key` in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section is a list")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_harness_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let names = |defs: &[meterstick_perfbench::MetricDef]| {
        defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(listed(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed(&json, "workloads"), workloads);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
        assert_eq!(w.config(1).flavors.len(), 1, "one flavor per workload");
    }
}
