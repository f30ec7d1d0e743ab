//! Host-time benchmark of the Meterstick simulator.
//!
//! *Host time* is what the simulator costs to run on this machine;
//! *modeled time* is the per-stage busy-ms the simulator reports for the
//! game server it models. This crate measures the first and checks the
//! second as an output: modeled values must be valid and must repeat
//! exactly at a fixed seed, but no gate compares their magnitude.
//!
//! The untraced run drives every iteration through the library's single
//! implementation, [`execute_iteration_observed`], with a timing
//! observer; the traced run ([`traced`]) replays the same iterations layer
//! call by layer call. See `README.md` for the workloads and the
//! layer → metric → workload map.

#![forbid(unsafe_code)]

pub mod stats;
pub mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cloud_sim::{Environment, NodeType, StartTime};
use meterstick::error::BenchmarkError;
use meterstick::executor::ResultCallback;
use meterstick::{
    execute_iteration_observed, BenchmarkConfig, CampaignPlan, Executor, IterationResult,
    TickObserver, TickSample,
};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

/// Seed used for baselines when `--seed` is not given: the library's own
/// default base seed ([`BenchmarkConfig::new`]).
pub const DEFAULT_SEED: u64 = 392_114_485;

/// Seed held out from tuning; verify a later performance claim on it too.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// One benchmark workload: a (world, flavor, environment, tick threads)
/// cell chosen so that one likely optimisation target dominates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Farm × PaperMC × AWS t3.large (diurnal tenancy, `fri-20:30`),
    /// 1 tick thread: entity simulation.
    Farm,
    /// Crowd (220 building bots) × PaperMC × DAS-5 2-core, 2 tick threads:
    /// player handling, dissemination and bot emulation on the worker pool.
    Crowd,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Farm, Workload::Crowd];

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Farm => "farm",
            Workload::Crowd => "crowd",
        }
    }

    /// Virtual seconds per iteration. Short, so that one run measures
    /// dozens of worlds (see [`Workload::iteration`]) and at least 1,000
    /// steps; each costs a few tenths of a host-second.
    fn iteration_secs(self) -> u64 {
        match self {
            Workload::Farm => 10,
            Workload::Crowd => 2,
        }
    }

    /// The configuration and iteration seed of iteration `i` of a run at
    /// `seed`. Iteration 0 builds its world from `seed` itself; later ones
    /// from seeds derived from it. Host cost depends on the world (cave
    /// layout decides where mobs spawn, for one), so one run averages over
    /// many worlds instead of measuring one.
    #[must_use]
    pub fn iteration(self, seed: u64, i: u32) -> (BenchmarkConfig, u64) {
        let base = if i == 0 {
            seed
        } else {
            splitmix64(seed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let config = self.config(base);
        let iteration_seed = config.iteration_seed(0, i);
        (config, iteration_seed)
    }

    /// The single-flavor benchmark configuration of this workload, with
    /// every iteration seed derived from `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> BenchmarkConfig {
        let config = match self {
            Workload::Farm => BenchmarkConfig::new(WorkloadKind::Farm)
                .with_flavors(vec![ServerFlavor::Paper])
                .with_environment(Environment::aws_diurnal(NodeType::aws_t3_large()))
                .with_start_time(StartTime::from_day_hour_minute(4, 20, 30)),
            Workload::Crowd => BenchmarkConfig::new(WorkloadKind::Crowd)
                .with_flavors(vec![ServerFlavor::Paper])
                .with_environment(Environment::das5(2))
                .with_tick_threads(2),
        };
        config
            .with_duration_secs(self.iteration_secs())
            .with_iterations(1)
            .with_seed(seed)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, printed next to every value.
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics of the untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    metric("ticks_per_s", "ticks/s"),
    metric("step_us_p50", "us"),
    metric("step_us_p99", "us"),
    metric("iteration_s", "s"),
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 41] = [
    metric("workloads.build_ms", "ms"),
    metric("server.new_ms", "ms"),
    metric("bots.connect_ms", "ms"),
    metric("cloud.instantiate_ms", "ms"),
    metric("bots.generate_us", "us"),
    metric("bots.deliver_us", "us"),
    metric("bots.collect_us", "us"),
    metric("bots.receive_us", "us"),
    metric("bots.bytes_up", "bytes"),
    metric("bots.bytes_down", "bytes"),
    metric("server.run_tick_us_p50", "us"),
    metric("server.run_tick_us_p99", "us"),
    metric("server.packets_per_tick", "count"),
    metric("server.bytes_in_per_tick", "bytes"),
    metric("server.dissemination_bytes", "bytes"),
    metric("server.entities_mean", "count"),
    metric("server.max_shard_work_mean", "count"),
    metric("world.terrain_us", "us"),
    metric("world.relight_us", "us"),
    metric("world.updates", "count"),
    metric("world.changes", "count"),
    metric("entity.tick_us", "us"),
    metric("entity.count_mean", "count"),
    metric("metrics.finish_ms", "ms"),
    metric("sink.csv_row_us", "us"),
    metric("share.bots_pct", "%"),
    metric("share.run_tick_pct", "%"),
    metric("share.terrain_pct", "%"),
    metric("share.relight_pct", "%"),
    metric("share.entity_pct", "%"),
    metric("model.ticks", "count"),
    metric("model.isr", "ratio"),
    metric("model.busy_ms_mean", "ms"),
    metric("model.player_ms", "ms"),
    metric("model.terrain_ms", "ms"),
    metric("model.entity_ms", "ms"),
    metric("model.lighting_ms", "ms"),
    metric("model.dissemination_ms", "ms"),
    metric("model.other_ms", "ms"),
    metric("model.crashed", "count"),
    metric("trace.overhead_pct", "%"),
];

/// Times one iteration from outside the library: set-up ends at the first
/// [`TickObserver::should_abort`] poll, and each simulated step is the
/// interval between two consecutive polls. It also checks the per-tick
/// invariants of every [`TickSample`].
#[derive(Debug)]
struct StepTimer {
    start: Instant,
    last_poll: Option<Instant>,
    setup_s: Option<f64>,
    steps_us: Vec<f64>,
    ticks_seen: u64,
    violation: Option<String>,
}

impl StepTimer {
    /// Starts the clock; call immediately before the iteration.
    fn start() -> Self {
        StepTimer {
            start: Instant::now(),
            last_poll: None,
            setup_s: None,
            steps_us: Vec::new(),
            ticks_seen: 0,
            violation: None,
        }
    }
}

impl TickObserver for StepTimer {
    fn on_tick(&mut self, sample: &TickSample) {
        self.ticks_seen += 1;
        if self.violation.is_none() {
            self.violation = check_tick(sample).err();
        }
    }

    fn should_abort(&mut self) -> bool {
        let now = Instant::now();
        match self.last_poll {
            None => self.setup_s = Some((now - self.start).as_secs_f64()),
            Some(prev) => self.steps_us.push((now - prev).as_secs_f64() * 1e6),
        }
        self.last_poll = Some(now);
        false
    }
}

/// Per-tick invariant: the stage breakdown sums to the tick's busy time.
fn check_tick(sample: &TickSample) -> Result<(), String> {
    let total = sample.stages.total_ms();
    if !(sample.busy_ms.is_finite() && sample.busy_ms >= 0.0) {
        return Err(format!(
            "tick {}: busy_ms {} invalid",
            sample.tick, sample.busy_ms
        ));
    }
    if (total - sample.busy_ms).abs() > 1e-9 * sample.busy_ms.max(1.0) {
        return Err(format!(
            "tick {}: stages sum to {total} ms, busy_ms is {}",
            sample.tick, sample.busy_ms
        ));
    }
    Ok(())
}

/// Iteration-level output check: `ticks_executed ≤ ticks_planned`, every
/// executed tick was observed and traced, ISR ∈ [0, 1], and the stage
/// totals sum to the traced busy time.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_result(result: &IterationResult, ticks_observed: u64) -> Result<(), String> {
    if result.ticks_executed > result.ticks_planned {
        return Err(format!(
            "ticks_executed {} > ticks_planned {}",
            result.ticks_executed, result.ticks_planned
        ));
    }
    if result.ticks_executed == 0 {
        return Err("no tick executed".into());
    }
    if result.ticks_executed != ticks_observed || result.trace.len() as u64 != ticks_observed {
        return Err(format!(
            "ticks_executed {}, trace holds {}, observer saw {ticks_observed}",
            result.ticks_executed,
            result.trace.len()
        ));
    }
    let isr = result.instability_ratio;
    if !(0.0..=1.0).contains(&isr) {
        return Err(format!("ISR {isr} outside [0, 1]"));
    }
    let busy: f64 = result.trace.busy_durations().iter().sum();
    let stages = result.stage_busy.total_ms();
    if (stages - busy).abs() > 1e-9 * busy.max(1.0) {
        return Err(format!(
            "stage totals sum to {stages} ms, traced busy time is {busy} ms"
        ));
    }
    Ok(())
}

/// Checks that two iterations modeled exactly the same thing: tick count,
/// crash, ISR, every tick's busy time, the stage totals, response samples
/// and traffic, compared bit for bit.
///
/// # Errors
///
/// Names the first modeled value that differs.
pub fn same_model(a: &IterationResult, b: &IterationResult) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let stages = |r: &IterationResult| {
        let s = r.stage_busy;
        bits(&[
            s.player_ms,
            s.terrain_ms,
            s.entity_ms,
            s.lighting_ms,
            s.dissemination_ms,
            s.other_ms,
        ])
    };
    let pairs: [(&str, bool); 7] = [
        ("ticks_executed", a.ticks_executed == b.ticks_executed),
        ("crashed", a.crashed == b.crashed),
        (
            "isr",
            a.instability_ratio.to_bits() == b.instability_ratio.to_bits(),
        ),
        (
            "tick busy times",
            bits(&a.trace.busy_durations()) == bits(&b.trace.busy_durations()),
        ),
        ("stage totals", stages(a) == stages(b)),
        (
            "response samples",
            bits(&a.response_samples) == bits(&b.response_samples),
        ),
        (
            "traffic bytes",
            a.traffic.total_bytes() == b.traffic.total_bytes(),
        ),
    ];
    match pairs.iter().find(|(_, equal)| !equal) {
        Some((name, _)) => Err(format!("modeled {name} differ")),
        None => Ok(()),
    }
}

/// One checked, timed iteration.
#[derive(Debug)]
pub struct TimedIteration {
    /// What the library returned.
    pub result: IterationResult,
    /// Host seconds from the call to the first poll.
    pub setup_s: f64,
    /// Host seconds from the call until it returned.
    pub iteration_s: f64,
    /// Host microseconds of every simulated step (poll to poll).
    pub steps_us: Vec<f64>,
}

/// Runs one iteration through [`execute_iteration_observed`] with a
/// timing observer, isolated so that a panic becomes an `Err`, and checks
/// its output.
///
/// # Errors
///
/// Returns the panic message or the failed check.
pub fn run_timed(
    config: &BenchmarkConfig,
    flavor: ServerFlavor,
    iteration: u32,
    seed: u64,
) -> Result<TimedIteration, String> {
    let mut timer = StepTimer::start();
    let outcome =
        isolated(|| execute_iteration_observed(config, flavor, iteration, seed, &mut timer));
    let iteration_s = timer.start.elapsed().as_secs_f64();
    let result = outcome?;
    if let Some(violation) = timer.violation {
        return Err(violation);
    }
    check_result(&result, timer.ticks_seen)?;
    Ok(TimedIteration {
        result,
        setup_s: timer
            .setup_s
            .ok_or("the iteration never polled its observer")?,
        iteration_s,
        steps_us: timer.steps_us,
    })
}

/// Crowd's thread-count invariance check: one shortened iteration at 1 and
/// at 2 tick threads must model exactly the same thing.
///
/// # Errors
///
/// Returns the failure of either run or the first modeled difference.
pub fn check_thread_invariance(config: &BenchmarkConfig) -> Result<(), String> {
    let short = config.clone().with_duration_secs(2);
    let flavor = short.flavors[0];
    let seed = short.iteration_seed(0, 0);
    let one = run_timed(&short.clone().with_tick_threads(1), flavor, 0, seed)?;
    let two = run_timed(&short.with_tick_threads(2), flavor, 0, seed)?;
    same_model(&one.result, &two.result).map_err(|e| format!("1 vs 2 tick threads: {e}"))
}

/// Runs `f`, turning a panic into an `Err` carrying its message, so one
/// failed unit of work counts as failed instead of ending the run.
///
/// # Errors
///
/// Returns `panicked: <message>` when `f` panicked.
pub fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        format!("panicked: {text}")
    })
}

/// A campaign executor that runs every job through the benchmark's own
/// harness ([`run_timed`]), so a campaign's CSV can be compared with one
/// produced by the library's executors.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimedExecutor;

impl Executor for TimedExecutor {
    fn name(&self) -> &'static str {
        "perfbench-timed"
    }

    fn execute(
        &self,
        plan: &CampaignPlan,
        on_result: &mut ResultCallback<'_>,
    ) -> Result<Vec<IterationResult>, BenchmarkError> {
        let mut results = Vec::with_capacity(plan.jobs().len());
        for job in plan.jobs() {
            let timed =
                run_timed(&job.config, job.flavor, job.iteration, job.seed).map_err(|message| {
                    BenchmarkError::WorkerPanicked {
                        job: job.label(),
                        message,
                    }
                })?;
            on_result(job, &timed.result);
            results.push(timed.result);
        }
        Ok(results)
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric as `{"value": v, "unit": u}`, values printed with all
/// their digits.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `true` when `name` is made only of `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
