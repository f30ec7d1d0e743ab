//! Host-time benchmark of the Meterstick simulator.
//!
//! ```text
//! perfbench --workload <farm|crowd> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when any iteration panicked or failed its output check.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use meterstick_perfbench::stats::{mean, median, percentile, tail};
use meterstick_perfbench::traced::{csv_row_us, replay_world, run_traced, LayerTimes, Replay};
use meterstick_perfbench::{
    check_result, check_thread_invariance, isolated, result_json, run_timed, same_model, MetricDef,
    TimedIteration, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};

/// Fewest iterations per run, so `setup_s` and `iteration_s` are medians
/// of several.
const MIN_ITERATIONS: u32 = 5;

/// Fewest step samples per run, so at least ten lie beyond p99.
const MIN_STEPS: usize = 1_000;

/// No new iteration starts after this much time, whatever `--seconds`
/// asks, so a run always ends well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <farm|crowd> [--seed N] [--seconds S] [--trace 0|1]\n  \
         --seed     base seed (default {DEFAULT_SEED}; held-out seed for verifying claims: {HELD_OUT_SEED})\n  \
         --seconds  how long to measure (default 10)\n  \
         --trace    0: end-to-end metrics, 1: per-layer metrics (default 0)"
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Farm,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Attempted and failed units of work; a failure is a panic or a failed
/// output check, reported on stderr and never fatal to the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {error}");
                None
            }
        }
    }

    /// Whether to start another iteration: until the run length is spent
    /// and the minimum sample sizes are met, but never past
    /// [`HARD_STOP`], and not chasing sample sizes once something failed.
    fn go_on(&self, start: Instant, seconds: u64, iterations: u32, steps: usize) -> bool {
        let elapsed = start.elapsed();
        let short = iterations < MIN_ITERATIONS || (steps < MIN_STEPS && self.failed == 0);
        elapsed < HARD_STOP && (elapsed < Duration::from_secs(seconds) || short)
    }
}

struct Outcome {
    tally: Tally,
    metrics: Vec<(MetricDef, f64)>,
}

fn with_defs(defs: &[MetricDef], values: &[f64]) -> Vec<(MetricDef, f64)> {
    assert_eq!(defs.len(), values.len(), "one value per declared metric");
    defs.iter().copied().zip(values.iter().copied()).collect()
}

fn untraced(args: &Args) -> Outcome {
    let config = args.workload.config(args.seed);
    let flavor = config.flavors[0];
    let mut tally = Tally::default();
    if args.workload == Workload::Crowd {
        tally.record("thread invariance", check_thread_invariance(&config));
    }
    let mut steps = Vec::new();
    let mut step_means = Vec::new();
    let mut setups = Vec::new();
    let mut iterations = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while tally.go_on(start, args.seconds, i, steps.len()) {
        let (config, seed) = args.workload.iteration(args.seed, i);
        let outcome = run_timed(&config, flavor, i, seed);
        if let Some(t) = tally.record(&format!("iteration {i}"), outcome) {
            step_means.push(mean(&t.steps_us));
            steps.extend(t.steps_us);
            setups.push(t.setup_s);
            iterations.push(t.iteration_s);
        }
        i += 1;
    }
    let loop_s = steps.iter().sum::<f64>() / 1e6;
    match tail(&steps) {
        Some(t) => println!(
            "steps: {} samples, pooled median {:.1} us; highest tail with >=10 beyond: p{} = {:.1} us ({} beyond)",
            t.samples,
            median(&steps),
            t.percentile,
            t.value,
            t.beyond
        ),
        None => println!("steps: {} samples, too few for any tail", steps.len()),
    }
    println!(
        "iterations: {} of {} virtual s; failed_frac {} ({} of {} attempted)",
        iterations.len(),
        config.duration_secs,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let values = [
        steps.len() as f64 / loop_s,
        median(&step_means),
        percentile(&steps, 99.0),
        median(&iterations),
        median(&setups),
        peak_rss_mb().unwrap_or(f64::NAN),
    ];
    Outcome {
        tally,
        metrics: with_defs(&END_TO_END, &values),
    }
}

/// Everything one traced seed produced.
struct TracedSeed {
    plain: TimedIteration,
    times: LayerTimes,
    traced: meterstick::IterationResult,
    replay: Replay,
    csv_us: f64,
}

fn traced_seed(
    config: &meterstick::BenchmarkConfig,
    i: u32,
    seed: u64,
) -> Result<TracedSeed, String> {
    let flavor = config.flavors[0];
    let plain = run_timed(config, flavor, i, seed)?;
    let (traced, times) = isolated(|| run_traced(config, flavor, i, seed))?;
    check_result(&traced, times.run_tick_us.len() as u64)?;
    same_model(&plain.result, &traced).map_err(|e| format!("traced vs untraced: {e}"))?;
    let ticks = plain.result.ticks_executed;
    let replay = isolated(|| replay_world(config, flavor, ticks))?;
    let csv_us = csv_row_us(config, &traced, seed);
    Ok(TracedSeed {
        plain,
        times,
        traced,
        replay,
        csv_us,
    })
}

fn traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut runs: Vec<TracedSeed> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    let mut ticks = 0;
    while tally.go_on(start, args.seconds, i, ticks) {
        let (config, seed) = args.workload.iteration(args.seed, i);
        if let Some(run) = tally.record(
            &format!("traced iteration {i}"),
            traced_seed(&config, i, seed),
        ) {
            ticks += run.times.run_tick_us.len();
            runs.push(run);
        }
        i += 1;
    }
    let Some(first) = runs.first() else {
        return Outcome {
            tally,
            metrics: with_defs(&PER_LAYER, &[f64::NAN; PER_LAYER.len()]),
        };
    };

    let pooled = |f: fn(&TracedSeed) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let per_run = |f: fn(&TracedSeed) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let generate = mean(&pooled(|r| &r.times.generate_us));
    let deliver = mean(&pooled(|r| &r.times.deliver_us));
    let collect = mean(&pooled(|r| &r.times.collect_us));
    let receive = mean(&pooled(|r| &r.times.receive_us));
    let run_tick = pooled(|r| &r.times.run_tick_us);
    let bots = generate + deliver + collect + receive;
    let step = bots + mean(&run_tick);
    let terrain = mean(&pooled(|r| &r.replay.terrain_us));
    let relight = mean(&pooled(|r| &r.replay.relight_us));
    let entity = mean(&pooled(|r| &r.replay.entity_us));
    let share = |us: f64| 100.0 * us / step;

    let t0 = &first.times;
    let model = &first.plain.result;
    let ticks0 = first.traced.ticks_executed as f64;
    let replay_ticks = first.replay.terrain_us.len().max(1) as f64;
    let busy = model.stage_busy;
    match tail(&run_tick) {
        Some(t) => println!(
            "run_tick: {} samples; highest tail with >=10 beyond: p{} ({} beyond)",
            t.samples, t.percentile, t.beyond
        ),
        None => println!("run_tick: {} samples, too few for any tail", run_tick.len()),
    }
    println!(
        "traced iterations: {}; world/entity figures are a replay outside run_tick",
        runs.len()
    );
    let values = [
        median(&per_run(|r| r.times.build_ms)),
        median(&per_run(|r| r.times.server_new_ms)),
        median(&per_run(|r| r.times.connect_ms)),
        median(&per_run(|r| r.times.instantiate_ms)),
        generate,
        deliver,
        collect,
        receive,
        t0.bytes_up as f64,
        t0.bytes_down as f64,
        median(&per_run(|r| mean(&r.times.run_tick_us))),
        percentile(&run_tick, 99.0),
        t0.packets as f64 / ticks0,
        t0.bytes_in as f64 / ticks0,
        first.traced.traffic.total_bytes() as f64,
        t0.entities as f64 / ticks0,
        t0.max_shard_work as f64 / ticks0,
        terrain,
        relight,
        first.replay.updates as f64,
        first.replay.changes as f64,
        entity,
        first.replay.entities as f64 / replay_ticks,
        median(&per_run(|r| r.times.finish_ms)),
        median(&per_run(|r| r.csv_us)),
        share(bots),
        share(mean(&run_tick)),
        share(terrain),
        share(relight),
        share(entity),
        model.ticks_executed as f64,
        model.instability_ratio,
        busy.total_ms() / model.ticks_executed as f64,
        busy.player_ms,
        busy.terrain_ms,
        busy.entity_ms,
        busy.lighting_ms,
        busy.dissemination_ms,
        busy.other_ms,
        f64::from(u8::from(model.crashed())),
        100.0
            * (median(&per_run(|r| r.times.iteration_s))
                / median(&per_run(|r| r.plain.iteration_s))
                - 1.0),
    ];
    Outcome {
        tally,
        metrics: with_defs(&PER_LAYER, &values),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB, when the
/// platform reports it.
#[must_use]
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let Outcome { tally, metrics } = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for (def, value) in &metrics {
        println!("{:<28} {value:>18.6} {}", def.name, def.unit);
    }
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    if !finite {
        eprintln!("FAILED: a metric has no finite value");
    }
    let correct = tally.failed == 0 && finite;
    let metrics: Vec<(MetricDef, f64)> = metrics
        .into_iter()
        .map(|(def, v)| (def, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
