//! The traced run: the same iteration as
//! [`execute_iteration_observed`](meterstick::execute_iteration_observed),
//! driven one public layer call at a time and timed from outside every
//! call, plus a replay of the world and entity layers that are reachable
//! only inside `GameServer::run_tick`.
//!
//! The traced iteration must model exactly what the untraced one models;
//! the caller checks that with [`same_model`](crate::same_model).

use std::time::Instant;

use cloud_sim::metrics_collector::{SystemMetricsCollector, TickObservation};
use meterstick::campaign::CellCoord;
use meterstick::{BenchmarkConfig, CsvSink, IterationJob, IterationResult, ResultSink};
use meterstick_metrics::response::ResponseTimeSummary;
use meterstick_metrics::trace::TickTrace;
use mlg_bots::emulation::DELIVERY_SLACK_MS;
use mlg_bots::PlayerEmulation;
use mlg_entity::EntityManager;
use mlg_server::{GameServer, ServerConfig, ServerFlavor, TickStageBreakdown};
use mlg_world::{sim, PoolScope, TerrainSimulator, TickScratch, TickWorkerPool};

/// Host-time spans and counts of one traced iteration.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `WorkloadSpec::build`, ms.
    pub build_ms: f64,
    /// `GameServer::new` plus the workload's ambient entity spawns, ms.
    pub server_new_ms: f64,
    /// `PlayerEmulation::new` plus `connect_all`, ms.
    pub connect_ms: f64,
    /// `Environment::instantiate_at`, ms.
    pub instantiate_ms: f64,
    /// Per step: `generate_actions`, `deliver_to_server`, `run_tick`,
    /// `collect_from_server` and `receive`, µs.
    pub generate_us: Vec<f64>,
    /// See [`LayerTimes::generate_us`].
    pub deliver_us: Vec<f64>,
    /// See [`LayerTimes::generate_us`].
    pub run_tick_us: Vec<f64>,
    /// See [`LayerTimes::generate_us`].
    pub collect_us: Vec<f64>,
    /// See [`LayerTimes::generate_us`].
    pub receive_us: Vec<f64>,
    /// ISR, percentiles, response summary and system-metrics finish, ms.
    pub finish_ms: f64,
    /// Host seconds of the whole traced iteration (set-up, loop, finish).
    pub iteration_s: f64,
    /// Bytes the bots sent and received over the iteration.
    pub bytes_up: u64,
    /// See [`LayerTimes::bytes_up`].
    pub bytes_down: u64,
    /// Packets the server emitted, summed over ticks.
    pub packets: u64,
    /// Serverbound bytes the server consumed, summed over ticks.
    pub bytes_in: u64,
    /// Live entities, summed over ticks.
    pub entities: u64,
    /// Heaviest shard's work units, summed over ticks.
    pub max_shard_work: u64,
}

/// Runs one iteration of `config` layer call by layer call, timing every
/// call. Mirrors the library's iteration procedure step for step so that
/// the returned result models exactly the same ticks.
#[must_use]
pub fn run_traced(
    config: &BenchmarkConfig,
    flavor: ServerFlavor,
    iteration: u32,
    seed: u64,
) -> (IterationResult, LayerTimes) {
    let mut t = LayerTimes::default();
    let start = Instant::now();

    let clock = Instant::now();
    let built = config.workload.build(config.base_seed);
    t.build_ms = ms_since(clock);

    let server_config = ServerConfig::for_flavor(flavor)
        .with_seed(config.base_seed)
        .with_tick_threads(config.tick_threads)
        .with_shard_rebalance(config.shard_rebalance)
        .with_eager_lighting(config.eager_lighting)
        .with_start_time_minute(config.start_time.minute_of_week());
    let clock = Instant::now();
    let mut server = GameServer::new(server_config, built.world, built.spawn_point);
    t.server_new_ms = ms_since(clock);

    let clock = Instant::now();
    let bots = config.bots_override.unwrap_or(built.players.bots);
    let mut emulation = PlayerEmulation::new(
        bots,
        built.spawn_point,
        built.players.walk_area,
        built.players.moving,
        config.link,
        seed,
    );
    if built.players.building {
        emulation = emulation.with_builders();
    }
    if built.players.scatter > 0 {
        emulation = emulation.scattered(built.spawn_point, built.players.scatter, seed);
    }
    emulation.connect_all(&mut server);
    t.connect_ms = ms_since(clock);

    let clock = Instant::now();
    for (kind, pos) in &built.ambient_entities {
        server.spawn_entity(*kind, *pos);
    }
    if let Some(delay) = built.tnt_fuse_delay_ticks {
        server.schedule_tnt_ignition(delay);
    }
    t.server_new_ms += ms_since(clock);

    let clock = Instant::now();
    let mut engine = config
        .environment
        .instantiate_at(seed, config.start_time)
        .engine;
    t.instantiate_ms = ms_since(clock);

    let ticks_planned = config.ticks_per_iteration();
    let duration_ms = config.duration_secs as f64 * 1_000.0;
    let budget_ms = server.config().tick_budget_ms;
    let mut trace = TickTrace::new(budget_ms);
    let mut collector = SystemMetricsCollector::new(30);
    let mut stage_busy = TickStageBreakdown::default();
    let mut crashed = None;
    let mut ticks_executed = 0;
    while server.clock_ms() < duration_ms {
        let now = server.clock_ms();
        let t0 = Instant::now();
        emulation.generate_actions(now);
        let t1 = Instant::now();
        emulation.deliver_to_server(now + DELIVERY_SLACK_MS, &mut server);
        let t2 = Instant::now();
        let summary = server.run_tick(&mut engine);
        let t3 = Instant::now();
        emulation.collect_from_server(&mut server, &summary);
        let t4 = Instant::now();
        emulation.receive(summary.end_ms + DELIVERY_SLACK_MS);
        let t5 = Instant::now();
        t.generate_us.push(us(t0, t1));
        t.deliver_us.push(us(t1, t2));
        t.run_tick_us.push(us(t2, t3));
        t.collect_us.push(us(t3, t4));
        t.receive_us.push(us(t4, t5));

        ticks_executed += 1;
        stage_busy.accumulate(&summary.stages);
        t.packets += summary.packets_emitted;
        t.bytes_in += summary.bytes_received;
        t.entities += summary.entity_count as u64;
        t.max_shard_work += summary.max_shard_work;
        trace.push(summary.record);
        collector.observe_tick(
            summary.end_ms,
            TickObservation {
                cpu_utilization: summary.cpu_utilization,
                entities: summary.entity_count as u64,
                loaded_chunks: server.world().loaded_chunk_count() as u64,
                players: summary.player_count as u32,
                network_sent_bytes: summary.packets_emitted * 40,
                network_received_bytes: summary.bytes_received,
                blocks_written: summary.packets_emitted / 4,
            },
        );
        if let Some(crash) = summary.crash {
            crashed = Some(crash.reason);
            break;
        }
    }
    t.bytes_up = emulation.bytes_sent();
    t.bytes_down = emulation.bytes_received();

    let clock = Instant::now();
    let response_samples = emulation.response_samples().to_vec();
    let instability_ratio = trace.instability_ratio(Some(ticks_planned));
    let _ = std::hint::black_box(trace.percentiles());
    let response = ResponseTimeSummary::of(&response_samples);
    let system_samples = collector.finish();
    t.finish_ms = ms_since(clock);

    let result = IterationResult {
        flavor,
        workload: built.kind,
        iteration,
        environment: config.environment.label(),
        instability_ratio,
        response,
        response_samples,
        system_samples,
        traffic: server.traffic_summary().clone(),
        ticks_executed,
        ticks_planned,
        crashed,
        trace,
        stage_busy,
        windowed: None,
    };
    // The library drops these before it returns; so must the timed span.
    drop((server, emulation, engine));
    t.iteration_s = start.elapsed().as_secs_f64();
    (result, t)
}

/// Rows timed per [`csv_row_us`] call; one row alone is below the clock's
/// resolution.
const CSV_ROWS: u32 = 64;

/// Mean host µs to stream one result row through [`CsvSink`].
#[must_use]
pub fn csv_row_us(config: &BenchmarkConfig, result: &IterationResult, seed: u64) -> f64 {
    let job = IterationJob {
        index: 0,
        coord: CellCoord {
            workload: 0,
            environment: 0,
            flavor: 0,
            tick_threads: 0,
            shard_rebalance: 0,
            eager_lighting: 0,
            start_time: 0,
        },
        config: config.clone(),
        flavor: result.flavor,
        iteration: result.iteration,
        seed,
    };
    let mut sink = CsvSink::new(Vec::with_capacity(256 * CSV_ROWS as usize));
    let clock = Instant::now();
    for _ in 0..CSV_ROWS {
        sink.on_result(&job, result);
    }
    let elapsed = clock.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(sink.into_inner());
    elapsed / f64::from(CSV_ROWS)
}

/// Per-tick host times and counts of the world/entity replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// `TerrainSimulator::tick_with`, µs per tick.
    pub terrain_us: Vec<f64>,
    /// `sim::relight_positions_frozen_with` over the tick's changes, µs.
    pub relight_us: Vec<f64>,
    /// `EntityManager::tick`, µs per tick.
    pub entity_us: Vec<f64>,
    /// Block updates processed, summed over ticks.
    pub updates: u64,
    /// Block changes made, summed over ticks.
    pub changes: u64,
    /// Live entities after each tick, summed over ticks.
    pub entities: u64,
}

/// Replays the world and entity layers on a freshly built copy of the
/// workload's world for `ticks` ticks: terrain (lighting deferred), then a
/// relight of the tick's changes, then the entity tick with every bot at
/// the spawn point. This is a replay, not the server's stage code: it runs
/// without players' edits, terrain events or dissemination.
#[must_use]
pub fn replay_world(config: &BenchmarkConfig, flavor: ServerFlavor, ticks: u64) -> Replay {
    let built = config.workload.build(config.base_seed);
    let mut world = built.world;
    let server_config = ServerConfig::for_flavor(flavor);
    let terrain = TerrainSimulator {
        random_ticks_per_chunk: server_config.random_ticks_per_chunk,
        eager_lighting: false,
        ..TerrainSimulator::default()
    };
    let mut entities = EntityManager::new(config.base_seed);
    entities.natural_spawning = server_config.natural_spawning;
    entities.max_tnt_per_tick = flavor.profile().max_tnt_per_tick;
    for (kind, pos) in &built.ambient_entities {
        entities.spawn(*kind, *pos);
    }
    let bots = config.bots_override.unwrap_or(built.players.bots).max(1);
    let players = vec![built.spawn_point; bots as usize];
    let pool = (config.tick_threads > 1).then(|| TickWorkerPool::new(config.tick_threads));
    let scope = pool
        .as_ref()
        .map_or_else(|| PoolScope::scoped(1), TickWorkerPool::scope);
    let mut scratch = TickScratch::new();
    let mut positions = Vec::new();
    let mut replay = Replay::default();
    for _ in 0..ticks {
        world.advance_tick();
        let t0 = Instant::now();
        let (report, events) = terrain.tick_with(&mut world, &mut scratch);
        let t1 = Instant::now();
        positions.clear();
        positions.extend(world.changes().iter().map(|change| change.pos));
        let _ = sim::relight_positions_frozen_with(&mut world, &positions, &scope, &mut scratch);
        let t2 = Instant::now();
        let entity_report = entities.tick(&mut world, &players);
        let t3 = Instant::now();
        replay.terrain_us.push(us(t0, t1));
        replay.relight_us.push(us(t1, t2));
        replay.entity_us.push(us(t2, t3));
        replay.updates += report.total_updates();
        replay.changes += world.drain_changes().len() as u64;
        replay.entities += entities.count() as u64;
        std::hint::black_box((events, entity_report));
    }
    replay
}

fn ms_since(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64() * 1e3
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}
