//! `metro_day`: the batch `MetroSimulator::run` over a full diurnal day
//! at 10,000 cells, 8 shards and `nproc` workers (homogeneous pool, Full
//! split, warm placement).
//!
//! The traced run replays the shards one by one through the public
//! `generate`, `PoolSimulator::run` and `PoolMetrics::merge` and checks
//! the merge against `MetroSimulator::run`. A second replay drives the
//! realtime layer's `batch::simulate_into` with the per-server batches a
//! shard's epochs produce (warm placement over the same demands, service
//! times from the same compute model) and checks its task count and
//! servers-used series against the shard's report.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pran_phy::compute::{CellWorkload, ComputeModel};
use pran_phy::frame::{Direction, COMPUTE_DEADLINE, TTI};
use pran_sched::placement::{Allowed, CellDemand, PlacementInstance, WarmConfig, WarmPlacer};
use pran_sched::realtime::{simulate_into, BatchOutcome, SimScratch, TaskBatch};
use pran_sim::{MetroConfig, MetroSimulator, PoolConfig, PoolMetrics, PoolSimulator};
use pran_traces::{generate, Trace, TraceConfig};

use crate::spans::Tracer;
use crate::stats::median;
use crate::{measure, nproc, report_trace, Args, Outcome};

const CELLS: usize = 10_000;
const SHARDS: usize = 8;

fn config(seed: u64, workers: usize) -> MetroConfig {
    let mut cfg = MetroConfig::default_eval(CELLS, SHARDS);
    cfg.workers = workers;
    cfg.seed = seed;
    cfg
}

/// The pool configuration `MetroSimulator::try_new` gives every shard.
fn shard_pool(cfg: &MetroConfig) -> PoolConfig {
    let mut pool = PoolConfig::default_eval(cfg.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    pool
}

/// The trace configuration shard `s` runs with.
fn shard_trace(cfg: &MetroConfig, s: usize) -> TraceConfig {
    let mut t = TraceConfig::default_day(cfg.cells, cfg.seed);
    t.num_cells = cfg.shard_cells(s);
    t.seed = cfg.shard_seed(s);
    t
}

/// Trace steps in the day every shard simulates.
fn steps_per_day() -> u64 {
    let t = TraceConfig::default_day(1, 0);
    (t.duration_seconds / t.step_seconds).round() as u64
}

/// Tasks a day of `cfg` generates: every cell-step yields one task per
/// sampled TTI, served or lost.
fn expected_tasks(cfg: &MetroConfig) -> u64 {
    cfg.cells as u64 * steps_per_day() * shard_pool(cfg).ttis_per_step as u64
}

fn check_report(out: &mut Outcome, cfg: &MetroConfig, m: &PoolMetrics, shards: &[PoolMetrics]) {
    let expected = expected_tasks(cfg);
    out.check(m.tasks_total == expected, || {
        format!("metro_day: {} tasks, expected {expected}", m.tasks_total)
    });
    let shard_sum: u64 = shards.iter().map(|s| s.tasks_total).sum();
    out.check(shard_sum == m.tasks_total, || {
        format!(
            "metro_day: shards hold {shard_sum} tasks, merge {}",
            m.tasks_total
        )
    });
    out.check(m.deadline_misses + m.tasks_lost <= m.tasks_total, || {
        "metro_day: more misses and losses than tasks".into()
    });
}

/// Entry point.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let cfg = config(args.seed, nproc());
    let mut out = Outcome::default();
    let build = || MetroSimulator::try_new(cfg).expect("metro config validates");
    // Warm-up: fills the allocator and the page tables; not reported.
    black_box(build().run());
    let passes = measure(args.seconds, 2, build, |sim| {
        let t = Instant::now();
        let report = sim.run();
        (t.elapsed().as_secs_f64(), report)
    });
    let first = &passes.results[0];
    for r in &passes.results {
        let shards: Vec<PoolMetrics> = r.shards.iter().map(|s| s.report.metrics.clone()).collect();
        check_report(&mut out, &cfg, &r.metrics, &shards);
        out.check(r.metrics == first.metrics, || {
            "metro_day: a repeated run produced different metrics".into()
        });
    }
    let m = &first.metrics;
    let run_s = median(&passes.wall_s);
    out.put("setup_s", "s", "lower", median(&passes.setup_s));
    out.put("run_s", "s", "lower", run_s);
    out.put("tasks_per_s", "1/s", "higher", m.tasks_total as f64 / run_s);
    out.put("sim_mean_servers", "servers", "exact", m.mean_servers());
    out.put("sim_miss_ratio", "ratio", "exact", m.miss_ratio());
    out.put("sim_migrations", "count", "exact", m.migrations as f64);
    out.notes.push(format!(
        "passes={} tasks_per_pass={} workers={}",
        passes.wall_s.len(),
        m.tasks_total,
        cfg.workers
    ));
    out
}

/// One sequential replay of every shard through the public layer calls.
struct Replay {
    shards: Vec<PoolMetrics>,
    merged: PoolMetrics,
    shard0_trace: Trace,
}

fn replay(cfg: &MetroConfig, tracer: &mut Tracer) -> Replay {
    let mut shards = Vec::with_capacity(SHARDS);
    let mut shard0_trace = None;
    for s in 0..SHARDS {
        let trace_cfg = shard_trace(cfg, s);
        let report = tracer.nest("metro.shard", |t| {
            let trace = t.span("traces.generate", || generate(&trace_cfg));
            if s == 0 {
                shard0_trace = Some(trace.clone());
            }
            let mut pool = t.span("pool.setup", || {
                PoolSimulator::try_new(trace, shard_pool(cfg)).expect("pool config validates")
            });
            t.span("pool.run", || pool.run())
        });
        shards.push(report.metrics);
    }
    let merged = tracer.span("metro.merge", || {
        let mut m = PoolMetrics::default();
        for s in &shards {
            m.merge(s);
        }
        m
    });
    Replay {
        shards,
        merged,
        shard0_trace: shard0_trace.expect("shard 0 ran"),
    }
}

fn traced(args: &Args) -> Outcome {
    // The replay runs shards one at a time; the program's own run at one
    // worker is reported beside it.
    let cfg = config(args.seed, 1);
    let mut out = Outcome::default();
    let sim = MetroSimulator::try_new(cfg).expect("metro config validates");
    black_box(sim.run());
    let t = Instant::now();
    let reference = sim.run();
    let program_s = t.elapsed().as_secs_f64();

    let mut off = Tracer::disabled();
    let t = Instant::now();
    black_box(replay(&cfg, &mut off));
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new();
    let Replay {
        shards: shard_metrics,
        merged,
        shard0_trace,
    } = replay(&cfg, &mut tracer);
    let wall_ns = tracer.wall_ns();
    out.notes.push(format!(
        "MetroSimulator::run at one worker took {program_s:.4} s; the untraced replay {untraced_s:.4} s"
    ));

    check_report(&mut out, &cfg, &merged, &shard_metrics);
    out.check(merged == reference.metrics, || {
        "metro_day: the replayed merge differs from MetroSimulator::run".into()
    });

    let totals = tracer.totals();
    let steps = (cfg.cells as u64 * steps_per_day()) as f64;
    let tasks = merged.tasks_total as f64;
    out.put(
        "traces.ns_per_cell_step",
        "ns",
        "lower",
        totals["traces.generate"].total_ns as f64 / steps,
    );
    out.put(
        "pool.ns_per_task",
        "ns",
        "lower",
        totals["pool.run"].total_ns as f64 / tasks,
    );
    out.put(
        "pool.setup_us",
        "us",
        "lower",
        totals["pool.setup"].total_ns as f64 / 1e3 / SHARDS as f64,
    );
    out.put(
        "metro.merge_us",
        "us",
        "lower",
        totals["metro.merge"].total_ns as f64 / 1e3,
    );
    let run_ns = tracer.durations_ns("pool.run");
    let mean_run = run_ns.iter().sum::<u64>() as f64 / run_ns.len() as f64;
    let max_run = run_ns.iter().copied().max().unwrap_or(0) as f64;
    out.put(
        "metro.shard_imbalance",
        "ratio",
        "lower",
        max_run / mean_run,
    );
    out.put(
        "realtime.misses",
        "count",
        "lower",
        merged.deadline_misses as f64,
    );

    report_trace(&mut out, &tracer, wall_ns, untraced_s, args);
    realtime_replay(&mut out, &cfg, &shard0_trace, &shard_metrics[0]);
    out
}

/// Drive `simulate_into` with the batches shard 0's day produces and
/// report ns per task; check the replay against the shard's report.
fn realtime_replay(out: &mut Outcome, cfg: &MetroConfig, trace: &Trace, shard: &PoolMetrics) {
    let pool = shard_pool(cfg);
    let model = ComputeModel::calibrated();
    let prbs = pool.bandwidth.prbs();
    let workload = |prbs_used: u32| CellWorkload {
        bandwidth: pool.bandwidth,
        antennas: pool.antennas,
        prbs_used,
        mcs: pool.mcs,
        direction: Direction::Uplink,
        split: pool.split_plan.split_for(0),
    };
    let gops: Vec<f64> = (0..=prbs)
        .map(|p| model.pooled_gops(&workload(p)))
        .collect();
    let core_gops = pool.server_capacity_gops / pool.cores_per_server as f64;
    let service_ns: Vec<u64> = gops
        .iter()
        .map(|g| Duration::from_secs_f64(g * 1e-3 / core_gops).as_nanos() as u64)
        .collect();
    let releases: Vec<u64> = (0..pool.ttis_per_step)
        .map(|t| (TTI * t as u32).as_nanos() as u64)
        .collect();
    let deadlines: Vec<u64> = (0..pool.ttis_per_step)
        .map(|t| (TTI * t as u32 + COMPUTE_DEADLINE).as_nanos() as u64)
        .collect();
    let prb_of = |u: f64| (f64::from(prbs) * u.clamp(0.0, 1.0)).round() as usize;

    let mut warm = WarmPlacer::new(pool.warm.expect("metro pools place warm"));
    let mut batches: Vec<TaskBatch> = (0..pool.servers).map(|_| TaskBatch::new()).collect();
    let mut scratch = SimScratch::new();
    let mut outcome = BatchOutcome::new();
    let mut servers_used = Vec::new();
    let (mut tasks, mut misses, mut sim_ns) = (0u64, 0u64, 0u64);
    for epoch in trace.samples.chunks(pool.epoch_steps) {
        let cells = epoch[0].len();
        let demands = (0..cells)
            .map(|c| {
                let peak = epoch.iter().map(|r| r[c]).fold(0.0f64, f64::max);
                CellDemand {
                    id: c,
                    gops: gops[prb_of(peak)] * pool.headroom,
                    decode_gops: 0.0,
                }
            })
            .collect();
        let instance = PlacementInstance {
            cells: demands,
            servers: pool.server_specs(),
            allowed: Allowed::Uniform(vec![true; pool.servers]),
        };
        let (placement, _, _) = warm.epoch(&instance);
        servers_used.push(instance.servers_used(&placement));
        for row in epoch {
            for b in batches.iter_mut() {
                b.clear();
            }
            for (c, &u) in row.iter().enumerate() {
                if let Some(s) = placement.assignment[c] {
                    batches[s].push_run(c as u32, &releases, &deadlines, service_ns[prb_of(u)]);
                }
            }
            let t = Instant::now();
            for b in batches.iter().filter(|b| !b.is_empty()) {
                simulate_into(
                    b,
                    pool.cores_per_server,
                    pool.scheduler,
                    &mut scratch,
                    &mut outcome,
                );
                tasks += b.len() as u64;
                misses += outcome.misses() as u64;
            }
            sim_ns += t.elapsed().as_nanos() as u64;
        }
    }
    out.put(
        "realtime.ns_per_task",
        "ns",
        "lower",
        sim_ns as f64 / tasks as f64,
    );
    out.check(
        tasks == shard.tasks_total - shard.tasks_lost
            && misses == shard.deadline_misses
            && servers_used == shard.servers_used,
        || {
            format!(
                "metro_day: realtime replay saw {tasks} tasks / {misses} misses, \
                 shard 0 ran {} / {}",
                shard.tasks_total - shard.tasks_lost,
                shard.deadline_misses
            )
        },
    );
}
