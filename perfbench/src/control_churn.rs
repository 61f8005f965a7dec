//! `control_churn`: a `ResidentMetro` stepped one trace step (and one
//! TTI) per epoch over 2,000 cells, 2 shards and 1,440 epochs, on a
//! heterogeneous pool (`PoolAccel::default_eval`) with a per-cell split
//! mix, while `kill_servers` and `revive_all` run on a fixed cycle.
//! Placement dominates; the per-epoch `thread::scope` spawn shows.
//!
//! The traced run steps the same service and, in lockstep, replays shard
//! 0's placement through the public placers — the warm `WarmPlacer`,
//! cold best-fit-decreasing and `incremental_repack` — on the demands the
//! service computes (same compute model, splits, accelerators and alive
//! set). Each epoch the warm replay must equal the service's shard-0
//! assignment.

use std::hint::black_box;
use std::time::Instant;

use pran_insight::slo::SloPolicy;
use pran_phy::compute::{CellWorkload, ComputeModel, FunctionalSplit};
use pran_phy::frame::Direction;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::{
    Allowed, CellDemand, Placement, PlacementInstance, WarmConfig, WarmPlacer,
};
use pran_sim::{MetroConfig, PoolAccel, PoolConfig, ResidentMetro, SplitPlan};
use pran_traces::{TraceConfig, TraceStream};

use crate::spans::Tracer;
use crate::stats::{median, summarize, unit_median_sum};
use crate::{measure, nproc, report_service, report_trace, Args, Outcome};

const CELLS: usize = 2_000;
const SHARDS: usize = 2;
const EPOCHS: u64 = 1_440;
/// Kill/revive cycle: at `KILL_AT` of every `CYCLE` epochs a tenth of
/// one shard's servers die; at `REVIVE_AT` every server comes back.
const CYCLE: u64 = 96;
const KILL_AT: u64 = 32;
const REVIVE_AT: u64 = 64;

fn config(seed: u64) -> MetroConfig {
    let mut cfg = MetroConfig::default_eval(CELLS, SHARDS);
    cfg.workers = nproc().min(SHARDS);
    cfg.seed = seed;
    cfg
}

/// A seeded split for every cell: a splitmix64 draw over the three
/// functional splits.
fn split_plan(seed: u64) -> Vec<FunctionalSplit> {
    let splits = FunctionalSplit::all();
    (0..CELLS as u64)
        .map(|c| {
            let mut z = seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            splits[((z ^ (z >> 31)) % splits.len() as u64) as usize]
        })
        .collect()
}

fn pool(cfg: &MetroConfig) -> PoolConfig {
    let mut pool = PoolConfig::default_eval(cfg.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    pool.slo = Some(SloPolicy::default_eval());
    pool.epoch_steps = 1;
    pool.ttis_per_step = 1;
    pool.accel = Some(PoolAccel::default_eval());
    pool.split_plan = SplitPlan::PerCell(split_plan(cfg.seed));
    pool
}

fn build(cfg: &MetroConfig) -> ResidentMetro {
    let trace = TraceConfig::default_day(cfg.cells, cfg.seed);
    ResidentMetro::with_pool(*cfg, pool(cfg), trace).expect("churn config validates")
}

/// Servers of each shard killed by the cycle at `epoch` (the first
/// `n` of the shard, since `kill_servers` takes the first alive ones).
fn dead_at(cfg: &MetroConfig, epoch: u64) -> Option<(usize, usize)> {
    let phase = epoch % CYCLE;
    (KILL_AT..REVIVE_AT).contains(&phase).then_some((
        ((epoch / CYCLE) as usize) % SHARDS,
        cfg.servers_per_shard / 10,
    ))
}

/// Apply the cycle's event for `epoch`, if any, before it is stepped.
fn churn(metro: &mut ResidentMetro, cfg: &MetroConfig, epoch: u64) {
    match epoch % CYCLE {
        KILL_AT => {
            let (shard, n) = dead_at(cfg, epoch).expect("kill phase");
            metro.kill_servers(shard, n);
        }
        REVIVE_AT => metro.revive_all(),
        _ => {}
    }
}

/// Every assignment must name a server that is alive this epoch.
fn check_alive(out: &mut Outcome, metro: &ResidentMetro, cfg: &MetroConfig, epoch: u64) {
    let dead = dead_at(cfg, epoch);
    for shard in 0..SHARDS {
        let bad = metro.shard_assignment(shard).iter().flatten().find(|&&s| {
            matches!(dead, Some((d, n)) if d == shard && s < n) || s >= cfg.servers_per_shard
        });
        out.check(bad.is_none(), || {
            format!("control_churn: epoch {epoch} shard {shard} assigns dead server {bad:?}")
        });
    }
}

/// Entry point.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

struct Day {
    epoch_ms: Vec<f64>,
    /// Each epoch's wall with its churn event, if any, seconds; the
    /// correctness checks between epochs are left out.
    epoch_s: Vec<f64>,
    tasks: u64,
    mean_servers: f64,
    miss_ratio: f64,
    migrations: u64,
}

fn day(metro: &mut ResidentMetro, cfg: &MetroConfig, epochs: u64, out: &mut Outcome) -> Day {
    let mut epoch_ms = Vec::with_capacity(epochs as usize);
    let mut epoch_s = Vec::with_capacity(epochs as usize);
    let mut tasks = 0;
    for epoch in 0..epochs {
        let start = Instant::now();
        churn(metro, cfg, epoch);
        let t = Instant::now();
        let status = black_box(metro.step_epoch());
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        epoch_s.push(start.elapsed().as_secs_f64());
        tasks += status.record.tasks;
        check_alive(out, metro, cfg, epoch);
    }
    let cum = metro.cumulative();
    out.check(
        cum.tasks_total == tasks && tasks == CELLS as u64 * epochs,
        || format!("control_churn: {tasks} tasks over {epochs} epochs of {CELLS} cells"),
    );
    Day {
        epoch_ms,
        epoch_s,
        tasks,
        mean_servers: cum.mean_servers(),
        miss_ratio: cum.miss_ratio(),
        migrations: cum.migrations,
    }
}

fn untraced(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    // Warm-up: a tenth of a day on a service of the same shape.
    day(&mut build(&cfg), &cfg, EPOCHS / 10, &mut out);
    let mut checks = Outcome::default();
    let passes = measure(
        args.seconds,
        2,
        || build(&cfg),
        |mut metro| {
            let t = Instant::now();
            let d = day(&mut metro, &cfg, EPOCHS, &mut checks);
            (t.elapsed().as_secs_f64(), d)
        },
    );
    out.tally.add(checks.tally);
    out.failures.extend(checks.failures);
    let first = &passes.results[0];
    for d in &passes.results {
        out.check(
            (d.mean_servers, d.migrations, d.miss_ratio)
                == (first.mean_servers, first.migrations, first.miss_ratio),
            || "control_churn: a repeated day produced different outcomes".into(),
        );
    }
    // A day's time is the sum over epochs of each epoch's median across
    // days: a stall of the machine hits one day's epochs, not every day's.
    let run_s = unit_median_sum(
        &passes
            .results
            .iter()
            .map(|d| d.epoch_s.as_slice())
            .collect::<Vec<_>>(),
    );
    let epochs: Vec<f64> = passes
        .results
        .iter()
        .flat_map(|d| d.epoch_ms.iter().copied())
        .collect();
    out.put("setup_s", "s", "lower", median(&passes.setup_s));
    out.put("run_s", "s", "lower", run_s);
    out.put("tasks_per_s", "1/s", "higher", first.tasks as f64 / run_s);
    out.put_summary("epoch_ms", "ms", &summarize(&epochs));
    out.put("sim_mean_servers", "servers", "exact", first.mean_servers);
    out.put("sim_miss_ratio", "ratio", "exact", first.miss_ratio);
    out.put("sim_migrations", "count", "exact", first.migrations as f64);
    out.notes.push(format!(
        "passes={} workers={} (run_s sums each epoch's median over days)",
        passes.wall_s.len(),
        cfg.workers
    ));
    out
}

/// Shard 0's placement, replayed through the public placers.
struct PlacementReplay {
    stream: TraceStream,
    row: Vec<f64>,
    model: ComputeModel,
    pool: PoolConfig,
    warm: WarmPlacer,
    cold: Placement,
    moves: u64,
    over_lb: u64,
    mismatches: u64,
}

impl PlacementReplay {
    fn new(cfg: &MetroConfig) -> Self {
        let mut trace = TraceConfig::default_day(cfg.cells, cfg.seed);
        trace.num_cells = cfg.shard_cells(0);
        trace.seed = cfg.shard_seed(0);
        let mut pool = pool(cfg);
        if let SplitPlan::PerCell(plan) = &pool.split_plan {
            pool.split_plan = SplitPlan::PerCell(plan[..trace.num_cells].to_vec());
        }
        PlacementReplay {
            stream: TraceStream::new(&trace),
            row: Vec::with_capacity(trace.num_cells),
            model: ComputeModel::calibrated(),
            warm: WarmPlacer::new(pool.warm.expect("churn pools place warm")),
            cold: Placement::empty(trace.num_cells),
            pool,
            moves: 0,
            over_lb: 0,
            mismatches: 0,
        }
    }

    /// The instance the service builds for this epoch: demand from the
    /// step's utilization at each cell's split, headroom applied, over
    /// the shard's alive servers.
    fn instance(&mut self, alive: Vec<bool>) -> PlacementInstance {
        self.stream.next_step_into(&mut self.row);
        let prbs = self.pool.bandwidth.prbs();
        let cells = self
            .row
            .iter()
            .enumerate()
            .map(|(c, &u)| {
                let w = CellWorkload {
                    bandwidth: self.pool.bandwidth,
                    antennas: self.pool.antennas,
                    prbs_used: (f64::from(prbs) * u.clamp(0.0, 1.0)).round() as u32,
                    mcs: self.pool.mcs,
                    direction: Direction::Uplink,
                    split: self.pool.split_plan.split_for(c),
                };
                CellDemand {
                    id: c,
                    gops: self.model.pooled_gops(&w) * self.pool.headroom,
                    decode_gops: self.model.pooled_decode_gops(&w) * self.pool.headroom,
                }
            })
            .collect();
        PlacementInstance {
            cells,
            servers: self.pool.server_specs(),
            allowed: Allowed::Uniform(alive),
        }
    }
}

/// One traced (or, with a disabled tracer, untraced) day.
fn traced_day(
    cfg: &MetroConfig,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (ResidentMetro, PlacementReplay, Vec<[u64; 4]>) {
    let mut metro = tracer.span("service.setup", || build(cfg));
    let mut rp = tracer.span("perfbench.replay_setup", || PlacementReplay::new(cfg));
    let mut phases = Vec::with_capacity(EPOCHS as usize);
    for epoch in 0..EPOCHS {
        churn(&mut metro, cfg, epoch);
        let s = tracer.span("service.step_epoch", || metro.step_epoch());
        phases.push([s.ingest_ns, s.dispatch_ns, s.execute_ns, s.merge_ns]);
        check_alive(out, &metro, cfg, epoch);

        let alive: Vec<bool> = (0..cfg.servers_per_shard)
            .map(|s| !matches!(dead_at(cfg, epoch), Some((0, n)) if s < n))
            .collect();
        let instance = tracer.span("perfbench.replay_instance", || rp.instance(alive));
        let (placement, plan, _) = tracer.span("placement.warm_epoch", || rp.warm.epoch(&instance));
        let cold = tracer.span("placement.cold_bfd", || {
            place(&instance, Heuristic::BestFitDecreasing)
        });
        let (repacked, _) = tracer.span("placement.repack", || {
            incremental_repack(&instance, &rp.cold)
        });
        rp.cold = repacked;
        black_box(cold);
        rp.moves += plan.len() as u64;
        rp.over_lb += instance
            .servers_used(&placement)
            .saturating_sub(instance.lower_bound_servers()) as u64;
        rp.mismatches += u64::from(placement.assignment != metro.shard_assignment(0));
    }
    (metro, rp, phases)
}

fn traced(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut checks = Outcome::default();
    black_box(day(&mut build(&cfg), &cfg, EPOCHS / 10, &mut checks));
    let mut off = Tracer::disabled();
    let t = Instant::now();
    black_box(traced_day(&cfg, &mut off, &mut checks));
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new();
    let (metro, rp, phases) = traced_day(&cfg, &mut tracer, &mut out);
    let wall_ns = tracer.wall_ns();
    out.tally.add(checks.tally);
    out.failures.extend(checks.failures);
    out.check(rp.mismatches == 0, || {
        format!(
            "control_churn: the warm placement replay differs from the service's \
             shard-0 assignment in {} of {EPOCHS} epochs",
            rp.mismatches
        )
    });
    black_box(metro);

    let totals = tracer.totals();
    let per_epoch = |name: &str| totals[name].total_ns as f64 / 1e3 / EPOCHS as f64;
    out.put(
        "placement.warm_epoch_us",
        "us",
        "lower",
        per_epoch("placement.warm_epoch"),
    );
    out.put(
        "placement.cold_bfd_us",
        "us",
        "lower",
        per_epoch("placement.cold_bfd"),
    );
    out.put(
        "placement.repack_us",
        "us",
        "lower",
        per_epoch("placement.repack"),
    );
    out.put(
        "placement.moves_per_epoch",
        "count",
        "lower",
        rp.moves as f64 / EPOCHS as f64,
    );
    out.put(
        "placement.servers_over_lb",
        "servers",
        "lower",
        rp.over_lb as f64 / EPOCHS as f64,
    );
    report_service(&mut out, &tracer, &phases, cfg.workers);
    report_trace(&mut out, &tracer, wall_ns, untraced_s, args);
    out
}
