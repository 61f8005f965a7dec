//! `exact_ladder`: `placement::ilp::solve` over a fixed ladder of
//! placement instances, 6 to 18 cells at every other hour of four diurnal
//! days drawn from the seed. Every rung is bounded by a branch-and-bound
//! node budget rather than a wall-clock limit, so every run of a seed does
//! the same work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pran_ilp::BnbConfig;
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::ilp::{build_model, solve, IlpPlacement};
use pran_sched::placement::PlacementInstance;
use pran_traces::{generate, TraceConfig};

use crate::spans::Tracer;
use crate::stats::{median, unit_median_sum};
use crate::{measure, report_trace, Args, Outcome};

const CELLS: [usize; 7] = [6, 8, 10, 12, 14, 16, 18];
/// Hours of the day a rung is cut at: every other hour, so night,
/// midday and peak load all appear.
const HOUR_STEP: usize = 2;
/// Day traces per cell count, each from its own seed drawn from the
/// benchmark seed: enough rungs that the share of hard ones, and so the
/// ladder's work, barely moves from seed to seed.
const DAYS: u64 = 4;
/// Branch-and-bound nodes each rung may explore.
const NODE_BUDGET: usize = 20;
/// Capacity of every server, GOPS (the evaluation pools' value).
const SERVER_GOPS: f64 = 400.0;

fn bnb() -> BnbConfig {
    BnbConfig {
        max_nodes: NODE_BUDGET,
        // Far beyond any rung's solve: the node budget binds, not the clock.
        time_limit: Duration::from_secs(3_600),
        ..BnbConfig::default()
    }
}

/// One rung: its label and instance.
struct Rung {
    label: String,
    instance: PlacementInstance,
}

/// The ladder for `seed`: per cell count, `DAYS` hourly day traces; a
/// rung per (cell count, day, hour) with one server per cell.
fn ladder(seed: u64) -> Vec<Rung> {
    let conv = GopsConverter::default_eval();
    let mut rungs = Vec::new();
    for cells in CELLS {
        for day in 0..DAYS {
            let day_seed = seed
                .wrapping_mul(DAYS * 64)
                .wrapping_add(day * 64 + cells as u64);
            let mut cfg = TraceConfig::default_day(cells, day_seed);
            cfg.step_seconds = 3_600.0;
            let trace = generate(&cfg);
            for hour in (0..trace.num_steps()).step_by(HOUR_STEP) {
                let demands: Vec<f64> = trace.samples[hour].iter().map(|&u| conv.gops(u)).collect();
                rungs.push(Rung {
                    label: format!("{cells}c-d{day}-h{hour:02}"),
                    instance: PlacementInstance::uniform(&demands, cells, SERVER_GOPS),
                });
            }
        }
    }
    rungs
}

/// Check a rung's result — an incumbent exists, passes validation and
/// uses no more servers than best-fit-decreasing — and return the
/// servers it uses (0 without an incumbent).
fn check_rung(out: &mut Outcome, rung: &Rung, r: &IlpPlacement) -> usize {
    let inst = &rung.instance;
    let Some(p) = r.placement.as_ref() else {
        out.check(false, || {
            format!("exact_ladder: {} found no incumbent", rung.label)
        });
        return 0;
    };
    let valid = inst.validate(p);
    out.check(valid.is_ok(), || {
        format!(
            "exact_ladder: {} incumbent is invalid: {valid:?}",
            rung.label
        )
    });
    let bfd = place(inst, Heuristic::BestFitDecreasing);
    let used = inst.servers_used(p);
    let bfd_used = inst.servers_used(&bfd.placement);
    out.check(used <= bfd_used, || {
        format!(
            "exact_ladder: {} uses {used} servers, BFD {bfd_used}",
            rung.label
        )
    });
    used
}

/// Outcomes of one pass over the ladder.
#[derive(PartialEq)]
struct Pass {
    nodes: u64,
    proofs: u64,
    servers: Vec<usize>,
}

/// Solve every rung, timing each alone; the checks (BFD, validation)
/// run off the clock. Returns the summed rung time, the pass's outcomes
/// and each rung's time.
fn pass(rungs: &[Rung], checks: &mut Outcome) -> (f64, (Pass, Vec<f64>)) {
    let config = bnb();
    let mut rung_s = Vec::with_capacity(rungs.len());
    let results: Vec<IlpPlacement> = rungs
        .iter()
        .map(|r| {
            let t = Instant::now();
            let out = black_box(solve(&r.instance, &config));
            rung_s.push(t.elapsed().as_secs_f64());
            out
        })
        .collect();
    let p = Pass {
        nodes: results.iter().map(|r| r.nodes as u64).sum(),
        proofs: results.iter().filter(|r| r.optimal).count() as u64,
        servers: rungs
            .iter()
            .zip(&results)
            .map(|(rung, r)| check_rung(checks, rung, r))
            .collect(),
    };
    (rung_s.iter().sum(), (p, rung_s))
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
    let mut out = Outcome::default();
    let mut checks = Outcome::default();
    black_box(pass(&ladder(args.seed), &mut checks));
    let passes = measure(
        args.seconds,
        3,
        || ladder(args.seed),
        |rungs| pass(&rungs, &mut checks),
    );
    out.tally.add(checks.tally);
    out.failures.extend(checks.failures);
    let first = &passes.results[0].0;
    for (p, _) in &passes.results {
        out.check(p == first, || {
            "exact_ladder: a repeated ladder explored different nodes or proofs".into()
        });
    }
    // The ladder's time is the sum over rungs of each rung's median
    // across passes: a stall of the machine hits one pass's rungs, not
    // every pass's.
    let run_s = unit_median_sum(
        &passes
            .results
            .iter()
            .map(|(_, t)| t.as_slice())
            .collect::<Vec<_>>(),
    );
    let mean_servers = first.servers.iter().sum::<usize>() as f64 / first.servers.len() as f64;
    out.put("setup_s", "s", "lower", median(&passes.setup_s));
    out.put("run_s", "s", "lower", run_s);
    out.put("tasks_per_s", "1/s", "higher", first.nodes as f64 / run_s);
    out.put("sim_mean_servers", "servers", "exact", mean_servers);
    out.put("ilp_proofs", "count", "exact", first.proofs as f64);
    out.notes.push(format!(
        "passes={} rungs={} nodes_per_pass={} (tasks_per_s counts branch-and-bound nodes; \
         run_s sums each rung's median over passes)",
        passes.wall_s.len(),
        first.servers.len(),
        first.nodes
    ));
    out
}

fn traced_pass(rungs: &[Rung], tracer: &mut Tracer) -> Vec<IlpPlacement> {
    let config = bnb();
    rungs
        .iter()
        .map(|rung| {
            tracer.span("ilp.build_model", || black_box(build_model(&rung.instance)));
            tracer.span("ilp.solve", || solve(&rung.instance, &config))
        })
        .collect()
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let rungs = ladder(args.seed);
    let mut off = Tracer::disabled();
    black_box(traced_pass(&rungs, &mut off));
    let t = Instant::now();
    black_box(traced_pass(&rungs, &mut off));
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new();
    let results = traced_pass(&rungs, &mut tracer);
    let wall_ns = tracer.wall_ns();
    for (rung, r) in rungs.iter().zip(&results) {
        check_rung(&mut out, rung, r);
    }

    let totals = tracer.totals();
    let nodes: u64 = results.iter().map(|r| r.nodes as u64).sum();
    let solve_ns = totals["ilp.solve"].total_ns as f64;
    out.put(
        "ilp.build_us",
        "us",
        "lower",
        totals["ilp.build_model"].total_ns as f64 / 1e3 / rungs.len() as f64,
    );
    out.put("ilp.nodes", "count", "lower", nodes as f64);
    out.put(
        "ilp.us_per_node",
        "us",
        "lower",
        solve_ns / 1e3 / nodes as f64,
    );
    out.put(
        "ilp.rung_ms",
        "ms",
        "lower",
        solve_ns / 1e6 / rungs.len() as f64,
    );
    let solve_each = tracer.durations_ns("ilp.solve");
    for ((rung, r), ns) in rungs.iter().zip(&results).zip(solve_each) {
        out.notes.push(format!(
            "rung {}: {} nodes, optimal={}, {:.3} ms",
            rung.label,
            r.nodes,
            r.optimal,
            ns as f64 / 1e6
        ));
    }
    report_trace(&mut out, &tracer, wall_ns, untraced_s, args);
    out
}
