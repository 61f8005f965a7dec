//! PRAN benchmark: four workloads driven through the workspace's public
//! APIs, an untraced run that reports end-to-end metrics and a separate
//! traced run that reports per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload metro_day --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every input is generated from `--seed`. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the gated end-to-end
//! metrics untraced, the per-layer metrics traced). The exit code is
//! non-zero when any correctness check fails. See `README.md`.

mod control_churn;
mod exact_ladder;
mod machine;
mod metro_day;
mod soak_live;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Tally;

/// End-to-end metrics and units every workload reports in its result
/// line, in the order `BENCHMARK.json` lists them.
pub const GATED: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_servers", "servers"),
];

/// Per-layer metrics and units the traced result line carries, in the
/// order `BENCHMARK.json` lists them. A workload that does not exercise
/// a layer reports 0 for it.
pub const LAYERS: [(&str, &str); 36] = [
    ("traces.ns_per_cell_step", "ns"),
    ("pool.ns_per_task", "ns"),
    ("pool.setup_us", "us"),
    ("realtime.ns_per_task", "ns"),
    ("realtime.misses", "count"),
    ("metro.merge_us", "us"),
    ("metro.shard_imbalance", "ratio"),
    ("placement.warm_epoch_us", "us"),
    ("placement.cold_bfd_us", "us"),
    ("placement.repack_us", "us"),
    ("placement.moves_per_epoch", "count"),
    ("placement.servers_over_lb", "servers"),
    ("service.step_us", "us"),
    ("service.ingest_ns", "ns"),
    ("service.dispatch_ns", "ns"),
    ("service.execute_ns", "ns"),
    ("service.merge_ns", "ns"),
    ("service.unattributed_us", "us"),
    ("live.record_ns", "ns"),
    ("live.events_per_epoch", "count"),
    ("live.drain_us", "us"),
    ("live.dropped_ratio", "ratio"),
    ("insight.fold_us", "us"),
    ("insight.render_us", "us"),
    ("obs.run_epoch_extra_us", "us"),
    ("obs.scrape_ms.metrics", "ms"),
    ("obs.scrape_ms.slo", "ms"),
    ("obs.scrape_ms.topk", "ms"),
    ("obs.body_bytes", "bytes"),
    ("ilp.build_us", "us"),
    ("ilp.nodes", "count"),
    ("ilp.us_per_node", "us"),
    ("ilp.rung_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.identity_residual_pct", "%"),
    ("trace.wall_s", "s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower`, `higher`, or `exact` for simulated outcomes that must
    /// repeat exactly for a seed.
    pub better: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, correctness checks included.
    pub tally: Tally,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Free-form findings printed with the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn put(&mut self, name: &str, unit: &'static str, better: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value,
        });
    }

    /// Record a timing summary as `<name>_p50` and `<name>_tail`.
    pub fn put_summary(&mut self, name: &str, unit: &'static str, s: &stats::Summary) {
        self.put(&format!("{name}_p50"), unit, "lower", s.p50);
        self.put(&format!("{name}_tail"), unit, "lower", s.tail);
        self.notes.push(format!(
            "{name}: n={} p50={:.4} p{}={:.4} ({} beyond)",
            s.count, s.p50, s.tail_pct, s.tail, s.beyond
        ));
    }

    /// Count one correctness check; a failing one is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !self.tally.record(ok) {
            self.failures.push(what());
        }
        ok
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Timings of one untraced run's passes.
pub struct Passes<R> {
    /// Each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Each measured pass, seconds.
    pub wall_s: Vec<f64>,
    /// What each measured pass returned.
    pub results: Vec<R>,
}

/// Extra set-ups timed before each pass, beyond the one the pass needs:
/// at least `SETUP_ROUND.0` and until `SETUP_ROUND_S` is spent, at most
/// `SETUP_ROUND.1`. Spreading them over the run, not timing them all at
/// its start, lets the median see the same host as the passes do. Each
/// sample times a batch of set-ups lasting at least `SETUP_BATCH_S`, so
/// the clock reads do not dominate a sub-microsecond set-up.
const SETUP_ROUND: (usize, usize) = (3, 1_000);
const SETUP_ROUND_S: f64 = 0.03;
const SETUP_BATCH_S: f64 = 10e-6;

/// Run measured passes for about `seconds`, each on fresh state from
/// `setup`, whose time is recorded apart. `pass` returns its own wall
/// time (so it can leave helper threads out) and its result. Passes
/// stop when another round of set-ups and a pass would overrun
/// `seconds`, after at least `min_passes`.
pub fn measure<S, R>(
    seconds: f64,
    min_passes: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(S) -> (f64, R),
) -> Passes<R> {
    let mut p = Passes {
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        results: Vec::new(),
    };
    let began = std::time::Instant::now();
    let mut batch = 1;
    loop {
        let (mut taken, mut spent) = (0, 0.0);
        while taken < SETUP_ROUND.1 && (taken < SETUP_ROUND.0 || spent < SETUP_ROUND_S) {
            let t = std::time::Instant::now();
            for _ in 0..batch {
                drop(std::hint::black_box(setup()));
            }
            let took = t.elapsed().as_secs_f64();
            spent += took;
            if took < SETUP_BATCH_S {
                batch *= 2;
            } else {
                p.setup_s.push(took / batch as f64);
                taken += 1;
            }
        }
        let t = std::time::Instant::now();
        let state = std::hint::black_box(setup());
        p.setup_s.push(t.elapsed().as_secs_f64());
        let (wall, result) = pass(state);
        p.wall_s.push(wall);
        p.results.push(std::hint::black_box(result));
        let elapsed = began.elapsed().as_secs_f64();
        let per_round = elapsed / p.wall_s.len() as f64;
        if p.wall_s.len() >= min_passes && elapsed + per_round > seconds {
            return p;
        }
    }
}

/// Report a traced run's wall, its overhead over the untraced wall of
/// the same calls, the accounting identity's residual and each layer's
/// self time, and write the spans out.
pub fn report_trace(
    out: &mut Outcome,
    tracer: &spans::Tracer,
    wall_ns: u64,
    untraced_s: f64,
    args: &Args,
) {
    let totals = tracer.totals();
    let (accounted, residual) = spans::identity(&totals, wall_ns);
    let wall_s = wall_ns as f64 / 1e9;
    out.put("trace.wall_s", "s", "lower", wall_s);
    out.put(
        "trace.overhead_pct",
        "%",
        "lower",
        (wall_s - untraced_s) / untraced_s * 100.0,
    );
    out.put(
        "trace.identity_residual_pct",
        "%",
        "lower",
        residual as f64 / wall_ns as f64 * 100.0,
    );
    out.notes.push(format!(
        "identity: traced wall {wall_ns} ns, layer self times x calls {accounted} ns, \
         residual {residual} ns; untraced wall {:.0} ns",
        untraced_s * 1e9
    ));
    for (name, t) in &totals {
        out.notes.push(format!(
            "layer {name}: calls={} self_ns={} total_ns={}",
            t.calls, t.self_ns, t.total_ns
        ));
    }
    // One traced/untraced pair is noisy on a shared host; the cost of the
    // spans themselves, timed on empty spans, bounds what tracing adds.
    let calls: u64 = totals.values().map(|t| t.calls).sum();
    let mut probe = spans::Tracer::new();
    let t = std::time::Instant::now();
    for _ in 0..100_000 {
        probe.span("probe", || ());
    }
    let span_ns = t.elapsed().as_nanos() as f64 / 100_000.0;
    out.notes.push(format!(
        "spans: {calls} at {span_ns:.1} ns each, {:.4} % of the traced wall",
        calls as f64 * span_ns / wall_ns as f64 * 100.0
    ));
    let path = out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = tracer.write(&path) {
        out.notes
            .push(format!("spans not written to {}: {e}", path.display()));
    }
}

/// Report the service layer from the `service.step_epoch` spans and the
/// phase times (ingest, dispatch, execute, merge) each `EpochStatus`
/// returned, as per-epoch medians. The first three phases are summed over
/// shards that run in parallel, so the step wall they leave unexplained
/// divides them by the workers.
pub fn report_service(
    out: &mut Outcome,
    tracer: &spans::Tracer,
    phases: &[[u64; 4]],
    workers: usize,
) {
    let steps = tracer.durations_ns("service.step_epoch");
    let col = |i: usize| stats::median(&phases.iter().map(|p| p[i] as f64).collect::<Vec<_>>());
    let unattributed: Vec<f64> = steps
        .iter()
        .zip(phases)
        .map(|(&step, p)| step as f64 - (p[0] + p[1] + p[2]) as f64 / workers as f64 - p[3] as f64)
        .collect();
    let steps: Vec<f64> = steps.iter().map(|&ns| ns as f64).collect();
    out.put(
        "service.step_us",
        "us",
        "lower",
        stats::median(&steps) / 1e3,
    );
    out.put("service.ingest_ns", "ns", "lower", col(0));
    out.put("service.dispatch_ns", "ns", "lower", col(1));
    out.put("service.execute_ns", "ns", "lower", col(2));
    out.put("service.merge_ns", "ns", "lower", col(3));
    out.put(
        "service.unattributed_us",
        "us",
        "lower",
        stats::median(&unattributed) / 1e3,
    );
}

/// Directory for the run's side outputs (spans, the full result):
/// `$CARGO_TARGET_DIR/perfbench`, else `perfbench/target/perfbench`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

/// Shard workers the benchmark allows: never more than `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (steal0, total0) = machine::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "metro_day" => metro_day::run(&args),
        "soak_live" => soak_live::run(&args),
        "control_churn" => control_churn::run(&args),
        "exact_ladder" => exact_ladder::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (steal1, total1) = machine::cpu_ticks();
    out.notes.push(format!(
        "host steal during the run: {:.2} % of CPU time",
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64 * 100.0
    ));
    if !args.trace {
        out.put("peak_rss_mb", "MB", "lower", machine::peak_rss_mb());
        out.put("failed_ratio", "ratio", "lower", out.tally.failed_ratio());
    }
    let machine = machine::Fingerprint::collect();
    let listed: &[(&str, &str)] = if args.trace { &LAYERS } else { &GATED };

    let mut metrics = serde_json::Map::new();
    for &(name, unit) in listed {
        let value = match out.get(name).map(|m| (m.value, m.unit)) {
            Some((value, u)) if u == unit => value,
            Some((value, u)) => {
                out.failures
                    .push(format!("{name} measured in {u}, listed in {unit}"));
                value
            }
            None if args.trace => 0.0,
            None => {
                out.failures.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine {}", machine.line());
    for m in &out.metrics {
        let gated = if listed.iter().any(|(n, _)| *n == m.name) {
            "*"
        } else {
            " "
        };
        println!(
            "{gated} {:<28} {:>24} {:<7} {}",
            m.name, m.value, m.unit, m.better
        );
    }
    for n in &out.notes {
        println!("note {n}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }

    let record = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.to_json(),
        "metrics": out.metrics.iter().map(|m| serde_json::json!({
            "name": m.name, "value": m.value, "unit": m.unit, "better": m.better,
        })).collect::<Vec<_>>(),
        "notes": out.notes,
        "failures": out.failures,
    });
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, record.to_string()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    let correct = out.failures.is_empty();
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": out.tally.attempted.max(1),
            "failed": out.tally.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
