//! `soak_live`: a resident `SoakRunner` with `/metrics` served and the
//! live insight plane armed, over 2,500 cells, 4 shards and a day of 144
//! epochs stepped back to back (a closed loop). One open-loop scraper
//! thread cycles `/metrics`, `/slo` and `/topk` at a fixed rate over one
//! connection at a time, timing each scrape from its due time. All of
//! shard 0 is killed for a stretch mid-day; the outage must cut a
//! flight-recorder dump.
//!
//! The traced run times `run_epoch` on the runner, then replays the same
//! day through the public pieces the runner wires together —
//! `ResidentMetro::step_epoch`, the live tap's `drain_shard_into` and
//! `LiveFold::fold_shard` — and checks the replayed fold against the
//! runner's. It also times `sim_event` with the tap armed and
//! `openmetrics::render` on the runner's registry.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pran_insight::live::LiveFold;
use pran_insight::openmetrics;
use pran_insight::spans::DEFAULT_BUDGET_US;
use pran_obs::{http_get, validate_dump, Phase, SoakConfig, SoakRunner};
use pran_sim::{MetroConfig, ResidentMetro};
use pran_telemetry::trace::{set_shard, sim_event, TraceEvent};
use pran_telemetry::RegistrySnapshot;

use crate::spans::Tracer;
use crate::stats::{median, summarize, time_from_due, unit_median_sum, OpenLoop, Tally};
use crate::{measure, nproc, report_service, report_trace, Args, Outcome};

const CELLS: usize = 2_500;
const SHARDS: usize = 4;
const EPOCHS: u64 = 144;
/// Shard 0 is down for epochs `OUTAGE.0..OUTAGE.1`.
const OUTAGE: (u64, u64) = (60, 72);
/// Scrapes per second, cycling the three routes.
const SCRAPE_RATE: f64 = 50.0;
const ROUTES: [(&str, &str); 3] = [
    ("/metrics", "# EOF"),
    ("/slo", "\"pran-slo/1\""),
    ("/topk", "\"pran-topk/1\""),
];
/// OpenMetrics renders timed on the day's final registry.
const RENDERS: usize = 20;
/// Live ring capacity per shard (the soak default).
const RING: usize = 1 << 16;

fn config(seed: u64) -> MetroConfig {
    let mut cfg = MetroConfig::default_eval(CELLS, SHARDS);
    cfg.workers = nproc().min(SHARDS);
    cfg.seed = seed;
    cfg
}

fn soak_config() -> SoakConfig {
    SoakConfig {
        live_insight: true,
        live_ring_capacity: RING,
        ..SoakConfig::default()
    }
}

/// Kill or revive shard 0 at the outage's edges.
fn outage(metro: &mut ResidentMetro, epoch: u64) {
    if epoch == OUTAGE.0 {
        let servers = metro.total_servers() / metro.shard_count();
        metro.kill_servers(0, servers);
    } else if epoch == OUTAGE.1 {
        metro.revive_all();
    }
}

/// A served, armed runner.
struct Soak {
    runner: SoakRunner,
    addr: SocketAddr,
}

fn build(cfg: &MetroConfig) -> Soak {
    let metro = ResidentMetro::try_new(*cfg).expect("soak config validates");
    let mut runner = SoakRunner::new(metro, soak_config());
    let addr = runner.serve("127.0.0.1:0").expect("bind a loopback port");
    Soak { runner, addr }
}

/// One scrape's outcome.
struct Scrape {
    route: usize,
    latency_ms: f64,
    lateness_ms: f64,
    bytes: usize,
}

/// The open-loop scraper: one thread, one connection at a time.
struct Scraper {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Vec<Scrape>, Tally, Vec<String>)>,
}

impl Scraper {
    fn start(addr: SocketAddr) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let sched = OpenLoop::new(Instant::now(), SCRAPE_RATE);
            let (mut scrapes, mut tally, mut failures) = (Vec::new(), Tally::default(), Vec::new());
            for i in 0u64.. {
                let due = sched.due(i);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if flag.load(Ordering::Acquire) {
                    break;
                }
                let route = (i % ROUTES.len() as u64) as usize;
                let (path, tag) = ROUTES[route];
                let sent = Instant::now();
                let got = http_get(addr, path);
                let timed = time_from_due(due, sent, Instant::now());
                // `/metrics` must end with `# EOF`; the JSON routes must
                // carry their schema tag.
                let ok = match &got {
                    Ok((200, body)) if route == 0 => body.trim_end().ends_with(tag),
                    Ok((200, body)) => body.contains(tag),
                    _ => false,
                };
                if !tally.record(ok) {
                    let seen = got.as_ref().map(|(code, body)| (*code, body.len()));
                    failures.push(format!("soak_live: scrape {path} failed: {seen:?}"));
                }
                scrapes.push(Scrape {
                    route,
                    latency_ms: timed.latency.as_secs_f64() * 1e3,
                    lateness_ms: timed.lateness.as_secs_f64() * 1e3,
                    bytes: got.map_or(0, |(_, b)| b.len()),
                });
            }
            (scrapes, tally, failures)
        });
        Scraper { stop, handle }
    }

    fn finish(self) -> (Vec<Scrape>, Tally, Vec<String>) {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("scraper thread panicked")
    }
}

/// What one served day produced.
struct Day {
    epoch_ms: Vec<f64>,
    /// Each epoch's wall with its outage event, if any, seconds.
    epoch_s: Vec<f64>,
    tasks: u64,
    scrapes: Vec<Scrape>,
    mean_servers: f64,
    miss_ratio: f64,
    migrations: u64,
    /// The live fold's (events, tasks, misses) at the end of the day.
    fold: (u64, u64, u64),
    telemetry_us: f64,
    /// The registry as the last scrape saw it.
    snapshot: RegistrySnapshot,
}

/// Step a served day with the scraper running; checks go to `out`.
fn day(soak: Soak, tracer: &mut Tracer, out: &mut Outcome) -> (f64, Day) {
    let Soak { mut runner, addr } = soak;
    let scraper = Scraper::start(addr);
    let mut epoch_ms = Vec::with_capacity(EPOCHS as usize);
    let mut epoch_s = Vec::with_capacity(EPOCHS as usize);
    let mut tasks = 0;
    let mut dumps_in_outage = 0;
    let start = Instant::now();
    for epoch in 0..EPOCHS {
        let begin = Instant::now();
        outage(runner.metro_mut(), epoch);
        let before = runner.dumps_written();
        let t = Instant::now();
        let e = tracer.span("obs.run_epoch", || runner.run_epoch());
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        epoch_s.push(begin.elapsed().as_secs_f64());
        let s = &e.status;
        tasks += s.record.tasks;
        if (OUTAGE.0..OUTAGE.1).contains(&epoch) {
            dumps_in_outage += runner.dumps_written() - before;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (scrapes, tally, failures) = scraper.finish();
    out.tally.add(tally);
    out.failures.extend(failures);

    out.check(dumps_in_outage > 0, || {
        "soak_live: the shard-0 outage cut no recorder dump".into()
    });
    let dump = runner.last_dump().map(|(doc, _)| validate_dump(doc));
    out.check(matches!(dump, Some(Ok(_))), || {
        format!("soak_live: the last recorder dump does not validate: {dump:?}")
    });
    let cum = runner.metro().cumulative();
    out.check(
        cum.tasks_total == tasks && tasks == (CELLS * 40) as u64 * EPOCHS,
        || {
            format!(
                "soak_live: {tasks} tasks over the day, cumulative {}",
                cum.tasks_total
            )
        },
    );
    let fold = runner.live_fold().expect("live insight is armed");
    let d = Day {
        epoch_ms,
        epoch_s,
        tasks,
        scrapes,
        mean_servers: cum.mean_servers(),
        miss_ratio: cum.miss_ratio(),
        migrations: cum.migrations,
        fold: (fold.events(), fold.tasks(), fold.misses()),
        telemetry_us: runner
            .profiler()
            .histogram(Phase::Telemetry)
            .mean()
            .as_secs_f64()
            * 1e6,
        snapshot: runner.registry().snapshot(),
    };
    (wall, d)
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
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut checks = Outcome::default();
    let mut off = Tracer::disabled();
    // Warm-up: a day on a runner of the same shape; not reported.
    black_box(day(build(&cfg), &mut off, &mut checks));
    let passes = measure(
        args.seconds,
        2,
        || build(&cfg),
        |soak| day(soak, &mut off, &mut checks),
    );
    out.tally.add(checks.tally);
    out.failures.extend(checks.failures);
    let first = &passes.results[0];
    for d in &passes.results {
        out.check(
            (d.mean_servers, d.migrations, d.miss_ratio, d.fold)
                == (
                    first.mean_servers,
                    first.migrations,
                    first.miss_ratio,
                    first.fold,
                ),
            || "soak_live: a repeated day produced different outcomes".into(),
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
    let all =
        |f: &dyn Fn(&Day) -> Vec<f64>| -> Vec<f64> { passes.results.iter().flat_map(f).collect() };
    out.put("setup_s", "s", "lower", median(&passes.setup_s));
    out.put("run_s", "s", "lower", run_s);
    out.put("tasks_per_s", "1/s", "higher", first.tasks as f64 / run_s);
    out.put_summary("epoch_ms", "ms", &summarize(&all(&|d| d.epoch_ms.clone())));
    out.put_summary(
        "scrape_ms",
        "ms",
        &summarize(&all(&|d| d.scrapes.iter().map(|s| s.latency_ms).collect())),
    );
    out.put_summary(
        "scrape_late_ms",
        "ms",
        &summarize(&all(&|d| d.scrapes.iter().map(|s| s.lateness_ms).collect())),
    );
    out.put("sim_mean_servers", "servers", "exact", first.mean_servers);
    out.put("sim_miss_ratio", "ratio", "exact", first.miss_ratio);
    out.put("sim_migrations", "count", "exact", first.migrations as f64);
    out.notes.push(format!(
        "passes={} workers={} scrape_rate={SCRAPE_RATE}/s (open loop, one thread); \
         run_s sums each epoch's median over days",
        passes.wall_s.len(),
        cfg.workers
    ));
    out
}

/// The live plane, replayed through public calls: the service stepped
/// alone, each shard's tap drained and folded.
fn live_replay(cfg: &MetroConfig, tracer: &mut Tracer) -> (LiveFold, Vec<[u64; 4]>, u64) {
    let mut metro = ResidentMetro::try_new(*cfg).expect("soak config validates");
    pran_telemetry::live::arm(metro.shard_count(), RING);
    let mut fold = LiveFold::new(
        metro.total_cells(),
        metro.total_servers(),
        DEFAULT_BUDGET_US,
    );
    let mut scratch: Vec<TraceEvent> = Vec::with_capacity(RING);
    let mut phases = Vec::with_capacity(EPOCHS as usize);
    for epoch in 0..EPOCHS {
        outage(&mut metro, epoch);
        let s = tracer.span("service.step_epoch", || metro.step_epoch());
        phases.push([s.ingest_ns, s.dispatch_ns, s.execute_ns, s.merge_ns]);
        for shard in 0..metro.shard_count() {
            scratch.clear();
            tracer.span("live.drain", || {
                pran_telemetry::live::drain_shard_into(shard, &mut scratch)
            });
            let (cell_off, server_off) = metro.shard_offsets(shard);
            tracer.span("insight.fold", || {
                fold.fold_shard(
                    &scratch,
                    cell_off,
                    server_off,
                    metro.shard_assignment(shard),
                )
            });
        }
    }
    let dropped = pran_telemetry::live::dropped();
    pran_telemetry::live::disarm();
    (fold, phases, dropped)
}

/// ns per `sim_event` with the live tap armed (one ring, never full).
fn record_ns() -> f64 {
    const N: usize = 1 << 16;
    pran_telemetry::live::arm(1, N);
    set_shard(Some(0));
    let t = Instant::now();
    for i in 0..N as u64 {
        sim_event("perfbench.probe", black_box(i), &[("cell", i.into())]);
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    set_shard(None);
    let mut out = Vec::with_capacity(N);
    let drained = pran_telemetry::live::drain_shard_into(0, &mut out);
    pran_telemetry::live::disarm();
    assert_eq!(drained, N, "every probe event reached the tap");
    ns
}

/// The traced sequence: a served day, then the live replay.
fn traced_run(
    cfg: &MetroConfig,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Day, LiveFold, Vec<[u64; 4]>, u64) {
    let soak = tracer.span("obs.setup", || build(cfg));
    let (_, d) = day(soak, tracer, out);
    for _ in 0..RENDERS {
        black_box(tracer.span("insight.render", || openmetrics::render(&d.snapshot)));
    }
    let (fold, phases, dropped) = live_replay(cfg, tracer);
    (d, fold, phases, dropped)
}

fn traced(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let mut out = Outcome::default();
    let mut checks = Outcome::default();
    let mut off = Tracer::disabled();
    black_box(day(build(&cfg), &mut off, &mut checks));
    let t = Instant::now();
    black_box(traced_run(&cfg, &mut off, &mut checks));
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new();
    let (d, fold, phases, dropped) = traced_run(&cfg, &mut tracer, &mut out);
    let wall_ns = tracer.wall_ns();
    out.tally.add(checks.tally);
    out.failures.extend(checks.failures);
    let replayed = (fold.events(), fold.tasks(), fold.misses());
    out.check(replayed == d.fold, || {
        format!(
            "soak_live: replayed live fold {replayed:?} differs from the runner's {:?}",
            d.fold
        )
    });

    let totals = tracer.totals();
    let per_epoch_us = |name: &str| totals[name].total_ns as f64 / 1e3 / EPOCHS as f64;
    report_service(&mut out, &tracer, &phases, cfg.workers);
    out.put("live.record_ns", "ns", "lower", record_ns());
    out.put(
        "live.events_per_epoch",
        "count",
        "lower",
        fold.events() as f64 / EPOCHS as f64,
    );
    out.put("live.drain_us", "us", "lower", per_epoch_us("live.drain"));
    out.put(
        "live.dropped_ratio",
        "ratio",
        "lower",
        dropped as f64 / (fold.events() + dropped) as f64,
    );
    out.put(
        "insight.fold_us",
        "us",
        "lower",
        per_epoch_us("insight.fold"),
    );
    let render: Vec<f64> = tracer
        .durations_ns("insight.render")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    out.put("insight.render_us", "us", "lower", median(&render));
    out.put("obs.run_epoch_extra_us", "us", "lower", d.telemetry_us);
    for (i, (path, _)) in ROUTES.iter().enumerate() {
        let lat: Vec<f64> = d
            .scrapes
            .iter()
            .filter(|s| s.route == i)
            .map(|s| s.latency_ms)
            .collect();
        let name = format!("obs.scrape_ms.{}", &path[1..]);
        out.put(
            &name,
            "ms",
            "lower",
            if lat.is_empty() { 0.0 } else { median(&lat) },
        );
    }
    let bytes: usize = d.scrapes.iter().map(|s| s.bytes).sum();
    out.put(
        "obs.body_bytes",
        "bytes",
        "lower",
        bytes as f64 / d.scrapes.len().max(1) as f64,
    );
    report_trace(&mut out, &tracer, wall_ns, untraced_s, args);
    out
}
