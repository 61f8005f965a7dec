//! The benchmark's own statistics: medians, tail selection, open-loop
//! timing and failure accounting. Kept free of any PRAN type so the unit
//! tests at the bottom pin exactly what the reported numbers mean.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // one rank up (0.999 × 10,000 is 9990.000000000002 in binary).
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (the 50th nearest-rank percentile) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Sum over units (epochs, rungs) of each unit's median across passes,
/// where `passes[p][u]` is unit `u`'s time in pass `p`. A stall of the
/// machine slows the units of one pass, not those of every pass, so it
/// moves this sum less than it moves the median pass.
pub fn unit_median_sum(passes: &[&[f64]]) -> f64 {
    let units = passes.first().map_or(0, |p| p.len());
    assert!(
        passes.iter().all(|p| p.len() == units),
        "every pass must time the same units"
    );
    (0..units)
        .map(|u| median(&passes.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .sum()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing distribution summarised as the median and the highest
/// percentile with at least [`TAIL_MIN_BEYOND`] samples beyond it, with
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median sample.
    pub p50: f64,
    /// Percentile the tail is reported at; 100 (the maximum) when fewer
    /// than `2 × TAIL_MIN_BEYOND` samples exist and no percentile has
    /// enough samples beyond it.
    pub tail_pct: f64,
    /// Sample value at `tail_pct`.
    pub tail: f64,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

/// Summarise `samples` (at least one).
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let n = s.len();
    let (tail_pct, beyond) = TAIL_LADDER
        .iter()
        .map(|&p| (p, n - rank(n, p)))
        .find(|&(_, beyond)| beyond >= TAIL_MIN_BEYOND)
        .unwrap_or((100.0, 0));
    Summary {
        count: n,
        p50: percentile(&s, 50.0),
        tail_pct,
        tail: if tail_pct >= 100.0 {
            s[n - 1]
        } else {
            percentile(&s, tail_pct)
        },
        beyond,
    }
}

/// An open-loop schedule: request `i` is due at `start + i × period`,
/// whether or not earlier requests have completed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period * i as u32
    }
}

/// One open-loop request's timing, both measured from its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// How late the generator sent it (0 when sent on time).
    pub lateness: Duration,
    /// Completion minus due time: the latency a user who wanted the
    /// answer at the due time sees, stalls of earlier requests included.
    pub latency: Duration,
}

/// Time one request due at `due` that was sent at `sent` and completed
/// at `done`.
pub fn time_from_due(due: Instant, sent: Instant, done: Instant) -> Timed {
    Timed {
        lateness: sent.saturating_duration_since(due),
        latency: done.saturating_duration_since(due),
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (counted among the attempted).
    pub failed: u64,
}

impl Tally {
    /// Count one operation; returns `ok` so checks chain.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Fold another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so summarize must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn unit_medians_keep_a_stalled_pass_out() {
        // The second pass stalls on unit 0, the third on unit 1: each
        // unit's median skips its stall, the median pass would not.
        let passes: [&[f64]; 3] = [&[1.0, 2.0], &[9.0, 2.0], &[1.0, 9.0]];
        assert_eq!(unit_median_sum(&passes), 3.0);
        assert_eq!(unit_median_sum(&[]), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = summarize(&ramp(1000));
        assert_eq!((t.tail_pct, t.tail, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99's rank is 990, 9 beyond — fall to p95.
        let t = summarize(&ramp(999));
        assert_eq!(t.tail_pct, 95.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        // 10,000 samples reach p99.9.
        let t = summarize(&ramp(10_000));
        assert_eq!((t.tail_pct, t.beyond), (99.9, 10));
        // 200 samples: p95 has 10 beyond.
        assert_eq!(summarize(&ramp(200)).tail_pct, 95.0);
        assert_eq!(summarize(&ramp(200)).p50, 100.0);
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let t = summarize(&ramp(19));
        assert_eq!((t.tail_pct, t.tail, t.beyond), (100.0, 19.0, 0));
        assert_eq!(t.count, 19);
        // 20 samples: the median has 10 beyond it.
        let t = summarize(&ramp(20));
        assert_eq!((t.tail_pct, t.tail, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let start = Instant::now();
        let sched = OpenLoop::new(start, 50.0);
        assert_eq!(sched.due(0), start);
        assert_eq!(sched.due(5) - start, Duration::from_millis(100));
        // A request due at 100 ms, held up by a stall until 130 ms and
        // served in 2 ms, shows the stall in its latency.
        let due = sched.due(5);
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(2);
        let t = time_from_due(due, sent, done);
        assert_eq!(t.lateness, Duration::from_millis(30));
        assert_eq!(t.latency, Duration::from_millis(32));
        // Sent early (never happens, but must not underflow).
        let t = time_from_due(due, start, due + Duration::from_millis(1));
        assert_eq!(t.lateness, Duration::ZERO);
        assert_eq!(t.latency, Duration::from_millis(1));
    }

    #[test]
    fn failed_ratio_counts_failures_among_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        assert!(t.record(true));
        assert!(!t.record(false));
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_ratio(), 0.25);
        let mut u = Tally::default();
        u.record(false);
        t.add(u);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.failed_ratio(), 0.4);
    }
}
