//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory until the run ends and are then written
//! out as one JSON document. A layer's self time is its spans' duration
//! minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pool.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// A single-threaded span recorder. A disabled tracer runs the same
/// closures without recording, which gives the untraced reference wall.
pub struct Tracer {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Start a recording tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            on: true,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.nest(name, |_| f())
    }

    /// Run `f` inside a span, handing it the tracer so it can open
    /// child spans.
    pub fn nest<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Wall time since the tracer started, ns.
    pub fn wall_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Durations of every span named `name`, in recording order, ns.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write the spans to `path` as JSON (creating its directory).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                })
            })
            .collect();
        std::fs::write(path, serde_json::Value::Array(spans).to_string())
    }
}

/// The accounting identity: each layer's mean self time times its call
/// count, summed over layers — the total self time — against the traced
/// wall. Returns `(accounted_ns, residual_ns)`; the residual is the wall
/// no span accounts for.
pub fn identity(totals: &BTreeMap<&'static str, LayerTotals>, wall_ns: u64) -> (u64, i64) {
    let accounted: u64 = totals.values().map(|t| t.self_ns).sum();
    (accounted, wall_ns as i64 - accounted as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_identity_closes() {
        let mut t = Tracer::new();
        t.nest("outer", |t| {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.self_ns >= 4_000_000);
        let wall = t.wall_ns();
        let (accounted, residual) = identity(&totals, wall);
        assert_eq!(accounted, outer.total_ns);
        assert!(residual >= 0 && (residual as u64) < wall);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.durations_ns("inner").len(), 2);
        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.totals().is_empty());
    }
}
