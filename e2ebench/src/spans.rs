//! In-memory span recorder and the self-time analysis over it.
//!
//! A span is `(id, parent, pass, name, start, end)` in host nanoseconds
//! since the recorder was created. Spans are appended under one mutex
//! when they close and stay in memory until the run ends; nothing is
//! written while a pass is being timed.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover (the union of the children's intervals,
//! so children running in parallel on worker threads are not counted
//! twice).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a new span hangs: the pass it belongs to and its parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Id of the pass (the id of the pass's root span).
    pub pass: u64,
    /// Id of the parent span; 0 for a root.
    pub parent: u64,
}

impl Ctx {
    /// The context of an untraced call: no pass, no parent.
    pub const NONE: Ctx = Ctx { pass: 0, parent: 0 };
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (starts at 1).
    pub id: u64,
    /// Parent id; 0 for a root.
    pub parent: u64,
    /// Pass id shared by every span of one pass.
    pub pass: u64,
    /// Layer-qualified name, e.g. `flow.routing`.
    pub name: &'static str,
    /// Start, host ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, host ns since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A cheap-to-clone handle on one recorder. A disabled tracer runs the
/// wrapped closures and records nothing.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// An enabled recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// Reserve a span id before the span starts, so callees built
    /// ahead of the call can name it as their parent.
    #[must_use]
    pub fn reserve(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Run `f` inside a new root span; `f` receives the context its
    /// children should use.
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        let id = self.reserve();
        self.record(
            id,
            Ctx {
                pass: id,
                parent: 0,
            },
            name,
            f,
        )
    }

    /// Run `f` inside a new span under `at`.
    pub fn span<T>(&self, name: &'static str, at: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        let id = self.reserve();
        self.record(id, at, name, f)
    }

    /// Run `f` inside a span with a previously [`reserve`](Self::reserve)d id.
    pub fn span_with_id<T>(
        &self,
        id: u64,
        name: &'static str,
        at: Ctx,
        f: impl FnOnce(Ctx) -> T,
    ) -> T {
        self.record(id, at, name, f)
    }

    fn record<T>(&self, id: u64, at: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        let Some(inner) = &self.inner else {
            return f(at);
        };
        let start = inner.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx {
            pass: at.pass,
            parent: id,
        });
        let end = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span recorder").push(SpanRec {
            id,
            parent: at.parent,
            pass: at.pass,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Every span recorded so far, sorted by id.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self
            .inner
            .as_ref()
            .map(|i| i.spans.lock().expect("span recorder").clone())
            .unwrap_or_default();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span, keyed by span id.
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            (
                s.id,
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9,
            )
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Per-pass aggregation of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassProfile {
    /// Wall time of the pass's root span, seconds.
    pub wall_s: f64,
    /// Self time summed per span name (root included), seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Individual span durations per name, seconds.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

impl PassProfile {
    /// Share of the pass's wall time covered by named layer spans: the
    /// wall minus the root's own self time, as a percentage.
    #[must_use]
    pub fn coverage_pct(&self, root: &str) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        let uncovered = self.self_s.get(root).copied().unwrap_or(0.0);
        100.0 * (self.wall_s - uncovered) / self.wall_s
    }

    /// Self seconds of one span name (0 when absent).
    #[must_use]
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Call count of one span name (0 when absent).
    #[must_use]
    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Group spans by pass and aggregate each pass whose root is named
/// `root`, in pass order.
#[must_use]
pub fn profiles(spans: &[SpanRec], root: &str) -> Vec<PassProfile> {
    let selfs = self_times(spans);
    let mut by_pass: BTreeMap<u64, PassProfile> = BTreeMap::new();
    for s in spans {
        let p = by_pass.entry(s.pass).or_default();
        if s.id == s.pass {
            p.wall_s = s.secs();
        }
        *p.self_s.entry(s.name).or_insert(0.0) += selfs[&s.id];
        *p.calls.entry(s.name).or_insert(0) += 1;
        p.durations.entry(s.name).or_default().push(s.secs());
    }
    let roots: BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.id == s.pass)
        .map(|s| (s.id, s.name))
        .collect();
    by_pass
        .into_iter()
        .filter(|(pass, _)| roots.get(pass) == Some(&root))
        .map(|(_, p)| p)
        .collect()
}

/// Render spans as a JSON array, one object per line.
#[must_use]
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"pass\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.pass, s.name, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            pass: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 10..40.
        let spans = vec![
            rec(1, 0, "pass", 0, 100),
            rec(2, 1, "core.sweep", 10, 50),
            rec(3, 2, "flow.routing", 10, 30),
            rec(4, 2, "flow.routing", 20, 40),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 60e-9).abs() < 1e-15);
        assert!((selfs[&2] - 10e-9).abs() < 1e-15);
        assert!((selfs[&3] - 20e-9).abs() < 1e-15);
        let p = &profiles(&spans, "pass")[0];
        assert!((p.coverage_pct("pass") - 40.0).abs() < 1e-9);
        assert_eq!(p.calls_of("flow.routing"), 2);
    }

    #[test]
    fn off_tracer_runs_closures_and_records_nothing() {
        let t = Tracer::off();
        let v = t.root("pass", |ctx| t.span("x.y", ctx, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
