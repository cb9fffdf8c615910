//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark makes into a layer
//! of the library (datagen, distribution, session construction, steps,
//! finish, exact-residual checks, rank programs, batches); the library
//! itself is not instrumented. A disabled tracer records nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: String,
    pub start: f64,
    pub end: f64,
}

/// Shared between rank threads; cloning shares the span buffer.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

/// Parent id of top-level spans.
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A fresh span id, allocated before the span's children run.
    fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent nested spans.
    pub fn span<R>(&self, name: &str, parent: u64, run: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.open();
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.push(Span {
            id,
            parent,
            run,
            name: name.to_string(),
            start,
            end,
        });
        out
    }

    /// Record a span whose interval the caller already timed.
    pub fn record(&self, name: &str, parent: u64, run: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.push(Span {
                id: self.open(),
                parent,
                run,
                name: name.to_string(),
                start: (start - self.epoch).as_secs_f64(),
                end: (end - self.epoch).as_secs_f64(),
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking rank")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking rank")
            .clone()
    }
}

/// Per-name totals: count, summed duration and summed self time, where a
/// span's self time is its duration minus the union of its children's
/// intervals (children of one parent may overlap when they run on
/// different rank threads).
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| union_within(c, s.start, s.end));
        let row = table.entry(s.name.clone()).or_default();
        row.0 += 1;
        row.1 += s.end - s.start;
        row.2 += (s.end - s.start - covered).max(0.0);
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// One JSON object per line: `{"id","parent","run","name","start","end"}`
/// with times in seconds since the tracer was created.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9}}}",
            s.id, s.parent, s.run, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, "run", 0.0, 10.0),
            span(2, 1, "rank", 1.0, 6.0),
            span(3, 1, "rank", 2.0, 7.0),
            span(4, 2, "step", 1.0, 2.0),
        ];
        let t = layer_table(&spans);
        assert!((t["run"].2 - 4.0).abs() < 1e-12); // 10 − |[1,7]|
        assert_eq!(t["rank"].0, 2);
        assert!((t["rank"].2 - 9.0).abs() < 1e-12); // (5 − 1) + 5
        assert!((t["step"].2 - 1.0).abs() < 1e-12);
    }
}
