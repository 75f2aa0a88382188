//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the simulator's public
//! API (build, analyze, interpret, pack, cache store/load, replay);
//! nothing inside the simulator is instrumented. Each span carries a
//! name, start and end (nanoseconds since the tracer was made), its
//! parent (the span open on the same thread when it began), the cell
//! it belongs to, and an optional work count (events, bytes). Spans
//! stay in memory until [`Tracer::finish`]; an untraced run uses
//! [`Tracer::off`], whose spans cost one branch and no clock read.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub cell: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub spans: u64,
    pub self_seconds: f64,
    pub count: u64,
}

thread_local! {
    static OPEN: Cell<Option<u64>> = const { Cell::new(None) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops. Spans opened on
    /// this thread while the guard lives become its children.
    pub fn span(&self, name: &'static str, cell: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.replace(Some(id)));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        Guard {
            tracer: self,
            open: Some(Span {
                id,
                name,
                parent,
                cell,
                start_ns,
                end_ns: 0,
                count: 0,
            }),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, cell: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, cell);
        f()
    }

    /// Every recorded span, ordered by start.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Closes its span on drop.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    open: Option<Span>,
}

impl Guard<'_> {
    /// Attaches a work count (events, bytes) to the span.
    pub fn count(&mut self, n: u64) {
        if let Some(s) = &mut self.open {
            s.count += n;
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(mut s) = self.open.take() {
            s.end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
            OPEN.with(|o| o.set(s.parent));
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(s);
            }
        }
    }
}

/// Totals per span name. A span's self time is its duration minus the
/// durations of its children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_seconds += own as f64 * 1e-9;
        t.count += s.count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer", Some(7));
            std::thread::sleep(std::time::Duration::from_millis(2));
            let mut inner = t.span("inner", Some(7));
            inner.count(5);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        let tot = totals(&spans);
        assert_eq!(tot["inner"].count, 5);
        let o = tot["outer"];
        assert!((o.self_seconds - (outer.seconds() - inner.seconds())).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        t.time("x", None, || ());
        assert!(t.finish().is_empty());
    }
}
