//! In-memory span tracer for the traced run.
//!
//! A span records a name, start and end, the span that caused it and the
//! request it served. Spans stay in memory and are written out once, when
//! the run ends. Counts are recorded at the same boundaries. A disabled
//! tracer runs the wrapped call and records nothing, so the untraced and
//! traced runs execute the same code.
//!
//! A tracer belongs to one thread; threads that need spans each build their
//! own from a shared origin and the results are merged with
//! [`Tracer::absorb`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (or op) the span served.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            state: RefCell::new(State::default()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for `request`. Spans opened by
    /// `f` become its children.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut s = self.state.borrow_mut();
            let parent = s.open.last().copied();
            let start_ns = self.ns(Instant::now());
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            let index = s.spans.len() - 1;
            s.open.push(index);
            index
        };
        let out = f();
        let end_ns = self.ns(Instant::now());
        let mut s = self.state.borrow_mut();
        s.open.pop();
        s.spans[index].end_ns = end_ns;
        out
    }

    /// Records an already-timed span (e.g. a request's client round trip,
    /// stamped by the load generator) under `parent`, or under the open
    /// span when `parent` is `None`; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut s = self.state.borrow_mut();
        let parent = parent.or_else(|| s.open.last().copied());
        s.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(s.spans.len() - 1)
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self.state.borrow_mut().counts.entry(name).or_default() += n;
        }
    }

    /// Moves another tracer's spans and counts into this one.
    pub fn absorb(&self, other: Tracer) {
        let other = other.state.into_inner();
        let mut s = self.state.borrow_mut();
        let base = s.spans.len();
        s.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        for (k, v) in other.counts {
            *s.counts.entry(k).or_default() += v;
        }
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.state.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Per-name `(count, total ns, self ns)`, where self time is a span's
    /// duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let s = self.state.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); s.spans.len()];
        for span in &s.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, kids) in s.spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.dur_ns();
            e.2 += span.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// The trace as JSON: every span, every counter and the self-time table.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let s = self.state.borrow();
        let mut out = String::from("{\n\"spans\": [\n");
        for (i, span) in s.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request
            );
        }
        out.push_str("\n],\n\"counts\": {");
        for (i, (k, v)) in s.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
        }
        drop(s);
        out.push_str("},\n\"self_time\": {");
        for (i, (k, (n, total, own))) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n\"{k}\":{{\"count\":{n},\"total_ns\":{total},\"self_ns\":{own}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("\n}\n}\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Milliseconds in a duration.
pub fn dur_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", 1, || {
            t.span("inner", 1, || std::thread::sleep(Duration::from_millis(4)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let times = t.self_times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        let inner = times["inner"].1;
        assert_eq!(own, total - inner);
        assert!(inner >= 4_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, || 7), 7);
        t.count("c", 3);
        assert!(t.self_times().is_empty());
        assert_eq!(t.counter("c"), 0);
    }

    #[test]
    fn covered_merges_overlaps() {
        let mut v = vec![(5, 8), (0, 3), (2, 4)];
        assert_eq!(covered_ns(&mut v, 1, 7), 3 + 2);
    }
}
