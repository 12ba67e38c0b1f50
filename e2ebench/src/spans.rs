//! The benchmark's own span recorder: spans are kept in memory while the
//! run measures and written out once at the end, so tracing adds no I/O
//! to the timed path. A disabled recorder records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.submit` or `core.tune`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// Wall time.
    pub dur: Duration,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed wall time, ms.
    pub total_ms: f64,
    /// Summed wall time minus the time of direct children, ms.
    pub self_ms: f64,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder sharing `self`'s time origin, for another thread; fold
    /// it back in with [`Tracer::merge`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Append the spans of a forked recorder.
    pub fn merge(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Switch recording on or off (used to interleave traced and untraced
    /// operations when measuring the recorder's own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span (and any left open inside it); returns its wall time.
    pub fn close(&mut self, open: Open) -> Duration {
        let Some(index) = open.0 else {
            return Duration::ZERO;
        };
        while let Some(top) = self.stack.pop() {
            if top == index {
                break;
            }
        }
        let span = &mut self.spans[index];
        span.dur = self.origin.elapsed() - span.start;
        span.dur
    }

    /// Record a span timed elsewhere (e.g. on another thread) under the
    /// innermost open span.
    pub fn add(&mut self, name: &str, start: Instant, dur: Duration) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start: start.saturating_duration_since(self.origin),
                dur,
            });
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Wall times of every span named `name`, in ms, in record order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.dur.as_secs_f64() * 1e3;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            let total = span.dur.as_secs_f64() * 1e3;
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ms += total;
            entry.self_ms += (total - children).max(0.0);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_micros(),
                s.dur.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        let origin = Instant::now();
        t.add("inner", origin, Duration::from_millis(3));
        t.add("inner", origin, Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(8));
        t.close(outer);
        let times = t.self_times();
        let outer = &times["outer"];
        let inner = &times["inner"];
        assert_eq!(inner.count, 2);
        assert!((inner.total_ms - 5.0).abs() < 1e-9);
        assert!((outer.self_ms - (outer.total_ms - 5.0)).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open("x");
        t.add("y", Instant::now(), Duration::from_millis(1));
        assert_eq!(t.close(open), Duration::ZERO);
        assert_eq!(t.time("z", || 7), 7);
        assert!(t.self_times().is_empty());
    }
}
