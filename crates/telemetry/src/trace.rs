//! Causal span-tree tracing: `TraceId`/`SpanId` context propagation and a
//! bounded per-trace store, exportable as Chrome trace-event JSON.
//!
//! Spans form **trees**: a root span opens a trace, child spans nest
//! under whatever span is current on their thread, and
//! [`attach`] carries the context across thread boundaries (e.g. into
//! worker-pool closures). Finished spans land in the global [`TraceStore`]
//! — a bounded ring of traces, each holding a bounded span list — where
//! they can be queried (the serve `trace` verb) or exported as Chrome
//! trace-event JSON via [`chrome_trace`] (loadable in `chrome://tracing`
//! or Perfetto).
//!
//! Tracing is **strictly observational** and fully gated on
//! [`crate::enabled()`]: with telemetry disabled every guard is inert (no
//! allocation, no id assignment, no store mutation), which is what keeps
//! chaos-seeded tuning with tracing on bit-identical to tracing off.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::events::json_escape;

/// Default maximum number of traces retained (oldest evicted first).
pub const DEFAULT_TRACE_CAPACITY: usize = 128;

/// Default maximum spans retained per trace (overflow is counted, not kept).
pub const DEFAULT_SPANS_PER_TRACE: usize = 512;

/// The identity of one span within its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace this span belongs to.
    pub trace: u64,
    /// The span itself (parent id for any children opened under it).
    pub span: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A small dense id for the calling thread (1-based, assigned at first
/// use) — stable for the thread's lifetime, used as the Chrome `tid`.
pub fn thread_ordinal() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

/// The process trace clock: first call pins the epoch, later calls
/// measure span start offsets against it.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos_since_epoch() -> u64 {
    u64::try_from(trace_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The span context current on this thread, if any.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// One finished span as held in the store.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (`None` for the root).
    pub parent: Option<u64>,
    /// Dotted component path, e.g. `serve.dispatch`.
    pub target: &'static str,
    /// Span name, e.g. `handle:recommend`.
    pub name: String,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_nanos: u64,
    /// Structured key/value fields attached while the span was open.
    pub fields: Vec<(String, String)>,
    /// Dense ordinal of the thread the span ran on.
    pub thread: u64,
}

struct ActiveSpan {
    ctx: TraceCtx,
    parent: Option<u64>,
    target: &'static str,
    name: String,
    fields: Vec<(String, String)>,
    start: Instant,
    start_nanos: u64,
    prev: Option<TraceCtx>,
    root: bool,
}

/// Guard for one open span. Dropping it records the finished span into
/// the global [`TraceStore`] and restores the previous thread context.
/// Inert (all methods no-ops) when tracing was disabled or no parent
/// context existed at creation.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// An inert guard (records nothing).
    pub fn inactive() -> Self {
        SpanGuard { inner: None }
    }

    /// Whether this guard will record a span when dropped.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The context of this span, for explicit cross-thread [`attach`].
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.inner.as_ref().map(|s| s.ctx)
    }

    /// Attach a structured field to the span (no-op when inert).
    pub fn add_field(&mut self, key: &str, value: impl ToString) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        CURRENT.with(|cell| cell.set(inner.prev));
        let record = SpanRecord {
            trace: inner.ctx.trace,
            span: inner.ctx.span,
            parent: inner.parent,
            target: inner.target,
            name: inner.name,
            start_nanos: inner.start_nanos,
            duration_nanos: u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            fields: inner.fields,
            thread: thread_ordinal(),
        };
        store().finish_span(record, inner.root);
    }
}

/// Open a **root** span: allocates a fresh trace labeled `label`, makes
/// it current on this thread, and opens the trace in the store. Inert
/// when telemetry is disabled.
pub fn root_span(
    label: impl Into<String>,
    target: &'static str,
    name: impl Into<String>,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inactive();
    }
    let ctx = TraceCtx {
        trace: next_id(),
        span: next_id(),
    };
    store().open_trace(ctx.trace, label.into());
    let prev = current();
    CURRENT.with(|cell| cell.set(Some(ctx)));
    SpanGuard {
        inner: Some(ActiveSpan {
            ctx,
            parent: None,
            target,
            name: name.into(),
            fields: Vec::new(),
            start: Instant::now(),
            start_nanos: nanos_since_epoch(),
            prev,
            root: true,
        }),
    }
}

/// Open a **child** span under the thread's current context. Inert when
/// telemetry is disabled or no context is current.
pub fn child_span(target: &'static str, name: impl Into<String>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inactive();
    }
    let Some(parent) = current() else {
        return SpanGuard::inactive();
    };
    let ctx = TraceCtx {
        trace: parent.trace,
        span: next_id(),
    };
    let prev = current();
    CURRENT.with(|cell| cell.set(Some(ctx)));
    SpanGuard {
        inner: Some(ActiveSpan {
            ctx,
            parent: Some(parent.span),
            target,
            name: name.into(),
            fields: Vec::new(),
            start: Instant::now(),
            start_nanos: nanos_since_epoch(),
            prev,
            root: false,
        }),
    }
}

/// Open a child span when a context is current, else a root span labeled
/// `label` — the shape a request handler wants: nested under the
/// transport's dispatch span over TCP, self-rooted over stdio.
pub fn span_or_root(
    label: impl Into<String>,
    target: &'static str,
    name: impl Into<String>,
) -> SpanGuard {
    if current().is_some() {
        child_span(target, name)
    } else {
        root_span(label, target, name)
    }
}

/// Guard restoring the previous thread context on drop. See [`attach`].
pub struct AttachGuard {
    prev: Option<TraceCtx>,
    installed: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if self.installed {
            let prev = self.prev;
            CURRENT.with(|cell| cell.set(prev));
        }
    }
}

/// Make `ctx` the current context on this thread (for propagating a
/// trace into worker-pool closures): spans opened while the guard lives
/// become children of `ctx`. Passing `None` is a no-op guard.
pub fn attach(ctx: Option<TraceCtx>) -> AttachGuard {
    match ctx {
        Some(ctx) => {
            let prev = current();
            CURRENT.with(|cell| cell.set(Some(ctx)));
            AttachGuard {
                prev,
                installed: true,
            }
        }
        None => AttachGuard {
            prev: None,
            installed: false,
        },
    }
}

/// One trace's metadata, as returned by [`TraceStore::summaries`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Trace id.
    pub id: u64,
    /// Label given at [`root_span`] time (conventionally the verb).
    pub label: String,
    /// Spans currently held.
    pub spans: usize,
    /// Spans evicted because the per-trace cap was reached.
    pub dropped: u64,
    /// Whether the root span has finished.
    pub complete: bool,
    /// Root span duration in nanoseconds (0 until complete).
    pub duration_nanos: u64,
}

struct TraceEntry {
    id: u64,
    label: String,
    spans: Vec<SpanRecord>,
    dropped: u64,
    complete: bool,
    duration_nanos: u64,
}

struct StoreInner {
    traces: VecDeque<TraceEntry>,
    capacity: usize,
    max_spans: usize,
}

/// Bounded store of finished span trees: at most `capacity` traces
/// (oldest evicted first), at most `max_spans` spans per trace (overflow
/// counted in the summary's `dropped`).
pub struct TraceStore {
    inner: Mutex<StoreInner>,
}

impl TraceStore {
    fn new() -> Self {
        TraceStore {
            inner: Mutex::new(StoreInner {
                traces: VecDeque::new(),
                capacity: DEFAULT_TRACE_CAPACITY,
                max_spans: DEFAULT_SPANS_PER_TRACE,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Change the trace capacity (oldest traces evicted first).
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        while inner.traces.len() > inner.capacity {
            inner.traces.pop_front();
        }
    }

    fn open_trace(&self, id: u64, label: String) {
        let mut inner = self.lock();
        if inner.traces.len() >= inner.capacity {
            inner.traces.pop_front();
        }
        inner.traces.push_back(TraceEntry {
            id,
            label,
            spans: Vec::new(),
            dropped: 0,
            complete: false,
            duration_nanos: 0,
        });
    }

    fn finish_span(&self, record: SpanRecord, root: bool) {
        let mut inner = self.lock();
        let max_spans = inner.max_spans;
        // The trace may have been evicted while the span was open; then
        // the span has nowhere to land and is silently gone — the ring is
        // bounded by construction, not by backpressure.
        let Some(entry) = inner.traces.iter_mut().find(|t| t.id == record.trace) else {
            return;
        };
        if root {
            entry.complete = true;
            entry.duration_nanos = record.duration_nanos;
        }
        if entry.spans.len() >= max_spans {
            entry.dropped += 1;
            return;
        }
        entry.spans.push(record);
    }

    /// Newest-first metadata for up to `n` traces.
    pub fn summaries(&self, n: usize) -> Vec<TraceSummary> {
        let inner = self.lock();
        inner
            .traces
            .iter()
            .rev()
            .take(n)
            .map(|t| TraceSummary {
                id: t.id,
                label: t.label.clone(),
                spans: t.spans.len(),
                dropped: t.dropped,
                complete: t.complete,
                duration_nanos: t.duration_nanos,
            })
            .collect()
    }

    /// The spans of trace `id` (sorted by start offset), with its label.
    pub fn spans(&self, id: u64) -> Option<(String, Vec<SpanRecord>)> {
        let inner = self.lock();
        let entry = inner.traces.iter().find(|t| t.id == id)?;
        let mut spans = entry.spans.clone();
        spans.sort_by_key(|s| (s.start_nanos, s.span));
        Some((entry.label.clone(), spans))
    }

    /// The newest *complete* trace, optionally restricted to traces whose
    /// label equals `label`.
    pub fn latest(&self, label: Option<&str>) -> Option<u64> {
        let inner = self.lock();
        inner
            .traces
            .iter()
            .rev()
            .find(|t| t.complete && label.is_none_or(|l| t.label == l))
            .map(|t| t.id)
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// True when no trace is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every trace (tests).
    pub fn clear(&self) {
        self.lock().traces.clear();
    }
}

/// The process-wide trace store.
pub fn store() -> &'static TraceStore {
    static CELL: OnceLock<TraceStore> = OnceLock::new();
    CELL.get_or_init(TraceStore::new)
}

/// Render `spans` as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form, complete-event `"ph":"X"` records with microsecond
/// timestamps) — loadable in `chrome://tracing` and Perfetto. Hand-built:
/// the telemetry crate stays dependency-free.
pub fn chrome_trace(label: &str, spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"label\":\"");
    json_escape(label, &mut out);
    out.push_str("\"},\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape(&span.name, &mut out);
        out.push_str("\",\"cat\":\"");
        json_escape(span.target, &mut out);
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        out.push_str(&(span.start_nanos / 1_000).to_string());
        out.push_str(",\"dur\":");
        out.push_str(&(span.duration_nanos / 1_000).max(1).to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&span.thread.to_string());
        out.push_str(",\"args\":{\"trace\":\"");
        out.push_str(&format!("{:016x}", span.trace));
        out.push_str("\",\"span\":\"");
        out.push_str(&format!("{:016x}", span.span));
        out.push('"');
        if let Some(parent) = span.parent {
            out.push_str(",\"parent\":\"");
            out.push_str(&format!("{parent:016x}"));
            out.push('"');
        }
        for (k, v) in &span.fields {
            out.push_str(",\"");
            json_escape(k, &mut out);
            out.push_str("\":\"");
            json_escape(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the global-disable path (guards inert, store untouched) is
    // covered in `tests/telemetry.rs` behind its process-wide gate;
    // toggling `set_enabled` here would race sibling unit tests.

    #[test]
    fn span_trees_nest_and_attach_across_threads() {
        let (trace_id, drain_ctx) = {
            let root = root_span("recommend", "test", "root");
            let trace_id = root.ctx().expect("active root").trace;
            let drain_ctx = {
                let drain = child_span("test", "drain");
                assert_eq!(drain.ctx().map(|c| c.trace), Some(trace_id));
                drain.ctx()
            };
            // Cross-thread propagation, the worker-pool shape.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _attached = attach(drain_ctx);
                    let worker = child_span("test", "run_job");
                    assert_eq!(worker.ctx().map(|c| c.trace), Some(trace_id));
                });
            });
            (trace_id, drain_ctx)
        };
        assert_eq!(current(), None, "root drop restores the empty context");
        let (label, spans) = store().spans(trace_id).expect("trace held");
        assert_eq!(label, "recommend");
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let drain = spans.iter().find(|s| s.name == "drain").unwrap();
        let worker = spans.iter().find(|s| s.name == "run_job").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(drain.parent, Some(root.span));
        assert_eq!(worker.parent, drain_ctx.map(|c| c.span));
        assert_eq!(store().latest(Some("recommend")), Some(trace_id));
    }

    #[test]
    fn child_span_without_context_is_inert() {
        assert_eq!(current(), None);
        let child = child_span("test", "orphan");
        assert!(!child.is_active());
    }

    #[test]
    fn chrome_trace_escapes_and_shapes() {
        let spans = vec![SpanRecord {
            trace: 1,
            span: 2,
            parent: None,
            target: "test",
            name: "he said \"hi\"".to_string(),
            start_nanos: 5_000,
            duration_nanos: 2_000,
            fields: vec![("job".to_string(), "a".to_string())],
            thread: 3,
        }];
        let json = chrome_trace("recommend", &spans);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\\\"hi\\\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":5"), "{json}");
        assert!(json.contains("\"job\":\"a\""), "{json}");
    }
}
