//! The thread-safe [`Recorder`]: hierarchical spans, named metrics, and
//! pluggable event sinks.
//!
//! Design rules, in order of importance:
//!
//! 1. **Disabled must be free.** The workspace default is a disabled
//!    global recorder. Metric handles still accumulate (a relaxed atomic
//!    add — cheap enough for the PODEM backtrack loop), but spans skip
//!    all bookkeeping except the `Instant` pair their caller needs for
//!    `PhaseTimings`, and sinks see nothing.
//! 2. **Hot paths hold handles, not names.** `Recorder::counter` et al.
//!    do one locked name lookup and return a clonable atomic handle;
//!    engines fetch handles at construction time.
//! 3. **Sinks are a stream, not a database.** Every completed span is
//!    pushed to every installed [`Sink`]; the in-memory aggregation
//!    (span list + metric registry) independently feeds
//!    [`crate::report::RunReport`] and the summary table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::table::Table;

/// A trace identity that can cross thread boundaries by hand.
///
/// The thread-local span stack gives spans parents only within one
/// thread. Work that hops a dispatch boundary (the campaign server's
/// worker pool, scoped kernel workers) carries a `TraceContext` instead:
/// the submitting side captures one, the executing side adopts it via
/// [`Recorder::adopt_trace`], and every span the executing thread opens
/// while the guard lives inherits the trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Process-unique, non-zero trace id (zero never occurs in a root).
    pub trace_id: u64,
}

impl TraceContext {
    /// A fresh root context: a new process-unique trace id. Ids are a
    /// Weyl sequence through a splitmix64 finalizer, seeded from the
    /// wall clock and pid, so two daemons started the same nanosecond
    /// still diverge.
    #[must_use]
    pub fn new_root() -> Self {
        static NEXT: OnceLock<AtomicU64> = OnceLock::new();
        let next = NEXT.get_or_init(|| {
            let clock = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0x9e37_79b9_7f4a_7c15, |d| d.as_nanos() as u64);
            AtomicU64::new(clock ^ u64::from(std::process::id()).rotate_left(32))
        });
        let raw = next.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let id = splitmix64(raw);
        TraceContext {
            trace_id: id.max(1),
        }
    }

    /// The canonical 16-hex-digit rendering of the trace id.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One completed span: a named, timed section of work, with its parent
/// span (if any) for hierarchy reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the recorder (allocation order = start order).
    pub id: u64,
    /// The enclosing span on the starting thread, if any.
    pub parent: Option<u64>,
    /// Span name (dot-separated by convention, e.g. `compat_graph`).
    pub name: String,
    /// Start, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (monotonic clock).
    pub dur_ns: u64,
    /// Key/value attributes attached via [`SpanGuard::attr`], in
    /// attachment order. Empty for most spans; the JSON encodings omit
    /// the field entirely when empty so pre-attribute consumers see the
    /// exact old layout.
    pub attrs: Vec<(String, String)>,
    /// The trace this span belongs to (inherited from the enclosing
    /// span or an adopted [`TraceContext`]), or 0 when untraced. The
    /// JSON encoding omits the field when 0, preserving the pre-trace
    /// layout.
    pub trace: u64,
}

impl SpanRecord {
    /// The JSONL encoding of this span.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t", Json::Str("span".into())),
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("name", Json::Str(self.name.clone())),
            ("start_us", Json::Num(self.start_ns as f64 / 1_000.0)),
            ("dur_us", Json::Num(self.dur_ns as f64 / 1_000.0)),
        ];
        if !self.attrs.is_empty() {
            fields.push((
                "attrs",
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        if self.trace != 0 {
            fields.push(("trace", Json::Str(format!("{:016x}", self.trace))));
        }
        Json::obj(fields)
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the recorder epoch.
    pub at_ns: u64,
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → distribution snapshot, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A consumer of completed spans. Implementations must be cheap — they
/// run under the recorder's sink lock.
pub trait Sink: Send {
    /// Called for every span that ends while the recorder is enabled.
    fn record(&mut self, span: &SpanRecord);
    /// Flush any buffered output (end of run).
    fn flush(&mut self) {}
}

/// A sink that retains every span in memory — the test sink.
#[derive(Debug, Clone, Default)]
pub struct InMemorySink {
    spans: Arc<Mutex<Vec<SpanRecord>>>,
}

impl InMemorySink {
    /// A fresh, empty sink. Clone it before installing to keep a handle
    /// for inspection.
    #[must_use]
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// All spans recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("sink lock").clone()
    }
}

impl Sink for InMemorySink {
    fn record(&mut self, span: &SpanRecord) {
        self.spans.lock().expect("sink lock").push(span.clone());
    }
}

/// A sink that writes one compact JSON object per span line.
pub struct JsonlSink {
    out: Box<dyn std::io::Write + Send>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A JSONL sink over any writer (file, stderr, `Vec<u8>` in tests).
    #[must_use]
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink { out }
    }

    /// A JSONL sink writing to stderr.
    #[must_use]
    pub fn stderr() -> Self {
        JsonlSink::new(Box::new(std::io::stderr()))
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, span: &SpanRecord) {
        let _ = writeln!(self.out, "{}", span.to_json().compact());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

thread_local! {
    /// Per-thread stack of open spans: `(recorder id, span id, trace id)`.
    static SPAN_STACK: RefCell<Vec<(u64, u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread stack of adopted trace contexts (see
    /// [`Recorder::adopt_trace`]): `(recorder id, context)`.
    static TRACE_STACK: RefCell<Vec<(u64, TraceContext)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread span lifecycle hook (see [`install_span_hook`]).
    static SPAN_HOOK: RefCell<Option<SpanHook>> = const { RefCell::new(None) };
}

/// A span lifecycle notification delivered to an installed [`SpanHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// The span just opened.
    Enter,
    /// The span just closed, after running for this long.
    Exit(Duration),
}

/// A per-thread observer of span starts and ends, called with the span
/// name. Unlike sinks it fires even while the recorder is **disabled** —
/// it exists so live-progress plumbing (the campaign server streams
/// phase frames from it) works without turning full span collection on.
pub type SpanHook = Arc<dyn Fn(&str, SpanEvent)>;

/// Installs `hook` as this thread's span hook for the guard's lifetime,
/// restoring the previous hook (if any) on drop. Spans from every
/// recorder on this thread fire it; the hook must not open spans itself.
#[must_use]
pub fn install_span_hook(hook: SpanHook) -> SpanHookGuard {
    let prev = SPAN_HOOK.with(|h| h.borrow_mut().replace(hook));
    SpanHookGuard {
        prev,
        _not_send: PhantomData,
    }
}

fn current_span_hook() -> Option<SpanHook> {
    SPAN_HOOK.with(|h| h.borrow().clone())
}

/// Uninstalls the hook installed by [`install_span_hook`] on drop.
pub struct SpanHookGuard {
    prev: Option<SpanHook>,
    /// Thread-local state: the guard must drop on its install thread.
    _not_send: PhantomData<*const ()>,
}

impl std::fmt::Debug for SpanHookGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanHookGuard").finish_non_exhaustive()
    }
}

impl Drop for SpanHookGuard {
    fn drop(&mut self) {
        SPAN_HOOK.with(|h| *h.borrow_mut() = self.prev.take());
    }
}

fn adopted_trace(rec: u64) -> Option<TraceContext> {
    TRACE_STACK.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|&&(r, _)| r == rec)
            .map(|&(_, ctx)| ctx)
    })
}

/// Un-adopts a [`TraceContext`] (see [`Recorder::adopt_trace`]) on drop.
#[derive(Debug)]
pub struct TraceGuard {
    rec: u64,
    ctx: TraceContext,
    /// Thread-local state: the guard must drop on its adopt thread.
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s
                .iter()
                .rposition(|&(r, ctx)| r == self.rec && ctx == self.ctx)
            {
                s.remove(pos);
            }
        });
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

struct Inner {
    id: u64,
    epoch: Instant,
    enabled: AtomicBool,
    next_span: AtomicU64,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<Vec<SpanRecord>>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("id", &self.id)
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// The metric registry and span collector. Clonable handle; all clones
/// share state.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, **disabled** recorder with no sinks.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                enabled: AtomicBool::new(false),
                next_span: AtomicU64::new(1),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
                sinks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Turns span collection and sink emission on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether spans and sinks are active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Installs a sink (takes effect immediately).
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        self.inner.sinks.lock().expect("sink lock").push(sink);
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for sink in self.inner.sinks.lock().expect("sink lock").iter_mut() {
            sink.flush();
        }
    }

    /// Nanoseconds since this recorder was created.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The counter registered under `name` (created on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .lock()
            .expect("counter lock")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name` (created on first use).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .expect("gauge lock")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name` (created on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .expect("histogram lock")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Starts a span. The returned guard records the span on drop (or
    /// [`SpanGuard::finish`], which also returns the elapsed time).
    ///
    /// When the recorder is disabled the guard still measures time (so
    /// callers can derive phase timings from it) but records nothing.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard {
        let start = Instant::now();
        let registered = if self.is_enabled() {
            let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
            let (parent, trace) = SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let inherited = stack
                    .iter()
                    .rev()
                    .find(|&&(rec, _, _)| rec == self.inner.id)
                    .map(|&(_, span, trace)| (Some(span), trace));
                let (parent, trace) = inherited.unwrap_or_else(|| {
                    (
                        None,
                        adopted_trace(self.inner.id).map_or(0, |ctx| ctx.trace_id),
                    )
                });
                stack.push((self.inner.id, id, trace));
                (parent, trace)
            });
            Some(OpenSpan {
                id,
                parent,
                name: name.to_owned(),
                start_ns: self.now_ns(),
                attrs: Vec::new(),
                trace,
            })
        } else {
            None
        };
        let hook = current_span_hook();
        if let Some(hook) = &hook {
            hook(name, SpanEvent::Enter);
        }
        SpanGuard {
            recorder: self.clone(),
            start,
            open: registered,
            hook: hook.map(|h| (h, name.to_owned())),
        }
    }

    /// Adopts `ctx` as the fallback trace context for spans this thread
    /// opens on this recorder while the guard lives: a span with no
    /// open enclosing span inherits `ctx.trace_id`. This is how a worker
    /// thread joins the trace of the job that was dispatched to it.
    #[must_use]
    pub fn adopt_trace(&self, ctx: TraceContext) -> TraceGuard {
        TRACE_STACK.with(|s| s.borrow_mut().push((self.inner.id, ctx)));
        TraceGuard {
            rec: self.inner.id,
            ctx,
            _not_send: PhantomData,
        }
    }

    fn end_span(&self, open: OpenSpan, dur: Duration) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(rec, span, _)| rec == self.inner.id && span == open.id)
            {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            attrs: open.attrs,
            trace: open.trace,
        };
        for sink in self.inner.sinks.lock().expect("sink lock").iter_mut() {
            sink.record(&record);
        }
        self.inner.spans.lock().expect("span lock").push(record);
    }

    /// All completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().expect("span lock").clone()
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ns: self.now_ns(),
            counters: self
                .inner
                .counters
                .lock()
                .expect("counter lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("gauge lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("histogram lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Clears spans and zeroes every metric, keeping registered handles
    /// valid — the per-circuit reset the table binaries use between
    /// [`crate::report::RunReport`]s.
    pub fn reset(&self) {
        self.inner.spans.lock().expect("span lock").clear();
        for c in self.inner.counters.lock().expect("counter lock").values() {
            c.reset();
        }
        for g in self.inner.gauges.lock().expect("gauge lock").values() {
            g.set(0.0);
        }
        for h in self
            .inner
            .histograms
            .lock()
            .expect("histogram lock")
            .values()
        {
            h.reset();
        }
    }

    /// Renders the end-of-run human-readable summary: span totals
    /// (aggregated by name), non-zero counters, gauges, and histogram
    /// percentiles.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let spans = self.spans();
        if !spans.is_empty() {
            // Aggregate by name, keeping first-start order.
            let mut order: Vec<&str> = Vec::new();
            let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // (calls, total ns)
            for s in &spans {
                let entry = agg.entry(&s.name).or_insert_with(|| {
                    order.push(&s.name);
                    (0, 0)
                });
                entry.0 += 1;
                entry.1 += s.dur_ns;
            }
            let mut table = Table::new(vec!["span", "calls", "total", "mean"]);
            for name in order {
                let (calls, total_ns) = agg[name];
                table.row(vec![
                    name.to_owned(),
                    calls.to_string(),
                    format_ns(total_ns),
                    format_ns(total_ns / calls.max(1)),
                ]);
            }
            out.push_str("spans:\n");
            out.push_str(&table.render());
        }
        let snap = self.snapshot();
        let counters: Vec<_> = snap.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !counters.is_empty() {
            let mut table = Table::new(vec!["counter", "value"]);
            for (k, v) in counters {
                table.row(vec![k.clone(), v.to_string()]);
            }
            out.push_str("counters:\n");
            out.push_str(&table.render());
        }
        let gauges: Vec<_> = snap.gauges.iter().filter(|(_, v)| *v != 0.0).collect();
        if !gauges.is_empty() {
            let mut table = Table::new(vec!["gauge", "value"]);
            for (k, v) in gauges {
                table.row(vec![k.clone(), format!("{v:.3e}")]);
            }
            out.push_str("gauges:\n");
            out.push_str(&table.render());
        }
        let hists: Vec<_> = snap
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !hists.is_empty() {
            let mut table = Table::new(vec![
                "histogram",
                "count",
                "min",
                "p50",
                "p90",
                "p99",
                "max",
                "mean",
            ]);
            for (k, h) in hists {
                table.row(vec![
                    k.clone(),
                    h.count.to_string(),
                    h.min.to_string(),
                    h.percentile(0.5).unwrap_or(0).to_string(),
                    h.percentile(0.9).unwrap_or(0).to_string(),
                    h.percentile(0.99).unwrap_or(0).to_string(),
                    h.max.to_string(),
                    format!("{:.1}", h.mean().unwrap_or(0.0)),
                ]);
            }
            out.push_str("histograms:\n");
            out.push_str(&table.render());
        }
        if out.is_empty() {
            out.push_str("(no observability data recorded)\n");
        }
        out
    }
}

fn format_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    attrs: Vec<(String, String)>,
    trace: u64,
}

/// Guard for an open span; ends the span on drop.
pub struct SpanGuard {
    recorder: Recorder,
    start: Instant,
    open: Option<OpenSpan>,
    hook: Option<(SpanHook, String)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl SpanGuard {
    /// Attaches a key/value attribute to the span (recorded when the
    /// span ends). No-op while the recorder is disabled, so hot paths
    /// can attach unconditionally.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        if let Some(open) = &mut self.open {
            open.attrs.push((key.to_owned(), value.into()));
        }
    }

    /// Ends the span now and returns its wall-clock duration (measured
    /// whether or not the recorder is enabled).
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        if let Some(open) = self.open.take() {
            self.recorder.end_span(open, dur);
        }
        self.fire_exit(dur);
        dur
    }

    /// Elapsed time so far, without ending the span.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    fn fire_exit(&mut self, dur: Duration) {
        if let Some((hook, name)) = self.hook.take() {
            hook(&name, SpanEvent::Exit(dur));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        if let Some(open) = self.open.take() {
            self.recorder.end_span(open, dur);
        }
        self.fire_exit(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_no_spans_but_times() {
        let rec = Recorder::new();
        let sp = rec.span("work");
        std::thread::sleep(Duration::from_millis(2));
        let dur = sp.finish();
        assert!(dur >= Duration::from_millis(2));
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn span_nesting_records_parents() {
        let rec = Recorder::new();
        rec.enable();
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        inner.finish();
        outer.finish();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let rec = Recorder::new();
        rec.enable();
        let root = rec.span("root");
        rec.span("a").finish();
        rec.span("b").finish();
        root.finish();
        let spans = rec.spans();
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(root_id), "{name}");
        }
    }

    #[test]
    fn spans_on_other_threads_have_no_false_parent() {
        let rec = Recorder::new();
        rec.enable();
        let root = rec.span("root");
        std::thread::scope(|scope| {
            let rec = rec.clone();
            scope.spawn(move || {
                rec.span("worker").finish();
            });
        });
        root.finish();
        let spans = rec.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        // The worker thread's stack is empty: no parent.
        assert_eq!(worker.parent, None);
    }

    #[test]
    fn span_attrs_are_recorded_and_serialized() {
        let rec = Recorder::new();
        rec.enable();
        let mut sp = rec.span("sim.kernel_run");
        sp.attr("strategy", "level");
        sp.attr("threads_requested", 8.to_string());
        sp.finish();
        let spans = rec.spans();
        assert_eq!(
            spans[0].attrs,
            vec![
                ("strategy".to_owned(), "level".to_owned()),
                ("threads_requested".to_owned(), "8".to_owned()),
            ]
        );
        let json = spans[0].to_json();
        assert_eq!(
            json.get("attrs").unwrap().get("strategy").unwrap().as_str(),
            Some("level")
        );
        // Attribute-free spans keep the pre-attribute JSON layout.
        rec.span("plain").finish();
        let plain = rec.spans().pop().unwrap();
        assert!(plain.to_json().get("attrs").is_none());
    }

    #[test]
    fn attrs_on_disabled_recorder_are_a_no_op() {
        let rec = Recorder::new();
        let mut sp = rec.span("quiet");
        sp.attr("k", "v");
        sp.finish();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn guard_drop_records_too() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _g = rec.span("scoped");
        }
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn metrics_snapshot_and_reset() {
        let rec = Recorder::new();
        rec.counter("x").add(3);
        rec.gauge("g").set(2.5);
        rec.histogram("h").record(7);
        let snap = rec.snapshot();
        assert_eq!(snap.counters, vec![("x".to_owned(), 3)]);
        assert_eq!(snap.gauges, vec![("g".to_owned(), 2.5)]);
        assert_eq!(snap.histograms[0].1.count, 1);

        let handle = rec.counter("x");
        rec.reset();
        assert_eq!(rec.counter("x").get(), 0);
        handle.add(1); // pre-reset handles stay live
        assert_eq!(rec.counter("x").get(), 1);
    }

    #[test]
    fn in_memory_sink_sees_completed_spans() {
        let rec = Recorder::new();
        rec.enable();
        let sink = InMemorySink::new();
        rec.add_sink(Box::new(sink.clone()));
        rec.span("phase").finish();
        rec.counter("n").add(2);
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans, rec.spans());
    }

    #[test]
    fn concurrent_counter_increments_from_scoped_threads() {
        // The SimProgram column-split shape: one shared handle, many
        // scoped workers.
        let rec = Recorder::new();
        let counter = rec.counter("sim.kernel_words");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(rec.counter("sim.kernel_words").get(), 80_000);
    }

    #[test]
    fn summary_renders_all_sections() {
        let rec = Recorder::new();
        rec.enable();
        rec.span("phase_one").finish();
        rec.counter("events").add(5);
        rec.gauge("rate").set(1.5e6);
        rec.histogram("lat").record(12);
        let summary = rec.render_summary();
        for needle in [
            "spans:",
            "phase_one",
            "counters:",
            "events",
            "gauges:",
            "rate",
            "histograms:",
            "lat",
        ] {
            assert!(summary.contains(needle), "missing {needle} in:\n{summary}");
        }
        assert_eq!(
            Recorder::new().render_summary(),
            "(no observability data recorded)\n"
        );
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(500), "0.5us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_200_000_000), "3.20s");
    }

    #[test]
    fn root_trace_contexts_are_unique_and_nonzero() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn adopted_trace_crosses_the_dispatch_boundary() {
        // The worker-pool shape: the submitting side mints a context,
        // the executing thread adopts it, and every span it opens joins
        // the trace.
        let rec = Recorder::new();
        rec.enable();
        rec.span("submit").finish();

        let root = TraceContext::new_root();
        let handle = std::thread::spawn({
            let rec = rec.clone();
            move || {
                let _adopt = rec.adopt_trace(root);
                let outer = rec.span("outer");
                rec.span("inner").finish();
                outer.finish();
            }
        });
        handle.join().unwrap();

        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.trace, root.trace_id);
        assert_eq!(outer.parent, None, "the trace crosses, no span parent");
        assert_eq!(inner.trace, root.trace_id, "children inherit the trace");
        assert_eq!(inner.parent, Some(outer.id));
        let json = outer.to_json();
        assert_eq!(
            json.get("trace").and_then(Json::as_str),
            Some(root.hex().as_str())
        );
        let untraced = spans.iter().find(|s| s.name == "submit").unwrap();
        assert!(untraced.to_json().get("trace").is_none());
    }

    #[test]
    fn trace_guard_restores_on_drop() {
        let rec = Recorder::new();
        rec.enable();
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        let _ga = rec.adopt_trace(a);
        {
            let _gb = rec.adopt_trace(b);
            rec.span("inner_guard").finish();
        }
        rec.span("outer_guard").finish();
        let traces: Vec<u64> = rec.spans().iter().map(|s| s.trace).collect();
        assert_eq!(traces, [b.trace_id, a.trace_id]);
    }

    #[test]
    fn span_hook_fires_even_when_disabled() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(String, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let rec = Recorder::new(); // stays disabled
        {
            let seen = Arc::clone(&seen);
            let _hook = install_span_hook(Arc::new(move |name: &str, ev: SpanEvent| {
                seen.lock()
                    .unwrap()
                    .push((name.to_owned(), ev == SpanEvent::Enter));
            }));
            let sp = rec.span("phase");
            rec.span("nested").finish();
            sp.finish();
        }
        rec.span("after_uninstall").finish();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                ("phase".to_owned(), true),
                ("nested".to_owned(), true),
                ("nested".to_owned(), false),
                ("phase".to_owned(), false),
            ]
        );
        assert!(rec.spans().is_empty(), "hook must not enable recording");
    }
}
