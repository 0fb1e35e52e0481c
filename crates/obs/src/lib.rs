//! # htforge-obs — structured observability for the insertion pipeline
//!
//! Zero-dependency tracing, metrics and run reports shared by every
//! htforge crate (see `DESIGN.md` §8 for the architecture):
//!
//! * **Spans** ([`Recorder::span`]) — hierarchical, monotonic-clock
//!   timed sections; the pipeline phases (`rare_extraction`, `podem`,
//!   `compat_graph`, `clique_enumeration`, `insertion`, `validation`)
//!   are spans.
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   handles fetched once and updated from hot loops and scoped worker
//!   threads.
//! * **Sinks** ([`Sink`]) — completed-span consumers: [`InMemorySink`]
//!   for tests, [`JsonlSink`] for streaming, plus the end-of-run summary
//!   table ([`Recorder::render_summary`]).
//! * **Run reports** ([`RunReport`]) — the `htforge.run_report/v1` JSON
//!   artifact written per circuit by the benchmark binaries and
//!   validated in CI by the `obs_validate` binary.
//! * **Live telemetry plane** ([`TraceContext`], [`frames`]) — trace
//!   ids that cross worker-pool dispatch boundaries (adopt with
//!   [`Recorder::adopt_trace`]), per-thread span hooks
//!   ([`install_span_hook`]) that stream phase progress even with the
//!   recorder disabled, and the `htforge.metrics_snapshot/v1` /
//!   `htforge.job_timeline/v1` / `htforge.job_progress/v1` schema
//!   trio validated like run reports.
//! * **Resilience substrate** ([`RunBudget`], [`DegradationNote`],
//!   [`faultpoint!`], [`isolate()`]) — cooperative deadlines and
//!   cancellation, structured degradation records, named
//!   fault-injection points (`HTFORGE_FAULT`) and panic isolation for
//!   campaign drivers (see `DESIGN.md` §9).
//! * **Worker loop** ([`map_indexed`], [`host_threads`]) — the one
//!   scoped-thread loop every parallel site shares: per-worker state,
//!   results in index order, worker panics re-raised with their payload.
//!
//! ## The global recorder
//!
//! Library code records against [`global()`], which starts **disabled**:
//! metric handles still accumulate (one relaxed atomic op), but spans
//! and sinks cost nothing beyond an `Instant` read. Binaries opt in:
//!
//! ```
//! let _obs = htforge_obs::init_from_env(); // reads HTFORGE_OBS
//! htforge_obs::global().enable();
//! // ... run the pipeline ...
//! let report = htforge_obs::RunReport::from_recorder("quickstart_c17", htforge_obs::global());
//! ```
//!
//! `HTFORGE_OBS` is a comma-separated list of outputs: `jsonl` (one line
//! per completed span, to `HTFORGE_OBS_FILE` or stderr) and `summary`
//! (table on exit via the returned [`ObsSession`] guard). Any non-empty
//! value also enables the recorder.

pub mod budget;
pub mod faultpoint;
pub mod frames;
pub mod isolate;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod table;
pub mod workers;

use std::sync::OnceLock;

pub use budget::{
    BudgetExceeded, BudgetTicker, CancelToken, DegradationNote, RunBudget, StagedBudget,
};
pub use frames::{
    metrics_snapshot_json, validate_any_json, validate_any_str, validate_job_progress,
    validate_job_timeline, validate_metrics_snapshot, validate_netlist_scaling,
    validate_server_journal, JobTimeline, ProgressFrame, TimelinePhase, JOB_PROGRESS_SCHEMA,
    JOB_TIMELINE_SCHEMA, JOURNAL_EVENTS, METRICS_SNAPSHOT_SCHEMA, NETLIST_SCALING_SCHEMA,
    PROGRESS_EVENTS, SERVER_JOURNAL_SCHEMA,
};
pub use isolate::{isolate, panic_message};
pub use json::{parse as parse_json, Json, ParseError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{
    install_span_hook, InMemorySink, JsonlSink, MetricsSnapshot, Recorder, Sink, SpanEvent,
    SpanGuard, SpanHook, SpanHookGuard, SpanRecord, TraceContext, TraceGuard,
};
pub use report::{
    validate_json, validate_str, write_atomic, HistogramReport, RunReport, SpanEntry, SCHEMA,
};
pub use table::Table;
pub use workers::{host_threads, map_indexed};

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder all library instrumentation records to.
/// Created disabled on first use.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Whether the global recorder is enabled (spans/sinks active).
#[must_use]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Starts a span on the global recorder.
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    global().span(name)
}

/// A counter handle from the global recorder.
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// A gauge handle from the global recorder.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// A histogram handle from the global recorder.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Drop guard returned by [`init_from_env`]: flushes sinks and (when
/// requested) prints the summary table on the way out.
#[derive(Debug)]
pub struct ObsSession {
    print_summary: bool,
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if self.print_summary {
            eprintln!("== observability summary ==");
            eprint!("{}", global().render_summary());
        }
        global().flush();
    }
}

/// Configures the global recorder from `HTFORGE_OBS` /
/// `HTFORGE_OBS_FILE` and returns a guard that flushes on drop.
///
/// `HTFORGE_OBS` is a comma-separated list of `jsonl` and `summary`;
/// unknown entries are reported to stderr and skipped. When
/// the variable is unset or empty the recorder is left untouched (still
/// usable — binaries may enable it themselves).
#[must_use]
pub fn init_from_env() -> ObsSession {
    let spec = std::env::var("HTFORGE_OBS").unwrap_or_default();
    let mut session = ObsSession {
        print_summary: false,
    };
    if spec.trim().is_empty() {
        return session;
    }
    global().enable();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "jsonl" => {
                let sink = match std::env::var("HTFORGE_OBS_FILE") {
                    Ok(path) => match std::fs::File::create(&path) {
                        Ok(f) => JsonlSink::new(Box::new(f)),
                        Err(e) => {
                            eprintln!("HTFORGE_OBS_FILE `{path}`: {e}; falling back to stderr");
                            JsonlSink::stderr()
                        }
                    },
                    Err(_) => JsonlSink::stderr(),
                };
                global().add_sink(Box::new(sink));
            }
            "summary" => session.print_summary = true,
            other => eprintln!("HTFORGE_OBS: unknown output `{other}` (jsonl, summary)"),
        }
    }
    session
}
