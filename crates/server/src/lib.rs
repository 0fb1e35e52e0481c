//! `htforge-server` — the long-running multi-tenant campaign daemon.
//!
//! The rest of the workspace is one-shot: load a circuit, run a
//! pipeline, print a table. This crate turns it into a service
//! (`DESIGN.md` §10): a job queue speaking a versioned JSONL protocol
//! ([`protocol`]) over stdin/stdout or a Unix socket, multiplexing
//! `simulate`/`insert`/`grade`/`detect` jobs ([`exec`]) onto a worker
//! pool ([`core`]) with
//!
//! * a content-hash-keyed cache of compiled circuits ([`cache`]) so
//!   repeated jobs on the same netlist skip parsing and `SimProgram`
//!   compilation,
//! * per-job `RunBudget` + `CancelToken` admission control with
//!   priority/deadline scheduling,
//! * graceful shutdown that drains (or drops) the queue,
//! * per-job `htforge.run_report/v1` artifacts streamed inline with
//!   each terminal response, plus `server.*` counters and gauges,
//! * a crash-safe write-ahead job journal ([`journal`]) replayed on
//!   restart so accepted jobs survive a `SIGKILL` (at-least-once
//!   redelivery, deduplicated terminals), and
//! * per-tenant admission control (token-bucket rates, in-flight
//!   quotas, bounded queue) that sheds overload with structured
//!   `queue_full`/`rate_limit` rejections instead of dropping
//!   connections.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::AtomicBool;
//! use std::sync::Arc;
//! use htforge_server::{serve, ProgramCache, ServerConfig};
//!
//! let input = concat!(
//!     r#"{"schema":"htforge.job_request/v1","op":"submit","id":"j1","#,
//!     r#""kind":"simulate","circuit":"c17","params":{"vectors":256}}"#,
//!     "\n",
//! );
//! // EOF after one submit: the job drains, then the stream closes.
//! let summary = serve(
//!     input.as_bytes(),
//!     Vec::new(), // any `Write + Send` sink; the binary passes stdout
//!     ServerConfig { workers: 1, ..ServerConfig::default() },
//!     Arc::new(ProgramCache::new()),
//!     Arc::new(AtomicBool::new(false)), // the binary's SIGTERM flag
//! ).unwrap();
//! assert_eq!(summary.stats.completed, 1);
//! ```

pub mod cache;
pub mod core;
pub mod exec;
pub mod journal;
pub mod progress;
pub mod protocol;
pub mod session;

pub use cache::{CacheStats, CompiledCircuit, ProgramCache};
pub use core::{
    AdmissionConfig, RecoveryInfo, Server, ServerConfig, SessionControl, StatsSnapshot,
};
pub use exec::{execute, ExecOutcome, SIM_CHUNK};
pub use journal::{
    archive_path, read_records, read_records_with_archive, FsyncPolicy, Journal, JournalConfig,
    JournalEvent, JournalStats, Recovery,
};
pub use progress::{ProgressEmitter, JOB_PHASES};
pub use protocol::{
    parse_request, CircuitSource, JobKind, JobParams, JobProgress, JobResult, JobSpec, JobStatus,
    Request, RequestError, Response, REQUEST_SCHEMA, RESPONSE_SCHEMA,
};
pub use session::{serve, serve_unix_socket, SessionSummary};
