//! The job-queue core: admission, scheduling, workers, responses.
//!
//! One [`Server`] owns a priority queue and a small worker pool over
//! the existing kernel thread path. Every accepted job gets **exactly
//! one terminal [`Response::Result`]** — done, failed, cancelled or
//! timeout — no matter what happens in between: executor panics are
//! caught by [`isolate()`], budget trips map to `cancelled`/`timeout`,
//! and an injected `server.respond` fault degrades the response body
//! through a fallback path that bypasses the faultpoint. The chaos and
//! concurrency suites count on that invariant ("zero lost jobs").
//!
//! Scheduling order: higher `priority` first, then earlier deadline,
//! then FIFO submission order. Deadlines are admission deadlines — the
//! clock starts at submission, so a job that waits out its own deadline
//! in the queue completes as `timeout` without ever touching a worker.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use htforge_core::{DEFAULT_STAGE_WEIGHTS, STAGED_PHASES};
use htforge_obs::faultpoint;
use htforge_obs::{
    install_span_hook, isolate, metrics_snapshot_json, CancelToken, JobTimeline, Json, RunBudget,
    RunReport, SpanEntry, TraceContext,
};

use crate::cache::ProgramCache;
use crate::exec::{execute, ExecOutcome};
use crate::journal::{Journal, JournalConfig, JournalEvent};
use crate::progress::ProgressEmitter;
use crate::protocol::{parse_request, JobKind, JobResult, JobSpec, JobStatus, Request, Response};

/// Per-tenant admission control. Every limit defaults to `0` =
/// unlimited, so a plain [`ServerConfig::default`] behaves exactly as
/// before admission control existed.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Bound on the queue depth (queued, not running). A submit that
    /// would exceed it is shed with a structured `queue_full`
    /// rejection instead of growing the queue without bound.
    pub max_queue_depth: usize,
    /// Per-tenant cap on active (queued + running) jobs.
    pub tenant_max_active: usize,
    /// Per-tenant token-bucket refill rate (submits per second).
    pub tenant_rate_per_sec: f64,
    /// Token-bucket capacity (burst size); `0` defaults to
    /// `max(rate, 1)`.
    pub tenant_burst: f64,
    /// Retry-after hint stamped on `queue_full` rejections (rate-limit
    /// rejections compute theirs from the bucket deficit).
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 0,
            tenant_max_active: 0,
            tenant_rate_per_sec: 0.0,
            tenant_burst: 0.0,
            retry_after_ms: 250,
        }
    }
}

impl AdmissionConfig {
    fn burst(&self) -> f64 {
        if self.tenant_burst > 0.0 {
            self.tenant_burst
        } else {
            self.tenant_rate_per_sec.max(1.0)
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (0 = one per available core, capped at 8).
    pub workers: usize,
    /// Tenant assigned to requests that do not name one.
    pub default_tenant: String,
    /// Stream `htforge.job_progress/v1` frames for running jobs
    /// (default on; the bench A/B flips this off to price the overhead).
    pub progress: bool,
    /// Write-ahead job journal (`None` = in-memory only, the
    /// pre-durability behavior). With a journal, startup replays the
    /// segment and re-enqueues accepted-but-not-terminal jobs.
    pub journal: Option<JournalConfig>,
    /// Admission control; the default imposes no limits.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            default_tenant: "default".to_owned(),
            progress: true,
            journal: None,
            admission: AdmissionConfig::default(),
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        htforge_obs::host_threads().min(8)
    }
}

/// Lifetime totals, snapshot via [`Server::stats`]. These are *local*
/// to one server (the global obs counters are process-wide and shared
/// across tests); the obs `server.*` metrics mirror them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that finished `done`.
    pub completed: u64,
    /// Jobs that finished `failed` (errors and isolated panics).
    pub failed: u64,
    /// Jobs that finished `cancelled`.
    pub cancelled: u64,
    /// Jobs that finished `timeout`.
    pub timeout: u64,
    /// Responses degraded by the `server.respond` fallback path.
    pub degraded_responses: u64,
    /// Submits shed by admission control (`queue_full`/`rate_limit`);
    /// rejected jobs are *not* accepted and get no terminal response.
    pub rejected: u64,
}

impl StatsSnapshot {
    /// Terminal responses emitted (every accepted job produces one).
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.timeout
    }
}

#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    timeout: AtomicU64,
    degraded_responses: AtomicU64,
    rejected: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timeout: self.timeout.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    fn count_terminal(&self, status: JobStatus) {
        let (local, name) = match status {
            JobStatus::Done => (&self.completed, "server.jobs_completed"),
            JobStatus::Failed => (&self.failed, "server.jobs_failed"),
            JobStatus::Cancelled => (&self.cancelled, "server.jobs_cancelled"),
            JobStatus::Timeout => (&self.timeout, "server.jobs_timeout"),
        };
        local.fetch_add(1, Ordering::Relaxed);
        htforge_obs::counter(name).incr();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    /// Cancelled while queued: the terminal response is already out;
    /// the worker drops the heap entry on pop.
    Tombstoned,
}

#[derive(Debug)]
struct JobEntry {
    token: CancelToken,
    phase: Phase,
}

/// What one worker thread is doing right now (`status` introspection).
#[derive(Debug, Clone)]
enum WorkerState {
    Idle,
    Busy {
        tenant: String,
        id: String,
        kind: JobKind,
    },
}

struct QueuedJob {
    seq: u64,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Root trace context minted at submission; the worker adopts it so
    /// every span, frame and report line of this job shares one id.
    trace: TraceContext,
    /// The session that submitted the job; its responses (progress and
    /// terminal) route back there, falling back to session 0 when the
    /// connection is gone (recovered jobs start on session 0).
    session: u64,
    spec: JobSpec,
}

impl QueuedJob {
    fn order(&self, other: &Self) -> CmpOrdering {
        self.spec
            .priority
            .cmp(&other.spec.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                // Earlier deadline runs first; no deadline runs last.
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => CmpOrdering::Greater,
                (None, Some(_)) => CmpOrdering::Less,
                (None, None) => CmpOrdering::Equal,
            })
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == CmpOrdering::Equal
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.order(other)
    }
}

/// Per-tenant admission state: active-job count plus a token bucket.
struct TenantState {
    active: usize,
    tokens: f64,
    refreshed: Instant,
}

struct Inner {
    queue: BinaryHeap<QueuedJob>,
    jobs: HashMap<(String, String), JobEntry>,
    /// `Some(drop_queued)` once shutdown was requested.
    shutdown: Option<bool>,
    seq: u64,
    in_flight: usize,
    worker_states: Vec<WorkerState>,
    tenants: HashMap<String, TenantState>,
}

/// What journal replay found at startup (exposed through the `metrics`
/// op and [`Server::recovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryInfo {
    /// Whether a journal is configured at all.
    pub enabled: bool,
    /// Valid records replayed from the segment.
    pub replayed_records: u64,
    /// Terminal records among them (jobs already complete).
    pub terminal_records: u64,
    /// Accepted-but-not-terminal jobs re-enqueued at startup.
    pub recovered_jobs: u64,
    /// Torn/corrupt tail bytes truncated off the segment.
    pub truncated_bytes: u64,
    /// Wall-clock replay duration.
    pub recovery_ms: f64,
    /// Replay failed (injected fault or undecodable segment); the
    /// server restarted on a fresh segment instead of dying.
    pub replay_failed: bool,
}

struct Core {
    inner: Mutex<Inner>,
    cv: Condvar,
    cache: Arc<ProgramCache>,
    stats: Stats,
    /// Response routing: session id → that session's response channel.
    /// Session 0 is the primary channel handed out by [`Server::start`]
    /// and the fallback for responses whose session is gone. Lock
    /// order: `inner` before `sessions`, never the reverse
    /// (`respond_terminal` runs under `inner` on the cancel and
    /// shutdown-drop paths).
    sessions: Mutex<HashMap<u64, Sender<Response>>>,
    next_session: AtomicU64,
    progress_enabled: bool,
    admission: AdmissionConfig,
    /// The write-ahead journal; locked after `inner` (same ordering
    /// argument as `sessions`).
    journal: Option<Mutex<Journal>>,
    recovery: RecoveryInfo,
    /// Terminal results whose submitting session died before delivery,
    /// parked for the `pickup` op (bounded FIFO — oldest evicted at
    /// [`PARKED_TERMINALS_CAP`]). Leaf lock: never held across another
    /// lock acquisition.
    parked: Mutex<VecDeque<JobResult>>,
}

/// Bound on parked terminals retained for `pickup`.
const PARKED_TERMINALS_CAP: usize = 1024;

impl Core {
    /// Routes one response to its session, falling back to session 0
    /// when the session is gone (disconnected socket client); a
    /// response no channel can take is counted, never a panic.
    fn send_to(&self, session: u64, resp: Response) {
        let sessions = self.sessions.lock().unwrap();
        let mut resp = Some(resp);
        if let Some(tx) = sessions.get(&session) {
            match tx.send(resp.take().unwrap()) {
                Ok(()) => return,
                Err(e) => resp = Some(e.0),
            }
        }
        if session != 0 {
            if let Some(tx) = sessions.get(&0) {
                if tx.send(resp.take().unwrap()).is_ok() {
                    return;
                }
            }
        }
        htforge_obs::counter("server.responses_orphaned").incr();
    }

    /// The response sender for `session`, falling back to session 0
    /// (progress emitters clone this once per job at pop time).
    fn session_sender(&self, session: u64) -> Option<Sender<Response>> {
        let sessions = self.sessions.lock().unwrap();
        sessions.get(&session).or_else(|| sessions.get(&0)).cloned()
    }

    /// Sends `resp` to every open session (the final shutdown line).
    fn broadcast(&self, resp: &Response) {
        let sessions = self.sessions.lock().unwrap();
        for tx in sessions.values() {
            let _ = tx.send(resp.clone());
        }
    }

    /// Appends one record to the journal through the
    /// `server.journal_append` faultpoint. Failures (injected or real
    /// I/O) degrade durability — counted, logged via counter, job
    /// unaffected — they never lose or block the job itself.
    fn journal_append(&self, event: &JournalEvent) {
        let Some(journal) = &self.journal else { return };
        let appended = isolate("server.journal_append", || {
            if faultpoint::fire("server.journal_append") {
                return false;
            }
            let mut j = match journal.lock() {
                Ok(j) => j,
                Err(poisoned) => poisoned.into_inner(),
            };
            j.append(event).is_ok()
        });
        if appended == Ok(true) {
            htforge_obs::counter("server.journal_appends").incr();
        } else {
            htforge_obs::counter("server.journal_append_errors").incr();
        }
    }

    /// Fsyncs the journal regardless of policy (drain path).
    fn journal_sync(&self) {
        if let Some(journal) = &self.journal {
            let mut j = match journal.lock() {
                Ok(j) => j,
                Err(poisoned) => poisoned.into_inner(),
            };
            let _ = j.sync();
        }
    }

    /// Releases one active-job slot of `tenant` (terminal response
    /// emitted). Must be called exactly once per accepted job.
    fn tenant_release(inner: &mut Inner, tenant: &str) {
        if let Some(t) = inner.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
        }
    }

    /// Sheds one submit with a structured rejection.
    fn reject(&self, session: u64, spec: &JobSpec, reason: &str, error: String, retry_ms: u64) {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        htforge_obs::counter("server.jobs_rejected").incr();
        htforge_obs::counter(&format!("server.jobs_rejected.{reason}")).incr();
        self.send_to(
            session,
            Response::Reject {
                tenant: spec.tenant.clone(),
                id: spec.id.clone(),
                reason: reason.to_owned(),
                error,
                retry_after_ms: retry_ms,
            },
        );
    }

    fn mirror_gauges(&self, inner: &Inner) {
        htforge_obs::gauge("server.queue_depth").set(inner.queue.len() as f64);
        htforge_obs::gauge("server.jobs_in_flight").set(inner.in_flight as f64);
        htforge_obs::gauge("server.cache_hit_rate").set(self.cache.hit_rate());
    }

    fn handle(&self, session: u64, req: Request, default_tenant: &str) {
        match req {
            Request::Submit(spec) => self.submit(session, *spec, default_tenant),
            Request::Cancel { tenant, id } => {
                let tenant = normalize(tenant, default_tenant);
                self.cancel(session, &tenant, &id);
            }
            Request::Pickup { tenant, id } => {
                let tenant = normalize(tenant, default_tenant);
                self.pickup(session, &tenant, &id);
            }
            Request::Status => self.send_to(session, Response::Status(self.status_body())),
            Request::Metrics => self.send_to(session, Response::Metrics(self.metrics_body())),
            Request::Shutdown { drop_queued } => {
                self.shutdown(session, drop_queued, true);
            }
        }
    }

    /// Admission check under the queue lock. `Ok(())` accepts;
    /// `Err((reason, message, retry_after_ms))` sheds the submit.
    fn admit(&self, inner: &mut Inner, spec: &JobSpec) -> Result<(), (&'static str, String, u64)> {
        let a = &self.admission;
        if a.max_queue_depth > 0 && inner.queue.len() >= a.max_queue_depth {
            return Err((
                "queue_full",
                format!("queue depth {} at limit", inner.queue.len()),
                a.retry_after_ms,
            ));
        }
        let now = Instant::now();
        let burst = a.burst();
        let state = inner
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| TenantState {
                active: 0,
                tokens: burst,
                refreshed: now,
            });
        if a.tenant_max_active > 0 && state.active >= a.tenant_max_active {
            return Err((
                "queue_full",
                format!(
                    "tenant `{}` has {} active jobs (quota {})",
                    spec.tenant, state.active, a.tenant_max_active
                ),
                a.retry_after_ms,
            ));
        }
        if a.tenant_rate_per_sec > 0.0 {
            let elapsed = now.duration_since(state.refreshed).as_secs_f64();
            state.tokens = (state.tokens + elapsed * a.tenant_rate_per_sec).min(burst);
            state.refreshed = now;
            if state.tokens < 1.0 {
                let wait_ms = ((1.0 - state.tokens) / a.tenant_rate_per_sec * 1e3).ceil() as u64;
                return Err((
                    "rate_limit",
                    format!(
                        "tenant `{}` exceeded {} submits/sec",
                        spec.tenant, a.tenant_rate_per_sec
                    ),
                    wait_ms.max(1),
                ));
            }
            state.tokens -= 1.0;
        }
        Ok(())
    }

    fn submit(&self, session: u64, mut spec: JobSpec, default_tenant: &str) {
        spec.tenant = normalize(std::mem::take(&mut spec.tenant), default_tenant);
        // The `server.accept` faultpoint fires outside the queue lock
        // (a `panic` action is isolated here instead of poisoning the
        // scheduler); an injected fault sheds the submit with a
        // structured rejection, exactly like a real admission failure.
        let inject = isolate("server.accept", || faultpoint::fire("server.accept"));
        if inject != Ok(false) {
            self.reject(
                session,
                &spec,
                "accept_fault",
                "injected admission fault".to_owned(),
                self.admission.retry_after_ms,
            );
            return;
        }
        let key = spec.key();
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown.is_some() {
            self.send_to(
                session,
                Response::Error {
                    stage: "submit".to_owned(),
                    id: Some(spec.id),
                    error: "server is shutting down".to_owned(),
                },
            );
            return;
        }
        if inner.jobs.contains_key(&key) {
            self.send_to(
                session,
                Response::Error {
                    stage: "submit".to_owned(),
                    id: Some(spec.id.clone()),
                    error: format!(
                        "job `{}` is already active for tenant `{}`",
                        spec.id, spec.tenant
                    ),
                },
            );
            return;
        }
        if let Err((reason, message, retry_ms)) = self.admit(&mut inner, &spec) {
            drop(inner);
            self.reject(session, &spec, reason, message, retry_ms);
            return;
        }
        // Write-ahead: the submit record is journaled (and, under the
        // `always` policy, durable) before the ack leaves the server —
        // a post-ack crash can never lose the job. Appending under the
        // queue lock also orders it before the worker's `start` record.
        self.journal_append(&JournalEvent::Submit(Box::new(spec.clone())));
        self.enqueue(&mut inner, session, spec, true);
        self.mirror_gauges(&inner);
        drop(inner);
        self.cv.notify_one();
    }

    /// Inserts one accepted job into the queue and (optionally) acks.
    /// The ack goes out while holding the lock: a worker needs this
    /// lock to pop, so the ack is on the wire before the job's
    /// terminal response.
    fn enqueue(&self, inner: &mut Inner, session: u64, spec: JobSpec, ack: bool) {
        let token = CancelToken::new();
        let now = Instant::now();
        let trace = TraceContext::new_root();
        // Every accepted job — fresh or replayed — holds one active
        // slot of its tenant until its terminal response.
        let burst = self.admission.burst();
        inner
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| TenantState {
                active: 0,
                tokens: burst,
                refreshed: now,
            })
            .active += 1;
        inner.jobs.insert(
            spec.key(),
            JobEntry {
                token,
                phase: Phase::Queued,
            },
        );
        inner.seq += 1;
        let seq = inner.seq;
        if ack {
            self.send_to(
                session,
                Response::Ack {
                    op: "submit".to_owned(),
                    tenant: spec.tenant.clone(),
                    id: Some(spec.id.clone()),
                    detail: vec![
                        (
                            "queue_depth".to_owned(),
                            Json::Num((inner.queue.len() + 1) as f64),
                        ),
                        ("trace".to_owned(), Json::Str(trace.hex())),
                    ],
                },
            );
        }
        inner.queue.push(QueuedJob {
            seq,
            deadline: spec.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            submitted: now,
            trace,
            session,
            spec,
        });
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        htforge_obs::counter("server.jobs_submitted").incr();
    }

    fn cancel(&self, session: u64, tenant: &str, id: &str) {
        let key = (tenant.to_owned(), id.to_owned());
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.jobs.get_mut(&key) else {
            self.send_to(
                session,
                Response::Error {
                    stage: "cancel".to_owned(),
                    id: Some(id.to_owned()),
                    error: format!("no active job `{id}` for tenant `{tenant}`"),
                },
            );
            return;
        };
        entry.token.cancel();
        let phase = entry.phase;
        match phase {
            Phase::Queued => {
                // The terminal response comes from here, now; the heap
                // entry becomes a tombstone the worker discards.
                entry.phase = Phase::Tombstoned;
                self.send_to(
                    session,
                    Response::Ack {
                        op: "cancel".to_owned(),
                        tenant: tenant.to_owned(),
                        id: Some(id.to_owned()),
                        detail: vec![("state".to_owned(), Json::Str("queued".to_owned()))],
                    },
                );
                // The entry does not track the kind; recover it (plus
                // the queue latency, trace and owning session) with
                // one scan of the small heap.
                let (kind, latency_ms, trace, job_session) = inner
                    .queue
                    .iter()
                    .find(|q| q.spec.tenant == tenant && q.spec.id == id)
                    .map_or((JobKind::Simulate, 0.0, String::new(), session), |q| {
                        (
                            q.spec.kind,
                            q.submitted.elapsed().as_secs_f64() * 1e3,
                            q.trace.hex(),
                            q.session,
                        )
                    });
                self.stats.count_terminal(JobStatus::Cancelled);
                Self::tenant_release(&mut inner, tenant);
                self.respond_terminal(
                    job_session,
                    JobResult {
                        tenant: tenant.to_owned(),
                        id: id.to_owned(),
                        kind,
                        status: JobStatus::Cancelled,
                        latency_ms,
                        result: None,
                        error: Some("cancelled while queued".to_owned()),
                        report: None,
                        trace,
                        timeline: None,
                    },
                );
            }
            Phase::Running => {
                // The worker observes the token and emits the terminal
                // `cancelled` response itself.
                self.send_to(
                    session,
                    Response::Ack {
                        op: "cancel".to_owned(),
                        tenant: tenant.to_owned(),
                        id: Some(id.to_owned()),
                        detail: vec![("state".to_owned(), Json::Str("running".to_owned()))],
                    },
                );
            }
            Phase::Tombstoned => {
                self.send_to(
                    session,
                    Response::Error {
                        stage: "cancel".to_owned(),
                        id: Some(id.to_owned()),
                        error: format!("job `{id}` is already cancelled"),
                    },
                );
            }
        }
    }

    fn status_body(&self) -> Json {
        let s = self.stats.snapshot();
        let c = self.cache.stats();
        let inner = self.inner.lock().unwrap();
        // Per-tenant load: running jobs from the worker states, queued
        // jobs from one scan of the (small) heap.
        let mut per_tenant: Vec<(String, u64, u64)> = Vec::new();
        let mut bump = |tenant: &str, running: u64, queued: u64| match per_tenant
            .iter_mut()
            .find(|(t, _, _)| t == tenant)
        {
            Some((_, r, q)) => {
                *r += running;
                *q += queued;
            }
            None => per_tenant.push((tenant.to_owned(), running, queued)),
        };
        let workers: Vec<Json> = inner
            .worker_states
            .iter()
            .map(|w| match w {
                WorkerState::Idle => Json::obj(vec![("state", Json::Str("idle".into()))]),
                WorkerState::Busy { tenant, id, kind } => {
                    bump(tenant, 1, 0);
                    Json::obj(vec![
                        ("state", Json::Str("busy".into())),
                        ("tenant", Json::Str(tenant.clone())),
                        ("id", Json::Str(id.clone())),
                        ("kind", Json::Str(kind.as_str().into())),
                    ])
                }
            })
            .collect();
        for q in &inner.queue {
            let key = q.spec.key();
            if matches!(inner.jobs.get(&key), Some(e) if e.phase == Phase::Queued) {
                bump(&q.spec.tenant, 0, 1);
            }
        }
        per_tenant.sort_by(|a, b| a.0.cmp(&b.0));
        let tenants = Json::Obj(
            per_tenant
                .into_iter()
                .map(|(tenant, running, queued)| {
                    (
                        tenant,
                        Json::obj(vec![
                            ("in_flight", Json::Num(running as f64)),
                            ("queued", Json::Num(queued as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("queue_depth", Json::Num(inner.queue.len() as f64)),
            ("jobs_in_flight", Json::Num(inner.in_flight as f64)),
            ("jobs_submitted", Json::Num(s.submitted as f64)),
            ("jobs_completed", Json::Num(s.completed as f64)),
            ("jobs_failed", Json::Num(s.failed as f64)),
            ("jobs_cancelled", Json::Num(s.cancelled as f64)),
            ("jobs_timeout", Json::Num(s.timeout as f64)),
            ("cache_entries", Json::Num(self.cache.entries() as f64)),
            ("cache_hits", Json::Num(c.hits as f64)),
            ("cache_misses", Json::Num(c.misses as f64)),
            ("cache_compiles", Json::Num(c.compiles as f64)),
            ("cache_hit_rate", Json::Num(self.cache.hit_rate())),
            ("jobs_rejected", Json::Num(s.rejected as f64)),
            ("workers", Json::Arr(workers)),
            ("per_tenant", tenants),
            ("shutting_down", Json::Bool(inner.shutdown.is_some())),
        ])
    }

    /// The `journal` object of the `metrics` body: recovery stats from
    /// startup replay plus live segment counters.
    fn journal_body(&self) -> Json {
        let r = &self.recovery;
        let mut fields = vec![("enabled", Json::Bool(r.enabled))];
        if r.enabled {
            fields.push(("replayed_records", Json::Num(r.replayed_records as f64)));
            fields.push(("terminal_records", Json::Num(r.terminal_records as f64)));
            fields.push(("recovered_jobs", Json::Num(r.recovered_jobs as f64)));
            fields.push(("truncated_bytes", Json::Num(r.truncated_bytes as f64)));
            fields.push(("recovery_ms", Json::Num(r.recovery_ms)));
            fields.push(("replay_failed", Json::Bool(r.replay_failed)));
            if let Some(journal) = &self.journal {
                if let Ok(j) = journal.lock() {
                    let s = j.stats();
                    fields.push(("appends", Json::Num(s.appends as f64)));
                    fields.push(("fsyncs", Json::Num(s.fsyncs as f64)));
                    fields.push(("rotations", Json::Num(s.rotations as f64)));
                    fields.push(("pending", Json::Num(j.pending() as f64)));
                    fields.push(("size_bytes", Json::Num(j.size_bytes() as f64)));
                    fields.push(("fsync", Json::Str(j.fsync_policy().label())));
                }
            }
        }
        Json::obj(fields)
    }

    /// The `metrics` introspection body: a full
    /// `htforge.metrics_snapshot/v1` of the process-wide recorder
    /// (per-class latency histograms included) and the journal.
    fn metrics_body(&self) -> Json {
        let snapshot = htforge_obs::global().snapshot();
        Json::obj(vec![
            ("snapshot", metrics_snapshot_json(&snapshot)),
            ("journal", self.journal_body()),
        ])
    }

    /// Initiates shutdown. Idempotent; only the first call acks.
    fn shutdown(&self, session: u64, drop_queued: bool, ack: bool) {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown.is_some() {
            return;
        }
        inner.shutdown = Some(drop_queued);
        if ack {
            self.send_to(
                session,
                Response::Ack {
                    op: "shutdown".to_owned(),
                    tenant: String::new(),
                    id: None,
                    detail: vec![(
                        "mode".to_owned(),
                        Json::Str(if drop_queued { "drop" } else { "drain" }.to_owned()),
                    )],
                },
            );
        }
        if drop_queued {
            while let Some(q) = inner.queue.pop() {
                let key = q.spec.key();
                let was_queued =
                    matches!(inner.jobs.get(&key), Some(e) if e.phase == Phase::Queued);
                inner.jobs.remove(&key);
                if was_queued {
                    self.stats.count_terminal(JobStatus::Cancelled);
                    Self::tenant_release(&mut inner, &q.spec.tenant);
                    self.respond_terminal(
                        q.session,
                        JobResult {
                            tenant: q.spec.tenant,
                            id: q.spec.id,
                            kind: q.spec.kind,
                            status: JobStatus::Cancelled,
                            latency_ms: q.submitted.elapsed().as_secs_f64() * 1e3,
                            result: None,
                            error: Some("dropped at shutdown".to_owned()),
                            report: None,
                            trace: q.trace.hex(),
                            timeline: None,
                        },
                    );
                }
            }
        }
        self.mirror_gauges(&inner);
        drop(inner);
        self.cv.notify_all();
    }

    /// Emits the terminal response for one job through the
    /// `server.respond` faultpoint. On an injected fault (err action or
    /// even a panic inside `fire`), a degraded response — same identity
    /// and status, payload and report stripped — goes out through a
    /// direct path that cannot fault again, preserving the
    /// one-terminal-response-per-job invariant.
    fn respond_terminal(&self, session: u64, result: JobResult) {
        // Write-ahead: the terminal record hits the journal before the
        // response line leaves the server, so a crash between the two
        // replays the job (at-least-once) instead of losing it; the
        // client-visible invariant stays exactly one terminal line.
        self.journal_append(&JournalEvent::Terminal {
            tenant: result.tenant.clone(),
            id: result.id.clone(),
            status: result.status,
        });
        let inject = isolate("server.respond", || faultpoint::fire("server.respond"));
        match inject {
            Ok(false) => self.send_terminal(session, result),
            Ok(true) | Err(_) => {
                self.stats
                    .degraded_responses
                    .fetch_add(1, Ordering::Relaxed);
                htforge_obs::counter("server.responses_degraded").incr();
                let mut degraded = result;
                degraded.result = None;
                degraded.report = None;
                degraded.error = Some(match degraded.error {
                    Some(e) => format!("{e}; response degraded: injected respond fault"),
                    None => "response degraded: injected respond fault".to_owned(),
                });
                self.send_terminal(session, degraded);
            }
        }
    }

    /// Delivers one terminal result to its session. When the session
    /// is gone (client disconnected mid-job), the result is parked for
    /// retrieval via the `pickup` op and a copy still goes to the
    /// session-0 drain so the line stays observable.
    fn send_terminal(&self, session: u64, result: JobResult) {
        let mut result = Some(result);
        {
            let sessions = self.sessions.lock().unwrap();
            if let Some(tx) = sessions.get(&session) {
                match tx.send(Response::Result(Box::new(result.take().unwrap()))) {
                    Ok(()) => return,
                    Err(e) => {
                        if let Response::Result(r) = e.0 {
                            result = Some(*r);
                        }
                    }
                }
            }
        }
        let Some(result) = result else { return };
        if session == 0 {
            // The primary channel itself is gone: nothing to reconnect.
            htforge_obs::counter("server.responses_orphaned").incr();
            return;
        }
        {
            let mut parked = self.parked.lock().unwrap();
            if parked.len() >= PARKED_TERMINALS_CAP {
                parked.pop_front();
                htforge_obs::counter("server.terminals_park_evicted").incr();
            }
            parked.push_back(result.clone());
        }
        htforge_obs::counter("server.terminals_parked").incr();
        let sessions = self.sessions.lock().unwrap();
        if let Some(tx) = sessions.get(&0) {
            let _ = tx.send(Response::Result(Box::new(result)));
        }
    }

    /// The `pickup` op: hands a parked terminal of `(tenant, id)` to
    /// the requesting (reconnected) session, or a structured error if
    /// nothing is parked under that key.
    fn pickup(&self, session: u64, tenant: &str, id: &str) {
        let found = {
            let mut parked = self.parked.lock().unwrap();
            parked
                .iter()
                .position(|r| r.tenant == tenant && r.id == id)
                .and_then(|i| parked.remove(i))
        };
        match found {
            Some(result) => {
                htforge_obs::counter("server.terminals_picked_up").incr();
                self.send_to(session, Response::Result(Box::new(result)));
            }
            None => self.send_to(
                session,
                Response::Error {
                    stage: "pickup".to_owned(),
                    id: Some(id.to_owned()),
                    error: format!("no parked terminal for job `{id}` of tenant `{tenant}`"),
                },
            ),
        }
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        loop {
            let popped = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if let Some(q) = inner.queue.pop() {
                        let key = q.spec.key();
                        match inner.jobs.get_mut(&key) {
                            Some(entry) if entry.phase == Phase::Queued => {
                                entry.phase = Phase::Running;
                                let token = entry.token.clone();
                                inner.in_flight += 1;
                                inner.worker_states[index] = WorkerState::Busy {
                                    tenant: q.spec.tenant.clone(),
                                    id: q.spec.id.clone(),
                                    kind: q.spec.kind,
                                };
                                self.mirror_gauges(&inner);
                                self.journal_append(&JournalEvent::Start {
                                    tenant: q.spec.tenant.clone(),
                                    id: q.spec.id.clone(),
                                });
                                break Some((q, token));
                            }
                            _ => {
                                // Tombstoned (terminal response already
                                // sent) or untracked: drop it.
                                inner.jobs.remove(&key);
                                self.mirror_gauges(&inner);
                                continue;
                            }
                        }
                    }
                    if inner.shutdown.is_some() {
                        break None;
                    }
                    inner = self.cv.wait(inner).unwrap();
                }
            };
            let Some((q, token)) = popped else { return };
            self.run_job(q, token, index);
        }
    }

    /// The progress emitter for one popped job: live when the config
    /// streams progress, inert otherwise. Phase ETAs use the same
    /// staged-budget split as the framework.
    fn emitter_for(&self, q: &QueuedJob) -> ProgressEmitter {
        if !self.progress_enabled {
            return ProgressEmitter::disabled();
        }
        let weights = match q.spec.kind {
            JobKind::Insert | JobKind::Detect => STAGED_PHASES
                .iter()
                .map(|p| (*p).to_owned())
                .zip(DEFAULT_STAGE_WEIGHTS)
                .collect(),
            JobKind::Simulate | JobKind::Grade => Vec::new(),
        };
        let Some(tx) = self.session_sender(q.session) else {
            return ProgressEmitter::disabled();
        };
        ProgressEmitter::new(
            tx,
            q.spec.tenant.clone(),
            q.spec.id.clone(),
            q.spec.kind,
            q.trace.hex(),
            weights,
        )
    }

    fn run_job(&self, q: QueuedJob, token: CancelToken, index: usize) {
        let started = Instant::now();
        let budget = RunBudget::new(q.deadline, token);
        let spec = &q.spec;
        let trace = q.trace.hex();
        let progress = Arc::new(self.emitter_for(&q));
        // Everything this worker records — framework spans included —
        // correlates to the job's root trace; the span hook turns the
        // pipeline phase spans into streamed progress frames even when
        // the recorder itself is disabled.
        let _trace_guard = htforge_obs::global().adopt_trace(q.trace);
        let _hook_guard = progress
            .is_enabled()
            .then(|| install_span_hook(progress.span_hook()));
        // `isolate` turns a panicking job — including an armed
        // `server.dispatch:panic` — into a `failed` response; the
        // worker and its siblings keep serving.
        let outcome = isolate("server.dispatch", || {
            if faultpoint::fire("server.dispatch") {
                return ExecOutcome::dispatch_failure("injected dispatch fault".to_owned());
            }
            match self.cache.get_or_compile(&spec.circuit) {
                Ok((circuit, hit)) => {
                    htforge_obs::counter(if hit {
                        "server.cache_hits"
                    } else {
                        "server.cache_misses"
                    })
                    .incr();
                    execute(spec, &circuit, &self.cache, &budget, &progress)
                }
                Err(e) => ExecOutcome::dispatch_failure(format!("compile: {e}")),
            }
        })
        .unwrap_or_else(ExecOutcome::dispatch_failure);

        let latency_ms = q.submitted.elapsed().as_secs_f64() * 1e3;
        // Per-class latency distributions: the `metrics` op reports
        // percentiles per job kind from these.
        htforge_obs::histogram(&format!("server.latency_ms.{}", spec.kind.as_str()))
            .record(latency_ms.max(0.0) as u64);
        let timeline = (!outcome.phases.is_empty())
            .then(|| JobTimeline::from_durations(&trace, &outcome.phases).to_json());
        let report = job_report(spec, &outcome, started.elapsed(), latency_ms, &trace);
        self.stats.count_terminal(outcome.status);
        self.respond_terminal(
            q.session,
            JobResult {
                tenant: spec.tenant.clone(),
                id: spec.id.clone(),
                kind: spec.kind,
                status: outcome.status,
                latency_ms,
                result: outcome.result,
                error: outcome.error,
                report: Some(report.to_json()),
                trace,
                timeline,
            },
        );

        let mut inner = self.inner.lock().unwrap();
        inner.jobs.remove(&q.spec.key());
        inner.in_flight -= 1;
        inner.worker_states[index] = WorkerState::Idle;
        Self::tenant_release(&mut inner, &q.spec.tenant);
        self.mirror_gauges(&inner);
    }
}

fn normalize(tenant: String, default_tenant: &str) -> String {
    if tenant.is_empty() {
        default_tenant.to_owned()
    } else {
        tenant
    }
}

/// Builds the per-job `htforge.run_report/v1` artifact. Reports are
/// assembled from the job's own outcome (not the global recorder, whose
/// spans would interleave concurrent jobs); the observed phases become
/// child spans of the root `server.job` span, so a campaign is
/// reconstructable per-phase from the JSONL stream alone.
fn job_report(
    spec: &JobSpec,
    outcome: &ExecOutcome,
    ran_for: Duration,
    latency_ms: f64,
    trace: &str,
) -> RunReport {
    let mut counters = outcome.counters.clone();
    counters.sort();
    let mut spans = vec![SpanEntry {
        id: 0,
        parent: None,
        name: "server.job".to_owned(),
        start_us: 0.0,
        dur_us: ran_for.as_secs_f64() * 1e6,
        attrs: vec![("kind".to_owned(), spec.kind.as_str().to_owned())],
    }];
    let mut start_us = 0.0;
    for (i, (phase, dur_ms)) in outcome.phases.iter().enumerate() {
        let dur_us = dur_ms * 1e3;
        spans.push(SpanEntry {
            id: i as u64 + 1,
            parent: Some(0),
            name: phase.clone(),
            start_us,
            dur_us,
            attrs: Vec::new(),
        });
        start_us += dur_us;
    }
    RunReport {
        name: format!("server_{}_{}", spec.kind.as_str(), spec.circuit.label()),
        meta: vec![
            ("tenant".to_owned(), Json::Str(spec.tenant.clone())),
            ("job_id".to_owned(), Json::Str(spec.id.clone())),
            ("kind".to_owned(), Json::Str(spec.kind.as_str().to_owned())),
            ("circuit".to_owned(), Json::Str(spec.circuit.label())),
            (
                "status".to_owned(),
                Json::Str(outcome.status.as_str().to_owned()),
            ),
            ("latency_ms".to_owned(), Json::Num(latency_ms)),
            ("trace".to_owned(), Json::Str(trace.to_owned())),
        ],
        spans,
        counters,
        gauges: Vec::new(),
        histograms: Vec::new(),
        degradations: outcome.degradations.clone(),
    }
}

/// What [`Server::handle_line`] tells the session loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep reading requests.
    Continue,
    /// A shutdown request was handled; stop reading and join.
    Shutdown,
}

/// A running campaign server: worker pool + response stream(s).
pub struct Server {
    core: Arc<Core>,
    config: ServerConfig,
    workers: Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Starts the worker pool. All responses — acks, errors, terminal
    /// results, status, the final shutdown line — arrive on the
    /// returned channel (session 0) in emission order. Additional
    /// concurrent sessions attach via [`Server::open_session`].
    #[must_use]
    pub fn start(config: ServerConfig) -> (Server, Receiver<Response>) {
        Self::start_with_cache(config, Arc::new(ProgramCache::new()))
    }

    /// Opens (and replays) the configured journal through the
    /// `server.journal_replay` faultpoint. A replay failure — injected
    /// panic or a segment nothing can decode — falls back to a fresh
    /// segment (availability over a poisoned journal), counted and
    /// flagged in the returned [`RecoveryInfo`].
    fn open_journal(config: &ServerConfig) -> (Option<Mutex<Journal>>, RecoveryInfo, Vec<JobSpec>) {
        let Some(jc) = &config.journal else {
            return (None, RecoveryInfo::default(), Vec::new());
        };
        let mut info = RecoveryInfo {
            enabled: true,
            ..RecoveryInfo::default()
        };
        let replayed = isolate("server.journal_replay", || {
            if faultpoint::fire("server.journal_replay") {
                return Err(std::io::Error::other("injected journal replay fault"));
            }
            Journal::open(jc.clone())
        });
        match replayed {
            Ok(Ok((journal, recovery))) => {
                info.replayed_records = recovery.replayed_records;
                info.terminal_records = recovery.terminal_records;
                info.recovered_jobs = recovery.pending.len() as u64;
                info.truncated_bytes = recovery.truncated_bytes;
                info.recovery_ms = recovery.recovery_ms;
                htforge_obs::counter("server.journal_replayed_records")
                    .add(recovery.replayed_records);
                htforge_obs::counter("server.journal_recovered_jobs")
                    .add(recovery.pending.len() as u64);
                if recovery.truncated_bytes > 0 {
                    htforge_obs::counter("server.journal_truncated_bytes")
                        .add(recovery.truncated_bytes);
                }
                htforge_obs::gauge("server.journal_recovery_ms").set(recovery.recovery_ms);
                (Some(Mutex::new(journal)), info, recovery.pending)
            }
            Ok(Err(_)) | Err(_) => {
                htforge_obs::counter("server.journal_replay_errors").incr();
                info.replay_failed = true;
                let journal = Journal::open_fresh(jc.clone()).ok().map(Mutex::new);
                (journal, info, Vec::new())
            }
        }
    }

    /// Starts with a shared compiled-circuit cache (socket mode shares
    /// one cache across concurrent sessions). When the config names a
    /// journal, the segment is replayed first and every
    /// accepted-but-not-terminal job is re-enqueued (routed to session
    /// 0) before the workers start.
    #[must_use]
    pub fn start_with_cache(
        config: ServerConfig,
        cache: Arc<ProgramCache>,
    ) -> (Server, Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        let worker_count = config.resolved_workers();
        let (journal, recovery, pending) = Self::open_journal(&config);
        let core = Arc::new(Core {
            inner: Mutex::new(Inner {
                queue: BinaryHeap::new(),
                jobs: HashMap::new(),
                shutdown: None,
                seq: 0,
                in_flight: 0,
                worker_states: vec![WorkerState::Idle; worker_count],
                tenants: HashMap::new(),
            }),
            cv: Condvar::new(),
            cache,
            stats: Stats::default(),
            sessions: Mutex::new(HashMap::from([(0, tx)])),
            next_session: AtomicU64::new(1),
            progress_enabled: config.progress,
            admission: config.admission.clone(),
            journal,
            recovery,
            parked: Mutex::new(VecDeque::new()),
        });
        // Re-enqueue recovered jobs before any worker runs: redelivery
        // is at-least-once, and the jobs map dedupes by (tenant, id)
        // so each gets exactly one terminal response. No ack — the
        // original submit was acked in a previous life.
        if !pending.is_empty() {
            let mut inner = core.inner.lock().unwrap();
            for spec in pending {
                if !inner.jobs.contains_key(&spec.key()) {
                    core.enqueue(&mut inner, 0, spec, false);
                }
            }
            core.mirror_gauges(&inner);
        }
        let workers = (0..worker_count)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("htforge-server-{i}"))
                    .spawn(move || core.worker_loop(i))
                    .expect("spawn worker")
            })
            .collect();
        (
            Server {
                core,
                config,
                workers: Mutex::new(Some(workers)),
            },
            rx,
        )
    }

    /// Opens a new response session (one per socket connection). The
    /// returned receiver carries every response to requests handled
    /// via [`Server::handle_line_for`] with this id, plus progress and
    /// terminal lines of jobs it submitted.
    #[must_use]
    pub fn open_session(&self) -> (u64, Receiver<Response>) {
        let id = self.core.next_session.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.core.sessions.lock().unwrap().insert(id, tx);
        (id, rx)
    }

    /// Closes a session. In-flight responses it would have received
    /// fall back to session 0; terminal results are additionally
    /// parked for retrieval via the `pickup` op (reconnect flow).
    pub fn close_session(&self, id: u64) {
        if id != 0 {
            self.core.sessions.lock().unwrap().remove(&id);
        }
    }

    /// Handles one parsed request on behalf of session 0.
    pub fn handle(&self, req: Request) {
        self.handle_for(0, req);
    }

    /// Handles one parsed request on behalf of `session`.
    pub fn handle_for(&self, session: u64, req: Request) {
        self.core.handle(session, req, &self.config.default_tenant);
    }

    /// Parses and handles one JSONL line for session 0; malformed
    /// input becomes a structured error response, never a panic.
    pub fn handle_line(&self, line: &str) -> SessionControl {
        self.handle_line_for(0, line)
    }

    /// Parses and handles one JSONL line for `session`.
    pub fn handle_line_for(&self, session: u64, line: &str) -> SessionControl {
        match parse_request(line) {
            Ok(req) => {
                let control = if matches!(req, Request::Shutdown { .. }) {
                    SessionControl::Shutdown
                } else {
                    SessionControl::Continue
                };
                self.handle_for(session, req);
                control
            }
            Err(e) => {
                self.core.send_to(session, Response::from_request_error(&e));
                SessionControl::Continue
            }
        }
    }

    /// Requests shutdown without an ack line (the session's EOF path).
    /// Idempotent after an explicit shutdown request.
    pub fn request_shutdown(&self, drop_queued: bool) {
        self.core.shutdown(0, drop_queued, false);
    }

    /// Whether shutdown was requested (the socket accept loop polls
    /// this to stop taking new connections).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.core.inner.lock().unwrap().shutdown.is_some()
    }

    /// Local lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.core.stats.snapshot()
    }

    /// What journal replay found at startup.
    #[must_use]
    pub fn recovery(&self) -> RecoveryInfo {
        self.core.recovery
    }

    /// The compiled-circuit cache.
    #[must_use]
    pub fn cache(&self) -> &ProgramCache {
        &self.core.cache
    }

    /// Waits for the queue to drain and the workers to exit, flushes
    /// the journal, and emits the final [`Response::Shutdown`] line to
    /// every open session. Idempotent; usable through a shared
    /// reference (the socket path drains before the last `Arc` drops).
    ///
    /// Call [`Server::request_shutdown`] (or handle a shutdown
    /// request) first; draining a server that was never asked to stop
    /// blocks forever by design.
    pub fn drain(&self) -> StatsSnapshot {
        let workers = self.workers.lock().unwrap().take();
        if let Some(workers) = workers {
            for w in workers {
                let _ = w.join();
            }
            self.core.journal_sync();
            let stats = self.core.stats.snapshot();
            let drop_queued = self.core.inner.lock().unwrap().shutdown.unwrap_or(false);
            self.core.broadcast(&Response::Shutdown {
                mode: if drop_queued { "drop" } else { "drain" }.to_owned(),
                jobs_completed: stats.finished(),
            });
        }
        self.core.stats.snapshot()
    }

    /// [`Server::drain`], then closes every response channel (the
    /// receivers see the stream end after the shutdown line).
    pub fn join(self) -> StatsSnapshot {
        self.drain()
        // `self.core` drops here; the session senders go with it and
        // each receiver sees its channel close after the shutdown line.
    }
}
