//! The versioned JSONL request/response protocol (`DESIGN.md` §10).
//!
//! One request per line, one response per line. Requests carry the
//! schema tag [`REQUEST_SCHEMA`]; every response carries
//! [`RESPONSE_SCHEMA`]. Malformed input — byte soup, truncated JSON,
//! wrong schema, missing fields — must yield a structured
//! [`Response::Error`], never a panic: the parser here returns
//! [`RequestError`] for every failure mode and the fuzz suite
//! (`tests/server_protocol.rs`) pins that contract.
//!
//! [`Request::to_json`] followed by [`parse_request`] round-trips
//! losslessly (field order in the incoming object does not matter), so
//! clients may be regenerated from captured traffic.

use htforge_obs::{parse_json, Json};

/// Schema tag required on every request line.
pub const REQUEST_SCHEMA: &str = "htforge.job_request/v1";
/// Schema tag stamped on every response line.
pub const RESPONSE_SCHEMA: &str = "htforge.job_response/v1";

/// The four job classes the daemon executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Chunked bit-parallel simulation; returns an output digest.
    Simulate,
    /// Full compatibility-graph trojan insertion pipeline.
    Insert,
    /// Test generation + stuck-at fault grading on the golden design.
    Grade,
    /// Insertion followed by TC/DC evaluation of a detection scheme.
    Detect,
}

impl JobKind {
    /// Wire name of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Insert => "insert",
            JobKind::Grade => "grade",
            JobKind::Detect => "detect",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn parse(s: &str) -> Option<JobKind> {
        match s {
            "simulate" => Some(JobKind::Simulate),
            "insert" => Some(JobKind::Insert),
            "grade" => Some(JobKind::Grade),
            "detect" => Some(JobKind::Detect),
            _ => None,
        }
    }
}

/// Where the job's circuit comes from. The variant (plus payload) is
/// the cache key: two jobs naming the same builtin, or carrying
/// inline netlists that are identical after comment/whitespace
/// canonicalization, share one compiled `SimProgram`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A built-in benchmark circuit (`c17`, `c2670`, …).
    Builtin(String),
    /// An inline `.bench` netlist carried in the request.
    Inline(String),
}

impl CircuitSource {
    /// Short human-readable label (builtin name or `inline:<hash>`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CircuitSource::Builtin(name) => name.clone(),
            CircuitSource::Inline(_) => format!("inline:{:016x}", self.content_hash()),
        }
    }

    /// Content hash keying the compiled-program cache. Builtins hash
    /// their name; inline netlists hash a canonicalized statement
    /// stream (comments stripped, lines trimmed, blanks skipped —
    /// mirroring the `.bench` lexer) so a reformatted copy of the same
    /// circuit lands on the same cache entry. The variant tag keeps
    /// `Builtin(x)` and `Inline(x)` distinct.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        match self {
            CircuitSource::Builtin(name) => fnv1a(fnv1a(FNV_OFFSET, b"builtin:"), name.as_bytes()),
            CircuitSource::Inline(text) => {
                let mut h = fnv1a(FNV_OFFSET, b"inline:");
                for raw in text.lines() {
                    let line = match raw.find('#') {
                        Some(pos) => &raw[..pos],
                        None => raw,
                    };
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    h = fnv1a(h, line.as_bytes());
                    h = fnv1a(h, b"\n");
                }
                h
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, folded into `h` (used for cache keys and
/// result digests — stable across platforms and runs).
#[must_use]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one word into an FNV-1a digest (for packed simulation output).
#[must_use]
pub fn fnv1a_word(h: u64, w: u64) -> u64 {
    fnv1a(h, &w.to_le_bytes())
}

/// Tunable job parameters; every field has a default so `params` may be
/// omitted entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    /// Simulation / profiling vectors (default 1024, clamped to 2²⁴).
    pub vectors: usize,
    /// RNG seed for patterns, schemes and the insertion pipeline.
    pub seed: u64,
    /// `simulate` only: repeat the chunk sweep this many times
    /// (load-generation and long-running-job knob; default 1).
    pub repeat: usize,
    /// Rare-node threshold θ (default 0.2).
    pub theta: f64,
    /// Trigger width q for insert/detect (default 2).
    pub trigger_nodes: usize,
    /// Trojan instances for insert/detect (default 1).
    pub instances: usize,
    /// Detection scheme for grade/detect: `random`, `mero`, `ndatpg`.
    pub scheme: String,
    /// Scheme budget: vector count for `random`, N-detect parameter for
    /// `mero`/`ndatpg` (default 256).
    pub tests: usize,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            vectors: 1024,
            seed: 1,
            repeat: 1,
            theta: 0.2,
            trigger_nodes: 2,
            instances: 1,
            scheme: "random".to_owned(),
            tests: 256,
        }
    }
}

/// One submitted job: identity, circuit, class, parameters, and the
/// admission-control fields (priority, deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant the job belongs to (sessions default this; `default` if
    /// never set). Job ids are scoped per tenant.
    pub tenant: String,
    /// Client-chosen job id, unique among the tenant's active jobs.
    pub id: String,
    /// Job class.
    pub kind: JobKind,
    /// Circuit to operate on.
    pub circuit: CircuitSource,
    /// Scheduling priority; higher runs first (default 0).
    pub priority: i64,
    /// Per-job wall-clock budget in milliseconds; expiry degrades or
    /// times the job out (`status: "timeout"`), it never hangs.
    pub deadline_ms: Option<u64>,
    /// Job parameters.
    pub params: JobParams,
}

impl JobSpec {
    /// The job's `(tenant, id)` key.
    #[must_use]
    pub fn key(&self) -> (String, String) {
        (self.tenant.clone(), self.id.clone())
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit(Box<JobSpec>),
    /// Cancel a queued or running job.
    Cancel {
        /// Tenant scope (empty = session default).
        tenant: String,
        /// Job id to cancel.
        id: String,
    },
    /// Retrieve the parked terminal of a job whose submitting session
    /// disconnected before the result arrived (reconnect flow).
    Pickup {
        /// Tenant scope (empty = session default).
        tenant: String,
        /// Job id whose terminal to retrieve.
        id: String,
    },
    /// Report queue depth, in-flight count and cache statistics.
    Status,
    /// Full metrics introspection: a `htforge.metrics_snapshot/v1`
    /// snapshot of every counter/gauge/histogram plus the journal's
    /// recovery and append statistics.
    Metrics,
    /// Stop the daemon: `drain` finishes all accepted jobs first,
    /// `drop` cancels queued jobs and finishes only the running ones.
    Shutdown {
        /// Cancel queued jobs instead of draining them.
        drop_queued: bool,
    },
}

/// Where request parsing failed, for structured error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// `parse` (not JSON), `schema` (wrong/missing schema tag) or
    /// `request` (bad op / missing or ill-typed fields).
    pub stage: &'static str,
    /// The job id, when it was recoverable from the line.
    pub id: Option<String>,
    /// Human-readable description.
    pub error: String,
}

impl RequestError {
    fn new(stage: &'static str, id: Option<String>, error: impl Into<String>) -> Self {
        RequestError {
            stage,
            id,
            error: error.into(),
        }
    }
}

fn str_field(obj: &Json, key: &str) -> Option<String> {
    obj.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn u64_field(obj: &Json, key: &str, id: &Option<String>) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            RequestError::new(
                "request",
                id.clone(),
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

/// Parses one JSONL request line.
///
/// # Errors
///
/// Returns a [`RequestError`] naming the failing stage; this function
/// never panics on any input (fuzz-pinned).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = parse_json(line).map_err(|e| RequestError::new("parse", None, e.to_string()))?;
    if doc.as_obj().is_none() {
        return Err(RequestError::new(
            "schema",
            None,
            "request must be a JSON object",
        ));
    }
    let id = str_field(&doc, "id");
    match doc.get("schema").and_then(Json::as_str) {
        None => {
            return Err(RequestError::new(
                "schema",
                id,
                format!("missing `schema` (expected `{REQUEST_SCHEMA}`)"),
            ))
        }
        Some(s) if s != REQUEST_SCHEMA => {
            return Err(RequestError::new(
                "schema",
                id,
                format!("schema is `{s}`, expected `{REQUEST_SCHEMA}`"),
            ))
        }
        Some(_) => {}
    }
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::new("request", id.clone(), "missing string `op`"))?;
    match op {
        "submit" => parse_submit(&doc, id).map(|s| Request::Submit(Box::new(s))),
        "cancel" => {
            let id = id
                .ok_or_else(|| RequestError::new("request", None, "cancel requires string `id`"))?;
            Ok(Request::Cancel {
                tenant: str_field(&doc, "tenant").unwrap_or_default(),
                id,
            })
        }
        "pickup" => {
            let id = id
                .ok_or_else(|| RequestError::new("request", None, "pickup requires string `id`"))?;
            Ok(Request::Pickup {
                tenant: str_field(&doc, "tenant").unwrap_or_default(),
                id,
            })
        }
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => {
            let drop_queued = match doc.get("mode").and_then(Json::as_str) {
                None | Some("drain") => false,
                Some("drop") => true,
                Some(other) => {
                    return Err(RequestError::new(
                        "request",
                        id,
                        format!("shutdown mode `{other}` (expected drain or drop)"),
                    ))
                }
            };
            Ok(Request::Shutdown { drop_queued })
        }
        other => Err(RequestError::new(
            "request",
            id,
            format!("unknown op `{other}` (submit, cancel, pickup, status, metrics, shutdown)"),
        )),
    }
}

fn parse_submit(doc: &Json, id: Option<String>) -> Result<JobSpec, RequestError> {
    let id = id.ok_or_else(|| RequestError::new("request", None, "submit requires string `id`"))?;
    let some_id = Some(id.clone());
    let kind_str = doc.get("kind").and_then(Json::as_str).ok_or_else(|| {
        RequestError::new("request", some_id.clone(), "submit requires string `kind`")
    })?;
    let kind = JobKind::parse(kind_str).ok_or_else(|| {
        RequestError::new(
            "request",
            some_id.clone(),
            format!("unknown kind `{kind_str}` (simulate, insert, grade, detect)"),
        )
    })?;
    let circuit = match (str_field(doc, "circuit"), str_field(doc, "netlist")) {
        (Some(name), None) => CircuitSource::Builtin(name),
        (None, Some(text)) => CircuitSource::Inline(text),
        (Some(_), Some(_)) => {
            return Err(RequestError::new(
                "request",
                some_id,
                "give `circuit` or `netlist`, not both",
            ))
        }
        (None, None) => {
            return Err(RequestError::new(
                "request",
                some_id,
                "submit requires `circuit` (builtin name) or `netlist` (inline .bench)",
            ))
        }
    };
    let priority = match doc.get("priority") {
        None | Some(Json::Null) => 0,
        Some(v) => match v.as_f64() {
            Some(n) if n.fract() == 0.0 && n.abs() < 9e15 => n as i64,
            _ => {
                return Err(RequestError::new(
                    "request",
                    some_id,
                    "`priority` must be an integer",
                ))
            }
        },
    };
    let deadline_ms = u64_field(doc, "deadline_ms", &some_id)?;
    let params = parse_params(doc.get("params"), &some_id)?;
    Ok(JobSpec {
        tenant: str_field(doc, "tenant").unwrap_or_default(),
        id,
        kind,
        circuit,
        priority,
        deadline_ms,
        params,
    })
}

fn parse_params(doc: Option<&Json>, id: &Option<String>) -> Result<JobParams, RequestError> {
    let mut params = JobParams::default();
    let Some(doc) = doc else { return Ok(params) };
    if matches!(doc, Json::Null) {
        return Ok(params);
    }
    if doc.as_obj().is_none() {
        return Err(RequestError::new(
            "request",
            id.clone(),
            "`params` must be an object",
        ));
    }
    if let Some(v) = u64_field(doc, "vectors", id)? {
        // Clamp: admission control against absurd single-job memory.
        params.vectors = (v.min(1 << 24) as usize).max(1);
    }
    if let Some(v) = u64_field(doc, "seed", id)? {
        params.seed = v;
    }
    if let Some(v) = u64_field(doc, "repeat", id)? {
        params.repeat = (v.min(1 << 20) as usize).max(1);
    }
    if let Some(v) = doc.get("theta") {
        params.theta = v
            .as_f64()
            .filter(|t| (0.0..=0.5).contains(t))
            .ok_or_else(|| {
                RequestError::new(
                    "request",
                    id.clone(),
                    "`theta` must be a number in [0, 0.5]",
                )
            })?;
    }
    if let Some(v) = u64_field(doc, "trigger_nodes", id)? {
        params.trigger_nodes = (v.min(64) as usize).max(1);
    }
    if let Some(v) = u64_field(doc, "instances", id)? {
        params.instances = (v.min(256) as usize).max(1);
    }
    if let Some(s) = doc.get("scheme") {
        let s = s
            .as_str()
            .ok_or_else(|| RequestError::new("request", id.clone(), "`scheme` must be a string"))?;
        if !matches!(s, "random" | "mero" | "ndatpg") {
            return Err(RequestError::new(
                "request",
                id.clone(),
                format!("unknown scheme `{s}` (random, mero, ndatpg)"),
            ));
        }
        params.scheme = s.to_owned();
    }
    if let Some(v) = u64_field(doc, "tests", id)? {
        params.tests = (v.min(1 << 20) as usize).max(1);
    }
    Ok(params)
}

impl Request {
    /// Serializes the request in canonical field order; the wire form
    /// round-trips through [`parse_request`] losslessly.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema", Json::Str(REQUEST_SCHEMA.to_owned()))];
        match self {
            Request::Submit(spec) => {
                fields.push(("op", Json::Str("submit".into())));
                if !spec.tenant.is_empty() {
                    fields.push(("tenant", Json::Str(spec.tenant.clone())));
                }
                fields.push(("id", Json::Str(spec.id.clone())));
                fields.push(("kind", Json::Str(spec.kind.as_str().into())));
                match &spec.circuit {
                    CircuitSource::Builtin(name) => {
                        fields.push(("circuit", Json::Str(name.clone())));
                    }
                    CircuitSource::Inline(text) => {
                        fields.push(("netlist", Json::Str(text.clone())));
                    }
                }
                fields.push(("priority", Json::Num(spec.priority as f64)));
                if let Some(ms) = spec.deadline_ms {
                    fields.push(("deadline_ms", Json::Num(ms as f64)));
                }
                let p = &spec.params;
                fields.push((
                    "params",
                    Json::obj(vec![
                        ("vectors", Json::Num(p.vectors as f64)),
                        ("seed", Json::Num(p.seed as f64)),
                        ("repeat", Json::Num(p.repeat as f64)),
                        ("theta", Json::Num(p.theta)),
                        ("trigger_nodes", Json::Num(p.trigger_nodes as f64)),
                        ("instances", Json::Num(p.instances as f64)),
                        ("scheme", Json::Str(p.scheme.clone())),
                        ("tests", Json::Num(p.tests as f64)),
                    ]),
                ));
            }
            Request::Cancel { tenant, id } => {
                fields.push(("op", Json::Str("cancel".into())));
                if !tenant.is_empty() {
                    fields.push(("tenant", Json::Str(tenant.clone())));
                }
                fields.push(("id", Json::Str(id.clone())));
            }
            Request::Pickup { tenant, id } => {
                fields.push(("op", Json::Str("pickup".into())));
                if !tenant.is_empty() {
                    fields.push(("tenant", Json::Str(tenant.clone())));
                }
                fields.push(("id", Json::Str(id.clone())));
            }
            Request::Status => fields.push(("op", Json::Str("status".into()))),
            Request::Metrics => fields.push(("op", Json::Str("metrics".into()))),
            Request::Shutdown { drop_queued } => {
                fields.push(("op", Json::Str("shutdown".into())));
                fields.push((
                    "mode",
                    Json::Str(if *drop_queued { "drop" } else { "drain" }.into()),
                ));
            }
        }
        Json::obj(fields)
    }
}

/// Terminal verdict of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed; `result` holds the payload.
    Done,
    /// Panicked or errored; `error` explains.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
    /// The per-job deadline expired before a usable result.
    Timeout,
}

impl JobStatus {
    /// Wire name of the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Timeout => "timeout",
        }
    }

    /// Parses a wire name (journal replay decodes terminal records).
    #[must_use]
    pub fn parse(s: &str) -> Option<JobStatus> {
        match s {
            "done" => Some(JobStatus::Done),
            "failed" => Some(JobStatus::Failed),
            "cancelled" => Some(JobStatus::Cancelled),
            "timeout" => Some(JobStatus::Timeout),
            _ => None,
        }
    }
}

/// The terminal response for one job (exactly one per accepted job).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Tenant of the job.
    pub tenant: String,
    /// Job id.
    pub id: String,
    /// Job class.
    pub kind: JobKind,
    /// Terminal verdict.
    pub status: JobStatus,
    /// Submit-to-completion latency in milliseconds.
    pub latency_ms: f64,
    /// Kind-specific result payload (`status == done`).
    pub result: Option<Json>,
    /// Failure/cancellation detail.
    pub error: Option<String>,
    /// The per-job `htforge.run_report/v1` artifact.
    pub report: Option<Json>,
    /// 16-hex trace id correlating this terminal line with its
    /// streamed progress frames and report spans (empty = untraced,
    /// e.g. a job cancelled before it reached a worker).
    pub trace: String,
    /// The per-phase `htforge.job_timeline/v1` document (executed jobs
    /// whose phases were observed).
    pub timeline: Option<Json>,
}

/// One streamed `htforge.job_progress/v1` frame, interleaved before the
/// job's terminal response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgress {
    /// Tenant of the job.
    pub tenant: String,
    /// Job id.
    pub id: String,
    /// Job class.
    pub kind: JobKind,
    /// 16-hex trace id shared with the terminal response.
    pub trace: String,
    /// The embedded `htforge.job_progress/v1` document.
    pub frame: Json,
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Immediate acknowledgement of a request (`op` names which).
    Ack {
        /// The acknowledged op.
        op: String,
        /// Tenant scope, when relevant.
        tenant: String,
        /// Job id, when relevant.
        id: Option<String>,
        /// Op-specific detail fields appended to the line.
        detail: Vec<(String, Json)>,
    },
    /// Terminal job outcome.
    Result(Box<JobResult>),
    /// A streamed progress frame for a running job (zero or more per
    /// job, always before its terminal [`Response::Result`]).
    Progress(Box<JobProgress>),
    /// Structured request error (malformed line, bad fields, admission
    /// rejection). Carries the job id when it was recoverable.
    Error {
        /// Failing stage (`parse`, `schema`, `request`, `submit`,
        /// `respond`).
        stage: String,
        /// Job id, when known.
        id: Option<String>,
        /// Description.
        error: String,
    },
    /// Admission-control rejection: the job was **not** accepted (no
    /// terminal response will follow) and the client should back off
    /// for `retry_after_ms` before resubmitting.
    Reject {
        /// Tenant scope of the rejected submit.
        tenant: String,
        /// Job id of the rejected submit.
        id: String,
        /// Machine-readable reason: `queue_full` (bounded queue or
        /// in-flight quota exhausted), `rate_limit` (token bucket
        /// empty) or `accept_fault` (injected admission fault).
        reason: String,
        /// Human-readable description.
        error: String,
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u64,
    },
    /// Server status snapshot.
    Status(Json),
    /// Metrics introspection body (extends the line like `Status`);
    /// carries the `htforge.metrics_snapshot/v1` document under
    /// `snapshot`.
    Metrics(Json),
    /// Final line before the daemon (or session drain) exits.
    Shutdown {
        /// `drain` or `drop`.
        mode: String,
        /// Jobs completed over the daemon lifetime.
        jobs_completed: u64,
    },
}

impl Response {
    /// Builds the error response for a [`RequestError`].
    #[must_use]
    pub fn from_request_error(e: &RequestError) -> Response {
        Response::Error {
            stage: e.stage.to_owned(),
            id: e.id.clone(),
            error: e.error.clone(),
        }
    }

    /// Serializes the response line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema", Json::Str(RESPONSE_SCHEMA.to_owned()))];
        match self {
            Response::Ack {
                op,
                tenant,
                id,
                detail,
            } => {
                fields.push(("type", Json::Str("ack".into())));
                fields.push(("op", Json::Str(op.clone())));
                if !tenant.is_empty() {
                    fields.push(("tenant", Json::Str(tenant.clone())));
                }
                if let Some(id) = id {
                    fields.push(("id", Json::Str(id.clone())));
                }
                let mut json = Json::obj(fields);
                if let Json::Obj(obj) = &mut json {
                    obj.extend(detail.iter().cloned());
                }
                return json;
            }
            Response::Result(r) => {
                fields.push(("type", Json::Str("result".into())));
                fields.push(("tenant", Json::Str(r.tenant.clone())));
                fields.push(("id", Json::Str(r.id.clone())));
                fields.push(("kind", Json::Str(r.kind.as_str().into())));
                fields.push(("status", Json::Str(r.status.as_str().into())));
                fields.push(("latency_ms", Json::Num(r.latency_ms)));
                if let Some(result) = &r.result {
                    fields.push(("result", result.clone()));
                }
                if let Some(error) = &r.error {
                    fields.push(("error", Json::Str(error.clone())));
                }
                if let Some(report) = &r.report {
                    fields.push(("report", report.clone()));
                }
                if !r.trace.is_empty() {
                    fields.push(("trace", Json::Str(r.trace.clone())));
                }
                if let Some(timeline) = &r.timeline {
                    fields.push(("timeline", timeline.clone()));
                }
            }
            Response::Progress(p) => {
                fields.push(("type", Json::Str("progress".into())));
                fields.push(("tenant", Json::Str(p.tenant.clone())));
                fields.push(("id", Json::Str(p.id.clone())));
                fields.push(("kind", Json::Str(p.kind.as_str().into())));
                if !p.trace.is_empty() {
                    fields.push(("trace", Json::Str(p.trace.clone())));
                }
                fields.push(("progress", p.frame.clone()));
            }
            Response::Reject {
                tenant,
                id,
                reason,
                error,
                retry_after_ms,
            } => {
                fields.push(("type", Json::Str("reject".into())));
                fields.push(("tenant", Json::Str(tenant.clone())));
                fields.push(("id", Json::Str(id.clone())));
                fields.push(("reason", Json::Str(reason.clone())));
                fields.push(("error", Json::Str(error.clone())));
                fields.push(("retry_after_ms", Json::Num(*retry_after_ms as f64)));
            }
            Response::Error { stage, id, error } => {
                fields.push(("type", Json::Str("error".into())));
                fields.push(("stage", Json::Str(stage.clone())));
                fields.push((
                    "id",
                    id.as_ref().map_or(Json::Null, |i| Json::Str(i.clone())),
                ));
                fields.push(("error", Json::Str(error.clone())));
            }
            Response::Status(body) => {
                fields.push(("type", Json::Str("status".into())));
                let mut json = Json::obj(fields);
                if let (Json::Obj(obj), Json::Obj(extra)) = (&mut json, body) {
                    obj.extend(extra.iter().cloned());
                }
                return json;
            }
            Response::Metrics(body) => {
                fields.push(("type", Json::Str("metrics".into())));
                let mut json = Json::obj(fields);
                if let (Json::Obj(obj), Json::Obj(extra)) = (&mut json, body) {
                    obj.extend(extra.iter().cloned());
                }
                return json;
            }
            Response::Shutdown {
                mode,
                jobs_completed,
            } => {
                fields.push(("type", Json::Str("shutdown".into())));
                fields.push(("mode", Json::Str(mode.clone())));
                fields.push(("jobs_completed", Json::Num(*jobs_completed as f64)));
            }
        }
        Json::obj(fields)
    }

    /// The response as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_json().compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            id: "j-7".into(),
            kind: JobKind::Detect,
            circuit: CircuitSource::Builtin("c17".into()),
            priority: 3,
            deadline_ms: Some(1500),
            params: JobParams {
                vectors: 2048,
                seed: 9,
                scheme: "mero".into(),
                ..JobParams::default()
            },
        }
    }

    #[test]
    fn submit_round_trips() {
        let req = Request::Submit(Box::new(sample_spec()));
        let line = req.to_json().compact();
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn control_ops_round_trip() {
        for req in [
            Request::Cancel {
                tenant: String::new(),
                id: "x".into(),
            },
            Request::Pickup {
                tenant: "acme".into(),
                id: "job-1".into(),
            },
            Request::Pickup {
                tenant: String::new(),
                id: "job-2".into(),
            },
            Request::Status,
            Request::Metrics,
            Request::Shutdown { drop_queued: true },
            Request::Shutdown { drop_queued: false },
        ] {
            let line = req.to_json().compact();
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn inline_netlist_round_trips_and_hashes_by_content() {
        let spec = JobSpec {
            circuit: CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into()),
            ..sample_spec()
        };
        let req = Request::Submit(Box::new(spec.clone()));
        let parsed = parse_request(&req.to_json().compact()).unwrap();
        assert_eq!(parsed, req);
        let same = CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into());
        assert_eq!(same.content_hash(), spec.circuit.content_hash());
        assert_ne!(
            CircuitSource::Builtin("c17".into()).content_hash(),
            spec.circuit.content_hash()
        );
        // A builtin named like inline text must not collide by tag.
        assert_ne!(
            CircuitSource::Builtin("x".into()).content_hash(),
            CircuitSource::Inline("x".into()).content_hash()
        );
    }

    #[test]
    fn inline_hash_ignores_comments_and_whitespace() {
        let tight = CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into());
        let airy = CircuitSource::Inline(
            "# benchmark circuit\n\n  INPUT(a)  \n\nOUTPUT(y)   # primary output\n\ny = NOT(a)"
                .into(),
        );
        assert_eq!(tight.content_hash(), airy.content_hash());
        // Different statements still hash apart.
        let other = CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n".into());
        assert_ne!(tight.content_hash(), other.content_hash());
        // Canonicalization joins on statement boundaries, not by
        // concatenation: the line split must stay significant.
        let merged = CircuitSource::Inline("INPUT(a)\nOUTPUT(y)y = NOT(a)\n".into());
        assert_ne!(tight.content_hash(), merged.content_hash());
    }

    #[test]
    fn structured_errors_name_the_stage() {
        assert_eq!(parse_request("{nope").unwrap_err().stage, "parse");
        assert_eq!(parse_request("[1,2]").unwrap_err().stage, "schema");
        assert_eq!(
            parse_request("{\"op\":\"submit\"}").unwrap_err().stage,
            "schema"
        );
        let wrong_schema = r#"{"schema":"htforge.job_request/v0","op":"status"}"#;
        assert_eq!(parse_request(wrong_schema).unwrap_err().stage, "schema");
        let no_kind =
            format!(r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"a","circuit":"c17"}}"#);
        let err = parse_request(&no_kind).unwrap_err();
        assert_eq!(err.stage, "request");
        assert_eq!(err.id.as_deref(), Some("a"));
        let bad_theta = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"a","kind":"grade","circuit":"c17","params":{{"theta":7}}}}"#
        );
        assert!(parse_request(&bad_theta)
            .unwrap_err()
            .error
            .contains("theta"));
    }

    #[test]
    fn params_default_and_clamp() {
        let minimal = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"a","kind":"simulate","circuit":"c17"}}"#
        );
        let Request::Submit(spec) = parse_request(&minimal).unwrap() else {
            panic!("expected submit")
        };
        assert_eq!(spec.params, JobParams::default());
        assert_eq!(spec.tenant, "");
        assert_eq!(spec.priority, 0);
        let huge = format!(
            r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"a","kind":"simulate","circuit":"c17","params":{{"vectors":99999999999,"repeat":0}}}}"#
        );
        let Request::Submit(spec) = parse_request(&huge).unwrap() else {
            panic!("expected submit")
        };
        assert_eq!(spec.params.vectors, 1 << 24);
        assert_eq!(spec.params.repeat, 1);
    }

    #[test]
    fn responses_serialize_with_schema_and_type() {
        let result = Response::Result(Box::new(JobResult {
            tenant: "t".into(),
            id: "j".into(),
            kind: JobKind::Simulate,
            status: JobStatus::Done,
            latency_ms: 1.5,
            result: Some(Json::obj(vec![("digest", Json::Str("0xab".into()))])),
            error: None,
            report: None,
            trace: String::new(),
            timeline: None,
        }));
        let doc = result.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RESPONSE_SCHEMA));
        assert_eq!(doc.get("type").unwrap().as_str(), Some("result"));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        assert!(doc.get("error").is_none());
        // An untraced result omits `trace` and `timeline` entirely.
        assert!(doc.get("trace").is_none());
        assert!(doc.get("timeline").is_none());

        let err = Response::Error {
            stage: "parse".into(),
            id: None,
            error: "bad".into(),
        };
        let doc = err.to_json();
        assert_eq!(doc.get("id"), Some(&Json::Null));
        // Every response line is itself valid JSON.
        assert!(parse_json(&err.to_line()).is_ok());
    }

    #[test]
    fn reject_lines_carry_reason_and_retry_hint() {
        let resp = Response::Reject {
            tenant: "acme".into(),
            id: "j-9".into(),
            reason: "queue_full".into(),
            error: "queue depth 64 at limit".into(),
            retry_after_ms: 250,
        };
        let doc = resp.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RESPONSE_SCHEMA));
        assert_eq!(doc.get("type").unwrap().as_str(), Some("reject"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("queue_full"));
        assert_eq!(doc.get("retry_after_ms").unwrap().as_f64(), Some(250.0));
        assert!(parse_json(&resp.to_line()).is_ok());
    }

    #[test]
    fn job_status_round_trips_through_wire_names() {
        for status in [
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
            JobStatus::Timeout,
        ] {
            assert_eq!(JobStatus::parse(status.as_str()), Some(status));
        }
        assert_eq!(JobStatus::parse("exploded"), None);
    }

    #[test]
    fn progress_lines_embed_a_schema_valid_frame() {
        let frame = htforge_obs::ProgressFrame {
            phase: "clique_enumeration".into(),
            event: "enter".into(),
            percent: None,
            eta_ms: Some(420.0),
            detail: None,
        };
        let resp = Response::Progress(Box::new(JobProgress {
            tenant: "acme".into(),
            id: "j-7".into(),
            kind: JobKind::Insert,
            trace: "00000000deadbeef".into(),
            frame: frame.to_json(),
        }));
        let doc = resp.to_json();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("progress"));
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RESPONSE_SCHEMA));
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("00000000deadbeef"));
        let embedded = doc.get("progress").unwrap();
        htforge_obs::validate_job_progress(embedded).unwrap();
    }

    #[test]
    fn traced_results_carry_trace_and_timeline() {
        let timeline = htforge_obs::JobTimeline::from_durations(
            "00000000deadbeef",
            &[("rare_extraction".into(), 10.0), ("insertion".into(), 5.0)],
        );
        let resp = Response::Result(Box::new(JobResult {
            tenant: "t".into(),
            id: "j".into(),
            kind: JobKind::Insert,
            status: JobStatus::Done,
            latency_ms: 15.0,
            result: None,
            error: None,
            report: None,
            trace: "00000000deadbeef".into(),
            timeline: Some(timeline.to_json()),
        }));
        let doc = resp.to_json();
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("00000000deadbeef"));
        htforge_obs::validate_job_timeline(doc.get("timeline").unwrap()).unwrap();
    }
}
