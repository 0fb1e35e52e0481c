//! The live-telemetry JSON frames: `htforge.metrics_snapshot/v1`,
//! `htforge.job_timeline/v1` and `htforge.job_progress/v1`.
//!
//! These are the wire artifacts of the telemetry plane, validated with
//! the same rigor as `htforge.run_report/v1` (see [`crate::report`]):
//! the campaign server's `metrics` introspection job returns a metrics
//! snapshot, every terminal job response embeds a per-phase timeline,
//! and long-running jobs stream progress frames before their terminal
//! response. [`validate_any_json`] dispatches on the `schema` tag so
//! one validator (`obs_validate`) covers every document kind, including
//! the netlist-core scaling benchmark (`htforge.netlist_scaling/v1`).

use crate::json::{self, Json};
use crate::recorder::MetricsSnapshot;

/// Schema tag of a full metrics snapshot document.
pub const METRICS_SNAPSHOT_SCHEMA: &str = "htforge.metrics_snapshot/v1";
/// Schema tag of a per-job phase timeline document.
pub const JOB_TIMELINE_SCHEMA: &str = "htforge.job_timeline/v1";
/// Schema tag of a streamed job progress frame.
pub const JOB_PROGRESS_SCHEMA: &str = "htforge.job_progress/v1";
/// Schema tag of one write-ahead journal record of the campaign server.
pub const SERVER_JOURNAL_SCHEMA: &str = "htforge.server_journal/v1";
/// Schema tag of the netlist-core scaling benchmark document
/// (`BENCH_netlist.json` at the repository root).
pub const NETLIST_SCALING_SCHEMA: &str = "htforge.netlist_scaling/v1";

/// The journal event vocabulary, in per-job lifecycle order.
pub const JOURNAL_EVENTS: &[&str] = &["submit", "start", "terminal"];

/// The terminal status vocabulary a journal `terminal` record may
/// carry (mirrors the job-response wire statuses).
pub const JOURNAL_TERMINAL_STATUSES: &[&str] = &["done", "failed", "cancelled", "timeout"];

/// The progress-frame event vocabulary, in the order a phase emits
/// them.
pub const PROGRESS_EVENTS: &[&str] = &["enter", "progress", "complete", "degraded"];

/// Encodes a [`MetricsSnapshot`] as a self-describing
/// `htforge.metrics_snapshot/v1` document: every counter and gauge,
/// and per-histogram summary statistics (count/min/max/mean and
/// p50/p90/p99 percentiles — the per-class latency percentiles the
/// server's `metrics` job exposes come straight from here).
#[must_use]
pub fn metrics_snapshot_json(snap: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(METRICS_SNAPSHOT_SCHEMA.to_owned())),
        ("at_us", Json::Num(snap.at_ns as f64 / 1_000.0)),
        (
            "counters",
            Json::Obj(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snap.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                snap.histograms
                    .iter()
                    .filter(|(_, h)| h.count > 0)
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::obj(vec![
                                ("count", Json::Num(h.count as f64)),
                                ("min", Json::Num(h.min as f64)),
                                ("max", Json::Num(h.max as f64)),
                                ("mean", Json::Num(h.mean().unwrap_or(0.0))),
                                ("p50", Json::Num(h.percentile(0.5).unwrap_or(0) as f64)),
                                ("p90", Json::Num(h.percentile(0.9).unwrap_or(0) as f64)),
                                ("p99", Json::Num(h.percentile(0.99).unwrap_or(0) as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks that `doc` is a structurally valid `v1` metrics snapshot.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_metrics_snapshot(doc: &Json) -> Result<(), String> {
    expect_schema(doc, METRICS_SNAPSHOT_SCHEMA)?;
    let at = doc
        .get("at_us")
        .and_then(Json::as_f64)
        .ok_or("missing number `at_us`")?;
    if at < 0.0 {
        return Err("`at_us` is negative".into());
    }
    for (section, integral) in [("counters", true), ("gauges", false)] {
        let obj = doc
            .get(section)
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("`{section}` must be an object"))?;
        for (key, value) in obj {
            let ok = if integral {
                value.as_u64().is_some()
            } else {
                value.as_f64().is_some()
            };
            if !ok {
                return Err(format!("{section}.{key}: wrong value type"));
            }
        }
    }
    let hists = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("`histograms` must be an object")?;
    for (key, value) in hists {
        for field in ["count", "min", "max", "p50", "p90", "p99"] {
            value
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histograms.{key}: missing integer `{field}`"))?;
        }
        value
            .get("mean")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histograms.{key}: missing number `mean`"))?;
    }
    Ok(())
}

/// One phase row in a [`JobTimeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePhase {
    /// Phase name (e.g. `rare_extraction`).
    pub phase: String,
    /// Start offset in milliseconds from job dispatch.
    pub start_ms: f64,
    /// Phase duration in milliseconds.
    pub dur_ms: f64,
}

/// A per-job phase timeline: what ran when, correlated to the job's
/// trace id. Embedded in the terminal job response, so a campaign is
/// reconstructable offline from the JSONL stream alone.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimeline {
    /// The job's 16-hex-digit trace id.
    pub trace: String,
    /// Phases in execution order.
    pub phases: Vec<TimelinePhase>,
}

impl JobTimeline {
    /// Builds a timeline from consecutive `(phase, dur_ms)` pairs,
    /// deriving each start offset as the running sum of the durations
    /// before it.
    #[must_use]
    pub fn from_durations(trace: &str, phases: &[(String, f64)]) -> Self {
        let mut start_ms = 0.0;
        JobTimeline {
            trace: trace.to_owned(),
            phases: phases
                .iter()
                .map(|(phase, dur_ms)| {
                    let row = TimelinePhase {
                        phase: phase.clone(),
                        start_ms,
                        dur_ms: *dur_ms,
                    };
                    start_ms += dur_ms;
                    row
                })
                .collect(),
        }
    }

    /// The timeline as a `htforge.job_timeline/v1` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(JOB_TIMELINE_SCHEMA.to_owned())),
            ("trace", Json::Str(self.trace.clone())),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("phase", Json::Str(p.phase.clone())),
                                ("start_ms", Json::Num(p.start_ms)),
                                ("dur_ms", Json::Num(p.dur_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Checks that `doc` is a structurally valid `v1` job timeline.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_job_timeline(doc: &Json) -> Result<(), String> {
    expect_schema(doc, JOB_TIMELINE_SCHEMA)?;
    let trace = doc
        .get("trace")
        .and_then(Json::as_str)
        .ok_or("missing string `trace`")?;
    if trace.is_empty() || !trace.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("`trace` is not a hex id: `{trace}`"));
    }
    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("`phases` must be an array")?;
    for (i, phase) in phases.iter().enumerate() {
        phase
            .get("phase")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("phases[{i}]: missing string `phase`"))?;
        for key in ["start_ms", "dur_ms"] {
            let v = phase
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("phases[{i}]: missing number `{key}`"))?;
            if v < 0.0 {
                return Err(format!("phases[{i}]: `{key}` is negative"));
            }
        }
    }
    Ok(())
}

/// One streamed progress frame: a phase lifecycle event, an in-phase
/// percentage tick, or a degradation note, optionally with an ETA.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressFrame {
    /// Phase the event belongs to (e.g. `simulate`, `compat_graph`).
    pub phase: String,
    /// One of [`PROGRESS_EVENTS`].
    pub event: String,
    /// Estimated completion of the *job* in `[0, 100]`, when known.
    pub percent: Option<f64>,
    /// Estimated milliseconds until the job completes, when known
    /// (percent frames extrapolate the job's own pace).
    pub eta_ms: Option<f64>,
    /// Free-form detail (degradation notes carry `action: detail`).
    pub detail: Option<String>,
}

impl ProgressFrame {
    /// A bare phase lifecycle frame.
    #[must_use]
    pub fn event(phase: &str, event: &str) -> Self {
        ProgressFrame {
            phase: phase.to_owned(),
            event: event.to_owned(),
            percent: None,
            eta_ms: None,
            detail: None,
        }
    }

    /// The frame as a `htforge.job_progress/v1` document. Optional
    /// fields are omitted when absent.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(JOB_PROGRESS_SCHEMA.to_owned())),
            ("phase", Json::Str(self.phase.clone())),
            ("event", Json::Str(self.event.clone())),
        ];
        if let Some(percent) = self.percent {
            fields.push(("percent", Json::Num(percent)));
        }
        if let Some(eta_ms) = self.eta_ms {
            fields.push(("eta_ms", Json::Num(eta_ms)));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail", Json::Str(detail.clone())));
        }
        Json::obj(fields)
    }
}

/// Checks that `doc` is a structurally valid `v1` progress frame.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_job_progress(doc: &Json) -> Result<(), String> {
    expect_schema(doc, JOB_PROGRESS_SCHEMA)?;
    doc.get("phase")
        .and_then(Json::as_str)
        .ok_or("missing string `phase`")?;
    let event = doc
        .get("event")
        .and_then(Json::as_str)
        .ok_or("missing string `event`")?;
    if !PROGRESS_EVENTS.contains(&event) {
        return Err(format!(
            "`event` is `{event}`, expected one of {PROGRESS_EVENTS:?}"
        ));
    }
    if let Some(percent) = doc.get("percent") {
        let p = percent.as_f64().ok_or("`percent` must be a number")?;
        if !(0.0..=100.0).contains(&p) {
            return Err(format!("`percent` {p} outside [0, 100]"));
        }
    }
    if let Some(eta) = doc.get("eta_ms") {
        let e = eta.as_f64().ok_or("`eta_ms` must be a number")?;
        if e < 0.0 {
            return Err("`eta_ms` is negative".into());
        }
    }
    if let Some(detail) = doc.get("detail") {
        detail.as_str().ok_or("`detail` must be a string")?;
    }
    Ok(())
}

/// Checks that `doc` is a structurally valid `v1` server-journal
/// record: the decoded payload of one length+checksum-framed entry in
/// the campaign server's write-ahead journal.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_server_journal(doc: &Json) -> Result<(), String> {
    expect_schema(doc, SERVER_JOURNAL_SCHEMA)?;
    let seq = doc
        .get("seq")
        .and_then(Json::as_f64)
        .ok_or("missing numeric `seq`")?;
    if seq < 0.0 || seq.fract() != 0.0 {
        return Err(format!("`seq` {seq} is not a non-negative integer"));
    }
    let at = doc
        .get("at_ms")
        .and_then(Json::as_f64)
        .ok_or("missing numeric `at_ms`")?;
    if at < 0.0 {
        return Err("`at_ms` is negative".into());
    }
    let event = doc
        .get("event")
        .and_then(Json::as_str)
        .ok_or("missing string `event`")?;
    if !JOURNAL_EVENTS.contains(&event) {
        return Err(format!(
            "`event` is `{event}`, expected one of {JOURNAL_EVENTS:?}"
        ));
    }
    for key in ["tenant", "id"] {
        let v = doc
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))?;
        if v.is_empty() {
            return Err(format!("`{key}` is empty"));
        }
    }
    match event {
        "submit" => {
            let spec = doc.get("spec").ok_or("submit record missing `spec`")?;
            if spec.as_obj().is_none() {
                return Err("`spec` must be an object".into());
            }
            if spec.get("op").and_then(Json::as_str) != Some("submit") {
                return Err("`spec.op` must be `submit`".into());
            }
        }
        "terminal" => {
            let status = doc
                .get("status")
                .and_then(Json::as_str)
                .ok_or("terminal record missing string `status`")?;
            if !JOURNAL_TERMINAL_STATUSES.contains(&status) {
                return Err(format!(
                    "`status` is `{status}`, expected one of {JOURNAL_TERMINAL_STATUSES:?}"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Checks that `doc` is a structurally valid `v1` netlist-scaling
/// benchmark document: a non-empty `results` array of rows ascending in
/// `gates`, each carrying the integer size/memory columns and a
/// `seconds` object with non-negative phase timings.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_netlist_scaling(doc: &Json) -> Result<(), String> {
    expect_schema(doc, NETLIST_SCALING_SCHEMA)?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing array `results`")?;
    if results.is_empty() {
        return Err("`results` is empty".into());
    }
    let mut prev_gates = 0u64;
    for (i, row) in results.iter().enumerate() {
        let gates = row
            .get("gates")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("results[{i}]: missing integer `gates`"))?;
        if gates == 0 {
            return Err(format!("results[{i}]: `gates` is zero"));
        }
        if gates <= prev_gates {
            return Err(format!(
                "results[{i}]: `gates` must ascend strictly ({gates} after {prev_gates})"
            ));
        }
        prev_gates = gates;
        for key in [
            "nodes",
            "bench_bytes",
            "memory_bytes",
            "rss_peak_kb",
            "levels",
            "rare_nodes",
        ] {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("results[{i}]: missing integer `{key}`"))?;
        }
        let seconds = row
            .get("seconds")
            .ok_or_else(|| format!("results[{i}]: missing object `seconds`"))?;
        if seconds.as_obj().is_none() {
            return Err(format!("results[{i}]: `seconds` must be an object"));
        }
        for key in ["build", "parse", "levelize", "rare_extract"] {
            let v = seconds
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results[{i}]: missing number `seconds.{key}`"))?;
            if v < 0.0 {
                return Err(format!("results[{i}]: `seconds.{key}` is negative"));
            }
        }
    }
    Ok(())
}

/// Validates any schema-tagged htforge telemetry document, dispatching
/// on its `schema` field: run reports, metrics snapshots, job
/// timelines, progress frames, server-journal records and
/// netlist-scaling benchmark documents.
///
/// # Errors
///
/// Returns the violation, or an error naming the known schemas when
/// the tag is unrecognized.
pub fn validate_any_json(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    match schema {
        crate::report::SCHEMA => crate::report::validate_json(doc),
        METRICS_SNAPSHOT_SCHEMA => validate_metrics_snapshot(doc),
        JOB_TIMELINE_SCHEMA => validate_job_timeline(doc),
        JOB_PROGRESS_SCHEMA => validate_job_progress(doc),
        SERVER_JOURNAL_SCHEMA => validate_server_journal(doc),
        NETLIST_SCALING_SCHEMA => validate_netlist_scaling(doc),
        other => Err(format!(
            "unknown schema `{other}` (expected {}, {METRICS_SNAPSHOT_SCHEMA}, \
             {JOB_TIMELINE_SCHEMA}, {JOB_PROGRESS_SCHEMA}, {SERVER_JOURNAL_SCHEMA} \
             or {NETLIST_SCALING_SCHEMA})",
            crate::report::SCHEMA
        )),
    }
}

/// Parses and validates any schema-tagged telemetry document.
///
/// # Errors
///
/// Returns a description of the parse or schema violation.
pub fn validate_any_str(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    validate_any_json(&doc)
}

fn expect_schema(doc: &Json, want: &str) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    if schema != want {
        return Err(format!("schema is `{schema}`, expected `{want}`"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn metrics_snapshot_round_trips_and_validates() {
        let rec = Recorder::new();
        rec.counter("server.jobs_completed").add(17);
        rec.gauge("server.queue_depth").set(3.0);
        let h = rec.histogram("server.latency_ms.simulate");
        for v in [5, 9, 12, 40] {
            h.record(v);
        }
        let _ = rec.histogram("untouched"); // empty → omitted
        let doc = metrics_snapshot_json(&rec.snapshot());
        validate_metrics_snapshot(&doc).unwrap();
        validate_any_str(&doc.compact()).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("server.jobs_completed")
                .unwrap()
                .as_u64(),
            Some(17)
        );
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("server.latency_ms.simulate")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(4));
        assert!(hist.get("p99").unwrap().as_u64().is_some());
        assert!(doc.get("histograms").unwrap().get("untouched").is_none());
    }

    #[test]
    fn metrics_snapshot_validation_rejects_bad_documents() {
        let mut doc = metrics_snapshot_json(&Recorder::new().snapshot());
        validate_metrics_snapshot(&doc).unwrap();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "counters" {
                    *v = Json::obj(vec![("neg", Json::Num(-1.0))]);
                }
            }
        }
        assert!(validate_metrics_snapshot(&doc)
            .unwrap_err()
            .contains("counters.neg"));
        assert!(validate_metrics_snapshot(&Json::obj(vec![(
            "schema",
            Json::Str("htforge.run_report/v1".into())
        )]))
        .unwrap_err()
        .contains("expected"));
    }

    #[test]
    fn timeline_from_durations_accumulates_offsets() {
        let tl = JobTimeline::from_durations(
            "00000000deadbeef",
            &[
                ("preprocess".to_owned(), 2.0),
                ("rare_extraction".to_owned(), 10.0),
                ("insertion".to_owned(), 5.0),
            ],
        );
        assert_eq!(tl.phases[0].start_ms, 0.0);
        assert_eq!(tl.phases[1].start_ms, 2.0);
        assert_eq!(tl.phases[2].start_ms, 12.0);
        let doc = tl.to_json();
        validate_job_timeline(&doc).unwrap();
        validate_any_json(&doc).unwrap();
    }

    #[test]
    fn timeline_validation_rejects_bad_documents() {
        let ok = JobTimeline::from_durations("ab12", &[("p".to_owned(), 1.0)]);
        validate_job_timeline(&ok.to_json()).unwrap();
        let bad_trace = JobTimeline::from_durations("not hex!", &[]);
        assert!(validate_job_timeline(&bad_trace.to_json())
            .unwrap_err()
            .contains("hex"));
        let mut neg = ok;
        neg.phases[0].dur_ms = -1.0;
        assert!(validate_job_timeline(&neg.to_json())
            .unwrap_err()
            .contains("negative"));
    }

    #[test]
    fn progress_frames_round_trip_and_validate() {
        let bare = ProgressFrame::event("compat_graph", "enter");
        let doc = bare.to_json();
        validate_job_progress(&doc).unwrap();
        assert!(doc.get("percent").is_none(), "optional fields omitted");

        let full = ProgressFrame {
            phase: "simulate".into(),
            event: "progress".into(),
            percent: Some(42.5),
            eta_ms: Some(1500.0),
            detail: Some("chunk 17/40".into()),
        };
        let doc = full.to_json();
        validate_job_progress(&doc).unwrap();
        validate_any_str(&doc.compact()).unwrap();
        assert_eq!(doc.get("percent").unwrap().as_f64(), Some(42.5));

        let mut bad = full.clone();
        bad.event = "explode".into();
        assert!(validate_job_progress(&bad.to_json())
            .unwrap_err()
            .contains("explode"));
        let mut over = full;
        over.percent = Some(120.0);
        assert!(validate_job_progress(&over.to_json())
            .unwrap_err()
            .contains("outside"));
    }

    #[test]
    fn netlist_scaling_validates_and_rejects_bad_rows() {
        let row = |gates: f64| {
            Json::obj(vec![
                ("gates", Json::Num(gates)),
                ("nodes", Json::Num(gates + 4.0)),
                ("bench_bytes", Json::Num(gates * 30.0)),
                ("memory_bytes", Json::Num(gates * 60.0)),
                ("rss_peak_kb", Json::Num(10_000.0)),
                ("levels", Json::Num(120.0)),
                ("rare_nodes", Json::Num(17.0)),
                (
                    "seconds",
                    Json::obj(vec![
                        ("build", Json::Num(0.01)),
                        ("parse", Json::Num(0.05)),
                        ("levelize", Json::Num(0.002)),
                        ("rare_extract", Json::Num(0.03)),
                    ]),
                ),
            ])
        };
        let doc = Json::obj(vec![
            ("schema", Json::Str(NETLIST_SCALING_SCHEMA.into())),
            ("results", Json::Arr(vec![row(10_000.0), row(100_000.0)])),
        ]);
        validate_netlist_scaling(&doc).unwrap();
        validate_any_str(&doc.compact()).unwrap();

        let empty = Json::obj(vec![
            ("schema", Json::Str(NETLIST_SCALING_SCHEMA.into())),
            ("results", Json::Arr(vec![])),
        ]);
        assert!(validate_netlist_scaling(&empty)
            .unwrap_err()
            .contains("empty"));

        let unsorted = Json::obj(vec![
            ("schema", Json::Str(NETLIST_SCALING_SCHEMA.into())),
            ("results", Json::Arr(vec![row(100_000.0), row(10_000.0)])),
        ]);
        assert!(validate_netlist_scaling(&unsorted)
            .unwrap_err()
            .contains("ascend"));

        let mut bad_row = row(10_000.0);
        if let Json::Obj(fields) = &mut bad_row {
            fields.retain(|(k, _)| k != "seconds");
        }
        let missing = Json::obj(vec![
            ("schema", Json::Str(NETLIST_SCALING_SCHEMA.into())),
            ("results", Json::Arr(vec![bad_row])),
        ]);
        assert!(validate_netlist_scaling(&missing)
            .unwrap_err()
            .contains("seconds"));
    }

    #[test]
    fn validate_any_dispatches_and_rejects_unknown_schemas() {
        assert!(validate_any_str("{}").unwrap_err().contains("schema"));
        let unknown = Json::obj(vec![("schema", Json::Str("htforge.other/v9".into()))]);
        assert!(validate_any_json(&unknown)
            .unwrap_err()
            .contains("htforge.other/v9"));
        // Run reports dispatch through to the report validator.
        let rec = Recorder::new();
        let report = crate::report::RunReport::from_recorder("unit", &rec);
        validate_any_str(&report.pretty()).unwrap();
    }
}
