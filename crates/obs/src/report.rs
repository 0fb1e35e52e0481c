//! The `RunReport` JSON artifact: a self-describing snapshot of one
//! pipeline run (spans, counters, gauges, histogram summaries), written
//! by the benchmark binaries and examples as `results/report_<name>.json`
//! and validated by `obs_validate` in CI.

use std::io;
use std::path::Path;

use crate::budget::DegradationNote;
use crate::json::{self, Json};
use crate::recorder::Recorder;

/// The schema identifier written into (and required from) every report.
pub const SCHEMA: &str = "htforge.run_report/v1";

/// One histogram's summary statistics as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramReport {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (log-linear bucket resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A serializable snapshot of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report name, typically `<binary>_<circuit>`.
    pub name: String,
    /// Free-form metadata (circuit, mode, parameters), insertion order.
    pub meta: Vec<(String, Json)>,
    /// Completed spans: `(id, parent, name, start_us, dur_us)`.
    pub spans: Vec<SpanEntry>,
    /// Counter name → value, sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary, sorted.
    pub histograms: Vec<(String, HistogramReport)>,
    /// Degradation decisions the run took under budget pressure
    /// (empty for a run that completed in full).
    pub degradations: Vec<DegradationNote>,
}

/// One span row in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEntry {
    /// Span id (start order within the run).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start offset in microseconds from the recorder epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Key/value span attributes (e.g. the simulation kernel's `words`
    /// and `host_threads`).
    /// Omitted from the JSON when empty.
    pub attrs: Vec<(String, String)>,
}

impl RunReport {
    /// Builds a report from the recorder's current spans and metrics.
    /// Empty metrics (zero counters, zero gauges, empty histograms) are
    /// omitted so reports only list what the run actually touched.
    #[must_use]
    pub fn from_recorder(name: &str, recorder: &Recorder) -> Self {
        let snap = recorder.snapshot();
        RunReport {
            name: name.to_owned(),
            meta: Vec::new(),
            spans: recorder
                .spans()
                .into_iter()
                .map(|s| SpanEntry {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    start_us: s.start_ns as f64 / 1_000.0,
                    dur_us: s.dur_ns as f64 / 1_000.0,
                    attrs: s.attrs,
                })
                .collect(),
            counters: snap.counters.into_iter().filter(|(_, v)| *v > 0).collect(),
            gauges: snap.gauges.into_iter().filter(|(_, v)| *v != 0.0).collect(),
            histograms: snap
                .histograms
                .into_iter()
                .filter(|(_, h)| h.count > 0)
                .map(|(name, h)| {
                    let report = HistogramReport {
                        count: h.count,
                        min: h.min,
                        max: h.max,
                        mean: h.mean().unwrap_or(0.0),
                        p50: h.percentile(0.5).unwrap_or(0),
                        p90: h.percentile(0.9).unwrap_or(0),
                        p99: h.percentile(0.99).unwrap_or(0),
                    };
                    (name, report)
                })
                .collect(),
            degradations: Vec::new(),
        }
    }

    /// Adds a metadata field (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: Json) -> Self {
        self.meta.push((key.to_owned(), value));
        self
    }

    /// Attaches degradation notes (builder style).
    #[must_use]
    pub fn with_degradations(mut self, notes: &[DegradationNote]) -> Self {
        self.degradations.extend(notes.iter().cloned());
        self
    }

    /// The report as a JSON document. The `degradations` array is only
    /// emitted when non-empty, so fully-completed runs keep the exact
    /// pre-resilience layout.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("name", Json::Str(self.name.clone())),
            ("meta", Json::Obj(self.meta.clone())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let mut span_fields = vec![
                                ("id", Json::Num(s.id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("name", Json::Str(s.name.clone())),
                                ("start_us", Json::Num(s.start_us)),
                                ("dur_us", Json::Num(s.dur_us)),
                            ];
                            if !s.attrs.is_empty() {
                                span_fields.push((
                                    "attrs",
                                    Json::Obj(
                                        s.attrs
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                            .collect(),
                                    ),
                                ));
                            }
                            Json::obj(span_fields)
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    ("count", Json::Num(h.count as f64)),
                                    ("min", Json::Num(h.min as f64)),
                                    ("max", Json::Num(h.max as f64)),
                                    ("mean", Json::Num(h.mean)),
                                    ("p50", Json::Num(h.p50 as f64)),
                                    ("p90", Json::Num(h.p90 as f64)),
                                    ("p99", Json::Num(h.p99 as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.degradations.is_empty() {
            fields.push((
                "degradations",
                Json::Arr(
                    self.degradations
                        .iter()
                        .map(DegradationNote::to_json)
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Serializes the report (pretty, trailing newline).
    #[must_use]
    pub fn pretty(&self) -> String {
        self.to_json().pretty()
    }

    /// Writes the report to `path` atomically (temp file + rename),
    /// creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.pretty())
    }

    /// The counter value recorded under `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Names of all spans in the report, in start order.
    #[must_use]
    pub fn span_names(&self) -> Vec<&str> {
        self.spans.iter().map(|s| s.name.as_str()).collect()
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file which is then renamed over `path`, so readers (and an
/// interrupted run) only ever observe the old complete file or the new
/// complete file — never a truncated one. Parent directories are
/// created as needed.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on a
/// failed rename.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            std::fs::create_dir_all(p)?;
            p.to_owned()
        }
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = parent.join(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Checks that `doc` is a structurally valid `v1` run report.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_json(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    doc.get("name")
        .and_then(Json::as_str)
        .ok_or("missing `name` field")?;
    doc.get("meta")
        .and_then(Json::as_obj)
        .ok_or("`meta` must be an object")?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("`spans` must be an array")?;
    let mut ids = std::collections::BTreeSet::new();
    for (i, span) in spans.iter().enumerate() {
        let id = span
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{i}]: missing integer `id`"))?;
        ids.insert(id);
        span.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("spans[{i}]: missing `name`"))?;
        for key in ["start_us", "dur_us"] {
            let v = span
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("spans[{i}]: missing number `{key}`"))?;
            if v < 0.0 {
                return Err(format!("spans[{i}]: `{key}` is negative"));
            }
        }
        match span.get("parent") {
            Some(Json::Null) | None => {}
            Some(p) => {
                p.as_u64()
                    .ok_or_else(|| format!("spans[{i}]: `parent` must be null or integer"))?;
            }
        }
        // `attrs` is optional; when present it must be a string→string
        // object.
        if let Some(attrs) = span.get("attrs") {
            let obj = attrs
                .as_obj()
                .ok_or_else(|| format!("spans[{i}]: `attrs` must be an object"))?;
            for (key, value) in obj {
                if value.as_str().is_none() {
                    return Err(format!("spans[{i}]: attrs.{key} must be a string"));
                }
            }
        }
    }
    // Parents must reference spans in the same report.
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.get("parent").and_then(Json::as_u64) {
            if !ids.contains(&parent) {
                return Err(format!("spans[{i}]: parent {parent} not in report"));
            }
        }
    }
    for (section, check_num) in [("counters", true), ("gauges", false)] {
        let obj = doc
            .get(section)
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("`{section}` must be an object"))?;
        for (key, value) in obj {
            let ok = if check_num {
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
    // `degradations` is optional (absent for fully-completed runs).
    if let Some(deg) = doc.get("degradations") {
        let arr = deg.as_arr().ok_or("`degradations` must be an array")?;
        for (i, note) in arr.iter().enumerate() {
            for field in ["phase", "action", "detail"] {
                note.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("degradations[{i}]: missing string `{field}`"))?;
            }
        }
    }
    Ok(())
}

/// Parses and validates a serialized run report.
///
/// # Errors
///
/// Returns a description of the parse or schema violation.
pub fn validate_str(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    validate_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let rec = Recorder::new();
        rec.enable();
        let outer = rec.span("compat_graph");
        rec.span("podem").finish();
        outer.finish();
        rec.counter("podem.backtracks").add(42);
        rec.gauge("sim.kernel_words_per_sec").set(1.0e8);
        rec.histogram("podem.backtracks_per_fault").record(7);
        RunReport::from_recorder("unit", &rec).with_meta("circuit", Json::Str("c17".into()))
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = sample_report();
        let text = report.pretty();
        validate_str(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            doc.get("meta").unwrap().get("circuit").unwrap().as_str(),
            Some("c17")
        );
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("podem.backtracks")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn report_accessors() {
        let report = sample_report();
        assert_eq!(report.counter("podem.backtracks"), Some(42));
        assert_eq!(report.counter("absent"), None);
        // Spans are in completion order; both names present.
        let names = report.span_names();
        assert!(names.contains(&"compat_graph") && names.contains(&"podem"));
        // The inner span's parent is the outer span.
        let outer_id = report
            .spans
            .iter()
            .find(|s| s.name == "compat_graph")
            .unwrap()
            .id;
        let inner = report.spans.iter().find(|s| s.name == "podem").unwrap();
        assert_eq!(inner.parent, Some(outer_id));
    }

    #[test]
    fn validation_rejects_bad_documents() {
        assert!(validate_str("not json").is_err());
        assert!(validate_str("{}").unwrap_err().contains("schema"));
        let wrong = Json::obj(vec![("schema", Json::Str("other/v9".into()))]);
        assert!(validate_json(&wrong).unwrap_err().contains("other/v9"));

        // Dangling parent reference.
        let mut report = sample_report();
        report.spans[0].parent = Some(999);
        let err = validate_json(&report.to_json()).unwrap_err();
        assert!(err.contains("999"), "{err}");

        // Negative duration.
        let mut report = sample_report();
        report.spans[0].dur_us = -1.0;
        assert!(validate_json(&report.to_json())
            .unwrap_err()
            .contains("negative"));
    }

    #[test]
    fn span_attrs_round_trip_and_validate() {
        let rec = Recorder::new();
        rec.enable();
        let mut sp = rec.span("sim.kernel_run");
        sp.attr("strategy", "hybrid");
        sp.attr("threads_effective", "4");
        sp.finish();
        let report = RunReport::from_recorder("unit", &rec);
        let text = report.pretty();
        validate_str(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        let span = &doc.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            span.get("attrs").unwrap().get("strategy").unwrap().as_str(),
            Some("hybrid")
        );

        // Attribute-free reports must not grow an `attrs` field, and
        // non-string attribute values are rejected.
        let plain = sample_report();
        let plain_span = &plain.to_json().get("spans").unwrap().as_arr().unwrap()[0].clone();
        assert!(plain_span.get("attrs").is_none());
        let mut bad = report;
        bad.spans[0].attrs = vec![("k".to_owned(), "v".to_owned())];
        let mut doc = bad.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "spans" {
                    *value = Json::Arr(vec![Json::obj(vec![
                        ("id", Json::Num(1.0)),
                        ("name", Json::Str("s".into())),
                        ("start_us", Json::Num(0.0)),
                        ("dur_us", Json::Num(1.0)),
                        ("attrs", Json::obj(vec![("n", Json::Num(3.0))])),
                    ])]);
                }
            }
        }
        let err = validate_json(&doc).unwrap_err();
        assert!(err.contains("attrs.n"), "{err}");
    }

    #[test]
    fn degradations_round_trip_and_validate() {
        let plain = sample_report();
        // Absent when empty: pre-resilience layout is preserved.
        assert!(plain.to_json().get("degradations").is_none());

        let report = plain.with_degradations(&[DegradationNote::new(
            "clique_enumeration",
            "greedy_fallback",
            "deadline hit after 12 cliques",
        )]);
        let text = report.pretty();
        validate_str(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        let deg = doc.get("degradations").unwrap().as_arr().unwrap();
        assert_eq!(deg.len(), 1);
        assert_eq!(
            deg[0].get("action").unwrap().as_str(),
            Some("greedy_fallback")
        );

        // Malformed notes are rejected.
        let bad = Json::obj(vec![("phase", Json::Str("x".into()))]);
        let mut doc = json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "degradations" {
                    *v = Json::Arr(vec![bad.clone()]);
                }
            }
        }
        assert!(validate_json(&doc).unwrap_err().contains("degradations[0]"));
    }

    #[test]
    fn write_to_is_atomic_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("htforge_obs_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("report.json");
        sample_report().write_to(&path).unwrap();
        validate_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Overwrite in place; no temp files left behind.
        sample_report().write_to(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("report.json")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_metrics_are_omitted() {
        let rec = Recorder::new();
        rec.counter("touched").incr();
        let _ = rec.counter("untouched");
        let _ = rec.histogram("empty_hist");
        let report = RunReport::from_recorder("unit", &rec);
        assert_eq!(report.counters, vec![("touched".to_owned(), 1)]);
        assert!(report.histograms.is_empty());
        validate_str(&report.pretty()).unwrap();
    }
}
