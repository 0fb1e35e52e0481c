//! End-to-end smoke test: spawn the real `htforge-server` binary, feed
//! it a mixed JSONL batch over stdin, and validate everything it says
//! back — every response line is schema-tagged JSON, every embedded
//! run report validates against `htforge.run_report/v1`, exactly one
//! terminal response per job, and EOF is a clean drain shutdown (last
//! line `type: "shutdown"`, exit code 0).

use std::collections::HashMap;
use std::io::Write;
use std::process::{Command, Stdio};

use htforge::obs::{
    parse_json, validate_job_progress, validate_job_timeline, validate_json,
    validate_metrics_snapshot, Json,
};
use htforge::server::{REQUEST_SCHEMA, RESPONSE_SCHEMA};

fn submit(id: &str, kind: &str, circuit: &str, params: &str) -> String {
    format!(
        r#"{{"schema":"{REQUEST_SCHEMA}","op":"submit","id":"{id}","kind":"{kind}","circuit":"{circuit}","params":{params}}}"#
    )
}

#[test]
fn daemon_serves_a_mixed_batch_over_stdin_and_drains_on_eof() {
    let light = r#"{"vectors":512,"theta":0.3,"tests":64}"#;
    let mut input = String::new();
    // A malformed line mid-batch must not disturb the jobs around it.
    input.push_str(&submit("sim-a", "simulate", "c17", r#"{"vectors":1024}"#));
    input.push('\n');
    input.push_str(&submit("ins-a", "insert", "c17", light));
    input.push('\n');
    input.push_str("this is not json\n");
    input.push_str(&submit("det-a", "detect", "c17", light));
    input.push('\n');
    input.push_str(&submit("grd-a", "grade", "s1423", light));
    input.push('\n');
    input.push_str(r#"{"schema":"htforge.job_request/v1","op":"status"}"#);
    input.push('\n');
    input.push_str(r#"{"schema":"htforge.job_request/v1","op":"metrics"}"#);
    input.push('\n');
    // EOF follows — no explicit shutdown request: the daemon must
    // drain all four jobs and exit cleanly on its own.

    let mut child = Command::new(env!("CARGO_BIN_EXE_htforge-server"))
        .args(["--workers", "2", "--tenant", "smoke"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htforge-server");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    // stdin drops here: EOF.
    let out = child.wait_with_output().expect("daemon exit");
    assert!(
        out.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "daemon said nothing");

    let mut terminals: HashMap<String, String> = HashMap::new();
    let mut parse_errors = 0;
    let mut saw_status = false;
    let mut saw_metrics = false;
    let mut reports_validated = 0;
    for line in &lines {
        let doc = parse_json(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(RESPONSE_SCHEMA),
            "{line}"
        );
        match doc.get("type").and_then(Json::as_str).expect("type field") {
            "result" => {
                let id = doc.get("id").and_then(Json::as_str).expect("id").to_owned();
                let status = doc
                    .get("status")
                    .and_then(Json::as_str)
                    .expect("status")
                    .to_owned();
                // The default tenant from the command line sticks.
                assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("smoke"));
                let report = doc
                    .get("report")
                    .expect("terminal response carries a report");
                validate_json(report).unwrap_or_else(|e| panic!("report for `{id}` invalid: {e}"));
                let meta = report.get("meta").expect("report meta");
                assert_eq!(meta.get("job_id").and_then(Json::as_str), Some(id.as_str()));
                assert_eq!(
                    meta.get("status").and_then(Json::as_str),
                    Some(status.as_str())
                );
                // Every terminal response is trace-correlated and
                // carries a schema-valid per-phase timeline, so a
                // campaign reconstructs offline from the JSONL alone.
                let trace = doc.get("trace").and_then(Json::as_str).expect("trace id");
                assert_eq!(trace.len(), 16, "{line}");
                assert_eq!(meta.get("trace").and_then(Json::as_str), Some(trace));
                let timeline = doc.get("timeline").expect("terminal timeline");
                validate_job_timeline(timeline)
                    .unwrap_or_else(|e| panic!("timeline for `{id}` invalid: {e}"));
                assert_eq!(timeline.get("trace").and_then(Json::as_str), Some(trace));
                reports_validated += 1;
                let dup = terminals.insert(id.clone(), status);
                assert!(dup.is_none(), "two terminal responses for `{id}`");
            }
            "error" => parse_errors += 1,
            "status" => {
                saw_status = true;
                assert!(doc.get("queue_depth").is_some(), "{line}");
                assert!(doc.get("cache_hit_rate").is_some(), "{line}");
            }
            "ack" => {}
            "progress" => {
                let frame = doc.get("progress").expect("embedded progress frame");
                validate_job_progress(frame).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
            "metrics" => {
                saw_metrics = true;
                let snapshot = doc.get("snapshot").expect("metrics snapshot");
                validate_metrics_snapshot(snapshot).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
            "shutdown" => {
                assert_eq!(
                    *line,
                    *lines.last().unwrap(),
                    "shutdown must be the final line"
                );
                assert_eq!(doc.get("mode").and_then(Json::as_str), Some("drain"));
                assert_eq!(doc.get("jobs_completed").and_then(Json::as_u64), Some(4));
            }
            other => panic!("unknown response type `{other}`: {line}"),
        }
    }

    assert_eq!(parse_errors, 1, "the one malformed line answers once");
    assert!(saw_status, "status request went unanswered");
    assert!(saw_metrics, "metrics request went unanswered");
    assert_eq!(reports_validated, 4);
    assert_eq!(terminals.len(), 4, "{terminals:?}");
    for id in ["sim-a", "ins-a", "det-a", "grd-a"] {
        assert_eq!(
            terminals.get(id).map(String::as_str),
            Some("done"),
            "job `{id}`: {terminals:?}"
        );
    }
    // The last line is the shutdown notice (checked above to be the
    // only one); make sure it exists at all.
    let last = parse_json(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("type").and_then(Json::as_str), Some("shutdown"));
}

#[test]
fn explicit_drop_shutdown_cancels_queued_jobs_but_answers_them_all() {
    // One worker, one long-ish job, three queued behind it, then an
    // immediate `drop` shutdown: the queued jobs must come back
    // `cancelled` (dropped at shutdown), and nothing is lost.
    let slow = r#"{"vectors":4096,"repeat":64}"#;
    let mut input = String::new();
    for i in 0..4 {
        input.push_str(&submit(&format!("j{i}"), "simulate", "c2670", slow));
        input.push('\n');
    }
    input.push_str(r#"{"schema":"htforge.job_request/v1","op":"shutdown","mode":"drop"}"#);
    input.push('\n');

    let mut child = Command::new(env!("CARGO_BIN_EXE_htforge-server"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htforge-server");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success());

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut statuses: HashMap<String, String> = HashMap::new();
    let mut shutdown_mode = None;
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse_json(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
        match doc.get("type").and_then(Json::as_str) {
            Some("result") => {
                statuses.insert(
                    doc.get("id").and_then(Json::as_str).unwrap().to_owned(),
                    doc.get("status").and_then(Json::as_str).unwrap().to_owned(),
                );
            }
            Some("shutdown") => {
                shutdown_mode = doc.get("mode").and_then(Json::as_str).map(str::to_owned);
            }
            _ => {}
        }
    }
    assert_eq!(shutdown_mode.as_deref(), Some("drop"));
    // Every accepted job got a terminal response; at least one was
    // dropped from the queue (with one worker and four jobs, at most
    // one can be running when the drop lands — but scheduling is real,
    // so only the invariant is pinned, not the exact split).
    assert_eq!(statuses.len(), 4, "{statuses:?}");
    assert!(
        statuses.values().any(|s| s == "cancelled"),
        "drop shutdown should cancel queued jobs: {statuses:?}"
    );
    assert!(
        statuses.values().all(|s| s == "cancelled" || s == "done"),
        "{statuses:?}"
    );
}

#[test]
fn long_job_streams_progress_frames_before_its_terminal_response() {
    // The acceptance path from ISSUE 8: a long job against the real
    // binary must yield at least one schema-valid job_progress frame
    // before its terminal response, all bound to one trace id.
    let mut input = String::new();
    input.push_str(&submit(
        "long-a",
        "simulate",
        "c2670",
        r#"{"vectors":4096,"repeat":16}"#,
    ));
    input.push('\n');

    let mut child = Command::new(env!("CARGO_BIN_EXE_htforge-server"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htforge-server");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success());

    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let docs: Vec<Json> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad JSONL `{l}`: {e}")))
        .collect();
    let type_of = |d: &Json| d.get("type").and_then(Json::as_str).unwrap().to_owned();
    let first_progress = docs
        .iter()
        .position(|d| type_of(d) == "progress")
        .expect("a long job must stream at least one progress frame");
    let result = docs
        .iter()
        .position(|d| type_of(d) == "result")
        .expect("a terminal result");
    assert!(
        first_progress < result,
        "progress (line {first_progress}) must precede the result (line {result})"
    );

    let trace = docs[result].get("trace").and_then(Json::as_str).unwrap();
    assert_eq!(trace.len(), 16);
    for doc in docs.iter().filter(|d| type_of(d) == "progress") {
        let frame = doc.get("progress").expect("embedded frame");
        validate_job_progress(frame).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(doc.get("trace").and_then(Json::as_str), Some(trace));
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("long-a"));
    }
    let timeline = docs[result].get("timeline").expect("timeline");
    validate_job_timeline(timeline).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(timeline.get("trace").and_then(Json::as_str), Some(trace));
    let phases = timeline.get("phases").and_then(Json::as_arr).unwrap();
    assert!(!phases.is_empty(), "timeline must name at least one phase");
}
