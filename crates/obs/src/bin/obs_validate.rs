//! Validates htforge telemetry JSON files (CI schema gate).
//!
//! Usage:
//!
//! * `obs_validate <doc.json>...` — each file is one schema-tagged
//!   document (`htforge.run_report/v1`, `htforge.metrics_snapshot/v1`,
//!   `htforge.job_timeline/v1`, `htforge.job_progress/v1`,
//!   `htforge.server_journal/v1` or `htforge.netlist_scaling/v1`),
//!   dispatched on its `schema` field.
//! * `obs_validate --frames <session.jsonl>...` — each file is a
//!   campaign-server JSONL session transcript; every embedded telemetry
//!   frame (`progress` bodies, terminal `timeline`s, `metrics`
//!   snapshots, run `report`s) is extracted and validated. Bare
//!   schema-tagged lines — including `htforge.server_journal/v1`
//!   records from `htforge-server --dump-journal` — validate too, so a
//!   journal dump is checkable end to end with the same gate.
//!
//! Exits non-zero if any file is missing, unparseable, or violates its
//! schema.

use std::process::ExitCode;

use htforge_obs::{parse_json, validate_any_json, Json};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let frames_mode = args.first().map(String::as_str) == Some("--frames");
    if frames_mode {
        args.remove(0);
    }
    if args.is_empty() {
        eprintln!("usage: obs_validate [--frames] <file.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let result = if frames_mode {
            validate_session(&text)
        } else {
            htforge_obs::validate_any_str(&text).map(|()| 1)
        };
        match result {
            Ok(n) => println!("{path}: ok ({n} frame{})", if n == 1 { "" } else { "s" }),
            Err(msg) => {
                eprintln!("{path}: INVALID: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates every embedded telemetry frame in a JSONL session
/// transcript, returning how many frames were checked. A transcript
/// with zero extractable frames is an error — it means the capture
/// went wrong, not that everything validated.
fn validate_session(text: &str) -> Result<usize, String> {
    let mut frames = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        for field in ["progress", "timeline", "snapshot", "report"] {
            if let Some(embedded) = doc.get(field) {
                validate_any_json(embedded)
                    .map_err(|e| format!("line {}: `{field}`: {e}", lineno + 1))?;
                frames += 1;
            }
        }
        // A bare schema-tagged telemetry document on its own line (the
        // obs JSONL stream interleaved into a capture) also counts.
        if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
            if schema.starts_with("htforge.")
                && schema != "htforge.job_request/v1"
                && schema != "htforge.job_response/v1"
                && schema != "htforge.campaign_ckpt/v1"
            {
                validate_any_json(&doc).map_err(|e| format!("line {}: {e}", lineno + 1))?;
                frames += 1;
            }
        }
    }
    if frames == 0 {
        return Err("no telemetry frames found in transcript".into());
    }
    Ok(frames)
}
