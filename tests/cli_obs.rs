//! The `htforge` CLI's `HTFORGE_OBS` outputs: `jsonl` streams one span
//! object per line (the layout pinned below), `summary` prints the table
//! on exit, and anything else is an "unknown output" warning.

use std::path::{Path, PathBuf};

use htforge::obs::{parse_json, Json};

const INSERT_C17: &[&str] = &[
    "insert", "c17", "--q", "2", "--n", "1", "--theta", "0.3", "--out", "out",
];

/// Runs `htforge args` under `HTFORGE_OBS=obs` in a fresh directory that
/// receives the JSONL stream as `obs.jsonl`; returns the exit code,
/// stderr and the directory.
fn htforge(tag: &str, args: &[&str], obs: &str) -> (Option<i32>, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("htforge_cli_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htforge"))
        .args(args)
        .env("HTFORGE_OBS", obs)
        .env("HTFORGE_OBS_FILE", dir.join("obs.jsonl"))
        .current_dir(&dir)
        .output()
        .expect("spawn htforge");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, dir)
}

/// The span names in `dir/obs.jsonl`, checking that every line is a span
/// object with exactly the pinned keys, in order, and that its compact
/// encoding round-trips byte for byte.
fn span_names(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join("obs.jsonl")).expect("read obs.jsonl");
    let _ = std::fs::remove_dir_all(dir);
    let pinned = [
        "t", "id", "parent", "name", "start_us", "dur_us", "attrs", "trace",
    ];
    text.lines()
        .map(|line| {
            let doc = parse_json(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(doc.compact(), line, "encoding drifted");
            let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
            let optional = |k: &&str| !matches!(*k, "attrs" | "trace") || keys.contains(k);
            let expected: Vec<&str> = pinned.into_iter().filter(optional).collect();
            assert_eq!(keys, expected, "{line}");
            assert_eq!(doc.get("t").and_then(Json::as_str), Some("span"), "{line}");
            assert!(doc.get("dur_us").and_then(Json::as_f64).is_some(), "{line}");
            doc.get("name")
                .and_then(Json::as_str)
                .expect(line)
                .to_owned()
        })
        .collect()
}

#[test]
fn insert_streams_every_pipeline_phase_and_prints_the_summary() {
    let (code, stderr, dir) = htforge("insert", INSERT_C17, "jsonl,summary");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("== observability summary =="), "{stderr}");
    let names = span_names(&dir);
    for phase in [
        "rare_extraction",
        "compat_graph",
        "clique_enumeration",
        "insertion",
        "validation",
    ] {
        assert!(names.iter().any(|n| n == phase), "no {phase} in {names:?}");
    }
}

#[test]
fn grade_streams_span_lines() {
    let args = ["grade", "c17", "--scheme", "mero"];
    let (code, stderr, dir) = htforge("grade", &args, "jsonl,summary");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!span_names(&dir).is_empty(), "no span lines");
}

#[test]
fn grade_ndatpg_streams_its_generation_span() {
    let args = ["grade", "c17", "--scheme", "ndatpg"];
    let (code, stderr, dir) = htforge("grade_ndatpg", &args, "jsonl");
    assert_eq!(code, Some(0), "{stderr}");
    let names = span_names(&dir);
    assert!(
        names.iter().any(|n| n == "ndatpg"),
        "no ndatpg in {names:?}"
    );
}

/// c17 has no rare events at grade's θ = 0.2, so ND-ATPG has nothing to
/// target: it reports an empty test set instead of substituting random
/// vectors.
#[test]
fn grade_ndatpg_without_rare_events_reports_no_tests() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_htforge"))
        .args(["grade", "c17", "--scheme", "ndatpg"])
        .env_remove("HTFORGE_OBS")
        .output()
        .expect("spawn htforge");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("ND-ATPG: 0 tests from c17"), "{stdout}");
}

#[test]
fn progress_is_an_unknown_output() {
    let (code, stderr, dir) = htforge("progress", INSERT_C17, "progress");
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("unknown output `progress`"), "{stderr}");
}
