//! Runs all three workloads, traced, on c17 and checks the result lines.

use std::process::Command;

use htforge_obs::Json;

#[test]
fn smoke_mode_runs_every_workload_correctly() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_htforge-perfbench"))
        .args(["--smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{stderr}"
    );

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| htforge_obs::parse_json(l).expect("result line is JSON"))
        .collect();
    // One contract line per workload, then the combined verdict.
    assert_eq!(results.len(), 4, "{stdout}");
    for r in &results {
        assert_eq!(
            r.get("correct"),
            Some(&Json::Bool(true)),
            "{stdout}\n{stderr}"
        );
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    }
    // Traced lines carry every per-layer metric, each with a unit.
    for r in &results[..3] {
        let metrics = r.get("metrics").and_then(Json::as_obj).expect("metric map");
        assert!(metrics.iter().any(|(k, _)| k == "obs.trace_overhead_pct"));
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
    for workload in ["insert", "detect", "serve"] {
        assert!(out_dir
            .join(format!("spans-{workload}-seed1.jsonl"))
            .is_file());
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
