//! `htforge detect` end to end: two designs written by `htforge insert`
//! are read back, their trojans recovered from the `ht*_payload` gates,
//! and graded under one scheme.

use std::process::Command;

/// Runs `htforge args` in `dir`; returns the exit code, stdout and
/// stderr.
fn htforge(dir: &std::path::Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_htforge"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn htforge");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn detect_grades_the_designs_insert_wrote() {
    let dir = std::env::temp_dir().join(format!("htforge_cli_detect_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let insert = ["insert", "c432", "--q", "4", "--n", "2", "--out", "designs"];
    let (code, stdout, stderr) = htforge(&dir, &insert);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    for i in 0..2 {
        assert!(
            dir.join(format!("designs/c432_ht{i}.bench")).is_file(),
            "{stdout}"
        );
    }

    let detect = [
        "detect",
        "c432",
        "--infected",
        "designs/c432_ht0.bench,designs/c432_ht1.bench",
        "--scheme",
        "random",
    ];
    let (code, stdout, stderr) = htforge(&dir, &detect);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        stdout.contains("2 trojan instance(s) across the given netlists"),
        "{stdout}"
    );
    let graded: Vec<&str> = stdout.lines().filter(|l| l.contains("TC ")).collect();
    assert_eq!(graded.len(), 1, "one scheme, one line: {stdout}");
    let line = graded[0];
    assert!(
        line.trim_start().starts_with("Random: 10000 tests"),
        "{line}"
    );
    assert!(line.contains("/2 (") && line.contains(", DC "), "{line}");
}
