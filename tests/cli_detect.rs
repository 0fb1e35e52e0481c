//! `htforge detect` end to end: two designs written by `htforge insert`
//! are read back, their trojans recovered from the `ht*_payload` gates,
//! and graded.

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

/// Writes two q = 4 designs of `circuit` with `htforge insert`, then
/// grades them with `htforge detect` and the extra `detect_args`;
/// returns the detect run's stdout.
fn insert_then_detect(circuit: &str, detect_args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!(
        "htforge_cli_detect_{circuit}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let insert = [
        "insert", circuit, "--q", "4", "--n", "2", "--out", "designs",
    ];
    let (code, stdout, stderr) = htforge(&dir, &insert);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let designs: Vec<String> = (0..2)
        .map(|i| format!("designs/{circuit}_ht{i}.bench"))
        .collect();
    for design in &designs {
        assert!(dir.join(design).is_file(), "{stdout}");
    }

    let infected = designs.join(",");
    let mut detect = vec!["detect", circuit, "--infected", &infected];
    detect.extend_from_slice(detect_args);
    let (code, stdout, stderr) = htforge(&dir, &detect);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        stdout.contains("2 trojan instance(s) across the given netlists"),
        "{stdout}"
    );
    stdout
}

/// The count before `/` after `key` in a graded line such as
/// `MERO: 113 tests, TC 2/2 (100.0%), DC 2/2 (100.0%)`.
fn graded_count(line: &str, key: &str) -> usize {
    let rest = &line[line.find(key).unwrap_or_else(|| panic!("{line}")) + key.len()..];
    rest[..rest.find('/').unwrap()].parse().unwrap()
}

#[test]
fn detect_grades_the_designs_insert_wrote() {
    let stdout = insert_then_detect("c432", &["--scheme", "random"]);
    let graded: Vec<&str> = stdout.lines().filter(|l| l.contains("TC ")).collect();
    assert_eq!(graded.len(), 1, "one scheme, one line: {stdout}");
    let line = graded[0];
    assert!(
        line.trim_start().starts_with("Random: 10000 tests"),
        "{line}"
    );
    assert!(line.contains("/2 (") && line.contains(", DC "), "{line}");
}

#[test]
fn read_back_sequential_designs_detect_no_more_than_they_trigger() {
    // A trojan's XOR payload changes an output only while its trigger
    // fires, so no scheme can detect more trojans than it triggers. A
    // sequential design read back with its scan columns permuted
    // against the golden model's breaks this.
    let stdout = insert_then_detect("s1423", &[]);
    let graded: Vec<&str> = stdout.lines().filter(|l| l.contains("TC ")).collect();
    assert_eq!(graded.len(), 3, "every scheme, one line each: {stdout}");
    for line in graded {
        assert!(
            graded_count(line, ", DC ") <= graded_count(line, ", TC "),
            "{line}"
        );
    }
}
