//! The `htforge` CLI turns out-of-range arguments into usage errors
//! (exit 1 with a message), never into a panic (exit 101).

use std::process::Command;

#[test]
fn out_of_range_arguments_are_usage_errors_not_panics() {
    let cases: &[&[&str]] = &[
        &["insert", "c17", "--deadline", "1e20"],
        &["insert", "c17", "--deadline", "1e19"],
        &["insert", "c17", "--deadline", "-1"],
        &["insert", "c17", "--deadline", "nan"],
        &["rare", "c17", "--theta", "nan"],
        &["rare", "c17", "--theta", "-1"],
        &["rare", "c17", "--theta", "5"],
        &["insert", "c17", "--theta", "nan"],
        &["insert", "c17", "--theta", "-1"],
        &["insert", "c17", "--theta", "5"],
        &["insert", "c17", "--q", "0"],
    ];
    for args in cases {
        // Run outside the source tree: a case that wrongly succeeded
        // would write `htforge-out/` into its working directory.
        let out = Command::new(env!("CARGO_BIN_EXE_htforge"))
            .args(*args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn htforge");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error: "), "{args:?}: {stderr}");
    }
}
