//! End-to-end observability: run the insertion pipeline with the global
//! recorder enabled and check the resulting `RunReport` artifact — the
//! schema contract the CI `obs_validate` step and the benchmark binaries
//! rely on.

use htforge::core::{InsertionConfig, InsertionFramework};
use htforge::obs::{self, Json, RunReport};

/// The pipeline phases the report must expose as spans (`DESIGN.md` §8).
const PHASES: [&str; 7] = [
    "insertion_pipeline",
    "rare_extraction",
    "compat_cubes",
    "compat_graph",
    "clique_enumeration",
    "insertion",
    "validation",
];

#[test]
fn pipeline_run_report_has_phases_and_podem_counters() {
    obs::global().enable();
    obs::global().reset();

    let golden = htforge::circuits::load("c17").unwrap();
    let outcome = InsertionFramework::new(InsertionConfig {
        theta: 0.30,
        num_vectors: 2_000,
        trigger_nodes: 2,
        num_instances: 1,
        seed: 7,
        ..InsertionConfig::default()
    })
    .run(&golden)
    .unwrap();
    assert!(!outcome.infected.is_empty());

    let report = RunReport::from_recorder("pipeline_c17", obs::global())
        .with_meta("circuit", Json::Str("c17".into()));

    let names = report.span_names();
    for phase in PHASES {
        assert!(
            names.contains(&phase),
            "missing span `{phase}` in {names:?}"
        );
    }

    // Phase spans nest under the pipeline root.
    let root = report
        .spans
        .iter()
        .find(|s| s.name == "insertion_pipeline")
        .unwrap();
    let rare = report
        .spans
        .iter()
        .find(|s| s.name == "rare_extraction")
        .unwrap();
    assert_eq!(rare.parent, Some(root.id));

    // Every rare event has its cube lifted off a profiling witness or
    // runs PODEM (c17 may need no PODEM run; zero counters are elided).
    let count = |name| report.counter(name).unwrap_or(0);
    let cubes_attempted = count("compat.witnessed") + count("podem.faults");
    assert!(count("rare.nodes") > 0);
    assert_eq!(cubes_attempted, count("rare.nodes"));
    assert!(report.counter("insertion.instances").unwrap_or(0) > 0);
    assert!(report.counter("sim.kernel_words").unwrap_or(0) > 0);

    // PhaseTimings is a view over the same spans: totals must agree in
    // spirit (every phase runs, so every duration is measured).
    assert!(outcome.timings.total().as_nanos() > 0);

    // The serialized artifact validates against the v1 schema.
    htforge::obs::validate_str(&report.pretty()).unwrap();
}
