//! End-to-end resilience properties (`DESIGN.md` §9): wall-clock
//! deadlines and cross-thread cancellation on paper-scale circuits.
//!
//! An unbudgeted pipeline run at the settings below takes about 150 ms
//! on c7552 and 0.4–0.55 s on s38584 (release build, 2 vCPUs), so a
//! deadline of a third of that or less forces the degradation ladder to
//! engage.

use std::time::{Duration, Instant};

use htforge::core::{InsertionConfig, InsertionError, InsertionFramework};
use htforge::obs::RunBudget;

fn paper_scale_config() -> InsertionConfig {
    InsertionConfig {
        theta: 0.20,
        num_vectors: 10_000,
        trigger_nodes: 8,
        num_instances: 10,
        seed: 7,
        ..InsertionConfig::default()
    }
}

/// The run must come back promptly once the deadline passes — either
/// with partial results (and notes explaining the shortfall) or with a
/// phase-tagged `Timeout`. The overshoot bound is loose (CI boxes are
/// slow and single-core) but catches hangs and unbounded sweeps.
fn assert_deadline_respected(circuit: &str, deadline: Duration, overshoot: Duration) {
    let nl = htforge::circuits::load(circuit).unwrap();
    let started = Instant::now();
    let result = InsertionFramework::new(paper_scale_config())
        .run_with_budget(&nl, &RunBudget::with_deadline(deadline));
    let elapsed = started.elapsed();
    assert!(
        elapsed < deadline + overshoot,
        "{circuit}: deadline {deadline:?} but ran {elapsed:?}"
    );
    match result {
        Ok(outcome) => assert!(
            !outcome.degradations.is_empty(),
            "{circuit}: a run this tight must report degradations"
        ),
        Err(InsertionError::Timeout { phase }) => assert!(!phase.is_empty()),
        Err(other) => panic!("{circuit}: unexpected error {other}"),
    }
}

#[test]
fn c7552_scale_deadline_returns_promptly() {
    assert_deadline_respected("c7552", Duration::from_millis(50), Duration::from_secs(3));
}

#[test]
fn s38584_scale_deadline_returns_promptly() {
    assert_deadline_respected("s38584", Duration::from_millis(150), Duration::from_secs(3));
}

#[test]
fn zero_deadline_fails_fast_with_timeout() {
    let nl = htforge::circuits::load("c7552").unwrap();
    let started = Instant::now();
    let result = InsertionFramework::new(paper_scale_config())
        .run_with_budget(&nl, &RunBudget::with_deadline(Duration::ZERO));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "zero deadline must not start real work"
    );
    assert!(
        matches!(result, Err(InsertionError::Timeout { .. })),
        "got {result:?}"
    );
}

#[test]
fn cancellation_from_another_thread_stops_a_large_run() {
    let nl = htforge::circuits::load("s38584").unwrap();
    let budget = RunBudget::unlimited();
    let token = budget.cancel_token();
    let started = Instant::now();
    let result = std::thread::scope(|scope| {
        let worker = scope
            .spawn(|| InsertionFramework::new(paper_scale_config()).run_with_budget(&nl, &budget));
        std::thread::sleep(Duration::from_millis(100));
        token.cancel();
        worker.join().expect("worker must not panic")
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation ignored for {elapsed:?}"
    );
    // s38584-scale work cannot finish in 100 ms, so the run must have
    // observed the token.
    assert!(
        matches!(result, Err(InsertionError::Cancelled)),
        "got {result:?}"
    );
}
