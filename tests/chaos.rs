//! Chaos suite: armed faultpoints (`DESIGN.md` §9) prove the resilience
//! properties end to end —
//!
//! * a panic anywhere in a circuit's pipeline loses only that circuit
//!   (the campaign records a failure and continues),
//! * a delay that blows past the deadline yields `Timeout`/degradation
//!   notes, never a hang, and a matrix fill cut short by the deadline
//!   still leaves a symmetric compatibility graph,
//! * a failed checkpoint write degrades resume, not the run,
//! * a panic inside the campaign server's dispatch path loses only that
//!   job (the daemon keeps serving; zero lost jobs),
//! * a fault in the server's response path degrades the response body
//!   but still delivers exactly one terminal line per job,
//! * a server job that times out keeps the phases it ran in its
//!   terminal timeline,
//! * a panic on an ND-ATPG worker reaches the caller with its payload.
//!
//! Faultpoint arming is process-global, so every test here serializes on
//! one mutex and disarms on the way out.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use htforge::atpg::PodemConfig;
use htforge::core::{CompatGraph, InsertionConfig, InsertionError, InsertionFramework};
use htforge::obs::faultpoint::{arm, disarm_all, Action, CATALOG};
use htforge::obs::{Json, RunBudget};
use htforge_bench::campaign::{Campaign, CircuitOutcome};

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("htforge_chaos_{tag}_{}", std::process::id()))
}

fn c17_config() -> InsertionConfig {
    InsertionConfig {
        theta: 0.30,
        num_vectors: 2_000,
        trigger_nodes: 2,
        num_instances: 2,
        seed: 42,
        ..InsertionConfig::default()
    }
}

fn run_c17() -> Result<Json, String> {
    let nl = htforge::circuits::load("c17").unwrap();
    InsertionFramework::new(c17_config())
        .run(&nl)
        .map(|o| Json::Num(o.infected.len() as f64))
        .map_err(|e| e.to_string())
}

#[test]
fn every_faultpoint_name_arms_and_disarms() {
    let _gate = lock();
    for point in CATALOG {
        arm(point, Action::Delay(Duration::ZERO));
    }
    disarm_all();
}

#[test]
fn campaign_panic_loses_only_that_circuit() {
    let _gate = lock();
    disarm_all();
    let camp = Campaign::new("chaos1", temp_dir("campaign_panic"), true);

    let first = camp.run_circuit("a", run_c17);
    assert!(matches!(first, CircuitOutcome::Done { .. }), "{first:?}");

    arm("campaign.circuit", Action::Panic);
    let sabotaged = camp.run_circuit("b", run_c17);
    disarm_all();
    match sabotaged {
        CircuitOutcome::Failed { error } => {
            assert!(error.contains("injected fault"), "got: {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The campaign is still functional after the panic: the next circuit
    // completes normally.
    let third = camp.run_circuit("c", run_c17);
    assert!(matches!(third, CircuitOutcome::Done { .. }), "{third:?}");
    camp.clear(&["a", "b", "c"]);
}

#[test]
fn deep_pipeline_panic_is_contained_by_the_campaign() {
    let _gate = lock();
    disarm_all();
    let camp = Campaign::new("chaos2", temp_dir("deep_panic"), true);
    // The panic fires inside the insertion phase, several crates below
    // the campaign loop.
    arm("insert.instance", Action::Panic);
    let out = camp.run_circuit("c17", run_c17);
    disarm_all();
    match out {
        CircuitOutcome::Failed { error } => {
            assert!(error.contains("insert.instance"), "got: {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(!camp.checkpoint_path("c17").exists());
    // Disarmed, the same circuit succeeds — the process is undamaged.
    let retry = camp.run_circuit("c17", run_c17);
    assert!(matches!(retry, CircuitOutcome::Done { .. }), "{retry:?}");
    camp.clear(&["c17"]);
}

#[test]
fn delay_past_deadline_times_out_instead_of_hanging() {
    let _gate = lock();
    disarm_all();
    // Every profiling chunk stalls 40 ms against a 10 ms deadline: the
    // rare-extraction phase must cut itself short and report Timeout.
    arm(
        "rare.extract_chunk",
        Action::Delay(Duration::from_millis(40)),
    );
    let nl = htforge::circuits::load("c17").unwrap();
    let started = Instant::now();
    let result = InsertionFramework::new(c17_config())
        .run_with_budget(&nl, &RunBudget::with_deadline(Duration::from_millis(10)));
    let elapsed = started.elapsed();
    disarm_all();
    // Which phase reports the timeout depends on where the budget dies:
    // c17's 2 000 vectors fit one profiling chunk, so the stalled chunk
    // may complete and leave the next phase to notice the spent budget.
    match result {
        Err(InsertionError::Timeout { phase }) => {
            assert!(
                [
                    "rare_extraction",
                    "compat_graph",
                    "clique_enumeration",
                    "insertion"
                ]
                .contains(&phase.as_str()),
                "unknown phase `{phase}`"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    // One stalled chunk is unavoidable (the delay is in-flight when the
    // deadline passes); what must not happen is sleeping through all of
    // them or hanging.
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
}

#[test]
fn insertion_delay_degrades_to_fewer_instances() {
    let _gate = lock();
    disarm_all();
    // The earlier phases run free; each insertion stalls 60 ms. With a
    // generous-but-finite deadline the run finishes what it can and
    // reports the shortfall instead of hanging.
    let nl = htforge::circuits::load("c17").unwrap();
    let unhindered = InsertionFramework::new(InsertionConfig {
        num_instances: 8,
        ..c17_config()
    })
    .run(&nl)
    .expect("c17 insertion works");
    let attempted = unhindered.infected.len();

    arm("insert.instance", Action::Delay(Duration::from_millis(60)));
    let started = Instant::now();
    let result = InsertionFramework::new(InsertionConfig {
        num_instances: 8,
        ..c17_config()
    })
    .run_with_budget(&nl, &RunBudget::with_deadline(Duration::from_millis(400)));
    let elapsed = started.elapsed();
    disarm_all();
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    match result {
        Ok(outcome) => {
            // Partial success must be explained by a degradation note.
            assert!(
                outcome
                    .degradations
                    .iter()
                    .any(|n| n.action == "fewer_instances")
                    || outcome.infected.len() == attempted,
                "unexplained shortfall: {:?}",
                outcome.degradations
            );
        }
        Err(InsertionError::Timeout { .. }) => {} // all budget gone pre-insertion
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn truncated_matrix_stays_symmetric() {
    let _gate = lock();
    disarm_all();
    // Cube generation runs free; each matrix row stalls 20 ms, so a 2 s
    // deadline cuts the pairwise fill short of c2670's few hundred rows.
    let nl = htforge::circuits::load("c2670").unwrap();
    let vectors = htforge::sim::PatternSet::random(nl.inputs().len(), 4_096, 5);
    let rare = htforge::sim::RareNodeExtractor::new(0.20)
        .extract(&nl, &vectors)
        .unwrap();
    let full = CompatGraph::build(&nl, &rare, PodemConfig::justify()).unwrap();

    arm(
        "compat.matrix_row",
        Action::Delay(Duration::from_millis(20)),
    );
    let prog = htforge::sim::SimProgram::compile(&nl).unwrap();
    let scoap = htforge::scoap::Scoap::compute(&nl).unwrap();
    let budget = RunBudget::with_deadline(Duration::from_secs(2));
    let result =
        CompatGraph::build_budgeted(&prog, &scoap, &nl, &rare, PodemConfig::justify(), &budget);
    disarm_all();
    let (graph, notes) = result.unwrap();
    assert!(
        notes.iter().any(|n| n.action == "truncated_matrix"),
        "{notes:?}"
    );
    assert_eq!(graph.len(), full.len(), "cube generation must complete");
    for i in 0..graph.len() {
        for j in 0..graph.len() {
            assert_eq!(graph.compatible(i, j), graph.compatible(j, i), "({i}, {j})");
            // Missing edges are conservative: no pair the full fill
            // rejects is ever marked compatible.
            assert!(
                !graph.compatible(i, j) || full.compatible(i, j),
                "({i}, {j})"
            );
        }
    }
}

#[test]
fn checkpoint_write_failure_degrades_resume_not_the_run() {
    let _gate = lock();
    disarm_all();
    let camp = Campaign::new("chaos3", temp_dir("ckpt_err"), true);
    arm("checkpoint.write", Action::Err);
    let out = camp.run_circuit("c17", || Ok(Json::Num(1.0)));
    disarm_all();
    // The circuit still completed...
    assert!(
        matches!(out, CircuitOutcome::Done { resumed: false, .. }),
        "{out:?}"
    );
    // ...but no checkpoint exists, so a resumed run recomputes.
    assert!(!camp.checkpoint_path("c17").exists());
    let camp2 = Campaign::new("chaos3", temp_dir("ckpt_err"), false);
    let rerun = camp2.run_circuit("c17", || Ok(Json::Num(2.0)));
    assert_eq!(
        rerun,
        CircuitOutcome::Done {
            payload: Json::Num(2.0),
            resumed: false
        }
    );
    camp2.clear(&["c17"]);
}

mod server_chaos {
    //! Faultpoints inside the campaign server (`server.dispatch`,
    //! `server.respond`, `server.progress`): the exactly-one-terminal-
    //! response-per-job invariant must hold through injected panics,
    //! response faults and progress-emission faults.

    use super::{lock, Action, Duration, Instant, Json};
    use htforge::obs::faultpoint::{arm, disarm_all};
    use htforge::server::{
        CircuitSource, JobKind, JobParams, JobSpec, Request, Response, Server, ServerConfig,
    };

    fn sim_spec(id: &str) -> JobSpec {
        JobSpec {
            tenant: "chaos".into(),
            id: id.into(),
            kind: JobKind::Simulate,
            circuit: CircuitSource::Builtin("c17".into()),
            priority: 0,
            deadline_ms: None,
            params: JobParams {
                vectors: 256,
                ..JobParams::default()
            },
        }
    }

    fn next_result(rx: &std::sync::mpsc::Receiver<Response>) -> htforge::server::JobResult {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "no terminal response");
            if let Response::Result(r) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("response stream")
            {
                return *r;
            }
        }
    }

    #[test]
    fn dispatch_panic_loses_only_that_job() {
        let _gate = lock();
        disarm_all();
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });

        // Armed: the job's dispatch panics inside the worker. `isolate`
        // turns it into a `failed` terminal response; the worker thread
        // survives to serve the next job.
        arm("server.dispatch", Action::Panic);
        server.handle(Request::Submit(Box::new(sim_spec("doomed"))));
        let doomed = next_result(&rx);
        disarm_all();
        assert_eq!(doomed.id, "doomed");
        assert_eq!(doomed.status.as_str(), "failed");
        let error = doomed.error.expect("failure must be explained");
        assert!(error.contains("injected fault"), "got: {error}");
        assert!(error.contains("server.dispatch"), "got: {error}");

        // Disarmed, the same (sole) worker completes jobs normally: the
        // panic poisoned neither the pool nor the cache.
        for id in ["after-1", "after-2"] {
            server.handle(Request::Submit(Box::new(sim_spec(id))));
            let r = next_result(&rx);
            assert_eq!(r.id, id);
            assert_eq!(r.status.as_str(), "done", "{:?}", r.error);
        }
        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.finished(), stats.submitted, "a job went missing");
    }

    #[test]
    fn respond_fault_degrades_the_body_but_loses_no_job() {
        let _gate = lock();
        disarm_all();
        let (server, rx) = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });

        // Every terminal response path faults. The fallback still
        // delivers one terminal line per job — same identity and
        // status, payload stripped, the degradation named.
        arm("server.respond", Action::Err);
        for id in ["a", "b", "c"] {
            server.handle(Request::Submit(Box::new(sim_spec(id))));
        }
        let mut degraded = 0;
        for _ in 0..3 {
            let r = next_result(&rx);
            assert_eq!(r.status.as_str(), "done");
            assert!(r.result.is_none(), "degraded response must strip payload");
            assert!(r.report.is_none());
            let error = r.error.expect("degradation must be named");
            assert!(error.contains("response degraded"), "got: {error}");
            degraded += 1;
        }
        disarm_all();
        assert_eq!(degraded, 3);

        // Even a *panic* inside the respond faultpoint is contained by
        // the fallback path.
        arm("server.respond", Action::Panic);
        server.handle(Request::Submit(Box::new(sim_spec("d"))));
        let r = next_result(&rx);
        disarm_all();
        assert_eq!(r.id, "d");
        assert!(r.error.expect("named").contains("response degraded"));

        // Disarmed, responses come back whole.
        server.handle(Request::Submit(Box::new(sim_spec("e"))));
        let r = next_result(&rx);
        assert_eq!(r.id, "e");
        assert!(r.result.is_some(), "healthy response must carry a payload");
        assert!(r.report.is_some());

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.degraded_responses, 4);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.finished(), stats.submitted, "a job went missing");
    }

    #[test]
    fn progress_fault_drops_frames_but_every_job_stays_terminal() {
        let _gate = lock();
        disarm_all();
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });

        // Every progress emission faults. Streaming is best-effort:
        // the frames vanish, but the exactly-one-terminal-response
        // invariant is untouchable — each long job still answers once.
        arm("server.progress", Action::Err);
        let long = |id: &str| {
            let mut spec = sim_spec(id);
            spec.params.vectors = 4_096;
            spec.params.repeat = 4;
            spec
        };
        for id in ["p1", "p2"] {
            server.handle(Request::Submit(Box::new(long(id))));
        }
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while seen.len() < 2 {
            assert!(Instant::now() < deadline, "no terminal response");
            match rx
                .recv_timeout(Duration::from_secs(60))
                .expect("response stream")
            {
                Response::Result(r) => seen.push(*r),
                Response::Progress(p) => {
                    panic!("armed progress fault must drop frames, got {:?}", p.frame)
                }
                _ => {}
            }
        }
        disarm_all();
        for r in &seen {
            assert_eq!(r.status.as_str(), "done", "{:?}", r.error);
            // Offline reconstruction survives the dropped stream: the
            // terminal line still carries its trace and timeline.
            assert_eq!(r.trace.len(), 16);
            assert!(r.timeline.is_some());
        }

        // A panic inside the emission path is likewise contained.
        arm("server.progress", Action::Panic);
        server.handle(Request::Submit(Box::new(long("p3"))));
        let r = next_result(&rx);
        disarm_all();
        assert_eq!(r.id, "p3");
        assert_eq!(r.status.as_str(), "done", "{:?}", r.error);

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.finished(), stats.submitted, "a job went missing");
    }

    #[test]
    fn job_timing_out_mid_run_keeps_the_phases_it_ran() {
        let _gate = lock();
        disarm_all();
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });

        // Placing the one trojan stalls past the deadline. The pipeline
        // still ends (insertion keeps an instance it has placed), and
        // the budget check before the detection tail times the job out.
        arm(
            "insert.instance",
            Action::Delay(Duration::from_millis(1_000)),
        );
        let spec = JobSpec {
            kind: JobKind::Detect,
            deadline_ms: Some(500),
            params: JobParams {
                vectors: 512,
                theta: 0.3,
                tests: 64,
                ..JobParams::default()
            },
            ..sim_spec("late")
        };
        server.handle(Request::Submit(Box::new(spec)));
        let r = next_result(&rx);
        disarm_all();
        assert_eq!(r.status.as_str(), "timeout", "{:?}", r.error);
        // Its timeline lists the pipeline phases that finished.
        let timeline = r.timeline.expect("a timeline of the phases that ran");
        let phases: Vec<&str> = timeline
            .get("phases")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.get("phase").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            phases,
            [
                "preprocess",
                "rare_extraction",
                "compat_graph",
                "clique_enumeration",
                "insertion",
                "validation"
            ]
        );

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.finished(), stats.submitted, "a job went missing");
    }

    fn journal_config(tag: &str) -> htforge::server::JournalConfig {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "htforge_chaos_journal_{tag}_{}_{}.wal",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&path);
        htforge::server::JournalConfig::new(path)
    }

    #[test]
    fn journal_append_fault_keeps_every_job_terminal() {
        let _gate = lock();
        disarm_all();
        let jc = journal_config("append_err");
        let errors = htforge::obs::counter("server.journal_append_errors");
        let before = errors.get();
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            journal: Some(jc.clone()),
            ..ServerConfig::default()
        });

        // Every journal append faults. Durability degrades (the crash
        // guarantee is gone until the fault clears) but the live path
        // must not: jobs are accepted, run, and answer exactly once.
        arm("server.journal_append", Action::Err);
        for id in ["j1", "j2", "j3"] {
            server.handle(Request::Submit(Box::new(sim_spec(id))));
        }
        let mut done = 0;
        for _ in 0..3 {
            let r = next_result(&rx);
            assert_eq!(r.status.as_str(), "done", "{:?}", r.error);
            done += 1;
        }
        disarm_all();
        assert_eq!(done, 3);
        assert!(
            errors.get() > before,
            "failed appends must be counted, not silent"
        );

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.finished(), stats.submitted, "a job went missing");
        let _ = std::fs::remove_file(&jc.path);
    }

    #[test]
    fn journal_replay_panic_restarts_on_a_fresh_segment() {
        let _gate = lock();
        disarm_all();
        let jc = journal_config("replay_panic");
        // Seed a real segment with an accepted-but-unfinished job, the
        // shape a crashed daemon leaves behind.
        {
            let (mut journal, _) = htforge::server::Journal::open(jc.clone()).unwrap();
            journal
                .append(&htforge::server::JournalEvent::Submit(Box::new(sim_spec(
                    "orphan",
                ))))
                .unwrap();
        }

        // Replay panics. Availability wins: the daemon starts on a
        // fresh segment, flags the failure, and still serves jobs.
        arm("server.journal_replay", Action::Panic);
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            journal: Some(jc.clone()),
            ..ServerConfig::default()
        });
        disarm_all();
        let recovery = server.recovery();
        assert!(recovery.enabled);
        assert!(recovery.replay_failed, "injected panic must be flagged");
        assert_eq!(recovery.recovered_jobs, 0);

        server.handle(Request::Submit(Box::new(sim_spec("alive"))));
        let r = next_result(&rx);
        assert_eq!(r.id, "alive");
        assert_eq!(r.status.as_str(), "done", "{:?}", r.error);

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.completed, 1);
        let _ = std::fs::remove_file(&jc.path);
    }

    #[test]
    fn accept_fault_sheds_with_a_structured_rejection() {
        let _gate = lock();
        disarm_all();
        let (server, rx) = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });

        // The accept path faults: the submit is shed with a structured
        // rejection — never a dropped connection, never a ghost job.
        arm("server.accept", Action::Err);
        server.handle(Request::Submit(Box::new(sim_spec("shed"))));
        let resp = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("response stream");
        disarm_all();
        match resp {
            Response::Reject {
                id, reason, error, ..
            } => {
                assert_eq!(id, "shed");
                assert_eq!(reason, "accept_fault");
                assert!(error.contains("injected"), "got: {error}");
            }
            other => panic!("expected a reject line, got {other:?}"),
        }

        // Disarmed, the same id is accepted — a rejected submit left
        // no tombstone behind.
        server.handle(Request::Submit(Box::new(sim_spec("shed"))));
        let r = next_result(&rx);
        assert_eq!(r.id, "shed");
        assert_eq!(r.status.as_str(), "done", "{:?}", r.error);

        server.request_shutdown(false);
        let stats = server.join();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 1, "rejected submits must not count");
    }
}

#[test]
fn podem_panic_reaches_the_ndatpg_caller_with_its_payload() {
    use htforge::detect::{DetectionScheme, NdAtpgDetection};
    let _gate = lock();
    disarm_all();
    let nl = htforge::circuits::load("c432").unwrap();
    let profile = htforge::sim::PatternSet::random(nl.inputs().len(), 10_000, 1);
    let rare = htforge::sim::RareNodeExtractor::new(0.2)
        .extract(&nl, &profile)
        .unwrap();
    assert!(rare.len() >= 2, "every worker needs an event");
    // The first PODEM search on every worker (two on a 2-vCPU host)
    // panics; the caller must see the injected payload, not the scope's
    // generic "a scoped thread panicked".
    arm("podem.generate", Action::Panic);
    let outcome = htforge::obs::isolate("ndatpg", || {
        NdAtpgDetection::new(2, 1).generate_tests(&nl, &rare)
    });
    disarm_all();
    let err = outcome.expect_err("the injected panic must reach the caller");
    assert!(err.contains("injected fault"), "got: {err}");
}

#[test]
fn detect_campaign_survives_an_injected_grading_panic() {
    let _gate = lock();
    disarm_all();
    let nl = htforge::circuits::load("c17").unwrap();
    let outcome = InsertionFramework::new(c17_config())
        .run(&nl)
        .expect("c17 insertion works");
    let tests = htforge::sim::PatternSet::random(nl.inputs().len(), 256, 9);
    let evaluator = htforge::detect::CoverageEvaluator::new(&nl).unwrap();
    arm("detect.design", Action::Panic);
    let report = evaluator.evaluate(&outcome.infected, &tests);
    disarm_all();
    // Every design's grading panicked; each is isolated to a negative
    // verdict rather than killing the evaluation.
    let report = report.expect("evaluation must survive");
    assert_eq!(report.total(), outcome.infected.len());
    assert_eq!(report.triggered(), 0);
    assert_eq!(report.detected(), 0);
}
