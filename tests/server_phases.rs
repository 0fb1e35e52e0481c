//! Pins what a server job reports about its phases: the terminal
//! timeline's phase names in order, and the streamed progress frames as
//! `(phase, event)` pairs, for one job of every kind on c17 and s1423
//! at seed 1. None of these frames carries an ETA.

use std::sync::mpsc::Receiver;
use std::time::Duration;

use htforge::obs::Json;
use htforge::server::{
    CircuitSource, JobKind, JobParams, JobResult, JobSpec, Request, Response, Server, ServerConfig,
};

const PIPELINE: [&str; 6] = [
    "preprocess",
    "rare_extraction",
    "compat_graph",
    "clique_enumeration",
    "insertion",
    "validation",
];

fn spec(kind: JobKind, circuit: &str) -> JobSpec {
    JobSpec {
        tenant: "pin".into(),
        id: format!("{}-{circuit}", kind.as_str()),
        kind,
        circuit: CircuitSource::Builtin(circuit.into()),
        priority: 0,
        deadline_ms: None,
        params: JobParams {
            vectors: 512,
            theta: 0.3,
            tests: 64,
            seed: 1,
            ..JobParams::default()
        },
    }
}

/// Collects one job's progress frames up to and including its terminal
/// response.
fn run_one(server: &Server, rx: &Receiver<Response>, spec: JobSpec) -> (Vec<Json>, JobResult) {
    server.handle(Request::Submit(Box::new(spec)));
    let mut frames = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(60)).expect("response") {
            Response::Progress(p) => frames.push(p.frame),
            Response::Result(r) => return (frames, *r),
            _ => {}
        }
    }
}

fn timeline_phases(result: &JobResult) -> Vec<String> {
    let timeline = result.timeline.as_ref().expect("terminal timeline");
    timeline
        .get("phases")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.get("phase").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

fn field(frame: &Json, key: &str) -> String {
    frame.get(key).and_then(Json::as_str).unwrap().to_owned()
}

#[test]
fn every_job_kind_reports_its_phases_in_order() {
    let (server, rx) = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let expected: [(JobKind, Vec<&str>); 4] = [
        (JobKind::Simulate, vec!["simulate"]),
        (JobKind::Insert, PIPELINE.to_vec()),
        (
            JobKind::Grade,
            vec!["rare_profile", "test_generation", "fault_simulation"],
        ),
        (
            JobKind::Detect,
            [
                &PIPELINE[..],
                &["rare_profile", "test_generation", "evaluation"],
            ]
            .concat(),
        ),
    ];
    for circuit in ["c17", "s1423"] {
        for (kind, phases) in &expected {
            let (frames, result) = run_one(&server, &rx, spec(*kind, circuit));
            let what = format!("{kind:?} on {circuit}");
            assert_eq!(result.status.as_str(), "done", "{what}: {:?}", result.error);
            assert_eq!(&timeline_phases(&result), phases, "{what}: timeline");
            let events: Vec<(String, String)> = frames
                .iter()
                .map(|f| (field(f, "phase"), field(f, "event")))
                .collect();
            let expected_events: Vec<(String, String)> = phases
                .iter()
                .flat_map(|p| ["enter", "complete"].map(|e| ((*p).to_owned(), e.to_owned())))
                .collect();
            assert_eq!(events, expected_events, "{what}: progress frames");
            // Only percent frames estimate the time left.
            assert!(
                frames.iter().all(|f| f.get("eta_ms").is_none()),
                "{what}: a phase frame carries an ETA"
            );
        }
    }
    server.request_shutdown(false);
    server.join();
}
