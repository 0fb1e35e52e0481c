//! Streamed job progress: `htforge.job_progress/v1` frames on the
//! response channel, interleaved before the terminal result.
//!
//! A [`ProgressEmitter`] is created per running job and shared with the
//! worker's span hook, so pipeline phases observed inside the insertion
//! framework stream out live without the framework knowing about the
//! server. Emission is **best-effort by construction**: every frame
//! passes through the `server.progress` faultpoint inside [`isolate()`],
//! and any injected fault (or panic) drops *that frame* — counted in
//! `server.progress_dropped` — while the job and its terminal response
//! proceed untouched. The exactly-one-terminal-response invariant never
//! depends on the progress path.

use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use htforge_obs::{faultpoint, isolate, ProgressFrame, SpanEvent, SpanHook};

use crate::protocol::{JobKind, JobProgress, Response};

/// The insertion-pipeline phase spans streamed as progress frames, in
/// execution order (the span hook ignores every other span name).
pub const PIPELINE_PHASES: &[&str] = &[
    "preprocess",
    "rare_extraction",
    "compat_graph",
    "clique_enumeration",
    "insertion",
    "validation",
];

/// Minimum spacing between `percent` frames for one job, so a tight
/// chunk loop cannot flood the response stream.
const PERCENT_INTERVAL: Duration = Duration::from_millis(250);

/// Per-job progress frame source. Cheap to share (`Arc`) between the
/// executor and the worker's span hook.
#[derive(Debug)]
pub struct ProgressEmitter {
    /// `None` = progress disabled (config off, or a detached test
    /// executor): every emit is a no-op.
    tx: Option<Sender<Response>>,
    tenant: String,
    id: String,
    kind: JobKind,
    trace: String,
    started: Instant,
    /// Staged-budget weights `(phase, weight)` for this job's circuit
    /// class; drives phase-boundary ETAs. Empty for unstaged kinds.
    weights: Vec<(String, f64)>,
    last_percent: Mutex<Option<Instant>>,
}

impl ProgressEmitter {
    /// An emitter streaming frames for one job onto `tx`.
    #[must_use]
    pub fn new(
        tx: Sender<Response>,
        tenant: String,
        id: String,
        kind: JobKind,
        trace: String,
        weights: Vec<(String, f64)>,
    ) -> Self {
        ProgressEmitter {
            tx: Some(tx),
            tenant,
            id,
            kind,
            trace,
            started: Instant::now(),
            weights,
            // The window starts at construction: a job that finishes
            // inside one interval emits no interim percent frames at
            // all — on a single-core host every frame is a context
            // switch stolen from the worker.
            last_percent: Mutex::new(Some(Instant::now())),
        }
    }

    /// An emitter that drops everything (progress disabled, and direct
    /// [`execute`](crate::execute) calls in tests).
    #[must_use]
    pub fn disabled() -> Self {
        ProgressEmitter {
            tx: None,
            tenant: String::new(),
            id: String::new(),
            kind: JobKind::Simulate,
            trace: String::new(),
            started: Instant::now(),
            weights: Vec::new(),
            last_percent: Mutex::new(None),
        }
    }

    /// Whether frames can reach a client at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.tx.is_some()
    }

    /// Streams a phase-entered frame, with an ETA extrapolated from the
    /// staged-budget weights when this phase is a staged one and some
    /// weighted work is already behind us.
    pub fn phase_enter(&self, phase: &str) {
        let mut frame = ProgressFrame::event(phase, "enter");
        frame.eta_ms = self.staged_eta(phase);
        self.emit(frame);
    }

    /// Streams a phase-completed frame carrying the phase duration.
    pub fn phase_complete(&self, phase: &str, dur_ms: f64) {
        let mut frame = ProgressFrame::event(phase, "complete");
        frame.detail = Some(format!("{dur_ms:.3} ms"));
        self.emit(frame);
    }

    /// Streams a percent-done frame, rate-limited to one per
    /// `PERCENT_INTERVAL` (the first window opens at construction);
    /// the ETA extrapolates the job's own elapsed time.
    /// `percent == 100` always goes out (completion edge).
    pub fn percent(&self, phase: &str, percent: f64) {
        if self.tx.is_none() {
            return;
        }
        let now = Instant::now();
        {
            let mut last = self.last_percent.lock().unwrap();
            let throttled =
                last.is_some_and(|t| now.duration_since(t) < PERCENT_INTERVAL) && percent < 100.0;
            if throttled {
                return;
            }
            *last = Some(now);
        }
        let mut frame = ProgressFrame::event(phase, "progress");
        frame.percent = Some(percent.clamp(0.0, 100.0));
        if percent > 0.0 && percent < 100.0 {
            let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
            frame.eta_ms = Some(elapsed_ms * (100.0 - percent) / percent);
        }
        self.emit(frame);
    }

    /// Streams a degradation note as it is taken.
    pub fn degraded(&self, phase: &str, detail: &str) {
        let mut frame = ProgressFrame::event(phase, "degraded");
        frame.detail = Some(detail.to_owned());
        self.emit(frame);
    }

    /// ETA for entering `phase`: remaining staged weight scaled by the
    /// observed pace of the completed weight.
    fn staged_eta(&self, phase: &str) -> Option<f64> {
        let idx = self.weights.iter().position(|(p, _)| p == phase)?;
        let done: f64 = self.weights[..idx].iter().map(|(_, w)| w).sum();
        let remaining: f64 = self.weights[idx..].iter().map(|(_, w)| w).sum();
        if done <= 0.0 {
            return None;
        }
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
        Some(elapsed_ms * remaining / done)
    }

    /// Sends one frame through the `server.progress` faultpoint. An
    /// injected error or panic drops the frame (counted), never the
    /// job.
    fn emit(&self, frame: ProgressFrame) {
        let Some(tx) = &self.tx else { return };
        let pass = isolate("server.progress", || !faultpoint::fire("server.progress"));
        if pass != Ok(true) {
            htforge_obs::counter("server.progress_dropped").incr();
            return;
        }
        let _ = tx.send(Response::Progress(Box::new(JobProgress {
            tenant: self.tenant.clone(),
            id: self.id.clone(),
            kind: self.kind,
            trace: self.trace.clone(),
            frame: frame.to_json(),
        })));
    }

    /// A span hook streaming the [`PIPELINE_PHASES`] spans as
    /// enter/complete frames; install on the worker thread for the
    /// duration of the job.
    #[must_use]
    pub fn span_hook(self: &Arc<Self>) -> SpanHook {
        let emitter = Arc::clone(self);
        Arc::new(move |name: &str, event: SpanEvent| {
            if !PIPELINE_PHASES.contains(&name) {
                return;
            }
            match event {
                SpanEvent::Enter => emitter.phase_enter(name),
                SpanEvent::Exit(dur) => {
                    emitter.phase_complete(name, dur.as_secs_f64() * 1e3);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_obs::faultpoint::Action;
    use std::sync::mpsc;

    fn emitter(tx: Sender<Response>) -> Arc<ProgressEmitter> {
        Arc::new(ProgressEmitter::new(
            tx,
            "t".into(),
            "j".into(),
            JobKind::Insert,
            "00000000deadbeef".into(),
            vec![
                ("rare_extraction".into(), 0.25),
                ("compat_graph".into(), 0.52),
                ("clique_enumeration".into(), 0.14),
                ("insertion".into(), 0.09),
            ],
        ))
    }

    fn recv_frame(rx: &mpsc::Receiver<Response>) -> JobProgress {
        match rx.try_recv().expect("a frame") {
            Response::Progress(p) => *p,
            other => panic!("expected progress, got {other:?}"),
        }
    }

    #[test]
    fn frames_are_schema_valid_and_carry_identity() {
        let (tx, rx) = mpsc::channel();
        let e = emitter(tx);
        e.phase_enter("rare_extraction");
        e.phase_complete("rare_extraction", 12.5);
        e.degraded("clique_enumeration", "sampled 100 of 5000");
        for _ in 0..3 {
            let p = recv_frame(&rx);
            assert_eq!(p.tenant, "t");
            assert_eq!(p.trace, "00000000deadbeef");
            htforge_obs::validate_job_progress(&p.frame).unwrap();
        }
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn staged_eta_appears_once_weighted_work_is_behind() {
        let (tx, rx) = mpsc::channel();
        let e = emitter(tx);
        // First staged phase: nothing completed yet, no ETA to give.
        e.phase_enter("rare_extraction");
        assert!(recv_frame(&rx).frame.get("eta_ms").is_none());
        // Later phase: 0.25 of the weight is behind us, ETA present.
        std::thread::sleep(Duration::from_millis(5));
        e.phase_enter("compat_graph");
        let frame = recv_frame(&rx).frame;
        let eta = frame.get("eta_ms").unwrap().as_f64().unwrap();
        assert!(eta > 0.0, "{frame:?}");
    }

    #[test]
    fn percent_frames_are_rate_limited_but_100_gets_through() {
        let (tx, rx) = mpsc::channel();
        let e = emitter(tx);
        for i in 0..50 {
            e.percent("simulate", f64::from(i));
        }
        e.percent("simulate", 100.0);
        let frames: Vec<Response> = rx.try_iter().collect();
        // The window opens at construction, so everything below 100%
        // falls inside it; only the 100% completion edge must pass.
        assert!(frames.len() <= 2, "flooded: {} frames", frames.len());
        assert!(!frames.is_empty(), "100% must always pass");
        let Some(Response::Progress(last)) = frames.last() else {
            panic!("expected progress frames");
        };
        assert_eq!(last.frame.get("percent").unwrap().as_f64(), Some(100.0));
    }

    #[test]
    fn injected_progress_fault_drops_frames_not_the_channel() {
        let (tx, rx) = mpsc::channel();
        let e = emitter(tx);
        let dropped = htforge_obs::counter("server.progress_dropped");
        let before = dropped.get();
        faultpoint::arm("server.progress", Action::Err);
        e.phase_enter("rare_extraction");
        faultpoint::disarm_all();
        assert!(rx.try_recv().is_err(), "faulted frame must not be sent");
        assert_eq!(dropped.get(), before + 1);
        // The emitter keeps working after the fault clears.
        e.phase_enter("compat_graph");
        assert_eq!(
            recv_frame(&rx).frame.get("phase").unwrap().as_str(),
            Some("compat_graph")
        );
    }

    #[test]
    fn disabled_emitter_is_inert() {
        let e = ProgressEmitter::disabled();
        assert!(!e.is_enabled());
        e.phase_enter("rare_extraction");
        e.percent("simulate", 50.0);
        e.degraded("insertion", "x");
    }
}
