//! Job execution: one function per [`JobKind`], each budget-aware.
//!
//! Every executor takes the job's [`RunBudget`] and checks it at phase
//! (or chunk) boundaries, so a cross-thread cancel or an expired
//! deadline turns into a terminal `cancelled`/`timeout` response in
//! bounded time instead of a wedged worker. Results carry a
//! platform-stable FNV-1a digest so the concurrency differential suite
//! can assert concurrent ≡ sequential byte-for-byte.

use std::time::Instant;

use htforge_atpg::{all_faults, fault_simulate};
use htforge_core::{
    InsertionConfig, InsertionError, InsertionFramework, InsertionOutcome, PayloadKind,
    PhaseTimings,
};
use htforge_detect::{
    CoverageEvaluator, DetectionScheme, MeroDetection, NdAtpgDetection, RandomDetection,
};
use htforge_netlist::bench;
use htforge_obs::{BudgetExceeded, DegradationNote, Json, RunBudget};
use htforge_sim::PatternSet;

use crate::cache::{CompiledCircuit, ProgramCache};
use crate::progress::ProgressEmitter;
use crate::protocol::{fnv1a, fnv1a_word, JobKind, JobSpec, JobStatus};

/// Patterns per simulate chunk: small enough that the inter-chunk
/// budget check keeps cancellation latency in the low milliseconds on
/// the benchmark circuits, large enough to amortize kernel dispatch.
pub const SIM_CHUNK: usize = 4096;

/// Everything the core needs to respond to one executed job.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Terminal verdict.
    pub status: JobStatus,
    /// Kind-specific payload (`status == Done`).
    pub result: Option<Json>,
    /// Failure/cancel/timeout detail.
    pub error: Option<String>,
    /// Degradation notes taken under budget pressure.
    pub degradations: Vec<DegradationNote>,
    /// Job-scoped counters for the per-job run report.
    pub counters: Vec<(String, u64)>,
    /// Observed `(phase, dur_ms)` pairs in execution order — the
    /// terminal response's `htforge.job_timeline/v1` and the report's
    /// per-phase child spans.
    pub phases: Vec<(String, f64)>,
}

impl ExecOutcome {
    fn done(result: Json) -> Self {
        ExecOutcome {
            status: JobStatus::Done,
            result: Some(result),
            error: None,
            degradations: Vec::new(),
            counters: Vec::new(),
            phases: Vec::new(),
        }
    }

    fn terminal(status: JobStatus, error: impl Into<String>) -> Self {
        ExecOutcome {
            status,
            result: None,
            error: Some(error.into()),
            degradations: Vec::new(),
            counters: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// A `failed` outcome minted by the dispatch path (injected
    /// faults, compile errors, isolated panics).
    #[must_use]
    pub fn dispatch_failure(error: String) -> Self {
        ExecOutcome::terminal(JobStatus::Failed, error)
    }

    fn budget(e: BudgetExceeded) -> Self {
        match e {
            BudgetExceeded::Deadline => {
                ExecOutcome::terminal(JobStatus::Timeout, "deadline expired")
            }
            BudgetExceeded::Cancelled => ExecOutcome::terminal(JobStatus::Cancelled, "cancelled"),
        }
    }
}

/// Runs `job` on its compiled circuit, streaming progress frames as
/// phases advance. Never panics out (panics are the caller's `isolate`
/// responsibility); every budget trip maps to a `Timeout`/`Cancelled`
/// outcome.
#[must_use]
pub fn execute(
    job: &JobSpec,
    circuit: &CompiledCircuit,
    cache: &ProgramCache,
    budget: &RunBudget,
    progress: &ProgressEmitter,
) -> ExecOutcome {
    let mut outcome = match job.kind {
        JobKind::Simulate => exec_simulate(job, circuit, budget, progress),
        JobKind::Insert => exec_insert(job, circuit, budget),
        JobKind::Grade => exec_grade(job, circuit, cache, budget, progress),
        JobKind::Detect => exec_detect(job, circuit, cache, budget, progress),
    };
    // Degradation decisions surface as frames before the terminal
    // response (insertion collects them internally, so "as they
    // happen" is the moment the pipeline hands them back).
    for note in &outcome.degradations {
        progress.degraded(&note.phase, &format!("{}: {}", note.action, note.detail));
    }
    outcome.phases.retain(|(_, dur)| *dur >= 0.0);
    outcome
}

/// The insertion pipeline's timings as ordered `(phase, dur_ms)` pairs.
fn timing_phases(t: &PhaseTimings) -> Vec<(String, f64)> {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    vec![
        ("preprocess".to_owned(), ms(t.preprocess)),
        ("rare_extraction".to_owned(), ms(t.rare_extraction)),
        ("compat_graph".to_owned(), ms(t.compat_graph)),
        ("clique_enumeration".to_owned(), ms(t.clique_enumeration)),
        ("insertion".to_owned(), ms(t.insertion)),
        ("validation".to_owned(), ms(t.validation)),
    ]
}

/// Chunked bit-parallel simulation over `repeat × vectors` random
/// patterns, digesting the primary-output columns. The pattern buffer
/// is truncated and refilled per chunk (the `PatternSet` reuse path the
/// tail-masking hardening pins), and the digest is independent of
/// chunking because each chunk's seed derives from its global index.
fn exec_simulate(
    job: &JobSpec,
    circuit: &CompiledCircuit,
    budget: &RunBudget,
    progress: &ProgressEmitter,
) -> ExecOutcome {
    let p = &job.params;
    let total = p.vectors.saturating_mul(p.repeat);
    let num_inputs = circuit.comb.inputs().len();
    let mut buf = PatternSet::zeros(num_inputs, 0);
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, circuit.label.as_bytes());
    let mut ones: u64 = 0;
    let mut chunks: u64 = 0;
    let mut done = 0usize;
    let phase_start = Instant::now();
    progress.phase_enter("simulate");
    while done < total {
        if let Err(e) = budget.check() {
            return ExecOutcome::budget(e);
        }
        let chunk = SIM_CHUNK.min(total - done);
        buf.truncate(0);
        buf.fill_random(chunk, p.seed.wrapping_add(chunks));
        let values = circuit.sim.run(&buf);
        let tail = PatternSet::tail_mask(chunk);
        for &out in circuit.comb.outputs() {
            let words = values.words(out);
            for (w, &word) in words.iter().enumerate() {
                let word = if w + 1 == words.len() {
                    word & tail
                } else {
                    word
                };
                digest = fnv1a_word(digest, word);
                ones += u64::from(word.count_ones());
            }
        }
        done += chunk;
        chunks += 1;
        // No percent frame for the final chunk: `phase_complete`
        // follows immediately and says the same thing in one send.
        if done < total {
            progress.percent("simulate", done as f64 / total.max(1) as f64 * 100.0);
        }
    }
    let dur_ms = phase_start.elapsed().as_secs_f64() * 1e3;
    progress.phase_complete("simulate", dur_ms);
    let mut out = ExecOutcome::done(Json::obj(vec![
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("vectors", Json::Num(total as f64)),
        ("output_ones", Json::Num(ones as f64)),
    ]));
    out.counters = vec![
        ("server.sim_chunks".to_owned(), chunks),
        ("server.sim_vectors".to_owned(), total as u64),
    ];
    out.phases = vec![("simulate".to_owned(), dur_ms)];
    out
}

fn framework_for(job: &JobSpec) -> InsertionFramework {
    let p = &job.params;
    InsertionFramework::new(InsertionConfig {
        theta: p.theta,
        num_vectors: p.vectors,
        trigger_nodes: p.trigger_nodes,
        num_instances: p.instances,
        seed: p.seed,
        payload_kind: PayloadKind::Flip,
        ..InsertionConfig::default()
    })
}

fn insertion_outcome(
    job: &JobSpec,
    circuit: &CompiledCircuit,
    budget: &RunBudget,
) -> Result<InsertionOutcome, Box<ExecOutcome>> {
    framework_for(job)
        .run_with_budget(&circuit.golden, budget)
        .map_err(|e| match e {
            InsertionError::Timeout { phase } => ExecOutcome::terminal(
                JobStatus::Timeout,
                format!("deadline expired in phase `{phase}`"),
            ),
            InsertionError::Cancelled => ExecOutcome::terminal(JobStatus::Cancelled, "cancelled"),
            other => ExecOutcome::terminal(JobStatus::Failed, other.to_string()),
        })
        .map_err(Box::new)
}

/// Digest of a set of infected designs: FNV over the written `.bench`
/// text of each, order-stable (insertion order is deterministic).
fn designs_digest(outcome: &InsertionOutcome) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for design in &outcome.infected {
        digest = fnv1a(digest, bench::write(&design.netlist).as_bytes());
    }
    digest
}

fn exec_insert(job: &JobSpec, circuit: &CompiledCircuit, budget: &RunBudget) -> ExecOutcome {
    let outcome = match insertion_outcome(job, circuit, budget) {
        Ok(o) => o,
        Err(terminal) => return *terminal,
    };
    let digest = designs_digest(&outcome);
    let mut out = ExecOutcome::done(Json::obj(vec![
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("instances", Json::Num(outcome.infected.len() as f64)),
        ("rare_nodes", Json::Num(outcome.rare_nodes.len() as f64)),
        (
            "graph_vertices",
            Json::Num(outcome.graph_stats.vertices as f64),
        ),
        ("graph_edges", Json::Num(outcome.graph_stats.edges as f64)),
        ("cliques", Json::Num(outcome.graph_stats.cliques as f64)),
    ]));
    out.degradations = outcome.degradations;
    out.counters = vec![(
        "server.insert_instances".to_owned(),
        outcome.infected.len() as u64,
    )];
    out.phases = timing_phases(&outcome.timings);
    out
}

fn scheme_for(job: &JobSpec) -> Box<dyn DetectionScheme> {
    let p = &job.params;
    match p.scheme.as_str() {
        "mero" => Box::new(MeroDetection::new(p.tests, 2_500, p.seed)),
        "ndatpg" => Box::new(NdAtpgDetection::new(p.tests, p.seed)),
        // The parser admits exactly these three names.
        _ => Box::new(RandomDetection::new(p.tests, p.seed)),
    }
}

/// Times one grade/detect sub-phase, streaming enter/complete frames
/// and appending to the phases list.
fn timed_phase<T>(
    progress: &ProgressEmitter,
    phases: &mut Vec<(String, f64)>,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    progress.phase_enter(name);
    let start = Instant::now();
    let value = f();
    let dur_ms = start.elapsed().as_secs_f64() * 1e3;
    progress.phase_complete(name, dur_ms);
    phases.push((name.to_owned(), dur_ms));
    value
}

fn exec_grade(
    job: &JobSpec,
    circuit: &CompiledCircuit,
    cache: &ProgramCache,
    budget: &RunBudget,
    progress: &ProgressEmitter,
) -> ExecOutcome {
    let p = &job.params;
    let mut phases = Vec::new();
    if let Err(e) = budget.check() {
        return ExecOutcome::budget(e);
    }
    let rare = timed_phase(progress, &mut phases, "rare_profile", || {
        cache.rare_profile(circuit, p.theta, p.vectors, p.seed)
    });
    let scheme = scheme_for(job);
    let tests = match timed_phase(progress, &mut phases, "test_generation", || {
        scheme.generate_tests(&circuit.comb, &rare)
    }) {
        Ok(t) => t,
        Err(e) => return ExecOutcome::terminal(JobStatus::Failed, e.to_string()),
    };
    if let Err(e) = budget.check() {
        return ExecOutcome::budget(e);
    }
    let report = timed_phase(progress, &mut phases, "fault_simulation", || {
        let faults = all_faults(&circuit.comb);
        fault_simulate(&circuit.sim, &circuit.comb, &faults, &tests)
    });
    let mut out = ExecOutcome::done(Json::obj(vec![
        ("scheme", Json::Str(scheme.name().to_owned())),
        ("tests", Json::Num(tests.len() as f64)),
        ("faults", Json::Num(report.total() as f64)),
        ("detected", Json::Num(report.detected() as f64)),
        ("coverage_pct", Json::Num(report.coverage())),
    ]));
    out.counters = vec![("server.grade_tests".to_owned(), tests.len() as u64)];
    out.phases = phases;
    out
}

/// Self-contained insert-then-evaluate: inserts `instances` trojans and
/// grades the chosen detection scheme's TC/DC against them.
fn exec_detect(
    job: &JobSpec,
    circuit: &CompiledCircuit,
    cache: &ProgramCache,
    budget: &RunBudget,
    progress: &ProgressEmitter,
) -> ExecOutcome {
    let p = &job.params;
    let outcome = match insertion_outcome(job, circuit, budget) {
        Ok(o) => o,
        Err(terminal) => return *terminal,
    };
    let mut phases = timing_phases(&outcome.timings);
    if let Err(e) = budget.check() {
        return ExecOutcome::budget(e);
    }
    let rare = timed_phase(progress, &mut phases, "rare_profile", || {
        cache.rare_profile(circuit, p.theta, p.vectors, p.seed)
    });
    let scheme = scheme_for(job);
    let tests = match timed_phase(progress, &mut phases, "test_generation", || {
        scheme.generate_tests(&circuit.comb, &rare)
    }) {
        Ok(t) => t,
        Err(e) => return ExecOutcome::terminal(JobStatus::Failed, e.to_string()),
    };
    if let Err(e) = budget.check() {
        return ExecOutcome::budget(e);
    }
    let report = match timed_phase(progress, &mut phases, "evaluation", || {
        CoverageEvaluator::new(&circuit.golden)?.evaluate(&outcome.infected, &tests)
    }) {
        Ok(r) => r,
        Err(e) => return ExecOutcome::terminal(JobStatus::Failed, e.to_string()),
    };
    let digest = designs_digest(&outcome);
    let mut out = ExecOutcome::done(Json::obj(vec![
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("scheme", Json::Str(scheme.name().to_owned())),
        ("instances", Json::Num(outcome.infected.len() as f64)),
        ("tests", Json::Num(tests.len() as f64)),
        ("triggered", Json::Num(report.triggered() as f64)),
        ("detected", Json::Num(report.detected() as f64)),
        ("trigger_coverage_pct", Json::Num(report.trigger_coverage())),
        (
            "detection_coverage_pct",
            Json::Num(report.detection_coverage()),
        ),
    ]));
    out.degradations = outcome.degradations;
    out.counters = vec![(
        "server.detect_instances".to_owned(),
        outcome.infected.len() as u64,
    )];
    out.phases = phases;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CircuitSource, JobParams};
    use htforge_obs::CancelToken;

    fn compiled(name: &str) -> (ProgramCache, std::sync::Arc<CompiledCircuit>) {
        let cache = ProgramCache::new();
        let (c, _) = cache
            .get_or_compile(&CircuitSource::Builtin(name.into()))
            .unwrap();
        (cache, c)
    }

    fn job(kind: JobKind, params: JobParams) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            id: "j".into(),
            kind,
            circuit: CircuitSource::Builtin("c17".into()),
            priority: 0,
            deadline_ms: None,
            params,
        }
    }

    #[test]
    fn simulate_digest_is_chunking_independent_and_deterministic() {
        let (cache, c17) = compiled("c17");
        let budget = RunBudget::unlimited();
        // 1 × 6000 and 3 × 2000 produce the same pattern stream (the
        // chunk seed derives from the global chunk index over the
        // repeat-expanded total), so the digests must coincide.
        let one = job(
            JobKind::Simulate,
            JobParams {
                vectors: 6000,
                ..JobParams::default()
            },
        );
        let repeated = job(
            JobKind::Simulate,
            JobParams {
                vectors: 2000,
                repeat: 3,
                ..JobParams::default()
            },
        );
        let a = execute(&one, &c17, &cache, &budget, &ProgressEmitter::disabled());
        let b = execute(
            &repeated,
            &c17,
            &cache,
            &budget,
            &ProgressEmitter::disabled(),
        );
        assert_eq!(a.status, JobStatus::Done);
        assert_eq!(
            a.result.as_ref().unwrap().get("digest"),
            b.result.as_ref().unwrap().get("digest")
        );
        let other_seed = job(
            JobKind::Simulate,
            JobParams {
                vectors: 6000,
                seed: 2,
                ..JobParams::default()
            },
        );
        let c = execute(
            &other_seed,
            &c17,
            &cache,
            &budget,
            &ProgressEmitter::disabled(),
        );
        assert_ne!(
            a.result.as_ref().unwrap().get("digest"),
            c.result.as_ref().unwrap().get("digest")
        );
    }

    #[test]
    fn cancelled_budget_yields_cancelled_status() {
        let (cache, c17) = compiled("c17");
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::new(None, token);
        let spec = job(JobKind::Simulate, JobParams::default());
        let out = execute(&spec, &c17, &cache, &budget, &ProgressEmitter::disabled());
        assert_eq!(out.status, JobStatus::Cancelled);
        assert!(out.result.is_none());
    }

    #[test]
    fn grade_and_detect_report_coverage() {
        let (cache, c17) = compiled("c17");
        let budget = RunBudget::unlimited();
        let params = JobParams {
            vectors: 512,
            theta: 0.3,
            tests: 64,
            ..JobParams::default()
        };
        let g = execute(
            &job(JobKind::Grade, params.clone()),
            &c17,
            &cache,
            &budget,
            &ProgressEmitter::disabled(),
        );
        assert_eq!(g.status, JobStatus::Done, "{:?}", g.error);
        let result = g.result.unwrap();
        assert!(result.get("coverage_pct").unwrap().as_f64().unwrap() > 0.0);

        let d = execute(
            &job(JobKind::Detect, params),
            &c17,
            &cache,
            &budget,
            &ProgressEmitter::disabled(),
        );
        assert_eq!(d.status, JobStatus::Done, "{:?}", d.error);
        let result = d.result.unwrap();
        assert_eq!(result.get("instances").unwrap().as_f64(), Some(1.0));
        // Grade + detect shared one rare profile through the cache.
        assert_eq!(cache.stats().rare_misses, 1);
        assert!(cache.stats().rare_hits >= 1);
    }

    #[test]
    fn insert_is_deterministic_per_seed() {
        let (cache, c17) = compiled("c17");
        let budget = RunBudget::unlimited();
        let params = JobParams {
            vectors: 512,
            theta: 0.3,
            ..JobParams::default()
        };
        let spec = job(JobKind::Insert, params);
        let a = execute(&spec, &c17, &cache, &budget, &ProgressEmitter::disabled());
        let b = execute(&spec, &c17, &cache, &budget, &ProgressEmitter::disabled());
        assert_eq!(a.status, JobStatus::Done, "{:?}", a.error);
        assert_eq!(
            a.result.as_ref().unwrap().get("digest"),
            b.result.as_ref().unwrap().get("digest")
        );
    }
}
