//! The `detect` workload: one op is one (circuit, scheme) pair —
//! `generate_tests` on the scan-cut golden netlist, then TC/DC grading
//! of the designs inserted during set-up.
//!
//! Random, MERO and grading run on the simulation kernel with no PODEM;
//! ND-ATPG runs PODEM in detect mode, the same `atpg` layer `insert`
//! uses in justify mode. ND-ATPG stays on c2670 only: it takes about a
//! minute on c5315 and ten on c3540.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use htforge_atpg::{n_detect_cubes, Fault, PodemConfig};
use htforge_core::{InfectedDesign, InsertionConfig, InsertionFramework};
use htforge_detect::{
    CoverageEvaluator, CoverageReport, DetectionScheme, MeroDetection, NdAtpgDetection,
    RandomDetection,
};
use htforge_netlist::Netlist;
use htforge_obs::Json;
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet, Simulator};

use crate::metrics::Metric;
use crate::trace::Tracer;
use crate::{mix, stats, Outcome, RunConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Random,
    Mero,
    NdAtpg,
}

impl Scheme {
    fn gen_span(self) -> &'static str {
        match self {
            Scheme::Random => "detect.random_gen",
            Scheme::Mero => "detect.mero_gen",
            Scheme::NdAtpg => "detect.ndatpg_gen",
        }
    }

    fn tests_count(self) -> &'static str {
        match self {
            Scheme::Random => "detect.random_tests",
            Scheme::Mero => "detect.mero_tests",
            Scheme::NdAtpg => "detect.ndatpg_tests",
        }
    }
}

/// Inputs of one run.
struct Plan {
    circuits: &'static [(&'static str, &'static [Scheme])],
    trigger_nodes: usize,
    instances: usize,
    theta: f64,
    vectors: usize,
    random_vectors: usize,
    mero_n: usize,
    mero_seeds: usize,
    ndatpg_n: usize,
    /// Untraced and traced pass times on the reference host.
    pass_s: f64,
    traced_pass_s: f64,
    min_passes: usize,
    setups: usize,
}

impl Plan {
    fn new(smoke: bool) -> Self {
        use Scheme::{Mero, NdAtpg, Random};
        if smoke {
            Plan {
                circuits: &[("c17", &[Random, Mero, NdAtpg])],
                trigger_nodes: 2,
                instances: 1,
                theta: 0.3,
                vectors: 2_000,
                random_vectors: 1_000,
                mero_n: 2,
                mero_seeds: 200,
                ndatpg_n: 2,
                pass_s: 1.0,
                traced_pass_s: 1.0,
                min_passes: 1,
                setups: 2,
            }
        } else {
            Plan {
                circuits: &[
                    ("c2670", &[Random, Mero, NdAtpg]),
                    ("c7552", &[Random, Mero]),
                ],
                trigger_nodes: 4,
                instances: 8,
                theta: 0.2,
                vectors: 10_000,
                random_vectors: 10_000,
                mero_n: 5,
                mero_seeds: 2_500,
                ndatpg_n: 2,
                pass_s: 7.0,
                traced_pass_s: 17.0,
                // Five passes: 25 ops, the median in the middle of the
                // c2670/MERO runs and the tail rank 15 on the slowest of
                // them. Four would put the median between op classes.
                min_passes: 5,
                setups: 2,
            }
        }
    }

    fn scheme(&self, scheme: Scheme, seed: u64) -> Box<dyn DetectionScheme> {
        match scheme {
            Scheme::Random => Box::new(RandomDetection::new(self.random_vectors, seed)),
            Scheme::Mero => Box::new(MeroDetection::new(self.mero_n, self.mero_seeds, seed)),
            Scheme::NdAtpg => Box::new(NdAtpgDetection::new(self.ndatpg_n, seed)),
        }
    }
}

/// One graded circuit, prepared during set-up.
struct Target {
    comb: Netlist,
    rare: RareNodeSet,
    designs: Vec<InfectedDesign>,
    evaluator: CoverageEvaluator,
}

fn prepare(plan: &Plan, name: &str, seed: u64, tr: &mut Tracer) -> Result<(Target, f64), String> {
    let (nl, _) = tr.span("circuits.load", |_| htforge_circuits::load(name));
    let nl = nl.map_err(|e| e.to_string())?;
    let (comb, _) = tr.span("netlist.scan_cut", |_| {
        if nl.dffs().is_empty() {
            nl.clone()
        } else {
            nl.scan_cut()
        }
    });
    let (rare, _) = tr.span("sim.rare_extract", |_| {
        let patterns = PatternSet::random(comb.inputs().len(), plan.vectors, mix(seed, 1));
        RareNodeExtractor::new(plan.theta).extract(&comb, &patterns)
    });
    let rare = rare.map_err(|e| format!("{name}: rare extraction: {e}"))?;
    tr.count("sim.rare_nodes", rare.len() as f64);
    let framework = InsertionFramework::new(InsertionConfig {
        theta: plan.theta,
        num_vectors: plan.vectors,
        trigger_nodes: plan.trigger_nodes,
        num_instances: plan.instances,
        seed: mix(seed, 2),
        podem: PodemConfig::justify(),
        ..InsertionConfig::default()
    });
    let start = Instant::now();
    let outcome = framework
        .run(&nl)
        .map_err(|e| format!("{name}: insertion: {e}"))?;
    let insert_s = start.elapsed().as_secs_f64();
    if outcome.infected.len() != plan.instances {
        return Err(format!(
            "{name}: {} of {} designs inserted",
            outcome.infected.len(),
            plan.instances
        ));
    }
    let rate = outcome.infected.len() as f64 / insert_s;
    let evaluator = CoverageEvaluator::new(&nl).map_err(|e| format!("{name}: {e}"))?;
    Ok((
        Target {
            comb,
            rare,
            designs: outcome.infected,
            evaluator,
        },
        rate,
    ))
}

/// Output checks of one op.
fn check(target: &Target, tests: &PatternSet, report: &CoverageReport) -> Result<(), String> {
    let width = target.evaluator.golden().inputs().len();
    if tests.num_inputs() != width {
        return Err(format!(
            "test width {} vs {width} golden inputs",
            tests.num_inputs()
        ));
    }
    if tests.is_empty() {
        return Err("empty test set".into());
    }
    if report.total() != target.designs.len() {
        return Err(format!(
            "{} verdicts for {} designs",
            report.total(),
            target.designs.len()
        ));
    }
    if report.verdicts.iter().any(|v| v.detected && !v.triggered) {
        return Err("a design was detected without its trigger firing (DC > TC)".into());
    }
    Ok(())
}

/// One op: generate, grade, check. Spans land in `tr` when it records.
fn op(
    target: &Target,
    scheme: Scheme,
    generator: &dyn DetectionScheme,
    tr: &mut Tracer,
) -> Result<(PatternSet, CoverageReport), String> {
    let (tests, _) = tr.span(scheme.gen_span(), |_| {
        generator.generate_tests(&target.comb, &target.rare)
    });
    let tests = tests.map_err(|e| format!("generate_tests: {e}"))?;
    let (report, _) = tr.span("detect.grade", |_| {
        target.evaluator.evaluate(&target.designs, &tests)
    });
    let report = report.map_err(|e| format!("evaluate: {e}"))?;
    check(target, &tests, &report)?;
    Ok((tests, report))
}

/// The traced extras: a golden simulation of the test set through the
/// `sim` layer, and for ND-ATPG a per-fault replay of its
/// `n_detect_cubes` calls, which must reproduce its test count.
fn traced_extras(
    plan: &Plan,
    target: &Target,
    scheme: Scheme,
    seed: u64,
    tests: &PatternSet,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (sim, _) = tr.span("sim.compile", |_| Simulator::new(&target.comb));
    let sim = sim.map_err(|e| e.to_string())?;
    tr.count("sim.compile_calls", 1.0);
    tr.span("sim.run", |_| {
        std::hint::black_box(sim.run_on(&target.comb, tests))
    });
    tr.count("sim.patterns", tests.len() as f64);
    if scheme != Scheme::NdAtpg {
        return Ok(());
    }
    let mut cubes = 0usize;
    for (k, r) in target.rare.iter().enumerate() {
        let fault = Fault::for_rare_event(r.node, r.rare_value);
        let (found, _) = tr.span("atpg.ndetect", |_| {
            n_detect_cubes(
                &target.comb,
                fault,
                plan.ndatpg_n,
                PodemConfig::default(),
                seed.wrapping_add(k as u64),
            )
        });
        cubes += found.map_err(|e| e.to_string())?.len();
    }
    tr.count("atpg.ndetect_cubes", cubes as f64);
    // ND-ATPG falls back to 64 random vectors when no cube exists.
    let expected = if cubes == 0 { 64 } else { cubes };
    if expected == tests.len() {
        Ok(())
    } else {
        Err(format!(
            "ND-ATPG replay gives {expected} tests, the scheme {}",
            tests.len()
        ))
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = Plan::new(cfg.smoke);
    let mut out = Outcome::new(cfg.trace);
    let setups = plan.setups;
    let mut insert_rates: Vec<f64> = Vec::new();
    let (setup, targets) = crate::timed_setups(cfg, setups, |_| {
        let mut rates = Vec::new();
        let targets = plan
            .circuits
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| {
                let (target, rate) =
                    prepare(&plan, name, mix(cfg.seed, i as u64), &mut out.tracer)?;
                rates.push(rate);
                Ok(target)
            })
            .collect::<Result<Vec<Target>, String>>()?;
        insert_rates.push(stats::geomean(&rates));
        Ok(targets)
    })?;

    let ops: Vec<(usize, Scheme)> = plan
        .circuits
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, schemes))| schemes.iter().map(move |&s| (i, s)))
        .collect();
    let labels: Vec<String> = ops
        .iter()
        .map(|&(i, scheme)| format!("{}/{scheme:?}", plan.circuits[i].0))
        .collect();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut untraced = Tracer::new(false);
    let passes = if cfg.trace {
        crate::pass_count(cfg.seconds, plan.traced_pass_s, 1)
    } else {
        crate::pass_count(cfg.seconds, plan.pass_s, plan.min_passes)
    };
    for pass in 0..passes {
        for (k, &(i, scheme)) in ops.iter().enumerate() {
            // A fresh scheme seed per pass, so a run's statistics
            // average over several inputs per op.
            let seed = mix(cfg.seed, (100 + pass * ops.len() + k) as u64);
            let target = &targets[i];
            let generator = plan.scheme(scheme, seed);
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                op(target, scheme, &*generator, &mut untraced)
            }));
            let dur = start.elapsed().as_secs_f64();
            let result = match result {
                Ok(r) => r.map(|_| ()),
                Err(_) => Err("panicked".into()),
            };
            if result.is_ok() {
                latencies.push((labels[k].as_str(), dur));
            }
            let result = result.and_then(|()| {
                if !cfg.trace {
                    return Ok(());
                }
                out.tracer.begin_op();
                let (traced, d) = out.tracer.span("detect.op", |tr| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let (tests, report) = op(target, scheme, &*generator, tr)?;
                        tr.count(scheme.tests_count(), tests.len() as f64);
                        tr.count("detect.designs", report.total() as f64);
                        tr.count("detect.triggered", report.triggered() as f64);
                        tr.count("detect.detected", report.detected() as f64);
                        traced_extras(&plan, target, scheme, seed, &tests, tr)
                    }))
                });
                traced_latencies.push(d.as_secs_f64());
                traced.unwrap_or_else(|_| Err("traced op panicked".into()))
            });
            let name = plan.circuits[i].0;
            out.op(result.map_err(|e| format!("{name} {scheme:?}: {e}")));
        }
    }

    if latencies.is_empty() {
        return Ok(out);
    }
    if cfg.trace {
        let untraced: Vec<f64> = latencies.iter().map(|s| s.1).collect();
        out.metrics = layer_metrics(
            &out.tracer,
            passes as f64,
            setups as f64,
            &untraced,
            &traced_latencies,
        );
        return Ok(out);
    }
    let wall: f64 = latencies.iter().map(|s| s.1).sum();
    out.metrics.push(setup);
    out.metrics.extend(crate::latency_metrics(&latencies, wall));
    out.metrics.push(
        Metric::new("trojans_per_s", stats::median(&insert_rates))
            .with(
                "source",
                Json::Str("set-up insertion of the graded designs".into()),
            )
            .with("setups", Json::Num(setups as f64)),
    );
    out.metrics
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb()));
    Ok(out)
}

/// Per-layer metrics of the traced run: set-up layers per set-up, op
/// layers per pass over the (circuit, scheme) pairs.
fn layer_metrics(
    tr: &Tracer,
    passes: f64,
    setups: f64,
    untraced: &[f64],
    traced: &[f64],
) -> Vec<Metric> {
    let per = |name: &'static str, v: f64, by: f64, base: &'static str| {
        Metric::new(name, v / by).with(base, Json::Num(by))
    };
    let ndetect_ms: Vec<f64> = tr
        .durations("atpg.ndetect")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let designs = tr.counted("detect.designs");
    let mut m = vec![
        per(
            "circuits.load_s",
            tr.total("circuits.load"),
            setups,
            "setups",
        ),
        per(
            "netlist.scan_cut_s",
            tr.total("netlist.scan_cut"),
            setups,
            "setups",
        ),
        per(
            "sim.rare_extract_s",
            tr.total("sim.rare_extract"),
            setups,
            "setups",
        ),
        per(
            "sim.rare_nodes",
            tr.counted("sim.rare_nodes"),
            setups,
            "setups",
        ),
        per("sim.compile_s", tr.total("sim.compile"), passes, "passes"),
        per(
            "sim.compile_calls",
            tr.counted("sim.compile_calls"),
            passes,
            "passes",
        ),
        per("sim.run_s", tr.total("sim.run"), passes, "passes"),
        per("sim.patterns", tr.counted("sim.patterns"), passes, "passes"),
        Metric::ratio(
            "sim.patterns_per_s",
            tr.counted("sim.patterns"),
            tr.total("sim.run"),
        ),
        per(
            "atpg.ndetect_calls",
            ndetect_ms.len() as f64,
            passes,
            "passes",
        ),
        per("atpg.ndetect_s", tr.total("atpg.ndetect"), passes, "passes"),
        per(
            "atpg.ndetect_cubes",
            tr.counted("atpg.ndetect_cubes"),
            passes,
            "passes",
        ),
        per(
            "detect.random_gen_s",
            tr.total("detect.random_gen"),
            passes,
            "passes",
        ),
        per(
            "detect.mero_gen_s",
            tr.total("detect.mero_gen"),
            passes,
            "passes",
        ),
        per(
            "detect.ndatpg_gen_s",
            tr.total("detect.ndatpg_gen"),
            passes,
            "passes",
        ),
        per(
            "detect.random_tests",
            tr.counted("detect.random_tests"),
            passes,
            "passes",
        ),
        per(
            "detect.mero_tests",
            tr.counted("detect.mero_tests"),
            passes,
            "passes",
        ),
        per(
            "detect.ndatpg_tests",
            tr.counted("detect.ndatpg_tests"),
            passes,
            "passes",
        ),
        per("detect.grade_s", tr.total("detect.grade"), passes, "passes"),
        Metric::ratio("detect.tc", tr.counted("detect.triggered"), designs),
        Metric::ratio("detect.dc", tr.counted("detect.detected"), designs),
        crate::trace_overhead(untraced, traced),
    ];
    if !ndetect_ms.is_empty() {
        m.push(
            Metric::new(
                "atpg.ndetect_p99_ms",
                stats::nearest_rank(&ndetect_ms, 99.0),
            )
            .with("samples", Json::Num(ndetect_ms.len() as f64)),
        );
    }
    m
}
