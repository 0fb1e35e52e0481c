//! The `insert` workload: one op is one `InsertionFramework::run`
//! (the paper's TT100 at q = 8, N = 100) on a fixed circuit order.
//!
//! The traced run replays the framework stage by stage through the
//! crates' public functions, timing each call, and fails unless the
//! replay reproduces what `InsertionFramework::run` gave for the same
//! seed — otherwise its per-layer numbers would describe another
//! program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use htforge_atpg::{Fault, Podem, PodemConfig, TestResult};
use htforge_core::clique::enumerate_cliques;
use htforge_core::insert::insert_trojan_with;
use htforge_core::payload::choose_payload;
use htforge_core::{
    CompatGraph, InsertionConfig, InsertionFramework, InsertionOutcome, PayloadKind,
    PayloadStrategy, TriggerPlan, TrojanInstance,
};
use htforge_netlist::netlist::NodeId;
use htforge_netlist::Netlist;
use htforge_obs::Json;
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor, Simulator};

use crate::metrics::Metric;
use crate::trace::Tracer;
use crate::{mix, stats, Outcome, RunConfig};

/// Inputs of one run.
struct Plan {
    circuits: &'static [&'static str],
    trigger_nodes: usize,
    instances: usize,
    theta: f64,
    vectors: usize,
    /// Untraced and traced pass times on the reference host.
    pass_s: f64,
    traced_pass_s: f64,
    min_passes: usize,
    setups: usize,
}

impl Plan {
    fn new(smoke: bool) -> Self {
        if smoke {
            Plan {
                circuits: &["c17"],
                trigger_nodes: 2,
                instances: 1,
                theta: 0.3,
                vectors: 2_000,
                pass_s: 1.0,
                traced_pass_s: 1.0,
                min_passes: 1,
                setups: 2,
            }
        } else {
            // Circuits whose time goes to the PODEM abort tail (c3540,
            // c7552) and circuits where matrix, clique, insertion and
            // validation are a third of the time (c2670, s1423).
            Plan {
                circuits: &["c2670", "c3540", "c5315", "c7552", "s1423", "s13207"],
                trigger_nodes: 8,
                instances: 100,
                theta: 0.2,
                vectors: 10_000,
                pass_s: 8.5,
                traced_pass_s: 30.0,
                // Three passes: 18 ops, the tail rank 8 in the middle of
                // the c5315 runs. Four would put it among the c3540/c7552
                // runs but make a run a third longer.
                min_passes: 3,
                setups: 15,
            }
        }
    }

    fn config(&self, seed: u64) -> InsertionConfig {
        InsertionConfig {
            theta: self.theta,
            num_vectors: self.vectors,
            trigger_nodes: self.trigger_nodes,
            num_instances: self.instances,
            seed,
            podem: PodemConfig::justify(),
            ..InsertionConfig::default()
        }
    }
}

/// The combinational model analysis runs on.
fn comb_model(nl: &Netlist) -> Netlist {
    if nl.dffs().is_empty() {
        nl.clone()
    } else {
        nl.scan_cut()
    }
}

/// Output check of one design: the netlist is well formed and its
/// activation cube fires the trigger in an independent simulation.
fn check_design(nl: &Netlist, trojan: &TrojanInstance, tr: &mut Tracer) -> Result<(), String> {
    tr.span("core.validate", |_| nl.validate())
        .0
        .map_err(|e| format!("infected netlist invalid: {e}"))?;
    let (cut, _) = tr.span("netlist.scan_cut", |_| comb_model(nl));
    let (sim, _) = tr.span("sim.compile", |_| Simulator::new(&cut));
    let sim = sim.map_err(|e| format!("infected netlist does not compile: {e}"))?;
    tr.count("sim.compile_calls", 1.0);
    let vector = trojan.activation_cube.fill_with(false);
    if vector.len() != cut.inputs().len() {
        return Err("activation cube width differs from the input count".into());
    }
    let patterns = PatternSet::from_vectors(vector.len(), &[vector]);
    let (values, _) = tr.span("sim.run", |_| sim.run_on(&cut, &patterns));
    tr.count("sim.patterns", 1.0);
    if values.value(trojan.trigger_output, 0) {
        Ok(())
    } else {
        Err("activation cube does not fire the trigger".into())
    }
}

/// What the replay must agree on with the framework.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    rare: usize,
    vertices: usize,
    edges: usize,
    dropped: usize,
    triggers: Vec<Vec<(NodeId, bool)>>,
}

fn framework_fingerprint(outcome: &InsertionOutcome) -> Fingerprint {
    Fingerprint {
        rare: outcome.rare_nodes.len(),
        vertices: outcome.graph_stats.vertices,
        edges: outcome.graph_stats.edges,
        dropped: outcome.graph_stats.dropped,
        triggers: outcome
            .infected
            .iter()
            .map(|d| d.trojan.trigger_inputs.clone())
            .collect(),
    }
}

/// The framework's pipeline, one public call per span. Mirrors
/// `InsertionFramework::run` with an unlimited budget.
fn replay(nl: &Netlist, cfg: &InsertionConfig, tr: &mut Tracer) -> Result<Fingerprint, String> {
    fn err(what: &'static str) -> impl Fn(htforge_netlist::NetlistError) -> String {
        move |e| format!("{what}: {e}")
    }
    let (comb, _) = tr.span("netlist.scan_cut", |_| comb_model(nl));
    let (scoap, _) = tr.span("scoap.compute", |_| Scoap::compute(nl));
    let scoap = scoap.map_err(err("scoap"))?;
    let (rare, _) = tr.span("sim.rare_extract", |_| {
        let patterns = PatternSet::random(comb.inputs().len(), cfg.num_vectors, cfg.seed);
        RareNodeExtractor::new(cfg.theta).extract(&comb, &patterns)
    });
    let rare = rare.map_err(err("rare extraction"))?;
    tr.count("sim.rare_nodes", rare.len() as f64);

    // The per-fault work `CompatGraph` does, one timed call per event.
    let mut podem = Podem::new(&comb, cfg.podem).map_err(err("podem"))?;
    for r in rare.iter() {
        let fault = Fault::for_rare_event(r.node, r.rare_value);
        let (result, _) = tr.span("atpg.podem", |_| podem.generate(fault));
        match result {
            TestResult::Test(cube) => {
                tr.count("atpg.podem_tests", 1.0);
                tr.count("atpg.cube_care_bits", cube.care_count() as f64);
            }
            TestResult::Untestable => tr.count("atpg.podem_untestable", 1.0),
            TestResult::Aborted | TestResult::TimedOut => tr.count("atpg.podem_aborted", 1.0),
        }
    }

    let (graph, _) = tr.span("core.compat_build", |_| {
        CompatGraph::build(&comb, &rare, cfg.podem)
    });
    let graph = graph.map_err(err("compatibility graph"))?;
    let (vertices, edges) = (graph.len(), graph.edge_count());
    tr.count("core.compat_vertices", vertices as f64);
    tr.count("core.compat_dropped", graph.dropped() as f64);
    tr.count("core.compat_edges", edges as f64);
    tr.count(
        "core.vertex_pairs",
        (vertices * vertices.saturating_sub(1) / 2) as f64,
    );

    let (cliques, _) = tr.span("core.clique", |_| {
        enumerate_cliques(
            &graph,
            cfg.trigger_nodes,
            cfg.num_instances,
            cfg.seed ^ 0x5EED,
        )
    });
    tr.count("core.cliques", cliques.len() as f64);
    tr.count("core.cliques_requested", cfg.num_instances as f64);

    let (designs, _) = tr.span("core.insert", |_| {
        let mut designs = Vec::new();
        for (i, clique) in cliques.iter().enumerate() {
            let events: Vec<_> = clique.members.iter().map(|&m| &graph.events()[m]).collect();
            let rare_values: Vec<bool> = events.iter().map(|e| e.rare_value).collect();
            let plan = TriggerPlan::synthesize(&rare_values, cfg.max_fanin);
            let nodes: Vec<NodeId> = events.iter().map(|e| e.node).collect();
            let Some(payload) = choose_payload(nl, &scoap, &nodes, cfg.payload) else {
                continue;
            };
            let leaves: Vec<(NodeId, bool)> =
                events.iter().map(|e| (e.node, e.rare_value)).collect();
            designs.push(insert_trojan_with(
                nl,
                &leaves,
                &plan,
                payload,
                cfg.payload_kind,
                &i.to_string(),
                clique.activation_cube.clone(),
            ));
        }
        designs
    });
    let mut triggers = Vec::with_capacity(designs.len());
    for design in designs {
        let (infected, trojan) = design.map_err(|e| format!("insertion: {e}"))?;
        check_design(&infected, &trojan, tr)?;
        triggers.push(trojan.trigger_inputs);
    }
    Ok(Fingerprint {
        rare: rare.len(),
        vertices,
        edges,
        dropped: graph.dropped(),
        triggers,
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = Plan::new(cfg.smoke);
    assert!(
        plan.config(0).payload == PayloadStrategy::MostObservable
            && plan.config(0).payload_kind == PayloadKind::Flip,
        "the replay assumes the default payload"
    );
    let mut out = Outcome::new(cfg.trace);
    let (setup, circuits) = crate::timed_setups(cfg, plan.setups, |_| {
        plan.circuits
            .iter()
            .map(|&name| {
                out.tracer
                    .span("circuits.load", |_| htforge_circuits::load(name))
                    .0
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<Netlist>, String>>()
    })?;
    let setups = plan.setups as f64;

    let n = circuits.len();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut trojans = vec![0usize; n];
    let mut seconds = vec![0f64; n];
    let passes = if cfg.trace {
        crate::pass_count(cfg.seconds, plan.traced_pass_s, 1)
    } else {
        crate::pass_count(cfg.seconds, plan.pass_s, plan.min_passes)
    };
    for pass in 0..passes {
        for (i, nl) in circuits.iter().enumerate() {
            // A fresh insertion seed per pass, so a run's statistics
            // average over several inputs per circuit.
            let config = plan.config(mix(cfg.seed, (pass * n + i) as u64));
            let framework = InsertionFramework::new(config.clone());
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| framework.run(nl)));
            let dur = start.elapsed().as_secs_f64();
            let outcome = match result {
                Ok(Ok(o)) => o,
                Ok(Err(e)) => {
                    out.op(Err(format!("{}: {e}", nl.name())));
                    continue;
                }
                Err(_) => {
                    out.op(Err(format!("{}: panicked", nl.name())));
                    continue;
                }
            };
            latencies.push((plan.circuits[i], dur));
            let checked = if cfg.trace {
                // The replay checks its own designs, which must be the
                // framework's designs.
                out.tracer.begin_op();
                let (fp, traced) = out.tracer.span("insert.op", |tr| {
                    catch_unwind(AssertUnwindSafe(|| replay(nl, &config, tr)))
                });
                traced_latencies.push(traced.as_secs_f64());
                let want = framework_fingerprint(&outcome);
                match fp {
                    Ok(Ok(fp)) if fp == want => Ok(()),
                    Ok(Ok(fp)) => Err(format!(
                        "replay differs from the framework: rare {}/{}, vertices {}/{}, \
                         edges {}/{}, dropped {}/{}, same trigger sets: {}",
                        fp.rare,
                        want.rare,
                        fp.vertices,
                        want.vertices,
                        fp.edges,
                        want.edges,
                        fp.dropped,
                        want.dropped,
                        fp.triggers == want.triggers
                    )),
                    Ok(Err(e)) => Err(format!("replay failed: {e}")),
                    Err(_) => Err("replay panicked".into()),
                }
            } else {
                let mut untraced = Tracer::new(false);
                outcome
                    .infected
                    .iter()
                    .try_for_each(|d| check_design(&d.netlist, &d.trojan, &mut untraced))
            };
            let checked = checked.and_then(|()| {
                if outcome.infected.len() == config.num_instances {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {} trojans",
                        outcome.infected.len(),
                        config.num_instances
                    ))
                }
            });
            if checked.is_ok() {
                trojans[i] += outcome.infected.len();
                seconds[i] += dur;
            }
            out.op(checked.map_err(|e| format!("{}: {e}", nl.name())));
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
            setups,
            &untraced,
            &traced_latencies,
        );
        return Ok(out);
    }
    let rates: Vec<f64> = trojans
        .iter()
        .zip(&seconds)
        .filter(|&(&t, &s)| t > 0 && s > 0.0)
        .map(|(&t, &s)| t as f64 / s)
        .collect();
    let wall: f64 = latencies.iter().map(|s| s.1).sum();
    out.metrics.push(setup);
    out.metrics.extend(crate::latency_metrics(&latencies, wall));
    out.metrics.push(
        Metric::new(
            "trojans_per_s",
            if rates.len() == n {
                stats::geomean(&rates)
            } else {
                0.0
            },
        )
        .with("circuits", Json::Num(n as f64))
        .with("trojans", Json::Num(trojans.iter().sum::<usize>() as f64))
        .with("passes", Json::Num(passes as f64)),
    );
    out.metrics
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb()));
    Ok(out)
}

/// Per-layer metrics of the traced run, per pass over the circuits.
fn layer_metrics(
    tr: &Tracer,
    passes: f64,
    setups: f64,
    untraced: &[f64],
    traced: &[f64],
) -> Vec<Metric> {
    let per_pass = |name: &'static str, span: &str| {
        Metric::new(name, tr.total(span) / passes).with("passes", Json::Num(passes))
    };
    let count = |name: &'static str, key: &str| {
        Metric::new(name, tr.counted(key) / passes).with("passes", Json::Num(passes))
    };
    let podem_ms: Vec<f64> = tr.durations("atpg.podem").iter().map(|s| s * 1e3).collect();
    let calls = podem_ms.len() as f64;
    let tests = tr.counted("atpg.podem_tests");
    let mut m = vec![
        Metric::new("circuits.load_s", tr.total("circuits.load") / setups)
            .with("setups", Json::Num(setups)),
        per_pass("netlist.scan_cut_s", "netlist.scan_cut"),
        per_pass("sim.compile_s", "sim.compile"),
        count("sim.compile_calls", "sim.compile_calls"),
        per_pass("sim.run_s", "sim.run"),
        count("sim.patterns", "sim.patterns"),
        Metric::ratio(
            "sim.patterns_per_s",
            tr.counted("sim.patterns"),
            tr.total("sim.run"),
        ),
        per_pass("sim.rare_extract_s", "sim.rare_extract"),
        count("sim.rare_nodes", "sim.rare_nodes"),
        Metric::new("atpg.podem_calls", calls / passes),
        per_pass("atpg.podem_s", "atpg.podem"),
        count("atpg.podem_tests", "atpg.podem_tests"),
        count("atpg.podem_aborted", "atpg.podem_aborted"),
        count("atpg.podem_untestable", "atpg.podem_untestable"),
        Metric::ratio("atpg.cube_yield", tests, calls),
        Metric::ratio(
            "atpg.cube_care_bits_mean",
            tr.counted("atpg.cube_care_bits"),
            tests,
        ),
        per_pass("scoap.compute_s", "scoap.compute"),
        per_pass("core.compat_build_s", "core.compat_build"),
        count("core.compat_vertices", "core.compat_vertices"),
        count("core.compat_dropped", "core.compat_dropped"),
        count("core.compat_edges", "core.compat_edges"),
        Metric::ratio(
            "core.edge_density",
            tr.counted("core.compat_edges"),
            tr.counted("core.vertex_pairs"),
        ),
        per_pass("core.clique_s", "core.clique"),
        Metric::ratio(
            "core.clique_yield",
            tr.counted("core.cliques"),
            tr.counted("core.cliques_requested"),
        ),
        per_pass("core.insert_s", "core.insert"),
        per_pass("core.validate_s", "core.validate"),
        crate::trace_overhead(untraced, traced),
    ];
    if !podem_ms.is_empty() {
        let samples = Json::Num(calls);
        m.push(
            Metric::new("atpg.podem_p50_ms", stats::median(&podem_ms))
                .with("samples", samples.clone()),
        );
        m.push(
            Metric::new("atpg.podem_p99_ms", stats::nearest_rank(&podem_ms, 99.0))
                .with("samples", samples.clone()),
        );
        m.push(
            Metric::new("atpg.podem_max_ms", stats::nearest_rank(&podem_ms, 100.0))
                .with("samples", samples),
        );
    }
    m
}
