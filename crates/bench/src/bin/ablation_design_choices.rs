//! Ablations over the framework's design choices (see `DESIGN.md` §4):
//!
//! 1. **Cube mode** — Detect-mode PODEM cubes (the paper's literal
//!    stuck-at tests) carry propagation care bits that thin the
//!    compatibility graph; justify-only cubes need fewer care bits. This
//!    ablation measures graph density and build time under both.
//! 2. **Payload strategy** — most-observable vs random payload nets:
//!    effect on detection coverage *given* activation.
//! 3. **Trigger fan-in (k)** — trigger-tree gate count and area versus
//!    the paper's fan-in parameter.
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin ablation_design_choices [--full]
//! ```

use htforge_atpg::{PodemConfig, PodemMode};
use htforge_bench::{HarnessOpts, Table};
use htforge_core::{
    CompatGraph, InsertionConfig, InsertionFramework, PayloadStrategy, TriggerPlan,
};
use htforge_detect::CoverageEvaluator;
use htforge_netlist::AreaModel;
use htforge_obs::RunBudget;
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor};

fn main() {
    let opts = HarnessOpts::from_env();
    let circuit = opts
        .circuits
        .as_ref()
        .and_then(|c| c.first().cloned())
        .unwrap_or_else(|| "c2670".to_owned());
    let vectors = if opts.full { 10_000 } else { 4_000 };

    let nl = htforge_circuits::load(&circuit).expect("known circuit");
    // One scan-cut, compiled golden model grades every payload strategy.
    let evaluator = CoverageEvaluator::new(&nl).expect("valid netlist");
    let (comb, prog) = (evaluator.golden(), evaluator.program());
    let scoap = Scoap::compute(comb).expect("valid netlist");
    let patterns = PatternSet::random(comb.inputs().len(), vectors, 0xAB1A);
    let budget = RunBudget::unlimited();
    let (rare, _) = RareNodeExtractor::new(0.20).extract_budgeted(prog, comb, &patterns, &budget);
    println!("ablations on {circuit} ({} rare nodes)\n", rare.len());

    // ---------------------------------------------------------------
    println!("1. PODEM cube mode → compatibility-graph shape");
    let mut t1 = Table::new(vec![
        "mode",
        "vertices",
        "dropped",
        "edges",
        "density %",
        "build (s)",
    ]);
    for (label, mode) in [
        ("justify", PodemMode::Justify),
        ("detect", PodemMode::Detect),
    ] {
        let config = PodemConfig {
            mode,
            ..PodemConfig::default()
        };
        let start = std::time::Instant::now();
        let (graph, _) = CompatGraph::build_budgeted(prog, &scoap, comb, &rare, config, &budget)
            .expect("combinational");
        let elapsed = start.elapsed();
        let n = graph.len();
        let possible = n * n.saturating_sub(1) / 2;
        t1.row(vec![
            label.to_owned(),
            n.to_string(),
            graph.dropped().to_string(),
            graph.edge_count().to_string(),
            format!(
                "{:.1}",
                100.0 * graph.edge_count() as f64 / possible.max(1) as f64
            ),
            format!("{:.2}", elapsed.as_secs_f64()),
        ]);
    }
    println!("{}", t1.render());
    println!("Expected: detect-mode cubes are costlier to generate and their");
    println!("extra propagation care bits reduce edge density.\n");

    // ---------------------------------------------------------------
    println!("2. payload strategy → detection coverage given activation");
    let mut t2 = Table::new(vec!["strategy", "instances", "TC", "DC", "DC/TC %"]);
    for (label, strategy) in [
        ("most-observable", PayloadStrategy::MostObservable),
        ("random", PayloadStrategy::Random(9)),
    ] {
        let outcome = InsertionFramework::new(InsertionConfig {
            theta: 0.20,
            num_vectors: vectors,
            trigger_nodes: 8,
            num_instances: 10,
            seed: 5,
            payload: strategy,
            ..InsertionConfig::default()
        })
        .run(&nl)
        .expect("insertion succeeds");
        // Apply each trojan's own activation vector: TC is then 100 % and
        // DC isolates the payload-placement effect.
        let mut tests = PatternSet::zeros(comb.inputs().len(), 0);
        for d in &outcome.infected {
            tests.push(&d.trojan.activation_cube.fill_with(false));
            tests.push(&d.trojan.activation_cube.fill_with(true));
        }
        let report = evaluator
            .evaluate(&outcome.infected, &tests)
            .expect("valid designs");
        let dc_given_tc = if report.triggered() == 0 {
            0.0
        } else {
            100.0 * report.detected() as f64 / report.triggered() as f64
        };
        t2.row(vec![
            label.to_owned(),
            report.total().to_string(),
            report.triggered().to_string(),
            report.detected().to_string(),
            format!("{dc_given_tc:.0}"),
        ]);
    }
    println!("{}", t2.render());
    println!("Expected: observable payloads convert nearly every activation");
    println!("into an output corruption; random payloads lose some.\n");

    // ---------------------------------------------------------------
    println!("3. trigger fan-in k → trigger-tree size and area");
    let model = AreaModel::nangate45();
    let mut t3 = Table::new(vec!["k", "q", "gates", "area (µm²)"]);
    let q = 32.min(rare.len());
    let rare_values: Vec<bool> = rare.iter().take(q).map(|r| r.rare_value).collect();
    for k in [2usize, 3, 4, 6, 8] {
        let plan = TriggerPlan::synthesize(&rare_values, k);
        let area: f64 = plan
            .gates()
            .iter()
            .map(|g| model.gate_area(g.kind, g.inputs.len()))
            .sum();
        t3.row(vec![
            k.to_string(),
            q.to_string(),
            plan.gates().len().to_string(),
            format!("{area:.2}"),
        ]);
    }
    println!("{}", t3.render());
    println!("Expected: larger fan-in shrinks the tree (fewer, wider gates)");
    println!("and lowers area — but each gate's rare-output probability");
    println!("1/2^k drops, which is why the paper uses moderate k.");
}
