//! **Table V** — area-overhead analysis of generated trojan instances.
//!
//! The paper synthesizes worst-case (largest-q) infected netlists with
//! GENUS + Nangate 45 nm and reports percentage cell-area overhead,
//! which shrinks as the host circuit grows (5.4 % on c2670 down to
//! 0.23 % on c6288). We substitute the cell-area model of
//! [`htforge_netlist::area`] (see `DESIGN.md` §3).
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin table5_area [--full]
//! ```

use htforge_atpg::PodemConfig;
use htforge_bench::{HarnessOpts, Table};
use htforge_core::{clique, CompatGraph, InsertionConfig, InsertionFramework};
use htforge_netlist::{AreaModel, AreaReport};
use htforge_sim::{PatternSet, RareNodeExtractor};

fn main() {
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c2670", "c3540", "s1423"]);
    let vectors = if opts.full { 10_000 } else { 4_000 };
    let model = AreaModel::nangate45();

    println!("Table V: worst-case trigger-logic area overhead\n");
    let mut table = Table::new(vec![
        "circuit",
        "gates",
        "trigger nodes",
        "ht gates",
        "orig area (µm²)",
        "overhead %",
    ]);

    for name in &circuits {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = nl.scan_cut();
        // Worst case = the largest feasible clique.
        let patterns = PatternSet::random(comb.inputs().len(), vectors, 0x7AB5);
        let rare = RareNodeExtractor::new(0.20)
            .extract(&comb, &patterns)
            .expect("valid netlist");
        let graph = CompatGraph::build(&comb, &rare, PodemConfig::justify())
            .expect("combinational netlist");
        let upper = if opts.full { 192 } else { 48 };
        let q = clique::max_feasible_size(&graph, upper, 1).max(1);

        let config = InsertionConfig {
            theta: 0.20,
            num_vectors: vectors,
            trigger_nodes: q,
            num_instances: 1,
            seed: 0x7AB5,
            ..InsertionConfig::default()
        };
        let outcome = match InsertionFramework::new(config).run(&nl) {
            Ok(o) => o,
            Err(e) => {
                println!("{name}: skipped ({e})");
                continue;
            }
        };
        let design = &outcome.infected[0];
        let report = AreaReport::compare(&model, &nl, &design.netlist);
        table.row(vec![
            name.clone(),
            nl.gate_count().to_string(),
            design.trojan.trigger_node_count().to_string(),
            design.trojan.inserted_gate_count().to_string(),
            format!("{:.1}", report.original),
            format!("{:.2}", report.overhead_percent()),
        ]);
    }
    println!("{}", table.render());
    println!("Shape check (paper Table V): overhead is a few percent on small");
    println!("hosts and falls well below 1% as the host circuit grows.");
}
