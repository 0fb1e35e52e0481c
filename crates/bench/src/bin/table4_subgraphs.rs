//! **Table IV** — number of complete subgraphs and their generation time.
//!
//! The paper reports thousands-to-tens-of-thousands of complete subgraphs
//! (cliques of the compatibility graph) per circuit, generated in under a
//! few minutes — the scalability claim behind "numerous unique trojan
//! instances".
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin table4_subgraphs [--full]
//! ```

use std::time::Instant;

use htforge_atpg::PodemConfig;
use htforge_bench::{HarnessOpts, Table};
use htforge_core::{clique, CompatGraph};
use htforge_sim::{PatternSet, RareNodeExtractor};

/// The paper's reported subgraph counts, used as the per-circuit caps
/// (Table IV caps enumeration, it does not exhaust the graph).
fn paper_cap(name: &str) -> usize {
    match name {
        "c2670" => 2_000,
        "c3540" => 20_042,
        "c5315" => 10_000,
        "c6288" => 1_000,
        "s1423" => 22_093,
        "s13207" => 15_000,
        "s15850" => 10_000,
        "s35932" => 5_000,
        _ => 2_000,
    }
}

fn main() {
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c2670", "c3540", "s1423"]);
    let vectors = if opts.full { 10_000 } else { 4_000 };

    println!("Table IV: number of complete subgraphs and generation time\n");
    let mut table = Table::new(vec![
        "circuit",
        "rare",
        "vertices",
        "edges",
        "q",
        "subgraphs",
        "time (s)",
    ]);

    for name in &circuits {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = nl.scan_cut();
        let start = Instant::now();
        let patterns = PatternSet::random(comb.inputs().len(), vectors, 0x7AB4);
        let rare = RareNodeExtractor::new(0.20)
            .extract(&comb, &patterns)
            .expect("valid netlist");
        let graph = CompatGraph::build(&comb, &rare, PodemConfig::justify())
            .expect("combinational netlist");
        // Pick a trigger count the graph actually supports, probing down
        // from an ambitious q (the paper's per-circuit q varies widely).
        let q = clique::max_feasible_size(&graph, 24, 1).max(1);
        let cap = if opts.full { paper_cap(name) } else { 2_000 };
        let cliques = clique::enumerate_cliques(&graph, q, cap, 1);
        let elapsed = start.elapsed();
        table.row(vec![
            name.clone(),
            rare.len().to_string(),
            graph.len().to_string(),
            graph.edge_count().to_string(),
            q.to_string(),
            cliques.len().to_string(),
            format!("{:.1}", elapsed.as_secs_f64()),
        ]);
    }
    println!("{}", table.render());
    println!("Shape check (paper Table IV): each circuit yields thousands of");
    println!("complete subgraphs within seconds-to-minutes, scaling with size.");
}
