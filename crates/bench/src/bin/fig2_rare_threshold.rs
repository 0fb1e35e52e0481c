//! **Figure 2** — number of rare nodes for various rareness thresholds.
//!
//! The paper sweeps θ_RN ∈ {5, 10, 15, 20, 30} % over the ISCAS-85/89
//! benchmarks and reports the average fraction of nodes marked rare
//! (6.35 %, 11.63 %, 16.88 %, 24.19 %, 38.12 % respectively), selecting
//! θ = 20 % for the framework.
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin fig2_rare_threshold [--full]
//! ```

use htforge_bench::{HarnessOpts, Table};
use htforge_obs::RunBudget;
use htforge_sim::{PatternSet, RareNodeExtractor, SimProgram};

fn main() {
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c17", "c2670", "c3540", "s1423"]);
    let vectors = if opts.full { 10_000 } else { 4_000 };
    let thetas = [0.05, 0.10, 0.15, 0.20, 0.30];

    println!("Figure 2: rare nodes vs rareness threshold ({vectors} vectors)\n");
    let mut header = vec!["circuit".to_owned(), "nodes".to_owned()];
    header.extend(thetas.iter().map(|t| format!("θ={:.0}%", t * 100.0)));
    let mut table = Table::new(header);

    let mut fraction_sums = vec![0.0f64; thetas.len()];
    for name in &circuits {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = nl.scan_cut();
        let prog = SimProgram::compile(&comb).expect("valid netlist");
        let budget = RunBudget::unlimited();
        let patterns = PatternSet::random(comb.inputs().len(), vectors, 0xF162);
        let mut row = vec![name.clone(), comb.node_count().to_string()];
        for (k, &theta) in thetas.iter().enumerate() {
            let (rare, _) =
                RareNodeExtractor::new(theta).extract_budgeted(&prog, &comb, &patterns, &budget);
            fraction_sums[k] += rare.len() as f64 / comb.node_count() as f64;
            row.push(rare.len().to_string());
        }
        table.row(row);
    }
    println!("{}", table.render());

    println!("average fraction of nodes marked rare:");
    for (k, &theta) in thetas.iter().enumerate() {
        println!(
            "  θ = {:>2.0}% → {:>5.2}% of nodes (paper: {:>5.2}%)",
            theta * 100.0,
            100.0 * fraction_sums[k] / circuits.len() as f64,
            [6.35, 11.63, 16.88, 24.19, 38.12][k],
        );
    }
    println!("\nShape check: the fraction grows monotonically with θ and");
    println!("θ = 20% marks roughly a quarter of all nodes — the paper's pick.");
}
