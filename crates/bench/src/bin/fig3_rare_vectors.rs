//! **Figure 3** — number of rare nodes vs random-vector count.
//!
//! The paper shows that the rare-node count stabilizes once ~10 000
//! vectors have been simulated, motivating |V| = 10 000.
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin fig3_rare_vectors [--full]
//! ```

use htforge_bench::{HarnessOpts, Table};
use htforge_obs::RunBudget;
use htforge_sim::{PatternSet, RareNodeExtractor, SimProgram};

fn main() {
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c17", "c2670", "c3540", "s1423"]);
    let sweep: Vec<usize> = if opts.full {
        vec![100, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000]
    } else {
        vec![100, 500, 1_000, 2_000, 5_000, 10_000, 20_000]
    };
    let theta = 0.20;

    println!("Figure 3: rare nodes vs number of random test vectors (θ = 20%)\n");
    let mut header = vec!["circuit".to_owned()];
    header.extend(sweep.iter().map(|v| format!("|V|={v}")));
    let mut table = Table::new(header);

    for name in &circuits {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = nl.scan_cut();
        let prog = SimProgram::compile(&comb).expect("valid netlist");
        let budget = RunBudget::unlimited();
        let mut row = vec![name.clone()];
        let mut last_two = (usize::MAX, usize::MAX);
        for &v in &sweep {
            let patterns = PatternSet::random(comb.inputs().len(), v, 0xF163);
            let (rare, _) =
                RareNodeExtractor::new(theta).extract_budgeted(&prog, &comb, &patterns, &budget);
            last_two = (last_two.1, rare.len());
            row.push(rare.len().to_string());
        }
        table.row(row);
        // Convergence check: the largest two sweep points agree within 2 %.
        let (a, b) = last_two;
        let drift = (a.abs_diff(b)) as f64 / b.max(1) as f64;
        if drift > 0.02 {
            println!(
                "note: {name} still drifting {:.1}% at the tail",
                drift * 100.0
            );
        }
    }
    println!("{}", table.render());
    println!("Shape check: counts settle by |V| ≈ 10 000, matching the paper's");
    println!("choice of a 10 000-vector profiling set.");
}
