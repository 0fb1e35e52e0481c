//! Benchmark-generation campaign: reproduce the paper's headline use
//! case — a large family of unique HT-infected netlists per circuit,
//! each with a different trigger-node clique.
//!
//! ```sh
//! cargo run --release --example benchmark_campaign [circuit] [instances]
//! ```
//!
//! Writes every infected netlist to `target/htforge-campaign/` and prints
//! a summary table (instance, q, trigger probability estimate, payload,
//! area overhead).

use std::error::Error;
use std::fs;

use htforge::core::{InsertionConfig, InsertionFramework, PayloadStrategy};
use htforge::netlist::{bench, AreaModel, AreaReport};

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "c3540".to_owned());
    let instances: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(25);

    let golden = htforge::circuits::load(&circuit)?;
    println!("campaign host: {golden}");

    // Probe the feasible clique size by halving from an ambitious start,
    // then generate `instances` trojans at that q.
    let mut q = 48usize;
    let outcome = loop {
        let config = InsertionConfig {
            theta: 0.20,
            num_vectors: 10_000,
            trigger_nodes: q,
            num_instances: instances,
            seed: 7,
            payload: PayloadStrategy::Random(7),
            ..InsertionConfig::default()
        };
        match InsertionFramework::new(config).run(&golden) {
            Ok(outcome) => break outcome,
            Err(err) if q > 2 => {
                println!("q = {q}: {err}; halving");
                q /= 2;
            }
            Err(err) => return Err(err.into()),
        }
    };

    let out_dir = std::path::Path::new("target/htforge-campaign");
    fs::create_dir_all(out_dir)?;
    let model = AreaModel::nangate45();
    println!(
        "\n{:>4} {:>5} {:>14} {:>18} {:>10}",
        "inst", "q", "p(activate)", "payload net", "area ovh"
    );
    for (i, design) in outcome.infected.iter().enumerate() {
        // Estimated activation probability: product of leaf rare-event
        // probabilities (independence approximation).
        let p: f64 = design
            .trojan
            .trigger_inputs
            .iter()
            .map(|&(node, _)| {
                outcome.rare_nodes.get(node).map_or(0.2, |r| {
                    r.probability(outcome.rare_nodes.samples()).max(1e-6)
                })
            })
            .product();
        let report = AreaReport::compare(&model, &golden, &design.netlist);
        println!(
            "{:>4} {:>5} {:>14.3e} {:>18} {:>9.2}%",
            i,
            design.trojan.trigger_node_count(),
            p,
            design.netlist.node(design.trojan.payload_net).name(),
            report.overhead_percent(),
        );
        fs::write(
            out_dir.join(format!("{circuit}_ht{i:03}.bench")),
            bench::write(&design.netlist),
        )?;
    }
    println!(
        "\n{} unique HT benchmarks written to {} in {:?}",
        outcome.infected.len(),
        out_dir.display(),
        outcome.timings.total(),
    );
    Ok(())
}
