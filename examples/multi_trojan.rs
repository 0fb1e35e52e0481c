//! Multi-trojan, multi-effect insertion: place several trojans with
//! different payload effects into a *single* netlist (the paper's
//! "single or multiple HT instances" configuration) and demonstrate each
//! one firing independently.
//!
//! ```sh
//! cargo run --release --example multi_trojan [circuit]
//! ```

use std::error::Error;

use htforge::core::{InsertionConfig, InsertionFramework, PayloadKind};
use htforge::netlist::bench;
use htforge::sim::{PatternSet, SimProgram};

fn main() -> Result<(), Box<dyn Error>> {
    let circuit = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "c3540".to_owned());
    let golden = htforge::circuits::load(&circuit)?;
    println!("host: {golden}");

    for kind in [
        PayloadKind::Flip,
        PayloadKind::ForceZero,
        PayloadKind::ForceOne,
    ] {
        let framework = InsertionFramework::new(InsertionConfig {
            theta: 0.20,
            num_vectors: 10_000,
            trigger_nodes: 12,
            num_instances: 3,
            seed: 11,
            payload_kind: kind,
            ..InsertionConfig::default()
        });
        let (combined, instances) = framework.run_combined(&golden)?;
        println!(
            "\npayload {kind:?}: {} trojans in one netlist (+{} gates)",
            instances.len(),
            combined.node_count() - golden.node_count()
        );

        let sim = SimProgram::compile(&combined)?;
        for (i, trojan) in instances.iter().enumerate() {
            // Fire each trojan with its own activation cube and check
            // that exactly the right trigger asserts.
            let v = trojan.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(golden.inputs().len(), &[v]);
            let vals = sim.run(&ps);
            let fired: Vec<usize> = instances
                .iter()
                .enumerate()
                .filter(|(_, t)| vals.value(t.trigger_output, 0))
                .map(|(k, _)| k)
                .collect();
            println!(
                "  cube {i} fires trigger(s) {fired:?}; payload net {} via {:?}",
                combined.node(trojan.payload_net).name(),
                trojan.payload_kind,
            );
            assert!(fired.contains(&i), "trojan {i} must fire under its cube");
        }

        // Quiescence: none of the triggers fire under random stimuli.
        let ps = PatternSet::random(golden.inputs().len(), 4_096, 3);
        let vals = sim.run(&ps);
        let accidental: usize = instances
            .iter()
            .map(|t| {
                (0..ps.len())
                    .filter(|&p| vals.value(t.trigger_output, p))
                    .count()
            })
            .sum();
        println!("  accidental activations over 4096 random vectors: {accidental}");

        if kind == PayloadKind::Flip {
            let text = bench::write(&combined);
            let lines = text.lines().count();
            println!("  serialized multi-trojan netlist: {lines} .bench lines");
        }
    }
    Ok(())
}
