//! End-to-end integration tests: the full insertion pipeline on a
//! paper-scale circuit, checked by independent simulation.

use htforge::core::{InsertionConfig, InsertionFramework, PayloadStrategy};
use htforge::netlist::bench;
use htforge::sim::{PatternSet, SimProgram};

fn insertion_outcome(circuit: &str, q: usize, n: usize) -> htforge::core::InsertionOutcome {
    let nl = htforge::circuits::load(circuit).expect("known circuit");
    InsertionFramework::new(InsertionConfig {
        theta: 0.20,
        num_vectors: 4_000,
        trigger_nodes: q,
        num_instances: n,
        seed: 0xD0C5,
        payload: PayloadStrategy::MostObservable,
        ..InsertionConfig::default()
    })
    .run(&nl)
    .expect("insertion succeeds on paper benchmarks")
}

#[test]
fn c2670_trojans_activate_on_their_cube_and_stay_quiescent_otherwise() {
    let nl = htforge::circuits::load("c2670").unwrap();
    let outcome = insertion_outcome("c2670", 10, 3);
    assert_eq!(outcome.infected.len(), 3);

    let golden_sim = SimProgram::compile(&nl).unwrap();
    for design in &outcome.infected {
        let infected_sim = SimProgram::compile(&design.netlist).unwrap();

        // 1. The merged clique cube fires the trigger (any X fill).
        for fill in [false, true] {
            let v = design.trojan.activation_cube.fill_with(fill);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            let vals = infected_sim.run(&ps);
            assert!(
                vals.value(design.trojan.trigger_output, 0),
                "trigger must fire under its activation cube (fill = {fill})"
            );
        }

        // 2. Functional equivalence whenever the trigger is quiet.
        let ps = PatternSet::random(nl.inputs().len(), 8_192, 0xE0);
        let gv = golden_sim.run(&ps);
        let iv = infected_sim.run(&ps);
        let mut fired = 0usize;
        for p in 0..ps.len() {
            if iv.value(design.trojan.trigger_output, p) {
                fired += 1;
                continue;
            }
            for (&go, &io) in nl.outputs().iter().zip(design.netlist.outputs()) {
                assert_eq!(
                    gv.value(go, p),
                    iv.value(io, p),
                    "outputs must match when the trojan is quiescent"
                );
            }
        }
        // Stealth: random vectors essentially never fire a q=10 trigger.
        // Correlated rare nodes can leave the joint probability above the
        // independence estimate, so allow a sub-0.1% activation rate
        // (the paper's stealth table uses far larger q = 25–125).
        assert!(fired <= 8, "q=10 trigger fired {fired}/8192 random vectors");
    }
}

#[test]
fn infected_netlists_round_trip_through_bench_format() {
    let outcome = insertion_outcome("c3540", 8, 2);
    for design in &outcome.infected {
        let text = bench::write(&design.netlist);
        let reparsed = bench::parse(&text, design.netlist.name()).expect("round-trip");
        assert_eq!(reparsed.node_count(), design.netlist.node_count());
        assert_eq!(reparsed.inputs().len(), design.netlist.inputs().len());
        assert_eq!(reparsed.outputs().len(), design.netlist.outputs().len());
        // The trojan's gates survive serialization by name.
        for &g in &design.trojan.trigger_gates {
            let name = design.netlist.node(g).name();
            assert!(reparsed.find(name).is_some(), "missing {name}");
        }
    }
}

#[test]
fn sequential_circuit_pipeline_is_consistent() {
    let nl = htforge::circuits::load("s1423").unwrap();
    let outcome = insertion_outcome("s1423", 6, 2);
    for design in &outcome.infected {
        assert_eq!(design.netlist.dffs().len(), nl.dffs().len());
        assert!(design.netlist.validate().is_ok());
        // Scan-cut of the infected design still simulates.
        let cut = design.netlist.scan_cut();
        let sim = SimProgram::compile(&cut).unwrap();
        let ps = PatternSet::random(cut.inputs().len(), 256, 1);
        let vals = sim.run(&ps);
        assert_eq!(vals.len(), 256);
    }
}

#[test]
fn trigger_nodes_are_actual_rare_nodes() {
    let outcome = insertion_outcome("c2670", 10, 2);
    for design in &outcome.infected {
        for &(node, value) in &design.trojan.trigger_inputs {
            let entry = outcome
                .rare_nodes
                .get(node)
                .expect("trigger node must come from the rare-node profile");
            assert_eq!(entry.rare_value, value);
        }
    }
}

#[test]
fn distinct_cliques_across_instances() {
    let outcome = insertion_outcome("c2670", 10, 5);
    let mut sets: Vec<Vec<u32>> = outcome
        .infected
        .iter()
        .map(|d| {
            let mut s: Vec<u32> = d
                .trojan
                .trigger_inputs
                .iter()
                .map(|&(n, _)| n.index() as u32)
                .collect();
            s.sort_unstable();
            s
        })
        .collect();
    let before = sets.len();
    sets.sort();
    sets.dedup();
    assert_eq!(sets.len(), before, "instances must use distinct cliques");
}

/// FNV-1a over every design's `.bench` text, in emission order.
fn designs_digest(outcome: &htforge::core::InsertionOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for design in &outcome.infected {
        for &b in bench::write(&design.netlist).as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The framework's output at the default profile (θ = 0.2, 10 000
/// vectors, so the last profiling chunk is a partial one), pinned so
/// that a change to profiling, the compatibility graph, clique selection
/// or emission that moves any output byte fails here. s1423 covers the
/// scan-cut path.
#[test]
fn framework_output_is_pinned() {
    let pinned = |circuit: &str, q: usize, n: usize| {
        let nl = htforge::circuits::load(circuit).unwrap();
        let outcome = InsertionFramework::new(InsertionConfig {
            trigger_nodes: q,
            num_instances: n,
            ..InsertionConfig::default()
        })
        .run(&nl)
        .unwrap();
        let s = outcome.graph_stats;
        (
            outcome.rare_nodes.len(),
            (s.vertices, s.dropped, s.edges, s.cliques),
            outcome.infected.len(),
            designs_digest(&outcome),
        )
    };
    assert_eq!(
        pinned("c2670", 8, 20),
        (324, (321, 3, 36_564, 20), 20, 0xe11e_2b2f_bde4_e88b)
    );
    assert_eq!(
        pinned("s1423", 6, 4),
        (217, (208, 9, 12_981, 4), 4, 0x0acb_1315_2fcb_4e42)
    );
}
