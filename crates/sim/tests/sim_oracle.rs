//! Oracle tests: the bit-parallel simulator against a scalar reference
//! evaluator on randomly constructed netlists.

use proptest::prelude::*;

use htforge_netlist::{graph, GateKind, Netlist, NodeId, NodeKind};
use htforge_sim::tri::{eval_gate_tri, simulate_tri};
use htforge_sim::{PatternSet, SimProgram, Tri};

fn build_random_netlist(num_inputs: usize, script: &[u8]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NodeId> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (k, chunk) in script.chunks(4).enumerate() {
        if chunk.len() < 4 {
            break;
        }
        let kind = GateKind::ALL[(chunk[0] % 8) as usize];
        let mut fanins: Vec<NodeId> = chunk[1..]
            .iter()
            .map(|&b| pool[(b as usize) % pool.len()])
            .collect();
        fanins.dedup();
        if kind.is_unary() {
            fanins.truncate(1);
        }
        let id = nl
            .add_gate(format!("g{k}"), kind, fanins)
            .expect("fresh name");
        pool.push(id);
    }
    nl.mark_output(*pool.last().expect("nonempty pool"));
    nl
}

fn scalar_eval(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let order = graph::topo_order(nl).expect("acyclic");
    let mut vals = vec![false; nl.node_count()];
    for (pos, &i) in nl.inputs().iter().enumerate() {
        vals[i.index()] = inputs[pos];
    }
    for id in order {
        if let NodeKind::Gate(kind) = nl.node(id).kind() {
            let ins: Vec<bool> = nl
                .node(id)
                .fanins()
                .iter()
                .map(|f| vals[f.index()])
                .collect();
            vals[id.index()] = kind.eval_bool(&ins);
        }
    }
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every node value from the bit-parallel simulator matches the
    /// scalar reference, for every pattern.
    #[test]
    fn bit_parallel_matches_scalar_reference(
        num_inputs in 2usize..8,
        script in proptest::collection::vec(any::<u8>(), 12..60),
        seed in any::<u64>(),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let sim = SimProgram::compile(&nl).expect("acyclic");
        let ps = PatternSet::random(num_inputs, 100, seed);
        let vals = sim.run(&ps);
        for p in [0usize, 50, 99] {
            let scalar = scalar_eval(&nl, &ps.pattern(p));
            for id in nl.node_ids() {
                prop_assert_eq!(
                    vals.value(id, p),
                    scalar[id.index()],
                    "node {} pattern {}", nl.node(id).name(), p
                );
            }
        }
    }

    /// Three-valued simulation with all-care inputs agrees with the
    /// two-valued simulator.
    #[test]
    fn tri_simulation_matches_boolean_on_care_inputs(
        num_inputs in 2usize..8,
        script in proptest::collection::vec(any::<u8>(), 12..60),
        pattern_bits in any::<u64>(),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let inputs: Vec<bool> =
            (0..num_inputs).map(|i| (pattern_bits >> i) & 1 == 1).collect();
        let tris: Vec<Tri> = inputs.iter().map(|&b| Tri::from_bool(b)).collect();
        let tri_vals = simulate_tri(&nl, &tris).expect("acyclic");
        let scalar = scalar_eval(&nl, &inputs);
        for id in nl.node_ids() {
            prop_assert_eq!(
                tri_vals[id.index()],
                Tri::from_bool(scalar[id.index()]),
                "node {}", nl.node(id).name()
            );
        }
    }

    /// X-monotonicity: refining an X input to a concrete value never
    /// *changes* a node that was already definite — the property the
    /// paper's no-validation-needed cube merging rests on.
    #[test]
    fn tri_simulation_is_monotone_in_information(
        num_inputs in 2usize..8,
        script in proptest::collection::vec(any::<u8>(), 12..60),
        x_mask in any::<u64>(),
        fill in any::<u64>(),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let coarse: Vec<Tri> = (0..num_inputs)
            .map(|i| {
                if (x_mask >> i) & 1 == 1 {
                    Tri::X
                } else {
                    Tri::from_bool((fill >> i) & 1 == 1)
                }
            })
            .collect();
        let refined: Vec<Tri> = (0..num_inputs)
            .map(|i| Tri::from_bool((fill >> i) & 1 == 1))
            .collect();
        let coarse_vals = simulate_tri(&nl, &coarse).expect("acyclic");
        let refined_vals = simulate_tri(&nl, &refined).expect("acyclic");
        for id in nl.node_ids() {
            if coarse_vals[id.index()].is_care() {
                prop_assert_eq!(
                    coarse_vals[id.index()],
                    refined_vals[id.index()],
                    "definite value flipped at {}", nl.node(id).name()
                );
            }
        }
    }

    /// Gate-level tri evaluation never invents information: an all-X
    /// input vector yields X on XOR-family gates and can only be definite
    /// through controlling values.
    #[test]
    fn tri_gate_eval_conservative(kind_idx in 0usize..8, arity in 1usize..5) {
        let kind = GateKind::ALL[kind_idx];
        let arity = if kind.is_unary() { 1 } else { arity.max(1) };
        let all_x = vec![Tri::X; arity];
        let out = eval_gate_tri(kind, &all_x);
        prop_assert_eq!(out, Tri::X, "{} of all-X must be X", kind);
    }
}
