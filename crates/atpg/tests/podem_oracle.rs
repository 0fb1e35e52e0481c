//! Oracle tests: PODEM against brute-force enumeration on small random
//! circuits. For every fault, PODEM's verdict (testable/untestable) and
//! any produced cube must agree with exhaustive ground truth, and the
//! lifter must read a justifying sub-cube off any satisfying vector.

use proptest::prelude::*;

use htforge_atpg::{Fault, Lifter, Podem, PodemConfig, TestResult};
use htforge_netlist::{GateKind, Netlist, NodeId};
use htforge_scoap::Scoap;
use htforge_sim::tri::justifies;
use htforge_sim::{PatternSet, SimProgram, Tri};

/// Builds a random small combinational netlist from a byte script
/// (deterministic in the input bytes — proptest shrinks nicely).
fn build_random_netlist(num_inputs: usize, script: &[u8]) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NodeId> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (k, chunk) in script.chunks(3).enumerate() {
        if chunk.len() < 3 {
            break;
        }
        let kind = GateKind::ALL[(chunk[0] % 8) as usize];
        let a = pool[(chunk[1] as usize) % pool.len()];
        let b = pool[(chunk[2] as usize) % pool.len()];
        let fanins = if kind.is_unary() || a == b {
            vec![a]
        } else {
            vec![a, b]
        };
        let id = nl
            .add_gate(format!("g{k}"), kind, fanins)
            .expect("fresh name");
        pool.push(id);
    }
    // Last two signals become outputs (ensures some observability).
    let n = pool.len();
    nl.mark_output(pool[n - 1]);
    if n >= 2 {
        nl.mark_output(pool[n - 2]);
    }
    nl
}

/// Ground truth by exhaustive simulation: is there an input vector that
/// excites `fault` (good value = excitation value) and, in detect mode,
/// propagates the fault effect to an output?
fn exhaustive_verdict(nl: &Netlist, fault: Fault, detect: bool) -> bool {
    let num_inputs = nl.inputs().len();
    assert!(num_inputs <= 12, "exhaustive check limited to 12 inputs");
    let sim = SimProgram::compile(nl).expect("valid");
    let total = 1usize << num_inputs;
    let vectors: Vec<Vec<bool>> = (0..total)
        .map(|p| (0..num_inputs).map(|i| (p >> i) & 1 == 1).collect())
        .collect();
    let ps = PatternSet::from_vectors(num_inputs, &vectors);
    let good = sim.run(&ps);

    // Faulty circuit: rebuild with the node's function replaced by the
    // stuck value, simulated via a scalar pass.
    let order = htforge_netlist::graph::topo_order(nl).expect("acyclic");
    for (p, vector) in vectors.iter().enumerate() {
        if good.value(fault.node(), p) != fault.excitation_value() {
            continue;
        }
        if !detect {
            return true;
        }
        // Scalar faulty simulation for pattern p.
        let mut vals = vec![false; nl.node_count()];
        for (pos, &input) in nl.inputs().iter().enumerate() {
            vals[input.index()] = vector[pos];
        }
        for &id in &order {
            if let htforge_netlist::NodeKind::Gate(kind) = nl.node(id).kind() {
                let ins: Vec<bool> = nl
                    .node(id)
                    .fanins()
                    .iter()
                    .map(|f| vals[f.index()])
                    .collect();
                vals[id.index()] = kind.eval_bool(&ins);
            }
            if id == fault.node() {
                vals[id.index()] = fault.stuck_value();
            }
        }
        if nl
            .outputs()
            .iter()
            .any(|&o| vals[o.index()] != good.value(o, p))
        {
            return true;
        }
    }
    false
}

/// Checks that a PODEM cube really achieves the objective, by filling
/// don't-cares both ways and simulating.
fn cube_achieves(nl: &Netlist, cube: &htforge_atpg::Cube, fault: Fault, detect: bool) -> bool {
    for fill in [false, true] {
        let v = cube.fill_with(fill);
        let sim = SimProgram::compile(nl).expect("valid");
        let ps = PatternSet::from_vectors(nl.inputs().len(), std::slice::from_ref(&v));
        let good = sim.run(&ps);
        if good.value(fault.node(), 0) != fault.excitation_value() {
            return false;
        }
        if detect {
            // Scalar faulty simulation.
            let order = htforge_netlist::graph::topo_order(nl).expect("acyclic");
            let mut vals = vec![false; nl.node_count()];
            for (pos, &input) in nl.inputs().iter().enumerate() {
                vals[input.index()] = v[pos];
            }
            for &id in &order {
                if let htforge_netlist::NodeKind::Gate(kind) = nl.node(id).kind() {
                    let ins: Vec<bool> = nl
                        .node(id)
                        .fanins()
                        .iter()
                        .map(|f| vals[f.index()])
                        .collect();
                    vals[id.index()] = kind.eval_bool(&ins);
                }
                if id == fault.node() {
                    vals[id.index()] = fault.stuck_value();
                }
            }
            let differs = nl
                .outputs()
                .iter()
                .any(|&o| vals[o.index()] != good.value(o, 0));
            if !differs {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In detect mode, PODEM's testable/untestable verdicts match
    /// exhaustive ground truth, and every cube is a genuine test.
    #[test]
    fn podem_detect_matches_exhaustive(
        num_inputs in 2usize..6,
        script in proptest::collection::vec(any::<u8>(), 9..45),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let mut podem = Podem::new(&nl, PodemConfig::default()).expect("valid");
        for id in nl.node_ids() {
            for stuck in [false, true] {
                let fault = Fault::stuck_at(id, stuck);
                let truth = exhaustive_verdict(&nl, fault, true);
                match podem.generate(fault) {
                    TestResult::Test(cube) => {
                        prop_assert!(truth, "PODEM found a test for untestable {fault}");
                        prop_assert!(
                            cube_achieves(&nl, &cube, fault, true),
                            "bogus cube {cube} for {fault}"
                        );
                    }
                    TestResult::Untestable => {
                        prop_assert!(!truth, "PODEM missed a test for {fault}");
                    }
                    TestResult::Aborted | TestResult::TimedOut => {
                        // Legal but should not happen at this size (and
                        // no time budget is configured).
                        prop_assert!(false, "abort on a {num_inputs}-input circuit");
                    }
                }
            }
        }
    }

    /// In justify mode, the verdict matches "some input vector sets the
    /// node to the excitation value".
    #[test]
    fn podem_justify_matches_exhaustive(
        num_inputs in 2usize..6,
        script in proptest::collection::vec(any::<u8>(), 9..45),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let mut podem = Podem::new(&nl, PodemConfig::justify()).expect("valid");
        for id in nl.node_ids() {
            for stuck in [false, true] {
                let fault = Fault::stuck_at(id, stuck);
                let truth = exhaustive_verdict(&nl, fault, false);
                match podem.generate(fault) {
                    TestResult::Test(cube) => {
                        prop_assert!(truth);
                        prop_assert!(cube_achieves(&nl, &cube, fault, false));
                    }
                    TestResult::Untestable => prop_assert!(!truth),
                    TestResult::Aborted | TestResult::TimedOut => {
                        prop_assert!(false, "abort at toy size");
                    }
                }
            }
        }
    }

    /// Every satisfying vector of every justifiable (node, value) lifts
    /// to a sub-cube of itself that drives the node to the value under
    /// three-valued simulation.
    #[test]
    fn lift_justifies_from_every_satisfying_vector(
        num_inputs in 2usize..6,
        script in proptest::collection::vec(any::<u8>(), 9..45),
    ) {
        let nl = build_random_netlist(num_inputs, &script);
        let vectors: Vec<Vec<bool>> = (0..1usize << num_inputs)
            .map(|p| (0..num_inputs).map(|i| (p >> i) & 1 == 1).collect())
            .collect();
        let all = PatternSet::from_vectors(num_inputs, &vectors);
        let good = SimProgram::compile(&nl).expect("valid").run(&all);
        let scoap = Scoap::compute(&nl).expect("valid");
        let mut lifter = Lifter::new(&nl, &scoap).expect("valid");
        for id in nl.node_ids() {
            for value in [false, true] {
                for (p, witness) in vectors.iter().enumerate() {
                    if good.value(id, p) != value {
                        continue;
                    }
                    let cube = lifter.lift(id, value, &good, p);
                    for (&bit, &w) in cube.bits().iter().zip(witness) {
                        prop_assert!(bit == Tri::X || bit == Tri::from_bool(w));
                    }
                    prop_assert!(
                        justifies(&nl, cube.bits(), id, value).expect("valid"),
                        "cube {cube} from vector {p} misses {}={value}",
                        nl.node(id).name()
                    );
                }
            }
        }
    }
}
