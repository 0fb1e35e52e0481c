//! Property-based tests (proptest) over the toolkit's core invariants.

use proptest::prelude::*;

use htforge::atpg::Cube;
use htforge::circuits::synth::{generate, CircuitProfile};
use htforge::core::TriggerPlan;
use htforge::netlist::bench;
use htforge::sim::{PatternSet, SimProgram, Tri};

fn arb_tri() -> impl Strategy<Value = Tri> {
    prop_oneof![Just(Tri::Zero), Just(Tri::One), Just(Tri::X)]
}

fn arb_cube(width: usize) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(arb_tri(), width).prop_map(Cube::from_tris)
}

proptest! {
    /// Cube merging is commutative and preserves both operands' care bits.
    #[test]
    fn cube_merge_commutes(a in arb_cube(16), b in arb_cube(16)) {
        match (a.merge(&b), b.merge(&a)) {
            (Some(ab), Some(ba)) => {
                prop_assert_eq!(&ab, &ba);
                for i in 0..16 {
                    if a.get(i).is_care() {
                        prop_assert_eq!(ab.get(i), a.get(i));
                    }
                    if b.get(i).is_care() {
                        prop_assert_eq!(ab.get(i), b.get(i));
                    }
                }
            }
            (None, None) => {}
            _ => prop_assert!(false, "merge symmetry violated"),
        }
    }

    /// Compatibility is exactly "merge succeeds".
    #[test]
    fn compatibility_iff_mergeable(a in arb_cube(12), b in arb_cube(12)) {
        prop_assert_eq!(a.compatible(&b), a.merge(&b).is_some());
    }

    /// Any full vector drawn from a cube is contained in it.
    #[test]
    fn fill_is_contained(c in arb_cube(10), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = c.fill_random(&mut rng);
        prop_assert!(c.contains(&v));
    }

    /// The synthesized trigger tree fires exactly on the rare pattern,
    /// for arbitrary rare-value vectors and fan-ins.
    #[test]
    fn trigger_tree_is_exact(
        rare in proptest::collection::vec(any::<bool>(), 1..10),
        fanin in 2usize..5,
        probe in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let plan = TriggerPlan::synthesize(&rare, fanin);
        let leaves: Vec<bool> = probe.iter().take(rare.len()).copied().collect();
        let expected = leaves.iter().zip(&rare).all(|(&l, &r)| l == r);
        prop_assert_eq!(plan.eval(&leaves), expected);
        // And the all-rare pattern always fires.
        prop_assert!(plan.eval(&rare));
    }

    /// Generated synthetic netlists always validate and round-trip
    /// through the `.bench` format with identical structure.
    #[test]
    fn synthetic_netlists_round_trip(
        seed in any::<u64>(),
        inputs in 4usize..16,
        outputs in 1usize..5,
        gates in 30usize..120,
        dffs in 0usize..8,
    ) {
        let profile = CircuitProfile {
            name: "prop".into(),
            inputs,
            outputs,
            gates: gates.max(2 * outputs + 2),
            dffs,
            seed,
        };
        let nl = generate(&profile);
        prop_assert!(nl.validate().is_ok());
        prop_assert_eq!(nl.inputs().len(), inputs);
        prop_assert_eq!(nl.outputs().len(), outputs);
        prop_assert_eq!(nl.dffs().len(), dffs);

        let text = bench::write(&nl);
        let back = bench::parse(&text, "prop").expect("round-trip parses");
        prop_assert_eq!(back.node_count(), nl.node_count());
        prop_assert_eq!(back.gate_count(), nl.gate_count());
        prop_assert_eq!(back.dffs().len(), nl.dffs().len());
    }

    /// Round-tripped netlists are functionally identical (checked by
    /// bit-parallel simulation on random vectors).
    #[test]
    fn round_trip_preserves_function(seed in any::<u64>()) {
        let profile = CircuitProfile {
            name: "prop_fn".into(),
            inputs: 8,
            outputs: 3,
            gates: 80,
            dffs: 0,
            seed,
        };
        let nl = generate(&profile);
        let back = bench::parse(&bench::write(&nl), "prop_fn").expect("parses");

        let ps = PatternSet::random(8, 256, seed ^ 1);
        let a = SimProgram::compile(&nl).expect("valid").run(&ps);
        let b = SimProgram::compile(&back).expect("valid").run(&ps);
        for (&oa, &ob) in nl.outputs().iter().zip(back.outputs()) {
            for p in 0..ps.len() {
                prop_assert_eq!(a.value(oa, p), b.value(ob, p));
            }
        }
    }

    /// Bit-parallel and scalar gate evaluation agree on every gate kind.
    #[test]
    fn bit_parallel_matches_scalar(
        kind_idx in 0usize..8,
        inputs in proptest::collection::vec(any::<bool>(), 1..5),
    ) {
        let kind = htforge::netlist::GateKind::ALL[kind_idx];
        let inputs = if kind.is_unary() { vec![inputs[0]] } else { inputs };
        let scalar = kind.eval_bool(&inputs);
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        prop_assert_eq!(kind.eval_bits(&words) & 1 == 1, scalar);
    }
}
