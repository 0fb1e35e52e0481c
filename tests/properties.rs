//! Property-based tests (proptest) over the toolkit's core invariants.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htforge::atpg::Cube;
use htforge::circuits::synth::{generate, CircuitProfile};
use htforge::core::insert::insert_trojan_with;
use htforge::core::payload::{safe_payload_candidates, PayloadKind};
use htforge::core::trigger::PlanSignal;
use htforge::core::{InsertionError, TriggerPlan};
use htforge::netlist::{bench, graph, GateKind, Netlist, NodeId, NodeKind};
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

/// A random DAG with a few DFFs, built by `add_gate` and `add_dff` alone,
/// so its level column is never cached and [`Netlist::validate`] on it
/// levelizes from scratch. Gates nothing consumes become outputs.
fn random_dag(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("dag");
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    for g in 0..gates {
        let d = pool[rng.gen_range(0..pool.len())];
        let id = if rng.gen_bool(0.05) {
            nl.add_dff(format!("q{g}"), d).unwrap()
        } else {
            let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
            let arity = if kind.is_unary() {
                1
            } else {
                rng.gen_range(2..4)
            };
            let mut fanins = vec![d];
            fanins.extend((1..arity).map(|_| pool[rng.gen_range(0..pool.len())]));
            nl.add_gate(format!("g{g}"), kind, fanins).unwrap()
        };
        pool.push(id);
    }
    for id in nl.node_ids() {
        if matches!(nl.kind(id), NodeKind::Gate(_)) && nl.fanouts(id).is_empty() {
            nl.mark_output(id);
        }
    }
    nl
}

/// The edit `insert_trojan_with` makes, replayed on `nl` by hand.
fn replay_insertion(
    nl: &mut Netlist,
    leaves: &[(NodeId, bool)],
    plan: &TriggerPlan,
    payload_net: NodeId,
    kind: PayloadKind,
) {
    let mut gates: Vec<NodeId> = Vec::new();
    let signal = |gates: &[NodeId], s: PlanSignal| match s {
        PlanSignal::Leaf(i) => leaves[i].0,
        PlanSignal::Gate(g) => gates[g],
    };
    for (k, gate) in plan.gates().iter().enumerate() {
        let fanins = gate.inputs.iter().map(|&s| signal(&gates, s)).collect();
        gates.push(nl.add_gate(format!("ht0_t{k}"), gate.kind, fanins).unwrap());
    }
    let trigger = signal(&gates, plan.output());
    let payload = match kind {
        PayloadKind::Flip => nl.add_gate("ht0_payload", GateKind::Xor, vec![payload_net, trigger]),
        PayloadKind::ForceOne => {
            nl.add_gate("ht0_payload", GateKind::Or, vec![payload_net, trigger])
        }
        PayloadKind::ForceZero => {
            let ninv = nl
                .add_gate("ht0_ninv", GateKind::Not, vec![trigger])
                .unwrap();
            nl.add_gate("ht0_payload", GateKind::And, vec![payload_net, ninv])
        }
    };
    nl.splice_driver(payload_net, payload.unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `insert_trojan_with` checks each design locally and keeps the
    /// host's level column through the edit. On random DAG hosts, random
    /// leaves and payload nets (safe and unsafe), its verdict equals a
    /// full `validate` of the same edit made on a never-levelized copy,
    /// and the column it keeps equals a full levelization.
    #[test]
    fn incremental_levels_match_a_full_levelization(
        seed in any::<u64>(),
        inputs in 2usize..8,
        gates in 4usize..60,
        q in 1usize..6,
        kind in 0usize..3,
        pick_safe in any::<bool>(),
        pick in any::<u64>(),
    ) {
        let host = random_dag(seed, inputs, gates);
        host.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(pick);
        let mut leaves: Vec<(NodeId, bool)> = Vec::new();
        while leaves.len() < q.min(host.node_count()) {
            let n = NodeId::from_index(rng.gen_range(0..host.node_count()));
            if leaves.iter().all(|&(l, _)| l != n) {
                leaves.push((n, rng.gen_bool(0.5)));
            }
        }
        let nodes: Vec<NodeId> = leaves.iter().map(|&(n, _)| n).collect();
        let safe = safe_payload_candidates(&host, &nodes);
        let any_gate: Vec<NodeId> = host
            .node_ids()
            .filter(|&id| matches!(host.kind(id), NodeKind::Gate(_)))
            .collect();
        let from = if pick_safe && !safe.is_empty() { &safe } else { &any_gate };
        let payload_net = from[rng.gen_range(0..from.len())];
        let kind = [PayloadKind::Flip, PayloadKind::ForceZero, PayloadKind::ForceOne][kind];
        let rare: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
        let plan = TriggerPlan::synthesize(&rare, 2 + (pick % 3) as usize);

        let result = insert_trojan_with(
            &host, &leaves, &plan, payload_net, kind, "0", Cube::all_x(inputs),
        );
        let mut fresh = random_dag(seed, inputs, gates);
        replay_insertion(&mut fresh, &leaves, &plan, payload_net, kind);
        let verdict = fresh.validate();
        // The safe set is conservative: a net outside it may still pass.
        prop_assert!(result.is_ok() || !safe.contains(&payload_net), "a safe net failed");
        match result {
            Ok((out, _)) => {
                prop_assert_eq!(&verdict, &Ok(()));
                let kept = out.levels().unwrap().to_vec();
                prop_assert_eq!(&kept, &graph::levelize(&out).unwrap());
                prop_assert_eq!(kept.as_slice(), fresh.levels().unwrap());
                prop_assert_eq!(&out.validate(), &Ok(()));
                fresh.set_name(out.name());
                prop_assert_eq!(bench::write(&out), bench::write(&fresh));
            }
            Err(InsertionError::Netlist(e)) => prop_assert_eq!(&verdict, &Err(e)),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}
