//! Differential / property harness for batched sequential simulation.
//!
//! [`BatchedSequentialSimulator`] (64 traces per machine word) must be
//! **bit-identical** to stepping each trace through the scalar
//! [`SequentialSimulator`] oracle — for every node, every trace, every
//! cycle. The harness proves it on:
//!
//! * c17 (a combinational netlist: the zero-DFF degenerate case),
//! * the 16×16 array multiplier with injected DFF pipeline wrappers,
//! * ≥25 random synthetic sequential DAGs,
//! * proptest-driven campaigns over trace counts {1, 63, 64, 65, 200},
//!   cycle counts 1..128, ripple-counter widths, and per-trace reset
//!   states,
//! * sequential-trojan activation: per-trace first-arm latencies from
//!   one batched [`FirstFireMonitor`] pass must equal a scalar replay.

use htforge::circuits::multiplier::multiplier;
use htforge::circuits::synth::{generate, CircuitProfile};
use htforge::netlist::{bench, Netlist};
use htforge::sim::seq_batch::{BatchedSequentialSimulator, FirstFireMonitor};
use htforge::sim::sequential::SequentialSimulator;
use htforge::sim::PatternSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The trace counts the word layout cares about: single trace, one bit
/// short of a word, exactly a word, one bit over, and a multi-word
/// batch.
const TRACE_COUNTS: [usize; 5] = [1, 63, 64, 65, 200];

/// Steps `cycles` of random stimuli through the batched simulator and
/// one scalar oracle per trace, asserting every node of every trace
/// agrees after every cycle (plus the post-edge flop states).
fn assert_seq_differential(nl: &Netlist, traces: usize, cycles: usize, seed: u64, label: &str) {
    let num_inputs = nl.inputs().len();
    let mut batched = BatchedSequentialSimulator::new(nl, traces).expect("batched builds");
    let mut scalars: Vec<SequentialSimulator> = (0..traces)
        .map(|_| SequentialSimulator::new(nl).expect("scalar builds"))
        .collect();
    let probe_nodes: Vec<_> = batched.netlist().node_ids().collect();

    for cycle in 0..cycles {
        let stimulus = PatternSet::random(
            num_inputs,
            traces,
            seed ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        batched.step(&stimulus);
        for (t, scalar) in scalars.iter_mut().enumerate() {
            scalar.step(&stimulus.pattern(t)).unwrap();
            for &node in &probe_nodes {
                assert_eq!(
                    batched.value(node, t),
                    scalar.value(node),
                    "{label}: node {} diverged (trace {t}, cycle {cycle})",
                    batched.netlist().node(node).name()
                );
            }
            assert_eq!(
                batched.state_of_trace(t),
                scalar.state(),
                "{label}: flop state diverged (trace {t}, cycle {cycle})"
            );
        }
    }
}

#[test]
fn c17_combinational_degenerate_case() {
    let nl = htforge::circuits::load("c17").unwrap();
    assert!(nl.dffs().is_empty());
    for traces in TRACE_COUNTS {
        assert_seq_differential(&nl, traces, 4, 0xC17, &format!("c17/{traces}"));
    }
}

/// Pipelines `count` internal nets of `nl` behind DFFs: each chosen net
/// keeps driving its register's D input, while all its other consumers
/// see the registered value. Deterministic in `seed`.
fn inject_dff_wrappers(nl: &Netlist, count: usize, seed: u64) -> Netlist {
    let mut out = nl.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    // Candidates: gates with at least one fanout (so the register
    // actually cuts a path); skip primary outputs to preserve the
    // combinational output interface for latency-free comparison.
    let candidates: Vec<_> = nl
        .node_ids()
        .filter(|&id| {
            nl.node(id).kind().gate_kind().is_some()
                && !nl.node(id).fanouts().is_empty()
                && !nl.is_output(id)
        })
        .collect();
    assert!(candidates.len() >= count, "not enough wrap candidates");
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(candidates[rng.gen_range(0..candidates.len())].index());
    }
    for (k, idx) in picked.into_iter().enumerate() {
        let victim = htforge::netlist::netlist::NodeId::from_index(idx);
        let q = out.add_dff(format!("wrap{k}"), victim).expect("fresh name");
        out.splice_driver(victim, q);
    }
    out.validate().expect("wrapped netlist validates");
    out
}

#[test]
fn multiplier16_with_injected_dff_wrappers() {
    let comb = multiplier("c6288", 16);
    let nl = inject_dff_wrappers(&comb, 12, 7);
    assert_eq!(nl.dffs().len(), 12);
    assert_seq_differential(&nl, 65, 6, 0x6288, "mul16+dff");
}

#[test]
fn synthetic_sequential_dags_match_scalar() {
    // ≥25 generated sequential circuits across sizes, DFF counts, trace
    // counts, and cycle counts.
    for seed in 0..26u64 {
        let profile = CircuitProfile {
            name: format!("seqdag{seed}"),
            inputs: 5 + (seed as usize % 7),
            outputs: 1 + (seed as usize % 4),
            gates: 40 + (seed as usize * 3) % 80,
            dffs: 1 + (seed as usize % 8),
            seed: 0xDA6 + seed,
        };
        let nl = generate(&profile);
        let traces = TRACE_COUNTS[seed as usize % TRACE_COUNTS.len()];
        let cycles = 1 + (seed as usize * 5) % 16;
        assert_seq_differential(
            &nl,
            traces,
            cycles,
            seed,
            &format!("synth seed {seed} ({traces} traces, {cycles} cycles)"),
        );
    }
}

/// Builds a `k`-bit ripple counter with an enable input and `q{k-1}` as
/// its observable output — the canonical time-bomb state machine.
fn counter_netlist(bits: usize) -> Netlist {
    let mut src = String::from("INPUT(en)\n");
    src.push_str(&format!("OUTPUT(q{})\n", bits - 1));
    let mut carry = "en".to_owned();
    for b in 0..bits {
        src.push_str(&format!("d{b} = XOR({carry}, q{b})\n"));
        if b + 1 < bits {
            src.push_str(&format!("c{b} = AND({carry}, q{b})\n"));
            carry = format!("c{b}");
        }
        src.push_str(&format!("q{b} = DFF(d{b})\n"));
    }
    bench::parse(&src, &format!("cnt{bits}")).unwrap()
}

/// Counter value of one batched trace, LSB-first flop order.
fn counter_value(sim: &BatchedSequentialSimulator, nl: &Netlist, trace: usize) -> u64 {
    // `dffs()` order is file order q0..q{k-1} = LSB..MSB.
    (0..nl.dffs().len())
        .map(|b| u64::from(sim.state_bit(b, trace)) << b)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched ≡ scalar on random sequential DAGs, across the full
    /// trace-count × cycle-count grid the word layout cares about.
    #[test]
    fn batched_matches_scalar_oracle(
        seed in any::<u64>(),
        trace_idx in 0usize..TRACE_COUNTS.len(),
        cycles in 1usize..32,
        dffs in 1usize..6,
    ) {
        let profile = CircuitProfile {
            name: "prop_seq".into(),
            inputs: 6,
            outputs: 2,
            gates: 50,
            dffs,
            seed,
        };
        let nl = generate(&profile);
        assert_seq_differential(&nl, TRACE_COUNTS[trace_idx], cycles, seed, "proptest");
    }

    /// Counter semantics: for arbitrary widths, per-trace reset states,
    /// and up to 128 cycles of random enables, the batched counter
    /// equals `(reset + #enables) mod 2^k` — and the scalar stepper
    /// lands on the same value.
    #[test]
    fn counter_widths_and_reset_states(
        bits in 1usize..6,
        cycles in 1usize..128,
        seed in any::<u64>(),
    ) {
        let nl = counter_netlist(bits);
        let traces = 65; // multi-word plus a tail
        let mut batched = BatchedSequentialSimulator::new(&nl, traces).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);

        // Random per-trace reset state, mirrored into a scalar oracle
        // and an arithmetic model.
        let mut expected: Vec<u64> = Vec::with_capacity(traces);
        let mut scalars: Vec<SequentialSimulator> = Vec::with_capacity(traces);
        for t in 0..traces {
            let reset: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
            batched.set_state_of_trace(t, &reset);
            let mut scalar = SequentialSimulator::new(&nl).unwrap();
            scalar.set_state(&reset);
            scalars.push(scalar);
            expected.push(reset.iter().enumerate().map(|(b, &v)| u64::from(v) << b).sum());
        }

        let modulus = 1u64 << bits;
        for cycle in 0..cycles {
            let stimulus = PatternSet::random(1, traces, seed ^ ((cycle as u64) << 8));
            batched.step(&stimulus);
            for (t, scalar) in scalars.iter_mut().enumerate() {
                scalar.step(&stimulus.pattern(t)).unwrap();
                if stimulus.get(0, t) {
                    expected[t] = (expected[t] + 1) % modulus;
                }
                let got = counter_value(&batched, &nl, t);
                prop_assert_eq!(got, expected[t], "trace {} cycle {}", t, cycle);
                let scalar_value: u64 = scalar
                    .state()
                    .iter()
                    .enumerate()
                    .map(|(b, &v)| u64::from(v) << b)
                    .sum();
                prop_assert_eq!(got, scalar_value, "scalar divergence, trace {}", t);
            }
        }
    }
}

/// Builds a sequential trojan on the 4-input HOST circuit (the same
/// recipe as `htforge-core`'s unit tests): 2-node trigger, `bits`-bit
/// counter, Flip payload.
fn build_timebomb(bits: usize) -> (Netlist, htforge::core::SequentialInfectedDesign, Vec<bool>) {
    use htforge::atpg::PodemConfig;
    use htforge::core::{
        enumerate_cliques, insert_sequential_trojan, CompatGraph, PayloadKind, PayloadStrategy,
        TriggerPlan,
    };
    use htforge::sim::RareNodeExtractor;

    const HOST: &str = "\
INPUT(a1)
INPUT(a2)
INPUT(b1)
INPUT(b2)
OUTPUT(w)
OUTPUT(x)
OUTPUT(o)
w = AND(a1, a2)
x = AND(b1, b2)
o = XOR(a1, b1)
";
    let nl = bench::parse(HOST, "host").unwrap();
    let ps = PatternSet::random(4, 10_000, 1);
    let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
    let graph = CompatGraph::build(&nl, &rare, PodemConfig::justify()).unwrap();
    let cliques = enumerate_cliques(&graph, 2, 1, 0);
    let clique = &cliques[0];
    let leaves: Vec<_> = clique
        .members
        .iter()
        .map(|&m| {
            let e = &graph.events()[m];
            (e.node, e.rare_value)
        })
        .collect();
    let rare_values: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
    let plan = TriggerPlan::synthesize(&rare_values, 4);
    let scoap = htforge::scoap::Scoap::compute(&nl).unwrap();
    let trigger_nodes: Vec<_> = leaves.iter().map(|&(n, _)| n).collect();
    let payload = htforge::core::payload::choose_payload(
        &nl,
        &scoap,
        &trigger_nodes,
        PayloadStrategy::MostObservable,
    )
    .unwrap();
    let (infected, trojan) = insert_sequential_trojan(
        &nl,
        &leaves,
        &plan,
        payload,
        PayloadKind::Flip,
        bits,
        "s0",
        clique.activation_cube.clone(),
    )
    .unwrap();
    let trigger_vec = trojan.combinational.activation_cube.fill_with(false);
    (
        nl,
        htforge::core::SequentialInfectedDesign {
            netlist: infected,
            trojan,
        },
        trigger_vec,
    )
}

/// Per-trace activation latency out of one batched pass must equal a
/// trace-by-trace scalar replay, over a mixed random/forced-trigger
/// stimulus schedule.
#[test]
fn trojan_activation_latency_batched_equals_scalar() {
    let (_, design, trigger_vec) = build_timebomb(2);
    let traces = 64;
    let cycles = 60;
    let armed_node = design.trojan.combinational.trigger_output;

    // Schedule: trace t applies the trigger vector whenever
    // (cycle * 7 + t) % 5 == 0, random stimulus otherwise.
    let stimulus_for = |cycle: usize| -> PatternSet {
        let base = PatternSet::random(4, traces, 0xBEEF ^ cycle as u64);
        let vectors: Vec<Vec<bool>> = (0..traces)
            .map(|t| {
                if (cycle * 7 + t).is_multiple_of(5) {
                    trigger_vec.clone()
                } else {
                    base.pattern(t)
                }
            })
            .collect();
        PatternSet::from_vectors(4, &vectors)
    };

    let mut batched = BatchedSequentialSimulator::new(&design.netlist, traces).unwrap();
    let mut monitor = FirstFireMonitor::new(traces);
    for cycle in 0..cycles {
        batched.step(&stimulus_for(cycle));
        monitor.observe(batched.node_words(armed_node).unwrap());
    }

    let mut scalar_fired = 0usize;
    for t in 0..traces {
        let mut scalar = SequentialSimulator::new(&design.netlist).unwrap();
        let mut first: Option<u32> = None;
        for cycle in 0..cycles {
            scalar.step(&stimulus_for(cycle).pattern(t)).unwrap();
            if first.is_none() && scalar.value(armed_node) == Some(true) {
                first = Some(cycle as u32);
            }
        }
        if first.is_some() {
            scalar_fired += 1;
        }
        assert_eq!(
            monitor.first_fire(t),
            first,
            "activation latency diverged for trace {t}"
        );
    }
    assert_eq!(monitor.fired_count(), scalar_fired);
    assert!(monitor.any_fired(), "schedule must arm some traces");
}

/// One 63-trace word and a 130-trace batch (three words, partial tail)
/// on a synthetic sequential netlist: the batched stepper must reproduce
/// the scalar oracle's flop states after every stimulus.
#[test]
fn batched_stepper_matches_scalar_at_63_and_130_traces() {
    let profile = CircuitProfile {
        name: "matrix".into(),
        inputs: 6,
        outputs: 2,
        gates: 140,
        dffs: 5,
        seed: 0x3A7,
    };
    let nl = generate(&profile);
    for traces in [63usize, 130] {
        let cycles = 4;
        let stimuli: Vec<PatternSet> = (0..cycles)
            .map(|c| PatternSet::random(6, traces, 0xA11 ^ (c as u64) << 3))
            .collect();
        let expected: Vec<Vec<bool>> = (0..traces)
            .map(|t| {
                let mut scalar = SequentialSimulator::new(&nl).unwrap();
                for stim in &stimuli {
                    scalar.step(&stim.pattern(t)).unwrap();
                }
                scalar.state().to_vec()
            })
            .collect();
        let mut sim = BatchedSequentialSimulator::new(&nl, traces).unwrap();
        for stim in &stimuli {
            sim.step(stim);
        }
        for (t, exp) in expected.iter().enumerate() {
            assert_eq!(&sim.state_of_trace(t), exp, "{traces} traces, trace {t}");
        }
    }
}

/// The batched stepper's `step_n`-style snapshots (via the scalar
/// convenience API) agree with batched columns — ties the satellite
/// `SequentialSimulator::step_n` into the differential net.
#[test]
fn scalar_step_n_snapshots_match_batched_columns() {
    let nl = counter_netlist(3);
    let cycles = 20;
    let traces = 9;
    let mut batched = BatchedSequentialSimulator::new(&nl, traces).unwrap();
    let stimuli: Vec<PatternSet> = (0..cycles)
        .map(|c| PatternSet::random(1, traces, 0x51AB ^ c as u64))
        .collect();
    for stim in &stimuli {
        batched.step(stim);
    }
    for t in 0..traces {
        let sequence: Vec<Vec<bool>> = stimuli.iter().map(|s| s.pattern(t)).collect();
        let mut scalar = SequentialSimulator::new(&nl).unwrap();
        let snaps = scalar.step_n(&sequence).unwrap();
        assert_eq!(snaps.len(), cycles);
        assert_eq!(snaps.last().unwrap().state, batched.state_of_trace(t));
    }
}
