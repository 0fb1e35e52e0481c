//! Oracle tests: the SAT miter against exhaustive enumeration on small
//! random circuits. For every stuck-at fault, the miter's verdict must
//! say whether some input vector makes a primary output differ between
//! the good and the faulty circuit, and every model it returns must
//! detect its fault under fault simulation.

use proptest::prelude::*;

use htforge_atpg::sat::{MiterSolver, Verdict};
use htforge_atpg::{fault_simulate, Fault};
use htforge_netlist::{GateKind, Netlist, NodeId};
use htforge_sim::{PatternSet, SimProgram};

/// Builds a random DAG from a byte script: each 6-byte chunk adds one
/// gate of any of the eight kinds with one to four fan-ins drawn from
/// the earlier nodes (repeats allowed). The last node and every node
/// whose chunk's top bit is set become outputs.
fn build_random_dag(num_inputs: usize, script: &[u8]) -> Netlist {
    let mut nl = Netlist::new("dag");
    let mut pool: Vec<NodeId> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (k, chunk) in script.chunks_exact(6).enumerate() {
        let kind = GateKind::ALL[(chunk[0] % 8) as usize];
        let arity = if kind.is_unary() {
            1
        } else {
            1 + (chunk[1] % 4) as usize
        };
        let fanins: Vec<NodeId> = chunk[2..2 + arity]
            .iter()
            .map(|&b| pool[b as usize % pool.len()])
            .collect();
        let id = nl
            .add_gate(format!("g{k}"), kind, fanins)
            .expect("fresh name");
        if chunk[0] & 0x80 != 0 {
            nl.mark_output(id);
        }
        pool.push(id);
    }
    let last = *pool.last().expect("at least one input");
    if !nl.is_output(last) {
        nl.mark_output(last);
    }
    nl
}

/// Every input vector, packed 64 per word: pattern `p` sets input `i`
/// to bit `i` of `p`.
fn all_vectors(num_inputs: usize) -> PatternSet {
    let total = 1usize << num_inputs;
    let mut ps = PatternSet::zeros(num_inputs, total);
    for i in 0..num_inputs {
        let words: Vec<u64> = (0..PatternSet::words_for(total))
            .map(|w| {
                (0..64)
                    .filter(|b| 64 * w + b < total && (64 * w + b) >> i & 1 == 1)
                    .fold(0u64, |acc, b| acc | 1 << b)
            })
            .collect();
        ps.set_input_words(i, &words);
    }
    ps
}

/// Word-parallel values of every node over `vectors`, with `fault`'s
/// site forced to its stuck value when given. Node ids are in
/// topological order by construction.
fn simulate(nl: &Netlist, vectors: &PatternSet, fault: Option<Fault>) -> Vec<Vec<u64>> {
    let words = PatternSet::words_for(vectors.len());
    let mut vals: Vec<Vec<u64>> = Vec::with_capacity(nl.node_count());
    let mut ins: Vec<u64> = Vec::new();
    for id in nl.node_ids() {
        let column = match fault {
            Some(f) if f.node() == id => vec![if f.stuck_value() { u64::MAX } else { 0 }; words],
            _ => match nl.node(id).kind().gate_kind() {
                None => {
                    let pos = nl.inputs().iter().position(|&i| i == id).expect("an input");
                    vectors.input_words(pos).to_vec()
                }
                Some(kind) => (0..words)
                    .map(|w| {
                        ins.clear();
                        ins.extend(nl.fanins(id).iter().map(|f| vals[f.index()][w]));
                        kind.eval_bits(&ins)
                    })
                    .collect(),
            },
        };
        vals.push(column);
    }
    vals
}

/// Ground truth: does some vector make an output differ between the
/// good circuit and the one with `fault`?
fn detectable(nl: &Netlist, vectors: &PatternSet, good: &[Vec<u64>], fault: Fault) -> bool {
    let faulty = simulate(nl, vectors, Some(fault));
    let tail = PatternSet::tail_mask(vectors.len());
    let last = PatternSet::words_for(vectors.len()) - 1;
    nl.outputs().iter().any(|o| {
        let (g, f) = (&good[o.index()], &faulty[o.index()]);
        (0..=last).any(|w| {
            let mask = if w == last { tail } else { u64::MAX };
            (g[w] ^ f[w]) & mask != 0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The miter's verdict on every stuck-at fault equals exhaustive
    /// enumeration, and every model detects its fault.
    #[test]
    fn miter_matches_exhaustive_enumeration(
        num_inputs in 1usize..17,
        script in proptest::collection::vec(any::<u8>(), 6..240),
    ) {
        let nl = build_random_dag(num_inputs, &script);
        let vectors = all_vectors(num_inputs);
        let good = simulate(&nl, &vectors, None);
        let mut miter = MiterSolver::new(&nl).expect("valid");
        let prog = SimProgram::compile(&nl).expect("valid");
        for id in nl.node_ids() {
            for stuck in [false, true] {
                let fault = Fault::stuck_at(id, stuck);
                let truth = detectable(&nl, &vectors, &good, fault);
                match miter.decide(fault) {
                    Verdict::Detectable(model) => {
                        prop_assert!(truth, "a model for undetectable {fault}");
                        let test = PatternSet::from_vectors(num_inputs, &[model]);
                        let report = fault_simulate(&prog, &nl, &[fault], &test);
                        prop_assert_eq!(report.detected(), 1, "the model misses {}", fault);
                    }
                    Verdict::Undetectable => prop_assert!(!truth, "UNSAT on detectable {fault}"),
                    Verdict::Unknown => prop_assert!(false, "conflict limit on {fault}"),
                }
            }
        }
    }
}

#[test]
fn sequential_netlists_are_rejected() {
    let nl =
        htforge_netlist::bench::parse("INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = AND(a, q)\n", "seq")
            .unwrap();
    assert!(MiterSolver::new(&nl).is_err());
    assert!(MiterSolver::new(&nl.scan_cut()).is_ok());
}
