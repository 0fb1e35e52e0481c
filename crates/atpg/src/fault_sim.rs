//! Bit-parallel single-stuck-at fault simulation.
//!
//! Grades a test set by parallel-pattern single-fault propagation
//! (PPSFP) with fault dropping. The good machine runs once over every
//! pattern. Each fault then takes one 64-pattern word at a time: a word
//! whose good value at the site equals the stuck value does not activate
//! the fault and is skipped; otherwise the fault effect propagates
//! event-driven, in level order, through the gates whose faulty word
//! differs from their good one. The fault is dropped at its first word
//! that reaches a primary output. Every word is graded under its own
//! mask: all 64 patterns, except in a final partial word.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use htforge_netlist::{Netlist, NodeKind};
use htforge_sim::{PatternSet, SimProgram};

use crate::fault::Fault;

/// Result of grading one test set against a fault list.
#[derive(Debug, Clone)]
pub struct FaultSimReport {
    detected: Vec<bool>,
}

impl FaultSimReport {
    /// Number of detected faults.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Total faults simulated.
    #[must_use]
    pub fn total(&self) -> usize {
        self.detected.len()
    }

    /// Fault coverage in percent.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.detected.is_empty() {
            0.0
        } else {
            100.0 * self.detected() as f64 / self.detected.len() as f64
        }
    }
}

/// Returns the full single-stuck-at fault list of a netlist (both
/// polarities at every input/gate node output).
#[must_use]
pub fn all_faults(nl: &Netlist) -> Vec<Fault> {
    nl.iter()
        .filter(|(_, node)| !matches!(node.kind(), NodeKind::Dff))
        .flat_map(|(id, _)| [Fault::stuck_at(id, false), Fault::stuck_at(id, true)])
        .collect()
}

/// Simulates `faults` under `tests` and reports which are detected
/// (some pattern produces a primary-output difference). `prog` is the
/// caller's compilation of `nl`; it runs the good machine.
///
/// # Panics
///
/// Panics if `prog` was compiled from a different netlist (node-count
/// mismatch) or if the pattern width does not match the input count.
#[must_use]
pub fn fault_simulate(
    prog: &SimProgram,
    nl: &Netlist,
    faults: &[Fault],
    tests: &PatternSet,
) -> FaultSimReport {
    assert_eq!(
        nl.node_count(),
        prog.node_count(),
        "program compiled from a different netlist"
    );
    let _span = htforge_obs::span("fault_sim");
    let good = prog.run(tests);
    let levels = nl.levels().expect("a compiled netlist is acyclic");
    let words = PatternSet::words_for(tests.len());
    let tail_mask = PatternSet::tail_mask(tests.len());

    // Scratch shared by every fault: a node's faulty word is valid while
    // its stamp equals the epoch of the fault-word being propagated.
    let mut faulty = vec![0u64; nl.node_count()];
    let mut stamp = vec![0u64; nl.node_count()];
    let mut epoch = 0u64;
    let mut events = BinaryHeap::new();
    let mut fanin_words = Vec::new();

    let detected = faults
        .iter()
        .map(|&fault| {
            let site = fault.node();
            let stuck = if fault.stuck_value() { u64::MAX } else { 0 };
            (0..words).any(|w| {
                let mask = if w + 1 == words { tail_mask } else { u64::MAX };
                if (good.words(site)[w] ^ stuck) & mask == 0 {
                    return false;
                }
                epoch += 1;
                stamp[site.index()] = epoch;
                events.clear();
                events.push(Reverse((levels[site.index()], site)));
                while let Some(Reverse((_, id))) = events.pop() {
                    let value = match nl.node(id).kind() {
                        _ if id == site => stuck,
                        NodeKind::Gate(kind) => {
                            fanin_words.clear();
                            fanin_words.extend(nl.fanins(id).iter().map(|f| {
                                if stamp[f.index()] == epoch {
                                    faulty[f.index()]
                                } else {
                                    good.words(*f)[w]
                                }
                            }));
                            kind.eval_bits(&fanin_words)
                        }
                        _ => unreachable!("only gates are scheduled"),
                    };
                    faulty[id.index()] = value;
                    if (value ^ good.words(id)[w]) & mask == 0 {
                        continue;
                    }
                    if nl.is_output(id) {
                        return true;
                    }
                    // DFF boundaries are not crossed.
                    for &out in nl.fanouts(id) {
                        if stamp[out.index()] != epoch
                            && matches!(nl.node(out).kind(), NodeKind::Gate(_))
                        {
                            stamp[out.index()] = epoch;
                            events.push(Reverse((levels[out.index()], out)));
                        }
                    }
                }
                false
            })
        })
        .collect();

    FaultSimReport { detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemConfig, TestResult};
    use htforge_netlist::{bench, graph, NodeId};

    fn compile(nl: &Netlist) -> SimProgram {
        SimProgram::compile(nl).unwrap()
    }

    const C17: &str = "\
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn exhaustive_tests_detect_all_c17_faults() {
        let nl = bench::parse(C17, "c17").unwrap();
        let vectors: Vec<Vec<bool>> = (0u32..32)
            .map(|p| (0..5).map(|i| (p >> i) & 1 == 1).collect())
            .collect();
        let tests = PatternSet::from_vectors(5, &vectors);
        let faults = all_faults(&nl);
        assert_eq!(faults.len(), 22);
        let report = fault_simulate(&compile(&nl), &nl, &faults, &tests);
        assert_eq!(report.detected(), 22, "c17 has no redundant faults");
        assert!((report.coverage() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_test_set_detects_nothing() {
        let nl = bench::parse(C17, "c17").unwrap();
        let tests = PatternSet::zeros(5, 0);
        let report = fault_simulate(&compile(&nl), &nl, &all_faults(&nl), &tests);
        assert_eq!(report.detected(), 0);
    }

    #[test]
    fn podem_cube_is_confirmed_by_fault_simulation() {
        // Cross-validation: every PODEM detect-mode cube, filled both
        // ways, detects its fault under fault simulation.
        let nl = bench::parse(C17, "c17").unwrap();
        let prog = compile(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        for fault in all_faults(&nl) {
            let TestResult::Test(cube) = podem.generate(fault) else {
                panic!("{fault} should be testable");
            };
            let tests = PatternSet::from_vectors(5, &[cube.fill_with(false), cube.fill_with(true)]);
            let report = fault_simulate(&prog, &nl, &[fault], &tests);
            assert_eq!(report.detected(), 1, "{fault} cube {cube}");
        }
    }

    #[test]
    fn undetectable_redundant_fault() {
        // y = OR(a, na) is constant 1 → y s-a-1 cannot be detected.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let nl = bench::parse(src, "t").unwrap();
        let y = nl.find("y").unwrap();
        let tests = PatternSet::from_vectors(1, &[vec![false], vec![true]]);
        let report = fault_simulate(&compile(&nl), &nl, &[Fault::stuck_at(y, true)], &tests);
        assert_eq!(report.detected(), 0);
    }

    /// Scalar reference: per fault, the first pattern that detects it.
    /// Patterns are taken one at a time: the good machine is `eval_bool`
    /// in topological order, and the faulty one re-evaluates the site's
    /// fan-out cone in the same order with the site forced.
    fn first_detections(nl: &Netlist, faults: &[Fault], tests: &PatternSet) -> Vec<Option<usize>> {
        let order = graph::topo_order(nl).unwrap();
        let cones: Vec<Vec<NodeId>> = faults
            .iter()
            .map(|f| {
                let cone = graph::transitive_fanout(nl, &[f.node()]);
                order
                    .iter()
                    .copied()
                    .filter(|id| cone[id.index()])
                    .collect()
            })
            .collect();
        let mut input_pos = vec![usize::MAX; nl.node_count()];
        for (i, &id) in nl.inputs().iter().enumerate() {
            input_pos[id.index()] = i;
        }
        let eval = |id: NodeId, p: usize, v: &[bool]| match nl.node(id).kind() {
            NodeKind::Gate(k) => {
                let ins: Vec<bool> = nl.fanins(id).iter().map(|f| v[f.index()]).collect();
                k.eval_bool(&ins)
            }
            _ => tests.get(input_pos[id.index()], p),
        };

        let mut first = vec![None; faults.len()];
        let mut good = vec![false; nl.node_count()];
        for p in 0..tests.len() {
            for &id in &order {
                good[id.index()] = eval(id, p, &good);
            }
            let mut faulty = good.clone();
            for (i, fault) in faults.iter().enumerate() {
                if first[i].is_some() || good[fault.node().index()] == fault.stuck_value() {
                    continue;
                }
                for &id in &cones[i] {
                    faulty[id.index()] = if id == fault.node() {
                        fault.stuck_value()
                    } else {
                        eval(id, p, &faulty)
                    };
                }
                if nl
                    .outputs()
                    .iter()
                    .any(|o| faulty[o.index()] != good[o.index()])
                {
                    first[i] = Some(p);
                }
                for &id in &cones[i] {
                    faulty[id.index()] = good[id.index()];
                }
            }
        }
        first
    }

    #[test]
    fn detection_respects_tail_masking() {
        // 3 patterns (partial word): no phantom detections from tail bits.
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "t").unwrap();
        let y = nl.find("y").unwrap();
        let tests = PatternSet::from_vectors(1, &[vec![true], vec![true], vec![true]]);
        let prog = compile(&nl);
        // y s-a-1 never differs when a is always 1.
        let report = fault_simulate(&prog, &nl, &[Fault::stuck_at(y, true)], &tests);
        assert_eq!(report.detected(), 0);
        // y s-a-0 differs on every pattern.
        let report = fault_simulate(&prog, &nl, &[Fault::stuck_at(y, false)], &tests);
        assert_eq!(report.detected(), 1);

        // Lengths on both sides of word boundaries, and the CLI's 10 000
        // (10 000 % 64 = 16): every full word is graded in full and the
        // final one under its tail mask, exactly as the scalar oracle.
        for name in ["c17", "c7552"] {
            let nl = htforge_circuits::load(name).unwrap();
            let prog = compile(&nl);
            let faults = all_faults(&nl);
            let full = PatternSet::random(nl.inputs().len(), 10_048, 7);
            let first = first_detections(&nl, &faults, &full);
            for len in [63, 64, 65, 127, 10_000, 10_048] {
                let mut tests = full.clone();
                tests.truncate(len);
                let report = fault_simulate(&prog, &nl, &faults, &tests);
                let wrong: Vec<String> = faults
                    .iter()
                    .zip(&first)
                    .zip(&report.detected)
                    .filter(|((_, first), &got)| first.is_some_and(|p| p < len) != got)
                    .map(|((fault, _), _)| fault.to_string())
                    .collect();
                assert!(
                    wrong.is_empty(),
                    "{name} at {len} patterns: {} faults disagree with the oracle, e.g. {:?}",
                    wrong.len(),
                    &wrong[..wrong.len().min(5)]
                );
            }
        }
    }
}
