//! Bit-parallel single-stuck-at fault simulation.
//!
//! Grades a test set: for each fault, the faulty circuit is simulated
//! against the golden one over all patterns at once (64 per word), with
//! propagation restricted to the fault's fan-out cone. This is the
//! classic parallel-pattern single-fault propagation (PPSFP) scheme, and
//! the standard way to report stuck-at coverage for generated test sets.

use htforge_netlist::{graph, netlist::NodeId, Netlist, NodeKind};
use htforge_sim::{NodeValues, PatternSet, SimProgram};

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
    let good: NodeValues = prog.run(tests);
    let order = graph::topo_order(nl).expect("a compiled netlist is acyclic");
    let mut topo_pos = vec![0u32; nl.node_count()];
    for (pos, &id) in order.iter().enumerate() {
        topo_pos[id.index()] = pos as u32;
    }
    let words = PatternSet::words_for(tests.len());
    let tail_mask = PatternSet::tail_mask(tests.len());

    let mut detected = Vec::with_capacity(faults.len());
    // Scratch: faulty values for cone nodes only, keyed by node index.
    let mut faulty: Vec<Vec<u64>> = vec![Vec::new(); nl.node_count()];
    let mut in_cone = vec![false; nl.node_count()];

    for &fault in faults {
        let site = fault.node();
        // Activation mask: patterns where the good value differs from the
        // stuck value — without activation there is nothing to propagate.
        let stuck_words = if fault.stuck_value() {
            vec![tail_mask; words]
        } else {
            vec![0u64; words]
        };
        let activated = good
            .words(site)
            .iter()
            .zip(&stuck_words)
            .any(|(&g, &f)| (g ^ f) & tail_mask != 0);
        if !activated {
            detected.push(false);
            continue;
        }

        // Event-driven cone simulation in topological order.
        let cone = graph::transitive_fanout(nl, &[site]);
        let mut cone_nodes: Vec<NodeId> = nl.node_ids().filter(|id| cone[id.index()]).collect();
        cone_nodes.sort_by_key(|id| topo_pos[id.index()]);
        for &id in &cone_nodes {
            in_cone[id.index()] = true;
        }

        faulty[site.index()] = stuck_words.clone();
        for &id in &cone_nodes {
            if id == site {
                continue;
            }
            let node = nl.node(id);
            let kind = match node.kind() {
                NodeKind::Gate(k) => k,
                _ => {
                    // Inputs/DFFs in the cone (impossible for inputs;
                    // DFF boundaries are not crossed) keep good values.
                    faulty[id.index()] = good.words(id).to_vec();
                    continue;
                }
            };
            // Columnar evaluation: seed from the first fanin's column,
            // fold the rest word-wise, then invert/mask. No per-word
            // scratch — whole columns stream through the fold.
            let fanins = node.fanins();
            let src = |f: NodeId| -> &[u64] {
                if in_cone[f.index()] {
                    &faulty[f.index()]
                } else {
                    good.words(f)
                }
            };
            let mut out: Vec<u64> = src(fanins[0]).to_vec();
            for &f in &fanins[1..] {
                let fw = src(f);
                match kind.fold_op() {
                    htforge_netlist::FoldOp::And => {
                        for (o, &v) in out.iter_mut().zip(fw) {
                            *o &= v;
                        }
                    }
                    htforge_netlist::FoldOp::Or => {
                        for (o, &v) in out.iter_mut().zip(fw) {
                            *o |= v;
                        }
                    }
                    htforge_netlist::FoldOp::Xor => {
                        for (o, &v) in out.iter_mut().zip(fw) {
                            *o ^= v;
                        }
                    }
                }
            }
            if kind.is_inverting() {
                for o in &mut out {
                    *o = !*o;
                }
            }
            if let Some(last) = out.last_mut() {
                *last &= tail_mask;
            }
            faulty[id.index()] = out;
        }

        let hit = nl.outputs().iter().any(|&o| {
            if !in_cone[o.index()] {
                return false;
            }
            good.words(o)
                .iter()
                .zip(&faulty[o.index()])
                .any(|(&g, &f)| (g ^ f) & tail_mask != 0)
        });
        detected.push(hit);

        for &id in &cone_nodes {
            in_cone[id.index()] = false;
            faulty[id.index()].clear();
        }
    }

    FaultSimReport { detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemConfig, TestResult};
    use htforge_netlist::bench;

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
    }
}
