//! Simulation results ([`NodeValues`]) and the [`Simulator`] wrapper.
//!
//! A [`SimProgram`] evaluates 64 input patterns per word and returns
//! every node's values as [`NodeValues`]. This is what makes 10 000-vector
//! rare-node profiling (Fig. 3 of the paper) cheap even on the larger
//! ISCAS-89 circuits. [`Simulator`] is a program plus a node-count check.
//! The library runs [`SimProgram`] directly; the wrapper stays because
//! the benchmark package builds against it.

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError};

use crate::patterns::PatternSet;
use crate::program::SimProgram;

/// Simulated values for every node over a pattern set, bit-packed the same
/// way as [`PatternSet`]: `words(node)[p / 64] >> (p % 64) & 1`.
#[derive(Debug, Clone)]
pub struct NodeValues {
    len: usize,
    words_per_node: usize,
    words: Vec<u64>, // node-major: words[node * words_per_node + w]
}

impl NodeValues {
    /// Assembles node values from a pre-filled node-major word buffer
    /// (`words[node * words_per_node + w]`). Used by the simulation
    /// kernel; invariants (buffer length, masked tails) are the
    /// caller's responsibility.
    pub(crate) fn from_raw(len: usize, words_per_node: usize, words: Vec<u64>) -> Self {
        NodeValues {
            len,
            words_per_node,
            words,
        }
    }

    /// Number of simulated patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no patterns were simulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words of one node.
    #[must_use]
    pub fn words(&self, node: NodeId) -> &[u64] {
        let base = node.index() * self.words_per_node;
        &self.words[base..base + self.words_per_node]
    }

    /// Value of `node` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= len()`.
    #[must_use]
    pub fn value(&self, node: NodeId, pattern: usize) -> bool {
        assert!(pattern < self.len, "pattern {pattern} out of range");
        (self.words(node)[pattern / 64] >> (pattern % 64)) & 1 == 1
    }

    /// Number of patterns in which `node` is 1 (exact; tail bits are
    /// masked during simulation).
    #[must_use]
    pub fn count_ones(&self, node: NodeId) -> u64 {
        self.words(node)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }
}

/// A compiled [`SimProgram`] whose [`run_on`](Simulator::run_on) checks
/// the netlist it is handed. Workspace code compiles and runs a
/// [`SimProgram`] directly; this wrapper stays for the benchmark
/// package, which builds against it.
///
/// # Examples
///
/// ```
/// use htforge_netlist::bench;
/// use htforge_sim::{PatternSet, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "t")?;
/// let sim = Simulator::new(&nl)?;
/// let ps = PatternSet::from_vectors(2, &[vec![true, false], vec![true, true]]);
/// let vals = sim.run_on(&nl, &ps);
/// let y = nl.find("y").unwrap();
/// assert!(vals.value(y, 0));
/// assert!(!vals.value(y, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    program: SimProgram,
}

impl Simulator {
    /// Prepares a simulator for `nl` (compiles it into a [`SimProgram`]).
    ///
    /// Sequential netlists are accepted: DFF Q outputs are treated as free
    /// inputs *if* they appear in `nl.inputs()` (i.e. after
    /// [`Netlist::scan_cut`]); otherwise DFF outputs are simulated as
    /// constant 0 (reset state), which is only appropriate for
    /// quick-and-dirty probes. Prefer scan-cut netlists.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of `nl` is cyclic.
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        Ok(Simulator {
            program: SimProgram::compile(nl)?,
        })
    }

    /// Simulates `patterns` over the netlist this simulator was built for.
    ///
    /// Thin wrapper over [`SimProgram::run`] that checks `nl` is the
    /// compiled netlist.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.num_inputs()` differs from the netlist's input
    /// count, or if `nl` is not the netlist the simulator was built for
    /// (detected via node-count mismatch; passing a *different* netlist of
    /// identical size is not detected and yields garbage).
    #[must_use]
    pub fn run_on(&self, nl: &Netlist, patterns: &PatternSet) -> NodeValues {
        assert_eq!(
            nl.node_count(),
            self.program.node_count(),
            "simulator built for a different netlist"
        );
        self.program.run(patterns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

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

    fn eval_c17_reference(v: &[bool; 5]) -> (bool, bool) {
        let (i1, i2, i3, i6, i7) = (v[0], v[1], v[2], v[3], v[4]);
        let g10 = !(i1 & i3);
        let g11 = !(i3 & i6);
        let g16 = !(i2 & g11);
        let g19 = !(g11 & i7);
        let g22 = !(g10 & g16);
        let g23 = !(g16 & g19);
        (g22, g23)
    }

    #[test]
    fn c17_exhaustive_against_reference() {
        let nl = bench::parse(C17, "c17").unwrap();
        let sim = SimProgram::compile(&nl).unwrap();
        let vectors: Vec<Vec<bool>> = (0u32..32)
            .map(|p| (0..5).map(|i| (p >> i) & 1 == 1).collect())
            .collect();
        let ps = PatternSet::from_vectors(5, &vectors);
        let vals = sim.run(&ps);
        let o22 = nl.find("22").unwrap();
        let o23 = nl.find("23").unwrap();
        for (p, v) in vectors.iter().enumerate() {
            let arr = [v[0], v[1], v[2], v[3], v[4]];
            let (e22, e23) = eval_c17_reference(&arr);
            assert_eq!(vals.value(o22, p), e22, "pattern {p} out 22");
            assert_eq!(vals.value(o23, p), e23, "pattern {p} out 23");
        }
    }

    #[test]
    fn count_ones_is_exact_with_tail() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "t").unwrap();
        let sim = SimProgram::compile(&nl).unwrap();
        // 70 patterns: 35 ones in column a.
        let vectors: Vec<Vec<bool>> = (0..70).map(|p| vec![p % 2 == 0]).collect();
        let ps = PatternSet::from_vectors(1, &vectors);
        let vals = sim.run(&ps);
        let y = nl.find("y").unwrap();
        assert_eq!(vals.count_ones(y), 35);
    }

    #[test]
    fn inverting_gates_tail_is_masked() {
        // NOT of constant-0 column is all ones — tail beyond len must not
        // leak into count_ones.
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let sim = SimProgram::compile(&nl).unwrap();
        let ps = PatternSet::zeros(1, 3);
        let vals = sim.run(&ps);
        assert_eq!(vals.count_ones(nl.find("y").unwrap()), 3);
    }

    #[test]
    fn scan_cut_netlist_simulates_dff_as_input() {
        let src = "\
INPUT(a)
OUTPUT(g)
g = XOR(a, q)
q = DFF(g)
";
        let nl = bench::parse(src, "seq").unwrap().scan_cut();
        let sim = SimProgram::compile(&nl).unwrap();
        // inputs: [a, q]
        let ps = PatternSet::from_vectors(2, &[vec![true, true], vec![true, false]]);
        let vals = sim.run(&ps);
        let g = nl.find("g").unwrap();
        assert!(!vals.value(g, 0)); // 1 ^ 1
        assert!(vals.value(g, 1)); // 1 ^ 0
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wrong_width_panics() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "t").unwrap();
        let sim = SimProgram::compile(&nl).unwrap();
        let _ = sim.run(&PatternSet::zeros(2, 4));
    }
}
