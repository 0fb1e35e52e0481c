//! Rare-node extraction — the paper's **Algorithm 1** (`Extraction_RN`).
//!
//! A node is *rare* at value `v` if, over a random vector set `V`, it
//! reaches `v` at most `θ_RN · |V|` times. Rare nodes are the candidate
//! trigger nodes for stealthy trojans: a trigger built from them fires
//! only when every one of them simultaneously sits at its rare value.
//!
//! The paper selects θ_RN = 20 % and |V| = 10 000 (§IV-A, Figs. 2–3).

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError, NodeKind};
use htforge_obs::{DegradationNote, RunBudget};

use crate::patterns::PatternSet;
use crate::program::SimProgram;
use crate::simulator::NodeValues;

/// A node identified as rare, together with its rare value and how often
/// it reached that value during profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RareNode {
    /// The rare node.
    pub node: NodeId,
    /// The value the node rarely takes (the trojan trigger condition).
    pub rare_value: bool,
    /// Number of profiling patterns in which the node took `rare_value`.
    pub count: u64,
    /// Column of [`RareNodeSet::witnesses`] holding the first profiling
    /// pattern in which the node took `rare_value`; `None` when it never
    /// did (`count == 0`).
    pub witness: Option<u32>,
}

impl RareNode {
    /// The estimated probability of the rare event, given the profiling
    /// set size.
    #[must_use]
    pub fn probability(&self, samples: usize) -> f64 {
        if samples == 0 {
            0.0
        } else {
            self.count as f64 / samples as f64
        }
    }
}

/// The result of Algorithm 1: the rare nodes of a circuit.
///
/// Matches the paper's split into `RN1` (rare at value 1) and `RN0`
/// (rare at value 0); [`RareNodeSet::iter`] chains both.
#[derive(Debug, Clone, Default)]
pub struct RareNodeSet {
    rn1: Vec<RareNode>,
    rn0: Vec<RareNode>,
    samples: usize,
    witnesses: PatternSet,
}

impl RareNodeSet {
    /// Nodes rare at logic 1 (the paper's `RN1`).
    #[must_use]
    pub fn rare_at_one(&self) -> &[RareNode] {
        &self.rn1
    }

    /// Nodes rare at logic 0 (the paper's `RN0`).
    #[must_use]
    pub fn rare_at_zero(&self) -> &[RareNode] {
        &self.rn0
    }

    /// All rare nodes (RN1 then RN0).
    pub fn iter(&self) -> impl Iterator<Item = &RareNode> + '_ {
        self.rn1.iter().chain(self.rn0.iter())
    }

    /// Total number of rare nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rn1.len() + self.rn0.len()
    }

    /// Whether no rare nodes were found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rn1.is_empty() && self.rn0.is_empty()
    }

    /// Number of profiling patterns used.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The distinct witness patterns, in the order they occur in the
    /// profiling set: column `k` is the input vector of every rare node
    /// whose [`RareNode::witness`] is `Some(k)`. Each such vector drives
    /// its nodes to their rare values, which is what witness-guided cube
    /// generation follows.
    #[must_use]
    pub fn witnesses(&self) -> &PatternSet {
        &self.witnesses
    }

    /// Finds the rare entry for a node, if the node is rare.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&RareNode> {
        self.iter().find(|r| r.node == node)
    }
}

impl<'a> IntoIterator for &'a RareNodeSet {
    type Item = &'a RareNode;
    type IntoIter =
        std::iter::Chain<std::slice::Iter<'a, RareNode>, std::slice::Iter<'a, RareNode>>;

    fn into_iter(self) -> Self::IntoIter {
        self.rn1.iter().chain(self.rn0.iter())
    }
}

/// Configurable rare-node extractor (Algorithm 1).
///
/// # Examples
///
/// ```
/// use htforge_netlist::bench;
/// use htforge_sim::{PatternSet, RareNodeExtractor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n";
/// let nl = bench::parse(src, "t")?;
/// let patterns = PatternSet::random(3, 10_000, 7);
/// // y is 1 only 1/8 of the time: rare at θ = 20 %.
/// let rare = RareNodeExtractor::new(0.20).extract(&nl, &patterns)?;
/// let y = nl.find("y").unwrap();
/// assert!(rare.rare_at_one().iter().any(|r| r.node == y));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareNodeExtractor {
    theta: f64,
}

impl RareNodeExtractor {
    /// Creates an extractor with rareness threshold `theta` (a fraction of
    /// the vector-set size, e.g. `0.20` for the paper's 20 %).
    ///
    /// Primary inputs are never candidates (they are never rare under
    /// uniform random vectors and are not usable trigger nodes anyway);
    /// primary outputs are, matching the paper's node counts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= theta <= 1.0`.
    #[must_use]
    pub fn new(theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        RareNodeExtractor { theta }
    }

    /// The rareness threshold.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Runs Algorithm 1 on `nl`: compiles it, then profiles it with
    /// [`RareNodeExtractor::extract_budgeted`] under an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the input count.
    pub fn extract(
        &self,
        nl: &Netlist,
        patterns: &PatternSet,
    ) -> Result<RareNodeSet, NetlistError> {
        let prog = SimProgram::compile(nl)?;
        Ok(self
            .extract_budgeted(&prog, nl, patterns, &RunBudget::unlimited())
            .0)
    }

    /// Algorithm 1 over `prog`, the compiled form of `nl`: simulates
    /// `patterns` 2048 at a time and classifies each node. A node with
    /// `count1 ≤ θ·|V|` goes to RN1; otherwise, if `count0 ≤ θ·|V|`, to
    /// RN0 (the paper's if/else-if order).
    ///
    /// The budget is checked between chunks. When it runs out the
    /// profile is computed from the patterns simulated so far and a
    /// [`DegradationNote`] reports the truncation; counts and witnesses
    /// over the simulated prefix are identical to what a full run would
    /// have seen for those patterns.
    ///
    /// # Panics
    ///
    /// Panics if `prog` was not compiled from `nl` (detected via
    /// node-count mismatch) or the pattern width does not match the
    /// input count.
    pub fn extract_budgeted(
        &self,
        prog: &SimProgram,
        nl: &Netlist,
        patterns: &PatternSet,
        budget: &RunBudget,
    ) -> (RareNodeSet, Option<DegradationNote>) {
        assert_eq!(
            nl.node_count(),
            prog.node_count(),
            "program compiled from a different netlist"
        );
        assert_eq!(
            patterns.num_inputs(),
            prog.num_inputs(),
            "pattern width does not match netlist input count"
        );
        // Chunk length must be word-aligned so columns can be copied
        // wholesale out of the source pattern set.
        const CHUNK: usize = 2048;
        let num_inputs = patterns.num_inputs();
        let mut profile = Profile::new(nl.node_count());
        let mut simulated = 0usize;
        while simulated < patterns.len() {
            if budget.check().is_err() {
                break;
            }
            htforge_obs::faultpoint!("rare.extract_chunk");
            let len = CHUNK.min(patterns.len() - simulated);
            let mut chunk = PatternSet::zeros(num_inputs, len);
            let w0 = simulated / 64;
            let w1 = w0 + PatternSet::words_for(len);
            for input in 0..num_inputs {
                chunk.set_input_words(input, &patterns.input_words(input)[w0..w1]);
            }
            profile.observe(nl, &prog.run(&chunk), simulated);
            simulated += len;
        }
        let note = (simulated < patterns.len()).then(|| {
            DegradationNote::new(
                "rare_extraction",
                "truncated_profile",
                format!("profiled {simulated} of {} patterns", patterns.len()),
            )
        });
        (self.classify(nl, &profile, patterns, simulated), note)
    }

    /// Classifies nodes into RN1/RN0 given the profile of the first
    /// `samples` patterns of `patterns` (the tail of Algorithm 1), and
    /// copies each rare node's first firing pattern into the witness set.
    fn classify(
        &self,
        nl: &Netlist,
        profile: &Profile,
        patterns: &PatternSet,
        samples: usize,
    ) -> RareNodeSet {
        let threshold = (self.theta * samples as f64).floor() as u64;
        let mut set = RareNodeSet {
            rn1: Vec::new(),
            rn0: Vec::new(),
            samples,
            witnesses: PatternSet::zeros(patterns.num_inputs(), 0),
        };
        if samples == 0 {
            return set;
        }
        for (i, (id, node)) in nl.iter().enumerate() {
            // Inputs are never candidates (see `new`); the Q of an uncut
            // DFF is not simulated.
            if matches!(node.kind(), NodeKind::Input | NodeKind::Dff) {
                continue;
            }
            let ones = profile.ones[i];
            let zeros = samples as u64 - ones;
            // Witnesses hold pattern indices here; renumbered to columns
            // once every rare node is known.
            let rare = |rare_value: bool, count: u64| RareNode {
                node: id,
                rare_value,
                count,
                witness: profile.first_fire(i, rare_value),
            };
            if ones <= threshold {
                set.rn1.push(rare(true, ones));
            } else if zeros <= threshold {
                set.rn0.push(rare(false, zeros));
            }
        }
        let mut fired: Vec<u32> = set.iter().filter_map(|r| r.witness).collect();
        fired.sort_unstable();
        fired.dedup();
        for &p in &fired {
            set.witnesses.push(&patterns.pattern(p as usize));
        }
        for r in set.rn1.iter_mut().chain(set.rn0.iter_mut()) {
            r.witness = r
                .witness
                .map(|p| fired.binary_search(&p).expect("witness recorded") as u32);
        }
        set
    }
}

/// Per-node tallies over the simulated patterns: how often each node was
/// 1, and the first pattern in which it was 0 and 1 (`u32::MAX` while
/// unseen).
struct Profile {
    ones: Vec<u64>,
    first: [Vec<u32>; 2],
}

impl Profile {
    fn new(nodes: usize) -> Self {
        Profile {
            ones: vec![0; nodes],
            first: [vec![u32::MAX; nodes], vec![u32::MAX; nodes]],
        }
    }

    /// Adds one simulated chunk whose pattern 0 is profiling pattern
    /// `offset`. First fires already seen are kept, so chunks must come
    /// in order.
    fn observe(&mut self, nl: &Netlist, values: &NodeValues, offset: usize) {
        let tail = PatternSet::tail_mask(values.len());
        for (i, id) in nl.node_ids().enumerate() {
            let words = values.words(id);
            self.ones[i] += values.count_ones(id);
            for value in [false, true] {
                let first = &mut self.first[usize::from(value)][i];
                if *first == u32::MAX {
                    if let Some(p) = first_set_bit(words, value, tail) {
                        *first = u32::try_from(offset + p).expect("pattern index fits in u32");
                    }
                }
            }
        }
    }

    fn first_fire(&self, node: usize, value: bool) -> Option<u32> {
        let p = self.first[usize::from(value)][node];
        (p != u32::MAX).then_some(p)
    }
}

/// Index of the first pattern in which a packed column equals `value`
/// (`!words` for 0, with the final word cut to `tail`).
fn first_set_bit(words: &[u64], value: bool, tail: u64) -> Option<usize> {
    let last = words.len().checked_sub(1)?;
    words.iter().enumerate().find_map(|(k, &w)| {
        let w = if value { w } else { !w };
        let w = if k == last { w & tail } else { w };
        (w != 0).then(|| k * 64 + w.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

    const TREE: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
m = AND(a, b)
n = AND(c, d)
y = AND(m, n)
";

    #[test]
    fn and_tree_internal_nodes_classified() {
        let nl = bench::parse(TREE, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 11);
        let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
        // P(m=1) = 1/4 > 0.2 ⇒ not rare-1; P(m=0) = 3/4 ⇒ not rare-0.
        let m = nl.find("m").unwrap();
        assert!(rare.get(m).is_none());
        // P(y=1) = 1/16 ≤ 0.2 ⇒ rare at 1.
        let y = nl.find("y").unwrap();
        let entry = rare.get(y).expect("y should be rare");
        assert!(entry.rare_value);
        assert!(entry.probability(rare.samples()) < 0.1);
    }

    #[test]
    fn larger_theta_finds_more_rare_nodes() {
        let nl = bench::parse(TREE, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 11);
        let small = RareNodeExtractor::new(0.05).extract(&nl, &ps).unwrap();
        let large = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        assert!(large.len() >= small.len());
        // At θ = 30 %, m and n (P = 1/4) become rare at 1.
        assert!(large.get(nl.find("m").unwrap()).is_some());
    }

    #[test]
    fn nor_output_is_rare_at_one_side_or_zero_side() {
        // y = OR(a,b,c,d): P(y=0) = 1/16 ⇒ rare at 0.
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = OR(a, b, c, d)
";
        let nl = bench::parse(src, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
        let y = nl.find("y").unwrap();
        let entry = rare.get(y).expect("y should be rare");
        assert!(!entry.rare_value);
        assert!(rare.rare_at_zero().iter().any(|r| r.node == y));
    }

    #[test]
    fn inputs_excluded_outputs_included() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "t").unwrap();
        // All-zero patterns make `a` (and the output `y`) "rare at 1".
        let ps = PatternSet::zeros(1, 100);
        let rare = RareNodeExtractor::new(0.2).extract(&nl, &ps).unwrap();
        assert!(rare.get(nl.find("a").unwrap()).is_none());
        assert!(rare.get(nl.find("y").unwrap()).is_some());
    }

    #[test]
    fn theta_zero_marks_constant_nodes_only() {
        // y = AND(a, na) is constant 0 ⇒ count1 = 0 ≤ 0.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n";
        let nl = bench::parse(src, "t").unwrap();
        let ps = PatternSet::random(1, 1000, 5);
        let rare = RareNodeExtractor::new(0.0).extract(&nl, &ps).unwrap();
        assert_eq!(rare.len(), 1);
        assert_eq!(rare.rare_at_one()[0].node, nl.find("y").unwrap());
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_panics() {
        let _ = RareNodeExtractor::new(1.5);
    }

    #[test]
    fn budgeted_extraction_matches_unbudgeted_when_time_allows() {
        let nl = bench::parse(TREE, "t").unwrap();
        // 5000 patterns: exercises both full chunks and a partial tail.
        let ps = PatternSet::random(4, 5_000, 11);
        let ex = RareNodeExtractor::new(0.20);
        let full = ex.extract(&nl, &ps).unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let budget = RunBudget::with_deadline(std::time::Duration::from_secs(60));
        let (chunked, note) = ex.extract_budgeted(&prog, &nl, &ps, &budget);
        assert!(note.is_none());
        assert_eq!(chunked.samples(), full.samples());
        assert_eq!(chunked.rare_at_one(), full.rare_at_one());
        assert_eq!(chunked.rare_at_zero(), full.rare_at_zero());
        assert_eq!(chunked.witnesses(), full.witnesses());

        // A planted first fire in the second 2048-pattern chunk: the
        // chunked path must offset its witness by the chunk start.
        let mut planted = PatternSet::zeros(4, 5_000);
        for input in 0..4 {
            planted.set(input, 3_000, true);
        }
        let full = ex.extract(&nl, &planted).unwrap();
        let (chunked, _) = ex.extract_budgeted(&prog, &nl, &planted, &budget);
        assert_eq!(chunked.rare_at_one(), full.rare_at_one());
        assert_eq!(chunked.witnesses(), full.witnesses());
        let y = full.get(nl.find("y").unwrap()).unwrap();
        assert_eq!(y.witness, Some(0));
        assert_eq!(full.witnesses().pattern(0), vec![true; 4]);
    }

    #[test]
    fn witness_is_the_first_firing_pattern() {
        let nl = bench::parse(TREE, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 11);
        let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
        let first = (0..ps.len())
            .find(|&p| ps.pattern(p).iter().all(|&b| b))
            .expect("y fires");
        let y = rare.get(nl.find("y").unwrap()).unwrap();
        // y is the only rare node, so its witness is the only column.
        assert_eq!(rare.len(), 1);
        assert_eq!(y.witness, Some(0));
        assert_eq!(rare.witnesses().len(), 1);
        assert_eq!(rare.witnesses().pattern(0), ps.pattern(first));
        // Never-firing events have no witness: y is rare at 1 but never
        // fires on all-zero patterns.
        let zeros = PatternSet::zeros(4, 100);
        let rare = RareNodeExtractor::new(0.20).extract(&nl, &zeros).unwrap();
        let y = rare.get(nl.find("y").unwrap()).unwrap();
        assert_eq!((y.count, y.witness), (0, None));
        assert!(rare.witnesses().is_empty());
    }

    #[test]
    fn exhausted_budget_yields_truncation_note() {
        let nl = bench::parse(TREE, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 11);
        let budget = RunBudget::with_deadline(std::time::Duration::ZERO);
        let prog = SimProgram::compile(&nl).unwrap();
        let (set, note) = RareNodeExtractor::new(0.20).extract_budgeted(&prog, &nl, &ps, &budget);
        assert_eq!(set.samples(), 0);
        assert!(set.is_empty());
        let note = note.expect("truncation must be reported");
        assert_eq!(note.phase, "rare_extraction");
        assert_eq!(note.action, "truncated_profile");
    }

    #[test]
    fn cancelled_unlimited_budget_truncates_the_profile() {
        let nl = bench::parse(TREE, "t").unwrap();
        let ps = PatternSet::random(4, 1_000, 11);
        let budget = RunBudget::unlimited();
        budget.cancel_token().cancel();
        let prog = SimProgram::compile(&nl).unwrap();
        let (set, note) = RareNodeExtractor::new(0.20).extract_budgeted(&prog, &nl, &ps, &budget);
        assert!(set.is_empty());
        assert!(note.is_some());
    }
}
