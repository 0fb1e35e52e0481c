//! Joint-trigger validation by brute-force simulation search.
//!
//! Random and RL-based inserters choose trigger sets with *no guarantee*
//! that a single input vector drives all members to their rare values.
//! They must therefore validate each candidate by searching for such a
//! vector — the step the compatibility graph eliminates, and the source
//! of the 10³–10⁴× insertion-time gap in the paper's Table III.

use htforge_netlist::netlist::NodeId;
use htforge_sim::{NodeValues, PatternSet, SimProgram};

/// How much simulation effort to spend per validation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationBudget {
    /// Total random vectors to try.
    pub vectors: usize,
    /// Vectors simulated per bit-parallel batch.
    pub batch: usize,
}

impl Default for ValidationBudget {
    fn default() -> Self {
        ValidationBudget {
            vectors: 100_000,
            batch: 4_096,
        }
    }
}

/// Searches for one input vector that simultaneously drives every
/// `(node, value)` pair in `targets`, simulating random batches on
/// `prog` (compiled from the circuit's combinational model). Returns the
/// vector if found within the budget.
///
/// # Panics
///
/// Panics if `targets` is empty or the budget has a zero batch size.
#[must_use]
pub fn find_joint_trigger(
    prog: &SimProgram,
    targets: &[(NodeId, bool)],
    budget: ValidationBudget,
    seed: u64,
) -> Option<Vec<bool>> {
    assert!(!targets.is_empty(), "validation needs at least one target");
    assert!(budget.batch > 0, "batch size must be positive");
    let mut tried = 0usize;
    let mut batch_seed = seed;
    while tried < budget.vectors {
        let count = budget.batch.min(budget.vectors - tried);
        let ps = PatternSet::random(prog.num_inputs(), count, batch_seed);
        let vals = prog.run(&ps);
        let first = (0..PatternSet::words_for(count)).find_map(|w| {
            let hit = joint_hits(&vals, targets, w);
            (hit != 0).then(|| w * 64 + hit.trailing_zeros() as usize)
        });
        if let Some(pattern) = first {
            return Some(ps.pattern(pattern));
        }
        tried += count;
        batch_seed = batch_seed
            .wrapping_add(0x9E37_79B9)
            .wrapping_mul(6364136223846793005);
    }
    None
}

/// Counts how many of `vectors` random input vectors simultaneously
/// drive every `(node, value)` pair in `targets` on `prog` — the
/// *stealth* metric of ATTRITION-style RL rewards (a trigger combination
/// that fires under random patterns is not stealthy).
///
/// # Panics
///
/// Panics if `targets` is empty.
#[must_use]
pub fn count_joint_occurrences(
    prog: &SimProgram,
    targets: &[(NodeId, bool)],
    vectors: usize,
    seed: u64,
) -> usize {
    assert!(
        !targets.is_empty(),
        "stealth check needs at least one target"
    );
    let vals = prog.run(&PatternSet::random(prog.num_inputs(), vectors, seed));
    (0..PatternSet::words_for(vectors))
        .map(|w| joint_hits(&vals, targets, w).count_ones() as usize)
        .sum()
}

/// The simulated patterns of word `w` that drive every target to its
/// value: the AND over the value-adjusted target columns, with the tail
/// beyond the last simulated pattern masked off.
fn joint_hits(vals: &NodeValues, targets: &[(NodeId, bool)], w: usize) -> u64 {
    let mut hit = if w + 1 == PatternSet::words_for(vals.len()) {
        PatternSet::tail_mask(vals.len())
    } else {
        u64::MAX
    };
    for &(node, value) in targets {
        let v = vals.words(node)[w];
        hit &= if value { v } else { !v };
        if hit == 0 {
            break;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::{bench, Netlist};

    fn compile(nl: &Netlist) -> SimProgram {
        SimProgram::compile(nl).unwrap()
    }

    #[test]
    fn finds_satisfiable_joint_trigger() {
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(x)
OUTPUT(y)
x = AND(a, b)
y = AND(c, d)
";
        let nl = bench::parse(src, "t").unwrap();
        let targets = vec![(nl.find("x").unwrap(), true), (nl.find("y").unwrap(), true)];
        let prog = compile(&nl);
        let v = find_joint_trigger(&prog, &targets, ValidationBudget::default(), 1)
            .expect("1/16 probability: findable");
        // Verify by simulation.
        let vals = prog.run(&PatternSet::from_vectors(4, &[v]));
        for &(n, want) in &targets {
            assert_eq!(vals.value(n, 0), want);
        }
    }

    #[test]
    fn impossible_joint_trigger_exhausts_budget() {
        // x and nx are complementary: never jointly 1.
        let src = "INPUT(a)\nOUTPUT(y)\nx = BUF(a)\nnx = NOT(a)\ny = AND(x, nx)\n";
        let nl = bench::parse(src, "t").unwrap();
        let targets = vec![
            (nl.find("x").unwrap(), true),
            (nl.find("nx").unwrap(), true),
        ];
        let budget = ValidationBudget {
            vectors: 1_000,
            batch: 128,
        };
        assert!(find_joint_trigger(&compile(&nl), &targets, budget, 2).is_none());
    }

    #[test]
    fn single_target_trivial() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let v = find_joint_trigger(
            &compile(&nl),
            &[(nl.find("y").unwrap(), true)],
            ValidationBudget::default(),
            3,
        )
        .unwrap();
        assert!(!v[0]); // y = 1 requires a = 0
    }

    #[test]
    fn occurrence_count_matches_probability() {
        // y = AND(a, b): P(joint) = 1/4 → ~256 hits in 1024 vectors.
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let hits =
            count_joint_occurrences(&compile(&nl), &[(nl.find("y").unwrap(), true)], 1024, 5);
        assert!((180..340).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn impossible_joint_has_zero_occurrences() {
        let src = "INPUT(a)\nOUTPUT(y)\nx = BUF(a)\nnx = NOT(a)\ny = AND(x, nx)\n";
        let nl = bench::parse(src, "t").unwrap();
        let hits = count_joint_occurrences(
            &compile(&nl),
            &[
                (nl.find("x").unwrap(), true),
                (nl.find("nx").unwrap(), true),
            ],
            1000,
            6,
        );
        assert_eq!(hits, 0);
    }

    #[test]
    fn tail_patterns_are_not_false_hits() {
        // Budget smaller than one word: mask handling must not return
        // phantom patterns beyond `count`.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let nl = bench::parse(src, "t").unwrap();
        let budget = ValidationBudget {
            vectors: 7,
            batch: 7,
        };
        // With 7 vectors the search may or may not find a=b=1; it must
        // never panic or return an out-of-range pattern.
        if let Some(v) =
            find_joint_trigger(&compile(&nl), &[(nl.find("y").unwrap(), true)], budget, 4)
        {
            assert_eq!(v.len(), 2);
            assert!(v[0] && v[1]);
        }
    }
}
