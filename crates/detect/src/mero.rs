//! MERO — Multiple Excitation of Rare Occurrences
//! (Chakraborty, Wolff, Paul, Papachristou, Bhunia — CHES 2009).
//!
//! MERO refines random patterns so that every rare event (rare node at
//! its rare value) is excited at least `N` times, on the statistical
//! principle that repeated excitation of individual rare conditions
//! raises the chance of hitting an unknown trigger *combination*.
//!
//! Implementation notes: the classic algorithm flips one input bit at a
//! time, accepting a flip when it increases the number of satisfied rare
//! events. We batch 64 candidate flips into one bit-parallel simulation
//! and accept the best flip of each batch — the same greedy hill-climb,
//! one simulation per 64 candidate bits. The current vector's
//! satisfied-event flags need no simulation of their own: they start as
//! the vector's column of the pool run, and each accepted flip replaces
//! them with the winning column of the batch that scored it.
//!
//! A vector's climb depends only on that vector, so blocks of the pool
//! are climbed on the shared worker loop ([`htforge_obs::map_indexed`]);
//! which climbed vectors are kept is decided afterwards, in pool order.

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError};
use htforge_sim::{NodeValues, PatternSet, RareNodeSet, SimProgram};

use crate::scheme::DetectionScheme;

/// Pool vectors climbed per worker between two checks of the stop
/// condition: large enough that thread start-up stays negligible next
/// to the climbs, small enough that little is climbed after the stop.
const CLIMBS_PER_WORKER: usize = 32;

/// The MERO test generator.
///
/// # Examples
///
/// ```
/// use htforge_detect::{DetectionScheme, MeroDetection};
/// use htforge_sim::{PatternSet, RareNodeExtractor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = htforge_circuits::load("c17")?;
/// let profile = PatternSet::random(nl.inputs().len(), 2_000, 1);
/// let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile)?;
/// let tests = MeroDetection::new(5, 200, 42).generate_tests(&nl, &rare)?;
/// assert!(!tests.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeroDetection {
    /// N-detect target: each rare event excited at least this often.
    n: usize,
    /// Initial random-vector pool size.
    initial_vectors: usize,
    seed: u64,
}

impl MeroDetection {
    /// MERO with N-detect target `n` over `initial_vectors` random seeds.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `initial_vectors == 0`.
    #[must_use]
    pub fn new(n: usize, initial_vectors: usize, seed: u64) -> Self {
        assert!(n > 0, "N-detect target must be positive");
        assert!(initial_vectors > 0, "need at least one initial vector");
        MeroDetection {
            n,
            initial_vectors,
            seed,
        }
    }

    /// Per-event satisfied flags of one pattern of `values`.
    fn satisfied(values: &NodeValues, pattern: usize, events: &[(NodeId, bool)]) -> Vec<bool> {
        events
            .iter()
            .map(|&(node, want)| values.value(node, pattern) == want)
            .collect()
    }

    /// Number of rare events satisfied by the node values of one pattern.
    fn count_satisfied(values: &NodeValues, pattern: usize, events: &[(NodeId, bool)]) -> usize {
        events
            .iter()
            .filter(|&&(node, want)| values.value(node, pattern) == want)
            .count()
    }

    /// Hill-climbs pool vector `p` and returns the climbed vector with
    /// the events it satisfies. Depends only on `p`, so climbs run on
    /// any worker in any order.
    fn climb(
        prog: &SimProgram,
        pool: &PatternSet,
        pool_values: &NodeValues,
        p: usize,
        events: &[(NodeId, bool)],
    ) -> (Vec<bool>, Vec<bool>) {
        let num_inputs = pool.num_inputs();
        let mut vector = pool.pattern(p);
        // Which events `vector` satisfies, kept in step with every
        // accepted flip.
        let mut sat = Self::satisfied(pool_values, p, events);
        let mut current = sat.iter().filter(|&&s| s).count();
        // Hill-climb over input bits, 64 candidate flips per sim.
        for chunk_start in (0..num_inputs).step_by(64) {
            let chunk_end = (chunk_start + 64).min(num_inputs);
            let mut batch = PatternSet::zeros(num_inputs, 0);
            for i in chunk_start..chunk_end {
                let mut flipped = vector.clone();
                flipped[i] = !flipped[i];
                batch.push(&flipped);
            }
            let vals = prog.run(&batch);
            let mut best: Option<(usize, usize)> = None; // (column, score)
            for k in 0..chunk_end - chunk_start {
                let score = Self::count_satisfied(&vals, k, events);
                if score > current && best.is_none_or(|(_, s)| score > s) {
                    best = Some((k, score));
                }
            }
            if let Some((k, score)) = best {
                let bit = chunk_start + k;
                vector[bit] = !vector[bit];
                current = score;
                sat = Self::satisfied(&vals, k, events);
            }
        }
        (vector, sat)
    }

    /// [`DetectionScheme::generate_tests`] over `prog`, the compiled
    /// golden netlist, on `threads` workers. Blocks of the sorted pool
    /// are climbed on the workers; the selection then walks each block in
    /// pool order, so the test set is the same at any thread count. Once every event reaches `n`, at
    /// most the rest of one block has been climbed for nothing.
    fn generate_on(&self, prog: &SimProgram, rare: &RareNodeSet, threads: usize) -> PatternSet {
        let _span = htforge_obs::span("mero");
        let events: Vec<(NodeId, bool)> = rare.iter().map(|r| (r.node, r.rare_value)).collect();
        let num_inputs = prog.num_inputs();
        let mut tests = PatternSet::zeros(num_inputs, 0);
        if events.is_empty() {
            // No rare events: nothing to excite, so nothing to keep.
            return tests;
        }
        let pool = PatternSet::random(num_inputs, self.initial_vectors, self.seed);

        // Seed pool, sorted by satisfied-event count (descending) as in
        // the original algorithm.
        let pool_values = prog.run(&pool);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by_cached_key(|&p| {
            std::cmp::Reverse(Self::count_satisfied(&pool_values, p, &events))
        });

        let mut counts = vec![0usize; events.len()];
        let mut workers = vec![(); threads];
        'pool: for block in order.chunks(threads * CLIMBS_PER_WORKER) {
            let climbs = htforge_obs::map_indexed(&mut workers, block.len(), |(), i| {
                Self::climb(prog, &pool, &pool_values, block[i], &events)
            });
            for (vector, sat) in climbs {
                if counts.iter().all(|&c| c >= self.n) {
                    break 'pool;
                }
                // Keep the vector if it advances any event's N-detect count.
                if sat.iter().zip(&counts).any(|(&s, &c)| s && c < self.n) {
                    for (count, &s) in counts.iter_mut().zip(&sat) {
                        *count += usize::from(s);
                    }
                    tests.push(&vector);
                }
            }
        }
        tests
    }
}

impl DetectionScheme for MeroDetection {
    fn name(&self) -> &str {
        "MERO"
    }

    fn generate_tests(
        &self,
        golden: &Netlist,
        rare: &RareNodeSet,
    ) -> Result<PatternSet, NetlistError> {
        let prog = SimProgram::compile(golden)?;
        Ok(self.generate_on(&prog, rare, htforge_obs::host_threads()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::RareNodeExtractor;

    fn setup() -> (Netlist, RareNodeSet) {
        let nl = htforge_circuits::load("c17").unwrap();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        (nl, rare)
    }

    #[test]
    fn covers_each_rare_event_n_times() {
        let (nl, rare) = setup();
        assert!(!rare.is_empty(), "c17 should have rare nodes at θ=0.3");
        let n = 5;
        let tests = MeroDetection::new(n, 500, 7)
            .generate_tests(&nl, &rare)
            .unwrap();
        // Re-simulate and count excitations.
        let vals = SimProgram::compile(&nl).unwrap().run(&tests);
        for r in rare.iter() {
            let mut hits = 0;
            for p in 0..tests.len() {
                if vals.value(r.node, p) == r.rare_value {
                    hits += 1;
                }
            }
            assert!(
                hits >= n,
                "rare event {}={} hit only {hits} < {n} times",
                nl.node(r.node).name(),
                r.rare_value
            );
        }
    }

    #[test]
    fn compact_compared_to_pool() {
        let (nl, rare) = setup();
        let tests = MeroDetection::new(3, 500, 7)
            .generate_tests(&nl, &rare)
            .unwrap();
        assert!(tests.len() < 500, "MERO should select a small subset");
        assert!(!tests.is_empty());
    }

    #[test]
    fn empty_rare_profile_yields_no_tests() {
        let nl = htforge_circuits::load("c17").unwrap();
        let tests = MeroDetection::new(3, 50, 9)
            .generate_tests(&nl, &RareNodeSet::default())
            .unwrap();
        assert!(tests.is_empty());
        assert_eq!(tests.num_inputs(), nl.inputs().len());
    }

    #[test]
    fn deterministic() {
        let (nl, rare) = setup();
        let a = MeroDetection::new(3, 200, 5)
            .generate_tests(&nl, &rare)
            .unwrap();
        let b = MeroDetection::new(3, 200, 5)
            .generate_tests(&nl, &rare)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_identical_at_any_worker_count() {
        // Blocks of 32, 64 and 96 climbs: the N-detect target is met in
        // a different place of each block, and the kept vectors must
        // not change.
        let nl = htforge_circuits::load("c880").unwrap();
        let profile = PatternSet::random(nl.inputs().len(), 10_000, 1);
        let rare = RareNodeExtractor::new(0.2).extract(&nl, &profile).unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let mero = MeroDetection::new(5, 2_500, 3);
        let one = mero.generate_on(&prog, &rare, 1);
        assert!(
            one.len() < 2_500,
            "the N-detect target must stop the pool walk"
        );
        for threads in [2, 3] {
            assert_eq!(
                mero.generate_on(&prog, &rare, threads),
                one,
                "{threads} workers"
            );
        }
    }

    #[test]
    fn c2670_output_is_pinned() {
        // Test count and FNV-1a digest of the packed test set at the
        // `detect` benchmark's MERO settings: how the climb keeps its
        // satisfied-event flags must not change a single generated bit.
        let nl = htforge_circuits::load("c2670").unwrap().scan_cut();
        let profile = PatternSet::random(nl.inputs().len(), 10_000, 1);
        let rare = RareNodeExtractor::new(0.2).extract(&nl, &profile).unwrap();
        let tests = MeroDetection::new(5, 2_500, 1)
            .generate_tests(&nl, &rare)
            .unwrap();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..tests.num_inputs() {
            for &w in tests.input_words(i) {
                digest = (digest ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(rare.len(), 326);
        assert_eq!(tests.len(), 99);
        assert_eq!(digest, 0xc783_16e4_feda_98bf);
    }
}
