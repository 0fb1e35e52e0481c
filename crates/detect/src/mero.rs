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
//! one simulation per 64 candidate bits. Each worker owns one 64-pattern
//! scratch set, and a batch is written into it one word per input: the
//! current bit broadcast to all 64 columns, with column `k`'s flip XORed
//! in. The batch is scored by a bit-sliced counter: one word per rare
//! event (inverted when the rare value is 0) is added into bit planes of
//! 64 side-by-side counters, so every column's satisfied-event count
//! costs about two word operations per event. The pool is sorted on the
//! same counter, one pool word at a time. The current vector's
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

    /// Satisfied-event counts of the 64 patterns in word `word` of
    /// `values`: entry `k` counts the events that pattern `64 * word + k`
    /// satisfies. Each event contributes its node's word, inverted when
    /// its rare value is 0.
    fn column_counts(values: &NodeValues, word: usize, events: &[(NodeId, bool)]) -> [usize; 64] {
        Self::sum_columns(events.iter().map(|&(node, want)| {
            let w = values.words(node)[word];
            if want {
                w
            } else {
                !w
            }
        }))
    }

    /// Per-column population count of `words`: entry `k` is the number
    /// of words with bit `k` set.
    ///
    /// A bit-sliced counter: each word is added into bit planes of 64
    /// side-by-side binary counters, plane `j` holding bit `j` of every
    /// column's count. The carry stops at the first plane it leaves
    /// unchanged, so an all-zero word costs one test and a word shared
    /// by every column ripples like a single counter: about two word
    /// operations per word instead of 64 bit tests.
    fn sum_columns(words: impl IntoIterator<Item = u64>) -> [usize; 64] {
        let mut planes = [0u64; usize::BITS as usize];
        let mut used = 0;
        for word in words {
            let mut carry = word;
            let mut j = 0;
            while carry != 0 {
                let next = planes[j] & carry;
                planes[j] ^= carry;
                carry = next;
                j += 1;
            }
            used = used.max(j);
        }
        let mut counts = [0usize; 64];
        for (j, &plane) in planes[..used].iter().enumerate() {
            for (k, count) in counts.iter_mut().enumerate() {
                *count |= usize::from((plane >> k) & 1 == 1) << j;
            }
        }
        counts
    }

    /// Hill-climbs pool vector `p` and returns the climbed vector with
    /// the events it satisfies. `batch` is the worker's 64-pattern
    /// scratch set; it is overwritten by every chunk. Depends only on
    /// `p`, so climbs run on any worker in any order.
    fn climb(
        prog: &SimProgram,
        batch: &mut PatternSet,
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
            let chunk = chunk_start..(chunk_start + 64).min(num_inputs);
            // Column k flips input `chunk_start + k`. Past the end of a
            // partial chunk the columns repeat `vector` and score
            // `current`, so they never win.
            for (i, &bit) in vector.iter().enumerate() {
                let flip = if chunk.contains(&i) {
                    1u64 << (i - chunk_start)
                } else {
                    0
                };
                batch.set_input_words(i, &[0u64.wrapping_sub(u64::from(bit)) ^ flip]);
            }
            let vals = prog.run(batch);
            let scores = Self::column_counts(&vals, 0, events);
            let mut best: Option<(usize, usize)> = None; // (column, score)
            for (k, &score) in scores[..chunk.len()].iter().enumerate() {
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
        let satisfied: Vec<usize> = (0..PatternSet::words_for(pool.len()))
            .flat_map(|w| Self::column_counts(&pool_values, w, &events))
            .take(pool.len())
            .collect();
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by_key(|&p| std::cmp::Reverse(satisfied[p]));

        let mut counts = vec![0usize; events.len()];
        let mut batches = vec![PatternSet::zeros(num_inputs, 64); threads];
        'pool: for block in order.chunks(threads * CLIMBS_PER_WORKER) {
            let climbs = htforge_obs::map_indexed(&mut batches, block.len(), |batch, i| {
                Self::climb(prog, batch, &pool, &pool_values, block[i], &events)
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Netlist, RareNodeSet) {
        let nl = htforge_circuits::load("c17").unwrap();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        (nl, rare)
    }

    #[test]
    fn bit_sliced_counts_match_a_scalar_count() {
        // Random words, then 5 000 all-ones words: every column's count
        // passes 4096, so carries run through thirteen planes.
        let mut rng = StdRng::seed_from_u64(11);
        let mut words: Vec<u64> = (0..3_000).map(|_| rng.gen()).collect();
        words.extend(std::iter::repeat_n(u64::MAX, 5_000));
        for len in [0, 1, 7, 1_023, 1_024, 3_000, words.len()] {
            let counts = MeroDetection::sum_columns(words[..len].iter().copied());
            for (k, &count) in counts.iter().enumerate() {
                let scalar = words[..len].iter().filter(|&&w| (w >> k) & 1 == 1).count();
                assert_eq!(count, scalar, "column {k} of {len} words");
            }
        }
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

    /// Rare-event count, test count and FNV-1a digest of the packed
    /// test set of `circuit` at the `detect` benchmark's MERO settings.
    fn pinned_run(circuit: &str) -> (usize, usize, u64) {
        let nl = htforge_circuits::load(circuit).unwrap().scan_cut();
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
        (rare.len(), tests.len(), digest)
    }

    #[test]
    fn c2670_output_is_pinned() {
        // How the climb builds its batches and scores their columns
        // must not change a single generated bit. c2670's 233 inputs
        // end in a partial chunk of 41 candidate flips.
        assert_eq!(pinned_run("c2670"), (326, 99, 0xc783_16e4_feda_98bf));
    }

    #[test]
    fn c7552_output_is_pinned() {
        // More than 1024 rare events: a column's satisfied-event count
        // needs an eleventh bit.
        assert_eq!(pinned_run("c7552"), (1212, 242, 0x6c67_ea8a_8852_f8fa));
    }
}
