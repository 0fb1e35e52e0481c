//! Bit-packed input-pattern sets.
//!
//! A [`PatternSet`] holds `len` input vectors for a circuit with
//! `num_inputs` primary inputs, packed 64 patterns per machine word so the
//! simulator evaluates 64 vectors per gate visit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of input vectors, bit-packed per input.
///
/// Storage layout: `bits[input][word]`, where bit `p % 64` of
/// `bits[input][p / 64]` is the value of `input` in pattern `p`.
///
/// # Examples
///
/// ```
/// use htforge_sim::PatternSet;
///
/// let mut ps = PatternSet::zeros(3, 4);
/// ps.set(1, 2, true);
/// assert!(ps.get(1, 2));
/// assert!(!ps.get(0, 2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    num_inputs: usize,
    len: usize,
    bits: Vec<Vec<u64>>,
}

impl PatternSet {
    /// Number of 64-bit words needed for `len` patterns.
    ///
    /// Shared by every bit-parallel consumer (simulation kernel, fault
    /// simulation, validation) so the packing arithmetic lives in one
    /// place.
    #[must_use]
    pub fn words_for(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// Mask selecting the valid bits of the *final* word of a `len`-bit
    /// packed column: all-ones when `len` is a multiple of 64, otherwise
    /// the low `len % 64` bits.
    ///
    /// ANDing the last word of a column with this mask keeps whole-word
    /// population counts exact after inverting gates set the unused tail
    /// bits.
    #[must_use]
    pub fn tail_mask(len: usize) -> u64 {
        let rem = len % 64;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Creates a set of `len` all-zero vectors for `num_inputs` inputs.
    #[must_use]
    pub fn zeros(num_inputs: usize, len: usize) -> Self {
        PatternSet {
            num_inputs,
            len,
            bits: vec![vec![0u64; Self::words_for(len)]; num_inputs],
        }
    }

    /// Creates `len` uniformly random vectors from a fixed `seed`
    /// (reproducible across runs and platforms).
    #[must_use]
    pub fn random(num_inputs: usize, len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = Self::words_for(len);
        let mut bits = vec![vec![0u64; words]; num_inputs];
        for input_bits in &mut bits {
            for w in input_bits.iter_mut() {
                *w = rng.gen();
            }
        }
        let mut ps = PatternSet {
            num_inputs,
            len,
            bits,
        };
        ps.mask_tail();
        ps
    }

    /// Builds a pattern set from explicit vectors; each inner slice is one
    /// pattern with one `bool` per input.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `num_inputs`.
    #[must_use]
    pub fn from_vectors(num_inputs: usize, vectors: &[Vec<bool>]) -> Self {
        let mut ps = PatternSet::zeros(num_inputs, vectors.len());
        for (p, v) in vectors.iter().enumerate() {
            assert_eq!(v.len(), num_inputs, "pattern {p} has wrong width");
            for (i, &bit) in v.iter().enumerate() {
                if bit {
                    ps.set(i, p, true);
                }
            }
        }
        ps
    }

    /// Zeroes any bits beyond `len` in the final word, so population counts
    /// over whole words are exact.
    fn mask_tail(&mut self) {
        let mask = Self::tail_mask(self.len);
        if mask != u64::MAX {
            for input_bits in &mut self.bits {
                if let Some(last) = input_bits.last_mut() {
                    *last &= mask;
                }
            }
        }
    }

    /// Shortens the set to `new_len` patterns (no-op when already that
    /// short or shorter). Column capacity is kept, so a reused buffer —
    /// the server's chunked-simulate path truncates and refills one set
    /// per chunk — allocates only on growth. The freed tail word is
    /// re-masked so the tail invariant holds for the next `push`/
    /// `extend_from`/popcount.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        let words = Self::words_for(new_len);
        for input_bits in &mut self.bits {
            input_bits.truncate(words);
        }
        self.len = new_len;
        self.mask_tail();
    }

    /// Removes every pattern, keeping the column capacity.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Refills the set in place with `len` uniformly random vectors from
    /// `seed`, reusing column capacity. Bit-identical to
    /// [`random`](Self::random)`(num_inputs, len, seed)` — the reused
    /// buffer must never change results (differential-pinned).
    pub fn fill_random(&mut self, len: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = Self::words_for(len);
        self.len = len;
        for input_bits in &mut self.bits {
            input_bits.resize(words, 0);
            for w in input_bits.iter_mut() {
                *w = rng.gen();
            }
        }
        self.mask_tail();
    }

    /// Number of input columns.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words of one input column.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[must_use]
    pub fn input_words(&self, input: usize) -> &[u64] {
        &self.bits[input]
    }

    /// Overwrites one input column with pre-packed words (tail bits are
    /// masked). Rare-node profiling cuts its vector set into chunks this
    /// way, copying word slices instead of unpacking bits.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range or `words.len()` differs from
    /// the column word count.
    pub fn set_input_words(&mut self, input: usize, words: &[u64]) {
        let column = &mut self.bits[input];
        assert_eq!(words.len(), column.len(), "column word count mismatch");
        column.copy_from_slice(words);
        let mask = Self::tail_mask(self.len);
        if mask != u64::MAX {
            if let Some(last) = column.last_mut() {
                *last &= mask;
            }
        }
    }

    /// Value of `input` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, input: usize, pattern: usize) -> bool {
        assert!(pattern < self.len, "pattern {pattern} out of range");
        (self.bits[input][pattern / 64] >> (pattern % 64)) & 1 == 1
    }

    /// Sets the value of `input` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, input: usize, pattern: usize, value: bool) {
        assert!(pattern < self.len, "pattern {pattern} out of range");
        let word = &mut self.bits[input][pattern / 64];
        let mask = 1u64 << (pattern % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Extracts pattern `pattern` as a `Vec<bool>` (one entry per input).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn pattern(&self, pattern: usize) -> Vec<bool> {
        (0..self.num_inputs).map(|i| self.get(i, pattern)).collect()
    }

    /// Appends every pattern of `other` to `self`.
    ///
    /// Word-level, not bit-level: when the current length is a word
    /// multiple the columns of `other` are block-copied; otherwise each
    /// source word is shift-spliced across two destination words. Either
    /// way the cost is O(inputs × words), not O(inputs × patterns) —
    /// this is the hot path of MERO's iterative pattern-set growth.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn extend_from(&mut self, other: &PatternSet) {
        assert_eq!(self.num_inputs, other.num_inputs, "input count mismatch");
        let old_len = self.len;
        let new_len = old_len + other.len;
        let words = Self::words_for(new_len);
        let shift = old_len % 64;
        // Defensive tail masks: the splice below must stay correct even
        // if a buffer-reuse path left stale bits above either set's tail
        // (the OR would smear them into the appended patterns — a latent
        // corruption that only bites at 64k ± 1 boundaries). One AND per
        // column is noise next to the copy.
        let src_tail = Self::tail_mask(other.len);
        let dst_tail = Self::tail_mask(old_len);
        for (input_bits, src) in self.bits.iter_mut().zip(&other.bits) {
            input_bits.resize(words, 0);
            if shift == 0 {
                let dst = &mut input_bits[old_len / 64..][..src.len()];
                dst.copy_from_slice(src);
                if let Some(last) = dst.last_mut() {
                    *last &= src_tail;
                }
            } else {
                // Unaligned: source word k straddles destination words
                // `old_len/64 + k` and the next one. ORing is safe once
                // both tails are clamped: the destination tail above
                // `shift` is zeroed here and every later word was just
                // resized to zero. The `>> (64 - shift)` is split in
                // two to avoid the shift-by-64 edge (shift >= 1 here).
                input_bits[old_len / 64] &= dst_tail;
                for (k, &s) in src.iter().enumerate() {
                    let s = if k + 1 == src.len() { s & src_tail } else { s };
                    let w = old_len / 64 + k;
                    input_bits[w] |= s << shift;
                    if w + 1 < words {
                        input_bits[w + 1] |= (s >> (63 - shift)) >> 1;
                    }
                }
            }
        }
        self.len = new_len;
    }

    /// The pre-word-blit [`extend_from`](Self::extend_from): one
    /// [`get`](Self::get)/[`set`](Self::set) round trip per (input,
    /// pattern). Kept as the proptest oracle and the benchmark baseline.
    #[doc(hidden)]
    pub fn extend_from_per_bit(&mut self, other: &PatternSet) {
        assert_eq!(self.num_inputs, other.num_inputs, "input count mismatch");
        let old_len = self.len;
        let new_len = old_len + other.len;
        let words = Self::words_for(new_len);
        for input_bits in &mut self.bits {
            input_bits.resize(words, 0);
        }
        self.len = new_len;
        for p in 0..other.len {
            for i in 0..self.num_inputs {
                if other.get(i, p) {
                    self.set(i, old_len + p, true);
                }
            }
        }
    }

    /// Appends a single pattern (one word append or OR per input — no
    /// per-bit index arithmetic beyond the shared shift).
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != num_inputs`.
    pub fn push(&mut self, vector: &[bool]) {
        assert_eq!(vector.len(), self.num_inputs, "pattern has wrong width");
        let p = self.len;
        let bit = 1u64 << (p % 64);
        let grow = p.is_multiple_of(64);
        // Clamp stale bits at and above position p before setting it —
        // defensive twin of the `extend_from` masks, so a corrupted tail
        // cannot make the new pattern read back wrong.
        let below = bit - 1;
        for (input_bits, &value) in self.bits.iter_mut().zip(vector) {
            if grow {
                input_bits.push(if value { bit } else { 0 });
            } else {
                let last = input_bits.last_mut().expect("non-empty column");
                *last = (*last & below) | if value { bit } else { 0 };
            }
        }
        self.len = p + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_zero() {
        let ps = PatternSet::zeros(4, 100);
        assert_eq!(ps.len(), 100);
        for p in 0..100 {
            for i in 0..4 {
                assert!(!ps.get(i, p));
            }
        }
    }

    #[test]
    fn set_get_round_trip() {
        let mut ps = PatternSet::zeros(2, 130);
        ps.set(0, 0, true);
        ps.set(1, 64, true);
        ps.set(0, 129, true);
        assert!(ps.get(0, 0));
        assert!(ps.get(1, 64));
        assert!(ps.get(0, 129));
        assert!(!ps.get(1, 129));
        ps.set(0, 0, false);
        assert!(!ps.get(0, 0));
    }

    #[test]
    fn random_is_reproducible_and_balanced() {
        let a = PatternSet::random(8, 1000, 42);
        let b = PatternSet::random(8, 1000, 42);
        assert_eq!(a, b);
        let c = PatternSet::random(8, 1000, 43);
        assert_ne!(a, c);
        // Roughly half ones per column.
        for i in 0..8 {
            let ones: u32 = a.input_words(i).iter().map(|w| w.count_ones()).sum();
            assert!((300..700).contains(&ones), "column {i}: {ones} ones");
        }
    }

    #[test]
    fn random_tail_is_masked() {
        let ps = PatternSet::random(3, 70, 7);
        let last = *ps.input_words(0).last().unwrap();
        // Patterns 64..70 occupy bits 0..6 of the last word.
        assert_eq!(last >> 6, 0);
    }

    #[test]
    fn from_vectors_and_pattern_round_trip() {
        let vecs = vec![vec![true, false, true], vec![false, false, true]];
        let ps = PatternSet::from_vectors(3, &vecs);
        assert_eq!(ps.pattern(0), vecs[0]);
        assert_eq!(ps.pattern(1), vecs[1]);
    }

    #[test]
    fn extend_and_push() {
        let mut a = PatternSet::from_vectors(2, &[vec![true, false]]);
        let b = PatternSet::from_vectors(2, &[vec![false, true], vec![true, true]]);
        a.extend_from(&b);
        a.push(&[false, false]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.pattern(0), vec![true, false]);
        assert_eq!(a.pattern(1), vec![false, true]);
        assert_eq!(a.pattern(2), vec![true, true]);
        assert_eq!(a.pattern(3), vec![false, false]);
    }

    #[test]
    fn extend_from_unaligned_splices_across_words() {
        // 70 + 130 patterns: shift = 6, source spans 3 words, result 4.
        let mut a = PatternSet::random(3, 70, 11);
        let b = PatternSet::random(3, 130, 22);
        let mut oracle = a.clone();
        a.extend_from(&b);
        oracle.extend_from_per_bit(&b);
        assert_eq!(a, oracle);
        assert_eq!(a.len(), 200);
        // Tail invariant survives the splice.
        let tail = PatternSet::tail_mask(200);
        for i in 0..3 {
            assert_eq!(a.input_words(i).last().unwrap() & !tail, 0, "input {i}");
        }
    }

    #[test]
    fn push_appends_word_at_a_time() {
        let mut ps = PatternSet::zeros(2, 0);
        for p in 0..130 {
            ps.push(&[p % 2 == 0, p % 3 == 0]);
        }
        assert_eq!(ps.len(), 130);
        assert_eq!(ps.input_words(0).len(), 3);
        for p in 0..130 {
            assert_eq!(ps.get(0, p), p % 2 == 0, "pattern {p}");
            assert_eq!(ps.get(1, p), p % 3 == 0, "pattern {p}");
        }
        assert_eq!(ps.input_words(0)[2] & !PatternSet::tail_mask(130), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn extend_from_matches_per_bit_path(
            inputs in 1usize..6,
            len_a in 0usize..200,
            len_b in 0usize..200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut fast = PatternSet::random(inputs, len_a, seed);
            let b = PatternSet::random(inputs, len_b, seed ^ 0xDEAD);
            let mut slow = fast.clone();
            fast.extend_from(&b);
            slow.extend_from_per_bit(&b);
            proptest::prop_assert_eq!(&fast, &slow);
            // Round-trip spot check: the appended patterns read back.
            for p in 0..len_b {
                for i in 0..inputs {
                    proptest::prop_assert_eq!(fast.get(i, len_a + p), b.get(i, p));
                }
            }
        }
    }

    /// Plants garbage above the tail of every column — the corruption a
    /// buffer-reuse bug would leave behind. The defensive masks must
    /// make every mutator immune to it.
    fn corrupt_tail(ps: &mut PatternSet) {
        let mask = PatternSet::tail_mask(ps.len);
        for column in &mut ps.bits {
            if let Some(last) = column.last_mut() {
                *last |= !mask;
            }
        }
    }

    #[test]
    fn truncate_remasks_and_keeps_capacity() {
        for boundary in [63usize, 64, 65] {
            let full = PatternSet::random(3, 200, 5);
            let mut ps = full.clone();
            ps.truncate(boundary);
            assert_eq!(ps.len(), boundary);
            assert_eq!(ps.input_words(0).len(), PatternSet::words_for(boundary));
            let tail = PatternSet::tail_mask(boundary);
            for i in 0..3 {
                assert_eq!(
                    ps.input_words(i).last().unwrap() & !tail,
                    0,
                    "len {boundary}"
                );
                for p in 0..boundary {
                    assert_eq!(ps.get(i, p), full.get(i, p));
                }
            }
            // Popcounts stay exact — the old PR-4 chaos suite caught a
            // monitor variant of this; pin the pattern-set side too.
            let expected: u32 = (0..boundary).filter(|&p| full.get(0, p)).count() as u32;
            let ones: u32 = ps.input_words(0).iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones, expected, "len {boundary}");
        }
        let mut ps = PatternSet::random(2, 10, 1);
        ps.truncate(99); // longer than len: no-op
        assert_eq!(ps.len(), 10);
        ps.clear();
        assert!(ps.is_empty());
        assert_eq!(ps.num_inputs(), 2);
    }

    #[test]
    fn fill_random_matches_fresh_random_at_word_boundaries() {
        let mut reused = PatternSet::random(5, 1000, 77);
        for (boundary, seed) in [(63usize, 1u64), (64, 2), (65, 3), (128, 4), (1000, 5)] {
            reused.truncate(0);
            reused.fill_random(boundary, seed);
            assert_eq!(
                reused,
                PatternSet::random(5, boundary, seed),
                "len {boundary}"
            );
        }
        // Growth through reuse also matches.
        reused.fill_random(2000, 9);
        assert_eq!(reused, PatternSet::random(5, 2000, 9));
    }

    #[test]
    fn push_survives_a_corrupted_tail_at_word_boundaries() {
        for boundary in [63usize, 64, 65] {
            let mut ps = PatternSet::random(2, boundary, 13);
            let clean = ps.clone();
            corrupt_tail(&mut ps);
            ps.push(&[true, false]);
            let mut oracle = clean;
            oracle.push(&[true, false]);
            assert_eq!(ps, oracle, "len {boundary}");
        }
    }

    #[test]
    fn extend_from_survives_corrupted_tails_at_word_boundaries() {
        for dst_len in [63usize, 64, 65] {
            for src_len in [63usize, 64, 65] {
                let mut dst = PatternSet::random(2, dst_len, 17);
                let mut src = PatternSet::random(2, src_len, 19);
                let mut oracle = dst.clone();
                oracle.extend_from_per_bit(&src);
                corrupt_tail(&mut dst);
                corrupt_tail(&mut src);
                dst.extend_from(&src);
                assert_eq!(dst, oracle, "{dst_len}+{src_len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let ps = PatternSet::zeros(1, 10);
        let _ = ps.get(0, 10);
    }

    #[test]
    fn set_input_words_overwrites_and_masks() {
        let mut ps = PatternSet::zeros(2, 66);
        ps.set_input_words(1, &[u64::MAX, u64::MAX]);
        assert!(ps.get(1, 0) && ps.get(1, 65));
        assert!(!ps.get(0, 0));
        assert_eq!(ps.input_words(1)[1], 0b11, "tail masked");
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn set_input_words_wrong_len_panics() {
        let mut ps = PatternSet::zeros(1, 64);
        ps.set_input_words(0, &[0, 0]);
    }
}
