//! Test cubes: partial primary-input assignments with don't-cares.
//!
//! A [`Cube`] is the PODEM output the compatibility graph is built from.
//! Most bits of a cube are X, which is exactly what makes merging (and
//! hence large trigger cliques) possible — §III-C of the paper.

use std::fmt;

use rand::Rng;

use htforge_sim::Tri;

/// A partial assignment over the primary inputs of one netlist, in
/// `Netlist::inputs()` order.
///
/// # Examples
///
/// ```
/// use htforge_atpg::Cube;
/// use htforge_sim::Tri;
///
/// let a = Cube::from_tris(vec![Tri::One, Tri::X, Tri::Zero]);
/// let b = Cube::from_tris(vec![Tri::X, Tri::One, Tri::Zero]);
/// assert!(a.compatible(&b));
/// let merged = a.merge(&b).unwrap();
/// assert_eq!(merged.to_string(), "110");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    bits: Vec<Tri>,
}

impl Cube {
    /// An all-X cube of `width` inputs.
    #[must_use]
    pub fn all_x(width: usize) -> Self {
        Cube {
            bits: vec![Tri::X; width],
        }
    }

    /// Builds a cube from explicit tri-valued bits.
    #[must_use]
    pub fn from_tris(bits: Vec<Tri>) -> Self {
        Cube { bits }
    }

    /// Parses a cube from a `"01X"` string (case-insensitive X).
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0`, `1`, `x`, `X`.
    #[must_use]
    pub fn from_str_bits(s: &str) -> Self {
        Cube {
            bits: s
                .chars()
                .map(|c| match c {
                    '0' => Tri::Zero,
                    '1' => Tri::One,
                    'x' | 'X' => Tri::X,
                    other => panic!("invalid cube character `{other}`"),
                })
                .collect(),
        }
    }

    /// Number of inputs covered by the cube.
    #[must_use]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The tri-valued bits.
    #[must_use]
    pub fn bits(&self) -> &[Tri] {
        &self.bits
    }

    /// The value of input `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Tri {
        self.bits[i]
    }

    /// Sets input `i`.
    pub fn set(&mut self, i: usize, value: Tri) {
        self.bits[i] = value;
    }

    /// Number of care (non-X) bits.
    #[must_use]
    pub fn care_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_care()).count()
    }

    /// `true` iff the cubes have no conflicting care bits — the paper's
    /// §III-C compatibility test between two rare-node test vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn compatible(&self, other: &Cube) -> bool {
        assert_eq!(self.width(), other.width(), "cube width mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .all(|(&a, &b)| !a.conflicts(b))
    }

    /// Merges two cubes if they are compatible (care bits win over X).
    ///
    /// Returns `None` on conflict. Merging compatible cubes is the
    /// "single test vector for all trigger nodes" construction of §III-C.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn merge(&self, other: &Cube) -> Option<Cube> {
        if !self.compatible(other) {
            return None;
        }
        Some(Cube {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a.merge(b))
                .collect(),
        })
    }

    /// Merges `other` into `self` in place; returns `false` (leaving
    /// `self` unchanged) on conflict.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge_in_place(&mut self, other: &Cube) -> bool {
        if !self.compatible(other) {
            return false;
        }
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a = a.merge(b);
        }
        true
    }

    /// Fills every X bit with a random value, producing a full vector.
    #[must_use]
    pub fn fill_random<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<bool> {
        self.bits
            .iter()
            .map(|b| match b.to_bool() {
                Some(v) => v,
                None => rng.gen(),
            })
            .collect()
    }

    /// Fills every X bit with `fill`, producing a full vector.
    #[must_use]
    pub fn fill_with(&self, fill: bool) -> Vec<bool> {
        self.bits
            .iter()
            .map(|b| b.to_bool().unwrap_or(fill))
            .collect()
    }

    /// `true` iff the full vector `v` lies inside this cube (agrees on all
    /// care bits).
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the width.
    #[must_use]
    pub fn contains(&self, v: &[bool]) -> bool {
        assert_eq!(v.len(), self.width(), "vector width mismatch");
        self.bits
            .iter()
            .zip(v)
            .all(|(&b, &bit)| b.to_bool().is_none_or(|c| c == bit))
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compatibility_rules() {
        let a = Cube::from_str_bits("1X0X");
        let b = Cube::from_str_bits("X10X");
        let c = Cube::from_str_bits("0XXX");
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
        assert!(b.compatible(&c));
    }

    #[test]
    fn merge_unions_care_bits() {
        let a = Cube::from_str_bits("1XX");
        let b = Cube::from_str_bits("X0X");
        let m = a.merge(&b).unwrap();
        assert_eq!(m.to_string(), "10X");
        assert_eq!(m.care_count(), 2);
        assert!(a.merge(&Cube::from_str_bits("0XX")).is_none());
    }

    #[test]
    fn merge_in_place_preserves_on_conflict() {
        let mut a = Cube::from_str_bits("1X");
        assert!(!a.merge_in_place(&Cube::from_str_bits("0X")));
        assert_eq!(a.to_string(), "1X");
        assert!(a.merge_in_place(&Cube::from_str_bits("X1")));
        assert_eq!(a.to_string(), "11");
    }

    #[test]
    fn pairwise_compatible_merge_is_associative() {
        // Pairwise compatibility implies the union assignment is
        // well-defined — the property Algorithm 2 relies on.
        let a = Cube::from_str_bits("1XX");
        let b = Cube::from_str_bits("X1X");
        let c = Cube::from_str_bits("XX0");
        let m1 = a.merge(&b).unwrap().merge(&c).unwrap();
        let m2 = b.merge(&c).unwrap().merge(&a).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn fill_respects_care_bits() {
        let c = Cube::from_str_bits("1X0");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let v = c.fill_random(&mut rng);
            assert!(v[0]);
            assert!(!v[2]);
            assert!(c.contains(&v));
        }
        assert_eq!(c.fill_with(true), vec![true, true, false]);
    }

    #[test]
    fn contains_checks_care_bits_only() {
        let c = Cube::from_str_bits("1X");
        assert!(c.contains(&[true, false]));
        assert!(c.contains(&[true, true]));
        assert!(!c.contains(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = Cube::all_x(2).compatible(&Cube::all_x(3));
    }
}
