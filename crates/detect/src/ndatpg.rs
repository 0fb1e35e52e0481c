//! ND-ATPG — scalable trojan detection via ATPG-based N-activation of
//! rare events (Jayasena & Mishra, IEEE TCAD 2023).
//!
//! Every rare event `(n, r)` is converted into the stuck-at-`r̄` fault at
//! `n`; PODEM generates up to `N` distinct test cubes per fault, so each
//! rare node is *deterministically* driven to its rare value `N` times
//! (where MERO only gets there statistically). Don't-care bits are filled
//! randomly, adding incidental coverage.

use rand::rngs::StdRng;
use rand::SeedableRng;

use htforge_atpg::{n_detect_cubes, Fault, PodemConfig};
use htforge_netlist::{Netlist, NetlistError};
use htforge_sim::{PatternSet, RareNodeSet};

use crate::scheme::DetectionScheme;

/// The ND-ATPG test generator.
///
/// # Examples
///
/// ```
/// use htforge_detect::{DetectionScheme, NdAtpgDetection};
/// use htforge_sim::{PatternSet, RareNodeExtractor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = htforge_circuits::load("c17")?;
/// let profile = PatternSet::random(nl.inputs().len(), 2_000, 1);
/// let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile)?;
/// let tests = NdAtpgDetection::new(3, 42).generate_tests(&nl, &rare)?;
/// assert!(!tests.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdAtpgDetection {
    /// N-detect target: distinct cubes requested per rare event.
    n: usize,
    seed: u64,
}

impl NdAtpgDetection {
    /// ND-ATPG with `n` cubes per rare event.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "N-detect target must be positive");
        NdAtpgDetection { n, seed }
    }
}

impl DetectionScheme for NdAtpgDetection {
    fn name(&self) -> &str {
        "ND-ATPG"
    }

    fn generate_tests(
        &self,
        golden: &Netlist,
        rare: &RareNodeSet,
    ) -> Result<PatternSet, NetlistError> {
        let num_inputs = golden.inputs().len();
        let mut tests = PatternSet::zeros(num_inputs, 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for (k, r) in rare.iter().enumerate() {
            let fault = Fault::for_rare_event(r.node, r.rare_value);
            let cubes = n_detect_cubes(
                golden,
                fault,
                self.n,
                PodemConfig::default(),
                self.seed.wrapping_add(k as u64),
            )?;
            for cube in cubes {
                tests.push(&cube.fill_random(&mut rng));
            }
        }
        if tests.is_empty() {
            // No rare events or nothing testable: emit a random fallback
            // so the scheme still applies *some* patterns.
            return Ok(PatternSet::random(num_inputs, 64, self.seed));
        }
        Ok(tests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::{RareNodeExtractor, Simulator};

    #[test]
    fn each_rare_event_is_excited() {
        let nl = htforge_circuits::load("c17").unwrap();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        assert!(!rare.is_empty());
        let tests = NdAtpgDetection::new(2, 3)
            .generate_tests(&nl, &rare)
            .unwrap();
        let sim = Simulator::new(&nl).unwrap();
        let vals = sim.run_on(&nl, &tests);
        for r in rare.iter() {
            let hits = (0..tests.len())
                .filter(|&p| vals.value(r.node, p) == r.rare_value)
                .count();
            assert!(hits >= 1, "rare event must be excited at least once");
        }
    }

    #[test]
    fn n_scales_test_count() {
        let nl = htforge_circuits::load("c17").unwrap();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        let small = NdAtpgDetection::new(1, 3)
            .generate_tests(&nl, &rare)
            .unwrap();
        let large = NdAtpgDetection::new(4, 3)
            .generate_tests(&nl, &rare)
            .unwrap();
        assert!(large.len() >= small.len());
    }

    #[test]
    fn empty_profile_falls_back() {
        let nl = htforge_circuits::load("c17").unwrap();
        let tests = NdAtpgDetection::new(2, 3)
            .generate_tests(&nl, &RareNodeSet::default())
            .unwrap();
        assert_eq!(tests.len(), 64);
    }
}
