//! ND-ATPG — scalable trojan detection via ATPG-based N-activation of
//! rare events (Jayasena & Mishra, IEEE TCAD 2023).
//!
//! Every rare event `(n, r)` is converted into the stuck-at-`r̄` fault at
//! `n`; PODEM generates up to `N` distinct test cubes per fault, so each
//! rare node is *deterministically* driven to its rare value `N` times
//! (where MERO only gets there statistically). Don't-care bits are filled
//! randomly, adding incidental coverage.
//!
//! Events are independent, so their cubes are generated on the shared
//! worker loop ([`htforge_obs::map_indexed`]), one [`NDetectEngine`] per
//! worker; only the don't-care fill, which draws from one RNG, runs in
//! event order on the caller.

use rand::rngs::StdRng;
use rand::SeedableRng;

use htforge_atpg::{Fault, NDetectEngine, PodemConfig};
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

    /// [`DetectionScheme::generate_tests`] on `threads` workers. Event
    /// `k`'s cubes come from seed `seed + k` on whichever worker takes
    /// it; the don't-cares are then filled in event order from one RNG,
    /// so the test set is the same at any thread count.
    fn generate_on(
        &self,
        golden: &Netlist,
        rare: &RareNodeSet,
        threads: usize,
    ) -> Result<PatternSet, NetlistError> {
        let _span = htforge_obs::span("ndatpg");
        let faults: Vec<Fault> = rare
            .iter()
            .map(|r| Fault::for_rare_event(r.node, r.rare_value))
            .collect();
        let mut engines: Vec<NDetectEngine> = (0..threads.min(faults.len()))
            .map(|_| NDetectEngine::new(golden, PodemConfig::default()))
            .collect::<Result<_, _>>()?;
        let cube_sets = htforge_obs::map_indexed(&mut engines, faults.len(), |engine, k| {
            engine.cubes(faults[k], self.n, self.seed.wrapping_add(k as u64))
        });
        let num_inputs = golden.inputs().len();
        let mut tests = PatternSet::zeros(num_inputs, 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for cube in cube_sets.iter().flatten() {
            tests.push(&cube.fill_random(&mut rng));
        }
        Ok(tests)
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
        self.generate_on(golden, rare, htforge_obs::host_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::{RareNodeExtractor, SimProgram};

    #[test]
    fn each_rare_event_is_excited() {
        let nl = htforge_circuits::load("c17").unwrap();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        assert!(!rare.is_empty());
        let tests = NdAtpgDetection::new(2, 3)
            .generate_tests(&nl, &rare)
            .unwrap();
        let vals = SimProgram::compile(&nl).unwrap().run(&tests);
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

    /// FNV-1a over the packed test set.
    fn digest(tests: &PatternSet) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..tests.num_inputs() {
            for &w in tests.input_words(i) {
                digest = (digest ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        digest
    }

    /// A circuit's rare events at the `detect` benchmark's settings.
    fn benchmark_profile(name: &str) -> (Netlist, RareNodeSet) {
        let nl = htforge_circuits::load(name).unwrap().scan_cut();
        let profile = PatternSet::random(nl.inputs().len(), 10_000, 1);
        let rare = RareNodeExtractor::new(0.2).extract(&nl, &profile).unwrap();
        (nl, rare)
    }

    #[test]
    fn output_is_identical_at_any_worker_count() {
        // Every c880 event runs randomized attempts, so a seed that
        // followed the worker instead of the event would show; c2670
        // also has events that PODEM aborts on and the miter decides.
        for name in ["c880", "c2670"] {
            let (nl, rare) = benchmark_profile(name);
            let ndatpg = NdAtpgDetection::new(2, 1);
            let one = ndatpg.generate_on(&nl, &rare, 1).unwrap();
            for threads in [2, 3] {
                let tests = ndatpg.generate_on(&nl, &rare, threads).unwrap();
                assert_eq!(tests, one, "{name} at {threads} workers");
            }
        }
    }

    #[test]
    fn every_cube_detects_its_fault() {
        // The oracle is fault simulation of one fully specified vector:
        // each cube, its don't-cares filled either way, must detect the
        // stuck-at fault of its own rare event. Event k's seed is 1 + k,
        // as in `NdAtpgDetection::new(2, 1)`.
        use htforge_atpg::{fault_simulate, n_detect_cubes};
        for name in ["c2670", "c3540"] {
            let (nl, rare) = benchmark_profile(name);
            let prog = SimProgram::compile(&nl).unwrap();
            let faults: Vec<Fault> = rare
                .iter()
                .map(|r| Fault::for_rare_event(r.node, r.rare_value))
                .collect();
            let mut workers = vec![(); htforge_obs::host_threads().min(faults.len())];
            let cube_sets = htforge_obs::map_indexed(&mut workers, faults.len(), |(), k| {
                n_detect_cubes(&nl, faults[k], 2, PodemConfig::default(), 1 + k as u64).unwrap()
            });
            let mut checked = 0;
            for (k, cubes) in cube_sets.iter().enumerate() {
                for cube in cubes {
                    for fill in [false, true] {
                        let test =
                            PatternSet::from_vectors(nl.inputs().len(), &[cube.fill_with(fill)]);
                        let report = fault_simulate(&prog, &nl, &[faults[k]], &test);
                        assert_eq!(report.detected(), 1, "{name} event {k}, fill {fill}");
                        checked += 1;
                    }
                }
            }
            assert!(checked > 2 * rare.len(), "{name}: only {checked} checks");
        }
    }

    #[test]
    fn c2670_output_is_pinned() {
        // Test count and digest at the `detect` benchmark's ND-ATPG
        // settings, as generated one event at a time on one thread.
        let (nl, rare) = benchmark_profile("c2670");
        let tests = NdAtpgDetection::new(2, 1)
            .generate_tests(&nl, &rare)
            .unwrap();
        assert_eq!(rare.len(), 326);
        assert_eq!(tests.len(), 639);
        assert_eq!(digest(&tests), 0xfb58_5515_e1e3_c8f0);
    }

    #[test]
    fn the_miter_decides_the_events_podem_aborts_on() {
        // The c2670 events whose deterministic PODEM run hits the
        // backtrack limit without a verdict. The miter proves three
        // undetectable, so the engine returns no cubes for them; the
        // other three get a model that fault simulation confirms and
        // that the engine returns as their first cube.
        use htforge_atpg::sat::{MiterSolver, Verdict};
        use htforge_atpg::{fault_simulate, Podem, TestResult};
        let (nl, rare) = benchmark_profile("c2670");
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        let mut miter = MiterSolver::new(&nl).unwrap();
        let mut engine = NDetectEngine::new(&nl, PodemConfig::default()).unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let events: Vec<_> = rare.iter().collect();
        for (k, undetectable) in [
            (77, false),
            (139, false),
            (281, true),
            (286, true),
            (314, true),
            (322, false),
        ] {
            let fault = Fault::for_rare_event(events[k].node, events[k].rare_value);
            assert_eq!(podem.generate(fault), TestResult::Aborted, "event {k}");
            match miter.decide(fault) {
                Verdict::Undetectable => {
                    assert!(undetectable, "event {k}");
                    assert!(engine.cubes(fault, 2, 1).is_empty(), "event {k}");
                }
                Verdict::Detectable(model) => {
                    assert!(!undetectable, "event {k}");
                    let cubes = engine.cubes(fault, 2, 1);
                    assert_eq!(cubes[0].fill_with(false), model, "event {k}");
                    assert_eq!(cubes[0].care_count(), model.len(), "event {k}");
                    let test = PatternSet::from_vectors(nl.inputs().len(), &[model]);
                    let report = fault_simulate(&prog, &nl, &[fault], &test);
                    assert_eq!(report.detected(), 1, "event {k}");
                }
                Verdict::Unknown => panic!("conflict limit on event {k}"),
            }
        }
    }

    #[test]
    fn empty_profile_yields_no_tests() {
        let nl = htforge_circuits::load("c17").unwrap();
        let tests = NdAtpgDetection::new(2, 3)
            .generate_tests(&nl, &RareNodeSet::default())
            .unwrap();
        assert!(tests.is_empty());
        assert_eq!(tests.num_inputs(), nl.inputs().len());
    }
}
