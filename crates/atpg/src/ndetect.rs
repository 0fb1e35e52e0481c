//! N-detect cube generation: up to `N` *distinct* test cubes per fault.
//!
//! The ND-ATPG detection scheme (Jayasena & Mishra, TCAD 2023) converts
//! every rare event into a stuck-at fault and asks ATPG for `N` different
//! tests, so each rare node is driven to its rare value `N` times. The
//! cube diversity comes from re-running PODEM with randomized backtrace
//! input selection under different seeds.
//!
//! Every PODEM run here gives up after a few backtracks, and the SAT
//! miter ([`crate::sat`]) decides a fault the deterministic run aborts
//! on: an undetectable fault gets no randomized runs, which could never
//! find a test, and a detectable one gets the solver's model as its
//! first cube. PODEM stays the first try because it is cheaper on the
//! many easy faults; the solver is cheaper on the few hard ones.

use crate::cube::Cube;
use crate::fault::Fault;
use crate::podem::{Podem, PodemConfig, PodemMode, TestResult};
use crate::sat::{MiterSolver, Verdict};

use htforge_netlist::{Netlist, NetlistError};
use htforge_sim::Tri;

/// Backtracks one PODEM run of the engine may spend (fewer when the
/// caller's `backtrack_limit` is smaller). An abort costs little at this
/// limit, and the miter decides the faults that need more: 16 was the
/// fastest of 16, 32 and 64 on c2670, c3540, c5315 and c7552.
const BACKTRACK_LIMIT: usize = 16;

/// Generates up to `n` distinct cubes testing `fault` on `nl`.
///
/// Cubes are deduplicated exactly (same care bits in the same positions).
/// The attempt budget is one deterministic run, answered by the SAT
/// miter when it aborts, plus `4 * n` randomized runs; every PODEM run
/// stops at a small backtrack limit, `base_config.backtrack_limit` at
/// most. Fewer than `n` cubes are returned when the fault admits fewer
/// distinct outcomes within that budget, or none at all when the fault
/// is untestable (see [`NDetectEngine::cubes`]).
///
/// # Errors
///
/// Propagates netlist errors from engine construction (cyclic or
/// sequential netlists).
///
/// # Panics
///
/// Panics if `base_config` is not in [`PodemMode::Detect`].
///
/// # Examples
///
/// ```
/// use htforge_atpg::{n_detect_cubes, Fault, PodemConfig};
/// use htforge_netlist::bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = bench::parse(
///     "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = OR(a, b, c)\n", "t")?;
/// let y = nl.find("y").unwrap();
/// let cubes = n_detect_cubes(
///     &nl, Fault::stuck_at(y, true), 3, PodemConfig::default(), 99)?;
/// assert!(!cubes.is_empty() && cubes.len() <= 3);
/// # Ok(())
/// # }
/// ```
pub fn n_detect_cubes(
    nl: &Netlist,
    fault: Fault,
    n: usize,
    base_config: PodemConfig,
    seed: u64,
) -> Result<Vec<Cube>, NetlistError> {
    Ok(NDetectEngine::new(nl, base_config)?.cubes(fault, n, seed))
}

/// A reusable N-detect cube generator: one detect-mode PODEM engine with
/// a small backtrack limit, reseeded between the SCOAP-guided first run
/// and each randomized attempt, and a [`MiterSolver`] for the faults the
/// first run aborts on. The cubes for a fault depend only on the fault,
/// `n` and the seed, never on what the engine searched before, so one
/// engine per worker thread gives the same cubes as [`n_detect_cubes`].
#[derive(Debug)]
pub struct NDetectEngine {
    podem: Podem,
    miter: MiterSolver,
    unsat: htforge_obs::Counter,
    sat_unknown: htforge_obs::Counter,
}

impl NDetectEngine {
    /// Builds the engine and the miter solver for `nl`; `config`'s
    /// `random_seed` is ignored, and its `backtrack_limit` is capped at
    /// the engine's own small limit.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors from engine construction (cyclic or
    /// sequential netlists).
    ///
    /// # Panics
    ///
    /// Panics if `config` is not in [`PodemMode::Detect`]: N-detect
    /// cubes are stuck-at tests.
    pub fn new(nl: &Netlist, config: PodemConfig) -> Result<Self, NetlistError> {
        assert_eq!(
            config.mode,
            PodemMode::Detect,
            "N-detect cubes are detect-mode tests"
        );
        let config = PodemConfig {
            backtrack_limit: config.backtrack_limit.min(BACKTRACK_LIMIT),
            ..config
        };
        Ok(NDetectEngine {
            podem: Podem::new(nl, config)?,
            miter: MiterSolver::new(nl)?,
            unsat: htforge_obs::counter("ndatpg.unsat"),
            sat_unknown: htforge_obs::counter("ndatpg.sat_unknown"),
        })
    }

    /// Up to `n` distinct cubes testing `fault` (see [`n_detect_cubes`]).
    ///
    /// The SCOAP-guided run goes first. When it aborts, the miter solver
    /// decides the fault: a fault it proves undetectable returns no cubes
    /// without any randomized run (counted in `ndatpg.unsat`); a
    /// satisfiable one takes the solver's model, every input specified,
    /// as its first cube; past the solver's conflict limit
    /// (`ndatpg.sat_unknown`) there is no first cube. Then the
    /// randomized runs, at the same small limit, fill up to `n` cubes.
    pub fn cubes(&mut self, fault: Fault, n: usize, seed: u64) -> Vec<Cube> {
        let mut cubes: Vec<Cube> = Vec::new();
        if n == 0 {
            return cubes;
        }
        self.podem.reseed(None);
        match self.podem.generate(fault) {
            TestResult::Test(cube) => cubes.push(cube),
            TestResult::Untestable => return cubes,
            TestResult::Aborted => match self.miter.decide(fault) {
                Verdict::Undetectable => {
                    self.unsat.incr();
                    return cubes;
                }
                Verdict::Unknown => self.sat_unknown.incr(),
                Verdict::Detectable(model) => cubes.push(Cube::from_tris(
                    model.into_iter().map(Tri::from_bool).collect(),
                )),
            },
            TestResult::TimedOut => {}
        }
        for k in 0..4 * n {
            if cubes.len() >= n {
                break;
            }
            self.podem.reseed(Some(
                seed.wrapping_add(k as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            if let TestResult::Test(cube) = self.podem.generate(fault) {
                if !cubes.contains(&cube) {
                    cubes.push(cube);
                }
            }
        }
        cubes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;
    use htforge_sim::tri::justifies;
    use htforge_sim::Tri;

    #[test]
    fn distinct_cubes_for_or_gate() {
        // y s-a-1 needs all inputs 0 — only one cube exists.
        // y s-a-0 needs any input 1 — several distinct cubes exist.
        let nl = bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = OR(a, b, c)\n",
            "t",
        )
        .unwrap();
        let y = nl.find("y").unwrap();
        let single =
            n_detect_cubes(&nl, Fault::stuck_at(y, true), 5, PodemConfig::default(), 1).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].care_count(), 3);

        let multi =
            n_detect_cubes(&nl, Fault::stuck_at(y, false), 3, PodemConfig::default(), 1).unwrap();
        assert!(multi.len() > 1, "expected diverse cubes, got {multi:?}");
        for c in &multi {
            assert!(justifies(&nl, c.bits(), y, true).unwrap());
        }
    }

    #[test]
    fn untestable_fault_yields_no_cubes() {
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let nl = bench::parse(src, "t").unwrap();
        let y = nl.find("y").unwrap();
        let cubes =
            n_detect_cubes(&nl, Fault::stuck_at(y, true), 4, PodemConfig::default(), 2).unwrap();
        assert!(cubes.is_empty());
    }

    #[test]
    fn n_zero_returns_empty() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n", "t").unwrap();
        let y = nl.find("y").unwrap();
        let cubes =
            n_detect_cubes(&nl, Fault::stuck_at(y, false), 0, PodemConfig::default(), 3).unwrap();
        assert!(cubes.is_empty());
    }

    #[test]
    fn cubes_are_unique() {
        let nl = bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n",
            "t",
        )
        .unwrap();
        let y = nl.find("y").unwrap();
        let cubes =
            n_detect_cubes(&nl, Fault::stuck_at(y, true), 6, PodemConfig::default(), 4).unwrap();
        for (i, a) in cubes.iter().enumerate() {
            for b in &cubes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // All cubes excite y = 0 (stuck-at-1 ⇒ excitation value 0).
        for c in &cubes {
            assert!(c.bits().contains(&Tri::Zero));
        }
    }
}
