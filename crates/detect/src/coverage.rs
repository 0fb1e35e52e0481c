//! Trigger-Coverage / Detection-Coverage evaluation (the Table II
//! metrics).
//!
//! Given the golden design, a batch of HT-infected designs, and a test
//! set, the evaluator simulates everything bit-parallel and reports per
//! design whether the trojan *triggered* (TC) and whether its effect was
//! *observable* at a primary output (DC). By construction of the XOR
//! payload, `DC ⊆ TC`.

use htforge_core::InfectedDesign;
use htforge_netlist::{Netlist, NetlistError};
use htforge_sim::{PatternSet, SimProgram};

/// Verdict for one infected design under one test set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignVerdict {
    /// The trigger fired for at least one test vector.
    pub triggered: bool,
    /// At least one primary output differed from the golden response.
    pub detected: bool,
}

/// Aggregated coverage over a batch of infected designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Per-design verdicts, in input order.
    pub verdicts: Vec<DesignVerdict>,
}

impl CoverageReport {
    /// Number of designs evaluated.
    #[must_use]
    pub fn total(&self) -> usize {
        self.verdicts.len()
    }

    /// Designs whose trigger fired (TC numerator).
    #[must_use]
    pub fn triggered(&self) -> usize {
        self.verdicts.iter().filter(|v| v.triggered).count()
    }

    /// Designs detected at an output (DC numerator).
    #[must_use]
    pub fn detected(&self) -> usize {
        self.verdicts.iter().filter(|v| v.detected).count()
    }

    /// Trigger coverage in percent.
    #[must_use]
    pub fn trigger_coverage(&self) -> f64 {
        percent(self.triggered(), self.total())
    }

    /// Detection coverage in percent.
    #[must_use]
    pub fn detection_coverage(&self) -> f64 {
        percent(self.detected(), self.total())
    }
}

fn percent(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// A coverage evaluator bound to one golden design.
///
/// Construction scan-cuts the golden netlist (when sequential) and
/// compiles it once; every [`evaluate`](Self::evaluate) call reuses
/// both. Graders hold one evaluator per golden design, so grading one
/// test set per [`DetectionScheme`](crate::DetectionScheme) under
/// comparison pays one golden compile, not one per scheme.
#[derive(Debug)]
pub struct CoverageEvaluator {
    golden_cut: Netlist,
    golden_prog: SimProgram,
}

impl CoverageEvaluator {
    /// Prepares an evaluator for `golden` (scan-cutting sequential
    /// designs and compiling the simulation program up front).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] for cyclic netlists.
    pub fn new(golden: &Netlist) -> Result<Self, NetlistError> {
        let golden_cut = golden.scan_cut();
        let golden_prog = SimProgram::compile(&golden_cut)?;
        Ok(CoverageEvaluator {
            golden_cut,
            golden_prog,
        })
    }

    /// The (scan-cut) golden netlist verdicts are graded against. Test
    /// sets passed to [`evaluate`](Self::evaluate) must be sized for its
    /// input count.
    #[must_use]
    pub fn golden(&self) -> &Netlist {
        &self.golden_cut
    }

    /// The simulation program compiled from [`golden`](Self::golden).
    /// Callers that also profile or grade the golden model run it
    /// instead of compiling their own.
    #[must_use]
    pub fn program(&self) -> &SimProgram {
        &self.golden_prog
    }

    /// Evaluates `designs` against `tests`.
    ///
    /// Sequential infected designs are scan-cut here; `tests` must be
    /// sized for the scan-cut input count, which is what every
    /// [`DetectionScheme`](crate::DetectionScheme) in this crate produces
    /// when handed [`golden`](Self::golden).
    ///
    /// A design whose evaluation *panics* (a malformed netlist tripping
    /// an internal invariant, an injected fault) is isolated: it is
    /// graded `{triggered: false, detected: false}`, the panic is counted
    /// under `detect.isolated_panics`, and the rest of the batch
    /// proceeds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] for cyclic infected netlists.
    pub fn evaluate(
        &self,
        designs: &[InfectedDesign],
        tests: &PatternSet,
    ) -> Result<CoverageReport, NetlistError> {
        let campaign_span = htforge_obs::span("detect_campaign");
        let golden_cut = &self.golden_cut;
        let golden_vals = self.golden_prog.run(tests);

        let mut verdicts = Vec::with_capacity(designs.len());
        for (i, design) in designs.iter().enumerate() {
            let graded = htforge_obs::isolate(&format!("design {i}"), || {
                htforge_obs::faultpoint!("detect.design");
                let infected_cut = design.netlist.scan_cut();
                assert_eq!(
                    infected_cut.outputs().len(),
                    golden_cut.outputs().len(),
                    "infected design must preserve the output interface"
                );
                let vals = SimProgram::compile(&infected_cut)?.run(tests);

                let trigger = design.trojan.trigger_output;
                let triggered = vals.words(trigger).iter().any(|&w| w != 0);

                let mut detected = false;
                'outer: for (&go, &io) in golden_cut.outputs().iter().zip(infected_cut.outputs()) {
                    let gw = golden_vals.words(go);
                    let iw = vals.words(io);
                    for (a, b) in gw.iter().zip(iw) {
                        if a != b {
                            detected = true;
                            break 'outer;
                        }
                    }
                }
                Ok(DesignVerdict {
                    triggered,
                    detected,
                })
            });
            verdicts.push(match graded {
                Ok(result) => result?,
                Err(_panic_msg) => {
                    htforge_obs::counter("detect.isolated_panics").add(1);
                    DesignVerdict {
                        triggered: false,
                        detected: false,
                    }
                }
            });
        }
        htforge_obs::counter("detect.designs_graded").add(designs.len() as u64);
        htforge_obs::counter("detect.patterns_graded").add((tests.len() * designs.len()) as u64);
        campaign_span.finish();
        Ok(CoverageReport { verdicts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::DetectionScheme;
    use htforge_core::{InsertionConfig, InsertionFramework};
    use htforge_sim::RareNodeExtractor;

    fn evaluate(
        golden: &Netlist,
        designs: &[InfectedDesign],
        tests: &PatternSet,
    ) -> CoverageReport {
        CoverageEvaluator::new(golden)
            .unwrap()
            .evaluate(designs, tests)
            .unwrap()
    }

    fn infected_c17() -> (Netlist, Vec<InfectedDesign>) {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            num_vectors: 2_000,
            trigger_nodes: 2,
            num_instances: 2,
            seed: 42,
            ..InsertionConfig::default()
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        (nl, outcome.infected)
    }

    #[test]
    fn activation_vector_is_both_triggered_and_detected() {
        let (nl, designs) = infected_c17();
        // Build a test set containing each design's activation vector.
        let mut tests = PatternSet::zeros(nl.inputs().len(), 0);
        for d in &designs {
            tests.push(&d.trojan.activation_cube.fill_with(false));
            tests.push(&d.trojan.activation_cube.fill_with(true));
        }
        let report = evaluate(&nl, &designs, &tests);
        assert_eq!(report.total(), designs.len());
        assert_eq!(report.triggered(), designs.len(), "all triggers fire");
        // DC ⊆ TC always.
        assert!(report.detected() <= report.triggered());
        // The payload is chosen for observability: expect detection too.
        assert!(report.detected() > 0);
    }

    #[test]
    fn empty_test_set_yields_no_coverage() {
        let (nl, designs) = infected_c17();
        let tests = PatternSet::zeros(nl.inputs().len(), 0);
        let report = evaluate(&nl, &designs, &tests);
        assert_eq!(report.triggered(), 0);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.trigger_coverage(), 0.0);
    }

    #[test]
    fn dc_is_subset_of_tc_under_random_tests() {
        let (nl, designs) = infected_c17();
        let tests = PatternSet::random(nl.inputs().len(), 4_096, 5);
        let report = evaluate(&nl, &designs, &tests);
        for v in &report.verdicts {
            if v.detected {
                assert!(v.triggered, "detection implies triggering");
            }
        }
    }

    #[test]
    fn mero_on_c17_trojans() {
        // On a 5-input circuit every rare combination is reachable, so a
        // decent test set should trigger the 2-node trojans.
        let (nl, designs) = infected_c17();
        let profile = PatternSet::random(5, 2_000, 1);
        let rare = RareNodeExtractor::new(0.3).extract(&nl, &profile).unwrap();
        let tests = crate::MeroDetection::new(10, 500, 3)
            .generate_tests(&nl, &rare)
            .unwrap();
        let report = evaluate(&nl, &designs, &tests);
        // c17 is tiny: MERO should trigger these trojans (the paper's
        // evasion results require the large-q trojans of real circuits).
        assert!(report.triggered() > 0);
    }

    #[test]
    fn panicking_design_is_isolated_not_fatal() {
        let (nl, mut designs) = infected_c17();
        // Keep a healthy copy as the survivor, then sabotage the first
        // design so its evaluation trips the output-interface invariant
        // (a panic, not an Err): c432 has 7 outputs, c17 has 2.
        let survivor = designs[0].clone();
        designs[0].netlist = htforge_circuits::load("c432").unwrap();
        designs.push(survivor);
        let mut tests = PatternSet::zeros(nl.inputs().len(), 0);
        for d in &designs[1..] {
            tests.push(&d.trojan.activation_cube.fill_with(false));
        }
        let report = evaluate(&nl, &designs, &tests);
        assert_eq!(report.total(), designs.len());
        // The sabotaged design is graded "not triggered, not detected"...
        assert!(!report.verdicts[0].triggered);
        assert!(!report.verdicts[0].detected);
        // ...while the healthy designs still got their real verdicts.
        assert!(report.triggered() > 0, "survivors must still be graded");
    }

    #[test]
    fn percentages() {
        let report = CoverageReport {
            verdicts: vec![
                DesignVerdict {
                    triggered: true,
                    detected: true,
                },
                DesignVerdict {
                    triggered: true,
                    detected: false,
                },
                DesignVerdict {
                    triggered: false,
                    detected: false,
                },
                DesignVerdict {
                    triggered: false,
                    detected: false,
                },
            ],
        };
        assert!((report.trigger_coverage() - 50.0).abs() < 1e-9);
        assert!((report.detection_coverage() - 25.0).abs() < 1e-9);
    }
}
