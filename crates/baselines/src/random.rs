//! Random HT insertion — the paper's "Random HT Benchmarks" comparator.
//!
//! Trigger sets are sampled uniformly from the rare-node pool; each
//! candidate must then be *validated* by brute-force joint-trigger search
//! ([`crate::validate`]). Because the probability that `q` independently
//! chosen rare nodes are jointly excitable collapses rapidly with `q`,
//! almost all candidates are rejected, and the insertion time balloons —
//! the behaviour Table III reports (hours-to-days for 100 instances
//! against sub-minute for the compatibility-graph framework).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use htforge_atpg::Cube;
use htforge_core::insert::insert_trojan_with;
use htforge_core::payload::choose_payload;
use htforge_core::{InfectedDesign, InsertionError, PayloadKind, PayloadStrategy, TriggerPlan};
use htforge_netlist::{netlist::NodeId, Netlist};
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor, Tri};

use crate::validate::{find_joint_trigger, ValidationBudget};
use crate::BaselineOutcome;

/// Configuration and driver for random insertion.
///
/// # Examples
///
/// ```
/// use htforge_baselines::RandomInserter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = htforge_circuits::load("c17")?;
/// let outcome = RandomInserter::new(2, 1)
///     .with_theta(0.3)
///     .with_profile_vectors(2_000)
///     .run(&nl, 7)?;
/// assert!(outcome.infected.len() <= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomInserter {
    trigger_nodes: usize,
    num_instances: usize,
    theta: f64,
    profile_vectors: usize,
    max_fanin: usize,
    budget: ValidationBudget,
    /// Candidate attempts before giving up per instance.
    max_attempts_per_instance: usize,
}

impl RandomInserter {
    /// A random inserter producing `num_instances` trojans with
    /// `trigger_nodes` trigger nodes each.
    #[must_use]
    pub fn new(trigger_nodes: usize, num_instances: usize) -> Self {
        RandomInserter {
            trigger_nodes,
            num_instances,
            theta: 0.20,
            profile_vectors: 10_000,
            max_fanin: 4,
            budget: ValidationBudget::default(),
            max_attempts_per_instance: 50,
        }
    }

    /// Sets the rareness threshold (default 0.20).
    #[must_use]
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the profiling vector count (default 10 000).
    #[must_use]
    pub fn with_profile_vectors(mut self, vectors: usize) -> Self {
        self.profile_vectors = vectors;
        self
    }

    /// Sets the per-candidate validation budget.
    #[must_use]
    pub fn with_budget(mut self, budget: ValidationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the candidate attempts per instance (default 50).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts_per_instance = attempts;
        self
    }

    /// Runs the campaign on `nl` with the given seed.
    ///
    /// # Errors
    ///
    /// Returns [`InsertionError::NotEnoughRareNodes`] when the rare-node
    /// pool is smaller than `trigger_nodes`, or propagates netlist
    /// errors. A campaign that validates fewer instances than requested
    /// is *not* an error — the outcome simply contains fewer designs
    /// (and a large [`BaselineOutcome::rejected`] count).
    pub fn run(&self, nl: &Netlist, seed: u64) -> Result<BaselineOutcome, InsertionError> {
        let start = Instant::now();
        let comb = if nl.dffs().is_empty() {
            nl.clone()
        } else {
            nl.scan_cut()
        };
        let scoap = Scoap::compute(nl)?;
        let patterns = PatternSet::random(comb.inputs().len(), self.profile_vectors, seed);
        let rare = RareNodeExtractor::new(self.theta).extract(&comb, &patterns)?;
        if rare.len() < self.trigger_nodes {
            return Err(InsertionError::NotEnoughRareNodes {
                found: rare.len(),
                needed: self.trigger_nodes,
            });
        }
        let pool: Vec<(NodeId, bool)> = rare.iter().map(|r| (r.node, r.rare_value)).collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let mut infected = Vec::new();
        let mut rejected = 0usize;

        'instances: for instance in 0..self.num_instances {
            for attempt in 0..self.max_attempts_per_instance {
                let mut candidate = pool.clone();
                candidate.shuffle(&mut rng);
                candidate.truncate(self.trigger_nodes);

                let found = find_joint_trigger(
                    &comb,
                    &candidate,
                    self.budget,
                    seed.wrapping_add((instance * 1_000 + attempt) as u64),
                )?;
                let Some(vector) = found else {
                    rejected += 1;
                    continue;
                };

                let rare_values: Vec<bool> = candidate.iter().map(|&(_, v)| v).collect();
                let plan = TriggerPlan::synthesize(&rare_values, self.max_fanin);
                let trigger_nodes: Vec<NodeId> = candidate.iter().map(|&(n, _)| n).collect();
                let Some(payload) = choose_payload(
                    nl,
                    &scoap,
                    &trigger_nodes,
                    PayloadStrategy::Random(seed.wrapping_add(instance as u64)),
                ) else {
                    rejected += 1;
                    continue;
                };
                let cube = Cube::from_tris(vector.iter().map(|&b| Tri::from_bool(b)).collect());
                let (netlist, trojan) = insert_trojan_with(
                    nl,
                    &candidate,
                    &plan,
                    payload,
                    PayloadKind::Flip,
                    &format!("rnd{instance}"),
                    cube,
                )?;
                infected.push(InfectedDesign { netlist, trojan });
                continue 'instances;
            }
            // All attempts for this instance failed; move on.
        }

        Ok(BaselineOutcome {
            infected,
            rejected,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::simulator::BoundSimulator;

    #[test]
    fn c17_random_insertion_validates() {
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = RandomInserter::new(2, 2)
            .with_theta(0.3)
            .with_profile_vectors(2_000)
            .run(&nl, 11)
            .unwrap();
        assert!(!outcome.infected.is_empty());
        for d in &outcome.infected {
            assert!(d.netlist.validate().is_ok());
            // The stored activation cube must actually fire the trigger.
            let sim = BoundSimulator::new(&d.netlist).unwrap();
            let v = d.trojan.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            assert!(sim.run(&ps).value(d.trojan.trigger_output, 0));
        }
    }

    #[test]
    fn rejection_counter_moves_on_hard_sets() {
        // Tiny budget: most candidates will fail validation.
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = RandomInserter::new(2, 1)
            .with_theta(0.3)
            .with_profile_vectors(2_000)
            .with_budget(ValidationBudget {
                vectors: 2,
                batch: 2,
            })
            .with_max_attempts(5)
            .run(&nl, 3)
            .unwrap();
        assert!(outcome.infected.len() <= 1);
        // Either it got lucky or it rejected candidates; both legal.
        assert!(outcome.rejected <= 5);
    }

    #[test]
    fn too_many_trigger_nodes() {
        let nl = htforge_circuits::load("c17").unwrap();
        let err = RandomInserter::new(500, 1)
            .with_theta(0.3)
            .with_profile_vectors(500)
            .run(&nl, 0)
            .unwrap_err();
        assert!(matches!(err, InsertionError::NotEnoughRareNodes { .. }));
    }
}
