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

use htforge_core::InsertionError;
use htforge_netlist::Netlist;

use crate::validate::{find_joint_trigger, ValidationBudget};
use crate::{emit, pool, prologue, BaselineOutcome};

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
        let (run, emitter) = prologue(
            nl,
            self.theta,
            self.profile_vectors,
            self.trigger_nodes,
            self.max_fanin,
            seed,
        )?;
        let pool = pool(&run.rare);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let mut infected = Vec::new();
        let mut rejected = 0usize;

        'instances: for instance in 0..self.num_instances {
            for attempt in 0..self.max_attempts_per_instance {
                let mut candidate = pool.clone();
                candidate.shuffle(&mut rng);
                candidate.truncate(self.trigger_nodes);

                let found = find_joint_trigger(
                    &run.prog,
                    &candidate,
                    self.budget,
                    seed.wrapping_add((instance * 1_000 + attempt) as u64),
                );
                let Some(vector) = found else {
                    rejected += 1;
                    continue;
                };
                match emit(
                    &emitter,
                    &run,
                    &candidate,
                    seed.wrapping_add(instance as u64),
                    &format!("rnd{instance}"),
                    Some(&vector),
                )? {
                    Some(design) => {
                        infected.push(design);
                        continue 'instances;
                    }
                    None => rejected += 1,
                }
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
    use htforge_sim::{PatternSet, SimProgram};

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
            let sim = SimProgram::compile(&d.netlist).unwrap();
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
