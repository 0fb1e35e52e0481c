//! Reinforcement-learning HT insertion — the ATTRITION / Sarihi-style
//! comparator of the paper's Table III.
//!
//! A tabular Q-learning agent constructs trigger sets one rare node at a
//! time. The per-node action values are seeded from SCOAP features
//! (harder-to-control nodes are *a-priori* more attractive, as in Sarihi
//! et al.) and updated from episode rewards. The reward requires the
//! expensive simulation-based joint-trigger validation that the paper's
//! framework avoids; episode count × validation budget is what makes
//! this family slow.
//!
//! This is a substitute for the authors' closed-source RL tools: it
//! reproduces their *cost structure* and output interface (validated
//! trojans with small `q`), not their exact hyper-parameters (see
//! `DESIGN.md` §3).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htforge_core::InsertionError;
use htforge_netlist::{netlist::NodeId, Netlist};

use crate::validate::{count_joint_occurrences, find_joint_trigger, ValidationBudget};
use crate::{emit, pool, prologue, BaselineOutcome};

/// Hyper-parameters of the Q-learning inserter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlConfig {
    /// Trigger nodes per trojan (`q`; the RL comparators use ≤ 5).
    pub trigger_nodes: usize,
    /// Validated trojan instances to emit.
    pub num_instances: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Learning rate α.
    pub alpha: f64,
    /// Exploration rate ε (ε-greedy action selection).
    pub epsilon: f64,
    /// Rareness threshold for the candidate pool.
    pub theta: f64,
    /// Profiling vector count.
    pub profile_vectors: usize,
    /// Simulation budget per episode validation.
    pub budget: ValidationBudget,
    /// Random vectors simulated per episode for the *stealth* part of the
    /// reward (ATTRITION-style): a candidate set only counts as a success
    /// when its joint trigger condition never fires under this pattern
    /// set. Set to 0 to disable the stealth term.
    pub stealth_patterns: usize,
    /// Maximum trigger-gate fan-in.
    pub max_fanin: usize,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            trigger_nodes: 5,
            num_instances: 1,
            episodes: 200,
            alpha: 0.2,
            epsilon: 0.2,
            theta: 0.20,
            profile_vectors: 10_000,
            budget: ValidationBudget {
                vectors: 20_000,
                batch: 4_096,
            },
            stealth_patterns: 20_000,
            max_fanin: 4,
        }
    }
}

/// The Q-learning inserter.
///
/// # Examples
///
/// ```
/// use htforge_baselines::{RlConfig, RlInserter};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = htforge_circuits::load("c17")?;
/// let config = RlConfig {
///     trigger_nodes: 2,
///     episodes: 30,
///     theta: 0.3,
///     profile_vectors: 2_000,
///     ..RlConfig::default()
/// };
/// let outcome = RlInserter::new(config).run(&nl, 5)?;
/// assert!(outcome.infected.len() <= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlInserter {
    config: RlConfig,
}

impl RlInserter {
    /// Creates an inserter with the given hyper-parameters.
    #[must_use]
    pub fn new(config: RlConfig) -> Self {
        RlInserter { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &RlConfig {
        &self.config
    }

    /// Trains the agent on `nl` and emits validated trojans.
    ///
    /// # Errors
    ///
    /// Returns [`InsertionError::NotEnoughRareNodes`] when the pool is
    /// smaller than `trigger_nodes`; propagates netlist errors.
    pub fn run(&self, nl: &Netlist, seed: u64) -> Result<BaselineOutcome, InsertionError> {
        let cfg = &self.config;
        let start = Instant::now();
        let (run, emitter) = prologue(
            nl,
            cfg.theta,
            cfg.profile_vectors,
            cfg.trigger_nodes,
            cfg.max_fanin,
            seed,
        )?;
        let pool = pool(&run.rare);

        // Q-values seeded from SCOAP controllability toward the rare value
        // (normalized): harder nodes start more attractive.
        let mut q_values: Vec<f64> = pool
            .iter()
            .map(|&(n, v)| {
                let cc = run.scoap.cc(n, v) as f64;
                (cc / (cc + 10.0)).min(1.0) * 0.5
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x93A4);
        // (validated trigger set, witness joint-trigger vector)
        type Success = (Vec<(NodeId, bool)>, Vec<bool>);
        let mut successes: Vec<Success> = Vec::new();
        let mut rejected = 0usize;

        for episode in 0..cfg.episodes {
            let set = self.select_set(&pool, &q_values, &mut rng);
            let found = find_joint_trigger(
                &run.prog,
                &set,
                cfg.budget,
                seed.wrapping_add(episode as u64).wrapping_mul(0x85EB_CA6B),
            );
            // ATTRITION-style composite reward: the set must be jointly
            // excitable (validation) *and* stealthy (its trigger must not
            // fire under a fresh random pattern set).
            let stealthy = match (&found, cfg.stealth_patterns) {
                (Some(_), 0) => true,
                (Some(_), n) => {
                    count_joint_occurrences(
                        &run.prog,
                        &set,
                        n,
                        (seed ^ 0x57EA).wrapping_add(episode as u64),
                    ) == 0
                }
                (None, _) => false,
            };
            let reward = match (&found, stealthy) {
                (Some(_), true) => 1.0,
                (Some(_), false) => 0.3,
                (None, _) => -0.1,
            };
            for &(node, value) in &set {
                let idx = pool
                    .iter()
                    .position(|&(n, v)| n == node && v == value)
                    .expect("set drawn from pool");
                q_values[idx] += cfg.alpha * (reward - q_values[idx]);
            }
            match found {
                Some(vector) if stealthy => {
                    let mut sorted = set.clone();
                    sorted.sort_unstable();
                    if !successes.iter().any(|(s, _)| *s == sorted) {
                        successes.push((sorted, vector));
                        if successes.len() >= cfg.num_instances {
                            break;
                        }
                    }
                }
                _ => rejected += 1,
            }
        }

        let mut infected = Vec::new();
        for (i, (set, vector)) in successes.iter().enumerate() {
            infected.extend(emit(
                &emitter,
                &run,
                set,
                seed.wrapping_add(i as u64),
                &format!("rl{i}"),
                Some(vector),
            )?);
        }

        Ok(BaselineOutcome {
            infected,
            rejected,
            elapsed: start.elapsed(),
        })
    }

    /// ε-greedy selection of a `q`-node set without replacement.
    fn select_set(
        &self,
        pool: &[(NodeId, bool)],
        q_values: &[f64],
        rng: &mut StdRng,
    ) -> Vec<(NodeId, bool)> {
        let q = self.config.trigger_nodes;
        let mut available: Vec<usize> = (0..pool.len()).collect();
        let mut chosen = Vec::with_capacity(q);
        for _ in 0..q {
            let pick_pos = if rng.gen_bool(self.config.epsilon) {
                rng.gen_range(0..available.len())
            } else {
                available
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        q_values[a]
                            .partial_cmp(&q_values[b])
                            .expect("finite Q values")
                    })
                    .map(|(pos, _)| pos)
                    .expect("available nonempty")
            };
            let idx = available.swap_remove(pick_pos);
            chosen.push(pool[idx]);
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::{PatternSet, SimProgram};

    fn quick_config() -> RlConfig {
        RlConfig {
            trigger_nodes: 2,
            num_instances: 2,
            episodes: 50,
            theta: 0.3,
            profile_vectors: 2_000,
            budget: ValidationBudget {
                vectors: 5_000,
                batch: 1_024,
            },
            // c17's rare nodes are not stealthy at q = 2; the stealth
            // term is exercised by the integration/bench harnesses.
            stealth_patterns: 0,
            ..RlConfig::default()
        }
    }

    #[test]
    fn c17_rl_insertion_produces_validated_trojans() {
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = RlInserter::new(quick_config()).run(&nl, 21).unwrap();
        assert!(!outcome.infected.is_empty(), "agent should find a set");
        for d in &outcome.infected {
            assert!(d.netlist.validate().is_ok());
            let sim = SimProgram::compile(&d.netlist).unwrap();
            let v = d.trojan.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            assert!(
                sim.run(&ps).value(d.trojan.trigger_output, 0),
                "validated vector must fire the trigger"
            );
        }
    }

    #[test]
    fn distinct_instances() {
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = RlInserter::new(quick_config()).run(&nl, 22).unwrap();
        let mut sets: Vec<Vec<NodeId>> = outcome
            .infected
            .iter()
            .map(|d| {
                let mut s: Vec<NodeId> = d.trojan.trigger_inputs.iter().map(|&(n, _)| n).collect();
                s.sort_unstable();
                s
            })
            .collect();
        let before = sets.len();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), before);
    }

    #[test]
    fn pool_too_small_errors() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = RlConfig {
            trigger_nodes: 100,
            theta: 0.3,
            profile_vectors: 500,
            ..quick_config()
        };
        assert!(matches!(
            RlInserter::new(cfg).run(&nl, 0),
            Err(InsertionError::NotEnoughRareNodes { .. })
        ));
    }
}
