//! Trust-Hub-style template insertion.
//!
//! The Trust-Hub benchmark family consists of *manually* inserted
//! trojans with small trigger counts. This inserter mimics that style:
//! it ranks rare nodes by estimated rare-value probability (the
//! "hard-to-detect signal" measure the Trust-Hub tooling quantifies),
//! slides a `q`-wide window over the threshold-adjacent band for
//! instance diversity, and — like a human designer — validates each
//! instance with a modest simulation sanity check rather than a
//! guarantee. Instances whose joint trigger cannot be confirmed are
//! still emitted, mirroring the fixed published benchmarks, but flagged
//! through the rejection counter.

use std::time::Instant;

use htforge_core::InsertionError;
use htforge_netlist::{netlist::NodeId, Netlist};

use crate::validate::{find_joint_trigger, ValidationBudget};
use crate::{emit, prologue, BaselineOutcome};

/// Maximum trigger-node count of the Trust-Hub / TRIT families.
pub const TRUSTHUB_MAX_TRIGGER_NODES: usize = 7;

/// Template-based inserter mimicking Trust-Hub benchmarks.
///
/// # Examples
///
/// ```
/// use htforge_baselines::TrustHubInserter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = htforge_circuits::load("c17")?;
/// let outcome = TrustHubInserter::new(2, 2)
///     .with_theta(0.3)
///     .with_profile_vectors(2_000)
///     .run(&nl, 1)?;
/// assert!(outcome.infected.len() <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustHubInserter {
    trigger_nodes: usize,
    num_instances: usize,
    theta: f64,
    profile_vectors: usize,
    max_fanin: usize,
    budget: ValidationBudget,
}

impl TrustHubInserter {
    /// A template inserter with `trigger_nodes ≤ 7` trigger nodes.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_nodes` is 0 or exceeds
    /// [`TRUSTHUB_MAX_TRIGGER_NODES`].
    #[must_use]
    pub fn new(trigger_nodes: usize, num_instances: usize) -> Self {
        assert!(
            (1..=TRUSTHUB_MAX_TRIGGER_NODES).contains(&trigger_nodes),
            "trust-hub style trojans use 1..=7 trigger nodes"
        );
        TrustHubInserter {
            trigger_nodes,
            num_instances,
            theta: 0.20,
            profile_vectors: 10_000,
            max_fanin: 4,
            budget: ValidationBudget {
                vectors: 20_000,
                batch: 4_096,
            },
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

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Returns [`InsertionError::NotEnoughRareNodes`] when the rare pool
    /// is smaller than the trigger count; propagates netlist errors.
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

        // Rank by rare-event probability, *least-rare first*: manually
        // curated trojans pick signals flagged as hard-to-detect by
        // threshold tools, which clusters them near the rareness
        // threshold rather than in the deep tail — the reason Table II
        // shows the Trust-Hub family as partially detectable.
        let mut ranked: Vec<_> = run.rare.iter().collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.count));
        let pool: Vec<(NodeId, bool)> = ranked.iter().map(|r| (r.node, r.rare_value)).collect();

        let mut infected = Vec::new();
        let mut rejected = 0usize;
        for instance in 0..self.num_instances {
            // Sliding window over the ranked pool for instance diversity.
            let base = instance % (pool.len() - self.trigger_nodes + 1);
            let window = &pool[base..base + self.trigger_nodes];
            let found = find_joint_trigger(
                &run.prog,
                window,
                self.budget,
                seed.wrapping_add(instance as u64),
            );
            if found.is_none() {
                rejected += 1;
            }
            infected.extend(emit(
                &emitter,
                &run,
                window,
                seed.wrapping_add(instance as u64),
                &format!("th{instance}"),
                found.as_deref(),
            )?);
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

    #[test]
    fn produces_small_trigger_trojans() {
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = TrustHubInserter::new(2, 3)
            .with_theta(0.3)
            .with_profile_vectors(2_000)
            .run(&nl, 9)
            .unwrap();
        assert!(!outcome.infected.is_empty());
        for d in &outcome.infected {
            assert!(d.netlist.validate().is_ok());
            assert_eq!(d.trojan.trigger_node_count(), 2);
        }
    }

    #[test]
    fn window_nodes_come_from_the_rare_pool() {
        let nl = htforge_circuits::load("c17").unwrap();
        let outcome = TrustHubInserter::new(2, 1)
            .with_theta(0.3)
            .with_profile_vectors(2_000)
            .run(&nl, 9)
            .unwrap();
        // The trigger window is drawn from the rare pool (near-threshold
        // band), so both nodes are below-threshold by construction.
        let d = &outcome.infected[0];
        assert_eq!(d.trojan.trigger_inputs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "1..=7")]
    fn rejects_large_trigger_counts() {
        let _ = TrustHubInserter::new(20, 1);
    }
}
