//! Baseline hardware-trojan insertion frameworks.
//!
//! The paper's Tables II and III compare the proposed compatibility-graph
//! framework against three families of inserters, all re-implemented here
//! against the same substrate (netlist, simulation, trigger synthesis):
//!
//! * [`random`] — **Random HT insertion**: uniformly sampled rare-node
//!   subsets validated by brute-force joint-trigger search. The
//!   rejection-sampling validation is what makes its insertion times
//!   explode (Table III).
//! * [`rl`] — **Reinforcement-learning insertion** (ATTRITION / Sarihi
//!   et al. style): a tabular Q-learning agent learns which rare nodes
//!   co-trigger, paying a simulation-based validation per episode.
//! * [`trusthub`] — **Trust-Hub-style template insertion**: small,
//!   fixed trigger counts (q ≤ 7) over the rarest nodes, mimicking the
//!   manually curated benchmark family.
//!
//! The three share one harness built on the framework's own stages. A
//! private prologue profiles the circuit exactly as the framework does
//! (scan-cut model, SCOAP, random-vector rare extraction) and compiles
//! the combinational model into one [`htforge_sim::SimProgram`] that
//! every validation search of the run ([`validate`]) reuses. Trigger
//! sets become designs through the framework's
//! [`htforge_core::TrojanEmitter`] (plan → payload → insertion). Each
//! inserter keeps only what is its own: how it proposes trigger sets,
//! how it counts rejections, and its tags and seeds. All of them return
//! [`BaselineOutcome`]s holding the same [`htforge_core::InfectedDesign`]
//! type the framework emits, so the detection harness evaluates every
//! family identically.

pub mod random;
pub mod rl;
pub mod trusthub;
pub mod validate;

pub use random::RandomInserter;
pub use rl::{RlConfig, RlInserter};
pub use trusthub::TrustHubInserter;
pub use validate::{find_joint_trigger, ValidationBudget};

use std::time::Duration;

use htforge_atpg::Cube;
use htforge_core::{InfectedDesign, InsertionError, PayloadKind, PayloadStrategy, TrojanEmitter};
use htforge_netlist::{netlist::NodeId, Netlist};
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet, SimProgram, Tri};

/// The result of one baseline insertion campaign.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Successfully validated infected designs.
    pub infected: Vec<InfectedDesign>,
    /// Candidate trigger sets that failed validation.
    pub rejected: usize,
    /// Total wall-clock time, validation included.
    pub elapsed: Duration,
}

impl BaselineOutcome {
    /// Designs produced per second (0 when empty).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.infected.len() as f64 / secs
        }
    }
}

/// What every baseline campaign starts from: the host profiled the way
/// the framework profiles it, and one simulation program over its
/// combinational model for every validation search of the run.
struct Prologue<'a> {
    host: &'a Netlist,
    scoap: Scoap,
    rare: RareNodeSet,
    prog: SimProgram,
    max_fanin: usize,
}

impl<'a> Prologue<'a> {
    /// Profiles `host` with `vectors` random patterns from `seed` at
    /// rareness threshold `theta`.
    ///
    /// # Errors
    ///
    /// [`InsertionError::NotEnoughRareNodes`] when fewer than
    /// `trigger_nodes` nodes are rare; netlist errors otherwise.
    fn new(
        host: &'a Netlist,
        theta: f64,
        vectors: usize,
        trigger_nodes: usize,
        max_fanin: usize,
        seed: u64,
    ) -> Result<Self, InsertionError> {
        let comb = host.scan_cut();
        let scoap = Scoap::compute(host)?;
        let patterns = PatternSet::random(comb.inputs().len(), vectors, seed);
        let rare = RareNodeExtractor::new(theta).extract(&comb, &patterns)?;
        if rare.len() < trigger_nodes {
            return Err(InsertionError::NotEnoughRareNodes {
                found: rare.len(),
                needed: trigger_nodes,
            });
        }
        let prog = SimProgram::compile(&comb)?;
        Ok(Prologue {
            host,
            scoap,
            rare,
            prog,
            max_fanin,
        })
    }

    /// The rare nodes with their rare values, in profile order.
    fn pool(&self) -> Vec<(NodeId, bool)> {
        self.rare.iter().map(|r| (r.node, r.rare_value)).collect()
    }

    /// Emits a flip trojan triggered by `leaves`, its payload net drawn
    /// with `payload_seed`, keeping `vector` as the activation cube (all
    /// X when no joint-trigger vector was found). `None` when no payload
    /// net is acyclicity-safe for these leaves.
    fn emit(
        &self,
        leaves: &[(NodeId, bool)],
        payload_seed: u64,
        tag: &str,
        vector: Option<&[bool]>,
    ) -> Result<Option<InfectedDesign>, InsertionError> {
        let cube = match vector {
            Some(v) => Cube::from_tris(v.iter().map(|&b| Tri::from_bool(b)).collect()),
            None => Cube::all_x(self.prog.num_inputs()),
        };
        let emitter = TrojanEmitter {
            host: self.host,
            scoap: &self.scoap,
            max_fanin: self.max_fanin,
            payload_kind: PayloadKind::Flip,
        };
        match emitter.emit(leaves, PayloadStrategy::Random(payload_seed), tag, cube) {
            Ok(design) => Ok(Some(design)),
            Err(InsertionError::NoPayloadNet) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

    /// FNV-1a over every design's `.bench` text and activation cube, in
    /// emission order.
    fn digest(outcome: &BaselineOutcome) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for design in &outcome.infected {
            let text = bench::write(&design.netlist);
            let cube = design.trojan.activation_cube.to_string();
            for &b in text.as_bytes().iter().chain(cube.as_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The emitted designs, rejection counts and instance counts of all
    /// three inserters on c432 (θ = 0.2; the Trust-Hub window at q = 6
    /// also emits unconfirmed, all-X-cube instances), pinned so that a change to the
    /// shared prologue, the validation search or the trojan emitter that
    /// moves any output byte fails here.
    #[test]
    fn baseline_outputs_are_pinned() {
        let nl = htforge_circuits::load("c432").unwrap();
        // Batch and stealth sizes off the 64-pattern word grid, so the
        // masked tail word is in play.
        let budget = ValidationBudget {
            vectors: 8_000,
            batch: 2_000,
        };
        let random = RandomInserter::new(3, 3)
            .with_profile_vectors(4_000)
            .with_budget(budget)
            .with_max_attempts(20)
            .run(&nl, 17)
            .unwrap();
        let rl = RlInserter::new(RlConfig {
            trigger_nodes: 3,
            num_instances: 2,
            episodes: 40,
            profile_vectors: 4_000,
            budget,
            stealth_patterns: 4_000,
            ..RlConfig::default()
        })
        .run(&nl, 17)
        .unwrap();
        let trusthub = TrustHubInserter::new(6, 3)
            .with_profile_vectors(4_000)
            .run(&nl, 17)
            .unwrap();
        let got = [&random, &rl, &trusthub].map(|o| (o.infected.len(), o.rejected, digest(o)));
        assert_eq!(
            got,
            [
                (3, 7, 0x924c_f1d8_23f4_811a),
                (1, 39, 0x6e0e_dbd8_0f0b_865a),
                (3, 3, 0x4d1f_bf11_c1f4_0f80),
            ]
        );
    }
}
