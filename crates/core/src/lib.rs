//! `htforge-core` — the Compatibility-Graph Assisted Automatic Hardware
//! Trojan Insertion Framework (Kumar et al., DATE 2025).
//!
//! Given a gate-level netlist, the framework produces HT-infected variants
//! whose trigger inputs are *rare nodes* that are **provably jointly
//! excitable**: a compatibility graph over PODEM test cubes identifies
//! subsets of rare nodes (complete subgraphs / cliques) that one test
//! vector can drive to their rare values simultaneously, eliminating the
//! per-instance validation step that dominates random and RL-based
//! insertion flows.
//!
//! Pipeline (paper §III):
//!
//! 1. netlist → DAG ([`htforge_netlist`]),
//! 2. rare-node extraction, Algorithm 1 ([`htforge_sim::rare`]),
//! 3. compatibility graph, Algorithm 2 ([`compat`], [`clique`]),
//! 4. trigger synthesis + insertion, Algorithm 3 ([`trigger`],
//!    [`payload`], [`insert`]),
//!
//! all orchestrated by [`InsertionFramework`].
//!
//! # Examples
//!
//! ```
//! use htforge_core::{InsertionConfig, InsertionFramework};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = htforge_circuits::load("c17")?;
//! let config = InsertionConfig {
//!     theta: 0.30,
//!     num_vectors: 2_000,
//!     trigger_nodes: 2,
//!     num_instances: 1,
//!     ..InsertionConfig::default()
//! };
//! let outcome = InsertionFramework::new(config).run(&nl)?;
//! assert_eq!(outcome.infected.len(), 1);
//! let design = &outcome.infected[0];
//! assert!(design.netlist.node_count() > nl.node_count());
//! # Ok(())
//! # }
//! ```

pub mod clique;
pub mod compat;
pub mod error;
pub mod framework;
pub mod insert;
pub mod payload;
pub mod trigger;

pub use clique::{enumerate_cliques, Clique};
pub use compat::{CompatGraph, RareEvent};
pub use error::InsertionError;
pub use framework::{
    InfectedDesign, InsertionConfig, InsertionFramework, InsertionOutcome, PhaseTimings, Prologue,
};
pub use insert::{TrojanEmitter, TrojanInstance};
pub use payload::{PayloadKind, PayloadStrategy};
pub use trigger::TriggerPlan;
