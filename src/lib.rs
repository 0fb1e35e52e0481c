//! `htforge` — facade crate for the Compatibility-Graph Assisted
//! Automatic Hardware Trojan Insertion Framework (DATE 2025
//! reproduction).
//!
//! This crate re-exports the whole toolkit under one roof:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`netlist`] | `htforge-netlist` | gate-level netlists, `.bench` I/O, area model |
//! | [`circuits`] | `htforge-circuits` | ISCAS-85/89 benchmark substitutes |
//! | [`sim`] | `htforge-sim` | bit-parallel simulation, rare nodes (Alg. 1) |
//! | [`atpg`] | `htforge-atpg` | PODEM, test cubes |
//! | [`scoap`] | `htforge-scoap` | SCOAP testability metrics |
//! | [`core`] | `htforge-core` | compatibility graph, cliques, insertion (Alg. 2–3) |
//! | [`baselines`] | `htforge-baselines` | random / RL / Trust-Hub-style inserters |
//! | [`detect`] | `htforge-detect` | Random / MERO / ND-ATPG detection, TC/DC |
//! | [`server`] | `htforge-server` | multi-tenant JSONL campaign daemon |
//! | [`obs`] | `htforge-obs` | spans, metrics, run reports (`HTFORGE_OBS`) |
//!
//! # Examples
//!
//! Insert a trojan into c17 and write the infected netlist:
//!
//! ```
//! use htforge::core::{InsertionConfig, InsertionFramework};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let golden = htforge::circuits::load("c17")?;
//! let config = InsertionConfig {
//!     theta: 0.30,
//!     num_vectors: 2_000,
//!     trigger_nodes: 2,
//!     num_instances: 1,
//!     ..InsertionConfig::default()
//! };
//! let outcome = InsertionFramework::new(config).run(&golden)?;
//! let infected = &outcome.infected[0];
//! let bench_text = htforge::netlist::bench::write(&infected.netlist);
//! assert!(bench_text.contains("ht0_payload"));
//! # Ok(())
//! # }
//! ```

pub use htforge_atpg as atpg;
pub use htforge_baselines as baselines;
pub use htforge_circuits as circuits;
pub use htforge_core as core;
pub use htforge_detect as detect;
pub use htforge_netlist as netlist;
pub use htforge_obs as obs;
pub use htforge_scoap as scoap;
pub use htforge_server as server;
pub use htforge_sim as sim;
