//! Logic simulation substrate for `htforge`.
//!
//! Provides the functional-simulation machinery the paper's framework is
//! built on (§III-B):
//!
//! * [`patterns`] — bit-packed input pattern sets and random generation,
//! * [`program`] — the compiled simulation kernel every caller runs on,
//! * [`simulator`] — 64-way bit-parallel 2-valued simulation,
//! * [`tri`] — three-valued (0/1/X) logic and cube simulation,
//! * [`rare`] — **rare-node extraction, paper Algorithm 1**,
//! * [`sequential`] — cycle-accurate (non-scan) simulation for
//!   sequential trojans,
//! * [`seq_batch`] — batched sequential stepping: 64 independent
//!   functional traces per machine word, with per-trace first-fire-cycle
//!   extraction for trigger/detection latency statistics.
//!
//! # Examples
//!
//! Extract rare nodes from a circuit with a 20 % threshold, the
//! hyper-parameter selected in §IV-A of the paper:
//!
//! ```
//! use htforge_netlist::bench;
//! use htforge_sim::{PatternSet, RareNodeExtractor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
//! let vectors = PatternSet::random(nl.inputs().len(), 10_000, 0xC0FFEE);
//! let rare = RareNodeExtractor::new(0.20).extract(&nl, &vectors)?;
//! // The AND output is 1 about 25 % of the time — not rare at θ = 20 %.
//! assert!(rare.iter().all(|r| r.node != nl.find("y").unwrap()));
//! # Ok(())
//! # }
//! ```

pub mod patterns;
pub mod program;
pub mod rare;
pub mod seq_batch;
pub mod sequential;
pub mod simulator;
pub mod tri;

pub use patterns::PatternSet;
pub use program::SimProgram;
pub use rare::{RareNode, RareNodeExtractor, RareNodeSet};
pub use seq_batch::{BatchedSequentialSimulator, FirstFireMonitor};
pub use sequential::{CycleSnapshot, SequentialSimulator};
pub use simulator::{NodeValues, Simulator};
pub use tri::Tri;
