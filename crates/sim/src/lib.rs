//! Logic simulation substrate for `htforge`.
//!
//! Provides the functional-simulation machinery the paper's framework is
//! built on (§III-B):
//!
//! * [`patterns`] — bit-packed input pattern sets and random generation,
//! * [`program`] — the compiled simulation kernel every caller runs on,
//! * [`simulator`] — simulated node values, and the `Simulator` wrapper
//!   the benchmark package builds against,
//! * [`tri`] — three-valued (0/1/X) logic and cube simulation,
//! * [`rare`] — **rare-node extraction, paper Algorithm 1**.
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
pub mod simulator;
pub mod tri;

pub use patterns::PatternSet;
pub use program::SimProgram;
pub use rare::{RareNode, RareNodeExtractor, RareNodeSet};
pub use simulator::{NodeValues, Simulator};
pub use tri::Tri;
