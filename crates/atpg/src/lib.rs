//! PODEM-based automatic test-pattern generation (ATPG) for `htforge`.
//!
//! The paper's compatibility graph (§III-C) is built from stuck-at test
//! cubes: for each rare node `n` with rare value `r`, PODEM [Goel 1981]
//! generates a test cube for the `n` stuck-at-`r̄` fault; two rare nodes
//! are *compatible* iff their cubes have no conflicting care bits. This
//! crate supplies that machinery:
//!
//! * [`fault`] — stuck-at fault model,
//! * [`cube`] — partial input assignments (test cubes) with conflict
//!   checking and merging,
//! * [`podem`] — the PODEM engine (justify-only and full-detect modes),
//! * [`lift`] — the justifying sub-cube of a known satisfying vector,
//!   read off in one backward pass instead of a search,
//! * [`sat`] — the stuck-at miter, or one node's justification, as CNF,
//!   decided by a CDCL solver: a verdict (with a satisfying vector) where
//!   PODEM aborts, within a conflict limit,
//! * [`ndetect`] — up-to-N distinct cubes per fault (the ND-ATPG
//!   detection scheme's primitive), which skips the faults [`sat`]
//!   proves undetectable,
//! * [`fault_sim`] — bit-parallel stuck-at fault simulation for grading
//!   test sets.
//!
//! # Examples
//!
//! ```
//! use htforge_atpg::{Fault, Podem, PodemConfig, TestResult};
//! use htforge_netlist::bench;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = bench::parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
//! let mut podem = Podem::new(&nl, PodemConfig::default())?;
//! let y = nl.find("y").unwrap();
//! // Test for y stuck-at-0: must set y = 1, i.e. a = b = 1.
//! match podem.generate(Fault::stuck_at(y, false)) {
//!     TestResult::Test(cube) => assert_eq!(cube.care_count(), 2),
//!     other => panic!("expected a test, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

pub mod cube;
pub mod fault;
pub mod fault_sim;
pub mod lift;
pub mod ndetect;
pub mod podem;
pub mod sat;

pub use cube::Cube;
pub use fault::Fault;
pub use fault_sim::{all_faults, fault_simulate, FaultSimReport};
pub use lift::Lifter;
pub use ndetect::{n_detect_cubes, NDetectEngine};
pub use podem::{Podem, PodemConfig, PodemMode, TestResult};
