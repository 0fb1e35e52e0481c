//! Hardware-trojan detection schemes and coverage evaluation.
//!
//! Implements the three logic-testing detection schemes the paper uses to
//! grade generated benchmarks (Table II):
//!
//! * [`RandomDetection`] — plain random patterns,
//! * [`MeroDetection`] — **MERO** (Chakraborty et al., CHES 2009):
//!   N-detect refinement of random patterns toward multiple excitation
//!   of rare events,
//! * [`NdAtpgDetection`] — **ND-ATPG** (Jayasena & Mishra, TCAD 2023):
//!   per-rare-event N-detect stuck-at ATPG.
//!
//! and the two coverage metrics:
//!
//! * **Trigger Coverage (TC)** — trojans whose trigger fires under the
//!   test set,
//! * **Detection Coverage (DC)** — trojans whose effect additionally
//!   corrupts a primary output (`DC ⊆ TC`).

pub mod coverage;
pub mod mero;
pub mod ndatpg;
pub mod random;
pub mod scheme;

pub use coverage::{CoverageEvaluator, CoverageReport, DesignVerdict};
pub use mero::MeroDetection;
pub use ndatpg::NdAtpgDetection;
pub use random::RandomDetection;
pub use scheme::DetectionScheme;
