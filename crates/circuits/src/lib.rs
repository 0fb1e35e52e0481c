//! Benchmark circuits for `htforge`.
//!
//! The paper evaluates on ISCAS-85 (c2670, c3540, c5315, c6288) and
//! ISCAS-89 (s1423, s13207, s15850, s35932). The original netlist files
//! are not redistributable here, so this crate supplies **calibrated
//! substitutes** (see `DESIGN.md` §3):
//!
//! * [`c17`](iscas::c17) — the real, tiny ISCAS-85 c17 (public domain,
//!   reproduced from the literature),
//! * [`multiplier`] — a real structural 16×16 carry-save array multiplier
//!   standing in for c6288 (which *is* a 16×16 multiplier),
//! * [`synth`] — a seeded synthetic netlist generator producing
//!   levelized, reconvergent random logic calibrated to the published
//!   gate/PI/PO/DFF counts of the remaining circuits.
//!
//! Every substitute is deterministic: the same name always yields the
//! same netlist, so experiment tables are reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! let nl = htforge_circuits::load("c2670")?;
//! assert_eq!(nl.inputs().len(), 233);
//! assert!(htforge_circuits::names().contains(&"c6288"));
//! # Ok::<(), htforge_circuits::CircuitError>(())
//! ```

pub mod iscas;
pub mod multiplier;
pub mod synth;

use std::fmt;

use htforge_netlist::Netlist;

/// Error returned by [`load`] for unknown circuit names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitError {
    name: String,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown circuit `{}` (known: {})",
            self.name,
            names().join(", ")
        )
    }
}

impl std::error::Error for CircuitError {}

/// Names of all built-in circuits: the full ISCAS-85/89 families
/// (`c17` is real, `c6288` is a real multiplier, the rest are calibrated
/// synthetic substitutes).
#[must_use]
pub fn names() -> Vec<&'static str> {
    vec![
        "c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
        "c7552", "s1423", "s5378", "s9234", "s13207", "s15850", "s35932", "s38417", "s38584",
    ]
}

/// The eight circuits of the paper's evaluation tables.
#[must_use]
pub fn paper_benchmarks() -> Vec<&'static str> {
    vec![
        "c2670", "c3540", "c5315", "c6288", "s1423", "s13207", "s15850", "s35932",
    ]
}

/// Loads a built-in circuit by name.
///
/// # Errors
///
/// Returns [`CircuitError`] for names not in [`names`].
pub fn load(name: &str) -> Result<Netlist, CircuitError> {
    match name {
        "c17" => Ok(iscas::c17()),
        "c6288" => Ok(multiplier::multiplier("c6288", 16)),
        other => {
            let profile = synth::CircuitProfile::for_name(other).ok_or_else(|| CircuitError {
                name: other.to_owned(),
            })?;
            Ok(synth::generate(&profile))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_load_and_validate() {
        for name in names() {
            let nl = load(name).unwrap();
            assert!(nl.validate().is_ok(), "{name} invalid");
            assert_eq!(nl.name(), name);
        }
    }

    #[test]
    fn load_is_deterministic() {
        let a = htforge_netlist::bench::write(&load("c2670").unwrap());
        let b = htforge_netlist::bench::write(&load("c2670").unwrap());
        assert_eq!(a, b);
    }

    /// FNV-1a over the `.bench` text of every built-in circuit, in
    /// [`names`] order, so that a change to the generator that moves any
    /// output byte fails here.
    #[test]
    fn generated_circuits_are_pinned() {
        let digests: Vec<(&str, u64)> = names()
            .into_iter()
            .map(|name| {
                let text = htforge_netlist::bench::write(&load(name).unwrap());
                let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                (name, digest)
            })
            .collect();
        assert_eq!(
            digests,
            [
                ("c17", 0x97dc_2d55_714e_aea8),
                ("c432", 0xf555_4db2_2b3d_94a9),
                ("c499", 0x75c5_9be5_9454_512d),
                ("c880", 0xd66a_c2e7_68dc_ba7a),
                ("c1355", 0x3714_2f47_edff_9a2e),
                ("c1908", 0xe997_e149_b39d_1540),
                ("c2670", 0xc56a_24e6_6d1e_1d4b),
                ("c3540", 0x7ee0_d9da_f751_ce5e),
                ("c5315", 0xd7c6_ede3_bd0b_81ca),
                ("c6288", 0x59b0_b697_dd56_2499),
                ("c7552", 0x5bdf_3626_8ef2_9b98),
                ("s1423", 0xf047_4c07_9644_2483),
                ("s5378", 0xeb4e_8f9e_63a6_deb8),
                ("s9234", 0x3e09_0069_2a23_f10e),
                ("s13207", 0x5700_1c03_14d8_9331),
                ("s15850", 0x6568_7d57_5bce_82f3),
                ("s35932", 0x49fc_d9bd_7a43_070b),
                ("s38417", 0x2ac1_0897_5a39_a36b),
                ("s38584", 0xe680_7359_1f3b_1aaa),
            ]
        );
    }

    #[test]
    fn unknown_name_errors() {
        let err = load("c9999").unwrap_err();
        assert!(err.to_string().contains("c9999"));
    }

    #[test]
    fn profiles_match_published_io_counts() {
        let expect: &[(&str, usize, usize, usize)] = &[
            ("c2670", 233, 140, 0),
            ("c3540", 50, 22, 0),
            ("c5315", 178, 123, 0),
            ("c6288", 32, 32, 0),
            ("s1423", 17, 5, 74),
            ("s13207", 62, 152, 638),
            ("s15850", 77, 150, 534),
            ("s35932", 35, 320, 1728),
        ];
        for &(name, pis, pos, dffs) in expect {
            let nl = load(name).unwrap();
            assert_eq!(nl.inputs().len(), pis, "{name} PIs");
            assert_eq!(nl.outputs().len(), pos, "{name} POs");
            assert_eq!(nl.dffs().len(), dffs, "{name} DFFs");
        }
    }
}
