//! The detection-scheme abstraction.

use htforge_netlist::{Netlist, NetlistError};
use htforge_sim::{PatternSet, RareNodeSet};

/// A logic-testing detection scheme: given the *golden* (combinational /
/// scan-cut) netlist and its rare-node profile, produce the test set that
/// will be applied to suspect chips.
///
/// Schemes only ever see the golden design — they model a test engineer
/// who does not know whether, where, or how a trojan was inserted.
pub trait DetectionScheme {
    /// Human-readable scheme name (used in report tables).
    fn name(&self) -> &str;

    /// Generates the test set: exactly the patterns the scheme produced,
    /// so a profile with nothing to target yields an empty set rather
    /// than substitute vectors.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] for structurally invalid netlists.
    fn generate_tests(
        &self,
        golden: &Netlist,
        rare: &RareNodeSet,
    ) -> Result<PatternSet, NetlistError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl DetectionScheme for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn generate_tests(
            &self,
            golden: &Netlist,
            _rare: &RareNodeSet,
        ) -> Result<PatternSet, NetlistError> {
            Ok(PatternSet::zeros(golden.inputs().len(), 1))
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let schemes: Vec<Box<dyn DetectionScheme>> = vec![Box::new(Fixed)];
        assert_eq!(schemes[0].name(), "fixed");
    }
}
