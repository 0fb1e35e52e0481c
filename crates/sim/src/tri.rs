//! Three-valued (0 / 1 / X) logic and cube simulation.
//!
//! Used to verify that a merged PODEM test cube still justifies every rare
//! node of a clique (the paper's "no validation needed" claim, which we
//! nevertheless assert in tests), and as the value system of the ATPG
//! crate's test cubes.

use std::fmt;

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError, NodeKind};

/// A three-valued logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tri {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / don't-care.
    #[default]
    X,
}

impl Tri {
    /// Converts a `bool`.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    /// The definite boolean value, if any.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Tri::Zero => Some(false),
            Tri::One => Some(true),
            Tri::X => None,
        }
    }

    /// Whether this is a care value (0 or 1).
    #[must_use]
    pub fn is_care(self) -> bool {
        self != Tri::X
    }

    /// Three-valued negation.
    ///
    /// An inherent method rather than `std::ops::Not` so call sites stay
    /// explicit about Kleene (not boolean) semantics.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        match self {
            Tri::Zero => Tri::One,
            Tri::One => Tri::Zero,
            Tri::X => Tri::X,
        }
    }

    /// Three-valued AND.
    #[must_use]
    pub fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Zero, _) | (_, Tri::Zero) => Tri::Zero,
            (Tri::One, Tri::One) => Tri::One,
            _ => Tri::X,
        }
    }

    /// Three-valued OR.
    #[must_use]
    pub fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::One, _) | (_, Tri::One) => Tri::One,
            (Tri::Zero, Tri::Zero) => Tri::Zero,
            _ => Tri::X,
        }
    }

    /// Three-valued XOR.
    #[must_use]
    pub fn xor(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::X, _) | (_, Tri::X) => Tri::X,
            (a, b) => Tri::from_bool(a != b),
        }
    }

    /// Two cubes *conflict* on a bit iff one assigns 0 and the other 1.
    /// X is compatible with everything. This is the paper's §III-C
    /// care-bit conflict test.
    #[must_use]
    pub fn conflicts(self, other: Tri) -> bool {
        matches!((self, other), (Tri::Zero, Tri::One) | (Tri::One, Tri::Zero))
    }

    /// Merges two non-conflicting values (care value wins over X).
    ///
    /// # Panics
    ///
    /// Panics if the values conflict; check [`Tri::conflicts`] first.
    #[must_use]
    pub fn merge(self, other: Tri) -> Tri {
        assert!(!self.conflicts(other), "merging conflicting care bits");
        if self == Tri::X {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tri::Zero => "0",
            Tri::One => "1",
            Tri::X => "X",
        })
    }
}

/// Evaluates a gate in three-valued logic over its fan-in values, in
/// gate-input order. Callers holding a value per node pass the fan-ins'
/// values straight off that column, with no copy.
///
/// # Panics
///
/// Panics if `fanins` is empty.
#[must_use]
pub fn eval_gate_tri(
    kind: htforge_netlist::GateKind,
    fanins: impl IntoIterator<Item = Tri>,
) -> Tri {
    use htforge_netlist::GateKind;
    let mut ins = fanins.into_iter();
    let first = ins.next().expect("gate evaluated with no fan-ins");
    let base = match kind {
        GateKind::And | GateKind::Nand => ins.fold(first, Tri::and),
        GateKind::Or | GateKind::Nor => ins.fold(first, Tri::or),
        GateKind::Xor | GateKind::Xnor => ins.fold(first, Tri::xor),
        GateKind::Buf | GateKind::Not => first,
    };
    if kind.is_inverting() {
        base.not()
    } else {
        base
    }
}

/// Simulates one three-valued input assignment over the whole netlist.
/// `assignment` supplies one [`Tri`] per primary input (in `nl.inputs()`
/// order); all other sources (unconnected DFFs) evaluate to X.
///
/// Returns one value per node, indexed by [`NodeId::index`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the input count.
pub fn simulate_tri(nl: &Netlist, assignment: &[Tri]) -> Result<Vec<Tri>, NetlistError> {
    assert_eq!(
        assignment.len(),
        nl.inputs().len(),
        "assignment width does not match input count"
    );
    let order = htforge_netlist::graph::topo_order(nl)?;
    let mut values = vec![Tri::X; nl.node_count()];
    for (pos, &id) in nl.inputs().iter().enumerate() {
        values[id.index()] = assignment[pos];
    }
    for id in order {
        if let NodeKind::Gate(kind) = nl.kind(id) {
            values[id.index()] =
                eval_gate_tri(kind, nl.fanins(id).iter().map(|f| values[f.index()]));
        }
    }
    Ok(values)
}

/// Checks whether `assignment` *justifies* `node = value`: the 3-valued
/// simulation yields the definite `value` at `node` regardless of how the
/// X bits are later filled.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn justifies(
    nl: &Netlist,
    assignment: &[Tri],
    node: NodeId,
    value: bool,
) -> Result<bool, NetlistError> {
    let values = simulate_tri(nl, assignment)?;
    Ok(values[node.index()] == Tri::from_bool(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

    #[test]
    fn truth_tables() {
        use Tri::{One, Zero, X};
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(One.xor(X), X);
        assert_eq!(One.xor(Zero), One);
        assert_eq!(X.not(), X);
    }

    #[test]
    fn conflicts_and_merge() {
        use Tri::{One, Zero, X};
        assert!(Zero.conflicts(One));
        assert!(!Zero.conflicts(X));
        assert!(!X.conflicts(X));
        assert_eq!(X.merge(One), One);
        assert_eq!(Zero.merge(X), Zero);
        assert_eq!(One.merge(One), One);
    }

    #[test]
    #[should_panic(expected = "conflicting")]
    fn merge_conflicting_panics() {
        let _ = Tri::Zero.merge(Tri::One);
    }

    #[test]
    fn cube_simulation_propagates_controlling_values() {
        // y = AND(a, b): a=0 determines y=0 even with b=X.
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let vals = simulate_tri(&nl, &[Tri::Zero, Tri::X]).unwrap();
        assert_eq!(vals[nl.find("y").unwrap().index()], Tri::Zero);
        let vals = simulate_tri(&nl, &[Tri::One, Tri::X]).unwrap();
        assert_eq!(vals[nl.find("y").unwrap().index()], Tri::X);
    }

    #[test]
    fn justifies_checks_definite_value() {
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n", "t").unwrap();
        let y = nl.find("y").unwrap();
        assert!(justifies(&nl, &[Tri::Zero, Tri::Zero], y, true).unwrap());
        assert!(!justifies(&nl, &[Tri::Zero, Tri::X], y, true).unwrap());
        assert!(justifies(&nl, &[Tri::One, Tri::X], y, false).unwrap());
    }

    #[test]
    fn three_valued_agrees_with_two_valued_on_care_inputs() {
        use htforge_netlist::GateKind;
        for kind in GateKind::ALL {
            let arity = if kind.is_unary() { 1 } else { 3 };
            for pattern in 0u64..(1 << arity) {
                let bools: Vec<bool> = (0..arity).map(|i| (pattern >> i) & 1 == 1).collect();
                let tris: Vec<Tri> = bools.iter().map(|&b| Tri::from_bool(b)).collect();
                assert_eq!(
                    eval_gate_tri(kind, tris.iter().copied()),
                    Tri::from_bool(kind.eval_bool(&bools)),
                    "{kind} {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(Tri::Zero.to_string(), "0");
        assert_eq!(Tri::One.to_string(), "1");
        assert_eq!(Tri::X.to_string(), "X");
    }
}
