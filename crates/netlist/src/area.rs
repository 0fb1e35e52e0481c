//! Standard-cell area model (Nangate 45 nm Open Cell Library style).
//!
//! The paper's Table V reports the percentage area overhead of the
//! inserted trigger logic after synthesis with Cadence GENUS and the
//! Nangate 45 nm library. We have no proprietary synthesis tool, so this
//! module substitutes a cell-area table with the published Nangate cell
//! sizes (one row per gate function and fan-in). Because the paper's
//! overhead metric is `trigger-logic area / original-circuit area`, which
//! is purely additive over cells, a look-up-table model reproduces the
//! same quantity a trivial (no-optimization) synthesis run would report.
//!
//! Areas are in µm². Values follow the Nangate 45 nm datasheet pattern:
//! the base 2-input cells (NAND2_X1 = 0.798 µm², NOR2_X1 = 0.798 µm²,
//! AND2_X1 = 1.064 µm², OR2_X1 = 1.064 µm², XOR2_X1 = 1.596 µm²,
//! INV_X1 = 0.532 µm², BUF_X1 = 0.798 µm², DFF_X1 = 4.522 µm²) with
//! each additional fan-in costing one extra grid of 0.266 µm² × 2.

use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeKind};

/// Cell-area look-up model.
///
/// # Examples
///
/// ```
/// use htforge_netlist::{AreaModel, GateKind};
///
/// let model = AreaModel::nangate45();
/// let nand2 = model.gate_area(GateKind::Nand, 2);
/// let nand4 = model.gate_area(GateKind::Nand, 4);
/// assert!(nand4 > nand2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Base area of each 2-input (or 1-input for NOT/BUF) cell, indexed by
    /// position in [`GateKind::ALL`].
    base: [f64; 8],
    /// Incremental area per fan-in beyond the base arity.
    per_extra_input: f64,
    /// Area of one D flip-flop.
    dff: f64,
}

impl AreaModel {
    /// The Nangate 45 nm Open Cell Library-style model used throughout the
    /// reproduction (X1 drive strength).
    #[must_use]
    pub fn nangate45() -> Self {
        AreaModel {
            base: [
                1.064, // AND2_X1
                0.798, // NAND2_X1
                1.064, // OR2_X1
                0.798, // NOR2_X1
                1.596, // XOR2_X1
                1.596, // XNOR2_X1
                0.532, // INV_X1
                0.798, // BUF_X1
            ],
            per_extra_input: 0.532,
            dff: 4.522, // DFF_X1
        }
    }

    /// Area of a gate of `kind` with `fanin` inputs, in µm².
    #[must_use]
    pub fn gate_area(&self, kind: GateKind, fanin: usize) -> f64 {
        let pos = GateKind::ALL
            .iter()
            .position(|&g| g == kind)
            .expect("GateKind::ALL is exhaustive");
        let base_arity = if kind.is_unary() { 1 } else { 2 };
        let extra = fanin.saturating_sub(base_arity) as f64;
        self.base[pos] + extra * self.per_extra_input
    }

    /// Total cell area of a netlist, in µm² (inputs are free).
    #[must_use]
    pub fn netlist_area(&self, nl: &Netlist) -> f64 {
        let mut total = 0.0;
        for (_, node) in nl.iter() {
            match node.kind() {
                NodeKind::Input => {}
                NodeKind::Dff => total += self.dff,
                NodeKind::Gate(kind) => {
                    total += self.gate_area(kind, node.fanins().len());
                }
            }
        }
        total
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::nangate45()
    }
}

/// Area comparison between a golden netlist and an infected one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Cell area of the original design, µm².
    pub original: f64,
    /// Cell area of the infected design, µm².
    pub infected: f64,
}

impl AreaReport {
    /// Compares `original` against `infected` under `model`.
    #[must_use]
    pub fn compare(model: &AreaModel, original: &Netlist, infected: &Netlist) -> Self {
        AreaReport {
            original: model.netlist_area(original),
            infected: model.netlist_area(infected),
        }
    }

    /// Absolute overhead, µm².
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.infected - self.original
    }

    /// Percentage overhead relative to the original (the Table V metric).
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        if self.original == 0.0 {
            0.0
        } else {
            100.0 * self.overhead() / self.original
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn nand_cheaper_than_and() {
        let m = AreaModel::nangate45();
        assert!(m.gate_area(GateKind::Nand, 2) < m.gate_area(GateKind::And, 2));
    }

    #[test]
    fn extra_fanin_costs_area() {
        let m = AreaModel::nangate45();
        let a2 = m.gate_area(GateKind::Nor, 2);
        let a3 = m.gate_area(GateKind::Nor, 3);
        let a4 = m.gate_area(GateKind::Nor, 4);
        assert!((a3 - a2 - m.per_extra_input).abs() < 1e-12);
        assert!((a4 - a3 - m.per_extra_input).abs() < 1e-12);
    }

    #[test]
    fn unary_base_arity_is_one() {
        let m = AreaModel::nangate45();
        assert_eq!(m.gate_area(GateKind::Not, 1), 0.532);
    }

    #[test]
    fn netlist_area_sums_cells() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::Nand, vec![a, b]).unwrap();
        let h = nl.add_gate("h", GateKind::Not, vec![g]).unwrap();
        nl.mark_output(h);
        let m = AreaModel::nangate45();
        assert!((m.netlist_area(&nl) - (0.798 + 0.532)).abs() < 1e-12);
    }

    #[test]
    fn overhead_percent() {
        let r = AreaReport {
            original: 100.0,
            infected: 105.4,
        };
        assert!((r.overhead_percent() - 5.4).abs() < 1e-9);
    }

    #[test]
    fn dffs_counted() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_dff("q", a).unwrap();
        nl.mark_output(q);
        let m = AreaModel::nangate45();
        assert!((m.netlist_area(&nl) - 4.522).abs() < 1e-12);
    }
}
