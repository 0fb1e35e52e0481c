//! SCOAP testability metrics (Goldstein & Thigpen, DAC 1980).
//!
//! Computes the classic Sandia Controllability/Observability Analysis
//! Program measures for a combinational (or scan-cut) netlist:
//!
//! * `CC0(n)` / `CC1(n)` — combinational 0-/1-controllability: a lower
//!   bound proxy for how many PI assignments are needed to set node `n`
//!   to 0 / 1,
//! * `CO(n)` — combinational observability: how hard it is to propagate
//!   node `n`'s value to a primary output.
//!
//! In this reproduction SCOAP serves two masters: it guides PODEM's
//! backtrace (easiest/hardest-input selection) and supplies the feature
//! set of the RL-baseline inserter (Sarihi et al., which the paper
//! compares against in Table III).
//!
//! # Examples
//!
//! ```
//! use htforge_netlist::bench;
//! use htforge_scoap::Scoap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = bench::parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
//! let scoap = Scoap::compute(&nl)?;
//! let y = nl.find("y").unwrap();
//! // AND output: CC1 = CC1(a) + CC1(b) + 1 = 3, CC0 = min + 1 = 2.
//! assert_eq!(scoap.cc1(y), 3);
//! assert_eq!(scoap.cc0(y), 2);
//! # Ok(())
//! # }
//! ```

use htforge_netlist::{netlist::NodeId, GateKind, Netlist, NetlistError, NodeKind};

/// Saturation ceiling for SCOAP values, preventing overflow on deep
/// reconvergent circuits. The classic tools cap similarly.
pub const SCOAP_MAX: u32 = 1_000_000;

fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(SCOAP_MAX)
}

/// Computed SCOAP metrics for every node of one netlist.
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Scoap {
    /// Computes CC0/CC1/CO for `nl`.
    ///
    /// DFF nodes (in an uncut sequential netlist) are treated like primary
    /// inputs with controllability 1, matching the full-scan model; for
    /// observability their D input acts as an output with CO = 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn compute(nl: &Netlist) -> Result<Self, NetlistError> {
        // Cached level-order traversal: cheap on repeat calls, and the
        // contiguous SoA columns keep both passes cache-friendly.
        let order = nl.level_order()?;
        let n = nl.node_count();
        let mut cc0 = vec![0u32; n];
        let mut cc1 = vec![0u32; n];

        // Forward pass: controllability.
        for &id in &order {
            let node = nl.node(id);
            match node.kind() {
                NodeKind::Input | NodeKind::Dff => {
                    cc0[id.index()] = 1;
                    cc1[id.index()] = 1;
                }
                NodeKind::Gate(kind) => {
                    let (c0, c1) = gate_controllability(kind, node.fanins(), &cc0, &cc1);
                    cc0[id.index()] = c0;
                    cc1[id.index()] = c1;
                }
            }
        }

        // Backward pass: observability.
        let mut co = vec![SCOAP_MAX; n];
        for &o in nl.outputs() {
            co[o.index()] = 0;
        }
        for &dff in nl.dffs() {
            // D input of a scan flop is observable via the scan chain.
            if let Some(&d) = nl.node(dff).fanins().first() {
                co[d.index()] = 0;
            }
        }
        for &id in order.iter().rev() {
            let node = nl.node(id);
            let kind = match node.kind() {
                NodeKind::Gate(k) => k,
                _ => continue,
            };
            let gate_co = co[id.index()];
            if gate_co == SCOAP_MAX {
                continue; // unobservable gate: inputs keep whatever other paths give
            }
            let fanins = node.fanins();
            for (pos, &fin) in fanins.iter().enumerate() {
                let side_cost: u32 = match kind {
                    GateKind::And | GateKind::Nand => fanins
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != pos)
                        .fold(0, |acc, (_, &f)| sat_add(acc, cc1[f.index()])),
                    GateKind::Or | GateKind::Nor => fanins
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != pos)
                        .fold(0, |acc, (_, &f)| sat_add(acc, cc0[f.index()])),
                    GateKind::Xor | GateKind::Xnor => fanins
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != pos)
                        .fold(0, |acc, (_, &f)| {
                            sat_add(acc, cc0[f.index()].min(cc1[f.index()]))
                        }),
                    GateKind::Not | GateKind::Buf => 0,
                };
                let via_this_gate = sat_add(sat_add(gate_co, side_cost), 1);
                if via_this_gate < co[fin.index()] {
                    co[fin.index()] = via_this_gate;
                }
            }
        }

        Ok(Scoap { cc0, cc1, co })
    }

    /// 0-controllability of `node`.
    #[must_use]
    pub fn cc0(&self, node: NodeId) -> u32 {
        self.cc0[node.index()]
    }

    /// 1-controllability of `node`.
    #[must_use]
    pub fn cc1(&self, node: NodeId) -> u32 {
        self.cc1[node.index()]
    }

    /// Controllability of `node` toward `value`.
    #[must_use]
    pub fn cc(&self, node: NodeId, value: bool) -> u32 {
        if value {
            self.cc1(node)
        } else {
            self.cc0(node)
        }
    }

    /// Observability of `node` ([`SCOAP_MAX`] if unobservable).
    #[must_use]
    pub fn co(&self, node: NodeId) -> u32 {
        self.co[node.index()]
    }
}

fn gate_controllability(kind: GateKind, fanins: &[NodeId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let sum = |vals: &dyn Fn(NodeId) -> u32| -> u32 {
        fanins.iter().fold(0, |acc, &f| sat_add(acc, vals(f)))
    };
    let min = |vals: &dyn Fn(NodeId) -> u32| -> u32 {
        fanins.iter().map(|&f| vals(f)).min().unwrap_or(SCOAP_MAX)
    };
    let c0 = |f: NodeId| cc0[f.index()];
    let c1 = |f: NodeId| cc1[f.index()];
    match kind {
        GateKind::And => (sat_add(min(&c0), 1), sat_add(sum(&c1), 1)),
        GateKind::Nand => (sat_add(sum(&c1), 1), sat_add(min(&c0), 1)),
        GateKind::Or => (sat_add(sum(&c0), 1), sat_add(min(&c1), 1)),
        GateKind::Nor => (sat_add(min(&c1), 1), sat_add(sum(&c0), 1)),
        GateKind::Not => (sat_add(c1(fanins[0]), 1), sat_add(c0(fanins[0]), 1)),
        GateKind::Buf => (sat_add(c0(fanins[0]), 1), sat_add(c1(fanins[0]), 1)),
        GateKind::Xor | GateKind::Xnor => {
            // Fold pairwise: cost of parity-0 / parity-1 over the inputs.
            let mut p0 = c0(fanins[0]);
            let mut p1 = c1(fanins[0]);
            for &f in &fanins[1..] {
                let (f0, f1) = (c0(f), c1(f));
                let n0 = sat_add(p0, f0).min(sat_add(p1, f1));
                let n1 = sat_add(p0, f1).min(sat_add(p1, f0));
                p0 = n0;
                p1 = n1;
            }
            if kind == GateKind::Xor {
                (sat_add(p0, 1), sat_add(p1, 1))
            } else {
                (sat_add(p1, 1), sat_add(p0, 1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

    #[test]
    fn and_gate_textbook_values() {
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        let (a, y) = (nl.find("a").unwrap(), nl.find("y").unwrap());
        assert_eq!(s.cc0(a), 1);
        assert_eq!(s.cc1(a), 1);
        assert_eq!(s.cc1(y), 3); // 1 + 1 + 1
        assert_eq!(s.cc0(y), 2); // min(1,1) + 1
        assert_eq!(s.co(y), 0);
        // CO(a) = CO(y) + CC1(b) + 1 = 2
        assert_eq!(s.co(a), 2);
    }

    #[test]
    fn deep_and_chain_cc1_grows_linearly() {
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
g1 = AND(a, b)
g2 = AND(g1, c)
y = AND(g2, d)
";
        let nl = bench::parse(src, "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        assert_eq!(s.cc1(nl.find("g1").unwrap()), 3);
        assert_eq!(s.cc1(nl.find("g2").unwrap()), 5);
        assert_eq!(s.cc1(nl.find("y").unwrap()), 7);
        // CC0 stays low: one controlling input suffices.
        assert_eq!(s.cc0(nl.find("y").unwrap()), 2);
    }

    #[test]
    fn inverter_swaps_controllabilities() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        let y = nl.find("y").unwrap();
        assert_eq!(s.cc0(y), 2);
        assert_eq!(s.cc1(y), 2);
        assert_eq!(s.co(nl.find("a").unwrap()), 1);
    }

    #[test]
    fn xor_controllability() {
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        let y = nl.find("y").unwrap();
        // XOR2: CC0 = min(1+1, 1+1)+1 = 3, CC1 = 3.
        assert_eq!(s.cc0(y), 3);
        assert_eq!(s.cc1(y), 3);
    }

    #[test]
    fn unobservable_dangling_gate() {
        // g has no path to a PO.
        let src = "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ng = NOT(a)\n";
        let nl = bench::parse(src, "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        assert_eq!(s.co(nl.find("g").unwrap()), SCOAP_MAX);
    }

    #[test]
    fn reconvergence_takes_cheapest_path() {
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = BUF(a)
";
        let nl = bench::parse(src, "t").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        // `a` is observable directly through the BUF (CO = 1), cheaper
        // than through the AND (CO = 2).
        assert_eq!(s.co(nl.find("a").unwrap()), 1);
    }

    #[test]
    fn dff_is_scan_accessible() {
        let src = "\
INPUT(a)
OUTPUT(g)
g = XOR(a, q)
q = DFF(g)
";
        let nl = bench::parse(src, "seq").unwrap();
        let s = Scoap::compute(&nl).unwrap();
        let q = nl.find("q").unwrap();
        assert_eq!(s.cc0(q), 1);
        assert_eq!(s.cc1(q), 1);
        // g is a PO itself, so CO(g) = 0.
        assert_eq!(s.co(nl.find("g").unwrap()), 0);
    }
}
