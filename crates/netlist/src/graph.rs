//! Graph analyses over a [`Netlist`]: topological order, levelization,
//! fan-in/fan-out cones and reachability.
//!
//! All functions treat the netlist as the DAG described in §III-A of the
//! paper: vertices are gates/inputs, edges are gate connections. DFF nodes
//! (if any) act as sources — their Q-side is treated like an input and the
//! Q←D edge is ignored, which matches the full-scan model produced by
//! [`Netlist::scan_cut`].

use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// Returns a topological order of the combinational part of `nl`
/// (fan-ins always precede fan-outs). DFF nodes appear as sources.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational part
/// contains a cycle.
pub fn topo_order(nl: &Netlist) -> Result<Vec<NodeId>, NetlistError> {
    let n = nl.node_count();
    let mut indeg = vec![0u32; n];
    for (id, node) in nl.iter() {
        if node.kind() == NodeKind::Dff {
            continue; // Q←D edge is sequential, not combinational.
        }
        indeg[id.index()] = node.fanins().len() as u32;
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<NodeId> = nl.node_ids().filter(|id| indeg[id.index()] == 0).collect();
    while let Some(id) = queue.pop() {
        order.push(id);
        for &f in nl.node(id).fanouts() {
            if nl.node(f).kind() == NodeKind::Dff {
                continue;
            }
            indeg[f.index()] -= 1;
            if indeg[f.index()] == 0 {
                queue.push(f);
            }
        }
    }
    if order.len() != n {
        let witness = nl
            .node_ids()
            .find(|id| indeg[id.index()] > 0)
            .map(|id| nl.node(id).name().to_owned())
            .unwrap_or_default();
        return Err(NetlistError::CombinationalCycle { witness });
    }
    Ok(order)
}

/// Computes the logic level of each node: 0 for inputs and DFFs,
/// `1 + max(level of fan-ins)` for gates. Returned vector is indexed by
/// [`NodeId::index`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
pub fn levelize(nl: &Netlist) -> Result<Vec<u32>, NetlistError> {
    let order = topo_order(nl)?;
    let mut level = vec![0u32; nl.node_count()];
    for id in order {
        let node = nl.node(id);
        if matches!(node.kind(), NodeKind::Gate(_)) {
            level[id.index()] = node
                .fanins()
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
        }
    }
    Ok(level)
}

/// The maximum logic level (circuit depth), read off the netlist's
/// cached level column ([`Netlist::levels`]).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
pub fn depth(nl: &Netlist) -> Result<u32, NetlistError> {
    Ok(nl.levels()?.iter().copied().max().unwrap_or(0))
}

/// Returns a bitmask (indexed by node) of the transitive fan-out of
/// `seeds`, *including* the seeds themselves. DFF boundaries are not
/// crossed (a DFF's Q is not reached from its D).
#[must_use]
pub fn transitive_fanout(nl: &Netlist, seeds: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; nl.node_count()];
    let mut stack: Vec<NodeId> = seeds.to_vec();
    for s in seeds {
        seen[s.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &f in nl.node(id).fanouts() {
            if nl.node(f).kind() == NodeKind::Dff {
                continue;
            }
            if !seen[f.index()] {
                seen[f.index()] = true;
                stack.push(f);
            }
        }
    }
    seen
}

/// Returns a bitmask (indexed by node) of the transitive fan-in of
/// `seeds`, *including* the seeds themselves. DFF boundaries are not
/// crossed.
#[must_use]
pub fn transitive_fanin(nl: &Netlist, seeds: &[NodeId]) -> Vec<bool> {
    let mut seen = vec![false; nl.node_count()];
    let mut stack: Vec<NodeId> = Vec::new();
    for s in seeds {
        if !seen[s.index()] {
            seen[s.index()] = true;
            stack.push(*s);
        }
    }
    while let Some(id) = stack.pop() {
        if nl.node(id).kind() == NodeKind::Dff {
            continue;
        }
        for &f in nl.node(id).fanins() {
            if !seen[f.index()] {
                seen[f.index()] = true;
                stack.push(f);
            }
        }
    }
    seen
}

/// Returns `true` if `target` is combinationally reachable from `from`
/// (following fan-out edges, not crossing DFFs).
#[must_use]
pub fn reaches(nl: &Netlist, from: NodeId, target: NodeId) -> bool {
    transitive_fanout(nl, &[from])[target.index()]
}

/// Gate-type histogram: number of gates of each [`crate::GateKind`]
/// (indexed by position in [`GateKind::ALL`]).
///
/// [`GateKind::ALL`]: crate::GateKind::ALL
#[must_use]
pub fn gate_histogram(nl: &Netlist) -> [usize; 8] {
    let mut hist = [0usize; 8];
    for (_, node) in nl.iter() {
        if let NodeKind::Gate(k) = node.kind() {
            let pos = crate::GateKind::ALL.iter().position(|&g| g == k).unwrap();
            hist[pos] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    /// c17-like 3-level circuit.
    fn chain() -> (Netlist, Vec<NodeId>) {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate("g1", GateKind::Nand, vec![a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Nand, vec![g1, b]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Nand, vec![g1, g2]).unwrap();
        nl.mark_output(g3);
        (nl, vec![a, b, g1, g2, g3])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (nl, ids) = chain();
        let order = topo_order(&nl).unwrap();
        let pos: Vec<usize> = ids
            .iter()
            .map(|id| order.iter().position(|x| x == id).unwrap())
            .collect();
        assert!(pos[0] < pos[2]); // a before g1
        assert!(pos[2] < pos[3]); // g1 before g2
        assert!(pos[3] < pos[4]); // g2 before g3
    }

    #[test]
    fn levels_match_structure() {
        let (nl, ids) = chain();
        let lv = levelize(&nl).unwrap();
        assert_eq!(lv[ids[0].index()], 0);
        assert_eq!(lv[ids[2].index()], 1);
        assert_eq!(lv[ids[3].index()], 2);
        assert_eq!(lv[ids[4].index()], 3);
        assert_eq!(depth(&nl).unwrap(), 3);
    }

    #[test]
    fn fanout_cone() {
        let (nl, ids) = chain();
        let cone = transitive_fanout(&nl, &[ids[2]]); // from g1
        assert!(cone[ids[2].index()]);
        assert!(cone[ids[3].index()]);
        assert!(cone[ids[4].index()]);
        assert!(!cone[ids[0].index()]);
        assert!(!cone[ids[1].index()]);
    }

    #[test]
    fn fanin_cone() {
        let (nl, ids) = chain();
        let cone = transitive_fanin(&nl, &[ids[3]]); // from g2
        assert!(cone[ids[0].index()]);
        assert!(cone[ids[1].index()]);
        assert!(cone[ids[2].index()]);
        assert!(cone[ids[3].index()]);
        assert!(!cone[ids[4].index()]);
    }

    #[test]
    fn reachability() {
        let (nl, ids) = chain();
        assert!(reaches(&nl, ids[0], ids[4]));
        assert!(!reaches(&nl, ids[4], ids[0]));
    }

    #[test]
    fn dff_edges_do_not_count_as_combinational() {
        // a -> g -> dff -> g (a "cycle" through the DFF is fine)
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff_deferred("q").unwrap();
        let g = nl.add_gate("g", GateKind::Xor, vec![a, q]).unwrap();
        nl.connect_dff(q, g).unwrap();
        nl.mark_output(g);
        assert!(topo_order(&nl).is_ok());
        // The fan-out cone of g must not cross into q.
        let cone = transitive_fanout(&nl, &[g]);
        assert!(!cone[q.index()]);
    }

    #[test]
    fn histogram_counts_gates() {
        let (nl, _) = chain();
        let hist = gate_histogram(&nl);
        // NAND is index 1 in GateKind::ALL.
        assert_eq!(hist[1], 3);
        assert_eq!(hist.iter().sum::<usize>(), 3);
    }
}
