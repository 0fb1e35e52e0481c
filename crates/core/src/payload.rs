//! Payload-net selection.
//!
//! The trojan effect is a conditional bit-flip: an XOR of the payload net
//! and the trigger output is spliced over the payload net (§III-D,
//! Algorithm 3). The payload net must be chosen so that the insertion
//! cannot create a combinational cycle: no trigger (rare) node may be
//! combinationally reachable from the payload net's consumers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use htforge_netlist::{graph, netlist::NodeId, Netlist, NodeKind};
use htforge_scoap::Scoap;

/// The trojan *effect* applied to the payload net once triggered.
///
/// The paper's instances use the conditional bit-flip; the force
/// variants model the Denial-of-Service effects its introduction cites
/// (a net stuck at a value while the trigger holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadKind {
    /// XOR splice: the net's value inverts while triggered.
    #[default]
    Flip,
    /// AND-with-inverted-trigger splice: the net forces to 0 while
    /// triggered.
    ForceZero,
    /// OR splice: the net forces to 1 while triggered.
    ForceOne,
}

impl PayloadKind {
    /// Gates the splice inserts: one, or an inverter and an AND for
    /// `ForceZero`.
    pub(crate) fn gate_count(self) -> usize {
        match self {
            PayloadKind::Flip | PayloadKind::ForceOne => 1,
            PayloadKind::ForceZero => 2,
        }
    }
}

/// How the payload net is picked among the acyclicity-safe candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadStrategy {
    /// Prefer the most observable net (lowest SCOAP CO): once the trigger
    /// fires, the flip is maximally likely to corrupt a primary output.
    #[default]
    MostObservable,
    /// Uniform random among safe candidates, seeded for reproducibility.
    Random(u64),
}

/// Returns payload-net candidates that keep the infected netlist acyclic
/// for a trojan triggered by `trigger_nodes`: gate nodes none of whose
/// combinational fan-out reaches a trigger node.
///
/// Primary inputs and DFF outputs are excluded (flipping a PI is not an
/// internal payload; flipping a Q is equivalent to targeting its fan-out
/// gates). The trigger nodes themselves are excluded too: flipping a
/// net that feeds the trigger would change the activation condition.
#[must_use]
pub fn safe_payload_candidates(nl: &Netlist, trigger_nodes: &[NodeId]) -> Vec<NodeId> {
    // One backward pass from the trigger taps: `reaches_trigger[n]` set
    // ⟺ some trigger node lies in `n`'s combinational fan-out. Each
    // candidate then checks its direct consumers against the mask in
    // O(fanout) instead of running a fresh forward traversal per node
    // (which made this O(gates²) — seconds on s38584-scale hosts).
    let reaches_trigger = graph::transitive_fanin(nl, trigger_nodes);
    nl.node_ids()
        .filter(|&id| drives_something(nl, id) && is_safe(nl, &reaches_trigger, id))
        .collect()
}

/// A gate whose value is consumed: by a gate, a DFF or a primary output
/// (an implicit sink). Only such gates are payload candidates.
pub(crate) fn drives_something(nl: &Netlist, id: NodeId) -> bool {
    matches!(nl.kind(id), NodeKind::Gate(_)) && (!nl.fanouts(id).is_empty() || nl.is_output(id))
}

/// Whether splicing a payload over `id` keeps the design acyclic and
/// the trigger intact, given `reach`, the transitive fan-in of the
/// trigger nodes ([`graph::transitive_fanin`]): the payload's output
/// feeds `id`'s current consumers, so a cycle forms iff one of them
/// reaches a trigger node. A gate in `reach` that is not itself a
/// trigger node has a consumer in `reach`, so `!reach[id]` only adds the
/// exclusion of the trigger nodes.
pub(crate) fn is_safe(nl: &Netlist, reach: &[bool], id: NodeId) -> bool {
    !reach[id.index()] && nl.fanouts(id).iter().all(|c| !reach[c.index()])
}

/// The first of `candidates` after a shuffle seeded with `seed`.
pub(crate) fn pick_random(mut candidates: Vec<NodeId>, seed: u64) -> Option<NodeId> {
    candidates.shuffle(&mut StdRng::seed_from_u64(seed));
    candidates.first().copied()
}

/// Picks one payload net per `strategy` from the safe candidates.
///
/// Returns `None` when no net is safe (tiny or degenerate circuits).
/// [`crate::TrojanEmitter`] makes the same choice without rescanning the
/// host for every trojan.
#[must_use]
pub fn choose_payload(
    nl: &Netlist,
    scoap: &Scoap,
    trigger_nodes: &[NodeId],
    strategy: PayloadStrategy,
) -> Option<NodeId> {
    let candidates = safe_payload_candidates(nl, trigger_nodes);
    match strategy {
        PayloadStrategy::MostObservable => candidates.into_iter().min_by_key(|&id| scoap.co(id)),
        PayloadStrategy::Random(seed) => pick_random(candidates, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

    const CHAIN: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NAND(g1, b)
y = NAND(g1, g2)
";

    #[test]
    fn upstream_nets_are_unsafe_downstream_safe() {
        let nl = bench::parse(CHAIN, "t").unwrap();
        let g1 = nl.find("g1").unwrap();
        let y = nl.find("y").unwrap();
        // Trigger taps g2 → anything whose fanout reaches g2 is unsafe.
        let g2 = nl.find("g2").unwrap();
        let safe = safe_payload_candidates(&nl, &[g2]);
        assert!(!safe.contains(&g1), "g1 feeds g2: cycle risk");
        assert!(safe.contains(&y), "y is downstream of g2: safe");
    }

    #[test]
    fn trigger_nodes_excluded() {
        let nl = bench::parse(CHAIN, "t").unwrap();
        let y = nl.find("y").unwrap();
        let safe = safe_payload_candidates(&nl, &[y]);
        assert!(!safe.contains(&y));
    }

    #[test]
    fn strategies_pick_from_safe_set() {
        let nl = bench::parse(CHAIN, "t").unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let g2 = nl.find("g2").unwrap();
        let safe = safe_payload_candidates(&nl, &[g2]);
        for strategy in [
            PayloadStrategy::MostObservable,
            PayloadStrategy::Random(0),
            PayloadStrategy::Random(1),
        ] {
            let choice = choose_payload(&nl, &scoap, &[g2], strategy).unwrap();
            assert!(safe.contains(&choice), "{strategy:?}");
        }
    }

    #[test]
    fn most_observable_prefers_low_co() {
        let nl = bench::parse(CHAIN, "t").unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let g2 = nl.find("g2").unwrap();
        let choice = choose_payload(&nl, &scoap, &[g2], PayloadStrategy::MostObservable).unwrap();
        // y is a PO (CO = 0) and safe — must be chosen.
        assert_eq!(choice, nl.find("y").unwrap());
    }

    #[test]
    fn no_safe_net_yields_none() {
        // Single gate: it is the only gate, and it's the trigger node.
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let y = nl.find("y").unwrap();
        assert_eq!(
            choose_payload(&nl, &scoap, &[y], PayloadStrategy::MostObservable),
            None
        );
    }

    #[test]
    fn inputs_are_never_candidates() {
        let nl = bench::parse(CHAIN, "t").unwrap();
        let safe = safe_payload_candidates(&nl, &[]);
        assert!(!safe.contains(&nl.find("a").unwrap()));
        assert!(!safe.contains(&nl.find("b").unwrap()));
    }
}
