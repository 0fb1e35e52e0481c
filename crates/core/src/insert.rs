//! HT-infected netlist generation — the paper's **Algorithm 3**.
//!
//! Instantiates a [`TriggerPlan`] into a copy of the host netlist, wires
//! its leaves to the clique's rare nodes (rare-1 nodes into the AND
//! family, rare-0 nodes into the OR family — the careful alignment of
//! §III-D), and splices an XOR payload over the chosen payload net.
//! [`TrojanEmitter`] strings the steps together (plan → payload →
//! insertion) for the framework and the baseline inserters alike.

use htforge_atpg::Cube;
use htforge_netlist::{netlist::NodeId, GateKind, Netlist};
use htforge_scoap::Scoap;

use crate::error::InsertionError;
use crate::framework::InfectedDesign;
use crate::payload::{choose_payload, PayloadKind, PayloadStrategy};
use crate::trigger::{PlanSignal, TriggerPlan};

/// Everything known about one inserted trojan.
#[derive(Debug, Clone)]
pub struct TrojanInstance {
    /// Trigger (rare) nodes with their rare values, in plan-leaf order.
    pub trigger_inputs: Vec<(NodeId, bool)>,
    /// Node ids of the inserted trigger gates (in the infected netlist).
    pub trigger_gates: Vec<NodeId>,
    /// The trigger tree's output node.
    pub trigger_output: NodeId,
    /// The net whose value the payload corrupts.
    pub payload_net: NodeId,
    /// The payload effect applied to that net.
    pub payload_kind: PayloadKind,
    /// The inserted payload splice gate (XOR / AND / OR per kind).
    pub payload_gate: NodeId,
    /// A (never-to-be-applied) input cube that activates the trigger —
    /// the merged clique cube, kept for audit and testing.
    pub activation_cube: Cube,
}

impl TrojanInstance {
    /// Number of trigger nodes (`q`).
    #[must_use]
    pub fn trigger_node_count(&self) -> usize {
        self.trigger_inputs.len()
    }

    /// Total inserted gate count (trigger tree + payload splice gates).
    #[must_use]
    pub fn inserted_gate_count(&self) -> usize {
        let payload_gates = match self.payload_kind {
            PayloadKind::Flip | PayloadKind::ForceOne => 1,
            PayloadKind::ForceZero => 2, // inverter + AND
        };
        self.trigger_gates.len() + payload_gates
    }
}

/// How a trigger set becomes an infected design: the host, its SCOAP
/// measures and the per-run trojan shape, fixed once per campaign.
#[derive(Debug, Clone, Copy)]
pub struct TrojanEmitter<'a> {
    /// The golden host netlist.
    pub host: &'a Netlist,
    /// SCOAP measures of `host` (payload ranking).
    pub scoap: &'a Scoap,
    /// Maximum fan-in of the trigger gates (`k`).
    pub max_fanin: usize,
    /// Payload effect spliced over the victim net.
    pub payload_kind: PayloadKind,
}

impl TrojanEmitter<'_> {
    /// Synthesizes the trigger tree over `leaves` (rare node, rare
    /// value), chooses the payload net by `payload` and inserts both into
    /// a copy of the host, tagging inserted signals `ht{tag}_…`.
    ///
    /// # Errors
    ///
    /// Returns [`InsertionError::NoPayloadNet`] when no payload net is
    /// acyclicity-safe for these leaves, and the errors of
    /// [`insert_trojan_with`].
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn emit(
        &self,
        leaves: &[(NodeId, bool)],
        payload: PayloadStrategy,
        tag: &str,
        activation_cube: Cube,
    ) -> Result<InfectedDesign, InsertionError> {
        let rare_values: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
        let plan = TriggerPlan::synthesize(&rare_values, self.max_fanin);
        let nodes: Vec<NodeId> = leaves.iter().map(|&(n, _)| n).collect();
        let payload_net = choose_payload(self.host, self.scoap, &nodes, payload)
            .ok_or(InsertionError::NoPayloadNet)?;
        let (netlist, trojan) = insert_trojan_with(
            self.host,
            leaves,
            &plan,
            payload_net,
            self.payload_kind,
            tag,
            activation_cube,
        )?;
        Ok(InfectedDesign { netlist, trojan })
    }
}

/// Inserts the trojan whose trigger taps `leaves` (rare node, rare
/// value) through `plan` into a copy of `nl`, with a `payload_kind`
/// splice over `payload_net`. Inserted signals are named `ht{tag}_…` so
/// multiple instances can coexist. `activation_cube` is stored verbatim
/// in the returned [`TrojanInstance`]; pass an all-X cube when no joint
/// trigger vector is known.
///
/// The caller is responsible for having validated that `payload_net` is
/// acyclicity-safe (see [`crate::payload`]); the resulting netlist is
/// re-validated and a cycle would surface as an error here. That is the
/// design's one structural check: it leaves the level column cached, and
/// the framework's validation phase only checks function.
///
/// # Errors
///
/// Returns [`InsertionError::Netlist`] if instantiation produces an
/// invalid netlist (e.g. an unsafe payload net creating a cycle).
///
/// # Panics
///
/// Panics if `plan.num_leaves() != leaves.len()`.
pub fn insert_trojan_with(
    nl: &Netlist,
    leaves: &[(NodeId, bool)],
    plan: &TriggerPlan,
    payload_net: NodeId,
    payload_kind: PayloadKind,
    tag: &str,
    activation_cube: Cube,
) -> Result<(Netlist, TrojanInstance), InsertionError> {
    assert_eq!(
        plan.num_leaves(),
        leaves.len(),
        "trigger plan and leaf set disagree on q"
    );
    debug_assert!(
        plan.rare_values()
            .iter()
            .zip(leaves)
            .all(|(&pv, &(_, cv))| pv == cv),
        "plan must be built from these leaves' rare values"
    );
    let mut out = nl.clone();
    out.set_name(format!("{}_{tag}", nl.name()));

    let mut gate_ids: Vec<NodeId> = Vec::with_capacity(plan.gates().len());
    for (k, gate) in plan.gates().iter().enumerate() {
        let fanins: Vec<NodeId> = gate
            .inputs
            .iter()
            .map(|s| match *s {
                PlanSignal::Leaf(i) => leaves[i].0,
                PlanSignal::Gate(g) => gate_ids[g],
            })
            .collect();
        let id = out
            .add_gate(format!("ht{tag}_t{k}"), gate.kind, fanins)
            .map_err(InsertionError::Netlist)?;
        gate_ids.push(id);
    }
    let trigger_output = match plan.output() {
        PlanSignal::Leaf(i) => leaves[i].0,
        PlanSignal::Gate(g) => gate_ids[g],
    };

    // Payload splice over the victim net.
    let payload_gate = match payload_kind {
        PayloadKind::Flip => out
            .add_gate(
                format!("ht{tag}_payload"),
                GateKind::Xor,
                vec![payload_net, trigger_output],
            )
            .map_err(InsertionError::Netlist)?,
        PayloadKind::ForceOne => out
            .add_gate(
                format!("ht{tag}_payload"),
                GateKind::Or,
                vec![payload_net, trigger_output],
            )
            .map_err(InsertionError::Netlist)?,
        PayloadKind::ForceZero => {
            let ntrig = out
                .add_gate(format!("ht{tag}_ninv"), GateKind::Not, vec![trigger_output])
                .map_err(InsertionError::Netlist)?;
            out.add_gate(
                format!("ht{tag}_payload"),
                GateKind::And,
                vec![payload_net, ntrig],
            )
            .map_err(InsertionError::Netlist)?
        }
    };
    out.splice_driver(payload_net, payload_gate);

    out.validate().map_err(InsertionError::Netlist)?;

    Ok((
        out,
        TrojanInstance {
            trigger_inputs: leaves.to_vec(),
            trigger_gates: gate_ids,
            trigger_output,
            payload_net,
            payload_kind,
            payload_gate,
            activation_cube,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::enumerate_cliques;
    use crate::compat::CompatGraph;
    use htforge_atpg::PodemConfig;
    use htforge_netlist::bench;
    use htforge_sim::{PatternSet, RareNodeExtractor, SimProgram};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FOUR_CONES: &str = "\
INPUT(a1)
INPUT(a2)
INPUT(b1)
INPUT(b2)
INPUT(c1)
INPUT(c2)
OUTPUT(w)
OUTPUT(x)
OUTPUT(v)
OUTPUT(o)
w = AND(a1, a2)
x = AND(b1, b2)
v = NOR(c1, c2)
o = XOR(a1, b1)
";

    /// Builds the compatibility graph of `FOUR_CONES`, takes its first
    /// 3-clique and inserts a flip trojan over the most observable safe net.
    fn infect() -> (Netlist, Netlist, TrojanInstance) {
        let nl = bench::parse(FOUR_CONES, "t").unwrap();
        let ps = PatternSet::random(6, 10_000, 1);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        let graph = CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap();
        let cliques = enumerate_cliques(&graph, 3, 10, 0);
        assert!(!cliques.is_empty(), "w, x, v should form a clique");
        let clique = &cliques[0];
        let leaves: Vec<(NodeId, bool)> = clique
            .members
            .iter()
            .map(|&m| (graph.events()[m].node, graph.events()[m].rare_value))
            .collect();
        let rare_values: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
        let trigger_nodes: Vec<NodeId> = leaves.iter().map(|&(n, _)| n).collect();
        let plan = TriggerPlan::synthesize(&rare_values, 4);
        let scoap = htforge_scoap::Scoap::compute(&nl).unwrap();
        let payload = crate::payload::choose_payload(
            &nl,
            &scoap,
            &trigger_nodes,
            crate::PayloadStrategy::MostObservable,
        )
        .unwrap();
        let (infected, trojan) = insert_trojan_with(
            &nl,
            &leaves,
            &plan,
            payload,
            PayloadKind::Flip,
            "0",
            clique.activation_cube.clone(),
        )
        .unwrap();
        (nl, infected, trojan)
    }

    #[test]
    fn infected_netlist_validates_and_grows() {
        let (nl, infected, trojan) = infect();
        assert!(infected.validate().is_ok());
        assert_eq!(
            infected.node_count(),
            nl.node_count() + trojan.inserted_gate_count()
        );
        assert_eq!(trojan.trigger_node_count(), 3);
    }

    #[test]
    fn activation_cube_triggers_and_flips_output() {
        let (nl, infected, trojan) = infect();

        let mut rng = StdRng::seed_from_u64(9);
        let vector = trojan.activation_cube.fill_random(&mut rng);

        // Golden vs infected on the activation vector.
        let golden_sim = SimProgram::compile(&nl).unwrap();
        let infected_sim = SimProgram::compile(&infected).unwrap();
        let ps = PatternSet::from_vectors(nl.inputs().len(), &[vector]);
        let gv = golden_sim.run(&ps);
        let iv = infected_sim.run(&ps);

        // The trigger fires.
        assert!(iv.value(trojan.trigger_output, 0), "trigger must fire");
        // The payload net is flipped downstream of the XOR.
        assert_ne!(
            gv.value(trojan.payload_net, 0),
            iv.value(trojan.payload_gate, 0),
            "payload must be flipped"
        );
    }

    #[test]
    fn non_activating_vectors_leave_outputs_untouched() {
        let (nl, infected, trojan) = infect();

        let golden_sim = SimProgram::compile(&nl).unwrap();
        let infected_sim = SimProgram::compile(&infected).unwrap();
        let ps = PatternSet::random(nl.inputs().len(), 2_000, 5);
        let gv = golden_sim.run(&ps);
        let iv = infected_sim.run(&ps);

        for p in 0..ps.len() {
            if !iv.value(trojan.trigger_output, p) {
                // Quiescent trojan ⇒ functional equivalence at the POs.
                for (&go, &io) in nl.outputs().iter().zip(infected.outputs()) {
                    assert_eq!(
                        gv.value(go, p),
                        iv.value(io, p),
                        "output mismatch without trigger at pattern {p}"
                    );
                }
            }
        }
    }
}
