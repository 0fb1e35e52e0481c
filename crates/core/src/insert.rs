//! HT-infected netlist generation — the paper's **Algorithm 3**.
//!
//! Instantiates a [`TriggerPlan`] into a copy of the host netlist, wires
//! its leaves to the clique's rare nodes (rare-1 nodes into the AND
//! family, rare-0 nodes into the OR family — the careful alignment of
//! §III-D), and splices an XOR payload over the chosen payload net.
//! [`TrojanEmitter`] strings the steps together (plan → payload →
//! insertion) for the framework and the baseline inserters alike.

use htforge_atpg::Cube;
use htforge_netlist::{graph, netlist::NodeId, GateKind, Netlist, NetlistError};
use htforge_scoap::Scoap;

use crate::error::InsertionError;
use crate::framework::InfectedDesign;
use crate::payload::{drives_something, is_safe, pick_random, PayloadKind, PayloadStrategy};
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
        self.trigger_gates.len() + self.payload_kind.gate_count()
    }
}

/// How a trigger set becomes an infected design: the host, its payload
/// candidates in observability order and the per-run trojan shape, fixed
/// once per campaign.
///
/// [`TrojanEmitter::new`] sorts the host's payload candidates once, so
/// each emission only walks the fan-in cone of its trigger nodes and the
/// head of that order, however large the host is.
#[derive(Debug, Clone)]
pub struct TrojanEmitter<'a> {
    host: &'a Netlist,
    /// Every gate that drives a consumer or a primary output, by
    /// `(SCOAP CO, id)`: the `MostObservable` order.
    by_observability: Vec<NodeId>,
    max_fanin: usize,
    payload_kind: PayloadKind,
}

impl<'a> TrojanEmitter<'a> {
    /// An emitter over `host`, with `scoap` its SCOAP measures, trigger
    /// gates of fan-in at most `max_fanin` (`k`) and a `payload_kind`
    /// splice over the victim net.
    #[must_use]
    pub fn new(
        host: &'a Netlist,
        scoap: &Scoap,
        max_fanin: usize,
        payload_kind: PayloadKind,
    ) -> Self {
        let mut by_observability: Vec<NodeId> = host
            .node_ids()
            .filter(|&id| drives_something(host, id))
            .collect();
        // Ties by id: the first minimum `choose_payload` returns.
        by_observability.sort_unstable_by_key(|&id| (scoap.co(id), id));
        TrojanEmitter {
            host,
            by_observability,
            max_fanin,
            payload_kind,
        }
    }

    /// Synthesizes the trigger tree over `leaves` (rare node, rare
    /// value), chooses the payload net by `payload` and inserts both into
    /// a copy of the host, tagging inserted signals `ht{tag}_…`.
    ///
    /// The payload net is the one [`choose_payload`] returns for the
    /// leaves' nodes.
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
    ///
    /// [`choose_payload`]: crate::payload::choose_payload
    pub fn emit(
        &self,
        leaves: &[(NodeId, bool)],
        payload: PayloadStrategy,
        tag: &str,
        activation_cube: Cube,
    ) -> Result<InfectedDesign, InsertionError> {
        let nodes: Vec<NodeId> = leaves.iter().map(|&(n, _)| n).collect();
        let reach = graph::transitive_fanin(self.host, &nodes);
        let payload_net = self
            .payload_net(&reach, &[], payload)
            .ok_or(InsertionError::NoPayloadNet)?;
        let (netlist, trojan) = insert_trojan_with(
            self.host,
            leaves,
            &self.plan(leaves),
            payload_net,
            self.payload_kind,
            tag,
            activation_cube,
        )?;
        Ok(InfectedDesign { netlist, trojan })
    }

    /// Synthesizes the trigger tree over `leaves` and inserts it, with the
    /// payload splice over `payload_net`, into `out` in place: a netlist
    /// grown from the host by earlier insertions. `out` is renamed
    /// `{name}_{tag}`, as [`insert_trojan_with`] names its copy.
    pub(crate) fn insert_into(
        &self,
        out: &mut Netlist,
        leaves: &[(NodeId, bool)],
        payload_net: NodeId,
        tag: &str,
        activation_cube: Cube,
    ) -> Result<TrojanInstance, InsertionError> {
        grow_trojan(
            out,
            leaves,
            &self.plan(leaves),
            payload_net,
            self.payload_kind,
            tag,
            activation_cube,
        )
    }

    /// The trigger tree over `leaves`' rare values.
    fn plan(&self, leaves: &[(NodeId, bool)]) -> TriggerPlan {
        let rare_values: Vec<bool> = leaves.iter().map(|&(_, v)| v).collect();
        TriggerPlan::synthesize(&rare_values, self.max_fanin)
    }

    /// The payload net by `payload` among the host gates that are safe
    /// against `reach` (a transitive fan-in mask over the host that
    /// covers the trigger nodes) and not in `used`. `MostObservable`
    /// stops at the first such gate of the CO order; `Random` shuffles
    /// all of them in id order, as
    /// [`choose_payload`](crate::payload::choose_payload) does.
    pub(crate) fn payload_net(
        &self,
        reach: &[bool],
        used: &[NodeId],
        payload: PayloadStrategy,
    ) -> Option<NodeId> {
        let eligible = |id: &NodeId| is_safe(self.host, reach, *id) && !used.contains(id);
        match payload {
            PayloadStrategy::MostObservable => self.by_observability.iter().copied().find(eligible),
            PayloadStrategy::Random(seed) => {
                let candidates = self
                    .host
                    .node_ids()
                    .filter(|&id| drives_something(self.host, id) && eligible(&id))
                    .collect();
                pick_random(candidates, seed)
            }
        }
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
/// acyclicity-safe (see [`crate::payload`]); a cycle would surface as an
/// error here.
///
/// # Structural contract
///
/// `nl` must be structurally valid ([`Netlist::validate`]): the
/// framework and the baseline inserters validate their host once per
/// campaign, and the parsers end in `validate`. The edit is checked
/// locally instead of by a whole-netlist `validate`:
///
/// * `nl`'s level column is read before the copy, so the copy carries
///   it, and [`Netlist::add_gate`] and [`Netlist::splice_driver`] keep it
///   up to date. Reading it afterwards proves acyclicity; a cycle drops
///   it, and the full levelization that follows names the cycle.
/// * The copy has room for the trojan's gates, so adding them
///   re-allocates none of its columns.
/// * `add_gate` checks each new gate's arity, and it and
///   `splice_driver` keep fan-ins and fan-outs consistent; the nodes they
///   touched (the new gates, the payload net and its former consumers)
///   are checked for that consistency.
///
/// So the design costs time in proportion to the trojan beyond the
/// copy, and leaves its level column cached for the functional check's
/// compile.
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
    nl.levels()?;
    let payload_gates = payload_kind.gate_count();
    let trigger_edges: usize = plan.gates().iter().map(|g| g.inputs.len()).sum();
    // The payload gates have one fan-in more than their count.
    let mut out = nl.clone_with_room(
        plan.gates().len() + payload_gates,
        trigger_edges + payload_gates + 1,
    );
    let trojan = grow_trojan(
        &mut out,
        leaves,
        plan,
        payload_net,
        payload_kind,
        tag,
        activation_cube,
    )?;
    Ok((out, trojan))
}

/// [`insert_trojan_with`]'s edit, made on `out` in place: `out` is
/// renamed `{name}_{tag}` and gains the trojan. The checks are the ones
/// [`insert_trojan_with`] documents, and they need `out` structurally
/// valid beforehand.
fn grow_trojan(
    out: &mut Netlist,
    leaves: &[(NodeId, bool)],
    plan: &TriggerPlan,
    payload_net: NodeId,
    payload_kind: PayloadKind,
    tag: &str,
    activation_cube: Cube,
) -> Result<TrojanInstance, InsertionError> {
    out.levels()?;
    out.set_name(format!("{}_{tag}", out.name()));

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
        let id = out.add_gate(format!("ht{tag}_t{k}"), gate.kind, fanins)?;
        gate_ids.push(id);
    }
    let trigger_output = match plan.output() {
        PlanSignal::Leaf(i) => leaves[i].0,
        PlanSignal::Gate(g) => gate_ids[g],
    };

    // Payload splice over the victim net.
    let first_payload_gate = out.node_count();
    let payload_gate = match payload_kind {
        PayloadKind::Flip => out.add_gate(
            format!("ht{tag}_payload"),
            GateKind::Xor,
            vec![payload_net, trigger_output],
        )?,
        PayloadKind::ForceOne => out.add_gate(
            format!("ht{tag}_payload"),
            GateKind::Or,
            vec![payload_net, trigger_output],
        )?,
        PayloadKind::ForceZero => {
            let ntrig =
                out.add_gate(format!("ht{tag}_ninv"), GateKind::Not, vec![trigger_output])?;
            out.add_gate(
                format!("ht{tag}_payload"),
                GateKind::And,
                vec![payload_net, ntrig],
            )?
        }
    };
    out.splice_driver(payload_net, payload_gate);

    out.levels()?;
    let added = gate_ids
        .iter()
        .copied()
        .chain((first_payload_gate..out.node_count()).map(NodeId::from_index));
    let touched = added
        .chain([payload_net])
        .chain(out.fanouts(payload_gate).iter().copied());
    for id in touched {
        check_node(out, id)?;
    }

    Ok(TrojanInstance {
        trigger_inputs: leaves.to_vec(),
        trigger_gates: gate_ids,
        trigger_output,
        payload_net,
        payload_kind,
        payload_gate,
        activation_cube,
    })
}

/// Whether each fan-in and fan-out edge of `id` is recorded at both
/// ends, as [`Netlist::validate`] requires of every node.
fn check_node(nl: &Netlist, id: NodeId) -> Result<(), NetlistError> {
    let fanins_agree = nl.fanins(id).iter().all(|&f| nl.fanouts(f).contains(&id));
    let fanouts_agree = nl.fanouts(id).iter().all(|&c| nl.fanins(c).contains(&id));
    if fanins_agree && fanouts_agree {
        Ok(())
    } else {
        Err(NetlistError::UndefinedSignal(nl.name_of(id).to_owned()))
    }
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
    use rand::{Rng, SeedableRng};

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

    /// The emitter's walk over the CO order picks the net
    /// `choose_payload` picks, for random trigger sets on a
    /// combinational and a sequential host; `Random` draws agree too.
    #[test]
    fn emitter_walk_matches_choose_payload() {
        for circuit in ["c2670", "s1423"] {
            let nl = htforge_circuits::load(circuit).unwrap();
            let scoap = Scoap::compute(&nl).unwrap();
            let emitter = TrojanEmitter::new(&nl, &scoap, 4, PayloadKind::Flip);
            let mut rng = StdRng::seed_from_u64(7);
            for trial in 0..200u64 {
                let q = rng.gen_range(1..13);
                let nodes: Vec<NodeId> = (0..q)
                    .map(|_| NodeId::from_index(rng.gen_range(0..nl.node_count())))
                    .collect();
                let reach = graph::transitive_fanin(&nl, &nodes);
                for strategy in [
                    PayloadStrategy::MostObservable,
                    PayloadStrategy::Random(trial),
                ] {
                    assert_eq!(
                        emitter.payload_net(&reach, &[], strategy),
                        crate::payload::choose_payload(&nl, &scoap, &nodes, strategy),
                        "{circuit} trial {trial} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn used_nets_are_excluded_until_none_is_left() {
        let nl = bench::parse(FOUR_CONES, "t").unwrap();
        let scoap = htforge_scoap::Scoap::compute(&nl).unwrap();
        let emitter = TrojanEmitter::new(&nl, &scoap, 4, PayloadKind::Flip);
        let w = nl.find("w").unwrap();
        let reach = graph::transitive_fanin(&nl, &[w]);
        let mut used = Vec::new();
        while let Some(net) = emitter.payload_net(&reach, &used, PayloadStrategy::MostObservable) {
            assert!(!used.contains(&net) && net != w);
            used.push(net);
        }
        // x, v and o: every gate but the trigger node.
        assert_eq!(used.len(), 3);
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
