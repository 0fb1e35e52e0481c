//! The PODEM test-generation algorithm (Goel, IEEE ToC 1981).
//!
//! PODEM searches over primary-input assignments only: it repeatedly
//! derives an *objective* (a node and desired value), *backtraces* the
//! objective to an unassigned PI, assigns it, and forward-implicates. A
//! bounded decision stack with value flipping makes the search complete.
//!
//! Two modes are provided:
//!
//! * [`PodemMode::Justify`] — stop as soon as the fault site reaches its
//!   excitation value. This is what the compatibility graph needs: a cube
//!   that *drives a rare node to its rare value*.
//! * [`PodemMode::Detect`] — classic stuck-at ATPG: excite the fault and
//!   propagate the effect to a primary output (used by the ND-ATPG
//!   detection scheme).
//!
//! A justify search can also follow a *witness*, a known input vector
//! that already drives the node to the wanted value
//! ([`Podem::generate_witnessed`]); it then never backtracks.

use htforge_obs::{BudgetTicker, RunBudget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htforge_netlist::{netlist::NodeId, GateKind, Netlist, NetlistError, NodeKind};
use htforge_scoap::Scoap;
use htforge_sim::tri::eval_gate_tri;
use htforge_sim::{NodeValues, Tri};

use crate::cube::Cube;
use crate::fault::Fault;

/// What the engine must achieve before declaring success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PodemMode {
    /// Drive the fault site to its excitation value (no propagation).
    Justify,
    /// Excite the fault *and* propagate its effect to a primary output.
    #[default]
    Detect,
}

/// Tuning knobs for the PODEM engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodemConfig {
    /// Success condition: fault detection or bare justification.
    pub mode: PodemMode,
    /// Abort the search after this many backtracks.
    pub backtrack_limit: usize,
    /// Optional seed: when set, backtrace input selection is randomized
    /// instead of SCOAP-guided, yielding *different* cubes per seed — the
    /// mechanism behind [`crate::ndetect`].
    pub random_seed: Option<u64>,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            mode: PodemMode::Detect,
            backtrack_limit: 5_000,
            random_seed: None,
        }
    }
}

impl PodemConfig {
    /// Convenience: default configuration in justify-only mode.
    #[must_use]
    pub fn justify() -> Self {
        PodemConfig {
            mode: PodemMode::Justify,
            ..PodemConfig::default()
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestResult {
    /// A test cube achieving the objective.
    Test(Cube),
    /// The decision tree was exhausted: no test exists
    /// (redundant / unexcitable fault).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
    /// The run budget (see [`Podem::set_run_budget`]) expired or was
    /// cancelled before a verdict.
    TimedOut,
}

impl TestResult {
    /// The cube, if a test was found.
    #[must_use]
    pub fn cube(self) -> Option<Cube> {
        match self {
            TestResult::Test(c) => Some(c),
            _ => None,
        }
    }

    /// `true` if a test was found.
    #[must_use]
    pub fn is_test(&self) -> bool {
        matches!(self, TestResult::Test(_))
    }
}

/// One column of simulated node values: an input vector known to drive
/// the objective, which a witnessed search follows.
#[derive(Clone, Copy)]
struct Witness<'a> {
    values: &'a NodeValues,
    column: usize,
}

impl Witness<'_> {
    fn value(self, node: NodeId) -> bool {
        self.values.value(node, self.column)
    }
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    pi_pos: usize,
    value: bool,
    flipped: bool,
}

/// Observability handles, fetched once per engine so the search loop
/// records with plain atomic ops (see `DESIGN.md` §8 for the names).
#[derive(Debug, Clone)]
struct PodemMetrics {
    faults: htforge_obs::Counter,
    backtracks: htforge_obs::Counter,
    implications: htforge_obs::Counter,
    timeouts: htforge_obs::Counter,
    aborted: htforge_obs::Counter,
    backtracks_per_fault: htforge_obs::Histogram,
}

impl PodemMetrics {
    fn from_global() -> Self {
        PodemMetrics {
            faults: htforge_obs::counter("podem.faults"),
            backtracks: htforge_obs::counter("podem.backtracks"),
            implications: htforge_obs::counter("podem.implications"),
            timeouts: htforge_obs::counter("podem.timeouts"),
            aborted: htforge_obs::counter("podem.aborted"),
            backtracks_per_fault: htforge_obs::histogram("podem.backtracks_per_fault"),
        }
    }
}

/// A PODEM engine bound to one (combinational or scan-cut) netlist.
///
/// The engine precomputes topological order, levels and SCOAP guidance
/// once; [`Podem::generate`] may then be called for many faults.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
pub struct Podem {
    nl: Netlist,
    topo_pos: Vec<u32>,
    scoap: Scoap,
    config: PodemConfig,
    /// good-plane values, indexed by node.
    good: Vec<Tri>,
    /// faulty-plane values (only maintained in Detect mode).
    faulty: Vec<Tri>,
    /// PI assignment, by input position.
    pi_values: Vec<Tri>,
    /// map node index -> input position (usize::MAX when not a PI).
    pi_pos_of: Vec<usize>,
    /// Event-queue membership stamps (see [`Podem::assign`]).
    queued: Vec<u32>,
    /// Current stamp generation.
    stamp: u32,
    /// Fanout cone of the current fault site (detect mode only): the
    /// nodes whose good and faulty values can differ.
    cone: Vec<NodeId>,
    rng: Option<StdRng>,
    /// Backtracks taken by the most recent search.
    last_backtracks: usize,
    metrics: PodemMetrics,
    /// Run-level budget (deadline + cancellation) shared with the
    /// surrounding pipeline.
    run_budget: RunBudget,
}

impl std::fmt::Debug for Podem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Podem")
            .field("netlist", &self.nl.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Podem {
    /// Builds an engine for `nl` (cloned internally).
    ///
    /// `nl` must be combinational or scan-cut; DFF nodes are rejected
    /// because their Q values are not controllable combinationally.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists,
    /// or [`NetlistError::BadArity`] (with kind `DFF`) if the netlist
    /// still contains flip-flops.
    pub fn new(nl: &Netlist, config: PodemConfig) -> Result<Self, NetlistError> {
        if let Some((_, node)) = nl.iter().find(|(_, n)| n.kind() == NodeKind::Dff) {
            return Err(NetlistError::BadArity {
                gate: node.name().to_owned(),
                kind: "DFF",
                got: node.fanins().len(),
            });
        }
        let order = htforge_netlist::graph::topo_order(nl)?;
        let mut topo_pos = vec![0u32; nl.node_count()];
        for (pos, &id) in order.iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }
        let scoap = Scoap::compute(nl)?;
        let mut pi_pos_of = vec![usize::MAX; nl.node_count()];
        for (pos, &id) in nl.inputs().iter().enumerate() {
            pi_pos_of[id.index()] = pos;
        }
        let n = nl.node_count();
        let num_pis = nl.inputs().len();
        Ok(Podem {
            nl: nl.clone(),
            topo_pos,
            scoap,
            config,
            good: vec![Tri::X; n],
            faulty: vec![Tri::X; n],
            pi_values: vec![Tri::X; num_pis],
            pi_pos_of,
            queued: vec![0; n],
            stamp: 0,
            cone: Vec::new(),
            rng: config.random_seed.map(StdRng::seed_from_u64),
            last_backtracks: 0,
            metrics: PodemMetrics::from_global(),
            run_budget: RunBudget::unlimited(),
        })
    }

    /// Attaches a run-level budget: every subsequent [`Podem::generate`]
    /// call gives up with [`TestResult::TimedOut`] once the budget's
    /// deadline passes or its token is cancelled — instead of silently
    /// burning the whole backtrack limit on one pathological fault. The
    /// deadline is checked at every backtrack *and*, amortized (every
    /// 1024 events), inside the implication and D-frontier loops, so
    /// faults with huge cones but few backtracks cannot overshoot it
    /// arbitrarily. Hits are counted on the `podem.timeouts`
    /// observability counter.
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.run_budget = budget;
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &PodemConfig {
        &self.config
    }

    /// Sets [`PodemConfig::random_seed`] for the next searches: `None`
    /// makes backtrace SCOAP-guided, `Some(seed)` restarts randomized
    /// backtrace from `seed`. Callers that parallelize cube generation
    /// reseed before each fault to keep per-fault results independent of
    /// work partitioning.
    pub fn reseed(&mut self, seed: Option<u64>) {
        self.config.random_seed = seed;
        self.rng = seed.map(StdRng::seed_from_u64);
    }

    /// Runs PODEM for `fault` and returns the outcome.
    ///
    /// The returned cube is over the netlist's primary inputs, in
    /// `inputs()` order. In `Justify` mode the cube drives the fault site
    /// to [`Fault::excitation_value`]; in `Detect` mode it additionally
    /// propagates the fault effect to a primary output.
    pub fn generate(&mut self, fault: Fault) -> TestResult {
        self.run(fault, None)
    }

    /// Witness-guided [`Podem::generate`] for a justify-mode engine.
    ///
    /// Column `column` of `witness` holds the simulated node values of an
    /// input vector that drives the fault site to its excitation value.
    /// Backtrace then only walks X inputs whose witness value serves the
    /// objective, so every PI it assigns takes its witness value and
    /// every implied value agrees with the witness. Three-valued logic is
    /// monotone, so the objective can never be blocked: the search takes
    /// no backtracks and at most |PI| decisions, and returns a sub-cube
    /// of the witness vector.
    ///
    /// # Panics
    ///
    /// Panics if the engine is in detect mode, or if the witness column
    /// does not drive the fault site to its excitation value.
    pub fn generate_witnessed(
        &mut self,
        fault: Fault,
        witness: &NodeValues,
        column: usize,
    ) -> TestResult {
        assert_eq!(
            self.config.mode,
            PodemMode::Justify,
            "witness guidance is for justify mode"
        );
        let witness = Witness {
            values: witness,
            column,
        };
        assert_eq!(
            witness.value(fault.node()),
            fault.excitation_value(),
            "the witness must excite the fault"
        );
        self.run(fault, Some(witness))
    }

    /// Backtracks taken by the most recent [`Podem::generate`] or
    /// [`Podem::generate_witnessed`] call.
    #[must_use]
    pub fn last_backtracks(&self) -> usize {
        self.last_backtracks
    }

    fn run(&mut self, fault: Fault, witness: Option<Witness<'_>>) -> TestResult {
        htforge_obs::faultpoint!("podem.generate");
        let mut backtracks = 0usize;
        let result = self.search(fault, witness, &mut backtracks);
        self.last_backtracks = backtracks;
        let metrics = &self.metrics;
        metrics.faults.incr();
        metrics.backtracks.add(backtracks as u64);
        metrics.backtracks_per_fault.record(backtracks as u64);
        match result {
            TestResult::Aborted => metrics.aborted.incr(),
            TestResult::TimedOut => metrics.timeouts.incr(),
            _ => {}
        }
        result
    }

    fn search(
        &mut self,
        fault: Fault,
        witness: Option<Witness<'_>>,
        backtracks: &mut usize,
    ) -> TestResult {
        self.reset();
        if self.config.mode == PodemMode::Detect {
            self.collect_cone(fault.node());
        }
        let mut decisions: Vec<Decision> = Vec::new();
        let mut ticker = BudgetTicker::new(self.run_budget.clone(), 1024);
        // Cancellation is checked up front: short searches may finish
        // inside one amortization window and must still honour it.
        if self.run_budget.cancelled() {
            return TestResult::TimedOut;
        }

        loop {
            if ticker.exceeded().is_some() {
                return TestResult::TimedOut;
            }
            if self.success(fault) {
                return TestResult::Test(Cube::from_tris(self.pi_values.clone()));
            }

            let objective = self.objective(fault, &mut ticker);
            let assignment =
                objective.and_then(|(node, value)| self.backtrace(node, value, witness));

            match assignment {
                Some((pi_pos, value)) => {
                    self.assign(pi_pos, Tri::from_bool(value), fault, &mut ticker);
                    decisions.push(Decision {
                        pi_pos,
                        value,
                        flipped: false,
                    });
                }
                None => {
                    // Dead end: flip the most recent unflipped decision.
                    debug_assert!(witness.is_none(), "a witnessed search never backtracks");
                    *backtracks += 1;
                    if *backtracks > self.config.backtrack_limit {
                        return TestResult::Aborted;
                    }
                    if ticker.check_now().is_err() {
                        return TestResult::TimedOut;
                    }
                    loop {
                        match decisions.pop() {
                            Some(d) if !d.flipped => {
                                let nv = !d.value;
                                self.assign(d.pi_pos, Tri::from_bool(nv), fault, &mut ticker);
                                decisions.push(Decision {
                                    pi_pos: d.pi_pos,
                                    value: nv,
                                    flipped: true,
                                });
                                break;
                            }
                            Some(d) => {
                                self.assign(d.pi_pos, Tri::X, fault, &mut ticker);
                            }
                            None => return TestResult::Untestable,
                        }
                    }
                }
            }
        }
    }

    /// Collects the fanout cone of `site`, itself included, into
    /// `self.cone` (in no particular order).
    fn collect_cone(&mut self, site: NodeId) {
        let mut seen = vec![false; self.nl.node_count()];
        seen[site.index()] = true;
        self.cone.clear();
        self.cone.push(site);
        let mut next = 0;
        while let Some(&id) = self.cone.get(next) {
            next += 1;
            for &f in self.nl.fanouts(id) {
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    self.cone.push(f);
                }
            }
        }
    }

    /// Whether `id` carries a fault effect: good and faulty values are
    /// both known and differ.
    fn fault_effect(&self, id: NodeId) -> bool {
        let (g, f) = (self.good[id.index()], self.faulty[id.index()]);
        g.is_care() && f.is_care() && g != f
    }

    fn reset(&mut self) {
        self.good.fill(Tri::X);
        self.faulty.fill(Tri::X);
        self.pi_values.fill(Tri::X);
    }

    fn success(&self, fault: Fault) -> bool {
        let site = self.good[fault.node().index()];
        if site != Tri::from_bool(fault.excitation_value()) {
            return false;
        }
        match self.config.mode {
            PodemMode::Justify => true,
            PodemMode::Detect => self.nl.outputs().iter().any(|&o| self.fault_effect(o)),
        }
    }

    /// Derives the next objective `(node, value)`, or `None` when the
    /// current partial assignment cannot lead to a test (triggering a
    /// backtrack).
    fn objective(&self, fault: Fault, ticker: &mut BudgetTicker) -> Option<(NodeId, bool)> {
        let site = self.good[fault.node().index()];
        let want = fault.excitation_value();
        match site {
            Tri::X => return Some((fault.node(), want)),
            v if v != Tri::from_bool(want) => return None, // excitation blocked
            _ => {}
        }
        if self.config.mode == PodemMode::Justify {
            // Excited and justify-only: `success` would have caught it.
            return None;
        }
        // Fault excited: advance the D-frontier, the gates with a fault
        // effect on an input and an X input. Prefer the gate closest to a
        // PO (min CO, then lowest id). Every frontier gate is a fanout of
        // a node carrying a fault effect, and only the fault site's fanout
        // cone can carry one, so only the cone is scanned.
        let mut best: Option<(NodeId, u32)> = None;
        for &id in &self.cone {
            if ticker.tick().is_err() {
                break; // the search loop reports TimedOut
            }
            if !self.fault_effect(id) {
                continue;
            }
            for &gate in self.nl.fanouts(id) {
                let node = self.nl.node(gate);
                if !matches!(node.kind(), NodeKind::Gate(_))
                    || (self.good[gate.index()].is_care() && self.faulty[gate.index()].is_care())
                    || !node.fanins().iter().any(|f| self.good[f.index()] == Tri::X)
                {
                    continue;
                }
                let co = self.scoap.co(gate);
                if best.is_none_or(|(b, c)| (co, gate.index()) < (c, b.index())) {
                    best = Some((gate, co));
                }
            }
        }
        let (gate, _) = best?;
        let kind = self
            .nl
            .node(gate)
            .kind()
            .gate_kind()
            .expect("frontier gate");
        // Objective: set one X input to the non-controlling value so the
        // fault effect passes through.
        let target = match kind.controlling_value() {
            Some(cv) => !cv,
            // XOR-family: any definite value propagates; pick 0.
            None => false,
        };
        let x_input = self
            .nl
            .node(gate)
            .fanins()
            .iter()
            .copied()
            .find(|f| self.good[f.index()] == Tri::X)
            .expect("frontier gate has an X input");
        Some((x_input, target))
    }

    /// Walks an objective backward through X-valued nodes to an unassigned
    /// primary input, returning `(pi position, value)`. With a witness,
    /// every node on the walk needs exactly its witness value.
    fn backtrace(
        &mut self,
        mut node: NodeId,
        mut value: bool,
        witness: Option<Witness<'_>>,
    ) -> Option<(usize, bool)> {
        loop {
            let pi_pos = self.pi_pos_of[node.index()];
            if pi_pos != usize::MAX {
                if self.pi_values[pi_pos] != Tri::X {
                    return None; // assigned PI can't serve the objective
                }
                debug_assert!(witness.is_none_or(|w| w.value(node) == value));
                return Some((pi_pos, value));
            }
            let kind = match self.nl.node(node).kind() {
                NodeKind::Gate(k) => k,
                _ => return None,
            };
            let fanins: Vec<NodeId> = self.nl.node(node).fanins().to_vec();
            let x_inputs: Vec<NodeId> = fanins
                .iter()
                .copied()
                .filter(|f| self.good[f.index()] == Tri::X)
                .collect();
            if x_inputs.is_empty() {
                return None;
            }
            let (next, next_value) = self.choose_input(kind, &fanins, &x_inputs, value, witness);
            node = next;
            value = next_value;
        }
    }

    /// Picks which X input of a gate to pursue and the value it needs so
    /// the gate can eventually output `value`. A witness restricts the
    /// choice to inputs whose witness value is that value.
    fn choose_input(
        &mut self,
        kind: GateKind,
        fanins: &[NodeId],
        x_inputs: &[NodeId],
        value: bool,
        witness: Option<Witness<'_>>,
    ) -> (NodeId, bool) {
        let pick_random =
            |rng: &mut StdRng, x_inputs: &[NodeId]| x_inputs[rng.gen_range(0..x_inputs.len())];
        match kind {
            GateKind::Not => (x_inputs[0], !value),
            GateKind::Buf => (x_inputs[0], value),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let inverted = kind.is_inverting();
                let base_value = value ^ inverted; // value of the AND/OR core
                let all_must = match kind {
                    GateKind::And | GateKind::Nand => base_value, // AND: 1 needs all 1
                    _ => !base_value,                             // OR: 0 needs all 0
                };
                let input_value = base_value;
                // The gate output is X and agrees with the witness, so some
                // X input has witness value `input_value`.
                let served: Vec<NodeId>;
                let x_inputs = match witness {
                    Some(w) => {
                        served = x_inputs
                            .iter()
                            .copied()
                            .filter(|&f| w.value(f) == input_value)
                            .collect();
                        &served[..]
                    }
                    None => x_inputs,
                };
                // all_must: every input must take input_value → pick the
                // *hardest* X input first. Otherwise one controlling input
                // suffices → pick the *easiest*.
                let chosen = if let Some(rng) = self.rng.as_mut() {
                    pick_random(rng, x_inputs)
                } else if all_must {
                    *x_inputs
                        .iter()
                        .max_by_key(|f| self.scoap.cc(**f, input_value))
                        .expect("x_inputs nonempty")
                } else {
                    *x_inputs
                        .iter()
                        .min_by_key(|f| self.scoap.cc(**f, input_value))
                        .expect("x_inputs nonempty")
                };
                (chosen, input_value)
            }
            GateKind::Xor | GateKind::Xnor => {
                // Need output parity = value (xor) / !value (xnor).
                let want = value ^ (kind == GateKind::Xnor);
                // Parity contributed by definite inputs.
                let definite_parity = fanins
                    .iter()
                    .filter(|f| self.good[f.index()].is_care())
                    .fold(false, |acc, f| acc ^ (self.good[f.index()] == Tri::One));
                // Drive the chosen X input so that, assuming the remaining
                // X inputs settle at 0, the parity works out — or, with a
                // witness, to its witness value.
                let chosen = if let Some(rng) = self.rng.as_mut() {
                    pick_random(rng, x_inputs)
                } else {
                    x_inputs[0]
                };
                let value = witness.map_or(want ^ definite_parity, |w| w.value(chosen));
                (chosen, value)
            }
        }
    }

    /// Assigns one PI and event-drives the change through its fan-out
    /// cone: only nodes whose value actually changes are revisited, in
    /// topological order (a min-heap keyed by topo position).
    fn assign(&mut self, pi_pos: usize, value: Tri, fault: Fault, ticker: &mut BudgetTicker) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        self.pi_values[pi_pos] = value;
        let pi_node = self.nl.inputs()[pi_pos];
        let detect = self.config.mode == PodemMode::Detect;
        if detect {
            // Invariant, independent of this assignment's cone.
            self.faulty[fault.node().index()] = Tri::from_bool(fault.stuck_value());
        }

        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        self.stamp = self.stamp.wrapping_add(1);
        let stamp = self.stamp;
        let push = |heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
                    queued: &mut [u32],
                    topo_pos: &[u32],
                    id: NodeId| {
            if queued[id.index()] != stamp {
                queued[id.index()] = stamp;
                heap.push(Reverse((topo_pos[id.index()], id.index() as u32)));
            }
        };
        let mut queued = std::mem::take(&mut self.queued);
        push(&mut heap, &mut queued, &self.topo_pos, pi_node);

        let mut scratch_g: Vec<Tri> = Vec::new();
        let mut scratch_f: Vec<Tri> = Vec::new();
        let mut evaluated = 0u64;
        while let Some(Reverse((_, raw))) = heap.pop() {
            evaluated += 1;
            if ticker.tick().is_err() {
                break; // abandon propagation; the search loop reports TimedOut
            }
            let id = NodeId::from_index(raw as usize);
            let node = self.nl.node(id);
            let (new_good, new_faulty) = match node.kind() {
                NodeKind::Input => (value, value),
                NodeKind::Gate(kind) => {
                    scratch_g.clear();
                    scratch_g.extend(node.fanins().iter().map(|f| self.good[f.index()]));
                    let g = eval_gate_tri(kind, &scratch_g);
                    let f = if detect {
                        scratch_f.clear();
                        scratch_f.extend(node.fanins().iter().map(|f| self.faulty[f.index()]));
                        eval_gate_tri(kind, &scratch_f)
                    } else {
                        Tri::X
                    };
                    (g, f)
                }
                NodeKind::Dff => continue,
            };
            let new_faulty = if detect && id == fault.node() {
                Tri::from_bool(fault.stuck_value())
            } else {
                new_faulty
            };
            let changed = self.good[id.index()] != new_good
                || (detect && self.faulty[id.index()] != new_faulty);
            self.good[id.index()] = new_good;
            if detect {
                self.faulty[id.index()] = new_faulty;
            }
            if changed {
                for &f in node.fanouts() {
                    if self.nl.node(f).kind() != NodeKind::Dff {
                        push(&mut heap, &mut queued, &self.topo_pos, f);
                    }
                }
            }
        }
        self.queued = queued;
        self.metrics.implications.add(evaluated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;
    use htforge_sim::tri::{justifies, simulate_tri};
    use std::time::Duration;

    const C17: &str = "\
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    fn cube_detects(nl: &Netlist, cube: &Cube, fault: Fault) -> bool {
        // Verify by explicit good/faulty 3-valued simulation.
        let good = simulate_tri(nl, cube.bits()).unwrap();
        if good[fault.node().index()] != Tri::from_bool(fault.excitation_value()) {
            return false;
        }
        // Faulty sim: brute-force by building values with the site forced.
        // Re-run a manual topological pass.
        let order = htforge_netlist::graph::topo_order(nl).unwrap();
        let mut faulty = vec![Tri::X; nl.node_count()];
        for (pos, &id) in nl.inputs().iter().enumerate() {
            faulty[id.index()] = cube.bits()[pos];
        }
        if nl.inputs().iter().any(|&i| i == fault.node()) {
            faulty[fault.node().index()] = Tri::from_bool(fault.stuck_value());
        }
        for id in order {
            if let NodeKind::Gate(kind) = nl.node(id).kind() {
                let ins: Vec<Tri> = nl
                    .node(id)
                    .fanins()
                    .iter()
                    .map(|f| faulty[f.index()])
                    .collect();
                faulty[id.index()] = eval_gate_tri(kind, &ins);
            }
            if id == fault.node() && !nl.inputs().contains(&id) {
                faulty[id.index()] = Tri::from_bool(fault.stuck_value());
            }
        }
        nl.outputs().iter().any(|&o| {
            good[o.index()].is_care()
                && faulty[o.index()].is_care()
                && good[o.index()] != faulty[o.index()]
        })
    }

    #[test]
    fn justify_and_gate_output_one() {
        let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let y = nl.find("y").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        let cube = podem
            .generate(Fault::for_rare_event(y, true))
            .cube()
            .expect("testable");
        assert!(justifies(&nl, cube.bits(), y, true).unwrap());
        assert_eq!(cube.care_count(), 2);
    }

    #[test]
    fn justify_leaves_dont_cares() {
        // y = OR(a, b, c, d): justifying y = 1 needs one care bit.
        let nl = bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = OR(a, b, c, d)\n",
            "t",
        )
        .unwrap();
        let y = nl.find("y").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        let cube = podem
            .generate(Fault::for_rare_event(y, true))
            .cube()
            .expect("testable");
        assert!(justifies(&nl, cube.bits(), y, true).unwrap());
        assert_eq!(cube.care_count(), 1);
    }

    #[test]
    fn detect_every_c17_fault() {
        let nl = bench::parse(C17, "c17").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        let mut found = 0;
        for id in nl.node_ids() {
            for v in [false, true] {
                let fault = Fault::stuck_at(id, v);
                match podem.generate(fault) {
                    TestResult::Test(cube) => {
                        assert!(
                            cube_detects(&nl, &cube, fault),
                            "cube {cube} fails to detect {fault}"
                        );
                        found += 1;
                    }
                    other => panic!("c17 {fault}: expected test, got {other:?}"),
                }
            }
        }
        // All 22 single stuck-at faults on nodes are testable in c17.
        assert_eq!(found, 22);
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // y = OR(a, na) is constant 1; y stuck-at-1 cannot be excited.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let nl = bench::parse(src, "t").unwrap();
        let y = nl.find("y").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        assert_eq!(
            podem.generate(Fault::stuck_at(y, true)),
            TestResult::Untestable
        );
    }

    #[test]
    fn unobservable_fault_is_untestable_in_detect_mode() {
        // g is dangling: excitable but not observable.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = BUF(a)\ng = AND(a, b)\n";
        let nl = bench::parse(src, "t").unwrap();
        let g = nl.find("g").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        assert_eq!(
            podem.generate(Fault::stuck_at(g, false)),
            TestResult::Untestable
        );
        // ...but justifiable in justify mode.
        let mut jpodem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        assert!(jpodem.generate(Fault::stuck_at(g, false)).is_test());
    }

    #[test]
    fn xor_justification() {
        let nl = bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n",
            "t",
        )
        .unwrap();
        let y = nl.find("y").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        for v in [false, true] {
            let cube = podem
                .generate(Fault::for_rare_event(y, v))
                .cube()
                .expect("testable");
            assert!(justifies(&nl, cube.bits(), y, v).unwrap(), "value {v}");
        }
    }

    #[test]
    fn randomized_seeds_yield_valid_cubes() {
        let nl = bench::parse(C17, "c17").unwrap();
        let g16 = nl.find("16").unwrap();
        for seed in 0..5 {
            let cfg = PodemConfig {
                mode: PodemMode::Justify,
                random_seed: Some(seed),
                ..PodemConfig::default()
            };
            let mut podem = Podem::new(&nl, cfg).unwrap();
            let cube = podem
                .generate(Fault::for_rare_event(g16, false))
                .cube()
                .expect("testable");
            assert!(justifies(&nl, cube.bits(), g16, false).unwrap());
        }
    }

    #[test]
    fn expired_run_budget_reports_timeout() {
        // The redundant fault below needs at least one backtrack to be
        // proven untestable, so an expired budget must trip first.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let nl = bench::parse(src, "t").unwrap();
        let y = nl.find("y").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
        podem.set_run_budget(RunBudget::with_deadline(Duration::ZERO));
        assert_eq!(
            podem.generate(Fault::stuck_at(y, true)),
            TestResult::TimedOut
        );
        // A generous budget changes nothing for testable faults.
        let nl17 = bench::parse(C17, "c17").unwrap();
        let mut podem = Podem::new(&nl17, PodemConfig::default()).unwrap();
        podem.set_run_budget(RunBudget::with_deadline(Duration::from_secs(60)));
        let g16 = nl17.find("16").unwrap();
        assert!(podem.generate(Fault::stuck_at(g16, false)).is_test());
    }

    #[test]
    fn implication_loop_respects_deadline_without_backtracks() {
        // A deep BUF chain justifies in zero backtracks, so the old
        // backtrack-only deadline check never fired and a zero budget
        // still returned a test. The amortized in-loop check must trip
        // during implication instead.
        let mut src = String::from("INPUT(n0)\nOUTPUT(y)\n");
        let depth = 4096;
        for i in 1..depth {
            src.push_str(&format!("n{i} = BUF(n{})\n", i - 1));
        }
        src.push_str(&format!("y = BUF(n{})\n", depth - 1));
        let nl = bench::parse(&src, "chain").unwrap();
        let y = nl.find("y").unwrap();

        // Sanity: with no budget the fault is trivially testable.
        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        assert!(podem.generate(Fault::for_rare_event(y, true)).is_test());

        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        podem.set_run_budget(RunBudget::with_deadline(Duration::ZERO));
        assert_eq!(
            podem.generate(Fault::for_rare_event(y, true)),
            TestResult::TimedOut
        );
    }

    #[test]
    fn run_budget_cancellation_stops_generation() {
        let nl = bench::parse(C17, "c17").unwrap();
        let g16 = nl.find("16").unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::justify()).unwrap();
        let budget = htforge_obs::RunBudget::unlimited();
        budget.cancel_token().cancel();
        podem.set_run_budget(budget);
        assert_eq!(
            podem.generate(Fault::for_rare_event(g16, false)),
            TestResult::TimedOut
        );
        // Replacing the budget restores normal operation.
        podem.set_run_budget(htforge_obs::RunBudget::unlimited());
        assert!(podem.generate(Fault::for_rare_event(g16, false)).is_test());
    }

    #[test]
    fn sequential_netlist_rejected() {
        let src = "INPUT(a)\nOUTPUT(g)\ng = XOR(a, q)\nq = DFF(g)\n";
        let nl = bench::parse(src, "seq").unwrap();
        assert!(Podem::new(&nl, PodemConfig::default()).is_err());
        assert!(Podem::new(&nl.scan_cut(), PodemConfig::default()).is_ok());
    }
}
