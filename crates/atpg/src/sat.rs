//! Stuck-at test generation as Boolean satisfiability (Larrabee, IEEE
//! TCAD 1992).
//!
//! [`MiterSolver::decide`] encodes the *miter* of a stuck-at fault as
//! CNF and hands it to a small CDCL solver. The miter holds:
//!
//! * the good circuit over the fan-in cones of the primary outputs the
//!   fault site reaches,
//! * a faulty copy of the site's fan-out cone only, with the site fixed
//!   at the stuck value,
//! * a unit clause putting the good site at its excitation value,
//! * one clause asking some of those outputs to differ between the two.
//!
//! [`MiterSolver::justify`] asks the smaller question the compatibility
//! graph needs: the good circuit over one node's fan-in cone, plus a
//! unit clause putting the node at a value.
//!
//! Gates are Tseitin-encoded: AND/NAND/OR/NOR as one AND over possibly
//! complemented literals, XOR/XNOR as chains of two-input XORs, and
//! BUF/NOT (and every one-input gate) as the fan-in literal itself.
//!
//! The miter is satisfiable exactly when some input vector detects the
//! fault, so an UNSAT verdict *proves* the fault undetectable, which a
//! PODEM search that hits its backtrack limit never can.

mod cdcl;

use htforge_netlist::{netlist::NodeId, FoldOp, GateKind, Netlist, NetlistError, NodeKind};

use crate::fault::Fault;
use cdcl::{Lit, Outcome, Solver};

/// Conflicts one [`MiterSolver::decide`] or [`MiterSolver::justify`]
/// may spend before it gives up with [`Verdict::Unknown`].
pub const CONFLICT_LIMIT: u64 = 20_000;

/// The verdict on one stuck-at fault, or on one justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// This input vector (in `inputs()` order) detects the fault, or
    /// drives the node to the value. Inputs outside the encoded cones
    /// are `false`.
    Detectable(Vec<bool>),
    /// No input vector detects the fault, or drives the node to the
    /// value.
    Undetectable,
    /// [`CONFLICT_LIMIT`] conflicts passed without a verdict.
    Unknown,
}

/// A reusable miter encoder and solver bound to one combinational (or
/// scan-cut) netlist. The solver's clause arena is cleared before every
/// fault, so one `MiterSolver` per worker serves any number of faults.
///
/// # Examples
///
/// ```
/// use htforge_atpg::sat::{MiterSolver, Verdict};
/// use htforge_atpg::Fault;
/// use htforge_netlist::bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // y = OR(a, NOT a) is constant 1: y stuck-at-1 is undetectable.
/// let nl = bench::parse(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\n\
///      y = OR(a, na)\nz = AND(a, b)\n", "t")?;
/// let mut miter = MiterSolver::new(&nl)?;
/// let y = nl.find("y").unwrap();
/// assert_eq!(miter.decide(Fault::stuck_at(y, true)), Verdict::Undetectable);
/// let z = nl.find("z").unwrap();
/// assert_eq!(
///     miter.decide(Fault::stuck_at(z, false)),
///     Verdict::Detectable(vec![true, true])
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MiterSolver {
    nl: Netlist,
    solver: Solver,
    /// Per node: in the current site's fan-out cone.
    in_cone: Vec<bool>,
    /// Per node: in the encoded good circuit.
    in_miter: Vec<bool>,
    /// Per node: its literal in the good circuit and the faulty copy.
    good: Vec<Lit>,
    faulty: Vec<Lit>,
    /// The site's fan-out cone (empty for a justification), and the
    /// encoded good circuit in topological order.
    cone: Vec<NodeId>,
    order: Vec<NodeId>,
    /// Depth-first scratch: a node and its next fan-in to visit.
    stack: Vec<(NodeId, usize)>,
    ins: Vec<Lit>,
    clause: Vec<Lit>,
}

impl MiterSolver {
    /// A solver for `nl` (cloned internally).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists,
    /// or [`NetlistError::BadArity`] (with kind `DFF`) if the netlist
    /// still contains flip-flops.
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        if let Some((_, node)) = nl.iter().find(|(_, n)| n.kind() == NodeKind::Dff) {
            return Err(NetlistError::BadArity {
                gate: node.name().to_owned(),
                kind: "DFF",
                got: node.fanins().len(),
            });
        }
        nl.levels()?;
        let n = nl.node_count();
        let unset = Lit::new(0, false);
        Ok(MiterSolver {
            nl: nl.clone(),
            solver: Solver::new(),
            in_cone: vec![false; n],
            in_miter: vec![false; n],
            good: vec![unset; n],
            faulty: vec![unset; n],
            cone: Vec::new(),
            order: Vec::new(),
            stack: Vec::new(),
            ins: Vec::new(),
            clause: Vec::new(),
        })
    }

    /// Decides whether some input vector detects `fault` at a primary
    /// output, spending at most [`CONFLICT_LIMIT`] conflicts.
    pub fn decide(&mut self, fault: Fault) -> Verdict {
        let _span = htforge_obs::span("sat");
        let satisfiable = self.encode(fault);
        self.finish(satisfiable)
    }

    /// Decides whether some input vector drives `node` to `value`,
    /// spending at most [`CONFLICT_LIMIT`] conflicts. Only `node`'s
    /// fan-in cone is encoded.
    ///
    /// # Examples
    ///
    /// ```
    /// use htforge_atpg::sat::{MiterSolver, Verdict};
    /// use htforge_netlist::bench;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // y = AND(a, NOT a) is constant 0.
    /// let nl = bench::parse(
    ///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n", "t")?;
    /// let mut solver = MiterSolver::new(&nl)?;
    /// let (y, na) = (nl.find("y").unwrap(), nl.find("na").unwrap());
    /// assert_eq!(solver.justify(y, true), Verdict::Undetectable);
    /// assert_eq!(solver.justify(na, true), Verdict::Detectable(vec![false, false]));
    /// # Ok(())
    /// # }
    /// ```
    pub fn justify(&mut self, node: NodeId, value: bool) -> Verdict {
        let _span = htforge_obs::span("sat");
        self.cone.clear();
        self.order.clear();
        self.collect_fanin(node);
        self.encode_good();
        let target = self.good[node.index()].equals(value);
        let satisfiable = self.solver.add_clause(&[target]);
        self.finish(satisfiable)
    }

    /// Solves the encoded question unless `satisfiable` is already
    /// `false`, reads the model's inputs, and clears the cone marks.
    fn finish(&mut self, satisfiable: bool) -> Verdict {
        let outcome = match satisfiable {
            true => self.solver.solve(CONFLICT_LIMIT),
            false => Outcome::Unsat,
        };
        let verdict = match outcome {
            Outcome::Unsat => Verdict::Undetectable,
            Outcome::Unknown => Verdict::Unknown,
            Outcome::Sat => Verdict::Detectable(
                self.nl
                    .inputs()
                    .iter()
                    .map(|i| {
                        self.in_miter[i.index()] && self.solver.model_lit(self.good[i.index()])
                    })
                    .collect(),
            ),
        };
        for &id in &self.cone {
            self.in_cone[id.index()] = false;
        }
        for &id in &self.order {
            self.in_miter[id.index()] = false;
        }
        verdict
    }

    /// Builds `fault`'s miter in the solver; `false` when it is trivially
    /// unsatisfiable (the site reaches no primary output).
    fn encode(&mut self, fault: Fault) -> bool {
        let site = fault.node();
        self.collect_cone(site);
        self.order.clear();
        for k in 0..self.nl.outputs().len() {
            let o = self.nl.outputs()[k];
            if self.in_cone[o.index()] {
                self.collect_fanin(o);
            }
        }
        if self.order.is_empty() {
            return false;
        }
        self.encode_good();
        let nl = &self.nl;
        // The faulty site is a constant: a variable fixed true, negated
        // for stuck-at-0.
        let one = Lit::new(self.solver.new_var(), true);
        self.solver.add_clause(&[one]);
        for &id in self.order.iter().filter(|id| self.in_cone[id.index()]) {
            let lit = if id == site {
                one.equals(fault.stuck_value())
            } else {
                let kind = nl
                    .node(id)
                    .kind()
                    .gate_kind()
                    .expect("a cone node below the site is a gate");
                self.ins.clear();
                self.ins.extend(nl.fanins(id).iter().map(|f| {
                    if self.in_cone[f.index()] {
                        self.faulty[f.index()]
                    } else {
                        self.good[f.index()]
                    }
                }));
                gate(&mut self.solver, &mut self.clause, kind, &self.ins)
            };
            self.faulty[id.index()] = lit;
        }
        let excited = self.good[site.index()].equals(fault.excitation_value());
        self.solver.add_clause(&[excited]);
        // d_o → good(o) ≠ faulty(o) for each reached output o, and some
        // d_o holds.
        self.clause.clear();
        for &o in nl.outputs() {
            if !self.in_cone[o.index()] {
                continue;
            }
            let (g, f) = (self.good[o.index()], self.faulty[o.index()]);
            let d = Lit::new(self.solver.new_var(), true);
            self.solver.add_clause(&[!d, g, f]);
            self.solver.add_clause(&[!d, !g, !f]);
            self.clause.push(d);
        }
        self.solver.add_clause(&self.clause)
    }

    /// Collects `site`'s fan-out cone, itself included.
    fn collect_cone(&mut self, site: NodeId) {
        self.cone.clear();
        self.cone.push(site);
        self.in_cone[site.index()] = true;
        let mut next = 0;
        while let Some(&id) = self.cone.get(next) {
            next += 1;
            for &f in self.nl.fanouts(id) {
                if !self.in_cone[f.index()] {
                    self.in_cone[f.index()] = true;
                    self.cone.push(f);
                }
            }
        }
    }

    /// Appends the part of `root`'s fan-in cone not yet collected to
    /// `order`, in topological (depth-first post-) order.
    fn collect_fanin(&mut self, root: NodeId) {
        if self.in_miter[root.index()] {
            return;
        }
        self.in_miter[root.index()] = true;
        self.stack.push((root, 0));
        while let Some((id, next)) = self.stack.last_mut() {
            let (id, fanins) = (*id, self.nl.fanins(*id));
            match fanins.get(*next) {
                Some(&f) => {
                    *next += 1;
                    if !self.in_miter[f.index()] {
                        self.in_miter[f.index()] = true;
                        self.stack.push((f, 0));
                    }
                }
                None => {
                    self.order.push(id);
                    self.stack.pop();
                }
            }
        }
    }

    /// Clears the solver and Tseitin-encodes the good circuit over
    /// `order`, one literal per node.
    fn encode_good(&mut self) {
        self.solver.clear();
        let nl = &self.nl;
        for &id in &self.order {
            let lit = match nl.node(id).kind() {
                NodeKind::Gate(kind) => {
                    self.ins.clear();
                    self.ins
                        .extend(nl.fanins(id).iter().map(|f| self.good[f.index()]));
                    gate(&mut self.solver, &mut self.clause, kind, &self.ins)
                }
                _ => Lit::new(self.solver.new_var(), true),
            };
            self.good[id.index()] = lit;
        }
    }
}

/// Tseitin-encodes `kind` over the fan-in literals `ins` and returns the
/// literal of its output.
fn gate(solver: &mut Solver, clause: &mut Vec<Lit>, kind: GateKind, ins: &[Lit]) -> Lit {
    let base = match (ins, kind.fold_op()) {
        ([only], _) => *only,
        (_, FoldOp::And) => and(solver, clause, ins, false),
        // OR(x) = ¬AND(¬x).
        (_, FoldOp::Or) => !and(solver, clause, ins, true),
        (_, FoldOp::Xor) => ins[1..].iter().fold(ins[0], |acc, &b| xor(solver, acc, b)),
    };
    base.equals(!kind.is_inverting())
}

/// A fresh `o ↔ AND(ins)`, with every input complemented when `negate`.
fn and(solver: &mut Solver, clause: &mut Vec<Lit>, ins: &[Lit], negate: bool) -> Lit {
    let o = Lit::new(solver.new_var(), true);
    clause.clear();
    clause.push(o);
    for &a in ins {
        let a = a.equals(!negate);
        solver.add_clause(&[!o, a]);
        clause.push(!a);
    }
    solver.add_clause(clause);
    o
}

/// A fresh `o ↔ a ⊕ b`.
fn xor(solver: &mut Solver, a: Lit, b: Lit) -> Lit {
    let o = Lit::new(solver.new_var(), true);
    solver.add_clause(&[!o, a, b]);
    solver.add_clause(&[!o, !a, !b]);
    solver.add_clause(&[o, !a, b]);
    solver.add_clause(&[o, a, !b]);
    o
}
