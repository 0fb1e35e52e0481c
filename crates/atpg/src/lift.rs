//! Cube lifting: the justifying sub-cube of a known input vector.
//!
//! When simulation already holds a vector (a *witness*) that drives a
//! node to a value, one backward pass over the witness's node values
//! finds the inputs that value depends on, with no search: the
//! justification half of ternary-simulation lifting (Eén, Mishchenko &
//! Brayton, FMCAD 2011). Requirements flow from the target toward the
//! inputs:
//!
//! * a required primary input takes its witness value;
//! * an AND/OR-family gate whose witness output is forced by a
//!   controlling input needs one such input: the gate is decided once no
//!   other requirement is left to place, highest level first, and keeps
//!   an input already required if it has one, else the one with the
//!   lowest SCOAP controllability to the controlling value;
//! * every other gate requires all of its inputs.
//!
//! Each node is visited once, so a lift is O(cone log cone).

use std::collections::BinaryHeap;

use htforge_netlist::{netlist::NodeId, GateKind, Netlist, NetlistError, NodeKind};
use htforge_scoap::Scoap;
use htforge_sim::{NodeValues, Tri};

use crate::cube::Cube;

/// Lifts justifying cubes off witness vectors on one combinational or
/// scan-cut netlist. The netlist and its SCOAP metrics are borrowed, so
/// parallel lifters share them; each lifter owns only its scratch.
#[derive(Debug)]
pub struct Lifter<'a> {
    nl: &'a Netlist,
    scoap: &'a Scoap,
    levels: &'a [u32],
    /// `required[n] == stamp` marks node `n` required by this lift.
    required: Vec<u64>,
    stamp: u64,
    /// Required nodes whose inputs are all required, not yet placed.
    forced: Vec<NodeId>,
    /// Required controlled gates not yet decided, as `(level, index)`.
    deferred: BinaryHeap<(u32, u32)>,
}

impl<'a> Lifter<'a> {
    /// A lifter for `nl`, guided by `scoap` (computed on `nl`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(nl: &'a Netlist, scoap: &'a Scoap) -> Result<Self, NetlistError> {
        Ok(Lifter {
            nl,
            scoap,
            levels: nl.levels()?,
            required: vec![0; nl.node_count()],
            stamp: 0,
            forced: Vec::new(),
            deferred: BinaryHeap::new(),
        })
    }

    /// The cube over `nl.inputs()` that column `column` of `witness`
    /// justifies for `node` = `value`: a sub-cube of the witness vector
    /// that drives `node` to `value` under three-valued simulation.
    ///
    /// # Panics
    ///
    /// Panics if the witness column does not give `node` the value
    /// `value`, or if the node's fan-in cone holds a DFF.
    pub fn lift(&mut self, node: NodeId, value: bool, witness: &NodeValues, column: usize) -> Cube {
        assert_eq!(
            witness.value(node, column),
            value,
            "the witness must drive the node to the value"
        );
        self.stamp += 1;
        let nl = self.nl;
        self.require(node, witness, column);
        loop {
            while let Some(id) = self.forced.pop() {
                for &f in nl.fanins(id) {
                    self.require(f, witness, column);
                }
            }
            let Some((_, raw)) = self.deferred.pop() else {
                break;
            };
            let gate = NodeId::from_index(raw as usize);
            let cv = nl
                .kind(gate)
                .gate_kind()
                .and_then(GateKind::controlling_value)
                .expect("deferred gates are AND/OR-family");
            let controls = |f: NodeId| witness.value(f, column) == cv;
            let fanins = nl.fanins(gate);
            if !fanins.iter().any(|&f| controls(f) && self.is_required(f)) {
                let pick = fanins
                    .iter()
                    .copied()
                    .filter(|&f| controls(f))
                    .min_by_key(|&f| self.scoap.cc(f, cv))
                    .expect("a controlled gate has a controlling input");
                self.require(pick, witness, column);
            }
        }
        let bit = |&i: &NodeId| match self.is_required(i) {
            true => Tri::from_bool(witness.value(i, column)),
            false => Tri::X,
        };
        Cube::from_tris(nl.inputs().iter().map(bit).collect())
    }

    fn is_required(&self, id: NodeId) -> bool {
        self.required[id.index()] == self.stamp
    }

    /// Marks `id` required (once) and queues it: controlled gates wait
    /// for a decision, every other node places all of its inputs.
    fn require(&mut self, id: NodeId, witness: &NodeValues, column: usize) {
        if self.is_required(id) {
            return;
        }
        self.required[id.index()] = self.stamp;
        let controlled = match self.nl.kind(id) {
            NodeKind::Input => false,
            NodeKind::Gate(kind) => kind.controlling_value().is_some_and(|cv| {
                let fanins = self.nl.fanins(id);
                fanins.iter().any(|&f| witness.value(f, column) == cv)
            }),
            NodeKind::Dff => panic!("lifting needs a combinational or scan-cut netlist"),
        };
        if controlled {
            let level = self.levels[id.index()];
            self.deferred.push((level, id.index() as u32));
        } else {
            self.forced.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;
    use htforge_sim::tri::justifies;
    use htforge_sim::{PatternSet, SimProgram};

    /// Lifts `y` off `vector` (over inputs a, b, c, e) in a netlist of
    /// `gates`, checks that the cube justifies it and prints the cube.
    fn lift_y(gates: &str, vector: &str) -> String {
        let src = format!("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(e)\nOUTPUT(y)\n{gates}");
        let nl = bench::parse(&src, "t").unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let bits: Vec<bool> = vector.chars().map(|c| c == '1').collect();
        let values = SimProgram::compile(&nl)
            .unwrap()
            .run(&PatternSet::from_vectors(4, &[bits]));
        let y = nl.find("y").unwrap();
        let value = values.value(y, 0);
        let mut lifter = Lifter::new(&nl, &scoap).unwrap();
        let cube = lifter.lift(y, value, &values, 0);
        assert!(justifies(&nl, cube.bits(), y, value).unwrap());
        cube.to_string()
    }

    #[test]
    fn each_gate_keeps_the_inputs_its_rule_names() {
        // One 0 of an AND suffices; a and c are equally cheap, a is first.
        assert_eq!(lift_y("y = AND(a, b, c)\n", "0100"), "0XXX");
        // Without a controlling input, every input is required.
        assert_eq!(lift_y("y = NAND(a, b, c)\n", "1110"), "111X");
        assert_eq!(lift_y("y = XOR(a, b)\n", "1000"), "10XX");
        // e costs one input, d three.
        assert_eq!(lift_y("d = AND(a, b, c)\ny = OR(d, e)\n", "1111"), "XXX1");
        // q is decided first (same level, higher id) and keeps b, the
        // first of two equally cheap inputs; p then reuses b.
        let reconvergent = "p = OR(a, b)\nq = OR(b, c)\ny = AND(p, q)\n";
        assert_eq!(lift_y(reconvergent, "1110"), "X1XX");
    }
}
