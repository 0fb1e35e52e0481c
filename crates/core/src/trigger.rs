//! Trigger-logic synthesis — the paper's Fig. 1 construction (§III-D).
//!
//! The trigger tree is built backward-compatible with the *output-bias
//! discipline*: every gate in the tree produces its **rare output** (the
//! value a `k`-input gate of that kind emits with probability `1/2^k`)
//! exactly when the trojan activates, so every internal trigger node is
//! itself a rare signal. Only `AND`, `NAND`, `OR`, `NOR` are used and no
//! inverters are inserted:
//!
//! * rare-value-1 trigger nodes feed `AND`/`NAND` gates (activated by
//!   all-1 inputs),
//! * rare-value-0 trigger nodes feed `OR`/`NOR` gates (activated by
//!   all-0 inputs),
//! * levels alternate `NAND` ↔ `NOR` upward (Fig. 1), terminating in an
//!   `AND`/`NOR` root whose activation value is 1.

use htforge_netlist::GateKind;

/// A signal inside a [`TriggerPlan`]: either one of the trojan's trigger
/// (rare) nodes, or the output of an earlier planned gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSignal {
    /// Index into the plan's trigger-node list.
    Leaf(usize),
    /// Index into [`TriggerPlan::gates`].
    Gate(usize),
}

/// One gate of the planned trigger tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedGate {
    /// Gate kind (always one of `AND`, `NAND`, `OR`, `NOR`).
    pub kind: GateKind,
    /// Inputs, in order.
    pub inputs: Vec<PlanSignal>,
    /// The value this gate outputs when the trojan activates
    /// (equal to `kind.rare_output()`).
    pub activation_value: bool,
}

/// A netlist-independent description of one trigger tree.
///
/// Build with [`TriggerPlan::synthesize`], instantiate into a netlist
/// with [`crate::insert`].
///
/// # Examples
///
/// ```
/// use htforge_core::TriggerPlan;
///
/// // Six trigger nodes: four rare-1, two rare-0, max fan-in 4.
/// let plan = TriggerPlan::synthesize(
///     &[true, true, true, true, false, false], 4);
/// assert!(plan.output_activation_value());
/// assert!(plan.gates().len() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerPlan {
    rare_values: Vec<bool>,
    gates: Vec<PlannedGate>,
    output: PlanSignal,
}

impl TriggerPlan {
    /// Synthesizes a trigger tree over trigger nodes with the given rare
    /// values, using gates of fan-in at most `max_fanin`.
    ///
    /// The tree output is 1 exactly when **all** trigger nodes sit at
    /// their rare values (verified exhaustively by [`TriggerPlan::eval`]
    /// in the test suite).
    ///
    /// # Panics
    ///
    /// Panics if `rare_values` is empty or `max_fanin < 2`.
    #[must_use]
    pub fn synthesize(rare_values: &[bool], max_fanin: usize) -> Self {
        assert!(!rare_values.is_empty(), "trigger needs at least one node");
        assert!(max_fanin >= 2, "trigger gates need fan-in of at least 2");

        let mut gates: Vec<PlannedGate> = Vec::new();
        // Working set: signals with their value at activation.
        let mut signals: Vec<(PlanSignal, bool)> = rare_values
            .iter()
            .enumerate()
            .map(|(i, &v)| (PlanSignal::Leaf(i), v))
            .collect();

        let push_gate = |gates: &mut Vec<PlannedGate>, kind: GateKind, inputs: Vec<PlanSignal>| {
            let activation_value = kind.rare_output().expect("bias-disciplined kind");
            gates.push(PlannedGate {
                kind,
                inputs,
                activation_value,
            });
            (PlanSignal::Gate(gates.len() - 1), activation_value)
        };

        loop {
            if signals.len() == 1 {
                let (sig, val) = signals[0];
                if val {
                    return TriggerPlan {
                        rare_values: rare_values.to_vec(),
                        gates,
                        output: sig,
                    };
                }
                // A single 0-valued signal: flip through a 1-input NOR
                // (functionally an inverter, but stays in the OR family so
                // the bias discipline holds: NOR outputs 1 rarely).
                signals[0] = push_gate(&mut gates, GateKind::Nor, vec![sig]);
                continue;
            }

            let ones: Vec<PlanSignal> = signals
                .iter()
                .filter(|(_, v)| *v)
                .map(|(s, _)| *s)
                .collect();
            let zeros: Vec<PlanSignal> = signals
                .iter()
                .filter(|(_, v)| !*v)
                .map(|(s, _)| *s)
                .collect();

            // Terminal case: few enough homogeneous signals for one root
            // gate whose activation value is 1.
            if zeros.is_empty() && ones.len() <= max_fanin {
                let (out, _) = push_gate(&mut gates, GateKind::And, ones);
                return TriggerPlan {
                    rare_values: rare_values.to_vec(),
                    gates,
                    output: out,
                };
            }
            if ones.is_empty() && zeros.len() <= max_fanin {
                let (out, _) = push_gate(&mut gates, GateKind::Nor, zeros);
                return TriggerPlan {
                    rare_values: rare_values.to_vec(),
                    gates,
                    output: out,
                };
            }

            // Combine one level: all-1 groups through NAND (→ 0), all-0
            // groups through NOR (→ 1) — the Fig. 1 alternation. Chunks of
            // size 1 pass through untouched unless that would stall.
            let mut next: Vec<(PlanSignal, bool)> = Vec::new();
            let mut made_progress = false;
            for chunk in ones.chunks(max_fanin) {
                if chunk.len() == 1 {
                    next.push((chunk[0], true));
                } else {
                    next.push(push_gate(&mut gates, GateKind::Nand, chunk.to_vec()));
                    made_progress = true;
                }
            }
            for chunk in zeros.chunks(max_fanin) {
                if chunk.len() == 1 {
                    next.push((chunk[0], false));
                } else {
                    next.push(push_gate(&mut gates, GateKind::Nor, chunk.to_vec()));
                    made_progress = true;
                }
            }
            if !made_progress {
                // Mixed pair {1-signal, 0-signal}: lift the 0 to a 1 via a
                // 1-input NOR so the pair can merge next round.
                let zero_pos = next
                    .iter()
                    .position(|(_, v)| !*v)
                    .expect("stall implies a mixed pair");
                let sig = next[zero_pos].0;
                next[zero_pos] = push_gate(&mut gates, GateKind::Nor, vec![sig]);
            }
            signals = next;
        }
    }

    /// The rare values of the trigger nodes, in leaf order.
    #[must_use]
    pub fn rare_values(&self) -> &[bool] {
        &self.rare_values
    }

    /// The planned gates, in instantiation order (inputs always precede
    /// consumers).
    #[must_use]
    pub fn gates(&self) -> &[PlannedGate] {
        &self.gates
    }

    /// The tree's output signal.
    #[must_use]
    pub fn output(&self) -> PlanSignal {
        self.output
    }

    /// Number of trigger (leaf) nodes.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.rare_values.len()
    }

    /// Activation value at the output (always `true` by construction).
    #[must_use]
    pub fn output_activation_value(&self) -> bool {
        match self.output {
            PlanSignal::Leaf(i) => self.rare_values[i],
            PlanSignal::Gate(g) => self.gates[g].activation_value,
        }
    }

    /// Evaluates the tree for concrete leaf values (reference semantics
    /// used by tests and by the area model).
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len()` differs from [`TriggerPlan::num_leaves`].
    #[must_use]
    pub fn eval(&self, leaves: &[bool]) -> bool {
        assert_eq!(leaves.len(), self.num_leaves(), "leaf count mismatch");
        let mut values = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let ins: Vec<bool> = gate
                .inputs
                .iter()
                .map(|s| match *s {
                    PlanSignal::Leaf(i) => leaves[i],
                    PlanSignal::Gate(g) => values[g],
                })
                .collect();
            values.push(gate.kind.eval_bool(&ins));
        }
        match self.output {
            PlanSignal::Leaf(i) => leaves[i],
            PlanSignal::Gate(g) => values[g],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trigger must output 1 iff every leaf is at its rare value.
    fn assert_exact_activation(rare_values: &[bool], max_fanin: usize) {
        let plan = TriggerPlan::synthesize(rare_values, max_fanin);
        let q = rare_values.len();
        assert!(q <= 16, "exhaustive check limited to 16 leaves");
        for pattern in 0u32..(1 << q) {
            let leaves: Vec<bool> = (0..q).map(|i| (pattern >> i) & 1 == 1).collect();
            let expected = leaves.iter().zip(rare_values).all(|(&l, &r)| l == r);
            assert_eq!(
                plan.eval(&leaves),
                expected,
                "rare={rare_values:?} fanin={max_fanin} leaves={leaves:?}"
            );
        }
    }

    #[test]
    fn exact_activation_small_shapes() {
        assert_exact_activation(&[true], 2);
        assert_exact_activation(&[false], 2);
        assert_exact_activation(&[true, true], 2);
        assert_exact_activation(&[true, false], 2);
        assert_exact_activation(&[false, false], 2);
        assert_exact_activation(&[true, false, true], 2);
        assert_exact_activation(&[false, false, false, false], 2);
    }

    #[test]
    fn exact_activation_mixed_wide() {
        for q in 5..=10 {
            for fanin in [2, 3, 4] {
                // Alternating rare values stress the grouping logic.
                let rare: Vec<bool> = (0..q).map(|i| i % 2 == 0).collect();
                assert_exact_activation(&rare, fanin);
                // All-1 and all-0 shapes.
                assert_exact_activation(&vec![true; q], fanin);
                assert_exact_activation(&vec![false; q], fanin);
            }
        }
    }

    #[test]
    fn only_bias_disciplined_gates_used() {
        let rare: Vec<bool> = (0..25).map(|i| i % 3 == 0).collect();
        let plan = TriggerPlan::synthesize(&rare, 4);
        for gate in plan.gates() {
            assert!(
                matches!(
                    gate.kind,
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
                ),
                "unexpected kind {:?}",
                gate.kind
            );
            // Every gate's activation value is its rare output.
            assert_eq!(Some(gate.activation_value), gate.kind.rare_output());
        }
        assert!(plan.output_activation_value());
    }

    #[test]
    fn leaves_feed_matching_gate_families() {
        // Rare-1 leaves must enter AND/NAND, rare-0 leaves OR/NOR (§III-D).
        let rare: Vec<bool> = (0..12).map(|i| i % 2 == 0).collect();
        let plan = TriggerPlan::synthesize(&rare, 3);
        for gate in plan.gates() {
            for input in &gate.inputs {
                if let PlanSignal::Leaf(i) = *input {
                    if rare[i] {
                        assert!(
                            matches!(gate.kind, GateKind::And | GateKind::Nand),
                            "rare-1 leaf {i} feeds {:?}",
                            gate.kind
                        );
                    } else {
                        assert!(
                            matches!(gate.kind, GateKind::Or | GateKind::Nor),
                            "rare-0 leaf {i} feeds {:?}",
                            gate.kind
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn large_trigger_tree_q125() {
        // The paper advertises 25–125 trigger nodes.
        let rare: Vec<bool> = (0..125).map(|i| i % 5 != 0).collect();
        let plan = TriggerPlan::synthesize(&rare, 4);
        assert_eq!(plan.num_leaves(), 125);
        assert!(plan.output_activation_value());
        // Spot-check: all-rare activates, one flip deactivates.
        let mut leaves = rare.clone();
        assert!(plan.eval(&leaves));
        leaves[7] = !leaves[7];
        assert!(!plan.eval(&leaves));
        leaves[7] = !leaves[7];
        leaves[124] = !leaves[124];
        assert!(!plan.eval(&leaves));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_trigger_panics() {
        let _ = TriggerPlan::synthesize(&[], 4);
    }
}
