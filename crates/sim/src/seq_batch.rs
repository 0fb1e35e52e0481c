//! Batched (64-traces-per-word) cycle-accurate sequential simulation.
//!
//! [`crate::sequential::SequentialSimulator`] steps **one** functional
//! trace per clock cycle through the compiled kernel, wasting 63/64 of
//! every machine word. [`BatchedSequentialSimulator`] packs 64
//! independent traces into each word instead: every cycle is one
//! bit-parallel [`SimProgram`] run over a frame whose columns are the
//! per-trace primary inputs plus the packed DFF state, and the D-driver
//! columns of the result are copied back as next-cycle state — the
//! scan-cut feedback loop closed word-at-a-time. Batches wider than 64
//! traces just add words per node to the same run.
//!
//! [`FirstFireMonitor`] rides along for trojan campaigns: fed one node's
//! packed values per cycle, it records the first cycle each trace saw a
//! 1 (a first-set-bit scan over fresh bits), so per-trace
//! trigger-activation and detection latencies come out of a single
//! batched pass.
//!
//! Semantics are **bit-identical** to stepping each trace through the
//! scalar simulator — proven by the differential/property harness in
//! `tests/differential_seq.rs`.

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError};

use crate::patterns::PatternSet;
use crate::program::SimProgram;
use crate::simulator::NodeValues;

/// A sequential simulator stepping many independent traces per cycle.
///
/// # Examples
///
/// A 1-bit toggle stepped over two traces with different stimuli:
///
/// ```
/// use htforge_netlist::bench;
/// use htforge_sim::{seq_batch::BatchedSequentialSimulator, PatternSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "INPUT(en)\nOUTPUT(q)\nd = XOR(en, q)\nq = DFF(d)\n";
/// let nl = bench::parse(src, "toggle")?;
/// let mut sim = BatchedSequentialSimulator::new(&nl, 2)?;
/// // Trace 0 enables the toggle, trace 1 holds.
/// sim.step(&PatternSet::from_vectors(1, &[vec![true], vec![false]]));
/// assert!(sim.state_bit(0, 0));
/// assert!(!sim.state_bit(0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchedSequentialSimulator {
    cut: Netlist,
    prog: SimProgram,
    traces: usize,
    primary_inputs: usize,
    /// D drivers of each DFF (ids valid in `cut`), in `dffs()` order.
    d_drivers: Vec<NodeId>,
    /// The standing input frame: `primary_inputs` stimulus columns
    /// followed by one packed state column per DFF (the scan-cut pseudo
    /// primary inputs, in the same order `scan_cut` appends them).
    frame: PatternSet,
    last: Option<NodeValues>,
    cycles_run: u64,
    /// Cached handle for the global `seq.trace_cycles` counter (see
    /// DESIGN.md §8): one atomic add per [`step`], no name lookup.
    ///
    /// [`step`]: BatchedSequentialSimulator::step
    trace_cycles: htforge_obs::Counter,
}

impl BatchedSequentialSimulator {
    /// Builds a batched simulator for `nl` holding `traces` independent
    /// traces, all flops initialized to 0 in every trace.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of `nl` is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `traces == 0`.
    pub fn new(nl: &Netlist, traces: usize) -> Result<Self, NetlistError> {
        assert!(traces > 0, "need at least one trace");
        let d_drivers: Vec<NodeId> = nl.dffs().iter().map(|&q| nl.node(q).fanins()[0]).collect();
        let primary_inputs = nl.inputs().len();
        let cut = nl.scan_cut();
        let prog = SimProgram::compile(&cut)?;
        let frame = PatternSet::zeros(primary_inputs + d_drivers.len(), traces);
        Ok(BatchedSequentialSimulator {
            cut,
            prog,
            traces,
            primary_inputs,
            d_drivers,
            frame,
            last: None,
            cycles_run: 0,
            trace_cycles: htforge_obs::counter("seq.trace_cycles"),
        })
    }

    /// Number of traces stepped per cycle.
    #[must_use]
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Number of primary inputs each per-cycle stimulus must provide.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.primary_inputs
    }

    /// Number of DFFs (state bits per trace).
    #[must_use]
    pub fn num_dffs(&self) -> usize {
        self.d_drivers.len()
    }

    /// Cycles stepped since construction or the last [`reset`].
    ///
    /// [`reset`]: BatchedSequentialSimulator::reset
    #[must_use]
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The scan-cut netlist the simulator runs on (node ids are shared
    /// with the original netlist).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.cut
    }

    /// Packed state words of flop `flop` (bit `t % 64` of word `t / 64`
    /// is trace `t`).
    ///
    /// # Panics
    ///
    /// Panics if `flop` is out of range.
    #[must_use]
    pub fn state_words(&self, flop: usize) -> &[u64] {
        assert!(flop < self.num_dffs(), "flop {flop} out of range");
        self.frame.input_words(self.primary_inputs + flop)
    }

    /// State of flop `flop` in trace `trace`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn state_bit(&self, flop: usize, trace: usize) -> bool {
        assert!(flop < self.num_dffs(), "flop {flop} out of range");
        self.frame.get(self.primary_inputs + flop, trace)
    }

    /// Overwrites the state of flop `flop` in trace `trace` (e.g. to
    /// model a per-trace reset value). Invalidates [`values`].
    ///
    /// [`values`]: BatchedSequentialSimulator::values
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_state_bit(&mut self, flop: usize, trace: usize, value: bool) {
        assert!(flop < self.num_dffs(), "flop {flop} out of range");
        self.frame.set(self.primary_inputs + flop, trace, value);
        self.last = None;
    }

    /// The full flop state of one trace, in `dffs()` order.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    #[must_use]
    pub fn state_of_trace(&self, trace: usize) -> Vec<bool> {
        (0..self.num_dffs())
            .map(|k| self.frame.get(self.primary_inputs + k, trace))
            .collect()
    }

    /// Overwrites the full flop state of one trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or `state.len()` differs from
    /// the DFF count.
    pub fn set_state_of_trace(&mut self, trace: usize, state: &[bool]) {
        assert_eq!(state.len(), self.num_dffs(), "state width mismatch");
        for (k, &bit) in state.iter().enumerate() {
            self.frame.set(self.primary_inputs + k, trace, bit);
        }
        self.last = None;
    }

    /// Resets every flop of every trace to 0 and the cycle counter to 0.
    pub fn reset(&mut self) {
        let words = PatternSet::words_for(self.traces);
        let zero = vec![0u64; words];
        for k in 0..self.num_dffs() {
            self.frame.set_input_words(self.primary_inputs + k, &zero);
        }
        self.last = None;
        self.cycles_run = 0;
    }

    /// Applies one clock cycle: `stimulus` column `i`, trace `t` is the
    /// value of primary input `i` in trace `t` this cycle. Combinational
    /// values settle in one bit-parallel kernel run, then every DFF of
    /// every trace captures its D input.
    ///
    /// Returns the settled values of this cycle (every node × every
    /// trace), also retrievable later via [`values`].
    ///
    /// [`values`]: BatchedSequentialSimulator::values
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` has the wrong input count or trace count.
    pub fn step(&mut self, stimulus: &PatternSet) -> &NodeValues {
        assert_eq!(
            stimulus.num_inputs(),
            self.primary_inputs,
            "stimulus input count mismatch"
        );
        assert_eq!(stimulus.len(), self.traces, "stimulus trace count mismatch");
        for i in 0..self.primary_inputs {
            self.frame.set_input_words(i, stimulus.input_words(i));
        }
        let values = self.prog.run(&self.frame);
        for (k, &d) in self.d_drivers.iter().enumerate() {
            self.frame
                .set_input_words(self.primary_inputs + k, values.words(d));
        }
        self.cycles_run += 1;
        self.trace_cycles.add(self.traces as u64);
        self.last.insert(values)
    }

    /// Applies one clock cycle with the *same* input vector on every
    /// trace (broadcast). Useful when only initial states differ.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step_broadcast(&mut self, inputs: &[bool]) -> &NodeValues {
        assert_eq!(
            inputs.len(),
            self.primary_inputs,
            "stimulus input count mismatch"
        );
        let ps = PatternSet::broadcast(inputs, self.traces);
        self.step(&ps)
    }

    /// The settled values of the most recent [`step`] (`None` before the
    /// first step or after a state override).
    ///
    /// [`step`]: BatchedSequentialSimulator::step
    #[must_use]
    pub fn values(&self) -> Option<&NodeValues> {
        self.last.as_ref()
    }

    /// The settled value of `node` in `trace` after the most recent
    /// [`step`].
    ///
    /// [`step`]: BatchedSequentialSimulator::step
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    #[must_use]
    pub fn value(&self, node: NodeId, trace: usize) -> Option<bool> {
        self.last.as_ref().map(|v| v.value(node, trace))
    }

    /// The packed per-trace words of `node` after the most recent
    /// [`step`].
    ///
    /// [`step`]: BatchedSequentialSimulator::step
    #[must_use]
    pub fn node_words(&self, node: NodeId) -> Option<&[u64]> {
        self.last.as_ref().map(|v| v.words(node))
    }
}

/// Per-trace first-fire-cycle extraction over packed node values.
///
/// Feed it one packed word column per cycle (typically a trigger node's
/// [`NodeValues::words`], or an OR of golden-vs-suspect output XORs);
/// it scans only the *fresh* bits (`word & !fired`) with
/// `trailing_zeros`, so the steady-state cost per cycle is one AND and
/// one OR per 64 traces.
///
/// # Examples
///
/// ```
/// use htforge_sim::seq_batch::FirstFireMonitor;
///
/// let mut mon = FirstFireMonitor::new(3);
/// mon.observe(&[0b010]); // cycle 0: trace 1 fires
/// mon.observe(&[0b011]); // cycle 1: trace 0 fires, trace 1 stays high
/// assert_eq!(mon.first_fire(0), Some(1));
/// assert_eq!(mon.first_fire(1), Some(0));
/// assert_eq!(mon.first_fire(2), None);
/// assert_eq!(mon.earliest(), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct FirstFireMonitor {
    traces: usize,
    /// Traces that have fired so far, packed like the observed columns.
    fired: Vec<u64>,
    /// First cycle each trace fired, `u32::MAX` = never.
    first_cycle: Vec<u32>,
    cycle: u32,
}

impl FirstFireMonitor {
    const NEVER: u32 = u32::MAX;

    /// A monitor over `traces` traces, none fired, at cycle 0.
    #[must_use]
    pub fn new(traces: usize) -> Self {
        FirstFireMonitor {
            traces,
            fired: vec![0; PatternSet::words_for(traces)],
            first_cycle: vec![Self::NEVER; traces],
            cycle: 0,
        }
    }

    /// Number of traces monitored.
    #[must_use]
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Cycles observed so far.
    #[must_use]
    pub fn cycles_observed(&self) -> u32 {
        self.cycle
    }

    /// Records one cycle's packed values of the monitored node. Bits
    /// beyond the trace count are masked off internally, so callers may
    /// feed raw words from sources without the kernel's tail-masking
    /// guarantee (e.g. hand-built columns or inverted slices) without
    /// risking phantom fires or an out-of-bounds `first_cycle` index.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the monitor's word count.
    pub fn observe(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.fired.len(), "column word count mismatch");
        let last = words.len().wrapping_sub(1);
        let tail = PatternSet::tail_mask(self.traces);
        for (w, (&word, fired)) in words.iter().zip(&mut self.fired).enumerate() {
            let word = if w == last { word & tail } else { word };
            let mut fresh = word & !*fired;
            *fired |= word;
            while fresh != 0 {
                let t = fresh.trailing_zeros();
                self.first_cycle[w * 64 + t as usize] = self.cycle;
                fresh &= fresh - 1;
            }
        }
        self.cycle += 1;
    }

    /// First cycle (0-based) in which `trace` observed a 1, if any.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    #[must_use]
    pub fn first_fire(&self, trace: usize) -> Option<u32> {
        assert!(trace < self.traces, "trace {trace} out of range");
        match self.first_cycle[trace] {
            Self::NEVER => None,
            c => Some(c),
        }
    }

    /// Per-trace first-fire cycles (`None` = never fired).
    #[must_use]
    pub fn first_fire_cycles(&self) -> Vec<Option<u32>> {
        (0..self.traces).map(|t| self.first_fire(t)).collect()
    }

    /// Number of traces that have fired.
    #[must_use]
    pub fn fired_count(&self) -> usize {
        self.fired.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any trace has fired.
    #[must_use]
    pub fn any_fired(&self) -> bool {
        self.fired.iter().any(|&w| w != 0)
    }

    /// The earliest first-fire cycle across all traces.
    #[must_use]
    pub fn earliest(&self) -> Option<u32> {
        self.first_cycle
            .iter()
            .copied()
            .filter(|&c| c != Self::NEVER)
            .min()
    }

    /// Mean first-fire latency over the traces that fired.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        let fired: Vec<u32> = self
            .first_cycle
            .iter()
            .copied()
            .filter(|&c| c != Self::NEVER)
            .collect();
        if fired.is_empty() {
            None
        } else {
            Some(fired.iter().map(|&c| f64::from(c)).sum::<f64>() / fired.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialSimulator;
    use htforge_netlist::bench;

    /// 2-bit counter that increments while `en` is high.
    const COUNTER2: &str = "\
INPUT(en)
OUTPUT(q1)
d0 = XOR(en, q0)
c0 = AND(en, q0)
d1 = XOR(c0, q1)
q0 = DFF(d0)
q1 = DFF(d1)
";

    fn counter_value(sim: &BatchedSequentialSimulator, trace: usize) -> u8 {
        u8::from(sim.state_bit(0, trace)) + 2 * u8::from(sim.state_bit(1, trace))
    }

    #[test]
    fn counters_advance_independently_per_trace() {
        let nl = bench::parse(COUNTER2, "cnt").unwrap();
        let mut sim = BatchedSequentialSimulator::new(&nl, 3).unwrap();
        // Trace 0 counts every cycle, trace 1 every other cycle, trace 2
        // never.
        for cycle in 0..5 {
            let stim =
                PatternSet::from_vectors(1, &[vec![true], vec![cycle % 2 == 0], vec![false]]);
            sim.step(&stim);
        }
        assert_eq!(counter_value(&sim, 0), 5 % 4);
        assert_eq!(counter_value(&sim, 1), 3);
        assert_eq!(counter_value(&sim, 2), 0);
        assert_eq!(sim.cycles_run(), 5);
    }

    #[test]
    fn matches_scalar_on_65_traces() {
        let nl = bench::parse(COUNTER2, "cnt").unwrap();
        let traces = 65;
        let cycles = 9;
        let mut batched = BatchedSequentialSimulator::new(&nl, traces).unwrap();
        let mut scalars: Vec<SequentialSimulator> = (0..traces)
            .map(|_| SequentialSimulator::new(&nl).unwrap())
            .collect();
        for cycle in 0..cycles {
            let stim = PatternSet::random(1, traces, 0xAB + cycle as u64);
            batched.step(&stim);
            for (t, scalar) in scalars.iter_mut().enumerate() {
                scalar.step(&stim.pattern(t)).unwrap();
                assert_eq!(
                    batched.state_of_trace(t),
                    scalar.state(),
                    "trace {t} cycle {cycle}"
                );
            }
        }
    }

    #[test]
    fn broadcast_step_equals_uniform_stimulus() {
        let nl = bench::parse(COUNTER2, "cnt").unwrap();
        let mut a = BatchedSequentialSimulator::new(&nl, 70).unwrap();
        let mut b = BatchedSequentialSimulator::new(&nl, 70).unwrap();
        a.step_broadcast(&[true]);
        b.step(&PatternSet::broadcast(&[true], 70));
        for t in 0..70 {
            assert_eq!(a.state_of_trace(t), b.state_of_trace(t));
        }
    }

    #[test]
    fn per_trace_reset_states_are_honoured() {
        let nl = bench::parse(COUNTER2, "cnt").unwrap();
        let mut sim = BatchedSequentialSimulator::new(&nl, 4).unwrap();
        for trace in 0..4 {
            let v = trace as u8;
            sim.set_state_of_trace(trace, &[v & 1 == 1, v & 2 == 2]);
        }
        assert!(sim.values().is_none(), "state override invalidates values");
        sim.step_broadcast(&[true]);
        for trace in 0..4 {
            assert_eq!(counter_value(&sim, trace), (trace as u8 + 1) % 4);
        }
        sim.reset();
        assert_eq!(sim.cycles_run(), 0);
        for trace in 0..4 {
            assert_eq!(counter_value(&sim, trace), 0);
        }
    }

    #[test]
    fn combinational_netlist_has_no_state() {
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let mut sim = BatchedSequentialSimulator::new(&nl, 66).unwrap();
        assert_eq!(sim.num_dffs(), 0);
        let stim = PatternSet::random(1, 66, 3);
        sim.step(&stim);
        let y = nl.find("y").unwrap();
        for t in 0..66 {
            assert_eq!(sim.value(y, t), Some(!stim.get(0, t)));
        }
    }

    #[test]
    #[should_panic(expected = "trace count mismatch")]
    fn wrong_trace_count_panics() {
        let nl = bench::parse(COUNTER2, "cnt").unwrap();
        let mut sim = BatchedSequentialSimulator::new(&nl, 8).unwrap();
        sim.step(&PatternSet::zeros(1, 9));
    }

    #[test]
    fn monitor_masks_raw_unmasked_tail_words() {
        // 70 traces = 2 words with only 6 live bits in the last word.
        // Feed raw all-ones words (as an inverting-gate slice without
        // tail masking would produce): the monitor must neither record
        // phantom fires for traces 70..127 nor index out of bounds.
        let mut mon = FirstFireMonitor::new(70);
        mon.observe(&[u64::MAX, u64::MAX]);
        assert_eq!(mon.fired_count(), 70);
        assert_eq!(mon.first_fire(0), Some(0));
        assert_eq!(mon.first_fire(69), Some(0));
        assert_eq!(mon.first_fire_cycles().len(), 70);

        // Word-aligned trace count: the mask must be all-ones, not 0.
        let mut aligned = FirstFireMonitor::new(64);
        aligned.observe(&[u64::MAX]);
        assert_eq!(aligned.fired_count(), 64);
    }

    #[test]
    fn monitor_tracks_first_fire_across_words() {
        let mut mon = FirstFireMonitor::new(130);
        let mut col = vec![0u64; 3];
        mon.observe(&col); // cycle 0: nothing
        col[1] = 1 << 5; // trace 69
        mon.observe(&col); // cycle 1
        col[2] = 0b10; // trace 129
        mon.observe(&col); // cycle 2: 69 stays high, 129 fires
        assert_eq!(mon.first_fire(69), Some(1));
        assert_eq!(mon.first_fire(129), Some(2));
        assert_eq!(mon.first_fire(0), None);
        assert_eq!(mon.fired_count(), 2);
        assert_eq!(mon.earliest(), Some(1));
        assert_eq!(mon.cycles_observed(), 3);
        assert!((mon.mean_latency().unwrap() - 1.5).abs() < 1e-12);
    }
}
