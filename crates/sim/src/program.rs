//! Compiled bit-parallel simulation kernel.
//!
//! [`SimProgram`] lowers a [`Netlist`] **once** into a flat instruction
//! tape and then evaluates pattern sets against that tape, instead of
//! re-walking the graph gate-by-gate the way the original interpreter
//! did. Two properties make the tape fast:
//!
//! * **SoA layout, no per-gate allocation.** The tape is four parallel
//!   arrays — opcode, destination, fanin offset, and one contiguous
//!   fanin-index pool — so the inner loop is a linear scan with no enum
//!   dispatch over [`htforge_netlist::NodeKind`], no `Vec`
//!   scratch per gate, and specialized opcodes for the 1- and 2-input
//!   gates that dominate real netlists.
//! * **64 patterns per word.** Values are packed 64 patterns per word
//!   and stored node-major, so each step reads its fanins' word spans
//!   and writes its own in one streaming pass.
//!
//! [`SimProgram::run`] is one single-threaded walk over the whole tape.
//! Parallelism lives where the work is independent — fault workers in
//! the compatibility graph, the server's worker pool, per-circuit
//! campaigns — not inside one evaluation (see `DESIGN.md` §5 for the
//! measurements behind that choice). Output is bit-identical to the
//! gate-at-a-time scalar oracle — proven per node and pattern by
//! `tests/differential_sim.rs`.
//!
//! Every caller compiles a [`SimProgram`] and runs it directly: rare-node
//! extraction, the compatibility graph's cube checks, MERO, coverage
//! evaluation, fault simulation's good-machine run, trojan validation
//! and the server's circuit cache. [`crate::simulator::Simulator`] wraps
//! a program for the benchmark package, which builds against it.

use htforge_netlist::{netlist::NodeId, Netlist, NetlistError, NodeKind};

use crate::patterns::PatternSet;
use crate::simulator::NodeValues;

/// Opcode of one tape step. 1- and 2-input gates get dedicated opcodes
/// (the common case in technology-mapped netlists); wider gates fall
/// back to the `*N` fold forms driven by the fanin pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpCode {
    /// Unary complement (also NAND/NOR/XNOR of one input).
    Not,
    /// Unary copy (also AND/OR/XOR of one input).
    Buf,
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    AndN,
    NandN,
    OrN,
    NorN,
    XorN,
    XnorN,
}

/// A netlist compiled to a flat simulation tape.
///
/// # Examples
///
/// ```
/// use htforge_netlist::bench;
/// use htforge_sim::{PatternSet, SimProgram};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "t")?;
/// let prog = SimProgram::compile(&nl)?;
/// let ps = PatternSet::from_vectors(2, &[vec![true, false], vec![true, true]]);
/// let vals = prog.run(&ps);
/// let y = nl.find("y").unwrap();
/// assert!(vals.value(y, 0));
/// assert!(!vals.value(y, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimProgram {
    node_count: usize,
    /// `(node, column index into the PatternSet)` for each primary input.
    input_positions: Vec<(NodeId, usize)>,
    /// Per-step opcode, in level-sorted topological order.
    ops: Vec<OpCode>,
    /// Per-step destination node index.
    dsts: Vec<u32>,
    /// Per-step offset into `pool`; length `ops.len() + 1` so step `s`
    /// reads `pool[offs[s]..offs[s + 1]]`.
    offs: Vec<u32>,
    /// Contiguous fanin node indices for every step.
    pool: Vec<u32>,
    /// Observability handles, fetched once at compile time so each run
    /// records with one atomic add (`sim.kernel_words`) plus one gauge
    /// store, and — only when the recorder is enabled — a throughput
    /// gauge update and a `sim.kernel_run` span.
    metrics: KernelMetrics,
}

#[derive(Debug, Clone)]
struct KernelMetrics {
    words: htforge_obs::Counter,
    throughput: htforge_obs::Gauge,
    /// The host's available parallelism, set alongside the throughput
    /// gauge so a `sim.kernel_words_per_sec` reading from a single-core
    /// CI container is machine-distinguishable from a many-core host
    /// number (matches the `host_threads` column of the
    /// `BENCH_sim.json` rows).
    host_threads: htforge_obs::Gauge,
}

impl KernelMetrics {
    fn from_global() -> Self {
        KernelMetrics {
            words: htforge_obs::counter("sim.kernel_words"),
            throughput: htforge_obs::gauge("sim.kernel_words_per_sec"),
            host_threads: htforge_obs::gauge("sim.host_threads"),
        }
    }
}

impl SimProgram {
    /// Lowers `nl` into a simulation tape (level-sorted topological
    /// order, SoA arrays, specialized opcodes).
    ///
    /// Sequential netlists are accepted under the same convention as
    /// [`crate::simulator::Simulator`]: DFF Q outputs listed in
    /// `nl.inputs()` (scan-cut netlists) are free inputs; other DFF
    /// outputs simulate as constant 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of `nl` is cyclic.
    pub fn compile(nl: &Netlist) -> Result<Self, NetlistError> {
        // The netlist caches its level column; `level_order` is a
        // counting sort over it — already level-sorted, ties in id
        // order. Since every fanin of a level-L gate sits at a level
        // < L, the level-sorted tape is a valid topological order.
        let node_count = nl.node_count();
        let input_positions: Vec<(NodeId, usize)> = nl
            .inputs()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, pos))
            .collect();

        let steps: Vec<NodeId> = nl
            .level_order()?
            .into_iter()
            .filter(|&id| matches!(nl.node(id).kind(), NodeKind::Gate(_)))
            .collect();

        let mut ops = Vec::with_capacity(steps.len());
        let mut dsts = Vec::with_capacity(steps.len());
        let mut offs = vec![0u32];
        let mut pool: Vec<u32> = Vec::new();

        for &id in &steps {
            let node = nl.node(id);
            let kind = match node.kind() {
                NodeKind::Gate(k) => k,
                NodeKind::Input | NodeKind::Dff => unreachable!("steps are gates"),
            };
            let fanins = node.fanins();
            let op = match fanins.len() {
                1 => {
                    if kind.is_inverting() {
                        OpCode::Not
                    } else {
                        OpCode::Buf
                    }
                }
                2 => {
                    use htforge_netlist::GateKind as G;
                    match kind {
                        G::And => OpCode::And2,
                        G::Nand => OpCode::Nand2,
                        G::Or => OpCode::Or2,
                        G::Nor => OpCode::Nor2,
                        G::Xor => OpCode::Xor2,
                        G::Xnor => OpCode::Xnor2,
                        // Unary kinds never have two fanins (validated
                        // by the netlist), but stay total anyway.
                        G::Not => OpCode::Not,
                        G::Buf => OpCode::Buf,
                    }
                }
                _ => {
                    use htforge_netlist::GateKind as G;
                    match kind {
                        G::And => OpCode::AndN,
                        G::Nand => OpCode::NandN,
                        G::Or => OpCode::OrN,
                        G::Nor => OpCode::NorN,
                        G::Xor => OpCode::XorN,
                        G::Xnor => OpCode::XnorN,
                        G::Not => OpCode::Not,
                        G::Buf => OpCode::Buf,
                    }
                }
            };
            ops.push(op);
            dsts.push(id.index() as u32);
            pool.extend(fanins.iter().map(|f| f.index() as u32));
            offs.push(pool.len() as u32);
        }

        // Kernel safety invariant: every node index on the tape is in
        // bounds, so the hot loop can use unchecked accesses.
        assert!(
            pool.iter().all(|&f| (f as usize) < node_count),
            "fanin index out of bounds"
        );
        assert!(
            dsts.iter().all(|&d| (d as usize) < node_count),
            "destination index out of bounds"
        );

        Ok(SimProgram {
            node_count,
            input_positions,
            ops,
            dsts,
            offs,
            pool,
            metrics: KernelMetrics::from_global(),
        })
    }

    /// Number of nodes in the compiled netlist.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of compiled gate steps.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.ops.len()
    }

    /// Number of primary-input columns the program expects.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_positions.len()
    }

    /// Simulates `patterns`: one walk over the tape on the calling
    /// thread, 64 patterns per word.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.num_inputs()` differs from the compiled
    /// netlist's input count.
    #[must_use]
    pub fn run(&self, patterns: &PatternSet) -> NodeValues {
        assert_eq!(
            patterns.num_inputs(),
            self.input_positions.len(),
            "pattern width does not match netlist input count"
        );
        // Timing and the span only when the recorder is enabled: the
        // disabled path stays the kernel plus one atomic add and one
        // relaxed store.
        let enabled = htforge_obs::enabled();
        let started = enabled.then(std::time::Instant::now);
        let mut span = enabled.then(|| htforge_obs::span("sim.kernel_run"));

        let len = patterns.len();
        let width = PatternSet::words_for(len);
        // Zero-initialized: unconnected DFF outputs read as constant 0
        // (reset state).
        let mut buf = vec![0u64; self.node_count * width];
        if width > 0 {
            for &(node, pos) in &self.input_positions {
                let base = node.index() * width;
                buf[base..base + width].copy_from_slice(patterns.input_words(pos));
            }
            self.walk(&mut buf, width, PatternSet::tail_mask(len));
        }

        let words_done = (self.steps() * width) as u64;
        self.metrics.words.add(words_done);
        self.metrics
            .host_threads
            .set(htforge_obs::host_threads() as f64);
        if let Some(span) = &mut span {
            span.attr("words", width.to_string());
            span.attr("host_threads", htforge_obs::host_threads().to_string());
        }
        if let Some(t0) = started {
            let dt = t0.elapsed().as_secs_f64();
            if dt > 0.0 {
                self.metrics.throughput.set(words_done as f64 / dt);
            }
        }
        NodeValues::from_raw(len, width, buf)
    }

    /// The tape interpreter: evaluates every step over `buf`, which is
    /// node-major with `width` words per node (`buf[node * width + w]`)
    /// and already holds the input columns. `tail_mask` clears the
    /// unused bits of each node's last word so popcounts stay exact.
    fn walk(&self, buf: &mut [u64], width: usize, tail_mask: u64) {
        assert_eq!(buf.len(), self.node_count * width, "value buffer size");
        let mask = (tail_mask != u64::MAX).then_some(tail_mask);
        let p = buf.as_mut_ptr();
        let offs = &self.offs;
        let pool = &self.pool;
        for s in 0..self.ops.len() {
            // SAFETY (for the whole step): `compile` asserted every
            // destination and fanin index is < node_count and `buf`
            // spans node_count * width words, so `idx * width + w` with
            // `w < width` is in bounds; `s < ops.len()` and
            // `offs.len() == ops.len() + 1` bound the tape reads. Sources
            // and destination never alias within one step (a gate is not
            // its own fanin in an acyclic order), and distinct nodes'
            // spans are disjoint.
            unsafe {
                let op = *self.ops.get_unchecked(s);
                let d = *self.dsts.get_unchecked(s) as usize * width;
                let off = *offs.get_unchecked(s) as usize;
                let fanin = |k: usize| *pool.get_unchecked(off + k) as usize * width;
                match op {
                    OpCode::Not => {
                        let a = fanin(0);
                        for w in 0..width {
                            *p.add(d + w) = !*p.add(a + w);
                        }
                    }
                    OpCode::Buf => {
                        let a = fanin(0);
                        for w in 0..width {
                            *p.add(d + w) = *p.add(a + w);
                        }
                    }
                    OpCode::And2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = *p.add(a + w) & *p.add(b + w);
                        }
                    }
                    OpCode::Nand2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = !(*p.add(a + w) & *p.add(b + w));
                        }
                    }
                    OpCode::Or2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = *p.add(a + w) | *p.add(b + w);
                        }
                    }
                    OpCode::Nor2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = !(*p.add(a + w) | *p.add(b + w));
                        }
                    }
                    OpCode::Xor2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = *p.add(a + w) ^ *p.add(b + w);
                        }
                    }
                    OpCode::Xnor2 => {
                        let (a, b) = (fanin(0), fanin(1));
                        for w in 0..width {
                            *p.add(d + w) = !(*p.add(a + w) ^ *p.add(b + w));
                        }
                    }
                    OpCode::AndN | OpCode::NandN => {
                        let end = *offs.get_unchecked(s + 1) as usize;
                        std::ptr::copy_nonoverlapping(p.add(fanin(0)), p.add(d), width);
                        for &f in pool.get_unchecked(off + 1..end) {
                            let fb = f as usize * width;
                            for w in 0..width {
                                *p.add(d + w) &= *p.add(fb + w);
                            }
                        }
                        if op == OpCode::NandN {
                            for w in 0..width {
                                *p.add(d + w) = !*p.add(d + w);
                            }
                        }
                    }
                    OpCode::OrN | OpCode::NorN => {
                        let end = *offs.get_unchecked(s + 1) as usize;
                        std::ptr::copy_nonoverlapping(p.add(fanin(0)), p.add(d), width);
                        for &f in pool.get_unchecked(off + 1..end) {
                            let fb = f as usize * width;
                            for w in 0..width {
                                *p.add(d + w) |= *p.add(fb + w);
                            }
                        }
                        if op == OpCode::NorN {
                            for w in 0..width {
                                *p.add(d + w) = !*p.add(d + w);
                            }
                        }
                    }
                    OpCode::XorN | OpCode::XnorN => {
                        let end = *offs.get_unchecked(s + 1) as usize;
                        std::ptr::copy_nonoverlapping(p.add(fanin(0)), p.add(d), width);
                        for &f in pool.get_unchecked(off + 1..end) {
                            let fb = f as usize * width;
                            for w in 0..width {
                                *p.add(d + w) ^= *p.add(fb + w);
                            }
                        }
                        if op == OpCode::XnorN {
                            for w in 0..width {
                                *p.add(d + w) = !*p.add(d + w);
                            }
                        }
                    }
                }
                if let Some(m) = mask {
                    *p.add(d + width - 1) &= m;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_netlist::bench;

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

    #[test]
    fn compile_specializes_opcodes() {
        let src = "\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n = NOT(a)
w = AND(a, b, c)
y = NAND(n, w)
";
        let nl = bench::parse(src, "t").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        assert_eq!(prog.steps(), 3);
        assert_eq!(prog.num_inputs(), 3);
        assert!(prog.ops.contains(&OpCode::Not));
        assert!(prog.ops.contains(&OpCode::AndN));
        assert!(prog.ops.contains(&OpCode::Nand2));
    }

    #[test]
    fn tape_is_topological() {
        let nl = bench::parse(C17, "c17").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        // Every fanin of a step is an input or an earlier step's
        // destination.
        let mut ready = vec![false; prog.node_count()];
        for &(node, _) in &prog.input_positions {
            ready[node.index()] = true;
        }
        for s in 0..prog.steps() {
            let (lo, hi) = (prog.offs[s] as usize, prog.offs[s + 1] as usize);
            for &f in &prog.pool[lo..hi] {
                assert!(ready[f as usize], "step {s} reads unwritten node {f}");
            }
            ready[prog.dsts[s] as usize] = true;
        }
    }

    #[test]
    fn tail_is_masked() {
        // NOT of constant 0 is all-ones: tail bits must not leak.
        let nl = bench::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        for len in [3usize, 70, 9 * 64 + 7] {
            let vals = prog.run(&PatternSet::zeros(1, len));
            assert_eq!(vals.count_ones(nl.find("y").unwrap()), len as u64);
        }
    }

    #[test]
    fn empty_pattern_set() {
        let nl = bench::parse(C17, "c17").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let vals = prog.run(&PatternSet::zeros(5, 0));
        assert!(vals.is_empty());
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wrong_width_panics() {
        let nl = bench::parse(C17, "c17").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let _ = prog.run(&PatternSet::zeros(4, 8));
    }

    #[test]
    fn kernel_run_labels_throughput_with_host_threads() {
        let nl = bench::parse(C17, "c17").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let _ = prog.run(&PatternSet::zeros(5, 64));
        // Single-core CI numbers are only interpretable next to the
        // host's parallelism; the gauge makes that machine-detectable.
        assert!(htforge_obs::gauge("sim.host_threads").get() >= 1.0);
    }
}
