//! Streaming parser and writer for the ISCAS `.bench` netlist format.
//!
//! This is the format the ISCAS-85/89 benchmark circuits are distributed
//! in, e.g.:
//!
//! ```text
//! # c17
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! The parser consumes the source **line by line**: each line's tokens are
//! interned straight into the netlist's symbol table and discarded, so the
//! full source text and the built graph are never held simultaneously
//! (use [`parse_reader`] to stream from a file). Forward references —
//! common in real ISCAS files — are handled by deferring fan-in
//! resolution: every signal-producing line creates its node immediately
//! (in file order), fan-ins are recorded as atoms, and a single
//! resolution sweep wires the CSR once the file ends. DFFs are supported
//! for ISCAS-89, including Q-before-D and D-before-Q orderings; a DFF
//! whose D input is never defined is a structured
//! [`NetlistError::UndefinedSignal`], never a panic.

use std::fmt::Write as _;
use std::io::BufRead;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::intern::Atom;
use crate::netlist::{Netlist, NodeId, NodeKind, KIND_DFF, KIND_GATE_BASE, KIND_INPUT};

/// A node whose fan-ins await end-of-file resolution.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: NodeId,
    /// Range into `StreamParser::fanin_atoms`.
    off: u32,
    len: u32,
    line: u32,
}

/// Incremental `.bench` parser state; feed lines, then [`finish`].
///
/// [`finish`]: StreamParser::finish
#[derive(Debug)]
struct StreamParser {
    nl: Netlist,
    /// Flat pool of unresolved fan-in atoms, segmented by `pending`.
    fanin_atoms: Vec<Atom>,
    pending: Vec<Pending>,
    /// `OUTPUT(x)` declarations, resolved at the end.
    outputs: Vec<(Atom, u32)>,
}

impl StreamParser {
    fn new(name: &str) -> Self {
        StreamParser {
            nl: Netlist::new(name),
            fanin_atoms: Vec::new(),
            pending: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Consumes one source line. `line_no` is 1-based.
    fn feed(&mut self, line_no: usize, raw: &str) -> Result<(), NetlistError> {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            return Ok(());
        }

        if let Some(eq) = line.find('=') {
            let name = line[..eq].trim();
            if name.is_empty() {
                return Err(NetlistError::Parse {
                    line: line_no,
                    message: "missing signal name before `=`".into(),
                });
            }
            let (head, inner) = split_call(line_no, &line[eq + 1..])?;
            if head.eq_ignore_ascii_case("DFF") {
                return self.feed_dff(line_no, name, inner);
            }
            let kind: GateKind = head.parse().map_err(|_| NetlistError::UnknownGateKind {
                line: line_no,
                keyword: head.to_owned(),
            })?;
            return self.feed_gate(line_no, name, kind, inner);
        }

        let (head, inner) = split_call(line_no, line)?;
        let arg = one_arg(line_no, inner)?;
        if head.eq_ignore_ascii_case("INPUT") {
            let atom = self.nl.intern_name(arg);
            self.nl.push_raw(atom, KIND_INPUT)?;
            Ok(())
        } else if head.eq_ignore_ascii_case("OUTPUT") {
            let atom = self.nl.intern_name(arg);
            self.outputs.push((atom, line_no as u32));
            Ok(())
        } else {
            Err(NetlistError::Parse {
                line: line_no,
                message: format!("unrecognized statement `{head}`"),
            })
        }
    }

    fn feed_dff(&mut self, line_no: usize, name: &str, inner: &str) -> Result<(), NetlistError> {
        let d = one_arg(line_no, inner).map_err(|_| NetlistError::Parse {
            line: line_no,
            message: format!("DFF takes 1 argument, got {}", count_args(inner)),
        })?;
        let q_atom = self.nl.intern_name(name);
        let id = self.nl.push_raw(q_atom, KIND_DFF)?;
        let d_atom = self.nl.intern_name(d);
        let off = self.fanin_atoms.len() as u32;
        self.fanin_atoms.push(d_atom);
        self.pending.push(Pending {
            id,
            off,
            len: 1,
            line: line_no as u32,
        });
        Ok(())
    }

    fn feed_gate(
        &mut self,
        line_no: usize,
        name: &str,
        kind: GateKind,
        inner: &str,
    ) -> Result<(), NetlistError> {
        let off = self.fanin_atoms.len() as u32;
        for arg in args_of(inner) {
            let atom = self.nl.intern_name(arg);
            self.fanin_atoms.push(atom);
        }
        let len = self.fanin_atoms.len() as u32 - off;
        if len == 0 {
            return Err(NetlistError::Parse {
                line: line_no,
                message: "gate with no fan-ins".into(),
            });
        }
        if !kind.arity_ok(len as usize) {
            return Err(NetlistError::BadArity {
                gate: name.to_owned(),
                kind: kind.bench_keyword(),
                got: len as usize,
            });
        }
        let atom = self.nl.intern_name(name);
        let id = self.nl.push_raw(atom, KIND_GATE_BASE + kind.code())?;
        self.pending.push(Pending {
            id,
            off,
            len,
            line: line_no as u32,
        });
        Ok(())
    }

    /// Resolves all deferred fan-ins, wires fan-outs, validates.
    fn finish(mut self) -> Result<Netlist, NetlistError> {
        let mut resolved: Vec<NodeId> = Vec::new();
        for p in &self.pending {
            resolved.clear();
            let from = p.off as usize;
            let to = from + p.len as usize;
            for &atom in &self.fanin_atoms[from..to] {
                match self.nl.find_atom(atom) {
                    Some(f) => resolved.push(f),
                    None => {
                        let name = self.nl.symbols().resolve(atom).to_owned();
                        // A DFF's dangling D driver is a semantic error on
                        // the signal; a gate's is a parse error on the line.
                        return if matches!(self.nl.kind(p.id), NodeKind::Dff) {
                            Err(NetlistError::UndefinedSignal(name))
                        } else {
                            Err(NetlistError::Parse {
                                line: p.line as usize,
                                message: format!("undefined signal `{name}`"),
                            })
                        };
                    }
                }
            }
            self.nl.set_fanins_raw(p.id, &resolved);
        }
        for &(atom, _line) in &self.outputs {
            let id = self.nl.find_atom(atom).ok_or_else(|| {
                NetlistError::UndefinedSignal(self.nl.symbols().resolve(atom).to_owned())
            })?;
            self.nl.mark_output(id);
        }
        self.nl.compact_fanouts();
        self.nl.validate()?;
        Ok(self.nl)
    }
}

/// Splits `HEAD ( inner )`, returning `(head, inner)`.
fn split_call(line_no: usize, s: &str) -> Result<(&str, &str), NetlistError> {
    let open = s.find('(').ok_or(NetlistError::Parse {
        line: line_no,
        message: "expected `(`".into(),
    })?;
    let close = s.rfind(')').ok_or(NetlistError::Parse {
        line: line_no,
        message: "expected `)`".into(),
    })?;
    if close < open {
        return Err(NetlistError::Parse {
            line: line_no,
            message: "mismatched parentheses".into(),
        });
    }
    Ok((s[..open].trim(), &s[open + 1..close]))
}

/// Iterates the non-empty comma-separated arguments of a call body.
fn args_of(inner: &str) -> impl Iterator<Item = &str> {
    inner.split(',').map(str::trim).filter(|a| !a.is_empty())
}

fn count_args(inner: &str) -> usize {
    args_of(inner).count()
}

/// Requires exactly one argument.
fn one_arg(line_no: usize, inner: &str) -> Result<&str, NetlistError> {
    let mut it = args_of(inner);
    match (it.next(), it.next()) {
        (Some(a), None) => Ok(a),
        _ => Err(NetlistError::Parse {
            line: line_no,
            message: format!("expected 1 argument, got {}", count_args(inner)),
        }),
    }
}

/// Parses a `.bench` source into a [`Netlist`] named `name`.
///
/// # Errors
///
/// Returns a [`NetlistError`] describing the first syntactic or semantic
/// problem (unknown gate kind, undefined signal, duplicate definition,
/// combinational cycle, …).
///
/// # Examples
///
/// ```
/// let src = "\
/// INPUT(a)\n\
/// INPUT(b)\n\
/// OUTPUT(y)\n\
/// y = NAND(a, b)\n";
/// let nl = htforge_netlist::bench::parse(src, "tiny")?;
/// assert_eq!(nl.node_count(), 3);
/// # Ok::<(), htforge_netlist::NetlistError>(())
/// ```
pub fn parse(source: &str, name: &str) -> Result<Netlist, NetlistError> {
    let mut p = StreamParser::new(name);
    for (i, raw) in source.lines().enumerate() {
        p.feed(i + 1, raw)?;
    }
    p.finish()
}

/// Streams a `.bench` source from a reader, line by line. At no point is
/// the full source held in memory alongside the netlist — this is the
/// entry point for industrial-scale files.
///
/// # Errors
///
/// Returns a [`NetlistError`] for syntactic/semantic problems; I/O errors
/// surface as [`NetlistError::Parse`] on the failing line.
pub fn parse_reader<R: BufRead>(reader: R, name: &str) -> Result<Netlist, NetlistError> {
    let mut p = StreamParser::new(name);
    let mut line_no = 0usize;
    for raw in reader.lines() {
        line_no += 1;
        let raw = raw.map_err(|e| NetlistError::Parse {
            line: line_no,
            message: format!("read error: {e}"),
        })?;
        p.feed(line_no, &raw)?;
    }
    p.finish()
}

/// Serializes a [`Netlist`] to `.bench` source text.
///
/// The output parses back to a structurally identical netlist (same
/// signal names, kinds and connections); see the round-trip tests.
#[must_use]
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", nl.name());
    for &i in nl.inputs() {
        // Skip pseudo-inputs that are DFFs in disguise (none after build,
        // but scan_cut outputs are legal netlists too).
        let _ = writeln!(out, "INPUT({})", nl.node(i).name());
    }
    for &o in nl.outputs() {
        let _ = writeln!(out, "OUTPUT({})", nl.node(o).name());
    }
    // Emit gates in topological order so the file is also
    // human-followable.
    let order = crate::graph::topo_order(nl).expect("netlist is validated");
    for id in order {
        let node = nl.node(id);
        if let NodeKind::Gate(kind) = node.kind() {
            let args: Vec<&str> = node.fanins().iter().map(|&f| nl.node(f).name()).collect();
            let _ = writeln!(
                out,
                "{} = {}({})",
                node.name(),
                kind.bench_keyword(),
                args.join(", ")
            );
        }
    }
    // DFFs last, in `dffs()` order: the parser numbers them in file
    // order, and a scan cut orders its pseudo inputs and outputs by that
    // number, so a read-back design lines up with the original's.
    for &id in nl.dffs() {
        let node = nl.node(id);
        let d = node.fanins()[0];
        let _ = writeln!(out, "{} = DFF({})", node.name(), nl.node(d).name());
    }
    out
}

/// Structural statistics of a netlist, as reported by the benchmark tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistStats {
    /// Primary-input count (excluding scan pseudo-inputs).
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Combinational gate count.
    pub gates: usize,
    /// DFF count.
    pub dffs: usize,
    /// Total node count.
    pub nodes: usize,
}

/// Computes [`NetlistStats`] for a netlist.
#[must_use]
pub fn stats(nl: &Netlist) -> NetlistStats {
    NetlistStats {
        inputs: nl.inputs().len(),
        outputs: nl.outputs().len(),
        gates: nl.gate_count(),
        dffs: nl.dffs().len(),
        nodes: nl.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# c17 — smallest ISCAS-85 circuit
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
    fn parse_c17() {
        let nl = parse(C17, "c17").unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn parse_reader_streams_identically() {
        let nl = parse(C17, "c17").unwrap();
        let nl2 = parse_reader(std::io::Cursor::new(C17.as_bytes()), "c17").unwrap();
        assert_eq!(nl.node_count(), nl2.node_count());
        for (id, node) in nl.iter() {
            let node2 = nl2.node(id);
            assert_eq!(node.name(), node2.name());
            assert_eq!(node.kind(), node2.kind());
            assert_eq!(node.fanins(), node2.fanins());
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = parse(C17, "c17").unwrap();
        let text = write(&nl);
        let nl2 = parse(&text, "c17").unwrap();
        assert_eq!(nl.node_count(), nl2.node_count());
        assert_eq!(nl.inputs().len(), nl2.inputs().len());
        assert_eq!(nl.outputs().len(), nl2.outputs().len());
        for (id, node) in nl.iter() {
            let id2 = nl2.find(node.name()).unwrap();
            let node2 = nl2.node(id2);
            assert_eq!(node.kind(), node2.kind(), "kind of {}", node.name());
            let fanins: Vec<&str> = node.fanins().iter().map(|&f| nl.node(f).name()).collect();
            let fanins2: Vec<&str> = node2.fanins().iter().map(|&f| nl2.node(f).name()).collect();
            assert_eq!(fanins, fanins2, "fanins of {}", node.name());
            let _ = id;
        }
    }

    #[test]
    fn forward_references_resolve() {
        let src = "\
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = BUF(a)
";
        let nl = parse(src, "fwd").unwrap();
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn dff_parses_and_round_trips() {
        let src = "\
INPUT(a)
OUTPUT(g)
g = XOR(a, q)
q = DFF(g)
";
        let nl = parse(src, "seq").unwrap();
        assert_eq!(nl.dffs().len(), 1);
        let text = write(&nl);
        let nl2 = parse(&text, "seq").unwrap();
        assert_eq!(nl2.dffs().len(), 1);
        let q = nl2.find("q").unwrap();
        assert_eq!(nl2.node(nl2.node(q).fanins()[0]).name(), "g");
    }

    #[test]
    fn dff_order_survives_round_trip() {
        // A scan cut numbers its pseudo inputs and outputs in `dffs()`
        // order, so a written design must read back with the same order
        // or its columns no longer line up with the original's.
        let src = "\
INPUT(a)
OUTPUT(y)
q1 = DFF(g1)
q2 = DFF(g2)
q3 = DFF(y)
g1 = NAND(a, q3)
g2 = NOR(q1, a)
y = XOR(q2, g1)
";
        let nl = parse(src, "seq3").unwrap();
        let names = |nl: &Netlist| -> Vec<String> {
            nl.dffs()
                .iter()
                .map(|&q| nl.node(q).name().to_owned())
                .collect()
        };
        assert_eq!(names(&nl), ["q1", "q2", "q3"]);
        let nl2 = parse(&write(&nl), "seq3").unwrap();
        assert_eq!(names(&nl2), names(&nl));
    }

    #[test]
    fn dff_with_undeclared_d_is_structured_error() {
        // Regression: this shape used to reach an `expect` panic in the
        // old pass-2 resolver.
        let src = "\
INPUT(a)
OUTPUT(q)
q = DFF(ghost)
";
        assert!(matches!(
            parse(src, "bad"),
            Err(NetlistError::UndefinedSignal(n)) if n == "ghost"
        ));
    }

    #[test]
    fn dff_forward_reference_to_gate_resolves() {
        let src = "\
INPUT(a)
OUTPUT(q)
q = DFF(g)
g = NOT(a)
";
        let nl = parse(src, "seq_fwd").unwrap();
        let q = nl.find("q").unwrap();
        assert_eq!(nl.node(nl.node(q).fanins()[0]).name(), "g");
    }

    #[test]
    fn dff_wrong_arity_is_parse_error() {
        let src = "INPUT(a)\nq = DFF(a, a)\n";
        match parse(src, "bad") {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("DFF takes 1 argument"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "
# full-line comment

INPUT(a)  # trailing comment
OUTPUT(y)
y = BUF(a)
";
        let nl = parse(src, "c").unwrap();
        assert_eq!(nl.node_count(), 2);
    }

    #[test]
    fn unknown_gate_kind_is_reported_with_line() {
        let src = "INPUT(a)\ny = MAJ(a, a, a)\n";
        match parse(src, "bad") {
            Err(NetlistError::UnknownGateKind { line, keyword }) => {
                assert_eq!(line, 2);
                assert_eq!(keyword, "MAJ");
            }
            other => panic!("expected UnknownGateKind, got {other:?}"),
        }
    }

    #[test]
    fn undefined_signal_is_reported() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert!(parse(src, "bad").is_err());
    }

    #[test]
    fn combinational_cycle_is_reported() {
        let src = "\
INPUT(a)
OUTPUT(p)
p = AND(a, q)
q = AND(a, p)
";
        assert!(matches!(
            parse(src, "cyc"),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn stats_match() {
        let nl = parse(C17, "c17").unwrap();
        let s = stats(&nl);
        assert_eq!(s.inputs, 5);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 6);
        assert_eq!(s.dffs, 0);
        assert_eq!(s.nodes, 11);
    }

    #[test]
    fn bad_syntax_reports_line() {
        let src = "INPUT(a)\nthis is not bench\n";
        match parse(src, "bad") {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }
}
