//! Structural-Verilog writer and (subset) parser.
//!
//! Infected netlists are handed off to synthesis (the paper uses Cadence
//! GENUS with the Nangate 45 nm library for Table V); this module emits a
//! gate-level Verilog module compatible with such flows, and parses the
//! structural subset back ([`parse`]):
//!
//! * `input` / `output` / `wire` / `reg` declarations,
//! * primitive gate instances (`and`, `nand`, `or`, `nor`, `xor`,
//!   `xnor`, `not`, `buf`), named or anonymous,
//! * `assign lhs = rhs;` identifier aliases,
//! * the writer's behavioural DFF idiom
//!   (`always @(posedge clk) r <= d;` with `assign q = r;`).
//!
//! The toolkit's native interchange format remains `.bench`
//! ([`crate::bench`]); the parser exists so externally produced
//! gate-level Verilog can enter the flow.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::intern::Atom;
use crate::netlist::{Netlist, NodeId, NodeKind, KIND_DFF, KIND_GATE_BASE, KIND_INPUT};

/// Sanitizes a signal name into a Verilog identifier. ISCAS names are
/// frequently bare integers, which are not legal Verilog identifiers, so
/// they get an `n` prefix; other problem characters become `_`.
#[must_use]
pub fn sanitize_identifier(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => out.push(c),
        Some(c) if c.is_ascii_digit() => {
            out.push('n');
            out.push(c);
        }
        Some(_) => out.push('_'),
        None => return "_unnamed".to_owned(),
    }
    for c in chars {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn primitive(kind: GateKind) -> &'static str {
    match kind {
        GateKind::And => "and",
        GateKind::Nand => "nand",
        GateKind::Or => "or",
        GateKind::Nor => "nor",
        GateKind::Xor => "xor",
        GateKind::Xnor => "xnor",
        GateKind::Not => "not",
        GateKind::Buf => "buf",
    }
}

/// Emits the netlist as a structural Verilog module using gate primitives
/// (`and`, `nand`, …) and behavioural DFFs.
///
/// # Examples
///
/// ```
/// use htforge_netlist::{Netlist, GateKind, verilog};
///
/// # fn main() -> Result<(), htforge_netlist::NetlistError> {
/// let mut nl = Netlist::new("toy");
/// let a = nl.add_input("a");
/// let y = nl.add_gate("y", GateKind::Not, vec![a])?;
/// nl.mark_output(y);
/// let v = verilog::write(&nl);
/// assert!(v.contains("module toy"));
/// assert!(v.contains("not"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    let module = sanitize_identifier(nl.name());
    let ins: Vec<String> = nl
        .inputs()
        .iter()
        .map(|&i| sanitize_identifier(nl.node(i).name()))
        .collect();
    let outs: Vec<String> = nl
        .outputs()
        .iter()
        .map(|&o| format!("{}_po", sanitize_identifier(nl.node(o).name())))
        .collect();

    let mut ports: Vec<String> = ins.clone();
    ports.extend(outs.iter().cloned());
    let clocked = !nl.dffs().is_empty();
    if clocked {
        ports.insert(0, "clk".to_owned());
    }
    let _ = writeln!(out, "// generated by htforge");
    let _ = writeln!(out, "module {module}({});", ports.join(", "));
    if clocked {
        let _ = writeln!(out, "  input clk;");
    }
    for i in &ins {
        let _ = writeln!(out, "  input {i};");
    }
    for o in &outs {
        let _ = writeln!(out, "  output {o};");
    }

    for (_, node) in nl.iter() {
        if !matches!(node.kind(), NodeKind::Input) {
            let _ = writeln!(out, "  wire {};", sanitize_identifier(node.name()));
        }
    }
    for &q in nl.dffs() {
        let _ = writeln!(out, "  reg {}_r;", sanitize_identifier(nl.node(q).name()));
    }

    let mut inst = 0usize;
    for (_, node) in nl.iter() {
        match node.kind() {
            NodeKind::Input => {}
            NodeKind::Dff => {
                let q = sanitize_identifier(node.name());
                let d = sanitize_identifier(nl.node(node.fanins()[0]).name());
                let _ = writeln!(out, "  assign {q} = {q}_r;");
                let _ = writeln!(out, "  always @(posedge clk) {q}_r <= {d};");
            }
            NodeKind::Gate(kind) => {
                let y = sanitize_identifier(node.name());
                let args: Vec<String> = node
                    .fanins()
                    .iter()
                    .map(|&f| sanitize_identifier(nl.node(f).name()))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {} u{inst} ({y}, {});",
                    primitive(kind),
                    args.join(", ")
                );
                inst += 1;
            }
        }
    }
    for (&o, o_name) in nl.outputs().iter().zip(&outs) {
        let _ = writeln!(
            out,
            "  assign {o_name} = {};",
            sanitize_identifier(nl.node(o).name())
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn strip_comments(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '/' {
            match chars.peek() {
                Some('/') => {
                    for c2 in chars.by_ref() {
                        if c2 == '\n' {
                            out.push('\n');
                            break;
                        }
                    }
                    continue;
                }
                Some('*') => {
                    chars.next();
                    let mut prev = ' ';
                    for c2 in chars.by_ref() {
                        if prev == '*' && c2 == '/' {
                            break;
                        }
                        prev = c2;
                    }
                    out.push(' ');
                    continue;
                }
                _ => {}
            }
        }
        out.push(c);
    }
    out
}

fn kind_from_primitive(word: &str) -> Option<GateKind> {
    match word {
        "and" => Some(GateKind::And),
        "nand" => Some(GateKind::Nand),
        "or" => Some(GateKind::Or),
        "nor" => Some(GateKind::Nor),
        "xor" => Some(GateKind::Xor),
        "xnor" => Some(GateKind::Xnor),
        "not" => Some(GateKind::Not),
        "buf" => Some(GateKind::Buf),
        _ => None,
    }
}

/// Streaming structural-Verilog parser state: statements are consumed one
/// at a time, identifiers go straight into the netlist's interner as
/// [`Atom`]s, and fan-ins are resolved in one sweep at the end — the
/// source text is never held alongside the built graph, and forward
/// references need no repeated insertion passes.
#[derive(Debug)]
struct VParser {
    nl: Netlist,
    /// Flat pool of unresolved fan-in atoms.
    fanin_atoms: Vec<Atom>,
    /// Gate nodes awaiting fan-in resolution: `(node, off, len)`.
    pending: Vec<(NodeId, u32, u32)>,
    /// Output-port atoms, in declaration order.
    outputs: Vec<Atom>,
    /// `reg` declarations (the writer's DFF state signals).
    regs: Vec<Atom>,
    /// `assign lhs = rhs` pairs, classified at the end.
    assigns: Vec<(Atom, Atom)>,
    /// `always @(posedge clk) r <= d` pairs.
    dffs: Vec<(Atom, Atom)>,
    /// 1-based statement counter for error reporting.
    stmt_no: usize,
}

impl VParser {
    fn new(name: &str) -> Self {
        VParser {
            nl: Netlist::new(name),
            fanin_atoms: Vec::new(),
            pending: Vec::new(),
            outputs: Vec::new(),
            regs: Vec::new(),
            assigns: Vec::new(),
            dffs: Vec::new(),
            stmt_no: 0,
        }
    }

    /// Consumes one `;`-terminated statement (already comment-stripped).
    fn feed(&mut self, stmt: &str) -> Result<(), NetlistError> {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            return Ok(());
        }
        self.stmt_no += 1;
        let line = self.stmt_no;
        let head = stmt.split_whitespace().next().unwrap_or_default();
        match head {
            "endmodule" => Ok(()),
            "input" | "output" | "wire" | "reg" => {
                for name in stmt[head.len()..]
                    .split(',')
                    .map(|n| n.trim().trim_end_matches(';'))
                    .filter(|n| !n.is_empty())
                {
                    match head {
                        "input" if name != "clk" => {
                            let atom = self.nl.intern_name(name);
                            self.nl.push_raw(atom, KIND_INPUT)?;
                        }
                        "output" => {
                            let atom = self.nl.intern_name(name);
                            self.outputs.push(atom);
                        }
                        "reg" => {
                            let atom = self.nl.intern_name(name);
                            self.regs.push(atom);
                        }
                        _ => {} // clk, and wires implied by use
                    }
                }
                Ok(())
            }
            "assign" => {
                let rest = stmt["assign".len()..].trim();
                let (lhs, rhs) = rest.split_once('=').ok_or(NetlistError::Parse {
                    line,
                    message: "assign without `=`".into(),
                })?;
                let lhs = self.nl.intern_name(lhs.trim());
                let rhs = self.nl.intern_name(rhs.trim());
                self.assigns.push((lhs, rhs));
                Ok(())
            }
            "always" => {
                // Writer idiom: always @(posedge clk) r <= d
                let arrow = stmt.find("<=").ok_or(NetlistError::Parse {
                    line,
                    message: "unsupported always block (expected `r <= d`)".into(),
                })?;
                let close = stmt[..arrow].rfind(')').ok_or(NetlistError::Parse {
                    line,
                    message: "always block missing sensitivity list".into(),
                })?;
                let reg = self.nl.intern_name(stmt[close + 1..arrow].trim());
                let d = self.nl.intern_name(stmt[arrow + 2..].trim());
                self.dffs.push((reg, d));
                Ok(())
            }
            prim => {
                let kind = kind_from_primitive(prim).ok_or_else(|| NetlistError::Parse {
                    line,
                    message: format!("unsupported construct `{prim}`"),
                })?;
                let open = stmt.find('(').ok_or(NetlistError::Parse {
                    line,
                    message: "gate instance missing `(`".into(),
                })?;
                let close = stmt.rfind(')').ok_or(NetlistError::Parse {
                    line,
                    message: "gate instance missing `)`".into(),
                })?;
                let mut ports = stmt[open + 1..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty());
                let out = ports.next().ok_or(NetlistError::Parse {
                    line,
                    message: "gate instance needs an output and at least one input".into(),
                })?;
                let out_atom = self.nl.intern_name(out);
                let off = self.fanin_atoms.len() as u32;
                for p in ports {
                    let atom = self.nl.intern_name(p);
                    self.fanin_atoms.push(atom);
                }
                let len = self.fanin_atoms.len() as u32 - off;
                if len == 0 {
                    return Err(NetlistError::Parse {
                        line,
                        message: "gate instance needs an output and at least one input".into(),
                    });
                }
                if !kind.arity_ok(len as usize) {
                    return Err(NetlistError::BadArity {
                        gate: self.nl.symbols().resolve(out_atom).to_owned(),
                        kind: kind.bench_keyword(),
                        got: len as usize,
                    });
                }
                let id = self.nl.push_raw(out_atom, KIND_GATE_BASE + kind.code())?;
                self.pending.push((id, off, len));
                Ok(())
            }
        }
    }

    /// Materializes DFFs and aliases, resolves all fan-ins, finalizes.
    fn finish(mut self) -> Result<Netlist, NetlistError> {
        // Resolve the writer's DFF idiom: `assign q = r;` + `always … r <= d`.
        // `q` is the Q signal; remaining assigns stay as aliases.
        let mut q_of_reg: HashMap<Atom, Atom> = HashMap::new();
        let mut plain_assigns: Vec<(Atom, Atom)> = Vec::new();
        for (lhs, rhs) in std::mem::take(&mut self.assigns) {
            if self.regs.contains(&rhs) {
                q_of_reg.insert(rhs, lhs);
            } else {
                plain_assigns.push((lhs, rhs));
            }
        }
        for &(reg, d) in &self.dffs {
            let q = *q_of_reg.get(&reg).ok_or_else(|| {
                NetlistError::UndefinedSignal(self.nl.symbols().resolve(reg).to_owned())
            })?;
            let id = self.nl.push_raw(q, KIND_DFF)?;
            let off = self.fanin_atoms.len() as u32;
            self.fanin_atoms.push(d);
            self.pending.push((id, off, 1));
        }

        // Alias map: output-port aliases are elided; other aliases become
        // BUF gates.
        let mut output_alias: HashMap<Atom, Atom> = HashMap::new(); // port → sig
        for (lhs, rhs) in plain_assigns {
            if self.outputs.contains(&lhs) {
                output_alias.insert(lhs, rhs);
            } else {
                let id = self
                    .nl
                    .push_raw(lhs, KIND_GATE_BASE + GateKind::Buf.code())?;
                let off = self.fanin_atoms.len() as u32;
                self.fanin_atoms.push(rhs);
                self.pending.push((id, off, 1));
            }
        }

        let mut resolved: Vec<NodeId> = Vec::new();
        for &(id, off, len) in &self.pending {
            resolved.clear();
            for &atom in &self.fanin_atoms[off as usize..(off + len) as usize] {
                let f = self.nl.find_atom(atom).ok_or_else(|| {
                    NetlistError::UndefinedSignal(self.nl.symbols().resolve(atom).to_owned())
                })?;
                resolved.push(f);
            }
            self.nl.set_fanins_raw(id, &resolved);
        }

        for &port in &self.outputs {
            let target = output_alias.get(&port).copied().unwrap_or(port);
            let id = self.nl.find_atom(target).ok_or_else(|| {
                NetlistError::UndefinedSignal(self.nl.symbols().resolve(target).to_owned())
            })?;
            self.nl.mark_output(id);
        }

        self.nl.compact_fanouts();
        self.nl.validate()?;
        Ok(self.nl)
    }
}

/// Parses the structural-Verilog subset documented in the module docs.
///
/// The module's input ports become primary inputs (a `clk` port is
/// consumed by the DFF idiom and not treated as a logic input); output
/// ports become primary outputs. `assign out = sig;` aliases where `out`
/// is an output port are elided (the driving signal is marked as the
/// output), so [`write`](fn@write)-then-`parse` is functionally — not nodewise —
/// identical; see the round-trip tests.
///
/// Statements stream through the interner one at a time (deferred fan-in
/// resolution handles forward references in a single sweep), so memory
/// scales with the netlist, not with statement re-traversal.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for constructs outside the subset,
/// plus the usual structural errors (undefined signals, cycles).
pub fn parse(source: &str, name: &str) -> Result<Netlist, NetlistError> {
    let cleaned = strip_comments(source);
    let body = match cleaned.find("module") {
        Some(pos) => {
            let after = &cleaned[pos..];
            let semi = after.find(';').ok_or(NetlistError::Parse {
                line: 1,
                message: "module header missing `;`".into(),
            })?;
            &after[semi + 1..]
        }
        None => &cleaned[..],
    };
    let mut p = VParser::new(name);
    for stmt in body.split(';') {
        p.feed(stmt)?;
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(sanitize_identifier("22"), "n22");
        assert_eq!(sanitize_identifier("a.b"), "a_b");
        assert_eq!(sanitize_identifier("_x"), "_x");
        assert_eq!(sanitize_identifier(""), "_unnamed");
    }

    #[test]
    fn combinational_module_shape() {
        let mut nl = Netlist::new("c17_mini");
        let a = nl.add_input("1");
        let b = nl.add_input("2");
        let g = nl.add_gate("10", GateKind::Nand, vec![a, b]).unwrap();
        nl.mark_output(g);
        let v = write(&nl);
        assert!(v.contains("module c17_mini(n1, n2, n10_po);"));
        assert!(v.contains("nand u0 (n10, n1, n2);"));
        assert!(v.contains("assign n10_po = n10;"));
        assert!(!v.contains("clk"));
    }

    #[test]
    fn sequential_module_has_clock() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff_deferred("q").unwrap();
        let g = nl.add_gate("g", GateKind::Xor, vec![a, q]).unwrap();
        nl.connect_dff(q, g).unwrap();
        nl.mark_output(g);
        let v = write(&nl);
        assert!(v.contains("input clk;"));
        assert!(v.contains("always @(posedge clk) q_r <= g;"));
    }

    #[test]
    fn parse_hand_written_module() {
        let src = "
// a comment
module half_adder(a, b, sum, carry);
  input a; input b;
  output sum, carry;
  wire s;
  xor u0 (s, a, b);
  assign sum = s;        /* alias to the port */
  and (carry, a, b);     // anonymous instance
endmodule
";
        let nl = parse(src, "half_adder").unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 2);
        // The `assign sum = s` alias was elided: `s` is the output.
        let sum_driver = nl.outputs()[0];
        assert_eq!(nl.node(sum_driver).name(), "s");
    }

    #[test]
    fn write_then_parse_is_functionally_identical() {
        use htforge_sim_free::check_equivalence;

        // A small combinational netlist with multiple outputs.
        let mut nl = Netlist::new("comb");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate("g1", GateKind::Nand, vec![a, b]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, vec![g1, c]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Nor, vec![g1, g2]).unwrap();
        nl.mark_output(g2);
        nl.mark_output(g3);

        let text = write(&nl);
        let back = parse(&text, "comb").unwrap();
        assert_eq!(back.inputs().len(), 3);
        assert_eq!(back.outputs().len(), 2);
        check_equivalence(&nl, &back);
    }

    #[test]
    fn sequential_round_trip() {
        let mut nl = Netlist::new("seq_rt");
        let a = nl.add_input("a");
        let q = nl.add_dff_deferred("q").unwrap();
        let g = nl.add_gate("g", GateKind::Xor, vec![a, q]).unwrap();
        nl.connect_dff(q, g).unwrap();
        nl.mark_output(g);

        let back = parse(&write(&nl), "seq_rt").unwrap();
        assert_eq!(back.dffs().len(), 1);
        assert_eq!(back.inputs().len(), 1);
        let q2 = back.dffs()[0];
        assert_eq!(back.node(back.node(q2).fanins()[0]).name(), "g");
    }

    #[test]
    fn unsupported_construct_is_reported() {
        let src = "module m(a);\ninput a;\ninitial begin end;\nendmodule\n";
        assert!(matches!(parse(src, "m"), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn undefined_signal_is_reported() {
        let src = "module m(a, y);\ninput a;\noutput y;\nbuf (y, ghost);\nendmodule\n";
        assert!(matches!(
            parse(src, "m"),
            Err(NetlistError::UndefinedSignal(s)) if s == "ghost"
        ));
    }

    /// Exhaustive functional-equivalence checker that avoids a dev-dep on
    /// the simulator crate (which depends on this crate).
    mod htforge_sim_free {
        use crate::graph::topo_order;
        use crate::netlist::{Netlist, NodeKind};

        fn eval(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
            let order = topo_order(nl).unwrap();
            let mut vals = vec![false; nl.node_count()];
            for (pos, &i) in nl.inputs().iter().enumerate() {
                vals[i.index()] = inputs[pos];
            }
            for id in order {
                if let NodeKind::Gate(kind) = nl.node(id).kind() {
                    let ins: Vec<bool> = nl
                        .node(id)
                        .fanins()
                        .iter()
                        .map(|f| vals[f.index()])
                        .collect();
                    vals[id.index()] = kind.eval_bool(&ins);
                }
            }
            nl.outputs().iter().map(|&o| vals[o.index()]).collect()
        }

        pub fn check_equivalence(a: &Netlist, b: &Netlist) {
            let n = a.inputs().len();
            assert!(n <= 16);
            assert_eq!(n, b.inputs().len());
            for p in 0u32..(1 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (p >> i) & 1 == 1).collect();
                assert_eq!(eval(a, &inputs), eval(b, &inputs), "pattern {p:b}");
            }
        }
    }
}
