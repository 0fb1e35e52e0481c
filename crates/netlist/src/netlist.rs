//! The [`Netlist`] data structure: an indexed DAG of gates.
//!
//! # Representation (industrial-scale core)
//!
//! The netlist is stored struct-of-arrays with interned names:
//!
//! * **Names** live in a per-netlist [`SymbolTable`]; each node holds a
//!   4-byte [`Atom`] and a dense `atom → node` vector makes
//!   [`Netlist::find`] a single hash plus an array index. Name strings
//!   are materialized only at I/O boundaries ([`NodeRef::name`]).
//! * **Kinds** are one packed byte per node in a contiguous column.
//! * **Fan-ins** are a CSR: per-node `(offset, len)` into one shared
//!   `NodeId` pool. Deferred DFFs reserve their single slot up front so
//!   [`Netlist::connect_dff`] never shifts the pool.
//! * **Fan-outs** are a pooled adjacency with per-node
//!   `(offset, len, capacity)` and amortized-doubling relocation on
//!   append, so incremental construction (trojan insertion appends
//!   gates) stays O(1) amortized while consumers still see a contiguous
//!   `&[NodeId]` slice. Bulk builders (the streaming parsers) instead
//!   call [`Netlist::compact_fanouts`] once to build the exact CSR with
//!   zero slack.
//! * **Levels** are computed on demand and cached; any structural
//!   mutation invalidates the cache.
//!
//! Node data is borrowed through the lightweight [`NodeRef`] view, which
//! keeps the pre-SoA accessor API (`nl.node(id).fanins()`, `.name()`,
//! `.kind()`) source-compatible for every consumer crate.

use std::fmt;
use std::sync::OnceLock;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::intern::{Atom, SymbolTable};

/// Identifier of a node (signal) within one [`Netlist`].
///
/// Node ids are dense indices assigned in creation order and remain stable
/// across [`Netlist::scan_cut`] and trojan insertion (which only appends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Useful for iterating over all nodes of a netlist; passing an index
    /// that is out of range for the netlist it is used with will surface as
    /// [`NetlistError::InvalidNodeId`] or a panic in indexing operations.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node *is*: a primary input, a combinational gate, or a DFF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input (no fan-ins).
    Input,
    /// Combinational gate of the given kind.
    Gate(GateKind),
    /// D flip-flop; the node models the Q output, its single fan-in is D.
    Dff,
}

impl NodeKind {
    /// Returns the gate kind if this node is a combinational gate.
    #[must_use]
    pub fn gate_kind(self) -> Option<GateKind> {
        match self {
            NodeKind::Gate(k) => Some(k),
            _ => None,
        }
    }
}

/// Packed one-byte node kind: `0` input, `1` DFF, `2 + k` gate of
/// [`GateKind`] code `k`.
pub(crate) const KIND_INPUT: u8 = 0;
pub(crate) const KIND_DFF: u8 = 1;
pub(crate) const KIND_GATE_BASE: u8 = 2;
/// `atom → node` slot for atoms with no node.
const NO_NODE: u32 = u32::MAX;

#[inline]
pub(crate) fn unpack_kind(packed: u8) -> NodeKind {
    match packed {
        KIND_INPUT => NodeKind::Input,
        KIND_DFF => NodeKind::Dff,
        g => NodeKind::Gate(GateKind::from_code(g - KIND_GATE_BASE)),
    }
}

/// Borrowed view of one signal-producing element of a netlist.
///
/// `NodeRef` is a `Copy` handle tying a [`NodeId`] to its [`Netlist`];
/// its accessors read straight out of the SoA columns, and the returned
/// borrows live as long as the netlist borrow (not the `NodeRef`), so
/// idioms like `nl.node(id).name().to_owned()` work unchanged.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    nl: &'a Netlist,
    id: NodeId,
}

impl<'a> NodeRef<'a> {
    /// The node's id.
    #[must_use]
    pub fn id(self) -> NodeId {
        self.id
    }

    /// The node's signal name.
    #[must_use]
    pub fn name(self) -> &'a str {
        self.nl.name_of(self.id)
    }

    /// The node's interned name atom.
    #[must_use]
    pub fn atom(self) -> Atom {
        self.nl.atom(self.id)
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(self) -> NodeKind {
        self.nl.kind(self.id)
    }

    /// Fan-in node ids, in gate-input order.
    #[must_use]
    pub fn fanins(self) -> &'a [NodeId] {
        self.nl.fanins(self.id)
    }

    /// Fan-out node ids (consumers of this signal).
    #[must_use]
    pub fn fanouts(self) -> &'a [NodeId] {
        self.nl.fanouts(self.id)
    }
}

/// A gate-level netlist: a named DAG of nodes with designated primary
/// inputs and outputs.
///
/// Sequential circuits (ISCAS-89) contain [`NodeKind::Dff`] nodes; call
/// [`Netlist::scan_cut`] to obtain the full-scan combinational model used
/// by simulation and ATPG, as is standard in the MERO / ND-ATPG literature.
///
/// # Examples
///
/// ```
/// use htforge_netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), htforge_netlist::NetlistError> {
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let sum = nl.add_gate("sum", GateKind::Xor, vec![a, b])?;
/// let carry = nl.add_gate("carry", GateKind::And, vec![a, b])?;
/// nl.mark_output(sum);
/// nl.mark_output(carry);
/// assert_eq!(nl.inputs().len(), 2);
/// assert_eq!(nl.outputs().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    symbols: SymbolTable,
    /// Node → interned name.
    node_atom: Vec<Atom>,
    /// Atom → node id ([`NO_NODE`] when the atom names no node).
    atom_node: Vec<u32>,
    /// Packed node kind column (see [`KIND_INPUT`]).
    kinds: Vec<u8>,
    /// Fan-in CSR: per-node offset/length into `fanin_pool`.
    fanin_off: Vec<u32>,
    fanin_len: Vec<u32>,
    fanin_pool: Vec<NodeId>,
    /// Fan-out pooled adjacency: per-node offset/length/capacity into
    /// `fanout_pool`; appends relocate with doubling.
    fanout_off: Vec<u32>,
    fanout_len: Vec<u32>,
    fanout_cap: Vec<u32>,
    fanout_pool: Vec<NodeId>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// O(1) `is_output` membership mirror of `outputs`.
    output_flag: Vec<bool>,
    dffs: Vec<NodeId>,
    /// Cached levelization; reset by every structural mutation.
    levels: OnceLock<Result<Vec<u32>, NetlistError>>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0, 0)
    }

    /// Creates an empty netlist pre-sized for `nodes` nodes and `edges`
    /// fan-in edges (bulk builders avoid re-allocation churn).
    #[must_use]
    pub fn with_capacity(name: impl Into<String>, nodes: usize, edges: usize) -> Self {
        Netlist {
            name: name.into(),
            symbols: SymbolTable::with_capacity(nodes, nodes * 8),
            node_atom: Vec::with_capacity(nodes),
            atom_node: Vec::with_capacity(nodes),
            kinds: Vec::with_capacity(nodes),
            fanin_off: Vec::with_capacity(nodes),
            fanin_len: Vec::with_capacity(nodes),
            fanin_pool: Vec::with_capacity(edges),
            fanout_off: Vec::with_capacity(nodes),
            fanout_len: Vec::with_capacity(nodes),
            fanout_cap: Vec::with_capacity(nodes),
            fanout_pool: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_flag: Vec::with_capacity(nodes),
            dffs: Vec::new(),
            levels: OnceLock::new(),
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total number of nodes (inputs + gates + DFFs).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_atom.len()
    }

    /// Number of combinational gates (excludes inputs and DFFs).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.iter().filter(|&&k| k >= KIND_GATE_BASE).count()
    }

    /// Primary inputs, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// D flip-flop nodes, in declaration order.
    #[must_use]
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// The netlist's symbol table (names of every node).
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Looks up a node by signal name: one hash, one array index.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.symbols.lookup(name).and_then(|a| self.find_atom(a))
    }

    /// Looks up a node by its interned name atom (no hashing at all).
    #[must_use]
    pub fn find_atom(&self, atom: Atom) -> Option<NodeId> {
        match self.atom_node.get(atom.index()) {
            Some(&id) if id != NO_NODE => Some(NodeId(id)),
            _ => None,
        }
    }

    /// The interned name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    #[must_use]
    pub fn atom(&self, id: NodeId) -> Atom {
        self.node_atom[id.index()]
    }

    /// The name of a node (materialized from the interner).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    #[must_use]
    pub fn name_of(&self, id: NodeId) -> &str {
        self.symbols.resolve(self.node_atom[id.index()])
    }

    /// The kind of a node, unpacked from the kind column.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        unpack_kind(self.kinds[id.index()])
    }

    /// Fan-in node ids of a node, in gate-input order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    #[must_use]
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let off = self.fanin_off[id.index()] as usize;
        let len = self.fanin_len[id.index()] as usize;
        &self.fanin_pool[off..off + len]
    }

    /// Fan-out node ids of a node (consumers of its signal).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    #[must_use]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let off = self.fanout_off[id.index()] as usize;
        let len = self.fanout_len[id.index()] as usize;
        &self.fanout_pool[off..off + len]
    }

    /// Borrows a node as a [`NodeRef`] view.
    ///
    /// # Panics
    ///
    /// Panics (in the accessors) if `id` is not a node of this netlist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef { nl: self, id }
    }

    /// Iterates over `(NodeId, NodeRef)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeRef<'_>)> + '_ {
        (0..self.node_atom.len() as u32).map(move |i| (NodeId(i), self.node(NodeId(i))))
    }

    /// All node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.node_atom.len() as u32).map(NodeId)
    }

    /// Logic level of every node (0 for inputs/DFFs), cached until the
    /// next structural mutation. Hot paths (the sim compiler, SCOAP)
    /// read this column instead of re-levelizing.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part is cyclic.
    pub fn levels(&self) -> Result<&[u32], NetlistError> {
        match self.levels.get_or_init(|| crate::graph::levelize(self)) {
            Ok(v) => Ok(v.as_slice()),
            Err(e) => Err(e.clone()),
        }
    }

    /// A deterministic topological order: nodes counting-sorted by
    /// cached level, ties broken by id. Equivalent to (but cheaper and
    /// more cache-friendly than) [`crate::graph::topo_order`] for
    /// consumers that only need *some* topological order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part is cyclic.
    pub fn level_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let levels = self.levels()?;
        let depth = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut bucket_off = vec![0u32; depth + 2];
        for &l in levels {
            bucket_off[l as usize + 1] += 1;
        }
        for i in 1..bucket_off.len() {
            bucket_off[i] += bucket_off[i - 1];
        }
        let mut order = vec![NodeId(0); levels.len()];
        for (i, &l) in levels.iter().enumerate() {
            order[bucket_off[l as usize] as usize] = NodeId(i as u32);
            bucket_off[l as usize] += 1;
        }
        Ok(order)
    }

    /// Approximate resident bytes of the core columns (used by the
    /// scaling benchmark's memory-budget rows).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.symbols.arena_bytes()
            + self.symbols.len() * (size_of::<(u32, u32)>() + size_of::<u32>())
            + self.node_atom.capacity() * size_of::<Atom>()
            + self.atom_node.capacity() * size_of::<u32>()
            + self.kinds.capacity()
            + (self.fanin_off.capacity() + self.fanin_len.capacity()) * size_of::<u32>()
            + self.fanin_pool.capacity() * size_of::<NodeId>()
            + (self.fanout_off.capacity() + self.fanout_len.capacity() + self.fanout_cap.capacity())
                * size_of::<u32>()
            + self.fanout_pool.capacity() * size_of::<NodeId>()
            + (self.inputs.capacity() + self.outputs.capacity() + self.dffs.capacity())
                * size_of::<NodeId>()
            + self.output_flag.capacity()
    }

    /// Resets caches derived from structure (levelization).
    #[inline]
    fn touch(&mut self) {
        self.levels = OnceLock::new();
    }

    /// Interns `name`, keeping the `atom → node` map dense.
    pub(crate) fn intern_name(&mut self, name: &str) -> Atom {
        let atom = self.symbols.intern(name);
        if atom.index() == self.atom_node.len() {
            self.atom_node.push(NO_NODE);
        }
        atom
    }

    /// Appends a node for `atom` with no fan-ins yet.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the atom already names
    /// a node.
    pub(crate) fn push_raw(&mut self, atom: Atom, packed_kind: u8) -> Result<NodeId, NetlistError> {
        if self.atom_node[atom.index()] != NO_NODE {
            return Err(NetlistError::DuplicateName(
                self.symbols.resolve(atom).to_owned(),
            ));
        }
        let id = NodeId(self.node_atom.len() as u32);
        self.atom_node[atom.index()] = id.0;
        self.node_atom.push(atom);
        self.kinds.push(packed_kind);
        self.fanin_off.push(self.fanin_pool.len() as u32);
        self.fanin_len.push(0);
        self.fanout_off.push(0);
        self.fanout_len.push(0);
        self.fanout_cap.push(0);
        self.output_flag.push(false);
        match packed_kind {
            KIND_INPUT => self.inputs.push(id),
            KIND_DFF => self.dffs.push(id),
            _ => {}
        }
        self.touch();
        Ok(id)
    }

    /// Sets a node's fan-ins in bulk (streaming-parser path).
    /// Fan-out lists are **not** updated; call [`Netlist::compact_fanouts`]
    /// once after all fan-ins are set.
    pub(crate) fn set_fanins_raw(&mut self, id: NodeId, fanins: &[NodeId]) {
        debug_assert_eq!(self.fanin_len[id.index()], 0, "fan-ins set twice");
        self.fanin_off[id.index()] = self.fanin_pool.len() as u32;
        self.fanin_len[id.index()] = fanins.len() as u32;
        self.fanin_pool.extend_from_slice(fanins);
        self.touch();
    }

    /// Appends `consumer` to `node`'s fan-out list, relocating the run
    /// with doubled capacity when full (amortized O(1)).
    fn fanout_push(&mut self, node: NodeId, consumer: NodeId) {
        let i = node.index();
        let len = self.fanout_len[i];
        if len == self.fanout_cap[i] {
            let new_cap = (self.fanout_cap[i] * 2).max(2);
            let old_off = self.fanout_off[i] as usize;
            let new_off = self.fanout_pool.len();
            self.fanout_pool
                .extend_from_within(old_off..old_off + len as usize);
            self.fanout_pool
                .resize(new_off + new_cap as usize, NodeId(u32::MAX));
            self.fanout_off[i] = new_off as u32;
            self.fanout_cap[i] = new_cap;
        }
        let off = self.fanout_off[i] as usize;
        self.fanout_pool[off + len as usize] = consumer;
        self.fanout_len[i] = len + 1;
    }

    /// Keeps only the fan-outs of `node` satisfying `keep` (in place).
    fn fanout_retain(&mut self, node: NodeId, keep: impl Fn(NodeId) -> bool) {
        let i = node.index();
        let off = self.fanout_off[i] as usize;
        let len = self.fanout_len[i] as usize;
        let mut write = off;
        for read in off..off + len {
            let c = self.fanout_pool[read];
            if keep(c) {
                self.fanout_pool[write] = c;
                write += 1;
            }
        }
        self.fanout_len[i] = (write - off) as u32;
    }

    /// Rebuilds every fan-out list as an exact CSR over one fresh pool
    /// (capacity == length, consumers in id order, duplicate edges kept).
    /// Bulk builders call this once instead of paying per-edge appends;
    /// it is also a defragmenter after heavy incremental editing.
    pub fn compact_fanouts(&mut self) {
        let n = self.node_count();
        let mut counts = vec![0u32; n];
        for &f in &self.fanin_pool[..] {
            if f.index() < n {
                counts[f.index()] += 1;
            }
        }
        // Only count edges that are live (within some node's fan-in run).
        // The pool may hold dead runs from in-place edits; recount from
        // the per-node views instead when sizes disagree.
        let live_edges: usize = self.fanin_len.iter().map(|&l| l as usize).sum();
        if live_edges != self.fanin_pool.len() {
            counts.iter_mut().for_each(|c| *c = 0);
            for id in 0..n {
                for &f in self.fanins(NodeId(id as u32)) {
                    counts[f.index()] += 1;
                }
            }
        }
        let mut off = 0u32;
        for (i, &c) in counts.iter().enumerate() {
            self.fanout_off[i] = off;
            self.fanout_len[i] = 0;
            self.fanout_cap[i] = c;
            off += c;
        }
        let mut pool = vec![NodeId(u32::MAX); off as usize];
        for id in 0..n {
            let consumer = NodeId(id as u32);
            let from = self.fanin_off[id] as usize;
            let to = from + self.fanin_len[id] as usize;
            for k in from..to {
                let f = self.fanin_pool[k].index();
                pool[(self.fanout_off[f] + self.fanout_len[f]) as usize] = consumer;
                self.fanout_len[f] += 1;
            }
        }
        self.fanout_pool = pool;
    }

    /// Adds a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already taken (inputs come first in practice;
    /// use [`Netlist::try_add_input`] for a fallible variant).
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.try_add_input(name)
            .expect("duplicate primary input name")
    }

    /// Adds a primary input, failing on a duplicate name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let name = name.into();
        let atom = self.intern_name(&name);
        self.push_raw(atom, KIND_INPUT)
    }

    /// Adds a combinational gate driven by `fanins`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken,
    /// [`NetlistError::BadArity`] if the fan-in count is illegal for
    /// `kind`, or [`NetlistError::InvalidNodeId`] if a fan-in id is out of
    /// range.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: Vec<NodeId>,
    ) -> Result<NodeId, NetlistError> {
        let name = name.into();
        if !kind.arity_ok(fanins.len()) {
            return Err(NetlistError::BadArity {
                gate: name,
                kind: kind.bench_keyword(),
                got: fanins.len(),
            });
        }
        for &f in &fanins {
            if f.index() >= self.node_count() {
                return Err(NetlistError::InvalidNodeId(f.0));
            }
        }
        let atom = self.intern_name(&name);
        let id = self.push_raw(atom, KIND_GATE_BASE + kind.code())?;
        self.set_fanins_raw(id, &fanins);
        for &f in &fanins {
            self.fanout_push(f, id);
        }
        Ok(id)
    }

    /// Adds a D flip-flop whose D input is `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on a name clash or
    /// [`NetlistError::InvalidNodeId`] if `d` is out of range.
    pub fn add_dff(&mut self, name: impl Into<String>, d: NodeId) -> Result<NodeId, NetlistError> {
        if d.index() >= self.node_count() {
            return Err(NetlistError::InvalidNodeId(d.0));
        }
        let name = name.into();
        let atom = self.intern_name(&name);
        let id = self.push_raw(atom, KIND_DFF)?;
        self.set_fanins_raw(id, &[d]);
        self.fanout_push(d, id);
        Ok(id)
    }

    /// Adds a D flip-flop whose D driver will be connected later with
    /// [`Netlist::connect_dff`]. Needed by parsers because `.bench` files
    /// may reference a DFF's Q before defining its D driver.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] on a name clash.
    pub fn add_dff_deferred(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let name = name.into();
        let atom = self.intern_name(&name);
        let id = self.push_raw(atom, KIND_DFF)?;
        // Reserve the single D slot now so connect_dff never shifts the
        // fan-in pool.
        self.fanin_off[id.index()] = self.fanin_pool.len() as u32;
        self.fanin_pool.push(NodeId(u32::MAX));
        Ok(id)
    }

    /// Connects the D input of a deferred DFF.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNodeId`] if either id is out of range
    /// or `dff` is not a DFF with an unconnected D input.
    pub fn connect_dff(&mut self, dff: NodeId, d: NodeId) -> Result<(), NetlistError> {
        if dff.index() >= self.node_count() || d.index() >= self.node_count() {
            return Err(NetlistError::InvalidNodeId(dff.0.max(d.0)));
        }
        if self.kinds[dff.index()] != KIND_DFF || self.fanin_len[dff.index()] != 0 {
            return Err(NetlistError::InvalidNodeId(dff.0));
        }
        let off = self.fanin_off[dff.index()] as usize;
        self.fanin_pool[off] = d;
        self.fanin_len[dff.index()] = 1;
        self.fanout_push(d, dff);
        self.touch();
        Ok(())
    }

    /// Marks a node as a primary output. A node may be marked at most once;
    /// repeated marks are ignored.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.output_flag[id.index()] {
            self.output_flag[id.index()] = true;
            self.outputs.push(id);
        }
    }

    /// Returns `true` if `id` is a primary output (O(1)).
    #[must_use]
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_flag[id.index()]
    }

    /// Produces the *full-scan* combinational model: every DFF becomes a
    /// pseudo primary input (its Q), and its D driver becomes a pseudo
    /// primary output. Node ids are preserved.
    ///
    /// The returned netlist contains no `Dff` nodes, so it is a pure DAG of
    /// gates suitable for bit-parallel simulation and PODEM.
    ///
    /// A netlist without DFFs is already its own combinational model: it
    /// comes back as an unchanged clone, keeping its name and its cached
    /// levels, so callers need not branch on [`Netlist::dffs`].
    #[must_use]
    pub fn scan_cut(&self) -> Netlist {
        if self.dffs.is_empty() {
            return self.clone();
        }
        let mut out = self.clone();
        out.name = format!("{}_scan", self.name);
        out.touch();
        let dffs = std::mem::take(&mut out.dffs);
        for &dff in &dffs {
            let d = out.fanins(dff).first().copied();
            // Drop the Q←D edge (and the fanout back-reference), then
            // retype the DFF as an input.
            out.fanin_len[dff.index()] = 0;
            if let Some(d) = d {
                out.fanout_retain(d, |c| c != dff);
                // D driver becomes a pseudo-PO.
                out.mark_output(d);
            }
            out.kinds[dff.index()] = KIND_INPUT;
            out.inputs.push(dff);
        }
        out
    }

    /// Splices a new driver in front of all existing fan-outs of `victim`:
    /// every gate that consumed `victim` now consumes `new_driver` instead.
    /// Primary-output markings on `victim` transfer to `new_driver`.
    ///
    /// This is the payload-insertion primitive: insert an XOR of
    /// `(victim, trigger)` and splice it over `victim`.
    ///
    /// The fan-outs rewritten are those that existed *before* `new_driver`
    /// itself was added, so `new_driver` may (and typically does) take
    /// `victim` as one of its own fan-ins without creating a self-loop.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or if `victim == new_driver`.
    pub fn splice_driver(&mut self, victim: NodeId, new_driver: NodeId) {
        assert_ne!(victim, new_driver, "cannot splice a node over itself");
        let consumers: Vec<NodeId> = self
            .fanouts(victim)
            .iter()
            .copied()
            .filter(|&c| c != new_driver)
            .collect();
        for &c in &consumers {
            let from = self.fanin_off[c.index()] as usize;
            let to = from + self.fanin_len[c.index()] as usize;
            for slot in &mut self.fanin_pool[from..to] {
                if *slot == victim {
                    *slot = new_driver;
                }
            }
            self.fanout_push(new_driver, c);
        }
        self.fanout_retain(victim, |c| c == new_driver);
        if let Some(pos) = self.outputs.iter().position(|&o| o == victim) {
            self.output_flag[victim.index()] = false;
            if self.output_flag[new_driver.index()] {
                self.outputs.remove(pos);
            } else {
                self.output_flag[new_driver.index()] = true;
                self.outputs[pos] = new_driver;
            }
        }
        self.touch();
    }

    /// Validates structural invariants: every fan-in id in range, fan-out
    /// lists consistent with fan-ins, DFFs fully connected, and the
    /// combinational part acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.node_count();
        for id in self.node_ids() {
            for &f in self.fanins(id) {
                if f.index() >= n {
                    return Err(NetlistError::InvalidNodeId(f.0));
                }
                if !self.fanouts(f).contains(&id) {
                    return Err(NetlistError::UndefinedSignal(self.name_of(id).to_owned()));
                }
            }
            let got = self.fanin_len[id.index()] as usize;
            match self.kind(id) {
                NodeKind::Input => {
                    if got != 0 {
                        return Err(NetlistError::BadArity {
                            gate: self.name_of(id).to_owned(),
                            kind: "INPUT",
                            got,
                        });
                    }
                }
                NodeKind::Dff => {
                    if got != 1 {
                        return Err(NetlistError::BadArity {
                            gate: self.name_of(id).to_owned(),
                            kind: "DFF",
                            got,
                        });
                    }
                }
                NodeKind::Gate(k) => {
                    if !k.arity_ok(got) {
                        return Err(NetlistError::BadArity {
                            gate: self.name_of(id).to_owned(),
                            kind: k.bench_keyword(),
                            got,
                        });
                    }
                }
            }
        }
        // Acyclicity of the combinational part (DFF edges are cut).
        crate::graph::topo_order(self).map(|_| ())
    }

    /// Test-only raw edge injection (builds deliberately broken graphs).
    #[cfg(test)]
    pub(crate) fn add_fanin_edge_for_test(&mut self, gate: NodeId, extra: NodeId) {
        let old: Vec<NodeId> = self.fanins(gate).to_vec();
        self.fanin_off[gate.index()] = self.fanin_pool.len() as u32;
        self.fanin_len[gate.index()] = old.len() as u32 + 1;
        self.fanin_pool.extend_from_slice(&old);
        self.fanin_pool.push(extra);
        self.fanout_push(extra, gate);
        self.touch();
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, {} dffs",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gate_count(),
            self.dffs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("ha");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_gate("s", GateKind::Xor, vec![a, b]).unwrap();
        let c = nl.add_gate("c", GateKind::And, vec![a, b]).unwrap();
        nl.mark_output(s);
        nl.mark_output(c);
        nl
    }

    #[test]
    fn build_and_lookup() {
        let nl = half_adder();
        assert_eq!(nl.node_count(), 4);
        assert_eq!(nl.gate_count(), 2);
        let s = nl.find("s").unwrap();
        assert_eq!(nl.node(s).kind(), NodeKind::Gate(GateKind::Xor));
        assert_eq!(nl.node(s).fanins().len(), 2);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        assert_eq!(
            nl.add_gate("a", GateKind::Buf, vec![a]),
            Err(NetlistError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        assert!(matches!(
            nl.add_gate("g", GateKind::Not, vec![a, b]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn fanouts_are_maintained() {
        let nl = half_adder();
        let a = nl.find("a").unwrap();
        assert_eq!(nl.node(a).fanouts().len(), 2);
    }

    #[test]
    fn names_resolve_through_the_interner() {
        let nl = half_adder();
        let s = nl.find("s").unwrap();
        assert_eq!(nl.node(s).name(), "s");
        assert_eq!(nl.name_of(s), "s");
        let atom = nl.atom(s);
        assert_eq!(nl.find_atom(atom), Some(s));
        assert_eq!(nl.symbols().resolve(atom), "s");
    }

    #[test]
    fn scan_cut_preserves_ids_and_cuts_dffs() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff_deferred("q").unwrap();
        let g = nl.add_gate("g", GateKind::Nand, vec![a, q]).unwrap();
        nl.connect_dff(q, g).unwrap();
        nl.mark_output(g);
        assert!(nl.validate().is_ok());

        let cut = nl.scan_cut();
        assert!(cut.validate().is_ok());
        assert_eq!(cut.dffs().len(), 0);
        assert_eq!(cut.inputs().len(), 2); // a + pseudo-input q
        assert!(cut.outputs().contains(&g)); // g is both PO and pseudo-PO
        assert_eq!(cut.node(q).kind(), NodeKind::Input);
        // Ids stable:
        assert_eq!(cut.find("q"), Some(q));
        assert_eq!(cut.find("g"), Some(g));
    }

    #[test]
    fn scan_cut_of_a_dff_free_netlist_is_an_unchanged_clone() {
        let nl = half_adder();
        let levels = nl.levels().unwrap().to_vec();
        let cut = nl.scan_cut();
        assert_eq!(cut.name(), nl.name());
        assert_eq!(cut.inputs(), nl.inputs());
        assert_eq!(cut.outputs(), nl.outputs());
        assert_eq!(cut.levels().unwrap(), levels.as_slice());
    }

    #[test]
    fn scan_cut_adds_pseudo_po_for_d_driver() {
        let mut nl = Netlist::new("seq2");
        let a = nl.add_input("a");
        let inv = nl.add_gate("inv", GateKind::Not, vec![a]).unwrap();
        let q = nl.add_dff("q", inv).unwrap();
        let out = nl.add_gate("out", GateKind::Buf, vec![q]).unwrap();
        nl.mark_output(out);
        let cut = nl.scan_cut();
        assert!(cut.outputs().contains(&inv));
        assert!(cut.outputs().contains(&out));
    }

    #[test]
    fn splice_driver_rewires_consumers_and_outputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let v = nl.add_gate("v", GateKind::And, vec![a, b]).unwrap();
        let sink = nl.add_gate("sink", GateKind::Not, vec![v]).unwrap();
        nl.mark_output(v);
        nl.mark_output(sink);
        // payload: xor of (v, b) spliced over v
        let xor = nl.add_gate("xor", GateKind::Xor, vec![v, b]).unwrap();
        nl.splice_driver(v, xor);
        assert_eq!(nl.node(sink).fanins(), &[xor]);
        assert!(nl.is_output(xor));
        assert!(!nl.is_output(v));
        // v still feeds the xor itself
        assert_eq!(nl.node(v).fanouts(), &[xor]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn validate_detects_cycle() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let g1 = nl.add_gate("g1", GateKind::And, vec![a, a]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Or, vec![g1]).unwrap();
        // Manually create a cycle g1 <- g2.
        nl.add_fanin_edge_for_test(g1, g2);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn levels_cache_and_invalidate() {
        let mut nl = half_adder();
        let s = nl.find("s").unwrap();
        assert_eq!(nl.levels().unwrap()[s.index()], 1);
        // Structural mutation invalidates: a new gate over s is level 2.
        let g = nl.add_gate("g", GateKind::Not, vec![s]).unwrap();
        assert_eq!(nl.levels().unwrap()[g.index()], 2);
        // level_order is a valid topological order.
        let order = nl.level_order().unwrap();
        assert_eq!(order.len(), nl.node_count());
        let pos: Vec<usize> = nl
            .node_ids()
            .map(|id| order.iter().position(|&x| x == id).unwrap())
            .collect();
        for id in nl.node_ids() {
            for &f in nl.fanins(id) {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn compact_fanouts_is_an_exact_rebuild() {
        let mut nl = half_adder();
        let before: Vec<Vec<NodeId>> = nl.node_ids().map(|id| nl.fanouts(id).to_vec()).collect();
        nl.compact_fanouts();
        let after: Vec<Vec<NodeId>> = nl.node_ids().map(|id| nl.fanouts(id).to_vec()).collect();
        assert_eq!(before, after);
        // Pool is exactly the edge count after compaction.
        let edges: usize = nl.node_ids().map(|id| nl.fanins(id).len()).sum();
        let fanout_total: usize = nl.node_ids().map(|id| nl.fanouts(id).len()).sum();
        assert_eq!(edges, fanout_total);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn display_summary() {
        let nl = half_adder();
        let s = nl.to_string();
        assert!(s.contains("2 inputs"));
        assert!(s.contains("2 gates"));
    }
}
