//! String interning for signal names: the [`Atom`] symbol table.
//!
//! Industrial-scale netlists carry hundreds of thousands to millions of
//! signal names. Storing each as an owned `String` (24 bytes of header
//! plus a heap allocation) and hashing it on every lookup dominates both
//! memory and parse time well before the graph itself does. The
//! [`SymbolTable`] here replaces that with:
//!
//! * one contiguous byte arena holding every distinct name exactly once,
//! * a `(start, end)` span per atom (8 bytes), and
//! * an open-addressing hash table of `u32` atom indices using an
//!   FxHash-style multiply hash, so interning or looking up a name costs
//!   a single hash and a short probe run — no per-name allocation, no
//!   `SipHash` setup, no second hashing of the stored key.
//!
//! [`Atom`]s are dense `u32` handles: equality is an integer compare, and
//! side tables indexed by atom (e.g. the netlist's atom → node map) are
//! plain vectors. Names are materialized back to `&str` only at I/O
//! boundaries via [`SymbolTable::resolve`].

use std::fmt;

/// Handle to an interned string within one [`SymbolTable`].
///
/// Atoms are dense indices assigned in first-intern order; they are only
/// meaningful relative to the table that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(pub(crate) u32);

impl Atom {
    /// The dense index of this atom.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// FxHash multiplier (the Firefox hash constant): fast and good enough
/// for short identifier keys, where SipHash's DoS resistance buys
/// nothing but setup cost.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Empty slot marker in the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// FxHash-style multiply hash over `bytes`, eight bytes at a time.
#[must_use]
pub fn fx_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
    let mut tail: u64 = 0;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    if !chunks.remainder().is_empty() {
        h = (h.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    }
    // Final mix so short keys spread across the table's low bits.
    (h ^ (h >> 32)).wrapping_mul(FX_SEED)
}

/// An append-only interner mapping strings to dense [`Atom`] handles.
///
/// # Examples
///
/// ```
/// use htforge_netlist::intern::SymbolTable;
///
/// let mut syms = SymbolTable::new();
/// let a = syms.intern("n42");
/// let b = syms.intern("n43");
/// assert_ne!(a, b);
/// assert_eq!(syms.intern("n42"), a);
/// assert_eq!(syms.resolve(a), "n42");
/// assert_eq!(syms.lookup("n43"), Some(b));
/// assert_eq!(syms.lookup("n44"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every distinct name, concatenated.
    arena: String,
    /// Atom → `(start, end)` byte span in `arena`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of atom indices (power-of-two size).
    table: Vec<u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        SymbolTable {
            arena: String::new(),
            spans: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Creates an empty table sized for about `capacity` distinct names
    /// and `bytes` total name bytes without rehashing or re-allocating.
    #[must_use]
    pub fn with_capacity(capacity: usize, bytes: usize) -> Self {
        let slots = (capacity * 2).next_power_of_two().max(16);
        SymbolTable {
            arena: String::with_capacity(bytes),
            spans: Vec::with_capacity(capacity),
            table: vec![EMPTY; slots],
        }
    }

    /// A copy with room for `names` more names of `bytes` more bytes in
    /// total, so interning them does not re-allocate the arena or the
    /// span column.
    #[must_use]
    pub fn clone_with_room(&self, names: usize, bytes: usize) -> Self {
        let mut arena = String::with_capacity(self.arena.len() + bytes);
        arena.push_str(&self.arena);
        let mut spans = Vec::with_capacity(self.spans.len() + names);
        spans.extend_from_slice(&self.spans);
        SymbolTable {
            arena,
            spans,
            table: self.table.clone(),
        }
    }

    /// Number of distinct interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes held by the name arena (capacity, not length — the
    /// figure memory-budget accounting wants).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.arena.capacity()
    }

    /// The name an atom stands for.
    ///
    /// # Panics
    ///
    /// Panics if `atom` is not from this table.
    #[must_use]
    pub fn resolve(&self, atom: Atom) -> &str {
        let (start, end) = self.spans[atom.index()];
        &self.arena[start as usize..end as usize]
    }

    /// Looks up an already-interned name without inserting.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (fx_hash(name.as_bytes()) as usize) & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return None;
            }
            if self.resolve(Atom(entry)) == name {
                return Some(Atom(entry));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns a name, returning its (possibly pre-existing) atom.
    pub fn intern(&mut self, name: &str) -> Atom {
        if self.spans.len() * 2 >= self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut slot = (fx_hash(name.as_bytes()) as usize) & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                break;
            }
            if self.resolve(Atom(entry)) == name {
                return Atom(entry);
            }
            slot = (slot + 1) & mask;
        }
        let atom = Atom(self.spans.len() as u32);
        let start = self.arena.len() as u32;
        self.arena.push_str(name);
        self.spans.push((start, self.arena.len() as u32));
        self.table[slot] = atom.0;
        atom
    }

    /// Doubles the probe table and re-seats every atom. Spans and the
    /// arena are untouched, so atoms stay valid.
    fn grow(&mut self) {
        let new_size = (self.table.len() * 2).max(16);
        self.table.clear();
        self.table.resize(new_size, EMPTY);
        let mask = new_size - 1;
        for (i, &(start, end)) in self.spans.iter().enumerate() {
            let name = &self.arena[start as usize..end as usize];
            let mut slot = (fx_hash(name.as_bytes()) as usize) & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = i as u32;
        }
    }

    /// Iterates `(Atom, &str)` pairs in first-intern order.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, &str)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| (Atom(i as u32), &self.arena[start as usize..end as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut syms = SymbolTable::new();
        let a = syms.intern("alpha");
        let b = syms.intern("beta");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(syms.intern("alpha"), a);
        assert_eq!(syms.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut syms = SymbolTable::new();
        let names = ["", "x", "a_very_long_signal_name/with/path", "n1", "n1 "];
        let atoms: Vec<Atom> = names.iter().map(|n| syms.intern(n)).collect();
        for (atom, name) in atoms.iter().zip(names) {
            assert_eq!(syms.resolve(*atom), name);
        }
        assert_eq!(syms.len(), names.len());
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut syms = SymbolTable::new();
        assert_eq!(syms.lookup("ghost"), None);
        let a = syms.intern("real");
        assert_eq!(syms.lookup("real"), Some(a));
        assert_eq!(syms.lookup("ghost"), None);
        assert_eq!(syms.len(), 1);
    }

    #[test]
    fn survives_growth_past_many_entries() {
        let mut syms = SymbolTable::with_capacity(4, 16);
        let atoms: Vec<Atom> = (0..10_000).map(|i| syms.intern(&format!("n{i}"))).collect();
        for (i, atom) in atoms.iter().enumerate() {
            assert_eq!(syms.resolve(*atom), format!("n{i}"));
            assert_eq!(syms.lookup(&format!("n{i}")), Some(*atom));
        }
        assert_eq!(syms.len(), 10_000);
    }

    #[test]
    fn iter_in_first_intern_order() {
        let mut syms = SymbolTable::new();
        syms.intern("b");
        syms.intern("a");
        syms.intern("b");
        let collected: Vec<&str> = syms.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["b", "a"]);
    }

    #[test]
    fn fx_hash_differs_on_common_shapes() {
        // Not a distribution test — just pins that near-identical short
        // identifiers don't collide to the same 64-bit hash.
        let names = ["n1", "n2", "n10", "g1", "G1", "n1_", "", "a"];
        let hashes: Vec<u64> = names.iter().map(|n| fx_hash(n.as_bytes())).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{} vs {}", names[i], names[j]);
            }
        }
    }
}
