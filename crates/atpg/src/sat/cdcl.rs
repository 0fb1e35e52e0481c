//! A small conflict-driven clause-learning (CDCL) SAT solver in the
//! MiniSat mould (Eén & Sörensson, SAT 2003): two watched literals per
//! clause, first-UIP learning with local minimization, a VSIDS
//! activity heap, phase saving and Luby restarts.
//!
//! The solver is built for many small, independent instances: after
//! [`Solver::clear`] every vector keeps its capacity, so one solver per
//! worker allocates only while its largest instance grows.

use std::ops::Not;

/// A literal: variable `v` is `2v` (positive) or `2v + 1` (negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Lit(u32);

impl Lit {
    /// The literal that is true when `var` is `value`.
    pub(crate) fn new(var: u32, value: bool) -> Lit {
        Lit(var << 1 | u32::from(!value))
    }

    /// The literal that is true when `self` has the value `value`.
    pub(crate) fn equals(self, value: bool) -> Lit {
        if value {
            self
        } else {
            !self
        }
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    /// The value this literal gives its variable when it is true.
    fn polarity(self) -> bool {
        self.0 & 1 == 0
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// A variable or literal value: false, true, or unassigned.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

/// Conflicts before the first restart; the Luby sequence scales it.
const RESTART_BASE: u64 = 100;
/// VSIDS decay: the bump grows by `1 / DECAY` per conflict.
const DECAY: f64 = 0.95;

/// A clause in the arena: its literals are `lits[start..start + len]`,
/// and the first two are watched.
#[derive(Debug, Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
}

/// A watch-list entry: a clause that watches the negation of the list's
/// literal, and a literal of it whose truth lets the visit be skipped.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// The outcome of [`Solver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// A model exists; read it with [`Solver::model_value`].
    Sat,
    /// No model exists.
    Unsat,
    /// The conflict limit was reached before a verdict.
    Unknown,
}

/// The CDCL solver. Clauses go in with [`Solver::add_clause`] at
/// decision level 0; [`Solver::solve`] then decides them.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    lits: Vec<Lit>,
    clauses: Vec<Clause>,
    /// Indexed by literal: the clauses watching its negation.
    watches: Vec<Vec<Watch>>,
    /// Per-variable state.
    assigns: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    activity: Vec<f64>,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    /// The VSIDS order: a binary max-heap on `activity`, with each
    /// variable's heap position (`usize::MAX` when absent).
    heap: Vec<u32>,
    heap_pos: Vec<usize>,
    bump: f64,
    /// Assigned literals in assignment order, and where each decision
    /// level starts in it.
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// The next trail entry to propagate.
    qhead: usize,
    /// `false` once the clauses are known unsatisfiable at level 0.
    ok: bool,
    /// The SAT model, per variable, from the last [`Solver::solve`].
    model: Vec<bool>,
    /// Scratch for clause normalization and learning.
    tmp: Vec<Lit>,
    learnt: Vec<Lit>,
    to_clear: Vec<usize>,
}

impl Solver {
    /// An empty solver.
    pub(crate) fn new() -> Solver {
        let mut solver = Solver::default();
        solver.clear();
        solver
    }

    /// Forgets every variable and clause, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.lits.clear();
        self.clauses.clear();
        self.watches.iter_mut().for_each(Vec::clear);
        self.assigns.clear();
        self.level.clear();
        self.reason.clear();
        self.activity.clear();
        self.saved_phase.clear();
        self.seen.clear();
        self.heap.clear();
        self.heap_pos.clear();
        self.bump = 1.0;
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.ok = true;
        self.model.clear();
    }

    /// A fresh variable.
    pub(crate) fn new_var(&mut self) -> u32 {
        let v = self.assigns.len();
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(usize::MAX);
        if self.watches.len() < 2 * (v + 1) {
            self.watches.resize_with(2 * (v + 1), Vec::new);
        }
        self.heap_insert(v);
        v as u32
    }

    /// Adds the clause `lits` (a disjunction) at decision level 0.
    /// Duplicate literals are merged, tautologies and clauses already
    /// satisfied are dropped, and literals already false are removed; a
    /// clause that becomes a unit is propagated at once. Returns `false`
    /// once the clauses are unsatisfiable.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        self.tmp.clear();
        self.tmp.extend_from_slice(lits);
        self.tmp.sort_unstable();
        self.tmp.dedup();
        let mut kept = 0;
        for i in 0..self.tmp.len() {
            let l = self.tmp[i];
            let satisfied =
                self.value(l) == TRUE || (i + 1 < self.tmp.len() && self.tmp[i + 1] == !l);
            if satisfied {
                return true;
            }
            if self.value(l) == UNDEF {
                self.tmp[kept] = l;
                kept += 1;
            }
        }
        self.tmp.truncate(kept);
        match kept {
            0 => self.ok = false,
            1 => {
                self.enqueue(self.tmp[0], None);
                self.ok = self.propagate().is_none();
            }
            _ => {
                let lits = std::mem::take(&mut self.tmp);
                let clause = self.push_clause(&lits);
                self.tmp = lits;
                self.attach(clause);
            }
        }
        self.ok
    }

    /// Decides the clauses, giving up after `conflict_limit` conflicts.
    pub(crate) fn solve(&mut self, conflict_limit: u64) -> Outcome {
        if !self.ok || self.propagate().is_some() {
            self.ok = false;
            return Outcome::Unsat;
        }
        let mut conflicts = 0u64;
        let mut restarts = 0u32;
        loop {
            let mut budget = RESTART_BASE * luby(restarts);
            restarts += 1;
            loop {
                if let Some(conflict) = self.propagate() {
                    conflicts += 1;
                    if self.trail_lim.is_empty() {
                        self.ok = false;
                        return Outcome::Unsat;
                    }
                    let backtrack_level = self.analyze(conflict);
                    self.cancel_until(backtrack_level);
                    let asserting = self.learnt[0];
                    if self.learnt.len() == 1 {
                        self.enqueue(asserting, None);
                    } else {
                        let learnt = std::mem::take(&mut self.learnt);
                        let clause = self.push_clause(&learnt);
                        self.learnt = learnt;
                        self.attach(clause);
                        self.enqueue(asserting, Some(clause));
                    }
                    self.bump /= DECAY;
                    budget = budget.saturating_sub(1);
                    continue;
                }
                if conflicts >= conflict_limit {
                    self.cancel_until(0);
                    return Outcome::Unknown;
                }
                if budget == 0 {
                    self.cancel_until(0);
                    break;
                }
                match self.pick_branch() {
                    Some(v) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(Lit::new(v as u32, self.saved_phase[v]), None);
                    }
                    None => {
                        self.model.clear();
                        self.model.extend(self.assigns.iter().map(|&a| a == TRUE));
                        self.cancel_until(0);
                        return Outcome::Sat;
                    }
                }
            }
        }
    }

    /// The value of `var` in the model of the last satisfiable
    /// [`Solver::solve`].
    pub(crate) fn model_value(&self, var: u32) -> bool {
        self.model[var as usize]
    }

    /// The model value of `lit`.
    pub(crate) fn model_lit(&self, lit: Lit) -> bool {
        self.model_value(lit.var() as u32) == lit.polarity()
    }

    fn value(&self, lit: Lit) -> u8 {
        match self.assigns[lit.var()] {
            UNDEF => UNDEF,
            a => a ^ (lit.0 & 1) as u8,
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        let v = lit.var();
        debug_assert_eq!(self.assigns[v], UNDEF);
        self.assigns[v] = u8::from(lit.polarity());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn push_clause(&mut self, lits: &[Lit]) -> u32 {
        let clause = Clause {
            start: self.lits.len() as u32,
            len: lits.len() as u32,
        };
        self.lits.extend_from_slice(lits);
        self.clauses.push(clause);
        (self.clauses.len() - 1) as u32
    }

    fn clause_lits(&self, clause: u32) -> &[Lit] {
        let c = self.clauses[clause as usize];
        &self.lits[c.start as usize..(c.start + c.len) as usize]
    }

    fn attach(&mut self, clause: u32) {
        let (first, second) = {
            let lits = self.clause_lits(clause);
            (lits[0], lits[1])
        };
        self.watches[(!first).index()].push(Watch {
            clause,
            blocker: second,
        });
        self.watches[(!second).index()].push(Watch {
            clause,
            blocker: first,
        });
    }

    /// Unit propagation over the trail; returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut watches = std::mem::take(&mut self.watches[p.index()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < watches.len() {
                let w = watches[i];
                i += 1;
                if self.value(w.blocker) == TRUE {
                    watches[j] = w;
                    j += 1;
                    continue;
                }
                let Clause { start, len } = self.clauses[w.clause as usize];
                let (start, len) = (start as usize, len as usize);
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                let kept = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == TRUE {
                    watches[j] = kept;
                    j += 1;
                    continue;
                }
                if let Some(k) = (2..len).find(|&k| self.value(self.lits[start + k]) != FALSE) {
                    self.lits.swap(start + 1, start + k);
                    let new_watch = !self.lits[start + 1];
                    self.watches[new_watch.index()].push(kept);
                    continue;
                }
                watches[j] = kept;
                j += 1;
                if self.value(first) == FALSE {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    while i < watches.len() {
                        watches[j] = watches[i];
                        i += 1;
                        j += 1;
                    }
                } else {
                    self.enqueue(first, Some(w.clause));
                }
            }
            watches.truncate(j);
            self.watches[p.index()] = watches;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: leaves the learnt clause in
    /// `self.learnt` (asserting literal first, a literal of the
    /// backtrack level second) and returns the backtrack level.
    fn analyze(&mut self, mut conflict: u32) -> usize {
        let current = self.trail_lim.len() as u32;
        self.learnt.clear();
        self.learnt.push(Lit(0)); // replaced by the asserting literal
        let mut pending = 0usize;
        let mut index = self.trail.len();
        let mut resolved: Option<Lit> = None;
        loop {
            let c = self.clauses[conflict as usize];
            // A reason clause's first literal is the one it implied.
            let skip = usize::from(resolved.is_some());
            for k in skip..c.len as usize {
                let q = self.lits[c.start as usize + k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_activity(v);
                    if self.level[v] == current {
                        pending += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var()] = false;
            resolved = Some(p);
            pending -= 1;
            if pending == 0 {
                break;
            }
            conflict = self.reason[p.var()].expect("an implied literal has a reason");
        }
        self.learnt[0] = !resolved.expect("the conflict is at the current level");

        // Local minimization: drop a literal whose reason's other
        // literals are all in the clause or fixed at level 0.
        self.to_clear.clear();
        self.to_clear
            .extend(self.learnt[1..].iter().map(|l| l.var()));
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            let l = self.learnt[i];
            let redundant = self.reason[l.var()].is_some_and(|r| {
                self.clause_lits(r)[1..]
                    .iter()
                    .all(|q| self.seen[q.var()] || self.level[q.var()] == 0)
            });
            if !redundant {
                self.learnt[kept] = l;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);
        for &v in &self.to_clear {
            self.seen[v] = false;
        }

        if self.learnt.len() == 1 {
            return 0;
        }
        let (at, level) = (1..self.learnt.len())
            .map(|i| (i, self.level[self.learnt[i].var()]))
            .max_by_key(|&(i, level)| (level, std::cmp::Reverse(i)))
            .expect("a learnt clause of two or more literals");
        self.learnt.swap(1, at);
        level as usize
    }

    /// Undoes every assignment above decision level `level`, saving
    /// each variable's phase.
    fn cancel_until(&mut self, level: usize) {
        if self.trail_lim.len() <= level {
            return;
        }
        let start = self.trail_lim[level];
        for i in (start..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.saved_phase[v] = lit.polarity();
            self.assigns[v] = UNDEF;
            self.reason[v] = None;
            if self.heap_pos[v] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(start);
        self.trail_lim.truncate(level);
        self.qhead = start;
    }

    /// The unassigned variable of highest activity.
    fn pick_branch(&mut self) -> Option<usize> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump_activity(&mut self, v: usize) {
        self.activity[v] += self.bump;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.bump *= 1e-100;
        }
        if self.heap_pos[v] != usize::MAX {
            self.sift_up(self.heap_pos[v]);
        }
    }

    fn heap_insert(&mut self, v: usize) {
        self.heap_pos[v] = self.heap.len();
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("non-empty heap");
        self.heap_pos[top] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize) {
        let v = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if self.activity[p as usize] >= self.activity[v as usize] {
                break;
            }
            self.heap[pos] = p;
            self.heap_pos[p as usize] = pos;
            pos = parent;
        }
        self.heap[pos] = v;
        self.heap_pos[v as usize] = pos;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let v = self.heap[pos];
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && self.activity[self.heap[right] as usize]
                    > self.activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if self.activity[c as usize] <= self.activity[v as usize] {
                break;
            }
            self.heap[pos] = c;
            self.heap_pos[c as usize] = pos;
            pos = child;
        }
        self.heap[pos] = v;
        self.heap_pos[v as usize] = pos;
    }
}

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, … at position `i`.
fn luby(mut i: u32) -> u64 {
    // Find the finite subsequence holding position `i`, then its index.
    let (mut size, mut seq) = (1u32, 0u32);
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, value: bool) -> Lit {
        Lit::new(v, value)
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_and_unit_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[lit(a, true)]));
        assert_eq!(s.solve(100), Outcome::Sat);
        assert!(s.model_value(a));
        assert!(!s.add_clause(&[lit(a, false)]));
        assert_eq!(s.solve(100), Outcome::Unsat);
        s.clear();
        assert!(s.assigns.is_empty() && s.clauses.is_empty());
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(100), Outcome::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_normalized() {
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        assert!(s.add_clause(&[lit(a, true), lit(a, false), lit(b, false)]));
        assert!(s.add_clause(&[lit(b, true), lit(b, true)]));
        assert!(s.add_clause(&[lit(a, false), lit(b, false), lit(a, false)]));
        assert_eq!(s.solve(100), Outcome::Sat);
        assert!(s.model_value(b) && !s.model_value(a));
    }

    /// Pigeonhole: `holes + 1` pigeons in `holes` holes, unsatisfiable
    /// and hard for resolution, so it exercises learning and restarts.
    fn pigeonhole(s: &mut Solver, holes: u32) {
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| p * holes + h;
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| lit(var(p, h), true)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p in 0..pigeons {
                for q in p + 1..pigeons {
                    s.add_clause(&[lit(var(p, h), false), lit(var(q, h), false)]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_is_unsat_and_the_limit_is_honoured() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6);
        assert_eq!(s.solve(1_000_000), Outcome::Unsat);
        s.clear();
        pigeonhole(&mut s, 8);
        assert_eq!(s.solve(10), Outcome::Unknown);
    }

    /// Random 3-SAT instances at the satisfiability threshold (4 to 4.5
    /// clauses per variable, where learning does the most work) checked
    /// against brute force. Smaller or sparser instances let an unsound
    /// clause minimization pass.
    #[test]
    fn random_3sat_matches_enumeration() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Solver::new();
        let (mut sat, mut unsat) = (0, 0);
        for _ in 0..200 {
            let vars = rng.gen_range(14..21u32);
            let count = rng.gen_range(4 * vars..9 * vars / 2 + 1);
            let clauses: Vec<Vec<Lit>> = (0..count)
                .map(|_| {
                    (0..3)
                        .map(|_| lit(rng.gen_range(0..vars), rng.gen()))
                        .collect()
                })
                .collect();
            s.clear();
            for _ in 0..vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            // Each clause as (positive, negative) variable masks.
            let masks: Vec<(u32, u32)> = clauses
                .iter()
                .map(|c| {
                    c.iter().fold((0, 0), |(p, n), l| {
                        let bit = 1 << l.var();
                        if l.polarity() {
                            (p | bit, n)
                        } else {
                            (p, n | bit)
                        }
                    })
                })
                .collect();
            let holds = |m: u32| masks.iter().all(|&(p, n)| m & p != 0 || !m & n != 0);
            let brute = (0..1u32 << vars).any(holds);
            match s.solve(u64::MAX) {
                Outcome::Sat => {
                    assert!(brute);
                    let m = (0..vars).fold(0u32, |m, v| m | u32::from(s.model_value(v)) << v);
                    assert!(holds(m), "model violates a clause");
                    sat += 1;
                }
                Outcome::Unsat => {
                    assert!(!brute, "UNSAT on a satisfiable instance");
                    unsat += 1;
                }
                Outcome::Unknown => unreachable!("no limit"),
            }
        }
        assert!(sat > 20 && unsat > 20, "{sat} SAT, {unsat} UNSAT");
    }
}
