//! Enumeration of complete subgraphs (cliques) of the compatibility
//! graph — the `find_cliques(G, q, N)` step of Algorithm 2.
//!
//! The enumerator performs an ordered depth-first extension search: a
//! clique `{v₁ < v₂ < … }` is only ever extended with vertices greater
//! than its maximum, so every size-`q` clique is produced exactly once.
//! Candidate sets are bit-packed rows of the compatibility matrix, making
//! the intersection step a handful of word ANDs. The search stops as soon
//! as `limit` cliques are found — the paper's Table IV caps range from
//! 1 000 to ~22 000 subgraphs per circuit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use htforge_atpg::Cube;
use htforge_obs::{BudgetTicker, RunBudget};

use crate::compat::CompatGraph;

/// A complete subgraph of the compatibility graph: the trigger-node set
/// of one trojan instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clique {
    /// Vertex indices into [`CompatGraph::events`].
    pub members: Vec<usize>,
    /// The merged test cube that simultaneously drives every member to
    /// its rare value — the trojan's (never-applied) activation vector.
    pub activation_cube: Cube,
}

impl Clique {
    /// Clique size (the trojan's trigger-node count `q`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the clique is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Enumerates up to `limit` cliques of size exactly `size`.
///
/// `order_seed` permutes the vertex visiting order: different seeds find
/// different (overlapping) clique families first, which is how the
/// framework diversifies the `N` trojan instances it emits.
///
/// Returns fewer than `limit` cliques (possibly zero) when the graph does
/// not contain them.
///
/// # Panics
///
/// Panics if `size == 0`.
#[must_use]
pub fn enumerate_cliques(
    graph: &CompatGraph,
    size: usize,
    limit: usize,
    order_seed: u64,
) -> Vec<Clique> {
    enumerate_cliques_budgeted(graph, size, limit, order_seed, &RunBudget::unlimited()).0
}

/// Budget-aware [`enumerate_cliques`]: the DFS checks the budget
/// (amortized, every 256 expansions) and stops early when it is spent.
/// Returns the cliques found so far plus a flag reporting whether the
/// search was cut short — callers typically fall back to
/// [`sample_cliques`] (greedy) for the remainder, the framework's
/// degradation-ladder step.
///
/// # Panics
///
/// Panics if `size == 0`.
#[must_use]
pub fn enumerate_cliques_budgeted(
    graph: &CompatGraph,
    size: usize,
    limit: usize,
    order_seed: u64,
    budget: &RunBudget,
) -> (Vec<Clique>, bool) {
    assert!(size > 0, "clique size must be positive");
    let n = graph.len();
    let mut out = Vec::new();
    if n < size || limit == 0 {
        return (out, false);
    }
    let mut ticker = BudgetTicker::new(budget.clone(), 256);

    // Visit vertices in a seeded random order, but keep extension
    // candidates in ascending index order for exactly-once enumeration.
    let mut roots: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(order_seed);
    roots.shuffle(&mut rng);

    let words = n.div_ceil(64);
    let mut stack_members: Vec<usize> = Vec::with_capacity(size);

    // Iterative DFS with explicit candidate sets. `expanded` counts
    // search-tree nodes visited, for the `clique.nodes_expanded` counter.
    #[allow(clippy::too_many_arguments)] // recursion-local state, one call site
    fn extend(
        graph: &CompatGraph,
        members: &mut Vec<usize>,
        candidates: &[u64],
        size: usize,
        limit: usize,
        out: &mut Vec<Clique>,
        expanded: &mut u64,
        ticker: &mut BudgetTicker,
    ) {
        *expanded += 1;
        if ticker.tick().is_err() || out.len() >= limit {
            return;
        }
        if members.len() == size {
            let cube = graph
                .merged_cube(members)
                .expect("clique members are pairwise compatible");
            out.push(Clique {
                members: members.clone(),
                activation_cube: cube,
            });
            return;
        }
        // Prune: not enough candidates left to reach `size`.
        let remaining: usize = candidates.iter().map(|w| w.count_ones() as usize).sum();
        if members.len() + remaining < size {
            return;
        }
        let base = *members.last().expect("extend called with nonempty clique");
        for (w, &word) in candidates.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = w * 64 + b;
                if v <= base {
                    continue; // ascending order ⇒ exactly-once
                }
                let row = graph.row(v);
                let next: Vec<u64> = candidates.iter().zip(row).map(|(&c, &r)| c & r).collect();
                members.push(v);
                extend(graph, members, &next, size, limit, out, expanded, ticker);
                members.pop();
                if ticker.exceeded().is_some() || out.len() >= limit {
                    return;
                }
            }
        }
    }

    let mut expanded = 0u64;
    for &root in &roots {
        htforge_obs::faultpoint!("clique.extend");
        if ticker.check_now().is_err() || out.len() >= limit {
            break;
        }
        stack_members.clear();
        stack_members.push(root);
        if size == 1 {
            let cube = graph.merged_cube(&stack_members).expect("single member");
            out.push(Clique {
                members: vec![root],
                activation_cube: cube,
            });
            continue;
        }
        // Candidates: neighbors of root with index > root (ascending-order
        // discipline also applies to the root so each clique is rooted at
        // its minimum vertex).
        let row = graph.row(root);
        let mut candidates = vec![0u64; words];
        candidates.copy_from_slice(row);
        // Mask out indices <= root.
        for (w, cand) in candidates.iter_mut().enumerate() {
            let lo = w * 64;
            if lo + 64 <= root + 1 {
                *cand = 0;
            } else if lo <= root {
                *cand &= !((1u64 << (root - lo + 1)) - 1);
            }
        }
        extend(
            graph,
            &mut stack_members,
            &candidates,
            size,
            limit,
            &mut out,
            &mut expanded,
            &mut ticker,
        );
    }
    htforge_obs::counter("clique.nodes_expanded").add(expanded);
    htforge_obs::counter("clique.found").add(out.len() as u64);
    (out, ticker.exceeded().is_some())
}

/// Samples up to `count` *distinct* cliques of size exactly `size` by
/// randomized greedy growth with restarts.
///
/// Unlike [`enumerate_cliques`] this is not exhaustive — it may return
/// fewer cliques than exist — but it never risks the exponential
/// backtracking that exact search incurs when `size` approaches the
/// graph's clique number. The framework uses it for large trigger
/// counts; Table IV's exhaustive counts use [`enumerate_cliques`].
#[must_use]
pub fn sample_cliques(graph: &CompatGraph, size: usize, count: usize, seed: u64) -> Vec<Clique> {
    sample_cliques_budgeted(graph, size, count, seed, &RunBudget::unlimited()).0
}

/// Budget-aware [`sample_cliques`]: the budget is checked before every
/// greedy start and every randomized restart. Returns the cliques found
/// plus a flag reporting whether sampling stopped early on a spent
/// budget.
///
/// # Panics
///
/// Panics if `size == 0`.
#[must_use]
pub fn sample_cliques_budgeted(
    graph: &CompatGraph,
    size: usize,
    count: usize,
    seed: u64,
    budget: &RunBudget,
) -> (Vec<Clique>, bool) {
    assert!(size > 0, "clique size must be positive");
    let n = graph.len();
    let mut out: Vec<Clique> = Vec::new();
    if n < size || count == 0 {
        return (out, false);
    }
    let mut ticker = BudgetTicker::new(budget.clone(), 4);
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut push = |members: Vec<usize>, out: &mut Vec<Clique>| {
        let mut key = members.clone();
        key.sort_unstable();
        if seen.insert(key) {
            let cube = graph
                .merged_cube(&members)
                .expect("greedy members are pairwise compatible");
            out.push(Clique {
                members,
                activation_cube: cube,
            });
        }
    };

    // Pass 1: deterministic greedy from every start vertex (shuffled).
    // This is the same construction [`max_feasible_size`] probes with, so
    // any size that probe reports is guaranteed to be sampleable here.
    let mut starts: Vec<usize> = (0..n).collect();
    starts.shuffle(&mut rng);
    for &start in &starts {
        if out.len() >= count {
            htforge_obs::counter("clique.found").add(out.len() as u64);
            return (out, false);
        }
        if ticker.tick().is_err() {
            break;
        }
        let members = greedy_clique(graph, start, size, None);
        if members.len() == size {
            push(members, &mut out);
        }
    }

    // Pass 2: randomized tie-breaking restarts for additional diversity.
    let restart_budget = count.saturating_mul(20).max(64);
    let restarts = htforge_obs::counter("clique.greedy_restarts");
    for _ in 0..restart_budget {
        if out.len() >= count || ticker.tick().is_err() {
            break;
        }
        restarts.incr();
        let start = rng.gen_range(0..n);
        let members = greedy_clique(graph, start, size, Some(&mut rng));
        if members.len() == size {
            push(members, &mut out);
        }
    }
    htforge_obs::counter("clique.found").add(out.len() as u64);
    let timed_out = ticker.exceeded().is_some();
    (out, timed_out)
}

/// Greedily grows one clique from `start`: repeatedly adds a candidate
/// that keeps many future candidates alive. Without `rng` it takes the
/// candidate with the largest remaining candidate intersection (the
/// first on ties); with `rng` it picks at random among the best three,
/// which diversifies the cliques found across restarts. Returns the
/// member set (a genuine clique, not necessarily maximum).
fn greedy_clique(
    graph: &CompatGraph,
    start: usize,
    cap: usize,
    mut rng: Option<&mut StdRng>,
) -> Vec<usize> {
    if start >= graph.len() || cap == 0 {
        return Vec::new();
    }
    let width = if rng.is_some() { 3 } else { 1 };
    let mut candidates: Vec<u64> = graph.row(start).to_vec();
    let mut members = vec![start];
    while members.len() < cap {
        // Score every candidate by surviving-candidate count, keep the
        // best `width` (a stable sort keeps ties in vertex order).
        let mut top: Vec<(usize, usize)> = Vec::new(); // (vertex, surviving)
        for (w, &word) in candidates.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = w * 64 + b;
                let surviving: usize = candidates
                    .iter()
                    .zip(graph.row(v))
                    .map(|(&c, &r)| (c & r).count_ones() as usize)
                    .sum();
                top.push((v, surviving));
                top.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
                top.truncate(width);
            }
        }
        if top.is_empty() {
            break;
        }
        let pick = rng.as_mut().map_or(0, |rng| rng.gen_range(0..top.len()));
        let v = top[pick].0;
        for (c, &r) in candidates.iter_mut().zip(graph.row(v)) {
            *c &= r;
        }
        members.push(v);
    }
    members
}

/// Reports a *feasible* clique size — the best greedy clique found from a
/// spread of start vertices, capped at `upper_bound`. Because the size is
/// witnessed by an actual clique, [`enumerate_cliques`] at this size is
/// guaranteed to succeed; unlike a maximum-clique search, no
/// (worst-case-exponential) nonexistence proofs are ever attempted.
/// The framework uses this to report the per-circuit trigger-node ranges
/// of the paper's Table III.
#[must_use]
pub fn max_feasible_size(graph: &CompatGraph, upper_bound: usize, seed: u64) -> usize {
    let n = graph.len();
    if n == 0 || upper_bound == 0 {
        return 0;
    }
    let mut starts: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    starts.shuffle(&mut rng);
    let mut best = 0usize;
    for &start in starts.iter().take(16) {
        let size = greedy_clique(graph, start, upper_bound, None).len();
        best = best.max(size);
        if best >= upper_bound {
            break;
        }
    }
    best.min(upper_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_atpg::PodemConfig;
    use htforge_netlist::bench;
    use htforge_sim::{PatternSet, RareNodeExtractor};

    /// Four independent AND cones: all outputs mutually compatible.
    const FOUR_CONES: &str = "\
INPUT(a1)
INPUT(a2)
INPUT(b1)
INPUT(b2)
INPUT(c1)
INPUT(c2)
INPUT(d1)
INPUT(d2)
OUTPUT(w)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
w = AND(a1, a2)
x = AND(b1, b2)
y = AND(c1, c2)
z = AND(d1, d2)
";

    fn graph() -> CompatGraph {
        let nl = bench::parse(FOUR_CONES, "t").unwrap();
        let ps = PatternSet::random(8, 10_000, 1);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap()
    }

    #[test]
    fn complete_graph_clique_counts() {
        let g = graph();
        assert_eq!(g.len(), 4);
        // K4: C(4,2)=6 pairs, C(4,3)=4 triples, 1 quad.
        assert_eq!(enumerate_cliques(&g, 2, 100, 0).len(), 6);
        assert_eq!(enumerate_cliques(&g, 3, 100, 0).len(), 4);
        assert_eq!(enumerate_cliques(&g, 4, 100, 0).len(), 1);
        assert_eq!(enumerate_cliques(&g, 5, 100, 0).len(), 0);
    }

    #[test]
    fn limit_is_respected() {
        let g = graph();
        assert_eq!(enumerate_cliques(&g, 2, 3, 0).len(), 3);
        assert_eq!(enumerate_cliques(&g, 2, 0, 0).len(), 0);
    }

    #[test]
    fn cliques_are_unique() {
        let g = graph();
        let cliques = enumerate_cliques(&g, 3, 100, 7);
        for (i, a) in cliques.iter().enumerate() {
            let mut sa = a.members.clone();
            sa.sort_unstable();
            for b in &cliques[i + 1..] {
                let mut sb = b.members.clone();
                sb.sort_unstable();
                assert_ne!(sa, sb, "duplicate clique");
            }
        }
    }

    #[test]
    fn members_are_pairwise_compatible() {
        let g = graph();
        for c in enumerate_cliques(&g, 3, 100, 3) {
            for (i, &a) in c.members.iter().enumerate() {
                for &b in &c.members[i + 1..] {
                    assert!(g.compatible(a, b));
                }
            }
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn different_seeds_change_discovery_order() {
        let g = graph();
        let a = enumerate_cliques(&g, 2, 2, 0);
        let b = enumerate_cliques(&g, 2, 2, 99);
        // Same universe, possibly different first finds; both valid.
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn max_feasible_size_probes_down() {
        let g = graph();
        assert_eq!(max_feasible_size(&g, 10, 0), 4);
        assert_eq!(max_feasible_size(&g, 3, 0), 3);
    }

    #[test]
    fn sampled_cliques_are_valid_and_distinct() {
        let g = graph();
        let cliques = sample_cliques(&g, 3, 10, 1);
        assert!(!cliques.is_empty());
        let mut keys: Vec<Vec<usize>> = cliques
            .iter()
            .map(|c| {
                let mut k = c.members.clone();
                k.sort_unstable();
                k
            })
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "sampled cliques must be distinct");
        for c in &cliques {
            assert_eq!(c.len(), 3);
            for (i, &a) in c.members.iter().enumerate() {
                for &b in &c.members[i + 1..] {
                    assert!(g.compatible(a, b));
                }
            }
        }
    }

    #[test]
    fn probed_size_is_always_sampleable() {
        // Regression guard: `max_feasible_size` must report only sizes
        // that `sample_cliques` can actually produce (the pair once
        // disagreed, sending the framework into exponential fallback).
        let g = graph();
        for seed in 0..5 {
            let q = max_feasible_size(&g, 10, seed);
            assert!(q > 0);
            assert!(
                !sample_cliques(&g, q, 1, seed).is_empty(),
                "probe said q={q} but sampling failed (seed {seed})"
            );
        }
    }

    #[test]
    fn greedy_clique_members_are_compatible() {
        let g = graph();
        for start in 0..g.len() {
            let members = greedy_clique(&g, start, 10, None);
            assert!(!members.is_empty());
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    assert!(g.compatible(a, b));
                }
            }
        }
    }

    #[test]
    fn size_one_cliques() {
        let g = graph();
        assert_eq!(enumerate_cliques(&g, 1, 100, 0).len(), 4);
    }

    #[test]
    fn budgeted_enumeration_matches_unbudgeted_with_time_left() {
        let g = graph();
        let budget = RunBudget::with_deadline(std::time::Duration::from_secs(60));
        let (cliques, timed_out) = enumerate_cliques_budgeted(&g, 3, 100, 0, &budget);
        assert!(!timed_out);
        assert_eq!(cliques, enumerate_cliques(&g, 3, 100, 0));
    }

    #[test]
    fn spent_budget_stops_enumeration_and_sampling() {
        let g = graph();
        let budget = RunBudget::with_deadline(std::time::Duration::ZERO);
        let (cliques, timed_out) = enumerate_cliques_budgeted(&g, 3, 100, 0, &budget);
        assert!(timed_out);
        assert!(cliques.len() < 4, "must stop before full enumeration");
        let (sampled, timed_out) = sample_cliques_budgeted(&g, 3, 10, 1, &budget);
        assert!(timed_out);
        // Whatever was found before the stop is still a valid clique.
        for c in cliques.iter().chain(&sampled) {
            for (i, &a) in c.members.iter().enumerate() {
                for &b in &c.members[i + 1..] {
                    assert!(g.compatible(a, b));
                }
            }
        }
    }

    /// Sampled member lists and probed sizes on a detect-mode c2670
    /// graph, pinned by an FNV-1a digest over every member list.
    #[test]
    fn greedy_outputs_are_pinned_on_c2670() {
        let nl = htforge_circuits::load("c2670").unwrap();
        let ps = PatternSet::random(nl.inputs().len(), 4_096, 11);
        let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
        let config = PodemConfig {
            backtrack_limit: 200,
            ..PodemConfig::default()
        };
        let g = CompatGraph::build(&nl, &rare, config).unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut cliques = Vec::new();
        for (q, count, seed) in [(4, 40, 1), (8, 400, 2), (12, 10, 3)] {
            let sampled = sample_cliques(&g, q, count, seed);
            cliques.push(sampled.len());
            for c in sampled {
                for m in c.members.into_iter().chain([usize::MAX]) {
                    digest = (digest ^ m as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        let sizes: Vec<usize> = (0..4).map(|seed| max_feasible_size(&g, 64, seed)).collect();
        assert_eq!(
            (g.len(), cliques, sizes),
            (319, vec![40, 400, 10], vec![35, 35, 35, 34])
        );
        assert_eq!(digest, 0x9ec1_0322_d362_4320);
    }
}
