//! The compatibility graph — the paper's **Algorithm 2**
//! (`Gen_compatibility`).
//!
//! For each rare event (rare node, rare value), a test cube justifies the
//! rare value; vertices of the compatibility graph are the rare events and
//! an edge connects two events whose cubes have no conflicting care bits.
//! Complete subgraphs of this graph are sets of rare nodes that a single
//! merged vector drives to their rare values simultaneously — the trojan
//! insertion points.
//!
//! Rare profiling already saw most rare events fire. In justify mode
//! the cube of such an event is lifted off that profiling pattern (the
//! event's *witness*) in one backward pass ([`htforge_atpg::lift`]).
//! Events without a witness, and every event in detect mode, run PODEM.
//! In justify mode the SAT solver ([`MiterSolver::justify`]) decides the
//! events PODEM aborts on, and a satisfying model is lifted like a
//! witness.
//!
//! The matrix is filled from a per-input conflict index, not pair by
//! pair: an event conflicts with exactly the events that need the
//! opposite value on one of its care bits.

use htforge_atpg::sat::{MiterSolver, Verdict};
use htforge_atpg::{Cube, Fault, Lifter, Podem, PodemConfig, PodemMode, TestResult};
use htforge_netlist::{netlist::NodeId, Netlist, NetlistError};
use htforge_obs::{BudgetTicker, DegradationNote, RunBudget};
use htforge_scoap::Scoap;
use htforge_sim::{NodeValues, PatternSet, RareNodeSet, SimProgram};

/// Checks every event's cube by simulation: each cube's `fill_with(false)`
/// vector becomes one column of a single pattern set, and one kernel run
/// evaluates them all. An event survives if its node shows the rare value
/// in its own column. Returns the survivors (in order) and the number
/// dropped, which is also added to `compat.cube_verify_failures`.
fn verify_cubes(prog: &SimProgram, events: Vec<RareEvent>) -> (Vec<RareEvent>, usize) {
    let mut vectors = PatternSet::zeros(prog.num_inputs(), 0);
    for e in &events {
        vectors.push(&e.cube.fill_with(false));
    }
    let values = prog.run(&vectors);
    let total = events.len();
    let verified: Vec<RareEvent> = events
        .into_iter()
        .enumerate()
        .filter(|(k, e)| values.value(e.node, *k) == e.rare_value)
        .map(|(_, e)| e)
        .collect();
    let failures = total - verified.len();
    if failures > 0 {
        htforge_obs::counter("compat.cube_verify_failures").add(failures as u64);
    }
    (verified, failures)
}

/// Simulates the witness patterns of `rare` on the compiled netlist and
/// returns, per event in `rare.iter()` order, the witness column if the
/// event's node really takes its rare value there. Any other event (no
/// witness, or a `rare` profiled on a different netlist) gets `None` and
/// runs PODEM.
fn witness_columns(prog: &SimProgram, rare: &RareNodeSet) -> (NodeValues, Vec<Option<usize>>) {
    let patterns = if rare.witnesses().num_inputs() == prog.num_inputs() {
        rare.witnesses()
    } else {
        &PatternSet::zeros(prog.num_inputs(), 0)
    };
    let values = prog.run(patterns);
    let columns = rare
        .iter()
        .map(|r| {
            let column = r.witness? as usize;
            (column < values.len() && values.value(r.node, column) == r.rare_value)
                .then_some(column)
        })
        .collect();
    (values, columns)
}

/// Decides each `(node, value)` justification with the SAT solver, on as
/// many solvers as there are workers with a question to decide, and
/// returns its cube in order, or `None`. An UNSAT question has no cube
/// (`compat.unsat`), and neither has one past the solver's conflict limit
/// (`compat.sat_unknown`) or one the budget skips. The models of the SAT
/// questions (`compat.solved`) are simulated in one kernel run, and each
/// cube is lifted off its model like a profiling witness.
fn solve_justifications(
    prog: &SimProgram,
    scoap: &Scoap,
    nl: &Netlist,
    questions: &[(NodeId, bool)],
    threads: usize,
    budget: &RunBudget,
) -> Result<Vec<Option<Cube>>, NetlistError> {
    let mut solvers: Vec<MiterSolver> = (0..threads.min(questions.len()))
        .map(|_| MiterSolver::new(nl))
        .collect::<Result<_, _>>()?;
    let verdicts = htforge_obs::map_indexed(&mut solvers, questions.len(), |solver, k| {
        budget.check().is_ok().then(|| {
            let (node, value) = questions[k];
            solver.justify(node, value)
        })
    });
    let (mut solved, mut models) = (Vec::new(), Vec::new());
    let (mut unsat, mut unknown) = (0u64, 0u64);
    for (k, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            Some(Verdict::Detectable(model)) => {
                solved.push(k);
                models.push(model);
            }
            Some(Verdict::Undetectable) => unsat += 1,
            Some(Verdict::Unknown) => unknown += 1,
            None => {}
        }
    }
    htforge_obs::counter("compat.unsat").add(unsat);
    htforge_obs::counter("compat.sat_unknown").add(unknown);
    htforge_obs::counter("compat.solved").add(solved.len() as u64);
    let mut cubes = vec![None; questions.len()];
    if !solved.is_empty() {
        let values = prog.run(&PatternSet::from_vectors(prog.num_inputs(), &models));
        let mut lifter = Lifter::new(nl, scoap)?;
        for (column, &k) in solved.iter().enumerate() {
            let (node, value) = questions[k];
            cubes[k] = Some(lifter.lift(node, value, &values, column));
        }
    }
    Ok(cubes)
}

/// One vertex of the compatibility graph: a rare node, its rare value,
/// and the test cube that justifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RareEvent {
    /// The rare node.
    pub node: NodeId,
    /// Its rare value.
    pub rare_value: bool,
    /// A test cube driving `node` to `rare_value`.
    pub cube: Cube,
}

/// The compatibility graph over rare events.
///
/// Adjacency is stored as a bit matrix, one row per event, filled from a
/// per-input conflict index in time proportional to the care bits times
/// the row width: a few milliseconds for the ~2 500 events of s13207 and
/// tens of milliseconds for the ~6 500 of s38584.
#[derive(Debug, Clone)]
pub struct CompatGraph {
    events: Vec<RareEvent>,
    /// Row-major bit matrix: bit `j` of row `i` ⇔ events i,j compatible.
    adj: Vec<Vec<u64>>,
    /// Rare events with no cube (no vector drives them, the search gave
    /// up, or the cube failed its re-check): excluded from the graph but
    /// reported for diagnostics.
    dropped: usize,
}

impl CompatGraph {
    /// Builds the compatibility graph for `rare` on `nl` (Algorithm 2).
    ///
    /// `nl` must be combinational or scan-cut. The PODEM mode of
    /// `podem_config` is honored: `Justify` (all a trigger needs) lifts
    /// each cube off its profiling witness, searches only for events
    /// without one, and hands the searches that abort to the SAT solver;
    /// `Detect` also propagates each event to an output and searches for
    /// every event. An event without a cube is dropped.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from engine construction (cyclic or
    /// sequential netlists).
    pub fn build(
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
    ) -> Result<Self, NetlistError> {
        let prog = SimProgram::compile(nl)?;
        let scoap = Scoap::compute(nl)?;
        Self::build_inner(
            &prog,
            &scoap,
            nl,
            rare,
            podem_config,
            htforge_obs::host_threads(),
            &RunBudget::unlimited(),
        )
        .map(|(graph, _)| graph)
    }

    /// Budget-aware [`CompatGraph::build`] over `prog`, the compiled form
    /// of `nl` (the program rare extraction profiled it with, so the
    /// pipeline compiles its model once), and `scoap`, the SCOAP
    /// measures of `nl` or of the sequential host `nl` was scan-cut from
    /// (the [`Prologue`](crate::Prologue)'s table). Cube generation stops
    /// attempting new faults once the budget is spent (in-flight PODEM
    /// searches are interrupted via the shared budget), and the matrix
    /// fill stops at the first row past the budget, leaving the later
    /// rows unconnected. The graph stays internally consistent
    /// (symmetric adjacency; missing edges are merely conservative) and
    /// every shortcut taken is reported as a [`DegradationNote`].
    ///
    /// # Errors
    ///
    /// See [`CompatGraph::build`].
    ///
    /// # Panics
    ///
    /// Panics if `prog` was not compiled from `nl` (detected via
    /// node-count mismatch).
    pub fn build_budgeted(
        prog: &SimProgram,
        scoap: &Scoap,
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
        budget: &RunBudget,
    ) -> Result<(Self, Vec<DegradationNote>), NetlistError> {
        Self::build_inner(
            prog,
            scoap,
            nl,
            rare,
            podem_config,
            htforge_obs::host_threads(),
            budget,
        )
    }

    fn build_inner(
        prog: &SimProgram,
        scoap: &Scoap,
        nl: &Netlist,
        rare: &RareNodeSet,
        podem_config: PodemConfig,
        threads: usize,
        budget: &RunBudget,
    ) -> Result<(Self, Vec<DegradationNote>), NetlistError> {
        assert!(threads > 0, "need at least one worker thread");
        assert_eq!(
            nl.node_count(),
            prog.node_count(),
            "program compiled from a different netlist"
        );
        // Cubes exist only over a combinational model, even when every
        // event is lifted and no PODEM engine is built to say so.
        if let Some(&dff) = nl.dffs().first() {
            return Err(NetlistError::BadArity {
                gate: nl.name_of(dff).to_owned(),
                kind: "DFF",
                got: nl.fanins(dff).len(),
            });
        }
        let rare_list: Vec<(NodeId, bool)> = rare.iter().map(|r| (r.node, r.rare_value)).collect();
        let mut notes = Vec::new();

        // Phase A: one cube per rare event on the shared worker loop, so
        // a few slow faults cannot pile up on one worker. Witnessed
        // events are lifted first, then the rest run PODEM on as many
        // engines as there are workers with a search to do, and in
        // justify mode the SAT solver decides the searches that abort.
        // Each worker checks the budget before starting an event;
        // expired budgets skip the remaining events (`None`,
        // distinguishable from a drop so it can be reported).
        let cubes_span = htforge_obs::span("compat_cubes");
        let (witness_values, mut witness_columns) = witness_columns(prog, rare);
        if podem_config.mode == PodemMode::Detect {
            witness_columns.fill(None); // detect-mode cubes must also propagate
        }
        let (lifted, searched): (Vec<usize>, Vec<usize>) =
            (0..rare_list.len()).partition(|&i| witness_columns[i].is_some());
        let mut cubes: Vec<Option<Option<Cube>>> = vec![None; rare_list.len()];
        // The lifters share one SCOAP table.
        let mut lifters: Vec<Lifter> = (0..threads.min(lifted.len()))
            .map(|_| Lifter::new(nl, scoap))
            .collect::<Result<_, _>>()?;
        let lifts = htforge_obs::map_indexed(&mut lifters, lifted.len(), |lifter, k| {
            budget.check().is_ok().then(|| {
                htforge_obs::faultpoint!("compat.cube");
                let (i, (node, value)) = (lifted[k], rare_list[lifted[k]]);
                let column = witness_columns[i].expect("lifted events have a witness");
                Some(lifter.lift(node, value, &witness_values, column))
            })
        });
        for (&i, cube) in lifted.iter().zip(lifts) {
            cubes[i] = cube;
        }
        let mut aborted = Vec::new();
        if !searched.is_empty() {
            let podem_span = htforge_obs::span("podem");
            let mut engines: Vec<Podem> = (0..threads.min(searched.len()))
                .map(|_| {
                    // The run budget reaches the engine, so in-flight
                    // searches stop at the deadline, not between faults.
                    let mut podem = Podem::new(nl, podem_config)?;
                    podem.set_run_budget(budget.clone());
                    Ok(podem)
                })
                .collect::<Result<_, NetlistError>>()?;
            let searches = htforge_obs::map_indexed(&mut engines, searched.len(), |podem, k| {
                budget.check().is_ok().then(|| {
                    htforge_obs::faultpoint!("compat.cube");
                    let (i, (node, value)) = (searched[k], rare_list[searched[k]]);
                    if let Some(seed) = podem_config.random_seed {
                        // Deterministic per fault, independent of work
                        // partitioning.
                        podem.reseed(Some(seed.wrapping_add(i as u64)));
                    }
                    podem.generate(Fault::for_rare_event(node, value))
                })
            });
            for (&i, result) in searched.iter().zip(searches) {
                if matches!(result, Some(TestResult::Aborted)) {
                    aborted.push(i);
                }
                cubes[i] = result.map(TestResult::cube);
            }
            podem_span.finish();
        }
        if podem_config.mode == PodemMode::Justify && !aborted.is_empty() {
            let questions: Vec<(NodeId, bool)> = aborted.iter().map(|&i| rare_list[i]).collect();
            let solved = solve_justifications(prog, scoap, nl, &questions, threads, budget)?;
            for (&i, cube) in aborted.iter().zip(solved) {
                cubes[i] = Some(cube);
            }
        }
        let witnessed = lifted.iter().filter(|&&i| cubes[i].is_some()).count();

        let mut events = Vec::new();
        let (mut dropped, mut skipped) = (0usize, 0usize);
        for (&(node, rare_value), cube) in rare_list.iter().zip(cubes) {
            match cube {
                Some(Some(cube)) => events.push(RareEvent {
                    node,
                    rare_value,
                    cube,
                }),
                Some(None) => dropped += 1,
                None => skipped += 1,
            }
        }

        // Phase A′: functional re-check of every cube. A cube that fails
        // to drive its event (which would take a PODEM defect) is dropped
        // like an unattainable fault — the graph stays sound either way.
        let verify_span = htforge_obs::span("compat_cube_verify");
        let (events, failures) = verify_cubes(prog, events);
        dropped += failures;
        verify_span.finish();

        if skipped > 0 {
            notes.push(DegradationNote::new(
                "compat_graph",
                "skipped_faults",
                format!(
                    "budget spent: {skipped} of {} rare events not attempted",
                    rare_list.len()
                ),
            ));
        }
        cubes_span.finish();
        htforge_obs::counter("compat.events").add(events.len() as u64);
        htforge_obs::counter("compat.dropped").add(dropped as u64);
        htforge_obs::counter("compat.witnessed").add(witnessed as u64);
        let matrix_span = htforge_obs::span("compat_matrix");

        // Phase B: the matrix from a conflict index. Per input and
        // value, one bitset over the events whose cube needs that value
        // there; event i conflicts with exactly the events in the
        // opposite-value bitsets of its care bits, so its row is the
        // complement of their OR. Rows are filled whole and the budget
        // is checked between them; on truncation the finished rows keep
        // only their edges to each other, so the matrix stays symmetric
        // and every missing edge is merely conservative.
        let n = events.len();
        let words = n.div_ceil(64);
        let mut index = vec![0u64; 2 * prog.num_inputs() * words];
        // Per event, the offsets of its opposite-value bitsets in `index`.
        let mut opposite: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (i, e) in events.iter().enumerate() {
            let mut offsets = Vec::with_capacity(e.cube.care_count());
            for (input, bit) in e.cube.bits().iter().enumerate() {
                if let Some(value) = bit.to_bool() {
                    index[(2 * input + usize::from(value)) * words + i / 64] |= 1 << (i % 64);
                    offsets.push((2 * input + usize::from(!value)) * words);
                }
            }
            opposite.push(offsets);
        }
        let tail = match n % 64 {
            0 => !0,
            r => (1u64 << r) - 1,
        };
        let mut adj = vec![vec![0u64; words]; n];
        let mut ticker = BudgetTicker::new(budget.clone(), 8);
        let mut rows_done = n;
        for (i, row) in adj.iter_mut().enumerate() {
            htforge_obs::faultpoint!("compat.matrix_row");
            if ticker.tick().is_err() {
                rows_done = i;
                break;
            }
            for &offset in &opposite[i] {
                for (w, &conflict) in row.iter_mut().zip(&index[offset..offset + words]) {
                    *w |= conflict;
                }
            }
            for w in row.iter_mut() {
                *w = !*w;
            }
            row[words - 1] &= tail;
            row[i / 64] &= !(1 << (i % 64));
        }
        if rows_done < n {
            for row in &mut adj[..rows_done] {
                row[rows_done / 64] &= (1 << (rows_done % 64)) - 1;
                row[rows_done / 64 + 1..].fill(0);
            }
            notes.push(DegradationNote::new(
                "compat_graph",
                "truncated_matrix",
                format!("compatibility computed for {rows_done} of {n} rows"),
            ));
        }
        matrix_span.finish();
        let graph = CompatGraph {
            events,
            adj,
            dropped,
        };
        htforge_obs::counter("compat.edges").add(graph.edge_count() as u64);
        Ok((graph, notes))
    }

    /// The graph's vertices.
    #[must_use]
    pub fn events(&self) -> &[RareEvent] {
        &self.events
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rare events dropped because no cube could be generated.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Whether vertices `i` and `j` are compatible.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn compatible(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        (self.adj[i][j / 64] >> (j % 64)) & 1 == 1
    }

    /// Degree of vertex `i`.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        (0..self.len()).map(|i| self.degree(i)).sum::<usize>() / 2
    }

    /// Adjacency row of vertex `i` (bit-packed).
    #[must_use]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.adj[i]
    }

    /// Merges the cubes of a vertex set; `None` if any pair conflicts
    /// (never happens for cliques).
    #[must_use]
    pub fn merged_cube(&self, members: &[usize]) -> Option<Cube> {
        let mut iter = members.iter();
        let first = *iter.next()?;
        let mut acc = self.events[first].cube.clone();
        for &m in iter {
            if !acc.merge_in_place(&self.events[m].cube) {
                htforge_obs::counter("compat.cube_merge_conflicts").incr();
                return None;
            }
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_atpg::TestResult;
    use htforge_netlist::bench;
    use htforge_sim::tri::justifies;
    use htforge_sim::{RareNodeExtractor, Tri};

    /// Two disjoint AND cones: their outputs are rare-1 and *compatible*
    /// (disjoint supports). A third node forces a conflict.
    const TWO_CONES: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
x = AND(a, b)
y = AND(c, d)
z = NOR(a, b)
";

    fn build_graph(theta: f64) -> (Netlist, CompatGraph) {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(theta).extract(&nl, &ps).unwrap();
        let g = CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap();
        (nl, g)
    }

    #[test]
    fn disjoint_cones_are_compatible() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        let (x, y, z) = (find("x"), find("y"), find("z"));
        assert!(g.compatible(x, y), "disjoint supports must be compatible");
        // x needs a=b=1, z needs a=b=0 → conflict.
        assert!(!g.compatible(x, z));
        // y and z have disjoint supports.
        assert!(g.compatible(y, z));
    }

    #[test]
    fn every_cube_justifies_its_rare_event() {
        let (nl, g) = build_graph(0.30);
        assert!(!g.is_empty());
        for e in g.events() {
            assert!(
                justifies(&nl, e.cube.bits(), e.node, e.rare_value).unwrap(),
                "cube {} does not justify {}={}",
                e.cube,
                nl.node(e.node).name(),
                e.rare_value
            );
        }
    }

    #[test]
    fn merged_cube_justifies_all_members() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        let members = vec![find("x"), find("y")];
        let merged = g.merged_cube(&members).expect("compatible pair merges");
        for &m in &members {
            let e = &g.events()[m];
            assert!(justifies(&nl, merged.bits(), e.node, e.rare_value).unwrap());
        }
    }

    #[test]
    fn merged_cube_rejects_conflicts() {
        let (nl, g) = build_graph(0.30);
        let find = |name: &str| {
            let id = nl.find(name).unwrap();
            g.events().iter().position(|e| e.node == id).unwrap()
        };
        assert!(g.merged_cube(&[find("x"), find("z")]).is_none());
    }

    #[test]
    fn degree_and_edges_consistent() {
        let (_, g) = build_graph(0.30);
        let total: usize = (0..g.len()).map(|i| g.degree(i)).sum();
        assert_eq!(total % 2, 0);
        assert_eq!(g.edge_count(), total / 2);
    }

    #[test]
    fn self_compatibility() {
        let (_, g) = build_graph(0.30);
        for i in 0..g.len() {
            assert!(g.compatible(i, i));
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_build() {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        let full = CompatGraph::build(&nl, &rare, PodemConfig::default()).unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let budget = RunBudget::with_deadline(std::time::Duration::from_secs(60));
        let (g, notes) =
            CompatGraph::build_budgeted(&prog, &scoap, &nl, &rare, PodemConfig::default(), &budget)
                .unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(g.len(), full.len());
        assert_eq!(g.edge_count(), full.edge_count());
        assert_eq!(g.dropped(), full.dropped());
        for i in 0..g.len() {
            for j in 0..g.len() {
                assert_eq!(g.compatible(i, j), full.compatible(i, j));
            }
        }
    }

    #[test]
    fn spent_budget_skips_faults_and_reports_it() {
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let ps = PatternSet::random(4, 10_000, 3);
        let rare = RareNodeExtractor::new(0.30).extract(&nl, &ps).unwrap();
        assert!(!rare.is_empty());
        let prog = SimProgram::compile(&nl).unwrap();
        let scoap = Scoap::compute(&nl).unwrap();
        let budget = RunBudget::with_deadline(std::time::Duration::ZERO);
        let (g, notes) =
            CompatGraph::build_budgeted(&prog, &scoap, &nl, &rare, PodemConfig::default(), &budget)
                .unwrap();
        assert!(g.is_empty());
        assert_eq!(g.dropped(), 0, "skips must not be counted as drops");
        assert!(
            notes
                .iter()
                .any(|n| n.phase == "compat_graph" && n.action == "skipped_faults"),
            "{notes:?}"
        );
    }

    #[test]
    fn graph_is_identical_at_any_worker_count() {
        let seeded = PodemConfig {
            random_seed: Some(0x5EED),
            ..PodemConfig::justify()
        };
        // (netlist, config, whether the solver must decide some event).
        let cases = [
            (htforge_circuits::load("c2670").unwrap(), seeded, false),
            // Justify mode with a tiny abort limit hands most searches
            // to the solver.
            (
                htforge_circuits::load("c3540").unwrap(),
                PodemConfig {
                    backtrack_limit: 2,
                    ..PodemConfig::justify()
                },
                true,
            ),
            // Detect mode with a small abort limit exercises the plain
            // search and the events it drops.
            (
                htforge_circuits::load("s1423").unwrap().scan_cut(),
                PodemConfig {
                    backtrack_limit: 200,
                    ..PodemConfig::default()
                },
                false,
            ),
        ];
        for (nl, config, reaches_solver) in &cases {
            let ps = PatternSet::random(nl.inputs().len(), 4_096, 11);
            let rare = RareNodeExtractor::new(0.20).extract(nl, &ps).unwrap();
            let prog = SimProgram::compile(nl).unwrap();
            let scoap = Scoap::compute(nl).unwrap();
            let unlimited = RunBudget::unlimited();
            let build = |threads| {
                let (g, notes) = CompatGraph::build_inner(
                    &prog, &scoap, nl, &rare, *config, threads, &unlimited,
                )
                .unwrap();
                assert!(notes.is_empty(), "{notes:?}");
                g
            };
            let decided = || {
                htforge_obs::counter("compat.unsat").get()
                    + htforge_obs::counter("compat.solved").get()
            };
            let decided_before = decided();
            let base = build(1);
            assert!(base.len() > 1, "{}: too few vertices to compare", nl.name());
            if *reaches_solver {
                assert!(
                    decided() > decided_before,
                    "{}: no solver verdict",
                    nl.name()
                );
            }
            for threads in [2, 3] {
                let g = build(threads);
                assert_eq!(g.events(), base.events(), "{} at {threads}", nl.name());
                assert_eq!(g.dropped(), base.dropped(), "{} at {threads}", nl.name());
                for i in 0..g.len() {
                    for j in 0..g.len() {
                        assert_eq!(g.compatible(i, j), base.compatible(i, j));
                    }
                }
            }
        }
    }

    /// The conflict index against the pairwise check it replaces: two
    /// events are adjacent exactly when their cubes have no conflicting
    /// care bit.
    #[test]
    fn matrix_matches_the_pairwise_oracle() {
        for name in ["c2670", "c3540", "s1423"] {
            let nl = htforge_circuits::load(name).unwrap().scan_cut();
            let ps = PatternSet::random(nl.inputs().len(), 10_000, 1);
            let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
            let g = CompatGraph::build(&nl, &rare, PodemConfig::justify()).unwrap();
            assert!(g.len() > 64, "{name}: the rows must span more than a word");
            for (i, a) in g.events().iter().enumerate() {
                for (j, b) in g.events().iter().enumerate() {
                    let oracle = i == j || a.cube.compatible(&b.cube);
                    assert_eq!(g.compatible(i, j), oracle, "{name}: ({i}, {j})");
                }
            }
            for i in 0..g.len() {
                let neighbours = (0..g.len()).filter(|&j| j != i && g.compatible(i, j));
                assert_eq!(g.degree(i), neighbours.count(), "{name}: self or tail bit");
            }
        }
    }

    /// Witness guidance against plain PODEM on real circuits in justify
    /// mode, as the framework runs it: every event plain PODEM finds a
    /// cube for is still a vertex, no more events are dropped, cubes are
    /// no denser on average, and every vertex cube justifies its event
    /// with its don't-cares left X.
    #[test]
    fn witnessed_graph_keeps_every_plain_vertex() {
        let config = PodemConfig::justify();
        for name in ["c2670", "c3540", "s1423"] {
            let nl = htforge_circuits::load(name).unwrap().scan_cut();
            let ps = PatternSet::random(nl.inputs().len(), 10_000, 0xC0FFEE);
            let rare = RareNodeExtractor::new(0.20).extract(&nl, &ps).unwrap();
            let g = CompatGraph::build(&nl, &rare, config).unwrap();
            let vertices: std::collections::HashMap<(NodeId, bool), &Cube> = g
                .events()
                .iter()
                .map(|e| ((e.node, e.rare_value), &e.cube))
                .collect();
            let mut plain = Podem::new(&nl, config).unwrap();
            let (mut plain_dropped, mut plain_care, mut care) = (0, 0, 0);
            for r in rare.iter() {
                match plain.generate(Fault::for_rare_event(r.node, r.rare_value)) {
                    TestResult::Test(cube) => {
                        let vertex = vertices
                            .get(&(r.node, r.rare_value))
                            .unwrap_or_else(|| panic!("{name}: lost a plain vertex"));
                        plain_care += cube.care_count();
                        care += vertex.care_count();
                    }
                    _ => plain_dropped += 1,
                }
            }
            assert!(g.dropped() <= plain_dropped, "{name}");
            assert!(
                care <= plain_care,
                "{name}: {care} > {plain_care} care bits"
            );
            for e in g.events() {
                assert!(
                    justifies(&nl, e.cube.bits(), e.node, e.rare_value).unwrap(),
                    "{name}: cube {} does not justify {}={}",
                    e.cube,
                    nl.node(e.node).name(),
                    e.rare_value
                );
            }
        }
    }

    #[test]
    fn witness_that_misses_on_this_netlist_is_not_followed() {
        // Profiled on TWO_CONES, built on a twin whose x is a NAND: x's
        // witness (a = b = 1) now gives x = 0, so x runs a plain search;
        // y and z still fire on their witnesses. A profile with the wrong
        // input count gives no witnesses at all.
        let nl = bench::parse(TWO_CONES, "t").unwrap();
        let twin = bench::parse(&TWO_CONES.replace("x = AND", "x = NAND"), "t").unwrap();
        let rare = RareNodeExtractor::new(0.30)
            .extract(&nl, &PatternSet::random(4, 10_000, 3))
            .unwrap();
        let prog = SimProgram::compile(&twin).unwrap();
        let (_, columns) = witness_columns(&prog, &rare);
        let x = nl.find("x").unwrap();
        for (r, column) in rare.iter().zip(&columns) {
            assert_eq!(column.is_none(), r.node == x, "{}", nl.node(r.node).name());
        }
        let g = CompatGraph::build(&twin, &rare, PodemConfig::justify()).unwrap();
        assert_eq!(g.len(), rare.len());
        for e in g.events() {
            assert!(justifies(&twin, e.cube.bits(), e.node, e.rare_value).unwrap());
        }

        let c17 = htforge_circuits::load("c17").unwrap();
        let foreign = RareNodeExtractor::new(0.30)
            .extract(&c17, &PatternSet::random(5, 1_000, 3))
            .unwrap();
        assert!(!foreign.witnesses().is_empty());
        let (_, columns) = witness_columns(&prog, &foreign);
        assert!(columns.iter().all(Option::is_none));
    }

    #[test]
    fn batched_cube_check_drops_a_cube_that_misses_its_event() {
        // 130 hand-built cubes (two full words plus a 2-bit tail word)
        // over c2670. Every third input is left X so the false fill is
        // exercised; the event of cube k is gate k's value under that
        // fill, taken from a separate one-pattern run per cube. Cube 129,
        // in the tail word, claims the opposite value and must go.
        let nl = htforge_circuits::load("c2670").unwrap();
        let prog = SimProgram::compile(&nl).unwrap();
        let inputs = nl.inputs().len();
        let gates: Vec<NodeId> = nl
            .node_ids()
            .filter(|&id| matches!(nl.node(id).kind(), htforge_netlist::NodeKind::Gate(_)))
            .collect();
        let random = PatternSet::random(inputs, 130, 0xC0BE);
        let bad = 129;
        let events: Vec<RareEvent> = (0..130)
            .map(|k| {
                let cube = Cube::from_tris(
                    (0..inputs)
                        .map(|i| {
                            if i % 3 == 0 {
                                Tri::X
                            } else {
                                Tri::from_bool(random.get(i, k))
                            }
                        })
                        .collect(),
                );
                let node = gates[k * 7 % gates.len()];
                let filled = PatternSet::from_vectors(inputs, &[cube.fill_with(false)]);
                let value = prog.run(&filled).value(node, 0);
                RareEvent {
                    node,
                    rare_value: if k == bad { !value } else { value },
                    cube,
                }
            })
            .collect();

        let failures_before = htforge_obs::counter("compat.cube_verify_failures").get();
        let (verified, failures) = verify_cubes(&prog, events.clone());
        assert_eq!(failures, 1);
        assert_eq!(verified.len(), 129);
        let mut expected = events;
        expected.remove(bad);
        assert_eq!(verified, expected, "survivors keep their order");
        assert!(htforge_obs::counter("compat.cube_verify_failures").get() > failures_before);
    }
}
