//! End-to-end orchestration of the insertion pipeline (§III).
//!
//! [`InsertionFramework`] ties together rare-node extraction
//! (Algorithm 1), compatibility-graph construction (Algorithm 2), clique
//! enumeration, trigger synthesis (Fig. 1) and HT-infected netlist
//! generation (Algorithm 3), reporting per-phase wall-clock timings —
//! the quantities of the paper's Tables III and IV.

use std::time::Duration;

use htforge_atpg::PodemConfig;
use htforge_netlist::{netlist::NodeId, Netlist};
use htforge_obs::{DegradationNote, RunBudget};
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet, SimProgram};

use crate::clique::{enumerate_cliques_budgeted, sample_cliques_budgeted};
use crate::compat::CompatGraph;
use crate::error::InsertionError;
use crate::insert::{insert_trojan_with, TrojanEmitter, TrojanInstance};
use crate::payload::{PayloadKind, PayloadStrategy};
use crate::trigger::TriggerPlan;

/// The budgeted phases, in stage order. (Preprocess and validation run
/// outside the staged split: the former is sub-millisecond, the latter
/// is never skipped under pressure.)
pub const STAGED_PHASES: [&str; 4] = [
    "rare_extraction",
    "compat_graph",
    "clique_enumeration",
    "insertion",
];

/// How [`InsertionFramework::run_with_budget`] splits its deadline over
/// [`STAGED_PHASES`]: 25 % rare, 70 % of the remainder compat, 60 % of
/// that remainder clique.
pub const DEFAULT_STAGE_WEIGHTS: [f64; 4] = [0.25, 0.52, 0.14, 0.09];

/// User-facing configuration of the framework — the paper's inputs:
/// rareness threshold `θ_RN`, vector-set size `|V|`, trigger-node count
/// `q`, instance count `N`, plus engineering knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionConfig {
    /// Rareness threshold θ_RN as a fraction of the vector count
    /// (paper default: 0.20).
    pub theta: f64,
    /// Random-vector count |V| for rare-node profiling
    /// (paper default: 10 000).
    pub num_vectors: usize,
    /// Trigger nodes per trojan (`q`).
    pub trigger_nodes: usize,
    /// Trojan instances to generate (`N`).
    pub num_instances: usize,
    /// Maximum fan-in of inserted trigger gates (`k`).
    pub max_fanin: usize,
    /// Master seed: drives profiling vectors, clique ordering, and the
    /// random payload strategy.
    pub seed: u64,
    /// PODEM configuration for cube generation (default: justify mode,
    /// since a trigger only needs its rare values justified).
    pub podem: PodemConfig,
    /// Payload-net selection strategy.
    pub payload: PayloadStrategy,
    /// Payload effect applied when the trigger fires.
    pub payload_kind: PayloadKind,
}

impl Default for InsertionConfig {
    fn default() -> Self {
        InsertionConfig {
            theta: 0.20,
            num_vectors: 10_000,
            trigger_nodes: 8,
            num_instances: 1,
            max_fanin: 4,
            seed: 0x4AC4,
            podem: PodemConfig::justify(),
            payload: PayloadStrategy::MostObservable,
            payload_kind: PayloadKind::Flip,
        }
    }
}

/// Wall-clock time spent in each phase of one [`InsertionFramework::run`].
///
/// These are a *view* over the phase spans the framework records on the
/// global [`htforge_obs`] recorder: each field is the duration returned
/// by the corresponding span guard, so the struct stays populated even
/// when the recorder is disabled (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Scan-cut, SCOAP and compiling the combinational model.
    pub preprocess: Duration,
    /// Algorithm 1 (simulation + classification).
    pub rare_extraction: Duration,
    /// PODEM cube generation + pairwise compatibility (Algorithm 2).
    pub compat_graph: Duration,
    /// Clique enumeration.
    pub clique_enumeration: Duration,
    /// Trigger synthesis + Algorithm 3 for all instances.
    pub insertion: Duration,
    /// Structural validation of every infected netlist.
    pub validation: Duration,
}

impl PhaseTimings {
    /// Total pipeline time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.preprocess
            + self.rare_extraction
            + self.compat_graph
            + self.clique_enumeration
            + self.insertion
            + self.validation
    }
}

/// One generated HT-infected design.
#[derive(Debug, Clone)]
pub struct InfectedDesign {
    /// The infected netlist (host + trigger tree + payload XOR).
    pub netlist: Netlist,
    /// Metadata about the inserted trojan.
    pub trojan: TrojanInstance,
}

/// Everything produced by one framework run.
#[derive(Debug, Clone)]
pub struct InsertionOutcome {
    /// The infected designs, one per clique used (≤ `N`).
    pub infected: Vec<InfectedDesign>,
    /// The rare-node profile (Algorithm 1 output).
    pub rare_nodes: RareNodeSet,
    /// Vertices/edges of the compatibility graph and cliques found.
    pub graph_stats: GraphStats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Degradation decisions taken under budget pressure (empty for a
    /// run that completed in full — see `DESIGN.md` §9).
    pub degradations: Vec<DegradationNote>,
}

/// Summary statistics of the compatibility graph and clique search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Compatibility-graph vertex count (rare events with cubes).
    pub vertices: usize,
    /// Rare events dropped (no PODEM cube).
    pub dropped: usize,
    /// Edge count.
    pub edges: usize,
    /// Cliques of size `q` found (≤ requested `N`).
    pub cliques: usize,
}

/// The compatibility-graph-assisted insertion framework.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Clone)]
pub struct InsertionFramework {
    config: InsertionConfig,
}

impl InsertionFramework {
    /// Creates a framework with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is outside `[0, 1]`, `trigger_nodes == 0`, or
    /// `max_fanin < 2`.
    #[must_use]
    pub fn new(config: InsertionConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.theta),
            "theta must be in [0, 1]"
        );
        assert!(config.trigger_nodes > 0, "need at least one trigger node");
        assert!(config.max_fanin >= 2, "trigger fan-in must be at least 2");
        InsertionFramework { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &InsertionConfig {
        &self.config
    }

    /// Runs the full pipeline on `nl` (combinational or sequential; DFFs
    /// are scan-cut internally, and trojans are inserted into the
    /// *original* netlist, whose node ids the analysis shares).
    ///
    /// # Errors
    ///
    /// * [`InsertionError::NotEnoughRareNodes`] — fewer usable rare nodes
    ///   than `trigger_nodes`,
    /// * [`InsertionError::NoCliques`] — the compatibility graph has no
    ///   clique of size `trigger_nodes`,
    /// * [`InsertionError::NoPayloadNet`] — no acyclicity-safe payload,
    /// * [`InsertionError::Netlist`] — structural failures.
    pub fn run(&self, nl: &Netlist) -> Result<InsertionOutcome, InsertionError> {
        self.run_with_budget(nl, &RunBudget::unlimited())
    }

    /// [`InsertionFramework::run`] under a [`RunBudget`] — the
    /// resilience entry point (see `DESIGN.md` §9).
    ///
    /// Phases receive sub-budgets derived from the time remaining and
    /// degrade instead of failing where partial results are possible:
    /// rare-node profiling truncates its vector set, compatibility-graph
    /// construction skips unattempted faults and matrix rows, exact
    /// clique enumeration falls back to the greedy heuristic, and
    /// `num_instances = N` degrades to "as many as fit". Every shortcut
    /// is recorded in [`InsertionOutcome::degradations`]. The run only
    /// *errors* on budget grounds when a phase produced nothing usable
    /// ([`InsertionError::Timeout`]) or the budget's token was cancelled
    /// ([`InsertionError::Cancelled`]).
    ///
    /// With an unlimited budget this is exactly [`InsertionFramework::run`]:
    /// same results, same phase structure, one extra atomic load per
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// The variants listed for [`InsertionFramework::run`], plus
    /// [`InsertionError::Timeout`] and [`InsertionError::Cancelled`].
    pub fn run_with_budget(
        &self,
        nl: &Netlist,
        budget: &RunBudget,
    ) -> Result<InsertionOutcome, InsertionError> {
        let cfg = &self.config;
        let mut timings = PhaseTimings::default();
        let mut degradations: Vec<DegradationNote> = Vec::new();
        let pipeline_span = htforge_obs::span("insertion_pipeline");
        budget
            .check()
            .map_err(|_| budget_error(budget, "preprocess"))?;
        // Staged split over rare / compat / clique / insertion. A phase
        // finishing early donates its slack to every later phase (each
        // stage takes w_i / Σ_{j≥i} w_j of the time remaining at the
        // moment it starts).
        let mut stages = budget.staged(&DEFAULT_STAGE_WEIGHTS);

        // Phase 0: combinational model, compiled once for profiling and
        // the compatibility graph.
        let t0 = htforge_obs::span("preprocess");
        let comb = nl.scan_cut();
        let scoap = Scoap::compute(nl)?;
        let prog = SimProgram::compile(&comb)?;
        timings.preprocess = t0.finish();

        // Phase 1: rare nodes (Algorithm 1); the profile truncates when
        // its sub-budget runs out.
        let t1 = htforge_obs::span("rare_extraction");
        let patterns = PatternSet::random(comb.inputs().len(), cfg.num_vectors, cfg.seed);
        let (rare, rare_note) = RareNodeExtractor::new(cfg.theta).extract_budgeted(
            &prog,
            &comb,
            &patterns,
            &stages.next_stage(),
        );
        timings.rare_extraction = t1.finish();
        htforge_obs::counter("rare.nodes").add(rare.len() as u64);
        let rare_truncated = rare_note.is_some();
        degradations.extend(rare_note);
        if rare.len() < cfg.trigger_nodes {
            // An untruncated profile with too few rare nodes is a
            // property of the circuit; a truncated one is a timeout.
            return Err(if rare_truncated {
                budget_error(budget, "rare_extraction")
            } else {
                InsertionError::NotEnoughRareNodes {
                    found: rare.len(),
                    needed: cfg.trigger_nodes,
                }
            });
        }

        // Phase 2: compatibility graph (Algorithm 2); skips faults and
        // matrix rows when its sub-budget runs out.
        let t2 = htforge_obs::span("compat_graph");
        let (graph, compat_notes) =
            CompatGraph::build_budgeted(&prog, &comb, &rare, cfg.podem, &stages.next_stage())?;
        timings.compat_graph = t2.finish();
        let compat_degraded = !compat_notes.is_empty();
        degradations.extend(compat_notes);
        if graph.len() < cfg.trigger_nodes {
            return Err(if compat_degraded {
                budget_error(budget, "compat_graph")
            } else {
                InsertionError::NotEnoughRareNodes {
                    found: graph.len(),
                    needed: cfg.trigger_nodes,
                }
            });
        }

        // Phase 3: clique selection. Small trigger counts use exhaustive
        // enumeration (cheap and maximally diverse); large ones use
        // greedy sampling, because exact search near the graph's clique
        // number degenerates into exponential nonexistence proofs. On a
        // spent sub-budget the exact search degrades to the greedy
        // sampler for the remaining instances (the degradation ladder).
        let t3 = htforge_obs::span("clique_enumeration");
        let clique_budget = stages.next_stage();
        let order_seed = cfg.seed ^ 0x5EED;
        let mut cliques;
        if cfg.trigger_nodes <= 8 {
            let (exact, cut_short) = enumerate_cliques_budgeted(
                &graph,
                cfg.trigger_nodes,
                cfg.num_instances,
                order_seed,
                &clique_budget,
            );
            cliques = exact;
            if cut_short && cliques.len() < cfg.num_instances {
                let missing = cfg.num_instances - cliques.len();
                let (sampled, _) = sample_cliques_budgeted(
                    &graph,
                    cfg.trigger_nodes,
                    cfg.num_instances,
                    order_seed,
                    &budget.sub(0.50),
                );
                let mut seen: std::collections::HashSet<Vec<usize>> =
                    cliques.iter().map(|c| sorted_members(&c.members)).collect();
                cliques.extend(
                    sampled
                        .into_iter()
                        .filter(|c| seen.insert(sorted_members(&c.members)))
                        .take(missing),
                );
                degradations.push(DegradationNote::new(
                    "clique_enumeration",
                    "greedy_fallback",
                    format!(
                        "exact enumeration cut short by the budget; \
                         greedy sampling filled {} of {} instances",
                        cliques.len(),
                        cfg.num_instances
                    ),
                ));
            }
        } else {
            let (sampled, cut_short) = sample_cliques_budgeted(
                &graph,
                cfg.trigger_nodes,
                cfg.num_instances,
                order_seed,
                &clique_budget,
            );
            cliques = sampled;
            if cut_short {
                degradations.push(DegradationNote::new(
                    "clique_enumeration",
                    "truncated_sampling",
                    format!(
                        "greedy sampling stopped at {} of {} instances",
                        cliques.len(),
                        cfg.num_instances
                    ),
                ));
            }
        }
        timings.clique_enumeration = t3.finish();
        if cliques.is_empty() {
            // "No cliques" is only a statement about the circuit when
            // nothing upstream was cut short; a truncated profile or
            // matrix makes an empty result a budget artifact.
            return Err(if budget.check().is_err() || !degradations.is_empty() {
                budget_error(budget, "clique_enumeration")
            } else {
                InsertionError::NoCliques {
                    size: cfg.trigger_nodes,
                }
            });
        }

        // Phase 4: trigger synthesis + insertion (Algorithm 3). On a
        // spent budget, `num_instances = N` degrades to "as many as
        // fit".
        let t4 = htforge_obs::span("insertion");
        // The last stage inherits the entire remainder (its weight is
        // the tail of the sequence), so this equals the parent budget.
        let insertion_budget = stages.next_stage();
        let emitter = TrojanEmitter {
            host: nl,
            scoap: &scoap,
            max_fanin: cfg.max_fanin,
            payload_kind: cfg.payload_kind,
        };
        let mut infected = Vec::with_capacity(cliques.len());
        let mut stopped_at = None;
        for (i, clique) in cliques.iter().enumerate() {
            if insertion_budget.check().is_err() {
                stopped_at = Some(i);
                break;
            }
            htforge_obs::faultpoint!("insert.instance");
            let leaves: Vec<(NodeId, bool)> = clique
                .members
                .iter()
                .map(|&m| {
                    let e = &graph.events()[m];
                    (e.node, e.rare_value)
                })
                .collect();
            let payload = match cfg.payload {
                PayloadStrategy::Random(s) => PayloadStrategy::Random(s.wrapping_add(i as u64)),
                other => other,
            };
            match emitter.emit(
                &leaves,
                payload,
                &i.to_string(),
                clique.activation_cube.clone(),
            ) {
                Ok(design) => infected.push(design),
                // A clique without a safe payload is skipped, not fatal —
                // unless *no* clique works.
                Err(InsertionError::NoPayloadNet) => continue,
                Err(e) => return Err(e),
            }
        }
        timings.insertion = t4.finish();
        htforge_obs::counter("insertion.instances").add(infected.len() as u64);
        if let Some(done) = stopped_at {
            degradations.push(DegradationNote::new(
                "insertion",
                "fewer_instances",
                format!("budget spent after {done} of {} cliques", cliques.len()),
            ));
        }
        if infected.is_empty() {
            return Err(if stopped_at.is_some() {
                budget_error(budget, "insertion")
            } else {
                InsertionError::NoPayloadNet
            });
        }

        // Phase 5: structural + functional validation of every emitted
        // design. Structure was previously left to callers (and tests);
        // making it a pipeline phase means a malformed netlist can never
        // leave the framework silently, and gives the timing tables a
        // `validation` column. The functional check simulates each
        // design once under its false-filled activation cube (a
        // one-pattern kernel run) and asserts the trigger fires and the
        // payload gate shows the configured effect. Validation is never
        // skipped under budget pressure: an unvalidated partial result
        // is not a result.
        let t5 = htforge_obs::span("validation");
        htforge_obs::faultpoint!("framework.validate");
        for (i, design) in infected.iter().enumerate() {
            design.netlist.validate()?;
            validate_functional(&design.netlist, std::slice::from_ref(&design.trojan), i)?;
        }
        timings.validation = t5.finish();

        pipeline_span.finish();
        if !degradations.is_empty() {
            htforge_obs::counter("framework.degradations").add(degradations.len() as u64);
        }
        let graph_stats = GraphStats {
            vertices: graph.len(),
            dropped: graph.dropped(),
            edges: graph.edge_count(),
            cliques: cliques.len(),
        };
        Ok(InsertionOutcome {
            infected,
            rare_nodes: rare,
            graph_stats,
            timings,
            degradations,
        })
    }

    /// Like [`InsertionFramework::run`], but inserts all `N` trojans into
    /// **one** netlist (the paper's "single or multiple HT instances"
    /// configuration). Instances are added sequentially; an instance
    /// whose payload would create a cycle with previously inserted
    /// trojan logic is skipped. The final netlist is validated like
    /// every design of [`InsertionFramework::run`]: each instance's
    /// trigger must fire under its own cube in the combined netlist.
    ///
    /// # Errors
    ///
    /// Same as [`InsertionFramework::run`]; additionally returns
    /// [`InsertionError::NoPayloadNet`] if *no* instance can be placed.
    pub fn run_combined(
        &self,
        nl: &Netlist,
    ) -> Result<(Netlist, Vec<TrojanInstance>), InsertionError> {
        self.run_combined_with_budget(nl, &RunBudget::unlimited())
            .map(|(combined, instances, _)| (combined, instances))
    }

    /// [`InsertionFramework::run_combined`] under a [`RunBudget`]; the
    /// third tuple element reports any degradation decisions (see
    /// [`InsertionFramework::run_with_budget`]).
    ///
    /// # Errors
    ///
    /// As [`InsertionFramework::run_with_budget`].
    pub fn run_combined_with_budget(
        &self,
        nl: &Netlist,
        budget: &RunBudget,
    ) -> Result<(Netlist, Vec<TrojanInstance>, Vec<DegradationNote>), InsertionError> {
        let outcome = self.run_with_budget(nl, budget)?;
        let mut combined = nl.clone();
        combined.set_name(format!("{}_multi", nl.name()));
        let mut instances = Vec::new();
        for (i, design) in outcome.infected.iter().enumerate() {
            let trigger_nodes: Vec<NodeId> = design
                .trojan
                .trigger_inputs
                .iter()
                .map(|&(n, _)| n)
                .collect();
            // Re-check payload safety against the *evolving* netlist: a
            // previous instance may have made this victim unsafe.
            let candidates = crate::payload::safe_payload_candidates(&combined, &trigger_nodes);
            let payload = if candidates.contains(&design.trojan.payload_net) {
                design.trojan.payload_net
            } else {
                match candidates.first() {
                    Some(&p) => p,
                    None => continue,
                }
            };
            let rare_values: Vec<bool> = design
                .trojan
                .trigger_inputs
                .iter()
                .map(|&(_, v)| v)
                .collect();
            let plan = TriggerPlan::synthesize(&rare_values, self.config.max_fanin);
            let (next, trojan) = insert_trojan_with(
                &combined,
                &design.trojan.trigger_inputs,
                &plan,
                payload,
                self.config.payload_kind,
                &format!("m{i}"),
                design.trojan.activation_cube.clone(),
            )?;
            combined = next;
            instances.push(trojan);
        }
        if instances.is_empty() {
            return Err(InsertionError::NoPayloadNet);
        }
        // The structural and functional checks of Phase 5, on the final
        // netlist: a later instance must not stop an earlier one firing.
        let v = htforge_obs::span("validation");
        combined.validate()?;
        validate_functional(&combined, &instances, 0)?;
        v.finish();
        Ok((combined, instances, outcome.degradations))
    }
}

/// Functional validation of the trojans in one netlist: under each
/// instance's activation cube (X bits filled with 0) its trigger must
/// fire, and its payload gate must show the configured effect (`Flip`
/// inverts the victim net, `ForceZero`/`ForceOne` pin it). The netlist
/// is scan-cut and compiled once, and one kernel run checks every
/// instance, one column each. Errors name instance `first + k` for the
/// `k`-th of `instances`.
fn validate_functional(
    nl: &Netlist,
    instances: &[TrojanInstance],
    first: usize,
) -> Result<(), InsertionError> {
    let cut = nl.scan_cut();
    let mut vectors = PatternSet::zeros(cut.inputs().len(), 0);
    for trojan in instances {
        let vector = trojan.activation_cube.fill_with(false);
        assert_eq!(
            vector.len(),
            cut.inputs().len(),
            "activation cube width must match the scan-cut input count"
        );
        vectors.push(&vector);
    }
    let values = SimProgram::compile(&cut)?.run(&vectors);
    for (k, trojan) in instances.iter().enumerate() {
        let index = first + k;
        if !values.value(trojan.trigger_output, k) {
            return Err(InsertionError::Internal(format!(
                "activation cube fails to fire the trigger of instance {index}"
            )));
        }
        let expected = match trojan.payload_kind {
            PayloadKind::Flip => !values.value(trojan.payload_net, k),
            PayloadKind::ForceZero => false,
            PayloadKind::ForceOne => true,
        };
        if values.value(trojan.payload_gate, k) != expected {
            return Err(InsertionError::Internal(format!(
                "payload gate of instance {index} does not show the {:?} effect",
                trojan.payload_kind
            )));
        }
    }
    Ok(())
}

/// The error a phase reports when its budget ran out and it produced
/// nothing usable. Cancellation wins over the deadline: a cancelled run
/// is `Cancelled` even if the deadline also passed.
fn budget_error(budget: &RunBudget, phase: &str) -> InsertionError {
    if budget.cancelled() {
        InsertionError::Cancelled
    } else {
        InsertionError::Timeout {
            phase: phase.to_string(),
        }
    }
}

/// Canonical member list for clique dedup across the exact/greedy
/// fallback boundary.
fn sorted_members(members: &[usize]) -> Vec<usize> {
    let mut m = members.to_vec();
    m.sort_unstable();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::Tri;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config(q: usize, n: usize) -> InsertionConfig {
        InsertionConfig {
            theta: 0.20,
            num_vectors: 2_000,
            trigger_nodes: q,
            num_instances: n,
            seed: 42,
            ..InsertionConfig::default()
        }
    }

    #[test]
    fn c17_insertion_works_end_to_end() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        assert!(!outcome.infected.is_empty());
        for design in &outcome.infected {
            assert!(design.netlist.validate().is_ok());
            assert_eq!(design.trojan.trigger_node_count(), 2);
        }
        assert!(outcome.graph_stats.vertices >= 2);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let fw = InsertionFramework::new(cfg);
        let plain = fw.run(&nl).unwrap();
        let budgeted = fw
            .run_with_budget(&nl, &RunBudget::with_deadline(Duration::from_secs(600)))
            .unwrap();
        assert!(budgeted.degradations.is_empty());
        assert_eq!(budgeted.infected.len(), plain.infected.len());
        assert_eq!(budgeted.rare_nodes.len(), plain.rare_nodes.len());
        assert_eq!(budgeted.graph_stats.edges, plain.graph_stats.edges);
        for (a, b) in plain.infected.iter().zip(budgeted.infected.iter()) {
            assert_eq!(a.trojan.trigger_inputs, b.trojan.trigger_inputs);
        }
    }

    #[test]
    fn spent_budget_yields_timeout_with_phase() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let err = InsertionFramework::new(cfg)
            .run_with_budget(&nl, &RunBudget::with_deadline(Duration::ZERO))
            .unwrap_err();
        match err {
            InsertionError::Timeout { phase } => {
                assert!(!phase.is_empty(), "timeout must name the phase")
            }
            other => panic!("expected Timeout, got {other}"),
        }
    }

    #[test]
    fn cancelled_budget_yields_cancelled() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let budget = RunBudget::unlimited();
        budget.cancel_token().cancel();
        let err = InsertionFramework::new(cfg)
            .run_with_budget(&nl, &budget)
            .unwrap_err();
        assert!(matches!(err, InsertionError::Cancelled), "got {err}");
    }

    #[test]
    fn multiple_instances_are_distinct() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 4)
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        let mut trigger_sets: Vec<Vec<NodeId>> = outcome
            .infected
            .iter()
            .map(|d| {
                let mut v: Vec<NodeId> = d.trojan.trigger_inputs.iter().map(|&(n, _)| n).collect();
                v.sort_unstable();
                v
            })
            .collect();
        trigger_sets.sort();
        trigger_sets.dedup();
        assert_eq!(
            trigger_sets.len(),
            outcome.infected.len(),
            "each instance must use a distinct trigger set"
        );
    }

    #[test]
    fn activation_cube_fires_every_instance() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for design in &outcome.infected {
            let sim = SimProgram::compile(&design.netlist).unwrap();
            let v = design.trojan.activation_cube.fill_random(&mut rng);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            let vals = sim.run(&ps);
            assert!(
                vals.value(design.trojan.trigger_output, 0),
                "activation cube must fire the trigger"
            );
        }
    }

    #[test]
    fn too_many_trigger_nodes_error() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(100, 1)
        };
        match InsertionFramework::new(cfg).run(&nl) {
            Err(InsertionError::NotEnoughRareNodes { needed: 100, .. }) => {}
            other => panic!("expected NotEnoughRareNodes, got {other:?}"),
        }
    }

    #[test]
    fn timings_are_populated() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 1)
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        assert!(outcome.timings.total() > Duration::ZERO);
    }

    #[test]
    fn sequential_host_is_supported() {
        let profile = htforge_circuits::synth::CircuitProfile {
            name: "seq_mini".into(),
            inputs: 12,
            outputs: 4,
            gates: 220,
            dffs: 12,
            seed: 31,
        };
        let nl = htforge_circuits::synth::generate(&profile);
        let cfg = InsertionConfig {
            theta: 0.20,
            num_vectors: 1_000,
            trigger_nodes: 4,
            num_instances: 2,
            seed: 7,
            ..InsertionConfig::default()
        };
        let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        assert!(!outcome.infected.is_empty());
        for design in &outcome.infected {
            assert!(design.netlist.validate().is_ok());
            // DFF count unchanged: the trojan is purely combinational.
            assert_eq!(design.netlist.dffs().len(), nl.dffs().len());
        }
    }

    #[test]
    fn combined_insertion_places_multiple_trojans() {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 3)
        };
        let (combined, instances) = InsertionFramework::new(cfg).run_combined(&nl).unwrap();
        assert!(combined.validate().is_ok());
        assert!(!instances.is_empty());
        let added: usize = instances.iter().map(|t| t.inserted_gate_count()).sum();
        assert_eq!(combined.node_count(), nl.node_count() + added);
        // Every instance's trigger fires under its own cube.
        for t in &instances {
            let sim = SimProgram::compile(&combined).unwrap();
            let v = t.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            assert!(sim.run(&ps).value(t.trigger_output, 0));
        }
    }

    #[test]
    fn combined_insertion_on_a_sequential_host() {
        // s1423 is scan-cut for profiling and validation: every
        // instance's cube spans the scan-cut inputs, and the combined
        // netlist keeps its flip-flops.
        let nl = htforge_circuits::load("s1423").unwrap();
        let (combined, instances) = InsertionFramework::new(quick_config(8, 3))
            .run_combined(&nl)
            .unwrap();
        assert!(combined.validate().is_ok());
        assert!(!instances.is_empty());
        assert_eq!(combined.dffs().len(), nl.dffs().len());
        let cut = combined.scan_cut();
        let sim = SimProgram::compile(&cut).unwrap();
        for t in &instances {
            let v = t.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(cut.inputs().len(), &[v]);
            assert!(sim.run(&ps).value(t.trigger_output, 0));
        }
    }

    #[test]
    fn force_payloads_have_expected_polarity() {
        for (kind, expect_when_triggered) in [
            (PayloadKind::ForceZero, false),
            (PayloadKind::ForceOne, true),
        ] {
            let nl = htforge_circuits::load("c17").unwrap();
            let cfg = InsertionConfig {
                theta: 0.30,
                payload_kind: kind,
                ..quick_config(2, 1)
            };
            let outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
            let design = &outcome.infected[0];
            assert_eq!(design.trojan.payload_kind, kind);
            let sim = SimProgram::compile(&design.netlist).unwrap();
            let v = design.trojan.activation_cube.fill_with(false);
            let ps = PatternSet::from_vectors(nl.inputs().len(), &[v]);
            let vals = sim.run(&ps);
            assert!(vals.value(design.trojan.trigger_output, 0));
            assert_eq!(
                vals.value(design.trojan.payload_gate, 0),
                expect_when_triggered,
                "{kind:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        let _ = InsertionFramework::new(InsertionConfig {
            theta: 2.0,
            ..InsertionConfig::default()
        });
    }

    /// One emitted c17 design that passes validation as emitted.
    fn validated_c17_design() -> InfectedDesign {
        let nl = htforge_circuits::load("c17").unwrap();
        let cfg = InsertionConfig {
            theta: 0.30,
            ..quick_config(2, 1)
        };
        let mut outcome = InsertionFramework::new(cfg).run(&nl).unwrap();
        let design = outcome.infected.remove(0);
        validate_functional(&design.netlist, std::slice::from_ref(&design.trojan), 0)
            .expect("emitted designs validate");
        design
    }

    #[test]
    fn validation_rejects_a_cube_that_does_not_fire_the_trigger() {
        let mut design = validated_c17_design();
        // Invert every care bit: the trigger's rare leaves now see their
        // common values.
        let cube = &mut design.trojan.activation_cube;
        for i in 0..cube.width() {
            match cube.get(i) {
                Tri::Zero => cube.set(i, Tri::One),
                Tri::One => cube.set(i, Tri::Zero),
                Tri::X => {}
            }
        }
        let v = design.trojan.activation_cube.fill_with(false);
        let vals = SimProgram::compile(&design.netlist)
            .unwrap()
            .run(&PatternSet::from_vectors(v.len(), &[v]));
        assert!(!vals.value(design.trojan.trigger_output, 0), "precondition");
        match validate_functional(&design.netlist, std::slice::from_ref(&design.trojan), 3) {
            Err(InsertionError::Internal(msg)) => {
                assert!(
                    msg.contains("fails to fire the trigger of instance 3"),
                    "{msg}"
                )
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_a_payload_gate_without_the_configured_effect() {
        let mut design = validated_c17_design();
        assert_eq!(design.trojan.payload_kind, PayloadKind::Flip);
        // Point the payload gate at the victim net itself: under the
        // cube it shows the victim's value, never its inversion.
        design.trojan.payload_gate = design.trojan.payload_net;
        match validate_functional(&design.netlist, std::slice::from_ref(&design.trojan), 5) {
            Err(InsertionError::Internal(msg)) => {
                assert!(msg.contains("payload gate of instance 5"), "{msg}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
