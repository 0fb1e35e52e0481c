//! End-to-end orchestration of the insertion pipeline (§III).
//!
//! [`InsertionFramework`] ties together rare-node extraction
//! (Algorithm 1), compatibility-graph construction (Algorithm 2), clique
//! enumeration, trigger synthesis (Fig. 1) and HT-infected netlist
//! generation (Algorithm 3), reporting per-phase wall-clock timings —
//! the quantities of the paper's Tables III and IV.

use std::borrow::Cow;
use std::time::Duration;

use htforge_atpg::{Cube, PodemConfig};
use htforge_netlist::{graph, netlist::NodeId, Netlist, NetlistError};
use htforge_obs::{DegradationNote, RunBudget, StagedBudget};
use htforge_scoap::Scoap;
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet, SimProgram};

use crate::clique::{enumerate_cliques_budgeted, sample_cliques_budgeted};
use crate::compat::CompatGraph;
use crate::error::InsertionError;
use crate::insert::{TrojanEmitter, TrojanInstance};
use crate::payload::{PayloadKind, PayloadStrategy};

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
    /// since a trigger only needs its rare values justified). Justify
    /// mode lifts each witnessed event's cube instead of searching.
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
    /// Cube generation + the compatibility matrix (Algorithm 2).
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
    /// Rare events dropped (no cube).
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
        let pipeline_span = htforge_obs::span("insertion_pipeline");
        let (mut run, graph_stats, triggers) = self.plan(nl, budget)?;

        // Phase 4: trigger synthesis + insertion (Algorithm 3), one
        // standalone design per clique.
        let t4 = htforge_obs::span("insertion");
        let emitter = TrojanEmitter::new(nl, &run.scoap, cfg.max_fanin, cfg.payload_kind);
        let (infected, _) = place_each(
            &mut run,
            triggers,
            budget,
            |i, leaves, cube| match emitter.emit(
                leaves,
                self.instance_payload(i),
                &i.to_string(),
                cube,
            ) {
                Ok(design) => Ok(Some(design)),
                Err(InsertionError::NoPayloadNet) => Ok(None),
                Err(e) => Err(e),
            },
        )?;
        run.timings.insertion = t4.finish();

        // Phase 5: functional validation of every emitted design. Its
        // structure was checked by `insert_trojan_with` as the last step
        // of emission, locally against the host checked in Phase 0, and
        // its level column, kept through the edit, is cached for the
        // compile here. The functional check simulates each design once
        // under its false-filled activation cube (a one-pattern kernel
        // run) and asserts the trigger fires and the payload gate shows
        // the configured effect. Validation is never skipped under
        // budget pressure: an unvalidated partial result is not a
        // result.
        let t5 = htforge_obs::span("validation");
        htforge_obs::faultpoint!("framework.validate");
        for (i, design) in infected.iter().enumerate() {
            validate_functional(&design.netlist, std::slice::from_ref(&design.trojan), i)?;
        }
        run.timings.validation = t5.finish();

        pipeline_span.finish();
        Ok(InsertionOutcome {
            infected,
            rare_nodes: run.rare,
            graph_stats,
            timings: run.timings,
            degradations: run.degradations,
        })
    }

    /// Phases 0–3, shared by both emission tails: the [`Prologue`]
    /// (host check, SCOAP, scan cut, compile, rare profile), the
    /// compatibility graph and clique selection, with their degradation
    /// notes and timings. Returns the prologue, the graph's statistics
    /// and the selected cliques as triggers.
    fn plan(
        &self,
        nl: &Netlist,
        budget: &RunBudget,
    ) -> Result<(Prologue, GraphStats, Vec<Trigger>), InsertionError> {
        let cfg = &self.config;
        let mut run = Prologue::run(nl, cfg, budget)?;

        // Phase 2: compatibility graph (Algorithm 2); skips faults and
        // matrix rows when its sub-budget runs out.
        let t2 = htforge_obs::span("compat_graph");
        let compat_budget = run.stages.next_stage();
        let (graph, compat_notes) = run.compat_graph(cfg.podem, &compat_budget)?;
        run.timings.compat_graph = t2.finish();
        let compat_degraded = !compat_notes.is_empty();
        run.degradations.extend(compat_notes);
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
        let clique_budget = run.stages.next_stage();
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
                run.degradations.push(DegradationNote::new(
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
                run.degradations.push(DegradationNote::new(
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
        run.timings.clique_enumeration = t3.finish();
        if cliques.is_empty() {
            // "No cliques" is only a statement about the circuit when
            // nothing upstream was cut short; a truncated profile or
            // matrix makes an empty result a budget artifact.
            return Err(if budget.check().is_err() || !run.degradations.is_empty() {
                budget_error(budget, "clique_enumeration")
            } else {
                InsertionError::NoCliques {
                    size: cfg.trigger_nodes,
                }
            });
        }

        let graph_stats = GraphStats {
            vertices: graph.len(),
            dropped: graph.dropped(),
            edges: graph.edge_count(),
            cliques: cliques.len(),
        };
        let events = graph.events();
        let triggers = cliques
            .into_iter()
            .map(|c| {
                let leaves = c
                    .members
                    .iter()
                    .map(|&m| (events[m].node, events[m].rare_value));
                (leaves.collect(), c.activation_cube)
            })
            .collect();
        Ok((run, graph_stats, triggers))
    }

    /// The payload strategy of instance `i`: a `Random` seed advances
    /// per instance.
    fn instance_payload(&self, i: usize) -> PayloadStrategy {
        match self.config.payload {
            PayloadStrategy::Random(s) => PayloadStrategy::Random(s.wrapping_add(i as u64)),
            other => other,
        }
    }

    /// Like [`InsertionFramework::run`], but inserts all `N` trojans into
    /// **one** netlist (the paper's "single or multiple HT instances"
    /// configuration), one after another through the same emitter into
    /// one copy of the host, grown in place.
    ///
    /// Each instance keeps its trigger set and activation cube. Its
    /// payload net is chosen by the configured strategy among the host
    /// gates that feed no trigger of *any* instance, and no two instances
    /// share one. So no payload sits upstream of a trigger, every trigger
    /// sees host values, and the flips cannot stack. An instance with no
    /// such net left is skipped and reported as a degradation note. The
    /// final netlist is validated like every design of
    /// [`InsertionFramework::run`]: its structure by the last instance's
    /// insertion, and each instance's trigger must fire, and its payload
    /// show its effect, under its own cube in the combined netlist.
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
    /// [`InsertionFramework::run_with_budget`]) and skipped instances.
    ///
    /// # Errors
    ///
    /// As [`InsertionFramework::run_with_budget`].
    pub fn run_combined_with_budget(
        &self,
        nl: &Netlist,
        budget: &RunBudget,
    ) -> Result<(Netlist, Vec<TrojanInstance>, Vec<DegradationNote>), InsertionError> {
        let cfg = &self.config;
        let pipeline_span = htforge_obs::span("insertion_pipeline");
        let (mut run, _, mut triggers) = self.plan(nl, budget)?;

        // Phase 4, straight into one netlist. Only the cliques that have
        // a payload net of their own (the ones `run` emits a design for)
        // are numbered and feed the trigger union. Whether a net exists
        // does not depend on the strategy, so the cheapest one decides.
        let t4 = htforge_obs::span("insertion");
        let emitter = TrojanEmitter::new(nl, &run.scoap, cfg.max_fanin, cfg.payload_kind);
        let trigger_nodes =
            |leaves: &[(NodeId, bool)]| leaves.iter().map(|&(n, _)| n).collect::<Vec<_>>();
        triggers.retain(|(leaves, _)| {
            let own_reach = graph::transitive_fanin(nl, &trigger_nodes(leaves));
            emitter
                .payload_net(&own_reach, &[], PayloadStrategy::MostObservable)
                .is_some()
        });
        let union: Vec<NodeId> = triggers.iter().flat_map(|t| trigger_nodes(&t.0)).collect();
        let reach = graph::transitive_fanin(nl, &union);
        let mut combined = nl.clone();
        combined.set_name(format!("{}_multi", nl.name()));
        let mut used: Vec<NodeId> = Vec::new();
        let (instances, tried) = place_each(&mut run, triggers, budget, |i, leaves, cube| {
            let Some(payload_net) = emitter.payload_net(&reach, &used, self.instance_payload(i))
            else {
                return Ok(None);
            };
            let trojan =
                emitter.insert_into(&mut combined, leaves, payload_net, &format!("m{i}"), cube)?;
            used.push(payload_net);
            Ok(Some(trojan))
        })?;
        t4.finish();
        let skipped = tried - instances.len();
        if skipped > 0 {
            run.degradations.push(DegradationNote::new(
                "insertion",
                "skipped_instances",
                format!(
                    "{skipped} of {tried} instances have no payload net left that feeds no trigger"
                ),
            ));
        }

        // Phase 5's functional check on the final netlist (the last
        // insertion checked its structure): a later instance must not
        // stop an earlier one firing.
        let v = htforge_obs::span("validation");
        htforge_obs::faultpoint!("framework.validate");
        validate_functional(&combined, &instances, 0)?;
        v.finish();
        pipeline_span.finish();
        Ok((combined, instances, run.degradations))
    }
}

/// Phases 0–1 of every insertion campaign, shared by the framework and
/// the baseline inserters: the campaign's one structural check of the
/// host, its SCOAP measures, its combinational model compiled once, and
/// its rare-node profile (Algorithm 1).
#[derive(Debug)]
pub struct Prologue {
    /// SCOAP measures of the host. A scan cut keeps every node's
    /// measures, so they serve the combinational model too.
    pub scoap: Scoap,
    /// The combinational model: the host, scan-cut if sequential. It
    /// shares the host's node ids.
    pub(crate) comb: Netlist,
    /// `comb` compiled once, for profiling and every later simulation
    /// of the model.
    pub prog: SimProgram,
    /// The rare nodes of `comb`.
    pub rare: RareNodeSet,
    timings: PhaseTimings,
    degradations: Vec<DegradationNote>,
    stages: StagedBudget,
}

impl Prologue {
    /// Checks and profiles `host` with `config`'s θ, vector count and
    /// seed. `budget` is split in stages over rare extraction, the
    /// compatibility graph, clique enumeration and insertion; the
    /// profile takes the first stage and truncates when it runs out.
    ///
    /// # Errors
    ///
    /// [`InsertionError::NotEnoughRareNodes`] when fewer than
    /// `config.trigger_nodes` nodes are rare,
    /// [`InsertionError::Netlist`] when the host is not a valid netlist,
    /// and [`InsertionError::Timeout`] or [`InsertionError::Cancelled`]
    /// when the budget is spent before the check or truncates the
    /// profile below that count.
    pub fn run(
        host: &Netlist,
        config: &InsertionConfig,
        budget: &RunBudget,
    ) -> Result<Self, InsertionError> {
        budget
            .check()
            .map_err(|_| budget_error(budget, "preprocess"))?;
        // Staged split over rare / compat / clique / insertion: 25 %
        // rare, 70 % of the remainder compat, 60 % of that remainder
        // clique. Preprocess and validation run outside it: the former
        // is sub-millisecond, the latter is never skipped under
        // pressure. A phase finishing early donates its slack to every
        // later phase (each stage takes w_i / Σ_{j≥i} w_j of the time
        // remaining at the moment it starts).
        const STAGE_WEIGHTS: [f64; 4] = [0.25, 0.52, 0.14, 0.09];
        let mut stages = budget.staged(&STAGE_WEIGHTS);
        let mut timings = PhaseTimings::default();

        // Phase 0: the campaign's one structural check of the host, and
        // the combinational model, compiled once for profiling and the
        // compatibility graph. The check levelizes the host, so SCOAP,
        // the cut and every emitted design inherit that level column.
        let t0 = htforge_obs::span("preprocess");
        host.validate()?;
        let scoap = Scoap::compute(host)?;
        let comb = host.scan_cut();
        let prog = SimProgram::compile(&comb)?;
        timings.preprocess = t0.finish();

        // Phase 1: rare nodes (Algorithm 1); the profile truncates when
        // its sub-budget runs out.
        let t1 = htforge_obs::span("rare_extraction");
        let patterns = PatternSet::random(comb.inputs().len(), config.num_vectors, config.seed);
        let (rare, rare_note) = RareNodeExtractor::new(config.theta).extract_budgeted(
            &prog,
            &comb,
            &patterns,
            &stages.next_stage(),
        );
        timings.rare_extraction = t1.finish();
        htforge_obs::counter("rare.nodes").add(rare.len() as u64);
        if rare.len() < config.trigger_nodes {
            // An untruncated profile with too few rare nodes is a
            // property of the circuit; a truncated one is a timeout.
            return Err(if rare_note.is_some() {
                budget_error(budget, "rare_extraction")
            } else {
                InsertionError::NotEnoughRareNodes {
                    found: rare.len(),
                    needed: config.trigger_nodes,
                }
            });
        }
        Ok(Prologue {
            scoap,
            comb,
            prog,
            rare,
            timings,
            degradations: rare_note.into_iter().collect(),
            stages,
        })
    }

    /// The compatibility graph (Algorithm 2) of the profiled rare nodes
    /// on the combinational model, built as
    /// [`CompatGraph::build_budgeted`] builds it under `budget`.
    ///
    /// # Errors
    ///
    /// As [`CompatGraph::build_budgeted`].
    pub fn compat_graph(
        &self,
        podem: PodemConfig,
        budget: &RunBudget,
    ) -> Result<(CompatGraph, Vec<DegradationNote>), NetlistError> {
        CompatGraph::build_budgeted(
            &self.prog,
            &self.scoap,
            &self.comb,
            &self.rare,
            podem,
            budget,
        )
    }
}

/// One selected clique: its trigger leaves (rare node, rare value) and
/// its activation cube.
type Trigger = (Vec<(NodeId, bool)>, Cube);

/// Phase 4's loop over the planned cliques, shared by both emission
/// tails: `place` turns clique `i` (its leaves and activation cube)
/// into an instance, or into `None` when it has no payload net. On a
/// spent budget `num_instances = N` degrades to "as many as fit";
/// the run fails only when nothing was placed. Otherwise it counts the
/// run's degradation notes so far and returns the instances and how
/// many cliques were tried.
fn place_each<T>(
    run: &mut Prologue,
    triggers: Vec<Trigger>,
    budget: &RunBudget,
    mut place: impl FnMut(usize, &[(NodeId, bool)], Cube) -> Result<Option<T>, InsertionError>,
) -> Result<(Vec<T>, usize), InsertionError> {
    // The last stage inherits the entire remainder (its weight is the
    // tail of the sequence), so this equals the parent budget.
    let insertion_budget = run.stages.next_stage();
    let total = triggers.len();
    let mut placed = Vec::with_capacity(total);
    let mut stopped_at = None;
    for (i, (leaves, cube)) in triggers.into_iter().enumerate() {
        if insertion_budget.check().is_err() {
            stopped_at = Some(i);
            break;
        }
        htforge_obs::faultpoint!("insert.instance");
        placed.extend(place(i, &leaves, cube)?);
    }
    htforge_obs::counter("insertion.instances").add(placed.len() as u64);
    if let Some(done) = stopped_at {
        run.degradations.push(DegradationNote::new(
            "insertion",
            "fewer_instances",
            format!("budget spent after {done} of {total} cliques"),
        ));
    }
    if placed.is_empty() {
        return Err(if stopped_at.is_some() {
            budget_error(budget, "insertion")
        } else {
            InsertionError::NoPayloadNet
        });
    }
    let notes = run.degradations.len();
    if notes > 0 {
        htforge_obs::counter("framework.degradations").add(notes as u64);
    }
    Ok((placed, stopped_at.unwrap_or(total)))
}

/// Functional validation of the trojans in one netlist: under each
/// instance's activation cube (X bits filled with 0) its trigger must
/// fire, and its payload gate must show the configured effect (`Flip`
/// inverts the victim net, `ForceZero`/`ForceOne` pin it). Structure is
/// not rechecked here: [`crate::insert::insert_trojan_with`] checked
/// `nl` when it built it, and the compile reuses the level column it
/// kept.
/// The netlist is compiled once, scan-cut first if it is sequential (a
/// combinational one is compiled as it is, not copied), and one kernel
/// run checks every instance, one column each. Errors name instance
/// `first + k` for the `k`-th of `instances`.
fn validate_functional(
    nl: &Netlist,
    instances: &[TrojanInstance],
    first: usize,
) -> Result<(), InsertionError> {
    let cut = if nl.dffs().is_empty() {
        Cow::Borrowed(nl)
    } else {
        Cow::Owned(nl.scan_cut())
    };
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

    /// Combined mode on a sequential and a combinational host over many
    /// seeds: every placed instance has its own payload net, none feeds
    /// a trigger, and in the combined netlist each trigger fires under
    /// its own cube and flips its payload net.
    #[test]
    fn combined_mode_holds_over_many_seeds() {
        for circuit in ["s1423", "c2670"] {
            let nl = htforge_circuits::load(circuit).unwrap();
            for seed in 0..6 {
                let cfg = InsertionConfig {
                    seed,
                    ..quick_config(8, 8)
                };
                let (combined, instances, _) = InsertionFramework::new(cfg)
                    .run_combined_with_budget(&nl, &RunBudget::unlimited())
                    .unwrap();
                assert!(!instances.is_empty(), "{circuit} seed {seed}");
                combined.validate().unwrap();
                let triggers: Vec<NodeId> = instances
                    .iter()
                    .flat_map(|t| t.trigger_inputs.iter().map(|&(n, _)| n))
                    .collect();
                let reach = graph::transitive_fanin(&nl, &triggers);
                let mut nets: Vec<NodeId> = instances.iter().map(|t| t.payload_net).collect();
                assert!(
                    nets.iter().all(|n| !reach[n.index()]),
                    "{circuit} seed {seed}"
                );
                nets.sort_unstable();
                nets.dedup();
                assert_eq!(nets.len(), instances.len(), "{circuit} seed {seed}");
                let cut = combined.scan_cut();
                let sim = SimProgram::compile(&cut).unwrap();
                for (i, t) in instances.iter().enumerate() {
                    let v = t.activation_cube.fill_with(false);
                    let vals = sim.run(&PatternSet::from_vectors(cut.inputs().len(), &[v]));
                    assert!(
                        vals.value(t.trigger_output, 0),
                        "{circuit} seed {seed} instance {i} does not fire"
                    );
                    assert_ne!(
                        vals.value(t.payload_gate, 0),
                        vals.value(t.payload_net, 0),
                        "{circuit} seed {seed} instance {i} does not flip"
                    );
                }
            }
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

    /// The host's SCOAP table serves its scan cut: a DFF is a
    /// controllability-1 source and its D driver an observation point
    /// with CO = 0 in both, so every node has the same CC0, CC1 and CO.
    #[test]
    fn host_scoap_equals_scan_cut_scoap() {
        let synthetic =
            htforge_circuits::synth::generate(&htforge_circuits::synth::CircuitProfile {
                name: "seq_mini".into(),
                inputs: 12,
                outputs: 4,
                gates: 220,
                dffs: 12,
                seed: 31,
            });
        let hosts = [
            htforge_circuits::load("s1423").unwrap(),
            htforge_circuits::load("s13207").unwrap(),
            synthetic,
        ];
        for host in &hosts {
            assert!(!host.dffs().is_empty(), "{} is sequential", host.name());
            let cut = host.scan_cut();
            let (a, b) = (Scoap::compute(host).unwrap(), Scoap::compute(&cut).unwrap());
            for id in host.node_ids() {
                assert_eq!(
                    (a.cc0(id), a.cc1(id), a.co(id)),
                    (b.cc0(id), b.cc1(id), b.co(id)),
                    "{} node {}",
                    host.name(),
                    host.name_of(id)
                );
            }
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
