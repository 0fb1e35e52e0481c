//! **Table III** — trojan insertion time (TT) of the three frameworks.
//!
//! The paper inserts 100 trojan instances per circuit with each framework
//! and reports wall-clock minutes: Random averages 53 736 min, RL 1 406
//! min (ISCAS-85 only, from Sarihi et al.), and the proposed framework
//! 1.42 min — speedups of 37 815× and 989× respectively.
//!
//! The dominant cost of the baselines is *validation*: a random (or
//! RL-proposed) rare-node subset must be shown jointly excitable by
//! simulation search, and almost all candidates fail. This harness
//! therefore runs each baseline inside a time box, counts validated
//! instances, and reports the **extrapolated time to 100 validated
//! instances** (`TT₁₀₀`); when a baseline validates *nothing* in its
//! box, a rule-of-three lower bound is printed. The proposed framework
//! simply runs to completion (it needs no validation) and reports its
//! measured time for 100 instances, plus a per-phase breakdown from the
//! pipeline spans.
//!
//! Absolute numbers depend on hardware and budgets; the reproducible
//! shape is the ordering random ≫ RL ≫ proposed with orders-of-magnitude
//! separation, and the much larger trigger counts (q) of the proposed
//! framework.
//!
//! The campaign is resilient (see `DESIGN.md` §9): each circuit runs
//! with panic isolation and writes a checkpoint
//! (`results/ckpt_table3_<circuit>.json`), `BENCH_table3.json` is
//! rewritten atomically after every circuit, and a killed run resumes
//! from its checkpoints (`--fresh` recomputes).
//!
//! Artifacts (see `DESIGN.md` §8): one `results/report_<circuit>.json`
//! run report per circuit covering the proposed framework's pipeline,
//! and `BENCH_table3.json` at the repo root holding both tables as JSON.
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin table3_insertion_time [--full]
//! HTFORGE_OBS=summary,progress cargo run ... # live counters + exit summary
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use htforge_atpg::PodemConfig;
use htforge_baselines::{RandomInserter, RlConfig, RlInserter, ValidationBudget};
use htforge_bench::campaign::{row_strings, str_row, Campaign, CircuitOutcome};
use htforge_bench::{minutes, HarnessOpts, Table};
use htforge_core::{clique, CompatGraph, InsertionConfig, InsertionFramework};
use htforge_obs::{write_atomic, Json, RunReport};
use htforge_sim::{PatternSet, RareNodeExtractor};

const TARGET_INSTANCES: usize = 100;
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Extrapolated minutes to `TARGET_INSTANCES` validated instances.
fn extrapolate(elapsed: Duration, produced: usize) -> (String, f64) {
    if produced == 0 {
        // Rule of three: with 0 successes observed, the success rate is
        // below 3/observations at 95 % confidence, so the expected time
        // to one success exceeds elapsed/3.
        let lower = elapsed.as_secs_f64() / 3.0 * TARGET_INSTANCES as f64;
        (
            format!(">{}", minutes(Duration::from_secs_f64(lower))),
            lower / 60.0,
        )
    } else {
        let t = elapsed.as_secs_f64() / produced as f64 * TARGET_INSTANCES as f64;
        (minutes(Duration::from_secs_f64(t)), t / 60.0)
    }
}

/// Formats a speedup ratio: two decimals below 10 so a slowdown never
/// rounds to "0x", whole numbers from 10 up.
fn speedup(ratio: f64) -> String {
    if ratio < 10.0 {
        format!("{ratio:.2}x")
    } else {
        format!("{ratio:.0}x")
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

struct Params {
    mode: &'static str,
    full: bool,
    vectors: usize,
    time_box: Duration,
    budget: ValidationBudget,
}

/// Runs all three frameworks on one circuit; the returned payload is
/// everything needed to rebuild this circuit's table rows on resume.
fn run_circuit(name: &str, p: &Params) -> Result<Json, String> {
    // One run report per circuit: clear the spans and counters left by
    // the previous iteration, run the proposed pipeline, then snapshot
    // before the (untimed-phase) baselines muddy the water.
    htforge_obs::global().reset();
    let nl = htforge_circuits::load(name).map_err(|e| e.to_string())?;
    let comb = nl.scan_cut();

    // --- proposed: run to completion at its feasible large q --------
    let probe_patterns = PatternSet::random(comb.inputs().len(), p.vectors, 0x733);
    let probe_rare = RareNodeExtractor::new(0.20)
        .extract(&comb, &probe_patterns)
        .map_err(|e| e.to_string())?;
    let probe_graph = CompatGraph::build(&comb, &probe_rare, PodemConfig::justify())
        .map_err(|e| e.to_string())?;
    let q_prop = clique::max_feasible_size(&probe_graph, 64, 1).max(1);

    let prop_start = Instant::now();
    let prop_outcome = InsertionFramework::new(InsertionConfig {
        theta: 0.20,
        num_vectors: p.vectors,
        trigger_nodes: q_prop,
        num_instances: TARGET_INSTANCES,
        seed: 0x733,
        ..InsertionConfig::default()
    })
    .run(&nl);
    let prop_elapsed = prop_start.elapsed();
    let (prop_produced, prop_timings) = match &prop_outcome {
        Ok(o) => (o.infected.len(), Some(o.timings)),
        Err(_) => (0, None),
    };
    let (prop_tt, prop_min) = extrapolate(prop_elapsed, prop_produced);
    let phase_row: Vec<String> = if let Some(t) = prop_timings {
        vec![
            name.to_owned(),
            secs(t.preprocess),
            secs(t.rare_extraction),
            secs(t.compat_graph),
            secs(t.clique_enumeration),
            secs(t.insertion),
            secs(t.validation),
            secs(t.total()),
        ]
    } else {
        let mut cells = vec![name.to_owned()];
        cells.extend((0..7).map(|_| "-".to_owned()));
        cells
    };

    let report = RunReport::from_recorder(&format!("table3_{name}"), htforge_obs::global())
        .with_meta("circuit", Json::Str(name.to_owned()))
        .with_meta("mode", Json::Str(p.mode.to_owned()))
        .with_meta("trigger_nodes", Json::Num(q_prop as f64))
        .with_meta("target_instances", Json::Num(TARGET_INSTANCES as f64))
        .with_meta("produced", Json::Num(prop_produced as f64));
    let path = PathBuf::from(REPO_ROOT).join(format!("results/report_{name}.json"));
    report
        .write_to(&path)
        .map_err(|e| format!("write run report: {e}"))?;

    // --- random: time-boxed candidate/validate loop ------------------
    let q_rand = 10.min(probe_rare.len().max(4) / 2).max(2);
    let rand_start = Instant::now();
    let mut rand_produced = 0usize;
    let mut round = 0u64;
    while rand_start.elapsed() < p.time_box {
        let outcome = RandomInserter::new(q_rand, 1)
            .with_theta(0.20)
            .with_profile_vectors(p.vectors)
            .with_budget(p.budget)
            .with_max_attempts(5)
            .run(&nl, 0x733 + round);
        if let Ok(o) = outcome {
            rand_produced += o.infected.len();
        }
        round += 1;
        if rand_produced >= TARGET_INSTANCES {
            break;
        }
    }
    let (rand_tt, rand_min) = extrapolate(rand_start.elapsed(), rand_produced);

    // --- RL: time-boxed training/validation --------------------------
    let q_rl = 5.min(probe_rare.len()).max(2);
    let rl_start = Instant::now();
    let mut rl_produced = 0usize;
    let mut round = 0u64;
    while rl_start.elapsed() < p.time_box {
        // RL methods train to convergence: a full episode schedule is
        // paid per campaign regardless of early lucky finds.
        let outcome = RlInserter::new(RlConfig {
            trigger_nodes: q_rl,
            num_instances: TARGET_INSTANCES,
            episodes: if p.full { 20_000 } else { 2_000 },
            theta: 0.20,
            profile_vectors: p.vectors,
            budget: p.budget,
            ..RlConfig::default()
        })
        .run(&nl, 0x733 + round);
        if let Ok(o) = outcome {
            rl_produced += o.infected.len();
        }
        round += 1;
        if rl_produced >= TARGET_INSTANCES {
            break;
        }
    }
    let (rl_tt, rl_min) = extrapolate(rl_start.elapsed(), rl_produced);

    let row = vec![
        name.to_owned(),
        q_rand.to_string(),
        rand_tt,
        q_rl.to_string(),
        rl_tt,
        q_prop.to_string(),
        prop_tt,
        speedup(rand_min / prop_min.max(1e-9)),
        speedup(rl_min / prop_min.max(1e-9)),
    ];
    Ok(Json::obj(vec![
        ("row", str_row(&row)),
        ("phase_row", str_row(&phase_row)),
        ("rand_min", Json::Num(rand_min)),
        ("rl_min", Json::Num(rl_min)),
        ("prop_min", Json::Num(prop_min)),
    ]))
}

/// Rewrites `BENCH_table3.json` atomically from the rows so far.
fn write_bench(
    mode: &str,
    table: &Table,
    phase_table: &Table,
    failures: &[(String, String)],
    complete: bool,
) -> PathBuf {
    let doc = Json::obj(vec![
        ("table", Json::Str("table3_insertion_time".to_owned())),
        ("mode", Json::Str(mode.to_owned())),
        ("complete", Json::Bool(complete)),
        ("target_instances", Json::Num(TARGET_INSTANCES as f64)),
        ("rows", table.to_json()),
        ("phase_seconds", phase_table.to_json()),
        (
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .map(|(circuit, error)| {
                        Json::obj(vec![
                            ("circuit", Json::Str(circuit.clone())),
                            ("error", Json::Str(error.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let bench_path = PathBuf::from(REPO_ROOT).join("BENCH_table3.json");
    if let Err(e) = write_atomic(&bench_path, &doc.pretty()) {
        eprintln!("warning: could not write {}: {e}", bench_path.display());
    }
    bench_path
}

fn main() {
    let _obs = htforge_obs::init_from_env();
    htforge_obs::global().enable();
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c2670", "c3540", "s1423"]);
    let params = Params {
        mode: if opts.full { "full" } else { "scaled" },
        full: opts.full,
        vectors: if opts.full { 10_000 } else { 4_000 },
        time_box: if opts.full {
            Duration::from_secs(300)
        } else {
            Duration::from_secs(20)
        },
        budget: ValidationBudget {
            vectors: if opts.full { 100_000 } else { 50_000 },
            batch: 4_096,
        },
    };

    println!("Table III: extrapolated time to {TARGET_INSTANCES} validated instances");
    println!(
        "(baselines time-boxed to {:?} per circuit)\n",
        params.time_box
    );
    let mut table = Table::new(vec![
        "circuit",
        "rand q",
        "rand TT100(min)",
        "RL q",
        "RL TT100(min)",
        "prop q",
        "prop TT100(min)",
        "vs rand",
        "vs RL",
    ]);
    let mut phase_table = Table::new(vec![
        "circuit", "preproc", "rare", "compat", "clique", "insert", "validate", "total",
    ]);

    let campaign = Campaign::new(
        "table3",
        PathBuf::from(REPO_ROOT).join("results"),
        opts.fresh,
    );
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut avg = (0.0f64, 0.0f64, 0.0f64);
    let mut completed = 0usize;
    for name in &circuits {
        match campaign.run_circuit(name, || run_circuit(name, &params)) {
            CircuitOutcome::Done { payload, resumed } => {
                if resumed {
                    println!("{name}: resumed from checkpoint");
                }
                table.row(row_strings(payload.get("row").unwrap_or(&Json::Null)));
                phase_table.row(row_strings(payload.get("phase_row").unwrap_or(&Json::Null)));
                for (field, slot) in [
                    ("rand_min", &mut avg.0),
                    ("rl_min", &mut avg.1),
                    ("prop_min", &mut avg.2),
                ] {
                    *slot += payload.get(field).and_then(Json::as_f64).unwrap_or(0.0);
                }
                completed += 1;
            }
            CircuitOutcome::Failed { error } => {
                eprintln!("{name}: FAILED: {error}");
                failures.push((name.clone(), error));
            }
        }
        // Partial-output integrity: the table on disk is always a valid
        // snapshot of the circuits graded so far.
        write_bench(
            params.mode,
            &table,
            &phase_table,
            &failures,
            failures.is_empty() && completed == circuits.len(),
        );
    }
    println!("{}", table.render());
    println!("proposed framework per-phase breakdown (seconds):");
    println!("{}", phase_table.render());
    if completed > 0 {
        let n = completed as f64;
        println!(
            "averages (min): random {:.1}, RL {:.1}, proposed {:.3}",
            avg.0 / n,
            avg.1 / n,
            avg.2 / n
        );
    }
    for (circuit, error) in &failures {
        println!("FAILED {circuit}: {error}");
    }

    let bench_path = write_bench(
        params.mode,
        &table,
        &phase_table,
        &failures,
        failures.is_empty() && completed == circuits.len(),
    );
    if failures.is_empty() {
        // A finished campaign consumes its checkpoints so the next
        // invocation measures from scratch; failures keep theirs absent
        // anyway (only successes checkpoint), so a re-run retries them.
        campaign.clear(&circuits);
    }
    println!(
        "wrote {} and results/report_<circuit>.json",
        bench_path.display()
    );

    println!("\nShape check (paper Table III): proposed ≪ RL ≪ random with");
    println!("orders-of-magnitude gaps, and far larger q for the proposed");
    println!("framework (paper: avg 53 736 / 1 406 / 1.42 min; 37 816x, 989x).");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::speedup;

    #[test]
    fn speedup_keeps_slowdowns_visible() {
        assert_eq!(speedup(0.254), "0.25x");
        assert_eq!(speedup(4.0), "4.00x");
        assert_eq!(speedup(5778.3), "5778x");
    }
}
