//! **Table II** — detection analysis of trojan benchmarks generated by
//! the four insertion families under three detection schemes.
//!
//! The paper applies Random, MERO and ND-ATPG test sets to 800 random-HT,
//! 400 RL-HT, 560 Trust-Hub and 8 000 proposed-HT netlists, reporting
//! Trigger Coverage and Detection Coverage per circuit. The headline:
//! the proposed large-q trojans evade all three schemes (~0 % TC/DC)
//! while random small-q trojans are partially covered and the RL family
//! (tiny q = 5) is highly covered.
//!
//! Default mode uses fewer instances/circuits; `--full` scales up.
//!
//! The campaign is resilient (see `DESIGN.md` §9): each circuit runs
//! with panic isolation and writes a checkpoint
//! (`results/ckpt_table2_<circuit>.json`), `BENCH_table2.json` is
//! rewritten atomically after every circuit, and a killed run resumes
//! from its checkpoints (`--fresh` recomputes).
//!
//! Artifacts (see `DESIGN.md` §8): one
//! `results/report_<circuit>_detection.json` run report per circuit
//! (campaign spans plus `detect.*` grading counters), and
//! `BENCH_table2.json` at the repo root holding the coverage table as
//! JSON.
//!
//! ```sh
//! cargo run --release -p htforge-bench --bin table2_detection [--full]
//! HTFORGE_OBS=summary,progress cargo run ... # live counters + exit summary
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use htforge_atpg::PodemConfig;
use htforge_baselines::{RandomInserter, RlConfig, RlInserter, TrustHubInserter};
use htforge_bench::campaign::{row_strings, str_row, Campaign, CircuitOutcome};
use htforge_bench::{HarnessOpts, Table};
use htforge_core::{clique, CompatGraph, InfectedDesign, InsertionConfig, InsertionFramework};
use htforge_detect::{
    CoverageEvaluator, DetectionScheme, MeroDetection, NdAtpgDetection, RandomDetection,
};
use htforge_netlist::Netlist;
use htforge_obs::{write_atomic, Json, RunReport};
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet};

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

struct Family {
    name: &'static str,
    designs: Vec<InfectedDesign>,
}

fn generate_families(
    nl: &Netlist,
    comb: &Netlist,
    rare: &RareNodeSet,
    instances: usize,
    vectors: usize,
) -> Result<Vec<Family>, String> {
    let mut families = Vec::new();

    // Proposed: large q — the biggest clique the graph supports.
    let graph =
        CompatGraph::build(comb, rare, PodemConfig::justify()).map_err(|e| e.to_string())?;
    let q_prop = clique::max_feasible_size(&graph, 32, 1).max(2);
    let proposed = InsertionFramework::new(InsertionConfig {
        theta: 0.20,
        num_vectors: vectors,
        trigger_nodes: q_prop,
        num_instances: instances,
        seed: 2,
        ..InsertionConfig::default()
    })
    .run(nl)
    .map(|o| o.infected)
    .unwrap_or_default();
    families.push(Family {
        name: "Proposed",
        designs: proposed,
    });

    let q_small = 4.min(rare.len()).max(2);
    let random = RandomInserter::new(q_small, instances)
        .with_theta(0.20)
        .with_profile_vectors(vectors)
        .run(nl, 3)
        .map(|o| o.infected)
        .unwrap_or_default();
    families.push(Family {
        name: "Random-HT",
        designs: random,
    });

    let rl = RlInserter::new(RlConfig {
        trigger_nodes: q_small,
        num_instances: instances,
        episodes: 20 * instances,
        theta: 0.20,
        profile_vectors: vectors,
        ..RlConfig::default()
    })
    .run(nl, 4)
    .map(|o| o.infected)
    .unwrap_or_default();
    families.push(Family {
        name: "RL-HT",
        designs: rl,
    });

    let th = TrustHubInserter::new(q_small.min(7), instances)
        .with_theta(0.20)
        .with_profile_vectors(vectors)
        .run(nl, 5)
        .map(|o| o.infected)
        .unwrap_or_default();
    families.push(Family {
        name: "TrustHub",
        designs: th,
    });

    Ok(families)
}

struct Params {
    mode: &'static str,
    instances: usize,
    vectors: usize,
    random_tests: usize,
    mero_n: usize,
    ndatpg_n: usize,
}

/// Coverage of every family under every scheme on one circuit; the
/// payload carries the table rows and aggregate contributions so a
/// resumed run can rebuild both.
fn run_circuit(name: &str, p: &Params) -> Result<Json, String> {
    htforge_obs::global().reset();
    let nl = htforge_circuits::load(name).map_err(|e| e.to_string())?;
    // One scan-cut, compiled golden model grades every family.
    let evaluator = CoverageEvaluator::new(&nl).map_err(|e| e.to_string())?;
    let comb = evaluator.golden();
    let profile = PatternSet::random(comb.inputs().len(), p.vectors, 0x7AB2);
    let rare = RareNodeExtractor::new(0.20)
        .extract(comb, &profile)
        .map_err(|e| e.to_string())?;

    let families = generate_families(&nl, comb, &rare, p.instances, p.vectors)?;
    let schemes: Vec<Box<dyn DetectionScheme>> = vec![
        Box::new(RandomDetection::new(p.random_tests, 11)),
        Box::new(MeroDetection::new(p.mero_n, p.random_tests / 4, 12)),
        Box::new(NdAtpgDetection::new(p.ndatpg_n, 13)),
    ];
    let mut rows = Vec::new();
    let mut agg = Vec::new();
    for scheme in &schemes {
        let tests = scheme
            .generate_tests(comb, &rare)
            .map_err(|e| e.to_string())?;
        for family in &families {
            if family.designs.is_empty() {
                continue;
            }
            let report = evaluator
                .evaluate(&family.designs, &tests)
                .map_err(|e| e.to_string())?;
            agg.push(Json::obj(vec![
                ("family", Json::Str(family.name.to_owned())),
                ("scheme", Json::Str(scheme.name().to_owned())),
                ("triggered", Json::Num(report.triggered() as f64)),
                ("detected", Json::Num(report.detected() as f64)),
                ("total", Json::Num(report.total() as f64)),
            ]));
            rows.push(str_row(&[
                name.to_owned(),
                family.name.to_owned(),
                report.total().to_string(),
                scheme.name().to_owned(),
                report.triggered().to_string(),
                report.detected().to_string(),
                format!("{:.1}", report.trigger_coverage()),
                format!("{:.1}", report.detection_coverage()),
            ]));
        }
    }
    let mut report = RunReport::from_recorder(&format!("table2_{name}"), htforge_obs::global())
        .with_meta("circuit", Json::Str(name.to_owned()))
        .with_meta("mode", Json::Str(p.mode.to_owned()))
        .with_meta("instances_per_family", Json::Num(p.instances as f64));
    // One span per kernel call (about 20 000 per circuit, mostly MERO's
    // climbs) would bury the campaign spans; `sim.kernel_words` and the
    // phase spans still account for the kernel's work.
    report.spans.retain(|s| s.name != "sim.kernel_run");
    let path = PathBuf::from(REPO_ROOT).join(format!("results/report_{name}_detection.json"));
    report
        .write_to(&path)
        .map_err(|e| format!("write run report: {e}"))?;
    Ok(Json::obj(vec![
        ("rows", Json::Arr(rows)),
        ("agg", Json::Arr(agg)),
    ]))
}

type AggMap = BTreeMap<(String, String), (usize, usize, usize)>;

/// Rewrites `BENCH_table2.json` atomically from the rows so far.
fn write_bench(
    mode: &str,
    instances: usize,
    table: &Table,
    agg: &AggMap,
    failures: &[(String, String)],
    complete: bool,
) -> PathBuf {
    let doc = Json::obj(vec![
        ("table", Json::Str("table2_detection".to_owned())),
        ("mode", Json::Str(mode.to_owned())),
        ("complete", Json::Bool(complete)),
        ("instances_per_family", Json::Num(instances as f64)),
        ("rows", table.to_json()),
        (
            "aggregate",
            Json::Arr(
                agg.iter()
                    .map(|((family, scheme), (tc, dc, total))| {
                        Json::obj(vec![
                            ("family", Json::Str(family.clone())),
                            ("scheme", Json::Str(scheme.clone())),
                            ("triggered", Json::Num(*tc as f64)),
                            ("detected", Json::Num(*dc as f64)),
                            ("total", Json::Num(*total as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
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
    let bench_path = PathBuf::from(REPO_ROOT).join("BENCH_table2.json");
    if let Err(e) = write_atomic(&bench_path, &doc.pretty()) {
        eprintln!("warning: could not write {}: {e}", bench_path.display());
    }
    bench_path
}

fn main() {
    let _obs = htforge_obs::init_from_env();
    htforge_obs::global().enable();
    let opts = HarnessOpts::from_env();
    let circuits = opts.circuits_or(&["c2670", "c3540", "c5315", "c7552"]);
    let params = Params {
        mode: if opts.full { "full" } else { "scaled" },
        instances: if opts.full { 50 } else { 8 },
        vectors: if opts.full { 10_000 } else { 4_000 },
        random_tests: if opts.full { 100_000 } else { 20_000 },
        mero_n: if opts.full { 1_000 } else { 200 },
        ndatpg_n: if opts.full { 5 } else { 3 },
    };

    println!(
        "Table II: detection analysis ({} instances/family/circuit)\n",
        params.instances
    );
    let mut table = Table::new(vec![
        "circuit", "family", "n", "scheme", "TC", "DC", "TC %", "DC %",
    ]);

    // (family, scheme) → (triggered, detected, total) accumulated.
    let mut agg: AggMap = BTreeMap::new();

    let campaign = Campaign::new(
        "table2",
        PathBuf::from(REPO_ROOT).join("results"),
        opts.fresh,
    );
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut completed = 0usize;
    for name in &circuits {
        match campaign.run_circuit(name, || run_circuit(name, &params)) {
            CircuitOutcome::Done { payload, resumed } => {
                if resumed {
                    println!("{name}: resumed from checkpoint");
                }
                for row in payload
                    .get("rows")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                {
                    table.row(row_strings(row));
                }
                for a in payload
                    .get("agg")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                {
                    let family = a.get("family").and_then(Json::as_str).unwrap_or("?");
                    let scheme = a.get("scheme").and_then(Json::as_str).unwrap_or("?");
                    let num = |k| a.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
                    let entry = agg
                        .entry((family.to_owned(), scheme.to_owned()))
                        .or_insert((0, 0, 0));
                    entry.0 += num("triggered");
                    entry.1 += num("detected");
                    entry.2 += num("total");
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
            params.instances,
            &table,
            &agg,
            &failures,
            failures.is_empty() && completed == circuits.len(),
        );
    }
    println!("{}", table.render());

    println!("aggregate coverage per family and scheme:");
    for ((family, scheme), (tc, dc, total)) in &agg {
        println!(
            "  {family:>10} vs {scheme:>8}: TC {:>5.1}%  DC {:>5.1}%  ({total} netlists)",
            100.0 * *tc as f64 / (*total).max(1) as f64,
            100.0 * *dc as f64 / (*total).max(1) as f64,
        );
    }
    for (circuit, error) in &failures {
        println!("FAILED {circuit}: {error}");
    }
    let bench_path = write_bench(
        params.mode,
        params.instances,
        &table,
        &agg,
        &failures,
        failures.is_empty() && completed == circuits.len(),
    );
    if failures.is_empty() {
        campaign.clear(&circuits);
    }
    println!(
        "wrote {} and results/report_<circuit>_detection.json",
        bench_path.display()
    );

    println!("\nShape check (paper Table II): the proposed family's large-q");
    println!("trojans evade all three schemes (≈0% coverage), while the small-q");
    println!("baseline families are partially-to-highly covered.");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
