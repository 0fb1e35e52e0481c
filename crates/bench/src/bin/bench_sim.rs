//! Simulation-kernel throughput baseline: writes `BENCH_sim.json` at the
//! repository root.
//!
//! Sections:
//!
//! * **Large batch** — for each circuit, patterns/second of the
//!   reference gate-at-a-time interpreter ([`htforge_bench::scalar`])
//!   and of the compiled [`SimProgram`] kernel over 16 384 random
//!   patterns.
//! * **Small batch** — one 64-pattern (1-word) run per circuit, the
//!   regime of MERO refinement and cube checks.
//! * **MERO refinement** — `generate_tests` (compile per call) vs
//!   `generate_tests_with_sim` (one shared compiled tape) end to end on
//!   c2670.
//!
//! Every row records `host_threads` so numbers from different hosts are
//! machine-distinguishable. When `HTFORGE_OBS` is set, a run report goes
//! to `results/report_bench_sim.json` after the timed section — its
//! `sim.*` counters and gauges come from one final 1-word c5315 run,
//! not from the timings (the recorder stays off while the clock is
//! running).
//!
//! Run with `cargo run --release -p htforge-bench --bin bench_sim`
//! (`--quick` trims repetitions for CI).

use std::fmt::Write as _;
use std::time::Instant;

use htforge_obs::{Json, RunReport};
use htforge_sim::{PatternSet, SimProgram};

const VECTORS: usize = 16_384;
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// Median seconds per run over `runs` timed repetitions (after one
/// untimed warm-up).
fn time_median<F: FnMut() -> usize>(runs: usize, mut f: F) -> f64 {
    let _ = f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            let sink = f();
            let dt = t.elapsed().as_secs_f64();
            assert!(sink > 0);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut rows = Vec::new();

    // ---- Large batch: scalar vs compiled ----------------------------
    for name in ["c2670", "c5315", "c6288", "s13207"] {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = nl.scan_cut();
        let prog = SimProgram::compile(&comb).expect("combinational");
        let patterns = PatternSet::random(comb.inputs().len(), VECTORS, 9);

        let runs = match (quick, comb.gate_count() > 5_000) {
            (true, _) => 3,
            (false, true) => 5,
            (false, false) => 9,
        };
        let scalar = time_median(runs, || {
            htforge_bench::scalar::simulate(&comb, &patterns).len()
        });
        let compiled = time_median(runs, || prog.run(&patterns).len());

        let pps = |sec: f64| VECTORS as f64 / sec;
        eprintln!(
            "{name}: {} gates | scalar {:.2e} pat/s | compiled {:.2e} ({:.2}x)",
            comb.gate_count(),
            pps(scalar),
            pps(compiled),
            scalar / compiled,
        );

        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\n      \"bench\": \"large_batch\",\n      \"circuit\": \"{name}\",\n      \"gates\": {},\n      \"patterns\": {VECTORS},\n      \"host_threads\": {host_threads},\n      \"patterns_per_sec\": {{\n        \"scalar\": {:.1},\n        \"compiled\": {:.1}\n      }},\n      \"speedup_vs_scalar\": {:.2}\n    }}",
            comb.gate_count(),
            pps(scalar),
            pps(compiled),
            scalar / compiled,
        );
        rows.push(row);
    }

    // ---- Small batch: one 64-pattern word ---------------------------
    for name in ["c2670", "c5315"] {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let prog = SimProgram::compile(&nl).expect("combinational");
        let len = 64usize;
        let patterns = PatternSet::random(nl.inputs().len(), len, 7);
        let runs = if quick { 5 } else { 25 };
        let sec = time_median(runs, || prog.run(&patterns).len());
        eprintln!("{name}/{len}p: {:.2e} pat/s", len as f64 / sec);
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\n      \"bench\": \"small_batch\",\n      \"circuit\": \"{name}\",\n      \"gates\": {},\n      \"patterns\": {len},\n      \"host_threads\": {host_threads},\n      \"patterns_per_sec\": {:.1}\n    }}",
            nl.gate_count(),
            len as f64 / sec,
        );
        rows.push(row);
    }

    // ---- MERO refinement: shared compiled tape vs per-call compile -
    // `generate_tests` pays a fresh levelization + tape build per call,
    // `generate_tests_with_sim` reuses one compiled program across the
    // whole campaign.
    {
        use htforge_detect::{DetectionScheme, MeroDetection};
        use htforge_sim::{RareNodeExtractor, Simulator};

        let nl = htforge_circuits::load("c2670").expect("known circuit");
        let profile = PatternSet::random(nl.inputs().len(), 2_000, 1);
        let rare = RareNodeExtractor::new(0.25)
            .extract(&nl, &profile)
            .expect("profile");
        let mero = MeroDetection::new(2, if quick { 100 } else { 200 }, 42);
        let runs = if quick { 3 } else { 7 };
        let per_call = time_median(runs, || mero.generate_tests(&nl, &rare).unwrap().len());
        let sim = Simulator::new(&nl).expect("compiles");
        let shared = time_median(runs, || {
            mero.generate_tests_with_sim(&nl, &sim, &rare)
                .unwrap()
                .len()
        });
        eprintln!(
            "mero refinement c2670: per-call compile {:.3}s | shared tape {:.3}s ({:.2}x)",
            per_call,
            shared,
            per_call / shared,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "    {{\n      \"bench\": \"mero_refinement\",\n      \"circuit\": \"c2670\",\n      \"rare_events\": {},\n      \"host_threads\": {host_threads},\n      \"seconds\": {{\n        \"per_call_compile\": {per_call:.4},\n        \"shared_tape\": {shared:.4}\n      }},\n      \"speedup_shared_tape\": {:.2}\n    }}",
            rare.len(),
            per_call / shared,
        );
        rows.push(row);
    }

    let json = format!(
        "{{\n  \"bench\": \"simulation-kernel\",\n  \"command\": \"cargo run --release -p htforge-bench --bin bench_sim\",\n  \"host_threads\": {host_threads},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(OUT_PATH, &json).expect("write BENCH_sim.json");
    eprintln!("wrote {OUT_PATH}");

    // ---- Run report (recorder enabled only after the timings) ------
    let _obs = htforge_obs::init_from_env();
    if htforge_obs::enabled() {
        let nl = htforge_circuits::load("c5315").expect("known circuit");
        let prog = SimProgram::compile(&nl).expect("combinational");
        let patterns = PatternSet::random(nl.inputs().len(), 64, 11);
        let _ = prog.run(&patterns);
        let report = RunReport::from_recorder("bench_sim", htforge_obs::global())
            .with_meta("host_threads", Json::Num(host_threads as f64));
        let path = std::path::Path::new("results/report_bench_sim.json");
        report.write_to(path).expect("write run report");
        eprintln!("wrote {}", path.display());
    }
}
