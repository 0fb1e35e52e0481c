//! `htforge-perfbench` — the repository benchmark.
//!
//! ```text
//! htforge-perfbench --workload insert|detect|serve --seed N --seconds S --trace 0|1
//!                   [--out DIR] [--commit SHA] [--source-digest HEX]
//! htforge-perfbench --smoke [--out DIR]
//! ```
//!
//! Each run builds its inputs from `--seed`, measures the workload for
//! about `--seconds`, checks every output it timed, and prints as its
//! last stdout line `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer ones. `--smoke` runs all three
//! workloads, traced, on c17 in a few seconds. See `README.md`.

mod detect;
mod insert;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use htforge_obs::Json;

use metrics::{Metric, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Settings every workload receives.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input of the run derives from it.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny c17-only inputs (the self-test mode).
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub process_start: Instant,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that errored, panicked, failed an output check or a replay
    /// check, or (for `serve`) were rejected, timed out or cancelled.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One line per failure, printed to stderr.
    pub errors: Vec<String>,
    /// The trace, written to `out` when the run ends.
    pub tracer: Tracer,
}

impl Outcome {
    /// An outcome with no ops yet.
    pub fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Records one attempted op and whether it passed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }
}

/// SplitMix64 finaliser: derives independent seeds from the workload
/// seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(stream.wrapping_add(1))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (VmHWM), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers (`available_parallelism`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Passes a run makes over its op list: enough passes of `nominal_s`
/// (one pass's time on the reference host) to fill `seconds`, and at
/// least `min`. The count depends on the arguments alone, so every
/// commit does the same work for the same arguments and percentile
/// ranks fall on the same ops.
pub fn pass_count(seconds: Duration, nominal_s: f64, min: usize) -> usize {
    ((seconds.as_secs_f64() / nominal_s).ceil() as usize).max(min)
}

/// Set-up time: the median of several set-ups, the first timed from
/// process start. Returns the metric and the last set-up's state.
pub fn timed_setups<T>(
    cfg: &RunConfig,
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Metric, T), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for rep in 0..repeats {
        // Drop the previous state first so each set-up starts alike.
        drop(last.take());
        let start = if rep == 0 {
            cfg.process_start
        } else {
            Instant::now()
        };
        last = Some(setup(rep)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let metric = Metric::new("setup_s", stats::median(&times))
        .with("setups", Json::Num(repeats as f64))
        .with(
            "samples_s",
            Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
        );
    Ok((metric, last.expect("at least one set-up")))
}

/// The latency metrics of a closed loop: `ops_per_s`, `op_p50_s` and
/// `op_tail_s` from `(op label, seconds)` samples over `wall` timed
/// seconds. The median per label is kept beside `op_p50_s`.
pub fn latency_metrics(samples: &[(&str, f64)], wall: f64) -> Vec<Metric> {
    let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let mut labels: Vec<&str> = samples.iter().map(|s| s.0).collect();
    labels.sort_unstable();
    labels.dedup();
    let per_label = labels
        .iter()
        .map(|&l| {
            let v: Vec<f64> = samples.iter().filter(|s| s.0 == l).map(|s| s.1).collect();
            (l.to_owned(), Json::Num(stats::median(&v)))
        })
        .collect();
    let tail = stats::tail(&latencies);
    vec![
        Metric::ratio("ops_per_s", latencies.len() as f64, wall),
        Metric::new("op_p50_s", stats::median(&latencies))
            .with("samples", Json::Num(latencies.len() as f64))
            .with("p50_s_by_op", Json::Obj(per_label))
            .with(
                "deciles_s",
                Json::Arr(
                    (1..10)
                        .map(|d| Json::Num(stats::nearest_rank(&latencies, 10.0 * f64::from(d))))
                        .collect(),
                ),
            ),
        Metric::new("op_tail_s", tail.value)
            .with("percentile", Json::Num(tail.percentile))
            .with("samples", Json::Num(tail.samples as f64)),
    ]
}

/// `obs.trace_overhead_pct`: traced vs untraced median op latency.
pub fn trace_overhead(untraced: &[f64], traced: &[f64]) -> Metric {
    let base = stats::median(untraced);
    let with = stats::median(traced);
    Metric::new("obs.trace_overhead_pct", 100.0 * (with - base) / base)
        .with("untraced_op_p50_s", Json::Num(base))
        .with("traced_op_p50_s", Json::Num(with))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    commit: Option<String>,
    source_digest: Option<String>,
    raw: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_build/perfbench-runs"),
        commit: None,
        source_digest: None,
        raw: raw.clone(),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--commit" => args.commit = Some(value),
            "--source-digest" => args.source_digest = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "insert" => insert::run(cfg),
        "detect" => detect::run(cfg),
        "serve" => serve::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (insert, detect, serve)"
        )),
    }
}

/// Prints the human-readable table, the detailed report line and the
/// contract line (last). Returns whether the run was correct.
fn report(name: &str, cfg: &RunConfig, args: &Args, outcome: &Outcome) -> bool {
    let catalogue: Vec<&'static str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let metrics = metrics::complete(&catalogue, outcome.metrics.clone());
    let failed_frac = Metric::ratio(
        "failed_frac",
        outcome.failed as f64,
        outcome.attempted as f64,
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    for e in &outcome.errors {
        eprintln!("perfbench: {name}: {e}");
    }

    println!(
        "{name} (seed {}, {} s, trace {}): {} ops, {} failed",
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in &metrics {
        let unit = metrics::unit_of(m.name).expect("catalogued metric");
        println!("  {:<32} {:>16.6} {unit}", m.name, m.value);
    }
    println!("  {:<32} {:>16.6} ratio", "failed_frac", failed_frac.value);

    let meta = Json::obj(vec![
        ("workload", Json::Str(name.to_owned())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds.as_secs() as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "args",
            Json::Arr(args.raw.iter().map(|a| Json::Str(a.clone())).collect()),
        ),
        ("commit", args.commit.clone().map_or(Json::Null, Json::Str)),
        (
            "source_digest",
            args.source_digest.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("host_threads", Json::Num(host_threads() as f64)),
    ]);
    let mut detailed = metrics.clone();
    detailed.push(failed_frac);
    let self_times = outcome
        .tracer
        .self_times()
        .into_iter()
        .map(|(k, v)| (k.to_owned(), Json::Num(v)))
        .collect();
    let full = Json::obj(vec![
        ("schema", Json::Str("htforge.perfbench_run/v1".into())),
        ("meta", meta),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics::metric_map(&detailed, true)),
        ("span_self_s", Json::Obj(self_times)),
    ]);
    println!("{}", full.compact());
    let contract = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics::metric_map(&metrics, false)),
    ]);
    println!("{}", contract.compact());
    correct
}

fn write_trace(cfg: &RunConfig, name: &str, tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    let path = cfg.out.join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
    let written = std::fs::create_dir_all(&cfg.out).and_then(|()| tracer.write(&path));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs(if args.smoke { 1 } else { args.seconds }),
        trace: args.trace || args.smoke,
        smoke: args.smoke,
        out: args.out.clone(),
        process_start,
    };
    let workloads: Vec<String> = if args.smoke {
        ["insert", "detect", "serve"].map(String::from).to_vec()
    } else {
        match &args.workload {
            Some(w) => vec![w.clone()],
            None => {
                eprintln!("perfbench: --workload insert|detect|serve (or --smoke) is required");
                return ExitCode::from(2);
            }
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for name in &workloads {
        let outcome = match run_workload(name, &cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        write_trace(&cfg, name, &outcome.tracer);
        all_correct &= report(name, &cfg, &args, &outcome);
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    if args.smoke {
        let line = Json::obj(vec![
            ("correct", Json::Bool(all_correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(Vec::new())),
        ]);
        println!("{}", line.compact());
        if !all_correct {
            return ExitCode::from(1);
        }
    }
    // A printed result line carries the verdict in `correct`; a non-zero
    // exit is kept for runs that could not produce one.
    ExitCode::SUCCESS
}
