//! `htforge` — command-line front end to the toolkit.
//!
//! ```text
//! htforge stats  <netlist>                      structural statistics
//! htforge rare   <netlist> [--theta F] [--vectors N]
//! htforge insert <netlist> [--q N] [--n N] [--theta F] [--vectors N]
//!                [--payload flip|force0|force1] [--combined] [--out DIR]
//! htforge grade  <netlist> [--scheme random|mero|ndatpg] [--n N]
//! htforge detect <golden> --infected FILE[,FILE…]
//!                [--scheme random|mero|ndatpg] [--n N]
//! ```
//!
//! `<netlist>` is a `.bench` or `.v` file, or the name of a built-in
//! benchmark circuit (`c17`, `c2670`, …).

use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use htforge::atpg::{all_faults, fault_simulate};
use htforge::core::{InsertionConfig, InsertionFramework, PayloadKind};
use htforge::detect::{DetectionScheme, MeroDetection, NdAtpgDetection, RandomDetection};
use htforge::netlist::{bench, verilog, AreaModel, Netlist};
use htforge::obs::{CancelToken, RunBudget};
use htforge::sim::{PatternSet, RareNodeExtractor, SimProgram};

const USAGE: &str = "\
usage: htforge <command> [options]

commands:
  stats  <netlist>                      structural statistics
  rare   <netlist> [--theta F] [--vectors N]
  insert <netlist> [--q N] [--n N] [--theta F] [--vectors N]
                   [--payload flip|force0|force1] [--combined] [--out DIR]
                   [--deadline SECS]
  grade  <netlist> [--scheme random|mero|ndatpg] [--n N]
  detect <golden> --infected FILE[,FILE...]
                  [--scheme random|mero|ndatpg] [--n N]

<netlist> is a .bench or .v file, or a built-in circuit name (c17, c2670,
c3540, c5315, c6288, s1423, s13207, s15850, s35932).

--deadline bounds the insert pipeline's wall clock; when it expires the
run returns whatever it finished (printing the degradations) instead of
hanging (see DESIGN.md §9).
";

struct Options {
    flags: Vec<(String, Option<String>)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next_if(|v| !v.starts_with("--")).map(ToOwned::to_owned);
                flags.push((name.to_owned(), value));
            } else {
                return Err(format!("unexpected positional argument `{arg}`"));
            }
        }
        Ok(Options { flags })
    }

    /// Rejects flags outside `allowed` — each subcommand validates its
    /// own vocabulary so a typo is a diagnostic, not silence.
    fn ensure_known(&self, allowed: &[&str]) -> Result<(), String> {
        for (name, _) in &self.flags {
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag `--{name}` (supported: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value for --{name}: {e}")),
        }
    }
}

/// `--theta`, checked here so an out-of-range value is a usage error
/// rather than the rare-node extractor's precondition panic.
fn theta(opts: &Options) -> Result<f64, String> {
    let theta: f64 = opts.number("theta", 0.20)?;
    if (0.0..=1.0).contains(&theta) {
        Ok(theta)
    } else {
        Err(format!("--theta must be in [0, 1], got {theta}"))
    }
}

fn load_netlist(spec: &str) -> Result<Netlist, Box<dyn Error>> {
    let path = Path::new(spec);
    if path.exists() {
        let source = fs::read_to_string(path)?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("design")
            .to_owned();
        let nl = match path.extension().and_then(|e| e.to_str()) {
            Some("v") | Some("sv") => verilog::parse(&source, &stem)?,
            _ => bench::parse(&source, &stem)?,
        };
        Ok(nl)
    } else {
        Ok(htforge::circuits::load(spec)?)
    }
}

fn cmd_stats(spec: &str) -> Result<(), Box<dyn Error>> {
    let nl = load_netlist(spec)?;
    let stats = bench::stats(&nl);
    println!("{nl}");
    println!("  nodes: {}", stats.nodes);
    println!("  depth: {}", htforge::netlist::graph::depth(&nl)?);
    let hist = htforge::netlist::graph::gate_histogram(&nl);
    let mut mix = String::new();
    for (kind, count) in htforge::netlist::GateKind::ALL.iter().zip(hist) {
        if count > 0 {
            let _ = write!(mix, "{kind}:{count} ");
        }
    }
    println!("  gate mix: {mix}");
    println!(
        "  cell area (Nangate-45nm model): {:.1} µm²",
        AreaModel::nangate45().netlist_area(&nl)
    );
    Ok(())
}

fn cmd_rare(spec: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let theta = theta(opts)?;
    let vectors: usize = opts.number("vectors", 10_000)?;
    let nl = load_netlist(spec)?;
    let comb = nl.scan_cut();
    let patterns = PatternSet::random(comb.inputs().len(), vectors, 1);
    let rare = RareNodeExtractor::new(theta).extract(&comb, &patterns)?;
    println!(
        "{}: {} rare nodes of {} (θ = {theta}, |V| = {vectors})",
        nl.name(),
        rare.len(),
        comb.node_count()
    );
    let mut sorted: Vec<_> = rare.iter().collect();
    sorted.sort_by_key(|r| r.count);
    for r in sorted.iter().take(20) {
        println!(
            "  {} = {}  (p ≈ {:.4})",
            comb.node(r.node).name(),
            u8::from(r.rare_value),
            r.probability(rare.samples())
        );
    }
    if sorted.len() > 20 {
        println!("  … and {} more", sorted.len() - 20);
    }
    Ok(())
}

fn cmd_insert(spec: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let q: usize = opts.number("q", 8)?;
    if q == 0 {
        return Err("--q must be at least 1".into());
    }
    let n: usize = opts.number("n", 1)?;
    let theta = theta(opts)?;
    let vectors: usize = opts.number("vectors", 10_000)?;
    let out_dir: PathBuf = opts.get("out").unwrap_or("htforge-out").into();
    let payload_kind = match opts.get("payload").unwrap_or("flip") {
        "flip" => PayloadKind::Flip,
        "force0" => PayloadKind::ForceZero,
        "force1" => PayloadKind::ForceOne,
        other => return Err(format!("unknown payload kind `{other}`").into()),
    };
    let budget = match opts.get("deadline") {
        None => RunBudget::unlimited(),
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|e| format!("invalid value for --deadline: {e}"))?;
            // Both conversions can overflow: a huge float has no
            // `Duration`, a huge `Duration` no `Instant`.
            let deadline = Duration::try_from_secs_f64(secs)
                .ok()
                .and_then(|limit| Instant::now().checked_add(limit))
                .ok_or("--deadline must be a non-negative number of seconds within range")?;
            RunBudget::new(Some(deadline), CancelToken::new())
        }
    };

    let nl = load_netlist(spec)?;
    let framework = InsertionFramework::new(InsertionConfig {
        theta,
        num_vectors: vectors,
        trigger_nodes: q,
        num_instances: n,
        payload_kind,
        ..InsertionConfig::default()
    });

    fs::create_dir_all(&out_dir)?;
    if opts.has("combined") {
        let (combined, instances, degradations) =
            framework.run_combined_with_budget(&nl, &budget)?;
        for note in &degradations {
            println!("degraded {note}");
        }
        let path = out_dir.join(format!("{}_multi.bench", nl.name()));
        fs::write(&path, bench::write(&combined))?;
        println!(
            "wrote {} ({} trojans, {} added gates)",
            path.display(),
            instances.len(),
            combined.node_count() - nl.node_count()
        );
    } else {
        let outcome = framework.run_with_budget(&nl, &budget)?;
        for note in &outcome.degradations {
            println!("degraded {note}");
        }
        println!(
            "rare: {}, graph: {}v/{}e, time: {:?}",
            outcome.rare_nodes.len(),
            outcome.graph_stats.vertices,
            outcome.graph_stats.edges,
            outcome.timings.total()
        );
        for (i, design) in outcome.infected.iter().enumerate() {
            let path = out_dir.join(format!("{}_ht{i}.bench", nl.name()));
            fs::write(&path, bench::write(&design.netlist))?;
            println!(
                "wrote {} (q = {}, payload = {})",
                path.display(),
                design.trojan.trigger_node_count(),
                design.netlist.node(design.trojan.payload_net).name()
            );
        }
    }
    Ok(())
}

fn cmd_grade(spec: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    let n: usize = opts.number("n", 5)?;
    let nl = load_netlist(spec)?;
    let comb = nl.scan_cut();
    // One compiled golden model profiles and grades.
    let prog = SimProgram::compile(&comb)?;
    let patterns = PatternSet::random(comb.inputs().len(), 10_000, 1);
    let (rare, _) = RareNodeExtractor::new(0.20).extract_budgeted(
        &prog,
        &comb,
        &patterns,
        &RunBudget::unlimited(),
    );

    let scheme: Box<dyn DetectionScheme> = match opts.get("scheme").unwrap_or("random") {
        "random" => Box::new(RandomDetection::new(10_000, 7)),
        "mero" => Box::new(MeroDetection::new(n, 2_500, 7)),
        "ndatpg" => Box::new(NdAtpgDetection::new(n, 7)),
        other => return Err(format!("unknown scheme `{other}`").into()),
    };
    let tests = scheme.generate_tests(&comb, &rare)?;
    let faults = all_faults(&comb);
    let report = fault_simulate(&prog, &comb, &faults, &tests);
    println!(
        "{}: {} tests from {} → stuck-at coverage {:.1}% ({}/{})",
        scheme.name(),
        tests.len(),
        nl.name(),
        report.coverage(),
        report.detected(),
        report.total()
    );
    Ok(())
}

fn cmd_detect(spec: &str, opts: &Options) -> Result<(), Box<dyn Error>> {
    use htforge::core::insert::TrojanInstance;
    use htforge::detect::CoverageEvaluator;

    let infected_list = opts
        .get("infected")
        .ok_or("detect requires --infected FILE[,FILE...]")?;
    let n: usize = opts.number("n", 5)?;
    let golden = load_netlist(spec)?;
    // One scan-cut and one compiled golden model grade every scheme.
    let evaluator = CoverageEvaluator::new(&golden)?;
    let comb = evaluator.golden();
    let patterns = PatternSet::random(comb.inputs().len(), 10_000, 1);
    let rare = RareNodeExtractor::new(0.20).extract(comb, &patterns)?;

    // Reconstruct minimal trojan metadata from the netlists: every
    // htforge-inserted payload gate is named `ht…_payload`; its trigger
    // output is the non-victim fan-in (last fan-in by construction).
    let mut designs = Vec::new();
    for path in infected_list.split(',') {
        let nl = load_netlist(path.trim())?;
        let payload_gates: Vec<_> = nl
            .iter()
            .filter(|(_, node)| node.name().starts_with("ht") && node.name().ends_with("_payload"))
            .map(|(id, _)| id)
            .collect();
        if payload_gates.is_empty() {
            return Err(format!(
                "{path}: no `ht*_payload` gate found — not an htforge-infected netlist"
            )
            .into());
        }
        for &pg in &payload_gates {
            let fanins = nl.node(pg).fanins();
            let [victim, .., trigger_output] = *fanins else {
                return Err(format!(
                    "{path}: payload gate `{}` has {} fan-in(s), expected victim + trigger",
                    nl.node(pg).name(),
                    fanins.len()
                )
                .into());
            };
            designs.push(htforge::core::InfectedDesign {
                netlist: nl.clone(),
                trojan: TrojanInstance {
                    trigger_inputs: Vec::new(),
                    trigger_gates: Vec::new(),
                    trigger_output,
                    payload_net: victim,
                    payload_kind: htforge::core::PayloadKind::Flip,
                    payload_gate: pg,
                    activation_cube: htforge::atpg::Cube::all_x(comb.inputs().len()),
                },
            });
        }
    }

    let schemes: Vec<Box<dyn DetectionScheme>> = match opts.get("scheme") {
        Some("random") => vec![Box::new(RandomDetection::new(10_000, 7))],
        Some("mero") => vec![Box::new(MeroDetection::new(n, 2_500, 7))],
        Some("ndatpg") => vec![Box::new(NdAtpgDetection::new(n, 7))],
        Some(other) => return Err(format!("unknown scheme `{other}`").into()),
        None => vec![
            Box::new(RandomDetection::new(10_000, 7)),
            Box::new(MeroDetection::new(n, 2_500, 7)),
            Box::new(NdAtpgDetection::new(n, 7)),
        ],
    };
    println!(
        "{} trojan instance(s) across the given netlists",
        designs.len()
    );
    for scheme in &schemes {
        let tests = scheme.generate_tests(comb, &rare)?;
        let report = evaluator.evaluate(&designs, &tests)?;
        println!(
            "{:>8}: {} tests, TC {}/{} ({:.1}%), DC {}/{} ({:.1}%)",
            scheme.name(),
            tests.len(),
            report.triggered(),
            report.total(),
            report.trigger_coverage(),
            report.detected(),
            report.total(),
            report.detection_coverage(),
        );
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return Err("missing command".into());
        }
    };
    let (spec, flag_args) = match rest.split_first() {
        Some((s, flags)) if !s.starts_with("--") => (s.as_str(), flags),
        _ => {
            eprint!("{USAGE}");
            return Err("missing netlist argument".into());
        }
    };
    let opts = Options::parse(flag_args)?;
    match command {
        "stats" => {
            opts.ensure_known(&[])?;
            cmd_stats(spec)
        }
        "rare" => {
            opts.ensure_known(&["theta", "vectors"])?;
            cmd_rare(spec, &opts)
        }
        "insert" => {
            opts.ensure_known(&[
                "q", "n", "theta", "vectors", "payload", "combined", "out", "deadline",
            ])?;
            cmd_insert(spec, &opts)
        }
        "grade" => {
            opts.ensure_known(&["scheme", "n"])?;
            cmd_grade(spec, &opts)
        }
        "detect" => {
            opts.ensure_known(&["infected", "scheme", "n"])?;
            cmd_detect(spec, &opts)
        }
        other => {
            eprint!("{USAGE}");
            Err(format!("unknown command `{other}`").into())
        }
    }
}

fn main() -> ExitCode {
    // `HTFORGE_OBS=jsonl,summary` lights up the recorder for any
    // subcommand (DESIGN.md §8): one JSONL line per completed span, and
    // the summary table when the guard drops, after flushing sinks.
    let _obs = htforge::obs::init_from_env();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
