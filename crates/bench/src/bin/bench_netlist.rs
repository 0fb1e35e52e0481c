//! Netlist-core scaling benchmark: writes `BENCH_netlist.json` at the
//! repository root.
//!
//! For each size in {10k, 100k, 1M} gates this builds a synthetic
//! flat design (many parallel tiles, each a chain of combinational leaf
//! blocks), then walks the full industrial-scale pipeline:
//!
//! 1. **build** — the design is built gate by gate into one interned
//!    SoA [`Netlist`],
//! 2. **parse** — the flat design is written to a `.bench` file on
//!    disk, the in-memory netlist is dropped, and the file is re-read
//!    through the streaming [`bench::parse_reader`] path (source text
//!    and built graph are never resident together),
//! 3. **levelize** — one levelization of the parsed netlist (the
//!    parser's validation already ran and cached one, so **parse**
//!    includes a level pass too),
//! 4. **rare_extract** — rare-node extraction at θ=0.2 over random
//!    patterns (the insertion pipeline's profiling step).
//!
//! Every row records wall seconds per phase, `Netlist::memory_bytes`
//! (the core columns' resident footprint) and the process peak RSS
//! (`VmHWM` from `/proc/self/status`), so near-linear scaling and the
//! memory budget are machine-checkable. With `HTFORGE_RSS_LIMIT_MB`
//! set, the run fails if peak RSS exceeds the ceiling — the CI
//! netlist-scale job uses this as a hard memory-budget gate.
//!
//! Run with `cargo run --release -p htforge-bench --bin bench_netlist`
//! (`--quick` trims the profiling vector count for CI).

use std::fmt::Write as _;
use std::io::BufReader;
use std::time::Instant;

use htforge_netlist::{bench, graph, GateKind, Netlist, NodeId};
use htforge_sim::{PatternSet, RareNodeExtractor};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist.json");
const THETA: f64 = 0.2;

/// Peak resident set size (`VmHWM`) in KiB from `/proc/self/status`,
/// or 0 on platforms without procfs.
fn rss_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One size point of the generator: `leaf_gates * leaves_per_tile *
/// tiles` total gates.
struct Shape {
    leaf_gates: usize,
    leaves_per_tile: usize,
    tiles: usize,
}

impl Shape {
    fn gates(&self) -> usize {
        self.leaf_gates * self.leaves_per_tile * self.tiles
    }
}

/// Builds the synthetic flat design for `shape`.
///
/// A leaf block is `leaf_gates` gates over 4 inputs whose fan-ins
/// scatter over all earlier signals of the block (wide, shallow cones);
/// its last 4 gates are its outputs. Tile `t` chains `leaves_per_tile`
/// leaves named `u{t}/l{k}/`, the first fed by 4 of the 8 primary
/// inputs rotated by `t`, and its last leaf's outputs are primary
/// outputs. Depth stays constant across sizes; width carries the
/// scaling.
fn synth_netlist(shape: &Shape) -> Netlist {
    let mut nl = Netlist::new("top");
    let pis: Vec<NodeId> = (0..8).map(|i| nl.add_input(format!("p{i}"))).collect();
    for t in 0..shape.tiles {
        let mut feed: Vec<NodeId> = [0usize, 3, 5, 6]
            .iter()
            .map(|&r| pis[(t + r) % pis.len()])
            .collect();
        for k in 0..shape.leaves_per_tile {
            let mut sigs = feed;
            for g in 0..shape.leaf_gates {
                let kind = match g % 6 {
                    0 => GateKind::Nand,
                    1 => GateKind::Nor,
                    2 => GateKind::And,
                    3 => GateKind::Or,
                    4 => GateKind::Xor,
                    _ => GateKind::Not,
                };
                let a = sigs[(g * 7 + 3) % sigs.len()];
                let fanins = if kind == GateKind::Not {
                    vec![a]
                } else {
                    vec![a, sigs[(g * 13 + 1) % sigs.len()]]
                };
                let id = nl
                    .add_gate(format!("u{t}/l{k}/g{g}"), kind, fanins)
                    .expect("legal leaf gate");
                sigs.push(id);
            }
            feed = sigs.split_off(sigs.len() - 4);
        }
        for id in feed {
            nl.mark_output(id);
        }
    }
    nl
}

/// Build + write-to-disk + streaming re-parse + levelize + rare
/// extract for one size point; returns the JSON row.
fn run_size(shape: &Shape, vectors: usize) -> String {
    let gates = shape.gates();

    let t = Instant::now();
    let flat = synth_netlist(shape);
    let build_sec = t.elapsed().as_secs_f64();
    assert_eq!(flat.gate_count(), gates, "generator hit its gate target");

    // Write the flat design to disk, then drop every in-memory copy so
    // the streaming parse below never coexists with the source text.
    let path = std::env::temp_dir().join(format!("htforge_bench_netlist_{gates}.bench"));
    let text = bench::write(&flat);
    let bench_bytes = text.len();
    std::fs::write(&path, &text).expect("write temp .bench");
    drop(text);
    drop(flat);

    let t = Instant::now();
    let file = std::fs::File::open(&path).expect("reopen temp .bench");
    let parsed: Netlist =
        bench::parse_reader(BufReader::new(file), &format!("synth_{gates}g")).expect("round-trips");
    let parse_sec = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    assert_eq!(parsed.gate_count(), gates, "parse preserved the gates");

    // `parse_reader` validated the netlist, which cached its levels:
    // time a fresh pass, not a cache hit.
    let t = Instant::now();
    let levels = graph::levelize(&parsed).expect("acyclic");
    let depth = levels.iter().copied().max().unwrap_or(0) as u64 + 1;
    let levelize_sec = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let patterns = PatternSet::random(parsed.inputs().len(), vectors, 7);
    let rare = RareNodeExtractor::new(THETA)
        .extract(&parsed, &patterns)
        .expect("profiles");
    let rare_sec = t.elapsed().as_secs_f64();

    let memory_bytes = parsed.memory_bytes();
    let rss_kb = rss_peak_kb();
    eprintln!(
        "{gates} gates: build {build_sec:.3}s | parse {parse_sec:.3}s ({:.2e} gates/s) | levelize {levelize_sec:.3}s | rare {rare_sec:.3}s ({} rare) | {:.1} MB columns | peak RSS {} MB",
        gates as f64 / parse_sec,
        rare.len(),
        memory_bytes as f64 / 1e6,
        rss_kb / 1024,
    );

    let mut row = String::new();
    let _ = write!(
        row,
        "    {{\n      \"gates\": {gates},\n      \"nodes\": {},\n      \"levels\": {depth},\n      \"bench_bytes\": {bench_bytes},\n      \"memory_bytes\": {memory_bytes},\n      \"rss_peak_kb\": {rss_kb},\n      \"rare_nodes\": {},\n      \"profile_vectors\": {vectors},\n      \"gates_per_sec\": {{\n        \"parse\": {:.1},\n        \"levelize\": {:.1}\n      }},\n      \"seconds\": {{\n        \"build\": {build_sec:.4},\n        \"parse\": {parse_sec:.4},\n        \"levelize\": {levelize_sec:.4},\n        \"rare_extract\": {rare_sec:.4}\n      }}\n    }}",
        parsed.node_count(),
        rare.len(),
        gates as f64 / parse_sec,
        gates as f64 / levelize_sec,
    );
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let vectors = if quick { 64 } else { 256 };
    let shapes = [
        Shape {
            leaf_gates: 50,
            leaves_per_tile: 10,
            tiles: 20,
        },
        Shape {
            leaf_gates: 50,
            leaves_per_tile: 10,
            tiles: 200,
        },
        Shape {
            leaf_gates: 50,
            leaves_per_tile: 10,
            tiles: 2_000,
        },
    ];

    let rows: Vec<String> = shapes.iter().map(|s| run_size(s, vectors)).collect();
    let json = format!(
        "{{\n  \"schema\": \"htforge.netlist_scaling/v1\",\n  \"bench\": \"netlist-scaling\",\n  \"command\": \"cargo run --release -p htforge-bench --bin bench_netlist\",\n  \"theta\": {THETA},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    htforge_obs::validate_any_str(&json).expect("self-describing document validates");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_netlist.json");
    eprintln!("wrote {OUT_PATH}");

    if let Ok(limit_mb) = std::env::var("HTFORGE_RSS_LIMIT_MB") {
        let limit_mb: u64 = limit_mb.parse().expect("HTFORGE_RSS_LIMIT_MB is a number");
        let peak_mb = rss_peak_kb() / 1024;
        assert!(
            peak_mb <= limit_mb,
            "peak RSS {peak_mb} MB exceeds the {limit_mb} MB budget"
        );
        eprintln!("peak RSS {peak_mb} MB within the {limit_mb} MB budget");
    }
}
