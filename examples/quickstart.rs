//! Quickstart: insert one stealthy hardware trojan into an ISCAS circuit
//! and write the infected netlist next to the golden one.
//!
//! ```sh
//! cargo run --release --example quickstart [circuit] [q] [n]
//! # e.g.
//! cargo run --release --example quickstart c2670 12 3
//! HTFORGE_OBS=jsonl cargo run --release --example quickstart  # span stream
//! ```
//!
//! Always writes a `results/report_<circuit>.json` run report (schema
//! `htforge.run_report/v1`, see `DESIGN.md` §8) with the per-phase spans
//! and PODEM search counters of the run.

use std::error::Error;
use std::fs;

use htforge::core::{InsertionConfig, InsertionFramework};
use htforge::netlist::{bench, verilog, AreaModel, AreaReport};
use htforge::obs::{Json, RunReport};

fn main() -> Result<(), Box<dyn Error>> {
    let _obs = htforge::obs::init_from_env();
    htforge::obs::global().enable();
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "c2670".to_owned());
    let q: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(8);
    let n: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(2);

    println!("loading {circuit} …");
    let golden = htforge::circuits::load(&circuit)?;
    println!("  {golden}");

    let config = InsertionConfig {
        theta: 0.20,
        num_vectors: 10_000,
        trigger_nodes: q,
        num_instances: n,
        seed: 2025,
        ..InsertionConfig::default()
    };
    println!(
        "running compatibility-graph insertion (θ = {}, |V| = {}, q = {q}, N = {n}) …",
        config.theta, config.num_vectors
    );
    let outcome = InsertionFramework::new(config).run(&golden)?;

    println!(
        "rare nodes: {} (of {} total nodes)",
        outcome.rare_nodes.len(),
        golden.node_count()
    );
    println!(
        "compatibility graph: {} vertices, {} edges ({} rare events dropped)",
        outcome.graph_stats.vertices, outcome.graph_stats.edges, outcome.graph_stats.dropped
    );
    println!(
        "phase timings: rare {:?}, compat {:?}, cliques {:?}, insertion {:?}, validation {:?} (total {:?})",
        outcome.timings.rare_extraction,
        outcome.timings.compat_graph,
        outcome.timings.clique_enumeration,
        outcome.timings.insertion,
        outcome.timings.validation,
        outcome.timings.total(),
    );

    let out_dir = std::path::Path::new("target/htforge-out");
    fs::create_dir_all(out_dir)?;
    let model = AreaModel::nangate45();
    for (i, design) in outcome.infected.iter().enumerate() {
        let report = AreaReport::compare(&model, &golden, &design.netlist);
        println!(
            "instance {i}: q = {}, trigger gates = {}, payload = {}, area overhead = {:.2}%",
            design.trojan.trigger_node_count(),
            design.trojan.trigger_gates.len(),
            design.netlist.node(design.trojan.payload_net).name(),
            report.overhead_percent(),
        );
        let bench_path = out_dir.join(format!("{circuit}_ht{i}.bench"));
        fs::write(&bench_path, bench::write(&design.netlist))?;
        let verilog_path = out_dir.join(format!("{circuit}_ht{i}.v"));
        fs::write(&verilog_path, verilog::write(&design.netlist))?;
        println!(
            "  wrote {} and {}",
            bench_path.display(),
            verilog_path.display()
        );
    }

    let report = RunReport::from_recorder(&format!("quickstart_{circuit}"), htforge::obs::global())
        .with_meta("circuit", Json::Str(circuit.clone()))
        .with_meta("trigger_nodes", Json::Num(q as f64))
        .with_meta("instances", Json::Num(n as f64));
    let report_path = std::path::PathBuf::from(format!("results/report_{circuit}.json"));
    report.write_to(&report_path)?;
    println!("wrote run report {}", report_path.display());
    Ok(())
}
