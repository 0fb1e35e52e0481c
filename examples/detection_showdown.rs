//! Detection showdown: grade trojans from all four insertion families
//! against all three detection schemes — a miniature of the paper's
//! Table II.
//!
//! ```sh
//! cargo run --release --example detection_showdown [circuit]
//! ```

use std::error::Error;

use htforge::baselines::{RandomInserter, RlConfig, RlInserter, TrustHubInserter};
use htforge::core::{InfectedDesign, InsertionConfig, InsertionFramework};
use htforge::detect::{
    evaluate_designs, DetectionScheme, MeroDetection, NdAtpgDetection, RandomDetection,
};
use htforge::sim::{PatternSet, RareNodeExtractor};

fn main() -> Result<(), Box<dyn Error>> {
    let circuit = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "c2670".to_owned());
    let golden = htforge::circuits::load(&circuit)?;
    println!("host: {golden}");
    let comb = golden.scan_cut();

    // --- generate trojans with each family -----------------------------
    let instances = 10;
    let mut families: Vec<(&str, Vec<InfectedDesign>)> = Vec::new();

    let proposed = InsertionFramework::new(InsertionConfig {
        theta: 0.20,
        num_vectors: 10_000,
        trigger_nodes: 16,
        num_instances: instances,
        seed: 1,
        ..InsertionConfig::default()
    })
    .run(&golden)?;
    println!(
        "proposed framework: {} instances in {:?}",
        proposed.infected.len(),
        proposed.timings.total()
    );
    families.push(("Proposed", proposed.infected));

    let random = RandomInserter::new(4, instances).run(&golden, 2)?;
    println!(
        "random insertion:   {} instances in {:?} ({} rejected)",
        random.infected.len(),
        random.elapsed,
        random.rejected
    );
    families.push(("Random-HT", random.infected));

    let rl = RlInserter::new(RlConfig {
        trigger_nodes: 4,
        num_instances: instances,
        episodes: 60,
        ..RlConfig::default()
    })
    .run(&golden, 3)?;
    println!(
        "RL insertion:       {} instances in {:?} ({} failed episodes)",
        rl.infected.len(),
        rl.elapsed,
        rl.rejected
    );
    families.push(("RL-HT", rl.infected));

    let th = TrustHubInserter::new(4, instances).run(&golden, 4)?;
    println!(
        "trust-hub style:    {} instances in {:?}",
        th.infected.len(),
        th.elapsed
    );
    families.push(("TrustHub", th.infected));

    // --- detection schemes ---------------------------------------------
    let profile = PatternSet::random(comb.inputs().len(), 10_000, 99);
    let rare = RareNodeExtractor::new(0.20).extract(&comb, &profile)?;
    let schemes: Vec<Box<dyn DetectionScheme>> = vec![
        Box::new(RandomDetection::new(10_000, 5)),
        Box::new(MeroDetection::new(1_000, 2_500, 6)),
        Box::new(NdAtpgDetection::new(5, 7)),
    ];

    println!(
        "\n{:>10} {:>9} {:>8} {:>8}",
        "family", "scheme", "TC %", "DC %"
    );
    for (name, designs) in &families {
        if designs.is_empty() {
            println!("{name:>10}  (no instances generated)");
            continue;
        }
        for scheme in &schemes {
            let tests = scheme.generate_tests(&comb, &rare)?;
            let report = evaluate_designs(&golden, designs, &tests)?;
            println!(
                "{:>10} {:>9} {:>7.1} {:>7.1}",
                name,
                scheme.name(),
                report.trigger_coverage(),
                report.detection_coverage(),
            );
        }
    }
    println!("\nExpected shape (paper Table II): the proposed family evades all");
    println!("three schemes while small-q baselines are partially covered.");
    Ok(())
}
