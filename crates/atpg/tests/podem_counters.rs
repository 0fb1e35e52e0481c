//! PODEM's observability counters are process-global, so the exact
//! per-call count is checked here, in a test binary of its own: no
//! concurrently running test can add to the counter in between.

use htforge_atpg::{Fault, Podem, PodemConfig};
use htforge_netlist::bench;

const C17: &str = "\
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[test]
fn generate_records_search_counters() {
    let before = htforge_obs::counter("podem.faults").get();
    let nl = bench::parse(C17, "c17").unwrap();
    let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
    let g16 = nl.find("16").unwrap();
    assert!(podem.generate(Fault::stuck_at(g16, false)).is_test());
    assert_eq!(htforge_obs::counter("podem.faults").get(), before + 1);
    // Every fault evaluates at least one node per PI assignment.
    assert!(htforge_obs::counter("podem.implications").get() > 0);
}
