//! Integration tests for the paper's central claim (§III-C): pairwise
//! cube compatibility is enough — the merged cube of any clique drives
//! *every* member to its rare value with **no validation step**.

use htforge::atpg::PodemConfig;
use htforge::core::{clique, CompatGraph};
use htforge::sim::tri::justifies;
use htforge::sim::{PatternSet, RareNodeExtractor};

fn graph_for(circuit: &str) -> (htforge::netlist::Netlist, CompatGraph) {
    let nl = htforge::circuits::load(circuit).expect("known circuit");
    let comb = nl.scan_cut();
    let patterns = PatternSet::random(comb.inputs().len(), 4_000, 0xC1A);
    let rare = RareNodeExtractor::new(0.20)
        .extract(&comb, &patterns)
        .expect("valid netlist");
    let graph = CompatGraph::build(&comb, &rare, PodemConfig::justify()).expect("combinational");
    (comb, graph)
}

#[test]
fn every_vertex_cube_justifies_its_event_on_c2670() {
    let (nl, graph) = graph_for("c2670");
    assert!(graph.len() > 100, "c2670 should have a rich graph");
    for event in graph.events() {
        assert!(
            justifies(&nl, event.cube.bits(), event.node, event.rare_value).unwrap(),
            "cube fails for {}",
            nl.node(event.node).name()
        );
    }
}

#[test]
fn merged_clique_cubes_need_no_validation() {
    // The headline theorem: for every enumerated clique, the merged cube
    // simultaneously justifies all members — checked by independent
    // 3-valued simulation on two circuits.
    for circuit in ["c2670", "s1423"] {
        let (nl, graph) = graph_for(circuit);
        let q = clique::max_feasible_size(&graph, 16, 3).max(2);
        let cliques = clique::enumerate_cliques(&graph, q, 50, 3);
        assert!(!cliques.is_empty(), "{circuit} must yield cliques");
        for c in &cliques {
            for &m in &c.members {
                let e = &graph.events()[m];
                assert!(
                    justifies(&nl, c.activation_cube.bits(), e.node, e.rare_value).unwrap(),
                    "{circuit}: merged cube fails to justify {}={}",
                    nl.node(e.node).name(),
                    e.rare_value
                );
            }
        }
    }
}

#[test]
fn incompatible_pairs_really_conflict() {
    let (_, graph) = graph_for("c2670");
    let mut checked = 0;
    'outer: for i in 0..graph.len() {
        for j in i + 1..graph.len() {
            if !graph.compatible(i, j) {
                let a = &graph.events()[i].cube;
                let b = &graph.events()[j].cube;
                assert!(a.merge(b).is_none(), "incompatible pair must not merge");
                checked += 1;
                if checked >= 100 {
                    break 'outer;
                }
            }
        }
    }
    assert!(checked > 0, "expected at least some incompatible pairs");
}

#[test]
fn clique_counts_scale_with_requested_limit() {
    let (_, graph) = graph_for("c2670");
    let q = clique::max_feasible_size(&graph, 12, 0).max(2);
    let few = clique::enumerate_cliques(&graph, q, 10, 0).len();
    let many = clique::enumerate_cliques(&graph, q, 1_000, 0).len();
    assert!(few <= 10);
    assert!(many >= few);
}

#[test]
fn c6288_multiplier_has_sparse_rare_profile() {
    // The real multiplier stands in for c6288; like the original, its
    // near-uniform internal probabilities yield a comparatively thin
    // rare-node population (the reason c6288 is the hardest host in the
    // paper's tables).
    let nl = htforge::circuits::load("c6288").unwrap();
    let patterns = PatternSet::random(nl.inputs().len(), 4_000, 1);
    let rare = RareNodeExtractor::new(0.05)
        .extract(&nl, &patterns)
        .unwrap();
    let fraction = rare.len() as f64 / nl.node_count() as f64;
    assert!(
        fraction < 0.02,
        "multiplier rare fraction {fraction:.3} at θ=5% should be tiny"
    );
}
