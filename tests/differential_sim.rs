//! Differential tests for the compiled simulation kernel.
//!
//! [`SimProgram`] must be bit-identical to a gate-at-a-time scalar
//! reference evaluator — directly and through the [`Simulator`] wrapper
//! — on real circuits (c17, c2670, c5315, a 16×16 array multiplier) and
//! on a population of random synthetic DAGs, including pattern counts
//! that are not multiples of 64 (tail-masking paths). The same batch,
//! cut into slices that each get their own run (down to one pattern per
//! run), must give the same bits as one run over all of it.

use htforge_circuits::multiplier::multiplier;
use htforge_circuits::synth::{generate, CircuitProfile};
use htforge_netlist::{Netlist, NodeKind};
use htforge_sim::{PatternSet, SimProgram, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gate-at-a-time scalar oracle: evaluates every node over every pattern
/// with `GateKind::eval_bool`, one bool at a time. Non-scan DFF outputs
/// are constant 0, matching the kernel's reset-state convention.
fn scalar_reference(nl: &Netlist, patterns: &PatternSet) -> Vec<Vec<bool>> {
    let order = htforge_netlist::graph::topo_order(nl).expect("acyclic");
    let mut values = vec![vec![false; patterns.len()]; nl.node_count()];
    for (pos, &id) in nl.inputs().iter().enumerate() {
        for (p, v) in values[id.index()].iter_mut().enumerate() {
            *v = patterns.get(pos, p);
        }
    }
    let mut fanin_vals = Vec::new();
    for &id in &order {
        let node = nl.node(id);
        let NodeKind::Gate(kind) = node.kind() else {
            continue;
        };
        let mut out = vec![false; patterns.len()];
        for (p, o) in out.iter_mut().enumerate() {
            fanin_vals.clear();
            fanin_vals.extend(node.fanins().iter().map(|f| values[f.index()][p]));
            *o = kind.eval_bool(&fanin_vals);
        }
        values[id.index()] = out;
    }
    values
}

/// Asserts kernel output equals the scalar oracle for every node and
/// pattern, directly and via the `Simulator` wrapper.
fn assert_differential(nl: &Netlist, patterns: &PatternSet, label: &str) {
    let expected = scalar_reference(nl, patterns);
    let prog = SimProgram::compile(nl).expect("compiles");
    let runs = [
        ("kernel", prog.run(patterns)),
        (
            "Simulator wrapper",
            Simulator::new(nl).unwrap().run_on(nl, patterns),
        ),
    ];
    for (mode, vals) in &runs {
        assert_eq!(vals.len(), patterns.len(), "{label} [{mode}]: length");
        for id in nl.node_ids() {
            for (p, &exp) in expected[id.index()].iter().enumerate() {
                assert_eq!(
                    vals.value(id, p),
                    exp,
                    "{label} [{mode}]: node {} pattern {p}",
                    nl.node(id).name()
                );
            }
            // Tail bits must be zero so popcounts are exact.
            let ones: u64 = vals
                .words(id)
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum();
            let expected_ones = expected[id.index()].iter().filter(|&&b| b).count() as u64;
            assert_eq!(
                ones,
                expected_ones,
                "{label} [{mode}]: popcount of {}",
                nl.node(id).name()
            );
        }
    }
}

/// Asserts that simulating `patterns` in slices of `chunk` patterns,
/// each slice its own `run`, gives pattern for pattern what the scalar
/// oracle gives, for every chunk size in `chunks`. A chunk as long as the
/// batch is one run over everything. The kernel evaluates columns
/// independently, so packing many vectors into one run (the compat cube
/// check) and running one vector at a time (`validate_functional`) must
/// agree; an unmasked tail or a word that leaks into its neighbour shows
/// up here as a flipped bit or a wrong popcount.
fn assert_slicings_agree(nl: &Netlist, patterns: &PatternSet, chunks: &[usize], label: &str) {
    let expected = scalar_reference(nl, patterns);
    let prog = SimProgram::compile(nl).expect("compiles");
    for &chunk in chunks {
        for start in (0..patterns.len()).step_by(chunk) {
            let end = (start + chunk).min(patterns.len());
            let vectors: Vec<Vec<bool>> = (start..end).map(|p| patterns.pattern(p)).collect();
            let slice = PatternSet::from_vectors(patterns.num_inputs(), &vectors);
            let vals = prog.run(&slice);
            let mode = format!("chunk {chunk} @ {start}");
            assert_eq!(vals.len(), end - start, "{label} [{mode}]: length");
            for id in nl.node_ids() {
                let col = vals.words(id);
                assert_eq!(
                    col.len(),
                    PatternSet::words_for(end - start),
                    "{label} [{mode}]: column width"
                );
                let want = &expected[id.index()][start..end];
                for (p, &exp) in want.iter().enumerate() {
                    assert_eq!(
                        vals.value(id, p),
                        exp,
                        "{label} [{mode}]: node {} pattern {}",
                        nl.node(id).name(),
                        start + p
                    );
                }
                let ones: u64 = col.iter().map(|w| u64::from(w.count_ones())).sum();
                let expected_ones = want.iter().filter(|&&b| b).count() as u64;
                assert_eq!(
                    ones,
                    expected_ones,
                    "{label} [{mode}]: popcount of {}",
                    nl.node(id).name()
                );
            }
        }
    }
}

#[test]
fn c17_strategy_equivalence() {
    let nl = htforge_circuits::iscas::c17();
    // 32 is exhaustive; 63/65 exercise the tail-mask and multi-word
    // paths. Whole batch, one pattern per run, and an uneven 7-pattern
    // split must agree.
    for len in [32usize, 63, 65] {
        let ps = PatternSet::random(nl.inputs().len(), len, 0x517 + len as u64);
        assert_slicings_agree(&nl, &ps, &[len, 1, 7], &format!("c17/{len}"));
    }
}

#[test]
fn multiplier_strategy_equivalence() {
    let nl = multiplier("mul16", 16);
    let ps = PatternSet::random(nl.inputs().len(), 100, 0x5016);
    assert_slicings_agree(&nl, &ps, &[100, 1, 7], "mul16/100");
}

#[test]
fn c2670_c5315_strategy_equivalence() {
    for name in ["c2670", "c5315"] {
        let nl = htforge_circuits::load(name).expect("built-in circuit");
        // 63 patterns = one partial word; 100 = two words with a tail.
        for len in [63usize, 100] {
            let ps = PatternSet::random(nl.inputs().len(), len, 0x5000 + len as u64);
            assert_slicings_agree(&nl, &ps, &[len, 1, 7], &format!("{name}/{len}"));
        }
    }
}

#[test]
fn synthetic_dags_strategy_equivalence() {
    // 25 random DAG shapes spanning flat and deep level structures;
    // every 5th is sequential (non-scan DFFs read as constant 0 however
    // the batch is sliced).
    let mut rng = StdRng::seed_from_u64(0x51E7);
    for i in 0..25u64 {
        let outputs = rng.gen_range(1..5usize);
        let profile = CircuitProfile {
            name: format!("lev{i}"),
            inputs: rng.gen_range(3..20usize),
            outputs,
            gates: rng.gen_range(2 * outputs..180),
            dffs: if i % 5 == 0 {
                rng.gen_range(1..6usize)
            } else {
                0
            },
            seed: 0xACE ^ (i * 0x9E37_79B9),
        };
        let nl = generate(&profile);
        let len = [1usize, 63, 64, 65, 130][i as usize % 5];
        let ps = PatternSet::random(nl.inputs().len(), len, i + 0x51);
        assert_slicings_agree(&nl, &ps, &[len, 1, 7], &format!("{}/{len}", profile.name));
    }
}

#[test]
fn c17_wide_lane_equivalence() {
    let nl = htforge_circuits::iscas::c17();
    // 63/65/830 cover the single-word, word+tail and many-word regimes
    // (830 = 13 words with a tail). Slices of 64, 65 and 320 patterns
    // shift where word boundaries fall.
    for len in [63usize, 65, 830] {
        let ps = PatternSet::random(nl.inputs().len(), len, 0x1A17 + len as u64);
        assert_slicings_agree(&nl, &ps, &[len, 64, 65, 320], &format!("c17/{len}"));
    }
}

#[test]
fn multiplier_wide_lane_equivalence() {
    let nl = multiplier("mul16", 16);
    let ps = PatternSet::random(nl.inputs().len(), 321, 0x1A16);
    assert_slicings_agree(&nl, &ps, &[321, 64, 65, 320], "mul16/321");
}

#[test]
fn c2670_c5315_wide_lane_equivalence() {
    for name in ["c2670", "c5315"] {
        let nl = htforge_circuits::load(name).expect("built-in circuit");
        // 1030 patterns = 17 words per node, the last one partial.
        let ps = PatternSet::random(nl.inputs().len(), 1030, 0x1A00);
        assert_slicings_agree(&nl, &ps, &[1030, 64, 65, 320], &format!("{name}/1030"));
    }
}

#[test]
fn synthetic_dags_wide_lane_equivalence() {
    // Random DAG shapes, including sequential ones (non-scan DFF rows
    // must stay constant 0 in every slice).
    let mut rng = StdRng::seed_from_u64(0x1A5E);
    for i in 0..8u64 {
        let outputs = rng.gen_range(1..5usize);
        let profile = CircuitProfile {
            name: format!("lane{i}"),
            inputs: rng.gen_range(3..20usize),
            outputs,
            gates: rng.gen_range(2 * outputs..180),
            dffs: if i % 4 == 0 {
                rng.gen_range(1..6usize)
            } else {
                0
            },
            seed: 0x1A0E ^ (i * 0x9E37_79B9),
        };
        let nl = generate(&profile);
        let len = [65usize, 130, 321, 512][i as usize % 4];
        let ps = PatternSet::random(nl.inputs().len(), len, i + 0x1A);
        assert_slicings_agree(
            &nl,
            &ps,
            &[len, 64, 65, 320],
            &format!("{}/{len}", profile.name),
        );
    }
}

#[test]
fn c17_differential_all_pattern_counts() {
    let nl = htforge_circuits::iscas::c17();
    // 32 is exhaustive; 1, 63, 65, 100 exercise the tail-mask paths.
    for len in [1usize, 32, 63, 64, 65, 100, 128, 200] {
        let ps = PatternSet::random(nl.inputs().len(), len, 0xC17 + len as u64);
        assert_differential(&nl, &ps, &format!("c17/{len}"));
    }
}

#[test]
fn multiplier_16x16_differential() {
    let nl = multiplier("mul16", 16);
    for len in [100usize, 192, 257] {
        let ps = PatternSet::random(nl.inputs().len(), len, 0x16 * len as u64 + 1);
        assert_differential(&nl, &ps, &format!("mul16/{len}"));
    }
}

#[test]
fn multiplier_kernel_computes_products() {
    // Semantic spot-check on top of the differential one: feed concrete
    // operands and read the product off the output bits.
    let nl = multiplier("mul16", 16);
    let mut rng = StdRng::seed_from_u64(77);
    let cases: Vec<(u64, u64)> = (0..40)
        .map(|_| (rng.gen_range(0..0x10000u64), rng.gen_range(0..0x10000u64)))
        .collect();
    let mut ps = PatternSet::zeros(nl.inputs().len(), cases.len());
    for (p, &(a, b)) in cases.iter().enumerate() {
        for i in 0..16 {
            ps.set(i, p, (a >> i) & 1 == 1);
            ps.set(16 + i, p, (b >> i) & 1 == 1);
        }
    }
    let vals = SimProgram::compile(&nl).unwrap().run(&ps);
    for (p, &(a, b)) in cases.iter().enumerate() {
        let mut product = 0u64;
        for i in 0..32 {
            let o = nl.find(&format!("p{i}")).expect("output bit");
            if vals.value(o, p) {
                product |= 1 << i;
            }
        }
        assert_eq!(product, a * b, "{a} * {b}");
    }
}

#[test]
fn synthetic_dags_differential() {
    // 50 random DAG shapes; pattern counts cycle through word-aligned
    // and tail cases. Every 5th profile is sequential (non-scan DFFs
    // must read as constant 0).
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for i in 0..50u64 {
        let outputs = rng.gen_range(1..6usize);
        let profile = CircuitProfile {
            name: format!("synth{i}"),
            inputs: rng.gen_range(3..24usize),
            outputs,
            gates: rng.gen_range(2 * outputs..220),
            dffs: if i % 5 == 0 {
                rng.gen_range(1..8usize)
            } else {
                0
            },
            seed: 0xBEEF ^ (i * 0x9E37_79B9),
        };
        let nl = generate(&profile);
        let len = [1usize, 50, 63, 64, 65, 127, 128, 130, 192, 321][i as usize % 10];
        let ps = PatternSet::random(nl.inputs().len(), len, i + 1);
        assert_differential(&nl, &ps, &format!("{}/{len}", profile.name));
    }
}
