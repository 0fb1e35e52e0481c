//! Property wall for the interned / SoA netlist core.
//!
//! Two guarantees the refactor must not bend:
//!
//! * **Round trip.** Any generated netlist of prefixed block copies,
//!   trojaned (trigger AND over two primary inputs, XOR payload
//!   spliced over a victim gate), written to `.bench` text and
//!   re-parsed, is name-isomorphic to the in-memory netlist: same node
//!   set, same kinds, same fan-in lists, same output markings, same
//!   levelization. Node ids and `Atom` handles are allowed to differ —
//!   they are storage details, not semantics.
//! * **Interned-vs-string differential.** On the real ISCAS circuits
//!   (c17, c2670, c5315) a re-parse — including one from a shuffled
//!   declaration order, which permutes every `NodeId` and `Atom`
//!   assignment — yields byte-identical levelization and SCOAP
//!   (CC0/CC1/CO) values keyed by signal name.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use htforge::netlist::{bench, GateKind, Netlist, NodeKind};
use htforge::scoap::Scoap;

/// Name-keyed structural fingerprint: kind, fan-in names (in order),
/// and the primary-output flag. Two netlists with equal signatures are
/// isomorphic under the identity renaming, whatever their id layout.
fn signature(nl: &Netlist) -> BTreeMap<String, (String, Vec<String>, bool)> {
    nl.node_ids()
        .map(|id| {
            let fanins = nl
                .fanins(id)
                .iter()
                .map(|&f| nl.name_of(f).to_owned())
                .collect();
            (
                nl.name_of(id).to_owned(),
                (format!("{:?}", nl.kind(id)), fanins, nl.is_output(id)),
            )
        })
        .collect()
}

fn levels_by_name(nl: &Netlist) -> BTreeMap<String, u32> {
    let levels = nl.levels().unwrap();
    nl.node_ids()
        .map(|id| (nl.name_of(id).to_owned(), levels[id.index()]))
        .collect()
}

fn scoap_by_name(nl: &Netlist) -> BTreeMap<String, (u32, u32, u32)> {
    let s = Scoap::compute(nl).unwrap();
    nl.node_ids()
        .map(|id| (nl.name_of(id).to_owned(), (s.cc0(id), s.cc1(id), s.co(id))))
        .collect()
}

const KINDS: [GateKind; 7] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
];

/// One generated leaf gate: kind selector plus two fan-in seeds.
type GateSeed = (u8, u16, u16);

/// Builds `ntiles` copies of one generated block over `nin` primary
/// inputs, rotated by the copy index, with gate names prefixed `u{t}/`
/// and each copy's last gate a primary output.
fn build_flat(nin: usize, gates: &[GateSeed], ntiles: usize) -> Netlist {
    let mut nl = Netlist::new("top");
    let pis: Vec<_> = (0..nin).map(|i| nl.add_input(format!("p{i}"))).collect();
    for t in 0..ntiles {
        let mut sigs: Vec<_> = (0..nin).map(|j| pis[(j + t) % nin]).collect();
        for (g, &(kind_sel, s1, s2)) in gates.iter().enumerate() {
            let kind = KINDS[kind_sel as usize % KINDS.len()];
            let a_ix = s1 as usize % sigs.len();
            // Second fan-in is forced distinct from the first; duplicated
            // fan-ins are legal but make the fan-out bookkeeping a less
            // interesting test subject than two real edges.
            let b_ix = (a_ix + 1 + s2 as usize % (sigs.len() - 1)) % sigs.len();
            let fanins = if kind == GateKind::Not {
                vec![sigs[a_ix]]
            } else {
                vec![sigs[a_ix], sigs[b_ix]]
            };
            sigs.push(nl.add_gate(format!("u{t}/g{g}"), kind, fanins).unwrap());
        }
        nl.mark_output(*sigs.last().unwrap());
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// build → insert trojan → write → re-parse → isomorphic.
    #[test]
    fn round_trip_survives_trojan_insertion(
        nin in 2usize..5,
        gates in proptest::collection::vec((0u8..7, any::<u16>(), any::<u16>()), 1..10),
        ntiles in 1usize..4,
        t_seed in any::<u16>(),
        v_seed in any::<u16>(),
    ) {
        let mut nl = build_flat(nin, &gates, ntiles);
        prop_assert_eq!(nl.gate_count(), gates.len() * ntiles);
        prop_assert_eq!(nl.inputs().len(), nin);

        // Trigger taps are primary inputs (never downstream of the
        // victim, so the splice cannot close a combinational loop);
        // the victim is any gate.
        let x = nl.inputs()[t_seed as usize % nin];
        let y = nl.inputs()[(t_seed as usize + 1) % nin];
        let victims: Vec<_> = nl
            .node_ids()
            .filter(|&id| matches!(nl.kind(id), NodeKind::Gate(_)))
            .collect();
        let victim = victims[v_seed as usize % victims.len()];
        let trigger = nl.add_gate("htf_trigger", GateKind::And, vec![x, y]).unwrap();
        let payload = nl
            .add_gate("htf_payload", GateKind::Xor, vec![victim, trigger])
            .unwrap();
        nl.splice_driver(victim, payload);
        nl.validate().unwrap();

        let text = bench::write(&nl);
        let reparsed = bench::parse(&text, nl.name()).unwrap();
        reparsed.validate().unwrap();
        prop_assert_eq!(signature(&reparsed), signature(&nl));
        prop_assert_eq!(levels_by_name(&reparsed), levels_by_name(&nl));
    }
}

/// The interned core must be a pure storage change: re-parsing a
/// circuit — in declaration order or a shuffled order that permutes
/// every `NodeId` and `Atom` — produces identical levelization and
/// SCOAP values per signal name.
#[test]
fn interned_core_matches_string_semantics_on_iscas_circuits() {
    for name in ["c17", "c2670", "c5315"] {
        let nl = htforge::circuits::load(name).unwrap();
        let text = bench::write(&nl);
        let base_sig = signature(&nl);
        let base_levels = levels_by_name(&nl);
        let base_scoap = scoap_by_name(&nl);

        let mut lines: Vec<&str> = text.lines().collect();
        let mut rng = StdRng::seed_from_u64(0x5EED_1DEA);
        lines.shuffle(&mut rng);
        let shuffled_text = lines.join("\n");

        for (tag, source) in [("reparse", &text), ("shuffle", &shuffled_text)] {
            let other = bench::parse(source, name).unwrap_or_else(|e| panic!("{name}/{tag}: {e}"));
            assert_eq!(signature(&other), base_sig, "{name}/{tag}: structure");
            assert_eq!(levels_by_name(&other), base_levels, "{name}/{tag}: levels");
            assert_eq!(scoap_by_name(&other), base_scoap, "{name}/{tag}: scoap");
        }
    }
}
