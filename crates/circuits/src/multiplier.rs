//! Structural unsigned array multiplier — the c6288 substitute.
//!
//! ISCAS-85 c6288 is a 16×16 array multiplier; rather than approximating
//! it with random logic, we build a real carry-save array multiplier of
//! the same function. Its phenomenology matches the original where it
//! matters for the paper: deep carry chains, near-uniform internal signal
//! probabilities, and therefore very few rare nodes at low thresholds —
//! the reason Table III shows c6288 as the slowest insertion target.

use htforge_netlist::{GateKind, Netlist, NodeId};

/// A full adder built from 2-input gates: returns `(sum, carry)`.
fn full_adder(
    nl: &mut Netlist,
    tag: &str,
    x: NodeId,
    y: NodeId,
    z: Option<NodeId>,
) -> (NodeId, NodeId) {
    match z {
        None => {
            // Half adder.
            let sum = nl
                .add_gate(format!("{tag}_s"), GateKind::Xor, vec![x, y])
                .expect("fresh name");
            let carry = nl
                .add_gate(format!("{tag}_c"), GateKind::And, vec![x, y])
                .expect("fresh name");
            (sum, carry)
        }
        Some(z) => {
            let s1 = nl
                .add_gate(format!("{tag}_t"), GateKind::Xor, vec![x, y])
                .expect("fresh name");
            let sum = nl
                .add_gate(format!("{tag}_s"), GateKind::Xor, vec![s1, z])
                .expect("fresh name");
            let c1 = nl
                .add_gate(format!("{tag}_u"), GateKind::And, vec![x, y])
                .expect("fresh name");
            let c2 = nl
                .add_gate(format!("{tag}_v"), GateKind::And, vec![s1, z])
                .expect("fresh name");
            let carry = nl
                .add_gate(format!("{tag}_c"), GateKind::Or, vec![c1, c2])
                .expect("fresh name");
            (sum, carry)
        }
    }
}

/// Builds an unsigned `bits`×`bits` array multiplier named `name`.
///
/// Inputs are `a0..a{bits-1}` and `b0..b{bits-1}`; outputs are
/// `p0..p{2*bits-1}` with `p = a * b`.
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// # Examples
///
/// ```
/// let nl = htforge_circuits::multiplier::multiplier("mul4", 4);
/// assert_eq!(nl.inputs().len(), 8);
/// assert_eq!(nl.outputs().len(), 8);
/// ```
#[must_use]
pub fn multiplier(name: &str, bits: usize) -> Netlist {
    assert!(bits > 0, "multiplier width must be positive");
    let mut nl = Netlist::new(name);
    let a: Vec<NodeId> = (0..bits).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..bits).map(|i| nl.add_input(format!("b{i}"))).collect();

    // Partial products pp[i][j] = a[j] AND b[i]  (row i weights 2^i).
    let pp = |nl: &mut Netlist, i: usize, j: usize| -> NodeId {
        nl.add_gate(format!("pp_{i}_{j}"), GateKind::And, vec![a[j], b[i]])
            .expect("fresh name")
    };

    let mut product: Vec<NodeId> = Vec::with_capacity(2 * bits);

    // Row 0 initializes the accumulator.
    let mut acc: Vec<NodeId> = (0..bits).map(|j| pp(&mut nl, 0, j)).collect();
    product.push(acc[0]);
    let mut high: Option<NodeId> = None;

    for i in 1..bits {
        // Add row i to acc shifted right by one; the shifted-in top bit is
        // the previous row's carry-out (absent on the first addition).
        let mut new_acc: Vec<NodeId> = Vec::with_capacity(bits);
        let mut carry: Option<NodeId> = None;
        for j in 0..bits {
            let addend1: Option<NodeId> = if j + 1 < bits { Some(acc[j + 1]) } else { high };
            let addend2 = pp(&mut nl, i, j);
            let tag = format!("fa_{i}_{j}");
            let (sum, cout) = match (addend1, carry) {
                (Some(x), Some(c)) => {
                    let (s, co) = full_adder(&mut nl, &tag, x, addend2, Some(c));
                    (s, Some(co))
                }
                (Some(x), None) => {
                    let (s, co) = full_adder(&mut nl, &tag, x, addend2, None);
                    (s, Some(co))
                }
                (None, Some(c)) => {
                    let (s, co) = full_adder(&mut nl, &tag, addend2, c, None);
                    (s, Some(co))
                }
                (None, None) => (addend2, None),
            };
            new_acc.push(sum);
            carry = cout;
        }
        high = carry;
        acc = new_acc;
        product.push(acc[0]);
    }

    // Remaining high bits of the product.
    for &s in acc.iter().skip(1) {
        product.push(s);
    }
    if let Some(h) = high {
        product.push(h);
    } else {
        // bits == 1: p1 = 0 never occurs because high is None only when
        // no addition happened; emit a constant-0 via AND(a0, NOT a0).
        let na = nl
            .add_gate("const0_n", GateKind::Not, vec![a[0]])
            .expect("fresh name");
        let zero = nl
            .add_gate("const0", GateKind::And, vec![a[0], na])
            .expect("fresh name");
        product.push(zero);
    }

    // Name-stable product outputs.
    for (k, &p) in product.iter().enumerate() {
        let alias = nl
            .add_gate(format!("p{k}"), GateKind::Buf, vec![p])
            .expect("fresh name");
        nl.mark_output(alias);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use htforge_sim::{PatternSet, SimProgram};

    fn check_products(bits: usize, cases: &[(u64, u64)]) {
        let nl = multiplier("m", bits);
        assert!(nl.validate().is_ok());
        let sim = SimProgram::compile(&nl).unwrap();
        let vectors: Vec<Vec<bool>> = cases
            .iter()
            .map(|&(x, y)| {
                let mut v = Vec::with_capacity(2 * bits);
                for i in 0..bits {
                    v.push((x >> i) & 1 == 1);
                }
                for i in 0..bits {
                    v.push((y >> i) & 1 == 1);
                }
                v
            })
            .collect();
        let ps = PatternSet::from_vectors(2 * bits, &vectors);
        let vals = sim.run(&ps);
        for (pat, &(x, y)) in cases.iter().enumerate() {
            let mut p = 0u64;
            for k in 0..2 * bits {
                let out = nl.find(&format!("p{k}")).unwrap();
                if vals.value(out, pat) {
                    p |= 1 << k;
                }
            }
            assert_eq!(p, x * y, "{x} * {y}");
        }
    }

    #[test]
    fn mult4_exhaustive() {
        let cases: Vec<(u64, u64)> = (0..16).flat_map(|x| (0..16).map(move |y| (x, y))).collect();
        check_products(4, &cases);
    }

    #[test]
    fn mult8_spot_checks() {
        check_products(
            8,
            &[(0, 0), (255, 255), (17, 13), (128, 2), (99, 101), (1, 255)],
        );
    }

    #[test]
    fn mult16_spot_checks() {
        check_products(
            16,
            &[(65535, 65535), (12345, 54321), (0, 65535), (32768, 2)],
        );
    }

    #[test]
    fn mult16_size_is_c6288_like() {
        let nl = multiplier("c6288", 16);
        assert_eq!(nl.inputs().len(), 32);
        assert_eq!(nl.outputs().len(), 32);
        // c6288 has 2406 gates; the carry-save construction lands in the
        // same ballpark (within 2x).
        assert!(
            (1200..=4800).contains(&nl.gate_count()),
            "gate count {}",
            nl.gate_count()
        );
    }

    #[test]
    fn mult1_edge_case() {
        check_products(1, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
    }
}
