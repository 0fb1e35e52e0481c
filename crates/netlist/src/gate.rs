//! Logic gate kinds and their evaluation semantics.
//!
//! The gate vocabulary matches the ISCAS `.bench` format: `AND`, `NAND`,
//! `OR`, `NOR`, `XOR`, `XNOR`, `NOT`, `BUF` and (for ISCAS-89) `DFF`.
//! D flip-flops are represented at the [`NodeKind`](crate::NodeKind) level,
//! not here, because they are not combinational gates.

use std::fmt;
use std::str::FromStr;

/// A combinational gate function.
///
/// Multi-input kinds (`And`, `Nand`, `Or`, `Nor`, `Xor`, `Xnor`) accept any
/// fan-in ≥ 1; `Not` and `Buf` are strictly unary.
///
/// # Examples
///
/// ```
/// use htforge_netlist::GateKind;
///
/// assert_eq!(GateKind::Nand.eval_bits(&[0b1100, 0b1010]) & 0b1111, 0b0111);
/// assert_eq!("NAND".parse::<GateKind>(), Ok(GateKind::Nand));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Logical AND of all fan-ins.
    And,
    /// Complement of AND.
    Nand,
    /// Logical OR of all fan-ins.
    Or,
    /// Complement of OR.
    Nor,
    /// Parity (odd number of 1 inputs).
    Xor,
    /// Complement of parity.
    Xnor,
    /// Inverter (unary).
    Not,
    /// Buffer (unary identity).
    Buf,
}

impl GateKind {
    /// All gate kinds, in a stable order.
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// The dense code of this kind: its position in [`GateKind::ALL`].
    /// Used to pack kinds into one-byte columns.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            GateKind::And => 0,
            GateKind::Nand => 1,
            GateKind::Or => 2,
            GateKind::Nor => 3,
            GateKind::Xor => 4,
            GateKind::Xnor => 5,
            GateKind::Not => 6,
            GateKind::Buf => 7,
        }
    }

    /// Inverse of [`GateKind::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code >= 8`.
    #[must_use]
    pub fn from_code(code: u8) -> GateKind {
        GateKind::ALL[code as usize]
    }

    /// Returns `true` if this kind only accepts exactly one fan-in.
    #[must_use]
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Returns `true` if the gate output is the complement of its
    /// non-inverting base function (NAND, NOR, XNOR, NOT).
    #[must_use]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The associative word-wise fold underlying the gate's base
    /// (non-inverted) function. Every kind decomposes as
    /// `maybe-invert(fold(fanins))`: seed with the first fan-in column,
    /// fold the rest with this operator, complement if
    /// [`is_inverting`](GateKind::is_inverting). Unary kinds fold
    /// trivially (one fan-in, nothing to combine; `And` is returned as a
    /// neutral placeholder).
    #[must_use]
    pub fn fold_op(self) -> FoldOp {
        match self {
            GateKind::And | GateKind::Nand | GateKind::Not | GateKind::Buf => FoldOp::And,
            GateKind::Or | GateKind::Nor => FoldOp::Or,
            GateKind::Xor | GateKind::Xnor => FoldOp::Xor,
        }
    }

    /// The ISCAS `.bench` keyword for this kind.
    #[must_use]
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }

    /// Checks whether `arity` fan-ins are legal for this kind.
    #[must_use]
    pub fn arity_ok(self, arity: usize) -> bool {
        if self.is_unary() {
            arity == 1
        } else {
            arity >= 1
        }
    }

    /// Evaluates the gate over bit-parallel words (64 input patterns at a
    /// time). Each element of `fanins` carries one bit per pattern.
    ///
    /// # Panics
    ///
    /// Panics if `fanins` is empty.
    #[must_use]
    pub fn eval_bits(self, fanins: &[u64]) -> u64 {
        assert!(!fanins.is_empty(), "gate evaluated with no fan-ins");
        match self {
            GateKind::And => fanins.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Nand => !fanins.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Or => fanins.iter().fold(0, |acc, &v| acc | v),
            GateKind::Nor => !fanins.iter().fold(0, |acc, &v| acc | v),
            GateKind::Xor => fanins.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Xnor => !fanins.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Not => !fanins[0],
            GateKind::Buf => fanins[0],
        }
    }

    /// Evaluates the gate over scalar booleans.
    ///
    /// # Panics
    ///
    /// Panics if `fanins` is empty.
    #[must_use]
    pub fn eval_bool(self, fanins: &[bool]) -> bool {
        assert!(!fanins.is_empty(), "gate evaluated with no fan-ins");
        match self {
            GateKind::And => fanins.iter().all(|&v| v),
            GateKind::Nand => !fanins.iter().all(|&v| v),
            GateKind::Or => fanins.iter().any(|&v| v),
            GateKind::Nor => !fanins.iter().any(|&v| v),
            GateKind::Xor => fanins.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Xnor => !fanins.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Not => !fanins[0],
            GateKind::Buf => fanins[0],
        }
    }

    /// The *controlling value* of the gate, if it has one: an input at this
    /// value forces the output regardless of other inputs (0 for AND/NAND,
    /// 1 for OR/NOR). XOR-family and unary gates have none.
    #[must_use]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The output value this gate is inherently *biased against* producing
    /// — the rare output of the paper's trigger-synthesis discipline
    /// (§III-D). A `k`-input AND outputs 1 with probability `1/2^k`, so its
    /// rare output is 1; dually for the others. XOR-family and unary gates
    /// are unbiased and return `None`.
    #[must_use]
    pub fn rare_output(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nor => Some(true),
            GateKind::Nand | GateKind::Or => Some(false),
            _ => None,
        }
    }

    /// For gates with a rare output: the homogeneous input value required
    /// to produce that rare output (all-1 for AND/NAND, all-0 for OR/NOR).
    #[must_use]
    pub fn rare_input(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(true),
            GateKind::Or | GateKind::Nor => Some(false),
            _ => None,
        }
    }
}

/// The three associative bitwise folds gate functions are built from;
/// see [`GateKind::fold_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoldOp {
    /// Bitwise AND (base of AND/NAND; placeholder for unary kinds).
    And,
    /// Bitwise OR (base of OR/NOR).
    Or,
    /// Bitwise XOR (base of XOR/XNOR).
    Xor,
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

/// Error returned when parsing a [`GateKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError {
    keyword: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.keyword)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // `.bench` files are case-insensitive in practice; BUFF is a common
        // alias for BUF.
        match s.to_ascii_uppercase().as_str() {
            "AND" => Ok(GateKind::And),
            "NAND" => Ok(GateKind::Nand),
            "OR" => Ok(GateKind::Or),
            "NOR" => Ok(GateKind::Nor),
            "XOR" => Ok(GateKind::Xor),
            "XNOR" => Ok(GateKind::Xnor),
            "NOT" | "INV" => Ok(GateKind::Not),
            "BUF" | "BUFF" => Ok(GateKind::Buf),
            other => Err(ParseGateKindError {
                keyword: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bits_matches_truth_tables() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        let mask = 0b1111u64;
        assert_eq!(GateKind::And.eval_bits(&[a, b]) & mask, 0b1000);
        assert_eq!(GateKind::Nand.eval_bits(&[a, b]) & mask, 0b0111);
        assert_eq!(GateKind::Or.eval_bits(&[a, b]) & mask, 0b1110);
        assert_eq!(GateKind::Nor.eval_bits(&[a, b]) & mask, 0b0001);
        assert_eq!(GateKind::Xor.eval_bits(&[a, b]) & mask, 0b0110);
        assert_eq!(GateKind::Xnor.eval_bits(&[a, b]) & mask, 0b1001);
        assert_eq!(GateKind::Not.eval_bits(&[a]) & mask, 0b0011);
        assert_eq!(GateKind::Buf.eval_bits(&[a]) & mask, 0b1100);
    }

    #[test]
    fn eval_bool_agrees_with_eval_bits_three_inputs() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for pattern in 0u64..8 {
                let bits: Vec<u64> = (0..3).map(|i| (pattern >> i) & 1).collect();
                let bools: Vec<bool> = bits.iter().map(|&b| b == 1).collect();
                assert_eq!(
                    kind.eval_bits(&bits) & 1,
                    u64::from(kind.eval_bool(&bools)),
                    "{kind} on {pattern:03b}"
                );
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for kind in GateKind::ALL {
            assert_eq!(kind.bench_keyword().parse::<GateKind>(), Ok(kind));
        }
        assert_eq!("buff".parse::<GateKind>(), Ok(GateKind::Buf));
        assert_eq!("inv".parse::<GateKind>(), Ok(GateKind::Not));
        assert!("MUX".parse::<GateKind>().is_err());
    }

    #[test]
    fn rare_output_and_input_are_consistent() {
        // Producing the rare output must require all inputs at rare_input.
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let r_out = kind.rare_output().unwrap();
            let r_in = kind.rare_input().unwrap();
            assert_eq!(kind.eval_bool(&[r_in, r_in, r_in]), r_out);
            // Flipping any single input away from rare_input flips the output.
            assert_ne!(kind.eval_bool(&[!r_in, r_in, r_in]), r_out);
        }
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Not.arity_ok(1));
        assert!(!GateKind::Not.arity_ok(2));
        assert!(GateKind::And.arity_ok(5));
        assert!(!GateKind::And.arity_ok(0));
    }

    #[test]
    #[should_panic(expected = "no fan-ins")]
    fn eval_with_no_fanins_panics() {
        let _ = GateKind::And.eval_bits(&[]);
    }
}
