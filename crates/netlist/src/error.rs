//! Error types for netlist construction and parsing.

use std::fmt;

/// Errors produced while building, validating, or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was declared with a signal name that already exists.
    DuplicateName(String),
    /// A gate references a signal name that was never defined.
    UndefinedSignal(String),
    /// A gate was given an arity its kind does not support
    /// (e.g. a 3-input NOT).
    BadArity {
        /// The offending gate's name.
        gate: String,
        /// The gate kind as written.
        kind: &'static str,
        /// The number of fan-ins supplied.
        got: usize,
    },
    /// A node id was out of range for this netlist.
    InvalidNodeId(u32),
    /// The netlist contains a combinational cycle (after scan cutting).
    CombinationalCycle {
        /// Name of one node on the cycle.
        witness: String,
    },
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An unknown gate type keyword was seen while parsing.
    UnknownGateKind {
        /// 1-based line number.
        line: usize,
        /// The keyword as written in the source.
        keyword: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => {
                write!(f, "duplicate signal name `{n}`")
            }
            NetlistError::UndefinedSignal(n) => {
                write!(f, "reference to undefined signal `{n}`")
            }
            NetlistError::BadArity { gate, kind, got } => {
                write!(f, "gate `{gate}` of kind {kind} given {got} fan-ins")
            }
            NetlistError::InvalidNodeId(id) => {
                write!(f, "node id {id} out of range")
            }
            NetlistError::CombinationalCycle { witness } => {
                write!(f, "combinational cycle through `{witness}`")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::UnknownGateKind { line, keyword } => {
                write!(f, "unknown gate kind `{keyword}` at line {line}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = NetlistError::DuplicateName("n1".into());
        let s = e.to_string();
        assert!(s.starts_with("duplicate"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }

    #[test]
    fn parse_error_reports_line() {
        let e = NetlistError::Parse {
            line: 42,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("42"));
    }
}
