//! Gate-level netlist substrate for the `htforge` hardware-trojan toolkit.
//!
//! This crate models combinational / full-scan sequential circuits as
//! directed acyclic graphs of logic gates, in the style of the ISCAS-85 and
//! ISCAS-89 benchmark suites that the reproduced paper evaluates on.
//!
//! The central type is [`Netlist`]: an indexed, struct-of-arrays DAG of
//! nodes, where each node is a primary input, a logic gate, or a D
//! flip-flop, borrowed through the [`NodeRef`] view. Names are interned
//! ([`intern::Atom`]) so industrial-scale designs (100k–1M+ gates) fit a
//! tight memory budget. Supporting modules provide:
//!
//! * [`bench`](mod@bench) — a streaming parser and writer for the ISCAS
//!   `.bench` format,
//! * [`verilog`] — a structural-Verilog writer (for synthesis hand-off),
//! * [`graph`] — levelization, topological order, cones and reachability,
//! * [`area`] — a Nangate-45nm-style standard-cell area model used by the
//!   paper's Table V (area-overhead analysis).
//!
//! # Examples
//!
//! ```
//! use htforge_netlist::{Netlist, GateKind};
//!
//! # fn main() -> Result<(), htforge_netlist::NetlistError> {
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate("g", GateKind::Nand, vec![a, b])?;
//! nl.mark_output(g);
//! assert_eq!(nl.node_count(), 3);
//! # Ok(())
//! # }
//! ```

pub mod area;
pub mod bench;
pub mod error;
pub mod gate;
pub mod graph;
pub mod intern;
pub mod netlist;
pub mod verilog;

pub use area::{AreaModel, AreaReport};
pub use error::NetlistError;
pub use gate::{FoldOp, GateKind};
pub use intern::{Atom, SymbolTable};
pub use netlist::{Netlist, NodeId, NodeKind, NodeRef};
