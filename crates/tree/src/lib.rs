//! RLC interconnect trees: the structural substrate of the Equivalent Elmore
//! Delay workspace.
//!
//! An *RLC tree* (Ismail–Friedman–Neves, TCAD 2000, Fig. 5) models a VLSI
//! interconnect net: a voltage source drives a tree of *sections*, where each
//! section is a series resistance `R` and inductance `L` leading to a node
//! with a shunt capacitance `C` to ground. Signal sinks are the leaves.
//!
//! This crate provides:
//!
//! * [`RlcSection`] — one `R`/`L`/`C` section;
//! * [`RlcTree`] — an arena-allocated tree of sections with O(1) parent and
//!   child access, traversal orders, and path queries;
//! * [`FlatTree`] / [`FlatForest`] — packed, topologically-sorted
//!   structure-of-arrays mirrors (single tree / multi-net arena) that the
//!   O(n) moment kernels sweep as branch-light linear loops;
//! * [`TreeBuilder`] — fluent construction of hand-shaped trees;
//! * [`topology`] — canonical generators: single lines, balanced trees of
//!   any branching factor, the asymmetric-impedance family parameterized by
//!   the paper's `asym` ratio, the paper's Fig. 5 and Fig. 8 example
//!   circuits, and deterministic pseudo-random trees;
//! * [`wire`] — per-unit-length wire parameters with technology presets and
//!   segmentation of physical wires into section chains;
//! * [`netlist`] — a SPICE-like netlist parser and writer, so trees can be
//!   exchanged with external tools;
//! * [`synth`] — synthesis decks: a netlist plus `.lib` buffer-library,
//!   `.driver`, and `.require` constraint cards for the `rlc-synth`
//!   optimizer.
//!
//! # Examples
//!
//! Build the two-section line `in ─[R,L]─ n1 ─[R,L]─ n2` and inspect it:
//!
//! ```
//! use rlc_tree::{RlcSection, RlcTree};
//! use rlc_units::{Resistance, Inductance, Capacitance};
//!
//! let section = RlcSection::new(
//!     Resistance::from_ohms(25.0),
//!     Inductance::from_nanohenries(5.0),
//!     Capacitance::from_picofarads(0.5),
//! );
//!
//! let mut tree = RlcTree::new();
//! let n1 = tree.add_root_section(section);
//! let n2 = tree.add_section(n1, section);
//!
//! assert_eq!(tree.len(), 2);
//! assert_eq!(tree.parent(n2), Some(n1));
//! assert_eq!(tree.leaves().collect::<Vec<_>>(), vec![n2]);
//! assert_eq!(tree.path_from_root(n2), vec![n1, n2]);
//! ```

mod builder;
pub mod coupled;
pub mod deck;
mod error;
pub mod flat;
mod names;
pub mod netlist;
mod section;
pub mod synth;
pub mod topology;
mod tree;
pub mod wire;

pub use builder::TreeBuilder;
pub use error::TreeError;
pub use flat::{FlatForest, FlatTree};
pub use section::RlcSection;
pub use tree::{NodeId, RlcTree};
