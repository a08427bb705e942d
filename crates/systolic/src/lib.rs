//! # dta-systolic — weight-stationary systolic MAC array
//!
//! The repo's second accelerator topology. Where `dta-core`'s spatial
//! array gives every synapse its own multiplier, this crate time-shares
//! a small `rows × cols` grid of multiply-accumulate processing
//! elements (PEs): weights are pinned onto the grid one tile at a time,
//! activations stream through, and each neuron's partial sum rides down
//! its column (weight-stationary dataflow, output-stationary
//! accumulation).
//!
//! The crate implements `dta-core`'s [`Accel`](dta_core::accel::Accel)
//! trait, so the existing self-test driver, recovery ladder and
//! campaign machinery run on it unmodified. Its fault surface is
//! topology-native — per-PE stuck multiplier/adder/accumulator bits and
//! dead PEs under the shared permanent/transient/intermittent
//! activation taxonomy — and so are its repair rungs: PE bypass
//! (fail-silent, Zhang-style) and fault-aware row remap onto spare PE
//! rows.
//!
//! Each PE's defects and repair state compile into one `PeMask` of
//! AND/OR masks, and one branch-free MAC kernel applies them to every
//! sample lane. A defect-free grid is the all-pass table and is
//! **bit-identical** to the reference `Mlp::forward_fixed`: the kernel
//! accumulates synapses in ascending index order with the same
//! saturating Q6.10 arithmetic.
//!
//! - [`grid`] — PE grid, defect model, compiled masks, bypass/remap
//!   state
//! - [`SystolicAccelerator`] — the `Accel` implementation and its
//!   tile-walk kernel

#![warn(missing_docs)]

pub mod grid;

mod accel;

pub use accel::{SystolicAccelerator, BATCH_LANES};
pub use grid::{GridGeometry, PeDefect, PeFaultKind, PeGrid};
