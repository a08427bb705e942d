#![warn(missing_docs)]

//! Switch-level CMOS models of the standard-cell library, with
//! transistor-level defect injection.
//!
//! This crate implements Section III of the paper ("Injecting
//! Transistor-Level Defects"): every [`dta_logic::GateKind`] cell is
//! lowered to its static-CMOS transistor schematic — complementary
//! pull-up (P) and pull-down (N) switch networks, possibly across several
//! stages for non-inverting or pass-complement cells — and physical
//! defects are injected *at the transistor level*:
//!
//! * **opens** (drain/source open → conduction path stuck off),
//! * **source–drain shorts** (path stuck on),
//! * **bridges** (shorts between two nets of the same stage),
//! * **delays** (partial shorts/opens → a gate line that propagates its
//!   value one transition late, i.e. a state element).
//!
//! Faulty cells are evaluated with the **B-block** semantics of Jain &
//! Agrawal, as adopted by the paper: per input vector, the defective
//! switch graph determines whether the output node is connected to Vdd
//! (`Z_P`) and/or Vss (`Z_N`);
//!
//! * `Z_N = 1` ⇒ output 0 (the path from ground dominates),
//! * only `Z_P = 1` ⇒ output 1,
//! * neither ⇒ the output **retains its previous value** (memory effect).
//!
//! [`reconstruct`] additionally rebuilds the faulty stage as a symbolic
//! logic expression (sum-of-products over conducting paths, combined by a
//! B-block), mirroring the paper's reconstruction flow of Figures 6–9, and
//! is tested for equivalence against the switch-graph evaluation.
//!
//! # Example
//!
//! ```
//! use dta_logic::gate::{GateBehavior, GateKind};
//! use dta_transistor::{CmosCell, Defect, FaultyCell};
//!
//! // A NAND2 with one pull-down transistor's drain open can no longer
//! // pull its output low: at the (1,1) input neither network conducts,
//! // so the gate floats and retains its previously driven value.
//! let mut cell = CmosCell::for_gate(GateKind::Nand2);
//! let t = cell.stages()[0]
//!     .transistors()
//!     .iter()
//!     .position(|t| t.is_nmos())
//!     .unwrap();
//! cell.inject(Defect::Open { stage: 0, transistor: t }).unwrap();
//! let mut faulty = FaultyCell::new(cell);
//! assert!(faulty.eval(&[false, true]), "pull-up still works");
//! assert!(faulty.eval(&[true, true]), "floats: retains the 1");
//! ```

pub mod cell;
pub mod defect;
pub mod dynamic;
pub mod eval;
pub mod reconstruct;
pub mod table;

pub use cell::{CmosCell, Polarity, Signal, Stage, Transistor};
pub use defect::{Activation, ActivationError, ActivationState, Defect, DefectError};
pub use dynamic::{DynamicCell, DynamicDefect, DynamicRefCell};
pub use eval::FaultyCell;
pub use reconstruct::{analyze_cell, BBlockExpr, Expr, FaultAnalysis};
pub use table::{CachedCell, CellTable};
