#![warn(missing_docs)]

//! Gate-level implementations of the accelerator's datapath operators.
//!
//! The spatially expanded accelerator is made of three operator types per
//! neuron — synaptic multipliers, accumulation adders, and the sigmoid
//! look-up unit — plus weight/input latches, whose defects `dta-ann`
//! models as stuck bits, the model the paper uses for state elements.
//! This crate builds each operator as a [`dta_logic::Netlist`] of
//! standard cells, so that defects can be injected *into a specific
//! transistor of a specific 1-bit cell* and the resulting operator
//! behavior observed, exactly as in §III of the paper:
//!
//! * [`AdderCircuit`] — W-bit ripple-carry adder (wrapping);
//! * [`SatAdderCircuit`] — the 16-bit Q6.10 saturating adder used in
//!   neuron accumulation, bit-exact with [`dta_fixed::Fx`] `+`;
//! * [`ArrayMultiplier`] — W×W array multiplier (unsigned or
//!   Baugh–Wooley signed), full 2W-bit product;
//! * [`FxMulCircuit`] — the Q6.10 multiplier (product bits `[25:10]` with
//!   saturation), bit-exact with [`dta_fixed::Fx`] `*`;
//! * [`SigmoidUnitCircuit`] — the 16-segment piecewise-linear activation
//!   unit (LUT + multiply + add + clamp), bit-exact with
//!   [`dta_fixed::SigmoidLut`];
//! * [`inject`] — random defect placement (uniform over operator bits,
//!   then over transistors / stuck-at sites within the bit cell) for both
//!   fault models;
//! * [`ops`] — self-contained faulty-operator evaluators
//!   ([`HwAdder`], [`HwMultiplier`], [`HwSigmoid`]) that the ANN model
//!   calls in place of native arithmetic for neurons marked defective
//!   (the paper's hybrid execution strategy).
//!
//! # Example
//!
//! ```
//! use dta_circuits::ops::HwMultiplier;
//! use dta_fixed::Fx;
//!
//! // A healthy gate-level multiplier is bit-exact with the Fx datapath.
//! let mut hw = HwMultiplier::new();
//! let (a, b) = (Fx::from_f64(1.5), Fx::from_f64(-2.25));
//! assert_eq!(hw.mul(a, b), a * b);
//! ```

pub mod adder;
pub mod cla_adder;
pub mod inject;
pub mod multiplier;
pub mod ops;
pub mod sigmoid_unit;
pub mod visibility;
pub mod wallace;

pub use adder::{AdderCircuit, SatAdderCircuit};
pub use cla_adder::ClaAdderCircuit;
pub use dta_transistor::{Activation, ActivationError, ActivationState};
pub use inject::{DefectPlan, FaultModel};
pub use multiplier::{ArrayMultiplier, FxMulCircuit};
pub use ops::{HwAdder, HwMultiplier, HwSigmoid};
pub use sigmoid_unit::SigmoidUnitCircuit;
pub use visibility::VisibilityReport;
pub use wallace::WallaceMultiplier;
