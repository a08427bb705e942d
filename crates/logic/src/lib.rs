#![warn(missing_docs)]

//! Gate-level netlist representation and simulation.
//!
//! The accelerator's arithmetic operators (ripple-carry adders, array
//! multipliers, latches, the sigmoid look-up unit) are built in
//! `dta-circuits` as netlists of the CMOS standard-cell library defined
//! here. This crate provides:
//!
//! * [`GateKind`] — the cell library (inverter, NAND/NOR, XOR, AOI/OAI
//!   complex gates, 2:1 mux, constants), each with its CMOS transistor
//!   count for the cost model;
//! * [`Netlist`] / [`NetlistBuilder`] — an immutable combinational +
//!   latch DAG with named input/output buses;
//! * [`Simulator`] — the reference oracle: each settle is one full sweep
//!   of the combinational logic in topological order, and latches step
//!   on [`Simulator::tick`]; any gate can be overridden with a
//!   [`GateBehavior`], which is how both fault models plug in;
//! * [`LutProgram`] — the netlist compiled to a topological LUT
//!   instruction stream, into which permanent faults patch their truth
//!   words, and [`FusedProgram`] / [`FusedExec`], the 64-lane engine that
//!   runs one or many such streams stitched into one program;
//! * [`OpExec`] — one faulty operator's patched stream, optimized,
//!   mapped onto 4-input LUTs ([`map_luts`]) and swept one lane per
//!   call, with stateful faulty cells as step instructions that call
//!   their [`GateBehavior`] in stream order;
//! * [`stuck`] — the classic **gate-level stuck-at fault model** (inputs
//!   or output of a logic gate stuck at 0/1). The paper uses this model as
//!   the *inaccurate baseline* that transistor-level injection
//!   (`dta-transistor`) is compared against in Figure 5.
//!
//! # Example
//!
//! ```
//! use dta_logic::{GateKind, NetlistBuilder, Simulator};
//!
//! // Build a half adder: sum = a ^ b, carry = a & b.
//! let mut b = NetlistBuilder::new();
//! let a = b.input("a");
//! let bb = b.input("b");
//! let sum = b.gate(GateKind::Xor2, &[a, bb]);
//! let carry = b.gate(GateKind::And2, &[a, bb]);
//! b.output("sum", sum);
//! b.output("carry", carry);
//! let net = std::sync::Arc::new(b.build());
//! let mut sim = Simulator::new(net);
//! sim.set_input(a, true);
//! sim.set_input(bb, true);
//! sim.settle();
//! assert!(!sim.value(sum));
//! assert!(sim.value(carry));
//! ```

pub mod compile;
pub mod fuse;
pub mod gate;
pub mod map;
pub mod netlist;
pub mod op;
pub mod opt;
pub mod sim;
pub mod stuck;

pub use compile::{kind_table, program_cache_stats, LatchSlot, LutInstr, LutProgram};
pub use fuse::{FuseBuilder, FusedExec, FusedProgram, DEAD_SLOT};
pub use gate::{GateBehavior, GateKind};
pub use map::map_luts;
pub use netlist::{Netlist, NetlistBuilder, NetlistError, Node, NodeId};
pub use op::{OpExec, OpProgram};
pub use opt::{optimize, optimize_opaque, optimize_with_consts, OptStats, SlotMap};
pub use sim::Simulator;
pub use stuck::{StuckAt, StuckPort, StuckSet};
