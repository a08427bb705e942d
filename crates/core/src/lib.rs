#![warn(missing_docs)]

//! The paper's primary contribution: a **spatially expanded, defect-
//! tolerant hardware ANN accelerator**, with everything needed to
//! reproduce its evaluation.
//!
//! * [`accelerator`] — the spatially expanded 90-10-10 accelerator: all
//!   neurons in silicon, synaptic weights in distributed latches next to
//!   their multipliers, combinational data flow from inputs to outputs.
//!   Supports transistor-level defect injection and companion-core
//!   retraining.
//! * [`time_multiplexed`] — the conventional baseline: a few shared
//!   hardware neurons, an SRAM weight bank and the control logic that a
//!   single defect can wreck; used by the spatial-vs-time-multiplexed
//!   ablation.
//! * [`large`] — partial time-multiplexing of networks larger than the
//!   physical array (paper §IV), with pass counting and the defect
//!   multiplication effect.
//! * [`interface`] — the DMA / memory-interface model: double buffering,
//!   handshake, and the bandwidth arithmetic behind the 11.23 GB/s
//!   requirement.
//! * [`cost`] — the 90 nm area/power/latency/energy model calibrated to
//!   the paper's synthesis results (Table III), including technology-node
//!   scaling of the key-logic fraction.
//! * [`processor`] — the Intel Stealey-class in-order core model behind
//!   Table IV and the ~1000× energy ratio.
//! * [`campaign`] — the defect-injection campaigns of Figures 10 and 11:
//!   accuracy vs. defect count with retraining, and output-layer
//!   sensitivity vs. error amplitude.
//! * [`selftest`] — signature-based BIST: array-level lane screen plus
//!   operator-level vector diagnosis, localizing defects to
//!   operator/neuron granularity with structurally perfect precision.
//! * [`recover`] — the online recovery ladder driven by a diagnosis:
//!   retrain-around-defect, remap/mask onto spare lanes, graceful
//!   degradation — each rung under an epoch budget and a wall-clock
//!   watchdog with typed timeout errors.
//! * [`health`] — the per-accelerator health-state machine
//!   (Healthy → Suspect → Recovering → Degraded → Quarantined) the
//!   mission runtime drives, with a typed-error transition table.
//! * [`mission`] — the mission-mode runtime: a sustained inference
//!   stream served in traffic batches while a seeded Poisson
//!   fault-arrival process injects mid-stream defects; periodic
//!   incremental BIST probes, watchdogged recovery with bounded
//!   retries and exponential backoff, quarantine, and an
//!   accuracy/availability-over-time trace.
//!
//! # Example
//!
//! ```
//! use dta_core::accelerator::Accelerator;
//! use dta_ann::{Mlp, Topology};
//!
//! let mut accel = Accelerator::new();
//! let mlp = Mlp::new(Topology::new(4, 8, 3), 42);
//! accel.map_network(mlp).unwrap();
//! let class = accel.classify(&[0.1, 0.9, 0.4, 0.2]).unwrap();
//! assert!(class < 3);
//! ```

pub mod accel;
pub mod accelerator;
pub mod campaign;
pub mod checkpoint;
pub mod cost;
pub mod health;
pub mod interface;
pub mod large;
pub mod mission;
pub mod parallel;
pub mod processor;
pub mod recover;
pub mod selftest;
pub mod time_multiplexed;

pub use accel::{Accel, StructuralOutcome};
pub use accelerator::{check_hyperparameters, AccelError, Accelerator};
pub use campaign::{
    AmplitudePoint, CampaignConfig, CampaignError, CellOutcome, ChaosCell, CurvePoint,
};
pub use checkpoint::Checkpoint;
pub use cost::{CostModel, CostReport, SensitiveAreaReport};
pub use health::{HealthEvent, HealthMonitor, HealthState, IllegalTransition};
pub use interface::MemoryInterface;
pub use mission::{
    run_mission, MissionConfig, MissionError, MissionEvent, MissionOutcome, SurfaceMix,
};
pub use parallel::parallel_map;
pub use processor::ProcessorModel;
pub use recover::{
    DegradationEstimate, MemRungStats, RecoveryError, RecoveryPolicy, RecoveryReport, RecoveryRung,
    RungBudget,
};
pub use selftest::{detection_rate, localization_precision, run_selftest, BistConfig, Diagnosis};
pub use time_multiplexed::TimeMultiplexedAccelerator;

// The weight-store fault surface (re-exported so campaign and bench
// code can drive it without a direct `dta-mem` dependency).
pub use dta_mem::{
    Activation as MemActivation, MarchReport, MemDefect, MemGeometry, ScrubReport, WeightMemory,
};
