#![warn(missing_docs)]

//! The software ANN model of the paper: a 2-layer multi-layer perceptron
//! trained with back-propagation, whose **forward pass runs through the
//! hardware datapath semantics** (Q6.10 arithmetic, 16-segment sigmoid),
//! with per-neuron faulty-operator hooks.
//!
//! The paper's evaluation methodology (§V, §VI-C):
//!
//! * training happens on a companion core "though using the forward
//!   hardware logic" — here: forward in Q6.10 (optionally with injected
//!   faults), gradients accumulated in `f64`;
//! * "it is possible to mark a neuron as having one or several defect(s)
//!   for a specific operator, in which case a software function is called
//!   to perform that operator in place of the native operator" — here:
//!   [`FaultPlan`] routes individual multiplies/adds/activations of
//!   marked neurons through the gate-level operator circuits of
//!   `dta-circuits`;
//! * every accuracy uses 10-fold cross-validation ([`train::cross_validate`]);
//! * hyper-parameters come from a grid search over the Table I space
//!   ([`hyper`]).
//!
//! # Example
//!
//! ```
//! use dta_ann::{Mlp, Topology, Trainer, ForwardMode};
//! use dta_datasets::suite;
//! use rand::SeedableRng;
//!
//! let ds = suite::load("iris").unwrap();
//! let topo = Topology::new(ds.n_features(), 8, ds.n_classes());
//! let mut mlp = Mlp::new(topo, 42);
//! let trainer = Trainer::new(0.2, 0.1, 30, ForwardMode::Fixed);
//! let idx: Vec<usize> = (0..ds.len()).collect();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! trainer.train(&mut mlp, &ds, &idx, None, &mut rng);
//! let acc = trainer.evaluate(&mlp, &ds, &idx, None);
//! assert!(acc > 0.8, "iris in 30 epochs should fit well, got {acc}");
//! ```

pub mod deep;
pub mod fault;
pub mod fused;
pub mod hyper;
pub mod mlp;
pub mod regress;
pub mod train;

pub use deep::{DeepMlp, DeepTrainer};
pub use fault::{FaultPlan, FaultSite, Layer, NeuronFaults, UnitKind};
pub use fused::{clear_fused_cache, fused_cache_stats, FusedForward};
pub use hyper::{HyperParams, HyperSpace, SearchResult};
pub use mlp::{ForwardTrace, Mlp, Topology};
pub use regress::{RegressionSample, RegressionSet, RegressionTrainer};
pub use train::{cross_validate, CvResult, ForwardMode, Trainer, Velocity};
