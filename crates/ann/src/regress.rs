//! Function approximation — the second task family the paper targets
//! ("the ANN design would be the same for approximation, or clustering
//! tasks").
//!
//! The same 2-layer MLP and Q6.10 hardware forward path are trained
//! against continuous targets in `[0, 1]` with an MSE objective; the
//! per-neuron fault hooks work unchanged, so defect-tolerant
//! approximation (train → inject → retrain) composes exactly like
//! classification.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_fixed::SigmoidLut;

use crate::fault::FaultPlan;
use crate::mlp::Mlp;
use crate::train::{backprop, Velocity};

/// One regression example: features and continuous targets, all in
/// `[0, 1]` (the sigmoid output range).
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionSample {
    /// Input features.
    pub features: Vec<f64>,
    /// Target outputs in `[0, 1]`.
    pub targets: Vec<f64>,
}

/// A regression dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionSet {
    name: String,
    n_features: usize,
    n_targets: usize,
    samples: Vec<RegressionSample>,
}

impl RegressionSet {
    /// Creates a set, validating shapes and target ranges.
    ///
    /// # Panics
    ///
    /// Panics on empty data, shape mismatches, or targets outside
    /// `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        n_features: usize,
        n_targets: usize,
        samples: Vec<RegressionSample>,
    ) -> RegressionSet {
        assert!(!samples.is_empty(), "regression set must not be empty");
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.features.len(), n_features, "sample {i} features");
            assert_eq!(s.targets.len(), n_targets, "sample {i} targets");
            assert!(
                s.targets.iter().all(|&t| (0.0..=1.0).contains(&t)),
                "sample {i} targets must lie in [0,1] (sigmoid range)"
            );
        }
        RegressionSet {
            name: name.into(),
            n_features,
            n_targets,
            samples,
        }
    }

    /// Samples a function on uniformly random points of `[0, 1]^d`.
    /// `f` must return `n_targets` values in `[0, 1]`.
    pub fn from_function(
        name: impl Into<String>,
        n_features: usize,
        n_targets: usize,
        n_samples: usize,
        seed: u64,
        mut f: impl FnMut(&[f64]) -> Vec<f64>,
    ) -> RegressionSet {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let samples = (0..n_samples)
            .map(|_| {
                let features: Vec<f64> = (0..n_features)
                    .map(|_| rng.random_range(0.0..1.0))
                    .collect();
                let targets = f(&features);
                RegressionSample { features, targets }
            })
            .collect();
        RegressionSet::new(name, n_features, n_targets, samples)
    }

    /// Set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of target outputs.
    pub fn n_targets(&self) -> usize {
        self.n_targets
    }

    /// The examples.
    pub fn samples(&self) -> &[RegressionSample] {
        &self.samples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false by construction.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// MSE back-propagation against continuous targets, forward in Q6.10
/// (optionally through faulty silicon).
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionTrainer {
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Training epochs.
    pub epochs: usize,
}

impl RegressionTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive learning rate or zero epochs.
    pub fn new(learning_rate: f64, momentum: f64, epochs: usize) -> RegressionTrainer {
        assert!(learning_rate > 0.0);
        assert!((0.0..1.0).contains(&momentum));
        assert!(epochs >= 1);
        RegressionTrainer {
            learning_rate,
            momentum,
            epochs,
        }
    }

    /// Trains `mlp` on the selected samples; with `faults`, the forward
    /// pass exercises the defective hardware.
    pub fn train<R: Rng + ?Sized>(
        &self,
        mlp: &mut Mlp,
        set: &RegressionSet,
        idx: &[usize],
        mut faults: Option<&mut FaultPlan>,
        rng: &mut R,
    ) {
        let topo = mlp.topology();
        assert_eq!(topo.inputs, set.n_features(), "network/set mismatch");
        assert_eq!(topo.outputs, set.n_targets(), "output/target mismatch");
        let lut = SigmoidLut::new();
        let mut order: Vec<usize> = idx.to_vec();
        let mut velocity = Velocity::new(topo);
        for _ in 0..self.epochs {
            order.shuffle(rng);
            for &s in &order {
                let sample = &set.samples[s];
                let trace = match faults.as_deref_mut() {
                    Some(plan) => mlp.forward_faulty(&sample.features, &lut, plan),
                    None => mlp.forward_fixed(&sample.features, &lut),
                };
                backprop(
                    mlp,
                    &sample.features,
                    |k| sample.targets[k],
                    &trace,
                    &mut velocity,
                    self.learning_rate,
                    self.momentum,
                );
            }
        }
    }

    /// Mean squared error over the selected samples.
    pub fn mse(
        &self,
        mlp: &Mlp,
        set: &RegressionSet,
        idx: &[usize],
        mut faults: Option<&mut FaultPlan>,
    ) -> f64 {
        let lut = SigmoidLut::new();
        let mut total = 0.0;
        let mut count = 0usize;
        for &s in idx {
            let sample = &set.samples[s];
            let trace = match faults.as_deref_mut() {
                Some(plan) => mlp.forward_faulty(&sample.features, &lut, plan),
                None => mlp.forward_fixed(&sample.features, &lut),
            };
            for (y, t) in trace.output.iter().zip(&sample.targets) {
                total += (y - t).powi(2);
                count += 1;
            }
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Topology;
    use dta_circuits::FaultModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sine_set() -> RegressionSet {
        RegressionSet::from_function("sine", 1, 1, 200, 7, |x| {
            vec![0.5 + 0.4 * (std::f64::consts::TAU * x[0]).sin()]
        })
    }

    #[test]
    fn construction_validates() {
        let set = sine_set();
        assert_eq!(set.name(), "sine");
        assert_eq!((set.n_features(), set.n_targets()), (1, 1));
        assert_eq!(set.len(), 200);
        assert!(!set.is_empty());
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn out_of_range_targets_rejected() {
        RegressionSet::new(
            "bad",
            1,
            1,
            vec![RegressionSample {
                features: vec![0.5],
                targets: vec![1.5],
            }],
        );
    }

    #[test]
    fn approximates_a_sine() {
        let set = sine_set();
        let idx: Vec<usize> = (0..set.len()).collect();
        let mut mlp = Mlp::new(Topology::new(1, 10, 1), 3);
        let trainer = RegressionTrainer::new(0.6, 0.5, 300);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let before = trainer.mse(&mlp, &set, &idx, None);
        trainer.train(&mut mlp, &set, &idx, None, &mut rng);
        let after = trainer.mse(&mlp, &set, &idx, None);
        assert!(after < before / 3.0, "MSE {before} -> {after}");
        assert!(after < 0.005, "sine fit MSE {after}");
    }

    #[test]
    fn defect_tolerant_approximation() {
        // The paper's claim extends to approximation: inject, retrain,
        // and the fit survives.
        let set = sine_set();
        let idx: Vec<usize> = (0..set.len()).collect();
        let mut mlp = Mlp::new(Topology::new(1, 10, 1), 3);
        let trainer = RegressionTrainer::new(0.6, 0.5, 80);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut plan = FaultPlan::new(90);
        for _ in 0..3 {
            plan.inject_random_hidden(10, FaultModel::TransistorLevel, &mut rng);
        }
        trainer.train(&mut mlp, &set, &idx, Some(&mut plan), &mut rng);
        let mse = trainer.mse(&mlp, &set, &idx, Some(&mut plan));
        assert!(mse < 0.03, "faulty-silicon sine fit MSE {mse}");
    }
}
