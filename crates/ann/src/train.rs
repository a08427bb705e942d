//! Back-propagation training, evaluation, and cross-validation.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_datasets::Dataset;
use dta_fixed::SigmoidLut;

use crate::fault::FaultPlan;
use crate::mlp::{ForwardTrace, Mlp, Topology};

/// Which forward path training and evaluation use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardMode {
    /// Exact `f64` forward pass (the software reference / ablation).
    Float,
    /// The hardware Q6.10 + LUT-sigmoid path (the paper's methodology:
    /// training on the companion core "using the forward hardware
    /// logic"). When a [`FaultPlan`] is supplied, defective operators run
    /// through their gate-level circuits.
    Fixed,
}

/// Momentum velocities of one training run, one per weight.
#[derive(Clone, Debug)]
pub struct Velocity {
    hidden: Vec<f64>,
    output: Vec<f64>,
}

impl Velocity {
    /// All-zero velocities for a network of this shape.
    pub fn new(topo: Topology) -> Velocity {
        Velocity {
            hidden: vec![0.0; topo.hidden * (topo.inputs + 1)],
            output: vec![0.0; topo.outputs * (topo.hidden + 1)],
        }
    }
}

/// Stochastic back-propagation with learning rate and momentum, MSE
/// objective — the paper's training setup.
///
/// Gradients are always accumulated in `f64` (the companion core); the
/// `mode` selects which forward path produces the activations, so
/// retraining "factors in the faulty elements".
#[derive(Clone, Debug, PartialEq)]
pub struct Trainer {
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Forward path.
    pub mode: ForwardMode,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or `epochs` is zero.
    pub fn new(learning_rate: f64, momentum: f64, epochs: usize, mode: ForwardMode) -> Trainer {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0,1)");
        assert!(epochs >= 1, "need at least one epoch");
        Trainer {
            learning_rate,
            momentum,
            epochs,
            mode,
        }
    }

    /// Trains `mlp` on the samples of `ds` selected by `idx`, shuffling
    /// each epoch with `rng`. If `faults` is supplied, the forward pass
    /// exercises the defective hardware, so the network learns to
    /// "silence out" faulty elements.
    pub fn train<R: Rng + ?Sized>(
        &self,
        mlp: &mut Mlp,
        ds: &Dataset,
        idx: &[usize],
        mut faults: Option<&mut FaultPlan>,
        rng: &mut R,
    ) {
        let lut = SigmoidLut::new();
        let mode = self.mode;
        self.train_with(mlp, ds, idx, rng, move |m, x| {
            match (mode, faults.as_deref_mut()) {
                (ForwardMode::Float, _) => m.forward_float(x),
                (ForwardMode::Fixed, None) => m.forward_fixed(x, &lut),
                (ForwardMode::Fixed, Some(plan)) => m.forward_faulty(x, &lut, plan),
            }
        });
    }

    /// Trains with an arbitrary forward function (e.g. the
    /// time-multiplexed accelerator's shared-neuron path). Gradients are
    /// computed in `f64` from the activations the function reports.
    pub fn train_with<R: Rng + ?Sized, F>(
        &self,
        mlp: &mut Mlp,
        ds: &Dataset,
        idx: &[usize],
        rng: &mut R,
        mut forward: F,
    ) where
        F: FnMut(&Mlp, &[f64]) -> ForwardTrace,
    {
        let topo = mlp.topology();
        assert_eq!(topo.inputs, ds.n_features(), "network/dataset mismatch");
        assert!(topo.outputs >= ds.n_classes(), "too few output neurons");
        let mut order: Vec<usize> = idx.to_vec();
        let mut velocity = Velocity::new(topo);
        for _epoch in 0..self.epochs {
            order.shuffle(rng);
            for &s in &order {
                let sample = &ds.samples()[s];
                let trace = forward(mlp, &sample.features);
                self.step(mlp, &sample.features, sample.label, &trace, &mut velocity);
            }
        }
    }

    /// One back-propagation update from one labelled row: deltas from
    /// the activations `trace` reports for `x`, then a momentum step on
    /// every weight.
    ///
    /// # Panics
    ///
    /// Panics if `x`, `trace` or `velocity` do not match the network's
    /// shape.
    pub fn step(
        &self,
        mlp: &mut Mlp,
        x: &[f64],
        label: usize,
        trace: &ForwardTrace,
        velocity: &mut Velocity,
    ) {
        let topo = mlp.topology();
        assert_eq!(x.len(), topo.inputs, "row/network mismatch");
        // Output deltas: (t - y) f'(o), with f' from the output.
        let mut delta_out = vec![0.0f64; topo.outputs];
        for (k, d) in delta_out.iter_mut().enumerate() {
            let t = if k == label { 1.0 } else { 0.0 };
            let y = trace.output[k];
            *d = (t - y) * y * (1.0 - y);
        }
        // Hidden deltas.
        let mut delta_hid = vec![0.0f64; topo.hidden];
        for (j, d) in delta_hid.iter_mut().enumerate() {
            let h = trace.hidden[j];
            let mut back = 0.0;
            for (k, &dk) in delta_out.iter().enumerate() {
                back += dk * mlp.w_output(k, j);
            }
            *d = h * (1.0 - h) * back;
        }
        // Output-layer update.
        for (k, &dk) in delta_out.iter().enumerate() {
            for j in 0..=topo.hidden {
                let y_in = if j == topo.hidden {
                    1.0
                } else {
                    trace.hidden[j]
                };
                let vi = k * (topo.hidden + 1) + j;
                let v = &mut velocity.output[vi];
                *v = self.learning_rate * dk * y_in + self.momentum * *v;
                *mlp.w_output_mut(k, j) += *v;
            }
        }
        // Hidden-layer update.
        for (j, &dj) in delta_hid.iter().enumerate() {
            // The inputs, then the bias input at index `inputs`.
            for (i, &x_in) in x.iter().chain(&[1.0]).enumerate() {
                let vi = j * (topo.inputs + 1) + i;
                let v = &mut velocity.hidden[vi];
                *v = self.learning_rate * dj * x_in + self.momentum * *v;
                *mlp.w_hidden_mut(j, i) += *v;
            }
        }
    }

    /// Classification accuracy over the samples selected by `idx`.
    ///
    /// On the fixed-point path the whole selection is evaluated through
    /// [`Mlp::forward_faulty_batch`], on an empty plan when no faults are
    /// given: patchable fault sets run as one fused LUT stream, 64 samples
    /// per sweep, stateful ones fall back to per-sample order. Accuracies
    /// are identical either way. The float path ignores `faults`.
    pub fn evaluate(
        &self,
        mlp: &Mlp,
        ds: &Dataset,
        idx: &[usize],
        faults: Option<&mut FaultPlan>,
    ) -> f64 {
        if self.mode == ForwardMode::Float {
            return Self::evaluate_with(mlp, ds, idx, |m, x| m.forward_float(x));
        }
        let correct = idx
            .iter()
            .zip(&fixed_traces(mlp, ds, idx, faults))
            .filter(|&(&s, t)| t.predicted() == ds.samples()[s].label)
            .count();
        correct as f64 / idx.len() as f64
    }

    /// Classification accuracy with an arbitrary forward function.
    pub fn evaluate_with<F>(mlp: &Mlp, ds: &Dataset, idx: &[usize], mut forward: F) -> f64
    where
        F: FnMut(&Mlp, &[f64]) -> ForwardTrace,
    {
        let correct = idx
            .iter()
            .filter(|&&s| {
                let sample = &ds.samples()[s];
                forward(mlp, &sample.features).predicted() == sample.label
            })
            .count();
        correct as f64 / idx.len() as f64
    }
}

/// A confusion matrix: `counts[actual][predicted]`.
///
/// # Example
///
/// ```
/// use dta_ann::ConfusionMatrix;
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert_eq!(cm.accuracy(), 2.0 / 3.0);
/// assert_eq!(cm.recall(0), 0.5);
/// assert_eq!(cm.precision(1), 0.5);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero.
    pub fn new(n_classes: usize) -> ConfusionMatrix {
        assert!(n_classes >= 1);
        ConfusionMatrix {
            counts: vec![vec![0; n_classes]; n_classes],
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Count of samples with the given actual and predicted classes.
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual][predicted]
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (diagonal mass).
    pub fn accuracy(&self) -> f64 {
        let diag: u64 = (0..self.n_classes()).map(|c| self.counts[c][c]).sum();
        diag as f64 / self.total().max(1) as f64
    }

    /// Recall of a class: correct / actual occurrences (0 if unseen).
    pub fn recall(&self, class: usize) -> f64 {
        let row: u64 = self.counts[class].iter().sum();
        if row == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / row as f64
        }
    }

    /// Precision of a class: correct / predicted occurrences (0 if never
    /// predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let col: u64 = self.counts.iter().map(|r| r[class]).sum();
        if col == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / col as f64
        }
    }

    /// Builds the matrix by classifying the selected samples of a
    /// dataset with the hardware (fixed-point) forward path, optionally
    /// through faulty silicon.
    ///
    /// The selection goes through [`Mlp::forward_faulty_batch`] (on an
    /// empty plan without faults), which runs one fused LUT stream 64
    /// rows per sweep when the fault set is patchable and preserves
    /// per-sample order otherwise.
    pub fn from_evaluation(
        mlp: &Mlp,
        ds: &Dataset,
        idx: &[usize],
        faults: Option<&mut FaultPlan>,
    ) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(ds.n_classes());
        for (&s, trace) in idx.iter().zip(&fixed_traces(mlp, ds, idx, faults)) {
            // Clamp predictions from wider physical outputs.
            let predicted = trace.predicted().min(ds.n_classes() - 1);
            cm.record(ds.samples()[s].label, predicted);
        }
        cm
    }
}

/// Fixed-point traces of the selected samples in one batched forward,
/// through `faults` or, without a plan, a defect-free array.
fn fixed_traces(
    mlp: &Mlp,
    ds: &Dataset,
    idx: &[usize],
    faults: Option<&mut FaultPlan>,
) -> Vec<ForwardTrace> {
    let mut clean = FaultPlan::new(mlp.topology().inputs);
    let rows: Vec<&[f64]> = idx
        .iter()
        .map(|&s| ds.samples()[s].features.as_slice())
        .collect();
    mlp.forward_faulty_batch(&rows, &SigmoidLut::new(), faults.unwrap_or(&mut clean))
}

/// Result of a k-fold cross-validation run.
#[derive(Clone, Debug, PartialEq)]
pub struct CvResult {
    /// Test accuracy of each fold.
    pub fold_accuracies: Vec<f64>,
}

impl CvResult {
    /// Mean accuracy across folds — the number every paper table/figure
    /// reports.
    pub fn mean(&self) -> f64 {
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
    }

    /// Sample standard deviation across folds.
    pub fn std_dev(&self) -> f64 {
        let m = self.mean();
        let n = self.fold_accuracies.len();
        if n < 2 {
            return 0.0;
        }
        (self
            .fold_accuracies
            .iter()
            .map(|a| (a - m).powi(2))
            .sum::<f64>()
            / (n - 1) as f64)
            .sqrt()
    }
}

/// K-fold cross-validation: trains a fresh network per fold (seeded
/// deterministically from `seed`) and reports held-out accuracies. The
/// same `faults` persist across folds (the silicon does not change when
/// the data split does); circuit state is reset between folds.
pub fn cross_validate(
    trainer: &Trainer,
    ds: &Dataset,
    hidden: usize,
    k: usize,
    seed: u64,
    mut faults: Option<&mut FaultPlan>,
) -> CvResult {
    let folds = ds.k_folds(k, seed);
    let topo = crate::mlp::Topology::new(ds.n_features(), hidden, ds.n_classes());
    let mut fold_accuracies = Vec::with_capacity(k);
    for (f, fold) in folds.iter().enumerate() {
        let mut mlp = Mlp::new(topo, seed ^ (f as u64) << 32 | 0x5eed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(f as u64));
        if let Some(plan) = faults.as_deref_mut() {
            plan.reset_state();
        }
        trainer.train(&mut mlp, ds, &fold.train, faults.as_deref_mut(), &mut rng);
        let acc = trainer.evaluate(&mlp, ds, &fold.test, faults.as_deref_mut());
        fold_accuracies.push(acc);
    }
    CvResult { fold_accuracies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_circuits::FaultModel;
    use dta_datasets::GaussianMixture;

    fn easy_dataset() -> Dataset {
        GaussianMixture::new(6, 2)
            .spread(0.08)
            .samples(120)
            .generate("easy", 99)
    }

    #[test]
    fn training_beats_majority_baseline() {
        let ds = easy_dataset();
        let trainer = Trainer::new(0.3, 0.2, 40, ForwardMode::Fixed);
        let topo = crate::mlp::Topology::new(6, 4, 2);
        let mut mlp = Mlp::new(topo, 1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let before = trainer.evaluate(&mlp, &ds, &idx, None);
        trainer.train(&mut mlp, &ds, &idx, None, &mut rng);
        let after = trainer.evaluate(&mlp, &ds, &idx, None);
        assert!(after > 0.9, "train acc {after} (was {before})");
        assert!(after > ds.majority_baseline());
    }

    #[test]
    fn float_and_fixed_modes_both_learn() {
        let ds = easy_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        for mode in [ForwardMode::Float, ForwardMode::Fixed] {
            let trainer = Trainer::new(0.3, 0.1, 30, mode);
            let mut mlp = Mlp::new(crate::mlp::Topology::new(6, 4, 2), 3);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            trainer.train(&mut mlp, &ds, &idx, None, &mut rng);
            let acc = trainer.evaluate(&mlp, &ds, &idx, None);
            assert!(acc > 0.9, "{mode:?} accuracy {acc}");
        }
    }

    #[test]
    fn cross_validation_partitions_and_reports() {
        let ds = easy_dataset();
        let trainer = Trainer::new(0.3, 0.1, 25, ForwardMode::Fixed);
        let cv = cross_validate(&trainer, &ds, 4, 5, 7, None);
        assert_eq!(cv.fold_accuracies.len(), 5);
        assert!(cv.mean() > 0.85, "cv mean {}", cv.mean());
        assert!(cv.std_dev() < 0.2);
        // Deterministic.
        let cv2 = cross_validate(&trainer, &ds, 4, 5, 7, None);
        assert_eq!(cv.fold_accuracies, cv2.fold_accuracies);
    }

    #[test]
    fn training_with_faults_recovers_accuracy() {
        // Inject a handful of hidden-layer defects, then verify that
        // retraining with the faulty forward path still learns the easy
        // task — the paper's central claim in miniature.
        let ds = easy_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut plan = FaultPlan::new(90);
        for _ in 0..3 {
            plan.inject_random_hidden(4, FaultModel::TransistorLevel, &mut rng);
        }
        let trainer = Trainer::new(0.3, 0.1, 30, ForwardMode::Fixed);
        let mut mlp = Mlp::new(crate::mlp::Topology::new(6, 4, 2), 5);
        trainer.train(&mut mlp, &ds, &idx, Some(&mut plan), &mut rng);
        let acc = trainer.evaluate(&mlp, &ds, &idx, Some(&mut plan));
        assert!(acc > 0.8, "post-retraining accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_rejected() {
        let _ = Trainer::new(0.0, 0.1, 10, ForwardMode::Float);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dataset_mismatch_rejected() {
        let ds = easy_dataset();
        let trainer = Trainer::new(0.1, 0.1, 1, ForwardMode::Float);
        let mut mlp = Mlp::new(crate::mlp::Topology::new(3, 2, 2), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        trainer.train(&mut mlp, &ds, &[0], None, &mut rng);
    }

    #[test]
    fn confusion_matrix_counts_and_metrics() {
        let ds = easy_dataset();
        let trainer = Trainer::new(0.3, 0.2, 40, ForwardMode::Fixed);
        let topo = crate::mlp::Topology::new(6, 4, 2);
        let mut mlp = Mlp::new(topo, 1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        trainer.train(&mut mlp, &ds, &idx, None, &mut rng);
        let cm = ConfusionMatrix::from_evaluation(&mlp, &ds, &idx, None);
        assert_eq!(cm.total() as usize, ds.len());
        // Accuracy agrees with the trainer's metric.
        let acc = trainer.evaluate(&mlp, &ds, &idx, None);
        assert!((cm.accuracy() - acc).abs() < 1e-12);
        for c in 0..2 {
            assert!((0.0..=1.0).contains(&cm.recall(c)));
            assert!((0.0..=1.0).contains(&cm.precision(c)));
        }
    }
}
