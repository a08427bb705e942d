//! Defect-injection campaigns: the experiment logic behind Figures 10
//! and 11, plus the transient/intermittent variants.
//!
//! The campaign engine is resilient and resumable: each grid cell runs
//! under [`std::panic::catch_unwind`], so a panicking cell degrades to
//! a reported [`CellOutcome::Failed`] (after one retry with the same
//! derived seed) instead of killing the whole run, and finished cells
//! can be journaled to a [`Checkpoint`]
//! so an interrupted campaign resumes where it left off and reproduces
//! the uninterrupted curve byte-for-byte.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{cross_validate, FaultPlan, ForwardMode, Mlp, Topology, Trainer};
use dta_circuits::{Activation, FaultModel};
use dta_datasets::{Dataset, TaskSpec};
use dta_fixed::SigmoidLut;

use crate::checkpoint::Checkpoint;
use crate::parallel::parallel_map;

/// Parameters of a defect-tolerance campaign. The paper uses 100
/// repetitions, 10 folds and the Table II epochs; those are expensive,
/// so the config scales every axis (the experiment binaries expose
/// flags, the defaults keep turnaround in minutes).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignConfig {
    /// Defect counts to sweep (the Figure 10 x-axis, 0..27).
    pub defect_counts: Vec<usize>,
    /// Independent repetitions per defect count (random defect sets).
    pub repetitions: usize,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Training epochs; `None` uses the task's Table II value.
    pub epochs: Option<usize>,
    /// Fault model to inject with.
    pub model: FaultModel,
    /// Fault lifetime of every injected defect: permanent (the paper's
    /// Figure 10), transient (active each evaluation with probability
    /// `p`), or intermittent (a duty cycle in evaluations).
    pub activation: Activation,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the (defect-count × repetition) grid:
    /// `1` = serial on the calling thread, `0` = all available cores.
    /// Results are bit-identical for every value — each cell's RNG is
    /// derived from `seed` and the cell coordinates alone.
    pub threads: usize,
    /// Fault-injection hooks for the engine itself: cells listed here
    /// panic on their first `attempts` runs. Used to test (and
    /// demonstrate) panic isolation, retry, and checkpoint recovery;
    /// leave empty for real campaigns.
    pub chaos: Vec<ChaosCell>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            defect_counts: (0..=27).step_by(3).collect(),
            repetitions: 3,
            folds: 3,
            epochs: Some(40),
            model: FaultModel::TransistorLevel,
            activation: Activation::Permanent,
            seed: 0xD7A,
            threads: 1,
            chaos: Vec::new(),
        }
    }
}

impl CampaignConfig {
    /// Stable description of every knob that determines cell results,
    /// used as the checkpoint-journal header. `threads` is excluded
    /// (results are thread-invariant) and so is `chaos` (an engine
    /// test hook, not part of the experiment).
    pub fn fingerprint(&self) -> String {
        format!(
            "v1 seed={:#x} counts={:?} reps={} folds={} epochs={:?} model={} activation={}",
            self.seed,
            self.defect_counts,
            self.repetitions,
            self.folds,
            self.epochs,
            self.model,
            self.activation,
        )
    }
}

/// A campaign-engine fault-injection hook: the cell at
/// `(defects, rep)` panics on its first `attempts` runs, succeeding
/// afterwards. With `attempts == 1` the built-in retry recovers the
/// cell; with `attempts >= 2` it is reported as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosCell {
    /// Defect count coordinate of the targeted cell.
    pub defects: usize,
    /// Repetition coordinate of the targeted cell.
    pub rep: usize,
    /// How many consecutive runs of the cell panic.
    pub attempts: usize,
}

/// Errors surfaced by the campaign engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// `repetitions` was zero — the grid would be empty.
    NoRepetitions,
    /// The configured fault lifetime is invalid (transient probability
    /// outside `[0, 1]`, or an intermittent duty cycle longer than its
    /// period). Caught before any cell runs, so a bad flag fails fast
    /// instead of panicking mid-grid.
    BadActivation {
        /// The underlying [`dta_circuits::ActivationError`] message.
        detail: String,
    },
    /// A checkpoint journal could not be opened, parsed, or written,
    /// or belongs to a different campaign configuration.
    Checkpoint {
        /// Journal file path.
        path: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoRepetitions => {
                write!(f, "campaign needs at least one repetition")
            }
            CampaignError::BadActivation { detail } => {
                write!(f, "invalid fault activation: {detail}")
            }
            CampaignError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// What happened to one (defect count × repetition) grid cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell trained and evaluated normally.
    Completed {
        /// Cross-validated accuracy.
        accuracy: f64,
        /// Whether the first attempt panicked and the retry succeeded.
        retried: bool,
    },
    /// Both the first attempt and the retry panicked; the campaign
    /// degraded gracefully instead of aborting.
    Failed {
        /// The panic payload (message) of the final attempt.
        panic: String,
    },
}

/// One point of the Figure 10 curve.
#[derive(Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Number of injected defects.
    pub defects: usize,
    /// Mean cross-validated accuracy over completed repetitions.
    pub mean_accuracy: f64,
    /// Worst completed repetition.
    pub min_accuracy: f64,
    /// Best completed repetition.
    pub max_accuracy: f64,
    /// Repetitions that panicked twice and were dropped from the
    /// statistics (0 in a healthy run).
    pub failed: usize,
    /// Repetitions that panicked once and succeeded on retry.
    pub retried: usize,
}

/// Derives the per-cell RNG seed from the master seed and the cell
/// coordinates alone — this is what makes campaigns thread-invariant
/// and resumable. The packing keeps every `(defect_count, rep)` pair
/// in the documented ranges (counts ≤ 300, reps ≤ 1500) on a distinct
/// stream.
fn cell_seed(master: u64, n_defects: usize, rep: usize) -> u64 {
    master ^ (n_defects as u64) << 24 ^ (rep as u64) << 8
}

/// Runs the Figure 10 experiment for one task: for each defect count,
/// draw random defect sets in the input/hidden stage of the 90-synapse
/// silicon, retrain through the faulty forward path, and measure
/// cross-validated accuracy. "The N defects of a network remain the same
/// while the network is re-trained and tested."
///
/// Equivalent to [`defect_tolerance_curve_resumable`] without a
/// checkpoint.
///
/// # Errors
///
/// [`CampaignError::NoRepetitions`] if `cfg.repetitions == 0`.
pub fn defect_tolerance_curve(
    spec: &TaskSpec,
    cfg: &CampaignConfig,
) -> Result<Vec<CurvePoint>, CampaignError> {
    defect_tolerance_curve_resumable(spec, cfg, None)
}

/// [`defect_tolerance_curve`] with checkpoint/resume: cells already in
/// the journal are skipped and their recorded outcomes replayed, cells
/// computed now are appended as they finish. A campaign killed
/// mid-grid and restarted with the same journal reproduces the
/// uninterrupted curve byte-for-byte.
///
/// # Errors
///
/// [`CampaignError::NoRepetitions`] if `cfg.repetitions == 0`. Journal
/// errors are reported by [`Checkpoint::open`], not here.
pub fn defect_tolerance_curve_resumable(
    spec: &TaskSpec,
    cfg: &CampaignConfig,
    checkpoint: Option<&Checkpoint>,
) -> Result<Vec<CurvePoint>, CampaignError> {
    let reps = cfg.repetitions;
    if reps == 0 {
        return Err(CampaignError::NoRepetitions);
    }
    cfg.activation
        .validate()
        .map_err(|e| CampaignError::BadActivation {
            detail: e.to_string(),
        })?;
    let ds = spec.dataset();
    let epochs = cfg.epochs.unwrap_or(spec.epochs);
    let trainer = Trainer::new(spec.learning_rate, 0.1, epochs, ForwardMode::Fixed);

    // Flatten the (defect-count × repetition) grid into independent
    // cells and fan them over the worker pool. Each cell seeds its own
    // ChaCha8 stream from the master seed and its coordinates — the
    // derivation is byte-for-byte the one the serial loop always used,
    // so any thread count reproduces the serial accuracies exactly.
    let journal_error: std::sync::Mutex<Option<CampaignError>> = std::sync::Mutex::new(None);
    let outcomes = parallel_map(cfg.defect_counts.len() * reps, cfg.threads, |cell| {
        let n_defects = cfg.defect_counts[cell / reps];
        let rep = cell % reps;
        if let Some(ck) = checkpoint {
            if let Some(done) = ck.lookup(spec.name, n_defects, rep) {
                return done;
            }
        }
        let outcome = run_cell_resilient(spec, cfg, &trainer, &ds, n_defects, rep);
        if let Some(ck) = checkpoint {
            // A cell whose result cannot be journaled poisons resume:
            // stash the first failure and abort the campaign after the
            // in-flight cells drain, rather than continuing with silent
            // resume-state loss.
            if let Err(e) = ck.record(spec.name, n_defects, rep, &outcome) {
                // A worker that panicked while holding this mutex only
                // poisons the flag, not the data: recover the guard
                // rather than double-panicking on the hot path.
                journal_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(e);
            }
        }
        outcome
    });
    if let Some(e) = journal_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }

    Ok(cfg
        .defect_counts
        .iter()
        .zip(outcomes.chunks_exact(reps))
        .map(|(&n_defects, cell_outcomes)| {
            let mut accs = Vec::with_capacity(reps);
            let mut failed = 0;
            let mut retried = 0;
            for outcome in cell_outcomes {
                match outcome {
                    CellOutcome::Completed {
                        accuracy,
                        retried: r,
                    } => {
                        accs.push(*accuracy);
                        retried += usize::from(*r);
                    }
                    CellOutcome::Failed { .. } => failed += 1,
                }
            }
            let (mean, min, max) = if accs.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                (
                    accs.iter().sum::<f64>() / accs.len() as f64,
                    accs.iter().copied().fold(f64::INFINITY, f64::min),
                    accs.iter().copied().fold(0.0, f64::max),
                )
            };
            CurvePoint {
                defects: n_defects,
                mean_accuracy: mean,
                min_accuracy: min,
                max_accuracy: max,
                failed,
                retried,
            }
        })
        .collect())
}

/// Runs one grid cell under panic isolation: a first attempt, and on
/// panic one retry with the same derived seed (transient environmental
/// failures recover; deterministic ones fail again and are reported).
fn run_cell_resilient(
    spec: &TaskSpec,
    cfg: &CampaignConfig,
    trainer: &Trainer,
    ds: &Dataset,
    n_defects: usize,
    rep: usize,
) -> CellOutcome {
    let mut last_panic = String::new();
    for attempt in 0..2 {
        match catch_unwind(AssertUnwindSafe(|| {
            campaign_cell(spec, cfg, trainer, ds, n_defects, rep, attempt)
        })) {
            Ok(accuracy) => {
                return CellOutcome::Completed {
                    accuracy,
                    retried: attempt > 0,
                }
            }
            Err(payload) => last_panic = panic_message(payload),
        }
    }
    CellOutcome::Failed { panic: last_panic }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// One grid cell of the Figure 10 campaign: draw the defect set for
/// `(n_defects, rep)`, retrain through the faulty forward path, return
/// the cross-validated accuracy.
fn campaign_cell(
    spec: &TaskSpec,
    cfg: &CampaignConfig,
    trainer: &Trainer,
    ds: &Dataset,
    n_defects: usize,
    rep: usize,
    attempt: usize,
) -> f64 {
    for chaos in &cfg.chaos {
        if chaos.defects == n_defects && chaos.rep == rep && attempt < chaos.attempts {
            panic!("chaos: injected panic in cell ({n_defects}, {rep}) attempt {attempt}");
        }
    }
    let mut plan = draw_plan(spec, cfg, n_defects, rep);
    let cv = cross_validate(
        trainer,
        ds,
        spec.hidden,
        cfg.folds,
        cfg.seed ^ rep as u64,
        Some(&mut plan),
    );
    cv.mean()
}

/// The defect set of campaign cell `(n_defects, rep)`: a pure function
/// of the cell's coordinates and the master seed.
fn draw_plan(spec: &TaskSpec, cfg: &CampaignConfig, n_defects: usize, rep: usize) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(cfg.seed, n_defects, rep));
    let mut plan = FaultPlan::new(90);
    for _ in 0..n_defects {
        plan.inject_random_hidden_with(spec.hidden, cfg.model, cfg.activation, &mut rng);
    }
    plan
}

/// Where a Figure 11 defect was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputSite {
    /// The final accumulation adder of an output neuron.
    Adder,
    /// The activation unit of an output neuron.
    Activation,
}

/// One Figure 11 measurement: a single output-layer defect, retrained,
/// with the resulting accuracy and the error amplitude it induces at the
/// faulty neuron.
#[derive(Clone, Debug, PartialEq)]
pub struct AmplitudePoint {
    /// Mean absolute error at the faulty neuron's adder output (or the
    /// activation output for activation-unit defects), over test rows.
    pub amplitude: f64,
    /// Cross-validated accuracy after retraining with the defect.
    pub accuracy: f64,
    /// Which unit was hit.
    pub site: OutputSite,
    /// Affected output neuron.
    pub neuron: usize,
}

/// Runs the Figure 11 experiment for one task: single random defects in
/// the output layer's most sensitive units (final adders, activation
/// functions), retraining, and per-row error-amplitude measurement.
///
/// Repetitions are independent cells and fan out over `threads` workers
/// (`1` = serial, `0` = all cores); as with
/// [`defect_tolerance_curve`], every thread count yields bit-identical
/// points because each repetition's RNG is derived from `seed ^ rep`
/// alone.
pub fn output_amplitude_curve(
    spec: &TaskSpec,
    repetitions: usize,
    epochs: Option<usize>,
    seed: u64,
    threads: usize,
) -> Vec<AmplitudePoint> {
    let ds = spec.dataset();
    let epochs = epochs.unwrap_or(spec.epochs);
    let trainer = Trainer::new(spec.learning_rate, 0.1, epochs, ForwardMode::Fixed);
    let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
    let lut = SigmoidLut::new();

    parallel_map(repetitions, threads, |rep| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (rep as u64) << 16);
        let neuron = rng.random_range(0..ds.n_classes());
        let site = if rng.random_bool(0.5) {
            OutputSite::Adder
        } else {
            OutputSite::Activation
        };
        let mut plan = FaultPlan::new(90);
        match site {
            OutputSite::Adder => {
                // The final accumulation step feeds the activation
                // directly.
                plan.inject_output_adder(neuron, spec.hidden - 1, &mut rng)
            }
            OutputSite::Activation => plan.inject_output_activation(neuron, &mut rng),
        }

        // Single train/test split (the fold structure is immaterial for
        // the amplitude measurement; accuracy still uses held-out data).
        let folds = ds.k_folds(5, seed ^ rep as u64);
        let fold = &folds[0];
        let mut mlp = Mlp::new(topo, seed ^ 0xA5A5 ^ rep as u64);
        plan.reset_state();
        trainer.train(&mut mlp, &ds, &fold.train, Some(&mut plan), &mut rng);
        let accuracy = trainer.evaluate(&mlp, &ds, &fold.test, Some(&mut plan));

        // Amplitude: |faulty - healthy| at the defective unit, averaged
        // over the test rows. The faulty passes run batched (64 rows per
        // circuit settle when the plan vectorizes); the healthy reference
        // never touches the plan, so the per-sample fault sequence is
        // identical to interleaved scalar evaluation.
        let rows: Vec<&[f64]> = fold
            .test
            .iter()
            .map(|&s| ds.samples()[s].features.as_slice())
            .collect();
        let faulty_traces = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
        let mut total = 0.0;
        for (&s, faulty) in fold.test.iter().zip(&faulty_traces) {
            let healthy = mlp.forward_fixed(&ds.samples()[s].features, &lut);
            total += match site {
                OutputSite::Adder => (faulty.output_pre[neuron] - healthy.output_pre[neuron]).abs(),
                OutputSite::Activation => (faulty.output[neuron] - healthy.output[neuron]).abs(),
            };
        }
        AmplitudePoint {
            amplitude: total / fold.test.len() as f64,
            accuracy,
            site,
            neuron,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_datasets::suite;
    use dta_mem::{MemGeometry, WeightMemory};
    use std::path::PathBuf;

    fn tiny_cfg() -> CampaignConfig {
        CampaignConfig {
            defect_counts: vec![0, 8],
            repetitions: 1,
            folds: 2,
            epochs: Some(8),
            model: FaultModel::TransistorLevel,
            activation: Activation::Permanent,
            seed: 7,
            threads: 1,
            chaos: Vec::new(),
        }
    }

    fn iris() -> TaskSpec {
        suite::specs()
            .into_iter()
            .find(|s| s.name == "iris")
            .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dta_campaign_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn curve_has_one_point_per_count() {
        let curve = defect_tolerance_curve(&iris(), &tiny_cfg()).unwrap();
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].defects, 0);
        assert_eq!(curve[1].defects, 8);
        for p in &curve {
            assert!((0.0..=1.0).contains(&p.mean_accuracy));
            assert!(p.min_accuracy <= p.mean_accuracy);
            assert!(p.mean_accuracy <= p.max_accuracy);
            assert_eq!(p.failed, 0);
            assert_eq!(p.retried, 0);
        }
    }

    #[test]
    fn zero_repetitions_is_an_error_not_a_panic() {
        let cfg = CampaignConfig {
            repetitions: 0,
            ..tiny_cfg()
        };
        assert_eq!(
            defect_tolerance_curve(&iris(), &cfg),
            Err(CampaignError::NoRepetitions)
        );
    }

    #[test]
    fn zero_defects_trains_well_even_tiny() {
        let cfg = CampaignConfig {
            defect_counts: vec![0],
            repetitions: 1,
            folds: 3,
            epochs: Some(25),
            ..tiny_cfg()
        };
        let curve = defect_tolerance_curve(&iris(), &cfg).unwrap();
        assert!(
            curve[0].mean_accuracy > 0.8,
            "clean iris accuracy {}",
            curve[0].mean_accuracy
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = defect_tolerance_curve(&iris(), &tiny_cfg()).unwrap();
        let b = defect_tolerance_curve(&iris(), &tiny_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn amplitude_experiment_produces_points() {
        let spec = iris();
        let points = output_amplitude_curve(&spec, 3, Some(8), 11, 1);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.amplitude >= 0.0);
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!(p.neuron < 3);
        }
        // Determinism.
        assert_eq!(points, output_amplitude_curve(&spec, 3, Some(8), 11, 1));
    }

    /// Batch evaluation on the campaign's own draws: for every
    /// activation class and both fault surfaces, the fused-or-scalar
    /// `forward_faulty_batch` must equal row-by-row `forward_faulty`
    /// from the same fault state, on plans that fuse and plans that
    /// do not.
    #[test]
    fn batch_forward_matches_scalar_on_campaign_draws() {
        let spec = iris();
        let ds = spec.dataset();
        let lut = SigmoidLut::new();
        let rows: Vec<&[f64]> = ds.samples().iter().map(|s| s.features.as_slice()).collect();
        let mlp = Mlp::new(
            Topology::new(ds.n_features(), spec.hidden, ds.n_classes()),
            3,
        );
        let (mut fused, mut scalar) = (0, 0);
        for activation in [
            Activation::Permanent,
            Activation::Transient {
                per_eval_probability: 0.3,
            },
            Activation::Intermittent { period: 4, duty: 2 },
        ] {
            let cfg = CampaignConfig {
                activation,
                defect_counts: vec![1, 2, 4, 8],
                repetitions: 3,
                ..tiny_cfg()
            };
            for store in [false, true] {
                for &n in &cfg.defect_counts {
                    for rep in 0..cfg.repetitions {
                        let mut plan = draw_plan(&spec, &cfg, n, rep);
                        if store {
                            // A defective SEC-DED weight store behind
                            // the same operator draw.
                            let geom =
                                MemGeometry::for_network(90, spec.hidden, ds.n_classes(), true);
                            let mut mem = WeightMemory::new(geom);
                            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(0x5707, n, rep));
                            mem.inject_many(n, activation, &mut rng);
                            plan.attach_memory(mem);
                        }
                        if plan.vectorizable() {
                            fused += 1;
                        } else {
                            scalar += 1;
                        }
                        plan.reset_state();
                        let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
                        plan.reset_state();
                        let want: Vec<_> = rows
                            .iter()
                            .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
                            .collect();
                        assert_eq!(batch, want, "{activation:?} store={store} n={n} rep={rep}");
                    }
                }
            }
        }
        assert!(fused > 0 && scalar > 0, "{fused} fused, {scalar} scalar");
    }

    #[test]
    fn parallel_curve_is_bit_identical_to_serial() {
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.repetitions = 2;
        let serial = defect_tolerance_curve(&spec, &cfg).unwrap();
        for threads in [2, 4] {
            cfg.threads = threads;
            let parallel = defect_tolerance_curve(&spec, &cfg).unwrap();
            // PartialEq on f64 fields: bit-identical, not approximately
            // equal.
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn dynamic_activation_curves_are_bit_identical_across_threads() {
        let spec = iris();
        for activation in [
            Activation::Transient {
                per_eval_probability: 0.3,
            },
            Activation::Intermittent { period: 4, duty: 2 },
        ] {
            let mut cfg = CampaignConfig {
                defect_counts: vec![0, 6],
                repetitions: 2,
                epochs: Some(6),
                activation,
                ..tiny_cfg()
            };
            let serial = defect_tolerance_curve(&spec, &cfg).unwrap();
            for threads in [2, 4] {
                cfg.threads = threads;
                let parallel = defect_tolerance_curve(&spec, &cfg).unwrap();
                assert_eq!(serial, parallel, "{activation} threads={threads}");
            }
        }
    }

    #[test]
    fn dynamic_activation_changes_the_curve() {
        // Same defect sites, different lifetimes → different results (a
        // transient defect at p=0.05 is mostly dormant, a permanent one
        // is always on). Accuracies are coarsely quantized (correct
        // counts over small folds), so compare whole curves over
        // several repetitions rather than a single mean.
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.defect_counts = vec![10, 14];
        cfg.repetitions = 2;
        let permanent = defect_tolerance_curve(&spec, &cfg).unwrap();
        cfg.activation = Activation::Transient {
            per_eval_probability: 0.05,
        };
        let transient = defect_tolerance_curve(&spec, &cfg).unwrap();
        assert_ne!(
            permanent, transient,
            "activation class should alter results"
        );
    }

    #[test]
    fn invalid_activation_is_a_typed_campaign_error() {
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.activation = Activation::Transient {
            per_eval_probability: 1.5,
        };
        match defect_tolerance_curve(&spec, &cfg).unwrap_err() {
            CampaignError::BadActivation { detail } => {
                assert!(detail.contains("outside [0, 1]"), "{detail}");
            }
            other => panic!("expected BadActivation, got {other:?}"),
        }
        cfg.activation = Activation::Intermittent { period: 2, duty: 5 };
        assert!(matches!(
            defect_tolerance_curve(&spec, &cfg),
            Err(CampaignError::BadActivation { .. })
        ));
    }

    #[test]
    fn zero_duty_intermittent_matches_the_clean_curve() {
        // duty=0 never activates any defect, and the cross-validation
        // fold/init seeds depend only on (seed, rep) — so every defect
        // count must reproduce the clean (0-defect) accuracy exactly.
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.defect_counts = vec![0, 5, 12];
        cfg.activation = Activation::Intermittent { period: 6, duty: 0 };
        let curve = defect_tolerance_curve(&spec, &cfg).unwrap();
        for p in &curve {
            assert_eq!(
                p.mean_accuracy.to_bits(),
                curve[0].mean_accuracy.to_bits(),
                "count {} diverged from the clean curve",
                p.defects
            );
        }
    }

    #[test]
    fn full_duty_intermittent_matches_the_permanent_curve() {
        // duty == period is "always active" — behaviorally a permanent
        // defect. Injecting a non-permanent defect draws one extra RNG
        // word (its activation-stream seed), shifting every later
        // site, so the site sets coincide with the permanent draw only
        // for counts 0 and 1 — which is exactly where byte-identity is
        // asserted.
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.defect_counts = vec![0, 1];
        cfg.repetitions = 2;
        let permanent = defect_tolerance_curve(&spec, &cfg).unwrap();
        cfg.activation = Activation::Intermittent { period: 3, duty: 3 };
        let full_duty = defect_tolerance_curve(&spec, &cfg).unwrap();
        for (p, q) in permanent.iter().zip(&full_duty) {
            assert_eq!(
                p.mean_accuracy.to_bits(),
                q.mean_accuracy.to_bits(),
                "count {} diverged from the permanent curve",
                p.defects
            );
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn unwritable_journal_aborts_the_campaign_with_a_typed_error() {
        // Point the journal writer at /dev/full (every write ENOSPCs):
        // the campaign must surface a typed checkpoint error instead of
        // finishing with silently lost resume state.
        let spec = iris();
        let cfg = tiny_cfg();
        let path = tmp("unwritable");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::open(&path, &cfg.fingerprint()).unwrap();
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        ck.replace_writer_for_tests(full);
        let err = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_seeds_are_distinct_over_documented_ranges() {
        // The `<< 24` / `<< 8` packing keeps every (defect_count, rep)
        // pair on its own RNG stream for counts ≤ 300 and reps ≤ 1500
        // (well past any plausible campaign; the paper uses 27 × 100).
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 0xD7A] {
            seen.clear();
            for d in 0..=300usize {
                for rep in 0..=1500usize {
                    assert!(
                        seen.insert(cell_seed(master, d, rep)),
                        "seed collision at master={master:#x} defects={d} rep={rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn panicking_cell_degrades_to_failed_point() {
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.chaos = vec![ChaosCell {
            defects: 8,
            rep: 0,
            attempts: 2, // first run and retry both panic
        }];
        let curve = defect_tolerance_curve(&spec, &cfg).unwrap();
        assert_eq!(curve[0].failed, 0);
        assert_eq!(curve[1].failed, 1);
        // The only repetition failed → no statistics for that point.
        assert_eq!(curve[1].mean_accuracy, 0.0);
    }

    #[test]
    fn panicking_cell_is_retried_once_and_recovers() {
        let spec = iris();
        let clean = defect_tolerance_curve(&spec, &tiny_cfg()).unwrap();
        let mut cfg = tiny_cfg();
        cfg.chaos = vec![ChaosCell {
            defects: 8,
            rep: 0,
            attempts: 1, // only the first run panics
        }];
        let curve = defect_tolerance_curve(&spec, &cfg).unwrap();
        assert_eq!(curve[1].retried, 1);
        assert_eq!(curve[1].failed, 0);
        // The retry uses the same derived seed, so the accuracy is the
        // clean run's, bit for bit.
        assert_eq!(curve[1].mean_accuracy, clean[1].mean_accuracy);
    }

    #[test]
    fn interrupted_campaign_resumes_byte_identical() {
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.repetitions = 2;
        let fingerprint = cfg.fingerprint();
        let baseline = defect_tolerance_curve(&spec, &cfg).unwrap();

        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        {
            let ck = Checkpoint::open(&path, &fingerprint).unwrap();
            let full = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap();
            assert_eq!(full, baseline, "checkpointing must not change results");
            assert_eq!(ck.completed(), 0, "lookups hit nothing on a fresh journal");
        }

        // Simulate a campaign killed mid-grid: keep the header and the
        // first two journaled cells, drop the rest.
        let journal = std::fs::read_to_string(&path).unwrap();
        let truncated: Vec<&str> = journal.lines().take(3).collect();
        assert_eq!(truncated.len(), 3, "expected header + >=2 cells");
        std::fs::write(&path, format!("{}\n", truncated.join("\n"))).unwrap();

        let ck = Checkpoint::open(&path, &fingerprint).unwrap();
        assert_eq!(ck.completed(), 2);
        let resumed = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap();
        assert_eq!(resumed, baseline, "resumed curve must be byte-identical");

        // And a second resume from the now-complete journal recomputes
        // nothing yet still reproduces the curve.
        drop(ck);
        let ck = Checkpoint::open(&path, &fingerprint).unwrap();
        assert_eq!(ck.completed(), 4);
        let replayed = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap();
        assert_eq!(replayed, baseline);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_are_journaled_and_replayed_on_resume() {
        let spec = iris();
        let mut cfg = tiny_cfg();
        cfg.chaos = vec![ChaosCell {
            defects: 8,
            rep: 0,
            attempts: 2,
        }];
        let path = tmp("failed");
        let _ = std::fs::remove_file(&path);
        let fingerprint = cfg.fingerprint(); // chaos excluded from fingerprint
        {
            let ck = Checkpoint::open(&path, &fingerprint).unwrap();
            let curve = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap();
            assert_eq!(curve[1].failed, 1);
        }
        // Re-run with chaos disabled: the journaled failure is replayed
        // rather than recomputed (resume never silently un-fails cells).
        cfg.chaos.clear();
        let ck = Checkpoint::open(&path, &fingerprint).unwrap();
        let curve = defect_tolerance_curve_resumable(&spec, &cfg, Some(&ck)).unwrap();
        assert_eq!(curve[1].failed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_fingerprint_guards_config_changes() {
        let cfg = tiny_cfg();
        // Pinned byte for byte: journals written by earlier builds must
        // keep opening.
        assert_eq!(
            cfg.fingerprint(),
            "v1 seed=0x7 counts=[0, 8] reps=1 folds=2 epochs=Some(8) \
             model=transistor-level activation=permanent"
        );
        let path = tmp("guard");
        let _ = std::fs::remove_file(&path);
        drop(Checkpoint::open(&path, &cfg.fingerprint()).unwrap());
        let changed = CampaignConfig {
            seed: 8,
            ..tiny_cfg()
        };
        let err = Checkpoint::open(&path, &changed.fingerprint()).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err}");
        // Thread count is *not* part of the fingerprint.
        let rethreaded = CampaignConfig {
            threads: 4,
            ..tiny_cfg()
        };
        assert!(Checkpoint::open(&path, &rethreaded.fingerprint()).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
