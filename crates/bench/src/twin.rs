//! The **blind-vs-pipeline twin-arm protocol** shared by the recovery
//! campaigns (`exp_recovery`, `exp_memfault`, `exp_systolic`).
//!
//! Every cell of those sweeps races twin copies of the same damaged,
//! commissioned accelerator through the recovery ladder: one *blind*
//! (retraining only — the paper's Figure 10 mechanism) and one with the
//! full pipeline (BIST diagnosis, then the topology's structural repair
//! rungs, then graceful degradation). Both arms share seeds and
//! budgets, so the pipeline arm can never end below the blind arm; the
//! campaigns assert that floor at every cell.
//!
//! This module holds the protocol once, generically over
//! [`Accel`], so a new topology gets the whole
//! campaign machinery — twin construction, state-clean diagnosis,
//! unified blind policy — by implementing the trait. A cell's four
//! accuracies journal as one checkpoint line through
//! [`resume`](crate::resume).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_ann::{Mlp, Topology};
use dta_core::accel::Accel;
use dta_core::recover::{recover, RecoveryReport};
use dta_core::{BistConfig, Diagnosis, RecoveryPolicy, RungBudget};
use dta_datasets::{Dataset, TaskSpec};

use crate::{pct, Journaled, JsonMap};

/// One cell's journaled accuracies. Only quantities that fit the
/// checkpoint journal live here — anything else would differ between a
/// fresh run and a resumed one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwinCell {
    /// Accuracy of a pristine third copy of the commissioning run.
    pub clean: f64,
    /// Accuracy of the damaged array before any recovery.
    pub faulty: f64,
    /// Accuracy after blind retraining only.
    pub blind: f64,
    /// Accuracy after the full diagnosis-guided pipeline.
    pub recovered: f64,
}

/// Everything one twin race produces beyond the journaled accuracies —
/// campaigns that score diagnosis quality or report final rungs read
/// these; checkpoint-replayed cells don't have them.
pub struct TwinRace<A> {
    /// The journaled accuracies.
    pub cell: TwinCell,
    /// The BIST diagnosis the pipeline arm recovered under.
    pub diagnosis: Diagnosis,
    /// The blind arm's ladder report.
    pub blind_report: RecoveryReport,
    /// The pipeline arm's ladder report.
    pub full_report: RecoveryReport,
    /// The pipeline arm itself, post-recovery (fault truth, routing).
    pub full_accel: A,
}

/// Reports a fatal campaign error as `bin: what (label): e` and exits
/// with status 1.
pub fn die(bin: &str, label: &str, what: &str, e: &dyn std::fmt::Display) -> ! {
    eprintln!("{bin}: {what} ({label}): {e}");
    std::process::exit(1);
}

/// Commissions an accelerator of any topology: maps the task's network
/// and clean-trains it on the training fold. Exits with status 2 when
/// the network does not fit, 1 when training fails.
pub fn commission<A: Accel>(
    bin: &str,
    mut accel: A,
    spec: &TaskSpec,
    ds: &Dataset,
    train: &[usize],
    epochs: usize,
    seed: u64,
) -> A {
    let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
    if let Err(e) = accel.map_network(Mlp::new(topo, seed)) {
        eprintln!("{bin}: task {} does not map: {e}", spec.name);
        std::process::exit(2);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if let Err(e) = accel.retrain(ds, train, spec.learning_rate, 0.1, epochs, &mut rng) {
        eprintln!("{bin}: commissioning train failed: {e}");
        std::process::exit(1);
    }
    accel
}

/// The recovery policy every cell of a twin sweep starts from:
/// `max_epochs` epochs and `wall_clock_ms` per retrain and remap rung,
/// at the task's learning rate.
pub fn base_policy(spec: &TaskSpec, max_epochs: usize, wall_clock_ms: u64) -> RecoveryPolicy {
    let budget = RungBudget {
        max_epochs,
        wall_clock_ms,
    };
    RecoveryPolicy {
        retrain: budget,
        remap: budget,
        learning_rate: spec.learning_rate,
        momentum: 0.1,
        ..RecoveryPolicy::default()
    }
}

/// Everything shared by every cell of a twin-arm sweep.
pub struct TwinSweep<'a> {
    /// The experiment binary, for error messages.
    pub bin: &'a str,
    /// The benchmark task.
    pub spec: &'a TaskSpec,
    /// Its dataset.
    pub ds: &'a Dataset,
    /// Commissioning (clean-training) epochs.
    pub epochs: usize,
    /// The pipeline arm's policy; each cell installs its own target
    /// accuracy and seed.
    pub policy_base: RecoveryPolicy,
    /// Accepted accuracy drop below the measured clean accuracy.
    pub target_drop: f64,
    /// Master seed.
    pub seed: u64,
}

impl TwinSweep<'_> {
    /// Runs cell `(idx, rep)` of the twin-arm protocol.
    ///
    /// `new` builds the topology; each arm is commissioned on it from
    /// the cell seed, and `damage` plants the cell's defects in the two
    /// damaged copies from the cell seed it is given (the twins must be
    /// bit-identical, so it must derive all randomness from that seed).
    /// A third, undamaged copy measures the clean reference. The
    /// pipeline arm is diagnosed with a state-clean BIST (leaving it
    /// bit-identical to its twin), then both arms recover: the blind
    /// arm under a unified blind policy (no remap, no memory repair)
    /// against an empty diagnosis, the pipeline arm under
    /// `policy_base` with `target_accuracy` set `target_drop` below the
    /// clean accuracy and the cell seed installed.
    pub fn race<A: Accel>(
        &self,
        label: &str,
        idx: usize,
        rep: usize,
        new: fn() -> A,
        damage: impl Fn(&mut A, u64),
    ) -> TwinRace<A> {
        let fail = |what: &str, e: &dyn std::fmt::Display| -> ! { die(self.bin, label, what, e) };
        let ds = self.ds;
        let cell_seed = self.seed ^ (idx as u64) << 24 ^ (rep as u64) << 8;
        let folds = ds.k_folds(5, self.seed ^ rep as u64);
        let fold = &folds[0];
        let commission = || {
            commission(
                self.bin,
                new(),
                self.spec,
                ds,
                &fold.train,
                self.epochs,
                cell_seed,
            )
        };
        let arm = || {
            let mut accel = commission();
            damage(&mut accel, cell_seed);
            accel
        };

        // Twin arrays with identical weights and identical damage: one
        // for the blind-retrain baseline, one for the full pipeline.
        let mut blind_accel = arm();
        let mut full_accel = arm();

        // Measured before injection would be ideal, but the twin
        // construction makes it available on a third copy for free.
        let clean = commission()
            .evaluate(ds, &fold.test)
            .unwrap_or_else(|e| fail("clean evaluation", &e));
        let faulty = full_accel
            .evaluate(ds, &fold.test)
            .unwrap_or_else(|e| fail("faulty evaluation", &e));

        // Detect and diagnose (pipeline arm only — the BIST is
        // state-clean, so it leaves the arm bit-identical to its twin).
        let diagnosis = full_accel
            .self_test(&BistConfig::default())
            .unwrap_or_else(|e| fail("selftest", &e));

        let policy = RecoveryPolicy {
            target_accuracy: (clean - self.target_drop).max(0.0),
            seed: cell_seed,
            ..self.policy_base.clone()
        };
        let blind_policy = RecoveryPolicy {
            structural: false,
            ..policy.clone()
        };
        let blind_report = recover(
            &mut blind_accel,
            ds,
            &fold.train,
            &fold.test,
            &Diagnosis::default(),
            &blind_policy,
        )
        .unwrap_or_else(|e| fail("blind recovery", &e));
        let full_report = recover(
            &mut full_accel,
            ds,
            &fold.train,
            &fold.test,
            &diagnosis,
            &policy,
        )
        .unwrap_or_else(|e| fail("pipeline recovery", &e));

        TwinRace {
            cell: TwinCell {
                clean,
                faulty,
                blind: blind_report.accuracy,
                recovered: full_report.accuracy,
            },
            diagnosis,
            blind_report,
            full_report,
            full_accel,
        }
    }
}

/// Asserts the shared-seed floor over a batch of cells: the pipeline
/// arm can never end below the blind arm.
pub fn assert_twin_floor(cells: &[TwinCell], label: &str) {
    for cell in cells {
        assert!(
            cell.recovered >= cell.blind,
            "pipeline arm below blind arm at {label} — shared-seed invariant broken"
        );
    }
}

impl TwinCell {
    /// The field-wise mean of a batch of cells (`NaN` fields when
    /// empty).
    pub fn mean(cells: &[TwinCell]) -> TwinCell {
        let field = |f: fn(&TwinCell) -> f64| mean(&cells.iter().map(f).collect::<Vec<_>>());
        TwinCell {
            clean: field(|c| c.clean),
            faulty: field(|c| c.faulty),
            blind: field(|c| c.blind),
            recovered: field(|c| c.recovered),
        }
    }

    /// The table columns `clean faulty blind recovered gain`, as
    /// percentages.
    pub fn columns(&self) -> String {
        format!(
            "{:>8}{:>8}{:>8}{:>10}{:>8}",
            pct(self.clean),
            pct(self.faulty),
            pct(self.blind),
            pct(self.recovered),
            pct(self.recovered - self.blind)
        )
    }
}

impl JsonMap {
    /// Adds a twin sweep's four curves, one point per cell mean, as
    /// `{prefix}clean`, `{prefix}faulty`, `{prefix}blind` and
    /// `{prefix}recovered`.
    pub fn twin_curves(self, prefix: &str, means: &[TwinCell]) -> JsonMap {
        let curve = |f: fn(&TwinCell) -> f64| means.iter().map(f).collect::<Vec<_>>();
        self.num_list(&format!("{prefix}clean"), &curve(|c| c.clean))
            .num_list(&format!("{prefix}faulty"), &curve(|c| c.faulty))
            .num_list(&format!("{prefix}blind"), &curve(|c| c.blind))
            .num_list(&format!("{prefix}recovered"), &curve(|c| c.recovered))
    }
}

impl Journaled for TwinCell {
    fn to_values(&self) -> Vec<Option<f64>> {
        [self.clean, self.faulty, self.blind, self.recovered]
            .map(Some)
            .to_vec()
    }

    fn from_values(values: &[Option<f64>]) -> Option<TwinCell> {
        match *values {
            [Some(clean), Some(faulty), Some(blind), Some(recovered)] => Some(TwinCell {
                clean,
                faulty,
                blind,
                recovered,
            }),
            _ => None,
        }
    }
}

/// Mean of a slice, `NaN` when empty (printed as `-` by the tables).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume;
    use dta_core::Checkpoint;

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[0.25, 0.75]), 0.5);
    }

    #[test]
    fn twin_journal_round_trips() {
        let dir = std::env::temp_dir().join(format!("dta-twin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let ck = Checkpoint::open(&path, "twin test v1").unwrap();
        let cell = TwinCell {
            clean: 0.95,
            faulty: 0.4,
            blind: 0.8,
            recovered: 0.9,
        };
        assert_eq!(
            resume("test", Some(&ck), "iris@systolic", 1, 0, || cell),
            cell
        );
        let ck = Checkpoint::open(&path, "twin test v1").unwrap();
        // The journaled cell replays without running, on one line.
        let replayed = resume("test", Some(&ck), "iris@systolic", 1, 0, || -> TwinCell {
            panic!("a journaled cell must not rerun")
        });
        assert_eq!(replayed, cell);
        assert_eq!(ck.completed(), 1);
        // A different key or index misses.
        assert!(ck.values("iris@spatial", 1, 0).is_none());
        assert!(ck.values("iris@systolic", 2, 0).is_none());
        assert_eq!(
            TwinCell::from_values(&[Some(1.0), None, Some(1.0), Some(1.0)]),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "shared-seed invariant")]
    fn floor_assert_fires() {
        assert_twin_floor(
            &[TwinCell {
                clean: 1.0,
                faulty: 0.5,
                blind: 0.9,
                recovered: 0.8,
            }],
            "defects=3",
        );
    }
}
