//! The topology-independent accelerator surface.
//!
//! The campaign, self-test and recovery pipelines were written against
//! the spatially expanded array of [`crate::accelerator`]; the systolic
//! MAC grid of `dta-systolic` is a second silicon organization that
//! must run under the *same* pipelines unchanged. [`Accel`] captures
//! exactly the contract those pipelines need:
//!
//! * network mapping and commissioning (`map_network`, `retrain`,
//!   `evaluate`),
//! * the BIST entry point (`self_test`),
//! * the recovery ladder's *structural* rungs — everything between the
//!   universal retrain-around-defect rung and the universal graceful-
//!   degradation rung is topology-specific (spare-lane remapping and
//!   memory repair on the spatial array; PE bypass and grid remap on
//!   the systolic array), so each topology advertises its own rung list
//!   and applies each rung itself (`structural_rungs`,
//!   `apply_structural_rung`),
//! * the label-free degradation estimate (`degradation`).
//!
//! [`crate::recover::recover`] and [`crate::selftest::run_selftest`]
//! are generic over this trait; every bench binary picks a topology by
//! picking a constructor.

use std::sync::atomic::AtomicBool;

use rand_chacha::ChaCha8Rng;

use dta_ann::{Layer, Mlp, Topology};
use dta_datasets::Dataset;
use dta_mem::{apply_repairs, march_cminus};

use crate::accelerator::{AccelError, Accelerator};
use crate::recover::{
    DegradationEstimate, MemRungStats, RecoveryError, RecoveryPolicy, RecoveryRung,
};
use crate::selftest::{BistConfig, Diagnosis};

/// What a topology-specific structural rung did to the silicon, and
/// whether the ladder should retrain afterwards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StructuralOutcome {
    /// Logical lanes re-routed onto spare hardware.
    pub remapped: usize,
    /// Hardware units forced fail-silent (masked/bypassed).
    pub masked: usize,
    /// Weight-store statistics, for memory-native rungs.
    pub memory: Option<MemRungStats>,
    /// `true` if the repair changed the network's routing and a retrain
    /// under the remap budget should follow; `false` for repairs that
    /// are transparent to the mapped weights (re-evaluate only).
    pub retrain_after: bool,
}

/// A defect-tolerant accelerator topology the detect/diagnose/recover
/// pipeline can drive.
///
/// Implementations: the spatially expanded array
/// ([`crate::accelerator::Accelerator`]) and the weight-stationary
/// systolic MAC grid (`dta_systolic::SystolicAccelerator`).
pub trait Accel {
    /// The physical geometry networks must fit inside.
    fn geometry(&self) -> Topology;

    /// The mapped network, if any.
    fn network(&self) -> Option<&Mlp>;

    /// Maps a network onto the silicon.
    ///
    /// # Errors
    ///
    /// [`AccelError::DoesNotFit`] when the topology exceeds the
    /// physical geometry.
    fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError>;

    /// Removes and returns the mapped network.
    fn unmap_network(&mut self) -> Option<Mlp>;

    /// Classification accuracy over the selected dataset rows, running
    /// every forward pass through the (possibly faulty) silicon.
    ///
    /// # Errors
    ///
    /// [`AccelError`] when no network is mapped, the selection is empty
    /// or the dataset does not match the mapped topology.
    fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError>;

    /// Companion-core retraining *through* the faulty silicon.
    ///
    /// # Errors
    ///
    /// [`AccelError`] on bad hyperparameters or a dataset/topology
    /// mismatch.
    #[allow(clippy::too_many_arguments)]
    fn retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError>;

    /// Runs the topology's built-in self-test, returning a diagnosis
    /// and leaving the fault state reset to power-on.
    ///
    /// # Errors
    ///
    /// Propagates [`AccelError`] from the diagnostic datapath (cannot
    /// occur for a well-formed accelerator).
    fn self_test(&mut self, cfg: &BistConfig) -> Result<Diagnosis, AccelError>;

    /// The topology-specific rungs the recovery ladder should try, in
    /// order, between the universal retrain and degrade rungs. The
    /// ladder skips them all on a blind-retrain policy
    /// ([`RecoveryPolicy::structural`] off), so implementations need
    /// not read it.
    fn structural_rungs(&self, policy: &RecoveryPolicy) -> Vec<RecoveryRung>;

    /// Applies one structural rung's repair.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::UnsupportedRung`] when the rung does not belong
    /// to this topology; [`RecoveryError::Accel`] on setup errors
    /// (aborts the ladder).
    fn apply_structural_rung(
        &mut self,
        rung: RecoveryRung,
        diagnosis: &Diagnosis,
        policy: &RecoveryPolicy,
    ) -> Result<StructuralOutcome, RecoveryError>;

    /// Label-free estimate of the residual serving accuracy given the
    /// still-active flagged sites — the graceful-degradation report.
    fn degradation(&mut self, diagnosis: &Diagnosis, baseline: f64) -> DegradationEstimate;

    /// Opens a traffic-batch window: until [`Accel::end_batch`], the
    /// array is serving and structural mutations (defect injection,
    /// weight-store attach/detach) must fail typed instead of mutating
    /// the silicon under in-flight rows. The mission runtime brackets
    /// every served batch with this pair.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] if a window is already open.
    fn begin_batch(&mut self) -> Result<(), AccelError>;

    /// Closes the traffic-batch window; idempotent.
    fn end_batch(&mut self);

    /// Lightweight incremental BIST probe for mission mode: screens
    /// only the units the serving stream actually exercises (the mapped
    /// network's routed lanes / active grid rows, plus the attached
    /// weight store), instead of the full-geometry power-on self-test.
    /// Checks `abort` as it walks, so a watchdog can stop a stalling
    /// probe: returns `Ok(None)` when aborted, with the fault state
    /// reset to power-on either way.
    ///
    /// # Errors
    ///
    /// Propagates [`AccelError`] from the diagnostic datapath (cannot
    /// occur for a well-formed accelerator).
    fn probe_touched(
        &mut self,
        cfg: &BistConfig,
        abort: &AtomicBool,
    ) -> Result<Option<Diagnosis>, AccelError>;

    /// Forces every unit the diagnosis implicates fail-silent (lane
    /// masks on the spatial array, PE bypasses on the systolic grid) —
    /// the terminal quarantine action once recovery retries are
    /// exhausted. Returns how many units were newly silenced; the
    /// stream keeps serving whatever the surviving fabric delivers.
    ///
    /// # Errors
    ///
    /// [`AccelError`] when a flagged unit does not exist in this
    /// topology (cannot occur for a diagnosis this accelerator
    /// produced).
    fn quarantine(&mut self, diagnosis: &Diagnosis) -> Result<usize, AccelError>;
}

impl Accel for Accelerator {
    fn geometry(&self) -> Topology {
        Accelerator::geometry(self)
    }

    fn network(&self) -> Option<&Mlp> {
        Accelerator::network(self)
    }

    fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError> {
        Accelerator::map_network(self, mlp)
    }

    fn unmap_network(&mut self) -> Option<Mlp> {
        Accelerator::unmap_network(self)
    }

    fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError> {
        Accelerator::evaluate(self, ds, idx)
    }

    fn retrain(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<(), AccelError> {
        Accelerator::retrain(self, ds, idx, learning_rate, momentum, epochs, rng)
    }

    fn self_test(&mut self, cfg: &BistConfig) -> Result<Diagnosis, AccelError> {
        crate::selftest::spatial_selftest(self, cfg)
    }

    fn structural_rungs(&self, _policy: &RecoveryPolicy) -> Vec<RecoveryRung> {
        let mut rungs = Vec::new();
        if self.memory().is_some() {
            rungs.extend([
                RecoveryRung::EccScrub,
                RecoveryRung::SpareSteer,
                RecoveryRung::Place,
            ]);
        }
        rungs.push(RecoveryRung::Remap);
        rungs
    }

    fn apply_structural_rung(
        &mut self,
        rung: RecoveryRung,
        diagnosis: &Diagnosis,
        _policy: &RecoveryPolicy,
    ) -> Result<StructuralOutcome, RecoveryError> {
        match rung {
            // ECC scrub: count what the code absorbs, pin down what it
            // cannot; transparent to the mapped weights.
            RecoveryRung::EccScrub => {
                let scrub = self
                    .memory_mut()
                    .ok_or(RecoveryError::Accel(AccelError::NoMemory))?
                    .scrub();
                Ok(StructuralOutcome {
                    memory: Some(MemRungStats {
                        words_scrubbed: scrub.words,
                        corrected: scrub.corrected,
                        uncorrectable: scrub.uncorrectable.len(),
                        ..MemRungStats::default()
                    }),
                    ..StructuralOutcome::default()
                })
            }
            // Spare steer: retire march-diagnosed rows/columns onto the
            // store's spares; also weight-transparent.
            RecoveryRung::SpareSteer => {
                let march = match &diagnosis.memory {
                    Some(m) => m.clone(),
                    None => march_cminus(
                        self.memory_mut()
                            .ok_or(RecoveryError::Accel(AccelError::NoMemory))?,
                    ),
                };
                let summary = apply_repairs(
                    self.memory_mut()
                        .ok_or(RecoveryError::Accel(AccelError::NoMemory))?,
                    &march,
                );
                Ok(StructuralOutcome {
                    memory: Some(MemRungStats {
                        rows_steered: summary.rows_steered,
                        cols_steered: summary.cols_steered,
                        unrepaired: summary.unrepaired,
                        ..MemRungStats::default()
                    }),
                    ..StructuralOutcome::default()
                })
            }
            // Sensitivity-aware placement changes the lane routing, so
            // a retrain to the new rows follows.
            RecoveryRung::Place => {
                let moved = crate::recover::place_by_sensitivity(self)?;
                Ok(StructuralOutcome {
                    memory: Some(MemRungStats {
                        moved,
                        ..MemRungStats::default()
                    }),
                    retrain_after: true,
                    ..StructuralOutcome::default()
                })
            }
            RecoveryRung::Remap => {
                let (remapped, masked) = crate::recover::install_remaps(self, diagnosis)?;
                Ok(StructuralOutcome {
                    remapped,
                    masked,
                    retrain_after: true,
                    ..StructuralOutcome::default()
                })
            }
            RecoveryRung::Retrain
            | RecoveryRung::Degrade
            | RecoveryRung::PeBypass
            | RecoveryRung::GridRemap => Err(RecoveryError::UnsupportedRung { rung }),
        }
    }

    fn degradation(&mut self, diagnosis: &Diagnosis, baseline: f64) -> DegradationEstimate {
        crate::recover::estimate_degradation(self, diagnosis, baseline)
    }

    fn begin_batch(&mut self) -> Result<(), AccelError> {
        Accelerator::begin_batch(self)
    }

    fn end_batch(&mut self) {
        Accelerator::end_batch(self)
    }

    fn probe_touched(
        &mut self,
        cfg: &BistConfig,
        abort: &AtomicBool,
    ) -> Result<Option<Diagnosis>, AccelError> {
        crate::selftest::spatial_probe_touched(self, cfg, abort)
    }

    fn quarantine(&mut self, diagnosis: &Diagnosis) -> Result<usize, AccelError> {
        let mut silenced = 0usize;
        for lane in diagnosis.faulty_hidden_lanes() {
            if !self.faults().is_masked(Layer::Hidden, lane) {
                self.mask_hidden(lane)?;
                silenced += 1;
            }
        }
        // Output-stage evidence (screened output lanes or flagged
        // output operators) is quarantined the same way; the forward
        // path gates masked output lanes to 0.
        let outputs = self.geometry().outputs;
        let out_lanes: std::collections::BTreeSet<usize> = diagnosis
            .screened_lanes
            .iter()
            .filter(|(l, _)| *l == Layer::Output)
            .map(|&(_, k)| k)
            .chain(
                diagnosis
                    .flagged
                    .iter()
                    .filter(|s| s.layer == Layer::Output)
                    .map(|s| s.neuron),
            )
            .collect();
        for k in out_lanes {
            if k >= outputs {
                return Err(AccelError::BadLane {
                    lane: k,
                    lanes: outputs,
                });
            }
            if !self.faults().is_masked(Layer::Output, k) {
                self.faults_mut().mask(Layer::Output, k);
                silenced += 1;
            }
        }
        Ok(silenced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_rung_list_follows_policy_and_memory() {
        let mut accel = Accelerator::new();
        let policy = RecoveryPolicy::default();
        // No memory attached: memory rungs are absent.
        assert_eq!(accel.structural_rungs(&policy), vec![RecoveryRung::Remap]);
        accel.attach_weight_memory().unwrap();
        assert_eq!(
            accel.structural_rungs(&policy),
            vec![
                RecoveryRung::EccScrub,
                RecoveryRung::SpareSteer,
                RecoveryRung::Place,
                RecoveryRung::Remap,
            ]
        );
        // The blind arm is decided by the ladder, not the topology: the
        // list does not depend on the policy.
        let blind = RecoveryPolicy {
            structural: false,
            ..policy.clone()
        };
        assert_eq!(
            accel.structural_rungs(&blind),
            accel.structural_rungs(&policy)
        );
    }

    #[test]
    fn foreign_rungs_are_rejected_with_a_typed_error() {
        let mut accel = Accelerator::new();
        let policy = RecoveryPolicy::default();
        let diag = Diagnosis::default();
        for rung in [RecoveryRung::PeBypass, RecoveryRung::GridRemap] {
            assert_eq!(
                accel.apply_structural_rung(rung, &diag, &policy),
                Err(RecoveryError::UnsupportedRung { rung })
            );
        }
    }
}
