//! The spatially expanded accelerator model.

use std::fmt;

use rand::Rng;

use dta_ann::{FaultPlan, ForwardMode, Mlp, Topology, Trainer, Velocity};
use dta_circuits::FaultModel;
use dta_datasets::Dataset;
use dta_fixed::SigmoidLut;
use dta_mem::{Activation, MemGeometry, WeightMemory};

use crate::cost::{CostModel, CostReport};

/// Errors returned by accelerator operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccelError {
    /// The logical network does not fit the physical array.
    DoesNotFit {
        /// The logical network dimensions.
        logical: Topology,
        /// The physical array dimensions.
        physical: Topology,
    },
    /// No network has been mapped yet.
    NoNetwork,
    /// An input row has the wrong number of attributes.
    WrongRowWidth {
        /// Attributes provided.
        got: usize,
        /// Attributes expected by the mapped network.
        expected: usize,
    },
    /// The mapped network has no outputs to classify with.
    NoOutputs,
    /// An empty sample selection was passed to an accuracy measurement.
    EmptySelection,
    /// A training label is outside the mapped network's output range.
    BadLabel {
        /// The offending label.
        label: usize,
        /// Output count of the mapped network.
        outputs: usize,
    },
    /// A training hyperparameter is out of range.
    BadHyperparameter {
        /// Which parameter, and why it was rejected.
        what: String,
    },
    /// A remap/mask referenced a lane outside the physical array.
    BadLane {
        /// The offending lane index.
        lane: usize,
        /// Physical lanes available.
        lanes: usize,
    },
    /// A remap targeted a physical lane another logical neuron already
    /// occupies.
    LaneInUse {
        /// The contested physical lane.
        lane: usize,
    },
    /// A memory operation was requested but no weight store is attached.
    NoMemory,
    /// A structural mutation (defect injection, weight-store attach or
    /// detach) was requested while a traffic batch is in flight. Fault
    /// arrival in mission mode must land on batch boundaries: the
    /// forward datapath assumes its fault plan and weight store are
    /// frozen for the duration of a batch, so mutating them mid-batch
    /// would silently corrupt in-flight rows.
    NotQuiescent {
        /// The rejected operation.
        op: &'static str,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::DoesNotFit { logical, physical } => {
                write!(f, "network {logical} does not fit the {physical} array")
            }
            AccelError::NoNetwork => write!(f, "no network mapped"),
            AccelError::WrongRowWidth { got, expected } => {
                write!(f, "row has {got} attributes, network expects {expected}")
            }
            AccelError::NoOutputs => write!(f, "mapped network has no outputs"),
            AccelError::EmptySelection => {
                write!(f, "cannot measure accuracy over an empty sample selection")
            }
            AccelError::BadLabel { label, outputs } => {
                write!(f, "label {label} out of range for {outputs} outputs")
            }
            AccelError::BadHyperparameter { what } => {
                write!(f, "bad hyperparameter: {what}")
            }
            AccelError::BadLane { lane, lanes } => {
                write!(f, "lane {lane} outside the physical array ({lanes} lanes)")
            }
            AccelError::LaneInUse { lane } => {
                write!(f, "physical lane {lane} is already occupied")
            }
            AccelError::NoMemory => write!(f, "no weight memory attached"),
            AccelError::NotQuiescent { op } => {
                write!(
                    f,
                    "{op} requires a quiescent array (traffic batch in flight)"
                )
            }
        }
    }
}

/// Validates training hyperparameters shared by [`Accelerator::retrain`],
/// [`Accelerator::online_step`] and every other [`crate::Accel`]
/// topology's retraining.
///
/// # Errors
///
/// [`AccelError::BadHyperparameter`] when the learning rate is not
/// positive and finite, the momentum is outside `[0, 1)`, or `epochs`
/// is zero.
pub fn check_hyperparameters(
    learning_rate: f64,
    momentum: f64,
    epochs: usize,
) -> Result<(), AccelError> {
    if !(learning_rate > 0.0 && learning_rate.is_finite()) {
        return Err(AccelError::BadHyperparameter {
            what: format!("learning rate {learning_rate} must be positive and finite"),
        });
    }
    if !(0.0..1.0).contains(&momentum) {
        return Err(AccelError::BadHyperparameter {
            what: format!("momentum {momentum} must be in [0, 1)"),
        });
    }
    if epochs == 0 {
        return Err(AccelError::BadHyperparameter {
            what: "epochs must be at least 1".to_string(),
        });
    }
    Ok(())
}

impl std::error::Error for AccelError {}

/// The spatially expanded hardware ANN accelerator (physical geometry
/// 90-10-10 by default): every neuron exists in silicon, every synapse
/// owns a multiplier and a weight latch, and data flows combinationally
/// from the input latches to the output latches.
///
/// A trained [`Mlp`] is *mapped* onto the array (its dimensions must fit
/// the physical geometry); rows are then processed through the Q6.10
/// datapath. Defects injected with [`Accelerator::inject_defects`]
/// persist in the silicon: retraining with
/// [`Accelerator::retrain`] runs the companion-core training loop
/// *through the faulty forward hardware*, which is how the paper's
/// networks learn to silence out defective elements.
///
/// # Example
///
/// ```
/// use dta_core::accelerator::Accelerator;
/// use dta_ann::{Mlp, Topology};
///
/// let mut accel = Accelerator::new();
/// accel.map_network(Mlp::new(Topology::new(13, 4, 3), 7)).unwrap();
/// let outputs = accel.process_row(&vec![0.5; 13]).unwrap();
/// assert_eq!(outputs.len(), 3);
/// ```
#[derive(Debug)]
pub struct Accelerator {
    physical: Topology,
    network: Option<Mlp>,
    faults: FaultPlan,
    lut: SigmoidLut,
    rows_processed: u64,
    in_flight: bool,
}

impl Accelerator {
    /// Builds the paper's 90-10-10 accelerator.
    pub fn new() -> Accelerator {
        Accelerator::with_geometry(Topology::accelerator())
    }

    /// Builds an accelerator with a custom physical geometry (used by
    /// the cost-model sweeps).
    pub fn with_geometry(physical: Topology) -> Accelerator {
        Accelerator {
            physical,
            network: None,
            faults: FaultPlan::new(physical.inputs),
            lut: SigmoidLut::new(),
            rows_processed: 0,
            in_flight: false,
        }
    }

    /// Opens a traffic-batch window. While the window is open the array
    /// is *not quiescent*: structural mutations (defect injection,
    /// weight-store attach/detach) return
    /// [`AccelError::NotQuiescent`] instead of silently changing the
    /// silicon under in-flight rows. The mission runtime brackets every
    /// served batch with `begin_batch`/[`Accelerator::end_batch`].
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] if a window is already open
    /// (unbalanced bracketing is a runtime logic error).
    pub fn begin_batch(&mut self) -> Result<(), AccelError> {
        if self.in_flight {
            return Err(AccelError::NotQuiescent { op: "begin_batch" });
        }
        self.in_flight = true;
        Ok(())
    }

    /// Closes the traffic-batch window opened by
    /// [`Accelerator::begin_batch`]; idempotent.
    pub fn end_batch(&mut self) {
        self.in_flight = false;
    }

    /// True while a traffic-batch window is open.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    fn ensure_quiescent(&self, op: &'static str) -> Result<(), AccelError> {
        if self.in_flight {
            return Err(AccelError::NotQuiescent { op });
        }
        Ok(())
    }

    /// The physical array dimensions.
    pub fn geometry(&self) -> Topology {
        self.physical
    }

    /// The currently mapped network, if any.
    pub fn network(&self) -> Option<&Mlp> {
        self.network.as_ref()
    }

    /// Maps a trained network onto the array. The logical dimensions
    /// must fit the physical geometry (larger networks go through
    /// [`crate::large::LargeNetworkMapper`]).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DoesNotFit`] if any logical dimension
    /// exceeds the physical one.
    pub fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError> {
        let l = mlp.topology();
        let p = self.physical;
        if l.inputs > p.inputs || l.hidden > p.hidden || l.outputs > p.outputs {
            return Err(AccelError::DoesNotFit {
                logical: l,
                physical: p,
            });
        }
        self.network = Some(mlp);
        Ok(())
    }

    /// Removes the mapped network, returning it.
    pub fn unmap_network(&mut self) -> Option<Mlp> {
        self.network.take()
    }

    /// Injects `n` random defects into the input/hidden stage of the
    /// silicon (the Figure 10 procedure) and returns their descriptions.
    /// Defects accumulate across calls.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight
    /// (see [`Accelerator::begin_batch`]): mid-stream fault arrival is
    /// legal only on batch boundaries.
    pub fn inject_defects<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        model: FaultModel,
        rng: &mut R,
    ) -> Result<Vec<String>, AccelError> {
        self.ensure_quiescent("inject_defects")?;
        let before = self.faults.len();
        for _ in 0..n {
            self.faults
                .inject_random_hidden(self.physical.hidden, model, rng);
        }
        Ok(self.faults.records()[before..].to_vec())
    }

    /// The accumulated fault state (for output-layer injections and
    /// inspection).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Shared view of the accumulated fault state (ground-truth sites,
    /// lane map, masks).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of injected defects.
    pub fn defect_count(&self) -> usize {
        self.faults.len()
    }

    /// Backs the weight latches with an explicit bit-cell weight store
    /// sized for this array's physical geometry (ECC on, the paper-scale
    /// spare budget). Every subsequent weight/bias fetch on the forward
    /// path round-trips through the array, so memory defects injected
    /// with [`Accelerator::inject_memory_defects`] corrupt computation
    /// exactly where a real SRAM fault would.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight:
    /// rerouting every weight fetch under in-flight rows would corrupt
    /// them silently.
    pub fn attach_weight_memory(&mut self) -> Result<(), AccelError> {
        self.ensure_quiescent("attach_weight_memory")?;
        let geom = MemGeometry::for_network(
            self.physical.inputs,
            self.physical.hidden,
            self.physical.outputs,
            true,
        );
        self.faults.attach_memory(WeightMemory::new(geom));
        Ok(())
    }

    /// Backs the weight latches with a caller-built array (custom
    /// geometry, ECC off, different spare budget).
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight.
    pub fn attach_weight_memory_with(&mut self, mem: WeightMemory) -> Result<(), AccelError> {
        self.ensure_quiescent("attach_weight_memory")?;
        self.faults.attach_memory(mem);
        Ok(())
    }

    /// Removes the attached weight store, returning it; weights revert
    /// to the ideal distributed latches.
    ///
    /// # Errors
    ///
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight.
    pub fn detach_weight_memory(&mut self) -> Result<Option<WeightMemory>, AccelError> {
        self.ensure_quiescent("detach_weight_memory")?;
        Ok(self.faults.detach_memory())
    }

    /// The attached weight store, if any.
    pub fn memory(&self) -> Option<&WeightMemory> {
        self.faults.memory()
    }

    /// Mutable access to the attached weight store (scrub, BIST,
    /// steering).
    pub fn memory_mut(&mut self) -> Option<&mut WeightMemory> {
        self.faults.memory_mut()
    }

    /// Injects `n` random bit-cell array defects (stuck cells, row and
    /// column failures, sense-amp/write-driver faults, bitline bridges)
    /// into the attached weight store and returns their descriptions.
    /// Defects accumulate across calls.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoMemory`] if no weight store is attached;
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight.
    pub fn inject_memory_defects<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Result<Vec<String>, AccelError> {
        self.ensure_quiescent("inject_memory_defects")?;
        let mem = self.faults.memory_mut().ok_or(AccelError::NoMemory)?;
        let before = mem.records().len();
        mem.inject_many(n, activation, rng);
        Ok(mem.records()[before..].to_vec())
    }

    /// Injects memory defects at `density` faulty cells per data cell
    /// (the Figure-10-style sweep axis), returning the descriptions.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoMemory`] if no weight store is attached;
    /// [`AccelError::NotQuiescent`] while a traffic batch is in flight.
    pub fn inject_memory_density<R: Rng + ?Sized>(
        &mut self,
        density: f64,
        activation: Activation,
        rng: &mut R,
    ) -> Result<Vec<String>, AccelError> {
        self.ensure_quiescent("inject_memory_defects")?;
        let mem = self.faults.memory_mut().ok_or(AccelError::NoMemory)?;
        let before = mem.records().len();
        mem.inject_density(density, activation, rng);
        Ok(mem.records()[before..].to_vec())
    }

    /// Number of injected memory defects (0 when no store is attached).
    pub fn memory_defect_count(&self) -> usize {
        self.faults.memory().map_or(0, |m| m.defects().len())
    }

    /// Routes logical hidden neuron `logical` of the mapped network onto
    /// physical lane `physical` — the spare-lane repair of the recovery
    /// ladder. An identity remap clears a previous override.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] if nothing is mapped;
    /// [`AccelError::BadLane`] if either index is outside the mapped
    /// network (logical) or the physical array (physical);
    /// [`AccelError::LaneInUse`] if another logical neuron already
    /// routes to `physical`.
    pub fn remap_hidden(&mut self, logical: usize, physical: usize) -> Result<(), AccelError> {
        let topo = self
            .network
            .as_ref()
            .ok_or(AccelError::NoNetwork)?
            .topology();
        if logical >= topo.hidden {
            return Err(AccelError::BadLane {
                lane: logical,
                lanes: topo.hidden,
            });
        }
        if physical >= self.physical.hidden {
            return Err(AccelError::BadLane {
                lane: physical,
                lanes: self.physical.hidden,
            });
        }
        if (0..topo.hidden).any(|j| j != logical && self.faults.hidden_lane(j) == physical) {
            return Err(AccelError::LaneInUse { lane: physical });
        }
        self.faults.remap_hidden(logical, physical);
        Ok(())
    }

    /// Gates a physical hidden lane's output to 0 (fail-silent masking,
    /// the fallback when no spare lane is available).
    ///
    /// # Errors
    ///
    /// [`AccelError::BadLane`] if `lane` is outside the physical array.
    pub fn mask_hidden(&mut self, lane: usize) -> Result<(), AccelError> {
        if lane >= self.physical.hidden {
            return Err(AccelError::BadLane {
                lane,
                lanes: self.physical.hidden,
            });
        }
        self.faults.mask(dta_ann::Layer::Hidden, lane);
        Ok(())
    }

    /// Processes one row and scans out the full forward trace (hidden
    /// activations included) — the diagnostic access a self-test uses,
    /// as opposed to the outputs-only [`Accelerator::process_row`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Accelerator::process_row`].
    pub fn diagnose_row(&mut self, row: &[f64]) -> Result<dta_ann::ForwardTrace, AccelError> {
        let mlp = self.network.as_ref().ok_or(AccelError::NoNetwork)?;
        let expected = mlp.topology().inputs;
        if row.len() != expected {
            return Err(AccelError::WrongRowWidth {
                got: row.len(),
                expected,
            });
        }
        self.rows_processed += 1;
        Ok(mlp.forward_faulty(row, &self.lut, &mut self.faults))
    }

    /// Processes one input row through the (possibly faulty) datapath,
    /// returning the output activations.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] if nothing is mapped,
    /// [`AccelError::WrongRowWidth`] on a width mismatch.
    pub fn process_row(&mut self, row: &[f64]) -> Result<Vec<f64>, AccelError> {
        let mlp = self.network.as_ref().ok_or(AccelError::NoNetwork)?;
        let expected = mlp.topology().inputs;
        if row.len() != expected {
            return Err(AccelError::WrongRowWidth {
                got: row.len(),
                expected,
            });
        }
        self.rows_processed += 1;
        let trace = mlp.forward_faulty(row, &self.lut, &mut self.faults);
        Ok(trace.output)
    }

    /// Classifies one input row (argmax of the outputs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Accelerator::process_row`], plus
    /// [`AccelError::NoOutputs`] for a degenerate zero-output network.
    pub fn classify(&mut self, row: &[f64]) -> Result<usize, AccelError> {
        let outputs = self.process_row(row)?;
        outputs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .ok_or(AccelError::NoOutputs)
    }

    /// Companion-core retraining: trains the mapped network on `ds`
    /// with the forward pass running through this accelerator's faulty
    /// silicon, so the network adapts to the defects.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] if nothing is mapped;
    /// [`AccelError::BadHyperparameter`] for a non-positive or
    /// non-finite learning rate, a momentum outside `[0, 1)`, or zero
    /// epochs.
    pub fn retrain<R: Rng + ?Sized>(
        &mut self,
        ds: &Dataset,
        idx: &[usize],
        learning_rate: f64,
        momentum: f64,
        epochs: usize,
        rng: &mut R,
    ) -> Result<(), AccelError> {
        check_hyperparameters(learning_rate, momentum, epochs)?;
        let mut mlp = self.network.take().ok_or(AccelError::NoNetwork)?;
        let trainer = Trainer::new(learning_rate, momentum, epochs, ForwardMode::Fixed);
        self.faults.reset_state();
        trainer.train(&mut mlp, ds, idx, Some(&mut self.faults), rng);
        self.network = Some(mlp);
        Ok(())
    }

    /// One on-line training step (§IV's continuous-training scenario:
    /// smart sensors, industrial control): a single SGD update from one
    /// labelled row, forward through the faulty silicon.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] if nothing is mapped;
    /// [`AccelError::WrongRowWidth`] on a width mismatch;
    /// [`AccelError::BadLabel`] if `label` is not below the network's
    /// output count; [`AccelError::BadHyperparameter`] for a
    /// non-positive or non-finite learning rate.
    pub fn online_step(
        &mut self,
        row: &[f64],
        label: usize,
        learning_rate: f64,
    ) -> Result<(), AccelError> {
        check_hyperparameters(learning_rate, 0.0, 1)?;
        let mut mlp = self.network.take().ok_or(AccelError::NoNetwork)?;
        let topo = mlp.topology();
        if row.len() != topo.inputs {
            self.network = Some(mlp);
            return Err(AccelError::WrongRowWidth {
                got: row.len(),
                expected: topo.inputs,
            });
        }
        if label >= topo.outputs {
            self.network = Some(mlp);
            return Err(AccelError::BadLabel {
                label,
                outputs: topo.outputs,
            });
        }
        // Momentum is meaningless for isolated steps: one update from
        // zero velocities.
        let trainer = Trainer::new(learning_rate, 0.0, 1, ForwardMode::Fixed);
        let trace = mlp.forward_faulty(row, &self.lut, &mut self.faults);
        trainer.step(&mut mlp, row, label, &trace, &mut Velocity::new(topo));
        self.rows_processed += 1;
        self.network = Some(mlp);
        Ok(())
    }

    /// Classification accuracy over the selected samples.
    ///
    /// # Errors
    ///
    /// [`AccelError::NoNetwork`] if nothing is mapped;
    /// [`AccelError::EmptySelection`] if `idx` is empty (the mean would
    /// be 0/0); any [`Accelerator::classify`] error for the individual
    /// rows (e.g. a dataset whose rows don't match the mapped network).
    pub fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError> {
        let Some(mlp) = self.network.as_ref() else {
            return Err(AccelError::NoNetwork);
        };
        if idx.is_empty() {
            return Err(AccelError::EmptySelection);
        }
        let expected = mlp.topology().inputs;
        let mut rows: Vec<&[f64]> = Vec::with_capacity(idx.len());
        for &s in idx {
            let row = ds.samples()[s].features.as_slice();
            if row.len() != expected {
                return Err(AccelError::WrongRowWidth {
                    got: row.len(),
                    expected,
                });
            }
            rows.push(row);
        }
        if mlp.topology().outputs == 0 {
            return Err(AccelError::NoOutputs);
        }
        // Batched faulty forward: 64 rows per circuit settle when the
        // fault set vectorizes, the scalar sample order otherwise.
        let traces = mlp.forward_faulty_batch(&rows, &self.lut, &mut self.faults);
        self.rows_processed += idx.len() as u64;
        let correct = idx
            .iter()
            .zip(&traces)
            .filter(|&(&s, t)| t.predicted() == ds.samples()[s].label)
            .count();
        Ok(correct as f64 / idx.len() as f64)
    }

    /// Number of rows processed since construction.
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// The 90 nm cost report for this array's geometry.
    pub fn cost(&self) -> CostReport {
        CostModel::calibrated_90nm().report(self.physical)
    }

    /// Total energy spent so far (nJ), from the cost model.
    pub fn energy_spent_nj(&self) -> f64 {
        self.cost().energy_per_row_nj * self.rows_processed as f64
    }
}

impl Default for Accelerator {
    fn default() -> Accelerator {
        Accelerator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_datasets::suite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mapping_validates_dimensions() {
        let mut accel = Accelerator::new();
        assert!(accel
            .map_network(Mlp::new(Topology::new(90, 10, 10), 1))
            .is_ok());
        let err = accel
            .map_network(Mlp::new(Topology::new(91, 10, 10), 1))
            .unwrap_err();
        assert!(matches!(err, AccelError::DoesNotFit { .. }));
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn processing_requires_network_and_width() {
        let mut accel = Accelerator::new();
        assert_eq!(accel.process_row(&[0.0; 4]), Err(AccelError::NoNetwork));
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 2), 2))
            .unwrap();
        assert!(matches!(
            accel.process_row(&[0.0; 5]),
            Err(AccelError::WrongRowWidth {
                got: 5,
                expected: 4
            })
        ));
        let out = accel.process_row(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(accel.rows_processed(), 1);
        assert!(accel.energy_spent_nj() > 0.0);
    }

    #[test]
    fn train_inject_retrain_recovers_accuracy() {
        // The paper's core loop in miniature: train clean, inject
        // defects, observe degradation risk, retrain on the faulty
        // silicon, recover.
        let ds = suite::load("iris").unwrap();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);

        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 8, 3), 11))
            .unwrap();
        accel.retrain(&ds, &idx, 0.2, 0.1, 40, &mut rng).unwrap();
        let clean_acc = accel.evaluate(&ds, &idx).unwrap();
        assert!(clean_acc > 0.85, "clean accuracy {clean_acc}");

        let reports = accel
            .inject_defects(5, FaultModel::TransistorLevel, &mut rng)
            .unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(accel.defect_count(), 5);

        accel.retrain(&ds, &idx, 0.2, 0.1, 40, &mut rng).unwrap();
        let faulty_acc = accel.evaluate(&ds, &idx).unwrap();
        assert!(
            faulty_acc > clean_acc - 0.15,
            "retraining should recover: clean {clean_acc}, faulty {faulty_acc}"
        );
    }

    #[test]
    fn unmap_returns_network() {
        let mut accel = Accelerator::new();
        let mlp = Mlp::new(Topology::new(4, 3, 2), 9);
        accel.map_network(mlp.clone()).unwrap();
        assert_eq!(accel.unmap_network(), Some(mlp));
        assert!(accel.network().is_none());
    }

    #[test]
    fn remap_and_mask_validate_lanes() {
        let mut accel = Accelerator::new();
        assert_eq!(accel.remap_hidden(0, 9), Err(AccelError::NoNetwork));
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 2), 2))
            .unwrap();
        // Logical index bounded by the mapped network, physical by the
        // array.
        assert_eq!(
            accel.remap_hidden(3, 9),
            Err(AccelError::BadLane { lane: 3, lanes: 3 })
        );
        assert_eq!(
            accel.remap_hidden(0, 10),
            Err(AccelError::BadLane {
                lane: 10,
                lanes: 10
            })
        );
        accel.remap_hidden(0, 9).unwrap();
        assert_eq!(accel.faults().hidden_lane(0), 9);
        // Lane 9 is now occupied; identity lanes of other neurons too.
        assert_eq!(
            accel.remap_hidden(1, 9),
            Err(AccelError::LaneInUse { lane: 9 })
        );
        assert_eq!(
            accel.remap_hidden(1, 2),
            Err(AccelError::LaneInUse { lane: 2 })
        );
        accel.remap_hidden(0, 0).unwrap(); // identity clears
        assert!(accel.faults().remapped_hidden().is_empty());
        assert_eq!(
            accel.mask_hidden(10),
            Err(AccelError::BadLane {
                lane: 10,
                lanes: 10
            })
        );
        accel.mask_hidden(2).unwrap();
        assert!(accel.faults().is_masked(dta_ann::Layer::Hidden, 2));
    }

    #[test]
    fn diagnose_row_scans_out_hidden_lanes() {
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 2), 2))
            .unwrap();
        let trace = accel.diagnose_row(&[0.1, 0.4, -0.2, 0.9]).unwrap();
        assert_eq!(trace.hidden.len(), 3);
        assert_eq!(trace.output.len(), 2);
        assert_eq!(accel.rows_processed(), 1);
        assert!(matches!(
            accel.diagnose_row(&[0.0; 5]),
            Err(AccelError::WrongRowWidth { .. })
        ));
    }

    #[test]
    fn cost_matches_geometry() {
        let accel = Accelerator::new();
        let report = accel.cost();
        assert!((report.area_mm2 - 9.02).abs() < 1e-9);
    }

    #[test]
    fn online_training_improves_over_steps() {
        // Continuous training: stream labelled rows one at a time and
        // watch accuracy climb without any batch retraining.
        let ds = suite::load("iris").unwrap();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 8, 3), 17))
            .unwrap();
        let before = accel.evaluate(&ds, &idx).unwrap();
        for pass in 0..14 {
            for s in 0..ds.len() {
                let sample = &ds.samples()[(s * 7 + pass) % ds.len()];
                accel
                    .online_step(&sample.features, sample.label, 0.3)
                    .unwrap();
            }
        }
        let after = accel.evaluate(&ds, &idx).unwrap();
        assert!(
            after > before + 0.2 && after > 0.8,
            "online training {before} -> {after}"
        );
    }

    #[test]
    fn online_step_trains_a_single_output_network() {
        // One output neuron is a valid mapping; the step must update
        // the weights, not trip a two-class dataset requirement.
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 1), 1))
            .unwrap();
        let before = accel.network().unwrap().clone();
        assert_eq!(accel.online_step(&[0.1, 0.2, 0.3, 0.4], 0, 0.3), Ok(()));
        assert_ne!(accel.network().unwrap(), &before, "weights did not move");
        assert_eq!(accel.rows_processed(), 1);
    }

    #[test]
    fn online_step_validates() {
        let mut accel = Accelerator::new();
        assert_eq!(
            accel.online_step(&[0.0; 4], 0, 0.1),
            Err(AccelError::NoNetwork)
        );
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 2), 0))
            .unwrap();
        assert!(matches!(
            accel.online_step(&[0.0; 5], 0, 0.1),
            Err(AccelError::WrongRowWidth { .. })
        ));
        // Network survives a failed step.
        assert!(accel.network().is_some());
        // Out-of-range labels are an error, not a panic.
        assert_eq!(
            accel.online_step(&[0.0; 4], 2, 0.1),
            Err(AccelError::BadLabel {
                label: 2,
                outputs: 2
            })
        );
        assert!(accel.network().is_some());
        // Bad learning rates are rejected before any state is touched.
        for lr in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                accel.online_step(&[0.0; 4], 0, lr),
                Err(AccelError::BadHyperparameter { .. })
            ));
        }
    }

    #[test]
    fn retrain_rejects_bad_hyperparameters() {
        let ds = suite::load("iris").unwrap();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 3), 5))
            .unwrap();
        for (lr, momentum, epochs) in [
            (0.0, 0.1, 10),
            (f64::NAN, 0.1, 10),
            (0.2, -0.1, 10),
            (0.2, 1.0, 10),
            (0.2, 0.1, 0),
        ] {
            let err = accel
                .retrain(&ds, &idx, lr, momentum, epochs, &mut rng)
                .unwrap_err();
            assert!(
                matches!(err, AccelError::BadHyperparameter { .. }),
                "({lr}, {momentum}, {epochs}) gave {err}"
            );
            // The mapped network is untouched by a rejected call.
            assert!(accel.network().is_some());
        }
    }

    #[test]
    fn transparent_weight_memory_leaves_evaluation_bit_identical() {
        // A/B guard mirroring the LUT-backend one: attaching a
        // defect-free weight store must not move a single output bit,
        // so the memory fault surface costs nothing when unused.
        let ds = suite::load("iris").unwrap();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(21);

        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 8, 3), 11))
            .unwrap();
        accel.retrain(&ds, &idx, 0.2, 0.1, 30, &mut rng).unwrap();

        let baseline: Vec<Vec<f64>> = ds
            .samples()
            .iter()
            .map(|s| accel.process_row(&s.features).unwrap())
            .collect();
        let base_acc = accel.evaluate(&ds, &idx).unwrap();

        accel.attach_weight_memory().unwrap();
        assert!(accel.memory().unwrap().is_transparent());
        assert_eq!(accel.memory_defect_count(), 0);
        let routed: Vec<Vec<f64>> = ds
            .samples()
            .iter()
            .map(|s| accel.process_row(&s.features).unwrap())
            .collect();
        assert_eq!(baseline, routed);
        assert_eq!(accel.evaluate(&ds, &idx).unwrap(), base_acc);

        let mem = accel.detach_weight_memory().unwrap().unwrap();
        assert!(mem.geometry().ecc);
        assert!(accel.memory().is_none());
    }

    #[test]
    fn memory_defects_require_attachment_and_accumulate() {
        let mut accel = Accelerator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            accel.inject_memory_defects(1, dta_mem::Activation::Permanent, &mut rng),
            Err(AccelError::NoMemory)
        );
        accel.attach_weight_memory().unwrap();
        let reports = accel
            .inject_memory_defects(4, dta_mem::Activation::Permanent, &mut rng)
            .unwrap();
        assert_eq!(reports.len(), 4);
        let more = accel
            .inject_memory_density(1e-4, dta_mem::Activation::Permanent, &mut rng)
            .unwrap();
        assert!(!more.is_empty());
        assert_eq!(accel.memory_defect_count(), 4 + more.len());
        assert!(!accel.memory().unwrap().is_transparent());
    }

    #[test]
    fn structural_mutation_mid_batch_is_a_typed_error() {
        // Satellite fix: every structural mutation used to assume
        // quiescence silently; now a traffic-batch window makes the
        // assumption explicit and violations typed.
        let mut accel = Accelerator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        accel.begin_batch().unwrap();
        assert!(accel.in_flight());
        // Re-opening an open window is itself a bracketing bug.
        assert_eq!(
            accel.begin_batch(),
            Err(AccelError::NotQuiescent { op: "begin_batch" })
        );
        assert_eq!(
            accel.inject_defects(1, FaultModel::TransistorLevel, &mut rng),
            Err(AccelError::NotQuiescent {
                op: "inject_defects"
            })
        );
        assert_eq!(
            accel.attach_weight_memory(),
            Err(AccelError::NotQuiescent {
                op: "attach_weight_memory"
            })
        );
        assert_eq!(
            accel.detach_weight_memory().map(|m| m.is_some()),
            Err(AccelError::NotQuiescent {
                op: "detach_weight_memory"
            })
        );
        assert_eq!(
            accel.inject_memory_defects(1, dta_mem::Activation::Permanent, &mut rng),
            Err(AccelError::NotQuiescent {
                op: "inject_memory_defects"
            })
        );
        assert_eq!(accel.defect_count(), 0, "rejected mutations left no state");
        // Serving is unaffected by the window; mutation works again
        // once it closes.
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 2), 2))
            .unwrap();
        accel.process_row(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        accel.end_batch();
        assert!(!accel.in_flight());
        accel
            .inject_defects(1, FaultModel::TransistorLevel, &mut rng)
            .unwrap();
        assert_eq!(accel.defect_count(), 1);
        let err = AccelError::NotQuiescent {
            op: "inject_defects",
        };
        assert!(err.to_string().contains("quiescent"));
    }

    #[test]
    fn evaluate_rejects_empty_selection_and_bad_rows() {
        let ds = suite::load("iris").unwrap();
        let mut accel = Accelerator::new();
        accel
            .map_network(Mlp::new(Topology::new(4, 3, 3), 5))
            .unwrap();
        assert_eq!(accel.evaluate(&ds, &[]), Err(AccelError::EmptySelection));
        // A dataset whose rows don't match the mapped network surfaces
        // as an error instead of a panic.
        let wide = Dataset::new(
            "wide",
            6,
            2,
            vec![dta_datasets::Sample {
                features: vec![0.0; 6],
                label: 0,
            }],
        );
        assert!(matches!(
            accel.evaluate(&wide, &[0]),
            Err(AccelError::WrongRowWidth {
                got: 6,
                expected: 4
            })
        ));
    }
}
