//! `Timed<A>`: a transparent [`Accel`] wrapper that records a span
//! around every call the mission runtime and the recovery ladder make
//! into the accelerator, and counts the work those calls did.
//!
//! It forwards every method unchanged, so a mission run through it is
//! bit-identical to one on the bare accelerator (checked by the
//! `mission_outcome_is_identical_through_the_wrapper` test and on every
//! mission run of the benchmark).

use std::sync::atomic::AtomicBool;

use rand_chacha::ChaCha8Rng;

use dta_ann::{Mlp, Topology};
use dta_core::accel::{Accel, StructuralOutcome};
use dta_core::recover::{DegradationEstimate, RecoveryError, RecoveryPolicy, RecoveryRung};
use dta_core::selftest::{BistConfig, Diagnosis};
use dta_core::AccelError;
use dta_datasets::Dataset;

use crate::trace::span;

/// Which engine family sits behind the wrapper; it picks the layer the
/// serving spans are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The spatially expanded array (`dta-core` over `dta-ann`).
    Spatial,
    /// The systolic MAC grid (`dta-systolic`).
    Systolic,
}

/// Work the wrapped calls did, counted where it happened.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub batch_calls: u64,
    pub batch_rows: u64,
    pub full_calls: u64,
    pub retrain_calls: u64,
    pub retrain_epochs: u64,
    pub probes: u64,
    pub probe_mismatches: u64,
    pub probe_timeouts: u64,
    pub probe_memory_dirty: u64,
    pub rungs: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.batch_calls += o.batch_calls;
        self.batch_rows += o.batch_rows;
        self.full_calls += o.full_calls;
        self.retrain_calls += o.retrain_calls;
        self.retrain_epochs += o.retrain_epochs;
        self.probes += o.probes;
        self.probe_mismatches += o.probe_mismatches;
        self.probe_timeouts += o.probe_timeouts;
        self.probe_memory_dirty += o.probe_memory_dirty;
        self.rungs += o.rungs;
    }
}

pub struct Timed<A> {
    inner: A,
    engine: Engine,
    in_batch: bool,
    pub counters: Counters,
}

impl<A: Accel> Timed<A> {
    pub fn new(inner: A, engine: Engine) -> Timed<A> {
        Timed {
            inner,
            engine,
            in_batch: false,
            counters: Counters::default(),
        }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    pub fn into_inner(self) -> A {
        self.inner
    }

    fn evaluate_span(&self) -> &'static str {
        match (self.engine, self.in_batch) {
            (Engine::Spatial, true) => "core.accel.evaluate.batch",
            (Engine::Spatial, false) => "core.accel.evaluate.full",
            (Engine::Systolic, true) => "systolic.evaluate",
            (Engine::Systolic, false) => "systolic.evaluate.full",
        }
    }
}

impl<A: Accel> Accel for Timed<A> {
    fn geometry(&self) -> Topology {
        self.inner.geometry()
    }

    fn network(&self) -> Option<&Mlp> {
        self.inner.network()
    }

    fn map_network(&mut self, mlp: Mlp) -> Result<(), AccelError> {
        self.inner.map_network(mlp)
    }

    fn unmap_network(&mut self) -> Option<Mlp> {
        self.inner.unmap_network()
    }

    fn evaluate(&mut self, ds: &Dataset, idx: &[usize]) -> Result<f64, AccelError> {
        if self.in_batch {
            self.counters.batch_calls += 1;
            self.counters.batch_rows += idx.len() as u64;
        } else {
            self.counters.full_calls += 1;
        }
        let name = self.evaluate_span();
        span(name, || self.inner.evaluate(ds, idx))
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
        self.counters.retrain_calls += 1;
        self.counters.retrain_epochs += epochs as u64;
        span("core.accel.retrain", || {
            self.inner
                .retrain(ds, idx, learning_rate, momentum, epochs, rng)
        })
    }

    fn self_test(&mut self, cfg: &BistConfig) -> Result<Diagnosis, AccelError> {
        self.inner.self_test(cfg)
    }

    fn structural_rungs(&self, policy: &RecoveryPolicy) -> Vec<RecoveryRung> {
        self.inner.structural_rungs(policy)
    }

    fn apply_structural_rung(
        &mut self,
        rung: RecoveryRung,
        diagnosis: &Diagnosis,
        policy: &RecoveryPolicy,
    ) -> Result<StructuralOutcome, RecoveryError> {
        self.counters.rungs += 1;
        span("core.accel.structural_rung", || {
            self.inner.apply_structural_rung(rung, diagnosis, policy)
        })
    }

    fn degradation(&mut self, diagnosis: &Diagnosis, baseline: f64) -> DegradationEstimate {
        span("core.accel.degradation", || {
            self.inner.degradation(diagnosis, baseline)
        })
    }

    fn begin_batch(&mut self) -> Result<(), AccelError> {
        let r = self.inner.begin_batch();
        self.in_batch = r.is_ok();
        r
    }

    fn end_batch(&mut self) {
        self.in_batch = false;
        self.inner.end_batch();
    }

    fn probe_touched(
        &mut self,
        cfg: &BistConfig,
        abort: &AtomicBool,
    ) -> Result<Option<Diagnosis>, AccelError> {
        self.counters.probes += 1;
        let r = span("core.selftest.probe", || {
            self.inner.probe_touched(cfg, abort)
        });
        match &r {
            Ok(None) => self.counters.probe_timeouts += 1,
            Ok(Some(d)) if d.detected() => {
                self.counters.probe_mismatches += 1;
                if d.memory.as_ref().is_some_and(|m| !m.clean()) {
                    self.counters.probe_memory_dirty += 1;
                }
            }
            _ => {}
        }
        r
    }

    fn quarantine(&mut self, diagnosis: &Diagnosis) -> Result<usize, AccelError> {
        span("core.accel.quarantine", || self.inner.quarantine(diagnosis))
    }
}
