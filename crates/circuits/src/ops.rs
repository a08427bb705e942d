//! Self-contained faulty-operator evaluators for the hybrid ANN path.
//!
//! The paper trains and tests with a high-level ANN model in which "it is
//! possible to mark a neuron as having one or several defect(s) for a
//! specific operator, in which case a software function is called to
//! perform that operator in place of the native operator". These wrappers
//! are those software functions: each owns a gate-level operator circuit
//! plus a simulator with the injected defects, and exposes a plain
//! `Fx -> Fx` interface that `dta-ann` calls for marked neurons while
//! every healthy operator runs native Q6.10 arithmetic.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use dta_fixed::{Fx, SigmoidLut};

use crate::adder::SatAdderCircuit;
use crate::inject::{switch_level_baseline, DefectPlan, FaultModel};
use crate::multiplier::FxMulCircuit;
use crate::sigmoid_unit::SigmoidUnitCircuit;

/// Shared sigmoid table for the healthy native shortcut.
fn sigmoid_lut() -> &'static SigmoidLut {
    static LUT: OnceLock<SigmoidLut> = OnceLock::new();
    LUT.get_or_init(SigmoidLut::new)
}

macro_rules! hw_operator {
    ($(#[$doc:meta])* $name:ident, $circuit:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            circuit: Arc<$circuit>,
            sim: dta_logic::Simulator,
            /// Lane-parallel twin of `sim`, present iff every injected
            /// fault is combinational (see [`DefectPlan::apply64`]);
            /// batch entry points go through it 64 stimuli per settle.
            sim64: Option<dta_logic::Simulator64>,
            /// Healthy (override-free) lane-parallel twin, present iff
            /// the fault set is *stateful*: batch entry points settle it
            /// 64 stimuli at a time and gate-simulate only `sim`'s cone
            /// of influence per lane (see [`dta_logic::Simulator::prepare_cone`]).
            healthy64: Option<dta_logic::Simulator64>,
            /// Compiled LUT instruction-stream engine, present iff the
            /// plan lowered to truth-word patches alone (see
            /// [`DefectPlan::apply_lut`]); it is the fastest batch path
            /// and is preferred over `sim64` when available. Stateful
            /// plans stay on the cone path so memory effects share
            /// `sim`'s behavior state with the scalar entry points.
            lut: Option<dta_logic::LutExec>,
            plan: DefectPlan,
        }

        impl $name {
            /// Builds a healthy operator with its own circuit instance.
            pub fn new() -> Self {
                Self::with_circuit(Arc::new(<$circuit>::new()))
            }

            /// Builds an operator over a shared circuit (the netlist is
            /// immutable, so many operators can reuse one instance).
            pub fn with_circuit(circuit: Arc<$circuit>) -> Self {
                let sim = circuit.simulator();
                let sim64 = Some(circuit.simulator64());
                Self {
                    circuit,
                    sim,
                    sim64,
                    healthy64: None,
                    lut: None,
                    plan: DefectPlan::new(FaultModel::TransistorLevel),
                }
            }

            /// Rebuilds the lane-parallel simulator for the current
            /// plan. Stateful fault sets drop it and instead keep the
            /// untouched simulator as the healthy twin of the
            /// cone-pruned differential batch path — unless a benchmark
            /// baseline forces the seed or PR-1 engine, in which case
            /// batches fall back to plain scalar evaluation.
            fn rebuild_sim64(&mut self) {
                self.lut = None;
                if !self.plan.is_empty()
                    && !dta_logic::lut_backend_disabled()
                    && !switch_level_baseline()
                    && !dta_logic::full_settle_forced()
                {
                    let mut ex = self.circuit.lut_exec();
                    if self.plan.apply_lut(&mut ex) {
                        self.lut = Some(ex);
                    }
                }
                let mut s = self.circuit.simulator64();
                if self.plan.apply64(&mut s) {
                    self.sim64 = Some(s);
                    self.healthy64 = None;
                } else {
                    self.sim64 = None;
                    let baseline =
                        switch_level_baseline() || dta_logic::full_settle_forced();
                    self.healthy64 = (!baseline
                        && !self.plan.is_empty()
                        && self.sim.prepare_cone())
                    .then_some(s);
                }
            }

            /// True when the healthy native shortcut applies: no defect
            /// injected and no benchmark baseline forcing full gate
            /// simulation.
            fn native_ok(&self) -> bool {
                self.plan.is_empty()
                    && !switch_level_baseline()
                    && !dta_logic::full_settle_forced()
            }

            /// True if every injected fault is combinational, i.e. the
            /// batch entry points run 64 lanes per settle instead of
            /// falling back to the scalar simulator.
            pub fn vectorizable(&self) -> bool {
                self.sim64.is_some()
            }

            /// True if the current plan lowered entirely to truth-word
            /// patches on the compiled LUT instruction stream, i.e. the
            /// batch entry points run the straight-line schedule instead
            /// of event-driven settles.
            pub fn lut_ready(&self) -> bool {
                self.lut.is_some()
            }

            /// The operator's patched LUT executor, when the plan
            /// lowered entirely to truth-word patches. Network-level
            /// fusion reads the patched instruction stream from here and
            /// stitches it into one program across operators.
            pub fn lut_stream(&self) -> Option<&dta_logic::LutExec> {
                self.lut.as_ref()
            }

            /// Injects `n` random **permanent** defects under the given
            /// fault model and applies them. Returns a description per
            /// defect.
            pub fn inject_random<R: Rng + ?Sized>(
                &mut self,
                model: FaultModel,
                n: usize,
                rng: &mut R,
            ) -> Vec<String> {
                self.inject_random_with(
                    model,
                    dta_transistor::Activation::Permanent,
                    n,
                    rng,
                )
            }

            /// Injects `n` random defects with the given lifetime under
            /// the given fault model and applies them. Returns a
            /// description per defect. For
            /// [`dta_transistor::Activation::Permanent`] this consumes
            /// exactly the same RNG draws as
            /// [`Self::inject_random`].
            pub fn inject_random_with<R: Rng + ?Sized>(
                &mut self,
                model: FaultModel,
                activation: dta_transistor::Activation,
                n: usize,
                rng: &mut R,
            ) -> Vec<String> {
                self.plan.remove(&mut self.sim);
                if self.plan.model() != model {
                    self.plan = DefectPlan::new(model);
                }
                for _ in 0..n {
                    self.plan.add_random_with(
                        self.circuit.netlist(),
                        self.circuit.cells(),
                        activation,
                        rng,
                    );
                }
                self.plan.apply(&mut self.sim);
                self.rebuild_sim64();
                self.plan
                    .records()
                    .iter()
                    .map(|r| format!("bit {}: {}", r.bit, r.description))
                    .collect()
            }

            /// Installs a prepared defect plan (replacing any previous one).
            pub fn install_plan(&mut self, plan: DefectPlan) {
                self.plan.remove(&mut self.sim);
                plan.apply(&mut self.sim);
                self.plan = plan;
                self.rebuild_sim64();
            }

            /// Number of injected defects.
            pub fn defect_count(&self) -> usize {
                self.plan.len()
            }

            /// The shared circuit.
            pub fn circuit(&self) -> &Arc<$circuit> {
                &self.circuit
            }

            /// Clears memory effects and delay-line state left by
            /// previous evaluations (call between independent runs).
            pub fn reset_state(&mut self) {
                self.sim.reset_state();
                if let Some(lut) = self.lut.as_mut() {
                    lut.reset_state();
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

hw_operator!(
    /// The neuron accumulation adder (16-bit saturating), evaluated at
    /// the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwAdder;
    /// use dta_fixed::Fx;
    /// let mut adder = HwAdder::new();
    /// let (a, b) = (Fx::from_f64(1.25), Fx::from_f64(2.5));
    /// assert_eq!(adder.add(a, b), a + b);
    /// ```
    HwAdder,
    SatAdderCircuit
);

impl HwAdder {
    /// Computes the (possibly faulty) saturating sum. Healthy operators
    /// skip gate simulation entirely: the circuit is bit-exact with the
    /// native saturating Q6.10 add.
    pub fn add(&mut self, a: Fx, b: Fx) -> Fx {
        if self.native_ok() {
            return a + b;
        }
        self.circuit.compute(&mut self.sim, a, b)
    }

    /// Computes a whole batch of sums — native when healthy, a compiled
    /// LUT instruction stream when the fault set lowered to truth-word
    /// patches, 64 lanes per settle when it is merely combinational,
    /// cone-pruned differential batches when it is stateful. Identical
    /// to mapping [`HwAdder::add`] over the pairs.
    pub fn add_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.native_ok() {
            return a.iter().zip(b).map(|(&x, &y)| x + y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        match (self.sim64.as_mut(), self.healthy64.as_mut()) {
            (Some(sim64), _) => self.circuit.compute64(sim64, a, b),
            (None, Some(healthy)) => self.circuit.compute_cone(&mut self.sim, healthy, a, b),
            (None, None) => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
                .collect(),
        }
    }
}

hw_operator!(
    /// The synaptic multiplier (Q6.10 truncating, saturating), evaluated
    /// at the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwMultiplier;
    /// use dta_fixed::Fx;
    /// let mut mul = HwMultiplier::new();
    /// let (a, b) = (Fx::from_f64(0.5), Fx::from_f64(-3.0));
    /// assert_eq!(mul.mul(a, b), a * b);
    /// ```
    HwMultiplier,
    FxMulCircuit
);

impl HwMultiplier {
    /// Computes the (possibly faulty) product. Healthy operators skip
    /// gate simulation entirely: the circuit is bit-exact with the
    /// native truncating, saturating Q6.10 multiply.
    pub fn mul(&mut self, a: Fx, b: Fx) -> Fx {
        if self.native_ok() {
            return a * b;
        }
        self.circuit.compute(&mut self.sim, a, b)
    }

    /// Computes a whole batch of products — native when healthy, a
    /// compiled LUT instruction stream when the fault set lowered to
    /// truth-word patches, 64 lanes per settle when it is merely
    /// combinational, cone-pruned differential batches when it is
    /// stateful. Identical to mapping [`HwMultiplier::mul`] over the
    /// pairs.
    pub fn mul_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.native_ok() {
            return a.iter().zip(b).map(|(&x, &y)| x * y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        match (self.sim64.as_mut(), self.healthy64.as_mut()) {
            (Some(sim64), _) => self.circuit.compute64(sim64, a, b),
            (None, Some(healthy)) => self.circuit.compute_cone(&mut self.sim, healthy, a, b),
            (None, None) => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
                .collect(),
        }
    }
}

hw_operator!(
    /// The activation unit (16-segment piecewise-linear sigmoid),
    /// evaluated at the gate level with optional injected defects.
    ///
    /// # Example
    ///
    /// ```
    /// use dta_circuits::ops::HwSigmoid;
    /// use dta_fixed::{Fx, SigmoidLut};
    /// let mut act = HwSigmoid::new();
    /// let x = Fx::from_f64(0.7);
    /// assert_eq!(act.eval(x), SigmoidLut::new().eval(x));
    /// ```
    HwSigmoid,
    SigmoidUnitCircuit
);

impl HwSigmoid {
    /// Computes the (possibly faulty) activation. Healthy operators
    /// skip gate simulation entirely: the circuit is bit-exact with the
    /// native 16-segment [`SigmoidLut`].
    pub fn eval(&mut self, x: Fx) -> Fx {
        if self.native_ok() {
            return sigmoid_lut().eval(x);
        }
        self.circuit.compute(&mut self.sim, x)
    }

    /// Computes a whole batch of activations — native when healthy, a
    /// compiled LUT instruction stream when the fault set lowered to
    /// truth-word patches, 64 lanes per settle when it is merely
    /// combinational, cone-pruned differential batches when it is
    /// stateful. Identical to mapping [`HwSigmoid::eval`] over the
    /// inputs.
    pub fn eval_batch(&mut self, xs: &[Fx]) -> Vec<Fx> {
        if self.native_ok() {
            let lut = sigmoid_lut();
            return xs.iter().map(|&x| lut.eval(x)).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, xs);
        }
        match (self.sim64.as_mut(), self.healthy64.as_mut()) {
            (Some(sim64), _) => self.circuit.compute64(sim64, xs),
            (None, Some(healthy)) => self.circuit.compute_cone(&mut self.sim, healthy, xs),
            (None, None) => xs
                .iter()
                .map(|&x| self.circuit.compute(&mut self.sim, x))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_fixed::SigmoidLut;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn healthy_operators_match_native_datapath() {
        let mut add = HwAdder::new();
        let mut mul = HwMultiplier::new();
        let mut act = HwSigmoid::new();
        let lut = SigmoidLut::new();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw.wrapping_mul(37) ^ 0x55aa) as i16);
            assert_eq!(add.add(a, b), a + b);
            assert_eq!(mul.mul(a, b), a * b);
            assert_eq!(act.eval(a), lut.eval(a));
            raw += 1021;
        }
    }

    #[test]
    fn shared_circuit_instances() {
        let circuit = Arc::new(FxMulCircuit::new());
        let mut m1 = HwMultiplier::with_circuit(Arc::clone(&circuit));
        let mut m2 = HwMultiplier::with_circuit(Arc::clone(&circuit));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        m2.inject_random(FaultModel::TransistorLevel, 3, &mut rng);
        assert_eq!(m1.defect_count(), 0);
        assert_eq!(m2.defect_count(), 3);
        // The healthy instance is unaffected by the faulty one.
        let (a, b) = (Fx::from_f64(2.0), Fx::from_f64(3.0));
        assert_eq!(m1.mul(a, b), a * b);
    }

    #[test]
    fn injection_reports_descriptions() {
        let mut add = HwAdder::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let reports = add.inject_random(FaultModel::TransistorLevel, 4, &mut rng);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.starts_with("bit "), "report: {r}");
        }
    }

    #[test]
    fn many_defects_visibly_corrupt_the_multiplier() {
        let mut mul = HwMultiplier::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        mul.inject_random(FaultModel::TransistorLevel, 30, &mut rng);
        let mut diffs = 0;
        let mut raw = -32000i32;
        while raw <= 32000 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw ^ 0x1f3) as i16);
            if mul.mul(a, b) != a * b {
                diffs += 1;
            }
            raw += 640;
        }
        assert!(diffs > 0, "30 defects must corrupt some products");
    }

    #[test]
    fn batch_matches_scalar_for_combinational_faults() {
        // Hunt for a seed whose defects stay combinational, then check
        // the 64-lane path against element-wise evaluation.
        let mut found = false;
        for seed in 0..20 {
            let mut mul = HwMultiplier::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            mul.inject_random(FaultModel::TransistorLevel, 4, &mut rng);
            if !mul.vectorizable() {
                continue;
            }
            found = true;
            let a: Vec<Fx> = (0..150).map(|i| Fx::from_raw((i * 431) as i16)).collect();
            let b: Vec<Fx> = (0..150)
                .map(|i| Fx::from_raw((i * 77 - 999) as i16))
                .collect();
            let batch = mul.mul_batch(&a, &b);
            let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| mul.mul(x, y)).collect();
            assert_eq!(batch, scalar, "seed {seed}");
        }
        assert!(
            found,
            "no combinational 4-defect seed in 0..20 is suspicious"
        );
    }

    #[test]
    fn stateful_faults_disable_vectorization_but_batch_still_works() {
        // Find a plan with a latching/delay cell: vectorizable() must
        // be false and the batch entry point must fall back to the
        // scalar simulator (sequencing the same state updates).
        let mut found = false;
        for seed in 0..40 {
            let mut add = HwAdder::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            add.inject_random(FaultModel::TransistorLevel, 6, &mut rng);
            if add.vectorizable() {
                continue;
            }
            found = true;
            let a: Vec<Fx> = (0..40).map(|i| Fx::from_raw((i * 997) as i16)).collect();
            let b: Vec<Fx> = (0..40).map(|i| Fx::from_raw((i * 13 + 5) as i16)).collect();
            add.reset_state();
            let batch = add.add_batch(&a, &b);
            add.reset_state();
            let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| add.add(x, y)).collect();
            assert_eq!(batch, scalar, "seed {seed}");
            break;
        }
        assert!(found, "no stateful 6-defect seed in 0..40 is suspicious");
    }

    #[test]
    fn healthy_batch_paths_are_vectorized_and_exact() {
        let mut add = HwAdder::new();
        let mut mul = HwMultiplier::new();
        let mut act = HwSigmoid::new();
        assert!(add.vectorizable());
        assert!(mul.vectorizable());
        assert!(act.vectorizable());
        let lut = SigmoidLut::new();
        let a: Vec<Fx> = (0..100)
            .map(|i| Fx::from_raw((i * 653 - 30000) as i16))
            .collect();
        let b: Vec<Fx> = (0..100)
            .map(|i| Fx::from_raw((i * 389 + 11) as i16))
            .collect();
        let sums = add.add_batch(&a, &b);
        let prods = mul.mul_batch(&a, &b);
        let acts = act.eval_batch(&a);
        for i in 0..a.len() {
            assert_eq!(sums[i], a[i] + b[i]);
            assert_eq!(prods[i], a[i] * b[i]);
            assert_eq!(acts[i], lut.eval(a[i]));
        }
    }

    #[test]
    fn lut_backend_matches_scalar_and_can_be_disabled() {
        // Operators whose plan lowers to pure truth-word patches route
        // batches through the compiled LUT stream; outputs must equal
        // element-wise scalar evaluation, and the process-global
        // disable hook must force the rebuilt operator off the engine
        // without changing any output bit.
        let _toggles = dta_logic::engine_toggle_lock();
        let mut found = false;
        for seed in 0..20 {
            let mut mul = HwMultiplier::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            mul.inject_random(FaultModel::TransistorLevel, 4, &mut rng);
            if !mul.lut_ready() {
                continue;
            }
            found = true;
            let a: Vec<Fx> = (0..150).map(|i| Fx::from_raw((i * 431) as i16)).collect();
            let b: Vec<Fx> = (0..150)
                .map(|i| Fx::from_raw((i * 77 - 999) as i16))
                .collect();
            let batch = mul.mul_batch(&a, &b);
            let scalar: Vec<Fx> = a.iter().zip(&b).map(|(&x, &y)| mul.mul(x, y)).collect();
            assert_eq!(batch, scalar, "seed {seed}");
            dta_logic::disable_lut_backend(true);
            let mut off = HwMultiplier::new();
            let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
            off.inject_random(FaultModel::TransistorLevel, 4, &mut rng2);
            let off_ready = off.lut_ready();
            let off_batch = off.mul_batch(&a, &b);
            dta_logic::disable_lut_backend(false);
            assert!(!off_ready, "hook must keep the LUT engine off");
            assert_eq!(off_batch, batch, "seed {seed}: backends diverged");
            break;
        }
        assert!(found, "no fully-patchable 4-defect seed in 0..20");
    }

    #[test]
    fn reset_state_restores_determinism() {
        let mut mul = HwMultiplier::new();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        mul.inject_random(FaultModel::TransistorLevel, 8, &mut rng);
        let inputs: Vec<(Fx, Fx)> = (0..40)
            .map(|i| {
                (
                    Fx::from_raw((i * 997) as i16),
                    Fx::from_raw((i * 31 - 700) as i16),
                )
            })
            .collect();
        let run = |m: &mut HwMultiplier| -> Vec<Fx> {
            m.reset_state();
            inputs.iter().map(|&(a, b)| m.mul(a, b)).collect()
        };
        let first = run(&mut mul);
        let second = run(&mut mul);
        assert_eq!(first, second, "same sequence after reset");
    }
}
