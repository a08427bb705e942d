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
//!
//! Each operator holds two engines:
//!
//! - `sim`, the event-driven scalar [`dta_logic::Simulator`] with the
//!   plan's faulty-gate behaviors installed. It serves every scalar call
//!   and is the reference every faster path is tested against.
//! - `lut`, a compiled 64-lane [`dta_logic::LutExec`], present iff every
//!   defect lowered to a truth-word patch (see [`DefectPlan::apply_lut`]).
//!
//! A batch runs native when the operator is healthy, through `lut` when
//! it is present, and otherwise as a loop of scalar calls on `sim`, so
//! stateful faults (memory effects, delay defects, transient and
//! intermittent activations) advance exactly one state step per row and
//! batch and scalar calls share that state.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use dta_fixed::{Fx, SigmoidLut};

use crate::adder::SatAdderCircuit;
use crate::inject::{DefectPlan, FaultModel};
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
            /// Event-driven scalar engine with the plan installed: serves
            /// scalar calls and stateful batches, and is the oracle.
            sim: dta_logic::Simulator,
            /// Compiled LUT instruction stream, present iff the plan
            /// lowered entirely to truth-word patches (see
            /// [`DefectPlan::apply_lut`]).
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
                Self {
                    circuit,
                    sim,
                    lut: None,
                    plan: DefectPlan::new(FaultModel::TransistorLevel),
                }
            }

            /// Lowers the current plan onto a fresh LUT executor and
            /// keeps it iff every defect became a truth-word patch.
            fn rebuild_lut(&mut self) {
                self.lut = None;
                if !self.plan.is_empty() {
                    let mut ex = self.circuit.lut_exec();
                    if self.plan.apply_lut(&mut ex) {
                        self.lut = Some(ex);
                    }
                }
            }

            /// True if batch entry points run lane-parallel: the
            /// operator is healthy (native) or its plan lowered to
            /// truth-word patches. Otherwise batches are scalar loops.
            pub fn vectorizable(&self) -> bool {
                self.plan.is_empty() || self.lut.is_some()
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
                self.rebuild_lut();
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
                self.rebuild_lut();
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
        if self.plan.is_empty() {
            return a + b;
        }
        self.circuit.compute(&mut self.sim, a, b)
    }

    /// Computes a whole batch of sums — native when healthy, the
    /// compiled LUT instruction stream when the fault set lowered to
    /// truth-word patches, scalar settles otherwise. Identical to
    /// mapping [`HwAdder::add`] over the pairs.
    pub fn add_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            return a.iter().zip(b).map(|(&x, &y)| x + y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
            .collect()
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
        if self.plan.is_empty() {
            return a * b;
        }
        self.circuit.compute(&mut self.sim, a, b)
    }

    /// Computes a whole batch of products — native when healthy, the
    /// compiled LUT instruction stream when the fault set lowered to
    /// truth-word patches, scalar settles otherwise. Identical to
    /// mapping [`HwMultiplier::mul`] over the pairs.
    pub fn mul_batch(&mut self, a: &[Fx], b: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            return a.iter().zip(b).map(|(&x, &y)| x * y).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, a, b);
        }
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.circuit.compute(&mut self.sim, x, y))
            .collect()
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
        if self.plan.is_empty() {
            return sigmoid_lut().eval(x);
        }
        self.circuit.compute(&mut self.sim, x)
    }

    /// Computes a whole batch of activations — native when healthy, the
    /// compiled LUT instruction stream when the fault set lowered to
    /// truth-word patches, scalar settles otherwise. Identical to
    /// mapping [`HwSigmoid::eval`] over the inputs.
    pub fn eval_batch(&mut self, xs: &[Fx]) -> Vec<Fx> {
        if self.plan.is_empty() {
            let lut = sigmoid_lut();
            return xs.iter().map(|&x| lut.eval(x)).collect();
        }
        if let Some(lut) = self.lut.as_mut() {
            return self.circuit.compute_lut(lut, xs);
        }
        xs.iter()
            .map(|&x| self.circuit.compute(&mut self.sim, x))
            .collect()
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
        // the LUT stream against element-wise evaluation.
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

    /// Runs rows `0..150` through `run` in alternating scalar and batch
    /// chunks whose sizes straddle the 64-lane edge.
    fn interleaved<T>(
        op: &mut T,
        mut run: impl FnMut(&mut T, std::ops::Range<usize>, bool) -> Vec<Fx>,
    ) -> Vec<Fx> {
        let mut out = Vec::new();
        let mut start = 0;
        for (k, len) in [1usize, 70, 3, 64, 12].into_iter().enumerate() {
            out.extend(run(op, start..start + len, k % 2 == 1));
            start += len;
        }
        out
    }

    /// First operator (over seeds) whose plan is stateful: it cannot
    /// lower to truth-word patches, so batches run on the scalar engine.
    fn stateful<T>(
        make: impl Fn() -> T,
        inject: impl Fn(&mut T, &mut ChaCha8Rng),
        lut_ready: impl Fn(&T) -> bool,
    ) -> T {
        for seed in 0..64 {
            let mut op = make();
            inject(&mut op, &mut ChaCha8Rng::seed_from_u64(seed));
            if !lut_ready(&op) {
                return op;
            }
        }
        panic!("no stateful plan in 64 seeds");
    }

    #[test]
    fn stateful_batches_continue_the_scalar_sequence() {
        // Batch and scalar calls share one engine and its fault state,
        // so interleaving them on a stateful plan must replay the
        // all-scalar sequence exactly (BIST probes followed by
        // retraining rely on this).
        let a: Vec<Fx> = (0..150)
            .map(|i| Fx::from_raw((i * 431 - 9000) as i16))
            .collect();
        let b: Vec<Fx> = (0..150)
            .map(|i| Fx::from_raw((i * 77 - 999) as i16))
            .collect();
        for activation in activation_classes() {
            let model = FaultModel::TransistorLevel;

            let mut add = stateful(
                HwAdder::new,
                |op, rng| drop(op.inject_random_with(model, activation, 6, rng)),
                HwAdder::lut_ready,
            );
            add.reset_state();
            let want: Vec<Fx> = (0..150).map(|i| add.add(a[i], b[i])).collect();
            add.reset_state();
            let got = interleaved(&mut add, |op, r, batch| {
                if batch {
                    op.add_batch(&a[r.clone()], &b[r])
                } else {
                    r.map(|i| op.add(a[i], b[i])).collect()
                }
            });
            assert_eq!(got, want, "add, {activation}");

            let mut mul = stateful(
                HwMultiplier::new,
                |op, rng| drop(op.inject_random_with(model, activation, 6, rng)),
                HwMultiplier::lut_ready,
            );
            mul.reset_state();
            let want: Vec<Fx> = (0..150).map(|i| mul.mul(a[i], b[i])).collect();
            mul.reset_state();
            let got = interleaved(&mut mul, |op, r, batch| {
                if batch {
                    op.mul_batch(&a[r.clone()], &b[r])
                } else {
                    r.map(|i| op.mul(a[i], b[i])).collect()
                }
            });
            assert_eq!(got, want, "mul, {activation}");

            let mut act = stateful(
                HwSigmoid::new,
                |op, rng| drop(op.inject_random_with(model, activation, 6, rng)),
                HwSigmoid::lut_ready,
            );
            act.reset_state();
            let want: Vec<Fx> = a.iter().map(|&x| act.eval(x)).collect();
            act.reset_state();
            let got = interleaved(&mut act, |op, r, batch| {
                if batch {
                    op.eval_batch(&a[r])
                } else {
                    r.map(|i| op.eval(a[i])).collect()
                }
            });
            assert_eq!(got, want, "act, {activation}");
        }
    }

    /// The lifetime classes a campaign can draw, in a fixed order.
    fn activation_classes() -> [dta_transistor::Activation; 3] {
        use dta_transistor::Activation;
        [
            Activation::Permanent,
            Activation::Transient {
                per_eval_probability: 0.3,
            },
            Activation::Intermittent { period: 5, duty: 2 },
        ]
    }

    #[test]
    fn vectorizable_iff_lut_ready_on_random_plans() {
        // Every non-empty plan the batch paths can run lane-parallel is
        // one that lowers to pure truth-word patches, and vice versa.
        let (mut accepted, mut refused) = (0, 0);
        for model in [FaultModel::TransistorLevel, FaultModel::GateLevel] {
            for activation in activation_classes() {
                for n in 1..=16usize {
                    for seed in 0..4u64 {
                        let s = seed * 1000 + n as u64;
                        let mut rng = ChaCha8Rng::seed_from_u64(s);
                        let mut add = HwAdder::new();
                        add.inject_random_with(model, activation, n, &mut rng);
                        let mut mul = HwMultiplier::new();
                        mul.inject_random_with(model, activation, n, &mut rng);
                        let mut act = HwSigmoid::new();
                        act.inject_random_with(model, activation, n, &mut rng);
                        for (op, v, l) in [
                            ("add", add.vectorizable(), add.lut_ready()),
                            ("mul", mul.vectorizable(), mul.lut_ready()),
                            ("act", act.vectorizable(), act.lut_ready()),
                        ] {
                            assert_eq!(v, l, "{op} {model} {activation} n={n} seed={s}");
                            if v {
                                accepted += 1;
                            } else {
                                refused += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
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
