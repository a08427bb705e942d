//! Self-contained faulty-operator evaluators for the hybrid ANN path.
//!
//! The paper trains and tests with a high-level ANN model in which "it is
//! possible to mark a neuron as having one or several defect(s) for a
//! specific operator, in which case a software function is called to
//! perform that operator in place of the native operator". These wrappers
//! are those software functions: each owns a gate-level operator circuit
//! plus its injected defects, and exposes a plain
//! `Fx -> Fx` interface that `dta-ann` calls for marked neurons while
//! every healthy operator runs native Q6.10 arithmetic.
//!
//! Each faulty operator evaluates on a compiled [`OpExec`]: the
//! circuit's LUT instruction stream with the plan lowered into it
//! ([`DefectPlan::lower`]) — combinational faulty cells as patched truth
//! words, stateful ones (memory effects, delay defects, transient and
//! intermittent activations) as step instructions that advance exactly
//! one state step per call — optimized, mapped onto 4-input LUTs and
//! swept one lane at a time. Injection lowers the plan; the executor is
//! built from that lowering on the first call after it, so an operator
//! that collects several defects lowers and compiles once.
//! The reference [`dta_logic::Simulator`] carrying
//! [`DefectPlan::apply`] gives bit-identical results. When the plan has
//! no step instruction the operator also keeps the patched stream
//! itself, which network-level fusion (`dta-ann`) stitches into one
//! 64-lane program.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use dta_fixed::{Fx, SigmoidLut};
use dta_logic::{GateBehavior, LutInstr, LutProgram, OpExec};

use crate::adder::SatAdderCircuit;
use crate::inject::{DefectPlan, FaultModel};
use crate::multiplier::FxMulCircuit;
use crate::sigmoid_unit::SigmoidUnitCircuit;

/// Shared sigmoid table for the healthy native shortcut.
fn sigmoid_lut() -> &'static SigmoidLut {
    static LUT: OnceLock<SigmoidLut> = OnceLock::new();
    LUT.get_or_init(SigmoidLut::new)
}

/// A lowering with step instructions that no executor has taken yet:
/// its patched truth words by stream position, and its steps with their
/// fresh behaviors.
type Held = (Vec<(usize, u16)>, Vec<(usize, Box<dyn GateBehavior>)>);

/// One call of a two-operand faulty operator.
fn call2(exec: &mut OpExec, a: Fx, b: Fx) -> Fx {
    Fx::from_bits(exec.call(&[u64::from(a.to_bits()), u64::from(b.to_bits())]) as u16)
}

macro_rules! hw_operator {
    ($(#[$doc:meta])* $name:ident, $circuit:ty, [$($bus:ident),+]) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            circuit: Arc<$circuit>,
            /// The compiled faulty operator: serves every faulty call.
            /// Built on the first call after an injection, so an
            /// operator that collects several defects compiles once.
            exec: Option<OpExec>,
            /// The circuit's LUT instruction stream with the plan's truth
            /// words patched in, present iff the plan is non-empty and
            /// lowered without step instructions (see
            /// [`DefectPlan::lower`]). Network-level fusion reads it.
            patched: Option<Vec<LutInstr>>,
            /// A lowering with step instructions, from the injection
            /// until the executor takes it. It keeps the patched words
            /// rather than the stream, so an operator waiting for its
            /// first call does not hold a copy of the whole stream, and
            /// it is boxed, so every operator grows by one pointer only.
            held: Option<Box<Held>>,
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
                Self {
                    circuit,
                    exec: None,
                    patched: None,
                    held: None,
                    plan: DefectPlan::new(FaultModel::TransistorLevel),
                }
            }

            /// Lowers the current plan and drops the executor of the
            /// previous one.
            fn lower(&mut self) {
                self.exec = None;
                self.patched = None;
                self.held = None;
                if !self.plan.is_empty() {
                    let prog = LutProgram::cached(self.circuit.netlist());
                    let (instrs, steps) = self.plan.lower(&prog);
                    if steps.is_empty() {
                        self.patched = Some(instrs);
                    } else {
                        let words = instrs
                            .iter()
                            .zip(prog.instrs())
                            .enumerate()
                            .filter(|(_, (ins, healthy))| ins.table != healthy.table)
                            .map(|(at, (ins, _))| (at, ins.table))
                            .collect();
                        self.held = Some(Box::new((words, steps)));
                    }
                }
            }

            /// The compiled faulty operator, built on first use from the
            /// lowering made at injection; `None` for a healthy operator.
            fn exec(&mut self) -> Option<&mut OpExec> {
                if self.exec.is_none() && !self.plan.is_empty() {
                    let c = &self.circuit;
                    let prog = LutProgram::cached(c.netlist());
                    let mut stream = Vec::new();
                    let (instrs, steps) = match self.held.take() {
                        Some(held) => {
                            let (words, steps) = *held;
                            stream.extend_from_slice(prog.instrs());
                            for (at, table) in words {
                                stream[at].table = table;
                            }
                            (&stream, steps)
                        }
                        None => (
                            self.patched.as_ref().expect("injection lowers a non-empty plan"),
                            Vec::new(),
                        ),
                    };
                    self.exec = Some(OpExec::compile(
                        &prog,
                        instrs,
                        steps,
                        &[$(c.$bus()),+],
                        c.out_bus(),
                    ));
                }
                self.exec.as_mut()
            }

            /// True if the operator can run lane-parallel: it is healthy
            /// (native) or its plan lowered without step instructions.
            pub fn vectorizable(&self) -> bool {
                self.plan.is_empty() || self.patched.is_some()
            }

            /// The circuit's instruction stream with the plan's truth
            /// words patched in, when the plan is non-empty and lowered
            /// without step instructions. Network-level fusion stitches
            /// it into one program across operators.
            pub fn patched_instrs(&self) -> Option<&[LutInstr]> {
                self.patched.as_deref()
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
                self.lower();
                self.plan
                    .records()
                    .iter()
                    .map(|r| format!("bit {}: {}", r.bit, r.description))
                    .collect()
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
            /// Behaviors held for an executor not built yet have never
            /// run, so they are fresh already.
            pub fn reset_state(&mut self) {
                if let Some(exec) = &mut self.exec {
                    exec.reset_state();
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
    SatAdderCircuit,
    [a_bus, b_bus]
);

impl HwAdder {
    /// Computes the (possibly faulty) saturating sum. Healthy operators
    /// skip gate simulation entirely: the circuit is bit-exact with the
    /// native saturating Q6.10 add.
    pub fn add(&mut self, a: Fx, b: Fx) -> Fx {
        match self.exec() {
            None => a + b,
            Some(exec) => call2(exec, a, b),
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
    FxMulCircuit,
    [a_bus, b_bus]
);

impl HwMultiplier {
    /// Computes the (possibly faulty) product. Healthy operators skip
    /// gate simulation entirely: the circuit is bit-exact with the
    /// native truncating, saturating Q6.10 multiply.
    pub fn mul(&mut self, a: Fx, b: Fx) -> Fx {
        match self.exec() {
            None => a * b,
            Some(exec) => call2(exec, a, b),
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
    SigmoidUnitCircuit,
    [x_bus]
);

impl HwSigmoid {
    /// Computes the (possibly faulty) activation. Healthy operators
    /// skip gate simulation entirely: the circuit is bit-exact with the
    /// native 16-segment [`SigmoidLut`].
    pub fn eval(&mut self, x: Fx) -> Fx {
        match self.exec() {
            None => sigmoid_lut().eval(x),
            Some(exec) => Fx::from_bits(exec.call(&[u64::from(x.to_bits())]) as u16),
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
