//! Property tests: the gate-level operators are bit-exact with native
//! arithmetic when healthy, for arbitrary widths and operands, and
//! defect plans can always be removed cleanly.

use dta_circuits::{AdderCircuit, ArrayMultiplier, DefectPlan, FaultModel, SatAdderCircuit};
use dta_fixed::Fx;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ripple_adder_any_width(width in 1usize..20, a in any::<u64>(), b in any::<u64>(), cin in any::<bool>()) {
        let adder = AdderCircuit::new(width);
        let mut sim = adder.simulator();
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let (s, c) = adder.compute_with_carry(&mut sim, a & mask, b & mask, cin);
        let exact = (a & mask) + (b & mask) + u64::from(cin);
        prop_assert_eq!(s, exact & mask);
        prop_assert_eq!(c, exact > mask);
    }

    #[test]
    fn signed_multiplier_any_width(width in 2usize..9, a in any::<i16>(), b in any::<i16>()) {
        let mul = ArrayMultiplier::signed(width);
        let mut sim = mul.simulator();
        let half = 1i64 << (width - 1);
        let a = (a as i64).rem_euclid(2 * half) - half;
        let b = (b as i64).rem_euclid(2 * half) - half;
        prop_assert_eq!(mul.compute_signed(&mut sim, a, b), a * b);
    }

    #[test]
    fn unsigned_multiplier_any_width(width in 2usize..9, a in any::<u16>(), b in any::<u16>()) {
        let mul = ArrayMultiplier::unsigned(width);
        let mut sim = mul.simulator();
        let mask = (1u64 << width) - 1;
        let (a, b) = (a as u64 & mask, b as u64 & mask);
        prop_assert_eq!(mul.compute(&mut sim, a, b), a * b);
    }

    #[test]
    fn sat_adder_matches_fx(a in any::<i16>(), b in any::<i16>()) {
        let adder = SatAdderCircuit::new();
        let mut sim = adder.simulator();
        let (a, b) = (Fx::from_raw(a), Fx::from_raw(b));
        prop_assert_eq!(adder.compute(&mut sim, a, b), a + b);
    }

    #[test]
    fn defect_plans_remove_cleanly(seed in any::<u64>(), n in 1usize..8,
                                   model_gate in any::<bool>()) {
        let adder = AdderCircuit::new(4);
        let model = if model_gate {
            FaultModel::GateLevel
        } else {
            FaultModel::TransistorLevel
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = DefectPlan::new(model);
        for _ in 0..n {
            plan.add_random(adder.netlist(), adder.cells(), &mut rng);
        }
        let mut sim = adder.simulator();
        plan.apply(&mut sim);
        let _ = adder.compute(&mut sim, 7, 9);
        plan.remove(&mut sim);
        // Healthy arithmetic restored exactly.
        for (a, b) in [(0u64, 0u64), (7, 9), (15, 15), (8, 8)] {
            let (s, c) = adder.compute(&mut sim, a, b);
            prop_assert_eq!(s | (u64::from(c) << 4), a + b);
        }
    }
}

// ---------------------------------------------------------------------
// The operator engine against the reference simulator.
// ---------------------------------------------------------------------

use std::sync::Arc;

use dta_circuits::{
    Activation, FxMulCircuit, HwAdder, HwMultiplier, HwSigmoid, SigmoidUnitCircuit,
};
use dta_logic::{GateKind, LutProgram, Netlist, Node, NodeId, OpExec, Simulator};
use rand::Rng;

/// A faulty operator as the ANN calls it, with the circuit facts the
/// reference needs.
trait Operator {
    fn net(&self) -> Arc<Netlist>;
    fn cells(&self) -> Vec<Vec<NodeId>>;
    fn buses(&self) -> (Vec<Vec<NodeId>>, Vec<NodeId>);
    fn inject(&mut self, model: FaultModel, act: Activation, n: usize, rng: &mut ChaCha8Rng);
    fn reset_state(&mut self);
    fn call(&mut self, words: &[u64]) -> u64;
}

macro_rules! operator {
    ($op:ty, [$($bus:ident),+], |$s:ident, $x:ident| $call:expr) => {
        impl Operator for $op {
            fn net(&self) -> Arc<Netlist> {
                Arc::clone(self.circuit().netlist())
            }
            fn cells(&self) -> Vec<Vec<NodeId>> {
                self.circuit().cells().to_vec()
            }
            fn buses(&self) -> (Vec<Vec<NodeId>>, Vec<NodeId>) {
                let c = self.circuit();
                (vec![$(c.$bus().to_vec()),+], c.out_bus().to_vec())
            }
            fn inject(&mut self, model: FaultModel, act: Activation, n: usize, rng: &mut ChaCha8Rng) {
                self.inject_random_with(model, act, n, rng);
            }
            fn reset_state(&mut self) {
                <$op>::reset_state(self);
            }
            fn call(&mut self, words: &[u64]) -> u64 {
                let operands: Vec<Fx> = words.iter().map(|&w| Fx::from_bits(w as u16)).collect();
                let ($s, $x) = (self, &operands[..]);
                u64::from($call.to_bits())
            }
        }
    };
}

operator!(HwAdder, [a_bus, b_bus], |op, x| op.add(x[0], x[1]));
operator!(HwMultiplier, [a_bus, b_bus], |op, x| op.mul(x[0], x[1]));
operator!(HwSigmoid, [x_bus], |op, x| op.eval(x[0]));

/// The reference: the full-sweep simulator carrying `DefectPlan::apply`,
/// re-injected the way operators were before they compiled (`remove`,
/// then `apply` with fresh behaviors).
struct Reference {
    sim: Simulator,
    plan: DefectPlan,
    net: Arc<Netlist>,
    cells: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
    out: Vec<NodeId>,
}

impl Reference {
    fn of(op: &dyn Operator) -> Reference {
        let (ins, out) = op.buses();
        Reference {
            sim: Simulator::new(op.net()),
            plan: DefectPlan::new(FaultModel::TransistorLevel),
            net: op.net(),
            cells: op.cells(),
            ins,
            out,
        }
    }

    fn inject(&mut self, model: FaultModel, act: Activation, n: usize, rng: &mut ChaCha8Rng) {
        self.plan.remove(&mut self.sim);
        if self.plan.model() != model {
            self.plan = DefectPlan::new(model);
        }
        for _ in 0..n {
            self.plan.add_random_with(&self.net, &self.cells, act, rng);
        }
        self.plan.apply(&mut self.sim);
    }

    fn call(&mut self, words: &[u64]) -> u64 {
        for (bus, &w) in self.ins.iter().zip(words) {
            self.sim.set_input_word(bus, w);
        }
        self.sim.settle();
        self.sim.read_word(&self.out)
    }

    /// Number of step instructions the current plan lowers to.
    fn steps(&self) -> usize {
        self.plan.lower(&LutProgram::cached(&self.net)).1.len()
    }
}

const LIFETIMES: [Activation; 3] = [
    Activation::Permanent,
    Activation::Transient {
        per_eval_probability: 0.3,
    },
    Activation::Intermittent { period: 5, duty: 2 },
];

/// Operand words from a small pool, so identical operands repeat, often
/// back to back.
fn stimulus(rng: &mut ChaCha8Rng, n_buses: usize, len: usize) -> Vec<Vec<u64>> {
    let pool: Vec<Vec<u64>> = (0..5)
        .map(|_| (0..n_buses).map(|_| rng.random::<u16>() as u64).collect())
        .collect();
    let mut seq: Vec<Vec<u64>> = Vec::with_capacity(len);
    for _ in 0..len {
        let next = match seq.last() {
            Some(prev) if rng.random::<u8>() < 100 => prev.clone(),
            _ => pool[rng.random::<u8>() as usize % pool.len()].clone(),
        };
        seq.push(next);
    }
    seq
}

/// Drives one operator and its reference through plans of both fault
/// models and every lifetime, with `reset_state` and a second injection
/// (which rebuilds the engine) mid-sequence. A `reset_state` also lands
/// right after each injection, while the lowered behaviors are held and
/// no executor is built yet. Returns the largest step count seen per
/// fault model.
fn engine_matches_reference(make: impl Fn() -> Box<dyn Operator>) -> [usize; 2] {
    let mut most_steps = [0usize; 2];
    for (m, model) in [FaultModel::TransistorLevel, FaultModel::GateLevel]
        .into_iter()
        .enumerate()
    {
        for (l, &act) in LIFETIMES.iter().enumerate() {
            for seed in 0..4u64 {
                let case = format!("{model} {act} seed {seed}");
                let mut op = make();
                let mut reference = Reference::of(op.as_ref());
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 31 + l as u64);
                let mut inject = |op: &mut Box<dyn Operator>,
                                  reference: &mut Reference,
                                  act: Activation,
                                  n: usize| {
                    let mut twin = rng.clone();
                    op.inject(model, act, n, &mut rng);
                    reference.inject(model, act, n, &mut twin);
                    assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "{case}");
                };
                inject(&mut op, &mut reference, act, 2 + seed as usize * 2);
                most_steps[m] = most_steps[m].max(reference.steps());
                op.reset_state();
                reference.sim.reset_state();
                let mut data = ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF);
                let seq = stimulus(&mut data, reference.ins.len(), 48);
                for (call, words) in seq.iter().enumerate() {
                    assert_eq!(
                        op.call(words),
                        reference.call(words),
                        "{case}: call {call} on {words:?}"
                    );
                    if call == 15 || call == 37 {
                        op.reset_state();
                        reference.sim.reset_state();
                    }
                    if call == 25 {
                        // A second lifetime joins mid-sequence.
                        inject(&mut op, &mut reference, LIFETIMES[(l + 1) % 3], 2);
                        most_steps[m] = most_steps[m].max(reference.steps());
                        op.reset_state();
                        reference.sim.reset_state();
                    }
                }
            }
        }
    }
    most_steps
}

#[test]
fn adder_engine_matches_reference() {
    let steps = engine_matches_reference(|| Box::new(HwAdder::new()));
    assert!(steps.iter().all(|&s| s >= 2), "multi-step plans: {steps:?}");
}

#[test]
fn multiplier_engine_matches_reference() {
    let steps = engine_matches_reference(|| Box::new(HwMultiplier::new()));
    assert!(steps.iter().all(|&s| s >= 2), "multi-step plans: {steps:?}");
}

#[test]
fn sigmoid_engine_matches_reference() {
    let steps = engine_matches_reference(|| Box::new(HwSigmoid::new()));
    assert!(steps.iter().all(|&s| s >= 2), "multi-step plans: {steps:?}");
}

/// Step instructions whose pins read a constant register: dynamic faults
/// placed on gates driven by a tie cell, whose constant the optimizer
/// folds everywhere else.
#[test]
fn steps_on_constant_pins_match_reference() {
    let mul = FxMulCircuit::new();
    let sig = SigmoidUnitCircuit::new();
    let circuits = [
        (mul.netlist(), vec![mul.a_bus(), mul.b_bus()], mul.out_bus()),
        (sig.netlist(), vec![sig.x_bus()], sig.out_bus()),
    ];
    for (net, ins, out) in circuits {
        let tied: Vec<NodeId> = net
            .gates()
            .map(|(id, _)| id)
            .filter(|&id| match net.node(id) {
                Node::Gate { inputs, .. } => inputs.iter().any(|&i| {
                    matches!(
                        net.node(i),
                        Node::Gate {
                            kind: GateKind::Const(_),
                            ..
                        }
                    )
                }),
                _ => false,
            })
            .collect();
        assert!(tied.len() >= 8, "circuit has tie-driven gates");
        let prog = LutProgram::cached(net);
        for (k, model) in [FaultModel::TransistorLevel, FaultModel::GateLevel]
            .into_iter()
            .enumerate()
        {
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64 + 77);
            let mut plan = DefectPlan::new(model);
            for i in 0..6 {
                let gate = tied[(i * 97 + k) % tied.len()];
                plan.add_random_in_gate_with(net, gate, 0, LIFETIMES[1 + i % 2], &mut rng);
            }
            let (instrs, steps) = plan.lower(&prog);
            assert_eq!(steps.len(), 6);
            let mut exec = OpExec::compile(&prog, &instrs, steps, &ins, out);
            let mut sim = Simulator::new(Arc::clone(net));
            plan.apply(&mut sim);
            let mut data = ChaCha8Rng::seed_from_u64(k as u64);
            for (call, words) in stimulus(&mut data, ins.len(), 40).iter().enumerate() {
                for (bus, &w) in ins.iter().zip(words) {
                    sim.set_input_word(bus, w);
                }
                sim.settle();
                assert_eq!(exec.call(words), sim.read_word(out), "{model}: call {call}");
            }
        }
    }
}
