//! Random defect placement into operator circuits.
//!
//! The paper's §VI-C procedure: "we randomly pick one of the logic
//! operators or latches ... and one 1-bit operator or wire within the
//! target operator"; defects are "randomly spread over the operator bits,
//! and within each 1-bit operation, over all transistors". A
//! [`DefectPlan`] reproduces this: it first draws a uniformly random
//! *bit cell* of the circuit, then a gate within that cell, then a
//! defect site inside that gate — at the transistor level
//! ([`FaultModel::TransistorLevel`]) or with the stuck-at baseline
//! ([`FaultModel::GateLevel`], for the Figure 5 comparison).
//!
//! Each injected defect additionally carries an
//! [`Activation`] lifetime: `Permanent` defects are folded into the
//! gate's schematic (the paper's manufacturing-defect model), while
//! `Transient`/`Intermittent` ones are installed as *dynamic* defects
//! whose presence is decided per evaluation by a seeded
//! [`ActivationState`] — at the transistor level through
//! [`DynamicCell`], at the gate level through a dynamic stuck-at
//! wrapper.

use std::collections::HashMap;
use std::fmt;

use rand::seq::IndexedRandom;
use rand::Rng;

use dta_logic::gate::GateBehavior;
use dta_logic::{
    LutInstr, LutProgram, Netlist, Node, NodeId, Simulator, StuckAt, StuckPort, StuckSet,
};
use dta_transistor::{
    Activation, ActivationState, CachedCell, CellTable, CmosCell, Defect, DynamicCell,
    DynamicDefect, DynamicRefCell, FaultyCell,
};

/// Which fault model to inject with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Physical defects (opens, shorts, bridges, delays) inside the CMOS
    /// schematic of the gate, evaluated at the switch level — the
    /// paper's contribution.
    TransistorLevel,
    /// Stuck-at-0/1 on gate inputs/outputs — the abstract baseline the
    /// paper argues is inaccurate.
    GateLevel,
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::TransistorLevel => write!(f, "transistor-level"),
            FaultModel::GateLevel => write!(f, "gate-level"),
        }
    }
}

/// One injected defect, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefectRecord {
    /// The affected gate instance.
    pub gate: NodeId,
    /// The bit-cell group the gate belongs to.
    pub bit: usize,
    /// Human-readable description of the physical defect (suffixed with
    /// the activation class for non-permanent defects).
    pub description: String,
}

/// The transistor-level fault state of one gate instance: permanent
/// defects folded into the schematic, dynamic ones kept as
/// `(site, lifetime, seed)` descriptions until apply time.
#[derive(Clone, Debug)]
struct TransGate {
    cell: CmosCell,
    dynamic: Vec<(Defect, Activation, u64)>,
}

/// The gate-level fault state of one gate instance: permanent stuck-at
/// faults merged into a [`StuckSet`], dynamic ones applied per
/// evaluation on top.
#[derive(Clone, Debug)]
struct StuckGate {
    set: StuckSet,
    dynamic: Vec<(StuckPort, bool, Activation, u64)>,
}

/// Gate behavior for dynamically activated stuck-at faults: each
/// evaluation advances the per-fault activation machines and overlays
/// the active faults on the permanent [`StuckSet`], as if they had been
/// added to it after its own faults. Permanent output faults keep their
/// first-wins precedence over dynamic ones (the plan injects them
/// first).
#[derive(Clone, Debug)]
struct DynamicStuck {
    base: StuckSet,
    dynamic: Vec<(StuckPort, bool, ActivationState)>,
}

impl GateBehavior for DynamicStuck {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        let mut pins = [false; 4];
        pins[..inputs.len()].copy_from_slice(inputs);
        self.base.patch_inputs(&mut pins);
        let mut out = self.base.output_fault();
        for (port, value, state) in &mut self.dynamic {
            if state.advance() {
                match *port {
                    StuckPort::Output => {
                        out.get_or_insert(*value);
                    }
                    StuckPort::Input(k) => pins[k] = *value,
                }
            }
        }
        out.unwrap_or_else(|| self.base.kind().eval(&pins[..inputs.len()]))
    }

    fn reset(&mut self) {
        for (_, _, state) in &mut self.dynamic {
            state.reset();
        }
    }
}

/// An accumulating set of random defects targeting one circuit, applied
/// to a [`Simulator`] as gate-behavior overrides.
///
/// Multiple defects may land in the same gate; the plan accumulates them
/// into a single faulty-cell model per gate, exactly like multiple
/// physical defects in one cell.
///
/// # Example
///
/// ```
/// use dta_circuits::{AdderCircuit, DefectPlan, FaultModel};
/// use rand::SeedableRng;
///
/// let adder = AdderCircuit::new(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
/// for _ in 0..5 {
///     plan.add_random(adder.netlist(), adder.cells(), &mut rng);
/// }
/// assert_eq!(plan.len(), 5);
/// let mut sim = adder.simulator();
/// plan.apply(&mut sim); // subsequent compute() calls see the defects
/// ```
#[derive(Clone, Debug, Default)]
pub struct DefectPlan {
    model: Option<FaultModel>,
    trans_cells: HashMap<NodeId, TransGate>,
    stuck_sets: HashMap<NodeId, StuckGate>,
    records: Vec<DefectRecord>,
}

impl DefectPlan {
    /// Creates an empty plan using the given fault model.
    pub fn new(model: FaultModel) -> DefectPlan {
        DefectPlan {
            model: Some(model),
            ..DefectPlan::default()
        }
    }

    /// The fault model of this plan.
    pub fn model(&self) -> FaultModel {
        self.model.expect("constructed via DefectPlan::new")
    }

    /// Number of injected defects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no defect has been injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True if any injected defect has a non-permanent lifetime, i.e.
    /// its gate lowers to a step instruction rather than a truth-word
    /// patch.
    pub fn has_dynamic(&self) -> bool {
        self.trans_cells.values().any(|g| !g.dynamic.is_empty())
            || self.stuck_sets.values().any(|g| !g.dynamic.is_empty())
    }

    /// Reports of every injected defect, in injection order.
    pub fn records(&self) -> &[DefectRecord] {
        &self.records
    }

    /// Injects one uniformly random **permanent** defect: random
    /// non-empty bit cell → random gate within it → random site within
    /// the gate.
    ///
    /// # Panics
    ///
    /// Panics if `cells` contains no gates, or if a listed id is not a
    /// gate of `net`.
    pub fn add_random<R: Rng + ?Sized>(
        &mut self,
        net: &Netlist,
        cells: &[Vec<NodeId>],
        rng: &mut R,
    ) {
        self.add_random_with(net, cells, Activation::Permanent, rng);
    }

    /// Injects one uniformly random defect with the given lifetime.
    /// For [`Activation::Permanent`] this consumes exactly the same RNG
    /// draws as [`DefectPlan::add_random`]; non-permanent defects draw
    /// one extra `u64` to seed their activation stream.
    ///
    /// # Panics
    ///
    /// Panics if `cells` contains no gates, or if a listed id is not a
    /// gate of `net`.
    pub fn add_random_with<R: Rng + ?Sized>(
        &mut self,
        net: &Netlist,
        cells: &[Vec<NodeId>],
        activation: Activation,
        rng: &mut R,
    ) {
        let nonempty: Vec<&Vec<NodeId>> = cells.iter().filter(|c| !c.is_empty()).collect();
        let group = *nonempty
            .choose(rng)
            .expect("circuit must have at least one bit cell");
        let bit = cells
            .iter()
            .position(|c| std::ptr::eq(c, group))
            .expect("group came from cells");
        let gate = *group.choose(rng).expect("group is non-empty");
        self.add_random_in_gate_with(net, gate, bit, activation, rng);
    }

    /// Injects one random defect with the given lifetime into a
    /// specific gate instance.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a gate node of `net`.
    pub fn add_random_in_gate_with<R: Rng + ?Sized>(
        &mut self,
        net: &Netlist,
        gate: NodeId,
        bit: usize,
        activation: Activation,
        rng: &mut R,
    ) {
        let kind = match net.node(gate) {
            Node::Gate { kind, .. } => *kind,
            other => panic!("{gate} is not a gate: {other:?}"),
        };
        let description = match self.model() {
            FaultModel::TransistorLevel => {
                let entry = self.trans_cells.entry(gate).or_insert_with(|| TransGate {
                    cell: CmosCell::for_gate(kind),
                    dynamic: Vec::new(),
                });
                let defect = entry.cell.random_defect(rng);
                if activation.is_permanent() {
                    entry.cell.inject(defect).expect("site came from this cell");
                    format!("{kind}: {defect}")
                } else {
                    let seed = rng.random::<u64>();
                    entry.dynamic.push((defect, activation, seed));
                    format!("{kind}: {defect} [{activation}]")
                }
            }
            FaultModel::GateLevel => {
                let sites = StuckAt::sites(kind);
                let &(port, value) = sites.choose(rng).expect("cells have sites");
                let entry = self.stuck_sets.entry(gate).or_insert_with(|| StuckGate {
                    set: StuckSet::new(kind),
                    dynamic: Vec::new(),
                });
                if activation.is_permanent() {
                    entry.set.add(port, value);
                    format!("{kind}: {port:?} stuck at {}", u8::from(value))
                } else {
                    let seed = rng.random::<u64>();
                    entry.dynamic.push((port, value, activation, seed));
                    format!(
                        "{kind}: {port:?} stuck at {} [{activation}]",
                        u8::from(value)
                    )
                }
            }
        };
        self.records.push(DefectRecord {
            gate,
            bit,
            description,
        });
    }

    fn dynamic_defects(gate: &TransGate) -> Vec<DynamicDefect> {
        gate.dynamic
            .iter()
            .map(|&(d, a, s)| DynamicDefect::new(d, a, s))
            .collect()
    }

    /// Installs the accumulated faulty-gate behaviors into a simulator.
    /// Previously installed overrides for other gates are left in place.
    ///
    /// Transistor-level faults evaluate through the memoized truth
    /// tables of [`CachedCell`]: the first plan to see a given
    /// `(kind, defect set)` compiles its table, every later plan in the
    /// process reuses it. Gates carrying dynamic (transient or
    /// intermittent) defects install a [`DynamicCell`] whose tables are
    /// keyed by the currently-active defect subset. Bit-identical to the
    /// switch-level evaluator installed by
    /// [`DefectPlan::apply_switch_level`].
    pub fn apply(&self, sim: &mut Simulator) {
        for (&gate, tg) in &self.trans_cells {
            sim.override_gate(gate, Self::trans_behavior(tg));
        }
        for (&gate, sg) in &self.stuck_sets {
            sim.override_gate(gate, Self::stuck_behavior(sg));
        }
    }

    /// Installs the faulty-gate behaviors using the uncached
    /// switch-level evaluator ([`FaultyCell`], or [`DynamicRefCell`]
    /// for gates with dynamic defects). Same results as
    /// [`DefectPlan::apply`], minus the truth-table memoization — kept
    /// as the baseline for benchmarks and equivalence tests.
    pub fn apply_switch_level(&self, sim: &mut Simulator) {
        for (&gate, tg) in &self.trans_cells {
            if tg.dynamic.is_empty() {
                sim.override_gate(gate, Box::new(FaultyCell::new(tg.cell.clone())));
            } else {
                let dynamic = DynamicRefCell::new(tg.cell.clone(), Self::dynamic_defects(tg))
                    .expect("dynamic sites were drawn from this cell");
                sim.override_gate(gate, Box::new(dynamic));
            }
        }
        for (&gate, sg) in &self.stuck_sets {
            sim.override_gate(gate, Self::stuck_behavior(sg));
        }
    }

    /// The memoized behavior of a transistor-level faulty gate.
    fn trans_behavior(tg: &TransGate) -> Box<dyn GateBehavior> {
        if tg.dynamic.is_empty() {
            Box::new(CachedCell::new(&tg.cell))
        } else {
            let dynamic = DynamicCell::new(tg.cell.clone(), Self::dynamic_defects(tg))
                .expect("dynamic sites were drawn from this cell");
            Box::new(dynamic)
        }
    }

    fn stuck_behavior(sg: &StuckGate) -> Box<dyn GateBehavior> {
        if sg.dynamic.is_empty() {
            Box::new(sg.set.clone())
        } else {
            Box::new(DynamicStuck {
                base: sg.set.clone(),
                dynamic: sg
                    .dynamic
                    .iter()
                    .map(|&(port, value, act, seed)| (port, value, ActivationState::new(act, seed)))
                    .collect(),
            })
        }
    }

    /// Lowers this plan onto `prog`, the circuit's compiled LUT
    /// instruction stream. A faulty gate that is combinational — a
    /// permanent transistor-level cell whose table collapses
    /// ([`CellTable::lut_patch`]) or a permanent stuck-at set — has its
    /// truth word patched in the returned copy of the stream. Every
    /// other faulty gate (reachable memory state, a delay defect, a
    /// transient or intermittent activation) becomes a **step
    /// instruction**: its position in the stream, paired with the same
    /// fresh [`GateBehavior`] that [`DefectPlan::apply`] installs in a
    /// simulator. Steps come in ascending stream order.
    #[allow(clippy::type_complexity)]
    pub fn lower(&self, prog: &LutProgram) -> (Vec<LutInstr>, Vec<(usize, Box<dyn GateBehavior>)>) {
        let mut instrs = prog.instrs().to_vec();
        let mut steps: Vec<(usize, Box<dyn GateBehavior>)> = Vec::new();
        let pos = |gate: NodeId| prog.instr_index(gate).expect("defects sit on gates");
        for (&gate, tg) in &self.trans_cells {
            let patch = if tg.dynamic.is_empty() {
                CellTable::cached(&tg.cell).lut_patch()
            } else {
                None
            };
            match patch {
                Some(t) => instrs[pos(gate)].table = t,
                None => steps.push((pos(gate), Self::trans_behavior(tg))),
            }
        }
        for (&gate, sg) in &self.stuck_sets {
            if sg.dynamic.is_empty() {
                instrs[pos(gate)].table = Self::stuck_table(&sg.set);
            } else {
                steps.push((pos(gate), Self::stuck_behavior(sg)));
            }
        }
        steps.sort_unstable_by_key(|&(at, _)| at);
        (instrs, steps)
    }

    /// Collapses a permanent stuck-at set into a LUT truth word by
    /// evaluating it over all `2^arity` packed pin assignments (the set
    /// is stateless, so the collapse is exact).
    fn stuck_table(set: &StuckSet) -> u16 {
        let n = set.kind().arity();
        let mut s = set.clone();
        let mut table = 0u16;
        let mut buf = [false; 4];
        for v in 0..1u16 << n {
            for (k, b) in buf.iter_mut().enumerate().take(n) {
                *b = (v >> k) & 1 == 1;
            }
            if s.eval(&buf[..n]) {
                table |= 1 << v;
            }
        }
        table
    }

    /// Removes this plan's overrides from a simulator (restoring the
    /// healthy circuit).
    pub fn remove(&self, sim: &mut Simulator) {
        for &gate in self.trans_cells.keys().chain(self.stuck_sets.keys()) {
            sim.clear_override(gate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::AdderCircuit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn transistor_plan_accumulates_and_applies() {
        let adder = AdderCircuit::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
        for _ in 0..20 {
            plan.add_random(adder.netlist(), adder.cells(), &mut rng);
        }
        assert_eq!(plan.len(), 20);
        assert_eq!(plan.model(), FaultModel::TransistorLevel);
        assert!(!plan.is_empty());
        assert!(!plan.has_dynamic());
        let mut sim = adder.simulator();
        plan.apply(&mut sim);
        assert!(sim.override_count() > 0);
        assert!(sim.override_count() <= 20);
        // The circuit still produces *some* 4-bit outputs.
        let (s, _) = adder.compute(&mut sim, 3, 5);
        assert!(s < 16);
        // Removing the plan restores exact arithmetic.
        plan.remove(&mut sim);
        assert_eq!(sim.override_count(), 0);
        assert_eq!(adder.compute(&mut sim, 3, 5), (8, false));
    }

    #[test]
    fn gate_plan_uses_stuck_model() {
        let adder = AdderCircuit::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut plan = DefectPlan::new(FaultModel::GateLevel);
        plan.add_random(adder.netlist(), adder.cells(), &mut rng);
        assert_eq!(plan.len(), 1);
        assert!(plan.records()[0].description.contains("stuck at"));
        let mut sim = adder.simulator();
        plan.apply(&mut sim);
        assert_eq!(sim.override_count(), 1);
    }

    #[test]
    fn records_identify_bit_cells() {
        let adder = AdderCircuit::new(8);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
        for _ in 0..50 {
            plan.add_random(adder.netlist(), adder.cells(), &mut rng);
        }
        for rec in plan.records() {
            assert!(rec.bit < 8);
            assert!(adder.cells()[rec.bit].contains(&rec.gate));
        }
        // With 50 draws over 8 bits, several distinct bits are hit.
        let distinct: std::collections::HashSet<usize> =
            plan.records().iter().map(|r| r.bit).collect();
        assert!(distinct.len() >= 4);
    }

    #[test]
    fn cached_apply_matches_switch_level_apply() {
        // The memoized truth tables installed by `apply` must reproduce
        // the uncached switch-level evaluator exactly, including state
        // carried across calls, over many random plans.
        let adder = AdderCircuit::new(4);
        for seed in 0..12 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
            for _ in 0..4 {
                plan.add_random(adder.netlist(), adder.cells(), &mut rng);
            }
            let mut cached = adder.simulator();
            plan.apply(&mut cached);
            let mut switch = adder.simulator();
            plan.apply_switch_level(&mut switch);
            for a in 0..16u64 {
                for b in 0..16u64 {
                    assert_eq!(
                        adder.compute(&mut cached, a, b),
                        adder.compute(&mut switch, a, b),
                        "seed {seed}: diverged at {a}+{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_apply_matches_switch_level_apply() {
        // Same equivalence under transient and intermittent lifetimes:
        // the table-backed DynamicCell and the uncached DynamicRefCell
        // see identical seeded activation streams, so whole-circuit
        // outputs must stay bit-identical call by call.
        let adder = AdderCircuit::new(4);
        for (seed, activation) in [
            (
                0u64,
                Activation::Transient {
                    per_eval_probability: 0.3,
                },
            ),
            (1, Activation::Intermittent { period: 5, duty: 2 }),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
            for i in 0..4 {
                // Mix permanent and dynamic defects in one plan.
                let act = if i % 2 == 0 {
                    activation
                } else {
                    Activation::Permanent
                };
                plan.add_random_with(adder.netlist(), adder.cells(), act, &mut rng);
            }
            assert!(plan.has_dynamic());
            let mut cached = adder.simulator();
            plan.apply(&mut cached);
            let mut switch = adder.simulator();
            plan.apply_switch_level(&mut switch);
            for a in 0..16u64 {
                for b in 0..16u64 {
                    assert_eq!(
                        adder.compute(&mut cached, a, b),
                        adder.compute(&mut switch, a, b),
                        "{activation}: diverged at {a}+{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_records_name_the_activation() {
        let adder = AdderCircuit::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
        plan.add_random_with(
            adder.netlist(),
            adder.cells(),
            Activation::Transient {
                per_eval_probability: 0.1,
            },
            &mut rng,
        );
        assert!(plan.records()[0].description.contains("transient(p=0.1)"));
        let mut gate_plan = DefectPlan::new(FaultModel::GateLevel);
        gate_plan.add_random_with(
            adder.netlist(),
            adder.cells(),
            Activation::Intermittent { period: 8, duty: 3 },
            &mut rng,
        );
        assert!(gate_plan.records()[0]
            .description
            .contains("intermittent(3/8)"));
        // Dynamic gate-level plans install and evaluate.
        let mut sim = adder.simulator();
        gate_plan.apply(&mut sim);
        assert_eq!(sim.override_count(), 1);
        let (s, _) = adder.compute(&mut sim, 2, 2);
        assert!(s < 16);
    }

    #[test]
    fn permanent_activation_is_rng_compatible_with_add_random() {
        // `add_random_with(Permanent)` must consume the same RNG draws
        // and produce the same plan as the original `add_random`.
        let adder = AdderCircuit::new(4);
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = a.clone();
        let mut plain = DefectPlan::new(FaultModel::TransistorLevel);
        let mut with = DefectPlan::new(FaultModel::TransistorLevel);
        for _ in 0..10 {
            plain.add_random(adder.netlist(), adder.cells(), &mut a);
            with.add_random_with(
                adder.netlist(),
                adder.cells(),
                Activation::Permanent,
                &mut b,
            );
        }
        assert_eq!(plain.records(), with.records());
        assert_eq!(a.random::<u64>(), b.random::<u64>(), "RNG streams aligned");
    }

    /// Random plans on one operator circuit, for both fault models and
    /// every activation class. A plan that lowers without step
    /// instructions must, run as a one-segment fused stream, equal the
    /// scalar simulator row for row; a plan with a stateful or dynamic
    /// cell must lower to at least one step.
    fn patch_lowering_matches_scalar(
        net: &Arc<Netlist>,
        cells: &[Vec<NodeId>],
        ins: &[&[NodeId]],
        out: &[NodeId],
    ) {
        use dta_logic::{FuseBuilder, FusedExec};
        let prog = LutProgram::compile(Arc::clone(net));
        let (mut accepted, mut refused) = (0, 0);
        for model in [FaultModel::TransistorLevel, FaultModel::GateLevel] {
            for activation in [
                Activation::Permanent,
                Activation::Transient {
                    per_eval_probability: 0.3,
                },
                Activation::Intermittent { period: 5, duty: 2 },
            ] {
                for seed in 0..6u64 {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut plan = DefectPlan::new(model);
                    for _ in 0..=seed {
                        plan.add_random_with(net, cells, activation, &mut rng);
                    }
                    let stateful = plan.has_dynamic()
                        || plan
                            .trans_cells
                            .values()
                            .any(|g| CellTable::cached(&g.cell).lut_patch().is_none());
                    let case = format!("{model} {activation} seed {seed}");
                    let (instrs, steps) = plan.lower(&prog);
                    if !steps.is_empty() {
                        assert!(stateful, "{case}: stepped a patchable plan");
                        refused += 1;
                        continue;
                    }
                    assert!(!stateful, "{case}: patched a stateful plan");
                    accepted += 1;

                    let mut fb = FuseBuilder::new();
                    let buses: Vec<Vec<u32>> = ins.iter().map(|b| fb.fresh_bus(b.len())).collect();
                    let bind: Vec<(u32, u32)> = ins
                        .iter()
                        .zip(&buses)
                        .flat_map(|(b, f)| b.iter().map(|id| id.index() as u32).zip(f.clone()))
                        .collect();
                    let map = fb.append(&instrs, prog.n_slots(), &bind);
                    let out_slots: Vec<u32> = out.iter().map(|id| map[id.index()]).collect();
                    let mut ex = FusedExec::new(Arc::new(fb.finish()));
                    let mut sim = Simulator::new(Arc::clone(net));
                    plan.apply(&mut sim);

                    let mut data = ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF);
                    let rows: Vec<Vec<u64>> = (0..100)
                        .map(|_| {
                            ins.iter()
                                .map(|b| data.random::<u64>() & ((1 << b.len()) - 1))
                                .collect()
                        })
                        .collect();
                    for chunk in rows.chunks(64) {
                        for (k, bus) in buses.iter().enumerate() {
                            let words: Vec<u64> = chunk.iter().map(|r| r[k]).collect();
                            ex.set_bus_words(bus, &words);
                        }
                        ex.exec();
                        for (lane, row) in chunk.iter().enumerate() {
                            for (bus, &w) in ins.iter().zip(row) {
                                sim.set_input_word(bus, w);
                            }
                            sim.settle();
                            assert_eq!(
                                ex.read_word_lane(&out_slots, lane),
                                sim.read_word(out),
                                "{case}: fused diverged from scalar on {row:?}"
                            );
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
    fn adder_patch_lowering_matches_scalar() {
        let c = crate::SatAdderCircuit::new();
        patch_lowering_matches_scalar(c.netlist(), c.cells(), &[c.a_bus(), c.b_bus()], c.out_bus());
    }

    #[test]
    fn multiplier_patch_lowering_matches_scalar() {
        let c = crate::FxMulCircuit::new();
        patch_lowering_matches_scalar(c.netlist(), c.cells(), &[c.a_bus(), c.b_bus()], c.out_bus());
    }

    #[test]
    fn sigmoid_patch_lowering_matches_scalar() {
        let c = crate::SigmoidUnitCircuit::new();
        patch_lowering_matches_scalar(c.netlist(), c.cells(), &[c.x_bus()], c.out_bus());
    }

    #[test]
    fn single_defect_changes_some_output() {
        // At least one of a handful of seeds must corrupt an output
        // somewhere in the truth table (sanity: injection does something).
        let adder = AdderCircuit::new(4);
        let mut any_changed = false;
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut plan = DefectPlan::new(FaultModel::TransistorLevel);
            plan.add_random(adder.netlist(), adder.cells(), &mut rng);
            let mut sim = adder.simulator();
            plan.apply(&mut sim);
            for a in 0..16u64 {
                for b in 0..16u64 {
                    let (s, c) = adder.compute(&mut sim, a, b);
                    let got = s | (u64::from(c) << 4);
                    if got != a + b {
                        any_changed = true;
                    }
                }
            }
        }
        assert!(any_changed, "five random defects all invisible is a bug");
    }
}
