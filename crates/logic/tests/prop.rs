//! Property tests: random netlists must evaluate identically under the
//! reference simulator, the 64-lane fused LUT stream (one segment), the
//! one-lane operator executor (mapped onto 4-input LUTs or not), and a
//! direct recursive reference evaluator.

use std::sync::Arc;

use dta_logic::{
    FuseBuilder, FusedExec, GateBehavior, GateKind, LutProgram, Netlist, NetlistBuilder, Node,
    NodeId, OpExec, OpProgram, Simulator,
};
use proptest::prelude::*;

/// A recipe for one random gate: kind selector and input selectors
/// (resolved modulo the number of available nodes at build time).
#[derive(Clone, Debug)]
struct GateRecipe {
    kind_sel: u8,
    input_sels: [u16; 4],
}

fn kinds() -> [GateKind; 13] {
    GateKind::ALL
}

fn build(n_inputs: usize, recipes: &[GateRecipe]) -> (Arc<Netlist>, Vec<NodeId>, Vec<NodeId>) {
    let (net, inputs, _, outputs) = build_with_gates(n_inputs, recipes);
    (net, inputs, outputs)
}

#[allow(clippy::type_complexity)]
fn build_with_gates(
    n_inputs: usize,
    recipes: &[GateRecipe],
) -> (Arc<Netlist>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let mut b = NetlistBuilder::new();
    let inputs = b.input_bus("x", n_inputs);
    let mut pool: Vec<NodeId> = inputs.clone();
    let mut gates = Vec::new();
    for r in recipes {
        let kind = kinds()[r.kind_sel as usize % kinds().len()];
        let ins: Vec<NodeId> = (0..kind.arity())
            .map(|k| pool[r.input_sels[k] as usize % pool.len()])
            .collect();
        let g = b.gate(kind, &ins);
        pool.push(g);
        gates.push(g);
    }
    let outputs: Vec<NodeId> = pool.iter().rev().take(4).copied().collect();
    b.output_bus("y", &outputs);
    (Arc::new(b.build()), inputs, gates, outputs)
}

/// Like [`build_with_gates`], but with a layer of latches between two
/// gate clouds: latch data inputs come from the first cloud, the second
/// cloud consumes the latch outputs.
#[allow(clippy::type_complexity)]
fn build_seq(
    n_inputs: usize,
    pre: &[GateRecipe],
    latch_sels: &[(u16, bool)],
    post: &[GateRecipe],
) -> (Arc<Netlist>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let mut b = NetlistBuilder::new();
    let inputs = b.input_bus("x", n_inputs);
    let mut pool: Vec<NodeId> = inputs.clone();
    let mut gates = Vec::new();
    let mut grow = |b: &mut NetlistBuilder, pool: &mut Vec<NodeId>, recipes: &[GateRecipe]| {
        for r in recipes {
            let kind = kinds()[r.kind_sel as usize % kinds().len()];
            let ins: Vec<NodeId> = (0..kind.arity())
                .map(|k| pool[r.input_sels[k] as usize % pool.len()])
                .collect();
            let g = b.gate(kind, &ins);
            pool.push(g);
            gates.push(g);
        }
    };
    grow(&mut b, &mut pool, pre);
    let latches: Vec<NodeId> = latch_sels
        .iter()
        .map(|&(sel, init)| b.latch(pool[sel as usize % pool.len()], init))
        .collect();
    pool.extend(&latches);
    grow(&mut b, &mut pool, post);
    let outputs: Vec<NodeId> = pool.iter().rev().take(4).copied().collect();
    b.output_bus("y", &outputs);
    (Arc::new(b.build()), inputs, gates, outputs)
}

/// A stateful faulty cell: passes its first input through, but flips it
/// on every `period`-th evaluation. Bit-identity across engines requires
/// that they feed every override the exact same evaluation sequence.
#[derive(Debug)]
struct PeriodicFlip {
    n: u32,
    period: u32,
}

impl GateBehavior for PeriodicFlip {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        self.n = self.n.wrapping_add(1);
        let healthy = inputs.first().copied().unwrap_or(false);
        healthy ^ self.n.is_multiple_of(self.period)
    }

    fn reset(&mut self) {
        self.n = 0;
    }
}

/// A stateless truth-word override: the scalar-simulator twin of a
/// patched LUT instruction, so patched streams can be checked against
/// an identically faulted reference simulator.
#[derive(Debug)]
struct TableBehavior {
    table: u16,
}

impl GateBehavior for TableBehavior {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        let v = inputs
            .iter()
            .enumerate()
            .fold(0usize, |acc, (k, &b)| acc | (usize::from(b) << k));
        (self.table >> v) & 1 == 1
    }

    fn reset(&mut self) {}
}

/// All-ones truth word for a gate's arity (tables are `2^arity` bits).
fn table_mask(net: &Netlist, id: NodeId) -> u16 {
    match net.node(id) {
        Node::Gate { kind, .. } => ((1u32 << (1usize << kind.arity())) - 1) as u16,
        _ => unreachable!("patch targets are gates"),
    }
}

/// `net` compiled and run as a one-segment fused program, with
/// `patches` lowered into truth words. `inputs` are bound to fresh
/// slots; the returned map sends every node index to its fused slot.
fn fused(
    net: &Arc<Netlist>,
    inputs: &[NodeId],
    patches: &[(NodeId, u16)],
) -> (FusedExec, Vec<u32>) {
    let prog = LutProgram::compile(Arc::clone(net));
    let mut instrs = prog.instrs().to_vec();
    for &(g, t) in patches {
        instrs[prog.instr_index(g).expect("patch targets are gates")].table = t;
    }
    let mut fb = FuseBuilder::new();
    let bind: Vec<(u32, u32)> = inputs
        .iter()
        .map(|id| (id.index() as u32, fb.fresh_slot()))
        .collect();
    let map = fb.append(&instrs, prog.n_slots(), prog.latch_slots(), &bind);
    (FusedExec::new(Arc::new(fb.finish())), map)
}

fn slots(map: &[u32], ids: &[NodeId]) -> Vec<u32> {
    ids.iter().map(|id| map[id.index()]).collect()
}

/// Reference: recursively evaluate a node from the netlist structure.
fn reference_eval(net: &Netlist, id: NodeId, input_vals: &[(NodeId, bool)]) -> bool {
    match net.node(id) {
        Node::Input { .. } => {
            input_vals
                .iter()
                .find(|(i, _)| *i == id)
                .expect("all inputs driven")
                .1
        }
        Node::Gate { kind, inputs } => {
            let vals: Vec<bool> = inputs
                .iter()
                .map(|&i| reference_eval(net, i, input_vals))
                .collect();
            kind.eval(&vals)
        }
        Node::Latch { .. } => unreachable!("no latches generated"),
    }
}

fn recipe_strategy() -> impl Strategy<Value = GateRecipe> {
    (any::<u8>(), any::<[u16; 4]>()).prop_map(|(kind_sel, input_sels)| GateRecipe {
        kind_sel,
        input_sels,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_netlists(
        n_inputs in 1usize..6,
        recipes in prop::collection::vec(recipe_strategy(), 1..40),
        stimulus in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let (net, inputs, outputs) = build(n_inputs, &recipes);
        let mut scalar = Simulator::new(net.clone());
        let (mut vector, map) = fused(&net, &inputs, &[]);
        let in_slots = slots(&map, &inputs);

        for word in &stimulus {
            let word = *word as u64;
            scalar.set_input_word(&inputs, word);
            scalar.settle();
            vector.set_bus_words(&in_slots, &[word]);
            vector.exec();

            let driven: Vec<(NodeId, bool)> = inputs
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, word >> i & 1 == 1))
                .collect();
            for &out in &outputs {
                let want = reference_eval(&net, out, &driven);
                prop_assert_eq!(scalar.value(out), want, "scalar vs reference");
                prop_assert_eq!(
                    vector.slot(map[out.index()]) & 1 == 1,
                    want,
                    "vector lane 0 vs reference"
                );
            }
        }
    }

    /// The one-lane operator executor is bit-identical to the reference
    /// simulator carrying the same behaviors: patched truth words for
    /// stateless faults, step instructions for stateful ones, over
    /// stimulus sequences with repeated inputs and mid-sequence resets.
    #[test]
    fn op_exec_matches_simulator(
        n_inputs in 1usize..6,
        recipes in prop::collection::vec(recipe_strategy(), 1..40),
        patch_sels in prop::collection::vec((any::<u16>(), any::<u16>()), 0..3),
        step_sels in prop::collection::vec((any::<u16>(), 1u32..5), 0..4),
        stimulus in prop::collection::vec(0u8..4, 1..24),
        reset_at in any::<u8>(),
    ) {
        let (net, inputs, gates, outputs) = build_with_gates(n_inputs, &recipes);
        let prog = LutProgram::compile(Arc::clone(&net));
        let mut sim = Simulator::new(Arc::clone(&net));
        let mut instrs = prog.instrs().to_vec();
        for &(sel, table) in &patch_sels {
            let g = gates[sel as usize % gates.len()];
            let t = table & table_mask(&net, g);
            sim.override_gate(g, Box::new(TableBehavior { table: t }));
            instrs[prog.instr_index(g).unwrap()].table = t;
        }
        let mut steps: Vec<(usize, Box<dyn GateBehavior>)> = Vec::new();
        for &(sel, period) in &step_sels {
            let g = gates[sel as usize % gates.len()];
            let at = prog.instr_index(g).unwrap();
            if steps.iter().any(|s| s.0 == at) {
                continue;
            }
            sim.override_gate(g, Box::new(PeriodicFlip { n: 0, period }));
            steps.push((at, Box::new(PeriodicFlip { n: 0, period })));
        }
        steps.sort_by_key(|s| s.0);
        let mut op = dta_logic::OpExec::compile(&prog, &instrs, steps, &[&inputs[..]], &outputs);
        for (step, &word) in stimulus.iter().enumerate() {
            let w = u64::from(word);
            sim.set_input_word(&inputs, w);
            sim.settle();
            prop_assert_eq!(op.call(&[w]), sim.read_word(&outputs), "call {}", step);
            if step == reset_at as usize % stimulus.len() {
                sim.reset_state();
                op.reset_state();
            }
        }
    }

    /// Mapping onto 4-input LUTs changes no call: the mapped and
    /// unmapped executors of one operator agree call for call, over
    /// repeated inputs and across a reset, with patched truth words,
    /// constant pins, and stateful steps on internal and output-bus
    /// cells. The mapped stream is never longer and has at most four
    /// pins per instruction.
    #[test]
    fn mapped_op_exec_matches_unmapped(
        n_inputs in 1usize..6,
        recipes in prop::collection::vec(recipe_strategy(), 1..48),
        patch_sels in prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
        step_sels in prop::collection::vec((any::<u16>(), 1u32..5), 0..4),
        out_step_sels in prop::collection::vec((0usize..4, 1u32..5), 0..2),
        stimulus in prop::collection::vec(0u8..8, 1..32),
        reset_at in any::<u8>(),
    ) {
        let (net, inputs, gates, outputs) = build_with_gates(n_inputs, &recipes);
        let prog = LutProgram::compile(Arc::clone(&net));
        let mut instrs = prog.instrs().to_vec();
        for &(sel, table) in &patch_sels {
            let g = gates[sel as usize % gates.len()];
            instrs[prog.instr_index(g).unwrap()].table = table & table_mask(&net, g);
        }
        let on_outputs = out_step_sels
            .iter()
            .map(|&(k, period)| (outputs[k % outputs.len()], period));
        let mut steps: Vec<(usize, u32)> = step_sels
            .iter()
            .map(|&(sel, period)| (gates[sel as usize % gates.len()], period))
            .chain(on_outputs)
            .filter_map(|(id, period)| prog.instr_index(id).map(|at| (at, period)))
            .collect();
        steps.sort_by_key(|s| s.0);
        steps.dedup_by_key(|s| s.0);
        let behaviors = || -> Vec<Box<dyn GateBehavior>> {
            steps
                .iter()
                .map(|&(_, period)| Box::new(PeriodicFlip { n: 0, period }) as Box<dyn GateBehavior>)
                .collect()
        };
        let at: Vec<usize> = steps.iter().map(|s| s.0).collect();
        let unmapped = OpProgram::optimize(&prog, &instrs, &at, &[&inputs[..]], &outputs);
        let mapped = unmapped.map();
        prop_assert!(mapped.program().len() <= unmapped.program().len());
        prop_assert!(mapped.program().instrs().iter().all(|i| i.arity <= 4));
        let mut plain = OpExec::new(&unmapped, behaviors());
        let mut op = OpExec::new(&mapped, behaviors());
        prop_assert!(op.n_instrs() <= plain.n_instrs());
        for (call, &word) in stimulus.iter().enumerate() {
            let w = u64::from(word);
            prop_assert_eq!(op.call(&[w]), plain.call(&[w]), "call {}", call);
            if call == reset_at as usize % stimulus.len() {
                op.reset_state();
                plain.reset_state();
            }
        }
    }

    /// A patched one-segment fused stream, read in lane 0, must be
    /// bit-identical to the reference simulator with the same
    /// truth words installed, for any netlist with latches, across
    /// settle/tick cycles and state resets.
    #[test]
    fn fused_matches_event_simulator(
        n_inputs in 1usize..5,
        pre in prop::collection::vec(recipe_strategy(), 1..20),
        latch_sels in prop::collection::vec((any::<u16>(), any::<bool>()), 1..5),
        post in prop::collection::vec(recipe_strategy(), 1..20),
        patch_sels in prop::collection::vec((any::<u16>(), any::<u16>()), 0..3),
        stimulus in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let (net, inputs, gates, _) = build_seq(n_inputs, &pre, &latch_sels, &post);
        let mut sim = Simulator::new(net.clone());
        let mut patches = Vec::new();
        for &(sel, table) in &patch_sels {
            let g = gates[sel as usize % gates.len()];
            let t = table & table_mask(&net, g);
            sim.override_gate(g, Box::new(TableBehavior { table: t }));
            patches.push((g, t));
        }
        let (mut ex, map) = fused(&net, &inputs, &patches);
        let in_slots = slots(&map, &inputs);
        for (step, word) in stimulus.iter().enumerate() {
            let w = *word as u64;
            sim.set_input_word(&inputs, w);
            sim.settle();
            ex.set_bus_words(&in_slots, &[w]);
            ex.exec();
            for &id in &gates {
                prop_assert_eq!(
                    ex.slot(map[id.index()]) & 1 == 1, sim.value(id),
                    "node {:?} at step {}", id, step
                );
            }
            sim.tick();
            ex.tick();
            if step % 5 == 4 {
                sim.reset_state();
                ex.reset_state();
            }
        }
    }

    /// 64-lane sweeps over a patched sequential netlist must match an
    /// identically faulted scalar engine run independently per lane.
    #[test]
    fn fused_lanes_match_per_lane_scalar(
        n_inputs in 1usize..5,
        pre in prop::collection::vec(recipe_strategy(), 1..15),
        latch_sels in prop::collection::vec((any::<u16>(), any::<bool>()), 1..4),
        post in prop::collection::vec(recipe_strategy(), 1..15),
        patch_sels in prop::collection::vec((any::<u16>(), any::<u16>()), 0..3),
        stimulus in prop::collection::vec(any::<[u8; 6]>(), 1..8),
    ) {
        let (net, inputs, gates, _) = build_seq(n_inputs, &pre, &latch_sels, &post);
        let mut sims: Vec<Simulator> = (0..6).map(|_| Simulator::new(net.clone())).collect();
        let mut patches = Vec::new();
        for &(sel, table) in &patch_sels {
            let g = gates[sel as usize % gates.len()];
            let t = table & table_mask(&net, g);
            patches.push((g, t));
            for sim in &mut sims {
                sim.override_gate(g, Box::new(TableBehavior { table: t }));
            }
        }
        let (mut ex, map) = fused(&net, &inputs, &patches);
        let in_slots = slots(&map, &inputs);
        for (step, lanes) in stimulus.iter().enumerate() {
            let words: Vec<u64> = lanes.iter().map(|&w| w as u64).collect();
            ex.set_bus_words(&in_slots, &words);
            ex.exec();
            for (lane, sim) in sims.iter_mut().enumerate() {
                sim.set_input_word(&inputs, words[lane]);
                sim.settle();
                for &id in &gates {
                    prop_assert_eq!(
                        ex.slot(map[id.index()]) >> lane & 1 == 1, sim.value(id),
                        "node {:?}, lane {}, step {}", id, lane, step
                    );
                }
            }
            ex.tick();
            for sim in &mut sims {
                sim.tick();
            }
        }
    }

    #[test]
    fn logic_depth_bounded_by_gate_count(
        n_inputs in 1usize..5,
        recipes in prop::collection::vec(recipe_strategy(), 1..40),
    ) {
        let (net, _, _) = build(n_inputs, &recipes);
        prop_assert!(net.logic_depth() <= net.gate_count());
        prop_assert!(net.transistor_count() >= 2 * net.gate_count() as u64);
    }
}
