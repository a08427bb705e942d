//! Property tests for the fused-stream compiler and its optimizer.
//!
//! The invariant ladder: for any pair of random combinational netlists
//! with random permanent truth-word patches, stitched into one fused
//! stream,
//!
//! * the **unoptimized** fused program,
//! * the **optimized** fused program (constant folding through patched
//!   truth words + known-constant inputs, copy propagation, dead-LUT
//!   elimination, slot compaction), and
//! * per-operator reference [`Simulator`]s with identical
//!   [`TableBehavior`] overrides (one per segment, chained by hand)
//!
//! must be bit-identical on every surviving register, every lane, every
//! step of a stimulus sequence. Both fused programs must
//! also be straight-line schedules: every operand is written before it
//! is read, and every instruction sits inside its own stage's range.
//! Permanent combinational faults are the only class that lowers into
//! truth words and therefore into fused streams; stateful and dynamic
//! classes lower to step instructions, which only the one-lane operator
//! executor runs.

use std::collections::HashMap;
use std::sync::Arc;

use dta_logic::{
    optimize, FuseBuilder, FusedExec, FusedProgram, GateBehavior, GateKind, LutInstr, LutProgram,
    Netlist, NetlistBuilder, NodeId, Simulator, DEAD_SLOT,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct GateRecipe {
    kind_sel: u8,
    input_sels: [u16; 4],
}

fn kinds() -> [GateKind; 13] {
    GateKind::ALL
}

/// Random netlist: each gate reads inputs or earlier gates; the last
/// four nodes are the outputs.
fn build(
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

/// Stateless truth-word override: the scalar-simulator twin of a
/// patched LUT instruction.
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

fn table_mask(net: &Netlist, id: NodeId) -> u16 {
    match net.node(id) {
        dta_logic::Node::Gate { kind, .. } => ((1u32 << (1usize << kind.arity())) - 1) as u16,
        _ => unreachable!("patch targets are gates"),
    }
}

/// One fused segment: compiled program plus the patch set applied to
/// both the fused stream and its scalar reference twin.
struct Segment {
    net: Arc<Netlist>,
    inputs: Vec<NodeId>,
    gates: Vec<NodeId>,
    outputs: Vec<NodeId>,
    patches: Vec<(NodeId, u16)>,
}

impl Segment {
    fn new(n_inputs: usize, recipes: &[GateRecipe], patch_sels: &[(u16, u16)]) -> Self {
        let (net, inputs, gates, outputs) = build(n_inputs, recipes);
        let mut patches = Vec::new();
        for &(sel, table) in patch_sels {
            let g = gates[sel as usize % gates.len()];
            if !patches.iter().any(|&(p, _)| p == g) {
                patches.push((g, table & table_mask(&net, g)));
            }
        }
        Self {
            net,
            inputs,
            gates,
            outputs,
            patches,
        }
    }

    /// The compiled program and its patched instruction stream, exactly
    /// as the network compiler consumes it: permanent faults already
    /// lowered into truth words.
    fn patched(&self) -> (LutProgram, Vec<LutInstr>) {
        let prog = LutProgram::compile(Arc::clone(&self.net));
        let mut instrs = prog.instrs().to_vec();
        for &(g, t) in &self.patches {
            instrs[prog.instr_index(g).expect("patch targets are gates")].table = t;
        }
        (prog, instrs)
    }

    /// A scalar reference simulator with identical overrides.
    fn reference(&self) -> Simulator {
        let mut sim = Simulator::new(Arc::clone(&self.net));
        for &(g, t) in &self.patches {
            sim.override_gate(g, Box::new(TableBehavior { table: t }));
        }
        sim
    }
}

/// Checks that `prog` is a straight-line schedule: every operand slot
/// is an external input or a constant register, or is
/// written by an earlier instruction; and instruction `i` lies inside
/// `stage_range(stage_of[out])`, the stage its segment was appended in.
fn assert_schedule(
    tag: &str,
    prog: &FusedProgram,
    inputs: &[u32],
    stage_of: &HashMap<u32, usize>,
) -> Result<(), TestCaseError> {
    let mut ready = vec![false; prog.n_slots()];
    let external = inputs
        .iter()
        .copied()
        .chain(prog.consts().iter().map(|&(s, _)| s));
    for s in external.filter(|&s| s != DEAD_SLOT) {
        ready[s as usize] = true;
    }
    for (i, ins) in prog.instrs().iter().enumerate() {
        for &pin in &ins.pins[..ins.arity as usize] {
            prop_assert!(
                ready[pin as usize],
                "{} instruction {} reads slot {} before it is written",
                tag,
                i,
                pin
            );
        }
        ready[ins.out as usize] = true;
        let stage = stage_of[&ins.out];
        prop_assert!(
            prog.stage_range(stage).contains(&i),
            "{} instruction {} outside stage {} ({:?})",
            tag,
            i,
            stage,
            prog.stage_range(stage)
        );
    }
    Ok(())
}

const LANES: usize = 4;

fn recipe_strategy() -> impl Strategy<Value = GateRecipe> {
    (any::<u8>(), any::<[u16; 4]>()).prop_map(|(kind_sel, input_sels)| GateRecipe {
        kind_sel,
        input_sels,
    })
}

type SegParams = (usize, Vec<GateRecipe>, Vec<(u16, u16)>);

fn seg_strategy() -> impl Strategy<Value = SegParams> {
    (
        1usize..5,
        prop::collection::vec(recipe_strategy(), 2..30),
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two random patched segments fused A→B (B's first inputs read A's
    /// output registers directly — no repacking): unoptimized fused,
    /// optimized fused, and two chained scalar reference simulators
    /// agree on every surviving register, lane, and step.
    #[test]
    fn fused_optimized_and_event_reference_agree(
        seg_a in seg_strategy(),
        seg_b in seg_strategy(),
        const_sels in prop::collection::vec((any::<u16>(), any::<bool>()), 0..3),
        use_barrier in any::<bool>(),
        stimulus in prop::collection::vec(any::<[u16; LANES]>(), 1..10),
    ) {
        let a = Segment::new(seg_a.0, &seg_a.1, &seg_a.2);
        let b = Segment::new(seg_b.0, &seg_b.1, &seg_b.2);
        let (prog_a, instrs_a) = a.patched();
        let (prog_b, instrs_b) = b.patched();

        // Fuse: fresh slots for A's primary inputs; B's leading inputs
        // bound straight onto A's output registers.
        let mut fb = FuseBuilder::new();
        let in_a: Vec<u32> = a.inputs.iter().map(|_| fb.fresh_slot()).collect();
        let bind_a: Vec<(u32, u32)> = a
            .inputs
            .iter()
            .zip(&in_a)
            .map(|(id, &s)| (id.index() as u32, s))
            .collect();
        let map_a = fb.append(&instrs_a, prog_a.n_slots(), &bind_a);
        if use_barrier {
            fb.barrier();
        }
        let n_bind = a.outputs.len().min(b.inputs.len());
        let mut bind_b: Vec<(u32, u32)> = Vec::new();
        let mut in_b_extra: Vec<(usize, u32)> = Vec::new();
        for (j, id) in b.inputs.iter().enumerate() {
            let fused = if j < n_bind {
                map_a[a.outputs[j].index()]
            } else {
                let s = fb.fresh_slot();
                in_b_extra.push((j, s));
                s
            };
            bind_b.push((id.index() as u32, fused));
        }
        let map_b = fb.append(&instrs_b, prog_b.n_slots(), &bind_b);
        let fused = fb.finish();

        // Known-constant primary inputs of A, declared to the optimizer.
        let consts: Vec<(u32, bool)> = {
            let mut seen = Vec::new();
            for &(sel, v) in &const_sels {
                let j = sel as usize % in_a.len();
                if !seen.iter().any(|&(s, _)| s == in_a[j]) {
                    seen.push((in_a[j], v));
                }
            }
            seen
        };
        let roots: Vec<u32> = a
            .outputs
            .iter()
            .map(|o| map_a[o.index()])
            .chain(b.outputs.iter().map(|o| map_b[o.index()]))
            .collect();
        let (opt, sm, stats, _) = optimize(&fused, &roots, &consts, &[]);
        // The pipeline only ever removes work, and its counters describe
        // the streams it was given and returned.
        prop_assert_eq!(stats.instrs_before, fused.len());
        prop_assert_eq!(stats.slots_before, fused.n_slots());
        prop_assert_eq!(stats.instrs_after, opt.len());
        prop_assert_eq!(stats.slots_after, opt.n_slots());
        prop_assert!(stats.instrs_after <= stats.instrs_before);
        prop_assert!(stats.slots_after <= stats.slots_before);

        // Stream invariants. A raw instruction's stage is the one its
        // segment was appended in; an optimized instruction inherits the
        // stage of the first raw instruction whose slot maps onto its
        // output (copies alias their source, which comes first).
        let stage_b = usize::from(use_barrier);
        let raw_stage: HashMap<u32, usize> = a
            .gates
            .iter()
            .map(|g| (map_a[g.index()], 0))
            .chain(b.gates.iter().map(|g| (map_b[g.index()], stage_b)))
            .collect();
        let raw_inputs: Vec<u32> = in_a
            .iter()
            .copied()
            .chain(in_b_extra.iter().map(|&(_, s)| s))
            .collect();
        assert_schedule("plain", &fused, &raw_inputs, &raw_stage)?;
        let mut opt_stage = HashMap::new();
        for ins in fused.instrs() {
            opt_stage
                .entry(sm.get(ins.out))
                .or_insert(raw_stage[&ins.out]);
        }
        assert_schedule("optimized", &opt, &sm.remap(&raw_inputs), &opt_stage)?;

        let mut plain = FusedExec::new(Arc::new(fused));
        let mut optim = FusedExec::new(Arc::new(opt));
        let mut sims_a: Vec<Simulator> = (0..LANES).map(|_| a.reference()).collect();
        let mut sims_b: Vec<Simulator> = (0..LANES).map(|_| b.reference()).collect();

        for (step, lanes) in stimulus.iter().enumerate() {
            // Drive A's inputs (constants pinned in every lane).
            for (j, &slot) in in_a.iter().enumerate() {
                let cv = consts.iter().find(|&&(s, _)| s == slot).map(|&(_, v)| v);
                let mut word = 0u64;
                for (lane, &bits) in lanes.iter().enumerate() {
                    let bit = cv.unwrap_or(bits >> j & 1 == 1);
                    word |= u64::from(bit) << lane;
                }
                plain.set_slot(slot, word);
                if cv.is_none() {
                    optim.set_slot(sm.get(slot), word);
                }
            }
            // Drive B's unbound inputs from the high byte.
            for &(j, slot) in &in_b_extra {
                let mut word = 0u64;
                for (lane, &bits) in lanes.iter().enumerate() {
                    word |= u64::from(bits >> (8 + j % 8) & 1 == 1) << lane;
                }
                plain.set_slot(slot, word);
                optim.set_slot(sm.get(slot), word);
            }
            plain.exec();
            optim.exec();

            // Chained scalar references, one per lane.
            for (lane, &bits) in lanes.iter().enumerate() {
                let sim_a = &mut sims_a[lane];
                for (j, &id) in a.inputs.iter().enumerate() {
                    let cv = consts
                        .iter()
                        .find(|&&(s, _)| s == in_a[j])
                        .map(|&(_, v)| v);
                    sim_a.set_input(id, cv.unwrap_or(bits >> j & 1 == 1));
                }
                sim_a.settle();
                let sim_b = &mut sims_b[lane];
                for (j, &id) in b.inputs.iter().enumerate() {
                    let v = if j < n_bind {
                        sim_a.value(a.outputs[j])
                    } else {
                        bits >> (8 + j % 8) & 1 == 1
                    };
                    sim_b.set_input(id, v);
                }
                sim_b.settle();

                // Every gate of both segments must agree.
                for (tag, seg, map, sim) in [
                    ("A", &a, &map_a, &mut *sim_a),
                    ("B", &b, &map_b, &mut *sim_b),
                ] {
                    for &id in &seg.gates {
                        let slot = map[id.index()];
                        let want = sim.value(id);
                        prop_assert_eq!(
                            plain.slot(slot) >> lane & 1 == 1,
                            want,
                            "plain {} {:?} lane {} step {}",
                            tag,
                            id,
                            lane,
                            step
                        );
                        let c = sm.get(slot);
                        if c != DEAD_SLOT {
                            prop_assert_eq!(
                                optim.slot(c) >> lane & 1 == 1,
                                want,
                                "optimized {} {:?} lane {} step {}",
                                tag,
                                id,
                                lane,
                                step
                            );
                        }
                    }
                }
            }
        }
    }

}
