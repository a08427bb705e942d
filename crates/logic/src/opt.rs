//! Program-optimization passes over fused LUT instruction streams.
//!
//! [`optimize`] rewrites a [`FusedProgram`] through three passes:
//!
//! 1. **Constant folding + copy propagation** — a LUT whose truth word
//!    collapses to all-zeros/all-ones over its live pins (the typical
//!    result of a stuck-fault-patched truth word, or of constant inputs
//!    such as the always-zero operands of physical synapses beyond the
//!    task width) becomes a *constant register*: materialized once at
//!    reset, never evaluated again. Constant pins are substituted into
//!    their consumers' truth words (Shannon restriction), pins a table
//!    does not actually depend on are dropped, and identity buffers are
//!    replaced by slot aliases.
//! 2. **Dead-LUT elimination** — instructions whose outputs nothing
//!    reads (transitively from the caller's root slots) are removed.
//! 3. **Register-file liveness compaction** — surviving slots are
//!    renumbered densely, in ascending slot order, so the working set
//!    stays cache-resident; [`SlotMap`] tells the caller where its slots
//!    went ([`DEAD_SLOT`] for eliminated ones, which the executor's bus
//!    writers skip).
//!
//! The caller may also declare input slots known to be constant, and
//! a set of *opaque* instructions — step instructions whose output a
//! stateful behavior computes at run time — which stay as untouchable
//! roots whose outputs the folding pass treats as unknown.
//!
//! Surviving instructions keep their stream order, so the result stays
//! topological, and stage windows ([`FusedProgram::stage_range`]) are
//! preserved: each stage starts at its first surviving instruction, so
//! runners that interleave native work between stages are unaffected.

use crate::compile::LutInstr;
use crate::fuse::{FusedProgram, DEAD_SLOT};

/// What the optimizer did, for logging and benchmark breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions folded into constant registers.
    pub folded: usize,
    /// Identity buffers replaced by slot aliases.
    pub propagated: usize,
    /// Dead instructions removed (nothing transitively read them).
    pub eliminated: usize,
    /// Operand pins dropped (constant or don't-care).
    pub pins_dropped: usize,
    /// Instruction count before / after.
    pub instrs_before: usize,
    /// Instruction count after all passes.
    pub instrs_after: usize,
    /// Register-file slots before / after compaction.
    pub slots_before: usize,
    /// Register-file slots after compaction.
    pub slots_after: usize,
}

/// Maps pre-optimization slot ids to the compacted register file.
#[derive(Clone, Debug)]
pub struct SlotMap {
    map: Vec<u32>,
}

impl SlotMap {
    /// Where an old slot lives now: aliases resolve to their source,
    /// folded constants to their constant register, eliminated slots to
    /// [`DEAD_SLOT`]. [`DEAD_SLOT`] maps to itself.
    pub fn get(&self, old: u32) -> u32 {
        if old == DEAD_SLOT {
            return DEAD_SLOT;
        }
        self.map[old as usize]
    }

    /// Remaps a whole bus.
    pub fn remap(&self, bus: &[u32]) -> Vec<u32> {
        bus.iter().map(|&s| self.get(s)).collect()
    }
}

/// Slot knowledge accumulated by the folding pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Val {
    Unknown,
    Const(bool),
    /// Alias targets are pre-resolved (never chained).
    Alias(u32),
}

/// Truth word with pin `k` fixed to `b`: the Shannon restriction over
/// the remaining `arity - 1` pins (higher pins shift down).
fn restrict(table: u16, arity: usize, k: usize, b: bool) -> u16 {
    let mut out = 0u16;
    let low_mask = (1usize << k) - 1;
    for v in 0..1usize << (arity - 1) {
        let orig = (v & low_mask) | (usize::from(b) << k) | ((v & !low_mask) << 1);
        out |= ((table >> orig) & 1) << v;
    }
    out
}

/// True if the table's output never depends on pin `k`: every entry
/// with pin `k` low equals its partner with pin `k` high.
fn pin_independent(table: u16, arity: usize, k: usize) -> bool {
    const LOW: [u16; 4] = [0x5555, 0x3333, 0x0F0F, 0x00FF];
    let live = ((1u32 << (1usize << arity)) - 1) as u16;
    (table ^ (table >> (1 << k))) & LOW[k] & live == 0
}

/// Optimizes a fused program. `roots` are the slots the caller reads
/// after execution (outputs); everything not transitively needed by a
/// root is removed. `known` declares input slots whose lanes are a
/// compile-time constant (e.g. operands that are structurally zero),
/// enabling folding through them.
///
/// `opaque` lists the positions (ascending) of instructions whose output
/// the caller computes itself at run time — the step instructions of
/// stateful faulty cells. An opaque instruction is a root: it is never
/// folded and never eliminated, it keeps its pin order and arity, its
/// pins resolve through aliases (a constant pin reads a materialized
/// constant register), and its output is unknown to the folding pass.
///
/// Returns the rewritten program, the old→new [`SlotMap`], pass
/// statistics, and the new position of each opaque instruction, in the
/// order of `opaque`. Bit-identical to the input program on every root
/// under any sequence of stage executions.
///
/// # Panics
///
/// Panics if `opaque` is not strictly ascending or names a position
/// past the end of the stream.
pub fn optimize(
    prog: &FusedProgram,
    roots: &[u32],
    known: &[(u32, bool)],
    opaque: &[usize],
) -> (FusedProgram, SlotMap, OptStats, Vec<usize>) {
    assert!(
        opaque.windows(2).all(|w| w[0] < w[1]) && opaque.last().is_none_or(|&i| i < prog.len()),
        "opaque positions must be ascending and in range"
    );
    let n = prog.n_slots();
    let mut stats = OptStats {
        instrs_before: prog.len(),
        slots_before: n,
        ..OptStats::default()
    };
    let mut vals = vec![Val::Unknown; n];
    for &(s, b) in prog.consts() {
        vals[s as usize] = Val::Const(b);
    }
    for &(s, b) in known {
        assert!(
            !matches!(vals[s as usize], Val::Alias(_)),
            "known const on an alias"
        );
        vals[s as usize] = Val::Const(b);
    }
    let resolve = |vals: &[Val], s: u32| -> u32 {
        match vals[s as usize] {
            Val::Alias(t) => t,
            _ => s,
        }
    };

    // Pass 1: constant folding, pin pruning, copy propagation. The
    // stream is topological, so one forward sweep sees every producer
    // before its consumers.
    let mut kept: Vec<(usize, LutInstr)> = Vec::with_capacity(prog.len());
    let mut is_opaque = vec![false; prog.len()];
    for &i in opaque {
        is_opaque[i] = true;
    }
    for (idx, ins) in prog.instrs().iter().enumerate() {
        let mut ins = *ins;
        if is_opaque[idx] {
            for p in &mut ins.pins[..ins.arity as usize] {
                *p = resolve(&vals, *p);
            }
            kept.push((idx, ins));
            continue;
        }
        let mut k = 0usize;
        while k < ins.arity as usize {
            let p = resolve(&vals, ins.pins[k]);
            if let Val::Const(b) = vals[p as usize] {
                ins.table = restrict(ins.table, ins.arity as usize, k, b);
                ins.pins.copy_within(k + 1..ins.arity as usize, k);
                ins.arity -= 1;
                stats.pins_dropped += 1;
            } else {
                ins.pins[k] = p;
                k += 1;
            }
        }
        let mut k = 0usize;
        while k < ins.arity as usize {
            if pin_independent(ins.table, ins.arity as usize, k) {
                ins.table = restrict(ins.table, ins.arity as usize, k, false);
                ins.pins.copy_within(k + 1..ins.arity as usize, k);
                ins.arity -= 1;
                stats.pins_dropped += 1;
            } else {
                k += 1;
            }
        }
        let mask = ((1u32 << (1usize << ins.arity)) - 1) as u16;
        let t = ins.table & mask;
        if t == 0 || t == mask {
            vals[ins.out as usize] = Val::Const(t != 0);
            stats.folded += 1;
            continue;
        }
        if ins.arity == 1 && t == 0b10 {
            vals[ins.out as usize] = Val::Alias(ins.pins[0]);
            stats.propagated += 1;
            continue;
        }
        ins.table = t;
        // Zero out stale pin entries past the (possibly shrunk) arity so
        // equality/debugging never sees leftovers.
        for p in ins.pins.iter_mut().skip(ins.arity as usize) {
            *p = 0;
        }
        kept.push((idx, ins));
    }

    // Pass 2: dead-LUT elimination, reverse sweep from the roots.
    let mut live = vec![false; n];
    for &r in roots {
        live[resolve(&vals, r) as usize] = true;
    }
    let mut survivors: Vec<(usize, LutInstr)> = Vec::with_capacity(kept.len());
    for &(idx, ins) in kept.iter().rev() {
        if live[ins.out as usize] || is_opaque[idx] {
            // An opaque instruction writes its output slot even when
            // nothing reads it, so the slot must survive compaction.
            live[ins.out as usize] = true;
            for k in 0..ins.arity as usize {
                live[ins.pins[k] as usize] = true;
            }
            survivors.push((idx, ins));
        } else {
            stats.eliminated += 1;
        }
    }
    survivors.reverse();

    // Constant registers that something still reads (a root or an
    // opaque pin; other constant pins were substituted away above).
    let consts: Vec<(u32, bool)> = (0..n as u32)
        .filter(|&s| live[s as usize])
        .filter_map(|s| match vals[s as usize] {
            Val::Const(b) => Some((s, b)),
            _ => None,
        })
        .collect();

    // Each stage starts at its first survivor, so no instruction
    // crosses a barrier.
    let stage_start = (0..prog.n_stages())
        .map(|s| {
            let old = prog.stage_range(s).start;
            survivors.partition_point(|&(idx, _)| idx < old) as u32
        })
        .collect();

    // Pass 3: liveness compaction — renumber surviving slots densely.
    let mut compact = vec![DEAD_SLOT; n];
    let mut n_new = 0u32;
    for s in 0..n {
        if live[s] {
            compact[s] = n_new;
            n_new += 1;
        }
    }
    let slot_map = SlotMap {
        map: (0..n as u32)
            .map(|s| {
                let r = resolve(&vals, s);
                if live[r as usize] {
                    compact[r as usize]
                } else {
                    DEAD_SLOT
                }
            })
            .collect(),
    };

    let instrs = survivors
        .iter()
        .map(|&(_, mut ins)| {
            ins.out = compact[ins.out as usize];
            for k in 0..ins.arity as usize {
                ins.pins[k] = compact[ins.pins[k] as usize];
            }
            ins
        })
        .collect();
    let consts = consts
        .into_iter()
        .map(|(s, b)| (compact[s as usize], b))
        .collect();

    let moved = survivors
        .iter()
        .enumerate()
        .filter(|(_, &(idx, _))| is_opaque[idx])
        .map(|(at, _)| at)
        .collect();
    stats.instrs_after = survivors.len();
    stats.slots_after = n_new as usize;
    let optimized = FusedProgram::from_parts(instrs, stage_start, n_new as usize, consts);
    (optimized, slot_map, stats, moved)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::fuse::{FuseBuilder, FusedExec};

    fn instr(table: u16, arity: u8, out: u32, pins: [u32; 4]) -> LutInstr {
        LutInstr {
            table,
            arity,
            out,
            pins,
        }
    }

    #[test]
    fn restriction_matches_exhaustive_eval() {
        // AND3 (table 0x80) with pin 1 fixed high = AND2 of pins 0,2.
        assert_eq!(restrict(0x80, 3, 1, true), 0b1000);
        assert_eq!(restrict(0x80, 3, 1, false), 0b0000);
        // XOR2 with pin 0 fixed = BUF/NOT of pin 1.
        assert_eq!(restrict(0b0110, 2, 0, false), 0b10);
        assert_eq!(restrict(0b0110, 2, 0, true), 0b01);
        assert!(!pin_independent(0b0110, 2, 0));
        // OR2 with one pin stuck high is independent of the other.
        assert!(pin_independent(restrict(0b1110, 2, 0, true), 1, 0));
    }

    #[test]
    fn constant_inputs_fold_through_the_stream() {
        // y = (a & c0) | b with c0 known-zero folds to y = b (alias),
        // which makes the whole stream disappear into the slot map.
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let b = fb.fresh_slot();
        let c0 = fb.fresh_slot();
        let and = instr(0b1000, 2, 0, [0, 0, 0, 0]);
        let seg = [
            instr(and.table, 2, 3, [0, 2, 0, 0]), // local: a=0, b=1, c0=2
            instr(0b1110, 2, 4, [3, 1, 0, 0]),    // or
        ];
        let map = fb.append(&seg, 5, &[(0, a), (1, b), (2, c0)]);
        let y = map[4];
        let prog = fb.finish();
        let (opt, sm, stats, _) = optimize(&prog, &[y], &[(c0, false)], &[]);
        assert_eq!(stats.folded, 1, "AND with zero folds");
        assert_eq!(stats.propagated, 1, "OR of zero is a copy");
        assert_eq!(opt.len(), 0);
        assert_eq!(sm.get(y), sm.get(b), "y aliases b");
        assert_ne!(sm.get(y), DEAD_SLOT);
        // a and c0 are dead.
        assert_eq!(sm.get(a), DEAD_SLOT);
        assert_eq!(sm.get(c0), DEAD_SLOT);
        // Executing the optimized program reproduces the identity.
        let mut ex = FusedExec::new(Arc::new(opt));
        ex.set_slot(sm.get(b), 0xF0F0);
        ex.exec();
        assert_eq!(ex.slot(sm.get(y)), 0xF0F0);
    }

    #[test]
    fn stuck_patched_tables_become_constant_registers() {
        // A gate patched to constant-one (stuck-at fault lowering) folds,
        // and its consumer's truth word absorbs the constant.
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let b = fb.fresh_slot();
        let seg = [
            instr(0b1111, 2, 2, [0, 1, 0, 0]), // patched: always 1
            instr(0b1000, 2, 3, [2, 1, 0, 0]), // and(stuck, b) == b
        ];
        let map = fb.append(&seg, 4, &[(0, a), (1, b)]);
        let prog = fb.finish();
        let (opt, sm, stats, _) = optimize(&prog, &[map[3]], &[], &[]);
        assert_eq!(stats.folded, 1);
        assert_eq!(stats.propagated, 1);
        assert!(opt.is_empty());
        assert_eq!(sm.get(map[3]), sm.get(b));
    }

    #[test]
    fn constant_roots_materialize_as_registers() {
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let seg = [
            instr(0b11, 1, 1, [0, 0, 0, 0]),   // always 1 (patched)
            instr(0b01, 1, 2, [1, 0, 0, 0]),   // not -> always 0
            instr(0b0110, 2, 3, [1, 2, 0, 0]), // xor(1, 0) -> 1
        ];
        let map = fb.append(&seg, 4, &[(0, a)]);
        let prog = fb.finish();
        let (opt, sm, stats, _) = optimize(&prog, &[map[3]], &[], &[]);
        assert_eq!(stats.folded, 3);
        assert!(opt.is_empty());
        assert_eq!(opt.consts().len(), 1);
        let mut ex = FusedExec::new(Arc::new(opt));
        assert_eq!(ex.slot(sm.get(map[3])), !0, "constant-one register");
        ex.exec();
        assert_eq!(ex.slot(sm.get(map[3])), !0);
    }

    #[test]
    fn dead_instructions_are_eliminated() {
        let mut fb = FuseBuilder::new();
        let d = fb.fresh_slot();
        let e = fb.fresh_slot();
        let seg = [
            instr(0b1000, 2, 2, [0, 1, 0, 0]), // and(d, e): no reader
            instr(0b01, 1, 3, [0, 0, 0, 0]),   // not d
            instr(0b0110, 2, 4, [3, 1, 0, 0]), // xor(not d, e)
        ];
        let map = fb.append(&seg, 5, &[(0, d), (1, e)]);
        let prog = fb.finish();
        let (opt, sm, stats, _) = optimize(&prog, &[map[4]], &[], &[]);
        assert_eq!(stats.eliminated, 1, "only the unread AND dies");
        assert_eq!(opt.len(), 2);
        assert_eq!(sm.get(map[2]), DEAD_SLOT);
        assert_ne!(sm.get(map[3]), DEAD_SLOT);
        let mut ex = FusedExec::new(Arc::new(opt));
        ex.set_slot(sm.get(d), 0b0011);
        ex.set_slot(sm.get(e), 0b0101);
        ex.exec();
        assert_eq!(ex.slot(sm.get(map[4])) & 0xF, 0b1001);
    }

    #[test]
    fn stage_windows_survive_optimization() {
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let m1 = fb.append(&[instr(0b01, 1, 1, [0, 0, 0, 0])], 2, &[(0, a)]);
        fb.barrier();
        let r = fb.fresh_slot(); // runtime input written between stages
        let m2 = fb.append(
            &[instr(0b0110, 2, 2, [0, 1, 0, 0])],
            3,
            &[(0, m1[1]), (1, r)],
        );
        let prog = fb.finish();
        assert_eq!(prog.n_stages(), 2);
        let (opt, sm, _, _) = optimize(&prog, &[m2[2]], &[], &[]);
        assert_eq!(opt.n_stages(), 2);
        assert_eq!(opt.stage_range(0).len(), 1);
        assert_eq!(opt.stage_range(1).len(), 1);
        // Stage-interleaved run still works on the optimized stream.
        let mut ex = FusedExec::new(Arc::new(opt));
        ex.set_slot(sm.get(a), 0b01);
        ex.exec_stage(0);
        ex.set_slot(sm.get(r), 0b11);
        ex.exec_stage(1);
        // y = not(a) ^ r
        assert_eq!(ex.slot(sm.get(m2[2])) & 0b11, 0b01);
    }

    #[test]
    fn opaque_instructions_keep_pins_and_stay_unknown() {
        // s = const1 (folds); o = opaque(a, s, alias-of-a); y = not(o);
        // u = opaque(a) with no reader.
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let seg = [
            instr(0b1, 0, 1, [0, 0, 0, 0]),    // const 1
            instr(0b10, 1, 2, [0, 0, 0, 0]),   // buf a -> alias
            instr(0x96, 3, 3, [0, 1, 2, 0]),   // opaque
            instr(0b01, 1, 4, [3, 0, 0, 0]),   // not o
            instr(0b1111, 2, 5, [0, 0, 0, 0]), // opaque, unread, const table
        ];
        let map = fb.append(&seg, 6, &[(0, a)]);
        let prog = fb.finish();
        let y = map[4];
        let (opt, sm, stats, moved) = optimize(&prog, &[y], &[], &[2, 4]);
        assert_eq!(stats.folded, 1);
        assert_eq!(stats.propagated, 1);
        assert_eq!(moved, vec![0, 2]);
        assert_eq!(opt.len(), 3, "both opaque instructions and the NOT survive");
        let o = opt.instrs()[moved[0]];
        assert_eq!((o.arity, o.table), (3, 0x96), "pins and table intact");
        assert_eq!(o.pins[0], sm.get(a));
        assert_eq!(o.pins[2], sm.get(a), "alias resolved to its source");
        assert_eq!(
            opt.consts(),
            &[(o.pins[1], true)],
            "constant pin materialized"
        );
        let u = opt.instrs()[moved[1]];
        assert_eq!((u.arity, u.table), (2, 0b1111), "never folded");
        assert_ne!(u.out, o.out);
        assert!((u.out as usize) < opt.n_slots());
        assert_eq!(opt.instrs()[1].pins[0], o.out, "reader sees an unknown");
    }

    #[test]
    fn compaction_renumbers_densely() {
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let _unused = fb.fresh_bus(10); // slots that die
        let b = fb.fresh_slot();
        let m = fb.append(&[instr(0b0110, 2, 2, [0, 1, 0, 0])], 3, &[(0, a), (1, b)]);
        let prog = fb.finish();
        assert_eq!(prog.n_slots(), 13);
        let (opt, sm, stats, _) = optimize(&prog, &[m[2]], &[], &[]);
        assert_eq!(stats.slots_after, 3);
        assert_eq!(opt.n_slots(), 3);
        let slots = [sm.get(a), sm.get(b), sm.get(m[2])];
        assert!(slots.iter().all(|&s| s < 3));
    }
}
