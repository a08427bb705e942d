//! Cut-based technology mapping of LUT streams onto 4-input LUTs.
//!
//! A compiled operator stream holds one instruction per library cell,
//! most of them 2-input. [`map_luts`] re-covers the stream with
//! instructions of up to four inputs, each absorbing the whole cone of
//! cells between its root and its leaves, so a one-lane sweep executes
//! about half as many lookups.
//!
//! The mapper is the classic priority-cut scheme:
//!
//! 1. **Cut enumeration.** In stream order, each node's cuts are the
//!    pairwise merges of its fanins' cuts (plus each fanin itself) that
//!    keep at most four leaves. Only the best `CUTS` (three) cuts per node
//!    survive, ranked by *area flow* — the instruction count of the
//!    cone, with every shared leaf's cost split over its fanout — and
//!    then by depth.
//! 2. **Cover.** From the roots backwards, every required node is
//!    implemented by its best cut, and that cut's leaves become
//!    required in turn.
//! 3. **Truth words.** Each chosen cut's word is computed by evaluating
//!    the cells of its cone over the 16 leaf assignments, so the mapped
//!    stream is exact by construction: patched truth words included.
//!
//! Opaque instructions (step instructions, see
//! [`crate::opt::optimize`]) are cut boundaries: a step's output
//! is a leaf that no cut looks through, each of its pins is a mapped
//! root, and the step itself is emitted unchanged.

use crate::compile::LutInstr;
use crate::fuse::FusedProgram;

/// Largest cut: the LUT input count of the instruction format.
const K: usize = 4;

/// Priority cuts kept per node.
const CUTS: usize = 3;

/// No driving instruction (a source or a step output).
const NONE: u16 = u16::MAX;

/// One 16-bit lane per leaf of a packed cut.
const LANES: u64 = 0x0001_0001_0001_0001;

/// One cut: up to [`K`] leaf slots with its ranking keys, as a cut of
/// the node it implements: the node's instruction plus its leaves'
/// flows, one level above its deepest leaf.
#[derive(Clone, Copy, Debug)]
struct Cut {
    /// Leaf `k` in bits `16k..16k + 16`; unused lanes hold [`NONE`],
    /// which is never a slot.
    leaves: u64,
    n: u8,
    /// Bit `leaf % 64` per leaf: a cheap superset test.
    sig: u64,
    /// Area flow: instructions needed for the cone, with shared leaves'
    /// costs divided over their fanout.
    flow: f32,
    /// Instruction levels below the root.
    depth: u16,
}

impl Default for Cut {
    fn default() -> Cut {
        Cut {
            leaves: u64::MAX,
            n: 0,
            sig: 0,
            flow: 0.0,
            depth: 0,
        }
    }
}

impl Cut {
    /// The cut of one leaf, ranked as a cut of a node reading it.
    fn leaf(slot: u16, flow: &[f32], depth: &[u16]) -> Cut {
        Cut {
            leaves: u64::MAX << 16 | u64::from(slot),
            n: 1,
            sig: 1 << (slot % 64),
            flow: 1.0 + flow[slot as usize],
            depth: 1 + depth[slot as usize],
        }
    }

    fn leaves(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.n).map(|k| (self.leaves >> (16 * k)) as u16)
    }

    /// True if `slot` is a leaf: some lane of `leaves ^ slot` is zero.
    fn has(&self, slot: u16) -> bool {
        let x = self.leaves ^ (u64::from(slot) * LANES);
        x.wrapping_sub(LANES) & !x & (LANES << 15) != 0
    }

    /// True if every leaf of `self` is a leaf of `other`.
    fn subset_of(&self, other: &Cut) -> bool {
        self.sig & !other.sig == 0 && self.leaves().all(|l| other.has(l))
    }

    fn better_than(&self, other: &Cut) -> bool {
        if self.flow != other.flow {
            return self.flow < other.flow;
        }
        (self.depth, self.n) < (other.depth, other.n)
    }
}

/// The union of two cuts, if it has at most [`K`] leaves: `a`'s
/// leaves, then `b`'s that `a` lacks, each adding its flow.
fn merge(a: &Cut, b: &Cut, flow: &[f32]) -> Option<Cut> {
    if (a.sig | b.sig).count_ones() as usize > K {
        return None;
    }
    let mut cut = *a;
    cut.sig |= b.sig;
    cut.depth = a.depth.max(b.depth);
    for l in b.leaves() {
        if !a.has(l) {
            if cut.n as usize == K {
                return None;
            }
            let lane = 16 * u32::from(cut.n);
            cut.leaves = cut.leaves & !(0xFFFF << lane) | u64::from(l) << lane;
            cut.n += 1;
            cut.flow += flow[l as usize];
        }
    }
    Some(cut)
}

/// A node's priority cuts, best first.
#[derive(Clone, Copy, Debug, Default)]
struct Priority {
    cuts: [Cut; CUTS],
    n: usize,
}

impl Priority {
    fn cuts(&self) -> &[Cut] {
        &self.cuts[..self.n]
    }

    /// Offers a ranked cut: it is kept if it ranks among the best
    /// [`CUTS`] and no kept cut is a subset of it, and it drops the kept
    /// cuts it is a subset of. (Kept cuts are never subsets of each
    /// other, so no cut both dominates and is dominated.)
    fn offer(&mut self, cut: Cut) {
        if self.n == CUTS && !cut.better_than(&self.cuts[CUTS - 1]) {
            return;
        }
        if self.cuts().iter().any(|c| c.subset_of(&cut)) {
            return;
        }
        let mut kept = 0;
        for i in 0..self.n {
            if !cut.subset_of(&self.cuts[i]) {
                self.cuts[kept] = self.cuts[i];
                kept += 1;
            }
        }
        // A full list kept all its cuts and ranks `cut` above its last,
        // so `at < CUTS`.
        let mut at = kept.min(CUTS - 1);
        while at > 0 && cut.better_than(&self.cuts[at - 1]) {
            self.cuts[at] = self.cuts[at - 1];
            at -= 1;
        }
        self.cuts[at] = cut;
        self.n = (kept + 1).min(CUTS);
    }
}

/// Evaluates a LUT over 16-lane words, one lane per leaf assignment:
/// each table entry as a lane mask, merged pin by pin (Shannon
/// expansion, lowest pin first).
fn eval_words(table: u16, words: &[u16]) -> u16 {
    let mut len = 1 << words.len();
    let mut layer = [0u16; 16];
    for (v, entry) in layer[..len].iter_mut().enumerate() {
        *entry = 0u16.wrapping_sub((table >> v) & 1);
    }
    for &w in words {
        len /= 2;
        for v in 0..len {
            layer[v] = (!w & layer[2 * v]) | (w & layer[2 * v + 1]);
        }
    }
    layer[0]
}

/// The cones of chosen cuts, evaluated over their leaves' assignments.
struct Cones<'a> {
    instrs: &'a [LutInstr],
    driver: &'a [u16],
    /// Each slot's 16-lane word, valid where `seen` holds the current
    /// cut's stamp.
    words: Vec<u16>,
    seen: Vec<u16>,
}

impl Cones<'_> {
    /// The truth word of `root` over the leaves of `cut` (leaf `k` is
    /// pin `k`).
    fn truth(&mut self, root: u32, cut: &Cut, stamp: u16) -> u16 {
        for (l, &w) in cut.leaves().zip(&LEAF_WORDS) {
            self.words[l as usize] = w;
            self.seen[l as usize] = stamp;
        }
        let word = self.word(root as u16, stamp);
        word & ((1u32 << (1usize << cut.n)) - 1) as u16
    }

    /// `slot`'s word, evaluating the cells between it and the leaves.
    fn word(&mut self, slot: u16, stamp: u16) -> u16 {
        if self.seen[slot as usize] == stamp {
            return self.words[slot as usize];
        }
        let d = self.driver[slot as usize];
        assert_ne!(d, NONE, "cut leaves must close the cone");
        let cell = self.instrs[d as usize];
        let mut pins = [0u16; K];
        for (w, &p) in pins.iter_mut().zip(&cell.pins[..cell.arity as usize]) {
            *w = self.word(p as u16, stamp);
        }
        let word = eval_words(cell.table, &pins[..cell.arity as usize]);
        self.words[slot as usize] = word;
        self.seen[slot as usize] = stamp;
        word
    }
}

/// Leaf `k`'s value in each of the 16 packed leaf assignments.
const LEAF_WORDS: [u16; K] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// Maps a one-stage program onto instructions of at most
/// four pins. `roots` are the slots the caller reads; `opaque` are the
/// positions (ascending) of step instructions, as
/// [`crate::opt::optimize`] reports them.
///
/// Returns the mapped program, over the same slot numbering (slots of
/// absorbed cells are simply no longer written), and the new position
/// of each opaque instruction, in the order of `opaque`. Every root and
/// every opaque instruction's output is bit-identical to the input
/// program's after a sweep, for any behavior the opaque instructions
/// have; the mapped stream never has more instructions.
///
/// # Panics
///
/// Panics if the program has more than one stage or more than
/// 65,535 slots, or if `opaque` is not ascending and in range.
pub fn map_luts(
    prog: &FusedProgram,
    roots: &[u32],
    opaque: &[usize],
) -> (FusedProgram, Vec<usize>) {
    assert_eq!(prog.n_stages(), 1, "mapping takes one stage");
    assert!(
        opaque.windows(2).all(|w| w[0] < w[1]) && opaque.last().is_none_or(|&i| i < prog.len()),
        "opaque positions must be ascending and in range"
    );
    let n = prog.n_slots();
    assert!(n < usize::from(NONE), "mapping takes at most 65,535 slots");
    let instrs = prog.instrs();
    let mut is_opaque = vec![false; instrs.len()];
    for &i in opaque {
        is_opaque[i] = true;
    }
    // The instruction computing each slot; steps' outputs are leaves.
    let mut driver = vec![NONE; n];
    let mut refs = vec![0u16; n];
    for (i, ins) in instrs.iter().enumerate() {
        if !is_opaque[i] {
            driver[ins.out as usize] = i as u16;
        }
        for &p in &ins.pins[..ins.arity as usize] {
            refs[p as usize] = refs[p as usize].saturating_add(1);
        }
    }
    for &r in roots {
        refs[r as usize] = refs[r as usize].saturating_add(1);
    }

    // Pass 1: priority cuts in stream order. `flow`/`depth` of a slot
    // are those of its best cut, the flow split over the slot's fanout;
    // sources and step outputs cost nothing and have no cut but
    // themselves. A cut's flow and depth grow as leaves merge in.
    let mut flow = vec![0f32; n];
    let mut depth = vec![0u16; n];
    // Slot `s`'s priority cuts are `cuts[first[s]..][..count[s]]`.
    let mut first = vec![0u32; n];
    let mut count = vec![0u8; n];
    let mut cuts: Vec<Cut> = Vec::with_capacity(instrs.len() * CUTS);
    let mut partial: Vec<Cut> = Vec::new();
    let mut merged: Vec<Cut> = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        if is_opaque[i] {
            continue;
        }
        let mut best = Priority::default();
        // A fanin's cuts: its priority cuts, then the fanin itself.
        let stored =
            |slot: u32| &cuts[first[slot as usize] as usize..][..count[slot as usize] as usize];
        let leaf = |slot: u32| Cut::leaf(slot as u16, &flow, &depth);
        match ins.pins[..ins.arity as usize] {
            // A constant cell (unoptimized streams keep them): no leaves.
            [] => best.offer(Cut {
                flow: 1.0,
                depth: 1,
                ..Cut::default()
            }),
            [a] => {
                for x in stored(a).iter().chain([&leaf(a)]) {
                    best.offer(*x);
                }
            }
            [a, b] => {
                let (la, lb) = (leaf(a), leaf(b));
                for x in stored(a).iter().chain([&la]) {
                    for y in stored(b).iter().chain([&lb]) {
                        // A union's flow is at least either part's.
                        if best.n == CUTS && x.flow.max(y.flow) > best.cuts[CUTS - 1].flow {
                            continue;
                        }
                        if let Some(cut) = merge(x, y, &flow) {
                            best.offer(cut);
                        }
                    }
                }
            }
            ref pins => {
                partial.clear();
                partial.extend(stored(pins[0]).iter().copied().chain([leaf(pins[0])]));
                for &p in &pins[1..] {
                    let lp = leaf(p);
                    merged.clear();
                    for x in &partial {
                        let ys = stored(p).iter().chain([&lp]);
                        merged.extend(ys.filter_map(|y| merge(x, y, &flow)));
                    }
                    std::mem::swap(&mut partial, &mut merged);
                }
                partial.iter().for_each(|&cut| best.offer(cut));
            }
        }
        let out = ins.out as usize;
        flow[out] = best.cuts[0].flow / f32::from(refs[out].max(1));
        depth[out] = best.cuts[0].depth;
        first[out] = cuts.len() as u32;
        count[out] = best.n as u8;
        cuts.extend_from_slice(best.cuts());
    }

    // Pass 2: cover from the roots and the steps' pins backwards.
    let best = |slot: u32| &cuts[first[slot as usize] as usize];
    let mut required = vec![false; n];
    for &r in roots {
        required[r as usize] = true;
    }
    for (i, ins) in instrs.iter().enumerate().rev() {
        if is_opaque[i] {
            for &p in &ins.pins[..ins.arity as usize] {
                required[p as usize] = true;
            }
        } else if required[ins.out as usize] {
            for l in best(ins.out).leaves() {
                required[l as usize] = true;
            }
        }
    }

    // Pass 3: emit in stream order, with each cut's truth word computed
    // from the cells of its cone.
    let mut cones = Cones {
        instrs,
        driver: &driver,
        words: vec![0; n],
        seen: vec![NONE; n],
    };
    let mut mapped: Vec<LutInstr> = Vec::with_capacity(instrs.len());
    let mut moved = Vec::with_capacity(opaque.len());
    for (i, ins) in instrs.iter().enumerate() {
        if is_opaque[i] {
            moved.push(mapped.len());
            mapped.push(*ins);
            continue;
        }
        if !required[ins.out as usize] {
            continue;
        }
        let cut = best(ins.out);
        let mut pins = [0u32; K];
        for (p, l) in pins.iter_mut().zip(cut.leaves()) {
            *p = u32::from(l);
        }
        // A cut of the cell's own pins, in order, keeps its word.
        let table = if pins == ins.pins && cut.n == ins.arity {
            ins.table
        } else {
            cones.truth(ins.out, cut, i as u16)
        };
        mapped.push(LutInstr {
            table,
            arity: cut.n,
            out: ins.out,
            pins,
        });
    }
    let out = FusedProgram::from_parts(mapped, vec![0], n, prog.consts().to_vec());
    (out, moved)
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
    fn merges_deduplicate_and_bound_leaves() {
        let (flow, depth) = (vec![0.5f32; 80], vec![0u16; 80]);
        let leaf = |s| Cut::leaf(s, &flow, &depth);
        let a = merge(&leaf(7), &leaf(3), &flow).unwrap();
        assert_eq!(a.leaves().collect::<Vec<_>>(), [7, 3]);
        let b = merge(&leaf(3), &leaf(9), &flow).unwrap();
        let ab = merge(&a, &b, &flow).unwrap();
        assert_eq!(
            ab.leaves().collect::<Vec<_>>(),
            [7, 3, 9],
            "shared leaves merge once"
        );
        let c = merge(&leaf(1), &leaf(70), &flow).unwrap();
        assert_eq!(eval_words(0b0110, &[0xAAAA, 0xCCCC]), 0x6666, "xor");
        assert_eq!(eval_words(0x80, &LEAF_WORDS[..3]), 0x8080, "and3");
        assert!(merge(&ab, &c, &flow).is_none(), "five leaves");
        assert!(leaf(3).subset_of(&ab));
        assert_eq!(
            ab.flow,
            1.0 + 0.5 * 3.0,
            "one instruction plus three leaves' flow"
        );
        assert!(!ab.subset_of(&a));
    }

    #[test]
    fn a_gate_chain_collapses_into_one_lut() {
        // y = ((a & b) ^ c) | d: three 2-input cells, one 4-input cut.
        let mut fb = FuseBuilder::new();
        let ins = fb.fresh_bus(4);
        let seg = [
            instr(0b1000, 2, 4, [0, 1, 0, 0]),
            instr(0b0110, 2, 5, [4, 2, 0, 0]),
            instr(0b1110, 2, 6, [5, 3, 0, 0]),
        ];
        let bind: Vec<(u32, u32)> = (0..4).map(|k| (k, ins[k as usize])).collect();
        let map = fb.append(&seg, 7, &bind);
        let prog = fb.finish();
        let y = map[6];
        let (mapped, moved) = map_luts(&prog, &[y], &[]);
        assert!(moved.is_empty());
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped.instrs()[0].arity, 4);
        let mut ex = FusedExec::new(Arc::new(mapped));
        let lanes = [0xAAAAu64, 0xCCCC, 0xF0F0, 0xFF00];
        for (&s, &w) in ins.iter().zip(&lanes) {
            ex.set_slot(s, w);
        }
        ex.exec();
        let want = ((lanes[0] & lanes[1]) ^ lanes[2]) | lanes[3];
        assert_eq!(ex.slot(y) & 0xFFFF, want);
    }

    #[test]
    fn constant_cells_map_to_leafless_luts() {
        // y = not(c1) | a with c1 a tie-high cell: maps to one LUT whose
        // word is the identity of `a` once c1 is absorbed.
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let seg = [
            instr(0b1, 0, 1, [0, 0, 0, 0]),
            instr(0b01, 1, 2, [1, 0, 0, 0]),
            instr(0b1110, 2, 3, [2, 0, 0, 0]),
        ];
        let map = fb.append(&seg, 4, &[(0, a)]);
        let prog = fb.finish();
        let (mapped, _) = map_luts(&prog, &[map[3]], &[]);
        assert_eq!(mapped.len(), 1);
        let y = mapped.instrs()[0];
        assert_eq!((y.arity, y.pins[0], y.table), (1, a, 0b10));
    }

    #[test]
    fn opaque_outputs_are_leaves_and_their_pins_roots() {
        // s = opaque(a & b); y = s ^ (a & b). The AND is a step pin, so
        // it stays an instruction; the XOR reads the step as a leaf and
        // recomputes the shared AND from its leaves.
        let mut fb = FuseBuilder::new();
        let ins = fb.fresh_bus(2);
        let seg = [
            instr(0b1000, 2, 2, [0, 1, 0, 0]),
            instr(0b10, 1, 3, [2, 0, 0, 0]),
            instr(0b0110, 2, 4, [3, 2, 0, 0]),
        ];
        let map = fb.append(&seg, 5, &[(0, ins[0]), (1, ins[1])]);
        let prog = fb.finish();
        let (mapped, moved) = map_luts(&prog, &[map[4]], &[1]);
        assert_eq!(moved, vec![1]);
        assert_eq!(mapped.len(), 3);
        assert_eq!(mapped.instrs()[1], prog.instrs()[1], "step unchanged");
        let y = mapped.instrs()[2];
        let mut pins = y.pins[..y.arity as usize].to_vec();
        pins.sort_unstable();
        assert_eq!(pins, [ins[0], ins[1], map[3]]);
    }
}
