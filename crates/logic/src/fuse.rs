//! Cross-operator fusion of compiled LUT instruction streams.
//!
//! [`crate::LutProgram`] compiles *one* netlist; an accelerator forward
//! pass evaluates many operator instances, and running their compiled
//! programs one at a time would repack 64-lane words at every operator
//! boundary. [`FuseBuilder`] instead stitches any number
//! of (already fault-patched) instruction streams into a single
//! [`FusedProgram`] over one shared flat register file: a producer's
//! output slots are *bound* directly as a consumer's input slots, so a
//! faulty multiplier feeding a faulty adder costs zero repacking and the
//! whole chain settles in one straight-line sweep.
//!
//! The fused stream is the append order: each segment is topological
//! (like [`crate::LutProgram`]'s) and reads only slots bound before it
//! was appended, so the concatenation is topological too.
//!
//! Because a real pipeline interleaves gate-level segments with native
//! word-level arithmetic (healthy operators never enter the stream), the
//! builder supports *stage barriers* ([`FuseBuilder::barrier`]): a
//! barrier records the current stream length as the next stage's first
//! instruction, and [`FusedProgram::stage_range`] gives each stage's
//! contiguous instruction range. The runner executes stage `s`, does
//! its native work, writes the next stage's runtime inputs, and resumes
//! with stage `s + 1` — register slots persist across stages, which is
//! what lets later segments read earlier segments' outputs directly.

use std::sync::Arc;

use crate::compile::LutInstr;

/// Sentinel slot index for a register eliminated by the optimizer
/// ([`crate::opt::optimize`]). Bus helpers on [`FusedExec`] skip dead
/// slots on writes; a dead slot must never be read.
pub const DEAD_SLOT: u32 = u32::MAX;

/// A fused, topological LUT instruction stream over a shared flat
/// register file, produced by [`FuseBuilder::finish`] (and optionally
/// rewritten by [`crate::opt::optimize`]).
#[derive(Debug)]
pub struct FusedProgram {
    instrs: Vec<LutInstr>,
    /// First instruction of each stage; stage `s` spans
    /// `stage_start[s]..stage_start[s + 1]` (the last stage runs to the
    /// end of the stream). Entries are non-decreasing.
    stage_start: Vec<u32>,
    n_slots: usize,
    /// Slots holding a compile-time constant in every lane, materialized
    /// once by [`FusedExec::new`] and never written by the stream (the
    /// optimizer's constant-register lowering).
    consts: Vec<(u32, bool)>,
}

impl FusedProgram {
    pub(crate) fn from_parts(
        instrs: Vec<LutInstr>,
        stage_start: Vec<u32>,
        n_slots: usize,
        consts: Vec<(u32, bool)>,
    ) -> FusedProgram {
        FusedProgram {
            instrs,
            stage_start,
            n_slots,
            consts,
        }
    }

    /// The fused instruction stream, in topological order.
    pub fn instrs(&self) -> &[LutInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of register-file slots an executor needs.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of stages (1 unless [`FuseBuilder::barrier`] was called).
    pub fn n_stages(&self) -> usize {
        self.stage_start.len()
    }

    /// The instruction range of one stage.
    pub fn stage_range(&self, stage: usize) -> std::ops::Range<usize> {
        let hi = self
            .stage_start
            .get(stage + 1)
            .map_or(self.instrs.len(), |&i| i as usize);
        self.stage_start[stage] as usize..hi
    }

    /// Constant registers, materialized when an executor is built.
    pub fn consts(&self) -> &[(u32, bool)] {
        &self.consts
    }
}

/// Builds a [`FusedProgram`] by appending per-operator instruction
/// streams with explicit slot bindings.
///
/// # Example
///
/// ```
/// use dta_logic::{FuseBuilder, FusedExec, LutInstr};
/// // Two NOT gates chained across segment boundaries: the second
/// // segment's input slot is bound to the first one's output slot.
/// let not = |out, pin| LutInstr { table: 0b01, arity: 1, out, pins: [pin, 0, 0, 0] };
/// let mut fb = FuseBuilder::new();
/// let a = fb.fresh_slot();
/// let m1 = fb.append(&[not(1, 0)], 2, &[(0, a)]);
/// let m2 = fb.append(&[not(1, 0)], 2, &[(0, m1[1])]);
/// let prog = std::sync::Arc::new(fb.finish());
/// let mut ex = FusedExec::new(prog);
/// ex.set_slot(a, 0b1010);
/// ex.exec();
/// assert_eq!(ex.slot(m2[1]), 0b1010);
/// ```
#[derive(Debug, Default)]
pub struct FuseBuilder {
    instrs: Vec<LutInstr>,
    /// First instruction of each stage (first entry 0).
    stage_start: Vec<u32>,
    /// Number of slots allocated so far.
    n_slots: usize,
}

impl FuseBuilder {
    /// Creates an empty builder (one stage, no slots).
    pub fn new() -> FuseBuilder {
        FuseBuilder {
            stage_start: vec![0],
            ..FuseBuilder::default()
        }
    }

    /// Allocates a fresh external-input slot (reads as all-zero lanes
    /// until the runner writes it).
    pub fn fresh_slot(&mut self) -> u32 {
        let s = self.n_slots as u32;
        self.n_slots += 1;
        s
    }

    /// Allocates a bus of fresh external-input slots.
    pub fn fresh_bus(&mut self, width: usize) -> Vec<u32> {
        (0..width).map(|_| self.fresh_slot()).collect()
    }

    /// Number of slots allocated so far.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if no instruction has been appended.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Starts a new stage at the current end of the stream, so the
    /// runner can interleave native work between
    /// [`FusedExec::exec_stage`] calls.
    pub fn barrier(&mut self) {
        self.stage_start.push(self.instrs.len() as u32);
    }

    /// Appends one compiled (and possibly fault-patched) instruction
    /// stream. `n_slots` is the segment's own register-file size;
    /// `bind` maps segment-local slots (typically primary-input slots)
    /// onto existing fused slots — a producer's outputs become this
    /// consumer's inputs with no repacking. Unbound local slots get
    /// fresh fused slots. Returns the local→fused slot map, so the
    /// caller can locate the segment's output slots.
    ///
    /// The segment must be in topological (schedule) order, and bound
    /// slots must not be written by the segment.
    ///
    /// # Panics
    ///
    /// Panics if a binding is out of range, if a bound slot is written
    /// by the segment, or if the segment writes one slot twice.
    pub fn append(&mut self, instrs: &[LutInstr], n_slots: usize, bind: &[(u32, u32)]) -> Vec<u32> {
        let mut map = vec![DEAD_SLOT; n_slots];
        for &(local, fused) in bind {
            assert!((local as usize) < n_slots, "binding past segment slots");
            assert!(
                (fused as usize) < self.n_slots,
                "binding to unallocated fused slot"
            );
            map[local as usize] = fused;
        }
        for ins in instrs {
            let mut fused = *ins;
            for k in 0..ins.arity as usize {
                let local = ins.pins[k] as usize;
                if map[local] == DEAD_SLOT {
                    map[local] = self.fresh_slot();
                }
                fused.pins[k] = map[local];
            }
            let out = ins.out as usize;
            assert!(
                map[out] == DEAD_SLOT,
                "segment writes a bound or already-written slot"
            );
            let slot = self.fresh_slot();
            map[out] = slot;
            fused.out = slot;
            self.instrs.push(fused);
        }
        map
    }

    /// Finishes the build.
    pub fn finish(self) -> FusedProgram {
        FusedProgram::from_parts(self.instrs, self.stage_start, self.n_slots, Vec::new())
    }
}

/// Straight-line executor for a [`FusedProgram`]: a flat 64-lane
/// register file with no dispatch, no overrides and no repacking
/// between fused segments. Fault patches are already baked into the
/// fused truth words, so there is nothing left to patch at run time.
#[derive(Debug)]
pub struct FusedExec {
    prog: Arc<FusedProgram>,
    regs: Vec<u64>,
}

impl FusedExec {
    /// Creates an executor: constant registers materialized in every
    /// lane, all other slots zero.
    pub fn new(prog: Arc<FusedProgram>) -> FusedExec {
        let mut regs = vec![0u64; prog.n_slots()];
        for &(slot, bit) in prog.consts() {
            regs[slot as usize] = if bit { !0 } else { 0 };
        }
        FusedExec { prog, regs }
    }

    /// The fused program this executor runs.
    pub fn program(&self) -> &Arc<FusedProgram> {
        &self.prog
    }

    /// Executes the whole stream once, settling all lanes.
    pub fn exec(&mut self) {
        for ins in self.prog.instrs() {
            let v = ins.eval(&self.regs);
            self.regs[ins.out as usize] = v;
        }
    }

    /// Executes one stage's instruction range; earlier stages' results
    /// stay in the register file for later stages to read.
    pub fn exec_stage(&mut self, stage: usize) {
        for ins in &self.prog.instrs()[self.prog.stage_range(stage)] {
            let v = ins.eval(&self.regs);
            self.regs[ins.out as usize] = v;
        }
    }

    /// Writes a slot's 64-lane word (bit `l` = lane `l`). Skips
    /// [`DEAD_SLOT`], so optimizer-compacted buses can be driven as-is.
    #[inline]
    pub fn set_slot(&mut self, slot: u32, lanes: u64) {
        if slot != DEAD_SLOT {
            self.regs[slot as usize] = lanes;
        }
    }

    /// Broadcasts one bit across all lanes of a slot (skips
    /// [`DEAD_SLOT`]): the uniform-input lowering for values shared by
    /// every lane, e.g. a weight bit.
    #[inline]
    pub fn set_slot_uniform(&mut self, slot: u32, bit: bool) {
        self.set_slot(slot, if bit { !0 } else { 0 });
    }

    /// Broadcasts a word across all lanes of a bus (LSB-first), skipping
    /// dead slots.
    pub fn set_bus_uniform(&mut self, bus: &[u32], word: u64) {
        for (bit, &slot) in bus.iter().enumerate() {
            self.set_slot_uniform(slot, (word >> bit) & 1 == 1);
        }
    }

    /// Drives a bus so lane `l` carries `words[l]` (LSB-first); fewer
    /// than 64 words leave the remaining lanes at zero. Dead slots are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 words are supplied.
    pub fn set_bus_words(&mut self, bus: &[u32], words: &[u64]) {
        assert!(words.len() <= 64, "at most 64 lanes");
        for (bit, &slot) in bus.iter().enumerate() {
            if slot == DEAD_SLOT {
                continue;
            }
            let mut lanes = 0u64;
            for (l, &w) in words.iter().enumerate() {
                lanes |= ((w >> bit) & 1) << l;
            }
            self.regs[slot as usize] = lanes;
        }
    }

    /// A slot's 64-lane word.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is [`DEAD_SLOT`].
    #[inline]
    pub fn slot(&self, slot: u32) -> u64 {
        self.regs[slot as usize]
    }

    /// Reads lane `lane` of a bus back as a word (LSB-first).
    ///
    /// # Panics
    ///
    /// Panics if the bus contains a dead slot (outputs are never
    /// eliminated) or `lane >= 64`.
    pub fn read_word_lane(&self, bus: &[u32], lane: usize) -> u64 {
        assert!(lane < 64);
        bus.iter().enumerate().fold(0u64, |acc, (bit, &slot)| {
            acc | (((self.regs[slot as usize] >> lane) & 1) << bit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::LutProgram;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    /// 2-bit adder segment used as a fusion building block.
    fn adder2() -> (Arc<LutProgram>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("a", 2);
        let x = b.input_bus("b", 2);
        let s0 = b.gate(GateKind::Xor2, &[a[0], x[0]]);
        let c0 = b.gate(GateKind::And2, &[a[0], x[0]]);
        let s1x = b.gate(GateKind::Xor2, &[a[1], x[1]]);
        let s1 = b.gate(GateKind::Xor2, &[s1x, c0]);
        let c1a = b.gate(GateKind::And2, &[s1x, c0]);
        let c1b = b.gate(GateKind::And2, &[a[1], x[1]]);
        let c2 = b.gate(GateKind::Or2, &[c1a, c1b]);
        b.output_bus("s", &[s0, s1, c2]);
        let prog = Arc::new(LutProgram::compile(Arc::new(b.build())));
        let au = a.iter().map(|n| n.index() as u32).collect();
        let xu = x.iter().map(|n| n.index() as u32).collect();
        let su = vec![s0.index() as u32, s1.index() as u32, c2.index() as u32];
        (prog, au, xu, su)
    }

    #[test]
    fn fused_chain_matches_composition() {
        // (a + b) + c through two fused adder segments, directly wired.
        let (prog, a_bus, b_bus, s_bus) = adder2();
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_bus(2);
        let b = fb.fresh_bus(2);
        let c = fb.fresh_bus(2);
        let bind1: Vec<(u32, u32)> = a_bus
            .iter()
            .zip(&a)
            .chain(b_bus.iter().zip(&b))
            .map(|(&l, &f)| (l, f))
            .collect();
        let m1 = fb.append(prog.instrs(), prog.n_slots(), &bind1);
        // Second adder: a-input = first sum (low 2 bits), b-input = c.
        let bind2: Vec<(u32, u32)> = a_bus
            .iter()
            .zip(s_bus.iter().map(|&s| m1[s as usize]))
            .chain(b_bus.iter().zip(c.iter().copied()))
            .map(|(&l, f)| (l, f))
            .collect();
        let m2 = fb.append(prog.instrs(), prog.n_slots(), &bind2);
        let sum2: Vec<u32> = s_bus.iter().map(|&s| m2[s as usize]).collect();
        let fused = Arc::new(fb.finish());
        assert_eq!(fused.n_stages(), 1);

        let mut ex = FusedExec::new(fused);
        let rows: Vec<(u64, u64, u64)> = (0..64)
            .map(|i| (i % 4, (i / 4) % 4, (i / 16) % 4))
            .collect();
        ex.set_bus_words(&a, &rows.iter().map(|r| r.0).collect::<Vec<_>>());
        ex.set_bus_words(&b, &rows.iter().map(|r| r.1).collect::<Vec<_>>());
        ex.set_bus_words(&c, &rows.iter().map(|r| r.2).collect::<Vec<_>>());
        ex.exec();
        for (l, &(ra, rb, rc)) in rows.iter().enumerate() {
            let want = ((ra + rb) % 4) + rc; // low 2 bits of first sum
            assert_eq!(ex.read_word_lane(&sum2, l), want, "lane {l}");
        }
    }

    #[test]
    fn stages_stay_contiguous_and_persist_registers() {
        let (prog, a_bus, b_bus, s_bus) = adder2();
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_bus(2);
        let b = fb.fresh_bus(2);
        let bind1: Vec<(u32, u32)> = a_bus
            .iter()
            .zip(&a)
            .chain(b_bus.iter().zip(&b))
            .map(|(&l, &f)| (l, f))
            .collect();
        let m1 = fb.append(prog.instrs(), prog.n_slots(), &bind1);
        fb.barrier();
        // Stage 1 segment reads a *runtime* input written between the
        // stages, plus stage 0's fused output.
        let c = fb.fresh_bus(2);
        let bind2: Vec<(u32, u32)> = a_bus
            .iter()
            .zip(s_bus.iter().map(|&s| m1[s as usize]))
            .chain(b_bus.iter().zip(c.iter().copied()))
            .map(|(&l, f)| (l, f))
            .collect();
        let m2 = fb.append(prog.instrs(), prog.n_slots(), &bind2);
        let sum1: Vec<u32> = s_bus.iter().map(|&s| m1[s as usize]).collect();
        let sum2: Vec<u32> = s_bus.iter().map(|&s| m2[s as usize]).collect();
        let fused = Arc::new(fb.finish());
        assert_eq!(fused.n_stages(), 2);
        let (r0, r1) = (fused.stage_range(0), fused.stage_range(1));
        assert_eq!(r0.end, r1.start, "stages partition the stream");
        assert_eq!(r1.end, fused.len());
        assert!(!r0.is_empty() && !r1.is_empty());

        let mut ex = FusedExec::new(fused);
        ex.set_bus_words(&a, &[3]);
        ex.set_bus_words(&b, &[2]);
        ex.exec_stage(0);
        let first = ex.read_word_lane(&sum1, 0);
        assert_eq!(first, 5);
        // Native interleave: the runner derives stage 1's extra input
        // from stage 0's result.
        ex.set_bus_words(&c, &[first & 0x3]);
        ex.exec_stage(1);
        assert_eq!(ex.read_word_lane(&sum2, 0), (5 % 4) + (5 % 4));
    }

    #[test]
    fn uniform_bus_broadcasts_every_lane() {
        let mut fb = FuseBuilder::new();
        let bus = fb.fresh_bus(4);
        let prog = Arc::new(fb.finish());
        let mut ex = FusedExec::new(prog);
        ex.set_bus_uniform(&bus, 0b1010);
        for lane in [0usize, 17, 63] {
            assert_eq!(ex.read_word_lane(&bus, lane), 0b1010);
        }
    }

    #[test]
    #[should_panic(expected = "bound or already-written")]
    fn writing_a_bound_slot_panics() {
        let mut fb = FuseBuilder::new();
        let a = fb.fresh_slot();
        let not = LutInstr {
            table: 0b01,
            arity: 1,
            out: 0,
            pins: [0, 0, 0, 0],
        };
        // Local slot 0 is both bound and written by the segment.
        fb.append(&[not], 1, &[(0, a)]);
    }
}
