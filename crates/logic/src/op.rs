//! One-lane executor for a single faulty operator.
//!
//! The paper's hybrid model calls "a software function ... in place of
//! the native operator" for every operator marked defective, one
//! operand pair at a time — the hot path of every retraining run.
//! [`OpExec`] is that function: the operator's fault-patched LUT stream,
//! optimized ([`crate::opt::optimize`]), mapped onto 4-input
//! LUTs ([`crate::map::map_luts`]) and swept over a byte register file,
//! one lane per call. Each input and output bus occupies a contiguous
//! register range, so a call drives and reads a bus eight bits per word
//! move.
//!
//! Combinational faulty cells arrive as patched truth words. Cells with
//! state — memory effects, delay defects, transient or intermittent
//! activations — arrive as **step instructions**: the instruction keeps
//! its pins and the executor calls the cell's [`GateBehavior`] in its
//! place, exactly once per call, in stream order, as
//! [`crate::Simulator::settle`] does for an overridden gate. The
//! simulator with the same behaviors installed is the reference the
//! executor is tested against.

use crate::compile::{LutInstr, LutProgram};
use crate::fuse::{FusedProgram, DEAD_SLOT};
use crate::gate::GateBehavior;
use crate::map::map_luts;
use crate::netlist::NodeId;
use crate::opt::optimize;
use crate::sim::MAX_ARITY;

/// Register-file size. Every operator of the library fits even
/// unoptimized (the sigmoid unit has about 3,530 nodes), and reducing
/// slot indices modulo a power of two lets the sweep index the file
/// without bounds checks.
const REGS: usize = 1 << 12;

/// One operator's register file, a byte per slot.
type Regs = [u8; REGS];

/// One instruction padded to four pins. The truth word is replicated
/// over the unused pins (which read slot 0), so one 16-entry lookup
/// evaluates a cell of any arity without a branch.
#[derive(Clone, Copy, Debug)]
struct OpInstr {
    table: u16,
    out: u16,
    pins: [u16; 4],
}

impl OpInstr {
    fn pad(ins: &LutInstr) -> OpInstr {
        let arity = ins.arity as usize;
        let mut width = 1usize << arity;
        let mut table = u32::from(ins.table) & ((1u32 << width) - 1);
        while width < 16 {
            table |= table << width;
            width *= 2;
        }
        let mut pins = [0u16; 4];
        for (p, &slot) in pins.iter_mut().zip(&ins.pins[..arity]) {
            *p = slot as u16;
        }
        OpInstr {
            table: table as u16,
            out: ins.out as u16,
            pins,
        }
    }

    #[inline(always)]
    fn index(&self, regs: &Regs) -> u32 {
        let r = |k: usize| u32::from(regs[self.pins[k] as usize % REGS]);
        r(0) | r(1) << 1 | r(2) << 2 | r(3) << 3
    }
}

/// A stateful cell's behavior, evaluated in place of instruction `at`.
#[derive(Debug)]
struct Step {
    at: usize,
    arity: usize,
    behavior: Box<dyn GateBehavior>,
}

/// Sweeps branch-free LUT instructions.
#[inline(always)]
fn run_luts(code: &[OpInstr], regs: &mut Regs) {
    for ins in code {
        let v = (ins.table >> ins.index(regs)) & 1;
        regs[ins.out as usize % REGS] = v as u8;
    }
}

/// Evaluates one step instruction; true if its output changed.
fn run_step(step: &mut Step, code: &[OpInstr], regs: &mut Regs) -> bool {
    let ins = &code[step.at];
    let mut buf = [false; MAX_ARITY];
    for (b, &p) in buf.iter_mut().zip(&ins.pins[..step.arity]) {
        *b = regs[p as usize % REGS] != 0;
    }
    let v = u8::from(step.behavior.eval(&buf[..step.arity]));
    let out = &mut regs[ins.out as usize % REGS];
    let changed = *out != v;
    *out = v;
    changed
}

/// Sweeps `code[from..]`, evaluating the steps at or after `from` in
/// stream order.
fn sweep(code: &[OpInstr], regs: &mut Regs, steps: &mut [Step], from: usize) {
    let first = steps.partition_point(|s| s.at < from);
    let mut pos = from;
    for step in &mut steps[first..] {
        run_luts(&code[pos..step.at], regs);
        run_step(step, code, regs);
        pos = step.at + 1;
    }
    run_luts(&code[pos..], regs);
}

/// One operator's stream in the form [`OpExec`] runs: a one-stage
/// program, the positions of its step instructions and the
/// slots of its buses.
#[derive(Debug)]
pub struct OpProgram {
    /// The instruction stream, topological.
    prog: FusedProgram,
    /// Positions of the step instructions, ascending.
    steps: Vec<usize>,
    /// Input buses (LSB first); [`DEAD_SLOT`] for bits nothing reads.
    inputs: Vec<Vec<u32>>,
    /// Output bus (LSB first). Outputs are roots, never [`DEAD_SLOT`].
    output: Vec<u32>,
}

impl OpProgram {
    /// Optimizes an operator: `instrs` is `prog`'s instruction stream
    /// with the faulty cells' truth words patched in, and `steps` names
    /// the positions (ascending) of the stateful cells. The stream is
    /// optimized against `output` with the steps kept opaque, so each
    /// step keeps its pins and sees exactly the inputs the simulator
    /// would hand its override. `inputs` are the operator's input
    /// buses.
    ///
    /// # Panics
    ///
    /// Panics if `instrs` is not a stream of `prog`, or if step
    /// positions are not ascending.
    pub fn optimize(
        prog: &LutProgram,
        instrs: &[LutInstr],
        steps: &[usize],
        inputs: &[&[NodeId]],
        output: &[NodeId],
    ) -> OpProgram {
        assert_eq!(instrs.len(), prog.len(), "instrs must be a stream of prog");
        // A program's slots are its netlist's node indices.
        let slots =
            |bus: &[NodeId]| -> Vec<u32> { bus.iter().map(|id| id.index() as u32).collect() };
        let stream = FusedProgram::from_parts(instrs.to_vec(), vec![0], prog.n_slots(), Vec::new());
        let out = slots(output);
        let (prog, sm, _, steps) = optimize(&stream, &out, &[], steps);
        OpProgram {
            prog,
            steps,
            inputs: inputs.iter().map(|bus| sm.remap(&slots(bus))).collect(),
            output: sm.remap(&out),
        }
    }

    /// The instruction stream, topological, step instructions included.
    pub fn program(&self) -> &FusedProgram {
        &self.prog
    }

    /// The same operator mapped onto 4-input LUTs
    /// ([`crate::map::map_luts`]): bit-identical on every call, with at
    /// most as many instructions.
    pub fn map(&self) -> OpProgram {
        let (prog, steps) = map_luts(&self.prog, &self.output, &self.steps);
        OpProgram {
            prog,
            steps,
            inputs: self.inputs.clone(),
            output: self.output.clone(),
        }
    }
}

/// Compiled one-lane executor for one faulty operator: a byte per
/// register slot, branch-free LUT evaluation, and a step instruction
/// per stateful cell.
///
/// Each [`OpExec::call`] is bit-identical to driving the operator's
/// inputs on a [`crate::Simulator`] carrying the same behaviors and
/// settling once:
///
/// * every step instruction evaluates exactly once per call, in stream
///   order — also when no input changed, because the simulator
///   evaluates every overridden gate on every settle;
/// * if an input word differs from the one last driven, or the
///   executor has never swept, the whole stream is swept;
/// * otherwise a stream without steps returns its registers as they
///   are, and a stream with steps walks them in order: at the first
///   step whose output changes, the sweep resumes at the next
///   instruction, never re-running a step already walked.
///
/// # Example
///
/// ```
/// use dta_logic::{GateKind, LutProgram, NetlistBuilder, OpExec};
/// use std::sync::Arc;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.input_bus("x", 2);
/// let y = b.gate(GateKind::Xor2, &[x[0], x[1]]);
/// b.output("y", y);
/// let prog = LutProgram::compile(Arc::new(b.build()));
/// let mut op = OpExec::compile(&prog, prog.instrs(), Vec::new(), &[&x[..]], &[y]);
/// assert_eq!(op.call(&[0b01]), 1);
/// assert_eq!(op.call(&[0b11]), 0);
/// ```
#[derive(Debug)]
pub struct OpExec {
    code: Vec<OpInstr>,
    regs: Box<Regs>,
    /// Step instructions, ascending by position.
    steps: Vec<Step>,
    /// Input buses: bit `b` of bus `k` lives in register
    /// `inputs[k].base + b`.
    inputs: Vec<Bus>,
    /// The word last driven on each input bus.
    driven: Vec<u64>,
    output: Bus,
    /// An input word changed since the last sweep, or nothing has been
    /// swept yet.
    stale: bool,
}

/// A bus laid out as a contiguous register range, padded to whole
/// bytes of bits so it moves eight registers per word access.
#[derive(Clone, Copy, Debug)]
struct Bus {
    base: usize,
    width: usize,
}

impl Bus {
    fn mask(self) -> u64 {
        u64::MAX.checked_shr(64 - self.width as u32).unwrap_or(0)
    }

    fn padded(width: usize) -> usize {
        width.div_ceil(8) * 8
    }
}

impl OpExec {
    /// Compiles an operator: optimizes it ([`OpProgram::optimize`]),
    /// maps it onto 4-input LUTs ([`OpProgram::map`]) and lays out its
    /// register file. `steps` pairs the positions (ascending) of the
    /// stateful cells with their behaviors. `inputs` are the operator's
    /// input buses, driven in order by [`OpExec::call`].
    ///
    /// # Panics
    ///
    /// As [`OpProgram::optimize`] and [`OpExec::new`].
    pub fn compile(
        prog: &LutProgram,
        instrs: &[LutInstr],
        steps: Vec<(usize, Box<dyn GateBehavior>)>,
        inputs: &[&[NodeId]],
        output: &[NodeId],
    ) -> OpExec {
        let (at, behaviors): (Vec<usize>, Vec<_>) = steps.into_iter().unzip();
        // Dropping the optimized program before the build keeps the
        // peak footprint to one stream plus the mapper's tables.
        let mapped = OpProgram::optimize(prog, instrs, &at, inputs, output).map();
        OpExec::new(&mapped, behaviors)
    }

    /// Builds the executor of an operator program, with one behavior per
    /// step instruction, in order.
    ///
    /// Each input bus and the output bus get a contiguous register
    /// range; instructions computing an output bit write the output
    /// range directly, and an output bit that repeats another, reads an
    /// input or is constant costs one trailing copy or constant
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if the behaviors do not match the steps, if a bus is wider than 64 bits or if the
    /// register file exceeds 4,096 slots.
    pub fn new(op: &OpProgram, behaviors: Vec<Box<dyn GateBehavior>>) -> OpExec {
        let prog = &op.prog;
        assert_eq!(behaviors.len(), op.steps.len(), "one behavior per step");
        assert!(
            op.inputs.iter().chain([&op.output]).all(|b| b.len() <= 64),
            "buses are at most 64 bits wide"
        );
        let n = prog.n_slots();
        let mut slot = vec![DEAD_SLOT; n];
        let mut next = 0usize;
        let mut inputs = Vec::with_capacity(op.inputs.len());
        for bus in &op.inputs {
            for (b, &s) in bus.iter().enumerate() {
                if s != DEAD_SLOT {
                    slot[s as usize] = (next + b) as u32;
                }
            }
            inputs.push(Bus {
                base: next,
                width: bus.len(),
            });
            next += Bus::padded(bus.len());
        }
        let output = Bus {
            base: next,
            width: op.output.len(),
        };
        next += Bus::padded(output.width);

        let mut constant = vec![None; n];
        for &(s, bit) in prog.consts() {
            constant[s as usize] = Some(bit);
        }
        let mut written = vec![false; n];
        for ins in prog.instrs() {
            written[ins.out as usize] = true;
        }
        let mut consts = Vec::new();
        let mut copies = Vec::new();
        for (b, &s) in op.output.iter().enumerate() {
            let at = output.base + b;
            if written[s as usize] && slot[s as usize] == DEAD_SLOT {
                slot[s as usize] = at as u32;
            } else if let Some(bit) = constant[s as usize] {
                consts.push((at, bit));
            } else {
                copies.push((at, s));
            }
        }
        let mut place = |s: u32| -> u32 {
            if slot[s as usize] == DEAD_SLOT {
                slot[s as usize] = next as u32;
                next += 1;
            }
            slot[s as usize]
        };
        let mut code: Vec<OpInstr> = Vec::with_capacity(prog.len() + copies.len());
        for ins in prog.instrs() {
            let mut ins = *ins;
            for p in &mut ins.pins[..ins.arity as usize] {
                *p = place(*p);
            }
            ins.out = place(ins.out);
            code.push(OpInstr::pad(&ins));
        }
        for &(at, s) in &copies {
            code.push(OpInstr::pad(&LutInstr {
                table: 0b10,
                arity: 1,
                out: at as u32,
                pins: [place(s), 0, 0, 0],
            }));
        }
        for &(s, bit) in prog.consts() {
            if slot[s as usize] != DEAD_SLOT {
                consts.push((slot[s as usize] as usize, bit));
            }
        }
        assert!(next <= REGS, "operator register file exceeds {REGS} slots");

        let mut regs = Box::new([0u8; REGS]);
        for (at, bit) in consts {
            regs[at] = u8::from(bit);
        }
        let steps = op
            .steps
            .iter()
            .zip(behaviors)
            .map(|(&at, behavior)| Step {
                at,
                arity: prog.instrs()[at].arity as usize,
                behavior,
            })
            .collect();
        OpExec {
            code,
            regs,
            steps,
            driven: vec![0; inputs.len()],
            inputs,
            output,
            stale: true,
        }
    }

    /// Instructions in the swept stream, steps included.
    pub fn n_instrs(&self) -> usize {
        self.code.len()
    }

    /// Drives the input buses with `words` (bus `k` from the low bits
    /// of `words[k]`), settles once, and returns the output bus.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold one word per input bus.
    pub fn call(&mut self, words: &[u64]) -> u64 {
        assert_eq!(words.len(), self.inputs.len(), "one word per input bus");
        for ((bus, last), &word) in self.inputs.iter().zip(&mut self.driven).zip(words) {
            let word = word & bus.mask();
            if word != *last {
                *last = word;
                self.stale = true;
                write_bus(&mut self.regs, *bus, word);
            }
        }
        self.settle();
        read_bus(&self.regs, self.output)
    }

    fn settle(&mut self) {
        let OpExec {
            code,
            regs,
            steps,
            stale,
            ..
        } = self;
        if std::mem::take(stale) {
            return sweep(code, regs, steps, 0);
        }
        for k in 0..steps.len() {
            if run_step(&mut steps[k], code, regs) {
                let from = steps[k].at + 1;
                return sweep(code, regs, &mut steps[k + 1..], from);
            }
        }
    }

    /// Clears every step's internal state (memory effects, delay lines,
    /// activation streams). Registers are kept, as
    /// [`crate::Simulator::reset_state`] keeps node values.
    pub fn reset_state(&mut self) {
        for step in &mut self.steps {
            step.behavior.reset();
        }
    }
}

/// Eight bits as eight 0/1 bytes, bit `k` in byte `k` (little-endian).
fn spread_byte(bits: u64) -> u64 {
    const LOW: u64 = 0x0101_0101_0101_0101;
    // Byte k keeps bit k; adding 0x7F carries it into the byte's top
    // bit without crossing into the next byte.
    ((((bits & 0xFF) * LOW) & 0x8040_2010_0804_0201) + 0x7F7F_7F7F_7F7F_7F7F) >> 7 & LOW
}

/// Eight 0/1 bytes back as eight bits (the inverse of [`spread_byte`]).
fn gather_byte(bytes: u64) -> u64 {
    bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Drives a bus's registers with the low bits of `word`, a byte of bits
/// per word move (the padding registers take the bits past the width,
/// which nothing reads).
fn write_bus(regs: &mut Regs, bus: Bus, word: u64) {
    for b in (0..bus.width).step_by(8) {
        let at = bus.base + b;
        regs[at..at + 8].copy_from_slice(&spread_byte(word >> b).to_le_bytes());
    }
}

/// Reads a bus back as a word (LSB first). Output padding registers are
/// never written, so they read zero.
fn read_bus(regs: &Regs, bus: Bus) -> u64 {
    (0..bus.width).step_by(8).fold(0u64, |acc, b| {
        let at = bus.base + b;
        let bytes = u64::from_le_bytes(regs[at..at + 8].try_into().expect("eight registers"));
        acc | gather_byte(bytes) << b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    #[test]
    fn padded_tables_ignore_unused_pins() {
        for kind in GateKind::ALL {
            let n = kind.arity();
            let ins = LutInstr {
                table: crate::kind_table(kind),
                arity: n as u8,
                out: 0,
                pins: [1, 2, 3, 4],
            };
            let padded = OpInstr::pad(&ins);
            for v in 0..16u32 {
                let want = (ins.table >> (v & ((1 << n) - 1))) & 1;
                assert_eq!((padded.table >> v) & 1, want, "{kind} at {v:04b}");
            }
        }
    }
}
