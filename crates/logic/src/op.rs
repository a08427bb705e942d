//! One-lane executor for a single faulty operator.
//!
//! The paper's hybrid model calls "a software function ... in place of
//! the native operator" for every operator marked defective, one
//! operand pair at a time — the hot path of every retraining run.
//! [`OpExec`] is that function: the operator's fault-patched LUT stream,
//! optimized ([`crate::opt::optimize_opaque`]) and swept over a byte
//! register file, one lane per call.
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
use crate::fuse::{FuseBuilder, FusedProgram, DEAD_SLOT};
use crate::gate::GateBehavior;
use crate::netlist::NodeId;
use crate::opt::optimize_opaque;
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
/// * if an input bit changed, or the executor has never swept, the
///   whole stream is swept;
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
    /// Input buses (LSB first) in the compacted register file;
    /// [`DEAD_SLOT`] for bits nothing reads.
    inputs: Vec<Vec<u32>>,
    output: Vec<u32>,
    /// An input bit changed since the last sweep, or nothing has been
    /// swept yet.
    stale: bool,
}

impl OpExec {
    /// Compiles an operator: `instrs` is `prog`'s instruction stream
    /// with the faulty cells' truth words patched in, and `steps` names
    /// the positions (ascending) of the stateful cells together with
    /// their behaviors. The stream is optimized against `output` with
    /// the steps kept opaque, so each step keeps its pins and sees
    /// exactly the inputs the simulator would hand its override.
    /// `inputs` are the operator's input buses, driven in order by
    /// [`OpExec::call`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist holds latches (operators are
    /// combinational), if `instrs` is not a stream of `prog`, if step
    /// positions are not ascending, or if the optimized register file
    /// exceeds 4,096 slots.
    pub fn compile(
        prog: &LutProgram,
        instrs: &[LutInstr],
        steps: Vec<(usize, Box<dyn GateBehavior>)>,
        inputs: &[&[NodeId]],
        output: &[NodeId],
    ) -> OpExec {
        assert!(
            prog.latch_slots().is_empty(),
            "operator netlists hold no latches"
        );
        assert_eq!(instrs.len(), prog.len(), "instrs must be a stream of prog");
        let mut fb = FuseBuilder::new();
        let in_buses: Vec<Vec<u32>> = inputs.iter().map(|b| fb.fresh_bus(b.len())).collect();
        let bind: Vec<(u32, u32)> = inputs
            .iter()
            .zip(&in_buses)
            .flat_map(|(bus, slots)| bus.iter().map(|id| id.index() as u32).zip(slots.clone()))
            .collect();
        let map = fb.append(instrs, prog.n_slots(), &[], &bind);
        let out: Vec<u32> = output.iter().map(|id| map[id.index()]).collect();
        let at: Vec<usize> = steps.iter().map(|&(at, _)| at).collect();
        let (opt, sm, _, moved) = optimize_opaque(&fb.finish(), &out, &[], &at);
        let steps = moved
            .into_iter()
            .zip(steps)
            .map(|(at, (_, behavior))| Step {
                at,
                arity: opt.instrs()[at].arity as usize,
                behavior,
            })
            .collect();
        let inputs = in_buses.iter().map(|b| sm.remap(b)).collect();
        OpExec::new(&opt, steps, inputs, sm.remap(&out))
    }

    fn new(prog: &FusedProgram, steps: Vec<Step>, inputs: Vec<Vec<u32>>, output: Vec<u32>) -> Self {
        assert!(
            prog.n_slots() <= REGS,
            "operator register file exceeds {REGS} slots"
        );
        let mut regs = Box::new([0u8; REGS]);
        for &(slot, bit) in prog.consts() {
            regs[slot as usize] = u8::from(bit);
        }
        OpExec {
            code: prog.instrs().iter().map(OpInstr::pad).collect(),
            regs,
            steps,
            inputs,
            output,
            stale: true,
        }
    }

    /// Drives the input buses with `words` (bus `k` from the low bits
    /// of `words[k]`), settles once, and returns the output bus.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold one word per input bus.
    pub fn call(&mut self, words: &[u64]) -> u64 {
        assert_eq!(words.len(), self.inputs.len(), "one word per input bus");
        for (bus, &word) in self.inputs.iter().zip(words) {
            self.stale |= write_bus(&mut self.regs, bus, word);
        }
        self.settle();
        read_bus(&self.regs, &self.output)
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

/// Writes the low bits of `word` onto a bus, skipping [`DEAD_SLOT`];
/// true if any register changed.
fn write_bus(regs: &mut Regs, bus: &[u32], word: u64) -> bool {
    let mut changed = 0u8;
    for (bit, &slot) in bus.iter().enumerate() {
        if slot != DEAD_SLOT {
            let v = (word >> bit) as u8 & 1;
            changed |= regs[slot as usize] ^ v;
            regs[slot as usize] = v;
        }
    }
    changed != 0
}

/// Reads a bus back as a word (LSB first). Output buses are roots, so
/// they never hold [`DEAD_SLOT`].
fn read_bus(regs: &Regs, bus: &[u32]) -> u64 {
    bus.iter().enumerate().fold(0u64, |acc, (bit, &slot)| {
        acc | u64::from(regs[slot as usize]) << bit
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

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

    #[test]
    #[should_panic(expected = "no latches")]
    fn latches_are_refused() {
        let mut b = NetlistBuilder::new();
        let d = b.input("d");
        let q = b.latch(d, false);
        b.output("q", q);
        let prog = LutProgram::compile(Arc::new(b.build()));
        OpExec::compile(&prog, prog.instrs(), Vec::new(), &[&[d][..]], &[q]);
    }
}
