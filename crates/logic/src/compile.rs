//! Netlist → LUT instruction-stream compiler (the emulation-engine
//! backend).
//!
//! The interpreting engine ([`crate::Simulator`]) dispatches on
//! [`GateKind`] for every gate it settles. This module instead
//! *compiles* a netlist once: gates are packed into k-input LUT
//! instructions — a truth-table word plus operand slot indices into a
//! flat register file — and emitted as a static straight-line schedule
//! in the netlist's topological gate order, so every operand is written
//! before it is read. A permanent combinational defect is lowered by
//! *patching its gate's truth word* in a copy of the stream, and
//! [`crate::FuseBuilder`] stitches patched streams into the one program
//! that [`crate::FusedExec`] evaluates as branchless 64-lane table
//! lookups, so a faulty sweep costs what a healthy one does. A faulty
//! cell with state stays in the stream as a *step instruction* that
//! [`crate::OpExec`] evaluates through the cell's behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId};

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(hits, misses)` of [`LutProgram::cached`], for
/// benchmark breakdowns that measure — not assert — how compilation
/// amortizes across campaign cells. Monotone; diff two samples to
/// attribute a phase.
pub fn program_cache_stats() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Broadcasts bit `v` of a truth word across all 64 lanes.
#[inline(always)]
fn spread(t: u16, v: u32) -> u64 {
    0u64.wrapping_sub(u64::from((t >> v) & 1))
}

/// 2-input LUT over 64-lane words: minterm-masked, branchless.
#[inline(always)]
fn lut2(t: u16, a: u64, b: u64) -> u64 {
    let (na, nb) = (!a, !b);
    (spread(t, 0) & na & nb)
        | (spread(t, 1) & a & nb)
        | (spread(t, 2) & na & b)
        | (spread(t, 3) & a & b)
}

/// 3-input LUT: Shannon expansion on the third operand.
#[inline(always)]
fn lut3(t: u16, a: u64, b: u64, c: u64) -> u64 {
    (!c & lut2(t & 0xF, a, b)) | (c & lut2(t >> 4, a, b))
}

/// 4-input LUT: Shannon expansion on the fourth operand.
#[inline(always)]
fn lut4(t: u16, a: u64, b: u64, c: u64, d: u64) -> u64 {
    (!d & lut3(t & 0xFF, a, b, c)) | (d & lut3(t >> 8, a, b, c))
}

/// One compiled LUT instruction: up to 4 operand slots, a truth-table
/// word, and an output slot. Slots index the executor's flat 64-lane
/// register file (slot = node index of the netlist).
///
/// The truth word follows the repo-wide packed-pin convention: bit `v`
/// is the output for the input assignment where pin `k` carries bit `k`
/// of `v`. Bits at and above `1 << arity` are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LutInstr {
    /// Truth-table word (patched in place for permanent faulty gates).
    pub table: u16,
    /// Number of live operand slots (cell arity, at most 4).
    pub arity: u8,
    /// Output slot in the flat register file.
    pub out: u32,
    /// Operand slots; entries past `arity` are zero and never read.
    pub pins: [u32; 4],
}

impl LutInstr {
    /// Evaluates the instruction over 64-lane words held in a flat
    /// register file. Branchless per arity class: 2-input cells (the
    /// bulk of the library) cost four minterm mask-and-merges; wider
    /// cells add one Shannon level per extra pin.
    #[inline(always)]
    pub fn eval(&self, regs: &[u64]) -> u64 {
        let read = |k: usize| regs[self.pins[k] as usize];
        match self.arity {
            0 => spread(self.table, 0),
            1 => {
                let a = read(0);
                (spread(self.table, 0) & !a) | (spread(self.table, 1) & a)
            }
            2 => lut2(self.table, read(0), read(1)),
            3 => lut3(self.table, read(0), read(1), read(2)),
            _ => lut4(self.table, read(0), read(1), read(2), read(3)),
        }
    }
}

/// Computes the truth word of a healthy cell by exhaustive evaluation
/// of [`GateKind::eval`] over all `2^arity` packed pin assignments.
pub fn kind_table(kind: GateKind) -> u16 {
    let n = kind.arity();
    let mut table = 0u16;
    let mut buf = [false; 4];
    for v in 0..1u16 << n {
        for (k, b) in buf.iter_mut().enumerate().take(n) {
            *b = (v >> k) & 1 == 1;
        }
        if kind.eval(&buf[..n]) {
            table |= 1 << v;
        }
    }
    table
}

/// A netlist compiled to a topological LUT instruction stream.
///
/// Instruction `i` is gate `i` of the netlist's evaluation schedule,
/// which [`Netlist`] keeps in topological order (the gate DAG is
/// acyclic), so the stream is itself a valid straight-line schedule.
#[derive(Debug)]
pub struct LutProgram {
    net: Arc<Netlist>,
    instrs: Vec<LutInstr>,
    /// Node index → instruction position (`u32::MAX` for non-gates).
    instr_of: Vec<u32>,
}

impl LutProgram {
    /// Compiles a netlist into a LUT instruction stream.
    pub fn compile(net: Arc<Netlist>) -> LutProgram {
        let (sched, pins) = net.schedule();
        let mut instr_of = vec![u32::MAX; net.len()];
        let instrs = sched
            .iter()
            .enumerate()
            .map(|(at, g)| {
                let p = &pins[g.in_start as usize..][..g.in_len as usize];
                let mut slots = [0u32; 4];
                slots[..p.len()].copy_from_slice(p);
                instr_of[g.out as usize] = at as u32;
                LutInstr {
                    table: kind_table(g.kind),
                    arity: g.in_len,
                    out: g.out,
                    pins: slots,
                }
            })
            .collect();
        LutProgram {
            net,
            instrs,
            instr_of,
        }
    }

    /// Compiles (or returns the process-wide memoized compilation of)
    /// `net`. Operators sharing one circuit — every campaign cell built
    /// from the operator library — compile exactly once; later cells
    /// reuse the schedule and only patch their own defect sites. The
    /// cache pins each netlist `Arc` so pointer keys can never alias.
    pub fn cached(net: &Arc<Netlist>) -> Arc<LutProgram> {
        static PROGRAMS: OnceLock<ProgramCache> = OnceLock::new();
        let cache = PROGRAMS.get_or_init(|| Mutex::new(HashMap::new()));
        let key = Arc::as_ptr(net) as usize;
        let mut map = cache.lock().expect("LUT program cache poisoned");
        if let Some((_, prog)) = map.get(&key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(prog);
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let prog = Arc::new(LutProgram::compile(Arc::clone(net)));
        map.insert(key, (Arc::clone(net), Arc::clone(&prog)));
        prog
    }

    /// The compiled netlist.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// The instruction stream, in schedule (topological) order.
    pub fn instrs(&self) -> &[LutInstr] {
        &self.instrs
    }

    /// Number of instructions (gates).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction position of a gate node, if `id` is a gate.
    pub fn instr_index(&self, id: NodeId) -> Option<usize> {
        match self.instr_of.get(id.index()) {
            Some(&p) if p != u32::MAX => Some(p as usize),
            _ => None,
        }
    }

    /// Number of register-file slots an executor needs.
    pub fn n_slots(&self) -> usize {
        self.net.len()
    }
}

type ProgramCache = Mutex<HashMap<usize, (Arc<Netlist>, Arc<LutProgram>)>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    #[test]
    fn kind_tables_match_eval() {
        for kind in GateKind::ALL {
            let t = kind_table(kind);
            let n = kind.arity();
            for v in 0..1u16 << n {
                let ins: Vec<bool> = (0..n).map(|k| (v >> k) & 1 == 1).collect();
                assert_eq!((t >> v) & 1 == 1, kind.eval(&ins), "{kind} at {v:b}");
            }
        }
        assert_eq!(kind_table(GateKind::Const(true)) & 1, 1);
        assert_eq!(kind_table(GateKind::Const(false)) & 1, 0);
    }

    #[test]
    fn lut_kernels_match_tables() {
        // Every library cell, exhaustive over lanes carrying all packed
        // assignments at once.
        for kind in GateKind::ALL {
            let t = kind_table(kind);
            let n = kind.arity();
            // Lane v carries assignment v.
            let mut ops = [0u64; 4];
            for v in 0..1u64 << n {
                for (k, op) in ops.iter_mut().enumerate().take(n) {
                    *op |= ((v >> k) & 1) << v;
                }
            }
            let instr = LutInstr {
                table: t,
                arity: n as u8,
                out: 0,
                pins: [0, 1, 2, 3],
            };
            let got = instr.eval(&ops);
            for v in 0..1u64 << n {
                assert_eq!((got >> v) & 1 == 1, (t >> v) & 1 == 1, "{kind} lane {v}");
            }
        }
    }

    #[test]
    fn stream_follows_the_schedule_and_writes_operands_first() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g1 = b.gate(GateKind::And2, &[a, x]);
        let g2 = b.gate(GateKind::Not, &[g1]);
        let g3 = b.gate(GateKind::Not, &[a]);
        let g4 = b.gate(GateKind::Or2, &[g2, g3]);
        b.output("y", g4);
        let net = Arc::new(b.build());
        let prog = LutProgram::compile(Arc::clone(&net));
        let (sched, _) = net.schedule();
        assert_eq!(prog.len(), sched.len());
        for (i, (ins, g)) in prog.instrs().iter().zip(sched).enumerate() {
            assert_eq!(ins.out, g.out, "instruction {i} is schedule position {i}");
            assert_eq!(prog.instr_index(NodeId(g.out)), Some(i));
        }
        // Every operand is an input slot (never written) or is written
        // by an earlier instruction.
        for (i, ins) in prog.instrs().iter().enumerate() {
            for &pin in &ins.pins[..ins.arity as usize] {
                if let Some(src) = prog.instr_index(NodeId(pin)) {
                    assert!(src < i, "operand of {i} written at {src}");
                }
            }
        }
    }

    #[test]
    fn cached_compiles_once_per_netlist() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a]);
        b.output("y", g);
        let net = Arc::new(b.build());
        let p1 = LutProgram::cached(&net);
        let p2 = LutProgram::cached(&net);
        assert!(Arc::ptr_eq(&p1, &p2));
    }
}
