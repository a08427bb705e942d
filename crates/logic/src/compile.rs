//! Netlist → LUT instruction-stream compiler (the emulation-engine
//! backend).
//!
//! The interpreting engine ([`crate::Simulator`]) dispatches on
//! [`GateKind`] for every gate it settles. This module instead
//! *compiles* a netlist once: gates are packed into k-input LUT
//! instructions — a truth-table word plus operand slot indices into a
//! flat register file — and emitted as a static straight-line schedule
//! ordered by topological rank. A permanent combinational defect is
//! lowered by *patching its gate's truth word* in a copy of the stream,
//! and [`crate::FuseBuilder`] stitches patched streams into the one
//! program that [`crate::FusedExec`] evaluates as branchless 64-lane
//! table lookups, so a faulty sweep costs what a healthy one does.
//!
//! Ranks (longest-path levels) are recorded per instruction:
//! instructions inside a rank only read slots written by strictly lower
//! ranks, never each other, so any order within a rank is a valid
//! schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::gate::GateKind;
use crate::netlist::{Netlist, Node, NodeId};

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
    /// Evaluates the instruction over 64-lane words, reading operand
    /// slots through `read`. Branchless per arity class: 2-input cells
    /// (the bulk of the library) cost four minterm mask-and-merges;
    /// wider cells add one Shannon level per extra pin.
    #[inline(always)]
    pub fn eval_with(&self, read: impl Fn(u32) -> u64) -> u64 {
        match self.arity {
            0 => spread(self.table, 0),
            1 => {
                let a = read(self.pins[0]);
                (spread(self.table, 0) & !a) | (spread(self.table, 1) & a)
            }
            2 => lut2(self.table, read(self.pins[0]), read(self.pins[1])),
            3 => lut3(
                self.table,
                read(self.pins[0]),
                read(self.pins[1]),
                read(self.pins[2]),
            ),
            _ => lut4(
                self.table,
                read(self.pins[0]),
                read(self.pins[1]),
                read(self.pins[2]),
                read(self.pins[3]),
            ),
        }
    }

    /// Evaluates the instruction over a flat register file.
    #[inline(always)]
    pub fn eval(&self, regs: &[u64]) -> u64 {
        self.eval_with(|slot| regs[slot as usize])
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

/// A latch compiled to register-file bookkeeping: on
/// [`crate::FusedExec::tick`] slot `latch` captures slot `data`.
#[derive(Clone, Copy, Debug)]
pub struct LatchSlot {
    /// The latch's own register slot.
    pub latch: u32,
    /// The register slot of its data input.
    pub data: u32,
    /// Power-on value, broadcast across all lanes on reset.
    pub init: bool,
}

/// A netlist compiled to a rank-ordered LUT instruction stream.
///
/// Instructions are sorted by topological rank (longest-path level),
/// stable within a rank, so the stream is itself a valid straight-line
/// schedule *and* the per-rank ranges can be executed concurrently with
/// one barrier per rank ([`Netlist`] guarantees the gate DAG is acyclic).
#[derive(Debug)]
pub struct LutProgram {
    net: Arc<Netlist>,
    instrs: Vec<LutInstr>,
    /// Rank `r` spans `instrs[rank_start[r] as usize..rank_start[r+1] as usize]`.
    rank_start: Vec<u32>,
    /// Node index → instruction position (`u32::MAX` for non-gates).
    instr_of: Vec<u32>,
    latches: Vec<LatchSlot>,
}

impl LutProgram {
    /// Compiles a netlist into a LUT instruction stream.
    pub fn compile(net: Arc<Netlist>) -> LutProgram {
        let n = net.len();
        // Longest-path rank per node: inputs, latches and constants sit
        // at rank 0; a gate sits one level above its deepest operand.
        let mut rank = vec![0u32; n];
        let mut n_ranks = 1u32;
        for &id in &net.order {
            if let Node::Gate { inputs, .. } = net.node(id) {
                let r = inputs
                    .iter()
                    .map(|i| rank[i.index()] + 1)
                    .max()
                    .unwrap_or(0);
                rank[id.index()] = r;
                n_ranks = n_ranks.max(r + 1);
            }
        }

        // Bucket the schedule's gates by rank (stable within a rank).
        let (sched, pins) = net.schedule();
        let mut counts = vec![0u32; n_ranks as usize];
        for g in sched {
            counts[rank[g.out as usize] as usize] += 1;
        }
        let mut rank_start = Vec::with_capacity(n_ranks as usize + 1);
        let mut acc = 0u32;
        for &c in &counts {
            rank_start.push(acc);
            acc += c;
        }
        rank_start.push(acc);

        let mut cursor = rank_start[..n_ranks as usize].to_vec();
        let mut instrs = vec![
            LutInstr {
                table: 0,
                arity: 0,
                out: 0,
                pins: [0; 4],
            };
            sched.len()
        ];
        let mut instr_of = vec![u32::MAX; n];
        for g in sched {
            let p = &pins[g.in_start as usize..][..g.in_len as usize];
            let mut slots = [0u32; 4];
            slots[..p.len()].copy_from_slice(p);
            let at = cursor[rank[g.out as usize] as usize];
            cursor[rank[g.out as usize] as usize] += 1;
            instrs[at as usize] = LutInstr {
                table: kind_table(g.kind),
                arity: g.in_len,
                out: g.out,
                pins: slots,
            };
            instr_of[g.out as usize] = at;
        }

        let latches = net
            .latches()
            .iter()
            .map(|&l| match net.node(l) {
                Node::Latch { data, init } => LatchSlot {
                    latch: l.0,
                    data: data.0,
                    init: *init,
                },
                _ => unreachable!("latch list holds latches"),
            })
            .collect();

        LutProgram {
            net,
            instrs,
            rank_start,
            instr_of,
            latches,
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

    /// The instruction stream, in rank order.
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

    /// Number of topological ranks.
    pub fn n_ranks(&self) -> usize {
        self.rank_start.len() - 1
    }

    /// The instruction range of one rank.
    pub fn rank_range(&self, rank: usize) -> std::ops::Range<usize> {
        self.rank_start[rank] as usize..self.rank_start[rank + 1] as usize
    }

    /// The instruction position of a gate node, if `id` is a gate.
    pub fn instr_index(&self, id: NodeId) -> Option<usize> {
        match self.instr_of.get(id.index()) {
            Some(&p) if p != u32::MAX => Some(p as usize),
            _ => None,
        }
    }

    /// The latch capture list (declaration order, matching
    /// [`crate::Simulator::tick`] semantics).
    pub fn latch_slots(&self) -> &[LatchSlot] {
        &self.latches
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
            let got = instr.eval_with(|slot| ops[slot as usize]);
            for v in 0..1u64 << n {
                assert_eq!((got >> v) & 1 == 1, (t >> v) & 1 == 1, "{kind} lane {v}");
            }
        }
    }

    #[test]
    fn ranks_are_topological() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g1 = b.gate(GateKind::And2, &[a, x]);
        let g2 = b.gate(GateKind::Not, &[g1]);
        let g3 = b.gate(GateKind::Or2, &[g2, a]);
        b.output("y", g3);
        let net = Arc::new(b.build());
        let prog = LutProgram::compile(Arc::clone(&net));
        // Rank 0 holds inputs/constants, so a depth-3 path spans 4 ranks.
        assert_eq!(prog.n_ranks(), 4);
        assert_eq!(prog.len(), 3);
        // Every operand of a rank-r instruction is written by a lower
        // rank (or is an input slot, never written).
        for r in 0..prog.n_ranks() {
            for i in prog.rank_range(r) {
                let ins = prog.instrs()[i];
                for k in 0..ins.arity as usize {
                    if let Some(src) = prog.instr_index(NodeId(ins.pins[k])) {
                        let src_rank = (0..prog.n_ranks())
                            .find(|&rr| prog.rank_range(rr).contains(&src))
                            .unwrap();
                        assert!(src_rank < r, "operand written in rank {src_rank} >= {r}");
                    }
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
