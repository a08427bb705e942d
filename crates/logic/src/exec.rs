//! Straight-line executor for compiled LUT instruction streams.
//!
//! [`LutExec`] evaluates a [`LutProgram`] as 64-lane table lookups: every
//! register slot carries a `u64` whose bit `l` is the slot's value in
//! lane `l` (one lane per row or defect configuration), and one sweep
//! over the stream settles all 64 circuit instances with zero dispatch,
//! zero dirty-tracking and zero override checks. Faults are lowered two
//! ways:
//!
//! - **Permanent combinational** defects patch the affected
//!   instruction's truth word in place ([`LutExec::patch_gate`]) — the
//!   faulty sweep then costs exactly as much as the healthy sweep.
//! - **Stateful or dynamically activated** defects install a scalar
//!   [`GateBehavior`] ([`LutExec::override_gate`]); the executor drops to
//!   per-lane evaluation for those instructions only, in ascending lane
//!   order, so every behavior advances through exactly the input
//!   sequence the scalar [`crate::Simulator`] would feed it. This keeps
//!   the stream bit-identical to the event-driven scalar settle.

use std::sync::Arc;

use crate::compile::{LutInstr, LutProgram};
use crate::gate::GateBehavior;
use crate::netlist::{Netlist, Node, NodeId};
use crate::sim::MAX_ARITY;

/// A per-lane behavioral override bound to one instruction position.
#[derive(Debug)]
struct OverrideSlot {
    /// Position in the instruction stream.
    pos: u32,
    behavior: Box<dyn GateBehavior>,
}

/// The LUT instruction-stream evaluation engine. Lane conventions:
/// `set_input_words` puts `words[l]` in lane `l`, buses are LSB-first,
/// missing lanes are zero.
#[derive(Debug)]
pub struct LutExec {
    prog: Arc<LutProgram>,
    /// Private copy of the stream so truth words can be patched without
    /// touching the shared program.
    instrs: Vec<LutInstr>,
    regs: Vec<u64>,
    /// Per-lane overrides, ascending by instruction position.
    overrides: Vec<OverrideSlot>,
    n_patched: usize,
    n_lanes: usize,
}

impl LutExec {
    /// Creates an executor over a compiled program: all inputs low,
    /// latch slots at their init value in every lane, 64 active lanes.
    pub fn new(prog: Arc<LutProgram>) -> LutExec {
        let mut regs = vec![0u64; prog.n_slots()];
        for ls in prog.latch_slots() {
            regs[ls.latch as usize] = if ls.init { !0 } else { 0 };
        }
        LutExec {
            instrs: prog.instrs().to_vec(),
            regs,
            prog,
            overrides: Vec::new(),
            n_patched: 0,
            n_lanes: 64,
        }
    }

    /// The compiled program this executor runs.
    pub fn program(&self) -> &Arc<LutProgram> {
        &self.prog
    }

    /// The netlist behind the program.
    pub fn netlist(&self) -> &Arc<Netlist> {
        self.prog.netlist()
    }

    /// The executor's private (possibly patched) instruction stream, in
    /// the program's rank-major schedule order.
    pub fn instrs(&self) -> &[LutInstr] {
        &self.instrs
    }

    /// Limits per-lane override evaluation to the first `n` lanes, so
    /// stateful behaviors advance exactly once per *row* rather than
    /// once per hardware lane when a batch is not a full 64 rows.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn set_active_lanes(&mut self, n: usize) {
        assert!(n <= 64, "at most 64 lanes");
        self.n_lanes = n;
    }

    /// Drives a primary input with a 64-lane mask (bit `l` = lane `l`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a primary input.
    pub fn set_input_lanes(&mut self, id: NodeId, lanes: u64) {
        assert!(
            matches!(self.netlist().node(id), Node::Input { .. }),
            "{id} is not a primary input"
        );
        self.regs[id.index()] = lanes;
    }

    /// Drives a bus so lane `l` carries `words[l]` (LSB-first bus);
    /// fewer than 64 words leave the remaining lanes at zero.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 words are supplied.
    pub fn set_input_words(&mut self, bus: &[NodeId], words: &[u64]) {
        assert!(words.len() <= 64, "at most 64 lanes");
        for (bit, &id) in bus.iter().enumerate() {
            let mut lanes = 0u64;
            for (l, &w) in words.iter().enumerate() {
                lanes |= ((w >> bit) & 1) << l;
            }
            self.set_input_lanes(id, lanes);
        }
    }

    /// Executes the straight-line schedule once, settling all lanes.
    pub fn exec(&mut self) {
        if self.overrides.is_empty() {
            for ins in &self.instrs {
                let v = ins.eval(&self.regs);
                self.regs[ins.out as usize] = v;
            }
            return;
        }
        let n_lanes = self.n_lanes;
        let mut next_ov = 0usize;
        for (pos, ins) in self.instrs.iter().enumerate() {
            let v = if next_ov < self.overrides.len() && self.overrides[next_ov].pos == pos as u32 {
                let slot = &mut self.overrides[next_ov];
                next_ov += 1;
                let mut buf = [0u64; MAX_ARITY];
                for (k, b) in buf.iter_mut().enumerate().take(ins.arity as usize) {
                    *b = self.regs[ins.pins[k] as usize];
                }
                // Per lane, in lane order: one state advance per row.
                let mut out = 0u64;
                let mut lane_buf = [false; MAX_ARITY];
                for lane in 0..n_lanes {
                    for (k, b) in lane_buf.iter_mut().take(ins.arity as usize).enumerate() {
                        *b = (buf[k] >> lane) & 1 == 1;
                    }
                    out |= u64::from(slot.behavior.eval(&lane_buf[..ins.arity as usize])) << lane;
                }
                out
            } else {
                ins.eval(&self.regs)
            };
            self.regs[ins.out as usize] = v;
        }
    }

    /// Latch capture across all lanes: each latch slot takes its data
    /// slot's current word, in declaration order (in-place, matching
    /// [`crate::Simulator::tick`] exactly, including latch chains).
    pub fn tick(&mut self) {
        for ls in self.prog.latch_slots() {
            self.regs[ls.latch as usize] = self.regs[ls.data as usize];
        }
    }

    /// Resets latch slots to their init values and clears the internal
    /// state of every per-lane override. Truth-word patches persist
    /// (permanent defects survive reset, like re-applying a plan).
    pub fn reset_state(&mut self) {
        for ls in self.prog.latch_slots() {
            self.regs[ls.latch as usize] = if ls.init { !0 } else { 0 };
        }
        for slot in &mut self.overrides {
            slot.behavior.reset();
        }
    }

    /// The 64-lane word of any node slot.
    pub fn lanes(&self, id: NodeId) -> u64 {
        self.regs[id.index()]
    }

    /// Reads lane `lane` of a bus back as a word (LSB-first).
    pub fn read_word_lane(&self, bus: &[NodeId], lane: usize) -> u64 {
        assert!(lane < 64);
        bus.iter().enumerate().fold(0u64, |acc, (bit, &id)| {
            acc | (((self.regs[id.index()] >> lane) & 1) << bit)
        })
    }

    /// Reads the first `n_lanes` lanes of a bus back as words.
    pub fn read_words(&self, bus: &[NodeId], n_lanes: usize) -> Vec<u64> {
        (0..n_lanes).map(|l| self.read_word_lane(bus, l)).collect()
    }

    /// Patches the truth word of a gate's instruction in place — the
    /// permanent-defect lowering. The faulty sweep then costs exactly as
    /// much as a healthy sweep. Any per-lane override on the same gate
    /// is removed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gate node.
    pub fn patch_gate(&mut self, id: NodeId, table: u16) {
        let pos = self
            .prog
            .instr_index(id)
            .unwrap_or_else(|| panic!("{id} is not a gate"));
        self.overrides.retain(|s| s.pos != pos as u32);
        if self.instrs[pos].table != table {
            self.instrs[pos].table = table;
        }
        if self.prog.instrs()[pos].table != table {
            self.n_patched = self
                .instrs
                .iter()
                .zip(self.prog.instrs())
                .filter(|(a, b)| a.table != b.table)
                .count();
        }
    }

    /// Installs a per-lane behavioral override (the stateful /
    /// dynamically-activated lowering). The instruction's truth word is
    /// restored to the program's word; the behavior fully determines
    /// the gate's output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gate node.
    pub fn override_gate(&mut self, id: NodeId, behavior: Box<dyn GateBehavior>) {
        let pos = self
            .prog
            .instr_index(id)
            .unwrap_or_else(|| panic!("{id} is not a gate"));
        self.instrs[pos].table = self.prog.instrs()[pos].table;
        let pos = pos as u32;
        match self.overrides.binary_search_by_key(&pos, |s| s.pos) {
            Ok(i) => self.overrides[i].behavior = behavior,
            Err(i) => self.overrides.insert(i, OverrideSlot { pos, behavior }),
        }
        self.n_patched = self
            .instrs
            .iter()
            .zip(self.prog.instrs())
            .filter(|(a, b)| a.table != b.table)
            .count();
    }

    /// Number of instructions whose truth word differs from the healthy
    /// program.
    pub fn patched_count(&self) -> usize {
        self.n_patched
    }

    /// Number of per-lane behavioral overrides installed.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// True when every fault is a truth-word patch (no per-lane
    /// overrides): the sweep is fully branchless and word-parallel.
    pub fn fully_patched(&self) -> bool {
        self.overrides.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;
    use crate::sim::Simulator;

    fn ripple_adder4() -> (Arc<Netlist>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut b = NetlistBuilder::new();
        let a = b.input_bus("a", 4);
        let x = b.input_bus("b", 4);
        let mut carry = b.constant(false);
        let mut sum = Vec::new();
        for i in 0..4 {
            let axb = b.gate(GateKind::Xor2, &[a[i], x[i]]);
            let s = b.gate(GateKind::Xor2, &[axb, carry]);
            let t1 = b.gate(GateKind::And2, &[axb, carry]);
            let t2 = b.gate(GateKind::And2, &[a[i], x[i]]);
            carry = b.gate(GateKind::Or2, &[t1, t2]);
            sum.push(s);
        }
        sum.push(carry);
        b.output_bus("s", &sum);
        (Arc::new(b.build()), a, x, sum)
    }

    #[test]
    fn lut_adder_matches_simulator_exhaustively() {
        let (net, a, x, sum) = ripple_adder4();
        let prog = Arc::new(LutProgram::compile(Arc::clone(&net)));
        let mut ex = LutExec::new(prog);
        let mut s = Simulator::new(Arc::clone(&net));
        for batch in 0..4u64 {
            let pa: Vec<u64> = (0..64).map(|i| (batch * 64 + i) / 16).collect();
            let pb: Vec<u64> = (0..64).map(|i| (batch * 64 + i) % 16).collect();
            ex.set_input_words(&a, &pa);
            ex.set_input_words(&x, &pb);
            ex.exec();
            for l in 0..64 {
                s.set_input_word(&a, pa[l]);
                s.set_input_word(&x, pb[l]);
                s.settle();
                assert_eq!(ex.read_word_lane(&sum, l), s.read_word(&sum), "lane {l}");
                assert_eq!(ex.read_word_lane(&sum, l), pa[l] + pb[l]);
            }
        }
    }

    #[test]
    fn patched_instruction_matches_overridden_simulator() {
        let (net, a, x, sum) = ripple_adder4();
        let gate = net
            .gates()
            .find(|(_, k)| *k == GateKind::Xor2)
            .map(|(id, _)| id)
            .unwrap();
        // Patch the XOR to constant-1 (output stuck high).
        let prog = Arc::new(LutProgram::compile(Arc::clone(&net)));
        let mut ex = LutExec::new(prog);
        ex.patch_gate(gate, 0xF);
        assert_eq!(ex.patched_count(), 1);
        assert!(ex.fully_patched());

        let mut s = Simulator::new(Arc::clone(&net));
        let mut stuck = crate::stuck::StuckSet::new(GateKind::Xor2);
        stuck.add(crate::stuck::StuckPort::Output, true);
        s.override_gate(gate, Box::new(stuck));

        for (pa, pb) in [(0u64, 0u64), (3, 5), (15, 15), (9, 6)] {
            ex.set_input_words(&a, &[pa]);
            ex.set_input_words(&x, &[pb]);
            ex.exec();
            s.set_input_word(&a, pa);
            s.set_input_word(&x, pb);
            s.settle();
            assert_eq!(ex.read_word_lane(&sum, 0), s.read_word(&sum));
        }
    }

    #[derive(Debug)]
    struct ToggleHigh {
        phase: bool,
    }
    impl GateBehavior for ToggleHigh {
        fn eval(&mut self, inputs: &[bool]) -> bool {
            self.phase = !self.phase;
            if self.phase {
                true
            } else {
                inputs.iter().any(|&b| b)
            }
        }
        fn reset(&mut self) {
            self.phase = false;
        }
    }

    #[test]
    fn stateful_override_advances_in_lane_order() {
        let (net, a, x, sum) = ripple_adder4();
        let gate = net
            .gates()
            .find(|(_, k)| *k == GateKind::Or2)
            .map(|(id, _)| id)
            .unwrap();
        let rows: Vec<(u64, u64)> = (0..64).map(|i| (i % 16, (i * 7) % 16)).collect();

        let prog = Arc::new(LutProgram::compile(Arc::clone(&net)));
        let mut ex = LutExec::new(prog);
        ex.override_gate(gate, Box::new(ToggleHigh { phase: false }));
        assert!(!ex.fully_patched());
        let pa: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let pb: Vec<u64> = rows.iter().map(|r| r.1).collect();
        ex.set_input_words(&a, &pa);
        ex.set_input_words(&x, &pb);
        ex.exec();

        // Scalar oracle: rows in order, one behavior advance per row.
        let mut s = Simulator::new(Arc::clone(&net));
        s.override_gate(gate, Box::new(ToggleHigh { phase: false }));
        for (l, &(ra, rb)) in rows.iter().enumerate() {
            s.set_input_word(&a, ra);
            s.set_input_word(&x, rb);
            s.settle();
            assert_eq!(ex.read_word_lane(&sum, l), s.read_word(&sum), "row {l}");
        }
    }

    #[test]
    fn latches_tick_and_reset() {
        let mut b = NetlistBuilder::new();
        let d = b.input("d");
        let q = b.latch(d, true);
        let nq = b.gate(GateKind::Not, &[q]);
        b.output("q", q);
        b.output("nq", nq);
        let net = Arc::new(b.build());
        let prog = Arc::new(LutProgram::compile(Arc::clone(&net)));
        let mut ex = LutExec::new(prog);
        assert_eq!(ex.lanes(q), !0, "init high in every lane");
        ex.set_input_lanes(d, 0xF0F0);
        ex.exec();
        assert_eq!(ex.lanes(q), !0, "not captured yet");
        assert_eq!(ex.lanes(nq), 0);
        ex.tick();
        ex.exec();
        assert_eq!(ex.lanes(q), 0xF0F0);
        assert_eq!(ex.lanes(nq), !0xF0F0);
        ex.reset_state();
        assert_eq!(ex.lanes(q), !0);
    }

    #[test]
    fn active_lanes_bound_stateful_advances() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Buf, &[a]);
        b.output("y", g);
        let net = Arc::new(b.build());
        let prog = Arc::new(LutProgram::compile(Arc::clone(&net)));
        let mut ex = LutExec::new(prog);
        ex.override_gate(g, Box::new(ToggleHigh { phase: false }));
        ex.set_active_lanes(3);
        ex.set_input_lanes(a, 0);
        ex.exec();
        // phase toggles per active lane: lanes 0,1,2 see true,false,true.
        assert_eq!(ex.lanes(g) & 0b111, 0b101);
    }

    #[test]
    #[should_panic(expected = "is not a gate")]
    fn patching_input_panics() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a]);
        b.output("y", g);
        let net = Arc::new(b.build());
        let mut ex = LutExec::new(Arc::new(LutProgram::compile(Arc::clone(&net))));
        ex.patch_gate(a, 0);
    }
}
