//! Memoized truth tables for faulty cells: reconstruct once, evaluate
//! by table lookup forever after.
//!
//! Defect campaigns evaluate the same handful of faulty cells millions
//! of times (every synapse of every forward pass of every training
//! epoch). [`FaultyCell`] re-runs the switch-level flood fill on each
//! call; this module instead compiles the cell's reconstructed
//! [`BBlockExpr`]s (see [`crate::reconstruct`]) into per-stage bit
//! tables **once**, shares them through a process-wide cache keyed by
//! `(gate kind, defect set)`, and evaluates through the tables.
//!
//! The tables capture the full switch-level semantics, including the
//! paper's memory effect: a stage whose `Z_P`/`Z_N` networks can both
//! be off keeps its previous value, and a delay defect makes a stage
//! read the *previous* evaluation's signals. [`CachedCell`] is
//! therefore bit-identical to [`FaultyCell`] on every stimulus
//! sequence — enforced exhaustively by the tests below.
//!
//! Purely combinational faulty cells (no floating state, no delay)
//! additionally collapse to a single ≤16-entry pin truth table, which
//! [`CellTable::lut_patch`] hands to the compiled LUT instruction stream
//! as a patched truth word.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use dta_logic::{GateBehavior, GateKind};

use crate::cell::{CmosCell, Health, Signal};
use crate::reconstruct::reconstruct_cell;

/// The compiled B-block table of one stage.
///
/// Signals are packed into a bit vector: bit `k` is pin `k`, bit
/// `arity + j` is the output of stage `j`. A stage with `n_bits`
/// relevant signals (its pins plus all earlier stages) indexes its
/// tables with those low bits; a stage containing a delay defect
/// doubles the index with the *previous* evaluation's packed signals in
/// the high half. The largest library cell (arity 4, 3 stages) needs
/// 2^12 = 4096 entries — small enough to enumerate exhaustively.
#[derive(Clone, Debug)]
struct StageTable {
    /// Number of live signal bits: `arity + stage_index`.
    n_bits: u32,
    /// True if any transistor of this stage has a delay defect, i.e.
    /// the index space is doubled by the previous signal vector.
    delayed: bool,
    /// Bitmap: index conducts from Vdd to the stage output.
    zp: Vec<u64>,
    /// Bitmap: index conducts from Vss to the stage output.
    zn: Vec<u64>,
}

impl StageTable {
    fn index(&self, cur: u32, prev: u32) -> usize {
        let mask = (1u32 << self.n_bits) - 1;
        let c = (cur & mask) as usize;
        if self.delayed {
            ((prev & mask) as usize) << self.n_bits | c
        } else {
            c
        }
    }

    fn bit(map: &[u64], i: usize) -> bool {
        map[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether the index drives the output at all (else: memory).
    fn drives(&self, cur: u32, prev: u32) -> bool {
        let i = self.index(cur, prev);
        Self::bit(&self.zn, i) || Self::bit(&self.zp, i)
    }

    /// B-block resolution through the table: ground wins, then the
    /// pull-up, else the stage keeps `mem`.
    fn resolve(&self, cur: u32, prev: u32, mem: bool) -> bool {
        let i = self.index(cur, prev);
        if Self::bit(&self.zn, i) {
            false
        } else if Self::bit(&self.zp, i) {
            true
        } else {
            mem
        }
    }
}

/// Canonical description of a cell's injected defect state, used as the
/// process-wide cache key. Bridges are sorted and deduplicated so the
/// injection order cannot split one electrical state into two entries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CellKey {
    kind: GateKind,
    faults: Vec<u32>,
}

impl CellKey {
    fn of(cell: &CmosCell) -> CellKey {
        let mut faults = Vec::new();
        for (si, stage) in cell.stages().iter().enumerate() {
            for (ti, t) in stage.transistors().iter().enumerate() {
                let code = match t.health() {
                    Health::Healthy => 0,
                    Health::Open => 1,
                    Health::Shorted => 2,
                } | (u32::from(t.is_delayed()) << 2);
                if code != 0 {
                    faults.push((si as u32) << 16 | (ti as u32) << 8 | code);
                }
            }
            let mut bridges: Vec<u32> = stage
                .bridges()
                .iter()
                .map(|&(a, b)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    1 << 31 | (si as u32) << 16 | (lo as u32) << 8 | hi as u32
                })
                .collect();
            bridges.sort_unstable();
            bridges.dedup();
            faults.extend(bridges);
        }
        CellKey {
            kind: cell.kind(),
            faults,
        }
    }
}

/// The fully compiled truth tables of one (possibly faulty) cell.
#[derive(Clone, Debug)]
pub struct CellTable {
    kind: GateKind,
    arity: usize,
    stages: Vec<StageTable>,
    /// `Some(t)` iff the cell is purely combinational under its defect
    /// set (no delay defect, no reachable floating state): bit `v` of
    /// `t` is the output for packed pin assignment `v`.
    pin_truth: Option<u64>,
}

impl CellTable {
    /// Compiles the cell's reconstructed stage expressions into bit
    /// tables by exhaustive enumeration of the (current, previous)
    /// signal space.
    pub fn build(cell: &CmosCell) -> CellTable {
        let kind = cell.kind();
        let arity = kind.arity();
        let exprs = reconstruct_cell(cell).expect("every library cell reconstructs");

        let mut stages = Vec::with_capacity(exprs.len());
        for (si, e) in exprs.iter().enumerate() {
            let n_bits = (arity + si) as u32;
            let delayed = e.zp.has_delay() || e.zn.has_delay();
            let idx_bits = if delayed { 2 * n_bits } else { n_bits };
            let size = 1usize << idx_bits;
            let words = size.div_ceil(64);
            let mut zp = vec![0u64; words];
            let mut zn = vec![0u64; words];
            for idx in 0..size {
                let cur = (idx as u32) & ((1 << n_bits) - 1);
                let prev = (idx >> n_bits) as u32;
                let bit_of = |v: u32, s: Signal| match s {
                    Signal::Pin(k) => v >> k & 1 == 1,
                    Signal::Stage(j) => v >> (arity + j) & 1 == 1,
                };
                let sig_of = |s: Signal| bit_of(cur, s);
                let prev_of = |s: Signal| bit_of(prev, s);
                let p = e.zp.eval_with_prev(&sig_of, &prev_of);
                let n = e.zn.eval_with_prev(&sig_of, &prev_of);
                if p {
                    zp[idx / 64] |= 1 << (idx % 64);
                }
                if n {
                    zn[idx / 64] |= 1 << (idx % 64);
                }
            }
            stages.push(StageTable {
                n_bits,
                delayed,
                zp,
                zn,
            });
        }

        // Combinational collapse. With no delay defect, stage outputs
        // are pure functions of the pins *as long as no stage floats on
        // a reachable signal vector*: stage 0 sees only pins, and by
        // induction stage `i` sees pins plus earlier outputs that are
        // themselves pin functions. Pass-logic stages (XOR2 and
        // friends) do float on vectors that healthy operation never
        // produces, so reachability — not the full signal space — is
        // the correct test.
        let pin_truth = if stages.iter().any(|s| s.delayed) {
            None
        } else {
            let mut t = Some(0u64);
            'pins: for v in 0..1u32 << arity {
                let mut cur = v;
                let mut out = false;
                for (si, st) in stages.iter().enumerate() {
                    if !st.drives(cur, 0) {
                        t = None;
                        break 'pins;
                    }
                    out = st.resolve(cur, 0, false);
                    cur |= u32::from(out) << (arity + si);
                }
                t = t.map(|t| t | u64::from(out) << v);
            }
            t
        };

        CellTable {
            kind,
            arity,
            stages,
            pin_truth,
        }
    }

    /// Returns the shared table for this cell's `(kind, defect set)`,
    /// building and memoizing it on first use. The cache is
    /// process-wide: every campaign cell, fold and epoch that draws the
    /// same faulty cell reuses one compiled table.
    pub fn cached(cell: &CmosCell) -> Arc<CellTable> {
        static CACHE: OnceLock<Mutex<HashMap<CellKey, Arc<CellTable>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = CellKey::of(cell);
        if let Some(hit) = cache.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        // Build outside the lock so concurrent campaign workers compile
        // distinct cells in parallel; a racing duplicate build of the
        // same key is harmless and the first insert wins.
        let built = Arc::new(CellTable::build(cell));
        Arc::clone(cache.lock().unwrap().entry(key).or_insert(built))
    }

    /// The gate kind this table was compiled from.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Number of input pins.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// True if the faulty cell is purely combinational: no delay defect
    /// and no reachable memory state.
    pub fn is_combinational(&self) -> bool {
        self.pin_truth.is_some()
    }

    /// The collapsed pin truth table (bit `v` = output for packed pin
    /// assignment `v`), if the cell is combinational.
    pub fn pin_truth(&self) -> Option<u64> {
        self.pin_truth
    }

    /// The collapsed pin table as a LUT instruction patch word, if the
    /// cell is combinational: this is the permanent-defect lowering for
    /// the compiled instruction stream (`dta_logic::LutProgram`), which
    /// overwrites the faulty gate's truth word so the defective sweep
    /// costs exactly as much as the healthy one. `None` when the defect
    /// set leaves reachable memory state or a delay defect — such a cell
    /// lowers to a step instruction that evaluates a [`CachedCell`].
    pub fn lut_patch(&self) -> Option<u16> {
        debug_assert!(self.arity <= 4, "library cells have at most 4 pins");
        self.pin_truth.map(|t| t as u16)
    }

    /// Number of stages in the compiled cell.
    pub(crate) fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// One full stage walk with externally held state, used by the
    /// dynamic-activation evaluator which swaps tables between
    /// evaluations. Unlike [`CachedCell::eval_cell`] this never takes
    /// the `pin_truth` shortcut: `mem`/`prev` must stay current so a
    /// *later* evaluation under a stateful defect subset reads correct
    /// history.
    pub(crate) fn walk(&self, pins: u32, mem: &mut [bool], prev: &mut u32) -> bool {
        let mut cur = pins;
        let mut out = false;
        for (si, st) in self.stages.iter().enumerate() {
            out = st.resolve(cur, *prev, mem[si]);
            mem[si] = out;
            cur |= u32::from(out) << (self.arity + si);
        }
        *prev = cur;
        out
    }
}

/// Drop-in replacement for [`FaultyCell`] that evaluates through the
/// memoized [`CellTable`] instead of re-running the switch-level flood
/// fill. Bit-identical to the switch-level evaluator on every stimulus
/// sequence, including memory-effect and delay-defect cells.
///
/// [`FaultyCell`]: crate::FaultyCell
#[derive(Clone, Debug)]
pub struct CachedCell {
    table: Arc<CellTable>,
    /// Per-stage retained value for floating outputs (power-on: 0).
    mem: Vec<bool>,
    /// Previous evaluation's packed signal vector, read by delayed
    /// stages (power-on: all 0, like the switch-level evaluator).
    prev: u32,
}

impl CachedCell {
    /// Builds an evaluator for `cell`, fetching (or compiling) its
    /// shared table from the process-wide cache.
    pub fn new(cell: &CmosCell) -> CachedCell {
        CachedCell::from_table(CellTable::cached(cell))
    }

    /// Builds an evaluator over an already-compiled table.
    pub fn from_table(table: Arc<CellTable>) -> CachedCell {
        let mem = vec![false; table.stages.len()];
        CachedCell {
            table,
            mem,
            prev: 0,
        }
    }

    /// The shared compiled table.
    pub fn table(&self) -> &Arc<CellTable> {
        &self.table
    }

    /// Evaluates the cell for one input vector, updating the internal
    /// memory/delay state exactly like the switch-level evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell's arity.
    pub fn eval_cell(&mut self, inputs: &[bool]) -> bool {
        let arity = self.table.arity;
        assert_eq!(
            inputs.len(),
            arity,
            "{:?} expects {} inputs, got {}",
            self.table.kind,
            arity,
            inputs.len()
        );
        let mut cur = 0u32;
        for (k, &b) in inputs.iter().enumerate() {
            cur |= u32::from(b) << k;
        }
        // Combinational fast path: the collapsed pin truth table replaces
        // the stage walk. `pin_truth` is only `Some` when every stage is
        // delay-free and float-free on reachable vectors, so the output
        // cannot depend on `mem`/`prev` and skipping their upkeep is
        // exact.
        if let Some(t) = self.table.pin_truth {
            return (t >> cur) & 1 == 1;
        }
        let mut out = false;
        for (si, st) in self.table.stages.iter().enumerate() {
            out = st.resolve(cur, self.prev, self.mem[si]);
            self.mem[si] = out;
            cur |= u32::from(out) << (arity + si);
        }
        self.prev = cur;
        out
    }
}

impl GateBehavior for CachedCell {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        self.eval_cell(inputs)
    }

    fn reset(&mut self) {
        self.mem.fill(false);
        self.prev = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FaultyCell;

    /// Tiny deterministic stimulus source (no RNG dependency needed).
    struct Lcg(u64);

    impl Lcg {
        fn next_inputs(&mut self, arity: usize) -> Vec<bool> {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (0..arity).map(|k| self.0 >> (33 + k) & 1 == 1).collect()
        }
    }

    fn assert_matches_switch_level(cell: &CmosCell, label: &str) {
        let mut fast = CachedCell::new(cell);
        let mut slow = FaultyCell::new(cell.clone());
        let mut lcg = Lcg(0x5EED ^ label.len() as u64);
        for step in 0..400 {
            if step == 200 {
                // Power cycle both models mid-sequence.
                fast.reset();
                slow.reset();
            }
            let v = lcg.next_inputs(cell.kind().arity());
            assert_eq!(
                fast.eval_cell(&v),
                slow.eval_cell(&v),
                "{label}: diverged at step {step} on {v:?}"
            );
        }
    }

    #[test]
    fn healthy_cells_match_switch_level_and_are_combinational() {
        for kind in GateKind::ALL {
            let cell = CmosCell::for_gate(kind);
            assert_matches_switch_level(&cell, &format!("healthy {kind}"));
            let table = CellTable::build(&cell);
            let truth = table
                .pin_truth()
                .unwrap_or_else(|| panic!("healthy {kind} must be combinational"));
            for v in 0..1u32 << kind.arity() {
                let bits: Vec<bool> = (0..kind.arity()).map(|k| v >> k & 1 == 1).collect();
                assert_eq!(
                    truth >> v & 1 == 1,
                    kind.eval(&bits),
                    "healthy {kind} truth table wrong at {bits:?}"
                );
            }
        }
    }

    #[test]
    fn every_single_defect_matches_switch_level() {
        // Exhaustive over the whole library and every defect site:
        // opens, shorts, bridges and delays, including every cell that
        // becomes stateful.
        for kind in GateKind::ALL {
            let healthy = CmosCell::for_gate(kind);
            for defect in healthy.defect_sites() {
                let mut cell = healthy.clone();
                cell.inject(defect).unwrap();
                assert_matches_switch_level(&cell, &format!("{kind} + {defect}"));
            }
        }
    }

    #[test]
    fn defect_pairs_match_switch_level() {
        // Defect accumulation (two in one cell) through the same tables.
        for kind in [GateKind::Nand2, GateKind::Oai22, GateKind::Xor2] {
            let healthy = CmosCell::for_gate(kind);
            let sites = healthy.defect_sites();
            for (i, &a) in sites.iter().enumerate().step_by(3) {
                for &b in sites.iter().skip(i + 1).step_by(5) {
                    let mut cell = healthy.clone();
                    cell.inject(a).unwrap();
                    let _ = cell.inject(b); // second site may clash; fine
                    assert_matches_switch_level(&cell, &format!("{kind} + {a} + {b}"));
                }
            }
        }
    }

    #[test]
    fn paper_memory_effect_on_oai22_through_cache() {
        // The Figure 8 scenario from `eval.rs`, replayed through the
        // compiled table: an open pull-up transistor makes the OAI22
        // output float for some inputs and retain its previous value.
        use crate::defect::Defect;
        let mut cell = CmosCell::for_gate(GateKind::Oai22);
        cell.inject(Defect::Open {
            stage: 0,
            transistor: 4,
        })
        .unwrap();
        let table = CellTable::cached(&cell);
        assert!(!table.is_combinational(), "open pull-up must latch");
        let mut f = CachedCell::from_table(table);
        assert!(!f.eval_cell(&[true, false, true, false]));
        assert!(!f.eval_cell(&[false, false, true, true]), "retains 0");
        assert!(f.eval_cell(&[false, false, false, false]));
        assert!(f.eval_cell(&[false, false, true, true]), "retains 1");
    }

    #[test]
    fn cache_shares_tables_across_equal_defect_sets() {
        use crate::defect::Defect;
        let defect = Defect::Short {
            stage: 0,
            transistor: 1,
        };
        let mut a = CmosCell::for_gate(GateKind::Nand2);
        a.inject(defect).unwrap();
        let mut b = CmosCell::for_gate(GateKind::Nand2);
        b.inject(defect).unwrap();
        assert!(Arc::ptr_eq(&CellTable::cached(&a), &CellTable::cached(&b)));

        let healthy = CmosCell::for_gate(GateKind::Nand2);
        assert!(!Arc::ptr_eq(
            &CellTable::cached(&a),
            &CellTable::cached(&healthy)
        ));
    }

    #[test]
    fn lut_patch_matches_cached_cell() {
        use crate::defect::Defect;
        let mut cell = CmosCell::for_gate(GateKind::Aoi22);
        cell.inject(Defect::Short {
            stage: 0,
            transistor: 0,
        })
        .unwrap();
        let Some(patch) = CellTable::build(&cell).lut_patch() else {
            panic!("a shorted transistor alone keeps AOI22 combinational");
        };
        let mut cached = CachedCell::new(&cell);
        for v in 0..16u16 {
            let bits: Vec<bool> = (0..4).map(|k| v >> k & 1 == 1).collect();
            assert_eq!(
                patch >> v & 1 == 1,
                cached.eval_cell(&bits),
                "assignment {v:04b} disagrees with the cached cell"
            );
        }
    }
}
