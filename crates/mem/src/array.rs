//! Bit-cell array model of the accelerator's weight store.
//!
//! The spatially expanded design keeps one weight row per neuron lane:
//! hidden lanes first, then output lanes, each row wide enough for the
//! largest synapse count plus a bias slot. A [`WeightMemory`] models that
//! store as a physical bit-cell array with optional SEC-DED ECC columns,
//! spare rows/columns for post-test steering, and **array-structured
//! defects** — stuck cells, whole row/column failures, sense-amp and
//! write-driver faults, and bitline bridges — each optionally carrying a
//! [`Activation`] lifetime (permanent / transient / intermittent) on the
//! same seeded-RNG state machine as transistor defects.
//!
//! Weight fetches follow the companion-core discipline: the current
//! weight is written into its word, then the word is read back through
//! the fault pipeline (and the ECC decoder when enabled). With no
//! defects the fetch is exactly the identity on the Q6.10 bit pattern,
//! so attaching a healthy array is bit-invisible.
//!
//! The model works a word at a time. Cells are packed `u64` bitsets,
//! one per physical row. Whenever a defect is added or a row or column
//! is steered, the defect list is compiled into a per-word index: for
//! each `(logical row, slot)` the defects that can touch one of the
//! word's physical cells (a bridge through either of its columns), in
//! pipeline order, with the bit each one hits. A word no defect touches
//! is written and read back as a masked move; a touched word runs the
//! ordered pipeline over its own defects only.
//!
//! Without dynamic defects the store's work follows the damage: a repeat
//! fetch of the word a slot already holds is answered from a per-word
//! memo, and March and scrub walk only the words the index lists.

use std::fmt;

use dta_fixed::Fx;
use dta_transistor::{Activation, ActivationState};
use rand::Rng;

use crate::ecc::{self, EccStatus};

/// Width of a raw (unprotected) weight word in bits.
pub const RAW_BITS: u32 = 16;

/// Which bank of weight rows an address falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bank {
    /// Hidden-layer lanes: rows `0..hidden_rows`.
    Hidden,
    /// Output-layer lanes: rows `hidden_rows..hidden_rows + output_rows`.
    Output,
}

/// Physical organization of the weight store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemGeometry {
    /// Rows holding hidden-lane weights (one per physical hidden lane).
    pub hidden_rows: usize,
    /// Rows holding output-lane weights (one per physical output lane).
    pub output_rows: usize,
    /// Synapse slots per hidden row (the bias occupies one more slot).
    pub hidden_synapses: usize,
    /// Synapse slots per output row (the bias occupies one more slot).
    pub output_synapses: usize,
    /// Spare rows available for post-BIST row steering.
    pub spare_rows: usize,
    /// Spare bit columns available for post-BIST column steering.
    pub spare_cols: usize,
    /// Protect every word with the SEC-DED (22,16) code of [`crate::ecc`].
    pub ecc: bool,
}

impl MemGeometry {
    /// Geometry matching the paper's 90-10-10 spatially expanded design,
    /// with ECC on and a small spare budget (2 rows, 8 bit columns).
    pub fn accelerator() -> MemGeometry {
        MemGeometry {
            hidden_rows: 10,
            output_rows: 10,
            hidden_synapses: 90,
            output_synapses: 10,
            spare_rows: 2,
            spare_cols: 8,
            ecc: true,
        }
    }

    /// Geometry for a logical `inputs → hidden → outputs` network mapped
    /// one lane per neuron (used by campaigns without a physical array).
    pub fn for_network(inputs: usize, hidden: usize, outputs: usize, ecc: bool) -> MemGeometry {
        MemGeometry {
            hidden_rows: hidden,
            output_rows: outputs,
            hidden_synapses: inputs,
            output_synapses: hidden,
            spare_rows: 2,
            spare_cols: 8,
            ecc,
        }
    }

    /// Bits per stored word: 22 with ECC, 16 raw.
    pub fn code_bits(&self) -> usize {
        if self.ecc {
            ecc::CODE_BITS as usize
        } else {
            RAW_BITS as usize
        }
    }

    /// Word slots per row (worst-case synapse count plus the bias slot).
    pub fn words_per_row(&self) -> usize {
        self.hidden_synapses.max(self.output_synapses) + 1
    }

    /// Rows holding live weights (hidden + output banks).
    pub fn data_rows(&self) -> usize {
        self.hidden_rows + self.output_rows
    }

    /// Total physical rows including spares.
    pub fn total_rows(&self) -> usize {
        self.data_rows() + self.spare_rows
    }

    /// Bit columns holding live words.
    pub fn data_cols(&self) -> usize {
        self.words_per_row() * self.code_bits()
    }

    /// Total physical bit columns including spares.
    pub fn total_cols(&self) -> usize {
        self.data_cols() + self.spare_cols
    }

    /// Number of live bit cells — the denominator for defect densities.
    pub fn data_cells(&self) -> usize {
        self.data_rows() * self.data_cols()
    }
}

/// One array-structured defect, in **physical** array coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemDefect {
    /// One bit cell reads as `value` regardless of what was written.
    StuckCell {
        /// Physical row of the cell.
        row: usize,
        /// Physical bit column of the cell.
        col: usize,
        /// The value the cell is stuck at.
        value: bool,
    },
    /// A wordline failure: every read of the row returns all ones (the
    /// precharged bitlines are never discharged).
    RowStuck {
        /// Physical row whose wordline is broken.
        row: usize,
    },
    /// A bitline shorted to a rail: every read of the column sees `value`.
    ColStuck {
        /// Physical bit column.
        col: usize,
        /// The rail the bitline is shorted to.
        value: bool,
    },
    /// A faulty sense amplifier: the column's read value is inverted.
    SenseAmp {
        /// Physical bit column.
        col: usize,
    },
    /// A dead write driver: writes to the column are lost and its cells
    /// hold their power-on zero.
    WriteDriver {
        /// Physical bit column.
        col: usize,
    },
    /// A bridge between adjacent bitlines `col` and `col + 1` (within one
    /// word slot): both columns read the wired-OR of the two cells.
    Bridge {
        /// Left column of the bridged pair.
        col: usize,
    },
}

impl fmt::Display for MemDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemDefect::StuckCell { row, col, value } => {
                write!(f, "stuck-cell r{row} c{col} ={}", u8::from(*value))
            }
            MemDefect::RowStuck { row } => write!(f, "row-stuck r{row}"),
            MemDefect::ColStuck { col, value } => {
                write!(f, "col-stuck c{col} ={}", u8::from(*value))
            }
            MemDefect::SenseAmp { col } => write!(f, "sense-amp c{col}"),
            MemDefect::WriteDriver { col } => write!(f, "write-driver c{col}"),
            MemDefect::Bridge { col } => write!(f, "bridge c{col}-c{}", col + 1),
        }
    }
}

/// A defect plus its lifetime state (`None` = permanent, always active).
#[derive(Clone, Debug)]
pub struct MemDefectState {
    /// The defect site and class.
    pub defect: MemDefect,
    /// Lifetime state machine for transient/intermittent defects;
    /// `None` for permanent ones (the vectorizable fast path).
    pub state: Option<ActivationState>,
}

/// Error returned when a repair runs out of spare resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemRepairError {
    /// All spare rows are already in use.
    NoSpareRow,
    /// All spare bit columns are already in use.
    NoSpareCol,
}

impl fmt::Display for MemRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemRepairError::NoSpareRow => write!(f, "no spare row left"),
            MemRepairError::NoSpareCol => write!(f, "no spare column left"),
        }
    }
}

impl std::error::Error for MemRepairError {}

/// Running ECC bookkeeping for a [`WeightMemory`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EccCounters {
    /// Words whose single-bit error the decoder corrected.
    pub corrected: u64,
    /// Words with a detected-but-uncorrectable double error.
    pub uncorrectable: u64,
}

/// Result of a full ECC scrub pass over the live words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live words checked (rows × slots), walked or known clean.
    pub words: usize,
    /// Words where at least one test pattern needed a single-bit fix.
    pub corrected: usize,
    /// `(row, slot)` addresses the code could not protect.
    pub uncorrectable: Vec<(usize, usize)>,
}

/// Which part of the access pipeline a [`WordFault`] belongs to. Read
/// stages run in declaration order; within one stage, faults keep the
/// order of their defects in the injection list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    /// Write path: dead write drivers and stuck cells.
    Write,
    /// Read path, cell level: stuck cells and bitline bridges.
    Cell,
    /// Read path, bitline: columns shorted to a rail.
    Column,
    /// Read path, wordline: broken rows.
    Row,
    /// Read path, sense amplifiers.
    Sense,
}

/// What one defect does to one word, with the bit position resolved
/// under the steering maps current when the index was built.
#[derive(Clone, Copy, Debug)]
enum FaultOp {
    /// The bit is forced to `value` (a stuck cell, a dead write driver
    /// storing zero, or a bitline shorted to a rail).
    Force { bit: u32, value: bool },
    /// The bit ORs in the stored value of physical column `partner` in
    /// the same physical row (a bitline bridge).
    Bridge { bit: u32, partner: usize },
    /// Every bit reads one (a broken wordline).
    AllOnes,
    /// The bit reads inverted (a faulty sense amplifier).
    Invert { bit: u32 },
}

/// One entry of the per-word defect index.
#[derive(Clone, Copy, Debug)]
struct WordFault {
    /// Position of the defect in the injection list (its mask slot).
    defect: usize,
    op: FaultOp,
}

/// A word's slice of [`WeightMemory::faults`]: write-path faults in
/// `start..read`, read-path faults in `read..end`. `start == end` for a
/// word no defect can touch. `u32` offsets keep the index, which every
/// clone of the store copies, at 12 bytes a word.
#[derive(Clone, Copy, Debug, Default)]
struct WordIndex {
    start: u32,
    read: u32,
    end: u32,
}

/// One word's last fetch on a store with only permanent defects: the
/// raw word written, and the data and ECC verdict its read returned.
#[derive(Clone, Copy, Debug)]
struct FetchMemo {
    raw: u16,
    data: u16,
    status: EccStatus,
}

/// The weight store: a bit-cell array with defects, ECC, and steering.
#[derive(Clone, Debug)]
pub struct WeightMemory {
    geom: MemGeometry,
    /// Physical cell storage: one bitset per physical row, `row_words`
    /// `u64`s long, column `c` at bit `c % 64` of word `c / 64`.
    cells: Vec<u64>,
    row_words: usize,
    defects: Vec<MemDefectState>,
    records: Vec<String>,
    /// Logical data row → physical row (identity until steered).
    row_map: Vec<usize>,
    /// Logical data bit column → physical bit column.
    col_map: Vec<usize>,
    spare_rows_used: usize,
    spare_cols_used: usize,
    ecc_counters: EccCounters,
    /// Word accesses (fetches and raw BIST reads/writes) since power-on.
    accesses: u64,
    /// Activation mask, one slot per defect. Permanent slots stay true;
    /// dynamic slots are refreshed on every access.
    active: Vec<bool>,
    /// True when some defect carries a lifetime state machine.
    dynamic: bool,
    /// Per-word defect index over `(logical row, slot)`, row-major;
    /// rebuilt by [`reindex`](Self::reindex).
    index: Vec<WordIndex>,
    /// The index's entries, word by word in pipeline order.
    faults: Vec<WordFault>,
    /// Per slot: its logical columns still sit on their own physical
    /// columns, one contiguous run (no column of the slot was steered).
    contiguous: Vec<bool>,
    /// Per-word fetch memo, indexed like `index`; empty until the first
    /// fetch. An entry means the word's cells hold what writing its
    /// `raw` word stores, so fetching `raw` again reads back the same
    /// data. Only stores without dynamic defects fill it.
    memo: Vec<Option<FetchMemo>>,
    /// Chaos hook: milliseconds each March BIST element walk stalls
    /// (a model of pathologically slow silicon; `None` in production).
    chaos_stall_ms: Option<u64>,
}

impl WeightMemory {
    /// A pristine array with the given geometry (cells at power-on zero).
    pub fn new(geom: MemGeometry) -> WeightMemory {
        let row_words = geom.total_cols().div_ceil(64);
        let mut mem = WeightMemory {
            geom,
            cells: vec![0; geom.total_rows() * row_words],
            row_words,
            defects: Vec::new(),
            records: Vec::new(),
            row_map: (0..geom.data_rows()).collect(),
            col_map: (0..geom.data_cols()).collect(),
            spare_rows_used: 0,
            spare_cols_used: 0,
            ecc_counters: EccCounters::default(),
            accesses: 0,
            active: Vec::new(),
            dynamic: false,
            index: Vec::new(),
            faults: Vec::new(),
            contiguous: Vec::new(),
            memo: Vec::new(),
            chaos_stall_ms: None,
        };
        mem.reindex();
        mem
    }

    /// Chaos hook: make every March BIST element walk stall `ms`
    /// milliseconds, so watchdog fall-through paths can be exercised
    /// against a hanging memory self-test. `None` disables the hook.
    pub fn set_chaos_stall(&mut self, ms: Option<u64>) {
        self.chaos_stall_ms = ms;
    }

    /// The configured March-walk stall, if any.
    pub fn chaos_stall(&self) -> Option<u64> {
        self.chaos_stall_ms
    }

    /// The array's geometry.
    pub fn geometry(&self) -> MemGeometry {
        self.geom
    }

    /// Injected defects with their lifetime state.
    pub fn defects(&self) -> &[MemDefectState] {
        &self.defects
    }

    /// Human-readable injection log, one line per defect.
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// ECC correction/detection counters accumulated by fetches.
    pub fn ecc_counters(&self) -> EccCounters {
        self.ecc_counters
    }

    /// Word accesses since power-on: each one advances every dynamic
    /// defect's activation stream by one step.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// `(used, budget)` spare-row accounting.
    pub fn spare_rows(&self) -> (usize, usize) {
        (self.spare_rows_used, self.geom.spare_rows)
    }

    /// `(used, budget)` spare-column accounting.
    pub fn spare_cols(&self) -> (usize, usize) {
        (self.spare_cols_used, self.geom.spare_cols)
    }

    /// True when the array cannot disturb any fetch: no defects injected.
    /// Transparent arrays are skipped entirely on the forward path, so
    /// attaching one is guaranteed bit-invisible.
    pub fn is_transparent(&self) -> bool {
        self.defects.is_empty()
    }

    /// True when every defect is permanent, so fetches are pure functions
    /// of the address and written word and the 64-lane batch path stays
    /// bit-identical to scalar evaluation order.
    pub fn vectorizable(&self) -> bool {
        !self.dynamic
    }

    /// Power-on reset: clear every cell, rewind dynamic defect state,
    /// ECC and access counters. Steering survives (it is a fuse-style
    /// repair).
    pub fn reset_state(&mut self) {
        self.cells.fill(0);
        self.memo.fill(None);
        for d in &mut self.defects {
            if let Some(state) = &mut d.state {
                state.reset();
            }
        }
        self.ecc_counters = EccCounters::default();
        self.accesses = 0;
    }

    // ------------------------------------------------------------------
    // Defect injection
    // ------------------------------------------------------------------

    /// Inject one random defect with the given lifetime, drawing the
    /// class, site and (for dynamic lifetimes) state seed from `rng`.
    /// Returns the record line appended to [`records`](Self::records).
    ///
    /// Class mix: 60 % stuck cells, 10 % sense-amp, 10 % write-driver,
    /// 10 % bitline bridges, 5 % column failures, 5 % row failures —
    /// cell defects dominate, matching published SRAM failure Paretos.
    pub fn inject_random<R: Rng + ?Sized>(
        &mut self,
        activation: Activation,
        rng: &mut R,
    ) -> String {
        let geom = self.geom;
        let code = geom.code_bits();
        let pick = rng.random_range(0..100u32);
        let defect = if pick < 60 {
            MemDefect::StuckCell {
                row: rng.random_range(0..geom.data_rows()),
                col: rng.random_range(0..geom.data_cols()),
                value: rng.random_bool(0.5),
            }
        } else if pick < 70 {
            MemDefect::SenseAmp {
                col: rng.random_range(0..geom.data_cols()),
            }
        } else if pick < 80 {
            MemDefect::WriteDriver {
                col: rng.random_range(0..geom.data_cols()),
            }
        } else if pick < 90 {
            // Keep the bridged pair inside one word slot so a fetch (which
            // writes the whole word before reading it) stays pure.
            let slot = rng.random_range(0..geom.words_per_row());
            let bit = rng.random_range(0..code - 1);
            MemDefect::Bridge {
                col: slot * code + bit,
            }
        } else if pick < 95 {
            MemDefect::ColStuck {
                col: rng.random_range(0..geom.data_cols()),
                value: rng.random_bool(0.5),
            }
        } else {
            MemDefect::RowStuck {
                row: rng.random_range(0..geom.data_rows()),
            }
        };
        let state = if activation.is_permanent() {
            None
        } else {
            Some(ActivationState::new(activation, rng.random::<u64>()))
        };
        let record = format!("mem {defect}: {activation}");
        self.records.push(record.clone());
        self.add(defect, state);
        record
    }

    /// Place one specific defect (deterministic counterpart of
    /// [`inject_random`](Self::inject_random), used by diagnosis tests
    /// and targeted experiments). `state` carries the lifetime; `None`
    /// means permanent.
    ///
    /// # Panics
    ///
    /// When a coordinate lies outside the physical array, or when a
    /// bridge's pair `col`, `col + 1` does not lie inside one data word
    /// slot (a fetch must depend only on its own word's cells).
    pub fn push_defect(&mut self, defect: MemDefect, state: Option<ActivationState>) {
        let geom = self.geom;
        let row_ok = |row: usize| assert!(row < geom.total_rows(), "defect row {row} out of range");
        let col_ok =
            |col: usize| assert!(col < geom.total_cols(), "defect column {col} out of range");
        match defect {
            MemDefect::StuckCell { row, col, .. } => {
                row_ok(row);
                col_ok(col);
            }
            MemDefect::RowStuck { row } => row_ok(row),
            MemDefect::ColStuck { col, .. }
            | MemDefect::SenseAmp { col }
            | MemDefect::WriteDriver { col } => col_ok(col),
            MemDefect::Bridge { col } => assert!(
                col + 1 < geom.data_cols() && (col + 1) % geom.code_bits() != 0,
                "bridge c{col}-c{} crosses a word slot",
                col + 1
            ),
        }
        let lifetime = match &state {
            None => "permanent",
            Some(_) => "dynamic",
        };
        self.records.push(format!("mem {defect}: {lifetime}"));
        self.add(defect, state);
    }

    fn add(&mut self, defect: MemDefect, state: Option<ActivationState>) {
        self.defects.push(MemDefectState { defect, state });
        self.reindex();
    }

    /// Inject `n` random defects; returns their record lines.
    pub fn inject_many<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Vec<String> {
        (0..n)
            .map(|_| self.inject_random(activation, rng))
            .collect()
    }

    // ------------------------------------------------------------------
    // Word-level access with the fault pipeline
    // ------------------------------------------------------------------

    /// Compile the defect list into the per-word index under the current
    /// steering maps. For every `(logical row, slot)` it lists, in
    /// pipeline order, each defect that can touch one of the word's
    /// physical cells — a bridge counts for both of its columns — with
    /// the bit position it hits. Called whenever a defect is added or a
    /// row or column is steered; either may change what a fetch reads,
    /// so the fetch memo is dropped.
    fn reindex(&mut self) {
        self.memo.fill(None);
        let geom = self.geom;
        let code = geom.code_bits();
        let (rows, slots) = (geom.data_rows(), geom.words_per_row());
        let mut row_owner = vec![None; geom.total_rows()];
        for (lrow, &prow) in self.row_map.iter().enumerate() {
            row_owner[prow] = Some(lrow);
        }
        let mut col_owner = vec![None; geom.total_cols()];
        for (lcol, &pcol) in self.col_map.iter().enumerate() {
            col_owner[pcol] = Some(lcol);
        }
        // (word, stage, fault), pushed in defect order; the stable sort
        // below keeps that order within each stage of each word.
        let mut entries: Vec<(usize, Stage, WordFault)> = Vec::new();
        for (defect, d) in self.defects.iter().enumerate() {
            let mut push = |lrow: usize, slot: usize, stage: Stage, op: FaultOp| {
                entries.push((lrow * slots + slot, stage, WordFault { defect, op }));
            };
            let bit = |lcol: usize| (lcol % code) as u32;
            match d.defect {
                MemDefect::StuckCell { row, col, value } => {
                    if let (Some(lrow), Some(lcol)) = (row_owner[row], col_owner[col]) {
                        let op = FaultOp::Force {
                            bit: bit(lcol),
                            value,
                        };
                        push(lrow, lcol / code, Stage::Write, op);
                        push(lrow, lcol / code, Stage::Cell, op);
                    }
                }
                MemDefect::RowStuck { row } => {
                    if let Some(lrow) = row_owner[row] {
                        for slot in 0..slots {
                            push(lrow, slot, Stage::Row, FaultOp::AllOnes);
                        }
                    }
                }
                MemDefect::ColStuck { col, value } => {
                    if let Some(lcol) = col_owner[col] {
                        let op = FaultOp::Force {
                            bit: bit(lcol),
                            value,
                        };
                        (0..rows).for_each(|lrow| push(lrow, lcol / code, Stage::Column, op));
                    }
                }
                MemDefect::SenseAmp { col } => {
                    if let Some(lcol) = col_owner[col] {
                        let op = FaultOp::Invert { bit: bit(lcol) };
                        (0..rows).for_each(|lrow| push(lrow, lcol / code, Stage::Sense, op));
                    }
                }
                MemDefect::WriteDriver { col } => {
                    if let Some(lcol) = col_owner[col] {
                        let op = FaultOp::Force {
                            bit: bit(lcol),
                            value: false,
                        };
                        (0..rows).for_each(|lrow| push(lrow, lcol / code, Stage::Write, op));
                    }
                }
                MemDefect::Bridge { col } => {
                    for (side, partner) in [(col, col + 1), (col + 1, col)] {
                        if let Some(lcol) = col_owner[side] {
                            let op = FaultOp::Bridge {
                                bit: bit(lcol),
                                partner,
                            };
                            (0..rows).for_each(|lrow| push(lrow, lcol / code, Stage::Cell, op));
                        }
                    }
                }
            }
        }
        entries.sort_by_key(|&(word, stage, _)| (word, stage));
        self.index = vec![WordIndex::default(); rows * slots];
        let offset = |at: usize| u32::try_from(at).expect("index entries fit in u32");
        let mut at = 0;
        for (w, word) in self.index.iter_mut().enumerate() {
            word.start = offset(at);
            while entries
                .get(at)
                .is_some_and(|e| e.0 == w && e.1 == Stage::Write)
            {
                at += 1;
            }
            word.read = offset(at);
            while entries.get(at).is_some_and(|e| e.0 == w) {
                at += 1;
            }
            word.end = offset(at);
        }
        self.faults = entries.into_iter().map(|(_, _, fault)| fault).collect();
        self.contiguous = (0..slots)
            .map(|slot| (slot * code..(slot + 1) * code).all(|lcol| self.col_map[lcol] == lcol))
            .collect();
        self.active = vec![true; self.defects.len()];
        self.dynamic = self.defects.iter().any(|d| d.state.is_some());
    }

    fn code_mask(&self) -> u32 {
        (1 << self.geom.code_bits()) - 1
    }

    fn cell(&self, prow: usize, pcol: usize) -> bool {
        self.cells[prow * self.row_words + pcol / 64] >> (pcol % 64) & 1 == 1
    }

    /// The raw cells of one word, gathered through the column map.
    fn load(&self, prow: usize, slot: usize) -> u32 {
        let code = self.geom.code_bits();
        if !self.contiguous[slot] {
            return (0..code)
                .filter(|&b| self.cell(prow, self.col_map[slot * code + b]))
                .fold(0, |v, b| v | 1 << b);
        }
        let row = &self.cells[prow * self.row_words..(prow + 1) * self.row_words];
        let (w, shift) = (slot * code / 64, slot * code % 64);
        let mut v = row[w] >> shift;
        if shift + code > 64 {
            v |= row[w + 1] << (64 - shift);
        }
        v as u32 & self.code_mask()
    }

    /// Store one word's bits into its cells, scattered through the
    /// column map.
    fn store(&mut self, prow: usize, slot: usize, bits: u32) {
        let code = self.geom.code_bits();
        if !self.contiguous[slot] {
            for b in 0..code {
                let pcol = self.col_map[slot * code + b];
                let (idx, m) = (prow * self.row_words + pcol / 64, 1u64 << (pcol % 64));
                self.cells[idx] = self.cells[idx] & !m | u64::from(bits >> b & 1) << (pcol % 64);
            }
            return;
        }
        let (bits, mask) = (u64::from(bits), u64::from(self.code_mask()));
        let base = prow * self.row_words + slot * code / 64;
        let shift = slot * code % 64;
        self.cells[base] = self.cells[base] & !(mask << shift) | bits << shift;
        if shift + code > 64 {
            let up = 64 - shift;
            self.cells[base + 1] = self.cells[base + 1] & !(mask >> up) | bits >> up;
        }
    }

    /// Count one access and, when dynamic defects exist, advance each
    /// one's activation stream by one step into the mask (permanent
    /// slots stay active).
    fn advance_access(&mut self) {
        self.accesses += 1;
        if self.dynamic {
            for (active, d) in self.active.iter_mut().zip(&mut self.defects) {
                if let Some(state) = &mut d.state {
                    *active = state.advance();
                }
            }
        }
    }

    /// Run `v` through the active faults of one index slice.
    fn apply(&self, prow: usize, faults: &[WordFault], mut v: u32) -> u32 {
        for f in faults.iter().filter(|f| self.active[f.defect]) {
            v = match f.op {
                FaultOp::Force { bit, value } => v & !(1 << bit) | u32::from(value) << bit,
                FaultOp::Bridge { bit, partner } => v | u32::from(self.cell(prow, partner)) << bit,
                FaultOp::AllOnes => self.code_mask(),
                FaultOp::Invert { bit } => v ^ 1 << bit,
            };
        }
        v
    }

    /// Position of a logical `(row, slot)` word in the index.
    fn word(&self, row: usize, slot: usize) -> usize {
        assert!(slot < self.geom.words_per_row(), "slot {slot} out of range");
        row * self.geom.words_per_row() + slot
    }

    /// Write one word through its write-path faults (write drivers lose
    /// the bit, stuck cells ignore it). A word no defect touches is a
    /// masked move. The word's fetch memo entry no longer describes its
    /// cells, so it is dropped.
    fn write_word(&mut self, row: usize, slot: usize, bits: u32) {
        let prow = self.row_map[row];
        let word = self.word(row, slot);
        if let Some(memo) = self.memo.get_mut(word) {
            *memo = None;
        }
        let WordIndex { start, read, .. } = self.index[word];
        let faults = &self.faults[start as usize..read as usize];
        let v = self.apply(prow, faults, bits & self.code_mask());
        self.store(prow, slot, v);
    }

    /// Read one word back through its read-path faults: cell/bridge
    /// first, then bitline (column stuck), wordline (row stuck), sense
    /// amp.
    fn read_word(&self, row: usize, slot: usize) -> u32 {
        let prow = self.row_map[row];
        let WordIndex { read, end, .. } = self.index[self.word(row, slot)];
        let faults = &self.faults[read as usize..end as usize];
        self.apply(prow, faults, self.load(prow, slot))
    }

    /// One access that writes `bits` into a word and reads it back.
    fn write_read(&mut self, row: usize, slot: usize, bits: u32) -> u32 {
        self.advance_access();
        self.write_word(row, slot, bits);
        self.read_word(row, slot)
    }

    /// Logical data row for a bank-relative lane index.
    fn row_of(&self, bank: Bank, lane: usize) -> usize {
        match bank {
            Bank::Hidden => {
                assert!(
                    lane < self.geom.hidden_rows,
                    "hidden lane {lane} out of range"
                );
                lane
            }
            Bank::Output => {
                assert!(
                    lane < self.geom.output_rows,
                    "output lane {lane} out of range"
                );
                self.geom.hidden_rows + lane
            }
        }
    }

    /// The word slot holding the bias for a bank.
    pub fn bias_slot(&self, bank: Bank) -> usize {
        match bank {
            Bank::Hidden => self.geom.hidden_synapses,
            Bank::Output => self.geom.output_synapses,
        }
    }

    /// Fetch one weight through the array: the companion core writes the
    /// current value into its word, then the word is read back through
    /// the fault pipeline (and the ECC decoder when enabled). One fetch
    /// counts as one access for transient/intermittent defects.
    ///
    /// Without dynamic defects the write path is a pure function of the
    /// written word, and a word's read depends only on its own cells. A
    /// repeat fetch of the word last fetched at this address, with no
    /// write, reset, steering or new defect in between, therefore finds
    /// the cells already holding what it would store: it counts its
    /// access and ECC verdict and returns the memoized data.
    pub fn fetch(&mut self, bank: Bank, lane: usize, slot: usize, w: Fx) -> Fx {
        let row = self.row_of(bank, lane);
        let word = self.word(row, slot);
        let raw = w.to_bits();
        let hit = self.memo.get(word).copied().flatten();
        if let Some(memo) = hit.filter(|m| !self.dynamic && m.raw == raw) {
            self.accesses += 1;
            self.count_ecc(memo.status);
            return Fx::from_bits(memo.data);
        }
        let (data, status) = if self.geom.ecc {
            ecc::decode(self.write_read(row, slot, ecc::encode(raw)))
        } else {
            let data = self.write_read(row, slot, u32::from(raw)) as u16;
            (data, EccStatus::Clean)
        };
        self.count_ecc(status);
        if !self.dynamic {
            if self.memo.is_empty() {
                self.memo = vec![None; self.index.len()];
            }
            self.memo[word] = Some(FetchMemo { raw, data, status });
        }
        Fx::from_bits(data)
    }

    fn count_ecc(&mut self, status: EccStatus) {
        match status {
            EccStatus::Clean => {}
            EccStatus::Corrected => self.ecc_counters.corrected += 1,
            EccStatus::DoubleDetected => self.ecc_counters.uncorrectable += 1,
        }
    }

    /// Raw BIST write of a full code word at a logical `(row, slot)`
    /// address (no ECC involvement). One access.
    pub fn bist_write(&mut self, row: usize, slot: usize, bits: u32) {
        self.advance_access();
        self.write_word(row, slot, bits);
    }

    /// Raw BIST read of a full code word. One access.
    pub fn bist_read(&mut self, row: usize, slot: usize) -> u32 {
        self.advance_access();
        self.read_word(row, slot)
    }

    // ------------------------------------------------------------------
    // Repair: ECC scrub and spare steering
    // ------------------------------------------------------------------

    /// The logical `(row, slot)` words a March or scrub walk must visit,
    /// in ascending order. With a dynamic defect that is every word: each
    /// access advances the activation streams. Otherwise it is the words
    /// the index lists a fault for: any other word reads back exactly
    /// what was written, and no word's read depends on another word's
    /// cells, so skipping it changes no other read. Both walks end in
    /// [`reset_state`](Self::reset_state), which also erases the cells,
    /// counters and access count the skipped accesses would have left.
    pub(crate) fn walk_words(&self) -> Vec<(usize, usize)> {
        let slots = self.geom.words_per_row();
        (0..self.index.len())
            .filter(|&w| self.dynamic || self.index[w].start != self.index[w].end)
            .map(|w| (w / slots, w % slots))
            .collect()
    }

    /// Walk every live word with three test patterns through the full
    /// write/read/decode path and report which addresses the code
    /// corrects and which it cannot protect. Leaves the array power-on
    /// clean (scrubbing is state-neutral). On a store without dynamic
    /// defects only the words some defect touches are walked; every
    /// other word passes each pattern, and the reset erases what its
    /// accesses would have left.
    pub fn scrub(&mut self) -> ScrubReport {
        let geom = self.geom;
        let mut report = ScrubReport {
            words: self.index.len(),
            ..ScrubReport::default()
        };
        for (row, slot) in self.walk_words() {
            let mut corrected = false;
            let mut broken = false;
            for pattern in [0x0000u16, 0xFFFF, 0xA5A5] {
                let stored = if geom.ecc {
                    ecc::encode(pattern)
                } else {
                    u32::from(pattern)
                };
                let got = self.write_read(row, slot, stored);
                if geom.ecc {
                    let (data, status) = ecc::decode(got);
                    corrected |= status == EccStatus::Corrected;
                    broken |= status == EccStatus::DoubleDetected || data != pattern;
                } else {
                    broken |= got != u32::from(pattern);
                }
            }
            if broken {
                report.uncorrectable.push((row, slot));
            } else if corrected {
                report.corrected += 1;
            }
        }
        self.reset_state();
        report
    }

    /// Steer a logical data row onto the next spare physical row.
    /// Power-cycles the array so steered-out cells hold benign zeros.
    pub fn steer_row(&mut self, row: usize) -> Result<(), MemRepairError> {
        if self.spare_rows_used >= self.geom.spare_rows {
            return Err(MemRepairError::NoSpareRow);
        }
        assert!(row < self.geom.data_rows(), "row {row} out of range");
        self.row_map[row] = self.geom.data_rows() + self.spare_rows_used;
        self.spare_rows_used += 1;
        self.cells.fill(0);
        self.reindex();
        Ok(())
    }

    /// Steer a logical bit column onto the next spare physical column.
    /// Power-cycles the array so steered-out cells hold benign zeros.
    pub fn steer_col(&mut self, col: usize) -> Result<(), MemRepairError> {
        if self.spare_cols_used >= self.geom.spare_cols {
            return Err(MemRepairError::NoSpareCol);
        }
        assert!(col < self.geom.data_cols(), "column {col} out of range");
        self.col_map[col] = self.geom.data_cols() + self.spare_cols_used;
        self.spare_cols_used += 1;
        self.cells.fill(0);
        self.reindex();
        Ok(())
    }
}
