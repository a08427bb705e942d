//! March C- memory BIST with row/column fault localization.
//!
//! The classic March C- element sequence
//! `⇑(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇑(r0)` detects
//! stuck-at, transition, address-decoder and state-coupling faults. It is
//! run twice — once with a solid background and once with a checkerboard
//! background — because a wired-OR bridge between two bitlines of the
//! same word is invisible when both bits always carry the same value.
//!
//! Every mismatched bit is logged per `(row, column)` cell and the
//! failure map is condensed to repair granularity: rows with a quarter
//! or more of their bits failing become *bad rows* (wordline faults),
//! columns failing in at least half the remaining rows become *bad
//! columns* (bitline, sense-amp, write-driver and bridge faults), and
//! the rest stay individual *bad cells* — exactly the units the spare
//! row/column steering of [`WeightMemory`] can repair.

use crate::array::{MemRepairError, WeightMemory};

/// Condensed result of a March pass, in logical array coordinates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MarchReport {
    /// Rows dominated by failures (wordline-class faults).
    pub bad_rows: Vec<usize>,
    /// Columns failing across rows (bitline-class faults), excluding
    /// cells already accounted to bad rows.
    pub bad_cols: Vec<usize>,
    /// Residual failing `(row, col)` cells outside bad rows/columns.
    pub bad_cells: Vec<(usize, usize)>,
    /// Total word reads performed.
    pub reads: usize,
    /// Total failing bit observations.
    pub fails: usize,
}

impl MarchReport {
    /// True when the pass observed no failure at all.
    pub fn clean(&self) -> bool {
        self.fails == 0
    }

    /// Number of distinct failing repair units (rows + cols + cells).
    pub fn units(&self) -> usize {
        self.bad_rows.len() + self.bad_cols.len() + self.bad_cells.len()
    }
}

/// Summary of a steering pass driven by a [`MarchReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Rows steered onto spares.
    pub rows_steered: usize,
    /// Columns steered onto spares.
    pub cols_steered: usize,
    /// Failing units left unrepaired (spares exhausted or cell-level).
    pub unrepaired: usize,
}

/// Run the double-background March C- pass over the live address space
/// (through the current steering maps, so a repaired array tests clean).
/// Leaves the array power-on clean.
pub fn march_cminus(mem: &mut WeightMemory) -> MarchReport {
    let abort = std::sync::atomic::AtomicBool::new(false);
    march_cminus_guarded(mem, &abort).expect("march cannot abort with an untripped flag")
}

/// [`march_cminus`] under an abort flag: a watchdog (or any supervisor)
/// that trips `abort` makes the walk stop at the next address instead
/// of running to completion — the mission runtime uses this so a
/// stalling memory self-test (see
/// [`WeightMemory::set_chaos_stall`]) falls through with a typed
/// timeout rather than hanging the serving loop. Returns `None` when
/// aborted; the array is left power-on clean either way. The flag is
/// read before each element and each address.
///
/// On a store without dynamic defects the walk visits only the faulty
/// words, in the same ascending and descending orders: every other word
/// reads back its expected pattern. The reads it skips still count in
/// [`MarchReport::reads`].
pub fn march_cminus_guarded(
    mem: &mut WeightMemory,
    abort: &std::sync::atomic::AtomicBool,
) -> Option<MarchReport> {
    use std::sync::atomic::Ordering;
    let aborted = |mem: &mut WeightMemory| {
        if abort.load(Ordering::Acquire) {
            mem.reset_state();
            true
        } else {
            false
        }
    };
    // Each element starts with the chaos stall and then reads the flag,
    // so a walk over zero faulty words still honours the watchdog.
    let element_aborted = |mem: &mut WeightMemory| {
        if let Some(ms) = mem.chaos_stall() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        aborted(mem)
    };
    let geom = mem.geometry();
    let rows = geom.data_rows();
    let slots = geom.words_per_row();
    let code = geom.code_bits();
    let mask: u32 = if code == 32 {
        u32::MAX
    } else {
        (1 << code) - 1
    };
    // Per-cell failure map: one bit per (row, col), packed row-major.
    let cols = slots * code;
    let words_per_row_map = cols.div_ceil(64);
    let mut fail_bits = vec![0u64; rows * words_per_row_map];
    let mut report = MarchReport::default();
    let walk = mem.walk_words();
    let skipped = rows * slots - walk.len();

    let mark = |fail_bits: &mut Vec<u64>,
                report: &mut MarchReport,
                row: usize,
                slot: usize,
                mut diff: u32| {
        while diff != 0 {
            let col = slot * code + diff.trailing_zeros() as usize;
            fail_bits[row * words_per_row_map + col / 64] |= 1 << (col % 64);
            report.fails += 1;
            diff &= diff - 1;
        }
    };

    // The `i`-th address of an ascending or descending walk.
    let n = walk.len();
    let at = |i: usize, down: bool| walk[if down { n - 1 - i } else { i }];

    // Solid zero, then a per-row/slot checkerboard so bridged neighbors
    // carry opposite values.
    for checker in [false, true] {
        let bg = |row: usize, slot: usize| {
            let alt = 0x2AAAAAu32 & mask;
            match (checker, (row + slot).is_multiple_of(2)) {
                (false, _) => 0,
                (true, true) => alt,
                (true, false) => !alt & mask,
            }
        };

        // ⇑(w0)
        if element_aborted(mem) {
            return None;
        }
        for (r, s) in (0..n).map(|i| at(i, false)) {
            if aborted(mem) {
                return None;
            }
            mem.bist_write(r, s, bg(r, s));
        }
        // ⇑(r0, w1); ⇑(r1, w0); ⇓(r0, w1); ⇓(r1, w0)
        for (down, flip) in [(false, false), (false, true), (true, false), (true, true)] {
            if element_aborted(mem) {
                return None;
            }
            report.reads += skipped;
            for (r, s) in (0..n).map(|i| at(i, down)) {
                if aborted(mem) {
                    return None;
                }
                let expect = if flip { !bg(r, s) & mask } else { bg(r, s) };
                let got = mem.bist_read(r, s);
                report.reads += 1;
                mark(&mut fail_bits, &mut report, r, s, got ^ expect);
                mem.bist_write(r, s, !expect & mask);
            }
        }
        // ⇑(r0)
        if element_aborted(mem) {
            return None;
        }
        report.reads += skipped;
        for (r, s) in (0..n).map(|i| at(i, false)) {
            if aborted(mem) {
                return None;
            }
            let got = mem.bist_read(r, s);
            report.reads += 1;
            mark(&mut fail_bits, &mut report, r, s, got ^ bg(r, s));
        }
    }

    // Condense the per-cell failure map to repair granularity, working
    // from its set bits in ascending (row, col) order.
    let mut failed: Vec<(usize, usize)> = Vec::new();
    for (i, &bits) in fail_bits.iter().enumerate() {
        let (row, base) = (i / words_per_row_map, i % words_per_row_map * 64);
        let mut rest = bits;
        while rest != 0 {
            failed.push((row, base + rest.trailing_zeros() as usize));
            rest &= rest - 1;
        }
    }
    let mut row_counts = vec![0usize; rows];
    for &(row, _) in &failed {
        row_counts[row] += 1;
    }
    let bad_row = |r: usize| row_counts[r] >= cols.div_ceil(4);
    report.bad_rows = (0..rows).filter(|&r| bad_row(r)).collect();
    let live_rows = rows - report.bad_rows.len();
    // Failing cells per column, outside the bad rows.
    let mut col_counts = vec![0usize; cols];
    for &(row, col) in &failed {
        if !bad_row(row) {
            col_counts[col] += 1;
        }
    }
    let bad_col: Vec<bool> = col_counts
        .iter()
        .map(|&n| n >= live_rows.max(1).div_ceil(2).max(2))
        .collect();
    report.bad_cols = (0..cols).filter(|&c| bad_col[c]).collect();
    report.bad_cells = failed
        .into_iter()
        .filter(|&(row, col)| !bad_row(row) && !bad_col[col])
        .collect();

    mem.reset_state();
    Some(report)
}

/// Steer the units a March pass flagged onto spare rows/columns:
/// bad rows first, then bad columns, then rows holding cell clusters a
/// SEC-DED word cannot absorb (two or more failing bits in one word, or
/// any failing bit when ECC is off). Stops when spares run out.
pub fn apply_repairs(mem: &mut WeightMemory, report: &MarchReport) -> RepairSummary {
    let code = mem.geometry().code_bits();
    let ecc = mem.geometry().ecc;
    let mut summary = RepairSummary::default();
    for &row in &report.bad_rows {
        match mem.steer_row(row) {
            Ok(()) => summary.rows_steered += 1,
            Err(MemRepairError::NoSpareRow) => summary.unrepaired += 1,
            Err(_) => summary.unrepaired += 1,
        }
    }
    for &col in &report.bad_cols {
        match mem.steer_col(col) {
            Ok(()) => summary.cols_steered += 1,
            Err(_) => summary.unrepaired += 1,
        }
    }
    // Group residual cells by (row, word slot); a single SEC-DED word
    // self-heals one bad bit, so only clusters force a row repair.
    let mut rows_to_fix: Vec<usize> = Vec::new();
    let mut by_word: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for &(row, col) in &report.bad_cells {
        *by_word.entry((row, col / code)).or_insert(0) += 1;
    }
    for (&(row, _), &count) in &by_word {
        let needs_repair = if ecc { count >= 2 } else { count >= 1 };
        if needs_repair && !rows_to_fix.contains(&row) {
            rows_to_fix.push(row);
        }
    }
    rows_to_fix.sort_unstable();
    for row in rows_to_fix {
        match mem.steer_row(row) {
            Ok(()) => summary.rows_steered += 1,
            Err(_) => summary.unrepaired += 1,
        }
    }
    summary
}
