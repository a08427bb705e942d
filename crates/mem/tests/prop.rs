//! Property tests for the SEC-DED (22,16) code (encode/decode roundtrip,
//! every single-bit flip corrected, every double-bit flip detected and
//! never miscorrected into a different clean word), and differential
//! tests of the word-level store and mask ECC against their bit-by-bit
//! reference versions.

use dta_mem::ecc::{decode, encode, EccStatus, CODE_BITS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn roundtrip_is_clean_identity(w in any::<u16>()) {
        let cw = encode(w);
        prop_assert_eq!(cw >> CODE_BITS, 0);
        let (data, status) = decode(cw);
        prop_assert_eq!(status, EccStatus::Clean);
        prop_assert_eq!(data, w);
    }

    #[test]
    fn any_single_flip_is_corrected(w in any::<u16>(), bit in 0u32..CODE_BITS) {
        let (data, status) = decode(encode(w) ^ (1 << bit));
        prop_assert_eq!(status, EccStatus::Corrected);
        prop_assert_eq!(data, w);
    }

    #[test]
    fn any_double_flip_is_detected_not_miscorrected(
        w in any::<u16>(),
        a in 0u32..CODE_BITS,
        delta in 1u32..CODE_BITS,
    ) {
        let b = (a + delta) % CODE_BITS;
        let (_, status) = decode(encode(w) ^ (1 << a) ^ (1 << b));
        prop_assert_eq!(status, EccStatus::DoubleDetected);
    }
}

/// Exhaustive backstop beyond the sampled properties: every data word
/// roundtrips and, for a fixed word, all 22 single and 231 double flips
/// behave per the SEC-DED contract.
#[test]
fn exhaustive_flip_matrix_for_one_word() {
    let w = 0x3C5Au16;
    let cw = encode(w);
    for a in 0..CODE_BITS {
        assert_eq!(decode(cw ^ (1 << a)), (w, EccStatus::Corrected), "bit {a}");
        for b in (a + 1)..CODE_BITS {
            let (_, status) = decode(cw ^ (1 << a) ^ (1 << b));
            assert_eq!(status, EccStatus::DoubleDetected, "bits {a},{b}");
        }
    }
}

// ----------------------------------------------------------------------
// Reference oracle: the bit-by-bit store model
// ----------------------------------------------------------------------
//
// `WeightMemory` works a word at a time over a per-word defect index and
// packed cells, and `ecc` uses parity masks. The code below is the
// straightforward model both replace: one `bool` per cell, every access
// rebuilding the activation mask and scanning the whole defect list per
// bit, and per-bit ECC loops. The fast model must match it exactly:
// every returned word, ECC counter, access count, scrub and March report.

use dta_fixed::Fx;
use dta_mem::{
    march_cminus, Activation, ActivationState, Bank, EccCounters, MarchReport, MemDefect,
    MemGeometry, MemRepairError, ScrubReport, WeightMemory,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Codeword positions of the data bits, LSB first.
const DATA_POS: [u32; 16] = [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21];

fn loop_encode(data: u16) -> u32 {
    let mut cw: u32 = 0;
    for (i, &pos) in DATA_POS.iter().enumerate() {
        if data >> i & 1 == 1 {
            cw |= 1 << pos;
        }
    }
    for k in 0..5u32 {
        let check = 1u32 << k;
        let mut parity = 0u32;
        for pos in 1..CODE_BITS {
            if pos & check != 0 {
                parity ^= cw >> pos & 1;
            }
        }
        if parity == 1 {
            cw |= 1 << check;
        }
    }
    let mut overall = 0u32;
    for pos in 1..CODE_BITS {
        overall ^= cw >> pos & 1;
    }
    cw | overall
}

fn loop_decode(cw: u32) -> (u16, EccStatus) {
    let mut syndrome = 0u32;
    for pos in 1..CODE_BITS {
        if cw >> pos & 1 == 1 {
            syndrome ^= pos;
        }
    }
    let mut overall = 0u32;
    for pos in 0..CODE_BITS {
        overall ^= cw >> pos & 1;
    }
    let mut fixed = cw;
    let status = if syndrome == 0 && overall == 0 {
        EccStatus::Clean
    } else if overall == 1 {
        fixed ^= 1u32.checked_shl(syndrome).unwrap_or(0);
        EccStatus::Corrected
    } else {
        EccStatus::DoubleDetected
    };
    let mut data = 0u16;
    for (i, &pos) in DATA_POS.iter().enumerate() {
        if fixed >> pos & 1 == 1 {
            data |= 1 << i;
        }
    }
    (data, status)
}

/// Every data word encodes as the loop version does, and decoding its
/// codeword — clean, with one flip, with two flips, and with garbage
/// above the 22 code bits — gives the loop version's verdict.
#[test]
fn mask_ecc_equals_the_loop_ecc_on_every_word() {
    for w in 0..=u16::MAX {
        let cw = loop_encode(w);
        assert_eq!(encode(w), cw, "encode {w:#06x}");
        let (a, b) = (
            u32::from(w) % CODE_BITS,
            u32::from(w) / CODE_BITS % CODE_BITS,
        );
        let garbage = u32::from(w) << 22;
        for word in [cw, cw ^ 1 << a, cw ^ 1 << a ^ 1 << b, cw ^ garbage] {
            assert_eq!(decode(word), loop_decode(word), "decode {word:#08x}");
        }
    }
}

/// The bit-by-bit store: one `bool` per physical cell, the activation
/// mask rebuilt on every access and the whole defect list scanned per
/// bit, once on the write path and four times on the read path.
struct RefMemory {
    geom: MemGeometry,
    cells: Vec<bool>,
    defects: Vec<(MemDefect, Option<ActivationState>)>,
    row_map: Vec<usize>,
    col_map: Vec<usize>,
    spare_rows_used: usize,
    spare_cols_used: usize,
    ecc_counters: EccCounters,
    accesses: u64,
    active: Vec<bool>,
}

impl RefMemory {
    fn new(geom: MemGeometry) -> RefMemory {
        RefMemory {
            geom,
            cells: vec![false; geom.total_rows() * geom.total_cols()],
            defects: Vec::new(),
            row_map: (0..geom.data_rows()).collect(),
            col_map: (0..geom.data_cols()).collect(),
            spare_rows_used: 0,
            spare_cols_used: 0,
            ecc_counters: EccCounters::default(),
            accesses: 0,
            active: Vec::new(),
        }
    }

    fn reset_state(&mut self) {
        self.cells.fill(false);
        for (_, state) in &mut self.defects {
            if let Some(state) = state {
                state.reset();
            }
        }
        self.ecc_counters = EccCounters::default();
        self.accesses = 0;
    }

    fn cell(&self, prow: usize, pcol: usize) -> bool {
        self.cells[prow * self.geom.total_cols() + pcol]
    }

    fn advance_access(&mut self) {
        self.accesses += 1;
        self.active.clear();
        for (_, state) in &mut self.defects {
            self.active.push(match state {
                None => true,
                Some(state) => state.advance(),
            });
        }
    }

    fn write_word_phys(&mut self, prow: usize, slot: usize, bits: u32) {
        let code = self.geom.code_bits();
        for b in 0..code {
            let pcol = self.col_map[slot * code + b];
            let mut v = bits >> b & 1 == 1;
            for (i, (d, _)) in self.defects.iter().enumerate() {
                if !self.active[i] {
                    continue;
                }
                match *d {
                    MemDefect::WriteDriver { col } if col == pcol => v = false,
                    MemDefect::StuckCell { row, col, value } if row == prow && col == pcol => {
                        v = value
                    }
                    _ => {}
                }
            }
            let idx = prow * self.geom.total_cols() + pcol;
            self.cells[idx] = v;
        }
    }

    fn read_word_phys(&self, prow: usize, slot: usize) -> u32 {
        let code = self.geom.code_bits();
        let mut bits = 0u32;
        for b in 0..code {
            let pcol = self.col_map[slot * code + b];
            let mut v = self.cell(prow, pcol);
            let live = || {
                self.defects
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| self.active[i])
                    .map(|(_, (d, _))| d.clone())
            };
            for d in live() {
                match d {
                    MemDefect::StuckCell { row, col, value } if row == prow && col == pcol => {
                        v = value
                    }
                    MemDefect::Bridge { col } if col == pcol => v |= self.cell(prow, col + 1),
                    MemDefect::Bridge { col } if col + 1 == pcol => v |= self.cell(prow, col),
                    _ => {}
                }
            }
            for d in live() {
                if let MemDefect::ColStuck { col, value } = d {
                    if col == pcol {
                        v = value;
                    }
                }
            }
            for d in live() {
                if let MemDefect::RowStuck { row } = d {
                    if row == prow {
                        v = true;
                    }
                }
            }
            for d in live() {
                if let MemDefect::SenseAmp { col } = d {
                    if col == pcol {
                        v = !v;
                    }
                }
            }
            if v {
                bits |= 1 << b;
            }
        }
        bits
    }

    fn write_read(&mut self, row: usize, slot: usize, stored: u32) -> u32 {
        let prow = self.row_map[row];
        self.advance_access();
        self.write_word_phys(prow, slot, stored);
        self.read_word_phys(prow, slot)
    }

    fn fetch(&mut self, row: usize, slot: usize, raw: u16) -> u16 {
        if !self.geom.ecc {
            return self.write_read(row, slot, u32::from(raw)) as u16;
        }
        let (data, status) = loop_decode(self.write_read(row, slot, loop_encode(raw)));
        match status {
            EccStatus::Clean => {}
            EccStatus::Corrected => self.ecc_counters.corrected += 1,
            EccStatus::DoubleDetected => self.ecc_counters.uncorrectable += 1,
        }
        data
    }

    fn bist_write(&mut self, row: usize, slot: usize, bits: u32) {
        let prow = self.row_map[row];
        self.advance_access();
        self.write_word_phys(prow, slot, bits);
    }

    fn bist_read(&mut self, row: usize, slot: usize) -> u32 {
        let prow = self.row_map[row];
        self.advance_access();
        self.read_word_phys(prow, slot)
    }

    fn scrub(&mut self) -> ScrubReport {
        let geom = self.geom;
        let mut report = ScrubReport::default();
        for row in 0..geom.data_rows() {
            for slot in 0..geom.words_per_row() {
                report.words += 1;
                let (mut corrected, mut broken) = (false, false);
                for pattern in [0x0000u16, 0xFFFF, 0xA5A5] {
                    if geom.ecc {
                        let (data, status) =
                            loop_decode(self.write_read(row, slot, loop_encode(pattern)));
                        corrected |= status == EccStatus::Corrected;
                        broken |= status == EccStatus::DoubleDetected || data != pattern;
                    } else {
                        broken |=
                            self.write_read(row, slot, u32::from(pattern)) != u32::from(pattern);
                    }
                }
                if broken {
                    report.uncorrectable.push((row, slot));
                } else if corrected {
                    report.corrected += 1;
                }
            }
        }
        self.reset_state();
        report
    }

    fn steer_row(&mut self, row: usize) -> Result<(), MemRepairError> {
        if self.spare_rows_used >= self.geom.spare_rows {
            return Err(MemRepairError::NoSpareRow);
        }
        self.row_map[row] = self.geom.data_rows() + self.spare_rows_used;
        self.spare_rows_used += 1;
        self.cells.fill(false);
        Ok(())
    }

    fn steer_col(&mut self, col: usize) -> Result<(), MemRepairError> {
        if self.spare_cols_used >= self.geom.spare_cols {
            return Err(MemRepairError::NoSpareCol);
        }
        self.col_map[col] = self.geom.data_cols() + self.spare_cols_used;
        self.spare_cols_used += 1;
        self.cells.fill(false);
        Ok(())
    }

    /// The double-background March C- walk over materialized address
    /// lists, with the same condensation as `march_cminus`.
    fn march(&mut self) -> MarchReport {
        let geom = self.geom;
        let (rows, slots, code) = (geom.data_rows(), geom.words_per_row(), geom.code_bits());
        let mask: u32 = (1 << code) - 1;
        let cols = slots * code;
        let mut failed = vec![false; rows * cols];
        let mut report = MarchReport::default();
        let asc: Vec<(usize, usize)> = (0..rows)
            .flat_map(|r| (0..slots).map(move |s| (r, s)))
            .collect();
        let desc: Vec<(usize, usize)> = asc.iter().rev().copied().collect();
        for checker in [false, true] {
            let bg = |r: usize, s: usize| match (checker, (r + s).is_multiple_of(2)) {
                (false, _) => 0,
                (true, true) => 0x2AAAAA & mask,
                (true, false) => !0x2AAAAAu32 & mask,
            };
            for &(r, s) in &asc {
                self.bist_write(r, s, bg(r, s));
            }
            for (order, flip) in [(&asc, false), (&asc, true), (&desc, false), (&desc, true)] {
                for &(r, s) in order {
                    let expect = if flip { !bg(r, s) & mask } else { bg(r, s) };
                    let diff = self.bist_read(r, s) ^ expect;
                    report.reads += 1;
                    for b in (0..code).filter(|&b| diff >> b & 1 == 1) {
                        failed[r * cols + s * code + b] = true;
                        report.fails += 1;
                    }
                    self.bist_write(r, s, !expect & mask);
                }
            }
            for &(r, s) in &asc {
                let diff = self.bist_read(r, s) ^ bg(r, s);
                report.reads += 1;
                for b in (0..code).filter(|&b| diff >> b & 1 == 1) {
                    failed[r * cols + s * code + b] = true;
                    report.fails += 1;
                }
            }
        }
        let cell_failed = |r: usize, c: usize| failed[r * cols + c];
        let row_count = |r: usize| (0..cols).filter(|&c| cell_failed(r, c)).count();
        let bad_row = |r: usize| row_count(r) >= cols.div_ceil(4);
        report.bad_rows = (0..rows).filter(|&r| bad_row(r)).collect();
        let live_rows = rows - report.bad_rows.len();
        for c in 0..cols {
            let outside = (0..rows)
                .filter(|&r| !bad_row(r) && cell_failed(r, c))
                .count();
            if outside >= live_rows.max(1).div_ceil(2).max(2) {
                report.bad_cols.push(c);
            }
        }
        for r in (0..rows).filter(|&r| !bad_row(r)) {
            for c in 0..cols {
                if cell_failed(r, c) && !report.bad_cols.contains(&c) {
                    report.bad_cells.push((r, c));
                }
            }
        }
        self.reset_state();
        report
    }
}

/// A random defect of any of the six classes, anywhere in the physical
/// array (spare rows and columns included; bridges inside one word slot).
fn random_defect(geom: &MemGeometry, rng: &mut ChaCha8Rng) -> MemDefect {
    let code = geom.code_bits();
    let row = rng.random_range(0..geom.total_rows());
    let col = rng.random_range(0..geom.total_cols());
    let value = rng.random_bool(0.5);
    match rng.random_range(0..6u32) {
        0 => MemDefect::StuckCell { row, col, value },
        1 => MemDefect::RowStuck { row },
        2 => MemDefect::ColStuck { col, value },
        3 => MemDefect::SenseAmp { col },
        4 => MemDefect::WriteDriver { col },
        _ => MemDefect::Bridge {
            col: rng.random_range(0..geom.words_per_row()) * code + rng.random_range(0..code - 1),
        },
    }
}

/// A random lifetime: permanent, transient or intermittent, a third each.
fn random_state(rng: &mut ChaCha8Rng) -> Option<ActivationState> {
    let activation = match rng.random_range(0..3u32) {
        0 => return None,
        1 => Activation::Transient {
            per_eval_probability: rng.random_range(0.2..0.8),
        },
        _ => {
            let period = rng.random_range(1..6u32);
            Activation::Intermittent {
                period,
                duty: rng.random_range(0..=period),
            }
        }
    };
    Some(ActivationState::new(activation, rng.random::<u64>()))
}

fn add_defect(mem: &mut WeightMemory, oracle: &mut RefMemory, rng: &mut ChaCha8Rng) {
    let defect = random_defect(&mem.geometry(), rng);
    let state = random_state(rng);
    oracle.defects.push((defect.clone(), state.clone()));
    mem.push_defect(defect, state);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of every store operation over random
    /// defects of all six classes and three lifetimes, ECC on and off:
    /// the word-level model matches the bit-by-bit oracle call for call.
    #[test]
    fn word_store_matches_the_bitwise_oracle(seed in any::<u64>(), ecc in any::<bool>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geom = MemGeometry {
            hidden_rows: rng.random_range(1..4),
            output_rows: rng.random_range(1..3),
            hidden_synapses: rng.random_range(1..7),
            output_synapses: rng.random_range(1..4),
            spare_rows: 2,
            spare_cols: 4,
            ecc,
        };
        let code = geom.code_bits();
        let mut mem = WeightMemory::new(geom);
        let mut oracle = RefMemory::new(geom);
        for _ in 0..rng.random_range(1..7) {
            add_defect(&mut mem, &mut oracle, &mut rng);
        }
        for step in 0..60 {
            let row = rng.random_range(0..geom.data_rows());
            let slot = rng.random_range(0..geom.words_per_row());
            match rng.random_range(0..100u32) {
                0..=39 => {
                    let (bank, lane) = if row < geom.hidden_rows {
                        (Bank::Hidden, row)
                    } else {
                        (Bank::Output, row - geom.hidden_rows)
                    };
                    let raw = rng.random::<u16>();
                    let got = mem.fetch(bank, lane, slot, Fx::from_bits(raw)).to_bits();
                    prop_assert_eq!(got, oracle.fetch(row, slot, raw), "fetch at step {}", step);
                }
                40..=59 => {
                    let bits = rng.random::<u32>() & ((1 << code) - 1);
                    mem.bist_write(row, slot, bits);
                    oracle.bist_write(row, slot, bits);
                }
                60..=79 => {
                    let got = mem.bist_read(row, slot);
                    prop_assert_eq!(got, oracle.bist_read(row, slot), "bist_read at step {}", step);
                }
                80..=83 => prop_assert_eq!(mem.scrub(), oracle.scrub(), "scrub at step {}", step),
                84..=86 => prop_assert_eq!(
                    mem.steer_row(row),
                    oracle.steer_row(row),
                    "steer_row at step {}",
                    step
                ),
                87..=90 => {
                    let col = rng.random_range(0..geom.data_cols());
                    prop_assert_eq!(mem.steer_col(col), oracle.steer_col(col), "steer_col at step {}", step);
                }
                91..=92 => {
                    mem.reset_state();
                    oracle.reset_state();
                }
                93..=95 => add_defect(&mut mem, &mut oracle, &mut rng),
                _ => prop_assert_eq!(march_cminus(&mut mem), oracle.march(), "march at step {}", step),
            }
            prop_assert_eq!(mem.ecc_counters(), oracle.ecc_counters, "ecc counters at step {}", step);
            prop_assert_eq!(mem.accesses(), oracle.accesses, "accesses at step {}", step);
        }
        prop_assert_eq!(march_cminus(&mut mem), oracle.march(), "final march");
    }
}

fn add_permanent_defect(mem: &mut WeightMemory, oracle: &mut RefMemory, rng: &mut ChaCha8Rng) {
    let defect = random_defect(&mem.geometry(), rng);
    oracle.defects.push((defect.clone(), None));
    mem.push_defect(defect, None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same oracle and op mix, aimed at the store's fast paths. Each
    /// case fetches a pool of three weight values, and every operation
    /// lands on a pool of four addresses, so repeat fetches hit the
    /// fetch memo and the writes, reads, resets, steering and new
    /// defects in between exercise each of its invalidations. Half of
    /// the cases carry only permanent defects, so March and scrub walk
    /// only the faulty words.
    #[test]
    fn store_fast_paths_match_the_bitwise_oracle(
        seed in any::<u64>(),
        ecc in any::<bool>(),
        permanent in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geom = MemGeometry {
            hidden_rows: rng.random_range(1..4),
            output_rows: rng.random_range(1..3),
            hidden_synapses: rng.random_range(1..7),
            output_synapses: rng.random_range(1..4),
            spare_rows: 2,
            spare_cols: 4,
            ecc,
        };
        let code = geom.code_bits();
        let values: Vec<u16> = (0..3).map(|_| rng.random()).collect();
        let addrs: Vec<(usize, usize)> = (0..4)
            .map(|_| {
                (
                    rng.random_range(0..geom.data_rows()),
                    rng.random_range(0..geom.words_per_row()),
                )
            })
            .collect();
        let add = |mem: &mut WeightMemory, oracle: &mut RefMemory, rng: &mut ChaCha8Rng| {
            if permanent {
                add_permanent_defect(mem, oracle, rng);
            } else {
                add_defect(mem, oracle, rng);
            }
        };
        let mut mem = WeightMemory::new(geom);
        let mut oracle = RefMemory::new(geom);
        for _ in 0..rng.random_range(1..7) {
            add(&mut mem, &mut oracle, &mut rng);
        }
        for step in 0..80 {
            let (row, slot) = addrs[rng.random_range(0..addrs.len())];
            match rng.random_range(0..100u32) {
                0..=39 => {
                    let (bank, lane) = if row < geom.hidden_rows {
                        (Bank::Hidden, row)
                    } else {
                        (Bank::Output, row - geom.hidden_rows)
                    };
                    let raw = values[rng.random_range(0..values.len())];
                    let got = mem.fetch(bank, lane, slot, Fx::from_bits(raw)).to_bits();
                    prop_assert_eq!(got, oracle.fetch(row, slot, raw), "fetch at step {}", step);
                }
                40..=59 => {
                    let bits = rng.random::<u32>() & ((1 << code) - 1);
                    mem.bist_write(row, slot, bits);
                    oracle.bist_write(row, slot, bits);
                }
                60..=79 => {
                    let got = mem.bist_read(row, slot);
                    prop_assert_eq!(got, oracle.bist_read(row, slot), "bist_read at step {}", step);
                }
                80..=83 => prop_assert_eq!(mem.scrub(), oracle.scrub(), "scrub at step {}", step),
                84..=86 => prop_assert_eq!(
                    mem.steer_row(row),
                    oracle.steer_row(row),
                    "steer_row at step {}",
                    step
                ),
                87..=90 => {
                    let col = rng.random_range(0..geom.data_cols());
                    prop_assert_eq!(mem.steer_col(col), oracle.steer_col(col), "steer_col at step {}", step);
                }
                91..=92 => {
                    mem.reset_state();
                    oracle.reset_state();
                }
                93..=95 => add(&mut mem, &mut oracle, &mut rng),
                _ => prop_assert_eq!(march_cminus(&mut mem), oracle.march(), "march at step {}", step),
            }
            prop_assert_eq!(mem.ecc_counters(), oracle.ecc_counters, "ecc counters at step {}", step);
            prop_assert_eq!(mem.accesses(), oracle.accesses, "accesses at step {}", step);
        }
        prop_assert_eq!(march_cminus(&mut mem), oracle.march(), "final march");
    }
}

fn tiny_geom() -> MemGeometry {
    MemGeometry {
        hidden_rows: 2,
        output_rows: 1,
        hidden_synapses: 3,
        output_synapses: 2,
        spare_rows: 1,
        spare_cols: 2,
        ecc: true,
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn push_defect_refuses_a_row_past_the_array() {
    let geom = tiny_geom();
    WeightMemory::new(geom).push_defect(
        MemDefect::RowStuck {
            row: geom.total_rows(),
        },
        None,
    );
}

#[test]
#[should_panic(expected = "out of range")]
fn push_defect_refuses_a_cell_column_past_the_array() {
    let geom = tiny_geom();
    WeightMemory::new(geom).push_defect(
        MemDefect::StuckCell {
            row: 0,
            col: geom.total_cols(),
            value: true,
        },
        None,
    );
}

#[test]
#[should_panic(expected = "crosses a word slot")]
fn push_defect_refuses_a_bridge_into_the_next_slot() {
    let geom = tiny_geom();
    let code = geom.code_bits();
    WeightMemory::new(geom).push_defect(MemDefect::Bridge { col: code - 1 }, None);
}
