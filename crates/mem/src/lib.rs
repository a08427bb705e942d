#![warn(missing_docs)]

//! Bit-cell model of the accelerator's weight/activation store with
//! array-structured SRAM defect injection, SEC-DED ECC, March BIST and
//! spare row/column repair.
//!
//! The paper's defect story (and this reproduction through PR 6) injects
//! faults only into datapath gates; real accelerators die at least as
//! often in their SRAMs. This crate opens that second fault surface:
//!
//! * [`WeightMemory`] — the weight store as a physical bit-cell array
//!   (hidden rows, output rows, spare rows/columns), fetched with the
//!   companion-core write-then-read discipline so a healthy array is
//!   exactly bit-invisible on the Q6.10 forward path;
//! * [`MemDefect`] — stuck bit cells, whole row/column failures,
//!   sense-amp and write-driver faults, and bitline bridges, each riding
//!   the same seeded [`Activation`] lifetime taxonomy
//!   (permanent / transient / intermittent) as transistor defects;
//! * [`ecc`] — a SEC-DED (22,16) extended Hamming code protecting every
//!   stored word;
//! * [`march_cminus`] — a double-background March C- BIST that localizes
//!   faults to row/column/cell granularity, and [`apply_repairs`] which
//!   steers the flagged units onto spares.
//!
//! Everything is deterministic from its seed: injection draws from a
//! caller-provided RNG and dynamic defect lifetimes use the same
//! `ActivationState` ChaCha8 state machine as the transistor layer.

pub mod array;
pub mod ecc;
pub mod march;

pub use array::{
    Bank, EccCounters, MemDefect, MemDefectState, MemGeometry, MemRepairError, ScrubReport,
    WeightMemory, RAW_BITS,
};
pub use ecc::{decode, encode, EccStatus, CODE_BITS, DATA_BITS};
pub use march::{apply_repairs, march_cminus, march_cminus_guarded, MarchReport, RepairSummary};

// Re-exported so downstream crates name one source for the lifetime taxonomy.
pub use dta_transistor::{Activation, ActivationState};

#[cfg(test)]
mod tests {
    use super::*;
    use dta_fixed::Fx;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_geom(ecc: bool) -> MemGeometry {
        MemGeometry {
            hidden_rows: 4,
            output_rows: 3,
            hidden_synapses: 6,
            output_synapses: 4,
            spare_rows: 2,
            spare_cols: 4,
            ecc,
        }
    }

    #[test]
    fn healthy_fetch_is_identity() {
        for ecc in [false, true] {
            let mut mem = WeightMemory::new(small_geom(ecc));
            assert!(mem.is_transparent());
            for raw in [0u16, 0xFFFF, 0x8001, 0x0400, 0x1234] {
                let w = Fx::from_bits(raw);
                assert_eq!(
                    mem.fetch(Bank::Hidden, 2, 3, w),
                    w,
                    "ecc={ecc} raw={raw:#06x}"
                );
                assert_eq!(
                    mem.fetch(Bank::Output, 1, 0, w),
                    w,
                    "ecc={ecc} raw={raw:#06x}"
                );
            }
            assert_eq!(mem.ecc_counters(), EccCounters::default());
        }
    }

    #[test]
    fn ecc_absorbs_a_single_stuck_data_cell() {
        let mut mem = WeightMemory::new(small_geom(true));
        // Stick one bit of hidden row 1, slot 2 to 1.
        let code = mem.geometry().code_bits();
        mem.push_defect(
            MemDefect::StuckCell {
                row: 1,
                col: 2 * code + 5,
                value: true,
            },
            None,
        );
        let w = Fx::from_bits(0x0000);
        assert_eq!(
            mem.fetch(Bank::Hidden, 1, 2, w),
            w,
            "single stuck cell must be corrected"
        );
        assert_eq!(mem.ecc_counters().corrected, 1);
    }

    #[test]
    fn raw_array_exposes_the_same_stuck_cell() {
        let mut mem = WeightMemory::new(small_geom(false));
        let code = mem.geometry().code_bits();
        mem.push_defect(
            MemDefect::StuckCell {
                row: 1,
                col: 2 * code + 5,
                value: true,
            },
            None,
        );
        let w = Fx::from_bits(0x0000);
        assert_eq!(mem.fetch(Bank::Hidden, 1, 2, w).to_bits(), 1 << 5);
    }

    #[test]
    fn march_detects_each_defect_class_and_repairs_restore_clean() {
        let geom = small_geom(true);
        let code = geom.code_bits();
        let cases: Vec<(MemDefect, &str)> = vec![
            (
                MemDefect::StuckCell {
                    row: 2,
                    col: 7,
                    value: true,
                },
                "stuck cell",
            ),
            (MemDefect::RowStuck { row: 3 }, "row failure"),
            (
                MemDefect::ColStuck {
                    col: 2 * code + 1,
                    value: false,
                },
                "column failure",
            ),
            (MemDefect::SenseAmp { col: 11 }, "sense amp"),
            (MemDefect::WriteDriver { col: 4 }, "write driver"),
            (MemDefect::Bridge { col: 3 * code + 2 }, "bitline bridge"),
        ];
        for (defect, label) in cases {
            let mut mem = WeightMemory::new(geom);
            mem.push_defect(defect.clone(), None);
            let report = march_cminus(&mut mem);
            assert!(!report.clean(), "{label} must be detected");
            match &defect {
                MemDefect::StuckCell { row, col, .. } => {
                    assert_eq!(report.bad_cells, vec![(*row, *col)], "{label}");
                }
                MemDefect::RowStuck { row } => {
                    assert_eq!(report.bad_rows, vec![*row], "{label}");
                }
                MemDefect::ColStuck { col, .. }
                | MemDefect::SenseAmp { col }
                | MemDefect::WriteDriver { col } => {
                    assert_eq!(report.bad_cols, vec![*col], "{label}");
                }
                MemDefect::Bridge { col } => {
                    assert_eq!(report.bad_cols, vec![*col, col + 1], "{label}");
                }
            }
            // Steering the flagged units must silence the array.
            let summary = apply_repairs(&mut mem, &report);
            if matches!(defect, MemDefect::StuckCell { .. }) {
                // A lone cell is left to the ECC, not a spare.
                assert_eq!(summary.rows_steered + summary.cols_steered, 0, "{label}");
            } else {
                assert!(march_cminus(&mut mem).clean(), "{label} must repair clean");
            }
        }
    }

    #[test]
    fn injection_is_deterministic_from_the_seed() {
        let geom = MemGeometry::accelerator();
        let mut a = WeightMemory::new(geom);
        let mut b = WeightMemory::new(geom);
        let mut rng_a = ChaCha8Rng::seed_from_u64(0x5EED);
        let mut rng_b = ChaCha8Rng::seed_from_u64(0x5EED);
        let ra = a.inject_many(12, Activation::Permanent, &mut rng_a);
        let rb = b.inject_many(12, Activation::Permanent, &mut rng_b);
        assert_eq!(ra, rb);
        assert_eq!(a.records(), rb.as_slice());
    }

    #[test]
    fn transient_defects_disqualify_vectorization_and_reset_rewinds() {
        let mut mem = WeightMemory::new(small_geom(true));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        mem.inject_many(
            3,
            Activation::Transient {
                per_eval_probability: 0.5,
            },
            &mut rng,
        );
        assert!(!mem.vectorizable());
        let w = Fx::from_bits(0x0400);
        let first: Vec<u16> = (0..32)
            .map(|i| mem.fetch(Bank::Hidden, 0, i % 7, w).to_bits())
            .collect();
        mem.reset_state();
        let second: Vec<u16> = (0..32)
            .map(|i| mem.fetch(Bank::Hidden, 0, i % 7, w).to_bits())
            .collect();
        assert_eq!(first, second, "reset_state must rewind the fault sequence");
    }

    #[test]
    fn guarded_march_aborts_on_a_tripped_flag_and_matches_when_clear() {
        let mut mem = WeightMemory::new(small_geom(true));
        mem.push_defect(MemDefect::RowStuck { row: 1 }, None);
        let tripped = std::sync::atomic::AtomicBool::new(true);
        assert_eq!(march_cminus_guarded(&mut mem, &tripped), None);
        // The abort path leaves the array power-on clean: a follow-up
        // guarded walk with a clear flag matches the plain entry point.
        let clear = std::sync::atomic::AtomicBool::new(false);
        let guarded = march_cminus_guarded(&mut mem, &clear).unwrap();
        let plain = march_cminus(&mut mem);
        assert_eq!(guarded, plain);
        assert_eq!(guarded.bad_rows, vec![1]);
    }

    #[test]
    fn scrub_localizes_uncorrectable_words() {
        let mut mem = WeightMemory::new(small_geom(true));
        let code = mem.geometry().code_bits();
        // Two stuck cells in the same word defeat SEC-DED.
        for bit in [3usize, 9] {
            mem.push_defect(
                MemDefect::StuckCell {
                    row: 2,
                    col: 5 * code + bit,
                    value: true,
                },
                None,
            );
        }
        let report = mem.scrub();
        assert_eq!(report.uncorrectable, vec![(2, 5)]);
    }
}
