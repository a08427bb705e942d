//! The physical PE grid: geometry, per-PE defects under the shared
//! activation taxonomy, and the bypass/row-remap repair state the
//! recovery ladder manipulates.
//!
//! A processing element (PE) is one multiply-accumulate stage of a
//! column: it receives a partial sum from the PE above, adds the
//! product of its stationary weight and the streaming activation, and
//! latches the result for the PE below. Defects therefore come in four
//! classes — a stuck product bit, a stuck sum bit, a stuck bit of the
//! result register (which corrupts even idle pass-through), and a dead
//! PE that forwards its incoming partial sum unchanged.
//!
//! Each class lowers to fixed bit masks, so the grid compiles every PE
//! into one `PeMask` and keeps the table current as defects arrive
//! and repairs are installed; the MAC kernel only reads it.

use std::fmt;

use rand::Rng;

use dta_ann::{FaultSite, Layer, UnitKind};
use dta_circuits::{Activation, ActivationState};
use dta_fixed::Fx;

/// Shape of the PE grid: `rows × cols` schedule positions plus
/// `spare_rows` physical rows held in reserve for the grid-remap rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridGeometry {
    /// Schedule rows (synapse positions per tile).
    pub rows: usize,
    /// Columns (neurons per tile).
    pub cols: usize,
    /// Spare physical rows beyond the schedule rows.
    pub spare_rows: usize,
}

impl GridGeometry {
    /// Physical rows, spares included.
    pub fn phys_rows(&self) -> usize {
        self.rows + self.spare_rows
    }

    /// Total physical PEs, spares included.
    pub fn pes(&self) -> usize {
        self.phys_rows() * self.cols
    }
}

impl Default for GridGeometry {
    /// The reference grid: 16×10 schedule positions with 2 spare rows —
    /// small enough that the 90-input layer needs several row tiles
    /// (exercising the schedule), large enough that one column tile
    /// covers the 10-neuron layers of the paper's geometry.
    fn default() -> GridGeometry {
        GridGeometry {
            rows: 16,
            cols: 10,
            spare_rows: 2,
        }
    }
}

/// The defect classes of one PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeFaultKind {
    /// One bit of the multiplier's product word is stuck.
    StuckMulBit {
        /// Affected bit position (0..16).
        bit: u32,
        /// `true` = stuck-at-1, `false` = stuck-at-0.
        stuck_one: bool,
    },
    /// One bit of the accumulation adder's sum word is stuck.
    StuckAddBit {
        /// Affected bit position (0..16).
        bit: u32,
        /// `true` = stuck-at-1, `false` = stuck-at-0.
        stuck_one: bool,
    },
    /// One bit of the PE's result register is stuck: corrupts every
    /// word latched through the PE, including idle pass-through.
    StuckAccBit {
        /// Affected bit position (0..16).
        bit: u32,
        /// `true` = stuck-at-1, `false` = stuck-at-0.
        stuck_one: bool,
    },
    /// The PE contributes nothing: the incoming partial sum is
    /// forwarded unchanged (the MAC result is lost).
    DeadPe,
}

impl fmt::Display for PeFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sa = |one: bool| if one { 1 } else { 0 };
        match self {
            PeFaultKind::StuckMulBit { bit, stuck_one } => {
                write!(f, "mul-bit{bit}@{}", sa(*stuck_one))
            }
            PeFaultKind::StuckAddBit { bit, stuck_one } => {
                write!(f, "add-bit{bit}@{}", sa(*stuck_one))
            }
            PeFaultKind::StuckAccBit { bit, stuck_one } => {
                write!(f, "acc-bit{bit}@{}", sa(*stuck_one))
            }
            PeFaultKind::DeadPe => write!(f, "dead"),
        }
    }
}

/// One injected PE defect: location, class, and its activation stream
/// under the shared permanent/transient/intermittent taxonomy.
#[derive(Debug)]
pub struct PeDefect {
    /// Physical row of the host PE.
    pub row: usize,
    /// Column of the host PE.
    pub col: usize,
    /// Defect class.
    pub kind: PeFaultKind,
    state: ActivationState,
}

/// Per-pass activation snapshot: `mask[d]` is whether defect `d` is
/// active during the current forward pass (advanced once per pass, so
/// both layers of an MLP see the same fault state — the pass is one
/// "cycle" of the taxonomy's clock).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassMask(Vec<bool>);

impl PassMask {
    /// Whether defect `d` is active this pass (defects the snapshot
    /// does not cover are inactive).
    pub fn is_active(&self, d: usize) -> bool {
        self.0.get(d).copied().unwrap_or(false)
    }
}

/// The fault one PE applies to every word it handles, compiled from
/// its active defects into AND/OR masks per datapath stage: product,
/// sum, keep-select (all ones while the PE adds its product, zero for
/// a dead or bypassed PE, which forwards the incoming partial sum) and
/// result register. A stuck bit forces `v ↦ (v & !b) | (stuck · b)`;
/// stuck bits of one stage compose in defect-index order, so a later
/// defect wins a shared bit. [`PeMask::HEALTHY`] passes every word
/// through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PeMask {
    mul_and: u16,
    mul_or: u16,
    /// The sum, keep-select and register stages folded into one
    /// select on the sum `s` and the incoming `acc`:
    /// `(((s & sum_and | sum_or) & keep | acc & !keep) & acc_and) |
    /// acc_or` is `s & pass | acc & hold | set`, so only two operations
    /// follow the add on the accumulation chain.
    pass: u16,
    hold: u16,
    set: u16,
    acc_and: u16,
    acc_or: u16,
}

/// One stage's `(and, or)` pair.
type Stage = (u16, u16);

/// The stage that forces no bit.
const CLEAN: Stage = (!0, 0);

impl PeMask {
    /// A PE with no active fault: the native saturating MAC.
    const HEALTHY: PeMask = PeMask::fold(CLEAN, CLEAN, !0, CLEAN);

    /// A bypassed PE: its register is routed around, so every word
    /// passes untouched whatever its defects.
    const BYPASSED: PeMask = PeMask::fold(CLEAN, CLEAN, 0, CLEAN);

    const fn fold(mul: Stage, sum: Stage, keep: u16, acc: Stage) -> PeMask {
        PeMask {
            mul_and: mul.0,
            mul_or: mul.1,
            pass: sum.0 & keep & acc.0,
            hold: !keep & acc.0,
            set: (sum.1 & keep & acc.0) | acc.1,
            acc_and: acc.0,
            acc_or: acc.1,
        }
    }

    /// One MAC step: `acc + w·x` with the stages faulted in order —
    /// product bits, sum bits, the dead-PE drop, then the result
    /// register bits.
    #[inline(always)]
    pub(crate) fn mac(&self, acc: Fx, w: Fx, x: Fx) -> Fx {
        let p = ((w * x).to_bits() & self.mul_and) | self.mul_or;
        let s = (acc + Fx::from_bits(p)).to_bits();
        Fx::from_bits((s & self.pass) | (acc.to_bits() & self.hold) | self.set)
    }

    /// An idle step (no synapse on this PE): the partial sum passes
    /// through the result register, so only register bits apply.
    #[inline(always)]
    pub(crate) fn idle(&self, acc: Fx) -> Fx {
        Fx::from_bits((acc.to_bits() & self.acc_and) | self.acc_or)
    }
}

/// Composes one stuck bit onto a stage.
fn stick(stage: &mut Stage, bit: u32, stuck_one: bool) {
    debug_assert!(bit < 16);
    stage.0 &= !(1u16 << bit);
    stage.1 = (stage.1 & !(1u16 << bit)) | (u16::from(stuck_one) << bit);
}

/// The weight-stationary PE grid with its defect and repair state.
#[derive(Debug)]
pub struct PeGrid {
    geom: GridGeometry,
    defects: Vec<PeDefect>,
    /// Defect indices per PE (`phys_row * cols + col`), in injection
    /// order.
    by_pe: Vec<Vec<u32>>,
    /// The compiled fault of every PE (`phys_row * cols + col`), bypass
    /// applied and every permanent defect active. Rebuilt per PE on
    /// injection and bypass; a row remap leaves it valid because it is
    /// indexed by physical PE. Entries in `dynamic_pes` are refreshed
    /// by [`PeGrid::advance_pass`].
    masks: Vec<PeMask>,
    /// PEs hosting a transient or intermittent defect, ascending.
    dynamic_pes: Vec<usize>,
    /// Schedule row → physical row (identity until the grid-remap rung
    /// steers rows onto spares).
    row_map: Vec<usize>,
    /// Per-PE bypass latches (`phys_row * cols + col`): a bypassed PE
    /// forwards the partial sum untouched — fail-silent, Zhang-style.
    bypass: Vec<bool>,
    /// Chaos hook: milliseconds each BIST probe of one PE stalls (a
    /// model of pathologically slow silicon; `None` in production).
    chaos_stall_ms: Option<u64>,
}

impl PeGrid {
    /// An all-healthy grid with the identity row mapping.
    pub fn new(geom: GridGeometry) -> PeGrid {
        PeGrid {
            geom,
            defects: Vec::new(),
            by_pe: vec![Vec::new(); geom.pes()],
            masks: vec![PeMask::HEALTHY; geom.pes()],
            dynamic_pes: Vec::new(),
            row_map: (0..geom.rows).collect(),
            bypass: vec![false; geom.pes()],
            chaos_stall_ms: None,
        }
    }

    /// Chaos hook: make every BIST probe of one PE stall `ms`
    /// milliseconds, so watchdog fall-through paths can be exercised
    /// against a hanging PE self-test. `None` disables the hook.
    pub fn set_chaos_stall(&mut self, ms: Option<u64>) {
        self.chaos_stall_ms = ms;
    }

    /// The configured per-PE probe stall, if any.
    pub fn chaos_stall(&self) -> Option<u64> {
        self.chaos_stall_ms
    }

    /// The grid's shape.
    pub fn geometry(&self) -> GridGeometry {
        self.geom
    }

    /// All injected defects.
    pub fn defects(&self) -> &[PeDefect] {
        &self.defects
    }

    /// The schedule-row → physical-row mapping.
    pub fn row_map(&self) -> &[usize] {
        &self.row_map
    }

    /// The compiled per-PE faults (`phys_row * cols + col`) under the
    /// installed bypasses and the current pass.
    pub(crate) fn masks(&self) -> &[PeMask] {
        &self.masks
    }

    /// True when any defect is injected.
    pub fn has_defects(&self) -> bool {
        !self.defects.is_empty()
    }

    /// True when a transient or intermittent defect is injected, so
    /// every pass must advance the activation streams.
    pub(crate) fn has_dynamic_defects(&self) -> bool {
        !self.dynamic_pes.is_empty()
    }

    fn pe_index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.geom.phys_rows(), "row {row} out of grid");
        assert!(col < self.geom.cols, "col {col} out of grid");
        row * self.geom.cols + col
    }

    /// Injects one defect at a specific PE.
    ///
    /// # Panics
    ///
    /// Panics if the PE coordinates are outside the physical grid.
    pub fn inject(
        &mut self,
        row: usize,
        col: usize,
        kind: PeFaultKind,
        activation: Activation,
        seed: u64,
    ) {
        let pe = self.pe_index(row, col);
        let idx = self.defects.len() as u32;
        self.defects.push(PeDefect {
            row,
            col,
            kind,
            state: ActivationState::new(activation, seed),
        });
        self.by_pe[pe].push(idx);
        if !activation.is_permanent() {
            if let Err(at) = self.dynamic_pes.binary_search(&pe) {
                self.dynamic_pes.insert(at, pe);
            }
        }
        self.compile(pe, |_| true);
    }

    /// Injects `n` random defects (uniform PE, uniform class, random
    /// stuck bit/polarity) under the given activation model. Returns
    /// one human-readable record per defect, mirroring the spatial
    /// array's `inject_defects`.
    pub fn inject_random<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Vec<String> {
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let row = rng.random_range(0..self.geom.phys_rows());
            let col = rng.random_range(0..self.geom.cols);
            let kind = match rng.random_range(0..4u32) {
                0 => PeFaultKind::StuckMulBit {
                    bit: rng.random_range(0..16u32),
                    stuck_one: rng.random::<bool>(),
                },
                1 => PeFaultKind::StuckAddBit {
                    bit: rng.random_range(0..16u32),
                    stuck_one: rng.random::<bool>(),
                },
                2 => PeFaultKind::StuckAccBit {
                    bit: rng.random_range(0..16u32),
                    stuck_one: rng.random::<bool>(),
                },
                _ => PeFaultKind::DeadPe,
            };
            let seed = rng.random::<u64>();
            self.inject(row, col, kind, activation, seed);
            records.push(format!("pe[{row},{col}] {kind}"));
        }
        records
    }

    /// Ground-truth fault sites, one per injected defect, in the shared
    /// [`FaultSite`] vocabulary: the PE's column doubles as the neuron
    /// index (column-stationary mapping) and the synapse field carries
    /// the physical row.
    pub fn sites(&self) -> Vec<FaultSite> {
        self.defects
            .iter()
            .map(|d| FaultSite {
                layer: Layer::Hidden,
                neuron: d.col,
                unit: UnitKind::Pe,
                synapse: Some(d.row),
            })
            .collect()
    }

    /// Rewinds every defect's activation stream to power-on.
    pub fn reset_state(&mut self) {
        for d in &mut self.defects {
            d.state.reset();
        }
    }

    /// Advances every defect's activation stream by one pass and
    /// snapshots which are active.
    pub fn pass_mask(&mut self) -> PassMask {
        PassMask(self.defects.iter_mut().map(|d| d.state.advance()).collect())
    }

    /// Starts one forward pass: advances the activation streams and
    /// refreshes the masks of the PEs hosting a dynamic defect. When
    /// every defect is permanent nothing changes from pass to pass, so
    /// no stream is drawn (a permanent stream has no state to
    /// advance).
    pub(crate) fn advance_pass(&mut self) {
        if self.dynamic_pes.is_empty() {
            return;
        }
        let pass = self.pass_mask();
        for k in 0..self.dynamic_pes.len() {
            self.compile(self.dynamic_pes[k], |d| pass.is_active(d));
        }
    }

    /// The fault of the PE at `(row, col)` with the defects `pass`
    /// marks active, ignoring its bypass latch — the raw silicon the
    /// BIST probes.
    ///
    /// # Panics
    ///
    /// Panics if the PE coordinates are outside the physical grid.
    pub(crate) fn raw_mask(&self, row: usize, col: usize, pass: &PassMask) -> PeMask {
        self.compose(self.pe_index(row, col), |d| pass.is_active(d))
    }

    /// Composes PE `pe`'s defects that `active` selects into one mask.
    fn compose(&self, pe: usize, active: impl Fn(usize) -> bool) -> PeMask {
        let (mut mul, mut sum, mut keep, mut acc) = (CLEAN, CLEAN, !0, CLEAN);
        for &di in &self.by_pe[pe] {
            if !active(di as usize) {
                continue;
            }
            match self.defects[di as usize].kind {
                PeFaultKind::StuckMulBit { bit, stuck_one } => stick(&mut mul, bit, stuck_one),
                PeFaultKind::StuckAddBit { bit, stuck_one } => stick(&mut sum, bit, stuck_one),
                PeFaultKind::StuckAccBit { bit, stuck_one } => stick(&mut acc, bit, stuck_one),
                PeFaultKind::DeadPe => keep = 0,
            }
        }
        PeMask::fold(mul, sum, keep, acc)
    }

    /// Rebuilds PE `pe`'s table entry with the defects `active`
    /// selects.
    fn compile(&mut self, pe: usize, active: impl Fn(usize) -> bool) {
        self.masks[pe] = if self.bypass[pe] {
            PeMask::BYPASSED
        } else {
            self.compose(pe, active)
        };
    }

    /// Marks one PE bypassed (fail-silent). Idempotent; returns `true`
    /// if the PE was not already bypassed.
    ///
    /// # Panics
    ///
    /// Panics if the PE coordinates are outside the physical grid.
    pub fn bypass_pe(&mut self, row: usize, col: usize) -> bool {
        let pe = self.pe_index(row, col);
        let fresh = !self.bypass[pe];
        self.bypass[pe] = true;
        self.masks[pe] = PeMask::BYPASSED;
        fresh
    }

    /// Whether a PE is bypassed.
    ///
    /// # Panics
    ///
    /// Panics if the PE coordinates are outside the physical grid.
    pub fn is_bypassed(&self, row: usize, col: usize) -> bool {
        self.bypass[self.pe_index(row, col)]
    }

    /// Re-points schedule row `schedule_row` at physical row
    /// `phys_row`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn remap_row(&mut self, schedule_row: usize, phys_row: usize) {
        assert!(schedule_row < self.geom.rows, "schedule row out of range");
        assert!(
            phys_row < self.geom.phys_rows(),
            "physical row out of range"
        );
        self.row_map[schedule_row] = phys_row;
    }

    /// Measured visible fraction of one defect: random `(acc, w, x)`
    /// MAC triples with only this defect forced active, compared
    /// against the healthy MAC — the grid analog of the spatial
    /// operator visibility models, feeding the degradation estimate.
    pub fn defect_visibility(&self, defect: usize, samples: usize, seed: u64) -> f64 {
        use rand::SeedableRng;
        let d = &self.defects[defect];
        let mask = self.compose(self.pe_index(d.row, d.col), |di| di == defect);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut visible = 0usize;
        for _ in 0..samples {
            let acc = Fx::from_raw(rng.random::<i16>());
            let w = Fx::from_raw(rng.random::<i16>());
            let x = Fx::from_raw(rng.random::<i16>());
            if mask.mac(acc, w, x) != acc + w * x {
                visible += 1;
            }
        }
        visible as f64 / samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled fault of the PE at `(row, col)`.
    fn pe(grid: &PeGrid, row: usize, col: usize) -> PeMask {
        grid.masks()[grid.pe_index(row, col)]
    }

    #[test]
    fn healthy_pe_is_native_mac() {
        let grid = PeGrid::new(GridGeometry::default());
        let (acc, w, x) = (Fx::from_f64(0.5), Fx::from_f64(-1.25), Fx::from_f64(2.0));
        assert_eq!(pe(&grid, 0, 0).mac(acc, w, x), acc + w * x);
        assert_eq!(pe(&grid, 3, 7).idle(acc), acc);
    }

    #[test]
    fn dead_pe_forwards_partial_sum() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(2, 3, PeFaultKind::DeadPe, Activation::Permanent, 1);
        let (acc, w, x) = (Fx::from_f64(0.5), Fx::ONE, Fx::ONE);
        assert_eq!(pe(&grid, 2, 3).mac(acc, w, x), acc);
        // Neighbors are unaffected.
        assert_eq!(pe(&grid, 2, 4).mac(acc, w, x), acc + w * x);
    }

    #[test]
    fn acc_bit_corrupts_idle_passthrough_but_add_bit_does_not() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(
            1,
            1,
            PeFaultKind::StuckAccBit {
                bit: 0,
                stuck_one: true,
            },
            Activation::Permanent,
            7,
        );
        grid.inject(
            1,
            2,
            PeFaultKind::StuckAddBit {
                bit: 0,
                stuck_one: true,
            },
            Activation::Permanent,
            8,
        );
        let acc = Fx::from_bits(0x0100); // LSB clear
        assert_eq!(pe(&grid, 1, 1).idle(acc), Fx::from_bits(0x0101));
        assert_eq!(pe(&grid, 1, 2).idle(acc), acc, "add fault idle-silent");
    }

    #[test]
    fn bypass_silences_every_fault_class() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(
            0,
            0,
            PeFaultKind::StuckAccBit {
                bit: 3,
                stuck_one: true,
            },
            Activation::Permanent,
            9,
        );
        assert!(grid.bypass_pe(0, 0));
        assert!(!grid.bypass_pe(0, 0), "second bypass is a no-op");
        let acc = Fx::from_f64(1.5);
        assert_eq!(pe(&grid, 0, 0).mac(acc, Fx::ONE, Fx::ONE), acc);
        assert_eq!(pe(&grid, 0, 0).idle(acc), acc);
        assert!(grid.is_bypassed(0, 0));
        assert!(!grid.is_bypassed(0, 1));
        // The BIST still sees the raw register fault.
        let pass = grid.pass_mask();
        let raw = grid.raw_mask(0, 0, &pass);
        assert_eq!(raw.idle(Fx::ZERO), Fx::from_bits(1 << 3));
    }

    #[test]
    fn transient_defects_follow_their_activation_stream() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(
            4,
            4,
            PeFaultKind::DeadPe,
            Activation::Transient {
                per_eval_probability: 0.5,
            },
            42,
        );
        let (acc, w, x) = (Fx::ZERO, Fx::ONE, Fx::ONE);
        let run: Vec<bool> = (0..64)
            .map(|_| {
                grid.advance_pass();
                pe(&grid, 4, 4).mac(acc, w, x) == acc
            })
            .collect();
        assert!(run.iter().any(|&b| b), "never activated");
        assert!(run.iter().any(|&b| !b), "always active");
        // Reset rewinds the stream exactly.
        grid.reset_state();
        let replay: Vec<bool> = (0..64)
            .map(|_| {
                grid.advance_pass();
                pe(&grid, 4, 4).mac(acc, w, x) == acc
            })
            .collect();
        assert_eq!(run, replay);
    }

    #[test]
    fn sites_speak_the_shared_vocabulary() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(17, 9, PeFaultKind::DeadPe, Activation::Permanent, 0);
        let sites = grid.sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].layer, Layer::Hidden);
        assert_eq!(sites[0].neuron, 9);
        assert_eq!(sites[0].unit, UnitKind::Pe);
        assert_eq!(sites[0].synapse, Some(17));
        assert_eq!(format!("{}", sites[0]), "hidden[9].pe[17]");
    }

    #[test]
    fn dead_pe_visibility_is_high_and_stuck_bit_partial() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(0, 0, PeFaultKind::DeadPe, Activation::Permanent, 0);
        grid.inject(
            0,
            1,
            PeFaultKind::StuckMulBit {
                bit: 0,
                stuck_one: false,
            },
            Activation::Permanent,
            1,
        );
        let dead = grid.defect_visibility(0, 256, 0xD15);
        let lsb = grid.defect_visibility(1, 256, 0xD15);
        assert!(dead > 0.9, "dead PE visibility {dead}");
        assert!((0.0..=1.0).contains(&lsb));
        assert!(lsb < dead, "LSB stuck bit should be less visible");
    }

    #[test]
    fn stuck_bits_of_one_stage_compose_in_injection_order() {
        let mut grid = PeGrid::new(GridGeometry::default());
        let acc_bit = |stuck_one| PeFaultKind::StuckAccBit { bit: 2, stuck_one };
        grid.inject(0, 0, acc_bit(true), Activation::Permanent, 1);
        grid.inject(0, 0, acc_bit(false), Activation::Permanent, 2);
        grid.inject(0, 1, acc_bit(false), Activation::Permanent, 3);
        grid.inject(0, 1, acc_bit(true), Activation::Permanent, 4);
        let ones = Fx::from_bits(0xFFFF);
        assert_eq!(pe(&grid, 0, 0).idle(ones), Fx::from_bits(0xFFFB));
        assert_eq!(pe(&grid, 0, 1).idle(Fx::ZERO), Fx::from_bits(0x0004));
    }

    #[test]
    #[should_panic(expected = "col 10 out of grid")]
    fn is_bypassed_rejects_a_column_outside_the_grid() {
        // (0, 10) would alias PE (1, 0) on a 10-column grid.
        PeGrid::new(GridGeometry::default()).is_bypassed(0, 10);
    }
}
