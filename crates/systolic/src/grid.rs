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

/// Forces one bit of a Q6.10 word — the stuck-at lowering shared by all
/// three stuck-bit classes.
fn force_bit(v: Fx, bit: u32, stuck_one: bool) -> Fx {
    debug_assert!(bit < 16);
    Fx::from_bits((v.to_bits() & !(1u16 << bit)) | ((u16::from(stuck_one)) << bit))
}

/// The weight-stationary PE grid with its defect and repair state.
#[derive(Debug)]
pub struct PeGrid {
    geom: GridGeometry,
    defects: Vec<PeDefect>,
    /// Defect indices per PE (`phys_row * cols + col`), rebuilt on
    /// injection so the MAC inner loop touches only its own faults.
    by_pe: Vec<Vec<u32>>,
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

    /// True while the grid carries no repairs (identity row map, no
    /// bypassed PE) — together with an empty defect list this enables
    /// the fault-free fast path.
    pub fn is_pristine_routing(&self) -> bool {
        self.row_map.iter().enumerate().all(|(r, &p)| r == p) && self.bypass.iter().all(|&b| !b)
    }

    /// True when any defect is injected.
    pub fn has_defects(&self) -> bool {
        !self.defects.is_empty()
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
    /// snapshots which are active — call exactly once per forward pass.
    pub fn pass_mask(&mut self) -> PassMask {
        PassMask(self.defects.iter_mut().map(|d| d.state.advance()).collect())
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
        fresh
    }

    /// Whether a PE is bypassed.
    pub fn is_bypassed(&self, row: usize, col: usize) -> bool {
        self.bypass[row * self.geom.cols + col]
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

    /// One MAC step of the (possibly faulty) PE at physical
    /// coordinates `(row, col)`: `acc + w·x` with this pass's active
    /// faults applied in stage order — product bits, then sum bits,
    /// then the dead-PE drop, then the result-register bits. A
    /// bypassed PE forwards `acc` untouched (its register is routed
    /// around entirely).
    pub fn pe_step(&self, row: usize, col: usize, acc: Fx, w: Fx, x: Fx, mask: &PassMask) -> Fx {
        if self.bypass[row * self.geom.cols + col] {
            return acc;
        }
        self.pe_step_raw(row, col, acc, w, x, mask)
    }

    /// The MAC step ignoring the bypass latch — the raw hardware
    /// behavior the BIST probes.
    pub fn pe_step_raw(
        &self,
        row: usize,
        col: usize,
        acc: Fx,
        w: Fx,
        x: Fx,
        mask: &PassMask,
    ) -> Fx {
        let idxs = &self.by_pe[row * self.geom.cols + col];
        if idxs.is_empty() {
            return acc + w * x;
        }
        let active = |di: u32| mask.0.get(di as usize).copied().unwrap_or(false);
        let mut product = w * x;
        let mut dead = false;
        for &di in idxs {
            if !active(di) {
                continue;
            }
            match self.defects[di as usize].kind {
                PeFaultKind::StuckMulBit { bit, stuck_one } => {
                    product = force_bit(product, bit, stuck_one);
                }
                PeFaultKind::DeadPe => dead = true,
                _ => {}
            }
        }
        let mut out = acc + product;
        for &di in idxs {
            if !active(di) {
                continue;
            }
            if let PeFaultKind::StuckAddBit { bit, stuck_one } = self.defects[di as usize].kind {
                out = force_bit(out, bit, stuck_one);
            }
        }
        if dead {
            out = acc;
        }
        for &di in idxs {
            if !active(di) {
                continue;
            }
            if let PeFaultKind::StuckAccBit { bit, stuck_one } = self.defects[di as usize].kind {
                out = force_bit(out, bit, stuck_one);
            }
        }
        out
    }

    /// An idle step (the tile has no synapse for this PE): the partial
    /// sum passes through the PE's result register, so only register
    /// faults can corrupt it. Bypassed PEs forward untouched.
    pub fn pe_idle(&self, row: usize, col: usize, acc: Fx, mask: &PassMask) -> Fx {
        if self.bypass[row * self.geom.cols + col] {
            return acc;
        }
        self.pe_idle_raw(row, col, acc, mask)
    }

    /// The idle step ignoring the bypass latch (BIST probe path).
    pub fn pe_idle_raw(&self, row: usize, col: usize, acc: Fx, mask: &PassMask) -> Fx {
        let mut out = acc;
        for &di in &self.by_pe[row * self.geom.cols + col] {
            if !mask.0.get(di as usize).copied().unwrap_or(false) {
                continue;
            }
            if let PeFaultKind::StuckAccBit { bit, stuck_one } = self.defects[di as usize].kind {
                out = force_bit(out, bit, stuck_one);
            }
        }
        out
    }

    /// Measured visible fraction of one defect: random `(acc, w, x)`
    /// MAC triples with only this defect forced active, compared
    /// against the healthy MAC — the grid analog of the spatial
    /// operator visibility models, feeding the degradation estimate.
    pub fn defect_visibility(&self, defect: usize, samples: usize, seed: u64) -> f64 {
        use rand::SeedableRng;
        let d = &self.defects[defect];
        let mut mask = PassMask(vec![false; self.defects.len()]);
        mask.0[defect] = true;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut visible = 0usize;
        for _ in 0..samples {
            let acc = Fx::from_raw(rng.random::<i16>());
            let w = Fx::from_raw(rng.random::<i16>());
            let x = Fx::from_raw(rng.random::<i16>());
            if self.pe_step_raw(d.row, d.col, acc, w, x, &mask) != acc + w * x {
                visible += 1;
            }
        }
        visible as f64 / samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_faults() -> PassMask {
        PassMask::default()
    }

    #[test]
    fn healthy_pe_is_native_mac() {
        let grid = PeGrid::new(GridGeometry::default());
        let (acc, w, x) = (Fx::from_f64(0.5), Fx::from_f64(-1.25), Fx::from_f64(2.0));
        assert_eq!(grid.pe_step(0, 0, acc, w, x, &no_faults()), acc + w * x);
        assert_eq!(grid.pe_idle(3, 7, acc, &no_faults()), acc);
    }

    #[test]
    fn dead_pe_forwards_partial_sum() {
        let mut grid = PeGrid::new(GridGeometry::default());
        grid.inject(2, 3, PeFaultKind::DeadPe, Activation::Permanent, 1);
        let mask = grid.pass_mask();
        let (acc, w, x) = (Fx::from_f64(0.5), Fx::ONE, Fx::ONE);
        assert_eq!(grid.pe_step(2, 3, acc, w, x, &mask), acc);
        // Neighbors are unaffected.
        assert_eq!(grid.pe_step(2, 4, acc, w, x, &mask), acc + w * x);
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
        let mask = grid.pass_mask();
        let acc = Fx::from_bits(0x0100); // LSB clear
        assert_eq!(grid.pe_idle(1, 1, acc, &mask), Fx::from_bits(0x0101));
        assert_eq!(grid.pe_idle(1, 2, acc, &mask), acc, "add fault idle-silent");
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
        let mask = grid.pass_mask();
        let acc = Fx::from_f64(1.5);
        assert_eq!(grid.pe_step(0, 0, acc, Fx::ONE, Fx::ONE, &mask), acc);
        assert_eq!(grid.pe_idle(0, 0, acc, &mask), acc);
        assert!(!grid.is_pristine_routing());
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
                let mask = grid.pass_mask();
                grid.pe_step(4, 4, acc, w, x, &mask) == acc
            })
            .collect();
        assert!(run.iter().any(|&b| b), "never activated");
        assert!(run.iter().any(|&b| !b), "always active");
        // Reset rewinds the stream exactly.
        grid.reset_state();
        let replay: Vec<bool> = (0..64)
            .map(|_| {
                let mask = grid.pass_mask();
                grid.pe_step(4, 4, acc, w, x, &mask) == acc
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
}
