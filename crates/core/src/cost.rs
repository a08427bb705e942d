//! The 90 nm cost model behind Table III.
//!
//! The paper synthesizes the accelerator with Synopsys Design Compiler on
//! the TSMC 90 nm library; that toolchain is not reproducible here, so
//! this module provides a **structurally derived, point-calibrated**
//! model:
//!
//! * transistor counts come from the *actual netlists* of `dta-circuits`
//!   (multipliers, adders, activation units) plus 8 per latch bit,
//!   composed according to the accelerator geometry;
//! * critical-path depth comes from the netlists' longest combinational
//!   paths;
//! * three coefficients (area per transistor, energy per transistor per
//!   row, delay per gate level) are calibrated once so the 90-10-10
//!   design point reproduces Table III exactly (9.02 mm², 14.92 ns/row,
//!   70.16 nJ/row ⇒ 4.70 W);
//! * every other geometry is then *predicted* by structure.
//!
//! Our ripple-carry arithmetic is deliberately unoptimized compared to
//! what Design Compiler synthesizes, so the per-gate-level delay
//! coefficient absorbs that difference; ratios across geometries and
//! blocks are what the model is for, not absolute silicon truth.

use std::fmt;
use std::sync::OnceLock;

use dta_ann::Topology;
use dta_circuits::{FxMulCircuit, SatAdderCircuit, SigmoidUnitCircuit};

/// Table III targets for the 90-10-10 design point at 90 nm.
pub mod table3 {
    /// Accelerator area (mm²).
    pub const AREA_MM2: f64 = 9.02;
    /// Time to process one input row (ns).
    pub const LATENCY_NS: f64 = 14.92;
    /// Energy per input row (nJ).
    pub const ENERGY_PER_ROW_NJ: f64 = 70.16;
    /// Total dissipated power (W) — consistent with energy/latency.
    pub const POWER_W: f64 = 4.70;
    /// Memory interface area (mm²).
    pub const INTERFACE_AREA_MM2: f64 = 0.047;
    /// Memory interface power (W).
    pub const INTERFACE_POWER_W: f64 = 0.0054;
    /// Memory interface energy per row (nJ).
    pub const INTERFACE_ENERGY_NJ: f64 = 0.0021;
    /// One activation unit: area (mm²).
    pub const ACTIVATION_AREA_MM2: f64 = 0.017;
    /// One activation unit: power (W).
    pub const ACTIVATION_POWER_W: f64 = 0.0019;
    /// One activation unit: energy per row (nJ).
    pub const ACTIVATION_ENERGY_NJ: f64 = 0.0053;
    /// One activation unit: latency (ns).
    pub const ACTIVATION_LATENCY_NS: f64 = 2.84;
}

/// Per-operator structural measurements taken from the gate-level
/// netlists (transistor counts and critical-path depths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperatorMetrics {
    /// Transistors in one Q6.10 synaptic multiplier.
    pub mul_transistors: u64,
    /// Transistors in one 16-bit saturating adder.
    pub add_transistors: u64,
    /// Transistors in one activation unit.
    pub act_transistors: u64,
    /// Transistors in one 16-bit latch word: an 8-transistor
    /// transmission-gate D-latch per bit. Latches are not built as
    /// netlists (their defects are modelled as stuck bits), so this is
    /// the one count not measured from a netlist.
    pub latch_word_transistors: u64,
    /// Critical-path depth (gate levels) of the multiplier.
    pub mul_depth: usize,
    /// Critical-path depth of the saturating adder.
    pub add_depth: usize,
    /// Critical-path depth of the activation unit.
    pub act_depth: usize,
}

impl OperatorMetrics {
    /// Measures the operator netlists (built once per process).
    pub fn measured() -> &'static OperatorMetrics {
        static METRICS: OnceLock<OperatorMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let mul = FxMulCircuit::new();
            let add = SatAdderCircuit::new();
            let act = SigmoidUnitCircuit::new();
            OperatorMetrics {
                mul_transistors: mul.netlist().transistor_count(),
                add_transistors: add.netlist().transistor_count(),
                act_transistors: act.netlist().transistor_count(),
                latch_word_transistors: 16 * 8,
                mul_depth: mul.netlist().logic_depth(),
                add_depth: add.netlist().logic_depth(),
                act_depth: act.netlist().logic_depth(),
            }
        })
    }
}

/// Structural inventory of an accelerator geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inventory {
    /// Synaptic multipliers (both layers).
    pub multipliers: u64,
    /// Accumulation adders (both layers, including bias adds).
    pub adders: u64,
    /// Activation units (both layers).
    pub activations: u64,
    /// 16-bit latch words (weights + I/O double buffers + the partial
    /// time-multiplexing add-on latches).
    pub latch_words: u64,
    /// Total datapath transistors.
    pub transistors: u64,
    /// Critical-path depth in gate levels (hidden stage + output stage).
    pub depth: usize,
}

impl Inventory {
    /// Builds the inventory for a geometry.
    pub fn for_geometry(g: Topology) -> Inventory {
        let m = OperatorMetrics::measured();
        let (i, h, o) = (g.inputs as u64, g.hidden as u64, g.outputs as u64);
        let multipliers = i * h + h * o;
        // Per neuron: a tree of (fan-in - 1) adders plus one bias add.
        let adders = h * i + o * h;
        let activations = h + o;
        // Weights, input/output double buffers, TM add-on latches.
        let latch_words = (i * h + h * o) + 2 * (i + o) + 2 * h;
        let transistors = multipliers * m.mul_transistors
            + adders * m.add_transistors
            + activations * m.act_transistors
            + latch_words * m.latch_word_transistors;
        let tree = |n: u64| (64 - (n.max(1) - 1).leading_zeros().min(63)) as usize;
        let depth = m.mul_depth
            + tree(i + 1) * m.add_depth
            + m.act_depth
            + m.mul_depth
            + tree(h + 1) * m.add_depth
            + m.act_depth;
        Inventory {
            multipliers,
            adders,
            activations,
            latch_words,
            transistors,
            depth,
        }
    }
}

/// One block of the cost report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubBlock {
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in W.
    pub power_w: f64,
    /// Energy per processed row in nJ.
    pub energy_per_row_nj: f64,
    /// Latency contribution in ns.
    pub latency_ns: f64,
}

/// Full cost report for one geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostReport {
    /// Datapath area in mm².
    pub area_mm2: f64,
    /// Total power in W (energy/row ÷ latency).
    pub power_w: f64,
    /// Time to process one row in ns.
    pub latency_ns: f64,
    /// Energy per row in nJ.
    pub energy_per_row_nj: f64,
    /// One activation unit, derived from its own netlist.
    pub activation: SubBlock,
    /// The memory interface + key logic (Table III calibration).
    pub interface: SubBlock,
    /// Total datapath transistors.
    pub transistors: u64,
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area {:.2} mm² | power {:.2} W | {:.2} ns/row | {:.2} nJ/row",
            self.area_mm2, self.power_w, self.latency_ns, self.energy_per_row_nj
        )?;
        write!(f, "({} transistors)", self.transistors)
    }
}

/// The calibrated 90 nm cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    area_per_transistor_mm2: f64,
    energy_per_transistor_nj: f64,
    delay_per_level_ns: f64,
}

impl CostModel {
    /// Calibrates the three coefficients so the 90-10-10 point matches
    /// Table III exactly.
    pub fn calibrated_90nm() -> CostModel {
        let inv = Inventory::for_geometry(Topology::accelerator());
        CostModel {
            area_per_transistor_mm2: table3::AREA_MM2 / inv.transistors as f64,
            energy_per_transistor_nj: table3::ENERGY_PER_ROW_NJ / inv.transistors as f64,
            delay_per_level_ns: table3::LATENCY_NS / inv.depth as f64,
        }
    }

    /// Predicts the cost of an arbitrary geometry.
    pub fn report(&self, geometry: Topology) -> CostReport {
        let m = OperatorMetrics::measured();
        let inv = Inventory::for_geometry(geometry);
        let area_mm2 = inv.transistors as f64 * self.area_per_transistor_mm2;
        let energy_per_row_nj = inv.transistors as f64 * self.energy_per_transistor_nj;
        let latency_ns = inv.depth as f64 * self.delay_per_level_ns;
        let power_w = energy_per_row_nj / latency_ns;

        let act_t = m.act_transistors as f64;
        let activation = SubBlock {
            area_mm2: act_t * self.area_per_transistor_mm2,
            energy_per_row_nj: act_t * self.energy_per_transistor_nj,
            power_w: act_t * self.energy_per_transistor_nj / latency_ns,
            latency_ns: m.act_depth as f64 * self.delay_per_level_ns,
        };
        let interface = SubBlock {
            area_mm2: table3::INTERFACE_AREA_MM2,
            power_w: table3::INTERFACE_POWER_W,
            energy_per_row_nj: table3::INTERFACE_ENERGY_NJ,
            latency_ns: 0.0, // overlapped with compute by double buffering
        };
        CostReport {
            area_mm2,
            power_w,
            latency_ns,
            energy_per_row_nj,
            activation,
            interface,
            transistors: inv.transistors,
        }
    }

    /// Area overhead of extending the array with on-line training
    /// hardware (paper §IV: "the accelerator can also be extended to
    /// include training hardware for tackling both the on-line and
    /// off-line scenarios"), as a fraction of the base area.
    ///
    /// The back-propagation datapath needs, per synapse, a gradient
    /// multiplier, a weight-update adder and a velocity/gradient latch
    /// word, plus one derivative multiplier per neuron — roughly
    /// doubling the array. This is why the paper ships training to the
    /// companion core for the high-performance (off-line) scenario.
    pub fn training_hardware_overhead(&self, geometry: Topology) -> f64 {
        let m = OperatorMetrics::measured();
        let (i, h, o) = (
            geometry.inputs as u64,
            geometry.hidden as u64,
            geometry.outputs as u64,
        );
        let synapses = i * h + h * o;
        let neurons = h + o;
        let extra = synapses * (m.mul_transistors + m.add_transistors + m.latch_word_transistors)
            + neurons * m.mul_transistors;
        let base = Inventory::for_geometry(geometry).transistors;
        extra as f64 / base as f64
    }

    /// Fraction of total area that is non-scalable key logic (interface,
    /// write decode, TM control) after `generations` technology nodes,
    /// assuming datapath area halves per node while key logic stays
    /// constant — the paper's §VI-A scalability argument (<10 % after 4
    /// generations, 25 % at the 6th).
    pub fn key_logic_area_fraction(&self, generations: u32) -> f64 {
        let datapath = table3::AREA_MM2 * 0.5f64.powi(generations as i32);
        table3::INTERFACE_AREA_MM2 / (table3::INTERFACE_AREA_MM2 + datapath)
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::calibrated_90nm()
    }
}

/// The §VI-C defect-sensitivity analysis: the output layer's adders and
/// activation functions directly sway the predicted class, so they are
/// the accelerator's defect-sensitive region. The paper reports them at
/// 25.9 % of the output layer and 2.3 % of the total area, and weighs
/// two mitigations: treating them as key logic (hardened, non-scaling
/// transistors) vs. adding spare output neurons.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensitiveAreaReport {
    /// Transistors in the sensitive units (output adders + activations).
    pub sensitive_transistors: u64,
    /// Transistors in the whole output layer.
    pub output_layer_transistors: u64,
    /// Sensitive fraction of the output layer.
    pub fraction_of_output_layer: f64,
    /// Sensitive fraction of the total datapath.
    pub fraction_of_total: f64,
    /// Area overhead of hardening the sensitive units as key logic
    /// (modeled as doubling their transistor area), as a fraction of
    /// total area.
    pub harden_overhead: f64,
    /// Area overhead of one spare (redundant) output neuron, as a
    /// fraction of total area.
    pub spare_neuron_overhead: f64,
}

impl SensitiveAreaReport {
    /// Computes the report for a geometry.
    pub fn for_geometry(g: Topology) -> SensitiveAreaReport {
        let m = OperatorMetrics::measured();
        let (h, o) = (g.hidden as u64, g.outputs as u64);
        let out_muls = h * o * m.mul_transistors;
        let out_adds = h * o * m.add_transistors;
        let out_acts = o * m.act_transistors;
        let out_latches = h * o * m.latch_word_transistors;
        let output_layer = out_muls + out_adds + out_acts + out_latches;
        let sensitive = out_adds + out_acts;
        let total = Inventory::for_geometry(g).transistors;
        // One spare output neuron: its synapses, adders, latches and one
        // activation unit.
        let spare = h * (m.mul_transistors + m.add_transistors + m.latch_word_transistors)
            + m.act_transistors;
        SensitiveAreaReport {
            sensitive_transistors: sensitive,
            output_layer_transistors: output_layer,
            fraction_of_output_layer: sensitive as f64 / output_layer as f64,
            fraction_of_total: sensitive as f64 / total as f64,
            harden_overhead: sensitive as f64 / total as f64,
            spare_neuron_overhead: spare as f64 / total as f64,
        }
    }

    /// The paper's recommendation: key-logic hardening "is preferable as
    /// long as the fraction of the overall area covered by the output
    /// adders and activation functions is small"; spare neurons win once
    /// a spare costs less than the hardening.
    pub fn hardening_preferable(&self) -> bool {
        self.harden_overhead < self.spare_neuron_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_table3_point() {
        let model = CostModel::calibrated_90nm();
        let report = model.report(Topology::accelerator());
        assert!((report.area_mm2 - table3::AREA_MM2).abs() < 1e-9);
        assert!((report.latency_ns - table3::LATENCY_NS).abs() < 1e-9);
        assert!((report.energy_per_row_nj - table3::ENERGY_PER_ROW_NJ).abs() < 1e-9);
        // Power is energy/latency, which Table III is consistent with.
        assert!((report.power_w - table3::POWER_W).abs() < 0.01);
    }

    #[test]
    fn smaller_geometry_costs_less() {
        let model = CostModel::calibrated_90nm();
        let big = model.report(Topology::accelerator());
        let small = model.report(Topology::new(30, 6, 4));
        assert!(small.area_mm2 < big.area_mm2 / 3.0);
        assert!(small.energy_per_row_nj < big.energy_per_row_nj / 3.0);
        assert!(small.latency_ns < big.latency_ns);
        assert!(small.transistors < big.transistors);
    }

    #[test]
    fn area_scales_roughly_with_synapse_count() {
        // Synaptic multipliers dominate; doubling the hidden layer about
        // doubles the area.
        let model = CostModel::calibrated_90nm();
        let base = model.report(Topology::new(90, 5, 10));
        let doubled = model.report(Topology::new(90, 10, 10));
        let ratio = doubled.area_mm2 / base.area_mm2;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn activation_subblock_in_table3_ballpark() {
        // The derived activation-unit numbers must land within a small
        // factor of Table III (the paper's unit is a synthesized macro,
        // ours is a structural estimate).
        let model = CostModel::calibrated_90nm();
        let report = model.report(Topology::accelerator());
        let act = report.activation;
        assert!(
            act.area_mm2 / table3::ACTIVATION_AREA_MM2 < 4.0
                && table3::ACTIVATION_AREA_MM2 / act.area_mm2 < 4.0,
            "activation area {} vs {}",
            act.area_mm2,
            table3::ACTIVATION_AREA_MM2
        );
        assert!(
            act.latency_ns / table3::ACTIVATION_LATENCY_NS < 4.0
                && table3::ACTIVATION_LATENCY_NS / act.latency_ns < 4.0,
            "activation latency {} vs {}",
            act.latency_ns,
            table3::ACTIVATION_LATENCY_NS
        );
    }

    #[test]
    fn key_logic_scaling_claims() {
        let model = CostModel::calibrated_90nm();
        // Paper: "less than 10% ... after 4 technology generations
        // (22nm), and 25% at the 6th generation (11nm)".
        let g4 = model.key_logic_area_fraction(4);
        assert!(g4 < 0.10, "22nm fraction {g4}");
        let g6 = model.key_logic_area_fraction(6);
        assert!((0.15..0.35).contains(&g6), "11nm fraction {g6}");
        // Monotonically growing as the datapath shrinks.
        assert!(model.key_logic_area_fraction(0) < g4 && g4 < g6);
    }

    #[test]
    fn inventory_counts_are_structural() {
        let inv = Inventory::for_geometry(Topology::accelerator());
        assert_eq!(inv.multipliers, 90 * 10 + 10 * 10);
        assert_eq!(inv.adders, 90 * 10 + 10 * 10);
        assert_eq!(inv.activations, 20);
        assert_eq!(inv.latch_words, (90 * 10 + 100) + 2 * (90 + 10) + 2 * 10);
        assert!(inv.transistors > 1_000_000, "it is a real array");
        assert!(inv.depth > 100, "combinational path through two stages");
    }

    #[test]
    fn report_display_nonempty() {
        let model = CostModel::calibrated_90nm();
        let s = model.report(Topology::accelerator()).to_string();
        assert!(s.contains("mm²") && s.contains("nJ/row"));
    }

    #[test]
    fn sensitive_area_matches_paper_shape() {
        // Paper §VI-C: output adders + activation functions are 25.9% of
        // the output layer and 2.3% of total area. Our structural model
        // must land in the same regime (small single-digit percent of
        // the total, a visible chunk of the output layer).
        let r = SensitiveAreaReport::for_geometry(Topology::accelerator());
        assert!(
            (0.05..0.40).contains(&r.fraction_of_output_layer),
            "output-layer fraction {}",
            r.fraction_of_output_layer
        );
        assert!(
            (0.005..0.05).contains(&r.fraction_of_total),
            "total fraction {}",
            r.fraction_of_total
        );
        assert!(r.sensitive_transistors < r.output_layer_transistors);
    }

    #[test]
    fn mitigation_overheads_are_small_and_consistent() {
        // Both §VI-C mitigations cost low single-digit percent of the
        // total area; `hardening_preferable` must agree with the raw
        // overheads. (The paper prefers hardening at 90 nm; in our
        // structural model the activation unit is transistor-heavy —
        // it embeds a full multiplier — so the crossover toward spare
        // neurons arrives earlier. Recorded in EXPERIMENTS.md.)
        let r = SensitiveAreaReport::for_geometry(Topology::accelerator());
        assert!(r.harden_overhead < 0.05, "harden {}", r.harden_overhead);
        assert!(
            r.spare_neuron_overhead < 0.05,
            "spare {}",
            r.spare_neuron_overhead
        );
        assert_eq!(
            r.hardening_preferable(),
            r.harden_overhead < r.spare_neuron_overhead
        );
    }

    #[test]
    fn training_hardware_roughly_doubles_the_array() {
        let model = CostModel::calibrated_90nm();
        let overhead = model.training_hardware_overhead(Topology::accelerator());
        assert!(
            (0.5..1.5).contains(&overhead),
            "training hardware overhead {overhead}"
        );
    }
}
