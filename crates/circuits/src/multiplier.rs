//! Array multipliers: unsigned and Baugh–Wooley signed, plus the Q6.10
//! datapath multiplier.

use std::sync::Arc;

use dta_fixed::Fx;
use dta_logic::{GateKind, Netlist, NetlistBuilder, NodeId, Simulator};

use crate::adder::full_adder;

/// A W×W array multiplier producing the full 2W-bit product.
///
/// * [`ArrayMultiplier::unsigned`] multiplies W-bit unsigned operands
///   with plain AND partial products (this is the 4-bit multiplier of the
///   paper's Figure 5 experiment);
/// * [`ArrayMultiplier::signed`] multiplies W-bit two's-complement
///   operands using the Baugh–Wooley scheme (complemented cross partial
///   products plus correction constants at bits `W` and `2W-1`).
///
/// Partial products are accumulated row by row with ripple-carry adders —
/// the classic array organization. Gate instances are grouped by output
/// bit position for defect-site selection.
///
/// # Example
///
/// ```
/// use dta_circuits::ArrayMultiplier;
/// let mul = ArrayMultiplier::unsigned(4);
/// let mut sim = mul.simulator();
/// assert_eq!(mul.compute(&mut sim, 13, 11), 143);
/// ```
#[derive(Clone, Debug)]
pub struct ArrayMultiplier {
    net: Arc<Netlist>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    product: Vec<NodeId>,
    cells: Vec<Vec<NodeId>>,
    width: usize,
    signed: bool,
}

impl ArrayMultiplier {
    /// Builds an unsigned W×W multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= 16`.
    pub fn unsigned(width: usize) -> ArrayMultiplier {
        ArrayMultiplier::build(width, false)
    }

    /// Builds a signed (two's-complement, Baugh–Wooley) W×W multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= 16`.
    pub fn signed(width: usize) -> ArrayMultiplier {
        ArrayMultiplier::build(width, true)
    }

    fn build(width: usize, signed: bool) -> ArrayMultiplier {
        assert!((2..=16).contains(&width), "width must be in 2..=16");
        let w = width;
        let pw = 2 * w;
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus("a", w);
        let b_bus = b.input_bus("b", w);
        let zero = b.constant(false);
        let one = b.constant(true);

        // cells[k] collects the gates whose output weight is 2^k.
        let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); pw];

        // Partial-product rows as 2W-bit words.
        let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(w + 1);
        for j in 0..w {
            let mut row = vec![zero; pw];
            for i in 0..w {
                let msb_a = i == w - 1;
                let msb_b = j == w - 1;
                // Baugh–Wooley: complement the cross terms involving
                // exactly one sign bit.
                let kind = if signed && (msb_a ^ msb_b) {
                    GateKind::Nand2
                } else {
                    GateKind::And2
                };
                let pp = b.gate(kind, &[a_bus[i], b_bus[j]]);
                cells[i + j].push(pp);
                row[i + j] = pp;
            }
            rows.push(row);
        }
        if signed {
            // Correction constants: +2^W and +2^(2W-1), mod 2^(2W).
            let mut row = vec![zero; pw];
            row[w] = one;
            row[pw - 1] = one;
            rows.push(row);
        }

        // Accumulate rows with ripple-carry adders over 2W bits.
        let mut acc = rows[0].clone();
        for row in &rows[1..] {
            let mut carry = zero;
            for k in 0..pw {
                let (s, c, gates) = full_adder(&mut b, acc[k], row[k], carry);
                acc[k] = s;
                carry = c;
                cells[k].extend(gates);
            }
            // Carry out of bit 2W-1 is discarded (mod 2^2W).
        }

        b.output_bus("p", &acc);
        ArrayMultiplier {
            net: Arc::new(b.build()),
            a: a_bus,
            b: b_bus,
            product: acc,
            cells,
            width,
            signed,
        }
    }

    /// Operand width W.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether this is the signed (Baugh–Wooley) variant.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The underlying netlist (shared).
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// Gate instances grouped by product-bit weight.
    pub fn cells(&self) -> &[Vec<NodeId>] {
        &self.cells
    }

    /// Creates a fresh simulator for this circuit.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.net))
    }

    /// Multiplies through `sim`, returning the raw 2W product bits
    /// (interpret as two's complement for the signed variant). Operands
    /// are taken modulo 2^W. Faults injected into `sim` apply.
    pub fn compute(&self, sim: &mut Simulator, a: u64, b: u64) -> u64 {
        let mask = (1u64 << self.width) - 1;
        sim.set_input_word(&self.a, a & mask);
        sim.set_input_word(&self.b, b & mask);
        sim.settle();
        sim.read_word(&self.product)
    }

    /// Signed multiply convenience: sign-extends the 2W product bits.
    pub fn compute_signed(&self, sim: &mut Simulator, a: i64, b: i64) -> i64 {
        let p = self.compute(sim, a as u64, b as u64);
        let pw = 2 * self.width;
        let sign = 1u64 << (pw - 1);
        ((p ^ sign).wrapping_sub(sign)) as i64
    }
}

/// The accelerator's Q6.10 synaptic multiplier: a signed 16×16 array
/// core whose output stage selects product bits `[25:10]` and clamps on
/// overflow — bit-exact with `Fx * Fx`.
///
/// # Example
///
/// ```
/// use dta_circuits::FxMulCircuit;
/// use dta_fixed::Fx;
/// let mul = FxMulCircuit::new();
/// let mut sim = mul.simulator();
/// let (a, b) = (Fx::from_f64(2.5), Fx::from_f64(-1.25));
/// assert_eq!(mul.compute(&mut sim, a, b), a * b);
/// ```
#[derive(Clone, Debug)]
pub struct FxMulCircuit {
    net: Arc<Netlist>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    out: Vec<NodeId>,
    cells: Vec<Vec<NodeId>>,
}

impl FxMulCircuit {
    /// Builds the Q6.10 multiplier (signed 16×16 core + bit-select +
    /// saturation).
    pub fn new() -> FxMulCircuit {
        const W: usize = 16;
        const PW: usize = 2 * W;
        const FRAC: usize = 10;
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus("a", W);
        let b_bus = b.input_bus("b", W);
        let zero = b.constant(false);
        let one = b.constant(true);

        let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); PW + 1];

        // Baugh–Wooley core, identical to ArrayMultiplier::signed(16).
        let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(W + 1);
        for j in 0..W {
            let mut row = vec![zero; PW];
            for i in 0..W {
                let kind = if (i == W - 1) ^ (j == W - 1) {
                    GateKind::Nand2
                } else {
                    GateKind::And2
                };
                let pp = b.gate(kind, &[a_bus[i], b_bus[j]]);
                cells[i + j].push(pp);
                row[i + j] = pp;
            }
            rows.push(row);
        }
        let mut corr = vec![zero; PW];
        corr[W] = one;
        corr[PW - 1] = one;
        rows.push(corr);

        let mut acc = rows[0].clone();
        for row in &rows[1..] {
            let mut carry = zero;
            for k in 0..PW {
                let (s, c, gates) = full_adder(&mut b, acc[k], row[k], carry);
                acc[k] = s;
                carry = c;
                cells[k].extend(gates);
            }
        }

        // The Q6.10 result keeps bits [25:10]. It fits 16 bits iff the
        // discarded high bits [31:25] are all equal; otherwise clamp to
        // MAX/MIN by the product sign (bit 31).
        let top = W + FRAC - 1; // 25
        let sign = acc[PW - 1];
        let mut ovf_gates = Vec::new();
        let mut diff_bits = Vec::new();
        for &bit in &acc[top..(PW - 1)] {
            let d = b.gate(GateKind::Xor2, &[bit, sign]);
            diff_bits.push(d);
            ovf_gates.push(d);
        }
        let mut ovf = diff_bits[0];
        for &d in &diff_bits[1..] {
            ovf = b.gate(GateKind::Or2, &[ovf, d]);
            ovf_gates.push(ovf);
        }
        let not_sign = b.gate(GateKind::Not, &[sign]);
        ovf_gates.push(not_sign);

        let mut out = Vec::with_capacity(W);
        for i in 0..W {
            let clamp_bit = if i == W - 1 { sign } else { not_sign };
            let o = b.gate(GateKind::Mux2, &[ovf, acc[FRAC + i], clamp_bit]);
            ovf_gates.push(o);
            out.push(o);
        }
        cells[PW] = ovf_gates;
        b.output_bus("out", &out);

        FxMulCircuit {
            net: Arc::new(b.build()),
            a: a_bus,
            b: b_bus,
            out,
            cells,
        }
    }

    /// The underlying netlist (shared).
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// Gate instances grouped by product-bit weight; the final group is
    /// the select/saturation stage.
    pub fn cells(&self) -> &[Vec<NodeId>] {
        &self.cells
    }

    /// Creates a fresh simulator for this circuit.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.net))
    }

    /// Multiplies through `sim`; faults injected into `sim` apply.
    pub fn compute(&self, sim: &mut Simulator, a: Fx, b: Fx) -> Fx {
        sim.set_input_word(&self.a, a.to_bits() as u64);
        sim.set_input_word(&self.b, b.to_bits() as u64);
        sim.settle();
        Fx::from_bits(sim.read_word(&self.out) as u16)
    }

    /// The LSB-first `a` operand input bus.
    pub fn a_bus(&self) -> &[NodeId] {
        &self.a
    }

    /// The LSB-first `b` operand input bus.
    pub fn b_bus(&self) -> &[NodeId] {
        &self.b
    }

    /// The LSB-first product output bus.
    pub fn out_bus(&self) -> &[NodeId] {
        &self.out
    }
}

impl Default for FxMulCircuit {
    fn default() -> FxMulCircuit {
        FxMulCircuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_unsigned_exhaustive() {
        let mul = ArrayMultiplier::unsigned(4);
        let mut sim = mul.simulator();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(mul.compute(&mut sim, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn four_bit_signed_exhaustive() {
        let mul = ArrayMultiplier::signed(4);
        let mut sim = mul.simulator();
        for a in -8i64..8 {
            for b in -8i64..8 {
                assert_eq!(mul.compute_signed(&mut sim, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn eight_bit_signed_sampled() {
        let mul = ArrayMultiplier::signed(8);
        let mut sim = mul.simulator();
        for a in (-128i64..128).step_by(17) {
            for b in (-128i64..128).step_by(13) {
                assert_eq!(mul.compute_signed(&mut sim, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn cells_cover_all_gates() {
        let mul = ArrayMultiplier::unsigned(4);
        let grouped: usize = mul.cells().iter().map(Vec::len).sum();
        // Two tie cells (const 0/1) are not defect sites.
        assert_eq!(grouped + 2, mul.netlist().gate_count());
        assert!(mul.width() == 4 && !mul.is_signed());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn too_wide_rejected() {
        let _ = ArrayMultiplier::unsigned(17);
    }

    #[test]
    fn fx_mul_matches_datapath_sampled() {
        let mul = FxMulCircuit::new();
        let mut sim = mul.simulator();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw.wrapping_mul(97) ^ 0x4d2) as i16);
            assert_eq!(mul.compute(&mut sim, a, b), a * b, "a={a} b={b}");
            raw += 509;
        }
    }

    #[test]
    fn fx_mul_edge_cases() {
        let mul = FxMulCircuit::new();
        let mut sim = mul.simulator();
        for (a, b) in [
            (Fx::MAX, Fx::MAX), // saturates high
            (Fx::MIN, Fx::MIN), // saturates high (positive product)
            (Fx::MAX, Fx::MIN), // saturates low
            (Fx::MIN, Fx::ONE), // exactly MIN
            (Fx::ONE, Fx::ONE),
            (Fx::ZERO, Fx::MAX),
            (Fx::from_raw(-1), Fx::from_raw(1)), // floor(-1/1024)
        ] {
            assert_eq!(mul.compute(&mut sim, a, b), a * b, "a={a} b={b}");
        }
    }
}
