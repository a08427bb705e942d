//! Ripple-carry adders: wrapping and Q6.10-saturating variants.

use std::sync::Arc;

use dta_fixed::Fx;
use dta_logic::{GateKind, Netlist, NetlistBuilder, NodeId, Simulator};

/// Builds one full-adder bit cell and returns `(sum, cout, gates)`.
///
/// Structure: `sum = (a ^ b) ^ cin`, `cout = (a^b)·cin + a·b` — five
/// standard cells, all of which are transistor-level defect sites.
pub(crate) fn full_adder(
    b: &mut NetlistBuilder,
    a: NodeId,
    x: NodeId,
    cin: NodeId,
) -> (NodeId, NodeId, Vec<NodeId>) {
    let axb = b.gate(GateKind::Xor2, &[a, x]);
    let sum = b.gate(GateKind::Xor2, &[axb, cin]);
    let t1 = b.gate(GateKind::And2, &[axb, cin]);
    let t2 = b.gate(GateKind::And2, &[a, x]);
    let cout = b.gate(GateKind::Or2, &[t1, t2]);
    (sum, cout, vec![axb, sum, t1, t2, cout])
}

/// A W-bit ripple-carry adder with carry-in and carry-out (two's
/// complement wrapping semantics).
///
/// Gate instances are grouped per bit position ([`AdderCircuit::cells`])
/// so defect injection can pick a random *operator bit* first, as the
/// paper does.
///
/// # Example
///
/// ```
/// use dta_circuits::AdderCircuit;
/// let adder = AdderCircuit::new(4);
/// let mut sim = adder.simulator();
/// // 4-bit: 9 + 8 = 17 = 16 (carry out) + 1
/// assert_eq!(adder.compute(&mut sim, 9, 8), (1, true));
/// ```
#[derive(Clone, Debug)]
pub struct AdderCircuit {
    net: Arc<Netlist>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    cin: NodeId,
    sum: Vec<NodeId>,
    cout: NodeId,
    cells: Vec<Vec<NodeId>>,
    width: usize,
}

impl AdderCircuit {
    /// Builds a W-bit adder.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 32.
    pub fn new(width: usize) -> AdderCircuit {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus("a", width);
        let b_bus = b.input_bus("b", width);
        let cin = b.input("cin");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(width);
        let mut cells = Vec::with_capacity(width);
        for i in 0..width {
            let (s, c, gates) = full_adder(&mut b, a_bus[i], b_bus[i], carry);
            sum.push(s);
            carry = c;
            cells.push(gates);
        }
        b.output_bus("sum", &sum);
        b.output("cout", carry);
        AdderCircuit {
            net: Arc::new(b.build()),
            a: a_bus,
            b: b_bus,
            cin,
            sum,
            cout: carry,
            cells,
            width,
        }
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The underlying netlist (shared).
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// Gate instances grouped by bit position, for defect-site selection.
    pub fn cells(&self) -> &[Vec<NodeId>] {
        &self.cells
    }

    /// Creates a fresh simulator for this circuit.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.net))
    }

    /// Computes `a + b` (no carry-in) through `sim`, returning the W-bit
    /// wrapped sum and the carry-out. Faults injected into `sim` apply.
    pub fn compute(&self, sim: &mut Simulator, a: u64, b: u64) -> (u64, bool) {
        self.compute_with_carry(sim, a, b, false)
    }

    /// Computes `a + b + cin`.
    pub fn compute_with_carry(
        &self,
        sim: &mut Simulator,
        a: u64,
        b: u64,
        cin: bool,
    ) -> (u64, bool) {
        sim.set_input_word(&self.a, a);
        sim.set_input_word(&self.b, b);
        sim.set_input(self.cin, cin);
        sim.settle();
        (sim.read_word(&self.sum), sim.value(self.cout))
    }
}

/// The accelerator's 16-bit saturating adder: a ripple-carry core plus
/// two's-complement overflow detection and clamp muxes, bit-exact with
/// `Fx + Fx`.
///
/// Overflow occurs when both operands share a sign that differs from the
/// sum's sign; the output is then forced to `Fx::MAX` / `Fx::MIN`.
///
/// # Example
///
/// ```
/// use dta_circuits::SatAdderCircuit;
/// use dta_fixed::Fx;
/// let adder = SatAdderCircuit::new();
/// let mut sim = adder.simulator();
/// let (a, b) = (Fx::from_f64(30.0), Fx::from_f64(5.0));
/// assert_eq!(adder.compute(&mut sim, a, b), Fx::MAX);
/// ```
#[derive(Clone, Debug)]
pub struct SatAdderCircuit {
    net: Arc<Netlist>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    out: Vec<NodeId>,
    cells: Vec<Vec<NodeId>>,
}

/// Word width of the accelerator datapath.
pub(crate) const W: usize = 16;

impl SatAdderCircuit {
    /// Builds the 16-bit saturating adder.
    pub fn new() -> SatAdderCircuit {
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus("a", W);
        let b_bus = b.input_bus("b", W);
        let zero = b.constant(false);
        let mut carry = zero;
        let mut sum = Vec::with_capacity(W);
        let mut cells = Vec::with_capacity(W + 1);
        for i in 0..W {
            let (s, c, gates) = full_adder(&mut b, a_bus[i], b_bus[i], carry);
            sum.push(s);
            carry = c;
            cells.push(gates);
        }
        // Overflow: signs equal and sum sign differs from operand sign.
        let msb = W - 1;
        let same_sign = b.gate(GateKind::Xnor2, &[a_bus[msb], b_bus[msb]]);
        let sign_flip = b.gate(GateKind::Xor2, &[sum[msb], a_bus[msb]]);
        let ovf = b.gate(GateKind::And2, &[same_sign, sign_flip]);
        // Saturated word: sign ? MIN (0x8000) : MAX (0x7FFF).
        // Bit 15 of the clamp is the operand sign; bits 0..14 its inverse.
        let not_sign = b.gate(GateKind::Not, &[a_bus[msb]]);
        let mut ovf_cells = vec![same_sign, sign_flip, ovf, not_sign];
        let mut out = Vec::with_capacity(W);
        for (i, &s) in sum.iter().enumerate() {
            let clamp_bit = if i == msb { a_bus[msb] } else { not_sign };
            let o = b.gate(GateKind::Mux2, &[ovf, s, clamp_bit]);
            ovf_cells.push(o);
            out.push(o);
        }
        cells.push(ovf_cells);
        b.output_bus("out", &out);
        SatAdderCircuit {
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

    /// Gate instances grouped by bit position; the final group holds the
    /// overflow/clamp logic.
    pub fn cells(&self) -> &[Vec<NodeId>] {
        &self.cells
    }

    /// Creates a fresh simulator for this circuit.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.net))
    }

    /// Computes the saturating sum through `sim`; faults injected into
    /// `sim` apply.
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

    /// The LSB-first sum output bus.
    pub fn out_bus(&self) -> &[NodeId] {
        &self.out
    }
}

impl Default for SatAdderCircuit {
    fn default() -> SatAdderCircuit {
        SatAdderCircuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_exhaustive() {
        let adder = AdderCircuit::new(4);
        let mut sim = adder.simulator();
        for a in 0u64..16 {
            for b in 0u64..16 {
                let (s, c) = adder.compute(&mut sim, a, b);
                assert_eq!(s, (a + b) & 0xF, "{a}+{b}");
                assert_eq!(c, a + b > 15, "{a}+{b} carry");
            }
        }
    }

    #[test]
    fn carry_in_counts() {
        let adder = AdderCircuit::new(8);
        let mut sim = adder.simulator();
        assert_eq!(
            adder.compute_with_carry(&mut sim, 100, 27, true),
            (128, false)
        );
    }

    #[test]
    fn sixteen_bit_wraps_like_twos_complement() {
        let adder = AdderCircuit::new(16);
        let mut sim = adder.simulator();
        for (a, b) in [(0x7FFFu64, 1u64), (0xFFFF, 1), (0x8000, 0x8000)] {
            let (s, _) = adder.compute(&mut sim, a, b);
            assert_eq!(s, (a + b) & 0xFFFF);
        }
    }

    #[test]
    fn cell_grouping_covers_all_gates() {
        let adder = AdderCircuit::new(16);
        let grouped: usize = adder.cells().iter().map(Vec::len).sum();
        assert_eq!(grouped, adder.netlist().gate_count());
        assert_eq!(adder.cells().len(), 16);
        assert_eq!(adder.width(), 16);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = AdderCircuit::new(0);
    }

    #[test]
    fn saturating_adder_matches_fx_exhaustively_sampled() {
        let adder = SatAdderCircuit::new();
        let mut sim = adder.simulator();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let a = Fx::from_raw(raw as i16);
            let b = Fx::from_raw((raw.wrapping_mul(31) ^ 0x1234) as i16);
            assert_eq!(adder.compute(&mut sim, a, b), a + b, "a={a} b={b}");
            raw += 251; // prime stride over the whole range
        }
    }

    #[test]
    fn saturating_adder_edge_cases() {
        let adder = SatAdderCircuit::new();
        let mut sim = adder.simulator();
        for (a, b) in [
            (Fx::MAX, Fx::MAX),
            (Fx::MIN, Fx::MIN),
            (Fx::MAX, Fx::MIN),
            (Fx::MIN, Fx::MAX),
            (Fx::MAX, Fx::from_raw(1)),
            (Fx::MIN, Fx::from_raw(-1)),
            (Fx::ZERO, Fx::ZERO),
        ] {
            assert_eq!(adder.compute(&mut sim, a, b), a + b, "a={a} b={b}");
        }
    }

    #[test]
    fn sat_adder_cells_cover_all_gates() {
        let adder = SatAdderCircuit::new();
        let grouped: usize = adder.cells().iter().map(Vec::len).sum();
        // One Const gate (carry-in tie) is not a defect site.
        assert_eq!(grouped + 1, adder.netlist().gate_count());
        assert_eq!(adder.cells().len(), 17);
    }
}
