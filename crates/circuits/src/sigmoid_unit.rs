//! The hardware activation unit: 16-entry LUT, multiply, add, clamp.

use std::sync::Arc;

use dta_fixed::{Fx, SigmoidLut};
use dta_logic::{GateKind, Netlist, NetlistBuilder, NodeId, Simulator};

use crate::adder::full_adder;

/// The gate-level sigmoid unit of the paper's Figure 4: a 16-segment
/// piecewise-linear approximation `f(x) = a_i*x + b_i`, where the
/// `(a_i, b_i)` coefficient pair is selected from a look-up table by the
/// integral part of `x`, multiplied/added in Q6.10, and clamped to
/// `[0, 1]` (with hard rails outside the approximated domain).
///
/// Bit-exact with [`dta_fixed::SigmoidLut::eval`]; the LUT constants are
/// tie cells, while the selection muxes, the multiplier, the adder and
/// the clamp logic are all transistor-level defect sites.
///
/// # Example
///
/// ```
/// use dta_circuits::SigmoidUnitCircuit;
/// use dta_fixed::{Fx, SigmoidLut};
/// let unit = SigmoidUnitCircuit::new();
/// let mut sim = unit.simulator();
/// let x = Fx::from_f64(-1.3);
/// assert_eq!(unit.compute(&mut sim, x), SigmoidLut::new().eval(x));
/// ```
#[derive(Clone, Debug)]
pub struct SigmoidUnitCircuit {
    net: Arc<Netlist>,
    x: Vec<NodeId>,
    out: Vec<NodeId>,
    cells: Vec<Vec<NodeId>>,
}

const W: usize = 16;
const FRAC: usize = 10;

impl SigmoidUnitCircuit {
    /// Builds the activation unit with the standard [`SigmoidLut`]
    /// contents.
    pub fn new() -> SigmoidUnitCircuit {
        SigmoidUnitCircuit::with_lut(&SigmoidLut::new())
    }

    /// Builds the activation unit from explicit LUT contents.
    pub fn with_lut(lut: &SigmoidLut) -> SigmoidUnitCircuit {
        let mut b = NetlistBuilder::new();
        let x = b.input_bus("x", W);
        let zero = b.constant(false);
        let one = b.constant(true);

        // -- Index & rail decode from the integral part (bits 10..15). --
        // int = x >> 10, 6-bit signed. rail_low: int < -8; rail_high:
        // int >= 8; else segment index = (int + 8) & 15, whose bits are
        // (x10, x11, x12, !x13).
        let s = x[15];
        let b3 = x[13];
        let b4 = x[14];
        let b3_and_b4 = b.gate(GateKind::And2, &[b3, b4]);
        let not_b34 = b.gate(GateKind::Not, &[b3_and_b4]);
        let rail_low = b.gate(GateKind::And2, &[s, not_b34]);
        let b3_or_b4 = b.gate(GateKind::Or2, &[b3, b4]);
        let not_s = b.gate(GateKind::Not, &[s]);
        let rail_high = b.gate(GateKind::And2, &[not_s, b3_or_b4]);
        let idx3 = b.gate(GateKind::Not, &[b3]);
        let idx = [x[10], x[11], x[12], idx3];
        let decode_cells = vec![
            b3_and_b4, not_b34, rail_low, b3_or_b4, not_s, rail_high, idx3,
        ];

        // -- LUT: two 16-bit coefficient words selected by idx. --
        let mut lut_cells = Vec::new();
        let mut select_word = |b: &mut NetlistBuilder, words: [u16; 16]| -> Vec<NodeId> {
            (0..W)
                .map(|bit| {
                    // 16:1 mux tree per output bit.
                    let mut level: Vec<NodeId> = (0..16)
                        .map(|e| if words[e] >> bit & 1 == 1 { one } else { zero })
                        .collect();
                    for sel in idx {
                        level = level
                            .chunks(2)
                            .map(|pair| {
                                let m = b.gate(GateKind::Mux2, &[sel, pair[0], pair[1]]);
                                lut_cells.push(m);
                                m
                            })
                            .collect();
                    }
                    level[0]
                })
                .collect()
        };
        let mut a_words = [0u16; 16];
        let mut b_words = [0u16; 16];
        for (i, seg) in lut.segments().iter().enumerate() {
            a_words[i] = seg.a.to_bits();
            b_words[i] = seg.b.to_bits();
        }
        let a_coef = select_word(&mut b, a_words);
        let b_coef = select_word(&mut b, b_words);

        // -- Multiplier: a_coef * x, Q6.10 with saturation (same
        //    structure as FxMulCircuit). --
        const PW: usize = 2 * W;
        let mut mul_cells = Vec::new();
        let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(W + 1);
        for j in 0..W {
            let mut row = vec![zero; PW];
            for i in 0..W {
                let kind = if (i == W - 1) ^ (j == W - 1) {
                    GateKind::Nand2
                } else {
                    GateKind::And2
                };
                let pp = b.gate(kind, &[a_coef[i], x[j]]);
                mul_cells.push(pp);
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
                let (sum, c, gates) = full_adder(&mut b, acc[k], row[k], carry);
                acc[k] = sum;
                carry = c;
                mul_cells.extend(gates);
            }
        }
        let top = W + FRAC - 1;
        let psign = acc[PW - 1];
        let mut diff = Vec::new();
        for &bit in &acc[top..(PW - 1)] {
            let d = b.gate(GateKind::Xor2, &[bit, psign]);
            mul_cells.push(d);
            diff.push(d);
        }
        let mut movf = diff[0];
        for &d in &diff[1..] {
            movf = b.gate(GateKind::Or2, &[movf, d]);
            mul_cells.push(movf);
        }
        let not_psign = b.gate(GateKind::Not, &[psign]);
        mul_cells.push(not_psign);
        let mut prod = Vec::with_capacity(W);
        for i in 0..W {
            let clamp_bit = if i == W - 1 { psign } else { not_psign };
            let m = b.gate(GateKind::Mux2, &[movf, acc[FRAC + i], clamp_bit]);
            mul_cells.push(m);
            prod.push(m);
        }

        // -- Adder: prod + b_coef, saturating (same as SatAdderCircuit). --
        let mut add_cells = Vec::new();
        let mut carry = zero;
        let mut sum = Vec::with_capacity(W);
        for i in 0..W {
            let (s_, c, gates) = full_adder(&mut b, prod[i], b_coef[i], carry);
            sum.push(s_);
            carry = c;
            add_cells.extend(gates);
        }
        let msb = W - 1;
        let same_sign = b.gate(GateKind::Xnor2, &[prod[msb], b_coef[msb]]);
        let sign_flip = b.gate(GateKind::Xor2, &[sum[msb], prod[msb]]);
        let aovf = b.gate(GateKind::And2, &[same_sign, sign_flip]);
        let not_asign = b.gate(GateKind::Not, &[prod[msb]]);
        add_cells.extend([same_sign, sign_flip, aovf, not_asign]);
        let mut y = Vec::with_capacity(W);
        for (i, &s_) in sum.iter().enumerate() {
            let clamp_bit = if i == msb { prod[msb] } else { not_asign };
            let o = b.gate(GateKind::Mux2, &[aovf, s_, clamp_bit]);
            add_cells.push(o);
            y.push(o);
        }

        // -- Clamp y to [0, 1] and apply rails. --
        // neg: y < 0. gt1: y > 1.0 (raw 1024): any of bits 11..14 set
        // while non-negative, or bit 10 set with any fractional bit set.
        let mut clamp_cells = Vec::new();
        let neg = y[msb];
        let mut hi = y[11];
        for &bit in &y[12..15] {
            hi = b.gate(GateKind::Or2, &[hi, bit]);
            clamp_cells.push(hi);
        }
        let mut frac_any = y[0];
        for &bit in &y[1..10] {
            frac_any = b.gate(GateKind::Or2, &[frac_any, bit]);
            clamp_cells.push(frac_any);
        }
        let over_int = b.gate(GateKind::And2, &[y[10], frac_any]);
        let hi_or_over = b.gate(GateKind::Or2, &[hi, over_int]);
        let not_neg = b.gate(GateKind::Not, &[neg]);
        let gt1 = b.gate(GateKind::And2, &[not_neg, hi_or_over]);
        clamp_cells.extend([over_int, hi_or_over, not_neg, gt1]);

        // ONE = raw 1024: only bit 10 set.
        let mut out = Vec::with_capacity(W);
        for (i, &yi) in y.iter().enumerate() {
            let one_bit = if i == FRAC { one } else { zero };
            // Clamp high, then low, then the two input rails.
            let c1 = b.gate(GateKind::Mux2, &[gt1, yi, one_bit]);
            let c2 = b.gate(GateKind::Mux2, &[neg, c1, zero]);
            let c3 = b.gate(GateKind::Mux2, &[rail_low, c2, zero]);
            let c4 = b.gate(GateKind::Mux2, &[rail_high, c3, one_bit]);
            clamp_cells.extend([c1, c2, c3, c4]);
            out.push(c4);
        }
        b.output_bus("f", &out);

        let cells = vec![decode_cells, lut_cells, mul_cells, add_cells, clamp_cells];

        SigmoidUnitCircuit {
            net: Arc::new(b.build()),
            x,
            out,
            cells,
        }
    }

    /// The underlying netlist (shared).
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.net
    }

    /// Gate instances grouped by functional block: index/rail decode,
    /// LUT muxes, multiplier, adder, clamp.
    pub fn cells(&self) -> &[Vec<NodeId>] {
        &self.cells
    }

    /// Creates a fresh simulator for this circuit.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.net))
    }

    /// Evaluates the activation through `sim`; faults injected into
    /// `sim` apply.
    pub fn compute(&self, sim: &mut Simulator, x: Fx) -> Fx {
        sim.set_input_word(&self.x, x.to_bits() as u64);
        sim.settle();
        Fx::from_bits(sim.read_word(&self.out) as u16)
    }

    /// The LSB-first `x` input bus.
    pub fn x_bus(&self) -> &[NodeId] {
        &self.x
    }

    /// The LSB-first activation output bus.
    pub fn out_bus(&self) -> &[NodeId] {
        &self.out
    }
}

impl Default for SigmoidUnitCircuit {
    fn default() -> SigmoidUnitCircuit {
        SigmoidUnitCircuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_lut_on_dense_sample() {
        let unit = SigmoidUnitCircuit::new();
        let lut = SigmoidLut::new();
        let mut sim = unit.simulator();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let x = Fx::from_raw(raw as i16);
            assert_eq!(unit.compute(&mut sim, x), lut.eval(x), "x={x}");
            raw += 97;
        }
    }

    #[test]
    fn matches_lut_on_rails_and_boundaries() {
        let unit = SigmoidUnitCircuit::new();
        let lut = SigmoidLut::new();
        let mut sim = unit.simulator();
        for v in [
            -32.0, -8.001, -8.0, -7.999, -1.0, -0.001, 0.0, 0.001, 1.0, 7.999, 8.0, 8.001, 31.9,
        ] {
            let x = Fx::from_f64(v);
            assert_eq!(unit.compute(&mut sim, x), lut.eval(x), "x={x}");
        }
    }

    #[test]
    fn output_always_in_unit_interval() {
        let unit = SigmoidUnitCircuit::new();
        let mut sim = unit.simulator();
        let mut raw = -32768i32;
        while raw <= 32767 {
            let y = unit.compute(&mut sim, Fx::from_raw(raw as i16));
            assert!(y >= Fx::ZERO && y <= Fx::ONE);
            raw += 331;
        }
    }

    #[test]
    fn cells_grouped_into_five_blocks() {
        let unit = SigmoidUnitCircuit::new();
        assert_eq!(unit.cells().len(), 5);
        let grouped: usize = unit.cells().iter().map(Vec::len).sum();
        // Two tie cells are not defect sites.
        assert_eq!(grouped + 2, unit.netlist().gate_count());
    }
}
