//! Wallace-tree multiplier — an alternative multiplier implementation
//! for the operator-organization studies the paper mentions.
//!
//! The Baugh–Wooley partial products are reduced column-wise with 3:2
//! (full-adder) and 2:2 (half-adder) compressors until at most two rows
//! remain, then summed with one carry-propagate adder. The critical path
//! is logarithmic in the operand width instead of quadratic.

use std::sync::Arc;

use dta_logic::{GateKind, Netlist, NetlistBuilder, NodeId, Simulator};

use crate::adder::full_adder;

/// Builds a half-adder bit cell: `(sum, carry, gates)`.
fn half_adder(b: &mut NetlistBuilder, x: NodeId, y: NodeId) -> (NodeId, NodeId, Vec<NodeId>) {
    let s = b.gate(GateKind::Xor2, &[x, y]);
    let c = b.gate(GateKind::And2, &[x, y]);
    (s, c, vec![s, c])
}

/// A signed (Baugh–Wooley) W×W Wallace-tree multiplier producing the
/// full 2W-bit product — bit-identical to
/// [`crate::ArrayMultiplier::signed`] with a logarithmic critical path.
///
/// # Example
///
/// ```
/// use dta_circuits::wallace::WallaceMultiplier;
/// let mul = WallaceMultiplier::signed(8);
/// let mut sim = mul.simulator();
/// assert_eq!(mul.compute_signed(&mut sim, -100, 77), -7_700);
/// ```
#[derive(Clone, Debug)]
pub struct WallaceMultiplier {
    net: Arc<Netlist>,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    product: Vec<NodeId>,
    cells: Vec<Vec<NodeId>>,
    width: usize,
}

impl WallaceMultiplier {
    /// Builds a signed W×W Wallace multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= width <= 16`.
    pub fn signed(width: usize) -> WallaceMultiplier {
        assert!((2..=16).contains(&width), "width must be in 2..=16");
        let w = width;
        let pw = 2 * w;
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus("a", w);
        let b_bus = b.input_bus("b", w);
        let one = b.constant(true);
        let zero = b.constant(false);

        let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); pw];

        // Columns of partial-product bits (Baugh–Wooley complemented
        // cross terms + correction constants).
        let mut columns: Vec<Vec<NodeId>> = vec![Vec::new(); pw];
        for j in 0..w {
            for i in 0..w {
                let kind = if (i == w - 1) ^ (j == w - 1) {
                    GateKind::Nand2
                } else {
                    GateKind::And2
                };
                let pp = b.gate(kind, &[a_bus[i], b_bus[j]]);
                cells[i + j].push(pp);
                columns[i + j].push(pp);
            }
        }
        columns[w].push(one);
        columns[pw - 1].push(one);

        // Column compression: apply 3:2 and 2:2 compressors until every
        // column holds at most two bits.
        while columns.iter().any(|c| c.len() > 2) {
            let mut next: Vec<Vec<NodeId>> = vec![Vec::new(); pw];
            for k in 0..pw {
                let col = &columns[k];
                let mut idx = 0;
                while col.len() - idx >= 3 {
                    let (s, c, gates) = full_adder(&mut b, col[idx], col[idx + 1], col[idx + 2]);
                    cells[k].extend(gates);
                    next[k].push(s);
                    if k + 1 < pw {
                        next[k + 1].push(c);
                    }
                    idx += 3;
                }
                if col.len() - idx == 2 && col.len() > 2 {
                    let (s, c, gates) = half_adder(&mut b, col[idx], col[idx + 1]);
                    cells[k].extend(gates);
                    next[k].push(s);
                    if k + 1 < pw {
                        next[k + 1].push(c);
                    }
                    idx += 2;
                }
                next[k].extend(&col[idx..]);
            }
            columns = next;
        }

        // Final carry-propagate addition of the two remaining rows.
        let mut product = Vec::with_capacity(pw);
        let mut carry = zero;
        for k in 0..pw {
            let (x, y) = match columns[k].len() {
                0 => (zero, zero),
                1 => (columns[k][0], zero),
                _ => (columns[k][0], columns[k][1]),
            };
            let (s, c, gates) = full_adder(&mut b, x, y, carry);
            cells[k].extend(gates);
            product.push(s);
            carry = c;
        }

        b.output_bus("p", &product);
        WallaceMultiplier {
            net: Arc::new(b.build()),
            a: a_bus,
            b: b_bus,
            product,
            cells,
            width,
        }
    }

    /// Operand width W.
    pub fn width(&self) -> usize {
        self.width
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

    /// Multiplies, returning the raw 2W product bits (two's complement).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::ArrayMultiplier;

    #[test]
    fn four_bit_signed_exhaustive() {
        let mul = WallaceMultiplier::signed(4);
        let mut sim = mul.simulator();
        for a in -8i64..8 {
            for b in -8i64..8 {
                assert_eq!(mul.compute_signed(&mut sim, a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn sixteen_bit_matches_array_sampled() {
        let wallace = WallaceMultiplier::signed(16);
        let array = ArrayMultiplier::signed(16);
        let mut sw = wallace.simulator();
        let mut sa = array.simulator();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (a, b) = (x & 0xFFFF, (x >> 16) & 0xFFFF);
            assert_eq!(
                wallace.compute(&mut sw, a, b),
                array.compute(&mut sa, a, b),
                "{a}*{b}"
            );
        }
    }

    #[test]
    fn much_shallower_than_array() {
        let wallace = WallaceMultiplier::signed(16);
        let array = ArrayMultiplier::signed(16);
        // The compression tree is logarithmic; the final 32-bit ripple
        // adder dominates the remaining depth (~30% below the array).
        assert!(
            wallace.netlist().logic_depth() * 10 < array.netlist().logic_depth() * 8,
            "wallace {} vs array {}",
            wallace.netlist().logic_depth(),
            array.netlist().logic_depth()
        );
    }

    #[test]
    fn cells_cover_all_gates() {
        let mul = WallaceMultiplier::signed(8);
        let grouped: usize = mul.cells().iter().map(Vec::len).sum();
        // Two tie cells are not defect sites.
        assert_eq!(grouped + 2, mul.netlist().gate_count());
        assert_eq!(mul.width(), 8);
    }
}
