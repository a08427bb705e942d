//! The Q6.10 fixed-point type [`Fx`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 16-bit signed fixed-point number in Q6.10 format (6 integral bits
/// including sign, 10 fractional bits), the datapath word of the paper's
/// accelerator.
///
/// Representable range: `[-32.0, 32.0)` with resolution `2^-10`.
///
/// Arithmetic semantics mirror the hardware:
///
/// * `+`, `-` **saturate** at the representable range (the accelerator's
///   accumulators clamp on overflow); [`Fx::wrapping_add`] exposes the raw
///   two's-complement ripple-adder behavior for circuit-equivalence tests.
/// * `*` computes the exact 32-bit product and keeps bits `[25:10]`
///   (arithmetic shift right by 10, i.e. floor), then saturates — identical
///   to the gate-level Baugh–Wooley multiplier plus output clamp.
///
/// # Example
///
/// ```
/// use dta_fixed::Fx;
/// let a = Fx::from_f64(1.5);
/// let b = Fx::from_f64(-0.25);
/// assert_eq!((a * b).to_f64(), -0.375);
/// assert_eq!((Fx::MAX + Fx::MAX), Fx::MAX); // saturation
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx(i16);

impl Fx {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 10;
    /// Scaling factor `2^FRAC_BITS`.
    pub const SCALE: i32 = 1 << Self::FRAC_BITS;
    /// Smallest positive increment (`2^-10`).
    pub const RESOLUTION: f64 = 1.0 / Self::SCALE as f64;
    /// Zero.
    pub const ZERO: Fx = Fx(0);
    /// One.
    pub const ONE: Fx = Fx(1 << Self::FRAC_BITS);
    /// Largest representable value (`32767/1024 ≈ 31.999`).
    pub const MAX: Fx = Fx(i16::MAX);
    /// Smallest representable value (`-32.0`).
    pub const MIN: Fx = Fx(i16::MIN);

    /// Creates a value from its raw two's-complement bit pattern.
    #[inline]
    pub const fn from_raw(raw: i16) -> Fx {
        Fx(raw)
    }

    /// Returns the raw two's-complement representation.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Returns the 16 bits as an unsigned word, LSB-first when indexed by
    /// `(bits >> i) & 1`; this is the word driven onto the accelerator's
    /// internal wires.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0 as u16
    }

    /// Reconstructs a value from a 16-bit wire word.
    #[inline]
    pub const fn from_bits(bits: u16) -> Fx {
        Fx(bits as i16)
    }

    /// Converts from `f64`, rounding to nearest and saturating at the
    /// representable range. NaN maps to zero.
    #[inline]
    pub fn from_f64(x: f64) -> Fx {
        if x.is_nan() {
            return Fx::ZERO;
        }
        let scaled = (x * Self::SCALE as f64).round();
        Fx(scaled.clamp(i16::MIN as f64, i16::MAX as f64) as i16)
    }

    /// Converts to `f64` exactly (every `Fx` is exactly representable).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// Two's-complement (wrapping) addition — the raw behavior of the
    /// 16-bit ripple-carry adder before the saturation stage.
    #[inline]
    pub fn wrapping_add(self, rhs: Fx) -> Fx {
        Fx(self.0.wrapping_add(rhs.0))
    }

    /// Two's-complement (wrapping) subtraction.
    #[inline]
    pub fn wrapping_sub(self, rhs: Fx) -> Fx {
        Fx(self.0.wrapping_sub(rhs.0))
    }

    /// Truncating multiply without the final saturation stage: keeps bits
    /// `[25:10]` of the 32-bit product, discarding the upper bits. This is
    /// what a bare 16×16→16 hardware multiplier slice produces.
    #[inline]
    pub fn wrapping_mul(self, rhs: Fx) -> Fx {
        let prod = (self.0 as i32) * (rhs.0 as i32);
        Fx((prod >> Self::FRAC_BITS) as i16)
    }

    /// Saturating addition (the operator behind `+`).
    #[inline]
    pub fn saturating_add(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (the operator behind `-`).
    #[inline]
    pub fn saturating_sub(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_sub(rhs.0))
    }

    /// Saturating truncating multiply (the operator behind `*`): exact
    /// 32-bit product, arithmetic shift right by 10, clamp to 16 bits.
    #[inline]
    pub fn saturating_mul(self, rhs: Fx) -> Fx {
        let prod = (self.0 as i32) * (rhs.0 as i32);
        let shifted = prod >> Self::FRAC_BITS;
        Fx(shifted.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Absolute value, saturating (`|MIN|` clamps to `MAX`).
    #[inline]
    pub fn abs(self) -> Fx {
        Fx(self.0.saturating_abs())
    }
}

impl From<i16> for Fx {
    /// Converts an integer count of Q6.10 *units* (i.e. raw representation).
    fn from(raw: i16) -> Fx {
        Fx(raw)
    }
}

impl From<Fx> for f64 {
    fn from(x: Fx) -> f64 {
        x.to_f64()
    }
}

impl Add for Fx {
    type Output = Fx;
    #[inline]
    fn add(self, rhs: Fx) -> Fx {
        self.saturating_add(rhs)
    }
}

impl Sub for Fx {
    type Output = Fx;
    #[inline]
    fn sub(self, rhs: Fx) -> Fx {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fx {
    type Output = Fx;
    #[inline]
    fn mul(self, rhs: Fx) -> Fx {
        self.saturating_mul(rhs)
    }
}

impl Div for Fx {
    type Output = Fx;
    /// Fixed-point division `(a << 10) / b`, saturating.
    ///
    /// # Panics
    ///
    /// Panics on division by zero, like integer division.
    #[inline]
    fn div(self, rhs: Fx) -> Fx {
        let num = (self.0 as i32) << Self::FRAC_BITS;
        let q = num / rhs.0 as i32;
        Fx(q.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }
}

impl Neg for Fx {
    type Output = Fx;
    #[inline]
    fn neg(self) -> Fx {
        Fx(self.0.saturating_neg())
    }
}

impl AddAssign for Fx {
    fn add_assign(&mut self, rhs: Fx) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fx {
    fn sub_assign(&mut self, rhs: Fx) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fx {
    fn mul_assign(&mut self, rhs: Fx) {
        *self = *self * rhs;
    }
}

impl Sum for Fx {
    fn sum<I: Iterator<Item = Fx>>(iter: I) -> Fx {
        iter.fold(Fx::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Debug for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx({})", self.to_f64())
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl fmt::Binary for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&(self.0 as u16), f)
    }
}

impl fmt::LowerHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&(self.0 as u16), f)
    }
}

impl fmt::UpperHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&(self.0 as u16), f)
    }
}

impl fmt::Octal for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&(self.0 as u16), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Fx::ZERO.to_f64(), 0.0);
        assert_eq!(Fx::ONE.to_f64(), 1.0);
        assert_eq!(Fx::MIN.to_f64(), -32.0);
        assert!((Fx::MAX.to_f64() - 32.0).abs() < 0.001);
    }

    #[test]
    fn roundtrip_f64() {
        for raw in [-32768i16, -1024, -1, 0, 1, 512, 1024, 32767] {
            let x = Fx::from_raw(raw);
            assert_eq!(Fx::from_f64(x.to_f64()), x);
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Fx::from_f64(1e9), Fx::MAX);
        assert_eq!(Fx::from_f64(-1e9), Fx::MIN);
        assert_eq!(Fx::from_f64(f64::NAN), Fx::ZERO);
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 0.00048828125 = half a ulp; rounds away from zero.
        assert_eq!(Fx::from_f64(Fx::RESOLUTION / 2.0).raw(), 1);
        assert_eq!(Fx::from_f64(Fx::RESOLUTION / 4.0).raw(), 0);
    }

    #[test]
    fn add_saturates() {
        assert_eq!(Fx::MAX + Fx::ONE, Fx::MAX);
        assert_eq!(Fx::MIN - Fx::ONE, Fx::MIN);
        assert_eq!(Fx::from_f64(1.5) + Fx::from_f64(2.25), Fx::from_f64(3.75));
    }

    #[test]
    fn mul_truncates_toward_neg_infinity() {
        // 3 raw units * 3 raw units = 9 / 1024 -> floor to 0 raw units.
        let tiny = Fx::from_raw(3);
        assert_eq!(tiny * tiny, Fx::ZERO);
        // Negative product truncates toward -inf: -9/1024 -> -1 raw unit.
        assert_eq!((-tiny) * tiny, Fx::from_raw(-1));
    }

    #[test]
    fn mul_matches_exact_when_representable() {
        assert_eq!(Fx::from_f64(1.5) * Fx::from_f64(-2.0), Fx::from_f64(-3.0));
        assert_eq!(Fx::from_f64(0.5) * Fx::from_f64(0.5), Fx::from_f64(0.25));
    }

    #[test]
    fn mul_saturates() {
        let big = Fx::from_f64(30.0);
        assert_eq!(big * big, Fx::MAX);
        assert_eq!(big * -big, Fx::MIN);
    }

    #[test]
    fn div_basic() {
        assert_eq!(Fx::from_f64(1.0) / Fx::from_f64(2.0), Fx::from_f64(0.5));
        assert_eq!(Fx::from_f64(3.0) / Fx::from_f64(-1.5), Fx::from_f64(-2.0));
    }

    #[test]
    fn neg_saturates_min() {
        assert_eq!(-Fx::MIN, Fx::MAX);
        assert_eq!(-Fx::ONE, Fx::from_f64(-1.0));
    }

    #[test]
    fn wrapping_matches_twos_complement() {
        assert_eq!(Fx::MAX.wrapping_add(Fx::from_raw(1)), Fx::MIN);
        let a = Fx::from_f64(31.0);
        let b = Fx::from_f64(2.0);
        assert_eq!(
            a.wrapping_add(b).raw(),
            (31.0f64 * 1024.0 + 2.0 * 1024.0) as i32 as i16
        );
    }

    #[test]
    fn bits_roundtrip() {
        for raw in [-32768i16, -1, 0, 12345] {
            let x = Fx::from_raw(raw);
            assert_eq!(Fx::from_bits(x.to_bits()), x);
        }
    }

    #[test]
    fn sum_saturates() {
        let xs = vec![Fx::from_f64(20.0); 10];
        assert_eq!(xs.into_iter().sum::<Fx>(), Fx::MAX);
    }

    #[test]
    fn ordering_and_abs() {
        assert!(Fx::from_f64(-1.0) < Fx::ZERO);
        assert!(Fx::from_f64(2.0) > Fx::ONE);
        assert_eq!(Fx::from_f64(-3.5).abs(), Fx::from_f64(3.5));
        assert_eq!(Fx::MIN.abs(), Fx::MAX);
    }

    #[test]
    fn formatting_nonempty() {
        let x = Fx::from_f64(-1.0);
        assert_eq!(format!("{x}"), "-1");
        assert_eq!(format!("{x:?}"), "Fx(-1)");
        assert_eq!(format!("{x:x}"), "fc00");
        assert_eq!(format!("{x:b}"), "1111110000000000");
    }
}
