//! Runtime-parameterized Qm.n formats for precision-ablation experiments.

use std::fmt;

/// A signed fixed-point format with a runtime-chosen number of integral and
/// fractional bits, used to quantize an `f64` computation to an arbitrary
/// precision.
///
/// The paper states that "fixed-point computations with as little as 8 bits
/// have been shown to achieve similar accuracy for a broad range of
/// problems" and picks Q6.10; the `exp_ablation_fixed` experiment sweeps
/// formats with this type to verify that claim on our benchmark suite.
///
/// # Example
///
/// ```
/// use dta_fixed::QFormat;
/// let q = QFormat::new(6, 10); // the accelerator's Q6.10
/// assert_eq!(q.total_bits(), 16);
/// assert_eq!(q.quantize(0.299_999), 0.2998046875); // floor to 2^-10
/// assert_eq!(q.quantize(1000.0), 31.9990234375);   // saturates
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a Qm.n format with `int_bits` integral bits (including the
    /// sign bit) and `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `int_bits == 0` or `int_bits + frac_bits > 32`.
    pub fn new(int_bits: u32, frac_bits: u32) -> QFormat {
        assert!(int_bits >= 1, "need at least the sign bit");
        assert!(
            int_bits + frac_bits <= 32,
            "formats wider than 32 bits are not supported"
        );
        QFormat {
            int_bits,
            frac_bits,
        }
    }

    /// The paper's datapath format, Q6.10.
    pub fn q6_10() -> QFormat {
        QFormat::new(6, 10)
    }

    /// Number of integral bits (including sign).
    pub fn int_bits(self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Total word width in bits.
    pub fn total_bits(self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// Resolution (value of one least-significant bit).
    pub fn resolution(self) -> f64 {
        (2.0f64).powi(-(self.frac_bits as i32))
    }

    /// Quantizes `x` to this format: floor to the resolution grid (matching
    /// the truncating hardware datapath) and saturate at the range bounds.
    /// NaN maps to zero.
    pub fn quantize(self, x: f64) -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        let scale = (1u64 << self.frac_bits) as f64;
        let raw = (x * scale).floor();
        let max_raw = ((1i64 << (self.total_bits() - 1)) - 1) as f64;
        let min_raw = (-(1i64 << (self.total_bits() - 1))) as f64;
        raw.clamp(min_raw, max_raw) / scale
    }

    /// Quantizes with round-to-nearest instead of floor (used when loading
    /// trained weights into the accelerator, which rounds once at load
    /// time).
    pub fn quantize_round(self, x: f64) -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        let scale = (1u64 << self.frac_bits) as f64;
        let raw = (x * scale).round();
        let max_raw = ((1i64 << (self.total_bits() - 1)) - 1) as f64;
        let min_raw = (-(1i64 << (self.total_bits() - 1))) as f64;
        raw.clamp(min_raw, max_raw) / scale
    }
}

impl Default for QFormat {
    /// The accelerator's Q6.10.
    fn default() -> QFormat {
        QFormat::q6_10()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fx;

    #[test]
    fn q6_10_bounds_match_fx() {
        let q = QFormat::q6_10();
        assert_eq!(q.quantize(1000.0), Fx::MAX.to_f64());
        assert_eq!(q.quantize(-1000.0), Fx::MIN.to_f64());
        assert_eq!(q.resolution(), Fx::RESOLUTION);
    }

    #[test]
    fn quantize_floors() {
        let q = QFormat::new(2, 2); // resolution 0.25, range [-2, 1.75]
        assert_eq!(q.quantize(0.6), 0.5);
        assert_eq!(q.quantize(-0.6), -0.75);
        assert_eq!(q.quantize(0.25), 0.25);
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(2, 2);
        assert_eq!(q.quantize(100.0), 1.75);
        assert_eq!(q.quantize(-100.0), -2.0);
        assert_eq!(q.quantize(f64::NAN), 0.0);
    }

    #[test]
    fn quantize_round_rounds() {
        let q = QFormat::new(2, 2);
        assert_eq!(q.quantize_round(0.6), 0.5);
        assert_eq!(q.quantize_round(0.7), 0.75);
        assert_eq!(q.quantize_round(-0.6), -0.5);
    }

    #[test]
    fn display() {
        assert_eq!(QFormat::q6_10().to_string(), "Q6.10");
    }

    #[test]
    #[should_panic(expected = "sign bit")]
    fn zero_int_bits_rejected() {
        let _ = QFormat::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "wider than 32")]
    fn too_wide_rejected() {
        let _ = QFormat::new(16, 17);
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = QFormat::new(4, 6);
        for x in [-7.99, -1.0, 0.0, 0.015625, std::f64::consts::PI, 7.98] {
            let once = q.quantize(x);
            assert_eq!(q.quantize(once), once);
        }
    }
}
