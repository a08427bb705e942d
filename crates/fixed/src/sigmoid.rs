//! The sigmoid activation function and its 16-segment piecewise-linear
//! hardware approximation.
//!
//! The paper implements the activation function "using a piecewise linear
//! approximation using a small look-up table (`x -> f(x) = a_i*x + b_i`)"
//! with 16 segments, observed to have "no noticeable impact on the network
//! accuracy compared to the original sigmoid".

use crate::Fx;

/// Exact logistic sigmoid `1 / (1 + e^-x)`.
///
/// # Example
///
/// ```
/// assert_eq!(dta_fixed::sigmoid::sigmoid(0.0), 0.5);
/// ```
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One segment of the piecewise-linear approximation: `f(x) ≈ a*x + b`,
/// with both coefficients quantized to Q6.10 exactly as stored in the
/// hardware look-up table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Slope coefficient.
    pub a: Fx,
    /// Offset coefficient.
    pub b: Fx,
}

/// Number of segments in the hardware look-up table.
pub const NUM_SEGMENTS: usize = 16;

/// Lower edge of the approximated domain; below it the unit outputs 0.
pub const DOMAIN_MIN: f64 = -8.0;

/// Upper edge of the approximated domain; at or above it the unit outputs 1.
pub const DOMAIN_MAX: f64 = 8.0;

/// The 16-entry sigmoid look-up table of the activation unit.
///
/// Each of the 16 unit-width segments covering `[-8, 8)` stores a
/// Q6.10 `(a_i, b_i)` pair obtained by chord interpolation of the exact
/// sigmoid at the segment endpoints. Evaluation is one table read, one
/// multiply and one add — the same three operations as the hardware unit,
/// so [`SigmoidLut::eval`] is bit-exact with the gate-level activation
/// circuit in `dta-circuits`.
///
/// # Example
///
/// ```
/// use dta_fixed::{Fx, SigmoidLut};
/// let lut = SigmoidLut::new();
/// assert_eq!(lut.eval(Fx::ZERO).to_f64(), 0.5);
/// assert_eq!(lut.eval(Fx::from_f64(20.0)), Fx::ONE);
/// assert_eq!(lut.eval(Fx::from_f64(-20.0)), Fx::ZERO);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmoidLut {
    segments: [Segment; NUM_SEGMENTS],
}

impl SigmoidLut {
    /// Builds the table by chord-interpolating the exact sigmoid over each
    /// unit-width segment of `[-8, 8)` and rounding coefficients to Q6.10.
    pub fn new() -> SigmoidLut {
        let mut segments = [Segment {
            a: Fx::ZERO,
            b: Fx::ZERO,
        }; NUM_SEGMENTS];
        for (i, seg) in segments.iter_mut().enumerate() {
            let x0 = DOMAIN_MIN + i as f64;
            let x1 = x0 + 1.0;
            let y0 = sigmoid(x0);
            let y1 = sigmoid(x1);
            let a = y1 - y0; // divided by (x1 - x0) == 1
            let b = y0 - a * x0;
            seg.a = Fx::from_f64(a);
            seg.b = Fx::from_f64(b);
        }
        SigmoidLut { segments }
    }

    /// Returns the table contents (what the hardware LUT stores).
    pub fn segments(&self) -> &[Segment; NUM_SEGMENTS] {
        &self.segments
    }

    /// Maps an input to its segment index, or the saturated rail.
    ///
    /// The hardware derives the index from the integral part of `x`
    /// (bits `[15:10]`): values below −8 saturate to 0, values at or above
    /// +8 saturate to 1, everything else selects one of the 16 entries.
    pub fn index(&self, x: Fx) -> LutIndex {
        let int_part = (x.raw() >> Fx::FRAC_BITS) as i32; // floor(x)
        if int_part < DOMAIN_MIN as i32 {
            LutIndex::RailLow
        } else if int_part >= DOMAIN_MAX as i32 {
            LutIndex::RailHigh
        } else {
            LutIndex::Segment((int_part - DOMAIN_MIN as i32) as usize)
        }
    }

    /// Evaluates the approximation with Q6.10 arithmetic:
    /// `clamp(a_i * x + b_i, 0, 1)`.
    pub fn eval(&self, x: Fx) -> Fx {
        match self.index(x) {
            LutIndex::RailLow => Fx::ZERO,
            LutIndex::RailHigh => Fx::ONE,
            LutIndex::Segment(i) => {
                let seg = self.segments[i];
                let y = seg.a * x + seg.b;
                y.clamp(Fx::ZERO, Fx::ONE)
            }
        }
    }

    /// Maximum absolute error of [`SigmoidLut::eval`] against the exact
    /// sigmoid, scanned over every representable Q6.10 input.
    pub fn max_abs_error(&self) -> f64 {
        let mut worst = 0.0f64;
        for raw in i16::MIN..=i16::MAX {
            let x = Fx::from_raw(raw);
            let err = (self.eval(x).to_f64() - sigmoid(x.to_f64())).abs();
            worst = worst.max(err);
        }
        worst
    }
}

impl Default for SigmoidLut {
    fn default() -> SigmoidLut {
        SigmoidLut::new()
    }
}

/// A runtime-parameterized piecewise-linear sigmoid over `[-8, 8)` with
/// any segment count — the design-space companion of the fixed 16-entry
/// hardware [`SigmoidLut`], used by the segment-count ablation ("we
/// empirically observed that approximating the function with 16 segments
/// has no noticeable impact").
///
/// # Example
///
/// ```
/// use dta_fixed::sigmoid::PwlSigmoid;
/// let coarse = PwlSigmoid::new(4);
/// let fine = PwlSigmoid::new(64);
/// assert!(fine.max_abs_error() < coarse.max_abs_error());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PwlSigmoid {
    /// `(a_i, b_i)` per segment, in f64 (no coefficient quantization, so
    /// this isolates the segmentation error).
    segments: Vec<(f64, f64)>,
}

impl PwlSigmoid {
    /// Builds an `n`-segment chord approximation of the sigmoid over
    /// `[-8, 8)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_segments` is zero.
    pub fn new(n_segments: usize) -> PwlSigmoid {
        assert!(n_segments >= 1, "need at least one segment");
        let width = (DOMAIN_MAX - DOMAIN_MIN) / n_segments as f64;
        let segments = (0..n_segments)
            .map(|i| {
                let x0 = DOMAIN_MIN + i as f64 * width;
                let x1 = x0 + width;
                let a = (sigmoid(x1) - sigmoid(x0)) / width;
                let b = sigmoid(x0) - a * x0;
                (a, b)
            })
            .collect();
        PwlSigmoid { segments }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Evaluates the approximation.
    pub fn eval(&self, x: f64) -> f64 {
        if x < DOMAIN_MIN {
            0.0
        } else if x >= DOMAIN_MAX {
            1.0
        } else {
            let width = (DOMAIN_MAX - DOMAIN_MIN) / self.segments.len() as f64;
            let i = (((x - DOMAIN_MIN) / width) as usize).min(self.segments.len() - 1);
            let (a, b) = self.segments[i];
            (a * x + b).clamp(0.0, 1.0)
        }
    }

    /// Maximum absolute error against the exact sigmoid, scanned densely
    /// over the domain.
    pub fn max_abs_error(&self) -> f64 {
        let mut worst = 0.0f64;
        let mut x = DOMAIN_MIN;
        while x < DOMAIN_MAX {
            worst = worst.max((self.eval(x) - sigmoid(x)).abs());
            x += 1.0 / 512.0;
        }
        worst
    }
}

/// Result of mapping an input to the activation-unit look-up table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LutIndex {
    /// Input below the approximated domain: output rails to 0.
    RailLow,
    /// Input above the approximated domain: output rails to 1.
    RailHigh,
    /// Input inside the domain: use segment `i`.
    Segment(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LUT's piecewise-linear approximation in `f64`: quantized
    /// coefficients, exact arithmetic.
    fn lut_f64(lut: &SigmoidLut, x: f64) -> f64 {
        if x < DOMAIN_MIN {
            0.0
        } else if x >= DOMAIN_MAX {
            1.0
        } else {
            let i = (x - DOMAIN_MIN).floor() as usize;
            let seg = lut.segments[i.min(NUM_SEGMENTS - 1)];
            (seg.a.to_f64() * x + seg.b.to_f64()).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn exact_sigmoid_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // Symmetry: f(-x) = 1 - f(x).
        for x in [0.1, 1.0, 3.7] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn lut_rails() {
        let lut = SigmoidLut::new();
        assert_eq!(lut.eval(Fx::from_f64(-8.001)), Fx::ZERO);
        assert_eq!(lut.eval(Fx::from_f64(-31.0)), Fx::ZERO);
        assert_eq!(lut.eval(Fx::from_f64(8.0)), Fx::ONE);
        assert_eq!(lut.eval(Fx::from_f64(30.0)), Fx::ONE);
    }

    #[test]
    fn lut_index_boundaries() {
        let lut = SigmoidLut::new();
        assert_eq!(lut.index(Fx::from_f64(-8.0)), LutIndex::Segment(0));
        assert_eq!(lut.index(Fx::from_f64(0.0)), LutIndex::Segment(8));
        assert_eq!(lut.index(Fx::from_f64(7.999)), LutIndex::Segment(15));
        assert_eq!(lut.index(Fx::from_f64(8.0)), LutIndex::RailHigh);
        // floor semantics: -0.001 has integral part -1 -> segment 7.
        assert_eq!(lut.index(Fx::from_f64(-0.5)), LutIndex::Segment(7));
    }

    #[test]
    fn lut_accuracy_within_paper_tolerance() {
        // 16 unit-width chords over [-8,8) keep the error comfortably
        // below 2% — the "no noticeable impact" regime of the paper.
        let lut = SigmoidLut::new();
        assert!(lut.max_abs_error() < 0.02, "err={}", lut.max_abs_error());
    }

    #[test]
    fn lut_monotonic_nondecreasing() {
        let lut = SigmoidLut::new();
        let mut prev = Fx::MIN;
        let mut prev_y = lut.eval(prev);
        for raw in (i16::MIN..=i16::MAX).step_by(7) {
            let x = Fx::from_raw(raw);
            let y = lut.eval(x);
            if x > prev {
                // Coefficient quantization (a_i rounded to 2^-10 over a
                // domain of |x| <= 8) can dent monotonicity by up to
                // 8 * 2^-10 at segment boundaries; never more.
                assert!(
                    y >= prev_y - Fx::from_raw(8),
                    "non-monotonic at {x}: {prev_y} -> {y}"
                );
            }
            prev = x;
            prev_y = y;
        }
    }

    #[test]
    fn lut_output_bounded() {
        let lut = SigmoidLut::new();
        for raw in (i16::MIN..=i16::MAX).step_by(13) {
            let y = lut.eval(Fx::from_raw(raw));
            assert!(y >= Fx::ZERO && y <= Fx::ONE);
        }
    }

    #[test]
    fn midpoint_value() {
        let lut = SigmoidLut::new();
        // sigmoid(0) = 0.5 exactly; segment 8 chord passes through it.
        assert_eq!(lut.eval(Fx::ZERO).to_f64(), 0.5);
    }

    #[test]
    fn pwl_error_shrinks_quadratically_with_segments() {
        // Chord error scales ~1/n^2: quadrupling the segments should cut
        // the error by an order of magnitude.
        let e4 = PwlSigmoid::new(4).max_abs_error();
        let e16 = PwlSigmoid::new(16).max_abs_error();
        let e64 = PwlSigmoid::new(64).max_abs_error();
        assert!(e16 < e4 / 8.0, "e4={e4} e16={e16}");
        assert!(e64 < e16 / 8.0, "e16={e16} e64={e64}");
    }

    #[test]
    fn pwl_16_matches_hardware_lut_before_quantization() {
        let pwl = PwlSigmoid::new(16);
        let lut = SigmoidLut::new();
        for raw in (i16::MIN..=i16::MAX).step_by(257) {
            let x = Fx::from_raw(raw);
            let diff = (pwl.eval(x.to_f64()) - lut_f64(&lut, x.to_f64())).abs();
            // The only difference is the LUT's Q6.10 coefficient rounding.
            assert!(diff < 0.01, "diff {diff} at {x}");
        }
    }

    #[test]
    fn pwl_rails_and_bounds() {
        let pwl = PwlSigmoid::new(8);
        assert_eq!(pwl.eval(-100.0), 0.0);
        assert_eq!(pwl.eval(100.0), 1.0);
        assert_eq!(pwl.n_segments(), 8);
        for i in -1000..1000 {
            let y = pwl.eval(i as f64 / 50.0);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_rejected() {
        let _ = PwlSigmoid::new(0);
    }
}
