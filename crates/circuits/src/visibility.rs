//! Defect visibility: how often, and how strongly, a defective operator
//! actually disagrees with the healthy one.
//!
//! This analysis explains the mechanics behind the paper's Figure 10
//! tolerance: many transistor-level defects are *invisible* for most
//! operand values (a dead branch of a pull-up network only matters for
//! the input combinations that would have used it), and many visible
//! ones flip low-significance bits that retraining absorbs trivially.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_fixed::{Fx, SigmoidLut};

use crate::ops::{HwAdder, HwMultiplier, HwSigmoid};

/// Divergence statistics of a faulty operator against its healthy twin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VisibilityReport {
    /// Fraction of sampled operand vectors where the outputs differ.
    pub visible_fraction: f64,
    /// Mean |faulty − healthy| over the samples (value domain).
    pub mean_abs_error: f64,
    /// Largest |faulty − healthy| observed.
    pub max_abs_error: f64,
    /// Number of operand vectors sampled.
    pub samples: usize,
}

fn random_fx<R: Rng + ?Sized>(rng: &mut R) -> Fx {
    Fx::from_raw(rng.random::<i16>())
}

/// Measures a (possibly faulty) multiplier against native `Fx` multiply
/// over `samples` random operand pairs.
pub fn multiplier_visibility(hw: &mut HwMultiplier, samples: usize, seed: u64) -> VisibilityReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    measure(samples, |_| {
        let (a, b) = (random_fx(&mut rng), random_fx(&mut rng));
        (hw.mul(a, b).to_f64(), (a * b).to_f64())
    })
}

/// Measures a (possibly faulty) adder against native `Fx` addition.
pub fn adder_visibility(hw: &mut HwAdder, samples: usize, seed: u64) -> VisibilityReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    measure(samples, |_| {
        let (a, b) = (random_fx(&mut rng), random_fx(&mut rng));
        (hw.add(a, b).to_f64(), (a + b).to_f64())
    })
}

/// Measures a (possibly faulty) activation unit against the LUT sigmoid.
pub fn sigmoid_visibility(hw: &mut HwSigmoid, samples: usize, seed: u64) -> VisibilityReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lut = SigmoidLut::new();
    measure(samples, |_| {
        let x = random_fx(&mut rng);
        (hw.eval(x).to_f64(), lut.eval(x).to_f64())
    })
}

fn measure(samples: usize, mut pair: impl FnMut(usize) -> (f64, f64)) -> VisibilityReport {
    assert!(samples > 0, "need at least one sample");
    let mut visible = 0usize;
    let mut total_err = 0.0f64;
    let mut max_err = 0.0f64;
    for i in 0..samples {
        let (faulty, healthy) = pair(i);
        let err = (faulty - healthy).abs();
        if err > 0.0 {
            visible += 1;
        }
        total_err += err;
        max_err = max_err.max(err);
    }
    VisibilityReport {
        visible_fraction: visible as f64 / samples as f64,
        mean_abs_error: total_err / samples as f64,
        max_abs_error: max_err,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultModel;
    use rand::SeedableRng;

    #[test]
    fn healthy_operators_are_invisible() {
        let mut mul = HwMultiplier::new();
        let r = multiplier_visibility(&mut mul, 200, 1);
        assert_eq!(r.visible_fraction, 0.0, "{r:?}");
        assert_eq!(r.mean_abs_error, 0.0);
        assert_eq!(r.samples, 200);

        let mut add = HwAdder::new();
        assert_eq!(adder_visibility(&mut add, 200, 2).visible_fraction, 0.0);

        let mut act = HwSigmoid::new();
        assert_eq!(sigmoid_visibility(&mut act, 200, 3).visible_fraction, 0.0);
    }

    #[test]
    fn heavy_damage_is_visible() {
        let mut mul = HwMultiplier::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        mul.inject_random(FaultModel::TransistorLevel, 25, &mut rng);
        let r = multiplier_visibility(&mut mul, 300, 5);
        assert!(r.visible_fraction > 0.0, "{r:?}");
        assert!(r.max_abs_error > 0.0);
        assert!(r.mean_abs_error <= r.max_abs_error);
    }

    #[test]
    fn some_single_defects_are_invisible_on_samples() {
        // Across a handful of random single defects, at least one should
        // be (near-)invisible and at least one visible — the spread that
        // underlies defect tolerance.
        let mut visible = 0;
        let mut invisible = 0;
        for seed in 0..12 {
            let mut add = HwAdder::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            add.inject_random(FaultModel::TransistorLevel, 1, &mut rng);
            let r = adder_visibility(&mut add, 400, seed ^ 0xA);
            if r.visible_fraction < 0.01 {
                invisible += 1;
            } else {
                visible += 1;
            }
        }
        assert!(visible > 0, "no defect ever manifested");
        assert!(invisible > 0, "every defect manifested strongly");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let mut add = HwAdder::new();
        let _ = adder_visibility(&mut add, 0, 0);
    }
}
