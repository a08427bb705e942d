//! Ablation: the 16-segment piecewise-linear sigmoid vs. the exact
//! sigmoid (paper §IV: "approximating the function with 16 segments has
//! no noticeable impact on the network accuracy").
//!
//! Also sweeps the segment count to show where the approximation starts
//! to matter.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_ablation_sigmoid
//! ```

use dta_ann::{cross_validate, ForwardMode, Trainer};
use dta_bench::{pct, rule, Args};
use dta_fixed::{sigmoid::sigmoid, Fx, PwlSigmoid, SigmoidLut};

fn main() {
    let args = Args::parse();
    let specs = args.tasks(&["iris", "wine", "glass"]);
    let epochs = args.get("epochs", 30usize);
    let folds = args.get("folds", 3usize);
    let seed = args.get("seed", 0x516u64);

    // Approximation error of the LUT itself.
    let lut = SigmoidLut::new();
    println!(
        "16-segment PWL sigmoid: max |error| over all Q6.10 inputs = {:.4}",
        lut.max_abs_error()
    );
    let mut worst_mid = 0.0f64;
    for raw in (-8192i32..8192).step_by(16) {
        let x = Fx::from_raw(raw as i16);
        worst_mid = worst_mid.max((lut.eval(x).to_f64() - sigmoid(x.to_f64())).abs());
    }
    println!("                        max |error| on the central [-8,8) = {worst_mid:.4}\n");

    // Segment-count design space (chord approximation, no coefficient
    // quantization): where does the 16-segment choice sit?
    println!("{:<12}{:>16}", "#segments", "max |error|");
    rule(28);
    for n in [2usize, 4, 8, 16, 32, 64] {
        let marker = if n == 16 { "  <- hardware choice" } else { "" };
        println!(
            "{:<12}{:>16.5}{marker}",
            n,
            PwlSigmoid::new(n).max_abs_error()
        );
    }
    println!();

    // Accuracy: exact-sigmoid float path vs hardware fixed path (PWL).
    println!(
        "{:<12}{:>22}{:>22}{:>10}",
        "task", "float + exact sigmoid", "Q6.10 + 16-seg PWL", "delta"
    );
    rule(66);
    for spec in &specs {
        let ds = spec.dataset();
        let float = cross_validate(
            &Trainer::new(spec.learning_rate, 0.1, epochs, ForwardMode::Float),
            &ds,
            spec.hidden,
            folds,
            seed,
            None,
        );
        let fixed = cross_validate(
            &Trainer::new(spec.learning_rate, 0.1, epochs, ForwardMode::Fixed),
            &ds,
            spec.hidden,
            folds,
            seed,
            None,
        );
        println!(
            "{:<12}{:>22}{:>22}{:>+9.1}pt",
            spec.name,
            pct(float.mean()),
            pct(fixed.mean()),
            (fixed.mean() - float.mean()) * 100.0
        );
    }
    println!(
        "\npaper claim: the hardware path (Q6.10 + 16-segment sigmoid) matches \
         the floating-point software model — deltas should be within noise."
    );
}
