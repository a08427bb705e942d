//! Figure 11: accuracy vs. error amplitude for single defects in the
//! output layer's sensitive units (final adders and activation
//! functions), after retraining.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_fig11 -- --tasks iris,ionosphere --reps 20
//! ```

use dta_bench::{rule, Args};
use dta_core::campaign::{output_amplitude_curve, OutputSite};

fn main() {
    let args = Args::parse();
    let specs = args.tasks(&["iris", "ionosphere", "wine"]);
    let reps = args.get("reps", 12usize);
    let epochs = args.get("epochs", 25usize);
    let seed = args.get("seed", 0xF1611u64);
    let threads = args.get("threads", 1usize);

    println!("Figure 11 — accuracy vs. error amplitude for single output-layer defects");
    println!("({reps} random single-defect networks per task, retrained)\n");

    // Amplitude decades, as on the paper's log x-axis.
    let edges = [0.0, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, f64::INFINITY];
    let label = |i: usize| -> String {
        match i {
            0 => "<0.001".into(),
            _ if edges[i + 1].is_infinite() => format!(">{}", edges[i]),
            _ => format!("{}..{}", edges[i], edges[i + 1]),
        }
    };

    for spec in &specs {
        let points = output_amplitude_curve(spec, reps, Some(epochs), seed, threads);
        println!("== {} ==", spec.name);
        println!(
            "{:<14}{:>8}{:>12}{:>10}",
            "amplitude", "count", "mean acc", "sites"
        );
        rule(44);
        for i in 0..edges.len() - 1 {
            let bucket: Vec<_> = points
                .iter()
                .filter(|p| p.amplitude >= edges[i] && p.amplitude < edges[i + 1])
                .collect();
            if bucket.is_empty() {
                continue;
            }
            let mean_acc = bucket.iter().map(|p| p.accuracy).sum::<f64>() / bucket.len() as f64;
            let adders = bucket
                .iter()
                .filter(|p| p.site == OutputSite::Adder)
                .count();
            println!(
                "{:<14}{:>8}{:>11.1}%{:>7}A{:>2}F",
                label(i),
                bucket.len(),
                mean_acc * 100.0,
                adders,
                bucket.len() - adders
            );
        }
        println!();
    }
    println!(
        "expected shape: accuracy holds while the amplitude cannot sway the \
         class, then degrades; amplitude-sensitive tasks (iris-like) fall \
         earlier than robust ones (ionosphere-like)."
    );
}
