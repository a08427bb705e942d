//! Ablation: datapath precision sweep (paper §IV: "fixed-point
//! computations with as little as 8 bits have been shown to achieve
//! similar accuracy ... we opt for a 16-bit design" and "we empirically
//! checked that this 16-bit design allows to achieve the same accuracy
//! as a floating-point design").
//!
//! A Qm.n-quantized forward path (weights, inputs and activations
//! quantized; exact sigmoid on the quantized values) is swept over word
//! widths and compared against the f64 reference.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_ablation_fixed
//! ```

use dta_ann::{ForwardTrace, Mlp, Topology, Trainer};
use dta_bench::{pct, rule, Args};
use dta_fixed::{sigmoid::sigmoid, QFormat};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Forward pass with every operand and intermediate quantized to `q`.
fn forward_quantized(mlp: &Mlp, x: &[f64], q: QFormat) -> ForwardTrace {
    let topo = mlp.topology();
    let xq: Vec<f64> = x.iter().map(|&v| q.quantize_round(v)).collect();
    let hidden: Vec<f64> = (0..topo.hidden)
        .map(|j| {
            let mut acc = q.quantize_round(mlp.w_hidden(j, topo.inputs));
            for (i, &xi) in xq.iter().enumerate() {
                let w = q.quantize_round(mlp.w_hidden(j, i));
                acc = q.quantize(acc + q.quantize(w * xi));
            }
            q.quantize(sigmoid(acc))
        })
        .collect();
    let output_pre: Vec<f64> = (0..topo.outputs)
        .map(|k| {
            let mut acc = q.quantize_round(mlp.w_output(k, topo.hidden));
            for (j, &hj) in hidden.iter().enumerate() {
                let w = q.quantize_round(mlp.w_output(k, j));
                acc = q.quantize(acc + q.quantize(w * hj));
            }
            acc
        })
        .collect();
    let output = output_pre.iter().map(|&a| q.quantize(sigmoid(a))).collect();
    ForwardTrace {
        hidden,
        output_pre,
        output,
    }
}

fn main() {
    let args = Args::parse();
    let specs = args.tasks(&["iris", "wine", "vehicle"]);
    let epochs = args.get("epochs", 30usize);
    let seed = args.get("seed", 0xF17ED_u64);

    // Formats: total width 8/12/16/20/24 with ~1/3 integral bits.
    let formats = [
        QFormat::new(3, 5),
        QFormat::new(4, 8),
        QFormat::new(6, 10), // the paper's choice
        QFormat::new(7, 13),
        QFormat::new(8, 16),
    ];

    print!("{:<12}{:>10}", "task", "f64");
    for q in &formats {
        print!("{:>10}", q.to_string());
    }
    println!();
    rule(12 + 10 * (formats.len() + 1));

    for spec in &specs {
        let ds = spec.dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        // One float-trained network per task; evaluate it through each
        // quantized path (training stays on the companion core).
        let trainer = Trainer::new(spec.learning_rate, 0.1, epochs, dta_ann::ForwardMode::Float);
        let topo = Topology::new(ds.n_features(), spec.hidden, ds.n_classes());
        let mut mlp = Mlp::new(topo, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        trainer.train(&mut mlp, &ds, &idx, None, &mut rng);

        let float_acc = Trainer::evaluate_with(&mlp, &ds, &idx, |m, x| m.forward_float(x));
        print!("{:<12}{:>10}", spec.name, pct(float_acc));
        for &q in &formats {
            let acc = Trainer::evaluate_with(&mlp, &ds, &idx, |m, x| forward_quantized(m, x, q));
            print!("{:>10}", pct(acc));
        }
        println!();
    }
    println!(
        "\nexpected shape: accuracy saturates by Q6.10 (16 bits); very narrow \
         formats (8 bits) may lose a little — matching Holi & Hwang and the \
         paper's design choice."
    );
}
