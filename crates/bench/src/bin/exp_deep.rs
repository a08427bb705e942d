//! Extension experiment (paper §VIII future work): deep networks on the
//! accelerator.
//!
//! Compares 2-, 3- and 4-layer networks on the hardest suite task
//! (optdigits-like, 64 inputs / 10 classes) and reports the partial
//! time-multiplexing cost of mapping each depth onto the 90-10-10 array.
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_deep -- --epochs 40
//! ```

use dta_ann::deep::{DeepMlp, DeepTrainer};
use dta_ann::Topology;
use dta_bench::{pct, rule, Args};
use dta_core::large::LargeNetworkMapper;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args = Args::parse();
    let spec = args.task("optdigits");
    let epochs = args.get("epochs", 60usize);
    let seed = args.get("seed", 0xDEE9u64);

    let ds = spec.dataset();
    let split = ds.k_folds(5, seed);
    let fold = &split[0];

    let architectures: Vec<Vec<usize>> = vec![
        vec![ds.n_features(), 14, ds.n_classes()],
        vec![ds.n_features(), 20, 12, ds.n_classes()],
        vec![ds.n_features(), 24, 16, 10, ds.n_classes()],
    ];

    let mapper = LargeNetworkMapper::new(Topology::accelerator());
    println!(
        "Deep networks on `{}` ({} train / {} test rows), {} epochs\n",
        spec.name,
        fold.train.len(),
        fold.test.len(),
        epochs
    );
    println!(
        "{:<22}{:>10}{:>12}{:>10}{:>14}",
        "architecture", "weights", "test acc", "passes", "latency"
    );
    rule(68);
    for dims in &architectures {
        let mut net = DeepMlp::new(dims, seed);
        let trainer = DeepTrainer::new(0.3, 0.2, epochs);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ dims.len() as u64);
        trainer.train(&mut net, &ds, &fold.train, &mut rng);
        let acc = trainer.evaluate(&net, &ds, &fold.test);
        let label = dims
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("-");
        println!(
            "{:<22}{:>10}{:>12}{:>10}{:>11.1} ns",
            label,
            net.n_weights(),
            pct(acc),
            mapper.passes_for_layers(dims),
            mapper.latency_ns_for_layers(dims)
        );
    }
    println!(
        "\ndeeper networks cost proportionally more passes under partial \
         time-multiplexing — the motivation for the paper's proposed 3D \
         stacking / memristor scaling paths. (Plain sigmoid back-propagation \
         needs more epochs as depth grows — the vanishing-gradient effect \
         that made 2012-era deep nets rely on pretraining.)"
    );
}
