//! Tables I & II: hyper-parameter grid search per benchmark task.
//!
//! By default a coarse sub-grid of the Table I space is searched with
//! 3-fold cross-validation (minutes); `--full true` searches the
//! complete 3888-configuration Table I grid with 10 folds (very long,
//! as in the paper).
//!
//! ```sh
//! cargo run --release -p dta-bench --bin exp_table2
//! cargo run --release -p dta-bench --bin exp_table2 -- --tasks iris,wine
//! ```

use dta_ann::hyper::{search, HyperSpace};
use dta_bench::{pct, rule, Args};

fn main() {
    let args = Args::parse();
    let full = args.get_bool("full", false);
    let folds = args.get("folds", if full { 10 } else { 3 });
    let specs = args.tasks(&["iris", "wine", "glass", "vehicle"]);
    let seed = args.get("seed", 0x7AB1Eu64);

    let space = if full {
        HyperSpace::table1()
    } else {
        // The coarse grid spans the Table I ranges with 48 configs.
        HyperSpace::coarse()
    };
    println!(
        "Table II — best hyper-parameters per task ({} configs x {folds}-fold CV)",
        space.len()
    );
    println!(
        "Table I space: hidden {:?}, epochs {:?}, lr {:?}, momentum {:?}\n",
        HyperSpace::table1().hidden,
        HyperSpace::table1().epochs,
        HyperSpace::table1().learning_rates,
        HyperSpace::table1().momenta,
    );
    println!(
        "{:<12}{:>8}{:>8}{:>8}{:>10}{:>10}   paper (lr, epochs, hidden)",
        "task", "lr", "epochs", "hidden", "momentum", "accuracy"
    );
    rule(86);
    for spec in &specs {
        let ds = spec.dataset();
        let result = search(&ds, &space, folds, seed);
        println!(
            "{:<12}{:>8}{:>8}{:>8}{:>10}{:>10}   ({}, {}, {})",
            spec.name,
            result.best.learning_rate,
            result.best.epochs,
            result.best.hidden,
            result.best.momentum,
            pct(result.accuracy),
            spec.learning_rate,
            spec.epochs,
            spec.hidden,
        );
    }
    println!(
        "\n(data is synthetic with Table II dimensions, so our optima need not \
         equal the paper's; the search harness and space are identical)"
    );
}
