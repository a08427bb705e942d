//! Property tests for the systolic topology: bit-identity of the
//! defect-free grid against the reference fixed-point forward pass
//! (scalar and 64-lane batched), transparency of spare-row routing,
//! and the repair-rung floor (bypass/remap can never end below the
//! blind-retrain baseline).

use dta_ann::{Mlp, Topology};
use dta_circuits::Activation;
use dta_core::accel::Accel;
use dta_core::recover::{recover, RecoveryPolicy};
use dta_core::{run_selftest, BistConfig, Diagnosis, RungBudget};
use dta_datasets::{Dataset, GaussianMixture};
use dta_fixed::SigmoidLut;
use dta_systolic::SystolicAccelerator;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Topologies inside the systolic envelope (90-10-10), sized so every
/// case exercises partial tiles without taking seconds.
fn envelope_topology() -> impl Strategy<Value = Topology> {
    (1usize..36, 1usize..11, 1usize..11).prop_map(|(i, h, o)| Topology::new(i, h, o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn defect_free_forward_is_bit_identical_to_reference(
        topo in envelope_topology(),
        seed in any::<u64>(),
        xs in prop::collection::vec(-2.0f64..3.0, 1..16),
    ) {
        let mlp = Mlp::new(topo, seed);
        let lut = SigmoidLut::new();
        let x: Vec<f64> = (0..topo.inputs).map(|i| xs[i % xs.len()]).collect();
        let want = mlp.forward_fixed(&x, &lut);
        let mut accel = SystolicAccelerator::new();
        accel.map_network(mlp).unwrap();
        // The all-pass grid through the one-lane kernel.
        prop_assert_eq!(accel.forward(&x).unwrap(), want);
    }

    #[test]
    fn defect_free_batch_walk_is_bit_identical_to_reference(
        topo in envelope_topology(),
        seed in any::<u64>(),
        n_rows in 65usize..120,
    ) {
        let mlp = Mlp::new(topo, seed);
        let lut = SigmoidLut::new();
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|r| {
                (0..topo.inputs)
                    .map(|i| ((r * 7 + i * 13) as f64 * 0.037) % 2.0 - 1.0)
                    .collect()
            })
            .collect();
        let want: Vec<_> = rows.iter().map(|r| mlp.forward_fixed(r, &lut)).collect();
        let mut accel = SystolicAccelerator::new();
        accel.map_network(mlp).unwrap();
        // Steer schedule row 0 through the first spare row: the grid is
        // still defect-free, so this drives the batched kernel (several
        // 64-lane blocks) AND checks that healthy spare-row routing is
        // transparent.
        let spare = accel.grid().geometry().rows;
        accel.grid_mut().remap_row(0, spare);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(accel.forward_batch(&refs).unwrap(), want);
    }
}

/// Builds the tiny classification task the recovery property trains on.
fn prop_task(seed: u64) -> (Dataset, Vec<usize>, Vec<usize>) {
    let ds = GaussianMixture::new(4, 3)
        .samples(60)
        .generate("prop", seed);
    let train: Vec<usize> = (0..ds.len()).filter(|i| i % 3 != 0).collect();
    let test: Vec<usize> = (0..ds.len()).step_by(3).collect();
    (ds, train, test)
}

proptest! {
    // Each case runs three commissionings plus two recovery ladders —
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repair_rungs_never_fall_below_blind(
        seed in any::<u64>(),
        defects in 1usize..24,
    ) {
        let (ds, train, test) = prop_task(seed % 1000);
        let topo = Topology::new(4, 5, 3);
        let arm = || {
            let mut accel = SystolicAccelerator::new();
            accel.map_network(Mlp::new(topo, seed)).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Accel::retrain(&mut accel, &ds, &train, 0.2, 0.1, 8, &mut rng).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA11);
            accel
                .inject_defects(defects, Activation::Permanent, &mut rng)
                .unwrap();
            accel
        };
        let mut blind_accel = arm();
        let mut full_accel = arm();

        let diagnosis = run_selftest(&mut full_accel, &BistConfig::default()).unwrap();
        let budget = RungBudget { max_epochs: 3, wall_clock_ms: 10_000 };
        // An unattainable target keeps the ladder from stopping after
        // the retrain rung, so bypass and grid-remap run every case.
        let policy = RecoveryPolicy {
            retrain: budget,
            remap: budget,
            target_accuracy: 0.999,
            seed,
            ..RecoveryPolicy::default()
        };
        let blind_policy = RecoveryPolicy {
            structural: false,
            ..policy.clone()
        };
        let blind = recover(
            &mut blind_accel, &ds, &train, &test, &Diagnosis::default(), &blind_policy,
        ).unwrap();
        let full = recover(
            &mut full_accel, &ds, &train, &test, &diagnosis, &policy,
        ).unwrap();

        // Shared-seed floor: the same rung-1 trajectory plus extra
        // repair options can only help.
        prop_assert_eq!(blind.pre_recovery_accuracy, full.pre_recovery_accuracy);
        prop_assert!(
            full.accuracy >= blind.accuracy,
            "recovered {} < blind {} (seed {seed}, {defects} defects)",
            full.accuracy,
            blind.accuracy
        );
    }
}
