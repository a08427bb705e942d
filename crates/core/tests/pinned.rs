//! Pinned outputs of the paths that share the faulty-neuron MAC
//! (`NeuronFaults::accumulate`) outside the spatial forward pass, and of
//! on-line training through the faulty silicon.
//!
//! Each test hashes the result bits with FNV-1a and compares against a
//! digest recorded from the per-path loops this code replaced, so any
//! synapse the shared walk skips, adds or reorders shows up here.

use dta_ann::{ForwardTrace, Mlp, Topology};
use dta_circuits::FaultModel;
use dta_core::large::LargeNetworkMapper;
use dta_core::{Accelerator, TimeMultiplexedAccelerator};
use dta_datasets::suite;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn trace(&mut self, t: &ForwardTrace) {
        self.f64s(&t.hidden);
        self.f64s(&t.output_pre);
        self.f64s(&t.output);
    }
}

/// `n` deterministic input rows of `width` features in [-0.3, 0.7).
fn rows(n: usize, width: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| {
            (0..width)
                .map(|i| ((r * 7 + i * 3) % 11) as f64 / 11.0 - 0.3)
                .collect()
        })
        .collect()
}

#[test]
fn large_network_forward_is_pinned() {
    let mlp = Mlp::new(Topology::new(25, 3, 2), 21);
    let digest = |defects: usize| {
        let mut mapper = LargeNetworkMapper::new(Topology::new(10, 2, 2));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..defects {
            mapper.inject_random_defect(&mut rng);
        }
        let mut d = Digest::new();
        for x in rows(16, 25) {
            d.trace(&mapper.forward(&mlp, &x));
        }
        d.0
    };
    let faulty = digest(6);
    assert_ne!(faulty, digest(0), "the defects never reached an output");
    assert_eq!(faulty, 0x37f8_57f6_dd93_4454);
}

#[test]
fn time_multiplexed_forward_is_pinned() {
    // The full 90-input envelope, so defects past a narrow task's
    // width cannot hide.
    let topo = Topology::new(90, 10, 10);
    let mlp = Mlp::new(topo, 9);
    let digest = |defects: usize| {
        let mut tm = TimeMultiplexedAccelerator::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..defects {
            tm.inject_random_defect(&mut rng);
        }
        // These draws land on the shared neurons and the SRAM only: the
        // control logic stays intact, so the shared MAC is exercised.
        assert!(!tm.is_broken());
        let mut d = Digest::new();
        for x in rows(16, topo.inputs) {
            d.trace(&tm.forward(&mlp, &x));
        }
        d.0
    };
    // The first three draws are shared-neuron defects alone.
    assert_ne!(digest(3), digest(0), "shared-neuron defects never showed");
    assert_eq!(digest(6), 0x28ba_ae5e_dd13_0f5d);
}

#[test]
fn online_training_on_faulty_silicon_is_pinned() {
    let ds = suite::load("iris").unwrap();
    let mut accel = Accelerator::new();
    accel
        .map_network(Mlp::new(Topology::new(4, 8, 3), 17))
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    accel
        .inject_defects(6, FaultModel::TransistorLevel, &mut rng)
        .unwrap();
    for pass in 0..2 {
        for s in 0..ds.len() {
            let sample = &ds.samples()[(s * 7 + pass) % ds.len()];
            accel
                .online_step(&sample.features, sample.label, 0.3)
                .unwrap();
        }
    }
    let net = accel.network().unwrap();
    let topo = net.topology();
    let mut d = Digest::new();
    for j in 0..topo.hidden {
        for i in 0..=topo.inputs {
            d.word(net.w_hidden(j, i).to_bits());
        }
    }
    for k in 0..topo.outputs {
        for j in 0..=topo.hidden {
            d.word(net.w_output(k, j).to_bits());
        }
    }
    assert_eq!(d.0, 0xa788_bb7c_f824_4906);
}
