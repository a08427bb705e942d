//! Microbenchmark: gate-level circuit simulation throughput (the cost
//! of the hybrid faulty-operator path).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dta_circuits::{AdderCircuit, FxMulCircuit, SatAdderCircuit, SigmoidUnitCircuit};
use dta_fixed::Fx;

fn bench_gate_sim(c: &mut Criterion) {
    let adder4 = AdderCircuit::new(4);
    let mut sim4 = adder4.simulator();
    c.bench_function("adder4_compute", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(7);
            black_box(adder4.compute(&mut sim4, i & 15, (i >> 4) & 15))
        })
    });

    let sat = SatAdderCircuit::new();
    let mut sim_sat = sat.simulator();
    c.bench_function("sat_adder16_compute", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i = i.wrapping_add(2531);
            black_box(sat.compute(
                &mut sim_sat,
                Fx::from_raw(i as i16),
                Fx::from_raw((i >> 3) as i16),
            ))
        })
    });

    let mul = FxMulCircuit::new();
    let mut sim_mul = mul.simulator();
    c.bench_function("fx_mul16_compute", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i = i.wrapping_add(911);
            black_box(mul.compute(
                &mut sim_mul,
                Fx::from_raw(i as i16),
                Fx::from_raw((i >> 2) as i16),
            ))
        })
    });

    let act = SigmoidUnitCircuit::new();
    let mut sim_act = act.simulator();
    c.bench_function("sigmoid_unit_compute", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i = i.wrapping_add(433);
            black_box(act.compute(&mut sim_act, Fx::from_raw(i as i16)))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gate_sim
}
criterion_main!(benches);
