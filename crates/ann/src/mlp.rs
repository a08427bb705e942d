//! The 2-layer multi-layer perceptron and its three forward paths.

use std::fmt;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dta_fixed::{sigmoid::sigmoid, Fx, SigmoidLut};
use dta_mem::WeightMemory;

use crate::fault::{bank_of, FaultPlan, Layer};

/// Streams one weight through the attached (non-transparent) array, if
/// any: the companion core writes the value into its word and the
/// datapath reads it back through the fault pipeline.
fn fetch_through(
    mem: &mut Option<&mut WeightMemory>,
    layer: Layer,
    lane: usize,
    slot: usize,
    w: Fx,
) -> Fx {
    match mem {
        Some(m) => m.fetch(bank_of(layer), lane, slot, w),
        None => w,
    }
}

/// Network dimensions: one hidden layer, as in the paper ("a 2-layer MLP
/// with one hidden layer, plus the input layer").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Number of input attributes.
    pub inputs: usize,
    /// Number of hidden neurons.
    pub hidden: usize,
    /// Number of output neurons (classes).
    pub outputs: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(inputs: usize, hidden: usize, outputs: usize) -> Topology {
        assert!(inputs >= 1 && hidden >= 1 && outputs >= 1);
        Topology {
            inputs,
            hidden,
            outputs,
        }
    }

    /// The accelerator's physical geometry: 90 inputs, 10 hidden neurons,
    /// 10 outputs.
    pub fn accelerator() -> Topology {
        Topology::new(90, 10, 10)
    }

    /// Total number of synaptic weights (including biases).
    pub fn n_weights(&self) -> usize {
        self.hidden * (self.inputs + 1) + self.outputs * (self.hidden + 1)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}-{}", self.inputs, self.hidden, self.outputs)
    }
}

/// Activations recorded by one forward pass, needed both for
/// back-propagation and for the output-layer error-amplitude measurement
/// of Figure 11.
#[derive(Clone, Debug, PartialEq)]
pub struct ForwardTrace {
    /// Hidden-layer activations.
    pub hidden: Vec<f64>,
    /// Output-layer pre-activations (the adder outputs feeding each
    /// output neuron's activation function).
    pub output_pre: Vec<f64>,
    /// Output-layer activations.
    pub output: Vec<f64>,
}

impl ForwardTrace {
    /// The predicted class (argmax of the outputs).
    pub fn predicted(&self) -> usize {
        self.output
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("activations are finite"))
            .map(|(i, _)| i)
            .expect("networks have at least one output")
    }

    /// Appends the traces of samples `0..n` from samples-contiguous Q6.10
    /// layer values: column `c` of each slice holds its value for sample
    /// `s` at `[c * stride + s]`.
    pub fn extend_from_columns(
        traces: &mut Vec<ForwardTrace>,
        stride: usize,
        n: usize,
        hidden: &[Fx],
        output_pre: &[Fx],
        output: &[Fx],
    ) {
        let sample = |v: &[Fx], s: usize| -> Vec<f64> {
            v.chunks_exact(stride).map(|c| c[s].to_f64()).collect()
        };
        traces.extend((0..n).map(|s| ForwardTrace {
            hidden: sample(hidden, s),
            output_pre: sample(output_pre, s),
            output: sample(output, s),
        }));
    }
}

/// A fully connected 2-layer perceptron with `f64` master weights (the
/// companion core's copy) and three forward paths:
///
/// * [`Mlp::forward_float`] — exact `f64` arithmetic and sigmoid (the
///   software reference);
/// * [`Mlp::forward_fixed`] — the hardware datapath: weights and inputs
///   quantized to Q6.10, saturating MACs, 16-segment sigmoid LUT;
/// * [`Mlp::forward_faulty`] — the fixed path with individual operators
///   of marked neurons routed through gate-level faulty circuits.
#[derive(Clone, Debug, PartialEq)]
pub struct Mlp {
    topo: Topology,
    /// `[hidden][inputs + 1]` row-major; the last column is the bias.
    w_hidden: Vec<f64>,
    /// `[outputs][hidden + 1]` row-major; the last column is the bias.
    w_output: Vec<f64>,
}

impl Mlp {
    /// Creates a network with seeded uniform Xavier-style initial weights
    /// (`±1/sqrt(fan_in)`).
    pub fn new(topo: Topology, seed: u64) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lim_h = 1.0 / (topo.inputs as f64).sqrt();
        let lim_o = 1.0 / (topo.hidden as f64).sqrt();
        let w_hidden = (0..topo.hidden * (topo.inputs + 1))
            .map(|_| rng.random_range(-lim_h..lim_h))
            .collect();
        let w_output = (0..topo.outputs * (topo.hidden + 1))
            .map(|_| rng.random_range(-lim_o..lim_o))
            .collect();
        Mlp {
            topo,
            w_hidden,
            w_output,
        }
    }

    /// The network dimensions.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Hidden weight `w[j][i]` (`i == inputs` is the bias).
    pub fn w_hidden(&self, j: usize, i: usize) -> f64 {
        self.w_hidden[j * (self.topo.inputs + 1) + i]
    }

    /// Mutable hidden weight.
    pub fn w_hidden_mut(&mut self, j: usize, i: usize) -> &mut f64 {
        &mut self.w_hidden[j * (self.topo.inputs + 1) + i]
    }

    /// Output weight `w[k][j]` (`j == hidden` is the bias).
    pub fn w_output(&self, k: usize, j: usize) -> f64 {
        self.w_output[k * (self.topo.hidden + 1) + j]
    }

    /// Mutable output weight.
    pub fn w_output_mut(&mut self, k: usize, j: usize) -> &mut f64 {
        &mut self.w_output[k * (self.topo.hidden + 1) + j]
    }

    /// Exact `f64` forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != topology().inputs`.
    pub fn forward_float(&self, x: &[f64]) -> ForwardTrace {
        assert_eq!(x.len(), self.topo.inputs);
        let hidden: Vec<f64> = (0..self.topo.hidden)
            .map(|j| {
                let mut acc = self.w_hidden(j, self.topo.inputs);
                for (i, &xi) in x.iter().enumerate() {
                    acc += self.w_hidden(j, i) * xi;
                }
                sigmoid(acc)
            })
            .collect();
        let output_pre: Vec<f64> = (0..self.topo.outputs)
            .map(|k| {
                let mut acc = self.w_output(k, self.topo.hidden);
                for (j, &hj) in hidden.iter().enumerate() {
                    acc += self.w_output(k, j) * hj;
                }
                acc
            })
            .collect();
        let output = output_pre.iter().map(|&a| sigmoid(a)).collect();
        ForwardTrace {
            hidden,
            output_pre,
            output,
        }
    }

    /// Hardware (Q6.10) forward pass: quantized weights and inputs,
    /// saturating multiply-accumulate, LUT sigmoid.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != topology().inputs`.
    pub fn forward_fixed(&self, x: &[f64], lut: &SigmoidLut) -> ForwardTrace {
        assert_eq!(x.len(), self.topo.inputs);
        let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();
        let mut hidden_fx = Vec::with_capacity(self.topo.hidden);
        for j in 0..self.topo.hidden {
            let mut acc = Fx::from_f64(self.w_hidden(j, self.topo.inputs));
            for (i, &xi) in xq.iter().enumerate() {
                acc += Fx::from_f64(self.w_hidden(j, i)) * xi;
            }
            hidden_fx.push(lut.eval(acc));
        }
        let mut output_pre = Vec::with_capacity(self.topo.outputs);
        let mut output = Vec::with_capacity(self.topo.outputs);
        for k in 0..self.topo.outputs {
            let mut acc = Fx::from_f64(self.w_output(k, self.topo.hidden));
            for (j, &hj) in hidden_fx.iter().enumerate() {
                acc += Fx::from_f64(self.w_output(k, j)) * hj;
            }
            output_pre.push(acc.to_f64());
            output.push(lut.eval(acc).to_f64());
        }
        ForwardTrace {
            hidden: hidden_fx.iter().map(|h| h.to_f64()).collect(),
            output_pre,
            output,
        }
    }

    /// Hardware forward pass with faults: operators of neurons marked in
    /// `faults` are evaluated through their gate-level circuits. Neurons
    /// with defects in physical synapses beyond the logical input count
    /// evaluate those synapses too (with zero weight and input), since the
    /// faulty silicon can produce nonzero outputs even for zero operands.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != topology().inputs`.
    pub fn forward_faulty(
        &self,
        x: &[f64],
        lut: &SigmoidLut,
        faults: &mut FaultPlan,
    ) -> ForwardTrace {
        assert_eq!(x.len(), self.topo.inputs);
        let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();

        let mut hidden_fx = Vec::with_capacity(self.topo.hidden);
        for j in 0..self.topo.hidden {
            // Logical neuron j's weights evaluate through physical lane
            // `hidden_lane(j)` (identity unless a recovery remap moved
            // the neuron to a spare lane); masked lanes are gated to 0.
            let lane = faults.hidden_lane(j);
            if faults.is_masked(Layer::Hidden, lane) {
                hidden_fx.push(Fx::ZERO);
                continue;
            }
            let bias = faults.mem_bias(
                Layer::Hidden,
                lane,
                Fx::from_f64(self.w_hidden(j, self.topo.inputs)),
            );
            let acc = self.neuron_sum(Layer::Hidden, lane, bias, &xq, faults, |s, i| {
                Fx::from_f64(s.w_hidden(j, i))
            });
            let y = match faults.neuron_mut(Layer::Hidden, lane) {
                Some(nf) => nf.activation(acc, lut),
                None => lut.eval(acc),
            };
            hidden_fx.push(y);
        }

        let mut output_pre = Vec::with_capacity(self.topo.outputs);
        let mut output = Vec::with_capacity(self.topo.outputs);
        for k in 0..self.topo.outputs {
            if faults.is_masked(Layer::Output, k) {
                output_pre.push(0.0);
                output.push(0.0);
                continue;
            }
            let bias = faults.mem_bias(
                Layer::Output,
                k,
                Fx::from_f64(self.w_output(k, self.topo.hidden)),
            );
            let acc = self.neuron_sum(Layer::Output, k, bias, &hidden_fx, faults, |s, j| {
                Fx::from_f64(s.w_output(k, j))
            });
            output_pre.push(acc.to_f64());
            let y = match faults.neuron_mut(Layer::Output, k) {
                Some(nf) => nf.activation(acc, lut),
                None => lut.eval(acc),
            };
            output.push(y.to_f64());
        }
        ForwardTrace {
            hidden: hidden_fx.iter().map(|h| h.to_f64()).collect(),
            output_pre,
            output,
        }
    }

    /// Batched hardware forward pass with faults: evaluates every row of
    /// `xs` like [`Mlp::forward_faulty`]. When the fault plan is
    /// [vectorizable](FaultPlan::vectorizable) the whole pass runs as one
    /// fused LUT stream, 64 rows per sweep (memoized per topology and
    /// defect-plan fingerprint — see [`crate::FusedForward`]); otherwise
    /// the rows run one by one through the scalar path, whose per-sample
    /// order is part of the semantics of stateful defects. The results
    /// are identical to the scalar path in every case.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `topology().inputs`.
    pub fn forward_faulty_batch(
        &self,
        xs: &[impl AsRef<[f64]>],
        lut: &SigmoidLut,
        faults: &mut FaultPlan,
    ) -> Vec<ForwardTrace> {
        if let Some(fused) = crate::fused::FusedForward::cached(self, faults) {
            return fused.forward(self, xs, lut, faults);
        }
        xs.iter()
            .map(|x| self.forward_faulty(x.as_ref(), lut, faults))
            .collect()
    }

    /// Multiply-accumulate for one neuron, routing individual operations
    /// through faulty circuits where the plan marks them.
    fn neuron_sum(
        &self,
        layer: Layer,
        neuron: usize,
        bias: Fx,
        inputs: &[Fx],
        faults: &mut FaultPlan,
        weight_of: impl Fn(&Mlp, usize) -> Fx,
    ) -> Fx {
        let (mut mem, nf) = faults.fetch_units(layer, neuron);
        let Some(nf) = nf else {
            // Fast path: fully native accumulation, with each weight
            // still streamed through the array when a defective one is
            // attached (memory faults hit every lane, not just neurons
            // with operator faults).
            let mut acc = bias;
            for (i, &xi) in inputs.iter().enumerate() {
                acc += fetch_through(&mut mem, layer, neuron, i, weight_of(self, i)) * xi;
            }
            return acc;
        };
        let n_logical = inputs.len();
        // A defective store counts every fetch, so it sees the whole
        // physical range; otherwise only synapses that can disturb the
        // sum are visited beyond the task's width.
        let every_physical = mem.is_some();
        nf.accumulate(bias, n_logical, every_physical, |i| {
            let (w, xi) = if i < n_logical {
                (weight_of(self, i), inputs[i])
            } else {
                (Fx::ZERO, Fx::ZERO) // physical synapse beyond the task
            };
            // Array first (the store feeds the lane's weight latch),
            // then the synapse's own operators.
            (fetch_through(&mut mem, layer, neuron, i, w), xi)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn topology_accessors() {
        let t = Topology::new(4, 3, 2);
        assert_eq!(t.to_string(), "4-3-2");
        assert_eq!(t.n_weights(), 3 * 5 + 2 * 4);
        let acc = Topology::accelerator();
        assert_eq!((acc.inputs, acc.hidden, acc.outputs), (90, 10, 10));
    }

    #[test]
    fn deterministic_init() {
        let t = Topology::new(5, 4, 3);
        assert_eq!(Mlp::new(t, 7), Mlp::new(t, 7));
        assert_ne!(Mlp::new(t, 7), Mlp::new(t, 8));
    }

    #[test]
    fn float_outputs_in_unit_interval() {
        let mlp = Mlp::new(Topology::new(6, 5, 4), 3);
        let trace = mlp.forward_float(&[0.1, 0.9, 0.3, 0.5, 0.0, 1.0]);
        assert_eq!(trace.hidden.len(), 5);
        assert_eq!(trace.output.len(), 4);
        for &y in trace.hidden.iter().chain(&trace.output) {
            assert!((0.0..=1.0).contains(&y));
        }
        assert!(trace.predicted() < 4);
    }

    #[test]
    fn fixed_tracks_float_closely() {
        // With unit-scale weights and inputs, the Q6.10 path stays within
        // a couple of percent of the float path.
        let mlp = Mlp::new(Topology::new(8, 6, 3), 11);
        let lut = SigmoidLut::new();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
        let ff = mlp.forward_float(&x);
        let fx = mlp.forward_fixed(&x, &lut);
        for (a, b) in ff.output.iter().zip(&fx.output) {
            assert!((a - b).abs() < 0.05, "float {a} vs fixed {b}");
        }
    }

    #[test]
    fn faulty_with_empty_plan_equals_fixed() {
        let mlp = Mlp::new(Topology::new(10, 4, 3), 5);
        let lut = SigmoidLut::new();
        let mut plan = FaultPlan::new(90);
        let x: Vec<f64> = (0..10).map(|i| (i as f64) * 0.07).collect();
        assert_eq!(
            mlp.forward_fixed(&x, &lut),
            mlp.forward_faulty(&x, &lut, &mut plan)
        );
    }

    #[test]
    fn batch_forward_matches_scalar_under_faults() {
        use dta_circuits::FaultModel;
        use rand::SeedableRng;
        let topo = Topology::new(6, 4, 3);
        let lut = SigmoidLut::new();
        let rows: Vec<Vec<f64>> = (0..130)
            .map(|s| {
                (0..6)
                    .map(|i| ((s * 7 + i * 13) % 29) as f64 / 29.0)
                    .collect()
            })
            .collect();
        let mut vectorized = 0;
        let mut scalar_fallback = 0;
        for seed in 0..10u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut plan = FaultPlan::new(90);
            for _ in 0..5 {
                plan.inject_random_hidden(4, FaultModel::TransistorLevel, &mut rng);
            }
            if plan.vectorizable() {
                vectorized += 1;
            } else {
                scalar_fallback += 1;
            }
            let mlp = Mlp::new(topo, seed ^ 0xB17);
            plan.reset_state();
            let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
            plan.reset_state();
            let scalar: Vec<ForwardTrace> = rows
                .iter()
                .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
                .collect();
            assert_eq!(batch, scalar, "seed {seed}");
        }
        // The sweep must exercise both the fused stream and the
        // stateful fallback, or the test proves less than it claims.
        assert!(vectorized > 0, "no vectorizable plan in 10 seeds");
        assert!(scalar_fallback > 0, "no stateful plan in 10 seeds");
    }

    #[test]
    fn batch_forward_with_empty_plan_equals_fixed() {
        let mlp = Mlp::new(Topology::new(5, 3, 2), 9);
        let lut = SigmoidLut::new();
        let mut plan = FaultPlan::new(90);
        let rows: Vec<Vec<f64>> = (0..70)
            .map(|s| (0..5).map(|i| ((s + i * 3) % 11) as f64 / 11.0).collect())
            .collect();
        let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
        for (row, trace) in rows.iter().zip(&batch) {
            assert_eq!(mlp.forward_fixed(row, &lut), *trace);
        }
    }

    #[test]
    fn remap_routes_around_faulty_lane() {
        use dta_circuits::FaultModel;
        use rand::SeedableRng;
        let mlp = Mlp::new(Topology::new(6, 4, 3), 2);
        let lut = SigmoidLut::new();
        let x: Vec<f64> = (0..6).map(|i| 0.9 - 0.2 * i as f64).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        // Find a seed whose single defect visibly corrupts the trace.
        let mut plan = loop {
            let mut plan = FaultPlan::new(90);
            plan.inject_random_hidden(1, FaultModel::TransistorLevel, &mut rng);
            plan.reset_state();
            if mlp.forward_faulty(&x, &lut, &mut plan) != mlp.forward_fixed(&x, &lut) {
                plan.reset_state();
                break plan;
            }
        };
        // All defects landed on physical lane 0; remapping logical
        // neuron 0 to a spare healthy lane restores the fixed path
        // exactly (the spare index may exceed the logical width).
        plan.remap_hidden(0, 7);
        assert_eq!(
            mlp.forward_faulty(&x, &lut, &mut plan),
            mlp.forward_fixed(&x, &lut)
        );
    }

    #[test]
    fn masked_hidden_lane_outputs_zero() {
        let mlp = Mlp::new(Topology::new(5, 3, 2), 4);
        let lut = SigmoidLut::new();
        let mut plan = FaultPlan::new(90);
        plan.mask(Layer::Hidden, 1);
        let rows: Vec<Vec<f64>> = (0..70)
            .map(|s| (0..5).map(|i| ((s + i * 3) % 13) as f64 / 13.0).collect())
            .collect();
        let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
        for (row, trace) in rows.iter().zip(&batch) {
            assert_eq!(trace.hidden[1], 0.0, "masked lane gated to 0");
            assert_eq!(*trace, mlp.forward_faulty(row, &lut, &mut plan));
            assert_ne!(*trace, mlp.forward_fixed(row, &lut));
        }
    }

    #[test]
    fn transparent_memory_is_bit_invisible() {
        // The zero-defect guard: attaching a defect-free weight store
        // (with or without ECC) must leave both faulty forward paths
        // byte-identical to the plain fixed path.
        use dta_mem::{MemGeometry, WeightMemory};
        let topo = Topology::new(10, 4, 3);
        let mlp = Mlp::new(topo, 5);
        let lut = SigmoidLut::new();
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|s| {
                (0..10)
                    .map(|i| ((s * 5 + i * 3) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect();
        for ecc in [false, true] {
            let mut plan = FaultPlan::new(90);
            plan.attach_memory(WeightMemory::new(MemGeometry::for_network(10, 4, 3, ecc)));
            assert!(plan.vectorizable());
            for row in &rows {
                assert_eq!(
                    mlp.forward_fixed(row, &lut),
                    mlp.forward_faulty(row, &lut, &mut plan),
                    "ecc={ecc}"
                );
            }
            let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
            for (row, trace) in rows.iter().zip(&batch) {
                assert_eq!(mlp.forward_fixed(row, &lut), *trace, "ecc={ecc}");
            }
        }
    }

    #[test]
    fn memory_faults_reach_every_lane_and_batch_matches_scalar() {
        use dta_mem::{Activation, MemGeometry, WeightMemory};
        use rand::SeedableRng;
        let topo = Topology::new(10, 4, 3);
        let mlp = Mlp::new(topo, 5);
        let lut = SigmoidLut::new();
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|s| {
                (0..10)
                    .map(|i| ((s * 7 + i * 11) % 23) as f64 / 23.0)
                    .collect()
            })
            .collect();
        let lifetimes = [
            Activation::Permanent,
            Activation::Transient {
                per_eval_probability: 0.3,
            },
        ];
        let mut corrupted = 0;
        for (li, activation) in lifetimes.into_iter().enumerate() {
            // Raw array (no ECC) so even small damage is visible.
            let mut plan = FaultPlan::new(90);
            let mut mem = WeightMemory::new(MemGeometry::for_network(10, 4, 3, false));
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xD00D + li as u64);
            mem.inject_many(8, activation, &mut rng);
            plan.attach_memory(mem);
            assert_eq!(plan.vectorizable(), activation.is_permanent());
            plan.reset_state();
            let batch = mlp.forward_faulty_batch(&rows, &lut, &mut plan);
            plan.reset_state();
            for (row, trace) in rows.iter().zip(&batch) {
                assert_eq!(*trace, mlp.forward_faulty(row, &lut, &mut plan));
                if *trace != mlp.forward_fixed(row, &lut) {
                    corrupted += 1;
                }
            }
        }
        assert!(
            corrupted > 0,
            "8 raw-array defects never disturbed the output"
        );
    }

    #[test]
    fn weight_accessors_roundtrip() {
        let mut mlp = Mlp::new(Topology::new(3, 2, 2), 1);
        *mlp.w_hidden_mut(1, 3) = 0.5; // bias of hidden neuron 1
        assert_eq!(mlp.w_hidden(1, 3), 0.5);
        *mlp.w_output_mut(0, 2) = -0.25; // bias of output neuron 0
        assert_eq!(mlp.w_output(0, 2), -0.25);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn wrong_input_width_panics() {
        let mlp = Mlp::new(Topology::new(3, 2, 2), 1);
        let _ = mlp.forward_float(&[0.0; 4]);
    }
}
