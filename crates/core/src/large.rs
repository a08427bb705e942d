//! Partial time-multiplexing of networks larger than the physical array
//! (paper §IV).
//!
//! "For the problems which do not fit in the spatially expanded network,
//! we can still resort to time-multiplexing. All neurons of the network
//! are then considered to belong to one large layer" — extra input
//! latches feed the output-stage neurons directly and the hidden-stage
//! outputs are exposed, so every physical neuron becomes a slot of a
//! single pool. A logical neuron with more inputs than the array width is
//! split into chunks whose partial sums accumulate through the add-on
//! latches.
//!
//! Two consequences modeled here:
//!
//! * **throughput**: a network that needs `N` passes takes at least `N`
//!   times the single-row latency;
//! * **defect multiplication**: a defect in one physical slot affects
//!   every logical chunk scheduled onto it.

use dta_ann::{FaultPlan, ForwardTrace, Layer, Mlp, Topology};
use dta_circuits::FaultModel;
use dta_fixed::{Fx, SigmoidLut};
use rand::Rng;

use crate::cost::CostModel;

/// Maps arbitrarily large 2-layer networks onto the fixed physical array
/// by partial time-multiplexing.
///
/// # Example
///
/// ```
/// use dta_core::large::LargeNetworkMapper;
/// use dta_ann::{Mlp, Topology};
///
/// let mut mapper = LargeNetworkMapper::new(Topology::accelerator());
/// // A 784-input network (MNIST-sized) does not fit the 90-input array.
/// let logical = Topology::new(784, 30, 10);
/// assert!(mapper.passes(logical) > 1);
/// let mlp = Mlp::new(logical, 5);
/// let trace = mapper.forward(&mlp, &vec![0.1; 784]);
/// assert_eq!(trace.output.len(), 10);
/// ```
#[derive(Debug)]
pub struct LargeNetworkMapper {
    physical: Topology,
    /// Faults of the physical slots (keyed in `Layer::Hidden` space by
    /// slot index `0..hidden+outputs`).
    faults: FaultPlan,
    lut: SigmoidLut,
}

impl LargeNetworkMapper {
    /// Creates a mapper over a physical array.
    pub fn new(physical: Topology) -> LargeNetworkMapper {
        LargeNetworkMapper {
            faults: FaultPlan::new(physical.inputs),
            physical,
            lut: SigmoidLut::new(),
        }
    }

    /// The physical array.
    pub fn physical(&self) -> Topology {
        self.physical
    }

    /// Number of physical neuron slots in single-large-layer mode.
    pub fn slots(&self) -> usize {
        self.physical.hidden + self.physical.outputs
    }

    /// Jobs (neuron-chunks) one row of the logical network requires.
    pub fn jobs(&self, logical: Topology) -> usize {
        let w = self.physical.inputs;
        let hidden_jobs = logical.hidden * logical.inputs.div_ceil(w);
        let output_jobs = logical.outputs * logical.hidden.div_ceil(w);
        hidden_jobs + output_jobs
    }

    /// Passes over the array per input row (≥ 1); the row latency is
    /// multiplied by this factor.
    pub fn passes(&self, logical: Topology) -> usize {
        self.jobs(logical).div_ceil(self.slots()).max(1)
    }

    /// Jobs for an arbitrary-depth network with layer widths `dims =
    /// [inputs, h1, ..., outputs]` — the deep-network mapping of the
    /// paper's §VIII follow-up.
    pub fn jobs_for_layers(&self, dims: &[usize]) -> usize {
        assert!(dims.len() >= 2, "need at least input and output layers");
        let w = self.physical.inputs;
        dims.windows(2)
            .map(|pair| pair[1] * pair[0].div_ceil(w))
            .sum()
    }

    /// Passes for an arbitrary-depth network.
    pub fn passes_for_layers(&self, dims: &[usize]) -> usize {
        self.jobs_for_layers(dims).div_ceil(self.slots()).max(1)
    }

    /// Row latency of an arbitrary-depth network, in ns.
    pub fn latency_ns_for_layers(&self, dims: &[usize]) -> f64 {
        let base = CostModel::calibrated_90nm()
            .report(self.physical)
            .latency_ns;
        base * self.passes_for_layers(dims) as f64
    }

    /// Row latency of the logical network on this array, in ns.
    pub fn latency_ns(&self, logical: Topology) -> f64 {
        let base = CostModel::calibrated_90nm()
            .report(self.physical)
            .latency_ns;
        base * self.passes(logical) as f64
    }

    /// Injects one random transistor-level defect into a random physical
    /// slot's operators.
    pub fn inject_random_defect<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.faults
            .inject_random_hidden(self.slots(), FaultModel::TransistorLevel, rng);
    }

    /// Number of injected defects.
    pub fn defect_count(&self) -> usize {
        self.faults.len()
    }

    /// How many jobs land on each faulty slot — the defect
    /// multiplication factor of §II/§IV.
    pub fn defect_multiplier(&self, logical: Topology) -> usize {
        self.jobs(logical).div_ceil(self.slots())
    }

    /// Forward pass of a logical network of any size, chunked over the
    /// array. Jobs are scheduled round-robin over the physical slots, so
    /// a defective slot corrupts every chunk assigned to it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the logical input count.
    pub fn forward(&mut self, mlp: &Mlp, x: &[f64]) -> ForwardTrace {
        let topo = mlp.topology();
        assert_eq!(x.len(), topo.inputs);
        let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();
        let w = self.physical.inputs;
        let slots = self.slots();
        let mut job = 0usize;

        let mut hidden_fx = Vec::with_capacity(topo.hidden);
        for j in 0..topo.hidden {
            let mut acc = Fx::from_f64(mlp.w_hidden(j, topo.inputs));
            for chunk_start in (0..topo.inputs).step_by(w) {
                let chunk_end = (chunk_start + w).min(topo.inputs);
                let slot = job % slots;
                job += 1;
                acc = self.chunk_sum(slot, acc, chunk_start, chunk_end, |i| {
                    (Fx::from_f64(mlp.w_hidden(j, i)), xq[i])
                });
            }
            let y = match self.faults.neuron_mut(Layer::Hidden, (job - 1) % slots) {
                Some(nf) => nf.activation(acc, &self.lut),
                None => self.lut.eval(acc),
            };
            hidden_fx.push(y);
        }

        let mut output_pre = Vec::with_capacity(topo.outputs);
        let mut output = Vec::with_capacity(topo.outputs);
        for k in 0..topo.outputs {
            let mut acc = Fx::from_f64(mlp.w_output(k, topo.hidden));
            for chunk_start in (0..topo.hidden).step_by(w) {
                let chunk_end = (chunk_start + w).min(topo.hidden);
                let slot = job % slots;
                job += 1;
                acc = self.chunk_sum(slot, acc, chunk_start, chunk_end, |j| {
                    (Fx::from_f64(mlp.w_output(k, j)), hidden_fx[j])
                });
            }
            output_pre.push(acc.to_f64());
            let y = match self.faults.neuron_mut(Layer::Hidden, (job - 1) % slots) {
                Some(nf) => nf.activation(acc, &self.lut),
                None => self.lut.eval(acc),
            };
            output.push(y.to_f64());
        }
        ForwardTrace {
            hidden: hidden_fx.iter().map(|h| h.to_f64()).collect(),
            output_pre,
            output,
        }
    }

    /// Accumulates one chunk through a physical slot; the physical
    /// synapse index is the position within the chunk.
    fn chunk_sum(
        &mut self,
        slot: usize,
        mut acc: Fx,
        start: usize,
        end: usize,
        operand_of: impl Fn(usize) -> (Fx, Fx),
    ) -> Fx {
        let operands: Vec<(Fx, Fx)> = (start..end).map(operand_of).collect();
        let Some(nf) = self.faults.neuron_mut(Layer::Hidden, slot) else {
            for (wq, xi) in operands {
                acc += wq * xi;
            }
            return acc;
        };
        // Faulty synapses beyond the chunk (defective columns past the
        // task width) see zero operands.
        nf.accumulate(acc, operands.len(), false, |p| {
            operands.get(p).copied().unwrap_or((Fx::ZERO, Fx::ZERO))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn small_networks_take_one_pass() {
        let mapper = LargeNetworkMapper::new(Topology::accelerator());
        assert_eq!(mapper.passes(Topology::new(90, 10, 10)), 1);
        assert_eq!(mapper.passes(Topology::new(4, 8, 3)), 1);
    }

    #[test]
    fn mnist_sized_network_needs_many_passes() {
        let mapper = LargeNetworkMapper::new(Topology::accelerator());
        let logical = Topology::new(784, 30, 10);
        // 30 neurons × ceil(784/90)=9 chunks + 10 × 1 = 280 jobs over 20
        // slots = 14 passes.
        assert_eq!(mapper.jobs(logical), 280);
        assert_eq!(mapper.passes(logical), 14);
        let base = CostModel::calibrated_90nm()
            .report(Topology::accelerator())
            .latency_ns;
        assert!((mapper.latency_ns(logical) - base * 14.0).abs() < 1e-9);
    }

    #[test]
    fn healthy_mapper_matches_fixed_forward() {
        // Chunked accumulation must be bit-identical to the straight
        // fixed path (saturating adds associate over the same order).
        let mut mapper = LargeNetworkMapper::new(Topology::new(10, 2, 2));
        let logical = Topology::new(25, 3, 2);
        let mlp = Mlp::new(logical, 21);
        let lut = SigmoidLut::new();
        let x: Vec<f64> = (0..25).map(|i| (i as f64) / 25.0).collect();
        let direct = mlp.forward_fixed(&x, &lut);
        let mapped = mapper.forward(&mlp, &x);
        assert_eq!(direct, mapped);
    }

    #[test]
    fn defect_multiplier_grows_with_network() {
        let mut mapper = LargeNetworkMapper::new(Topology::accelerator());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        mapper.inject_random_defect(&mut rng);
        assert_eq!(mapper.defect_count(), 1);
        assert_eq!(mapper.defect_multiplier(Topology::new(90, 10, 10)), 1);
        assert_eq!(mapper.defect_multiplier(Topology::new(784, 30, 10)), 14);
    }

    #[test]
    fn faulty_slot_affects_large_forward_deterministically() {
        let mut mapper = LargeNetworkMapper::new(Topology::new(10, 2, 2));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..6 {
            mapper.inject_random_defect(&mut rng);
        }
        let logical = Topology::new(25, 3, 2);
        let mlp = Mlp::new(logical, 21);
        let x: Vec<f64> = (0..25).map(|i| (i as f64) / 25.0).collect();
        let a = mapper.forward(&mlp, &x);
        let b = mapper.forward(&mlp, &x);
        // Deterministic (memory effects settle to the same steady state
        // on identical input streams).
        assert_eq!(a.output.len(), b.output.len());
    }
}
