//! The time-multiplexed baseline accelerator (paper §II).
//!
//! Conventional hardware ANNs (Intel ETANN and most designs since) are
//! time-multiplexed: only a few hardware neurons exist, synaptic weights
//! live in a central SRAM bank, and "a significant share of the logic is
//! dedicated to the time-multiplexing process itself: address decoder,
//! routing synapses to operators, results back to storage". This module
//! models that organization to quantify the paper's two claims against
//! it:
//!
//! 1. **a faulty transistor within the control logic wrecks the
//!    accelerator** — control-logic defects are catastrophic, unlike the
//!    distributed spatial design where a faulty neuron is retrained
//!    around;
//! 2. **defect multiplication** — a defect in one shared hardware neuron
//!    is seen by *every* logical neuron mapped onto it, multiplying the
//!    effective defect count by the multiplexing factor.

use std::fmt;

use rand::Rng;

use dta_ann::{FaultPlan, ForwardTrace, Layer, Mlp};
use dta_circuits::FaultModel;
use dta_fixed::{Fx, SigmoidLut};

use crate::cost::OperatorMetrics;

/// Where a random defect landed in the time-multiplexed design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TmDefect {
    /// In the shared control logic (decoder, routing): catastrophic.
    Control,
    /// In the SRAM weight bank: one stored weight word has a stuck bit.
    SramBit {
        /// Word index in the bank.
        word: usize,
        /// Bit position.
        bit: u32,
        /// Stuck value.
        value: bool,
    },
    /// In a shared hardware neuron's datapath operator.
    SharedNeuron {
        /// Physical neuron index.
        neuron: usize,
    },
}

impl fmt::Display for TmDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmDefect::Control => write!(f, "control logic (catastrophic)"),
            TmDefect::SramBit { word, bit, value } => {
                write!(
                    f,
                    "SRAM word {word} bit {bit} stuck at {}",
                    u8::from(*value)
                )
            }
            TmDefect::SharedNeuron { neuron } => {
                write!(f, "shared hardware neuron {neuron}")
            }
        }
    }
}

/// A time-multiplexed accelerator with `physical_neurons` shared hardware
/// neurons, an SRAM weight bank, and central control logic.
///
/// Logical neuron `j` of either layer executes on physical neuron
/// `j % physical_neurons`, so its operator faults are shared.
///
/// # Example
///
/// ```
/// use dta_core::TimeMultiplexedAccelerator;
/// use dta_ann::{Mlp, Topology};
///
/// let mut tm = TimeMultiplexedAccelerator::new(2);
/// let mlp = Mlp::new(Topology::new(8, 6, 3), 1);
/// assert_eq!(tm.multiplexing_factor(mlp.topology()), 5); // ceil(9/2)
/// let trace = tm.forward(&mlp, &[0.5; 8]);
/// assert_eq!(trace.output.len(), 3);
/// ```
#[derive(Debug)]
pub struct TimeMultiplexedAccelerator {
    physical_neurons: usize,
    /// Faults of the shared physical neurons (keyed in `Layer::Hidden`
    /// space by physical index).
    faults: FaultPlan,
    /// Stuck bits in the SRAM weight bank: `(word, and_mask, or_mask)`.
    sram_stuck: Vec<(usize, u16, u16)>,
    /// A control-logic defect has wrecked the accelerator.
    broken: bool,
    defect_log: Vec<TmDefect>,
    /// SRAM capacity in 16-bit words.
    sram_words: usize,
    lut: SigmoidLut,
}

impl TimeMultiplexedAccelerator {
    /// SRAM capacity: enough for the largest network the spatial design
    /// holds (90×10 + 10×10 weights plus biases).
    pub const SRAM_WORDS: usize = 1020;

    /// Creates a baseline with the given number of shared hardware
    /// neurons (classic designs use a handful; 2 by default in the
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if `physical_neurons` is zero.
    pub fn new(physical_neurons: usize) -> TimeMultiplexedAccelerator {
        assert!(physical_neurons >= 1);
        TimeMultiplexedAccelerator {
            physical_neurons,
            faults: FaultPlan::new(90),
            sram_stuck: Vec::new(),
            broken: false,
            defect_log: Vec::new(),
            sram_words: Self::SRAM_WORDS,
            lut: SigmoidLut::new(),
        }
    }

    /// Number of shared hardware neurons.
    pub fn physical_neurons(&self) -> usize {
        self.physical_neurons
    }

    /// True once a control-logic defect has occurred.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The injected defects so far.
    pub fn defect_log(&self) -> &[TmDefect] {
        &self.defect_log
    }

    /// How many time steps a logical network needs per row: every
    /// logical neuron must pass through a shared physical neuron.
    pub fn multiplexing_factor(&self, logical: dta_ann::Topology) -> usize {
        (logical.hidden + logical.outputs).div_ceil(self.physical_neurons)
    }

    /// Effective defect count as seen by the application network: each
    /// shared-neuron defect is replicated onto every logical neuron
    /// mapped to that physical neuron (paper §II: "effectively
    /// multiplying the number of defects by as much as the multiplexing
    /// factor").
    pub fn effective_defects(&self, logical: dta_ann::Topology) -> usize {
        let shared = self
            .defect_log
            .iter()
            .filter(|d| matches!(d, TmDefect::SharedNeuron { .. }))
            .count();
        let other = self.defect_log.len() - shared;
        shared * self.multiplexing_factor(logical) + other
    }

    /// Transistor budgets of the three defect regions, derived from the
    /// measured operator netlists: `(datapath, sram, control)`.
    ///
    /// SRAM: 6T cells. Control: address decode plus read routing,
    /// modeled at 40 transistors per SRAM word (amortized column muxes
    /// and decoder) — the "significant share" of §II.
    pub fn transistor_budget(&self) -> (u64, u64, u64) {
        let m = OperatorMetrics::measured();
        let datapath = self.physical_neurons as u64
            * (m.mul_transistors + m.add_transistors + m.act_transistors);
        let sram = self.sram_words as u64 * 16 * 6;
        let control = self.sram_words as u64 * 40;
        (datapath, sram, control)
    }

    /// Injects one random transistor-level defect, choosing the region
    /// proportionally to its transistor count. Returns where it landed.
    pub fn inject_random_defect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TmDefect {
        let (datapath, sram, control) = self.transistor_budget();
        let total = datapath + sram + control;
        let draw = rng.random_range(0..total);
        let defect = if draw < control {
            self.broken = true;
            TmDefect::Control
        } else if draw < control + sram {
            let word = rng.random_range(0..self.sram_words);
            let bit = rng.random_range(0..16u32);
            let value = rng.random_bool(0.5);
            let (mut and_mask, mut or_mask) = (0xFFFFu16, 0x0000u16);
            if value {
                or_mask |= 1 << bit;
            } else {
                and_mask &= !(1 << bit);
            }
            self.sram_stuck.push((word, and_mask, or_mask));
            TmDefect::SramBit { word, bit, value }
        } else {
            let before: std::collections::HashSet<usize> = self
                .faults
                .faulty_neurons(Layer::Hidden)
                .into_iter()
                .collect();
            self.faults.inject_random_hidden(
                self.physical_neurons,
                FaultModel::TransistorLevel,
                rng,
            );
            // Report which physical neuron the plan targeted.
            let neuron = self
                .faults
                .faulty_neurons(Layer::Hidden)
                .into_iter()
                .find(|n| !before.contains(n))
                .unwrap_or_else(|| {
                    // The defect landed in an already-faulty neuron; any
                    // of them is a valid report.
                    *self
                        .faults
                        .faulty_neurons(Layer::Hidden)
                        .first()
                        .expect("at least one faulty neuron")
                });
            TmDefect::SharedNeuron { neuron }
        };
        self.defect_log.push(defect.clone());
        defect
    }

    /// Fetches a logical weight through the (possibly stuck) SRAM bank.
    fn weight(&self, flat_index: usize, w: f64) -> Fx {
        let mut q = Fx::from_f64(w);
        for &(word, and_mask, or_mask) in &self.sram_stuck {
            if word == flat_index {
                q = Fx::from_bits((q.to_bits() & and_mask) | or_mask);
            }
        }
        q
    }

    /// Forward pass of a logical network through the shared neurons.
    /// If the control logic is broken the outputs are meaningless (all
    /// zeros), reflecting a wrecked accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the network's input count.
    pub fn forward(&mut self, mlp: &Mlp, x: &[f64]) -> ForwardTrace {
        let topo = mlp.topology();
        assert_eq!(x.len(), topo.inputs);
        if self.broken {
            return ForwardTrace {
                hidden: vec![0.0; topo.hidden],
                output_pre: vec![0.0; topo.outputs],
                output: vec![0.0; topo.outputs],
            };
        }
        let xq: Vec<Fx> = x.iter().map(|&v| Fx::from_f64(v)).collect();
        let k = self.physical_neurons;

        let mut hidden_fx = Vec::with_capacity(topo.hidden);
        for j in 0..topo.hidden {
            let bias_idx = j * (topo.inputs + 1) + topo.inputs;
            let bias = self.weight(bias_idx, mlp.w_hidden(j, topo.inputs));
            let phys = j % k;
            let ws: Vec<Fx> = (0..topo.inputs)
                .map(|i| self.weight(j * (topo.inputs + 1) + i, mlp.w_hidden(j, i)))
                .collect();
            let acc = self.shared_neuron_sum(phys, bias, &xq, &ws);
            let y = match self.faults.neuron_mut(Layer::Hidden, phys) {
                Some(nf) => nf.activation(acc, &self.lut),
                None => self.lut.eval(acc),
            };
            hidden_fx.push(y);
        }

        let out_base = topo.hidden * (topo.inputs + 1);
        let mut output_pre = Vec::with_capacity(topo.outputs);
        let mut output = Vec::with_capacity(topo.outputs);
        for o in 0..topo.outputs {
            let bias_idx = out_base + o * (topo.hidden + 1) + topo.hidden;
            let bias = self.weight(bias_idx, mlp.w_output(o, topo.hidden));
            // Output neurons share the same physical neurons, offset by
            // the hidden count (round-robin schedule).
            let phys = (topo.hidden + o) % k;
            let ws: Vec<Fx> = (0..topo.hidden)
                .map(|j| self.weight(out_base + o * (topo.hidden + 1) + j, mlp.w_output(o, j)))
                .collect();
            let acc = self.shared_neuron_sum(phys, bias, &hidden_fx, &ws);
            output_pre.push(acc.to_f64());
            let y = match self.faults.neuron_mut(Layer::Hidden, phys) {
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

    /// Multiply-accumulate through one shared physical neuron.
    fn shared_neuron_sum(&mut self, phys: usize, bias: Fx, inputs: &[Fx], ws: &[Fx]) -> Fx {
        let Some(nf) = self.faults.neuron_mut(Layer::Hidden, phys) else {
            let mut acc = bias;
            for (w, &xi) in ws.iter().zip(inputs) {
                acc += *w * xi;
            }
            return acc;
        };
        // Faulty synapses beyond the task width see zero operands.
        let n_logical = inputs.len();
        nf.accumulate(bias, n_logical, false, |i| {
            if i < n_logical {
                (ws[i], inputs[i])
            } else {
                (Fx::ZERO, Fx::ZERO)
            }
        })
    }

    /// Classification accuracy of a logical network on this (possibly
    /// defective) baseline. A broken accelerator classifies everything
    /// as class 0, i.e. near-chance accuracy.
    pub fn accuracy(&mut self, mlp: &Mlp, ds: &dta_datasets::Dataset, idx: &[usize]) -> f64 {
        let correct = idx
            .iter()
            .filter(|&&s| {
                let sample = &ds.samples()[s];
                self.forward(mlp, &sample.features).predicted() == sample.label
            })
            .count();
        correct as f64 / idx.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_ann::Topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn healthy_tm_matches_spatial_forward() {
        let mlp = Mlp::new(Topology::new(6, 4, 3), 9);
        let lut = SigmoidLut::new();
        let mut tm = TimeMultiplexedAccelerator::new(2);
        let x = [0.2, 0.8, 0.5, 0.1, 0.9, 0.3];
        let spatial = mlp.forward_fixed(&x, &lut);
        let multiplexed = tm.forward(&mlp, &x);
        assert_eq!(spatial, multiplexed, "no defects: identical datapath");
    }

    #[test]
    fn multiplexing_factor_counts_passes() {
        let tm = TimeMultiplexedAccelerator::new(2);
        assert_eq!(tm.multiplexing_factor(Topology::new(90, 10, 10)), 10);
        let tm = TimeMultiplexedAccelerator::new(4);
        assert_eq!(tm.multiplexing_factor(Topology::new(8, 6, 3)), 3);
    }

    #[test]
    fn control_defect_wrecks_outputs() {
        let mut tm = TimeMultiplexedAccelerator::new(2);
        tm.broken = true; // force the catastrophic case
        let mlp = Mlp::new(Topology::new(4, 3, 2), 1);
        let trace = tm.forward(&mlp, &[0.5; 4]);
        assert!(trace.output.iter().all(|&y| y == 0.0));
        assert!(tm.is_broken());
    }

    #[test]
    fn control_region_is_hit_reasonably_often() {
        // With the structural budgets, control+SRAM are a visible slice
        // of the defect-site space — the vulnerability the paper calls
        // out.
        let tm = TimeMultiplexedAccelerator::new(2);
        let (d, s, c) = tm.transistor_budget();
        let frac = (s + c) as f64 / (d + s + c) as f64;
        assert!(frac > 0.3, "SRAM+control fraction {frac}");
        let cfrac = c as f64 / (d + s + c) as f64;
        assert!(cfrac > 0.1, "control fraction {cfrac}");
    }

    #[test]
    fn injection_logs_and_eventually_breaks() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut tm = TimeMultiplexedAccelerator::new(2);
        for _ in 0..40 {
            tm.inject_random_defect(&mut rng);
        }
        assert_eq!(tm.defect_log().len(), 40);
        // With ~20% control share, 40 defects essentially guarantee a
        // control hit.
        assert!(tm.is_broken());
    }

    #[test]
    fn sram_stuck_bit_corrupts_specific_weight() {
        let mut tm = TimeMultiplexedAccelerator::new(2);
        // Stick bit 15 of hidden weight (0,0) to 1: large negative weight.
        tm.sram_stuck.push((0, 0xFFFF, 0x8000));
        let mlp = Mlp::new(Topology::new(2, 2, 2), 3);
        let lut = SigmoidLut::new();
        let healthy = mlp.forward_fixed(&[1.0, 0.0], &lut);
        let faulty = tm.forward(&mlp, &[1.0, 0.0]);
        assert_ne!(healthy.hidden[0], faulty.hidden[0]);
        // Neuron 1's weights are untouched.
        assert_eq!(healthy.hidden[1], faulty.hidden[1]);
    }

    #[test]
    fn shared_neuron_defects_multiply() {
        let mut tm = TimeMultiplexedAccelerator::new(2);
        tm.defect_log.push(TmDefect::SharedNeuron { neuron: 0 });
        tm.defect_log.push(TmDefect::SramBit {
            word: 3,
            bit: 1,
            value: true,
        });
        let topo = Topology::new(90, 10, 10);
        // factor 10: the shared defect counts 10x, the SRAM one 1x.
        assert_eq!(tm.effective_defects(topo), 11);
    }

    #[test]
    fn defect_display() {
        assert!(TmDefect::Control.to_string().contains("catastrophic"));
    }
}
