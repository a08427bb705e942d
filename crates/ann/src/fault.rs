//! Per-neuron fault plans: which operators of which neurons are
//! defective, and the gate-level circuits that emulate them.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;

use dta_circuits::{
    Activation, ActivationState, FaultModel, FxMulCircuit, HwAdder, HwMultiplier, HwSigmoid,
    SatAdderCircuit, SigmoidUnitCircuit,
};
use dta_fixed::{Fx, SigmoidLut};
use dta_mem::{Bank, WeightMemory};

/// Which layer a faulty neuron belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The hidden layer (the input→hidden stage, where Figure 10 injects).
    Hidden,
    /// The output layer (where Figure 11 injects).
    Output,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Hidden => write!(f, "hidden"),
            Layer::Output => write!(f, "output"),
        }
    }
}

/// Which operator class of a neuron a fault site refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitKind {
    /// A synaptic multiplier (one per physical synapse).
    Multiplier,
    /// An accumulation adder (one per physical synapse).
    Adder,
    /// A weight latch (one per physical synapse).
    Latch,
    /// The neuron's sigmoid activation unit (one per neuron).
    Activation,
    /// A whole multiply-accumulate processing element (systolic
    /// topology: one PE serves many synapses across weight tiles).
    Pe,
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitKind::Multiplier => write!(f, "mul"),
            UnitKind::Adder => write!(f, "add"),
            UnitKind::Latch => write!(f, "latch"),
            UnitKind::Activation => write!(f, "act"),
            UnitKind::Pe => write!(f, "pe"),
        }
    }
}

/// Structured location of one defective (or BIST-flagged) operator
/// instance: the ground truth a self-test's diagnosis is scored
/// against. Activation units have no synapse index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultSite {
    /// The layer of the host neuron.
    pub layer: Layer,
    /// Physical neuron lane within the layer.
    pub neuron: usize,
    /// The operator class carrying the defect.
    pub unit: UnitKind,
    /// Synapse/step index for per-synapse operators, `None` for the
    /// activation unit.
    pub synapse: Option<usize>,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.synapse {
            Some(s) => write!(f, "{}[{}].{}[{}]", self.layer, self.neuron, self.unit, s),
            None => write!(f, "{}[{}].{}", self.layer, self.neuron, self.unit),
        }
    }
}

/// Shared immutable operator netlists: built once per process, since a
/// 16-bit multiplier netlist has thousands of gates and every faulty
/// operator instance only needs its own (cheap) simulator state on top.
fn library() -> &'static (
    Arc<FxMulCircuit>,
    Arc<SatAdderCircuit>,
    Arc<SigmoidUnitCircuit>,
) {
    static LIB: OnceLock<(
        Arc<FxMulCircuit>,
        Arc<SatAdderCircuit>,
        Arc<SigmoidUnitCircuit>,
    )> = OnceLock::new();
    LIB.get_or_init(|| {
        (
            Arc::new(FxMulCircuit::new()),
            Arc::new(SatAdderCircuit::new()),
            Arc::new(SigmoidUnitCircuit::new()),
        )
    })
}

/// The stuck bits of one weight latch: permanent faults merged into an
/// (AND mask, OR mask) pair, dynamic (transient/intermittent) faults
/// kept individually and overlaid per read in injection order.
#[derive(Debug)]
struct LatchFaults {
    and_mask: u16,
    or_mask: u16,
    dynamic: Vec<LatchBit>,
}

/// One dynamically activated stuck bit of a weight latch.
#[derive(Debug)]
struct LatchBit {
    bit: u32,
    stuck_one: bool,
    state: ActivationState,
}

impl Default for LatchFaults {
    fn default() -> LatchFaults {
        LatchFaults {
            and_mask: 0xFFFF,
            or_mask: 0x0000,
            dynamic: Vec::new(),
        }
    }
}

/// The faulty operators of one physical synapse: its multiplier,
/// accumulation adder and weight latch, any of which may be defective.
#[derive(Debug)]
pub(crate) struct SynapseFaults {
    index: usize,
    mul: Option<HwMultiplier>,
    add: Option<HwAdder>,
    latch: Option<LatchFaults>,
}

impl SynapseFaults {
    fn new(index: usize) -> SynapseFaults {
        SynapseFaults {
            index,
            mul: None,
            add: None,
            latch: None,
        }
    }

    /// True if the synapse must be evaluated even with a zero weight
    /// and input (a physical synapse beyond the task's width): a faulty
    /// multiplier or adder can turn zero operands into a nonzero
    /// contribution, and a dynamic latch bit advances its activation
    /// stream on every read. Permanent latch masks alone cannot: the
    /// native product of any weight with a zero input is 0.
    fn live_at_zero(&self) -> bool {
        self.mul.is_some()
            || self.add.is_some()
            || self.latch.as_ref().is_some_and(|lf| !lf.dynamic.is_empty())
    }

    /// Applies the latch's stuck bits to a weight read. Each read
    /// advances the activation machines of the latch's dynamic faults,
    /// so a transient stuck bit corrupts individual weight fetches;
    /// active dynamic bits overwrite the permanent masks in injection
    /// order.
    fn latch_filter(&mut self, w: Fx) -> Fx {
        let Some(lf) = self.latch.as_mut() else {
            return w;
        };
        let mut bits = (w.to_bits() & lf.and_mask) | lf.or_mask;
        for b in &mut lf.dynamic {
            if b.state.advance() {
                if b.stuck_one {
                    bits |= 1 << b.bit;
                } else {
                    bits &= !(1 << b.bit);
                }
            }
        }
        Fx::from_bits(bits)
    }

    /// One multiply-accumulate step through this synapse: latch, then
    /// multiplier, then accumulation adder, each faulty where marked.
    fn mac(&mut self, acc: Fx, w: Fx, x: Fx) -> Fx {
        let w = self.latch_filter(w);
        let p = match self.mul.as_mut() {
            Some(hw) => hw.mul(w, x),
            None => w * x,
        };
        match self.add.as_mut() {
            Some(hw) => hw.add(acc, p),
            None => acc + p,
        }
    }

    fn vectorizable(&self) -> bool {
        self.mul.as_ref().is_none_or(|hw| hw.vectorizable())
            && self.add.as_ref().is_none_or(|hw| hw.vectorizable())
            && self.latch.as_ref().is_none_or(|lf| lf.dynamic.is_empty())
    }

    fn reset_state(&mut self) {
        if let Some(hw) = self.mul.as_mut() {
            hw.reset_state();
        }
        if let Some(hw) = self.add.as_mut() {
            hw.reset_state();
        }
        if let Some(lf) = self.latch.as_mut() {
            for b in &mut lf.dynamic {
                b.state.reset();
            }
        }
    }
}

/// The faulty operators of one neuron.
///
/// In the spatially expanded accelerator every synapse has its own
/// multiplier, accumulation adder and weight latch, so faults are indexed
/// by synapse position; the activation unit is one per neuron. Weight
/// latches are state elements, for which the stuck-at model is accurate
/// (the paper: such a model "accurately describes faults occurring at
/// state elements"), so latch defects are stuck bits in the stored word.
///
/// Only faulty synapses are stored, in one list sorted by synapse
/// index, so the forward pass walks it with a cursor instead of looking
/// every synapse up.
#[derive(Debug, Default)]
pub struct NeuronFaults {
    /// Faulty synapses, sorted by index; each carries at least one fault.
    synapses: Vec<SynapseFaults>,
    act: Option<HwSigmoid>,
}

impl NeuronFaults {
    /// One past the highest physical synapse index carrying a fault
    /// (multiplier, adder or latch); 0 if only the activation is faulty.
    pub fn max_synapse_excl(&self) -> usize {
        self.synapses.last().map_or(0, |s| s.index + 1)
    }

    fn synapse(&self, i: usize) -> Option<&SynapseFaults> {
        let at = self.synapses.binary_search_by_key(&i, |s| s.index).ok()?;
        Some(&self.synapses[at])
    }

    fn synapse_mut(&mut self, i: usize) -> Option<&mut SynapseFaults> {
        let at = self.synapses.binary_search_by_key(&i, |s| s.index).ok()?;
        Some(&mut self.synapses[at])
    }

    /// The entry of synapse `i`, inserted in index order if absent.
    fn synapse_entry(&mut self, i: usize) -> &mut SynapseFaults {
        let at = match self.synapses.binary_search_by_key(&i, |s| s.index) {
            Ok(at) => at,
            Err(at) => {
                self.synapses.insert(at, SynapseFaults::new(i));
                at
            }
        };
        &mut self.synapses[at]
    }

    /// Visits, in index order, the physical synapses a multiply-
    /// accumulate over `n_logical` inputs must evaluate: every logical
    /// synapse (`None` where it carries no fault), then the faulty
    /// synapses beyond the logical width that can disturb the sum (see
    /// [`SynapseFaults::live_at_zero`]). With `every_physical` set, all
    /// synapses up to [`NeuronFaults::max_synapse_excl`] are visited
    /// instead: a defective weight store counts every fetch.
    fn walk(
        &mut self,
        n_logical: usize,
        every_physical: bool,
        mut visit: impl FnMut(usize, Option<&mut SynapseFaults>),
    ) {
        let n_dense = if every_physical {
            n_logical.max(self.max_synapse_excl())
        } else {
            n_logical
        };
        let mut faulty = self.synapses.iter_mut().peekable();
        for i in 0..n_dense {
            visit(i, faulty.next_if(|s| s.index == i));
        }
        for s in faulty.filter(|s| s.live_at_zero()) {
            visit(s.index, Some(s));
        }
    }

    /// Multiply-accumulate of `bias` plus the neuron's synapses over
    /// `n_logical` inputs, each operation through its faulty operator
    /// where one is marked. `operand(i)` gives the `(weight, input)`
    /// pair physical synapse `i` sees; it is also asked for the faulty
    /// synapses beyond the logical width, whose operands are zero on a
    /// healthy fetch path. `every_physical` visits every physical
    /// synapse instead (a defective weight store counts every fetch).
    pub fn accumulate(
        &mut self,
        bias: Fx,
        n_logical: usize,
        every_physical: bool,
        mut operand: impl FnMut(usize) -> (Fx, Fx),
    ) -> Fx {
        let mut acc = bias;
        self.walk(n_logical, every_physical, |i, syn| {
            let (w, x) = operand(i);
            acc = match syn {
                Some(syn) => syn.mac(acc, w, x),
                None => acc + w * x,
            };
        });
        acc
    }

    /// The faulty multiplier at synapse `i`, if any.
    pub fn multiplier_mut(&mut self, i: usize) -> Option<&mut HwMultiplier> {
        self.synapse_mut(i)?.mul.as_mut()
    }

    /// The faulty accumulation adder at step `i`, if any.
    pub fn adder_mut(&mut self, i: usize) -> Option<&mut HwAdder> {
        self.synapse_mut(i)?.add.as_mut()
    }

    /// The faulty activation unit, if any.
    pub fn sigmoid_mut(&mut self) -> Option<&mut HwSigmoid> {
        self.act.as_mut()
    }

    /// Applies any latch stuck-bit faults of synapse `i` to a weight.
    /// Each read advances the activation machines of that latch's
    /// dynamic faults, so a transient stuck bit corrupts individual
    /// weight fetches; active dynamic bits overwrite the permanent
    /// masks in injection order.
    pub fn latch_filter(&mut self, i: usize, w: Fx) -> Fx {
        match self.synapse_mut(i) {
            Some(s) => s.latch_filter(w),
            None => w,
        }
    }

    /// Evaluates the neuron's activation, through the faulty unit if one
    /// is installed.
    pub fn activation(&mut self, x: Fx, lut: &SigmoidLut) -> Fx {
        match self.act.as_mut() {
            Some(hw) => hw.eval(x),
            None => lut.eval(x),
        }
    }

    /// True if every faulty operator of this neuron is combinational,
    /// i.e. safe for lane-parallel evaluation. Permanent latch
    /// stuck-bit masks are pure functions and never disqualify; dynamic
    /// latch faults advance per weight read and force the scalar path.
    pub fn vectorizable(&self) -> bool {
        self.synapses.iter().all(SynapseFaults::vectorizable)
            && self.act.as_ref().is_none_or(|hw| hw.vectorizable())
    }

    /// True if this neuron carries no fault (plans prune such entries).
    pub fn is_empty(&self) -> bool {
        self.synapses.is_empty() && self.act.is_none()
    }

    /// Read-only view of the faulty multiplier at synapse `i` (the
    /// network fuser reads its patched LUT stream without evaluating).
    pub(crate) fn mul_at(&self, i: usize) -> Option<&HwMultiplier> {
        self.synapse(i)?.mul.as_ref()
    }

    /// Read-only view of the faulty adder at step `i`.
    pub(crate) fn add_at(&self, i: usize) -> Option<&HwAdder> {
        self.synapse(i)?.add.as_ref()
    }

    /// Read-only view of the faulty activation unit.
    pub(crate) fn act_ref(&self) -> Option<&HwSigmoid> {
        self.act.as_ref()
    }

    /// The permanent stuck-bit masks `(and, or)` of synapse `i`'s weight
    /// latch — `(0xFFFF, 0)` when the latch is clean. Pure (does not
    /// advance dynamic fault state); only meaningful on
    /// [vectorizable](NeuronFaults::vectorizable) neurons, where the
    /// dynamic list is empty.
    pub(crate) fn latch_masks(&self, i: usize) -> (u16, u16) {
        self.synapse(i)
            .and_then(|s| s.latch.as_ref())
            .map_or((0xFFFF, 0), |lf| (lf.and_mask, lf.or_mask))
    }

    fn reset_state(&mut self) {
        for s in &mut self.synapses {
            s.reset_state();
        }
        if let Some(hw) = self.act.as_mut() {
            hw.reset_state();
        }
    }
}

/// The set of defective operators across the network, owning the
/// gate-level circuits that emulate them.
///
/// # Example
///
/// ```
/// use dta_ann::FaultPlan;
/// use dta_circuits::FaultModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let mut plan = FaultPlan::new(90);
/// plan.inject_random_hidden(10, FaultModel::TransistorLevel, &mut rng);
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    /// Physical synapses per hidden neuron (90 in the accelerator).
    hw_inputs: usize,
    /// Fault entries per layer (`[hidden, output]`), indexed by physical
    /// lane; `None` for healthy lanes.
    neurons: [Vec<Option<NeuronFaults>>; 2],
    records: Vec<String>,
    sites: Vec<FaultSite>,
    /// Logical→physical hidden-lane routes installed by a recovery
    /// remap, indexed by logical lane; identity beyond its length.
    hidden_map: Vec<usize>,
    /// Per layer, per physical lane: output gated to 0 (fail-silent
    /// masking); unmasked beyond its length.
    masked: [Vec<bool>; 2],
    /// Optional weight-store model: when attached, every weight and bias
    /// fetch of the faulty forward paths goes through the (possibly
    /// defective) bit-cell array. A transparent (defect-free) array is
    /// skipped entirely, keeping the healthy path bit-identical.
    mem: Option<WeightMemory>,
}

/// Index of a layer in the per-layer tables of [`FaultPlan`].
fn layer_ix(layer: Layer) -> usize {
    match layer {
        Layer::Hidden => 0,
        Layer::Output => 1,
    }
}

/// The memory bank a layer's weight rows live in.
pub(crate) fn bank_of(layer: Layer) -> Bank {
    match layer {
        Layer::Hidden => Bank::Hidden,
        Layer::Output => Bank::Output,
    }
}

impl FaultPlan {
    /// Creates an empty plan for an accelerator with `hw_inputs` physical
    /// synapses per hidden neuron.
    pub fn new(hw_inputs: usize) -> FaultPlan {
        FaultPlan {
            hw_inputs,
            neurons: [Vec::new(), Vec::new()],
            records: Vec::new(),
            sites: Vec::new(),
            hidden_map: Vec::new(),
            masked: [Vec::new(), Vec::new()],
            mem: None,
        }
    }

    /// Attaches a weight-store model; subsequent faulty forward passes
    /// fetch every weight and bias through its bit-cell array.
    pub fn attach_memory(&mut self, mem: WeightMemory) {
        self.mem = Some(mem);
    }

    /// Removes the attached weight store, if any.
    pub fn detach_memory(&mut self) -> Option<WeightMemory> {
        self.mem.take()
    }

    /// The attached weight store, if any.
    pub fn memory(&self) -> Option<&WeightMemory> {
        self.mem.as_ref()
    }

    /// Mutable access to the attached weight store (defect injection,
    /// BIST, steering repairs).
    pub fn memory_mut(&mut self) -> Option<&mut WeightMemory> {
        self.mem.as_mut()
    }

    /// The weight store *if it can disturb fetches* (attached and not
    /// transparent), alongside the neuron's fault entry. Split accessor
    /// so the forward path can hold both mutably at once.
    pub fn fetch_units(
        &mut self,
        layer: Layer,
        neuron: usize,
    ) -> (Option<&mut WeightMemory>, Option<&mut NeuronFaults>) {
        let mem = self.mem.as_mut().filter(|m| !m.is_transparent());
        let nf = self.neurons[layer_ix(layer)]
            .get_mut(neuron)
            .and_then(Option::as_mut);
        (mem, nf)
    }

    /// Routes one weight through the attached array (identity when no
    /// non-transparent memory is attached).
    pub fn mem_weight(&mut self, layer: Layer, lane: usize, slot: usize, w: Fx) -> Fx {
        match self.mem.as_mut().filter(|m| !m.is_transparent()) {
            Some(m) => m.fetch(bank_of(layer), lane, slot, w),
            None => w,
        }
    }

    /// Routes one bias through the attached array (the bias occupies the
    /// last word slot of its lane's row).
    pub fn mem_bias(&mut self, layer: Layer, lane: usize, w: Fx) -> Fx {
        match self.mem.as_mut().filter(|m| !m.is_transparent()) {
            Some(m) => {
                let bank = bank_of(layer);
                let slot = m.bias_slot(bank);
                m.fetch(bank, lane, slot, w)
            }
            None => w,
        }
    }

    /// Number of injected defects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no defect has been injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Descriptions of every injected defect.
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// Physical synapses per hidden neuron.
    pub fn hw_inputs(&self) -> usize {
        self.hw_inputs
    }

    /// Structured ground-truth locations of every injected defect, one
    /// per record and in injection order (a site repeats when several
    /// defects land on the same operator instance). This is what a
    /// self-test's diagnosis is scored against.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Physical hidden lane that logical hidden neuron `logical` is
    /// routed to (identity unless remapped).
    pub fn hidden_lane(&self, logical: usize) -> usize {
        self.hidden_map.get(logical).copied().unwrap_or(logical)
    }

    /// Routes logical hidden neuron `logical` onto physical lane
    /// `physical` (a spare-lane repair). Forward passes evaluate the
    /// neuron's weights through that lane's operators instead.
    pub fn remap_hidden(&mut self, logical: usize, physical: usize) {
        if logical >= self.hidden_map.len() {
            if logical == physical {
                return;
            }
            self.hidden_map.extend(self.hidden_map.len()..=logical);
        }
        self.hidden_map[logical] = physical;
    }

    /// The installed logical→physical hidden remaps, sorted by logical
    /// lane.
    pub fn remapped_hidden(&self) -> Vec<(usize, usize)> {
        self.hidden_map
            .iter()
            .enumerate()
            .filter(|&(l, &p)| l != p)
            .map(|(l, &p)| (l, p))
            .collect()
    }

    /// Gates a physical lane's output to 0 (fail-silent masking — the
    /// degraded network serves without the lane's contribution).
    pub fn mask(&mut self, layer: Layer, lane: usize) {
        let masked = &mut self.masked[layer_ix(layer)];
        if lane >= masked.len() {
            masked.resize(lane + 1, false);
        }
        masked[lane] = true;
    }

    /// Removes a mask installed by [`FaultPlan::mask`].
    pub fn unmask(&mut self, layer: Layer, lane: usize) {
        if let Some(m) = self.masked[layer_ix(layer)].get_mut(lane) {
            *m = false;
        }
    }

    /// True if the physical lane's output is gated to 0.
    pub fn is_masked(&self, layer: Layer, lane: usize) -> bool {
        self.masked[layer_ix(layer)]
            .get(lane)
            .copied()
            .unwrap_or(false)
    }

    /// The masked physical lanes of a layer, sorted.
    pub fn masked_lanes(&self, layer: Layer) -> Vec<usize> {
        self.masked[layer_ix(layer)]
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(lane, _)| lane)
            .collect()
    }

    /// The fault state of a neuron, if it has any.
    pub fn neuron_mut(&mut self, layer: Layer, neuron: usize) -> Option<&mut NeuronFaults> {
        self.neurons[layer_ix(layer)]
            .get_mut(neuron)
            .and_then(Option::as_mut)
    }

    /// Read-only view of a neuron's fault state (used by the fused
    /// network compiler, which must not disturb activation machines).
    pub(crate) fn neuron(&self, layer: Layer, neuron: usize) -> Option<&NeuronFaults> {
        self.neurons[layer_ix(layer)]
            .get(neuron)
            .and_then(Option::as_ref)
    }

    /// Indices of faulty neurons per layer.
    pub fn faulty_neurons(&self, layer: Layer) -> Vec<usize> {
        self.neurons[layer_ix(layer)]
            .iter()
            .enumerate()
            .filter(|(_, nf)| nf.is_some())
            .map(|(lane, _)| lane)
            .collect()
    }

    fn entry(&mut self, layer: Layer, neuron: usize) -> &mut NeuronFaults {
        let lanes = &mut self.neurons[layer_ix(layer)];
        if neuron >= lanes.len() {
            lanes.resize_with(neuron + 1, || None);
        }
        lanes[neuron].get_or_insert_with(NeuronFaults::default)
    }

    /// Injects one **permanent** transistor- or gate-level defect at a
    /// uniformly random operator instance of the input/hidden stage
    /// (the Figure 10 procedure): per hidden neuron the instances are
    /// `hw_inputs` multipliers, `hw_inputs` adders, `hw_inputs` weight
    /// latches, and one activation unit.
    pub fn inject_random_hidden<R: Rng + ?Sized>(
        &mut self,
        n_hidden: usize,
        model: FaultModel,
        rng: &mut R,
    ) {
        self.inject_random_hidden_with(n_hidden, model, Activation::Permanent, rng);
    }

    /// Injects one random input/hidden-stage defect with the given
    /// lifetime. For [`Activation::Permanent`] this consumes exactly
    /// the same RNG draws as [`FaultPlan::inject_random_hidden`];
    /// non-permanent defects draw one extra `u64` to seed their
    /// activation stream.
    pub fn inject_random_hidden_with<R: Rng + ?Sized>(
        &mut self,
        n_hidden: usize,
        model: FaultModel,
        activation: Activation,
        rng: &mut R,
    ) {
        assert!(n_hidden >= 1);
        let neuron = rng.random_range(0..n_hidden);
        let per_neuron = 3 * self.hw_inputs + 1;
        let instance = rng.random_range(0..per_neuron);
        let (lib_mul, lib_add, lib_act) = library();
        let hw_inputs = self.hw_inputs;
        let nf = self.entry(Layer::Hidden, neuron);
        let (desc, site) = if instance < hw_inputs {
            let syn = instance;
            let hw = nf
                .synapse_entry(syn)
                .mul
                .get_or_insert_with(|| HwMultiplier::with_circuit(Arc::clone(lib_mul)));
            let d = hw
                .inject_random_with(model, activation, 1, rng)
                .pop()
                .expect("one defect");
            (
                format!("hidden[{neuron}].mul[{syn}]: {d}"),
                FaultSite {
                    layer: Layer::Hidden,
                    neuron,
                    unit: UnitKind::Multiplier,
                    synapse: Some(syn),
                },
            )
        } else if instance < 2 * hw_inputs {
            let step = instance - hw_inputs;
            let hw = nf
                .synapse_entry(step)
                .add
                .get_or_insert_with(|| HwAdder::with_circuit(Arc::clone(lib_add)));
            let d = hw
                .inject_random_with(model, activation, 1, rng)
                .pop()
                .expect("one defect");
            (
                format!("hidden[{neuron}].add[{step}]: {d}"),
                FaultSite {
                    layer: Layer::Hidden,
                    neuron,
                    unit: UnitKind::Adder,
                    synapse: Some(step),
                },
            )
        } else if instance < 3 * hw_inputs {
            let syn = instance - 2 * hw_inputs;
            let bit = rng.random_range(0..16u32);
            let stuck_one = rng.random_bool(0.5);
            let lf = nf
                .synapse_entry(syn)
                .latch
                .get_or_insert_with(LatchFaults::default);
            let desc = if activation.is_permanent() {
                if stuck_one {
                    lf.or_mask |= 1 << bit;
                } else {
                    lf.and_mask &= !(1 << bit);
                }
                format!(
                    "hidden[{neuron}].latch[{syn}]: bit {bit} stuck at {}",
                    u8::from(stuck_one)
                )
            } else {
                let seed = rng.random::<u64>();
                lf.dynamic.push(LatchBit {
                    bit,
                    stuck_one,
                    state: ActivationState::new(activation, seed),
                });
                format!(
                    "hidden[{neuron}].latch[{syn}]: bit {bit} stuck at {} [{activation}]",
                    u8::from(stuck_one)
                )
            };
            (
                desc,
                FaultSite {
                    layer: Layer::Hidden,
                    neuron,
                    unit: UnitKind::Latch,
                    synapse: Some(syn),
                },
            )
        } else {
            let hw = nf
                .act
                .get_or_insert_with(|| HwSigmoid::with_circuit(Arc::clone(lib_act)));
            let d = hw
                .inject_random_with(model, activation, 1, rng)
                .pop()
                .expect("one defect");
            (
                format!("hidden[{neuron}].act: {d}"),
                FaultSite {
                    layer: Layer::Hidden,
                    neuron,
                    unit: UnitKind::Activation,
                    synapse: None,
                },
            )
        };
        self.records.push(desc);
        self.sites.push(site);
    }

    /// Injects one transistor-level defect into the accumulation adder of
    /// an output neuron (a Figure 11 site). The defective instance is the
    /// final accumulation step, whose error reaches the activation input
    /// directly.
    pub fn inject_output_adder<R: Rng + ?Sized>(
        &mut self,
        neuron: usize,
        last_step: usize,
        rng: &mut R,
    ) {
        let (_, lib_add, _) = library();
        let nf = self.entry(Layer::Output, neuron);
        let hw = nf
            .synapse_entry(last_step)
            .add
            .get_or_insert_with(|| HwAdder::with_circuit(Arc::clone(lib_add)));
        let d = hw
            .inject_random(FaultModel::TransistorLevel, 1, rng)
            .pop()
            .expect("one defect");
        self.records
            .push(format!("output[{neuron}].add[{last_step}]: {d}"));
        self.sites.push(FaultSite {
            layer: Layer::Output,
            neuron,
            unit: UnitKind::Adder,
            synapse: Some(last_step),
        });
    }

    /// Injects one transistor-level defect into the activation unit of an
    /// output neuron (the other Figure 11 site).
    pub fn inject_output_activation<R: Rng + ?Sized>(&mut self, neuron: usize, rng: &mut R) {
        let (_, _, lib_act) = library();
        let nf = self.entry(Layer::Output, neuron);
        let hw = nf
            .act
            .get_or_insert_with(|| HwSigmoid::with_circuit(Arc::clone(lib_act)));
        let d = hw
            .inject_random(FaultModel::TransistorLevel, 1, rng)
            .pop()
            .expect("one defect");
        self.records.push(format!("output[{neuron}].act: {d}"));
        self.sites.push(FaultSite {
            layer: Layer::Output,
            neuron,
            unit: UnitKind::Activation,
            synapse: None,
        });
    }

    /// Clears memory effects and delay-line state in every faulty
    /// circuit; call between independent evaluation runs.
    pub fn reset_state(&mut self) {
        for nf in self.neurons.iter_mut().flatten().flatten() {
            nf.reset_state();
        }
        if let Some(mem) = self.mem.as_mut() {
            mem.reset_state();
        }
    }

    /// True if every faulty operator in the plan lowered to truth-word
    /// patches, so whole-dataset forward passes run as one fused LUT
    /// stream, 64 samples per sweep (see
    /// [`crate::Mlp::forward_faulty_batch`]). Stateful defects (memory
    /// effects, delays, dynamic activations) force the scalar path,
    /// whose per-sample evaluation order is part of the semantics.
    pub fn vectorizable(&self) -> bool {
        self.neurons
            .iter()
            .flatten()
            .flatten()
            .all(NeuronFaults::vectorizable)
            && self.mem.as_ref().is_none_or(|m| m.vectorizable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_plan_has_no_faulty_neurons() {
        let mut plan = FaultPlan::new(90);
        assert!(plan.is_empty());
        assert!(plan.neuron_mut(Layer::Hidden, 0).is_none());
        assert!(plan.faulty_neurons(Layer::Hidden).is_empty());
    }

    #[test]
    fn injection_creates_neuron_entries() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut plan = FaultPlan::new(90);
        for _ in 0..25 {
            plan.inject_random_hidden(10, FaultModel::TransistorLevel, &mut rng);
        }
        assert_eq!(plan.len(), 25);
        assert_eq!(plan.records().len(), 25);
        let faulty = plan.faulty_neurons(Layer::Hidden);
        assert!(!faulty.is_empty());
        assert!(faulty.iter().all(|&n| n < 10));
        for &n in &faulty {
            assert!(!plan.neuron_mut(Layer::Hidden, n).unwrap().is_empty());
        }
    }

    #[test]
    fn latch_filter_applies_stuck_bits() {
        let mut nf = NeuronFaults::default();
        // bit0 stuck 0, bit15 stuck 1
        nf.synapse_entry(3).latch = Some(LatchFaults {
            and_mask: 0xFFFE,
            or_mask: 0x8000,
            dynamic: Vec::new(),
        });
        let w = Fx::from_bits(0x0001);
        let filtered = nf.latch_filter(3, w);
        assert_eq!(filtered.to_bits(), 0x8000);
        // Other synapses pass through.
        assert_eq!(nf.latch_filter(2, w), w);
    }

    #[test]
    fn intermittent_latch_bit_corrupts_alternate_reads() {
        let mut nf = NeuronFaults::default();
        nf.synapse_entry(0).latch = Some(LatchFaults {
            dynamic: vec![LatchBit {
                bit: 15,
                stuck_one: true,
                state: ActivationState::new(Activation::Intermittent { period: 2, duty: 1 }, 0),
            }],
            ..LatchFaults::default()
        });
        assert!(!nf.vectorizable(), "dynamic latch forces the scalar path");
        let w = Fx::from_bits(0x0001);
        // duty 1 / period 2: faulty, clean, faulty, clean ...
        assert_eq!(nf.latch_filter(0, w).to_bits(), 0x8001);
        assert_eq!(nf.latch_filter(0, w).to_bits(), 0x0001);
        assert_eq!(nf.latch_filter(0, w).to_bits(), 0x8001);
        nf.reset_state();
        assert_eq!(nf.latch_filter(0, w).to_bits(), 0x8001, "reset replays");
    }

    #[test]
    fn walk_skips_dead_synapses_beyond_the_logical_width() {
        let mut nf = NeuronFaults::default();
        nf.synapse_entry(2).mul = Some(HwMultiplier::new());
        // Permanent masks alone add 0 beyond the width: skipped.
        nf.synapse_entry(5).latch = Some(LatchFaults {
            or_mask: 0x8000,
            ..LatchFaults::default()
        });
        nf.synapse_entry(7).latch = Some(LatchFaults {
            dynamic: vec![LatchBit {
                bit: 3,
                stuck_one: true,
                state: ActivationState::new(Activation::Intermittent { period: 2, duty: 1 }, 0),
            }],
            ..LatchFaults::default()
        });
        nf.synapse_entry(9).add = Some(HwAdder::new());
        assert_eq!(nf.max_synapse_excl(), 10);
        let mut visited = Vec::new();
        nf.walk(4, false, |i, syn| visited.push((i, syn.is_some())));
        assert_eq!(
            visited,
            [
                (0, false),
                (1, false),
                (2, true),
                (3, false),
                (7, true),
                (9, true)
            ]
        );
        // An attached store counts every fetch: the whole physical range.
        visited.clear();
        nf.walk(4, true, |i, syn| visited.push((i, syn.is_some())));
        let faulty = [2, 5, 7, 9];
        let every: Vec<(usize, bool)> = (0..10).map(|i| (i, faulty.contains(&i))).collect();
        assert_eq!(visited, every);
    }

    #[test]
    fn permanent_injection_with_is_rng_compatible() {
        // `inject_random_hidden_with(Permanent)` must consume the same
        // RNG draws and produce the same records as the original entry
        // point.
        let mut a = ChaCha8Rng::seed_from_u64(21);
        let mut b = a.clone();
        let mut plain = FaultPlan::new(90);
        let mut with = FaultPlan::new(90);
        for _ in 0..15 {
            plain.inject_random_hidden(10, FaultModel::TransistorLevel, &mut a);
            with.inject_random_hidden_with(
                10,
                FaultModel::TransistorLevel,
                Activation::Permanent,
                &mut b,
            );
        }
        assert_eq!(plain.records(), with.records());
        assert_eq!(a.random::<u64>(), b.random::<u64>(), "RNG streams aligned");
    }

    #[test]
    fn dynamic_injection_records_and_disables_vectorization() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut plan = FaultPlan::new(90);
        for _ in 0..12 {
            plan.inject_random_hidden_with(
                6,
                FaultModel::TransistorLevel,
                Activation::Transient {
                    per_eval_probability: 0.2,
                },
                &mut rng,
            );
        }
        assert_eq!(plan.len(), 12);
        assert!(
            plan.records()
                .iter()
                .all(|r| r.contains("transient(p=0.2)")),
            "every record names the lifetime: {:?}",
            plan.records()
        );
        assert!(!plan.vectorizable(), "dynamic plans must run scalar");
        plan.reset_state(); // must not panic, resets activation streams
    }

    #[test]
    fn output_layer_injection_sites() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut plan = FaultPlan::new(90);
        plan.inject_output_adder(2, 9, &mut rng);
        plan.inject_output_activation(4, &mut rng);
        assert_eq!(plan.faulty_neurons(Layer::Output), vec![2, 4]);
        assert!(plan.records()[0].contains("output[2].add[9]"));
        assert!(plan.records()[1].contains("output[4].act"));
        assert!(plan.faulty_neurons(Layer::Hidden).is_empty());
    }

    #[test]
    fn max_synapse_tracks_fault_positions() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut plan = FaultPlan::new(90);
        plan.inject_output_adder(0, 42, &mut rng);
        let nf = plan.neuron_mut(Layer::Output, 0).unwrap();
        assert_eq!(nf.max_synapse_excl(), 43);
    }

    #[test]
    fn sites_mirror_records() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut plan = FaultPlan::new(90);
        for _ in 0..40 {
            plan.inject_random_hidden(10, FaultModel::TransistorLevel, &mut rng);
        }
        plan.inject_output_adder(1, 9, &mut rng);
        plan.inject_output_activation(2, &mut rng);
        assert_eq!(plan.sites().len(), plan.records().len());
        for (site, record) in plan.sites().iter().zip(plan.records()) {
            // The structured site renders as the prefix of its record.
            assert!(
                record.starts_with(&format!("{site}:")),
                "{site} vs {record}"
            );
        }
        assert_eq!(
            plan.sites().last().copied(),
            Some(FaultSite {
                layer: Layer::Output,
                neuron: 2,
                unit: UnitKind::Activation,
                synapse: None,
            })
        );
    }

    #[test]
    fn hidden_lane_map_defaults_to_identity() {
        let mut plan = FaultPlan::new(90);
        assert_eq!(plan.hidden_lane(3), 3);
        plan.remap_hidden(3, 7);
        assert_eq!(plan.hidden_lane(3), 7);
        assert_eq!(plan.hidden_lane(7), 7, "other lanes untouched");
        assert_eq!(plan.remapped_hidden(), vec![(3, 7)]);
        plan.remap_hidden(3, 3); // identity remap clears the override
        assert_eq!(plan.hidden_lane(3), 3);
        assert!(plan.remapped_hidden().is_empty());
    }

    #[test]
    fn mask_is_per_layer_lane() {
        let mut plan = FaultPlan::new(90);
        assert!(!plan.is_masked(Layer::Hidden, 2));
        plan.mask(Layer::Hidden, 2);
        assert!(plan.is_masked(Layer::Hidden, 2));
        assert!(!plan.is_masked(Layer::Output, 2));
        plan.mask(Layer::Output, 0);
        assert_eq!(plan.masked_lanes(Layer::Hidden), vec![2]);
        assert_eq!(plan.masked_lanes(Layer::Output), vec![0]);
        plan.unmask(Layer::Hidden, 2);
        assert!(!plan.is_masked(Layer::Hidden, 2));
    }

    #[test]
    fn reset_state_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut plan = FaultPlan::new(90);
        plan.inject_random_hidden(10, FaultModel::TransistorLevel, &mut rng);
        plan.reset_state(); // must not panic
    }
}
