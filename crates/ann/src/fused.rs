//! Network-level fusion of the faulty forward pass.
//!
//! [`FusedForward`] compiles the *whole* forward pass of one
//! `(topology, fault-plan)` pair into a single
//! [`dta_logic::FusedProgram`]: every faulty multiplier, adder and
//! sigmoid unit — faults already lowered into patched truth words —
//! becomes a segment of one straight-line instruction stream over a
//! shared flat register file, with producer outputs bound directly as
//! consumer inputs (a faulty multiplier feeding a faulty adder costs
//! zero repacking, and consecutive faulty adders chain in-gate).
//!
//! Healthy operators never enter the stream: the runner evaluates them
//! natively between stage barriers, exactly like the scalar path does.
//! On top of the raw fusion the program is run through
//! [`dta_logic::optimize`]'s pass pipeline — constant folding through
//! the patched truth words (physical synapses beyond the logical input
//! width and masked hidden lanes feed compile-time-zero operands),
//! cross-operator dead-LUT elimination, and register-file liveness
//! compaction — so the working set stays cache-resident for deep fault
//! plans.
//!
//! Compilation is memoized process-wide per (topology, defect-plan
//! fingerprint), so campaign cells and mission batches amortize it
//! across every epoch and batch; [`fused_cache_stats`] exposes the
//! hit/miss counters for benchmark breakdowns.
//!
//! Batch evaluation has two engines. [`crate::Mlp::forward_faulty_batch`]
//! runs this fused stream whenever the plan is
//! [vectorizable](FaultPlan::vectorizable), i.e. every faulty operator
//! lowered to truth-word patches; otherwise it runs the rows one by one
//! through [`crate::Mlp::forward_faulty`], whose faulty operators run
//! their compiled one-lane streams (stateful cells as step
//! instructions).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dta_fixed::{Fx, SigmoidLut};
use dta_logic::{optimize, FuseBuilder, FusedExec, FusedProgram};
use dta_logic::{LutInstr, LutProgram, Netlist, NodeId, SlotMap};

use crate::fault::{FaultPlan, Layer, NeuronFaults};
use crate::mlp::{ForwardTrace, Mlp};

/// Fused compilations kept in the process-wide memo before it is
/// cleared wholesale (campaign sweeps mint one plan per cell; an
/// unbounded cache would grow with the sweep).
const CACHE_CAP: usize = 256;

/// Samples one stream sweep evaluates (the executor's lane count).
const LANES: usize = 64;

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the process-wide fused-compilation memo —
/// measures compilation amortization across campaign cells and epochs.
pub fn fused_cache_stats() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Empties the fused-compilation memo (benchmark cold-start timing).
pub fn clear_fused_cache() {
    if let Ok(mut cache) = cache().lock() {
        cache.clear();
    }
}

/// Identity of one faulty operator's patched instruction stream: the
/// shared netlist (instruction skeleton) plus the patched truth words.
#[derive(PartialEq, Eq, Hash)]
struct OpKey {
    net: usize,
    tables: Vec<u16>,
}

impl OpKey {
    fn new(net: usize, instrs: &[LutInstr]) -> OpKey {
        OpKey {
            net,
            tables: instrs.iter().map(|i| i.table).collect(),
        }
    }
}

/// One neuron's contribution to the defect-plan fingerprint.
#[derive(PartialEq, Eq, Hash)]
struct NeuronKey {
    lane: usize,
    n_eff: usize,
    muls: Vec<(usize, OpKey)>,
    adds: Vec<(usize, OpKey)>,
    act: Option<OpKey>,
    latches: Vec<(usize, u16, u16)>,
}

/// What one logical neuron compiles to, as fingerprint material.
#[derive(PartialEq, Eq, Hash)]
enum KeyPlan {
    Masked,
    Native { lane: usize },
    Gated(NeuronKey),
}

/// The full (topology, defect-plan) fingerprint keying the memo. Weight
/// values are deliberately absent: weights and biases are runtime
/// inputs of the fused stream, so training updates and memory repairs
/// never force a recompile.
#[derive(PartialEq, Eq, Hash)]
struct FuseKey {
    dims: (usize, usize, usize),
    hidden: Vec<KeyPlan>,
    output: Vec<KeyPlan>,
}

fn cache() -> &'static Mutex<HashMap<FuseKey, Arc<FusedForward>>> {
    static CACHE: OnceLock<Mutex<HashMap<FuseKey, Arc<FusedForward>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A faulty multiplier's segment ports in the fused register file.
struct MulPort {
    syn: usize,
    /// Weight operand bus (driven uniform across lanes each call).
    w: Vec<u32>,
    /// Input operand bus; not driven when `x_const`.
    x: Vec<u32>,
    /// Product bus; read back only when the consuming adder is healthy
    /// (otherwise it is wired straight into the adder's `b` operand).
    out: Vec<u32>,
    /// The input operand is compile-time zero (physical synapse beyond
    /// the logical width, or a masked hidden lane): folded, not driven.
    x_const: bool,
}

/// One synapse of a fused adder run.
struct RunSyn {
    syn: usize,
    /// `b` operand bus when the multiplier at this synapse is healthy
    /// (the runner packs the native product); `None` when the faulty
    /// multiplier's output is bound directly.
    b: Option<Vec<u32>>,
    /// The native product is compile-time zero: folded, not driven.
    b_const: bool,
}

/// A maximal chain of consecutive faulty adders, fused in-gate: adder
/// `i`'s sum feeds adder `i+1`'s `a` operand with no repacking.
struct AddRun {
    start: usize,
    end: usize,
    /// Partial-accumulator input bus of the first adder in the chain.
    a_in: Vec<u32>,
    /// Sum bus of the last adder in the chain.
    out: Vec<u32>,
    syns: Vec<RunSyn>,
}

/// A faulty sigmoid unit's ports.
struct ActPort {
    x: Vec<u32>,
    out: Vec<u32>,
}

/// Compiled layout of one neuron that owns at least one fault.
struct GatedNeuron {
    lane: usize,
    n_eff: usize,
    muls: Vec<MulPort>,
    /// Index into `muls` per synapse (`n_eff` entries).
    mul_at: Vec<Option<usize>>,
    runs: Vec<AddRun>,
    act: Option<ActPort>,
}

/// How one logical neuron executes at run time.
enum NeuronPlan {
    /// Recovery-masked lane: outputs zero.
    Masked,
    /// No fault entry: fully native multiply-accumulate and LUT sigmoid.
    Native { lane: usize },
    /// At least one faulty operator: gate segments in the fused stream,
    /// native arithmetic between them.
    Gated(GatedNeuron),
}

/// Stage indices of one layer inside the fused program: one multiplier
/// stage, `n_runs` adder-run stages, one activation stage.
struct LayerStages {
    mul: usize,
    add0: usize,
    n_runs: usize,
    act: usize,
    /// Input columns the layer reads: its logical width, or more when a
    /// gated neuron evaluates physical synapses beyond it.
    width: usize,
}

/// Per-call weight preparation for one neuron (bias and weights fetched
/// through the attached memory once per batch, latch stuck-bit masks
/// applied — all native, outside the gate stream).
enum RtPrep {
    Masked,
    Native { bias: Fx, ws: Vec<Fx> },
    Gated { bias: Fx, w_eff: Vec<Fx> },
}

/// A whole faulty forward pass compiled to one optimized 64-lane LUT
/// instruction stream (see the module docs). Build with
/// [`FusedForward::cached`] (memoized) or [`FusedForward::compile`].
pub struct FusedForward {
    prog: Arc<FusedProgram>,
    hidden: Vec<NeuronPlan>,
    output: Vec<NeuronPlan>,
    h_stages: LayerStages,
    o_stages: LayerStages,
}

impl FusedForward {
    /// The memoized fused compilation for this `(topology, plan)` pair,
    /// or `None` when the plan is not fusable (stateful faults, or a
    /// faulty operator without a patched LUT stream). Weight values are
    /// not part of the fingerprint — see `FuseKey`.
    pub fn cached(mlp: &Mlp, plan: &FaultPlan) -> Option<Arc<FusedForward>> {
        let key = build_key(mlp, plan)?;
        let mut cache = cache().lock().expect("fused cache poisoned");
        if let Some(ff) = cache.get(&key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(ff));
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let ff = Arc::new(Self::compile(mlp, plan)?);
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&ff));
        Some(ff)
    }

    /// Compiles (without memoization) the fused forward program for this
    /// plan, or `None` when the plan is not fusable.
    pub fn compile(mlp: &Mlp, plan: &FaultPlan) -> Option<FusedForward> {
        if !plan.vectorizable() {
            return None;
        }
        let topo = mlp.topology();
        let masked_logical: Vec<bool> = (0..topo.hidden)
            .map(|j| plan.is_masked(Layer::Hidden, plan.hidden_lane(j)))
            .collect();

        let mut fb = FuseBuilder::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut known: Vec<(u32, bool)> = Vec::new();
        let mut stage = 0usize;

        let h_lanes: Vec<usize> = (0..topo.hidden).map(|j| plan.hidden_lane(j)).collect();
        let (hidden, h_stages) = compile_layer(
            plan,
            Layer::Hidden,
            &h_lanes,
            topo.inputs,
            |i| i >= topo.inputs,
            &mut fb,
            &mut stage,
            &mut roots,
            &mut known,
        )?;
        fb.barrier();
        stage += 1;
        let o_lanes: Vec<usize> = (0..topo.outputs).collect();
        let (output, o_stages) = compile_layer(
            plan,
            Layer::Output,
            &o_lanes,
            topo.hidden,
            |j| j >= topo.hidden || masked_logical[j],
            &mut fb,
            &mut stage,
            &mut roots,
            &mut known,
        )?;

        let raw = fb.finish();
        let (prog, sm, _, _) = optimize(&raw, &roots, &known, &[]);
        let hidden = hidden.into_iter().map(|p| remap_plan(p, &sm)).collect();
        let output = output.into_iter().map(|p| remap_plan(p, &sm)).collect();
        Some(FusedForward {
            prog: Arc::new(prog),
            hidden,
            output,
            h_stages,
            o_stages,
        })
    }

    /// The optimized fused instruction stream.
    pub fn program(&self) -> &Arc<FusedProgram> {
        &self.prog
    }

    /// Evaluates every row of `xs` bit-identically to the scalar
    /// [`Mlp::forward_faulty`], 64 samples per stream sweep.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the compiled topology's
    /// input count, or if `mlp`/`plan` do not match the compiled pair.
    pub fn forward(
        &self,
        mlp: &Mlp,
        xs: &[impl AsRef<[f64]>],
        lut: &SigmoidLut,
        plan: &mut FaultPlan,
    ) -> Vec<ForwardTrace> {
        let topo = mlp.topology();
        assert_eq!(self.hidden.len(), topo.hidden, "topology mismatch");
        assert_eq!(self.output.len(), topo.outputs, "topology mismatch");

        // Weights and biases stream through the attached memory once per
        // batch (pure on vectorizable plans), latch masks applied — the
        // fused stream sees them as uniform runtime inputs, so repairs
        // and training updates never recompile.
        let prep_h: Vec<RtPrep> = self
            .hidden
            .iter()
            .enumerate()
            .map(|(j, p)| {
                prep_neuron(p, plan, Layer::Hidden, topo.inputs, |i| {
                    Fx::from_f64(mlp.w_hidden(j, i))
                })
            })
            .collect();
        let prep_o: Vec<RtPrep> = self
            .output
            .iter()
            .enumerate()
            .map(|(k, p)| {
                prep_neuron(p, plan, Layer::Output, topo.hidden, |j| {
                    Fx::from_f64(mlp.w_output(k, j))
                })
            })
            .collect();

        let mut ex = FusedExec::new(Arc::clone(&self.prog));
        // Weight buses carry the same uniform word for the whole batch:
        // write them once, not per chunk.
        for (plans, prep) in [(&self.hidden, &prep_h), (&self.output, &prep_o)] {
            for (plan, rt) in plans.iter().zip(prep) {
                let (NeuronPlan::Gated(g), RtPrep::Gated { w_eff, .. }) = (plan, rt) else {
                    continue;
                };
                for mp in &g.muls {
                    ex.set_bus_uniform(&mp.w, w_eff[mp.syn].to_bits() as u64);
                }
            }
        }

        // Every layer value is held samples-contiguous: column `i` of a
        // chunk is `[i * stride..][..rows]`. Columns past a layer's
        // logical width stay zero, so synapses beyond it read zero like
        // the scalar path's; a masked hidden lane is a zero column. The
        // buffers serve every chunk of the call.
        let stride = xs.len().min(LANES);
        let mut x = vec![Fx::ZERO; self.h_stages.width * stride];
        let mut h_pre = vec![Fx::ZERO; topo.hidden * stride];
        let mut h = vec![Fx::ZERO; self.o_stages.width * stride];
        let mut o_pre = vec![Fx::ZERO; topo.outputs * stride];
        let mut o = vec![Fx::ZERO; topo.outputs * stride];
        let mut traces = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(LANES) {
            for (r, row) in chunk.iter().enumerate() {
                let row = row.as_ref();
                assert_eq!(row.len(), topo.inputs);
                for (i, &v) in row.iter().enumerate() {
                    x[i * stride + r] = Fx::from_f64(v);
                }
            }
            let n = chunk.len();
            let h_act = &mut h[..topo.hidden * stride];
            run_layer(
                &self.hidden,
                &self.h_stages,
                &prep_h,
                (&x, stride, n),
                lut,
                &mut ex,
                &mut h_pre,
                h_act,
            );
            run_layer(
                &self.output,
                &self.o_stages,
                &prep_o,
                (&h, stride, n),
                lut,
                &mut ex,
                &mut o_pre,
                &mut o,
            );
            let h_act = &h[..topo.hidden * stride];
            ForwardTrace::extend_from_columns(&mut traces, stride, n, h_act, &o_pre, &o);
        }
        traces
    }
}

/// Runs one layer over one chunk of `n ≤ 64` samples: gate stages
/// through the fused stream, native arithmetic between them, each native
/// multiply-accumulate one loop over the chunk's samples. `x` holds the
/// input columns and `pre`/`act` receive each neuron's pre-activation and
/// activation column (zero for a masked neuron), all at column `stride`.
#[allow(clippy::too_many_arguments)]
fn run_layer(
    plans: &[NeuronPlan],
    stages: &LayerStages,
    prep: &[RtPrep],
    (x, stride, n): (&[Fx], usize, usize),
    lut: &SigmoidLut,
    ex: &mut FusedExec,
    pre: &mut [Fx],
    act: &mut [Fx],
) {
    let col = move |i: usize| &x[i * stride..i * stride + n];
    let mut lanes = [0u64; LANES];
    let buf = &mut lanes[..n];

    // Multiplier stage inputs: samples lane-packed (weight buses are
    // batch-uniform, written once by `forward`).
    for plan in plans {
        let NeuronPlan::Gated(g) = plan else {
            continue;
        };
        for mp in g.muls.iter().filter(|mp| !mp.x_const) {
            pack_fx(buf, col(mp.syn));
            ex.set_bus_words(&mp.x, buf);
        }
    }
    ex.exec_stage(stages.mul);

    // Accumulation: native adds between fused adder runs; the native
    // stretch before run `r` starts where run `r - 1` ended.
    for (k, rt) in prep.iter().enumerate() {
        if let RtPrep::Gated { bias, .. } = rt {
            pre[k * stride..][..n].fill(*bias);
        }
    }
    for r in 0..stages.n_runs {
        for (k, (plan, rt)) in plans.iter().zip(prep).enumerate() {
            let (NeuronPlan::Gated(g), RtPrep::Gated { w_eff, .. }) = (plan, rt) else {
                continue;
            };
            let Some(run) = g.runs.get(r) else { continue };
            let accs = &mut pre[k * stride..][..n];
            let from = r.checked_sub(1).map_or(0, |p| g.runs[p].end);
            advance_native(g, w_eff, accs, from..run.start, col, ex);
            pack_fx(buf, accs);
            ex.set_bus_words(&run.a_in, buf);
            for rs in &run.syns {
                let Some(b) = rs.b.as_ref().filter(|_| !rs.b_const) else {
                    continue;
                };
                let w = w_eff[rs.syn];
                for (slot, &xv) in buf.iter_mut().zip(col(rs.syn)) {
                    *slot = (w * xv).to_bits() as u64;
                }
                ex.set_bus_words(b, buf);
            }
        }
        ex.exec_stage(stages.add0 + r);
        for (k, plan) in plans.iter().enumerate() {
            let NeuronPlan::Gated(g) = plan else { continue };
            let Some(run) = g.runs.get(r) else { continue };
            for (l, acc) in pre[k * stride..][..n].iter_mut().enumerate() {
                *acc = Fx::from_bits(ex.read_word_lane(&run.out, l) as u16);
            }
        }
    }

    // The native tails and native neurons, then the activation stage:
    // faulty units in-stream, healthy ones through the LUT.
    for (k, (plan, rt)) in plans.iter().zip(prep).enumerate() {
        let accs = &mut pre[k * stride..][..n];
        match (plan, rt) {
            (NeuronPlan::Gated(g), RtPrep::Gated { w_eff, .. }) => {
                let from = g.runs.last().map_or(0, |run| run.end);
                advance_native(g, w_eff, accs, from..g.n_eff, col, ex);
                if let Some(a) = &g.act {
                    pack_fx(buf, accs);
                    ex.set_bus_words(&a.x, buf);
                }
            }
            (NeuronPlan::Native { .. }, RtPrep::Native { bias, ws }) => {
                accs.fill(*bias);
                for (i, &w) in ws.iter().enumerate() {
                    mac(accs, w, col(i));
                }
            }
            _ => accs.fill(Fx::ZERO),
        }
    }
    ex.exec_stage(stages.act);
    for (k, plan) in plans.iter().enumerate() {
        let (accs, ys) = (&pre[k * stride..][..n], &mut act[k * stride..][..n]);
        match plan {
            NeuronPlan::Masked => ys.fill(Fx::ZERO),
            NeuronPlan::Gated(GatedNeuron { act: Some(a), .. }) => {
                for (l, y) in ys.iter_mut().enumerate() {
                    *y = Fx::from_bits(ex.read_word_lane(&a.out, l) as u16);
                }
            }
            _ => {
                for (y, &a) in ys.iter_mut().zip(accs) {
                    *y = lut.eval(a);
                }
            }
        }
    }
}

/// Lane-packs a column of values.
fn pack_fx(buf: &mut [u64], vals: &[Fx]) {
    for (slot, &v) in buf.iter_mut().zip(vals) {
        *slot = v.to_bits() as u64;
    }
}

/// One synapse over a chunk: `accs[r] += w * xs[r]`, saturating Q6.10.
#[inline]
fn mac(accs: &mut [Fx], w: Fx, xs: &[Fx]) {
    for (acc, &x) in accs.iter_mut().zip(xs) {
        *acc += w * x;
    }
}

/// Native multiply-accumulate over `syns`, one column loop per synapse:
/// products of unbound faulty multipliers are read back from the fused
/// register file, everything else is native Q6.10 arithmetic.
fn advance_native<'x>(
    g: &GatedNeuron,
    w_eff: &[Fx],
    accs: &mut [Fx],
    syns: Range<usize>,
    col: impl Fn(usize) -> &'x [Fx],
    ex: &FusedExec,
) {
    for i in syns {
        match g.mul_at[i] {
            Some(m) => {
                for (l, acc) in accs.iter_mut().enumerate() {
                    *acc += Fx::from_bits(ex.read_word_lane(&g.muls[m].out, l) as u16);
                }
            }
            None => mac(accs, w_eff[i], col(i)),
        }
    }
}

/// Per-call weight preparation (see [`RtPrep`]).
fn prep_neuron(
    plan_n: &NeuronPlan,
    plan: &mut FaultPlan,
    layer: Layer,
    n_logical: usize,
    weight_of: impl Fn(usize) -> Fx,
) -> RtPrep {
    match plan_n {
        NeuronPlan::Masked => RtPrep::Masked,
        NeuronPlan::Native { lane } => {
            let bias = plan.mem_bias(layer, *lane, weight_of(n_logical));
            let ws = (0..n_logical)
                .map(|i| plan.mem_weight(layer, *lane, i, weight_of(i)))
                .collect();
            RtPrep::Native { bias, ws }
        }
        NeuronPlan::Gated(g) => {
            let bias = plan.mem_bias(layer, g.lane, weight_of(n_logical));
            let nf = plan
                .neuron(layer, g.lane)
                .expect("gated neuron has a fault entry");
            let masks: Vec<(u16, u16)> = (0..g.n_eff).map(|i| nf.latch_masks(i)).collect();
            let w_eff = (0..g.n_eff)
                .map(|i| {
                    let base = if i < n_logical {
                        weight_of(i)
                    } else {
                        Fx::ZERO
                    };
                    let w = plan.mem_weight(layer, g.lane, i, base);
                    let (and, or) = masks[i];
                    Fx::from_bits((w.to_bits() & and) | or)
                })
                .collect();
            RtPrep::Gated { bias, w_eff }
        }
    }
}

fn bus_u32(bus: &[NodeId]) -> Vec<u32> {
    bus.iter().map(|n| n.index() as u32).collect()
}

fn zip_bind(local: &[u32], fused: &[u32]) -> impl Iterator<Item = (u32, u32)> {
    local
        .iter()
        .copied()
        .zip(fused.iter().copied())
        .collect::<Vec<_>>()
        .into_iter()
}

/// Appends one patched operator stream of circuit `net`, binding its
/// operand buses, and returns the local→fused slot map.
fn append_op(
    fb: &mut FuseBuilder,
    net: &Arc<Netlist>,
    instrs: &[LutInstr],
    binds: impl Iterator<Item = (u32, u32)>,
) -> Vec<u32> {
    let bind: Vec<(u32, u32)> = binds.collect();
    let prog = LutProgram::cached(net);
    fb.append(instrs, prog.n_slots(), &bind)
}

/// Groups the sorted faulty-adder synapses of one neuron into maximal
/// consecutive runs.
fn add_runs(adds: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &i in adds {
        match runs.last_mut() {
            Some((_, end)) if *end == i => *end = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

/// Compiles one layer's gate segments into the shared builder: one
/// multiplier stage, `max_runs` chained-adder stages, one activation
/// stage, with barriers between them. Returns `None` when a faulty
/// operator has no patched instruction stream (not fusable).
#[allow(clippy::too_many_arguments)]
fn compile_layer(
    plan: &FaultPlan,
    layer: Layer,
    lanes: &[usize],
    n_logical: usize,
    x_const_at: impl Fn(usize) -> bool,
    fb: &mut FuseBuilder,
    stage: &mut usize,
    roots: &mut Vec<u32>,
    known: &mut Vec<(u32, bool)>,
) -> Option<(Vec<NeuronPlan>, LayerStages)> {
    struct Skeleton<'a> {
        idx: usize,
        nf: &'a NeuronFaults,
        mul_syns: Vec<usize>,
        runs: Vec<(usize, usize)>,
    }
    let mut plans: Vec<NeuronPlan> = Vec::with_capacity(lanes.len());
    let mut skels: Vec<Skeleton> = Vec::new();
    for (idx, &lane) in lanes.iter().enumerate() {
        if plan.is_masked(layer, lane) {
            plans.push(NeuronPlan::Masked);
            continue;
        }
        let Some(nf) = plan.neuron(layer, lane) else {
            plans.push(NeuronPlan::Native { lane });
            continue;
        };
        let n_eff = n_logical.max(nf.max_synapse_excl());
        let mut mul_syns = Vec::new();
        let mut add_syns = Vec::new();
        for i in 0..n_eff {
            if nf.mul_at(i).is_some() {
                mul_syns.push(i);
            }
            if nf.add_at(i).is_some() {
                add_syns.push(i);
            }
        }
        plans.push(NeuronPlan::Gated(GatedNeuron {
            lane,
            n_eff,
            muls: Vec::new(),
            mul_at: vec![None; n_eff],
            runs: Vec::new(),
            act: None,
        }));
        skels.push(Skeleton {
            idx,
            nf,
            mul_syns,
            runs: add_runs(&add_syns),
        });
    }
    let max_runs = skels.iter().map(|s| s.runs.len()).max().unwrap_or(0);
    let width = plans.iter().fold(n_logical, |w, p| match p {
        NeuronPlan::Gated(g) => w.max(g.n_eff),
        _ => w,
    });

    // Stage 1: every faulty multiplier of the layer.
    let mul_stage = *stage;
    for sk in &skels {
        let NeuronPlan::Gated(g) = &mut plans[sk.idx] else {
            unreachable!()
        };
        for &syn in &sk.mul_syns {
            let hw = sk.nf.mul_at(syn).expect("skeleton lists faulty synapses");
            let instrs = hw.patched_instrs()?;
            let c = hw.circuit();
            let w = fb.fresh_bus(c.a_bus().len());
            let x = fb.fresh_bus(c.b_bus().len());
            let map = append_op(
                fb,
                c.netlist(),
                instrs,
                zip_bind(&bus_u32(c.a_bus()), &w).chain(zip_bind(&bus_u32(c.b_bus()), &x)),
            );
            let out: Vec<u32> = bus_u32(c.out_bus())
                .iter()
                .map(|&n| map[n as usize])
                .collect();
            let x_const = x_const_at(syn);
            if x_const {
                known.extend(x.iter().map(|&s| (s, false)));
            }
            if sk.nf.add_at(syn).is_none() {
                roots.extend(&out);
            }
            g.mul_at[syn] = Some(g.muls.len());
            g.muls.push(MulPort {
                syn,
                w,
                x,
                out,
                x_const,
            });
        }
    }

    // Stages 2..: chained faulty-adder runs, one stage per run depth so
    // the runner can accumulate natively between them.
    for r in 0..max_runs {
        fb.barrier();
        *stage += 1;
        for sk in &skels {
            let Some(&(start, end)) = sk.runs.get(r) else {
                continue;
            };
            let NeuronPlan::Gated(g) = &mut plans[sk.idx] else {
                unreachable!()
            };
            let mut syns = Vec::with_capacity(end - start);
            let mut a_in: Option<Vec<u32>> = None;
            let mut prev: Vec<u32> = Vec::new();
            for syn in start..end {
                let hw = sk.nf.add_at(syn).expect("run spans faulty adders");
                let instrs = hw.patched_instrs()?;
                let c = hw.circuit();
                let a = if prev.is_empty() {
                    let fresh = fb.fresh_bus(c.a_bus().len());
                    a_in = Some(fresh.clone());
                    fresh
                } else {
                    prev.clone()
                };
                let (b, b_bus, b_const) = match g.mul_at[syn] {
                    Some(m) => (g.muls[m].out.clone(), None, false),
                    None => {
                        let fresh = fb.fresh_bus(c.b_bus().len());
                        let b_const = x_const_at(syn);
                        if b_const {
                            known.extend(fresh.iter().map(|&s| (s, false)));
                        }
                        (fresh.clone(), Some(fresh), b_const)
                    }
                };
                let map = append_op(
                    fb,
                    c.netlist(),
                    instrs,
                    zip_bind(&bus_u32(c.a_bus()), &a).chain(zip_bind(&bus_u32(c.b_bus()), &b)),
                );
                prev = bus_u32(c.out_bus())
                    .iter()
                    .map(|&n| map[n as usize])
                    .collect();
                syns.push(RunSyn {
                    syn,
                    b: b_bus,
                    b_const,
                });
            }
            roots.extend(&prev);
            g.runs.push(AddRun {
                start,
                end,
                a_in: a_in.expect("run has at least one adder"),
                out: prev,
                syns,
            });
        }
    }

    // Final stage: faulty activation units.
    fb.barrier();
    *stage += 1;
    let act_stage = *stage;
    for sk in &skels {
        let Some(hw) = sk.nf.act_ref() else { continue };
        let instrs = hw.patched_instrs()?;
        let c = hw.circuit();
        let NeuronPlan::Gated(g) = &mut plans[sk.idx] else {
            unreachable!()
        };
        let x = fb.fresh_bus(c.x_bus().len());
        let map = append_op(fb, c.netlist(), instrs, zip_bind(&bus_u32(c.x_bus()), &x));
        let out: Vec<u32> = bus_u32(c.out_bus())
            .iter()
            .map(|&n| map[n as usize])
            .collect();
        roots.extend(&out);
        g.act = Some(ActPort { x, out });
    }

    Some((
        plans,
        LayerStages {
            mul: mul_stage,
            add0: mul_stage + 1,
            n_runs: max_runs,
            act: act_stage,
            width,
        },
    ))
}

/// Rewrites a compiled neuron's port buses through the optimizer's slot
/// map (dead input bits become [`dta_logic::DEAD_SLOT`], which the
/// executor's bus writers skip).
fn remap_plan(plan: NeuronPlan, sm: &SlotMap) -> NeuronPlan {
    let mut g = match plan {
        NeuronPlan::Gated(g) => g,
        other => return other,
    };
    for mp in &mut g.muls {
        mp.w = sm.remap(&mp.w);
        mp.x = sm.remap(&mp.x);
        mp.out = sm.remap(&mp.out);
    }
    for run in &mut g.runs {
        run.a_in = sm.remap(&run.a_in);
        run.out = sm.remap(&run.out);
        for rs in &mut run.syns {
            if let Some(b) = &mut rs.b {
                *b = sm.remap(b);
            }
        }
    }
    if let Some(act) = &mut g.act {
        act.x = sm.remap(&act.x);
        act.out = sm.remap(&act.out);
    }
    NeuronPlan::Gated(g)
}

/// Builds the memo fingerprint, or `None` when the plan is not fusable.
fn build_key(mlp: &Mlp, plan: &FaultPlan) -> Option<FuseKey> {
    if !plan.vectorizable() {
        return None;
    }
    let topo = mlp.topology();
    let layer_keys = |layer: Layer, lanes: &[usize], n_logical: usize| -> Option<Vec<KeyPlan>> {
        lanes
            .iter()
            .map(|&lane| {
                if plan.is_masked(layer, lane) {
                    return Some(KeyPlan::Masked);
                }
                let Some(nf) = plan.neuron(layer, lane) else {
                    return Some(KeyPlan::Native { lane });
                };
                neuron_key(nf, lane, n_logical).map(KeyPlan::Gated)
            })
            .collect()
    };
    let h_lanes: Vec<usize> = (0..topo.hidden).map(|j| plan.hidden_lane(j)).collect();
    let o_lanes: Vec<usize> = (0..topo.outputs).collect();
    Some(FuseKey {
        dims: (topo.inputs, topo.hidden, topo.outputs),
        hidden: layer_keys(Layer::Hidden, &h_lanes, topo.inputs)?,
        output: layer_keys(Layer::Output, &o_lanes, topo.hidden)?,
    })
}

fn neuron_key(nf: &NeuronFaults, lane: usize, n_logical: usize) -> Option<NeuronKey> {
    let n_eff = n_logical.max(nf.max_synapse_excl());
    let mut muls = Vec::new();
    let mut adds = Vec::new();
    let mut latches = Vec::new();
    for i in 0..n_eff {
        if let Some(hw) = nf.mul_at(i) {
            let net = Arc::as_ptr(hw.circuit().netlist()) as usize;
            muls.push((i, OpKey::new(net, hw.patched_instrs()?)));
        }
        if let Some(hw) = nf.add_at(i) {
            let net = Arc::as_ptr(hw.circuit().netlist()) as usize;
            adds.push((i, OpKey::new(net, hw.patched_instrs()?)));
        }
        let (and, or) = nf.latch_masks(i);
        if (and, or) != (0xFFFF, 0) {
            latches.push((i, and, or));
        }
    }
    let act = match nf.act_ref() {
        Some(hw) => {
            let net = Arc::as_ptr(hw.circuit().netlist()) as usize;
            Some(OpKey::new(net, hw.patched_instrs()?))
        }
        None => None,
    };
    Some(NeuronKey {
        lane,
        n_eff,
        muls,
        adds,
        act,
        latches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Topology;
    use dta_circuits::FaultModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rows(n: usize, width: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| {
                (0..width)
                    .map(|i| ((r * 7 + i * 3) % 17) as f64 / 8.5 - 1.0)
                    .collect()
            })
            .collect()
    }

    /// A plan dense enough to exercise chained adders, bound
    /// multiplier→adder pairs, latch masks and faulty activations, with
    /// physical synapses beyond the logical width.
    fn dense_plan(topo: Topology, n_faults: usize, seed: u64) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(topo.inputs + 2);
        for _ in 0..n_faults {
            plan.inject_random_hidden(topo.hidden, FaultModel::TransistorLevel, &mut rng);
        }
        plan.inject_output_adder(0, topo.hidden - 1, &mut rng);
        plan.inject_output_activation(1, &mut rng);
        plan
    }

    /// First seed whose random defects are all combinational (some
    /// transistor-level defects are stateful and refuse fusion).
    fn fusable_dense_plan(mlp: &Mlp, n_faults: usize) -> FaultPlan {
        let topo = mlp.topology();
        for seed in 0..64 {
            let plan = dense_plan(topo, n_faults, seed);
            if FusedForward::compile(mlp, &plan).is_some() {
                return plan;
            }
        }
        panic!("no fusable plan in 64 seeds");
    }

    #[test]
    fn fused_forward_is_bit_identical_to_scalar() {
        let topo = Topology::new(4, 3, 2);
        let mlp = Mlp::new(topo, 11);
        let lut = SigmoidLut::new();
        let mut plan = fusable_dense_plan(&mlp, 8);
        plan.mask(Layer::Hidden, 1);
        plan.remap_hidden(0, 2);

        let xs = rows(70, topo.inputs); // crosses the 64-lane chunk edge
        let want: Vec<ForwardTrace> = xs
            .iter()
            .map(|x| mlp.forward_faulty(x, &lut, &mut plan))
            .collect();

        let ff = FusedForward::cached(&mlp, &plan).expect("plan is fusable");
        assert!(!ff.program().is_empty(), "faults compiled into the stream");
        let got = ff.forward(&mlp, &xs, &lut, &mut plan);
        assert_eq!(got, want, "fused stream diverged from scalar reference");

        // The batch entry point routes through the same engine.
        let routed = mlp.forward_faulty_batch(&xs, &lut, &mut plan);
        assert_eq!(routed, want);
    }

    #[test]
    fn memoization_survives_weight_updates() {
        let topo = Topology::new(3, 2, 2);
        let mut mlp = Mlp::new(topo, 7);
        let plan = fusable_dense_plan(&mlp, 3);
        let a = FusedForward::cached(&mlp, &plan).expect("fusable");
        let (h0, _) = fused_cache_stats();
        let b = FusedForward::cached(&mlp, &plan).expect("fusable");
        assert!(Arc::ptr_eq(&a, &b), "same fingerprint, same program");
        let (h1, _) = fused_cache_stats();
        assert!(h1 > h0, "second lookup hits the memo");
        // Weights are runtime inputs: training updates never recompile.
        *mlp.w_hidden_mut(0, 0) += 0.25;
        let c = FusedForward::cached(&mlp, &plan).expect("fusable");
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn empty_plan_compiles_to_an_empty_stream() {
        let topo = Topology::new(4, 3, 2);
        let mlp = Mlp::new(topo, 3);
        let lut = SigmoidLut::new();
        let mut plan = FaultPlan::new(topo.inputs);
        let ff = FusedForward::cached(&mlp, &plan).expect("fusable");
        assert!(ff.program().is_empty(), "no faults, no gate segments");
        let xs = rows(9, topo.inputs);
        let got = ff.forward(&mlp, &xs, &lut, &mut plan);
        for (x, trace) in xs.iter().zip(&got) {
            assert_eq!(*trace, mlp.forward_fixed(x, &lut));
        }
    }

    #[test]
    fn fusable_iff_plan_vectorizable() {
        // Fusion accepts exactly the plans whose every faulty unit runs
        // lane-parallel, across all three operators, both fault models,
        // every lifetime class and 1-16 defects.
        use dta_circuits::Activation;
        let topo = Topology::new(3, 3, 2);
        let mlp = Mlp::new(topo, 5);
        let (mut accepted, mut refused) = (0, 0);
        for model in [FaultModel::TransistorLevel, FaultModel::GateLevel] {
            for activation in [
                Activation::Permanent,
                Activation::Transient {
                    per_eval_probability: 0.3,
                },
                Activation::Intermittent { period: 5, duty: 2 },
            ] {
                for n in 1..=16usize {
                    for seed in 0..2u64 {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed * 100 + n as u64);
                        let mut plan = FaultPlan::new(topo.inputs + 1);
                        for _ in 0..n {
                            plan.inject_random_hidden_with(
                                topo.hidden,
                                model,
                                activation,
                                &mut rng,
                            );
                        }
                        let fused = FusedForward::compile(&mlp, &plan).is_some();
                        assert_eq!(
                            fused,
                            plan.vectorizable(),
                            "{model} {activation} n={n} seed={seed}"
                        );
                        if fused {
                            accepted += 1;
                        } else {
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn stateful_plans_are_not_fusable() {
        use dta_circuits::Activation;
        let topo = Topology::new(3, 2, 2);
        let mlp = Mlp::new(topo, 1);
        let mut plan = FaultPlan::new(topo.inputs);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        plan.inject_random_hidden_with(
            topo.hidden,
            FaultModel::TransistorLevel,
            Activation::Intermittent { period: 3, duty: 1 },
            &mut rng,
        );
        assert!(!plan.vectorizable());
        assert!(FusedForward::cached(&mlp, &plan).is_none());
    }
}
