//! Evaluation of cells whose defects come and go: the dynamic
//! counterpart of [`CachedCell`](crate::CachedCell)/[`FaultyCell`].
//!
//! A dynamic cell owns a *base* schematic (healthy, or carrying
//! permanent defects) plus a list of [`DynamicDefect`]s, each paired
//! with an [`ActivationState`] that decides per evaluation whether the
//! defect is electrically present. Every evaluation first advances all
//! activation state machines, producing a bitmask over the dynamic
//! defects — the **currently-active defect subset** — and then
//! evaluates the cell that subset describes.
//!
//! [`DynamicCell`] keys compiled [`CellTable`]s by that mask: mask 0
//! (no dynamic defect active) takes a pre-stored fast path to the base
//! table, other masks hit a per-cell map backed by the process-wide
//! table memo. Stage memories and the previous-signal vector persist
//! *across* table swaps — the silicon keeps its charge when a transient
//! ends — which is exactly why [`FaultyCell`]'s delay lines sample on
//! every evaluation. When every subset of the dynamic defects yields a
//! purely combinational table, the walk is skipped entirely and
//! evaluation is a single truth-table lookup.
//!
//! [`DynamicRefCell`] is the uncached reference: it re-materializes the
//! active-subset schematic each evaluation and runs the switch-level
//! flood fill, carrying the same persistent state. The tests at the
//! bottom pin the two against each other exhaustively, per activation
//! class, over every library cell and defect site.

use std::collections::HashMap;
use std::sync::Arc;

use dta_logic::gate::GateBehavior;

use crate::cell::CmosCell;
use crate::defect::{Activation, ActivationState, Defect, DefectError};
use crate::eval::FaultyCell;
use crate::table::CellTable;

/// Cap on dynamic defects per cell: masks are `u32` bit positions and
/// campaigns inject at most a handful per cell.
const MAX_DYNAMIC: usize = 16;

/// One dynamically activated defect: an injection site plus the state
/// machine deciding when it is present.
#[derive(Clone, Debug)]
pub struct DynamicDefect {
    defect: Defect,
    state: ActivationState,
}

impl DynamicDefect {
    /// Pairs a defect site with a lifetime; `seed` feeds the transient
    /// Bernoulli stream (ignored by the other classes but kept so the
    /// pairing is deterministic data).
    pub fn new(defect: Defect, activation: Activation, seed: u64) -> DynamicDefect {
        DynamicDefect {
            defect,
            state: ActivationState::new(activation, seed),
        }
    }

    /// The injection site.
    pub fn defect(&self) -> Defect {
        self.defect
    }

    /// The lifetime class.
    pub fn activation(&self) -> Activation {
        self.state.activation()
    }
}

/// Advances every activation state machine one evaluation and packs the
/// active defects into a subset mask (bit `i` = defect `i` active).
fn advance_mask(dynamic: &mut [DynamicDefect]) -> u32 {
    let mut mask = 0u32;
    for (i, d) in dynamic.iter_mut().enumerate() {
        if d.state.advance() {
            mask |= 1 << i;
        }
    }
    mask
}

/// The schematic for one active subset: base plus the masked-in dynamic
/// defects, injected in list order (later writes win on a shared site,
/// matching repeated static injection).
fn materialize(base: &CmosCell, dynamic: &[DynamicDefect], mask: u32) -> CmosCell {
    let mut cell = base.clone();
    for (i, d) in dynamic.iter().enumerate() {
        if mask >> i & 1 == 1 {
            cell.inject(d.defect)
                .expect("dynamic defect sites are validated at construction");
        }
    }
    cell
}

/// Validates that every dynamic defect references a real site of `base`
/// (so later per-mask materialization cannot fail).
fn validate(base: &CmosCell, dynamic: &[DynamicDefect]) -> Result<(), DefectError> {
    assert!(
        dynamic.len() <= MAX_DYNAMIC,
        "at most {MAX_DYNAMIC} dynamic defects per cell, got {}",
        dynamic.len()
    );
    let mut probe = base.clone();
    for d in dynamic {
        probe.inject(d.defect)?;
    }
    Ok(())
}

/// Table-backed evaluator for a cell with dynamically activated
/// defects. Compiled tables are keyed by the currently-active defect
/// subset, with a pre-resolved fast path for the all-inactive mask;
/// evaluation state (stage memories + previous signal vector) persists
/// across subset changes. Bit-identical to [`DynamicRefCell`] on every
/// stimulus sequence.
#[derive(Clone, Debug)]
pub struct DynamicCell {
    base: CmosCell,
    dynamic: Vec<DynamicDefect>,
    /// Mask-0 table (base cell, no dynamic defect active).
    base_table: Arc<CellTable>,
    /// Lazily resolved tables for the other masks, backed by the
    /// process-wide [`CellTable::cached`] memo.
    tables: HashMap<u32, Arc<CellTable>>,
    /// True iff *every* subset of the dynamic defects compiles to a
    /// purely combinational table, so state upkeep can be skipped and
    /// each evaluation is one truth-table lookup. Only established when
    /// the subset space is small enough to enumerate upfront.
    stateless: bool,
    /// Per-stage retained value, as in [`crate::CachedCell`].
    mem: Vec<bool>,
    /// Previous evaluation's packed signal vector.
    prev: u32,
}

impl DynamicCell {
    /// Builds the evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`DefectError`] if any dynamic defect references a
    /// stage, transistor or net node that does not exist in `base`.
    ///
    /// # Panics
    ///
    /// Panics if more than 16 dynamic defects are supplied.
    pub fn new(base: CmosCell, dynamic: Vec<DynamicDefect>) -> Result<DynamicCell, DefectError> {
        validate(&base, &dynamic)?;
        let base_table = CellTable::cached(&base);
        let mut tables = HashMap::new();
        // Small subset spaces are enumerated upfront; if every table
        // turns out combinational, evaluation never touches state.
        let stateless = if dynamic.len() <= 6 {
            let mut all_comb = base_table.is_combinational();
            for mask in 1..1u32 << dynamic.len() {
                let t = CellTable::cached(&materialize(&base, &dynamic, mask));
                all_comb &= t.is_combinational();
                tables.insert(mask, t);
            }
            all_comb
        } else {
            false
        };
        let mem = vec![false; base_table.n_stages()];
        Ok(DynamicCell {
            base,
            dynamic,
            base_table,
            tables,
            stateless,
            mem,
            prev: 0,
        })
    }

    /// The base schematic (permanent defects only).
    pub fn base(&self) -> &CmosCell {
        &self.base
    }

    /// The dynamic defects, in mask-bit order.
    pub fn dynamic(&self) -> &[DynamicDefect] {
        &self.dynamic
    }

    /// Evaluates one input vector: advances every activation state
    /// machine, resolves the active-subset table, and evaluates through
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell's pin count.
    pub fn eval_cell(&mut self, inputs: &[bool]) -> bool {
        let arity = self.base.kind().arity();
        assert_eq!(
            inputs.len(),
            arity,
            "{} expects {} inputs, got {}",
            self.base.kind(),
            arity,
            inputs.len()
        );
        let mask = advance_mask(&mut self.dynamic);
        let table = if mask == 0 {
            &self.base_table
        } else {
            let (base, dynamic) = (&self.base, &self.dynamic);
            self.tables
                .entry(mask)
                .or_insert_with(|| CellTable::cached(&materialize(base, dynamic, mask)))
        };
        let mut cur = 0u32;
        for (k, &b) in inputs.iter().enumerate() {
            cur |= u32::from(b) << k;
        }
        if self.stateless {
            // Every subset is combinational: no reachable float, no
            // delay line, so the retained state can never be read.
            let t = table
                .pin_truth()
                .expect("stateless implies every subset table collapsed");
            return t >> cur & 1 == 1;
        }
        table.walk(cur, &mut self.mem, &mut self.prev)
    }
}

impl GateBehavior for DynamicCell {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        self.eval_cell(inputs)
    }

    fn reset(&mut self) {
        self.mem.fill(false);
        self.prev = 0;
        for d in &mut self.dynamic {
            d.state.reset();
        }
    }
}

/// Uncached switch-level reference for dynamic activation: every
/// evaluation re-materializes the active-subset schematic and runs the
/// flood-fill evaluator, carrying stage memories and delay lines across
/// subset changes. Slow; exists to pin [`DynamicCell`] down in tests
/// and as the ground-truth semantics.
#[derive(Clone, Debug)]
pub struct DynamicRefCell {
    base: CmosCell,
    dynamic: Vec<DynamicDefect>,
    stage_mem: Vec<bool>,
    delay_prev: Vec<Vec<bool>>,
}

impl DynamicRefCell {
    /// Builds the reference evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`DefectError`] if any dynamic defect references a
    /// stage, transistor or net node that does not exist in `base`.
    pub fn new(base: CmosCell, dynamic: Vec<DynamicDefect>) -> Result<DynamicRefCell, DefectError> {
        validate(&base, &dynamic)?;
        let stage_mem = vec![false; base.stages().len()];
        let delay_prev = base
            .stages()
            .iter()
            .map(|s| vec![false; s.transistors().len()])
            .collect();
        Ok(DynamicRefCell {
            base,
            dynamic,
            stage_mem,
            delay_prev,
        })
    }

    /// Evaluates one input vector through a freshly materialized
    /// switch-level cell for the currently-active defect subset.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell's pin count.
    pub fn eval_cell(&mut self, inputs: &[bool]) -> bool {
        let mask = advance_mask(&mut self.dynamic);
        let mut cell = FaultyCell::new(materialize(&self.base, &self.dynamic, mask));
        cell.set_state(
            std::mem::take(&mut self.stage_mem),
            std::mem::take(&mut self.delay_prev),
        );
        let out = cell.eval_cell(inputs);
        let (mem, delays) = cell.take_state();
        self.stage_mem = mem;
        self.delay_prev = delays;
        out
    }
}

impl GateBehavior for DynamicRefCell {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        self.eval_cell(inputs)
    }

    fn reset(&mut self) {
        self.stage_mem.fill(false);
        for v in &mut self.delay_prev {
            v.fill(false);
        }
        for d in &mut self.dynamic {
            d.state.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CachedCell;
    use dta_logic::GateKind;

    /// Deterministic stimulus source, same family as the table tests.
    struct Lcg(u64);

    impl Lcg {
        fn next_inputs(&mut self, arity: usize) -> Vec<bool> {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (0..arity).map(|k| self.0 >> (33 + k) & 1 == 1).collect()
        }
    }

    /// Drives the cached and uncached dynamic evaluators through the
    /// same stimulus sequence (with a mid-sequence power cycle) and
    /// requires bit-identical outputs. Both sides build their own
    /// `ActivationState`s from the same `(activation, seed)` pairs, so
    /// they see the same activation sequence by construction.
    fn assert_dynamic_matches_reference(
        base: &CmosCell,
        dynamic: &[(Defect, Activation, u64)],
        label: &str,
    ) {
        let build = |items: &[(Defect, Activation, u64)]| -> Vec<DynamicDefect> {
            items
                .iter()
                .map(|&(d, a, s)| DynamicDefect::new(d, a, s))
                .collect()
        };
        let mut fast = DynamicCell::new(base.clone(), build(dynamic)).unwrap();
        let mut slow = DynamicRefCell::new(base.clone(), build(dynamic)).unwrap();
        let mut lcg = Lcg(0xD1A ^ label.len() as u64);
        for step in 0..300 {
            if step == 150 {
                fast.reset();
                slow.reset();
            }
            let v = lcg.next_inputs(base.kind().arity());
            assert_eq!(
                fast.eval_cell(&v),
                slow.eval_cell(&v),
                "{label}: diverged at step {step} on {v:?}"
            );
        }
    }

    fn for_every_site(activation: impl Fn(u64) -> Activation, class: &str) {
        for kind in GateKind::ALL {
            let base = CmosCell::for_gate(kind);
            for (i, defect) in base.defect_sites().into_iter().enumerate() {
                let act = activation(i as u64);
                assert_dynamic_matches_reference(
                    &base,
                    &[(defect, act, 0xACE0 + i as u64)],
                    &format!("{class} {kind} + {defect}"),
                );
            }
        }
    }

    #[test]
    fn permanent_class_matches_reference_exhaustively() {
        for_every_site(|_| Activation::Permanent, "permanent");
    }

    #[test]
    fn transient_class_matches_reference_exhaustively() {
        // Sweep the probability across sites so both rare and frequent
        // activation patterns are exercised.
        for_every_site(
            |i| Activation::Transient {
                per_eval_probability: [0.05, 0.5, 0.95][i as usize % 3],
            },
            "transient",
        );
    }

    #[test]
    fn intermittent_class_matches_reference_exhaustively() {
        for_every_site(
            |i| Activation::Intermittent {
                period: 2 + (i % 5) as u32,
                duty: 1 + (i % 2) as u32,
            },
            "intermittent",
        );
    }

    #[test]
    fn mixed_multi_defect_cells_match_reference() {
        // Several dynamic defects of different classes in one cell,
        // including shared-site conflicts resolved by injection order.
        for kind in [GateKind::Nand2, GateKind::Xor2, GateKind::Oai22] {
            let base = CmosCell::for_gate(kind);
            let sites = base.defect_sites();
            let picks: Vec<(Defect, Activation, u64)> = sites
                .iter()
                .step_by(sites.len() / 3)
                .take(3)
                .enumerate()
                .map(|(i, &d)| {
                    let act = match i {
                        0 => Activation::Permanent,
                        1 => Activation::Transient {
                            per_eval_probability: 0.3,
                        },
                        _ => Activation::Intermittent { period: 4, duty: 2 },
                    };
                    (d, act, 77 + i as u64)
                })
                .collect();
            assert_dynamic_matches_reference(&base, &picks, &format!("mixed {kind}"));
        }
    }

    #[test]
    fn dynamic_on_top_of_permanent_base_matches_reference() {
        // A base cell that already carries a permanent defect, plus a
        // transient one: the mask-0 fast path goes to the *faulty* base
        // table, not the healthy cell.
        let mut base = CmosCell::for_gate(GateKind::Oai22);
        base.inject(Defect::Open {
            stage: 0,
            transistor: 4,
        })
        .unwrap();
        let transient = (
            Defect::Short {
                stage: 0,
                transistor: 1,
            },
            Activation::Transient {
                per_eval_probability: 0.4,
            },
            9,
        );
        assert_dynamic_matches_reference(&base, &[transient], "permanent base + transient");
    }

    #[test]
    fn always_on_transient_equals_static_injection() {
        // p = 1 makes the dynamic path equivalent to static injection;
        // p = 0 makes it equivalent to the untouched base.
        for kind in [GateKind::Not, GateKind::Nand2, GateKind::Xor2] {
            let base = CmosCell::for_gate(kind);
            for defect in base.defect_sites() {
                let mut injected = base.clone();
                injected.inject(defect).unwrap();
                let mut always = DynamicCell::new(
                    base.clone(),
                    vec![DynamicDefect::new(
                        defect,
                        Activation::Transient {
                            per_eval_probability: 1.0,
                        },
                        3,
                    )],
                )
                .unwrap();
                let mut as_static = CachedCell::new(&injected);
                let mut never = DynamicCell::new(
                    base.clone(),
                    vec![DynamicDefect::new(
                        defect,
                        Activation::Transient {
                            per_eval_probability: 0.0,
                        },
                        3,
                    )],
                )
                .unwrap();
                let mut healthy = CachedCell::new(&base);
                let mut lcg = Lcg(0xF00D);
                for _ in 0..120 {
                    let v = lcg.next_inputs(kind.arity());
                    assert_eq!(
                        always.eval_cell(&v),
                        as_static.eval_cell(&v),
                        "{kind} + {defect}: p=1 must equal static injection"
                    );
                    assert_eq!(
                        never.eval_cell(&v),
                        healthy.eval_cell(&v),
                        "{kind} + {defect}: p=0 must equal the base cell"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_replays_identical_sequence() {
        let base = CmosCell::for_gate(GateKind::Xor2);
        let defect = base.defect_sites()[7];
        let mut cell = DynamicCell::new(
            base.clone(),
            vec![DynamicDefect::new(
                defect,
                Activation::Transient {
                    per_eval_probability: 0.5,
                },
                11,
            )],
        )
        .unwrap();
        let stim: Vec<Vec<bool>> = {
            let mut lcg = Lcg(5);
            (0..200).map(|_| lcg.next_inputs(2)).collect()
        };
        let first: Vec<bool> = stim.iter().map(|v| cell.eval_cell(v)).collect();
        cell.reset();
        let second: Vec<bool> = stim.iter().map(|v| cell.eval_cell(v)).collect();
        assert_eq!(first, second, "reset must replay the activation stream");
    }

    #[test]
    fn out_of_range_dynamic_site_is_rejected() {
        let base = CmosCell::for_gate(GateKind::Not);
        let bogus = DynamicDefect::new(
            Defect::Open {
                stage: 7,
                transistor: 0,
            },
            Activation::Permanent,
            0,
        );
        assert!(DynamicCell::new(base.clone(), vec![bogus.clone()]).is_err());
        assert!(DynamicRefCell::new(base, vec![bogus]).is_err());
    }
}
