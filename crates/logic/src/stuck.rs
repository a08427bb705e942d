//! The classic gate-level stuck-at fault model.
//!
//! This is the abstract model the paper argues is *insufficient*: "the
//! actual behavior of logic blocks resulting from transistor-level defects
//! can often be more complex than stuck-at and delayed inputs of logic
//! gates". It is implemented here as the comparison baseline for the
//! Figure 5 experiment (gate-level vs. transistor-level injection).

use crate::gate::{GateBehavior, GateKind};
use crate::sim::MAX_ARITY;

/// Which port of the gate is stuck.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StuckPort {
    /// The gate output is stuck.
    Output,
    /// Input pin `k` is stuck.
    Input(usize),
}

/// A gate whose input or output is stuck at a constant logic value,
/// following Li et al.'s gate-level hardware fault model.
///
/// # Example
///
/// ```
/// use dta_logic::{GateKind, StuckAt, StuckPort};
/// use dta_logic::gate::GateBehavior;
///
/// // NAND2 with input 0 stuck at 1 behaves like an inverter of input 1.
/// let mut g = StuckAt::new(GateKind::Nand2, StuckPort::Input(0), true);
/// assert!(!g.eval(&[false, true]));
/// assert!(g.eval(&[false, false]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckAt {
    kind: GateKind,
    port: StuckPort,
    value: bool,
}

impl StuckAt {
    /// Creates a stuck-at fault on `port` of a gate of type `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `port` names an input pin beyond the gate's arity.
    pub fn new(kind: GateKind, port: StuckPort, value: bool) -> StuckAt {
        if let StuckPort::Input(k) = port {
            assert!(
                k < kind.arity(),
                "{kind:?} has {} inputs, pin {k} does not exist",
                kind.arity()
            );
        }
        StuckAt { kind, port, value }
    }

    /// The healthy cell type.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The stuck port.
    pub fn port(&self) -> StuckPort {
        self.port
    }

    /// The stuck value.
    pub fn value(&self) -> bool {
        self.value
    }

    /// Enumerates every stuck-at fault site of a cell: each input pin and
    /// the output, stuck at 0 and at 1.
    pub fn sites(kind: GateKind) -> Vec<(StuckPort, bool)> {
        let mut sites = Vec::with_capacity(2 * (kind.arity() + 1));
        for v in [false, true] {
            sites.push((StuckPort::Output, v));
            for k in 0..kind.arity() {
                sites.push((StuckPort::Input(k), v));
            }
        }
        sites
    }
}

impl GateBehavior for StuckAt {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        match self.port {
            StuckPort::Output => self.value,
            StuckPort::Input(k) => {
                let mut pins = [false; MAX_ARITY];
                pins[..inputs.len()].copy_from_slice(inputs);
                pins[k] = self.value;
                self.kind.eval(&pins[..inputs.len()])
            }
        }
    }
}

/// Several stuck-at faults accumulated on the *same* gate instance, for
/// multi-defect experiments where two random defects can land on one
/// cell.
///
/// Input faults are patched pin by pin; if any output fault is present,
/// the first one injected wins (a physically shorted output node settles
/// to one value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckSet {
    kind: GateKind,
    input_faults: Vec<(usize, bool)>,
    output_fault: Option<bool>,
}

impl StuckSet {
    /// Creates an empty fault set for a gate of type `kind`.
    pub fn new(kind: GateKind) -> StuckSet {
        StuckSet {
            kind,
            input_faults: Vec::new(),
            output_fault: None,
        }
    }

    /// Adds one stuck-at fault.
    ///
    /// # Panics
    ///
    /// Panics if `port` names an input pin beyond the gate's arity.
    pub fn add(&mut self, port: StuckPort, value: bool) {
        match port {
            StuckPort::Output => {
                if self.output_fault.is_none() {
                    self.output_fault = Some(value);
                }
            }
            StuckPort::Input(k) => {
                assert!(k < self.kind.arity(), "pin {k} out of range");
                self.input_faults.push((k, value));
            }
        }
    }

    /// Number of accumulated faults.
    pub fn len(&self) -> usize {
        self.input_faults.len() + usize::from(self.output_fault.is_some())
    }

    /// True if no fault was added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The healthy cell type.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The winning (first-injected) output fault, if any.
    pub fn output_fault(&self) -> Option<bool> {
        self.output_fault
    }

    /// Overwrites the stuck input pins in `pins`, in insertion order
    /// (a later fault on the same pin wins).
    pub fn patch_inputs(&self, pins: &mut [bool]) {
        for &(k, v) in &self.input_faults {
            pins[k] = v;
        }
    }

    /// Every accumulated fault: input faults in insertion order, then
    /// the winning output fault (if any).
    pub fn faults(&self) -> Vec<(StuckPort, bool)> {
        let mut v: Vec<(StuckPort, bool)> = self
            .input_faults
            .iter()
            .map(|&(k, val)| (StuckPort::Input(k), val))
            .collect();
        if let Some(val) = self.output_fault {
            v.push((StuckPort::Output, val));
        }
        v
    }
}

impl GateBehavior for StuckSet {
    fn eval(&mut self, inputs: &[bool]) -> bool {
        if let Some(v) = self.output_fault {
            return v;
        }
        let mut pins = [false; MAX_ARITY];
        pins[..inputs.len()].copy_from_slice(inputs);
        self.patch_inputs(&mut pins);
        self.kind.eval(&pins[..inputs.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_output_ignores_inputs() {
        let mut g = StuckAt::new(GateKind::Xor2, StuckPort::Output, true);
        for bits in 0u8..4 {
            assert!(g.eval(&[bits & 1 != 0, bits & 2 != 0]));
        }
    }

    #[test]
    fn stuck_input_patches_one_pin() {
        // AND2 with input 1 stuck at 0 is constant 0.
        let mut g = StuckAt::new(GateKind::And2, StuckPort::Input(1), false);
        for bits in 0u8..4 {
            assert!(!g.eval(&[bits & 1 != 0, bits & 2 != 0]));
        }
        // OR2 with input 0 stuck at 0 passes input 1 through.
        let mut g = StuckAt::new(GateKind::Or2, StuckPort::Input(0), false);
        assert!(!g.eval(&[true, false]));
        assert!(g.eval(&[true, true]));
    }

    #[test]
    fn site_enumeration_counts() {
        assert_eq!(StuckAt::sites(GateKind::Not).len(), 4); // (in, out) x (0,1)
        assert_eq!(StuckAt::sites(GateKind::Nand2).len(), 6);
        assert_eq!(StuckAt::sites(GateKind::Aoi22).len(), 10);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn bad_pin_rejected() {
        let _ = StuckAt::new(GateKind::Not, StuckPort::Input(1), true);
    }

    #[test]
    fn accessors() {
        let g = StuckAt::new(GateKind::Nor2, StuckPort::Input(0), true);
        assert_eq!(g.kind(), GateKind::Nor2);
        assert_eq!(g.port(), StuckPort::Input(0));
        assert!(g.value());
    }

    #[test]
    fn stuck_set_accumulates_input_faults() {
        let mut g = StuckSet::new(GateKind::Nand2);
        assert!(g.is_empty());
        g.add(StuckPort::Input(0), true);
        g.add(StuckPort::Input(1), true);
        assert_eq!(g.len(), 2);
        // Both inputs stuck at 1: NAND -> constant 0.
        for bits in 0u8..4 {
            assert!(!g.eval(&[bits & 1 != 0, bits & 2 != 0]));
        }
    }

    #[test]
    fn stuck_set_first_output_fault_wins() {
        let mut g = StuckSet::new(GateKind::Xor2);
        g.add(StuckPort::Output, true);
        g.add(StuckPort::Output, false); // ignored: first short wins
        assert_eq!(g.len(), 1);
        assert!(g.eval(&[false, false]));
    }
}
