//! The reference netlist evaluation engine.

use std::sync::Arc;

use crate::gate::{GateBehavior, GateKind};
use crate::netlist::{Netlist, Node, NodeId};

/// Largest cell arity in the standard-cell library (AOI22/OAI22).
pub(crate) const MAX_ARITY: usize = 4;

/// Evaluates a healthy cell reading its pins straight out of the value
/// array — the inner statement of [`Simulator::settle`]. Keeping the
/// reads here (instead of copying pins into a scratch buffer and calling
/// [`GateKind::eval`]) saves a copy and an arity assert per gate.
#[inline(always)]
fn eval_pins(kind: GateKind, values: &[bool], pins: &[u32]) -> bool {
    let v = |k: usize| values[pins[k] as usize];
    match kind {
        GateKind::Const(b) => b,
        GateKind::Buf => v(0),
        GateKind::Not => !v(0),
        GateKind::And2 => v(0) & v(1),
        GateKind::Or2 => v(0) | v(1),
        GateKind::Nand2 => !(v(0) & v(1)),
        GateKind::Nor2 => !(v(0) | v(1)),
        GateKind::Nand3 => !(v(0) & v(1) & v(2)),
        GateKind::Nor3 => !(v(0) | v(1) | v(2)),
        GateKind::Xor2 => v(0) ^ v(1),
        GateKind::Xnor2 => !(v(0) ^ v(1)),
        GateKind::Aoi22 => !((v(0) & v(1)) | (v(2) & v(3))),
        GateKind::Oai22 => !((v(0) | v(1)) & (v(2) | v(3))),
        GateKind::Mux2 => {
            if v(0) {
                v(2)
            } else {
                v(1)
            }
        }
    }
}

/// Evaluates a [`Netlist`]: settles its gates and applies per-gate
/// behavioral overrides (the fault-injection hook).
///
/// This is the reference oracle every fast path is tested against: each
/// [`Simulator::settle`] is one full sweep over the gate schedule, so
/// every gate — and every overridden gate's behavior — is evaluated
/// exactly once per settle.
///
/// Typical cycle:
///
/// 1. [`Simulator::set_input`] for each primary input;
/// 2. [`Simulator::settle`] to propagate through the combinational logic;
/// 3. read outputs with [`Simulator::value`] / [`Simulator::output`].
///
/// # Example
///
/// ```
/// use dta_logic::{GateKind, NetlistBuilder, Simulator};
/// let mut b = NetlistBuilder::new();
/// let a = b.input("a");
/// let q = b.gate(GateKind::Not, &[a]);
/// b.output("q", q);
/// let net = std::sync::Arc::new(b.build());
/// let mut sim = Simulator::new(net);
/// sim.set_input(a, false);
/// sim.settle();
/// assert!(sim.output("q").unwrap());
/// ```
#[derive(Debug)]
pub struct Simulator {
    net: Arc<Netlist>,
    values: Vec<bool>,
    /// Dense per-node override slots (indexed by node index): the settle
    /// loop runs once per gate per evaluation, so the lookup must be an
    /// array index, not a hash.
    overrides: Vec<Option<Box<dyn GateBehavior>>>,
    n_overrides: usize,
}

impl Simulator {
    /// Creates a simulator with all inputs low. The netlist is shared via
    /// [`Arc`], so several simulators (e.g. a healthy and a defective
    /// instance) can run the same circuit.
    pub fn new(net: Arc<Netlist>) -> Simulator {
        let values = vec![false; net.len()];
        let overrides = std::iter::repeat_with(|| None).take(values.len()).collect();
        Simulator {
            net,
            values,
            overrides,
            n_overrides: 0,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// Drives a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an input node.
    pub fn set_input(&mut self, id: NodeId, value: bool) {
        assert!(
            matches!(self.net.node(id), Node::Input { .. }),
            "{id} is not a primary input"
        );
        self.values[id.index()] = value;
    }

    /// Drives a bus of inputs from the low bits of `word`, LSB first.
    pub fn set_input_word(&mut self, bus: &[NodeId], word: u64) {
        for (i, &id) in bus.iter().enumerate() {
            self.set_input(id, (word >> i) & 1 == 1);
        }
    }

    /// Settles the combinational logic with one sweep over every gate in
    /// topological order. Overridden (faulty) gates evaluate through
    /// their behavior, once per settle, so stateful behaviors (memory
    /// effects, activation streams) advance exactly one step.
    pub fn settle(&mut self) {
        // Clone the Arc (cheap) so the netlist borrow does not conflict
        // with mutating values/overrides.
        let net = Arc::clone(&self.net);
        let (sched, pins) = net.schedule();
        let values = &mut self.values;
        if self.n_overrides == 0 {
            // Healthy fast path: no override slot checks at all.
            for g in sched {
                let p = &pins[g.in_start as usize..][..g.in_len as usize];
                values[g.out as usize] = eval_pins(g.kind, values, p);
            }
            return;
        }
        let overrides = &mut self.overrides;
        for g in sched {
            let p = &pins[g.in_start as usize..][..g.in_len as usize];
            let v = match overrides[g.out as usize].as_mut() {
                Some(behavior) => {
                    let mut buf = [false; MAX_ARITY];
                    for (k, &i) in p.iter().enumerate() {
                        buf[k] = values[i as usize];
                    }
                    behavior.eval(&buf[..p.len()])
                }
                None => eval_pins(g.kind, values, p),
            };
            values[g.out as usize] = v;
        }
    }

    /// Reads the settled value of any node.
    pub fn value(&self, id: NodeId) -> bool {
        self.values[id.index()]
    }

    /// Reads a named output, if it exists.
    pub fn output(&self, name: &str) -> Option<bool> {
        self.net.output(name).map(|id| self.value(id))
    }

    /// Packs a bus of node values into the low bits of a `u64`, LSB first.
    pub fn read_word(&self, bus: &[NodeId]) -> u64 {
        bus.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &id)| acc | (u64::from(self.value(id)) << i))
    }

    /// Replaces a gate's function with a behavioral model (fault
    /// injection). Returns the previous override, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gate node.
    pub fn override_gate(
        &mut self,
        id: NodeId,
        behavior: Box<dyn GateBehavior>,
    ) -> Option<Box<dyn GateBehavior>> {
        assert!(
            matches!(self.net.node(id), Node::Gate { .. }),
            "{id} is not a gate"
        );
        let prev = self.overrides[id.index()].replace(behavior);
        if prev.is_none() {
            self.n_overrides += 1;
        }
        prev
    }

    /// Removes a gate override, restoring the healthy cell function.
    pub fn clear_override(&mut self, id: NodeId) -> Option<Box<dyn GateBehavior>> {
        let prev = self.overrides[id.index()].take();
        if prev.is_some() {
            self.n_overrides -= 1;
        }
        prev
    }

    /// Number of gates currently overridden.
    pub fn override_count(&self) -> usize {
        self.n_overrides
    }

    /// Clears the internal state of every override (memory effects,
    /// delay pipelines). Node values are preserved.
    pub fn reset_state(&mut self) {
        for behavior in self.overrides.iter_mut().flatten() {
            behavior.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;

    fn full_adder() -> (std::sync::Arc<Netlist>, [NodeId; 3], [NodeId; 2]) {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("cin");
        let axb = b.gate(GateKind::Xor2, &[a, x]);
        let sum = b.gate(GateKind::Xor2, &[axb, cin]);
        let t1 = b.gate(GateKind::And2, &[axb, cin]);
        let t2 = b.gate(GateKind::And2, &[a, x]);
        let cout = b.gate(GateKind::Or2, &[t1, t2]);
        b.output("sum", sum);
        b.output("cout", cout);
        (std::sync::Arc::new(b.build()), [a, x, cin], [sum, cout])
    }

    #[test]
    fn full_adder_truth_table() {
        let (net, ins, outs) = full_adder();
        let mut sim = Simulator::new(net.clone());
        for bits in 0u8..8 {
            let (a, b_, c) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            sim.set_input(ins[0], a);
            sim.set_input(ins[1], b_);
            sim.set_input(ins[2], c);
            sim.settle();
            let total = u8::from(a) + u8::from(b_) + u8::from(c);
            assert_eq!(sim.value(outs[0]), total & 1 == 1, "sum at {bits:03b}");
            assert_eq!(sim.value(outs[1]), total >= 2, "cout at {bits:03b}");
        }
    }

    #[test]
    fn word_helpers_roundtrip() {
        let mut b = NetlistBuilder::new();
        let bus = b.input_bus("x", 8);
        let inverted: Vec<_> = bus.iter().map(|&n| b.gate(GateKind::Not, &[n])).collect();
        b.output_bus("y", &inverted);
        let net = std::sync::Arc::new(b.build());
        let mut sim = Simulator::new(net.clone());
        sim.set_input_word(&bus, 0b1010_0110);
        sim.settle();
        assert_eq!(sim.read_word(&bus), 0b1010_0110);
        assert_eq!(sim.read_word(&inverted) as u8, !0b1010_0110u8);
    }

    #[derive(Debug)]
    struct AlwaysHigh;
    impl GateBehavior for AlwaysHigh {
        fn eval(&mut self, _inputs: &[bool]) -> bool {
            true
        }
    }

    #[test]
    fn override_replaces_gate_function() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a]);
        b.output("y", g);
        let net = std::sync::Arc::new(b.build());
        let mut sim = Simulator::new(net.clone());
        sim.set_input(a, true);
        sim.settle();
        assert!(!sim.output("y").unwrap());

        sim.override_gate(g, Box::new(AlwaysHigh));
        assert_eq!(sim.override_count(), 1);
        sim.settle();
        assert!(sim.output("y").unwrap(), "faulty gate forces 1");

        sim.clear_override(g);
        sim.settle();
        assert!(!sim.output("y").unwrap(), "healthy again");
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_gate_panics() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a]);
        b.output("y", g);
        let net = std::sync::Arc::new(b.build());
        let mut sim = Simulator::new(net.clone());
        sim.set_input(g, true);
    }

    #[test]
    #[should_panic(expected = "not a gate")]
    fn overriding_input_panics() {
        let (net, ins, _) = full_adder();
        let mut sim = Simulator::new(net.clone());
        sim.override_gate(ins[0], Box::new(AlwaysHigh));
    }
}
