//! Immutable netlist structure and its builder.

use std::collections::HashMap;
use std::fmt;

use crate::gate::GateKind;

/// Handle to a node (input or gate) inside a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index of this node in the netlist's node-storage order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A netlist node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Primary input, driven by [`crate::Simulator::set_input`].
    Input {
        /// Port name.
        name: String,
    },
    /// Combinational cell instance.
    Gate {
        /// Cell type.
        kind: GateKind,
        /// Driver of each input pin, in pin order.
        inputs: Vec<NodeId>,
    },
}

/// Error raised when a netlist fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a node id that does not exist.
    DanglingReference {
        /// The offending gate.
        gate: NodeId,
        /// The missing driver.
        missing: NodeId,
    },
    /// A gate has the wrong number of input pins.
    ArityMismatch {
        /// The offending gate.
        gate: NodeId,
        /// Its cell type.
        kind: GateKind,
        /// Number of connections provided.
        got: usize,
    },
    /// The gates form a cycle.
    CombinationalCycle {
        /// A node on the cycle.
        on: NodeId,
    },
    /// Two outputs were declared with the same name.
    DuplicateOutput {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingReference { gate, missing } => {
                write!(f, "gate {gate} references missing node {missing}")
            }
            NetlistError::ArityMismatch { gate, kind, got } => write!(
                f,
                "gate {gate} of kind {kind} expects {} inputs, got {got}",
                kind.arity()
            ),
            NetlistError::CombinationalCycle { on } => {
                write!(f, "combinational cycle through node {on}")
            }
            NetlistError::DuplicateOutput { name } => {
                write!(f, "output `{name}` declared twice")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// One gate in the compiled evaluation schedule: the cell type, the
/// output slot, and a window into the flat pin array. Everything the
/// settle loop needs sits in 12 contiguous bytes, so a sweep touches no
/// `Node` enums and chases no per-gate `Vec`s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SchedGate {
    /// Cell type.
    pub(crate) kind: GateKind,
    /// Output slot (= the gate's node index).
    pub(crate) out: u32,
    /// First pin in the netlist's flat pin array.
    pub(crate) in_start: u32,
    /// Number of pins (= the cell arity, at most 4).
    pub(crate) in_len: u8,
}

/// An immutable, validated gate-level netlist.
///
/// Construct with [`NetlistBuilder`]. Combinational nodes are stored in a
/// topological order so a single forward sweep settles the circuit.
#[derive(Clone, Debug)]
pub struct Netlist {
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) order: Vec<NodeId>,
    /// Gates of `order`, compiled to a flat schedule at build time.
    sched: Vec<SchedGate>,
    /// Flat pin (driver-index) array referenced by `sched`.
    sched_pins: Vec<u32>,
    input_index: HashMap<String, NodeId>,
    output_index: HashMap<String, NodeId>,
}

impl Netlist {
    /// Number of nodes of any kind.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node structure behind an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Named outputs, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Looks up a primary input by name.
    pub fn input(&self, name: &str) -> Option<NodeId> {
        self.input_index.get(name).copied()
    }

    /// Looks up an output by name.
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.output_index.get(name).copied()
    }

    /// Iterates over gate instances as `(id, kind)`.
    pub fn gates(&self) -> impl Iterator<Item = (NodeId, GateKind)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            Node::Gate { kind, .. } => Some((NodeId(i as u32), *kind)),
            _ => None,
        })
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates().count()
    }

    /// Total CMOS transistor count of the gates.
    pub fn transistor_count(&self) -> u64 {
        self.gates().map(|(_, k)| k.transistor_count() as u64).sum()
    }

    /// The compiled gate schedule and its flat pin array, for the
    /// simulator's settle sweep and the LUT compiler.
    pub(crate) fn schedule(&self) -> (&[SchedGate], &[u32]) {
        (&self.sched, &self.sched_pins)
    }

    /// Length (in gates) of the longest combinational path — the
    /// critical-path depth used by the latency model. Inputs and
    /// constants contribute depth 0.
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for &id in &self.order {
            if let Node::Gate { kind, inputs } = self.node(id) {
                if matches!(kind, GateKind::Const(_)) {
                    continue;
                }
                let d = 1 + inputs.iter().map(|i| depth[i.index()]).max().unwrap_or(0);
                depth[id.index()] = d;
                max = max.max(d);
            }
        }
        max
    }
}

/// Incremental builder for [`Netlist`].
///
/// # Example
///
/// ```
/// use dta_logic::{GateKind, NetlistBuilder};
/// let mut b = NetlistBuilder::new();
/// let x = b.input("x");
/// let y = b.gate(GateKind::Not, &[x]);
/// b.output("y", y);
/// let net = b.build();
/// assert_eq!(net.gate_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetlistBuilder {
        NetlistBuilder::default()
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(Node::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Declares a bus of primary inputs named `name[0]..name[width-1]`,
    /// LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NodeId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Instantiates a gate.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NodeId]) -> NodeId {
        self.push(Node::Gate {
            kind,
            inputs: inputs.to_vec(),
        })
    }

    /// Instantiates a constant driver.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.gate(GateKind::Const(value), &[])
    }

    /// Names an output.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Names a bus of outputs `name[0]..`, LSB first.
    pub fn output_bus(&mut self, name: &str, nodes: &[NodeId]) {
        for (i, &n) in nodes.iter().enumerate() {
            self.output(format!("{name}[{i}]"), n);
        }
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if a gate references a missing node or
    /// has the wrong arity, if the gates form a cycle, or if an
    /// output name is duplicated.
    pub fn try_build(self) -> Result<Netlist, NetlistError> {
        let n = self.nodes.len();
        // Validate references and arities.
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            match node {
                Node::Gate { kind, inputs } => {
                    if inputs.len() != kind.arity() {
                        return Err(NetlistError::ArityMismatch {
                            gate: id,
                            kind: *kind,
                            got: inputs.len(),
                        });
                    }
                    for &inp in inputs {
                        if inp.index() >= n {
                            return Err(NetlistError::DanglingReference {
                                gate: id,
                                missing: inp,
                            });
                        }
                    }
                }
                Node::Input { .. } => {}
            }
        }

        // Kahn topological sort over the gate edges.
        let mut indegree = vec![0usize; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Gate { inputs, .. } = node {
                indegree[i] = inputs.len();
                for &inp in inputs {
                    fanout[inp.index()].push(i as u32);
                }
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(NodeId(v));
            for &w in &fanout[v as usize] {
                indegree[w as usize] -= 1;
                if indegree[w as usize] == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() != n {
            let on = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| NodeId(i as u32))
                .expect("cycle implies a node with nonzero indegree");
            return Err(NetlistError::CombinationalCycle { on });
        }

        // Compile the gate schedule: the gates of `order`, with their
        // pins flattened into one contiguous array.
        let mut sched = Vec::new();
        let mut sched_pins = Vec::new();
        for &id in &order {
            if let Node::Gate { kind, inputs } = &self.nodes[id.index()] {
                let in_start = sched_pins.len() as u32;
                sched_pins.extend(inputs.iter().map(|n| n.0));
                sched.push(SchedGate {
                    kind: *kind,
                    out: id.0,
                    in_start,
                    in_len: inputs.len() as u8,
                });
            }
        }

        let mut input_index = HashMap::new();
        for &id in &self.inputs {
            if let Node::Input { name } = &self.nodes[id.index()] {
                input_index.insert(name.clone(), id);
            }
        }
        let mut output_index = HashMap::new();
        for (name, id) in &self.outputs {
            if output_index.insert(name.clone(), *id).is_some() {
                return Err(NetlistError::DuplicateOutput { name: name.clone() });
            }
        }

        Ok(Netlist {
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
            order,
            sched,
            sched_pins,
            input_index,
            output_index,
        })
    }

    /// Validates and freezes the netlist.
    ///
    /// # Panics
    ///
    /// Panics on any validation error; use [`NetlistBuilder::try_build`]
    /// to handle errors.
    pub fn build(self) -> Netlist {
        match self.try_build() {
            Ok(net) => net,
            Err(e) => panic!("invalid netlist: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let c = b.gate(GateKind::Not, &[a]);
        b.output("c", c);
        let net = b.build();
        assert_eq!(net.input("a"), Some(a));
        assert_eq!(net.output("c"), Some(c));
        assert_eq!(net.input("zz"), None);
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.gate_count(), 1);
    }

    #[test]
    fn buses_are_lsb_first() {
        let mut b = NetlistBuilder::new();
        let bus = b.input_bus("x", 4);
        b.output_bus("y", &bus);
        let net = b.build();
        assert_eq!(net.input("x[0]"), Some(bus[0]));
        assert_eq!(net.input("x[3]"), Some(bus[3]));
        assert_eq!(net.output("y[2]"), Some(bus[2]));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        b.gate(GateKind::Nand2, &[a]);
        assert!(matches!(
            b.try_build(),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        // g references itself through a forward id: build g with a then
        // rewire is impossible via the API, so create mutual gates by
        // referencing an id that will exist later.
        let g1 = NodeId(2); // will be g2's id... actually reference forward
        let g2 = b.gate(GateKind::And2, &[a, g1]);
        let _g1_real = b.gate(GateKind::Not, &[g2]);
        assert!(matches!(
            b.try_build(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dangling_reference_detected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        b.gate(GateKind::And2, &[a, NodeId(99)]);
        assert!(matches!(
            b.try_build(),
            Err(NetlistError::DanglingReference { .. })
        ));
    }

    #[test]
    fn duplicate_output_detected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        b.output("y", a);
        b.output("y", a);
        assert!(matches!(
            b.try_build(),
            Err(NetlistError::DuplicateOutput { .. })
        ));
    }

    #[test]
    fn transistor_count_sums_cells() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.gate(GateKind::Not, &[a]); // 2
        b.gate(GateKind::Nand2, &[a, x]); // 4
        let net = b.build();
        assert_eq!(net.transistor_count(), 6);
    }

    #[test]
    fn error_display_nonempty() {
        let e = NetlistError::CombinationalCycle { on: NodeId(3) };
        assert!(e.to_string().contains("n3"));
    }

    #[test]
    fn logic_depth_counts_longest_path() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let g1 = b.gate(GateKind::And2, &[a, x]); // depth 1
        let g2 = b.gate(GateKind::Not, &[g1]); // depth 2
        let g3 = b.gate(GateKind::Or2, &[g2, a]); // depth 3
        let _side = b.gate(GateKind::Not, &[a]); // depth 1
        b.output("y", g3);
        let net = b.build();
        assert_eq!(net.logic_depth(), 3);
    }

    #[test]
    fn logic_depth_zero_for_wires_only() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        b.output("y", a);
        assert_eq!(b.build().logic_depth(), 0);
    }
}
