//! The dependence graph consumed by the schedulers.
//!
//! `flexcl-sched` is independent of the IR: the performance model translates
//! IR instructions into [`SchedNode`]s with an FPGA latency and a resource
//! class, and dependence edges carrying a `distance` (0 = same work-item,
//! k = the consumer runs k work-items later — the inter-work-item
//! recurrences that constrain `RecMII`).

use std::fmt;

/// Identifies a node in a [`SchedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hardware resource a node occupies at its issue cycle.
///
/// IP cores on the FPGA are fully pipelined, so a node holds its resource
/// for exactly one cycle; contention therefore constrains the *initiation*
/// rate, which is how `ResMII` arises (§3.3.1, Eq. 3–4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// A read port of the CU's local memory.
    LocalRead,
    /// A write port of the CU's local memory.
    LocalWrite,
    /// A DSP slice (multipliers, floating-point cores).
    Dsp,
    /// An outstanding-request slot of the global-memory interface.
    GlobalPort,
    /// LUT fabric — effectively unconstrained.
    Fabric,
}

/// Number of [`ResourceClass`] variants (for dense per-class tables).
pub(crate) const NUM_RESOURCE_CLASSES: usize = 5;

impl ResourceClass {
    /// Dense index of the variant, for per-class counter arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            ResourceClass::LocalRead => 0,
            ResourceClass::LocalWrite => 1,
            ResourceClass::Dsp => 2,
            ResourceClass::GlobalPort => 3,
            ResourceClass::Fabric => 4,
        }
    }
}

/// How many units of each resource a PE may use per cycle.
///
/// `Hash` lets evaluation layers memoize schedules per distinct budget —
/// many optimization configurations collapse to the same budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceBudget {
    /// Local memory read ports (banks × ports per bank).
    pub local_read_ports: u32,
    /// Local memory write ports.
    pub local_write_ports: u32,
    /// DSP slices available to the PE.
    pub dsps: u32,
    /// Concurrent global-memory interface slots.
    pub global_ports: u32,
}

impl ResourceBudget {
    /// A generous default (used in tests).
    pub fn unconstrained() -> Self {
        ResourceBudget {
            local_read_ports: u32::MAX,
            local_write_ports: u32::MAX,
            dsps: u32::MAX,
            global_ports: u32::MAX,
        }
    }

    /// Units available for `class` (fabric is unlimited).
    pub fn limit(&self, class: ResourceClass) -> u32 {
        match class {
            ResourceClass::LocalRead => self.local_read_ports,
            ResourceClass::LocalWrite => self.local_write_ports,
            ResourceClass::Dsp => self.dsps,
            ResourceClass::GlobalPort => self.global_ports,
            ResourceClass::Fabric => u32::MAX,
        }
    }
}

/// A schedulable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedNode {
    /// Execution latency in cycles (0 allowed for wire-level ops).
    pub latency: u32,
    /// Resource occupied at issue.
    pub resource: ResourceClass,
}

/// A dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEdge {
    /// Producer.
    pub from: NodeId,
    /// Consumer.
    pub to: NodeId,
    /// Iteration/work-item distance: 0 for same-instance dependences,
    /// k > 0 when the consumer belongs to the instance k steps later.
    pub distance: u32,
}

/// A dependence graph with latencies and resource classes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedGraph {
    nodes: Vec<SchedNode>,
    edges: Vec<SchedEdge>,
}

impl SchedGraph {
    /// An empty graph.
    pub fn new() -> Self {
        SchedGraph::default()
    }

    /// Removes all nodes and edges, keeping the allocations.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, latency: u32, resource: ResourceClass) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(SchedNode { latency, resource });
        id
    }

    /// Adds a same-instance dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.add_edge_with_distance(from, to, 0);
    }

    /// Adds a dependence edge with an instance distance.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_edge_with_distance(&mut self, from: NodeId, to: NodeId, distance: u32) {
        assert!((from.0 as usize) < self.nodes.len(), "unknown node {from}");
        assert!((to.0 as usize) < self.nodes.len(), "unknown node {to}");
        self.edges.push(SchedEdge { from, to, distance });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> SchedNode {
        self.nodes[id.0 as usize]
    }

    /// All nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, SchedNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), *n))
    }

    /// All edges.
    pub fn edges(&self) -> &[SchedEdge] {
        &self.edges
    }

    /// Outgoing edges of `id`.
    pub fn succs(&self, id: NodeId) -> impl Iterator<Item = &SchedEdge> + '_ {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Incoming edges of `id`.
    pub fn preds(&self, id: NodeId) -> impl Iterator<Item = &SchedEdge> + '_ {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Count of nodes per resource class.
    pub fn resource_usage(&self, class: ResourceClass) -> u32 {
        self.nodes.iter().filter(|n| n.resource == class).count() as u32
    }

    /// Sum of all node latencies (an upper bound for any schedule).
    pub fn total_latency(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.latency)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_construction() {
        let mut g = SchedGraph::new();
        let a = g.add_node(2, ResourceClass::Fabric);
        let b = g.add_node(3, ResourceClass::Dsp);
        g.add_edge(a, b);
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(a).latency, 2);
        assert_eq!(g.succs(a).count(), 1);
        assert_eq!(g.preds(b).count(), 1);
        assert_eq!(g.resource_usage(ResourceClass::Dsp), 1);
        assert_eq!(g.total_latency(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn edge_to_missing_node_panics() {
        let mut g = SchedGraph::new();
        let a = g.add_node(1, ResourceClass::Fabric);
        g.add_edge(a, NodeId(5));
    }

    #[test]
    fn budget_limits() {
        let b =
            ResourceBudget { local_read_ports: 2, local_write_ports: 1, dsps: 4, global_ports: 8 };
        assert_eq!(b.limit(ResourceClass::LocalRead), 2);
        assert_eq!(b.limit(ResourceClass::Fabric), u32::MAX);
    }
}
