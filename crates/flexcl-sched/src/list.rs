//! Resource-aware priority-ordered list scheduling (ASAP policy).
//!
//! This is the per-basic-block estimator of §3.3.1: given the block's DFG
//! and the PE's resource constraints it returns the block's execution
//! latency. Priorities are longest-path-to-sink ("height"), the classic
//! critical-path heuristic of list scheduling [18, 19].

use crate::graph::{NodeId, ResourceBudget, ResourceClass, SchedGraph, NUM_RESOURCE_CLASSES};
use crate::scratch::SchedScratch;
use std::fmt;

/// Why a schedule could not be produced for the given graph and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The graph uses a resource class whose budget is zero, so at least
    /// one op can never issue.
    ZeroBudget(ResourceClass),
    /// The scheduler exceeded its convergence bound — the distance-0
    /// subgraph is cyclic (malformed input).
    NonConvergence,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroBudget(class) => {
                write!(f, "resource class {class:?} has a zero budget but is used by the graph")
            }
            SchedError::NonConvergence => {
                write!(f, "list scheduler failed to converge (cyclic distance-0 subgraph?)")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// The result of list scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListSchedule {
    /// Issue cycle per node.
    pub start: Vec<u32>,
    /// Total schedule length (cycles until the last result is available).
    pub length: u32,
}

impl ListSchedule {
    /// Issue cycle of `id`.
    pub fn start_of(&self, id: NodeId) -> u32 {
        self.start[id.0 as usize]
    }
}

/// Longest path from each node to any sink, counting node latencies.
///
/// Same-instance edges only (distance > 0 edges are loop-carried and do not
/// constrain a single instance).
pub fn heights(graph: &SchedGraph) -> Vec<u64> {
    let mut height = Vec::new();
    heights_into(graph, &mut height);
    height
}

/// [`heights`] into a caller-provided buffer (cleared first).
pub fn heights_into(graph: &SchedGraph, height: &mut Vec<u64>) {
    let n = graph.len();
    height.clear();
    height.resize(n, 0u64);
    // Process in reverse topological order; node ids are created in program
    // order so a reverse scan converges, but be safe and iterate to fixpoint
    // (graphs are DAGs on distance-0 edges; |V| passes bound the work).
    let mut changed = true;
    let mut passes = 0;
    while changed && passes <= n {
        changed = false;
        passes += 1;
        for id in (0..n).rev() {
            let node = graph.node(NodeId(id as u32));
            let mut h = u64::from(node.latency);
            for e in graph.succs(NodeId(id as u32)) {
                if e.distance == 0 {
                    let cand = u64::from(node.latency) + height[e.to.0 as usize];
                    h = h.max(cand);
                }
            }
            if h > height[id] {
                height[id] = h;
                changed = true;
            }
        }
    }
}

/// Schedules `graph` under `budget` using priority list scheduling.
///
/// Every node occupies its resource class for one cycle at issue (IP cores
/// are pipelined). Returns issue cycles and the overall latency.
///
/// # Errors
///
/// Returns [`SchedError::ZeroBudget`] if the graph uses a resource class
/// with a zero budget (such an op can never issue), and
/// [`SchedError::NonConvergence`] if the distance-0 subgraph turns out to be
/// cyclic (malformed input; the IR construction guarantees acyclicity
/// within an instance).
pub fn schedule(graph: &SchedGraph, budget: &ResourceBudget) -> Result<ListSchedule, SchedError> {
    schedule_with(graph, budget, &mut SchedScratch::new())
}

/// [`schedule`] reusing the buffers in `scratch` across calls.
///
/// Bit-identical to [`schedule`]; only the allocation behaviour differs.
///
/// # Errors
///
/// Same as [`schedule`].
pub fn schedule_with(
    graph: &SchedGraph,
    budget: &ResourceBudget,
    scratch: &mut SchedScratch,
) -> Result<ListSchedule, SchedError> {
    let mut span = flexcl_obs::span("sched.list");
    let n = graph.len();
    span.attr_u64("nodes", n as u64);
    if n == 0 {
        return Ok(ListSchedule { start: Vec::new(), length: 0 });
    }
    for (_, node) in graph.nodes() {
        if budget.limit(node.resource) == 0 {
            return Err(SchedError::ZeroBudget(node.resource));
        }
    }
    heights_into(graph, &mut scratch.heights);
    let SchedScratch { heights: height, pending, earliest, ready, deferred, issued, .. } = scratch;

    // Remaining same-instance predecessor counts.
    pending.clear();
    pending.resize(n, 0u32);
    for e in graph.edges() {
        if e.distance == 0 {
            pending[e.to.0 as usize] += 1;
        }
    }
    // Earliest start allowed by already-scheduled predecessors.
    earliest.clear();
    earliest.resize(n, 0u32);
    let mut start = vec![u32::MAX; n];

    ready.clear();
    ready.extend((0..n).filter(|i| pending[*i] == 0).map(|i| NodeId(i as u32)));

    let mut cycle: u32 = 0;
    let mut scheduled = 0usize;
    // Resource usage per cycle is transient: recompute per cycle.
    while scheduled < n {
        let mut used = [0u32; NUM_RESOURCE_CLASSES];
        // Within one cycle, keep issuing until a pass makes no progress:
        // zero-latency producers release their consumers in the same cycle
        // (combinational chains).
        loop {
            // Sort ready ops by priority (height desc, id asc for determinism).
            ready.sort_by(|a, b| {
                height[b.0 as usize].cmp(&height[a.0 as usize]).then(a.0.cmp(&b.0))
            });
            issued.clear();
            deferred.clear();
            for id in ready.drain(..) {
                let idx = id.0 as usize;
                if earliest[idx] > cycle {
                    deferred.push(id);
                    continue;
                }
                let class = graph.node(id).resource;
                let limit = budget.limit(class);
                let u = &mut used[class.index()];
                if *u >= limit {
                    deferred.push(id);
                    continue;
                }
                *u += 1;
                start[idx] = cycle;
                issued.push(id);
                scheduled += 1;
            }
            std::mem::swap(ready, deferred);
            if issued.is_empty() {
                break;
            }
            // Release successors of newly issued nodes.
            for &id in issued.iter() {
                let lat = graph.node(id).latency;
                let finish = cycle + lat;
                for e in graph.succs(id) {
                    if e.distance != 0 {
                        continue;
                    }
                    let t = e.to.0 as usize;
                    earliest[t] = earliest[t].max(finish);
                    pending[t] -= 1;
                    if pending[t] == 0 {
                        ready.push(e.to);
                    }
                }
            }
        }
        cycle += 1;
        if u64::from(cycle) > graph.total_latency() + n as u64 + 1 {
            return Err(SchedError::NonConvergence);
        }
    }

    let length = (0..n).map(|i| start[i] + graph.node(NodeId(i as u32)).latency).max().unwrap_or(0);
    Ok(ListSchedule { start, length })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(latencies: &[u32]) -> SchedGraph {
        let mut g = SchedGraph::new();
        let ids: Vec<NodeId> =
            latencies.iter().map(|l| g.add_node(*l, ResourceClass::Fabric)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn chain_latency_is_sum() {
        let g = chain(&[2, 3, 4]);
        let s = schedule(&g, &ResourceBudget::unconstrained()).expect("schedule");
        assert_eq!(s.length, 9);
        assert_eq!(s.start, vec![0, 2, 5]);
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        let mut g = SchedGraph::new();
        for _ in 0..4 {
            g.add_node(5, ResourceClass::Fabric);
        }
        let s = schedule(&g, &ResourceBudget::unconstrained()).expect("schedule");
        assert_eq!(s.length, 5);
        assert!(s.start.iter().all(|c| *c == 0));
    }

    #[test]
    fn resource_limit_serialises_issues() {
        // 4 independent DSP ops, 2 DSPs: issue over 2 cycles.
        let mut g = SchedGraph::new();
        for _ in 0..4 {
            g.add_node(3, ResourceClass::Dsp);
        }
        let budget = ResourceBudget { dsps: 2, ..ResourceBudget::unconstrained() };
        let s = schedule(&g, &budget).expect("schedule");
        assert_eq!(s.length, 4); // last issue at cycle 1, +3 latency
    }

    #[test]
    fn diamond_takes_longest_branch() {
        let mut g = SchedGraph::new();
        let a = g.add_node(1, ResourceClass::Fabric);
        let b = g.add_node(10, ResourceClass::Fabric);
        let c = g.add_node(2, ResourceClass::Fabric);
        let d = g.add_node(1, ResourceClass::Fabric);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let s = schedule(&g, &ResourceBudget::unconstrained()).expect("schedule");
        assert_eq!(s.length, 12); // 1 + 10 + 1
    }

    #[test]
    fn priority_prefers_critical_path() {
        // Two roots competing for one DSP; the one feeding the long chain
        // must issue first.
        let mut g = SchedGraph::new();
        let a = g.add_node(1, ResourceClass::Dsp); // feeds chain
        let b = g.add_node(1, ResourceClass::Dsp); // standalone
        let c = g.add_node(10, ResourceClass::Fabric);
        g.add_edge(a, c);
        let budget = ResourceBudget { dsps: 1, ..ResourceBudget::unconstrained() };
        let s = schedule(&g, &budget).expect("schedule");
        assert_eq!(s.start_of(a), 0, "critical op first");
        assert_eq!(s.start_of(b), 1);
        assert_eq!(s.length, 11);
    }

    #[test]
    fn loop_carried_edges_do_not_block() {
        let mut g = SchedGraph::new();
        let a = g.add_node(2, ResourceClass::Fabric);
        let b = g.add_node(2, ResourceClass::Fabric);
        g.add_edge(a, b);
        g.add_edge_with_distance(b, a, 1); // recurrence, ignored here
        let s = schedule(&g, &ResourceBudget::unconstrained()).expect("schedule");
        assert_eq!(s.length, 4);
    }

    #[test]
    fn empty_graph_is_zero() {
        let s = schedule(&SchedGraph::new(), &ResourceBudget::unconstrained()).expect("schedule");
        assert_eq!(s.length, 0);
    }

    #[test]
    fn zero_budget_is_a_typed_error() {
        let mut g = SchedGraph::new();
        g.add_node(2, ResourceClass::LocalRead);
        let budget = ResourceBudget { local_read_ports: 0, ..ResourceBudget::unconstrained() };
        assert_eq!(schedule(&g, &budget), Err(SchedError::ZeroBudget(ResourceClass::LocalRead)));
    }

    #[test]
    fn zero_budget_for_unused_class_is_fine() {
        let g = chain(&[1, 1]);
        let budget = ResourceBudget { dsps: 0, ..ResourceBudget::unconstrained() };
        assert_eq!(schedule(&g, &budget).expect("schedule").length, 2);
    }

    #[test]
    fn zero_latency_ops_chain_in_one_cycle_each() {
        let g = chain(&[0, 0, 0]);
        let s = schedule(&g, &ResourceBudget::unconstrained()).expect("schedule");
        // Zero-latency ops still issue on distinct ready cycles along a
        // chain but finish instantly.
        assert_eq!(s.length, 0);
    }
}
