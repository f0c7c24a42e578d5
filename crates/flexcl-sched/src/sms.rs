//! Swing Modulo Scheduling (Llosa et al., PACT'96) — the second step of the
//! PE model (§3.3.1): starting from `MII`, find the smallest initiation
//! interval for which a modulo schedule exists under the resource budget,
//! and report the resulting pipeline depth `D_comp^PE`.
//!
//! The implementation follows the SMS recipe: per-candidate-II ASAP/ALAP
//! times give each node a mobility window; nodes are ordered by criticality
//! (smallest slack first, "swinging" between predecessors and successors of
//! already-placed nodes); placement scans the node's window against a
//! modulo reservation table. If any node cannot be placed, the candidate II
//! is bumped and the process restarts — exactly the "keeps refining the II
//! until it satisfies all the resource constraints" loop of the paper.

use crate::graph::{NodeId, ResourceBudget, SchedGraph};
use crate::mii::{alap_times_into, asap_times_into, mii};
use crate::scratch::SchedScratch;

/// The result of modulo scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloSchedule {
    /// Achieved initiation interval (`II_comp^wi`).
    pub ii: u32,
    /// Pipeline depth (`D_comp^PE`): cycles from the first issue to the last
    /// result of one instance.
    pub depth: u32,
    /// Issue cycle per node.
    pub start: Vec<u32>,
}

/// Runs swing modulo scheduling on `graph` under `budget`.
///
/// `depth_floor` lets the caller impose a lower bound on the reported
/// pipeline depth (FlexCL derives the depth from the critical path through
/// the CDFG, which may include control regions not present in `graph`).
pub fn schedule(graph: &SchedGraph, budget: &ResourceBudget, depth_floor: u32) -> ModuloSchedule {
    schedule_with(graph, budget, depth_floor, &mut SchedScratch::new())
}

/// [`schedule`] reusing the buffers in `scratch` across calls.
///
/// Bit-identical to [`schedule`]; only the allocation behaviour differs.
pub fn schedule_with(
    graph: &SchedGraph,
    budget: &ResourceBudget,
    depth_floor: u32,
    scratch: &mut SchedScratch,
) -> ModuloSchedule {
    let mut span = flexcl_obs::span("sched.sms");
    let n = graph.len();
    span.attr_u64("nodes", n as u64);
    if n == 0 {
        return ModuloSchedule { ii: 1, depth: depth_floor.max(1), start: Vec::new() };
    }

    let start_ii = mii(graph, budget);
    let max_ii = (graph.total_latency() as u32).max(start_ii) + n as u32 + 1;

    for ii in start_ii..=max_ii {
        if let Some(start) = try_schedule(graph, budget, ii, scratch) {
            let depth = (0..n)
                .map(|i| start[i] + graph.node(NodeId(i as u32)).latency)
                .max()
                .unwrap_or(0)
                .max(depth_floor)
                .max(1);
            return ModuloSchedule { ii, depth, start };
        }
    }
    // Fully serial fallback — cannot happen for max_ii ≥ total latency, but
    // keep a sound answer rather than panic.
    let mut start = Vec::with_capacity(n);
    let mut t = 0;
    for i in 0..n {
        start.push(t);
        t += graph.node(NodeId(i as u32)).latency.max(1);
    }
    ModuloSchedule { ii: max_ii, depth: t.max(depth_floor).max(1), start }
}

fn try_schedule(
    graph: &SchedGraph,
    budget: &ResourceBudget,
    ii: u32,
    scratch: &mut SchedScratch,
) -> Option<Vec<u32>> {
    let n = graph.len();
    let SchedScratch { asap, alap, order, opt_start: start, mrt, .. } = scratch;
    asap_times_into(graph, ii, asap);
    alap_times_into(graph, asap, alap);

    // SMS node ordering: sort by increasing slack (ALAP − ASAP), breaking
    // ties by greater height (deeper nodes first), then id.
    order.clear();
    order.extend((0..n).map(|i| NodeId(i as u32)));
    order.sort_by_key(|id| {
        let i = id.0 as usize;
        let slack = alap[i] - asap[i];
        (slack, -asap[i], id.0)
    });

    // Modulo reservation table: per (slot, resource) usage counts.
    mrt.clear();
    start.clear();
    start.resize(n, None);

    for &id in order.iter() {
        let i = id.0 as usize;
        // Earliest start from already-placed predecessors (respecting
        // distances: a distance-d edge relaxes the bound by d·II).
        let mut est = asap[i].max(0);
        for e in graph.preds(id) {
            if let Some(ps) = start[e.from.0 as usize] {
                let bound = i64::from(ps) + i64::from(graph.node(e.from).latency)
                    - i64::from(ii) * i64::from(e.distance);
                est = est.max(bound);
            }
        }
        // Latest start from already-placed successors.
        let mut lst = i64::MAX;
        for e in graph.succs(id) {
            if let Some(ss) = start[e.to.0 as usize] {
                let bound = i64::from(ss) - i64::from(graph.node(id).latency)
                    + i64::from(ii) * i64::from(e.distance);
                lst = lst.min(bound);
            }
        }
        let est = est.max(0);
        // Scan one full II worth of slots starting at est (SMS guarantee:
        // if no slot in [est, est+II-1] fits, no slot fits).
        let class = graph.node(id).resource;
        let limit = budget.limit(class);
        let mut placed = false;
        for t in est..est + i64::from(ii) {
            if t > lst {
                break;
            }
            let t_u = u32::try_from(t).ok()?;
            let slot = t_u % ii;
            let used = mrt.get(&(slot, class)).copied().unwrap_or(0);
            if used < limit {
                *mrt.entry((slot, class)).or_insert(0) += 1;
                start[i] = Some(t_u);
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }

    // Verify all same-instance dependences (sanity; ordering+windows should
    // already guarantee them, but placements of later preds can violate an
    // earlier consumer's window in rare diamond shapes — reject then).
    let start: Vec<u32> = start.iter().map(|s| s.expect("placed")).collect();
    for e in graph.edges() {
        let lhs = i64::from(start[e.from.0 as usize]) + i64::from(graph.node(e.from).latency);
        let rhs = i64::from(start[e.to.0 as usize]) + i64::from(ii) * i64::from(e.distance);
        if lhs > rhs {
            return None;
        }
    }
    Some(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ResourceBudget, ResourceClass};

    #[test]
    fn unconstrained_graph_achieves_ii_one() {
        let mut g = SchedGraph::new();
        let a = g.add_node(2, ResourceClass::Fabric);
        let b = g.add_node(3, ResourceClass::Fabric);
        g.add_edge(a, b);
        let s = schedule(&g, &ResourceBudget::unconstrained(), 0);
        assert_eq!(s.ii, 1);
        assert_eq!(s.depth, 5);
    }

    #[test]
    fn figure3_recurrence_gives_ii_two_depth_six() {
        // The paper's running example: II = 2, D = 6.
        // Work-item body: load b[i] (2) → add with a[i] (2) → store b[i+1]
        // (2), recurrence store→load at distance 1 closes a 4-cycle loop
        // over... we build latencies so the cycle latency is 4 → II=2 needs
        // distance 2; to get II = 2 with distance 1 the cycle latency must
        // be 2. Use load(1) → add(1) → store(0), plus a 4-cycle tail to
        // reach depth 6.
        let mut g = SchedGraph::new();
        let load = g.add_node(1, ResourceClass::LocalRead);
        let add = g.add_node(1, ResourceClass::Fabric);
        let store = g.add_node(0, ResourceClass::LocalWrite);
        let tail0 = g.add_node(2, ResourceClass::Fabric);
        let tail1 = g.add_node(2, ResourceClass::Fabric);
        g.add_edge(load, add);
        g.add_edge(add, store);
        g.add_edge_with_distance(store, load, 1);
        g.add_edge(add, tail0);
        g.add_edge(tail0, tail1);
        let s = schedule(&g, &ResourceBudget::unconstrained(), 0);
        assert_eq!(s.ii, 2);
        assert_eq!(s.depth, 6);
    }

    #[test]
    fn resource_pressure_raises_ii() {
        // 4 independent local reads per instance, 1 read port → II = 4.
        let mut g = SchedGraph::new();
        for _ in 0..4 {
            g.add_node(2, ResourceClass::LocalRead);
        }
        let budget =
            ResourceBudget { local_read_ports: 1, local_write_ports: 1, dsps: 8, global_ports: 8 };
        let s = schedule(&g, &budget, 0);
        assert_eq!(s.ii, 4);
    }

    #[test]
    fn modulo_slots_respected() {
        // 3 DSP ops, 1 DSP: they must land in distinct slots mod II.
        let mut g = SchedGraph::new();
        for _ in 0..3 {
            g.add_node(4, ResourceClass::Dsp);
        }
        let budget =
            ResourceBudget { local_read_ports: 4, local_write_ports: 4, dsps: 1, global_ports: 8 };
        let s = schedule(&g, &budget, 0);
        assert_eq!(s.ii, 3);
        let mut slots: Vec<u32> = s.start.iter().map(|t| t % s.ii).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 3);
    }

    #[test]
    fn schedule_respects_dependences() {
        let mut g = SchedGraph::new();
        let ids: Vec<_> = (0..6)
            .map(|i| {
                let class = if i % 2 == 0 { ResourceClass::Dsp } else { ResourceClass::Fabric };
                g.add_node(1 + i % 3, class)
            })
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge_with_distance(ids[5], ids[0], 2);
        let budget =
            ResourceBudget { local_read_ports: 2, local_write_ports: 1, dsps: 1, global_ports: 4 };
        let s = schedule(&g, &budget, 0);
        for e in g.edges() {
            let lhs = s.start[e.from.0 as usize] + g.node(e.from).latency;
            let rhs = s.start[e.to.0 as usize] + s.ii * e.distance;
            assert!(lhs <= rhs, "violated edge {e:?} in {s:?}");
        }
    }

    #[test]
    fn depth_floor_applies() {
        let mut g = SchedGraph::new();
        g.add_node(1, ResourceClass::Fabric);
        let s = schedule(&g, &ResourceBudget::unconstrained(), 42);
        assert_eq!(s.depth, 42);
    }

    #[test]
    fn empty_graph_defaults() {
        let s = schedule(&SchedGraph::new(), &ResourceBudget::unconstrained(), 0);
        assert_eq!(s.ii, 1);
        assert_eq!(s.depth, 1);
    }

    #[test]
    fn ii_never_below_mii() {
        let mut g = SchedGraph::new();
        let a = g.add_node(3, ResourceClass::Fabric);
        let b = g.add_node(3, ResourceClass::Fabric);
        g.add_edge(a, b);
        g.add_edge_with_distance(b, a, 1);
        let s = schedule(&g, &ResourceBudget::unconstrained(), 0);
        assert_eq!(s.ii, crate::mii::mii(&g, &ResourceBudget::unconstrained()));
        assert_eq!(s.ii, 6);
    }
}
