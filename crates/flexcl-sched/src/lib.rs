//! # flexcl-sched
//!
//! Scheduling algorithms for the FlexCL computation model (DAC'17
//! reproduction, §3.3):
//!
//! * [`list`] — resource-aware priority-ordered list scheduling with ASAP
//!   policy, used to estimate the execution latency of each CDFG basic
//!   block.
//! * [`mii`] — `MII = max(RecMII, ResMII)`: the recurrence- and
//!   resource-constrained lower bounds of the work-item initiation interval
//!   (Eq. 2–4).
//! * [`sms`] — Swing Modulo Scheduling, refining `II_comp^wi` until all
//!   resource constraints are met and yielding the PE pipeline depth
//!   `D_comp^PE`.
//!
//! The crate is IR-agnostic: it consumes a [`SchedGraph`] of latency- and
//! resource-annotated nodes, which the `flexcl-core` crate builds from IR.
//!
//! ```
//! use flexcl_sched::{ResourceBudget, ResourceClass, SchedGraph};
//!
//! let mut g = SchedGraph::new();
//! let load = g.add_node(2, ResourceClass::LocalRead);
//! let mul = g.add_node(4, ResourceClass::Dsp);
//! g.add_edge(load, mul);
//!
//! let block_latency = flexcl_sched::list::schedule(&g, &ResourceBudget::unconstrained())
//!     .expect("acyclic graph with a non-zero budget");
//! assert_eq!(block_latency.length, 6);
//!
//! let pipe = flexcl_sched::sms::schedule(&g, &ResourceBudget::unconstrained(), 0);
//! assert_eq!((pipe.ii, pipe.depth), (1, 6));
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod list;
pub mod mii;
pub mod perturb;
pub mod scratch;
pub mod sms;

pub use graph::{NodeId, ResourceBudget, ResourceClass, SchedEdge, SchedGraph, SchedNode};
pub use list::{ListSchedule, SchedError};
pub use perturb::{impl_factor, impl_factor_weight_total, perturb_graph_with, IMPL_FACTORS};
pub use scratch::SchedScratch;
pub use sms::ModuloSchedule;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generates a random DAG with optional recurrence back-edges.
    fn arb_graph() -> impl Strategy<Value = SchedGraph> {
        (2usize..20, proptest::collection::vec(0u32..8, 2..20))
            .prop_flat_map(|(n, lats)| {
                let n = n.min(lats.len());
                let edges = proptest::collection::vec((0..n, 0..n, 0u32..3), 0..n * 2);
                (Just(lats), edges)
            })
            .prop_map(|(lats, edges)| {
                let mut g = SchedGraph::new();
                let classes = [
                    ResourceClass::Fabric,
                    ResourceClass::Dsp,
                    ResourceClass::LocalRead,
                    ResourceClass::LocalWrite,
                ];
                let ids: Vec<NodeId> = lats
                    .iter()
                    .enumerate()
                    .map(|(i, l)| g.add_node(*l, classes[i % classes.len()]))
                    .collect();
                for (a, b, d) in edges {
                    let (a, b) = (a.min(ids.len() - 1), b.min(ids.len() - 1));
                    if a < b {
                        g.add_edge(ids[a], ids[b]); // forward: same instance
                    } else if a > b && d > 0 {
                        g.add_edge_with_distance(ids[a], ids[b], d); // recurrence
                    }
                }
                g
            })
    }

    fn small_budget() -> ResourceBudget {
        ResourceBudget { local_read_ports: 2, local_write_ports: 1, dsps: 2, global_ports: 4 }
    }

    proptest! {
        /// The list schedule must respect every distance-0 dependence and
        /// never beat the critical path.
        #[test]
        fn list_schedule_is_valid(g in arb_graph()) {
            let s = list::schedule(&g, &small_budget()).expect("generated DAGs always schedule");
            for e in g.edges() {
                if e.distance == 0 {
                    let lhs = s.start[e.from.0 as usize] + g.node(e.from).latency;
                    prop_assert!(lhs <= s.start[e.to.0 as usize]);
                }
            }
            let heights = list::heights(&g);
            let cp = heights.iter().copied().max().unwrap_or(0);
            prop_assert!(u64::from(s.length) >= cp);
        }

        /// SMS must achieve an II no smaller than MII and produce a schedule
        /// in which every edge (including recurrences) is satisfied.
        #[test]
        fn sms_schedule_is_valid(g in arb_graph()) {
            let budget = small_budget();
            let s = sms::schedule(&g, &budget, 0);
            prop_assert!(s.ii >= mii::mii(&g, &budget));
            for e in g.edges() {
                let lhs = i64::from(s.start[e.from.0 as usize]) + i64::from(g.node(e.from).latency);
                let rhs = i64::from(s.start[e.to.0 as usize]) + i64::from(s.ii) * i64::from(e.distance);
                prop_assert!(lhs <= rhs, "edge {:?} violated (ii={})", e, s.ii);
            }
        }

        /// Modulo reservation: no resource class is oversubscribed in any slot.
        #[test]
        fn sms_respects_modulo_resources(g in arb_graph()) {
            let budget = small_budget();
            let s = sms::schedule(&g, &budget, 0);
            let mut usage = std::collections::HashMap::new();
            for (id, node) in g.nodes() {
                let slot = s.start[id.0 as usize] % s.ii;
                *usage.entry((slot, node.resource)).or_insert(0u32) += 1;
            }
            for ((_, class), used) in usage {
                prop_assert!(used <= budget.limit(class));
            }
        }

        /// Relaxing the budget never worsens II.
        #[test]
        fn more_resources_never_hurt(g in arb_graph()) {
            let tight = sms::schedule(&g, &small_budget(), 0);
            let loose = sms::schedule(&g, &ResourceBudget::unconstrained(), 0);
            prop_assert!(loose.ii <= tight.ii);
        }

        /// Scheduling a sequence of graphs through one shared scratch is
        /// bit-identical to scheduling each with fresh allocations.
        #[test]
        fn scratch_reuse_is_bit_identical(gs in proptest::collection::vec(arb_graph(), 1..5)) {
            let mut scratch = SchedScratch::new();
            for g in &gs {
                let fresh = list::schedule(g, &small_budget());
                let reused = list::schedule_with(g, &small_budget(), &mut scratch);
                prop_assert_eq!(fresh, reused);
                let fresh = sms::schedule(g, &small_budget(), 0);
                let reused = sms::schedule_with(g, &small_budget(), 0, &mut scratch);
                prop_assert_eq!(fresh, reused);
            }
        }
    }
}
