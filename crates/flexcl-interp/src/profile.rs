//! Dynamic-profiling results: loop trip counts and the global-memory trace.
//!
//! FlexCL profiles "a few work-groups" to obtain (a) trip counts of loops
//! whose bounds static analysis could not resolve and (b) the sequence of
//! global-memory indices each work-item touches, which the DRAM model turns
//! into per-bank access patterns (§3.2, §3.4 of the paper).
//!
//! Profiled work-groups are *strata*: each one stands in for a region of
//! the NDRange (see [`crate::RunOptions::profile_sampling`]). A
//! [`Profile`] therefore carries per-group weights — how many real groups
//! each profiled group represents — and its loop-trip statistics are the
//! weighted mixture of the per-group observations, so kernels whose work
//! varies across the index space (guarded wavefronts, triangular loops)
//! are not modeled by their unguarded corner.

use flexcl_ir::{BlockId, Function, LoopId, Region, TripCount};
use std::collections::HashMap;

/// CFG edge execution counts gathered during interpretation.
///
/// Dense by source block: `succs[from]` lists `(to, count)` for every
/// successor taken from `from`, in first-taken order. A block ends in at
/// most a two-way branch, so recording an edge is an index plus a scan of
/// at most two entries. Every query returns an integer sum, so its result
/// does not depend on that order.
#[derive(Debug, Clone, Default)]
pub struct EdgeCounts {
    succs: Vec<Vec<(u32, u64)>>,
}

impl EdgeCounts {
    /// An empty counter set.
    pub fn new() -> Self {
        EdgeCounts::default()
    }

    /// Records `n` traversals of `from → to` (none when `n` is 0).
    pub(crate) fn record_n(&mut self, from: BlockId, to: BlockId, n: u64) {
        if n == 0 {
            return;
        }
        let from = from.0 as usize;
        if from >= self.succs.len() {
            self.succs.resize_with(from + 1, Vec::new);
        }
        let succs = &mut self.succs[from];
        match succs.iter_mut().find(|(t, _)| *t == to.0) {
            Some((_, c)) => *c += n,
            None => succs.push((to.0, n)),
        }
    }

    /// Number of traversals of `from → to`.
    pub fn count(&self, from: BlockId, to: BlockId) -> u64 {
        self.succs
            .get(from.0 as usize)
            .and_then(|s| s.iter().find(|(t, _)| *t == to.0))
            .map_or(0, |(_, c)| *c)
    }

    /// Total traversals into `to`.
    pub fn into_block(&self, to: BlockId) -> u64 {
        self.succs.iter().flatten().filter(|(t, _)| *t == to.0).map(|(_, c)| c).sum()
    }

    /// Total traversals into `to` from blocks in `from_set`.
    pub fn into_block_from(&self, to: BlockId, from_set: &[BlockId]) -> u64 {
        from_set.iter().map(|f| self.count(*f, to)).sum()
    }
}

/// One recorded global-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// `true` for stores.
    pub write: bool,
    /// Which pointer parameter was accessed.
    pub param: u32,
    /// Element index into the parameter's buffer (may be negative when the
    /// kernel mis-indexes; the interpreter reports bounds errors separately).
    pub elem_index: i64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Linear work-item id that issued the access.
    pub work_item: u64,
    /// Linear work-group id.
    pub work_group: u64,
}

impl MemAccess {
    /// The buffer elements a store wrote: a store of an `n`-lane value is
    /// recorded as `4 × n` bytes at vector index `i` and covers elements
    /// `n·i .. n·i + n` (just `i` for a scalar).
    pub fn stored_elements(&self) -> std::ops::Range<i64> {
        let lanes = i64::from(self.bytes / 4).max(1);
        let base = self.elem_index.wrapping_mul(lanes);
        base..base.saturating_add(lanes)
    }
}

/// Average trip counts observed for each loop.
///
/// Entries and iterations are `f64` because profiled groups enter the
/// statistics with their stratum weight (a group standing in for `w` real
/// groups contributes `w ×` its observations); for an unweighted profile
/// they are plain integer counts.
#[derive(Debug, Clone, Default)]
pub struct LoopTrips {
    /// `loop id → (weighted entries, weighted total iterations)`.
    pub raw: HashMap<u32, (f64, f64)>,
}

impl LoopTrips {
    /// Effective trip count for a loop of `func`: static when known, else
    /// the profiled average iterations per entry, else 0 (loop never
    /// entered in the profile).
    pub fn trip_count(&self, func: &Function, id: LoopId) -> f64 {
        match (func.loops[id.0 as usize].trip, self.raw.get(&id.0)) {
            (TripCount::Static(n), _) => n as f64,
            (TripCount::Profiled, Some(&(entries, iters))) if entries > 0.0 => iters / entries,
            (TripCount::Profiled, _) => 0.0,
        }
    }
}

/// Everything the interpreter observed while running one profiled
/// work-group.
#[derive(Debug, Clone)]
pub struct GroupObservation {
    /// Linear work-group id.
    pub group: u64,
    /// How many NDRange groups this stratum represents (0 for a warm-up
    /// predecessor profiled only to establish adjacent replay state).
    pub weight: f64,
    /// CFG edge counts recorded while this group ran.
    pub edges: EdgeCounts,
    /// Work-items executed in this group.
    pub work_items: u64,
}

/// The weight of one profiled work-group, kept on the [`Profile`] so
/// downstream consumers (the memory model) can weight per-group traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupWeight {
    /// Linear work-group id.
    pub group: u64,
    /// How many NDRange groups this stratum represents (0 for a warm-up
    /// predecessor profiled only to establish adjacent replay state).
    pub weight: f64,
    /// Work-items executed in this group.
    pub work_items: u64,
}

/// Full profiling result of a kernel run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Observed loop trip statistics (stratum-weighted).
    pub trips: LoopTrips,
    /// Global memory accesses in execution order.
    ///
    /// Layout contract: the interpreter runs each profiled group to
    /// completion, one at a time in ascending group id (warm-up
    /// predecessors included), so each group's accesses form exactly one
    /// contiguous run and the runs are in ascending id order —
    /// `work_group` never decreases along the trace. The analysis's trace
    /// passes (burst grouping, coarsening) work one group run at a time
    /// on the strength of this.
    pub trace: Vec<MemAccess>,
    /// Number of work-items executed (may be a subset of the NDRange when
    /// `profile_groups` limits profiling).
    pub work_items: u64,
    /// Stratum weights of the profiled groups, ascending by group id.
    /// Empty means "unweighted" (every observation counts once).
    pub groups: Vec<GroupWeight>,
    /// Instructions interpreted over all executed work-items (0 for a
    /// profile assembled from parts). A property of the kernel and its
    /// inputs, not of the interpreter.
    pub steps: u64,
}

impl Profile {
    /// Assembles a stratum-weighted profile from per-group observations:
    /// each group's loop-trip statistics enter the mixture multiplied by
    /// its weight. With all weights at 1 every observation counts once,
    /// as if the groups' edge counts were merged.
    pub fn from_group_parts(
        func: &Function,
        observations: Vec<GroupObservation>,
        trace: Vec<MemAccess>,
        work_items: u64,
    ) -> Profile {
        let mut trips = LoopTrips::default();
        let mut groups = Vec::with_capacity(observations.len());
        for obs in &observations {
            let mut raw = RawTrips::default();
            collect_loop_trips(func, &func.region, &obs.edges, &mut raw);
            for (id, (entries, iters)) in raw.raw {
                let slot = trips.raw.entry(id).or_insert((0.0, 0.0));
                slot.0 += obs.weight * entries as f64;
                slot.1 += obs.weight * iters as f64;
            }
            groups.push(GroupWeight {
                group: obs.group,
                weight: obs.weight,
                work_items: obs.work_items,
            });
        }
        groups.sort_by_key(|g| g.group);
        Profile { trips, trace, work_items, groups, steps: 0 }
    }

    /// Stratum weight of a profiled group (1.0 when the profile carries no
    /// weights or the group was not profiled).
    pub fn group_weight(&self, group: u64) -> f64 {
        self.groups
            .binary_search_by_key(&group, |g| g.group)
            .map(|i| self.groups[i].weight)
            .unwrap_or(1.0)
    }

    /// Weighted work-item count: `Σ weight_g × work_items_g` over the
    /// profiled groups, the denominator for per-work-item averages over a
    /// stratified trace. Falls back to the raw count for unweighted
    /// profiles.
    pub fn weighted_work_items(&self) -> f64 {
        if self.groups.is_empty() {
            return self.work_items as f64;
        }
        self.groups.iter().map(|g| g.weight * g.work_items as f64).sum()
    }

    /// Average number of global accesses issued per work-item (unweighted).
    pub fn accesses_per_work_item(&self) -> f64 {
        if self.work_items == 0 {
            return 0.0;
        }
        self.trace.len() as f64 / self.work_items as f64
    }
}

/// Integer trip accumulators for one set of edge counts.
#[derive(Debug, Default)]
struct RawTrips {
    raw: HashMap<u32, (u64, u64)>,
}

/// Walks the region tree accumulating trip statistics for every loop.
#[allow(clippy::only_used_in_recursion)]
fn collect_loop_trips(func: &Function, region: &Region, edges: &EdgeCounts, out: &mut RawTrips) {
    match region {
        Region::Block(_) => {}
        Region::Seq(rs) => rs.iter().for_each(|r| collect_loop_trips(func, r, edges, out)),
        Region::If { then_region, else_region, .. } => {
            collect_loop_trips(func, then_region, edges, out);
            collect_loop_trips(func, else_region, edges, out);
        }
        Region::Loop { id, header, body, latch } => {
            let body_blocks = body.blocks();
            let body_first = body_blocks.first().copied();

            // Iterations: entries into the first body block from the header
            // (for/while) — or from anywhere (do-while, where the entry edge
            // jumps straight into the body).
            let (entries, iters) = match body_first {
                Some(bf) => {
                    let header_to_body = edges.count(*header, bf);
                    let total_into_body = edges.into_block(bf);
                    if header_to_body < total_into_body {
                        // do-while: entry edge bypasses the header.
                        let outside = total_into_body - header_to_body;
                        (outside, total_into_body)
                    } else {
                        // for/while: entries into the header from outside.
                        let mut inside: Vec<BlockId> = body_blocks.clone();
                        if let Some(l) = latch {
                            inside.push(*l);
                        }
                        let back = edges.into_block_from(*header, &inside);
                        let total_into_header = edges.into_block(*header);
                        (total_into_header.saturating_sub(back), header_to_body)
                    }
                }
                None => (0, 0),
            };
            let slot = out.raw.entry(id.0).or_insert((0, 0));
            slot.0 += entries;
            slot.1 += iters;

            collect_loop_trips(func, body, edges, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run, NdRange, RunOptions};
    use crate::value::KernelArg;
    use flexcl_ir::lower_kernel;

    fn profile(src: &str, args: &mut [KernelArg], nd: NdRange) -> (Function, Profile) {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let prof = run(&f, args, nd, RunOptions::default()).expect("run");
        (f, prof)
    }

    #[test]
    fn dynamic_trip_count_profiled() {
        let (f, prof) = profile(
            "__kernel void k(__global int* a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; }
            }",
            &mut [KernelArg::IntBuf(vec![0; 16]), KernelArg::Int(10)],
            NdRange::new_1d(1, 1),
        );
        assert_eq!(f.loops.len(), 1);
        assert_eq!(prof.trips.trip_count(&f, LoopId(0)), 10.0);
    }

    #[test]
    fn while_loop_trip_profiled() {
        let (f, prof) = profile(
            "__kernel void k(__global int* a) {
                int i = 0;
                while (i < 7) { i++; }
                a[0] = i;
            }",
            &mut [KernelArg::IntBuf(vec![0; 1])],
            NdRange::new_1d(1, 1),
        );
        assert_eq!(prof.trips.trip_count(&f, LoopId(0)), 7.0);
    }

    #[test]
    fn do_while_counts_first_iteration() {
        let (f, prof) = profile(
            "__kernel void k(__global int* a) {
                int i = 0;
                do { i++; } while (i < 5);
                a[0] = i;
            }",
            &mut [KernelArg::IntBuf(vec![0; 1])],
            NdRange::new_1d(1, 1),
        );
        assert_eq!(prof.trips.trip_count(&f, LoopId(0)), 5.0);
    }

    #[test]
    fn break_shortens_observed_trips() {
        let (f, prof) = profile(
            "__kernel void k(__global int* a) {
                for (int i = 0; i < 100; i++) {
                    if (i == 9) { break; }
                    a[i] = i;
                }
            }",
            &mut [KernelArg::IntBuf(vec![0; 100])],
            NdRange::new_1d(1, 1),
        );
        // The loop body runs 10 times (i = 0..9, breaking on the 10th).
        let trip = prof.trips.trip_count(&f, LoopId(0));
        assert!((trip - 10.0).abs() < 1e-9, "trip {trip}");
    }

    #[test]
    fn trace_records_reads_and_writes() {
        let (_f, prof) = profile(
            "__kernel void k(__global int* a, __global int* b) {
                int i = get_global_id(0);
                b[i] = a[i] + 1;
            }",
            &mut [KernelArg::IntBuf(vec![1; 8]), KernelArg::IntBuf(vec![0; 8])],
            NdRange::new_1d(8, 4),
        );
        assert_eq!(prof.trace.len(), 16); // 8 loads + 8 stores
        assert_eq!(prof.trace.iter().filter(|a| a.write).count(), 8);
        assert_eq!(prof.accesses_per_work_item(), 2.0);
        for wi in 0..8 {
            assert_eq!(prof.trace.iter().filter(|a| a.work_item == wi).count(), 2);
        }
        // Full run: every group profiled with weight 1.
        assert_eq!(prof.groups.len(), 2);
        assert!(prof.groups.iter().all(|g| g.weight == 1.0 && g.work_items == 4));
        assert_eq!(prof.weighted_work_items(), 8.0);
    }

    #[test]
    fn nested_loop_average_trips() {
        let (f, prof) = profile(
            "__kernel void k(__global int* a, int n) {
                for (int i = 0; i < 4; i++) {
                    for (int j = 0; j < n; j++) {
                        a[i * 8 + j] = j;
                    }
                }
            }",
            &mut [KernelArg::IntBuf(vec![0; 32]), KernelArg::Int(8)],
            NdRange::new_1d(1, 1),
        );
        // Outer: static 4. Inner: profiled, entered 4 times, 8 iters each.
        assert_eq!(prof.trips.trip_count(&f, LoopId(1)), 4.0);
        assert_eq!(prof.trips.trip_count(&f, LoopId(0)), 8.0);
    }

    proptest::proptest! {
        /// The dense counters answer every query exactly like a map keyed
        /// by `(from, to)`, whatever order the edges arrive in.
        #[test]
        fn edge_counts_match_a_map(
            edges in proptest::collection::vec((0u32..6, 0u32..6, 0u64..3), 0..200),
        ) {
            let mut dense = EdgeCounts::new();
            let mut map: HashMap<(u32, u32), u64> = HashMap::new();
            for &(f, t, n) in &edges {
                dense.record_n(BlockId(f), BlockId(t), n);
                *map.entry((f, t)).or_insert(0) += n;
            }
            let count = |f: u32, t: u32| map.get(&(f, t)).copied().unwrap_or(0);
            for t in 0..7 {
                for f in 0..7 {
                    proptest::prop_assert_eq!(dense.count(BlockId(f), BlockId(t)), count(f, t));
                }
                let into: u64 = (0..7).map(|f| count(f, t)).sum();
                proptest::prop_assert_eq!(dense.into_block(BlockId(t)), into);
                let from = [BlockId(1), BlockId(4), BlockId(6)];
                proptest::prop_assert_eq!(
                    dense.into_block_from(BlockId(t), &from),
                    count(1, t) + count(4, t) + count(6, t)
                );
            }
        }
    }

    #[test]
    fn stratum_weights_skew_trip_mixture() {
        // A guarded loop whose trip count depends on the group id: group 0
        // runs 2 iterations per work-item, later groups run 10. Profiling
        // only groups 0 and 15 with weights 1 and 15 must pull the average
        // toward the heavy stratum ((2 + 15*10)/16 = 9.5).
        let src = "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                int bound = (i < 64) ? 2 : n;
                int s = 0;
                for (int j = 0; j < bound; j++) { s += j; }
                a[i] = s;
            }";
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let nd = NdRange::new_1d(1024, 64);
        let mut args = [KernelArg::IntBuf(vec![0; 1024]), KernelArg::Int(10)];
        let prof = run(
            &f,
            &mut args,
            nd,
            RunOptions {
                profile_groups: Some(2),
                profile_sampling: crate::exec::GroupSampling::Stratified,
                ..RunOptions::default()
            },
        )
        .expect("run");
        let trip = prof.trips.trip_count(&f, flexcl_ir::LoopId(0));
        assert!(trip > 8.0, "weighted mixture must lean on the 15-group stratum, got {trip}");
    }
}
