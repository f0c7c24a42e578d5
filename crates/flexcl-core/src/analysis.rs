//! Kernel analysis (§3.2): the bridge between IR and the analytical model.
//!
//! For one kernel, one workload and one work-group size this module
//! combines static analysis (CDFG structure, operation latencies, local
//! memory port pressure, DSP usage, inter-work-item recurrences) with
//! dynamic profiling (loop trip counts and the coalesced, bank-classified
//! global-memory pattern counts of Table 1). The result — a
//! [`KernelAnalysis`] — contains everything the PE/CU/kernel computation
//! models and the global memory model consume, so that sweeping hundreds
//! of optimization configurations only re-evaluates closed-form equations
//! and small schedules.

use crate::config::CommMode;
use crate::error::FlexclError;
use crate::platform::Platform;
use flexcl_dram::{
    microbench, AccessKind, Burst, DramConfig, ElementAccess, PatternTable, StreamSummaries,
};
use flexcl_frontend::types::AddressSpace;
use flexcl_interp::{
    run_refs, ArgRef, GroupSampling, InterpError, KernelArg, LoopTrips, MemAccess, NdRange,
    Profile, RunOptions,
};
use flexcl_ir::{
    build_deps, find_recurrences, DepEdge, Function, InstId, MemRoot, Op, Region, Value,
};
use flexcl_sched::{list, sms, NodeId, ResourceBudget, ResourceClass, SchedGraph, SchedScratch};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Implementation draws averaged by [`KernelAnalysis::pipeline_params_with`]
/// to estimate the expected synthesized pipeline parameters. Memoized per
/// resource budget by the evaluation context, so the ensemble runs once per
/// budget, not once per configuration.
const SYNTH_ENSEMBLE: u32 = 16;

/// Base byte address assigned to pointer parameter `p` when turning element
/// indices into DRAM addresses (16 MiB apart, so distinct buffers never
/// alias and start bank-aligned, as a real allocator would).
fn param_base(p: u32) -> u64 {
    u64::from(p) << 24
}

/// A coalesced global-memory burst attributed to the work-item whose
/// access opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedBurst {
    /// The coalesced transaction.
    pub burst: Burst,
    /// Linear id of the owning work-item.
    pub work_item: u64,
}

/// Reusable buffers for repeated analyses (one per DSE worker thread).
///
/// A design-space sweep re-runs [`KernelAnalysis::analyze_interned`] once
/// per work-group size; the intermediate buffers (per-buffer burst
/// streams, the level's group bursts, the coarsening dedup table and
/// merged trace, the per-bank stream summaries) are identical in shape
/// each time, so a sweep holds one scratch per worker and reuses it
/// instead of reallocating. A fresh `AnalysisScratch::default()` gives
/// bit-identical results to a reused one: every buffer is cleared before
/// use.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// Per buffer (indexed by parameter), the bursts of the group run
    /// being grouped.
    streams: Vec<Vec<OwnedBurst>>,
    /// The group bursts of the memory level being analyzed.
    bursts: GroupBursts,
    /// Dedup table of [`coarsen_trace`], reset per group run.
    seen: AccessSet,
    /// The merged trace of the coarsening level being analyzed, coarsened
    /// in place into the next level's.
    merged: Vec<MemAccess>,
    /// Per-bank summaries of the level's group streams in work-item
    /// order and phased reads-first.
    pipe: StreamSummaries,
    phased: StreamSummaries,
    /// Time spent per analysis sub-stage, summed over every analysis run
    /// through this scratch.
    stages: AnalysisStages,
}

/// Wall-clock nanoseconds spent in each sub-stage of
/// [`KernelAnalysis::analyze_interned`], summed over every analysis run
/// through one [`AnalysisScratch`]. The stages are disjoint, so their sum
/// never exceeds the analyses' wall-clock time (static analysis —
/// multipliers, recurrences — is left unattributed). The profiling stage
/// also counts its interpreted instructions, so its cost per step can be
/// told apart from how much the kernel executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStages {
    /// Interpreter profiling (`interp.profile`).
    pub profile_nanos: u64,
    /// Instructions interpreted while profiling ([`Profile::steps`]).
    pub profile_steps: u64,
    /// Burst grouping, coarsening dedup and burst-owner counting.
    pub group_nanos: u64,
    /// Every DRAM replay: summarizing each level's group streams per bank
    /// in both burst orders, and composing the summaries into each
    /// level's pattern counts and the contention curve.
    pub replay_nanos: u64,
}

impl AnalysisStages {
    /// The time accumulated since an `earlier` reading of the same
    /// scratch.
    pub fn since(self, earlier: AnalysisStages) -> AnalysisStages {
        AnalysisStages {
            profile_nanos: self.profile_nanos.saturating_sub(earlier.profile_nanos),
            profile_steps: self.profile_steps.saturating_sub(earlier.profile_steps),
            group_nanos: self.group_nanos.saturating_sub(earlier.group_nanos),
            replay_nanos: self.replay_nanos.saturating_sub(earlier.replay_nanos),
        }
    }
}

/// Nanoseconds since `*clock`, restarting it.
fn lap(clock: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*clock).as_nanos() as u64;
    *clock = now;
    ns
}

impl AnalysisScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sub-stage time accumulated by the analyses run through this
    /// scratch so far.
    pub fn stages(&self) -> AnalysisStages {
        self.stages
    }
}

/// `trace` in the layout [`Profile::trace`] guarantees — each work-group
/// one contiguous run, runs in ascending group id — borrowed as-is when it
/// already has it (always, for interpreter traces; checking costs one
/// pass), else stable-sorted by group so trace order survives within each
/// group.
fn grouped(trace: &[MemAccess]) -> Cow<'_, [MemAccess]> {
    if trace.windows(2).all(|w| w[0].work_group <= w[1].work_group) {
        Cow::Borrowed(trace)
    } else {
        let mut sorted = trace.to_vec();
        sorted.sort_by_key(|a| a.work_group);
        Cow::Owned(sorted)
    }
}

/// The per-group runs of a [`grouped`] trace.
fn group_runs(trace: &[MemAccess]) -> impl Iterator<Item = &[MemAccess]> {
    trace.chunk_by(|a, b| a.work_group == b.work_group)
}

/// Converts an interpreter trace into per-work-group burst lists.
///
/// Within each work-group, each global buffer's access stream is coalesced
/// independently (SDAccel infers one AXI burst engine per buffer) and the
/// resulting bursts are interleaved in work-item order — the order in which
/// the pipelined hardware emits them. Both the analytical memory model and
/// the System Run simulator consume this same representation, so they
/// disagree only where the model genuinely approximates (average pattern
/// latencies vs per-access bank state).
pub fn trace_to_group_bursts(trace: &[MemAccess], unit_bytes: u32) -> Vec<(u64, Vec<OwnedBurst>)> {
    let mut out = GroupBursts::default();
    group_bursts_into(trace, unit_bytes, &mut Vec::new(), &mut out);
    out.to_lists()
}

/// Per-work-group burst lists in one buffer: group `groups[i].0` owns the
/// bursts from the previous group's end to `groups[i].1`.
#[derive(Debug, Default)]
struct GroupBursts {
    bursts: Vec<OwnedBurst>,
    groups: Vec<(u64, usize)>,
}

impl GroupBursts {
    /// Each group's id and bursts, ascending by id.
    fn iter(&self) -> impl Iterator<Item = (u64, &[OwnedBurst])> {
        let starts = std::iter::once(0).chain(self.groups.iter().map(|&(_, end)| end));
        self.groups.iter().zip(starts).map(|(&(g, end), start)| (g, &self.bursts[start..end]))
    }

    /// One burst list per group, ascending by id.
    fn to_lists(&self) -> Vec<(u64, Vec<OwnedBurst>)> {
        self.iter().map(|(g, bursts)| (g, bursts.to_vec())).collect()
    }
}

/// [`trace_to_group_bursts`] into `out` (cleared first), with `streams`
/// as per-buffer staging.
///
/// Each group run is read once. Every access extends the last burst of
/// its buffer's stream ([`Burst::extend`]) or opens a new burst owned by
/// its work-item, so each stream keeps trace order and is coalesced
/// exactly as [`flexcl_dram::coalesce`] would. The group's bursts are
/// then its streams in ascending parameter order, stable-sorted by owner
/// (the sort is skipped when the owners already ascend): the output is
/// bit-identical to stable-sorting the whole trace by `(group, param)`,
/// coalescing each stream and stable-sorting each group's bursts by
/// owner, grouped input or not.
fn group_bursts_into(
    trace: &[MemAccess],
    unit_bytes: u32,
    streams: &mut Vec<Vec<OwnedBurst>>,
    out: &mut GroupBursts,
) {
    let trace = grouped(trace);
    out.bursts.clear();
    out.groups.clear();
    for run in group_runs(&trace) {
        for a in run {
            let p = a.param as usize;
            if p >= streams.len() {
                streams.resize_with(p + 1, Vec::new);
            }
            let addr =
                (param_base(a.param) as i64 + a.elem_index * i64::from(a.bytes)).max(0) as u64;
            let kind = if a.write { AccessKind::Write } else { AccessKind::Read };
            let e = ElementAccess { addr, bytes: a.bytes, kind };
            let stream = &mut streams[p];
            if !stream.last_mut().is_some_and(|b| b.burst.extend(&e, unit_bytes)) {
                stream.push(OwnedBurst { burst: Burst::of(&e), work_item: a.work_item });
            }
        }
        let start = out.bursts.len();
        for stream in streams.iter_mut() {
            out.bursts.append(stream);
        }
        let group = &mut out.bursts[start..];
        if !group.is_sorted_by_key(|b| b.work_item) {
            group.sort_by_key(|b| b.work_item);
        }
        out.groups.push((run[0].work_group, out.bursts.len()));
    }
}

/// A kernel workload: argument values plus the global NDRange.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel arguments (buffers are cloned for profiling runs).
    pub args: Vec<KernelArg>,
    /// Global work size (x, y).
    pub global: (u64, u64),
}

impl Workload {
    /// Total number of work-items.
    pub fn total_work_items(&self) -> u64 {
        self.global.0 * self.global.1
    }
}

/// The arguments the profiling runs of repeated analyses of one workload
/// execute on (one per DSE worker and sweep).
///
/// Profiling interprets the kernel, and its stores must not reach the
/// workload. Buffers the kernel never stores to are read in place
/// ([`ArgRef::Read`]). Each buffer it does store to gets one private copy,
/// made the first time a run needs it and restored to the workload's
/// values after every run: element by element from the run's recorded
/// stores when they are fewer than the buffer's elements, else whole (and
/// always whole when the run failed or stored through an untraced
/// `__local` pointer). So no run copies a read-only buffer, and no run
/// but the first allocates.
#[derive(Debug)]
pub struct ProfileArgs<'w> {
    workload: &'w Workload,
    /// The private copy of each argument a profiled kernel stores to,
    /// equal to the workload's between runs.
    copies: Vec<Option<KernelArg>>,
    /// Set while a run may have left the copies modified (a run that
    /// panicked never restores them).
    dirty: bool,
}

impl<'w> ProfileArgs<'w> {
    /// Profiling arguments over `workload`, with no copies yet.
    pub fn new(workload: &'w Workload) -> Self {
        ProfileArgs { workload, copies: vec![None; workload.args.len()], dirty: false }
    }

    /// The workload the runs read.
    pub fn workload(&self) -> &'w Workload {
        self.workload
    }

    /// Profiles `func` on the workload at `work_group` under `fuel`: the
    /// dynamic half of the §3.2 analysis, leaving the workload untouched.
    ///
    /// Only a few work-groups are profiled (the paper: "only a few
    /// work-groups are profiled in practice"). Stratified sampling picks
    /// representative groups (first/middle/last plus NDRange-boundary
    /// groups) and weights each by how many groups it stands in for.
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Geometry`] if the work-group does not tile
    /// the NDRange, [`FlexclError::Profiling`] if the kernel fails (out of
    /// bounds), and [`FlexclError::ResourceLimit`] if profiling exhausts
    /// its fuel (runaway loop, trace explosion).
    pub fn profile(
        &mut self,
        func: &Function,
        work_group: (u32, u32),
        fuel: ProfileFuel,
    ) -> Result<Profile, FlexclError> {
        let global = self.workload.global;
        let nd = NdRange {
            global: [global.0, global.1, 1],
            local: [u64::from(work_group.0), u64::from(work_group.1), 1],
        };
        nd.validate().map_err(|source| FlexclError::Geometry {
            kernel: func.name.clone(),
            work_group,
            source,
        })?;
        let opts = RunOptions {
            profile_groups: Some(nd.num_groups().min(fuel.group_budget.max(1))),
            profile_sampling: GroupSampling::Stratified,
            step_limit: fuel.step_limit,
            trace_limit: fuel.trace_limit,
        };
        let args = &self.workload.args;
        // Per argument: stored to at all, and stored to untraced.
        let mut stores = vec![(false, false); args.len()];
        for inst in &func.insts {
            if let Op::Store { space, root: MemRoot::Param(p) } = inst.op {
                if let Some(s) = stores.get_mut(p as usize) {
                    *s = (true, s.1 || space != AddressSpace::Global);
                }
            }
        }
        if self.dirty {
            self.copies.fill(None);
        }
        self.dirty = true;
        for (copy, (arg, &(stored, _))) in self.copies.iter_mut().zip(args.iter().zip(&stores)) {
            if stored && copy.is_none() {
                *copy = Some(arg.clone());
            }
        }
        let mut refs: Vec<ArgRef<'_>> = self
            .copies
            .iter_mut()
            .zip(args.iter().zip(&stores))
            .map(|(copy, (arg, &(stored, _)))| match copy {
                Some(c) if stored => ArgRef::Write(c),
                _ => ArgRef::Read(arg),
            })
            .collect();
        let result = run_refs(func, &mut refs, nd, opts);
        drop(refs);
        // Undo the run's stores: from the recorded stores when there are
        // fewer of them than buffer elements, else by copying the buffer.
        let trace = result.as_ref().map_or(&[][..], |p| &p.trace[..]);
        let mut replay = vec![false; args.len()];
        for (p, (copy, (arg, &(stored, untraced)))) in
            self.copies.iter_mut().zip(args.iter().zip(&stores)).enumerate()
        {
            let Some(copy) = copy.as_mut().filter(|_| stored) else { continue };
            if result.is_ok() && !untraced && trace.len() < arg.len() {
                replay[p] = true;
            } else {
                restore(copy, arg, 0..i64::MAX);
            }
        }
        for a in trace.iter().filter(|a| a.write && replay.get(a.param as usize) == Some(&true)) {
            if let Some(copy) = self.copies[a.param as usize].as_mut() {
                restore(copy, &args[a.param as usize], a.stored_elements());
            }
        }
        self.dirty = false;
        result.map_err(|e| match e {
            InterpError::StepLimit(_) | InterpError::TraceLimit(_) => FlexclError::ResourceLimit {
                kernel: func.name.clone(),
                work_group,
                detail: e.to_string(),
            },
            other => {
                FlexclError::Profiling { kernel: func.name.clone(), work_group, source: other }
            }
        })
    }
}

/// Restores the elements `range` (clamped to the buffer) of `copy` from
/// `orig`.
fn restore(copy: &mut KernelArg, orig: &KernelArg, range: std::ops::Range<i64>) {
    let clamp = |len: usize| {
        let lo = usize::try_from(range.start).unwrap_or(0).min(len);
        lo..usize::try_from(range.end).unwrap_or(0).clamp(lo, len)
    };
    match (copy, orig) {
        (KernelArg::IntBuf(c), KernelArg::IntBuf(o)) if c.len() == o.len() => {
            let r = clamp(o.len());
            c[r.clone()].copy_from_slice(&o[r]);
        }
        (KernelArg::FloatBuf(c), KernelArg::FloatBuf(o)) if c.len() == o.len() => {
            let r = clamp(o.len());
            c[r.clone()].copy_from_slice(&o[r]);
        }
        (copy, orig) => *copy = orig.clone(),
    }
}

/// The fuel budget of one dynamic-profiling run.
///
/// Profiling interprets the kernel, so a runaway loop or a trip-count
/// explosion would otherwise hang the analysis (and, in a sweep, a worker
/// thread). Both limits degrade to a typed
/// [`FlexclError::ResourceLimit`] instead: `step_limit` bounds the
/// interpreter steps per work-item, `trace_limit` bounds the recorded
/// global-memory trace across the profiled work-groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileFuel {
    /// Interpreter steps allowed per work-item.
    pub step_limit: u64,
    /// Total recorded memory accesses allowed per profiling run.
    pub trace_limit: usize,
    /// Work-groups profiled per run (strata of the NDRange). Part of the
    /// analysis-cache fingerprint via [`ProfileFuel`]'s `Eq`: changing the
    /// budget changes the profile, so cached analyses must not be shared
    /// across budgets.
    pub group_budget: u64,
}

impl Default for ProfileFuel {
    fn default() -> Self {
        let d = RunOptions::default();
        ProfileFuel {
            step_limit: d.step_limit,
            trace_limit: d.trace_limit,
            // 12 strata: enough interior samples for the odd-stride fill to
            // cover every residue class of an 8-bank channel (see
            // `select_profiled_groups`), at ~1/5 the cost of full profiling
            // on the evaluation NDRanges.
            group_budget: 12,
        }
    }
}

/// Per-CU-count memory contention factors, measured by replaying the
/// profiled group streams the way `C` compute units would emit them:
/// the stream partitions round-robin over `C` DRAM channel states (CU
/// dispatch hands group `k` to CU `k mod C`), so each channel sees only
/// every C-th group and loses the cross-group row locality a single
/// stream enjoys. The factor is the ratio of the pattern-weighted memory
/// cost at `C` streams to the cost at one stream, per communication mode
/// (pipeline work-item order vs barrier phased order), clamped to
/// [0.5, 2].
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionCurve {
    /// `(cus, pipeline_factor, barrier_factor)`, ascending by `cus`.
    points: Vec<(u32, f64, f64)>,
}

impl ContentionCurve {
    /// The measured `(cus, pipeline_factor, barrier_factor)` points.
    pub fn points(&self) -> &[(u32, f64, f64)] {
        &self.points
    }

    /// The contention factor at `cus` compute units, linearly interpolated
    /// between measured CU counts and clamped to the measured range.
    pub fn factor(&self, cus: u32, pipeline: bool) -> f64 {
        let pick = |p: &(u32, f64, f64)| if pipeline { p.1 } else { p.2 };
        let Some(first) = self.points.first() else { return 1.0 };
        if cus <= first.0 {
            return pick(first);
        }
        for w in self.points.windows(2) {
            let (lo, hi) = (&w[0], &w[1]);
            if cus <= hi.0 {
                let span = f64::from(hi.0 - lo.0).max(1.0);
                let frac = f64::from(cus - lo.0) / span;
                return pick(lo) + (pick(hi) - pick(lo)) * frac;
            }
        }
        self.points.last().map(pick).unwrap_or(1.0)
    }

    /// The smallest factor on the curve for a mode — interpolation never
    /// goes below it, so scaling a lower bound by this keeps it sound.
    pub fn min_factor(&self, pipeline: bool) -> f64 {
        self.points.iter().map(|p| if pipeline { p.1 } else { p.2 }).fold(1.0f64, f64::min)
    }
}

/// Thread-coarsening factors pre-analyzed for every kernel beyond factor 1
/// (filtered per work-group size to the values dividing it) — the values
/// the preset [`crate::config::SweepGrid`]s sweep. Each level costs one
/// merge of the previous level's trace by 2, burst grouping, and per-bank
/// summaries of its group streams in both burst orders at analysis time,
/// so levels are computed eagerly and configurations only read
/// closed-form summaries.
pub const COARSEN_CANDIDATES: [u32; 3] = [2, 4, 8];

/// Memory-model summaries of the kernel's representative trace after
/// merging `factor` consecutive work-items into one coarse item
/// ([`coarsen_trace`]; factor 1 is the profiled trace itself): the merged
/// stream is re-coalesced per buffer, so overlapping stencil windows
/// collapse into fewer, wider bursts. All per-work-item quantities stay
/// normalized per *original* work-item (divided by the same weighted
/// work-item count at every factor), which keeps the Eq. 9–12 algebra of
/// the integration unchanged.
#[derive(Debug, Clone)]
pub struct MemLevel {
    /// The coarsening factor this level models.
    pub factor: u32,
    /// Table-1 pattern counts `N` per original work-item, with bursts in
    /// work-item order (the order the pipelined datapath emits them —
    /// pipeline communication mode).
    pub pattern_counts: PatternTable<f64>,
    /// Pattern counts with each group's bursts phased reads-first (the
    /// order barrier communication mode emits them: load phase, compute,
    /// store phase). Phasing avoids read/write bus turnarounds and row
    /// thrashing, so barrier mode can have *cheaper* per-access memory.
    pub pattern_counts_phased: PatternTable<f64>,
    /// Coalesced global transactions per original work-item.
    pub global_accesses_per_wi: f64,
    /// Multi-beat transfer cycles per original work-item: bursts longer
    /// than one interleave chunk stream `extra · t_burst` cycles beyond
    /// their pattern's ΔT (the micro-benchmark measures single-chunk
    /// requests). Added into [`Self::l_mem_wi`].
    pub mem_extra_wi: f64,
    /// Weighted mean of distinct burst-owner runs per group — how finely
    /// the coalesced burst stream interleaves with the group's (coarse)
    /// items (1.0 = one burst covers the whole group). Drives the
    /// pipeline-mode wave-overlap correction in the integration.
    pub burst_owners_per_group: f64,
    /// Memory service cycles of the *heaviest* profiled group streamed
    /// alone (work-item burst order): its service span in a serial DRAM
    /// replay, multi-beat transfer cycles counted once, as the simulator
    /// counts them. `L_mem^wi` is a mean over groups; when groups are
    /// heterogeneous (wavefront kernels leave some groups memory-silent)
    /// and CUs outnumber rounds, the kernel's critical path is its
    /// heaviest group, not the average one — the integration uses this as
    /// a floor.
    pub mem_group_max: f64,
    /// Like [`MemLevel::mem_group_max`], with each group's bursts phased
    /// reads-first (barrier communication mode).
    pub mem_group_max_phased: f64,
    /// `(pipeline, barrier)` `L_mem^wi`, evaluated once when the level is
    /// built; read through [`Self::l_mem_wi`].
    l_mem_wi: (f64, f64),
}

/// Eq. 9's pattern sum: `Σ ΔT·N` over the Table-1 patterns, plus the
/// order-independent multi-beat transfer cycles `extra`.
fn eq9(latencies: &PatternTable<f64>, counts: &PatternTable<f64>, extra: f64) -> f64 {
    latencies.iter().map(|(p, dt)| dt * counts[p]).sum::<f64>() + extra
}

impl MemLevel {
    /// Per-original-work-item global-memory latency `L_mem^wi` (Eq. 9)
    /// at this level, with the pattern counts of the burst order `mode`
    /// emits (work-item order for pipeline mode, phased for barrier),
    /// priced by the analysis's micro-benchmarked pattern latencies.
    pub fn l_mem_wi(&self, mode: CommMode) -> f64 {
        match mode {
            CommMode::Pipeline => self.l_mem_wi.0,
            CommMode::Barrier => self.l_mem_wi.1,
        }
    }
}

/// Merges each run of `factor` consecutive work-items of a profiled trace
/// into one coarse item: work-item ids are rescaled (`wi / factor`) and
/// accesses a coarse item repeats — the same buffer element touched by
/// more than one of its merged work-items, the common case for stencil
/// windows — are deduplicated (the coarse item keeps the value in a
/// register). Trace order is preserved, so downstream coalescing sees the
/// merged stream exactly as a coarsened datapath would emit it.
///
/// A coarse item never spans two work-groups, so repeats are looked up
/// within the current group's run only. A trace whose groups are not
/// contiguous runs is first stable-sorted by group; the output is then in
/// that order, which [`trace_to_group_bursts`] groups identically.
pub fn coarsen_trace(trace: &[MemAccess], factor: u32) -> Vec<MemAccess> {
    let mut out = Vec::new();
    coarsen_trace_into(trace, factor, &mut AccessSet::default(), &mut out);
    out
}

/// [`coarsen_trace`] into `out` (cleared first) with a reusable dedup
/// table: each group run is appended to `out` and merged there in place.
fn coarsen_trace_into(
    trace: &[MemAccess],
    factor: u32,
    seen: &mut AccessSet,
    out: &mut Vec<MemAccess>,
) {
    out.clear();
    if factor <= 1 {
        out.extend_from_slice(trace);
        return;
    }
    for run in group_runs(&grouped(trace)) {
        let start = out.len();
        out.extend_from_slice(run);
        let (_, end) = coarsen_run(out, start, start, factor, seen);
        out.truncate(end);
    }
}

/// [`coarsen_trace`] by `factor` > 1 of a trace in the [`Profile::trace`]
/// layout, in place.
fn coarsen_in_place(trace: &mut Vec<MemAccess>, factor: u32, seen: &mut AccessSet) {
    let (mut read, mut write) = (0, 0);
    while read < trace.len() {
        (read, write) = coarsen_run(trace, read, write, factor, seen);
    }
    trace.truncate(write);
}

/// Merges by `factor` the group run that starts at `trace[read]`, writing
/// its kept accesses from `trace[write]` on (`write ≤ read`, so no access
/// is overwritten before it is read). Returns the run's end and the end
/// of its kept accesses.
fn coarsen_run(
    trace: &mut [MemAccess],
    read: usize,
    write: usize,
    factor: u32,
    seen: &mut AccessSet,
) -> (usize, usize) {
    let cf = u64::from(factor);
    let group = trace[read].work_group;
    let end = read + trace[read..].partition_point(|a| a.work_group == group);
    seen.reset(end - read);
    let mut kept = write;
    for i in read..end {
        let merged = MemAccess { work_item: trace[i].work_item / cf, ..trace[i] };
        if seen.insert(&merged, &trace[write..kept]) {
            trace[kept] = merged;
            kept += 1;
        }
    }
    (end, kept)
}

/// Linear-probing set over the accesses one group run has kept so far,
/// for [`coarsen_trace`]. Slots hold indices into the kept accesses, so
/// the table is 4 bytes a slot and resetting it costs time linear in the
/// run: a whole trace is deduplicated in linear time without ever
/// holding more than one group's keys. (`u32` indices bound one group's
/// run far above any profiling trace budget.)
#[derive(Debug, Default)]
struct AccessSet {
    slots: Vec<u32>,
}

impl AccessSet {
    const EMPTY: u32 = u32::MAX;

    /// Empties the set and sizes it for up to `n` keys at load ≤ 1/2.
    fn reset(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(cap, Self::EMPTY);
    }

    /// Whether the merged access `a` is new to the run — equal to no
    /// access in `kept` (same coarse item, buffer, element, width and
    /// direction; the group is the run's). If so, records it as the next
    /// element of `kept` (the caller appends it).
    #[inline]
    fn insert(&mut self, a: &MemAccess, kept: &[MemAccess]) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(a) as usize & mask;
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = kept.len() as u32;
                    return true;
                }
                k if kept[k as usize] == *a => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Fixed multiply-xorshift hash of the dedup key (no per-process
    /// seed, so probe sequences are reproducible).
    #[inline]
    fn hash(a: &MemAccess) -> u64 {
        const M1: u64 = 0xff51_afd7_ed55_8ccd;
        const M2: u64 = 0xc4ce_b9fe_1a85_ec53;
        let tag = (u64::from(a.param) << 33) | (u64::from(a.bytes) << 1) | u64::from(a.write);
        let mut h = a.work_item.wrapping_mul(M1);
        h = (h ^ (h >> 32) ^ a.elem_index as u64).wrapping_mul(M2);
        h = (h ^ (h >> 29) ^ tag).wrapping_mul(M1);
        h ^ (h >> 32)
    }
}

/// An inter-work-item recurrence with its resolved cycle latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedRecurrence {
    /// Work-item distance.
    pub distance: u32,
    /// Total latency around the dependence cycle, in cycles.
    pub cycle_latency: u64,
    /// The load instruction.
    pub load: InstId,
    /// The store instruction.
    pub store: InstId,
}

/// Everything the model needs to know about one (kernel, workload,
/// work-group size) combination.
///
/// Profiling yields loop trips and a global-memory trace (§3.2); the
/// analysis keeps the trips and the memory summaries derived from the
/// trace, and drops the trace itself.
#[derive(Debug, Clone)]
pub struct KernelAnalysis {
    /// The analyzed kernel, shared by reference: a sweep produces one
    /// `KernelAnalysis` per work-group size against the same function, and
    /// interning keeps them all pointing at a single allocation.
    pub func: Arc<Function>,
    /// Target platform, shared by reference (see `func`).
    pub platform: Arc<Platform>,
    /// Work-group size used for profiling (x, y).
    pub work_group: (u32, u32),
    /// Global NDRange of the workload.
    pub global: (u64, u64),
    /// Profiled loop trip statistics over a few work-groups.
    pub trips: LoopTrips,
    /// Per-work-item Table-1 pattern latencies `ΔT`, micro-benchmarked on
    /// this platform's DRAM.
    pub pattern_latencies: PatternTable<f64>,
    /// Trip-weighted per-work-item local-memory reads, per array.
    pub local_reads: HashMap<MemRoot, f64>,
    /// Trip-weighted per-work-item local-memory writes, per array.
    pub local_writes: HashMap<MemRoot, f64>,
    /// Trip-weighted DSP-mapped operations issued per work-item.
    pub dsp_ops_per_wi: f64,
    /// DSP slices consumed by one PE instance (static area).
    pub static_dsps_per_pe: u32,
    /// Number of DSP-mapped instruction instances in the kernel body.
    pub dsp_op_instances: u32,
    /// `__local` bytes per CU.
    pub local_bytes: u64,
    /// Inter-work-item recurrences with cycle latencies.
    pub recurrences: Vec<ResolvedRecurrence>,
    /// Per-CU-count contention curve applied to `L_mem^wi` in the Eq. 9/11
    /// integration, measured on the factor-1 level's group bursts.
    pub contention: ContentionCurve,
    /// Memory summaries ascending by coarsening factor: factor 1 (the
    /// uncoarsened kernel) first, then each [`COARSEN_CANDIDATES`] factor
    /// dividing the work-group size.
    pub mem_levels: Vec<MemLevel>,
    /// Per-instruction execution multiplier (product of enclosing trip
    /// counts), used for resource-pressure weighting.
    multipliers: Vec<f64>,
}

impl KernelAnalysis {
    /// Runs the full §3.2 analysis with the default [`ProfileFuel`].
    ///
    /// # Errors
    ///
    /// As [`ProfileArgs::profile`], plus [`FlexclError::MemoryModel`] for
    /// a corrupt DRAM latency table.
    pub fn analyze(
        func: &Function,
        platform: &Platform,
        workload: &Workload,
        work_group: (u32, u32),
    ) -> Result<KernelAnalysis, FlexclError> {
        Self::analyze_interned(
            Arc::new(func.clone()),
            Arc::new(platform.clone()),
            &mut ProfileArgs::new(workload),
            work_group,
            ProfileFuel::default(),
            &mut AnalysisScratch::new(),
        )
    }

    /// [`Self::analyze`] with interned inputs, an explicit fuel budget and
    /// reusable scratch buffers.
    ///
    /// The sweep path: the caller holds the kernel and platform in [`Arc`]s
    /// (so five work-group analyses share one `Function` allocation instead
    /// of cloning it five times) and keeps one [`ProfileArgs`] and one
    /// [`AnalysisScratch`] per worker thread, so no analysis copies the
    /// workload. Results are bit-identical to [`Self::analyze`].
    ///
    /// # Errors
    ///
    /// As [`Self::analyze`].
    pub fn analyze_interned(
        func: Arc<Function>,
        platform: Arc<Platform>,
        args: &mut ProfileArgs<'_>,
        work_group: (u32, u32),
        fuel: ProfileFuel,
        scratch: &mut AnalysisScratch,
    ) -> Result<KernelAnalysis, FlexclError> {
        let mut clock = Instant::now();
        let profile = args.profile(&func, work_group, fuel)?;
        scratch.stages.profile_nanos += lap(&mut clock);
        scratch.stages.profile_steps += profile.steps;

        let pattern_latencies = microbench::profile_cached(platform.dram);
        if pattern_latencies.iter().any(|(_, dt)| !dt.is_finite() || dt < 0.0) {
            return Err(FlexclError::MemoryModel {
                kernel: func.name.clone(),
                detail: "micro-benchmarked pattern latency table contains a non-finite or \
                         negative entry (corrupt DRAM configuration?)"
                    .into(),
            });
        }

        // ---- memory: one level per coarsening factor that tiles the
        // work-group, factor 1 first. Each replays its (merged) trace in
        // both burst orders; the factor-1 summaries and replays are also
        // the single-stream baseline of the contention curve below.
        let lat = &pattern_latencies;
        let (base, pipe, phased) =
            replay_level(&platform, lat, &profile, &profile.trace, 1, scratch, &mut clock);
        let mut mem_levels = vec![base];

        // Per-CU-count contention curve: replay the same streams as C CUs
        // would emit them (round-robin partition over C channel states) and
        // take the pattern-weighted cost ratio against the 1-stream replay.
        // Cost includes the order-independent multi-beat transfer cycles:
        // they dilute the ratio exactly as they dilute the real slowdown.
        let cost = |totals: &PatternTable<f64>| eq9(lat, totals, pipe.extra);
        let (base_pipe, base_phased) = (cost(&pipe.totals), cost(&phased.totals));
        let mut curve_points = vec![(1u32, 1.0f64, 1.0f64)];
        for c in [2u32, 4, 8] {
            let tp = replay(&scratch.pipe, &profile, c).totals;
            let tb = replay(&scratch.phased, &profile, c).totals;
            let fp = if base_pipe > 0.0 { (cost(&tp) / base_pipe).clamp(0.5, 2.0) } else { 1.0 };
            let fb =
                if base_phased > 0.0 { (cost(&tb) / base_phased).clamp(0.5, 2.0) } else { 1.0 };
            curve_points.push((c, fp, fb));
        }
        let contention = ContentionCurve { points: curve_points };
        scratch.stages.replay_nanos += lap(&mut clock);

        // The coarsened levels form a chain: the dividing candidates are a
        // prefix of 2, 4, 8, and merging a level's trace by 2 gives the
        // next level's exactly (the first access of a `wi / 2k` item is
        // the first of its `wi / k` item), so each level is coarsened in
        // place from the one before instead of from the whole trace.
        let wg_size = u64::from(work_group.0) * u64::from(work_group.1);
        let mut merged = std::mem::take(&mut scratch.merged);
        let mut at = 1;
        for cf in COARSEN_CANDIDATES {
            if !wg_size.is_multiple_of(u64::from(cf)) {
                continue;
            }
            if at == 1 {
                coarsen_trace_into(&profile.trace, cf, &mut scratch.seen, &mut merged);
            } else {
                coarsen_in_place(&mut merged, cf / at, &mut scratch.seen);
            }
            at = cf;
            mem_levels
                .push(replay_level(&platform, lat, &profile, &merged, cf, scratch, &mut clock).0);
        }
        scratch.merged = merged;

        // ---- static analysis with trip-count weighting.
        let multipliers = instruction_multipliers(&func, &profile.trips);
        let mut local_reads: HashMap<MemRoot, f64> = HashMap::new();
        let mut local_writes: HashMap<MemRoot, f64> = HashMap::new();
        let mut dsp_ops_per_wi = 0.0;
        let mut static_dsps_per_pe = 0u32;
        let mut dsp_op_instances = 0u32;
        for inst in &func.insts {
            let m = multipliers[inst.id.0 as usize];
            match &inst.op {
                Op::Load { space: flexcl_frontend::types::AddressSpace::Local, root } => {
                    *local_reads.entry(*root).or_insert(0.0) += m;
                }
                Op::Store { space: flexcl_frontend::types::AddressSpace::Local, root } => {
                    *local_writes.entry(*root).or_insert(0.0) += m;
                }
                _ => {}
            }
            let dsps = platform.op_dsps(&inst.op, &inst.ty);
            if dsps > 0 {
                dsp_ops_per_wi += m;
                static_dsps_per_pe += dsps;
                dsp_op_instances += 1;
            }
        }

        // ---- recurrences with resolved cycle latencies.
        let recurrences = find_recurrences(&func)
            .into_iter()
            .map(|r| ResolvedRecurrence {
                distance: r.distance,
                cycle_latency: dep_path_latency(&func, &platform, r.load, r.store),
                load: r.load,
                store: r.store,
            })
            .collect();

        let local_bytes = func.local_bytes();
        Ok(KernelAnalysis {
            func,
            platform,
            work_group,
            global: args.workload().global,
            trips: profile.trips,
            pattern_latencies,
            local_reads,
            local_writes,
            dsp_ops_per_wi,
            static_dsps_per_pe,
            dsp_op_instances,
            local_bytes,
            recurrences,
            contention,
            mem_levels,
            multipliers,
        })
    }

    /// The memory level for coarsening factor `factor`: factor 1 always,
    /// otherwise a [`COARSEN_CANDIDATES`] factor dividing the work-group
    /// (`None` for any other factor).
    pub fn mem_level(&self, factor: u32) -> Option<&MemLevel> {
        self.mem_levels.iter().find(|l| l.factor == factor)
    }

    /// `RecMII`: the recurrence-constrained lower bound of the work-item
    /// initiation interval.
    pub fn rec_mii(&self) -> u32 {
        self.recurrences
            .iter()
            .map(|r| (r.cycle_latency as f64 / f64::from(r.distance.max(1))).ceil() as u32)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// `ResMII` under a PE resource budget (Eq. 3–4), using trip-weighted
    /// per-work-item counts.
    pub fn res_mii(&self, budget: &ResourceBudget) -> u32 {
        let mut mii = 1u32;
        for reads in self.local_reads.values() {
            let ports = budget.local_read_ports.max(1) as f64;
            mii = mii.max((reads / ports).ceil() as u32);
        }
        for writes in self.local_writes.values() {
            let ports = budget.local_write_ports.max(1) as f64;
            mii = mii.max((writes / ports).ceil() as u32);
        }
        if self.dsp_ops_per_wi > 0.0 {
            let dsps = budget.dsps.max(1) as f64;
            mii = mii.max((self.dsp_ops_per_wi / dsps).ceil() as u32);
        }
        mii
    }

    /// One work-item's end-to-end latency through the CDFG (the critical
    /// path, i.e. the non-pipelined execution time and the floor of the
    /// pipeline depth `D_comp^PE`).
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Scheduling`] if a basic block cannot be
    /// scheduled under `budget` (an op class with a zero budget).
    pub fn work_item_latency(&self, budget: &ResourceBudget) -> Result<f64, FlexclError> {
        self.work_item_latency_with(budget, &mut SchedScratch::new())
    }

    /// [`KernelAnalysis::work_item_latency`] reusing scheduler scratch
    /// buffers across calls. Bit-identical to the plain form.
    ///
    /// # Errors
    ///
    /// Same as [`KernelAnalysis::work_item_latency`].
    pub fn work_item_latency_with(
        &self,
        budget: &ResourceBudget,
        scratch: &mut SchedScratch,
    ) -> Result<f64, FlexclError> {
        self.region_latency(&self.func.region, budget, scratch)
    }

    fn sched_error(&self, e: flexcl_sched::SchedError) -> FlexclError {
        FlexclError::Scheduling { kernel: self.func.name.clone(), detail: e.to_string() }
    }

    fn block_latency(
        &self,
        block: flexcl_ir::BlockId,
        budget: &ResourceBudget,
        scratch: &mut SchedScratch,
    ) -> Result<f64, FlexclError> {
        let insts = &self.func.block(block).insts;
        if insts.is_empty() {
            return Ok(0.0);
        }
        let mut g = scratch.take_graph();
        let mut map: HashMap<InstId, NodeId> = HashMap::new();
        for id in insts {
            let inst = self.func.inst(*id);
            let node = g.add_node(
                self.platform.op_latency(&inst.op, &inst.ty),
                self.platform.op_resource(&inst.op, &inst.ty),
            );
            map.insert(*id, node);
        }
        for e in build_deps(&self.func, insts) {
            g.add_edge(map[&e.from], map[&e.to]);
        }
        let sched = list::schedule_with(&g, budget, scratch);
        scratch.put_graph(g);
        sched.map(|s| f64::from(s.length)).map_err(|e| self.sched_error(e))
    }

    fn region_latency(
        &self,
        region: &Region,
        budget: &ResourceBudget,
        scratch: &mut SchedScratch,
    ) -> Result<f64, FlexclError> {
        match region {
            Region::Block(b) => self.block_latency(*b, budget, scratch),
            Region::Seq(rs) => {
                let mut total = 0.0;
                for r in rs {
                    total += self.region_latency(r, budget, scratch)?;
                }
                Ok(total)
            }
            Region::If { cond_block, then_region, else_region } => {
                // Independent branches execute in parallel circuits (§3.2);
                // the merged node costs the longer branch.
                Ok(self.block_latency(*cond_block, budget, scratch)?
                    + self.region_latency(then_region, budget, scratch)?.max(self.region_latency(
                        else_region,
                        budget,
                        scratch,
                    )?))
            }
            Region::Loop { id, header, body, latch } => {
                let meta = &self.func.loops[id.0 as usize];
                let trip = self.trips.trip_count(&self.func, *id).max(0.0);
                let header_lat = self.block_latency(*header, budget, scratch)?;
                let latch_lat = match latch {
                    Some(l) => self.block_latency(*l, budget, scratch)?,
                    None => 0.0,
                };
                let body_lat = self.region_latency(body, budget, scratch)? + latch_lat + header_lat;
                if meta.pipeline {
                    return Ok(
                        self.pipelined_loop_latency(*header, body, *latch, trip, budget, scratch)
                    );
                }
                let unroll = match meta.unroll {
                    Some(0) => trip.max(1.0) as u32, // full unroll
                    Some(u) => u.max(1),
                    None => 1,
                };
                if unroll <= 1 {
                    Ok(header_lat + trip * body_lat)
                } else {
                    // Unrolled iterations share PE resources; the iteration
                    // latency cannot beat the resource floor.
                    let floor = self.unroll_resource_floor(body, budget, unroll);
                    let iters = (trip / f64::from(unroll)).ceil();
                    Ok(header_lat + iters * body_lat.max(floor))
                }
            }
        }
    }

    /// Latency of a `#pragma pipeline` loop: iterations overlap at the
    /// initiation interval found by modulo-scheduling the iteration body
    /// with its loop-carried dependences (values carried through private
    /// slots and same-array accesses across iterations):
    /// `L = II·(trip − 1) + depth`.
    fn pipelined_loop_latency(
        &self,
        header: flexcl_ir::BlockId,
        body: &Region,
        latch: Option<flexcl_ir::BlockId>,
        trip: f64,
        budget: &ResourceBudget,
        scratch: &mut SchedScratch,
    ) -> f64 {
        // One iteration = header + body blocks + latch, in program order.
        let mut seq: Vec<InstId> = Vec::new();
        seq.extend(self.func.block(header).insts.iter().copied());
        for b in body.blocks() {
            seq.extend(self.func.block(b).insts.iter().copied());
        }
        if let Some(l) = latch {
            seq.extend(self.func.block(l).insts.iter().copied());
        }
        if seq.is_empty() {
            return 0.0;
        }
        let mut g = scratch.take_graph();
        let mut map: HashMap<InstId, NodeId> = HashMap::new();
        for id in &seq {
            let inst = self.func.inst(*id);
            let node = g.add_node(
                self.platform.op_latency(&inst.op, &inst.ty),
                self.platform.op_resource(&inst.op, &inst.ty),
            );
            map.insert(*id, node);
        }
        for e in build_deps(&self.func, &seq) {
            g.add_edge(map[&e.from], map[&e.to]);
        }
        // Loop-carried dependences: a store in iteration k feeds loads that
        // appear *earlier* in iteration k+1 through the same root.
        let pos: HashMap<InstId, usize> = seq.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for &sid in &seq {
            let s = self.func.inst(sid);
            let Op::Store { root: s_root, .. } = &s.op else { continue };
            for &lid in &seq {
                let l = self.func.inst(lid);
                let Op::Load { root: l_root, .. } = &l.op else { continue };
                if s_root != l_root || pos[&lid] >= pos[&sid] {
                    continue;
                }
                // Provably distinct constant indices never conflict.
                let (si, li) = (s.args[0].as_const_int(), l.args[0].as_const_int());
                if let (Some(a), Some(b)) = (si, li) {
                    if a != b {
                        continue;
                    }
                }
                g.add_edge_with_distance(map[&sid], map[&lid], 1);
            }
        }
        let sched = sms::schedule_with(&g, budget, 0, scratch);
        scratch.put_graph(g);
        f64::from(sched.ii) * (trip - 1.0).max(0.0) + f64::from(sched.depth)
    }

    /// Lower bound on the latency of `unroll` merged loop bodies given the
    /// resource budget (issue-rate bound).
    fn unroll_resource_floor(&self, body: &Region, budget: &ResourceBudget, unroll: u32) -> f64 {
        let mut uses: HashMap<ResourceClass, u32> = HashMap::new();
        for b in body.blocks() {
            for inst in self.func.block_insts(b) {
                let class = self.platform.op_resource(&inst.op, &inst.ty);
                *uses.entry(class).or_insert(0) += 1;
            }
        }
        let mut floor = 0f64;
        for (class, n) in uses {
            let limit = budget.limit(class);
            if limit == 0 || limit == u32::MAX {
                continue;
            }
            floor = floor.max(f64::from(n * unroll) / f64::from(limit));
        }
        floor.ceil()
    }

    /// Builds the work-item-level scheduling graph: top-level straight-line
    /// instructions as individual nodes, control regions (ifs, loops)
    /// collapsed into macro nodes, recurrence edges attached.
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Scheduling`] if a collapsed region cannot be
    /// scheduled under `budget`.
    pub fn work_item_graph(
        &self,
        budget: &ResourceBudget,
    ) -> Result<(SchedGraph, Vec<Option<NodeId>>), FlexclError> {
        self.work_item_graph_with(budget, &self.work_item_deps(), &mut SchedScratch::new())
    }

    /// The dependence edges over the whole instruction sequence, the
    /// budget-independent half of [`KernelAnalysis::work_item_graph`].
    ///
    /// Evaluation layers compute this once per analysis and feed it to
    /// [`KernelAnalysis::work_item_graph_with`] /
    /// [`KernelAnalysis::pipeline_params_with`] for every budget.
    pub fn work_item_deps(&self) -> Vec<DepEdge> {
        let all: Vec<InstId> = self.func.insts.iter().map(|i| i.id).collect();
        build_deps(&self.func, &all)
    }

    /// [`KernelAnalysis::work_item_graph`] with precomputed dependence
    /// edges (from [`KernelAnalysis::work_item_deps`]) and reusable
    /// scheduler scratch. Bit-identical to the plain form.
    ///
    /// # Errors
    ///
    /// Same as [`KernelAnalysis::work_item_graph`].
    pub fn work_item_graph_with(
        &self,
        budget: &ResourceBudget,
        deps: &[DepEdge],
        scratch: &mut SchedScratch,
    ) -> Result<(SchedGraph, Vec<Option<NodeId>>), FlexclError> {
        let mut g = SchedGraph::new();
        let mut inst_node: Vec<Option<NodeId>> = vec![None; self.func.insts.len()];

        let top_items: Vec<&Region> = match &self.func.region {
            Region::Seq(items) => items.iter().collect(),
            other => vec![other],
        };
        for item in top_items {
            match item {
                Region::Block(b) => {
                    for inst in self.func.block_insts(*b) {
                        let node = g.add_node(
                            self.platform.op_latency(&inst.op, &inst.ty),
                            self.platform.op_resource(&inst.op, &inst.ty),
                        );
                        inst_node[inst.id.0 as usize] = Some(node);
                    }
                }
                region => {
                    let lat =
                        self.region_latency(region, budget, scratch)?.min(f64::from(u32::MAX / 4));
                    let node = g.add_node(lat.round() as u32, ResourceClass::Fabric);
                    for b in region.blocks() {
                        for inst in self.func.block_insts(b) {
                            inst_node[inst.id.0 as usize] = Some(node);
                        }
                    }
                }
            }
        }

        // Dependence edges mapped onto nodes.
        let mut seen = std::collections::HashSet::new();
        for e in deps {
            let (Some(from), Some(to)) = (inst_node[e.from.0 as usize], inst_node[e.to.0 as usize])
            else {
                continue;
            };
            if from != to && seen.insert((from, to)) {
                g.add_edge(from, to);
            }
        }
        // Inter-work-item recurrence edges.
        for r in &self.recurrences {
            let (Some(from), Some(to)) =
                (inst_node[r.store.0 as usize], inst_node[r.load.0 as usize])
            else {
                continue;
            };
            g.add_edge_with_distance(from, to, r.distance);
        }
        Ok((g, inst_node))
    }

    /// The PE pipeline parameters: `(II_comp^wi, D_comp^PE)` via
    /// `MII = max(RecMII, ResMII)` refined by swing modulo scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Scheduling`] if the work-item graph cannot be
    /// scheduled under `budget`.
    pub fn pipeline_params(&self, budget: &ResourceBudget) -> Result<(u32, u32), FlexclError> {
        self.pipeline_params_with(budget, &self.work_item_deps(), &mut SchedScratch::new())
    }

    /// [`KernelAnalysis::pipeline_params`] with precomputed dependence
    /// edges and reusable scheduler scratch. Bit-identical to the plain
    /// form.
    ///
    /// # Errors
    ///
    /// Same as [`KernelAnalysis::pipeline_params`].
    pub fn pipeline_params_with(
        &self,
        budget: &ResourceBudget,
        deps: &[DepEdge],
        scratch: &mut SchedScratch,
    ) -> Result<(u32, u32), FlexclError> {
        let (g, _) = self.work_item_graph_with(budget, deps, scratch)?;
        let latency = self.work_item_latency_with(budget, scratch)?;
        let rec = self.rec_mii();
        let res = self.res_mii(budget);
        // Expected synthesized parameters: schedule a fixed ensemble of
        // implementation draws and average. Scheduling the mean-latency
        // graph instead would underestimate — the pipeline depth is a max
        // over paths, so depth(E[latency]) ≤ E[depth] (Jensen), and the
        // synthesis population the System Run samples from is exactly
        // [`flexcl_sched::IMPL_FACTORS`]. The ensemble seed is a constant:
        // the model cannot know which implementation a given synthesis run
        // picks, only the population's expectation.
        let weight_total = u64::from(flexcl_sched::impl_factor_weight_total());
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut draw = move || {
            // xorshift64*: deterministic, dependency-free, well-mixed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            flexcl_sched::impl_factor(((bits >> 33) % weight_total) as u32)
        };
        let mut sum_ii = 0.0f64;
        let mut sum_depth = 0.0f64;
        for _ in 0..SYNTH_ENSEMBLE {
            let pg = flexcl_sched::perturb_graph_with(&g, &mut draw);
            let n = g.len().max(1);
            let agg = (0..n).map(|_| draw()).sum::<f64>() / n as f64;
            let floor = (latency * agg).round() as u32;
            let s = sms::schedule_with(&pg, budget, floor, scratch);
            sum_ii += f64::from(s.ii.max(rec).max(res));
            sum_depth += f64::from(s.depth);
        }
        let k = f64::from(SYNTH_ENSEMBLE);
        Ok(((sum_ii / k).round().max(1.0) as u32, (sum_depth / k).round().max(1.0) as u32))
    }

    /// Execution multiplier of an instruction (product of enclosing loop
    /// trip counts).
    pub fn multiplier(&self, id: InstId) -> f64 {
        self.multipliers[id.0 as usize]
    }
}

/// One memory level of a profiled trace: `trace`, the profile's trace
/// merged by `factor` ([`coarsen_trace`]; factor 1 is the trace itself),
/// coalesced per buffer and interleaved in work-item order
/// ([`trace_to_group_bursts`]), then replayed through the banked DRAM in
/// both burst orders and classified against Table 1. Each profiled
/// group's pattern-count delta enters the totals multiplied by its
/// stratum weight, and per-work-item averages divide by the weighted
/// work-item count — a weighted mixture over the strata that is
/// bit-identical to the plain average when every weight is 1 — and
/// priced under `latencies` into the level's `L_mem^wi`. Also returns
/// both replays, and leaves the level's per-bank stream summaries in
/// `scratch.pipe` and `scratch.phased`.
fn replay_level(
    platform: &Platform,
    latencies: &PatternTable<f64>,
    profile: &Profile,
    trace: &[MemAccess],
    factor: u32,
    scratch: &mut AnalysisScratch,
    clock: &mut Instant,
) -> (MemLevel, Replay, Replay) {
    let unit_bytes = platform.mem_access_unit_bits / 8;
    group_bursts_into(trace, unit_bytes, &mut scratch.streams, &mut scratch.bursts);
    let owners = owner_runs_per_group(&scratch.bursts, profile);
    scratch.stages.group_nanos += lap(clock);
    summarize(&scratch.bursts, platform.dram, &mut scratch.pipe, &mut scratch.phased);
    let pipe = replay(&scratch.pipe, profile, 1);
    let phased = replay(&scratch.phased, profile, 1);
    scratch.stages.replay_nanos += lap(clock);
    let eff_wi = profile.weighted_work_items().max(1.0);
    let per_wi = |totals: &PatternTable<f64>| {
        let mut counts = PatternTable::new();
        for (p, c) in totals.iter() {
            counts[p] = c / eff_wi;
        }
        counts
    };
    let (pattern_counts, pattern_counts_phased) = (per_wi(&pipe.totals), per_wi(&phased.totals));
    let mem_extra_wi = pipe.extra / eff_wi;
    let level = MemLevel {
        factor,
        l_mem_wi: (
            eq9(latencies, &pattern_counts, mem_extra_wi),
            eq9(latencies, &pattern_counts_phased, mem_extra_wi),
        ),
        pattern_counts,
        pattern_counts_phased,
        global_accesses_per_wi: pipe.bursts / eff_wi,
        mem_extra_wi,
        burst_owners_per_group: owners,
        mem_group_max: pipe.max_group,
        mem_group_max_phased: phased.max_group,
    };
    (level, pipe, phased)
}

/// Stratum-weighted mean of distinct burst-owner runs per group: how
/// finely the group's coalesced bursts interleave with its (coarse)
/// items. A fully coalesced group (one burst covering all work-items) has
/// one owner; the pipeline integration uses this to model how much of the
/// wave schedule the memory stream can actually overlap. Groups without
/// bursts are left out; 0 when every group is silent.
fn owner_runs_per_group(group_bursts: &GroupBursts, profile: &Profile) -> f64 {
    let mut runs_weighted = 0.0f64;
    let mut weight_total = 0.0f64;
    for (g, bursts) in group_bursts.iter() {
        if bursts.is_empty() {
            continue;
        }
        let mut runs = 0u64;
        let mut last: Option<u64> = None;
        for ob in bursts {
            if last != Some(ob.work_item) {
                runs += 1;
                last = Some(ob.work_item);
            }
        }
        let w = profile.group_weight(g);
        runs_weighted += w * runs as f64;
        weight_total += w;
    }
    if weight_total > 0.0 {
        runs_weighted / weight_total
    } else {
        0.0
    }
}

/// Stratum-weighted result of replaying group bursts through DRAM.
struct Replay {
    /// Table-1 pattern totals.
    totals: PatternTable<f64>,
    /// Burst count.
    bursts: f64,
    /// Multi-beat transfer cycles: a burst longer than one interleave
    /// chunk streams `extra · t_burst` cycles on top of its pattern's ΔT,
    /// which the micro-benchmark measures with single-chunk requests.
    extra: f64,
    /// Service cycles of the heaviest single group (unweighted max over
    /// groups; its transfer beats counted once, as the DRAM serves them).
    max_group: f64,
}

/// Summarizes each group's burst stream per DRAM bank ([`StreamSummaries`])
/// in both burst orders: work-item order (pipeline mode) into `pipe`, and
/// phased, reads then writes (barrier mode), into `phased`.
fn summarize(
    group_bursts: &GroupBursts,
    dram: DramConfig,
    pipe: &mut StreamSummaries,
    phased: &mut StreamSummaries,
) {
    pipe.reset(dram);
    phased.reset(dram);
    for (g, bursts) in group_bursts.iter() {
        pipe.push(g, bursts.iter().map(|b| &b.burst));
        let pass = |kind| bursts.iter().filter(move |b| b.burst.kind == kind).map(|b| &b.burst);
        phased.push(g, pass(AccessKind::Read).chain(pass(AccessKind::Write)));
    }
}

/// Replays the summarized group streams round-robin across `streams`
/// DRAM channel states — each with its own serial clock, the way
/// `streams` co-running CUs emit them. With one stream this is the plain
/// serial replay the pattern counts use.
///
/// Lane by group-id residue: the dispatcher hands group `g` to CU
/// `g mod C`, so channel `r`'s stream is the ids `≡ r (mod C)` in order.
/// Position-based round-robin would instead split the profiled strata
/// (and their warm-up predecessors) arbitrarily, severing genuine
/// id-adjacency the sample does contain and overstating the handoff cost.
fn replay(summaries: &StreamSummaries, profile: &Profile, streams: u32) -> Replay {
    let mut r = Replay { totals: PatternTable::new(), bursts: 0.0, extra: 0.0, max_group: 0.0 };
    summaries.replay(streams as usize, |group, counts, span| {
        r.max_group = r.max_group.max(span as f64);
        let w = profile.group_weight(group.id);
        for (p, c) in counts.iter() {
            r.totals[p] += w * c as f64;
        }
        r.bursts += w * group.bursts as f64;
        r.extra += w * group.transfer_cycles as f64;
    });
    r
}

/// Computes per-instruction execution multipliers from the region tree and
/// observed trip counts.
fn instruction_multipliers(func: &Function, trips: &LoopTrips) -> Vec<f64> {
    let mut out = vec![0.0; func.insts.len()];
    fill_multipliers(func, trips, &func.region, 1.0, &mut out);
    out
}

fn fill_multipliers(
    func: &Function,
    trips: &LoopTrips,
    region: &Region,
    mult: f64,
    out: &mut Vec<f64>,
) {
    match region {
        Region::Block(b) => {
            for id in &func.block(*b).insts {
                out[id.0 as usize] = mult;
            }
        }
        Region::Seq(rs) => rs.iter().for_each(|r| fill_multipliers(func, trips, r, mult, out)),
        Region::If { cond_block, then_region, else_region } => {
            for id in &func.block(*cond_block).insts {
                out[id.0 as usize] = mult;
            }
            // Branch bodies execute at most once per region entry.
            fill_multipliers(func, trips, then_region, mult, out);
            fill_multipliers(func, trips, else_region, mult, out);
        }
        Region::Loop { id, header, body, latch } => {
            let trip = trips.trip_count(func, *id).max(0.0);
            for iid in &func.block(*header).insts {
                out[iid.0 as usize] = mult * (trip + 1.0);
            }
            if let Some(l) = latch {
                for iid in &func.block(*l).insts {
                    out[iid.0 as usize] = mult * trip;
                }
            }
            fill_multipliers(func, trips, body, mult * trip, out);
        }
    }
}

/// Longest def-use path latency from `from` to `to` (inclusive of both),
/// used as the recurrence cycle latency.
fn dep_path_latency(func: &Function, platform: &Platform, from: InstId, to: InstId) -> u64 {
    let n = func.insts.len();
    let mut dist = vec![i64::MIN; n];
    let lat = |id: InstId| {
        let inst = func.inst(id);
        i64::from(platform.op_latency(&inst.op, &inst.ty))
    };
    dist[from.0 as usize] = lat(from);
    // Data edges always point forward in arena order.
    for i in from.0..=to.0.min(n as u32 - 1) {
        let d = dist[i as usize];
        if d == i64::MIN {
            continue;
        }
        for later in (i + 1)..n as u32 {
            let cand = func.inst(InstId(later));
            let depends = cand.args.iter().any(|a| matches!(a, Value::Inst(x) if *x == InstId(i)));
            if depends {
                let nd = d + lat(InstId(later));
                if nd > dist[later as usize] {
                    dist[later as usize] = nd;
                }
            }
        }
    }
    let d = dist[to.0 as usize];
    if d == i64::MIN {
        // No def-use path (dependence flows through memory only): charge
        // the two endpoint latencies.
        (lat(from) + lat(to)).max(1) as u64
    } else {
        d.max(1) as u64
    }
}

#[cfg(test)]
mod trace_pass_equivalence {
    //! The per-group trace passes against the whole-trace reference
    //! implementations they replaced: one global dedup set for
    //! coarsening, one stable `(group, param)` sort for burst grouping.
    use super::*;
    use flexcl_dram::coalesce;
    use proptest::prelude::*;

    fn ref_coarsen_trace(trace: &[MemAccess], factor: u32) -> Vec<MemAccess> {
        if factor <= 1 {
            return trace.to_vec();
        }
        let cf = u64::from(factor);
        let mut seen: std::collections::HashSet<(u64, u64, u32, i64, u32, bool)> =
            std::collections::HashSet::with_capacity(trace.len());
        let mut out = Vec::with_capacity(trace.len());
        for a in trace {
            let coarse = a.work_item / cf;
            if seen.insert((a.work_group, coarse, a.param, a.elem_index, a.bytes, a.write)) {
                out.push(MemAccess { work_item: coarse, ..*a });
            }
        }
        out
    }

    fn ref_group_bursts(trace: &[MemAccess], unit_bytes: u32) -> Vec<(u64, Vec<OwnedBurst>)> {
        let mut entries: Vec<(u64, u32, u64, ElementAccess)> = trace
            .iter()
            .map(|a| {
                let addr =
                    (param_base(a.param) as i64 + a.elem_index * i64::from(a.bytes)).max(0) as u64;
                let kind = if a.write { AccessKind::Write } else { AccessKind::Read };
                (a.work_group, a.param, a.work_item, ElementAccess { addr, bytes: a.bytes, kind })
            })
            .collect();
        entries.sort_by_key(|(g, p, _, _)| (*g, *p));
        let mut out: Vec<(u64, Vec<OwnedBurst>)> = Vec::new();
        let mut i = 0usize;
        while i < entries.len() {
            let g = entries[i].0;
            let mut bursts = Vec::new();
            while i < entries.len() && entries[i].0 == g {
                let p = entries[i].1;
                let start = i;
                while i < entries.len() && entries[i].0 == g && entries[i].1 == p {
                    i += 1;
                }
                let stream = &entries[start..i];
                let elements: Vec<ElementAccess> = stream.iter().map(|e| e.3).collect();
                let mut cursor = 0usize;
                for b in coalesce(&elements, unit_bytes) {
                    let owner = stream[cursor].2;
                    cursor += b.merged as usize;
                    bursts.push(OwnedBurst { burst: b, work_item: owner });
                }
            }
            bursts.sort_by_key(|b| b.work_item);
            out.push((g, bursts));
        }
        out
    }

    /// A random trace over 4 groups of 8 work-items: small element and
    /// parameter ranges so coarse items repeat accesses and streams
    /// coalesce, negative indices included. `grouped` stable-sorts it by
    /// group (the interpreter's layout); otherwise groups are revisited.
    fn arb_trace() -> BoxedStrategy<(Vec<MemAccess>, bool)> {
        let access = (
            0u64..4,
            0u64..8,
            0u32..3,
            -6i64..24,
            prop::sample::select(vec![4u32, 8, 16]),
            any::<bool>(),
        );
        (prop::collection::vec(access, 0..160), any::<bool>()).prop_map(|(raw, grouped)| {
            let mut trace: Vec<MemAccess> = raw
                .into_iter()
                .map(|(g, wi, param, elem_index, bytes, write)| MemAccess {
                    write,
                    param,
                    elem_index,
                    bytes,
                    work_item: g * 8 + wi,
                    work_group: g,
                })
                .collect();
            if grouped {
                trace.sort_by_key(|a| a.work_group);
            }
            (trace, grouped)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_group_passes_match_whole_trace_references(
            (trace, grouped) in arb_trace(),
            factor in prop::sample::select(vec![2u32, 4, 8]),
        ) {
            let unit = 64;
            // Each coarsening level is the one before merged by 2.
            prop_assert_eq!(coarsen_trace(&coarsen_trace(&trace, 2), 2), coarsen_trace(&trace, 4));
            prop_assert_eq!(coarsen_trace(&coarsen_trace(&trace, 4), 2), coarsen_trace(&trace, 8));
            let merged = coarsen_trace(&trace, factor);
            let ref_merged = ref_coarsen_trace(&trace, factor);
            if grouped {
                prop_assert_eq!(&merged, &ref_merged);
                prop_assert_eq!(
                    trace_to_group_bursts(&trace, unit),
                    ref_group_bursts(&trace, unit)
                );
            }
            prop_assert_eq!(trace_to_group_bursts(&trace, unit), ref_group_bursts(&trace, unit));
            prop_assert_eq!(
                trace_to_group_bursts(&merged, unit),
                ref_group_bursts(&ref_merged, unit)
            );
            // A scratch reused across traces and factors matches fresh ones.
            let mut scratch = AnalysisScratch::new();
            for cf in [factor, 1, 8] {
                coarsen_trace_into(&trace, cf, &mut scratch.seen, &mut scratch.merged);
                group_bursts_into(
                    &scratch.merged,
                    unit,
                    &mut scratch.streams,
                    &mut scratch.bursts,
                );
                prop_assert_eq!(
                    scratch.bursts.to_lists(),
                    ref_group_bursts(&ref_coarsen_trace(&trace, cf), unit)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A curve with dyadic factors, so interpolated values are exact.
    fn curve() -> ContentionCurve {
        ContentionCurve {
            points: vec![(1, 1.0, 1.0), (2, 1.5, 0.75), (4, 1.25, 0.5), (8, 2.0, 0.625)],
        }
    }

    #[test]
    fn contention_factor_reads_the_measured_points() {
        let c = curve();
        for &(cus, pipe, barrier) in c.points() {
            assert_eq!(c.factor(cus, true), pipe, "C={cus}");
            assert_eq!(c.factor(cus, false), barrier, "C={cus}");
        }
    }

    #[test]
    fn contention_factor_interpolates_between_measured_points() {
        let c = curve();
        assert_eq!(c.factor(3, true), 1.375);
        assert_eq!(c.factor(3, false), 0.625);
        assert_eq!(c.factor(6, true), 1.625);
        assert_eq!(c.factor(6, false), 0.5625);
    }

    #[test]
    fn contention_factor_clamps_to_the_measured_range() {
        let c = curve();
        assert_eq!((c.factor(0, true), c.factor(0, false)), (1.0, 1.0));
        assert_eq!((c.factor(16, true), c.factor(16, false)), (2.0, 0.625));
    }

    #[test]
    fn empty_contention_curve_is_neutral() {
        let c = ContentionCurve { points: Vec::new() };
        for cus in [0, 1, 3, 16] {
            assert_eq!((c.factor(cus, true), c.factor(cus, false)), (1.0, 1.0));
        }
        assert_eq!((c.min_factor(true), c.min_factor(false)), (1.0, 1.0));
    }

    #[test]
    fn min_factor_bounds_every_interpolated_factor() {
        let c = curve();
        assert_eq!((c.min_factor(true), c.min_factor(false)), (1.0, 0.5));
        for cus in 1..=16 {
            for pipeline in [true, false] {
                assert!(c.min_factor(pipeline) <= c.factor(cus, pipeline), "C={cus} {pipeline}");
            }
        }
    }

    fn analyze(
        src: &str,
        args: Vec<KernelArg>,
        global: (u64, u64),
        wg: (u32, u32),
    ) -> KernelAnalysis {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let platform = Platform::virtex7_adm7v3();
        let workload = Workload { args, global };
        KernelAnalysis::analyze(&f, &platform, &workload, wg).expect("analysis")
    }

    #[test]
    fn reused_profile_args_leave_the_workload_and_each_profile_untouched() {
        // Control flow depends on data the kernel overwrites: a copy not
        // restored between runs would profile the negated values instead.
        let src = "__kernel void k(__global int* a, __global int* b, __global int* out) {
            int i = get_global_id(0);
            if (a[i] > 0) { a[i] = -a[i]; out[i] = b[i]; }
        }";
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        // 512 elements: every group is profiled and the trace outgrows the
        // buffers, which are restored whole. 8192: twelve groups of many,
        // restored element by element from the recorded stores.
        for n in [512, 8192] {
            let workload = Workload {
                args: vec![
                    KernelArg::IntBuf((1..=n).collect()),
                    KernelArg::IntBuf(vec![7; n as usize]),
                    KernelArg::IntBuf(vec![0; n as usize]),
                ],
                global: (n as u64, 1),
            };
            let pristine = workload.args.clone();
            let mut args = ProfileArgs::new(&workload);
            for wg in [(64, 1), (16, 1), (64, 1), (128, 1)] {
                let fuel = ProfileFuel::default();
                let reused = args.profile(&f, wg, fuel).expect("profile");
                let fresh = ProfileArgs::new(&workload).profile(&f, wg, fuel).expect("profile");
                assert_eq!(reused.trace, fresh.trace, "{n} {wg:?}");
                assert_eq!(reused.steps, fresh.steps, "{n} {wg:?}");
            }
            assert_eq!(workload.args, pristine);
            // `b` is only read: it is never copied. The copies of `a` and
            // `out` are back to the workload's values.
            assert!(args.copies[1].is_none());
            assert_eq!(args.copies[0].as_ref(), Some(&pristine[0]));
            assert_eq!(args.copies[2].as_ref(), Some(&pristine[2]));
            assert!(!args.dirty);
        }
    }

    #[test]
    fn elementwise_kernel_analysis() {
        let a = analyze(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
            vec![
                KernelArg::FloatBuf(vec![1.0; 256]),
                KernelArg::FloatBuf(vec![2.0; 256]),
                KernelArg::FloatBuf(vec![0.0; 256]),
            ],
            (256, 1),
            (64, 1),
        );
        assert_eq!(a.rec_mii(), 1);
        // Perfectly consecutive accesses coalesce 16:1 (512-bit unit, f32).
        let base = &a.mem_levels[0];
        assert!(base.global_accesses_per_wi < 3.0 / 4.0, "{}", base.global_accesses_per_wi);
        assert!(base.l_mem_wi(CommMode::Pipeline) > 0.0);
        let budget = ResourceBudget::unconstrained();
        let (ii, depth) = a.pipeline_params(&budget).expect("pipeline params");
        assert!(ii >= 1);
        assert!(depth >= 4, "fadd latency must show up in depth, got {depth}");
    }

    #[test]
    fn recurrence_kernel_has_rec_mii() {
        let a = analyze(
            "__kernel void scan(__global float* b, __global float* a) {
                int i = get_global_id(0);
                b[i + 1] = b[i] + a[i];
            }",
            vec![KernelArg::FloatBuf(vec![0.0; 300]), KernelArg::FloatBuf(vec![1.0; 300])],
            (256, 1),
            (64, 1),
        );
        assert_eq!(a.recurrences.len(), 1);
        assert!(a.rec_mii() > 1, "rec_mii = {}", a.rec_mii());
    }

    #[test]
    fn local_port_pressure_raises_res_mii() {
        let a = analyze(
            "__kernel void stencil(__global float* in, __global float* out) {
                __local float tile[66];
                int l = get_local_id(0);
                int i = get_global_id(0);
                tile[l + 1] = in[i + 1];
                barrier(CLK_LOCAL_MEM_FENCE);
                out[i] = tile[l] + tile[l + 1] + tile[l + 2];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 300]), KernelArg::FloatBuf(vec![0.0; 300])],
            (256, 1),
            (64, 1),
        );
        // Three reads of `tile` per work-item against 2 read ports.
        let budget = ResourceBudget {
            local_read_ports: 2,
            local_write_ports: 1,
            dsps: 1024,
            global_ports: 4,
        };
        assert_eq!(a.res_mii(&budget), 2);
        let reads: f64 = a.local_reads.values().sum();
        assert_eq!(reads, 3.0);
    }

    #[test]
    fn loop_weighting_multiplies_counts() {
        let a = analyze(
            "__kernel void k(__global float* x, __global float* y) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < 8; j++) {
                    s = s * 1.5f + y[j];
                }
                x[i] = s;
            }",
            vec![KernelArg::FloatBuf(vec![0.0; 64]), KernelArg::FloatBuf(vec![1.0; 64])],
            (64, 1),
            (64, 1),
        );
        // The fmul executes 8 times per work-item.
        assert!(a.dsp_ops_per_wi >= 8.0, "dsp ops {}", a.dsp_ops_per_wi);
    }

    #[test]
    fn work_item_latency_reflects_loop_trip() {
        let short = analyze(
            "__kernel void k(__global float* x) {
                float s = 0.0f;
                for (int j = 0; j < 4; j++) { s += x[j]; }
                x[get_global_id(0)] = s;
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 64])],
            (64, 1),
            (64, 1),
        );
        let long = analyze(
            "__kernel void k(__global float* x) {
                float s = 0.0f;
                for (int j = 0; j < 64; j++) { s += x[j % 4]; }
                x[get_global_id(0)] = s;
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 64])],
            (64, 1),
            (64, 1),
        );
        let budget = ResourceBudget::unconstrained();
        let long_lat = long.work_item_latency(&budget).expect("latency");
        let short_lat = short.work_item_latency(&budget).expect("latency");
        assert!(long_lat > 4.0 * short_lat);
    }

    #[test]
    fn strided_access_hurts_memory_model() {
        let seq = analyze(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                b[i] = a[i];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 4096]), KernelArg::FloatBuf(vec![0.0; 4096])],
            (256, 1),
            (64, 1),
        );
        let strided = analyze(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                b[i] = a[i * 16];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 4096]), KernelArg::FloatBuf(vec![0.0; 4096])],
            (256, 1),
            (64, 1),
        );
        let l_mem = |a: &KernelAnalysis| a.mem_levels[0].l_mem_wi(CommMode::Pipeline);
        assert!(
            l_mem(&strided) > l_mem(&seq),
            "strided {} vs sequential {}",
            l_mem(&strided),
            l_mem(&seq)
        );
    }

    #[test]
    fn pipelined_loop_is_faster_than_serial() {
        let serial = analyze(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < 32; j++) { acc = acc + (float)j * 0.5f; }
                b[i] = acc + a[i];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 64]), KernelArg::FloatBuf(vec![0.0; 64])],
            (64, 1),
            (64, 1),
        );
        let piped = analyze(
            "__kernel void k(__global float* a, __global float* b) {
                int i = get_global_id(0);
                float acc = 0.0f;
                #pragma pipeline
                for (int j = 0; j < 32; j++) { acc = acc + (float)j * 0.5f; }
                b[i] = acc + a[i];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 64]), KernelArg::FloatBuf(vec![0.0; 64])],
            (64, 1),
            (64, 1),
        );
        let budget = ResourceBudget::unconstrained();
        let ls = serial.work_item_latency(&budget).expect("latency");
        let lp = piped.work_item_latency(&budget).expect("latency");
        assert!(lp < ls * 0.7, "pipelined loop {lp} should beat serial {ls}");
        // The accumulation `acc += ...` is a loop-carried recurrence: the
        // loop II cannot be 1 (fadd latency is 4 cycles), so the pipelined
        // latency must stay above trip × 4.
        assert!(lp >= 32.0 * 4.0, "recurrence floor violated: {lp}");
    }

    #[test]
    fn independent_pipelined_loop_reaches_low_ii() {
        // A loop whose iterations are independent (element-wise writes)
        // pipelines down to the resource floor.
        let piped = analyze(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                #pragma pipeline
                for (int j = 0; j < 32; j++) { a[i * 32 + j] = (float)j * 2.0f; }
            }",
            vec![KernelArg::FloatBuf(vec![0.0; 64 * 32])],
            (64, 1),
            (64, 1),
        );
        let budget = ResourceBudget::unconstrained();
        let lp = piped.work_item_latency(&budget).expect("latency");
        // The loop induction variable is itself a slot-carried recurrence
        // (j += 1, integer add, latency 1): II floor is small but not the
        // serial body latency.
        assert!(lp < 32.0 * 8.0, "independent loop pipelines: {lp}");
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a) { a[get_global_id(0)] = 1; }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let platform = Platform::virtex7_adm7v3();
        let workload = Workload { args: vec![KernelArg::IntBuf(vec![0; 100])], global: (100, 1) };
        let err = KernelAnalysis::analyze(&f, &platform, &workload, (64, 1)).unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::Geometry);
        assert!(matches!(err, FlexclError::Geometry { work_group: (64, 1), .. }));
        assert!(err.to_string().contains('k'), "error names the kernel: {err}");
    }

    #[test]
    fn runaway_loop_degrades_to_resource_limit() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void spin(__global int* a) {
                int i = get_global_id(0);
                int s = 0;
                for (int j = 0; j < 1000000; j++) { s = s + j; }
                a[i] = s;
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let platform = Platform::virtex7_adm7v3();
        let workload = Workload { args: vec![KernelArg::IntBuf(vec![0; 64])], global: (64, 1) };
        let fuel = ProfileFuel { step_limit: 1000, trace_limit: 1 << 20, ..ProfileFuel::default() };
        let err = KernelAnalysis::analyze_interned(
            Arc::new(f),
            Arc::new(platform),
            &mut ProfileArgs::new(&workload),
            (64, 1),
            fuel,
            &mut AnalysisScratch::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::ResourceLimit);
        assert!(err.to_string().contains("spin"), "error names the kernel: {err}");
    }
}
