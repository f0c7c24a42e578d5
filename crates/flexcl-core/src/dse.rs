//! Design-space exploration (§4.3).
//!
//! FlexCL's raison d'être: because one estimate costs microseconds rather
//! than the hours of a synthesis run, the *entire* optimization space of a
//! kernel — up to millions of configurations over a fine knob grid — can
//! be ranked exhaustively within seconds. Kernel analysis is shared
//! across all configurations with the same work-group size, so the sweep
//! re-runs only the closed-form model.
//!
//! The sweep engine schedules **chunks**: fixed-size slices of a
//! *family* (the contiguous run of enumerated configurations sharing one
//! work-group size and hence one [`KernelAnalysis`]). Chunks are claimed
//! by workers from a single atomic counter over a fixed schedule order,
//! which gives the levers [`DseOptions`] exposes:
//!
//! * **Parallelism** — workers steal the next unclaimed chunk regardless
//!   of family, so a sweep parallelizes even when one family dominates
//!   the space. Per-worker [`EvalContext`]s persist across stolen chunks
//!   keyed by family id, so the budget-keyed schedule memoization keeps
//!   its hit rate no matter which worker lands on a chunk. The schedule
//!   order is fixed up front: each family's tail chunk first (the
//!   high-parallelism corner of the space, which both starts every
//!   analysis in parallel and seeds the pruning incumbent with strong
//!   candidates), then the remaining chunks per family from tail to head.
//! * **Lazy materialization** — when sweeping a [`ConfigSpace`]
//!   ([`explore_space_cached`]), candidates are decoded per chunk by index
//!   arithmetic; the full candidate list is never allocated, which is
//!   what lets the space grow to 10⁶+ points per kernel.
//! * **Memoization** — kernel and platform are interned behind [`Arc`]s,
//!   each family is analyzed once behind a [`OnceLock`] (whichever worker
//!   touches it first), and completed analyses are kept in the
//!   caller-owned, bounded, content-keyed [`AnalysisCache`] passed to the
//!   sweep, so repeated sweeps over one cache skip profiling.
//!   [`DseResult::stats`] reports where the time went and how the caches
//!   performed.
//! * **Pruning with deterministic replay** — optionally, a chunk's mode
//!   whose cheap monotonic lower bound ([`cycle_lower_bound`]) exceeds
//!   the shared atomic incumbent is skipped without evaluating. The
//!   incumbent tightens globally across all workers, but reading it
//!   concurrently is racy, so the claim phase treats it as a *hint*: a
//!   serial replay pass afterwards recomputes every skip decision against
//!   the deterministic prefix incumbent (the best feasible point among
//!   chunks earlier in schedule order), re-evaluating chunks the racy
//!   incumbent over-pruned and dropping points it under-pruned. The
//!   returned result is therefore bit-identical at any thread count,
//!   chunk size, and timing; and since a chunk containing a point tied
//!   with the global minimum has a bound ≤ that minimum ≤ every prefix
//!   incumbent (the comparison is strict), [`DseResult::best`] always
//!   matches the exhaustive sweep.
//! * **Fault tolerance** — a candidate that fails (typed [`FlexclError`]
//!   on the normal path, a panic contained by [`std::panic::catch_unwind`]
//!   as a backstop) is recorded in the sweep's [`DiagnosticsReport`] and
//!   the sweep continues; a panicking candidate poisons neither its chunk
//!   nor its family's other chunks. Profiling runs under the
//!   [`ProfileFuel`] budget in [`DseOptions::fuel`], so a runaway kernel
//!   costs a bounded amount of work, not a hung worker.

use crate::analysis::{
    AnalysisScratch, AnalysisStages, KernelAnalysis, ProfileArgs, ProfileFuel, Workload,
};
use crate::config::{CommMode, ConfigSpace, DesignSpaceLimits, OptimizationConfig, SweepGrid};
use crate::error::{ErrorKind, FlexclError};
use crate::eval::EvalContext;
use crate::model::{cycle_lower_bound, Estimate};
use crate::platform::Platform;
use flexcl_frontend::types::Type;
use flexcl_ir::Function;
use flexcl_obs::{metrics, trace};
use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide sweep counters in the global metrics registry
/// ([`flexcl_obs::metrics::global`]): cumulative across every sweep this
/// process ran, complementing the per-sweep [`DseStats`]. Handles are
/// resolved once; the hot path touches only relaxed atomics.
struct DseMetrics {
    sweeps: metrics::Counter,
    chunks: metrics::Counter,
    steals: metrics::Counter,
    points: metrics::Counter,
    pruned_modes: metrics::Counter,
    repaired_chunks: metrics::Counter,
}

fn dse_metrics() -> &'static DseMetrics {
    static M: OnceLock<DseMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = metrics::global();
        DseMetrics {
            sweeps: g.counter("dse.sweeps"),
            chunks: g.counter("dse.chunks_processed"),
            steals: g.counter("dse.steals"),
            points: g.counter("dse.points_evaluated"),
            pruned_modes: g.counter("dse.pruned_modes"),
            repaired_chunks: g.counter("dse.repaired_chunks"),
        }
    })
}

/// Cooperative cancellation for a sweep: an optional wall-clock deadline
/// plus an explicit cancel flag, shared between the sweep's workers and
/// whoever is waiting on the result (a serving thread, a signal handler).
///
/// The token is checked at **chunk-claim boundaries**: an expired or
/// cancelled sweep stops claiming new work, lets in-flight chunks finish
/// (a chunk is the unit of isolation — bounded work, never a hung
/// worker), and returns [`FlexclError::Deadline`] carrying the partial
/// [`DseStats`] accumulated before the stop. A sweep observes the token
/// only when one is passed to [`explore_space_cached`].
///
/// Cloning shares the token: `cancel()` through any clone stops every
/// sweep holding one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Wall-clock stop time, fixed at construction.
    deadline: Option<Instant>,
    /// Deterministic trip wire for tests: remaining checkpoint passes
    /// before the token self-cancels. `u64::MAX` disables it.
    trip_after: AtomicU64,
}

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner {
            cancelled: AtomicBool::new(false),
            deadline: None,
            trip_after: AtomicU64::new(u64::MAX),
        }
    }
}

impl CancelToken {
    /// A token that never fires unless [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::at(Instant::now() + timeout)
    }

    /// A token that fires at the absolute instant `deadline`.
    pub fn at(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner { deadline: Some(deadline), ..CancelInner::default() }),
        }
    }

    /// A token that lets `n` checkpoint passes through and cancels on the
    /// next one — a deterministic stand-in for "the deadline fired at an
    /// arbitrary chunk boundary", used by the cancellation tests.
    pub fn after_checkpoints(n: u64) -> Self {
        let t = CancelToken::new();
        t.inner.trip_after.store(n, Ordering::SeqCst);
        t
    }

    /// Cancels the token; every sweep sharing it stops at its next
    /// chunk-claim boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once the token has been cancelled or its deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The sweep-side check, called before each chunk claim. Latches the
    /// cancelled flag (so `is_cancelled` stays true afterwards) and
    /// drives the deterministic trip wire.
    pub(crate) fn checkpoint(&self) -> bool {
        if self.is_cancelled() {
            self.inner.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        let tripped = self
            .inner
            .trip_after
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| match v {
                u64::MAX => None, // trip wire disabled
                0 => None,        // already tripped; latch below
                v => Some(v - 1),
            })
            .is_err_and(|v| v == 0);
        if tripped {
            self.inner.cancelled.store(true, Ordering::Relaxed);
        }
        tripped
    }

    /// Why the token fired, for the typed error's detail field.
    fn reason(&self) -> &'static str {
        if self.inner.deadline.is_some() {
            "deadline exceeded"
        } else {
            "cancelled"
        }
    }
}

/// Knobs of the sweep engine. The default — one thread, no pruning,
/// default fuel — is the exhaustive serial sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseOptions {
    /// Worker threads. `1` runs the chunk loop on the calling thread;
    /// larger values fan chunks out over scoped threads. The explored
    /// points are bit-identical either way.
    pub threads: usize,
    /// Branch-and-bound pruning. When enabled, whole `(chunk, comm_mode)`
    /// units may be skipped once the incumbent proves they cannot contain
    /// the fastest point; [`DseResult::best`] is unchanged, but dominated
    /// points may be missing from [`DseResult::points`]. The deterministic
    /// replay pass guarantees the surviving set depends only on the
    /// schedule order, never on thread timing.
    pub prune: bool,
    /// Fuel budget for each family's dynamic-profiling run. A kernel that
    /// exhausts it fails that family with
    /// [`ErrorKind::ResourceLimit`] instead of hanging the sweep.
    pub fuel: ProfileFuel,
    /// Candidates per work unit. `0` picks an automatic size that gives
    /// each worker ~32 chunks of slack (clamped to `16..=2048`). The
    /// explored points are bit-identical for every chunk size; smaller
    /// chunks balance better, larger chunks amortize claiming overhead.
    pub chunk_size: usize,
    /// Fault injection for the robustness test surface, scoped to this
    /// one sweep, so concurrent sweeps (a serving batch) can prove
    /// isolation. Production callers leave it `None`.
    #[doc(hidden)]
    pub inject: Option<testhook::InjectedFault>,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            threads: 1,
            prune: false,
            fuel: ProfileFuel::default(),
            chunk_size: 0,
            inject: None,
        }
    }
}

impl DseOptions {
    /// The chunk size a sweep over `total` candidates will use.
    fn effective_chunk_size(&self, total: usize) -> usize {
        if self.chunk_size > 0 {
            self.chunk_size
        } else {
            (total / (self.threads.max(1) * 32)).clamp(16, 2048)
        }
    }
}

/// One explored configuration with its estimate.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The configuration.
    pub config: OptimizationConfig,
    /// Its FlexCL estimate.
    pub estimate: Estimate,
}

/// One candidate the sweep had to skip, with the typed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedPoint {
    /// Enumeration index of the candidate in the swept configuration list.
    pub index: usize,
    /// The configuration that failed.
    pub config: OptimizationConfig,
    /// Classification of the failure.
    pub kind: ErrorKind,
    /// Human-readable detail (the error's display form, or the panic
    /// payload).
    pub message: String,
}

/// Per-sweep failure accounting: which candidates were skipped and why.
///
/// A fault-tolerant sweep never aborts on a bad candidate; it records the
/// failure here and keeps going. An empty report means every enumerated
/// candidate was evaluated (modulo branch-and-bound pruning, which is not
/// a failure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagnosticsReport {
    /// Failed candidates in enumeration order.
    pub failed: Vec<FailedPoint>,
}

impl DiagnosticsReport {
    /// Number of candidates skipped because of failures.
    pub fn skipped_count(&self) -> usize {
        self.failed.len()
    }

    /// `true` when no candidate failed.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }

    /// Number of failures of a given kind.
    pub fn count_of(&self, kind: ErrorKind) -> usize {
        self.failed.iter().filter(|f| f.kind == kind).count()
    }

    /// Failure counts grouped by [`ErrorKind`], most frequent first (ties
    /// break on first occurrence) — what a CLI or server prints instead
    /// of a hundred per-candidate lines.
    pub fn kind_counts(&self) -> Vec<(ErrorKind, usize)> {
        let mut counts: Vec<(ErrorKind, usize)> = Vec::new();
        for f in &self.failed {
            match counts.iter_mut().find(|(k, _)| *k == f.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((f.kind, 1)),
            }
        }
        counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        counts
    }

    /// Human-readable one-line breakdown, e.g. `config x3, panic x1`;
    /// empty string when the report is clean.
    pub fn summary(&self) -> String {
        self.kind_counts().iter().map(|(k, n)| format!("{k} x{n}")).collect::<Vec<_>>().join(", ")
    }
}

impl fmt::Display for DiagnosticsReport {
    /// A one-line human-readable verdict: `clean` for an empty report,
    /// otherwise the skipped count, the per-kind breakdown and the first
    /// failure's detail.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean (no candidates skipped)");
        }
        write!(
            f,
            "{} candidate(s) skipped [{}]; first: {}",
            self.skipped_count(),
            self.summary(),
            self.failed[0].message
        )
    }
}

/// Instrumentation counters for one sweep: where the time went, how
/// effective the cache layers were, and how the scheduler behaved.
///
/// The counters are diagnostics, not part of the modelled result: two
/// sweeps with different cache or stealing behaviour report different
/// stats but bit-identical [`DseResult::points`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Families whose kernel analysis ran or was fetched from cache.
    pub families_analyzed: usize,
    /// Candidate configurations successfully evaluated (including any
    /// re-evaluated by the deterministic replay pass).
    pub points_evaluated: usize,
    /// Families served by the sweep's [`AnalysisCache`].
    pub analysis_cache_hits: u64,
    /// Families that ran the full analysis (profiling included).
    pub analysis_cache_misses: u64,
    /// Entries evicted from the analysis cache by this sweep's inserts.
    pub analysis_cache_evictions: u64,
    /// Estimates served by a family's budget-keyed schedule cache
    /// ([`crate::eval::EvalContext`]).
    pub sched_cache_hits: u64,
    /// Estimates that had to run the schedulers.
    pub sched_cache_misses: u64,
    /// Wall-clock nanoseconds in kernel analysis (cache hits included).
    pub analysis_nanos: u64,
    /// Part of `analysis_nanos` spent profiling in the interpreter
    /// ([`AnalysisStages::profile_nanos`]; 0 for cache hits).
    pub profile_nanos: u64,
    /// Instructions the interpreter executed while profiling
    /// ([`AnalysisStages::profile_steps`]; 0 for cache hits).
    pub profile_steps: u64,
    /// Part of `analysis_nanos` spent on burst grouping and thread
    /// coarsening ([`AnalysisStages::group_nanos`]).
    pub group_nanos: u64,
    /// Part of `analysis_nanos` spent in DRAM replays, the contention
    /// curve included ([`AnalysisStages::replay_nanos`]).
    pub replay_nanos: u64,
    /// Wall-clock nanoseconds in the candidate-evaluation loops.
    pub estimate_nanos: u64,
    /// Wall-clock nanoseconds inside scheduler calls (subset of
    /// `estimate_nanos`).
    pub sched_nanos: u64,
    /// Work units the scheduler dispatched.
    pub chunks_processed: usize,
    /// Chunks a worker claimed from a different family than its previous
    /// chunk (each such claim switches the worker's evaluation context).
    pub steals: u64,
    /// Chunks the replay pass re-evaluated because the racy incumbent
    /// over-pruned them.
    pub repaired_chunks: usize,
    /// Wall-clock nanoseconds in the replay pass and the ordered assembly
    /// of [`DseResult::points`] (repair evaluations included).
    pub merge_nanos: u64,
    /// Candidates per work unit actually used
    /// ([`DseOptions::effective_chunk_size`] resolution of
    /// [`DseOptions::chunk_size`]).
    pub chunk_size: usize,
}

impl DseStats {
    /// Fraction of estimates served from the schedule caches.
    pub fn sched_cache_hit_rate(&self) -> f64 {
        let total = self.sched_cache_hits + self.sched_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.sched_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of families served from the analysis cache.
    pub fn analysis_cache_hit_rate(&self) -> f64 {
        let total = self.analysis_cache_hits + self.analysis_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.analysis_cache_hits as f64 / total as f64
        }
    }

    fn add_stages(&mut self, stages: &AnalysisStages) {
        self.profile_nanos += stages.profile_nanos;
        self.profile_steps += stages.profile_steps;
        self.group_nanos += stages.group_nanos;
        self.replay_nanos += stages.replay_nanos;
    }

    fn merge(&mut self, other: &DseStats) {
        self.families_analyzed += other.families_analyzed;
        self.points_evaluated += other.points_evaluated;
        self.analysis_cache_hits += other.analysis_cache_hits;
        self.analysis_cache_misses += other.analysis_cache_misses;
        self.analysis_cache_evictions += other.analysis_cache_evictions;
        self.sched_cache_hits += other.sched_cache_hits;
        self.sched_cache_misses += other.sched_cache_misses;
        self.analysis_nanos += other.analysis_nanos;
        self.profile_nanos += other.profile_nanos;
        self.profile_steps += other.profile_steps;
        self.group_nanos += other.group_nanos;
        self.replay_nanos += other.replay_nanos;
        self.estimate_nanos += other.estimate_nanos;
        self.sched_nanos += other.sched_nanos;
        self.chunks_processed += other.chunks_processed;
        self.steals += other.steals;
        self.repaired_chunks += other.repaired_chunks;
        self.merge_nanos += other.merge_nanos;
        // chunk_size is configuration, not a counter; the engine sets it.
    }
}

impl fmt::Display for DseStats {
    /// A human-readable summary table — what the `dse` and `flexcl`
    /// binaries print under `--verbose` instead of a raw field dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(f, "  points evaluated : {}", self.points_evaluated)?;
        writeln!(
            f,
            "  chunks processed : {} (size {}, {} steals, {} repaired)",
            self.chunks_processed, self.chunk_size, self.steals, self.repaired_chunks
        )?;
        writeln!(
            f,
            "  families         : {} ({} analysis-cache hits / {} misses, {} evictions)",
            self.families_analyzed,
            self.analysis_cache_hits,
            self.analysis_cache_misses,
            self.analysis_cache_evictions
        )?;
        writeln!(
            f,
            "  sched cache      : {:.1}% hit ({} hits / {} misses)",
            self.sched_cache_hit_rate() * 100.0,
            self.sched_cache_hits,
            self.sched_cache_misses
        )?;
        writeln!(
            f,
            "  phase time       : analysis {:.2} ms, estimate {:.2} ms (sched {:.2} ms), \
             merge {:.2} ms",
            ms(self.analysis_nanos),
            ms(self.estimate_nanos),
            ms(self.sched_nanos),
            ms(self.merge_nanos)
        )?;
        write!(
            f,
            "  analysis stages  : profile {:.2} ms, group {:.2} ms, replay {:.2} ms \
             ({} profiled steps)",
            ms(self.profile_nanos),
            ms(self.group_nanos),
            ms(self.replay_nanos),
            self.profile_steps
        )
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// All evaluated points, in enumeration order.
    pub points: Vec<DesignPoint>,
    /// Wall-clock time of the sweep (including kernel analyses).
    pub elapsed: Duration,
    /// Candidates that failed and were skipped.
    pub diagnostics: DiagnosticsReport,
    /// Timing and cache instrumentation for the sweep.
    pub stats: DseStats,
}

impl DseResult {
    /// The fastest feasible point.
    ///
    /// Ties on the cycle count are broken toward the earliest enumerated
    /// configuration, so the answer is a deterministic function of the
    /// explored set — independent of thread count, pruning, or iteration
    /// internals.
    pub fn best(&self) -> Option<&DesignPoint> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.estimate.feasible)
            .min_by(|(ia, a), (ib, b)| {
                a.estimate.cycles.total_cmp(&b.estimate.cycles).then(ia.cmp(ib))
            })
            .map(|(_, p)| p)
    }

    /// Number of feasible points.
    pub fn feasible_count(&self) -> usize {
        self.points.iter().filter(|p| p.estimate.feasible).count()
    }

    /// Among configurations meeting a cycle budget, the one with the
    /// smallest estimated area — the paper's "solutions subject to a user
    /// defined performance constraint" query (§1). Each candidate's area
    /// is costed once; ties break toward the earliest enumerated point.
    pub fn cheapest_meeting(
        &self,
        analysis: &KernelAnalysis,
        max_cycles: f64,
    ) -> Option<DesignPoint> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.estimate.feasible && p.estimate.cycles <= max_cycles)
            .map(|(i, p)| {
                let cost = crate::area::estimate_area(analysis, &p.config).cost(&analysis.platform);
                (i, p, cost)
            })
            .min_by(|(ia, _, ca), (ib, _, cb)| ca.total_cmp(cb).then(ia.cmp(ib)))
            .map(|(_, p, _)| p.clone())
    }

    /// The performance/area Pareto frontier of the explored space.
    pub fn pareto(&self, analysis: &KernelAnalysis) -> Vec<crate::area::ParetoPoint> {
        let pts =
            self.points.iter().filter(|p| p.estimate.feasible).map(|p| crate::area::ParetoPoint {
                config: p.config,
                cycles: p.estimate.cycles,
                area: crate::area::estimate_area(analysis, &p.config),
            });
        crate::area::pareto_frontier(&analysis.platform, pts)
    }

    /// Speedup of the best point over the unoptimized baseline
    /// configuration (the §4.3 "273× on average" metric).
    ///
    /// Baseline selection rule: among feasible points with every knob at
    /// its default (no work-item pipelining, one scalar PE, one CU, no
    /// vectorization — work-group size and communication mode free), the
    /// *slowest* is the baseline: it represents the naive port before any
    /// optimization attention. Ties on the cycle count break toward the
    /// earliest enumerated configuration.
    pub fn speedup_over_baseline(&self) -> Option<f64> {
        let best = self.best()?;
        let baseline = self
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.estimate.feasible
                    && !p.config.work_item_pipeline
                    && p.config.num_pes == 1
                    && p.config.num_cus == 1
                    && p.config.vector_width == 1
            })
            .max_by(|(ia, a), (ib, b)| {
                a.estimate.cycles.total_cmp(&b.estimate.cycles).then(ib.cmp(ia))
            })
            .map(|(_, p)| p)?;
        Some(baseline.estimate.cycles / best.estimate.cycles)
    }
}

/// Derives the design-space limits for a kernel/workload pair.
pub fn limits_for(func: &Function, workload: &Workload) -> DesignSpaceLimits {
    let vector_params = func.params.iter().any(|p| match &p.ty {
        Type::Pointer(elem, _) => elem.lanes() > 1,
        t => t.lanes() > 1,
    });
    DesignSpaceLimits {
        global_x: workload.global.0,
        global_y: workload.global.1,
        has_barrier: func.has_barrier(),
        reqd_work_group: func.reqd_work_group_size.map(|(x, y, _)| (x, y)),
        vectorizable: !vector_params && !func.has_barrier(),
        iterative: crate::config::is_iterative_stencil(&func.name),
    }
}

/// The explicit candidate configurations sharing one work-group size
/// (hence one kernel analysis), in caller order, tagged with their
/// positions in the caller's list.
struct Family {
    work_group: (u32, u32),
    entries: Vec<(usize, OptimizationConfig)>,
}

/// What the engine sweeps: either a lazy [`ConfigSpace`] (chunks decoded
/// on demand, nothing materialized up front) or an explicit pre-validated
/// candidate list partitioned into families.
enum CandidateSet<'a> {
    Space(&'a ConfigSpace),
    Explicit(&'a [Family]),
}

impl CandidateSet<'_> {
    fn family_count(&self) -> usize {
        match self {
            CandidateSet::Space(s) => s.family_count(),
            CandidateSet::Explicit(fams) => fams.len(),
        }
    }

    fn family_work_group(&self, f: usize) -> (u32, u32) {
        match self {
            CandidateSet::Space(s) => s.family_work_group(f),
            CandidateSet::Explicit(fams) => fams[f].work_group,
        }
    }

    fn family_len(&self, f: usize) -> usize {
        match self {
            CandidateSet::Space(s) => s.family_len(f),
            CandidateSet::Explicit(fams) => fams[f].entries.len(),
        }
    }

    /// Appends family `f`'s candidates `[start, start + len)` to `out` as
    /// `(enumeration index, config)` pairs.
    fn fill(&self, f: usize, start: usize, len: usize, out: &mut Vec<(usize, OptimizationConfig)>) {
        match self {
            CandidateSet::Space(s) => s.fill_family_range(f, start, len, out),
            CandidateSet::Explicit(fams) => {
                let entries = &fams[f].entries;
                let end = (start + len).min(entries.len());
                out.extend_from_slice(&entries[start..end]);
            }
        }
    }
}

/// Best feasible cycle count seen so far across all workers, stored as the
/// bit pattern of a positive `f64` (for which integer ordering coincides
/// with float ordering, so `fetch_min` maintains the float minimum).
///
/// During the claim phase this is a pruning *hint* only; the replay pass
/// recomputes all decisions against the deterministic prefix incumbent.
struct Incumbent(AtomicU64);

impl Incumbent {
    fn new() -> Self {
        Incumbent(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn offer(&self, cycles: f64) {
        if cycles.is_finite() && cycles >= 0.0 {
            let bits = cycles.to_bits();
            // Cheap load first: most offers lose, and a read avoids
            // bouncing the cache line exclusive across workers.
            if bits < self.0.load(Ordering::Relaxed) {
                self.0.fetch_min(bits, Ordering::Relaxed);
            }
        }
    }
}

/// `[barrier, pipeline]` array index of a communication mode.
fn mode_idx(mode: CommMode) -> usize {
    match mode {
        CommMode::Barrier => 0,
        CommMode::Pipeline => 1,
    }
}

/// One work unit: a slice of one family, in family-local candidate
/// coordinates.
#[derive(Debug, Clone, Copy)]
struct ChunkRef {
    family: usize,
    start: usize,
    len: usize,
}

/// Builds the fixed schedule order the atomic claim counter walks.
///
/// Round 0 is every family's tail chunk in family order: the tail of a
/// family holds its highest-parallelism configurations (largest PE / CU /
/// vector counts enumerate last), so this both kicks off all kernel
/// analyses in parallel and seeds the incumbent with strong candidates
/// before the bulk of the space is touched. The remaining chunks follow
/// family-major, tail-1 down to the head, so consecutive claims usually
/// stay within one family and reuse the worker's evaluation context.
fn build_schedule(family_lens: &[usize], chunk_size: usize) -> Vec<ChunkRef> {
    let n_chunks: Vec<usize> = family_lens.iter().map(|&l| l.div_ceil(chunk_size)).collect();
    let mut sched = Vec::with_capacity(n_chunks.iter().sum());
    for (f, (&len, &n)) in family_lens.iter().zip(&n_chunks).enumerate() {
        if n > 0 {
            let start = (n - 1) * chunk_size;
            sched.push(ChunkRef { family: f, start, len: len - start });
        }
    }
    for (f, &n) in n_chunks.iter().enumerate() {
        for c in (0..n.saturating_sub(1)).rev() {
            sched.push(ChunkRef { family: f, start: c * chunk_size, len: chunk_size });
        }
    }
    sched
}

/// What one chunk contributed to the sweep: evaluated points in candidate
/// order, failures tagged with their indices, and the pruning decision
/// the claim phase applied (so replay can audit it).
#[derive(Default)]
struct ChunkOutcome {
    points: Vec<DesignPoint>,
    failed: Vec<FailedPoint>,
    /// Per-mode `[barrier, pipeline]`: `true` if the claim phase skipped
    /// that mode's candidates against the racy incumbent.
    skipped: [bool; 2],
    /// `true` if the claiming worker's previous chunk was a different
    /// family (the claim switched its evaluation context).
    stole: bool,
    stats: DseStats,
}

/// Per-family shared state: the analysis is computed once by whichever
/// worker claims one of the family's chunks first; every other chunk
/// reads the settled value.
struct FamilyState {
    work_group: (u32, u32),
    analysis: OnceLock<FamilyAnalysis>,
}

/// The settled result of analyzing one family.
enum FamilyAnalysis {
    Ready {
        analysis: Arc<KernelAnalysis>,
        /// `cycle_lower_bound` per mode `[barrier, pipeline]`.
        bounds: [f64; 2],
        from_cache: bool,
        evictions: u64,
        nanos: u64,
        stages: AnalysisStages,
    },
    /// The work-group does not tile the NDRange; the family is skipped
    /// silently (the enumerated space is generated before geometry is
    /// checked).
    Geometry { nanos: u64 },
    /// Analysis failed (typed error or contained panic); every candidate
    /// of the family is reported with this reason.
    Failed { kind: ErrorKind, message: String, nanos: u64, stages: AnalysisStages },
}

/// Memoization of kernel analyses, keyed by the *content* of everything
/// the analysis depends on.
///
/// A sweep's families already share one analysis each; this layer shares
/// them across sweeps, so a benchmark harness or parameter study that
/// re-explores the same kernel skips interpretation/profiling entirely.
/// The key fingerprints the kernel IR, the platform tables and the
/// workload (shape *and* argument values — profiling executes the kernel,
/// so trip counts and the memory trace can depend on data). Two 64-bit
/// lanes with independent seeds and multipliers make an accidental
/// collision across the resident entries implausible. The key lives only
/// in this process, so it needs to be stable within one build, not across
/// builds. Capacity is fixed at 256 entries; eviction is FIFO, oldest
/// entry first, so a parameter study cycling through kernels keeps its
/// working set instead of dropping everything at once.
///
/// There is no process-wide instance: every sweep names the
/// [`AnalysisCache`] it reuses from, so its lifetime is the caller's — a
/// server scopes reuse to its own instance, a benchmark holds one across
/// warm repetitions, and a fresh cache is a cold start.
mod analysis_cache {
    use super::*;
    use flexcl_interp::KernelArg;

    /// Identity of one analysis: content fingerprint plus the analysis
    /// parameters that are not part of the fingerprinted inputs.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) struct Key {
        pub fingerprint: (u64, u64),
        pub work_group: (u32, u32),
        pub fuel: ProfileFuel,
    }

    /// Resident entries before eviction. A serving instance sees many
    /// kernels with up to ~10 work-group families each; 256 keeps a few
    /// dozen of them resident. An analysis holds summaries, not its
    /// profiled trace, so each entry is small.
    pub(super) const CAP: usize = 256;

    /// A content-keyed store of settled [`KernelAnalysis`] values,
    /// shareable across sweeps. All methods take `&self`; the store is a
    /// single mutex over a small FIFO vector (lookups are off the
    /// estimation hot loop — one per family per sweep).
    #[derive(Debug, Default)]
    pub struct AnalysisCache {
        entries: Mutex<Vec<(Key, Arc<KernelAnalysis>)>>,
    }

    /// Two independent 64-bit hash lanes fed one word at a time.
    ///
    /// Each step xors the word into a lane and applies a multiply by an
    /// odd constant and a xorshift. For a fixed word that step is a
    /// bijection on the lane state, so two equal-length inputs that differ
    /// in one word always end in different states in *both* lanes. The
    /// lanes are independent dependency chains, so a large argument buffer
    /// costs about one multiply latency per element.
    struct Lanes {
        a: u64,
        b: u64,
    }

    impl Lanes {
        const MUL_A: u64 = 0xff51_afd7_ed55_8ccd;
        const MUL_B: u64 = 0xc4ce_b9fe_1a85_ec53;

        fn new() -> Self {
            Lanes { a: 0x9e37_79b9_7f4a_7c15, b: 0xc2b2_ae3d_27d4_eb4f }
        }

        #[inline]
        fn word(&mut self, w: u64) {
            let a = (self.a ^ w).wrapping_mul(Self::MUL_A);
            self.a = a ^ (a >> 32);
            let b = (self.b ^ w).wrapping_mul(Self::MUL_B);
            self.b = b ^ (b >> 29);
        }

        fn bytes(&mut self, bytes: &[u8]) {
            self.word(bytes.len() as u64);
            let mut words = bytes.chunks_exact(8);
            for w in words.by_ref() {
                self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            }
            let mut tail = [0u8; 8];
            tail[..words.remainder().len()].copy_from_slice(words.remainder());
            self.word(u64::from_le_bytes(tail));
        }

        /// Full avalanche of each lane (the splitmix64 finalizer).
        fn finish(self) -> (u64, u64) {
            let fmix = |mut x: u64| {
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            (fmix(self.a), fmix(self.b))
        }
    }

    /// Content fingerprint of `(func, platform, workload)`.
    pub(super) fn fingerprint(
        func: &Function,
        platform: &Platform,
        workload: &Workload,
    ) -> (u64, u64) {
        // The IR and platform are plain data with derived `Debug`; their
        // debug forms are injective enough to serve as a structural
        // serialization. Argument payloads are hashed numerically (a large
        // FloatBuf would be quadratic to format).
        let structural = format!("{func:?}|{platform:?}|{:?}", workload.global);
        let mut h = Lanes::new();
        h.bytes(structural.as_bytes());
        h.word(workload.args.len() as u64);
        for arg in &workload.args {
            match arg {
                KernelArg::Int(v) => {
                    h.word(0);
                    h.word(*v as u64);
                }
                KernelArg::Float(v) => {
                    h.word(1);
                    h.word(v.to_bits());
                }
                KernelArg::IntBuf(v) => {
                    h.word(2);
                    h.word(v.len() as u64);
                    for x in v {
                        h.word(*x as u64);
                    }
                }
                KernelArg::FloatBuf(v) => {
                    h.word(3);
                    h.word(v.len() as u64);
                    for x in v {
                        h.word(x.to_bits());
                    }
                }
            }
        }
        h.finish()
    }

    impl AnalysisCache {
        /// An empty cache holding up to 256 analyses.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Resident entry count (diagnostics / tests).
        #[must_use]
        pub fn len(&self) -> usize {
            self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// True when no analysis is resident.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The analysis of `func` on `workload` at `work_group` under
        /// `fuel`: the resident one when a sweep (or an earlier call) with
        /// the same inputs settled it — the key is the one sweeps use —
        /// else a fresh [`KernelAnalysis::analyze`], inserted.
        ///
        /// # Errors
        ///
        /// As [`KernelAnalysis::analyze`].
        pub fn get_or_analyze(
            &self,
            func: &Function,
            platform: &Platform,
            workload: &Workload,
            work_group: (u32, u32),
            fuel: ProfileFuel,
        ) -> Result<Arc<KernelAnalysis>, FlexclError> {
            let key = Key { fingerprint: fingerprint(func, platform, workload), work_group, fuel };
            self.settle(key, || {
                KernelAnalysis::analyze_interned(
                    Arc::new(func.clone()),
                    Arc::new(platform.clone()),
                    &mut ProfileArgs::new(workload),
                    work_group,
                    fuel,
                    &mut AnalysisScratch::new(),
                )
            })
            .0
        }

        /// The analysis resident under `key`, else `analyze`'s, inserted
        /// when it succeeds — with whether it was resident and how many
        /// entries the insert evicted.
        pub(super) fn settle(
            &self,
            key: Key,
            analyze: impl FnOnce() -> Result<KernelAnalysis, FlexclError>,
        ) -> (Result<Arc<KernelAnalysis>, FlexclError>, bool, u64) {
            if let Some(hit) = self.lookup(&key) {
                return (Ok(hit), true, 0);
            }
            let fresh = analyze().map(Arc::new);
            let evictions = match &fresh {
                Ok(a) => self.insert(key, a, CAP),
                Err(_) => 0,
            };
            (fresh, false, evictions)
        }

        pub(super) fn lookup(&self, key: &Key) -> Option<Arc<KernelAnalysis>> {
            let cache = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            cache.iter().find(|(k, _)| k == key).map(|(_, a)| Arc::clone(a))
        }

        /// Inserts under a FIFO policy bounded by `cap`; returns how many
        /// resident entries were evicted to make room.
        pub(super) fn insert(&self, key: Key, analysis: &Arc<KernelAnalysis>, cap: usize) -> u64 {
            let mut cache = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if cache.iter().any(|(k, _)| *k == key) {
                return 0; // racing workers computed the same analysis
            }
            debug_assert!(cap > 0, "analysis cache capacity must be positive");
            let mut evicted = 0;
            while cache.len() >= cap {
                cache.remove(0);
                evicted += 1;
            }
            cache.push((key, Arc::clone(analysis)));
            evicted
        }
    }
}

pub use analysis_cache::AnalysisCache;

/// Renders a caught panic payload for the diagnostics report.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The sweep-wide inputs shared by every chunk: what to analyze, how,
/// and the precomputed analysis-cache fingerprint.
#[derive(Clone, Copy)]
struct SweepInputs<'a> {
    func: &'a Arc<Function>,
    platform: &'a Arc<Platform>,
    workload: &'a Workload,
    opts: DseOptions,
    fingerprint: (u64, u64),
    /// The caller-owned analysis store this sweep reuses from.
    cache: &'a AnalysisCache,
    /// Trace id of the enclosing `dse.sweep` span (`0` when tracing is
    /// off) — the explicit parent for spans opened on worker threads,
    /// which do not inherit the sweep thread's span stack.
    span: u64,
}

/// The parent for a span opened inside sweep machinery: the innermost
/// open span if this thread has one (the serial path, or a live sampled
/// chunk span), else the sweep's root span (worker threads).
fn sweep_parent(sweep: &SweepInputs<'_>) -> u64 {
    match trace::current_span_id() {
        0 => sweep.span,
        p => p,
    }
}

/// Analyzes one family (cache-aware, panic-contained) and settles its
/// [`FamilyAnalysis`].
fn analyze_family(
    sweep: &SweepInputs<'_>,
    work_group: (u32, u32),
    args: &mut ProfileArgs<'_>,
    scratch: &mut AnalysisScratch,
) -> FamilyAnalysis {
    let SweepInputs { func, platform, opts, fingerprint, cache, .. } = *sweep;
    let mut span = trace::span_with_parent("dse.analysis", sweep_parent(sweep));
    span.attr_u64("wg_x", u64::from(work_group.0));
    span.attr_u64("wg_y", u64::from(work_group.1));
    let key = analysis_cache::Key { fingerprint, work_group, fuel: opts.fuel };
    let t = Instant::now();
    let stages_before = scratch.stages();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(testhook::InjectedFault::AnalysisPanic(target)) = opts.inject {
            if target.is_none_or(|wg| wg == work_group) {
                panic!(
                    "testhook: injected panic analyzing work-group {}x{}",
                    work_group.0, work_group.1
                );
            }
        }
        cache.settle(key, || {
            let (func, platform) = (Arc::clone(func), Arc::clone(platform));
            KernelAnalysis::analyze_interned(func, platform, args, work_group, opts.fuel, scratch)
        })
    }));
    let nanos = t.elapsed().as_nanos() as u64;
    let stages = scratch.stages().since(stages_before);
    match outcome {
        Ok((Ok(analysis), from_cache, evictions)) => {
            span.attr_u64("from_cache", u64::from(from_cache));
            let bounds = [
                cycle_lower_bound(&analysis, CommMode::Barrier),
                cycle_lower_bound(&analysis, CommMode::Pipeline),
            ];
            FamilyAnalysis::Ready { analysis, bounds, from_cache, evictions, nanos, stages }
        }
        Ok((Err(e), _, _)) if e.kind() == ErrorKind::Geometry => FamilyAnalysis::Geometry { nanos },
        Ok((Err(e), _, _)) => {
            FamilyAnalysis::Failed { kind: e.kind(), message: e.to_string(), nanos, stages }
        }
        Err(payload) => FamilyAnalysis::Failed {
            kind: ErrorKind::Panic,
            message: format!("analysis panicked: {}", panic_message(payload)),
            nanos,
            stages,
        },
    }
}

/// Evaluates `entries` (those whose mode is kept) through `ctx`,
/// accumulating points, failures and instrumentation into `out`.
///
/// Shared by the claim phase and the replay repair pass, so a repaired
/// chunk is bit-identical to what the claim phase would have produced:
/// the estimates are pure functions of `(analysis, config)`.
fn evaluate_entries<A: Borrow<KernelAnalysis>>(
    ctx: &mut EvalContext<A>,
    entries: &[(usize, OptimizationConfig)],
    keep: [bool; 2],
    incumbent: &Incumbent,
    inject: Option<testhook::InjectedFault>,
    out: &mut ChunkOutcome,
) {
    let before = ctx.stats;
    let points_before = out.stats.points_evaluated;
    let t = Instant::now();
    out.points.reserve(entries.len());
    for &(idx, cfg) in entries {
        if !keep[mode_idx(cfg.comm_mode)] {
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| {
            if inject == Some(testhook::InjectedFault::EstimatePanic(idx)) {
                panic!("testhook: injected panic for candidate {idx}");
            }
            ctx.estimate(&cfg)
        })) {
            Ok(Ok(est)) => {
                if est.feasible {
                    incumbent.offer(est.cycles);
                }
                out.stats.points_evaluated += 1;
                out.points.push(DesignPoint { config: cfg, estimate: est });
            }
            Ok(Err(e)) => out.failed.push(FailedPoint {
                index: idx,
                config: cfg,
                kind: e.kind(),
                message: e.to_string(),
            }),
            Err(payload) => out.failed.push(FailedPoint {
                index: idx,
                config: cfg,
                kind: ErrorKind::Panic,
                message: format!("estimate panicked: {}", panic_message(payload)),
            }),
        }
    }
    out.stats.estimate_nanos += t.elapsed().as_nanos() as u64;
    out.stats.sched_cache_hits += ctx.stats.sched_cache_hits - before.sched_cache_hits;
    out.stats.sched_cache_misses += ctx.stats.sched_cache_misses - before.sched_cache_misses;
    out.stats.sched_nanos += ctx.stats.sched_nanos - before.sched_nanos;
    // One registry update per batch, not per point: live process-wide
    // progress at negligible hot-loop cost.
    dse_metrics().points.add((out.stats.points_evaluated - points_before) as u64);
}

/// Processes one claimed chunk: settles its family's analysis if first,
/// applies the racy pruning hint, and evaluates the surviving candidates.
#[allow(clippy::too_many_arguments)]
fn process_chunk(
    sweep: &SweepInputs<'_>,
    set: &CandidateSet<'_>,
    states: &[FamilyState],
    chunk: ChunkRef,
    incumbent: &Incumbent,
    ctxs: &mut HashMap<usize, EvalContext<Arc<KernelAnalysis>>>,
    args: &mut ProfileArgs<'_>,
    scratch: &mut AnalysisScratch,
    buf: &mut Vec<(usize, OptimizationConfig)>,
) -> ChunkOutcome {
    let mut out = ChunkOutcome::default();
    let state = &states[chunk.family];
    let fam = state.analysis.get_or_init(|| analyze_family(sweep, state.work_group, args, scratch));
    match fam {
        FamilyAnalysis::Geometry { .. } => {}
        FamilyAnalysis::Failed { kind, message, .. } => {
            buf.clear();
            set.fill(chunk.family, chunk.start, chunk.len, buf);
            for &(idx, cfg) in buf.iter() {
                out.failed.push(FailedPoint {
                    index: idx,
                    config: cfg,
                    kind: *kind,
                    message: message.clone(),
                });
            }
        }
        FamilyAnalysis::Ready { analysis, bounds, .. } => {
            // Branch-and-bound hint: a mode whose optimistic bound cannot
            // beat the incumbent is skipped. The comparison is strict, so
            // any chunk containing a point tied with the global minimum
            // survives (its bound is ≤ that minimum ≤ the incumbent at
            // all times); replay audits the rest.
            let inc = incumbent.get();
            let keep =
                [!sweep.opts.prune || bounds[0] <= inc, !sweep.opts.prune || bounds[1] <= inc];
            out.skipped = [!keep[0], !keep[1]];
            let pruned = u64::from(out.skipped[0]) + u64::from(out.skipped[1]);
            if pruned > 0 {
                dse_metrics().pruned_modes.add(pruned);
            }
            if keep[0] || keep[1] {
                buf.clear();
                set.fill(chunk.family, chunk.start, chunk.len, buf);
                let ctx = ctxs
                    .entry(chunk.family)
                    .or_insert_with(|| EvalContext::new(Arc::clone(analysis)));
                evaluate_entries(ctx, buf, keep, incumbent, sweep.opts.inject, &mut out);
            }
        }
    }
    out
}

/// The claim loop every worker runs: grab the next unclaimed chunk from
/// the shared counter, process it, park the outcome in its slot. The
/// cancellation token is consulted before every claim — the boundary at
/// which a deadline-bounded sweep stops stealing work mid-flight.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    sweep: &SweepInputs<'_>,
    set: &CandidateSet<'_>,
    states: &[FamilyState],
    sched: &[ChunkRef],
    next: &AtomicUsize,
    incumbent: &Incumbent,
    slots: &[Mutex<Option<ChunkOutcome>>],
    cancel: Option<&CancelToken>,
) {
    let mut args = ProfileArgs::new(sweep.workload);
    let mut scratch = AnalysisScratch::new();
    let mut ctxs: HashMap<usize, EvalContext<Arc<KernelAnalysis>>> = HashMap::new();
    let mut buf: Vec<(usize, OptimizationConfig)> = Vec::new();
    let mut last_family: Option<usize> = None;
    loop {
        if cancel.is_some_and(|c| c.checkpoint()) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&chunk) = sched.get(i) else { break };
        let stole = last_family.is_some_and(|f| f != chunk.family);
        last_family = Some(chunk.family);
        // Sampled per-chunk span: 1-in-N keeps tracing affordable across
        // the tens of thousands of chunks a fine-grid sweep claims.
        let mut chunk_span = trace::span_sampled("dse.chunk", sweep.span);
        if chunk_span.is_live() {
            chunk_span.attr_u64("family", chunk.family as u64);
            chunk_span.attr_u64("len", chunk.len as u64);
            chunk_span.attr_u64("stole", u64::from(stole));
        }
        let mut out = process_chunk(
            sweep,
            set,
            states,
            chunk,
            incumbent,
            &mut ctxs,
            &mut args,
            &mut scratch,
            &mut buf,
        );
        out.stole = stole;
        drop(chunk_span);
        let m = dse_metrics();
        m.chunks.inc();
        if stole {
            m.steals.inc();
        }
        // Panics inside process_chunk are contained, so the lock can only
        // be poisoned by a crash in this bookkeeping itself; recover the
        // data either way.
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
    }
}

/// A finished sweep plus, for every chunk in candidate order, the modes
/// whose points survived replay. A chunk's points are exactly its
/// candidates of those modes that did not fail, which is how
/// [`explore_configs`] maps points back to the caller's positions
/// without tagging each point on the hot loop.
struct SweepOutput {
    result: DseResult,
    chunks: Vec<(ChunkRef, [bool; 2])>,
}

/// Runs the chunked sweep over `set` and assembles the points in
/// candidate order: families in order, each family's candidates in
/// order. `failed` carries upfront validation failures from the explicit
/// path. With a cancellation token, a deadline or explicit
/// cancel stops the claim loop and the call returns
/// [`FlexclError::Deadline`] carrying the partial [`DseStats`].
#[allow(clippy::too_many_arguments)]
fn run_sweep(
    func: &Function,
    platform: &Platform,
    workload: &Workload,
    set: &CandidateSet<'_>,
    mut failed: Vec<FailedPoint>,
    opts: DseOptions,
    start: Instant,
    cancel: Option<&CancelToken>,
    cache: &AnalysisCache,
) -> Result<SweepOutput, FlexclError> {
    // Intern the kernel and platform once; every family's analysis shares
    // these allocations instead of cloning them.
    let func = Arc::new(func.clone());
    let platform = Arc::new(platform.clone());

    // One content fingerprint covers the whole sweep: families differ only
    // in work-group size, which is part of the cache key, not the hash.
    let fingerprint = analysis_cache::fingerprint(&func, &platform, workload);

    let family_lens: Vec<usize> = (0..set.family_count()).map(|f| set.family_len(f)).collect();
    let total: usize = family_lens.iter().sum();
    let chunk_size = opts.effective_chunk_size(total);

    dse_metrics().sweeps.inc();
    let mut sweep_span = trace::span("dse.sweep");
    sweep_span.attr_str("kernel", &func.name);
    sweep_span.attr_u64("points", total as u64);
    sweep_span.attr_u64("families", family_lens.len() as u64);
    sweep_span.attr_u64("threads", opts.threads.max(1) as u64);
    sweep_span.attr_u64("chunk_size", chunk_size as u64);
    let sweep = SweepInputs {
        func: &func,
        platform: &platform,
        workload,
        opts,
        fingerprint,
        cache,
        span: sweep_span.id(),
    };
    let sched = build_schedule(&family_lens, chunk_size);
    let states: Vec<FamilyState> = (0..set.family_count())
        .map(|f| FamilyState { work_group: set.family_work_group(f), analysis: OnceLock::new() })
        .collect();

    let incumbent = Incumbent::new();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ChunkOutcome>>> = sched.iter().map(|_| Mutex::new(None)).collect();

    let workers = opts.threads.max(1).min(sched.len().max(1));
    if workers <= 1 {
        worker_loop(&sweep, set, &states, &sched, &next, &incumbent, &slots, cancel);
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    worker_loop(&sweep, set, &states, &sched, &next, &incumbent, &slots, cancel)
                });
            }
        });
    }

    // A tripped token means some tail of the schedule was never claimed:
    // the design points are incomplete and are discarded, but the
    // instrumentation from the chunks that did finish rides out on the
    // typed error so callers can see how far the sweep got.
    if cancel.is_some_and(|c| c.checkpoint()) {
        let mut stats = DseStats { chunk_size, ..DseStats::default() };
        for slot in &slots {
            let Some(out) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() else {
                continue;
            };
            stats.chunks_processed += 1;
            stats.steals += u64::from(out.stole);
            stats.merge(&out.stats);
        }
        account_families(&states, &mut stats);
        sweep_span.attr_str("outcome", cancel.map_or("cancelled", |c| c.reason()));
        return Err(FlexclError::Deadline {
            elapsed_ms: start.elapsed().as_millis() as u64,
            detail: cancel.map_or("cancelled", |c| c.reason()).to_string(),
            stats: Box::new(stats),
        });
    }

    // Deterministic replay: walk the chunks in schedule order, maintaining
    // the prefix incumbent (best feasible cycle count among *kept* points
    // of earlier chunks), and recompute every pruning decision against it.
    // Chunks the racy incumbent over-pruned are re-evaluated; points it
    // under-pruned are dropped. The surviving set is a pure function of
    // the schedule order and the model — identical at any thread count,
    // chunk size, and timing.
    let t_merge = Instant::now();
    let mut replay_span = trace::span("dse.replay");
    let mut stats = DseStats { chunks_processed: sched.len(), chunk_size, ..DseStats::default() };
    let mut runs: Vec<Vec<DesignPoint>> = Vec::with_capacity(sched.len());
    let mut kept_modes: Vec<[bool; 2]> = Vec::with_capacity(sched.len());
    let mut prefix_best = f64::INFINITY;
    let mut repair_ctxs: HashMap<usize, EvalContext<Arc<KernelAnalysis>>> = HashMap::new();
    let mut buf: Vec<(usize, OptimizationConfig)> = Vec::new();
    for (i, &chunk) in sched.iter().enumerate() {
        let mut out = slots[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("every chunk index was claimed by a worker");
        stats.steals += u64::from(out.stole);
        let mut keep = [false; 2];
        if let Some(FamilyAnalysis::Ready { analysis, bounds, .. }) =
            states[chunk.family].analysis.get()
        {
            keep =
                [!opts.prune || bounds[0] <= prefix_best, !opts.prune || bounds[1] <= prefix_best];
            // Drop what the racy hint under-pruned...
            if keep != [true, true] {
                out.points.retain(|p| keep[mode_idx(p.config.comm_mode)]);
                out.failed.retain(|f| keep[mode_idx(f.config.comm_mode)]);
            }
            // ...and repair what it over-pruned.
            let need = [keep[0] && out.skipped[0], keep[1] && out.skipped[1]];
            if need[0] || need[1] {
                buf.clear();
                set.fill(chunk.family, chunk.start, chunk.len, &mut buf);
                if buf.iter().any(|(_, c)| need[mode_idx(c.comm_mode)]) {
                    let ctx = repair_ctxs
                        .entry(chunk.family)
                        .or_insert_with(|| EvalContext::new(Arc::clone(analysis)));
                    let mut fresh = ChunkOutcome::default();
                    evaluate_entries(ctx, &buf, need, &incumbent, opts.inject, &mut fresh);
                    merge_repaired(&buf, keep, need, &mut out, fresh);
                    stats.repaired_chunks += 1;
                }
            }
            // Without pruning nothing reads the prefix incumbent; skip a
            // pass over every point.
            if opts.prune {
                for p in &out.points {
                    if p.estimate.feasible {
                        prefix_best = prefix_best.min(p.estimate.cycles);
                    }
                }
            }
        }
        runs.push(std::mem::take(&mut out.points));
        kept_modes.push(keep);
        failed.append(&mut out.failed);
        stats.merge(&out.stats);
    }

    replay_span.attr_u64("repaired_chunks", stats.repaired_chunks as u64);
    drop(replay_span);
    dse_metrics().repaired_chunks.add(stats.repaired_chunks as u64);
    account_families(&states, &mut stats);

    // Ordered assembly. Every chunk is a contiguous slice of one family
    // and families are contiguous in candidate order, so the chunk runs
    // taken in (family, start) order are already in candidate order:
    // each point moves once, into an output reserved at its exact size.
    let mut order: Vec<usize> = (0..sched.len()).collect();
    order.sort_unstable_by_key(|&i| (sched[i].family, sched[i].start));
    let mut points = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for &i in &order {
        points.append(&mut runs[i]);
    }
    drop(runs);
    failed.sort_by_key(|f| f.index);
    let chunks = order.iter().map(|&i| (sched[i], kept_modes[i])).collect();
    stats.merge_nanos = t_merge.elapsed().as_nanos() as u64;
    Ok(SweepOutput {
        result: DseResult {
            points,
            elapsed: start.elapsed(),
            diagnostics: DiagnosticsReport { failed },
            stats,
        },
        chunks,
    })
}

/// Interleaves a repaired chunk's two point runs back into candidate
/// order: `out.points` holds the modes the claim phase evaluated, `fresh`
/// the modes in `need` that replay re-evaluated. `entries` is the chunk's
/// candidate list and `keep` the modes that survived replay; failures
/// (tagged with their indices) mark the kept candidates without a point.
fn merge_repaired(
    entries: &[(usize, OptimizationConfig)],
    keep: [bool; 2],
    need: [bool; 2],
    out: &mut ChunkOutcome,
    mut fresh: ChunkOutcome,
) {
    out.failed.append(&mut fresh.failed);
    out.failed.sort_by_key(|f| f.index);
    out.stats.merge(&fresh.stats);
    let mut failed = out.failed.iter().map(|f| f.index).peekable();
    let mut claimed = std::mem::take(&mut out.points).into_iter();
    let mut repaired = fresh.points.into_iter();
    out.points.reserve_exact(claimed.len() + repaired.len());
    for &(idx, cfg) in entries {
        let m = mode_idx(cfg.comm_mode);
        if !keep[m] || failed.next_if_eq(&idx).is_some() {
            continue;
        }
        let run = if need[m] { &mut repaired } else { &mut claimed };
        out.points.extend(run.next());
    }
    debug_assert!(claimed.next().is_none() && repaired.next().is_none());
}

/// Family-level accounting, once per family regardless of chunk count.
fn account_families(states: &[FamilyState], stats: &mut DseStats) {
    for state in states {
        if let Some(fam) = state.analysis.get() {
            stats.families_analyzed += 1;
            match fam {
                FamilyAnalysis::Ready { from_cache, evictions, nanos, stages, .. } => {
                    if *from_cache {
                        stats.analysis_cache_hits += 1;
                    } else {
                        stats.analysis_cache_misses += 1;
                    }
                    stats.analysis_cache_evictions += evictions;
                    stats.analysis_nanos += nanos;
                    stats.add_stages(stages);
                }
                FamilyAnalysis::Failed { nanos, stages, .. } => {
                    stats.analysis_cache_misses += 1;
                    stats.analysis_nanos += nanos;
                    stats.add_stages(stages);
                }
                FamilyAnalysis::Geometry { nanos } => {
                    stats.analysis_cache_misses += 1;
                    stats.analysis_nanos += nanos;
                }
            }
        }
    }
}

/// Explores the design space of `func` on `workload` over the knob
/// [`SweepGrid`] `grid` under `opts` — the one grid sweep entry point.
///
/// The [`ConfigSpace`] is decoded chunk by chunk, so a [`SweepGrid::fine`]
/// or [`SweepGrid::ultra`] grid with 10⁵–10⁶⁺ candidates never
/// materializes its candidate list. With `opts.prune == false` the
/// explored points are exactly the enumerated space in enumeration order
/// (minus failed candidates), bit-identical for every thread count and
/// chunk size. With pruning, dominated points may be absent, but the
/// surviving set is still deterministic and [`DseResult::best`] matches
/// the exhaustive sweep.
///
/// `cancel` bounds the sweep: the token is consulted at every chunk-claim
/// boundary, so an expired deadline or an explicit [`CancelToken::cancel`]
/// stops it mid-flight (pass `None` for an unbounded sweep). A stopped
/// sweep discards its incomplete points, so callers can never mistake a
/// truncated Pareto set for a full one; a sweep that finishes before the
/// token trips is bit-identical to an unbounded one.
///
/// `cache` names the [`AnalysisCache`] the sweep reuses per-family
/// analyses from and settles new ones into. Pass a fresh cache for a cold
/// sweep, or hold one across sweeps of the same kernel (a benchmark's
/// warm repetitions, a server's lifetime) to skip re-profiling. The cache
/// only changes *where* settled analyses are found — explored points are
/// bit-identical whichever store is supplied.
///
/// # Errors
///
/// Returns [`FlexclError::Platform`] for an invalid platform description
/// and [`FlexclError::Deadline`], carrying the partial [`DseStats`], when
/// the token trips before the sweep covers the space. Per-candidate
/// failures do not abort the sweep; they are recorded in
/// [`DseResult::diagnostics`].
pub fn explore_space_cached(
    func: &Function,
    platform: &Platform,
    workload: &Workload,
    grid: &SweepGrid,
    opts: DseOptions,
    cancel: Option<&CancelToken>,
    cache: &AnalysisCache,
) -> Result<DseResult, FlexclError> {
    let start = Instant::now();
    platform.validate()?;
    let limits = limits_for(func, workload);
    let space = ConfigSpace::new(&limits, grid);
    let out = run_sweep(
        func,
        platform,
        workload,
        &CandidateSet::Space(&space),
        Vec::new(),
        opts,
        start,
        cancel,
        cache,
    )?;
    Ok(out.result)
}

/// Explores an explicit list of candidate configurations under `opts`,
/// reusing analyses from `cache` like [`explore_space_cached`].
///
/// This is the fault-injection surface: unlike a grid sweep, the
/// candidates need not come from [`crate::config::enumerate`] — invalid entries
/// are diagnosed per candidate ([`ErrorKind::Config`]) and skipped, and
/// the surviving points are bit-identical to a sweep over only the valid
/// subset. `DseResult::points` preserves the order of `configs`.
///
/// # Errors
///
/// Returns [`FlexclError::Platform`] if the platform description is
/// invalid — a corrupt platform table poisons every candidate, so it is
/// rejected up front rather than reported a hundred times.
pub fn explore_configs(
    func: &Function,
    platform: &Platform,
    workload: &Workload,
    configs: &[OptimizationConfig],
    opts: DseOptions,
    cache: &AnalysisCache,
) -> Result<DseResult, FlexclError> {
    let start = Instant::now();
    platform.validate()?;

    // Validate candidates up front (an invalid config must not drag a
    // whole family down), then partition the valid ones into
    // per-work-group families, remembering each config's position in
    // `configs` for the failure report and the final reordering.
    // Validation is kernel-aware: temporal blocking is rejected here for
    // non-iterative kernels instead of erroring one estimate at a time
    // inside the sweep.
    let limits = limits_for(func, workload);
    let mut failed: Vec<FailedPoint> = Vec::new();
    let mut families: Vec<Family> = Vec::new();
    for (idx, cfg) in configs.iter().copied().enumerate() {
        if let Err(e) = cfg.validate_for(&limits) {
            failed.push(FailedPoint {
                index: idx,
                config: cfg,
                kind: e.kind(),
                message: e.to_string(),
            });
            continue;
        }
        match families.iter_mut().find(|f| f.work_group == cfg.work_group) {
            Some(f) => f.entries.push((idx, cfg)),
            None => families.push(Family { work_group: cfg.work_group, entries: vec![(idx, cfg)] }),
        }
    }

    let SweepOutput { mut result, chunks } = run_sweep(
        func,
        platform,
        workload,
        &CandidateSet::Explicit(&families),
        failed,
        opts,
        start,
        None,
        cache,
    )?;

    // The sweep returns points grouped by family; put them back in the
    // caller's order. A chunk's points are its candidates whose mode
    // survived replay and that did not fail, in candidate order.
    let mut failed_at = vec![false; configs.len()];
    for f in &result.diagnostics.failed {
        failed_at[f.index] = true;
    }
    let n_points = result.points.len();
    let mut by_position: Vec<Option<DesignPoint>> = vec![None; configs.len()];
    let mut points = result.points.into_iter();
    for (chunk, keep) in chunks {
        let entries = &families[chunk.family].entries;
        let end = (chunk.start + chunk.len).min(entries.len());
        for &(idx, cfg) in &entries[chunk.start..end] {
            if keep[mode_idx(cfg.comm_mode)] && !failed_at[idx] {
                by_position[idx] = points.next();
            }
        }
    }
    debug_assert!(points.next().is_none());
    result.points = Vec::with_capacity(n_points);
    result.points.extend(by_position.into_iter().flatten());
    Ok(result)
}

/// Test-only fault injection for the DSE panic backstop.
///
/// Hidden from docs and not part of the public API contract: a fault is
/// armed for one sweep through [`DseOptions::inject`](super::DseOptions),
/// so the fault-injection suite and the serving layer can poison one
/// sweep while concurrent sweeps in the same process stay clean. Each
/// test asserts the sweep survives, attributes the failure, and leaves
/// every other point bit-identical.
#[doc(hidden)]
pub mod testhook {
    /// A fault armed for a single sweep via
    /// [`DseOptions::inject`](super::DseOptions).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InjectedFault {
        /// Panic inside the family analysis of work-group `Some(wg)`, or
        /// of every work-group with `None` (caught by the per-family
        /// backstop; the poisoned families degrade to `ErrorKind::Panic`
        /// diagnostics).
        AnalysisPanic(Option<(u32, u32)>),
        /// Panic inside the estimate of the candidate at this enumeration
        /// index (caught by the per-chunk backstop; only that candidate is
        /// skipped).
        EstimatePanic(usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_interp::KernelArg;

    fn vadd() -> (Function, Workload) {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let w = Workload {
            args: vec![
                KernelArg::FloatBuf(vec![1.0; 4096]),
                KernelArg::FloatBuf(vec![2.0; 4096]),
                KernelArg::FloatBuf(vec![0.0; 4096]),
            ],
            global: (4096, 1),
        };
        (f, w)
    }

    fn barrier_kernel() -> (Function, Workload) {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global float* a) {
                __local float t[256];
                int l = get_local_id(0);
                t[l] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = t[l];
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let w = Workload { args: vec![KernelArg::FloatBuf(vec![0.0; 1024])], global: (1024, 1) };
        (f, w)
    }

    /// A standard-grid sweep with a fresh analysis cache.
    fn sweep(f: &Function, p: &Platform, w: &Workload, opts: DseOptions) -> DseResult {
        let grid = SweepGrid::standard();
        explore_space_cached(f, p, w, &grid, opts, None, &AnalysisCache::new()).expect("dse")
    }

    fn assert_points_identical(a: &DseResult, b: &DseResult) {
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.config, pb.config);
            assert_eq!(pa.estimate, pb.estimate, "{}", pa.config);
        }
    }

    #[test]
    fn sweep_covers_hundreds_of_points_quickly() {
        let (f, w) = vadd();
        let result = sweep(&f, &Platform::virtex7_adm7v3(), &w, DseOptions::default());
        assert!(result.points.len() >= 100, "{} points", result.points.len());
        assert!(result.feasible_count() > result.points.len() / 2);
        assert!(result.diagnostics.is_clean(), "{:?}", result.diagnostics);
        assert!(
            result.elapsed.as_secs() < 30,
            "DSE must run in seconds, took {:?}",
            result.elapsed
        );
    }

    #[test]
    fn best_point_beats_baseline() {
        let (f, w) = vadd();
        let result = sweep(&f, &Platform::virtex7_adm7v3(), &w, DseOptions::default());
        let speedup = result.speedup_over_baseline().expect("speedup");
        assert!(speedup > 5.0, "speedup {speedup}");
        let best = result.best().expect("best");
        assert!(best.config.work_item_pipeline, "best config should pipeline");
    }

    #[test]
    fn barrier_kernel_space_restricted() {
        let (f, w) = barrier_kernel();
        let result = sweep(&f, &Platform::virtex7_adm7v3(), &w, DseOptions::default());
        assert!(result
            .points
            .iter()
            .all(|p| p.config.comm_mode == crate::config::CommMode::Barrier));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_for_pipeline_kernel() {
        // vadd has no barrier, so its space includes pipeline-mode points.
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let serial = sweep(&f, &platform, &w, DseOptions::default());
        let parallel = sweep(&f, &platform, &w, DseOptions { threads: 4, ..DseOptions::default() });
        assert!(serial.points.iter().any(|p| p.config.comm_mode == CommMode::Pipeline));
        assert_points_identical(&serial, &parallel);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_for_barrier_kernel() {
        let (f, w) = barrier_kernel();
        let platform = Platform::virtex7_adm7v3();
        let serial = sweep(&f, &platform, &w, DseOptions::default());
        let parallel = sweep(&f, &platform, &w, DseOptions { threads: 3, ..DseOptions::default() });
        assert_points_identical(&serial, &parallel);
    }

    #[test]
    fn tiny_chunks_are_bit_identical_to_serial() {
        // Chunk size 5 forces many chunks per family and plenty of context
        // switches; the merged result must not care.
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let serial = sweep(&f, &platform, &w, DseOptions::default());
        let opts = DseOptions { threads: 4, chunk_size: 5, ..DseOptions::default() };
        let chunked = sweep(&f, &platform, &w, opts);
        assert_points_identical(&serial, &chunked);
        assert!(chunked.stats.chunks_processed > serial.stats.chunks_processed);
    }

    #[test]
    fn standard_grid_matches_enumerated_configs() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let configs = crate::config::enumerate(&limits_for(&f, &w));
        let opts = DseOptions::default();
        let via_enumerate =
            explore_configs(&f, &platform, &w, &configs, opts, &AnalysisCache::new())
                .expect("explore_configs");
        let via_space = sweep(&f, &platform, &w, opts);
        assert_points_identical(&via_enumerate, &via_space);
    }

    #[test]
    fn pruned_sweep_finds_the_same_best() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let full = sweep(&f, &platform, &w, DseOptions::default());
        let pruned = sweep(&f, &platform, &w, DseOptions { prune: true, ..DseOptions::default() });
        assert!(pruned.points.len() <= full.points.len());
        let (fb, pb) = (full.best().expect("full best"), pruned.best().expect("pruned best"));
        assert_eq!(fb.config, pb.config);
        assert_eq!(fb.estimate.cycles, pb.estimate.cycles);
        // Every surviving point carries the same estimate as in the full
        // sweep (pruning may drop points but never alters them).
        let mut fi = full.points.iter();
        for p in &pruned.points {
            let twin = fi
                .by_ref()
                .find(|q| q.config == p.config)
                .expect("pruned point present in exhaustive sweep, in order");
            assert_eq!(twin.estimate, p.estimate);
        }
    }

    #[test]
    fn pruned_sweep_is_deterministic_across_thread_counts() {
        // The replay pass makes even the *pruned* survivor set a pure
        // function of the schedule order, not of thread timing.
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let pruned = |threads| DseOptions { prune: true, threads, ..DseOptions::default() };
        let reference = sweep(&f, &platform, &w, pruned(1));
        for threads in [2, 4, 8] {
            let parallel = sweep(&f, &platform, &w, pruned(threads));
            assert_points_identical(&reference, &parallel);
        }
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let (f, w) = vadd();
        let result = sweep(&f, &Platform::virtex7_adm7v3(), &w, DseOptions::default());
        // best() must return the earliest enumerated point among minima.
        let best = result.best().expect("best");
        let min_cycles = best.estimate.cycles;
        let first_min = result
            .points
            .iter()
            .find(|p| p.estimate.feasible && p.estimate.cycles == min_cycles)
            .expect("minimum exists");
        assert_eq!(first_min.config, best.config);
    }

    #[test]
    fn invalid_platform_is_rejected_up_front() {
        let (f, w) = vadd();
        let bad = Platform { global_ports: 0, ..Platform::virtex7_adm7v3() };
        let (grid, opts) = (SweepGrid::standard(), DseOptions::default());
        let err = explore_space_cached(&f, &bad, &w, &grid, opts, None, &AnalysisCache::new())
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Platform);
    }

    #[test]
    fn dse_stats_display_is_a_readable_table() {
        let stats = DseStats {
            families_analyzed: 10,
            points_evaluated: 121_600,
            analysis_cache_hits: 8,
            analysis_cache_misses: 2,
            analysis_cache_evictions: 1,
            sched_cache_hits: 118_000,
            sched_cache_misses: 3_600,
            analysis_nanos: 12_300_000,
            profile_nanos: 6_100_000,
            profile_steps: 1_525_000,
            group_nanos: 2_500_000,
            replay_nanos: 3_200_000,
            estimate_nanos: 40_100_000,
            sched_nanos: 8_200_000,
            chunks_processed: 60,
            steals: 3,
            repaired_chunks: 2,
            merge_nanos: 5_600_000,
            chunk_size: 2048,
        };
        let s = stats.to_string();
        assert!(s.contains("points evaluated : 121600"), "{s}");
        assert!(s.contains("chunks processed : 60 (size 2048, 3 steals, 2 repaired)"), "{s}");
        assert!(s.contains("families         : 10 (8 analysis-cache hits / 2 misses"), "{s}");
        assert!(s.contains("sched cache      : 97.0% hit"), "{s}");
        assert!(
            s.contains("analysis 12.30 ms, estimate 40.10 ms (sched 8.20 ms), merge 5.60 ms"),
            "{s}"
        );
        assert!(
            s.contains("analysis stages  : profile 6.10 ms, group 2.50 ms, replay 3.20 ms"),
            "{s}"
        );
        assert!(s.contains("(1525000 profiled steps)"), "{s}");
        // Every line is indented so the table slots under a header line.
        assert!(s.lines().all(|l| l.starts_with("  ")), "{s}");
    }

    #[test]
    fn analysis_fingerprint_sees_every_element_of_a_large_buffer() {
        let (f, _) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let n = 1 << 21;
        let workload = |flip: Option<usize>| {
            let mut big: Vec<f64> = (0..n).map(|i| f64::from(i as u32) * 0.5).collect();
            if let Some(i) = flip {
                big[i] = -big[i] - 1.0;
            }
            Workload {
                args: vec![
                    KernelArg::FloatBuf(big),
                    KernelArg::IntBuf(vec![7; 16]),
                    KernelArg::Int(3),
                ],
                global: (4096, 1),
            }
        };
        let base = analysis_cache::fingerprint(&f, &platform, &workload(None));
        assert_eq!(base, analysis_cache::fingerprint(&f, &platform, &workload(None)));
        assert_ne!(base.0, base.1, "the two lanes are independent");
        for i in [0, n / 2 + 3, n - 1] {
            let flipped = analysis_cache::fingerprint(&f, &platform, &workload(Some(i)));
            assert_ne!(flipped.0, base.0, "lane a missed a flip at element {i}");
            assert_ne!(flipped.1, base.1, "lane b missed a flip at element {i}");
        }
        // The structural part still separates shapes with equal payloads.
        let mut reshaped = workload(None);
        reshaped.global = (2048, 2);
        let other = analysis_cache::fingerprint(&f, &platform, &reshaped);
        assert!(other.0 != base.0 && other.1 != base.1);
    }

    /// A repaired chunk holds two runs: the modes the claim phase kept and
    /// the modes replay re-evaluated. They interleave in candidate order,
    /// and a failure in either run leaves a gap rather than a shift.
    #[test]
    fn repaired_chunk_merges_runs_in_candidate_order() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let analysis = KernelAnalysis::analyze(&f, &platform, &w, (64, 1)).expect("analysis");
        let mut ctx = EvalContext::new(&analysis);
        let entries: Vec<(usize, OptimizationConfig)> = (0..12)
            .map(|i| {
                let mode = if i % 2 == 0 { CommMode::Barrier } else { CommMode::Pipeline };
                let cfg = OptimizationConfig {
                    work_item_pipeline: true,
                    num_cus: 1 + i / 4,
                    vector_width: [1, 2][(i / 2 % 2) as usize],
                    comm_mode: mode,
                    ..OptimizationConfig::baseline((64, 1))
                };
                (100 + i as usize, cfg)
            })
            .collect();
        let incumbent = Incumbent::new();
        let fault = |idx| Some(testhook::InjectedFault::EstimatePanic(idx));

        let mut all = ChunkOutcome::default();
        evaluate_entries(&mut ctx, &entries, [true, true], &incumbent, None, &mut all);
        let expected: Vec<DesignPoint> = entries
            .iter()
            .zip(all.points)
            .filter(|((idx, _), _)| *idx != 104 && *idx != 107)
            .map(|(_, p)| p)
            .collect();

        let mut out = ChunkOutcome::default();
        evaluate_entries(&mut ctx, &entries, [true, false], &incumbent, fault(104), &mut out);
        let mut fresh = ChunkOutcome::default();
        evaluate_entries(&mut ctx, &entries, [false, true], &incumbent, fault(107), &mut fresh);
        merge_repaired(&entries, [true, true], [false, true], &mut out, fresh);

        let key = |p: &DesignPoint| (p.config, p.estimate.cycles.to_bits());
        let got: Vec<_> = out.points.iter().map(key).collect();
        let want: Vec<_> = expected.iter().map(key).collect();
        assert_eq!(got, want);
        assert_eq!(out.failed.iter().map(|f| f.index).collect::<Vec<_>>(), [104, 107]);
        assert_eq!(out.stats.points_evaluated, 10);
    }

    #[test]
    fn dse_stats_merge_sums_merge_time() {
        let mut total = DseStats { merge_nanos: 1_500, chunk_size: 64, ..DseStats::default() };
        total.merge(&DseStats { merge_nanos: 2_500, repaired_chunks: 1, ..DseStats::default() });
        assert_eq!(total.merge_nanos, 4_000);
        assert_eq!(total.repaired_chunks, 1);
        assert_eq!(total.chunk_size, 64, "chunk size is configuration, not summed");
    }

    #[test]
    fn dse_stats_merge_sums_analysis_stages() {
        let stages = |p, g, r| DseStats {
            profile_nanos: p,
            group_nanos: g,
            replay_nanos: r,
            ..DseStats::default()
        };
        let mut total = stages(10, 20, 30);
        total.merge(&stages(1, 2, 3));
        assert_eq!((total.profile_nanos, total.group_nanos, total.replay_nanos), (11, 22, 33));
    }

    #[test]
    fn analysis_stages_fit_in_analysis_time_and_vanish_when_cached() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let grid = SweepGrid::standard();
        let cache = AnalysisCache::default();
        // Cold at two workers (their families' stages merge), then warm.
        for threads in [2, 1] {
            let opts = DseOptions { threads, ..DseOptions::default() };
            let cold = explore_space_cached(&f, &platform, &w, &grid, opts, None, &cache)
                .expect("cold sweep");
            let s = cold.stats;
            if threads == 2 {
                assert!(s.analysis_cache_misses > 0, "{s}");
                assert!(s.profile_nanos > 0 && s.group_nanos > 0 && s.replay_nanos > 0, "{s}");
                assert!(s.profile_steps > 0, "{s}");
                assert!(
                    s.profile_nanos + s.group_nanos + s.replay_nanos <= s.analysis_nanos,
                    "{s}"
                );
            } else {
                // Second pass over the same cache: every family hits.
                assert_eq!(s.analysis_cache_misses, 0, "{s}");
                assert_eq!((s.profile_nanos, s.group_nanos, s.replay_nanos), (0, 0, 0), "{s}");
                assert_eq!(s.profile_steps, 0, "{s}");
            }
        }
    }

    /// FIFO eviction at a small cap passed straight to `insert`, eviction
    /// counting in a sweep over a full cache, and points that no cache
    /// state can change.
    #[test]
    fn small_cache_caps_evict_fifo_and_account_hit_rates() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let opts = DseOptions::default();
        let grid = SweepGrid::standard();
        let run = |cache: &AnalysisCache| {
            explore_space_cached(&f, &platform, &w, &grid, opts, None, cache).expect("sweep")
        };

        // Cold: every family misses and settles into the cache.
        let warm_cache = AnalysisCache::new();
        let cold = run(&warm_cache);
        let families = cold.stats.families_analyzed;
        assert!(families > 2, "need more families ({families}) than the cap");
        assert_eq!(warm_cache.len(), families);
        assert_eq!((cold.stats.analysis_cache_hits, cold.stats.analysis_cache_evictions), (0, 0));
        assert_eq!(cold.stats.analysis_cache_hit_rate(), 0.0);

        // The cold sweep's keys and analyses, in family order.
        let mut work_groups: Vec<(u32, u32)> = Vec::new();
        for p in &cold.points {
            if !work_groups.contains(&p.config.work_group) {
                work_groups.push(p.config.work_group);
            }
        }
        assert_eq!(work_groups.len(), families);
        let fingerprint = analysis_cache::fingerprint(&f, &platform, &w);
        let key = |work_group| analysis_cache::Key { fingerprint, work_group, fuel: opts.fuel };
        let entries: Vec<_> = work_groups
            .iter()
            .map(|&wg| (key(wg), warm_cache.lookup(&key(wg)).expect("settled analysis")))
            .collect();

        // FIFO at cap 2: the first two inserts fit, every later one evicts
        // exactly the oldest entry, and a duplicate insert is a no-op.
        let small = AnalysisCache::new();
        let evictions: Vec<u64> =
            entries.iter().map(|(k, a)| small.insert(k.clone(), a, 2)).collect();
        let mut expected = vec![0, 0];
        expected.resize(families, 1);
        assert_eq!(evictions, expected);
        let (last_key, last) = &entries[families - 1];
        assert_eq!(small.insert(last_key.clone(), last, 2), 0);
        assert_eq!(small.len(), 2);
        let resident: Vec<bool> = entries.iter().map(|(k, _)| small.lookup(k).is_some()).collect();
        assert_eq!(resident.iter().filter(|&&r| r).count(), 2);
        assert!(resident[families - 2] && resident[families - 1], "{resident:?}");

        // The two resident families hit; the rest repopulate under the
        // sweep's own capacity without evicting.
        let partial = run(&small);
        assert_eq!(partial.stats.analysis_cache_hits, 2);
        assert_eq!(partial.stats.analysis_cache_misses, families as u64 - 2);
        assert_eq!(partial.stats.analysis_cache_evictions, 0);

        // A cache already at capacity evicts once per inserted family.
        let full = AnalysisCache::new();
        for i in 0..analysis_cache::CAP as u64 {
            let junk = analysis_cache::Key { fingerprint: (i, !i), ..key((1, 1)) };
            full.insert(junk, &entries[0].1, analysis_cache::CAP);
        }
        let churned = run(&full);
        assert_eq!(churned.stats.analysis_cache_misses, families as u64);
        assert_eq!(churned.stats.analysis_cache_evictions, families as u64);
        assert_eq!(full.len(), analysis_cache::CAP);

        // Fully warm: every family hits.
        let warm = run(&warm_cache);
        assert_eq!(warm.stats.analysis_cache_hits, families as u64);
        assert_eq!(warm.stats.analysis_cache_hit_rate(), 1.0);

        // Eviction and cache state never touch the modelled result.
        for other in [&partial, &churned, &warm] {
            assert_points_identical(&cold, other);
        }
    }

    #[test]
    fn sweep_reports_merge_time() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let opts = DseOptions { threads: 2, chunk_size: 7, prune: true, ..DseOptions::default() };
        let r = sweep(&f, &platform, &w, opts);
        assert!(r.stats.merge_nanos > 0);
        assert!(r.stats.merge_nanos <= r.elapsed.as_nanos() as u64);
        assert!(r.stats.to_string().contains(", merge "));
    }

    #[test]
    fn diagnostics_display_covers_clean_and_failing_reports() {
        let clean = DiagnosticsReport::default();
        assert_eq!(clean.to_string(), "clean (no candidates skipped)");

        let mut failing = DiagnosticsReport::default();
        for (i, kind) in
            [ErrorKind::Config, ErrorKind::Config, ErrorKind::Panic].into_iter().enumerate()
        {
            failing.failed.push(FailedPoint {
                index: i,
                config: OptimizationConfig::baseline((64, 1)),
                kind,
                message: format!("failure {i}"),
            });
        }
        let s = failing.to_string();
        assert_eq!(s, "3 candidate(s) skipped [config x2, panic x1]; first: failure 0");
    }

    #[test]
    fn explore_configs_preserves_candidate_order() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let configs = vec![
            OptimizationConfig::baseline((64, 1)),
            OptimizationConfig {
                work_item_pipeline: true,
                ..OptimizationConfig::baseline((32, 1))
            },
            OptimizationConfig {
                work_item_pipeline: true,
                ..OptimizationConfig::baseline((64, 1))
            },
        ];
        let opts = DseOptions::default();
        let r = explore_configs(&f, &platform, &w, &configs, opts, &AnalysisCache::new())
            .expect("sweep");
        assert!(r.diagnostics.is_clean());
        let got: Vec<_> = r.points.iter().map(|p| p.config).collect();
        assert_eq!(got, configs);
    }
}
