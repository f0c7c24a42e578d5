//! Budget-keyed evaluation context for the DSE hot path.
//!
//! [`crate::estimate`] re-derives the expensive sub-models — list/SMS
//! scheduling for `(II_comp^wi, D_comp^PE)` and the work-item dependence
//! graph — for every candidate, yet those sub-models depend on the
//! configuration only through its [`ResourceBudget`] (a function of
//! `effective_pes()` and `num_cus`). A family of ~330 enumerated
//! configurations collapses to a handful of distinct budgets, so the sweep
//! was paying for the same schedules hundreds of times.
//!
//! [`EvalContext`] is the layer between `dse::run_family` and the model
//! equations that exploits this:
//!
//! * the work-item dependence edges ([`KernelAnalysis::work_item_deps`])
//!   are built **once per analysis** instead of once per candidate;
//! * `(budget → pipeline_params)` and `(budget → work_item_latency)` are
//!   memoized, so SMS and list scheduling run **once per distinct
//!   budget**;
//! * one [`SchedScratch`] is reused across all scheduler calls, so the
//!   misses themselves stop allocating.
//!
//! Everything else a candidate needs is a read of the analysis, which
//! stores every per-family quantity once (each memory level's
//! `L_mem^wi` in both burst orders, the contention curve), or of the
//! platform: the context holds no copy of either, so a fresh context
//! recomputes exactly the scheduler memo and nothing else.
//!
//! The context IS the model: [`crate::estimate`] constructs a fresh
//! context per call and evaluates through it, so the cached and uncached
//! paths share one implementation and are bit-identical by construction.
//! A context borrows its analysis and lives for one family on one worker
//! thread; see DESIGN.md §9 for why cross-thread sharing is unnecessary.

use crate::analysis::KernelAnalysis;
use crate::config::{CommMode, OptimizationConfig};
use crate::error::FlexclError;
use crate::model::{effective_pe_parallelism, infeasible, pe_budget, Estimate, InfeasibleReason};
use flexcl_ir::DepEdge;
use flexcl_obs::metrics;
use flexcl_sched::{ResourceBudget, SchedScratch};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide schedule-cache counters: every context reports its
/// lookups here (one relaxed, sharded `fetch_add` each) so a live
/// metrics snapshot shows cumulative hit rates across sweeps, not just
/// the per-sweep [`EvalStats`].
fn cache_counters() -> &'static (metrics::Counter, metrics::Counter) {
    static C: OnceLock<(metrics::Counter, metrics::Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let g = metrics::global();
        (g.counter("eval.sched_cache_hits"), g.counter("eval.sched_cache_misses"))
    })
}

/// Counters describing what one [`EvalContext`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Estimates served from the budget-keyed schedule caches.
    pub sched_cache_hits: u64,
    /// Estimates that had to run the schedulers.
    pub sched_cache_misses: u64,
    /// Wall-clock nanoseconds spent inside scheduler calls (miss path).
    pub sched_nanos: u64,
}

/// Memoizing evaluation context for one [`KernelAnalysis`]: the
/// dependence edges and the budget-keyed scheduler memo, nothing else.
///
/// Create one per family (or one per batch of configurations sharing an
/// analysis) and call [`EvalContext::estimate`] per candidate. Results are
/// bit-identical to [`crate::estimate`] in any call order: the cached
/// values are pure functions of `(analysis, budget)`.
///
/// The context is generic over how it holds the analysis: a borrowed
/// `&KernelAnalysis` for one-shot evaluation ([`crate::estimate`]'s
/// path), or an owned `Arc<KernelAnalysis>` so a sweep worker can keep
/// one long-lived context per family it has stolen chunks from, without
/// tying the context's lifetime to a stack frame.
pub struct EvalContext<A: Borrow<KernelAnalysis>> {
    analysis: A,
    /// Budget-independent dependence edges for the work-item graph.
    deps: Vec<DepEdge>,
    /// `budget → (II_comp^wi, D_comp^PE)` (work-item pipelining on).
    pipe_cache: HashMap<ResourceBudget, Result<(u32, u32), FlexclError>>,
    /// `budget → L_wi` (work-item pipelining off).
    lat_cache: HashMap<ResourceBudget, Result<f64, FlexclError>>,
    scratch: SchedScratch,
    /// Counters for the instrumented sweep.
    pub stats: EvalStats,
}

impl<A: Borrow<KernelAnalysis>> EvalContext<A> {
    /// Prepares a context: precomputes the dependence edges.
    pub fn new(analysis: A) -> Self {
        Self::with_scratch(analysis, SchedScratch::new())
    }

    /// [`EvalContext::new`] reusing a recycled [`SchedScratch`] (from
    /// [`EvalContext::into_scratch`]) so per-family contexts created in
    /// sequence — the sweep's repair pass, a server's request loop —
    /// keep one set of scheduler buffers alive instead of reallocating.
    pub fn with_scratch(analysis: A, scratch: SchedScratch) -> Self {
        EvalContext {
            deps: analysis.borrow().work_item_deps(),
            pipe_cache: HashMap::new(),
            lat_cache: HashMap::new(),
            scratch,
            stats: EvalStats::default(),
            analysis,
        }
    }

    /// Dissolves the context, handing its scheduler scratch back for the
    /// next context to reuse.
    pub fn into_scratch(self) -> SchedScratch {
        self.scratch
    }

    /// The analysis this context evaluates against.
    pub fn analysis(&self) -> &KernelAnalysis {
        self.analysis.borrow()
    }

    fn pipeline_params(&mut self, budget: &ResourceBudget) -> Result<(u32, u32), FlexclError> {
        if let Some(r) = self.pipe_cache.get(budget) {
            self.stats.sched_cache_hits += 1;
            cache_counters().0.inc();
            return r.clone();
        }
        self.stats.sched_cache_misses += 1;
        cache_counters().1.inc();
        let t0 = Instant::now();
        let r = self.analysis.borrow().pipeline_params_with(budget, &self.deps, &mut self.scratch);
        self.stats.sched_nanos += t0.elapsed().as_nanos() as u64;
        self.pipe_cache.insert(*budget, r.clone());
        r
    }

    fn work_item_latency(&mut self, budget: &ResourceBudget) -> Result<f64, FlexclError> {
        if let Some(r) = self.lat_cache.get(budget) {
            self.stats.sched_cache_hits += 1;
            cache_counters().0.inc();
            return r.clone();
        }
        self.stats.sched_cache_misses += 1;
        cache_counters().1.inc();
        let t0 = Instant::now();
        let r = self.analysis.borrow().work_item_latency_with(budget, &mut self.scratch);
        self.stats.sched_nanos += t0.elapsed().as_nanos() as u64;
        self.lat_cache.insert(*budget, r.clone());
        r
    }

    /// Evaluates the full model for one configuration (the implementation
    /// behind [`crate::estimate`]; see its docs for the contract).
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Config`] if `config` violates its structural
    /// invariants and [`FlexclError::Scheduling`] if the kernel cannot be
    /// scheduled under the configuration's resource budget.
    pub fn estimate(&mut self, config: &OptimizationConfig) -> Result<Estimate, FlexclError> {
        config.validate()?;
        let analysis = self.analysis.borrow();
        let platform = &analysis.platform;
        let n_wi_kernel = (analysis.global.0 * analysis.global.1) as f64;
        let n_wi_wg = config.work_group_size() as f64;
        let p_eff = config.effective_pes().max(1);
        let c = config.num_cus.max(1);
        let cf = config.coarsen_factor.max(1);
        let tb = config.temporal_block_depth.max(1);

        // ---- new-axis gating ---------------------------------------------
        // Temporal blocking models cross-iteration reuse; it is undefined
        // for kernels that are not iterative stencils.
        if tb > 1 && !crate::config::is_iterative_stencil(&analysis.func.name) {
            return Err(FlexclError::Config {
                config: *config,
                detail: format!(
                    "temporal blocking (depth {tb}) requires an iterative stencil \
                     kernel; `{}` is not one",
                    analysis.func.name
                ),
            });
        }
        // Coarsening replays the merged memory trace at analysis time; a
        // factor with no analyzed memory level cannot be evaluated.
        let Some(li) = analysis.mem_levels.iter().position(|l| l.factor == cf) else {
            return Err(FlexclError::Config {
                config: *config,
                detail: format!(
                    "coarsening factor {cf} has no analyzed memory level for \
                     this kernel/work-group (supported factors divide the \
                     work-group size and are at most {})",
                    crate::config::MAX_COARSEN
                ),
            });
        };

        // ---- feasibility -------------------------------------------------
        // Saturating: extreme replication factors must read as "too big for
        // the device", not overflow. Temporal blocking adds its per-CU tile
        // buffers (zero at depth 1).
        let dsps_needed = u64::from(analysis.static_dsps_per_pe)
            .saturating_mul(u64::from(p_eff))
            .saturating_mul(u64::from(c));
        if dsps_needed > u64::from(platform.total_dsps) {
            return Ok(infeasible(
                config,
                InfeasibleReason::Dsps { needed: dsps_needed, available: platform.total_dsps },
            ));
        }
        let bram_needed = analysis
            .local_bytes
            .saturating_mul(u64::from(c))
            .saturating_mul(u64::from(p_eff.min(4)))
            .saturating_add(
                crate::area::temporal_bram_bytes(analysis.work_group, analysis.global, tb)
                    .saturating_mul(u64::from(c)),
            );
        if bram_needed > platform.total_bram_bytes {
            return Ok(infeasible(
                config,
                InfeasibleReason::BramBytes {
                    needed: bram_needed,
                    available: platform.total_bram_bytes,
                },
            ));
        }

        // ---- PE model (Eq. 1–4 + SMS), memoized per budget ---------------
        let budget = pe_budget(analysis, config);
        let (ii_base, depth_base) = if config.work_item_pipeline {
            self.pipeline_params(&budget)?
        } else {
            // Without work-item pipelining a PE processes one work-item at a
            // time: the initiation interval is the full work-item latency.
            let d = self.work_item_latency(&budget)?.round().max(1.0) as u32;
            (d, d)
        };
        // Re-borrow: the scheduler calls above needed `&mut self`.
        let analysis = self.analysis.borrow();
        let platform = &analysis.platform;
        let level = &analysis.mem_levels[li];
        // Thread coarsening merges `cf` work-items per coarse item: the
        // pipelined PE re-derives (II, D) analytically from the scheduled
        // base (DESIGN.md §15); the unpipelined PE simply serializes the
        // merged bodies. Exact pass-through at cf == 1.
        let (ii_comp, depth) = if config.work_item_pipeline {
            crate::model::coarsened_pipeline_params(analysis, ii_base, depth_base, cf)
        } else {
            let d = ii_base.saturating_mul(cf).max(1);
            (d, d)
        };

        // ---- CU model (Eq. 5–6) ------------------------------------------
        // Coarse items, not work-items, are what a CU issues: `cf` divides
        // the work-group size (validated), so the wave count shrinks.
        let n_pe = effective_pe_parallelism(analysis, config);
        let items = n_wi_wg / f64::from(cf);
        let waves = ((items - f64::from(n_pe)) / f64::from(n_pe)).ceil().max(0.0);
        let l_cu = f64::from(ii_comp) * waves + f64::from(depth);

        // ---- memory model (Eq. 9), stored per family ---------------------
        // Pattern counts follow the burst order the chosen communication
        // mode produces: work-item-interleaved for pipeline mode, phased
        // reads-then-writes for barrier mode (§3.5: integration depends on
        // how computation communicates with global memory). The coarsening
        // factor's level (the merged trace at cf > 1) stores it, normalized
        // per *original* work-item so the `L_mem·N_wi` algebra below is
        // unchanged.
        let l_mem_wi = level.l_mem_wi(config.comm_mode);
        let owners_group = level.burst_owners_per_group;
        let hvy_mem_pipe = level.mem_group_max;
        let hvy_mem_phased = level.mem_group_max_phased;

        // ---- kernel model (Eq. 7–8) --------------------------------------
        // The paper reads Eq. 8 as a serialized dispatcher capping the
        // useful CU replication when groups are shorter than the
        // scheduling overhead. The runtime the System Run implements
        // prepares the next group *per CU* while the current one drains
        // (see `dispatch_overlap`), so no cross-CU dispatch serialization
        // exists and the cap never binds: every replicated CU contributes,
        // and Eq. 8's overhead term survives as the `ΔL_warm` each CU pays
        // per round below. (The old `group_duration / ΔL_warm` cap priced
        // short-group kernels at a single CU and overshot them ~4× at
        // C = 4.)
        let dl = f64::from(platform.schedule_overhead);
        // Steady-state dispatch cost per group (scheduler overlap hides
        // most of ΔL once a CU is warm); `C·ΔL` pays the cold starts.
        let dl_warm = dl * platform.warm_dispatch_fraction();
        let n_cu = c;
        let wg_rounds = (n_wi_kernel / (n_wi_wg * f64::from(n_cu))).ceil().max(1.0);
        // Cold dispatches to the C CUs proceed in parallel, so one ΔL of
        // latency reaches the critical path (the paper's `C·ΔL` reading of
        // Eq. 7 models a serialized dispatcher; measured behaviour
        // overlaps).
        let l_comp_kernel = (l_cu + dl_warm) * wg_rounds + dl;

        // ---- integration (Eq. 10–12) -------------------------------------
        // Multi-CU adaptation: the paper states Eq. 10 for the single-CU
        // case, where all global transfers serialize behind the CU's burst
        // engine; `L_mem^wi · N_wi^kernel + L_comp^kernel` then counts
        // every work-item's memory once. Each CU has its own engine, so
        // with `N_CU` concurrent CUs the serialized memory is per-group:
        // the equation is applied at group granularity and multiplied by
        // the rounds each CU executes. For C = 1 this is algebraically
        // identical to Eq. 10.
        let launch = f64::from(platform.launch_overhead);
        // Replicated CUs split the group stream across the DDR channels:
        // each channel sees only every C-th group and loses cross-group row
        // locality. The analysis measures this as a per-CU-count contention
        // curve (pattern-cost ratio at C co-running streams vs one); its
        // factor at `num_cus` scales `L_mem^wi` in the integration.
        let pipeline = matches!(config.comm_mode, CommMode::Pipeline);
        let mem_scale = analysis.contention.factor(c, pipeline);
        // Alongside the total, the estimate decomposes into compute, memory
        // and dispatch/launch cycles (summing exactly to `cycles`) so the
        // triage harness can attribute model-vs-sim divergence per term.
        // Heaviest-group floor: `L_mem^wi` is a mean over (possibly
        // heterogeneous) groups, so `wg_rounds · mean` under-counts the
        // critical CU once CUs outnumber rounds — wavefront kernels leave
        // whole groups memory-silent, and no CU count makes the kernel
        // finish before its heaviest single group has streamed. The
        // analysis measures that group's solo service; it bounds the
        // memory term from below (inactive whenever rounds · mean covers
        // it, i.e. for homogeneous kernels or small C).
        let hvy_scale = n_wi_wg
            / f64::from(analysis.work_group.0.max(1))
            / f64::from(analysis.work_group.1.max(1));
        let (cycles, ii_wi, comp_cycles, mem_cycles, overhead_cycles) = if tb > 1 {
            // ---- temporal blocking (DESIGN.md §15) -----------------------
            // `tb` stencil steps fuse into one on-chip block: the tile's
            // DRAM traffic is paid ONCE per block (the reuse win in the
            // Eq. 10–12 terms), while step k re-runs the CU pipeline over a
            // halo-expanded tile (`rho_k` × the items). The block models
            // `tb` kernel invocations, so every component is amortized by
            // `/tb` to stay comparable with unblocked estimates; compute is
            // recomputed as `cycles - mem - overhead` after the division so
            // the decomposition still sums exactly to `cycles`.
            let tbf = f64::from(tb);
            let rho =
                crate::model::temporal_step_redundancy(analysis.work_group, analysis.global, tb);
            let wave_count = |r: f64| -> f64 {
                ((items * r - f64::from(n_pe)) / f64::from(n_pe)).ceil().max(0.0)
            };
            let comp_step =
                |r: f64| -> f64 { f64::from(ii_comp) * wave_count(r) + f64::from(depth) };
            // Steps after the first run out of BRAM — pure compute.
            let rest: f64 = rho[1..].iter().map(|&r| comp_step(r)).sum();
            match config.comm_mode {
                CommMode::Barrier => {
                    let mem_per_group = l_mem_wi * n_wi_wg * mem_scale;
                    let comp_block = comp_step(rho[0]) + rest;
                    let t = (mem_per_group + comp_block + dl_warm) * wg_rounds + dl + launch;
                    let floor = hvy_mem_phased * hvy_scale + comp_block + dl_warm + dl + launch;
                    let t_final = t.max(floor);
                    let cycles = t_final / tbf;
                    let mem = (mem_per_group * wg_rounds + (t_final - t)) / tbf;
                    let overhead = (dl_warm * wg_rounds + dl + launch) / tbf;
                    (cycles, f64::from(ii_comp), cycles - mem - overhead, mem, overhead)
                }
                CommMode::Pipeline => {
                    // Only step 0 overlaps with the tile's single memory
                    // stream (same owner-gated structure as the unblocked
                    // path). The memory-limited interval `ii_wi` gates only
                    // the real tile items — the stream happens once per
                    // block — while the halo-expanded wave count of step 0
                    // is gated by the compute interval alone (halo items
                    // read on-chip data, not DRAM).
                    let waves0 = wave_count(rho[0]);
                    let ii_wi = (f64::from(cf) * l_mem_wi * mem_scale).max(f64::from(ii_comp));
                    let mem_group = l_mem_wi * n_wi_wg * mem_scale;
                    let w_total = waves0 + 1.0;
                    let owners = owners_group.clamp(1.0, w_total);
                    let last_gated = ((owners - 1.0) * w_total / owners).floor();
                    let trailing = (waves0 - last_gated).max(0.0);
                    let serial_tail = mem_group + f64::from(ii_comp) * trailing;
                    let ramp = mem_group / owners + f64::from(ii_comp) * waves0;
                    let group0 =
                        (ii_wi * waves).max(f64::from(ii_comp) * waves0).max(serial_tail).max(ramp)
                            + f64::from(depth);
                    let group_block = group0 + rest;
                    let t = (group_block + dl_warm) * wg_rounds + dl + launch;
                    let hvy = hvy_mem_pipe * hvy_scale;
                    let hvy_tail = hvy + f64::from(ii_comp) * trailing;
                    let hvy_ramp = hvy / owners + f64::from(ii_comp) * waves0;
                    let hvy_time = (f64::from(ii_comp) * waves0).max(hvy_tail).max(hvy_ramp)
                        + f64::from(depth)
                        + rest;
                    let floor = hvy_time + dl_warm + dl + launch;
                    let t_final = t.max(floor);
                    let comp_group = comp_step(rho[0]) + rest;
                    let cycles = t_final / tbf;
                    let mem = ((group_block - comp_group) * wg_rounds + (t_final - t)) / tbf;
                    let overhead = (dl_warm * wg_rounds + dl + launch) / tbf;
                    (cycles, ii_wi, cycles - mem - overhead, mem, overhead)
                }
            }
        } else {
            match config.comm_mode {
                CommMode::Barrier => {
                    let mem_per_group = l_mem_wi * n_wi_wg * mem_scale;
                    let t = (mem_per_group + l_cu + dl_warm) * wg_rounds + dl + launch;
                    let floor = hvy_mem_phased * hvy_scale + l_cu + dl_warm + dl + launch;
                    let t_final = t.max(floor);
                    (
                        t_final,
                        f64::from(ii_comp),
                        l_cu * wg_rounds,
                        mem_per_group * wg_rounds + (t_final - t),
                        dl_warm * wg_rounds + dl + launch,
                    )
                }
                CommMode::Pipeline => {
                    // Eq. 11–12, with the group's total transfer volume as a
                    // floor: even when PE replication removes all waves
                    // (`waves → 0`), the work-group's memory must still stream
                    // through the CU. A coarse item owns its `cf` merged
                    // work-items' memory, so its per-initiation latency is
                    // `cf · L_mem` (exactly `L_mem` at cf == 1).
                    let ii_wi = (f64::from(cf) * l_mem_wi * mem_scale).max(f64::from(ii_comp));
                    let mem_group = l_mem_wi * n_wi_wg * mem_scale;
                    // Wave-overlap correction: a wave can only initiate once
                    // the bursts its work-items own have returned. With B
                    // owner runs per group, owner o (data ready at
                    // ~mem·(o+1)/B) gates wave floor(o·W/B) of the W wave
                    // fronts; the end of the issue chain is the max over
                    // owners of `ready_o + II_comp·(waves - wave_o)`, linear
                    // in o, so its endpoints bound it: the last owner leaves
                    // `trailing` waves draining after the memory stream, and
                    // the first owner delays the whole chain by mem/B. A
                    // fully coalesced group (B = 1) serializes memory and
                    // compute; finely interleaved owners (B ≥ W) recover the
                    // plain max() overlap.
                    let w_total = waves + 1.0;
                    let owners = owners_group.clamp(1.0, w_total);
                    let last_gated = ((owners - 1.0) * w_total / owners).floor();
                    let trailing = (waves - last_gated).max(0.0);
                    let serial_tail = mem_group + f64::from(ii_comp) * trailing;
                    let ramp = mem_group / owners + f64::from(ii_comp) * waves;
                    let group_time = (ii_wi * waves).max(serial_tail).max(ramp) + f64::from(depth);
                    let t = (group_time + dl_warm) * wg_rounds + dl + launch;
                    // The heaviest group's time follows the same overlap
                    // structure with its solo memory service in place of the
                    // mean (it runs alone on its CU, so no contention scale).
                    let hvy = hvy_mem_pipe * hvy_scale;
                    let hvy_tail = hvy + f64::from(ii_comp) * trailing;
                    let hvy_ramp = hvy / owners + f64::from(ii_comp) * waves;
                    let hvy_time =
                        (f64::from(ii_comp) * waves).max(hvy_tail).max(hvy_ramp) + f64::from(depth);
                    let floor = hvy_time + dl_warm + dl + launch;
                    let t_final = t.max(floor);
                    // Compute is what the group would take memory-free
                    // (`II_comp·waves + depth`); the rest of the group time is
                    // memory stall (non-negative since `ii_wi ≥ II_comp`).
                    let comp_group = f64::from(ii_comp) * waves + f64::from(depth);
                    (
                        t_final,
                        ii_wi,
                        comp_group * wg_rounds,
                        (group_time - comp_group) * wg_rounds + (t_final - t),
                        dl_warm * wg_rounds + dl + launch,
                    )
                }
            }
        };

        Ok(Estimate {
            cycles,
            ii_comp,
            depth,
            ii_wi,
            l_mem_wi,
            l_cu,
            l_comp_kernel,
            n_pe,
            n_cu,
            mode: config.comm_mode,
            comp_cycles,
            mem_cycles,
            overhead_cycles,
            feasible: true,
            infeasible_reason: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workload;
    use crate::config::{enumerate, DesignSpaceLimits};
    use crate::platform::Platform;
    use flexcl_interp::KernelArg;

    fn vadd_analysis() -> KernelAnalysis {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        KernelAnalysis::analyze(
            &f,
            &Platform::virtex7_adm7v3(),
            &Workload {
                args: vec![
                    KernelArg::FloatBuf(vec![1.0; 1024]),
                    KernelArg::FloatBuf(vec![2.0; 1024]),
                    KernelArg::FloatBuf(vec![0.0; 1024]),
                ],
                global: (1024, 1),
            },
            (64, 1),
        )
        .expect("analysis")
    }

    #[test]
    fn context_matches_uncached_estimate_over_the_enumerated_space() {
        let a = vadd_analysis();
        let space = enumerate(&DesignSpaceLimits {
            global_x: 1024,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: Some((64, 1)),
            vectorizable: true,
            iterative: false,
        });
        assert!(space.len() > 50);
        let mut ctx = EvalContext::new(&a);
        for cfg in &space {
            let cached = ctx.estimate(cfg).expect("ctx estimate");
            let fresh = crate::model::estimate(&a, cfg).expect("fresh estimate");
            assert_eq!(cached, fresh, "{cfg}");
        }
        assert!(ctx.stats.sched_cache_hits > 0, "sweep must hit the cache");
        assert!(
            ctx.stats.sched_cache_misses < space.len() as u64 / 4,
            "{} misses over {} configs: budgets did not collapse",
            ctx.stats.sched_cache_misses,
            space.len()
        );
    }

    #[test]
    fn invalid_config_is_rejected_before_caching() {
        let a = vadd_analysis();
        let mut ctx = EvalContext::new(&a);
        let bad = OptimizationConfig { num_pes: 0, ..OptimizationConfig::default() };
        assert!(ctx.estimate(&bad).is_err());
        assert_eq!(ctx.stats.sched_cache_misses, 0);
    }
}
