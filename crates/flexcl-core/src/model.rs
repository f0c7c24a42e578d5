//! The FlexCL performance equations (§3.3–§3.5).
//!
//! Given a [`KernelAnalysis`] and an [`OptimizationConfig`], [`estimate`]
//! evaluates:
//!
//! * the **PE model** — Eq. 1 with `II_comp^wi`/`D_comp^PE` from
//!   `MII = max(RecMII, ResMII)` refined by swing modulo scheduling;
//! * the **CU model** — Eq. 5–6, PE parallelism capped by shared local
//!   memory ports and DSPs;
//! * the **kernel model** — Eq. 7–8 with the work-group scheduling
//!   overhead `ΔL`;
//! * the **global memory model** — Eq. 9 over the eight Table-1 patterns;
//! * the **integration** — barrier mode (Eq. 10) or pipeline mode
//!   (Eq. 11–12).
//!
//! Deviation note: Eq. 6 of the paper divides port counts by `N·P`, which
//! is dimensionally inconsistent with its own Eq. 4 (it would *shrink*
//! usable parallelism quadratically). We implement the standard
//! resource-sharing form `N_PE = min(P, Ports/N_read, Ports/N_write,
//! DSPs/DSPs_per_PE)`, with ports scaling with the partition factor the
//! toolchain applies when unrolling.

use crate::analysis::KernelAnalysis;
use crate::config::{CommMode, OptimizationConfig, MAX_CUS, MAX_PES, MAX_VECTOR_WIDTH};
use crate::error::FlexclError;
use flexcl_sched::ResourceBudget;
use std::fmt;

/// Why a configuration does not fit on the device.
///
/// A plain-data enum rather than a formatted `String`: large sweeps visit
/// hundreds of thousands of infeasible points (extreme `P·C` products are
/// DSP-bound), and allocating a message per point dominated the sweep's
/// time before the work-stealing scheduler landed. The human-readable
/// form is produced on demand by the `Display` impl.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InfeasibleReason {
    /// The configuration needs more DSP slices than the device has.
    Dsps {
        /// DSPs the replicated design would consume.
        needed: u64,
        /// DSPs on the device.
        available: u32,
    },
    /// The configuration needs more BRAM than the device has.
    BramBytes {
        /// BRAM bytes the replicated local arrays would consume.
        needed: u64,
        /// BRAM bytes on the device.
        available: u64,
    },
}

impl fmt::Display for InfeasibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfeasibleReason::Dsps { needed, available } => {
                write!(f, "needs {needed} DSPs, device has {available}")
            }
            InfeasibleReason::BramBytes { needed, available } => {
                write!(f, "needs {needed} BRAM bytes, device has {available}")
            }
        }
    }
}

/// A performance estimate for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Total kernel cycles (`T_kernel`). `f64::INFINITY` when infeasible.
    pub cycles: f64,
    /// Work-item initiation interval from the computation model.
    pub ii_comp: u32,
    /// PE pipeline depth `D_comp^PE`.
    pub depth: u32,
    /// Integrated initiation interval `II_wi = max(L_mem^wi, II_comp^wi)`
    /// (pipeline mode only; equals `ii_comp` in barrier mode).
    pub ii_wi: f64,
    /// Per-work-item global-memory latency `L_mem^wi` (Eq. 9).
    pub l_mem_wi: f64,
    /// Work-group latency on one CU (`L_comp^CU`, Eq. 5).
    pub l_cu: f64,
    /// Computation latency of the whole kernel (`L_comp^kernel`, Eq. 7).
    pub l_comp_kernel: f64,
    /// Effective PE parallelism (Eq. 6).
    pub n_pe: u32,
    /// Effective CU parallelism (Eq. 8).
    pub n_cu: u32,
    /// Communication mode used.
    pub mode: CommMode,
    /// Compute share of `cycles` (PE/CU pipeline time across all rounds).
    /// Together with `mem_cycles` and `overhead_cycles` this sums exactly
    /// to `cycles`, so divergence against the simulator can be attributed
    /// per component. Zero when infeasible.
    pub comp_cycles: f64,
    /// Global-memory share of `cycles` (Eq. 9/11 terms across all rounds).
    pub mem_cycles: f64,
    /// Dispatch (`ΔL`) and kernel-launch share of `cycles`.
    pub overhead_cycles: f64,
    /// Whether the configuration fits on the device.
    pub feasible: bool,
    /// Reason when infeasible (render with `Display`).
    pub infeasible_reason: Option<InfeasibleReason>,
}

impl Estimate {
    /// Estimated wall-clock seconds at the platform frequency.
    pub fn seconds(&self, frequency_mhz: f64) -> f64 {
        cycles_to_seconds(self.cycles, frequency_mhz)
    }
}

/// Converts a cycle count to wall-clock seconds at `frequency_mhz`.
///
/// The single conversion shared by the model's [`Estimate`] and the System
/// Run simulator's result type. Guards against `frequency_mhz <= 0` (and
/// NaN/infinite frequencies), returning 0.0 instead of propagating
/// `inf`/NaN into downstream speedup ratios.
pub fn cycles_to_seconds(cycles: f64, frequency_mhz: f64) -> f64 {
    if frequency_mhz > 0.0 && frequency_mhz.is_finite() {
        cycles / (frequency_mhz * 1e6)
    } else {
        0.0
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.feasible {
            write!(
                f,
                "{:.0} cycles (II={}, D={}, L_mem/wi={:.1}, N_PE={}, N_CU={}, {})",
                self.cycles,
                self.ii_comp,
                self.depth,
                self.l_mem_wi,
                self.n_pe,
                self.n_cu,
                self.mode
            )
        } else {
            match &self.infeasible_reason {
                Some(reason) => write!(f, "infeasible: {reason}"),
                None => f.write_str("infeasible: unknown"),
            }
        }
    }
}

/// Derives the per-PE scheduling budget for a configuration.
///
/// Unrolling to `P` PEs makes the toolchain partition local arrays `P`
/// ways, so port counts scale with the partition factor; DSP issue slots
/// depend on how many cores fit in the PE's area share.
pub fn pe_budget(analysis: &KernelAnalysis, config: &OptimizationConfig) -> ResourceBudget {
    let platform = &analysis.platform;
    let p_eff = config.effective_pes().max(1);
    // Saturating: `num_cus · effective_pes` can exceed `u32::MAX` for
    // adversarial (but structurally valid) configurations; the correct
    // reading is "replication so extreme each PE gets no DSP share", not
    // a wrapped product handing out an inflated budget.
    let dsps_per_pe_avail =
        platform.total_dsps / config.num_cus.max(1).saturating_mul(p_eff).max(1);
    let dsp_slots = match analysis.static_dsps_per_pe.checked_div(analysis.dsp_op_instances) {
        None => u32::MAX,
        Some(q) => {
            let avg_per_core = q.max(1);
            // Cores that fit in this PE's share; every op having its own
            // core removes the constraint.
            (dsps_per_pe_avail / avg_per_core).clamp(1, analysis.dsp_op_instances)
        }
    };
    ResourceBudget {
        local_read_ports: platform.local_read_ports_per_bank,
        local_write_ports: platform.local_write_ports_per_bank,
        dsps: dsp_slots,
        global_ports: platform.global_ports,
    }
}

/// `RecMII` of a thread-coarsened PE: merging `cf` work-items per coarse
/// item leaves each recurrence's cycle latency `L` intact but makes every
/// initiation advance `cf` work-items, so the constraint tightens from
/// `ceil(L / d)` to `ceil(cf · L / d)` per recurrence. Reduces to
/// [`KernelAnalysis::rec_mii`] exactly at `cf == 1`.
pub fn coarsened_rec_mii(analysis: &KernelAnalysis, cf: u32) -> u32 {
    analysis
        .recurrences
        .iter()
        .map(|r| {
            let scaled = u64::from(cf).saturating_mul(r.cycle_latency);
            scaled.div_ceil(u64::from(r.distance.max(1))).min(u64::from(u32::MAX)) as u32
        })
        .max()
        .unwrap_or(0)
}

/// Re-derives a PE's pipeline parameters for a coarsening factor `cf`
/// from the scheduled base `(ii, depth)` (DESIGN.md §15).
///
/// The coarse item's body is the base body repeated `cf` times, software-
/// pipelined: the recurrence-free portion of the initiation interval
/// (`ii - rec`) is paid once per merged work-item, while the recurrence
/// bound amortizes across the merged items (`rec_cf = ceil(cf·L/d)` ≤
/// `cf · ceil(L/d)`) — the core win thread coarsening buys on FPGAs.
/// Depth grows by the `(cf - 1)` extra initiations the first coarse item
/// absorbs. Exact identity at `cf == 1`: returns `(ii, depth)` unchanged.
pub fn coarsened_pipeline_params(
    analysis: &KernelAnalysis,
    ii: u32,
    depth: u32,
    cf: u32,
) -> (u32, u32) {
    if cf <= 1 {
        return (ii, depth);
    }
    let rec = analysis.rec_mii();
    let rec_cf = coarsened_rec_mii(analysis, cf);
    let ii_cf = cf.saturating_mul(ii.saturating_sub(rec)).saturating_add(rec_cf).max(1);
    let depth_cf = depth.saturating_add((cf - 1).saturating_mul(ii));
    (ii_cf, depth_cf)
}

/// Per-step compute redundancy of a temporal block of depth `tb`
/// (DESIGN.md §15): fusing `tb` stencil steps on chip means step `k`
/// must be computed over a halo-expanded tile — radius `tb - 1 - k`
/// remains for the later steps — so its item count inflates by
/// `rho_k = prod_d (1 + 2·(tb-1-k) / t_d)` over the blocked dimensions
/// (`t_d` = work-group extent where the NDRange extends; dimensions of
/// size 1 are not blocked). `rho_{tb-1} == 1`: the last step computes
/// exactly the tile. At `tb == 1` this is `[1.0]` — no redundancy.
pub fn temporal_step_redundancy(work_group: (u32, u32), global: (u64, u64), tb: u32) -> Vec<f64> {
    let tb = tb.max(1);
    (0..tb)
        .map(|k| {
            let halo = f64::from(tb - 1 - k);
            let mut rho = 1.0f64;
            if global.0 > 1 {
                rho *= 1.0 + 2.0 * halo / f64::from(work_group.0.max(1));
            }
            if global.1 > 1 {
                rho *= 1.0 + 2.0 * halo / f64::from(work_group.1.max(1));
            }
            rho
        })
        .collect()
}

/// Evaluates the full model for one configuration.
///
/// Infeasible configurations (device capacity exceeded) are a *successful*
/// estimate with `feasible == false` and infinite cycles; errors are
/// reserved for inputs the model cannot evaluate at all.
///
/// The implementation lives in [`crate::eval::EvalContext`], which this
/// function instantiates per call; batch callers evaluating many
/// configurations against one analysis should hold a context themselves
/// to reuse its budget-keyed schedule caches.
///
/// # Errors
///
/// Returns [`FlexclError::Config`] if `config` violates its structural
/// invariants and [`FlexclError::Scheduling`] if the kernel cannot be
/// scheduled under the configuration's resource budget.
pub fn estimate(
    analysis: &KernelAnalysis,
    config: &OptimizationConfig,
) -> Result<Estimate, FlexclError> {
    crate::eval::EvalContext::new(analysis).estimate(config)
}

/// A cheap monotonic lower bound on [`estimate`]'s `cycles` over every
/// configuration [`crate::config::enumerate`] can generate for this
/// analysis (i.e. this work-group size) and communication mode.
///
/// Used by branch-and-bound pruning in the design-space sweep: if the
/// bound for a `(work_group, comm_mode)` family already exceeds the best
/// feasible cycle count seen so far, no configuration in the family can
/// win and the whole family is skipped without scheduling a single PE.
///
/// Soundness: the bound relaxes every knob to its most optimistic
/// enumerated extreme simultaneously —
///
/// * `L_mem^wi` is a property of the analysis and mode alone (Eq. 9);
///   every configuration pays at least the group's memory volume
///   (barrier mode adds it, pipeline mode floors group time with it);
/// * computation is bounded below by the wave count at maximal PE
///   parallelism (`MAX_PES · MAX_VECTOR_WIDTH` scalar lanes) with
///   `II = 1` and `depth = 0`;
/// * rounds are bounded below with full CU replication (`MAX_CUS`);
/// * the fixed `ΔL`/launch overheads of Eq. 7 and Eq. 10–12 are always
///   paid.
///
/// Infeasible configurations cost `f64::INFINITY`, so any finite bound
/// trivially under-estimates them.
pub fn cycle_lower_bound(analysis: &KernelAnalysis, mode: CommMode) -> f64 {
    let platform = &analysis.platform;
    let n_wi_kernel = (analysis.global.0 * analysis.global.1) as f64;
    let n_wi_wg = (u64::from(analysis.work_group.0) * u64::from(analysis.work_group.1)) as f64;
    // Coarsening can only shrink per-original-work-item memory latency
    // (merged accesses deduplicate and re-coalesce), so the bound takes
    // the minimum over every memory level.
    let pipeline = matches!(mode, CommMode::Pipeline);
    let l_mem_wi = analysis
        .mem_levels
        .iter()
        .map(|lvl| lvl.l_mem_wi(&analysis.pattern_latencies, mode))
        .fold(f64::INFINITY, f64::min);
    // The integration scales memory by the contention curve's factor at
    // the configuration's CU count; the curve's minimum keeps the bound
    // under every reachable factor (interpolation never dips below it).
    let mem_group = l_mem_wi * n_wi_wg * analysis.contention.min_factor(pipeline);

    // Best enumerable computation: every wave issues in one cycle, over
    // the fewest issuable items (maximal coarsening merges MAX_COARSEN
    // work-items per coarse item).
    let max_lanes = f64::from(MAX_PES * MAX_VECTOR_WIDTH);
    let items_min = n_wi_wg / f64::from(crate::config::MAX_COARSEN);
    let waves_min = ((items_min - max_lanes) / max_lanes).ceil().max(0.0);

    // Fewest rounds: full CU replication.
    let rounds_min = (n_wi_kernel / (n_wi_wg * f64::from(MAX_CUS))).ceil().max(1.0);

    let dl = f64::from(platform.schedule_overhead);
    let dl_warm = dl * (1.0 - platform.dispatch_overlap).max(0.0);
    let launch = f64::from(platform.launch_overhead);
    let per_round = match mode {
        CommMode::Barrier => mem_group + waves_min,
        CommMode::Pipeline => waves_min.max(mem_group),
    };
    let bound = (per_round + dl_warm) * rounds_min + dl + launch;
    // Temporal blocking amortizes everything across up to
    // MAX_TEMPORAL_DEPTH fused steps on iterative kernels; dividing keeps
    // the bound under every enumerable depth (and trivially under depth 1).
    if crate::config::is_iterative_stencil(&analysis.func.name) {
        bound / f64::from(crate::config::MAX_TEMPORAL_DEPTH)
    } else {
        bound
    }
}

/// Eq. 6 (standard resource-sharing form; see module docs).
pub(crate) fn effective_pe_parallelism(
    analysis: &KernelAnalysis,
    config: &OptimizationConfig,
) -> u32 {
    let platform = &analysis.platform;
    let p_eff = config.effective_pes().max(1);
    // Unrolling partitions local arrays P ways; total CU ports scale.
    let port_read = platform.local_read_ports_per_bank * p_eff;
    let port_write = platform.local_write_ports_per_bank * p_eff;
    let mut cap = p_eff;
    let max_reads = analysis.local_reads.values().fold(0.0f64, |a, b| a.max(*b));
    if max_reads > 0.0 {
        cap = cap.min(((f64::from(port_read) / max_reads).floor() as u32).max(1));
    }
    let max_writes = analysis.local_writes.values().fold(0.0f64, |a, b| a.max(*b));
    if max_writes > 0.0 {
        cap = cap.min(((f64::from(port_write) / max_writes).floor() as u32).max(1));
    }
    let dsps_per_cu = platform.total_dsps / config.num_cus.max(1);
    if let Some(q) = dsps_per_cu.checked_div(analysis.static_dsps_per_pe) {
        cap = cap.min(q.max(1));
    }
    cap.max(1)
}

pub(crate) fn infeasible(config: &OptimizationConfig, reason: InfeasibleReason) -> Estimate {
    Estimate {
        cycles: f64::INFINITY,
        ii_comp: 0,
        depth: 0,
        ii_wi: 0.0,
        l_mem_wi: 0.0,
        l_cu: 0.0,
        l_comp_kernel: 0.0,
        n_pe: 0,
        n_cu: 0,
        mode: config.comm_mode,
        comp_cycles: 0.0,
        mem_cycles: 0.0,
        overhead_cycles: 0.0,
        feasible: false,
        infeasible_reason: Some(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workload;
    use crate::platform::Platform;
    use flexcl_interp::KernelArg;

    fn analyze(src: &str, args: Vec<KernelArg>, global: u64, wg: u32) -> KernelAnalysis {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        KernelAnalysis::analyze(
            &f,
            &Platform::virtex7_adm7v3(),
            &Workload { args, global: (global, 1) },
            (wg, 1),
        )
        .expect("analysis")
    }

    fn vadd_analysis() -> KernelAnalysis {
        analyze(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
            vec![
                KernelArg::FloatBuf(vec![1.0; 1024]),
                KernelArg::FloatBuf(vec![2.0; 1024]),
                KernelArg::FloatBuf(vec![0.0; 1024]),
            ],
            1024,
            64,
        )
    }

    #[test]
    fn pipelining_helps() {
        let a = vadd_analysis();
        let base = OptimizationConfig::baseline((64, 1));
        let piped = OptimizationConfig { work_item_pipeline: true, ..base };
        let t0 = estimate(&a, &base).expect("estimate");
        let t1 = estimate(&a, &piped).expect("estimate");
        assert!(t1.cycles < t0.cycles, "pipeline {} vs base {}", t1.cycles, t0.cycles);
        assert!(t1.ii_comp < t1.depth);
    }

    #[test]
    fn pipeline_mode_beats_barrier_mode_for_streaming() {
        let a = vadd_analysis();
        let barrier = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let pipe = OptimizationConfig { comm_mode: CommMode::Pipeline, ..barrier };
        let tb = estimate(&a, &barrier).expect("estimate");
        let tp = estimate(&a, &pipe).expect("estimate");
        assert!(tp.cycles < tb.cycles, "pipeline mode {} vs barrier mode {}", tp.cycles, tb.cycles);
    }

    #[test]
    fn more_cus_reduce_computation_time() {
        let a = vadd_analysis();
        let one = OptimizationConfig {
            work_item_pipeline: true,
            comm_mode: CommMode::Pipeline,
            ..OptimizationConfig::baseline((64, 1))
        };
        let four = OptimizationConfig { num_cus: 4, ..one };
        let t1 = estimate(&a, &one).expect("estimate");
        let t4 = estimate(&a, &four).expect("estimate");
        assert!(t4.cycles < t1.cycles);
        assert!(t4.n_cu > t1.n_cu);
    }

    #[test]
    fn pe_parallelism_reduces_cu_latency() {
        let a = vadd_analysis();
        let p1 = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let p4 = OptimizationConfig { num_pes: 4, ..p1 };
        let t1 = estimate(&a, &p1).expect("estimate");
        let t4 = estimate(&a, &p4).expect("estimate");
        assert!(t4.l_cu < t1.l_cu, "P=4 {} vs P=1 {}", t4.l_cu, t1.l_cu);
        assert_eq!(t4.n_pe, 4);
    }

    #[test]
    fn recurrence_limits_pipelining() {
        let a = analyze(
            "__kernel void scan(__global float* b, __global float* x) {
                int i = get_global_id(0);
                b[i + 1] = b[i] + x[i];
            }",
            vec![KernelArg::FloatBuf(vec![0.0; 1100]), KernelArg::FloatBuf(vec![1.0; 1100])],
            1024,
            64,
        );
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let t = estimate(&a, &cfg).expect("estimate");
        assert!(t.ii_comp > 1, "recurrence must keep II > 1, got {}", t.ii_comp);
    }

    #[test]
    fn infeasible_when_dsps_exhausted() {
        // A DSP-heavy kernel at extreme replication must not fit.
        let a = analyze(
            "__kernel void heavy(__global float* x) {
                int i = get_global_id(0);
                float v = x[i];
                v = exp(v) * log(v) * sin(v) * cos(v) * pow(v, 2.5f) * sqrt(v);
                v = v * exp(v * 2.0f) * log(v + 1.0f) * sin(v * 3.0f);
                x[i] = v;
            }",
            vec![KernelArg::FloatBuf(vec![1.5; 1024])],
            1024,
            64,
        );
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 16,
            num_cus: 4,
            vector_width: 4,
            ..OptimizationConfig::baseline((64, 1))
        };
        let t = estimate(&a, &cfg).expect("estimate");
        assert!(!t.feasible, "{t}");
        assert!(t.cycles.is_infinite());
    }

    #[test]
    fn estimate_scales_with_workload() {
        let small = vadd_analysis();
        let big = analyze(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
            vec![
                KernelArg::FloatBuf(vec![1.0; 4096]),
                KernelArg::FloatBuf(vec![2.0; 4096]),
                KernelArg::FloatBuf(vec![0.0; 4096]),
            ],
            4096,
            64,
        );
        let cfg = OptimizationConfig::baseline((64, 1));
        let ts = estimate(&small, &cfg).expect("estimate");
        let tb = estimate(&big, &cfg).expect("estimate");
        let ratio = tb.cycles / ts.cycles;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn vectorization_acts_like_pe_replication() {
        let a = vadd_analysis();
        let scalar = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 4,
            ..OptimizationConfig::baseline((64, 1))
        };
        let vectored = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 1,
            vector_width: 4,
            ..OptimizationConfig::baseline((64, 1))
        };
        let ts = estimate(&a, &scalar).expect("estimate");
        let tv = estimate(&a, &vectored).expect("estimate");
        assert_eq!(ts.n_pe, tv.n_pe, "int4 vectorization == 4 scalar PEs (§3.3.2 fn1)");
        assert!((ts.l_cu - tv.l_cu).abs() < 1e-9);
    }

    #[test]
    fn local_memory_ports_cap_pe_parallelism() {
        // A kernel reading 3 local slots per work-item: with 2 read ports
        // per bank and P-way partitioning, N_PE < P.
        let a = analyze(
            "__kernel void stencil(__global float* in, __global float* out) {
                __local float tile[66];
                int l = get_local_id(0);
                int i = get_global_id(0);
                tile[l + 1] = in[i];
                barrier(CLK_LOCAL_MEM_FENCE);
                out[i] = tile[l] + tile[l + 1] + tile[l + 2];
            }",
            vec![KernelArg::FloatBuf(vec![1.0; 1024]), KernelArg::FloatBuf(vec![0.0; 1024])],
            1024,
            64,
        );
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 8,
            ..OptimizationConfig::baseline((64, 1))
        };
        let est = estimate(&a, &cfg).expect("estimate");
        assert!(est.n_pe < 8, "3 reads vs 2 ports/bank must cap N_PE, got {}", est.n_pe);
        assert!(est.n_pe >= 1);
    }

    #[test]
    fn barrier_mode_charges_memory_per_group() {
        let a = vadd_analysis();
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let est = estimate(&a, &cfg).expect("estimate");
        // Eq. 10 decomposition: total ≥ memory term alone.
        let mem_total = est.l_mem_wi * 1024.0;
        assert!(est.cycles > mem_total, "cycles {} vs mem {}", est.cycles, mem_total);
    }

    #[test]
    fn lower_bound_never_exceeds_any_estimate() {
        let a = vadd_analysis();
        let limits = crate::config::DesignSpaceLimits {
            global_x: 1024,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: Some((64, 1)),
            vectorizable: true,
            iterative: false,
        };
        let space = crate::config::enumerate(&limits);
        assert!(!space.is_empty());
        for cfg in space {
            let est = estimate(&a, &cfg).expect("estimate");
            let bound = cycle_lower_bound(&a, cfg.comm_mode);
            assert!(bound <= est.cycles, "{cfg}: bound {bound} exceeds estimate {}", est.cycles);
        }
    }

    #[test]
    fn extreme_replication_saturates_instead_of_overflowing() {
        // `OptimizationConfig::validate` bounds `num_pes · vector_width`
        // but not `num_cus · effective_pes`, so u32::MAX CUs is a
        // structurally valid input; the budget product in `pe_budget`
        // previously overflowed u32 on it (a debug-build panic, an
        // inflated DSP budget in release).
        let a = vadd_analysis();
        let cfg = OptimizationConfig {
            num_cus: u32::MAX,
            num_pes: 2,
            ..OptimizationConfig::baseline((64, 1))
        };
        cfg.validate().expect("structurally valid");
        let saturated = pe_budget(&a, &cfg);
        let modest = pe_budget(&a, &OptimizationConfig { num_cus: 1, ..cfg });
        assert!(
            saturated.dsps <= modest.dsps,
            "more replication must never raise the per-PE budget: {} > {}",
            saturated.dsps,
            modest.dsps
        );
        let est = estimate(&a, &cfg).expect("extreme config must evaluate, not overflow");
        assert!(est.feasible || est.cycles.is_infinite());
    }

    #[test]
    fn estimate_display() {
        let a = vadd_analysis();
        let t = estimate(&a, &OptimizationConfig::baseline((64, 1))).expect("estimate");
        let s = t.to_string();
        assert!(s.contains("cycles"));
        assert!(s.contains("N_PE=1"));
    }
}
