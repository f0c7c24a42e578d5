//! The System Run simulator.
//!
//! This plays the role of the paper's ground truth: the kernel synthesized
//! by SDAccel, flashed and measured on the board. It executes the design
//! *mechanistically* — per-operation implementation variance, a behavioural
//! banked DRAM with open-row state shared across compute units, serialized
//! per-CU AXI burst engines, round-robin work-group dispatch with jittered
//! overhead — rather than evaluating the closed-form FlexCL equations, so
//! the analytical model's error against it is a genuine quantity.

use crate::perturb::{perturb_graph, sample_aggregate_factor};
use flexcl_core::analysis::{trace_to_group_bursts, OwnedBurst};
use flexcl_core::CommMode;
use flexcl_core::{
    estimate, pe_budget, FlexclError, KernelAnalysis, OptimizationConfig, Platform, Workload,
};
use flexcl_dram::{AccessKind, DramSim, Request};
use flexcl_interp::{run, KernelArg, NdRange, RunOptions};
use flexcl_ir::Function;
use flexcl_sched::sms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::fmt;

/// Options for a simulated system run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Seed of the synthesis-variance RNG (a given bitstream is fixed; a
    /// given seed is too).
    pub seed: u64,
    /// Refuse to simulate more work-items than this (runaway protection).
    pub max_work_items: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { seed: 0xF1E2C, max_work_items: 1 << 20 }
    }
}

/// Result of a system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measured kernel execution time in cycles.
    pub cycles: f64,
    /// Work-groups executed.
    pub groups: u64,
    /// The initiation interval realised by the synthesized pipeline.
    pub ii: u32,
    /// The realised pipeline depth.
    pub depth: u32,
    /// Compute share of `cycles` along the critical CU's timeline.
    /// `comp_cycles + mem_cycles + overhead_cycles == cycles`, mirroring the
    /// decomposition on [`flexcl_core::Estimate`] so model-vs-sim divergence
    /// can be attributed per component.
    pub comp_cycles: f64,
    /// DRAM stall share of `cycles` along the critical CU's timeline.
    pub mem_cycles: f64,
    /// Dispatch and launch overhead share of `cycles`.
    pub overhead_cycles: f64,
}

impl SimResult {
    /// Wall-clock seconds at `frequency_mhz`.
    pub fn seconds(&self, frequency_mhz: f64) -> f64 {
        flexcl_core::cycles_to_seconds(self.cycles, frequency_mhz)
    }
}

/// System-run failures.
#[derive(Debug)]
pub enum SimError {
    /// The design does not fit the device (synthesis would fail).
    Infeasible(String),
    /// Kernel analysis / execution failed.
    Analysis(FlexclError),
    /// The workload exceeds the simulation budget.
    TooLarge(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Infeasible(r) => write!(f, "design infeasible: {r}"),
            SimError::Analysis(e) => write!(f, "{e}"),
            SimError::TooLarge(n) => write!(f, "workload of {n} work-items exceeds budget"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<FlexclError> for SimError {
    fn from(e: FlexclError) -> Self {
        SimError::Analysis(e)
    }
}

/// Simulates a full kernel execution ("System Run") from scratch: the
/// budget check, a fresh [`KernelAnalysis`] at the configuration's
/// work-group, then [`simulate`].
///
/// # Errors
///
/// Returns [`SimError`] when the design is infeasible, the workload too
/// large, or analysis or execution fails.
pub fn system_run(
    func: &Function,
    platform: &Platform,
    workload: &Workload,
    config: &OptimizationConfig,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    check_budget(workload, opts)?;
    let analysis = KernelAnalysis::analyze(func, platform, workload, config.work_group)?;
    simulate(&analysis, workload, config, opts)
}

fn check_budget(workload: &Workload, opts: SimOptions) -> Result<(), SimError> {
    if workload.total_work_items() > opts.max_work_items {
        return Err(SimError::TooLarge(workload.total_work_items()));
    }
    Ok(())
}

/// Simulates a full kernel execution against the analysis of its family
/// (the kernel, platform and workload `analysis` was built from, at the
/// configuration's work-group): callers that already hold the family's
/// analysis, such as a design-space sweep, skip re-analyzing it. Results
/// are bit-identical to [`system_run`]'s.
///
/// # Errors
///
/// As [`system_run`], plus [`SimError::Analysis`] wrapping
/// [`FlexclError::Config`] when `analysis` was built for another
/// work-group or global NDRange than `config` and `workload` describe.
pub fn simulate(
    analysis: &KernelAnalysis,
    workload: &Workload,
    config: &OptimizationConfig,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    check_budget(workload, opts)?;
    if analysis.work_group != config.work_group || analysis.global != workload.global {
        let (wg, global) = (analysis.work_group, analysis.global);
        let detail =
            format!("analysis of work-group {wg:?} over {global:?} run over {:?}", workload.global);
        return Err(SimError::Analysis(FlexclError::Config { config: *config, detail }));
    }
    let (func, platform) = (&*analysis.func, &*analysis.platform);
    let est = estimate(analysis, config)?;
    if !est.feasible {
        return Err(SimError::Infeasible(
            est.infeasible_reason
                .map(|r| r.to_string())
                .unwrap_or_else(|| "resources exceeded".into()),
        ));
    }

    let mut rng = StdRng::seed_from_u64(
        opts.seed ^ (config_hash(config)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );

    // ---- synthesized pipeline parameters (perturbed) -------------------
    let budget = pe_budget(analysis, config);
    let (ii_base, depth_base) = if config.work_item_pipeline {
        let (g, _) = analysis.work_item_graph(&budget)?;
        let pg = perturb_graph(&g, &mut rng);
        let floor = (analysis.work_item_latency(&budget)?
            * sample_aggregate_factor(&mut rng, g.len()))
        .round() as u32;
        let s = sms::schedule(&pg, &budget, floor);
        (s.ii.max(analysis.rec_mii()).max(analysis.res_mii(&budget)), s.depth)
    } else {
        let d = (analysis.work_item_latency(&budget)?
            * sample_aggregate_factor(&mut rng, analysis.func.insts.len()))
        .round()
        .max(1.0) as u32;
        (d, d)
    };
    // Thread coarsening re-derives the synthesized pipeline from the
    // *perturbed* base parameters — the same analytical relation the model
    // uses, applied to this "synthesis run"'s schedule. Pass-through at
    // cf == 1.
    let cf = config.coarsen_factor.max(1);
    let tb = config.temporal_block_depth.max(1);
    let (ii_sim, depth_sim) = if config.work_item_pipeline {
        flexcl_core::model::coarsened_pipeline_params(analysis, ii_base, depth_base, cf)
    } else {
        let d = ii_base.saturating_mul(cf).max(1);
        (d, d)
    };

    // ---- full execution trace ------------------------------------------
    let nd = NdRange {
        global: [workload.global.0, workload.global.1, 1],
        local: [u64::from(config.work_group.0), u64::from(config.work_group.1), 1],
    };
    let mut args: Vec<KernelArg> = workload.args.clone();
    let profile = run(func, &mut args, nd, RunOptions::default()).map_err(|e| {
        SimError::Analysis(FlexclError::Profiling {
            kernel: func.name.clone(),
            work_group: config.work_group,
            source: e,
        })
    })?;

    // Shared representation with the analytical model: per-group coalesced
    // bursts in work-item order. Coarsening merges the trace exactly as the
    // analysis does (dedupe per coarse item, re-coalesce) — the merged
    // stream IS the memory behaviour of the coarsened design.
    let unit_bytes = platform.mem_access_unit_bits / 8;
    let trace = flexcl_core::coarsen_trace(&profile.trace, cf);
    let group_bursts: std::collections::HashMap<u64, Vec<OwnedBurst>> =
        trace_to_group_bursts(&trace, unit_bytes).into_iter().collect();

    // ---- execution -------------------------------------------------------
    let n_groups = nd.num_groups();
    let wg_size = nd.work_group_size();
    let n_pe = u64::from(est.n_pe.max(1));
    // A CU issues coarse items (`cf` divides the work-group size).
    let wg_items = wg_size / u64::from(cf);
    // Temporal blocking fuses `tb` stencil steps per tile: memory streams
    // once per block, step k computes over a halo-expanded tile (rho_k ×
    // the items), and the block's time amortizes over its steps at the end.
    let rho =
        flexcl_core::model::temporal_step_redundancy(analysis.work_group, analysis.global, tb);
    let comp_phase = |items: u64| -> f64 {
        if config.work_item_pipeline {
            let waves = ((items.saturating_sub(n_pe)) as f64 / n_pe as f64).ceil();
            f64::from(ii_sim) * waves + f64::from(depth_sim)
        } else {
            (items as f64 / n_pe as f64).ceil() * f64::from(depth_sim)
        }
    };
    let items0 = (wg_items as f64 * rho[0]).ceil() as u64;
    // Steps after the first run out of on-chip buffers — pure compute.
    let extra_comp: f64 =
        rho[1..].iter().map(|&r| comp_phase((wg_items as f64 * r).ceil() as u64)).sum();
    // One DRAM state per CU. Groups are simulated sequentially, so sharing
    // bank state across concurrently-running CUs would let a group's
    // *later* writes block another CU's *earlier* reads — an ordering
    // artifact, not contention. Real multi-bank DDR interleaves
    // independent streams; per-CU state models that correctly.
    let mut channels: Vec<DramSim> =
        (0..config.num_cus.max(1) as usize).map(|_| DramSim::new(platform.dram)).collect();
    let mut cu_free = vec![0f64; config.num_cus.max(1) as usize];
    let mut cu_warm = vec![false; cu_free.len()];
    // Per-CU timeline decomposition: dispatch overhead, compute, and DRAM
    // stall cycles sum to that CU's finish time.
    let mut cu_comp = vec![0f64; cu_free.len()];
    let mut cu_mem = vec![0f64; cu_free.len()];
    let mut cu_overhead = vec![0f64; cu_free.len()];
    let empty: Vec<OwnedBurst> = Vec::new();

    for g in 0..n_groups {
        // Round-robin onto the earliest-free CU. The scheduler prepares the
        // next work-group while the current one drains, so a warm CU pays
        // only a fraction of the dispatch overhead; a cold CU pays it all.
        let (cu_idx, _) =
            cu_free.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("at least one CU");
        let jitter = rng.gen_range(0.85..1.25);
        let overhead_frac = if cu_warm[cu_idx] { platform.warm_dispatch_fraction() } else { 1.0 };
        cu_warm[cu_idx] = true;
        let dispatch = f64::from(platform.schedule_overhead) * jitter * overhead_frac;
        let start = cu_free[cu_idx] + dispatch;

        let bursts: &[OwnedBurst] = group_bursts.get(&g).map_or(&empty, Vec::as_slice);
        let dram = &mut channels[cu_idx];
        // SDAccel-era CUs funnel global memory through a single AXI
        // interface; bursts serialize per CU (matching the serial Eq. 9
        // assumption of the model — the model's error against this sim
        // comes from per-access bank state, not from engine topology).
        let (end, comp) = match config.comm_mode {
            CommMode::Barrier => {
                simulate_barrier_group(start, bursts, comp_phase(items0) + extra_comp, dram)
            }
            CommMode::Pipeline => simulate_pipeline_group(
                start, bursts, items0, n_pe, ii_sim, depth_sim, extra_comp, dram,
            ),
        };
        cu_overhead[cu_idx] += dispatch;
        cu_comp[cu_idx] += comp;
        cu_mem[cu_idx] += (end - start - comp).max(0.0);
        cu_free[cu_idx] = end;
    }

    let (crit, crit_free) = cu_free
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one CU");
    // A temporal block stands in for `tb` kernel invocations: every
    // component amortizes by `/tb` so the result stays comparable with
    // unblocked runs (exact division by 1.0 otherwise).
    let tbf = f64::from(tb);
    let cycles = (crit_free + f64::from(platform.launch_overhead)) / tbf;
    Ok(SimResult {
        cycles,
        groups: n_groups,
        ii: ii_sim,
        depth: depth_sim,
        comp_cycles: cu_comp[crit] / tbf,
        mem_cycles: cu_mem[crit] / tbf,
        overhead_cycles: (cu_overhead[crit] + f64::from(platform.launch_overhead)) / tbf,
    })
}

/// Barrier mode: the CU streams the group's reads through its AXI engine,
/// computes (`comp` covers every fused temporal step), then streams the
/// writes. Engine requests serialize; the CU's channel state carries
/// across the groups it runs.
///
/// Returns `(end, comp)` — the finish time and the pure compute component
/// of the group's occupancy (`end - start - comp` is its DRAM stall).
fn simulate_barrier_group(
    start: f64,
    bursts: &[OwnedBurst],
    comp: f64,
    dram: &mut DramSim,
) -> (f64, f64) {
    let mut stream = |from: f64, kind: AccessKind| {
        let mut engine_free = from;
        for b in bursts.iter().filter(|b| b.burst.kind == kind) {
            let info = dram.access(Request {
                addr: b.burst.addr,
                bytes: b.burst.bytes,
                kind,
                arrival: engine_free.round() as u64,
            });
            engine_free = info.finish as f64;
        }
        from.max(engine_free)
    };
    // Computation phase (all temporal steps back to back) between them.
    let t = stream(start, AccessKind::Read) + comp;
    (stream(t, AccessKind::Write), comp)
}

/// Pipeline mode: the CU's burst engine streams the group's transactions
/// ahead of the pipeline; an item wave can only initiate once the bursts
/// it owns have returned. Initiation otherwise advances every `ii` cycles
/// — the mechanistic counterpart of Eq. 12: the effective interval is
/// whichever of computation and memory is slower. `wg_size` counts the
/// issuable items of the first fused step (coarse items × its halo
/// expansion); `extra_comp` appends the remaining temporal steps, which
/// run out of on-chip buffers after the stream.
/// Returns `(end, comp)`; `comp` is the stall-free pipeline time
/// `ii * (waves - 1) + depth` plus `extra_comp`, a floor on the group's
/// occupancy.
#[allow(clippy::too_many_arguments)]
fn simulate_pipeline_group(
    start: f64,
    bursts: &[OwnedBurst],
    wg_size: u64,
    n_pe: u64,
    ii: u32,
    depth: u32,
    extra_comp: f64,
    dram: &mut DramSim,
) -> (f64, f64) {
    // Stream all bursts through the engine (prefetch order = work-item
    // order), recording when each owning work-item's data is ready.
    let mut engine_free = start;
    let mut owner_ready: Vec<(u64, f64)> = Vec::new(); // (owner wi, ready)
    for b in bursts {
        let info = dram.access(Request {
            addr: b.burst.addr,
            bytes: b.burst.bytes,
            kind: b.burst.kind,
            arrival: engine_free.round() as u64,
        });
        engine_free = info.finish as f64;
        match owner_ready.last_mut() {
            Some((wi, r)) if *wi == b.work_item => *r = r.max(engine_free),
            _ => owner_ready.push((b.work_item, engine_free)),
        }
    }
    owner_ready.sort_by_key(|(wi, _)| *wi);

    // Approximate each owner's rank inside the group by its position among
    // owners scaled to the group size (burst owners are evenly strided for
    // coalesced kernels; uncoalesced kernels have one owner per work-item,
    // making this exact).
    let n_owners = owner_ready.len() as u64;
    let stride = wg_size.checked_div(n_owners).map_or(1, |s| s.max(1));
    let waves = wg_size.div_ceil(n_pe.max(1));

    let mut issue = start;
    let mut oi = 0usize;
    for w in 0..waves {
        let mut t = if w == 0 { start } else { issue + f64::from(ii) };
        while oi < owner_ready.len() && (oi as u64 * stride) / n_pe.max(1) <= w {
            t = t.max(owner_ready[oi].1);
            oi += 1;
        }
        issue = t;
    }
    // Stragglers (rank estimate overflowed the wave count).
    for (_, r) in &owner_ready[oi..] {
        issue = issue.max(*r);
    }
    let comp = f64::from(ii) * (waves.saturating_sub(1)) as f64 + f64::from(depth) + extra_comp;
    (issue + f64::from(depth) + extra_comp, comp)
}

/// Deterministic hash of a configuration (perturbations differ between
/// "synthesis runs" of different configurations, as on real toolchains).
fn config_hash(c: &OptimizationConfig) -> u64 {
    let mut h = 1469598103934665603u64;
    for v in [
        u64::from(c.work_group.0),
        u64::from(c.work_group.1),
        u64::from(c.work_item_pipeline),
        u64::from(c.num_pes),
        u64::from(c.num_cus),
        u64::from(c.vector_width),
        matches!(c.comm_mode, CommMode::Pipeline) as u64,
    ] {
        h ^= v;
        h = h.wrapping_mul(1099511628211);
    }
    // The new axes fold in ONLY away from their identity values, so every
    // pre-axis configuration keeps its exact historical hash (and thus its
    // perturbation seed — committed sim baselines stay valid). Distinct
    // salts keep cf=2 and tb=2 from colliding.
    if c.coarsen_factor > 1 {
        h ^= u64::from(c.coarsen_factor) ^ 0xC0A2_5EED;
        h = h.wrapping_mul(1099511628211);
    }
    if c.temporal_block_depth > 1 {
        h ^= u64::from(c.temporal_block_depth) ^ 0x7E3B_10C4;
        h = h.wrapping_mul(1099511628211);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

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
                KernelArg::FloatBuf(vec![1.0; 1024]),
                KernelArg::FloatBuf(vec![2.0; 1024]),
                KernelArg::FloatBuf(vec![0.0; 1024]),
            ],
            global: (1024, 1),
        };
        (f, w)
    }

    #[test]
    fn system_run_is_deterministic_per_seed() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let a = system_run(&f, &platform, &w, &cfg, SimOptions::default()).expect("run");
        let b = system_run(&f, &platform, &w, &cfg, SimOptions::default()).expect("run");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_vary_mildly() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let a = system_run(&f, &platform, &w, &cfg, SimOptions { seed: 1, ..Default::default() })
            .expect("run");
        let b = system_run(&f, &platform, &w, &cfg, SimOptions { seed: 2, ..Default::default() })
            .expect("run");
        let ratio = a.cycles / b.cycles;
        assert!(ratio > 0.5 && ratio < 2.0, "seeds diverge too much: {ratio}");
    }

    #[test]
    fn pipelining_speeds_up_the_system_too() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let base = OptimizationConfig::baseline((64, 1));
        let piped = OptimizationConfig { work_item_pipeline: true, ..base };
        let t0 = system_run(&f, &platform, &w, &base, SimOptions::default()).expect("run");
        let t1 = system_run(&f, &platform, &w, &piped, SimOptions::default()).expect("run");
        assert!(t1.cycles < t0.cycles);
    }

    #[test]
    fn model_matches_system_run_within_reason() {
        // The headline property: FlexCL's estimate lands near the measured
        // ground truth for a well-behaved kernel.
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        for cfg in [
            OptimizationConfig::baseline((64, 1)),
            OptimizationConfig {
                work_item_pipeline: true,
                ..OptimizationConfig::baseline((64, 1))
            },
            OptimizationConfig {
                work_item_pipeline: true,
                comm_mode: CommMode::Pipeline,
                num_cus: 2,
                ..OptimizationConfig::baseline((64, 1))
            },
        ] {
            let analysis =
                KernelAnalysis::analyze(&f, &platform, &w, cfg.work_group).expect("analysis");
            let est = estimate(&analysis, &cfg).expect("estimate");
            let sys = system_run(&f, &platform, &w, &cfg, SimOptions::default()).expect("run");
            let err = (est.cycles - sys.cycles).abs() / sys.cycles;
            assert!(
                err < 0.5,
                "config {cfg}: model {} vs system {} (err {:.1}%)",
                est.cycles,
                sys.cycles,
                err * 100.0
            );
        }
    }

    #[test]
    fn pipeline_mode_beats_barrier_mode_in_the_system_too() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let barrier = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let pipe = OptimizationConfig { comm_mode: CommMode::Pipeline, ..barrier };
        let tb = system_run(&f, &platform, &w, &barrier, SimOptions::default()).expect("run");
        let tp = system_run(&f, &platform, &w, &pipe, SimOptions::default()).expect("run");
        assert!(
            tp.cycles < tb.cycles,
            "overlapped transfers must win: pipeline {} vs barrier {}",
            tp.cycles,
            tb.cycles
        );
    }

    #[test]
    fn cu_replication_scales_in_the_system() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let mk = |c| OptimizationConfig {
            work_item_pipeline: true,
            comm_mode: CommMode::Pipeline,
            num_cus: c,
            ..OptimizationConfig::baseline((64, 1))
        };
        let t1 = system_run(&f, &platform, &w, &mk(1), SimOptions::default()).expect("run");
        let t2 = system_run(&f, &platform, &w, &mk(2), SimOptions::default()).expect("run");
        let speedup = t1.cycles / t2.cycles;
        assert!(
            speedup > 1.5 && speedup < 2.3,
            "C=2 should roughly halve runtime, got {speedup:.2}x"
        );
    }

    #[test]
    fn larger_workload_takes_longer() {
        let platform = Platform::virtex7_adm7v3();
        let p = flexcl_frontend::parse_and_check(
            "__kernel void inc(__global int* a) {
                int i = get_global_id(0);
                a[i] = a[i] + 1;
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let cfg = OptimizationConfig::baseline((64, 1));
        let small = Workload { args: vec![KernelArg::IntBuf(vec![0; 512])], global: (512, 1) };
        let big = Workload { args: vec![KernelArg::IntBuf(vec![0; 4096])], global: (4096, 1) };
        let ts = system_run(&f, &platform, &small, &cfg, SimOptions::default()).expect("run");
        let tb = system_run(&f, &platform, &big, &cfg, SimOptions::default()).expect("run");
        let ratio = (tb.cycles - 500.0) / (ts.cycles - 500.0); // strip launch
        assert!(ratio > 6.0 && ratio < 10.0, "8x work ~ 8x time, got {ratio:.1}");
    }

    #[test]
    fn infeasible_design_fails_like_synthesis() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void heavy(__global float* x) {
                int i = get_global_id(0);
                float v = x[i];
                v = exp(v) * log(v) * sin(v) * cos(v) * pow(v, 2.5f) * sqrt(v);
                v = v * exp(v * 2.0f) * log(v + 1.0f) * sin(v * 3.0f);
                x[i] = v;
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let w = Workload { args: vec![KernelArg::FloatBuf(vec![1.5; 256])], global: (256, 1) };
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 16,
            num_cus: 4,
            vector_width: 4,
            ..OptimizationConfig::baseline((64, 1))
        };
        let err = system_run(&f, &Platform::virtex7_adm7v3(), &w, &cfg, SimOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Infeasible(_)));
    }

    /// A result's fields as bits, so equality is bit for bit.
    fn bits(r: &SimResult) -> [u64; 7] {
        let f = [r.cycles, r.comp_cycles, r.mem_cycles, r.overhead_cycles].map(f64::to_bits);
        [f[0], f[1], f[2], f[3], r.groups, u64::from(r.ii), u64::from(r.depth)]
    }

    #[test]
    fn simulate_on_a_fresh_analysis_equals_system_run() {
        let (f, w) = vadd();
        let platform = Platform::virtex7_adm7v3();
        let analysis = KernelAnalysis::analyze(&f, &platform, &w, (64, 1)).expect("analysis");
        for comm_mode in [CommMode::Barrier, CommMode::Pipeline] {
            for coarsen_factor in [1, 2] {
                for num_cus in [1, 2] {
                    let cfg = OptimizationConfig {
                        work_item_pipeline: true,
                        comm_mode,
                        coarsen_factor,
                        num_cus,
                        ..OptimizationConfig::baseline((64, 1))
                    };
                    let want =
                        system_run(&f, &platform, &w, &cfg, SimOptions::default()).expect("run");
                    let got = simulate(&analysis, &w, &cfg, SimOptions::default()).expect("run");
                    assert_eq!(bits(&got), bits(&want), "{cfg}");
                }
            }
        }
    }

    #[test]
    fn simulate_rejects_an_analysis_of_another_family() {
        let (f, w) = vadd();
        let analysis = KernelAnalysis::analyze(&f, &Platform::virtex7_adm7v3(), &w, (64, 1))
            .expect("analysis");
        let other_global = Workload { global: (512, 1), ..w.clone() };
        for (workload, wg) in [(&w, (32, 1)), (&other_global, (64, 1))] {
            let cfg = OptimizationConfig::baseline(wg);
            let err = simulate(&analysis, workload, &cfg, SimOptions::default()).unwrap_err();
            assert!(matches!(err, SimError::Analysis(FlexclError::Config { .. })), "{err}");
        }
    }

    #[test]
    fn workload_budget_enforced() {
        let (f, w) = vadd();
        let cfg = OptimizationConfig::baseline((64, 1));
        let opts = SimOptions { max_work_items: 10, ..Default::default() };
        let err = system_run(&f, &Platform::virtex7_adm7v3(), &w, &cfg, opts).unwrap_err();
        assert!(matches!(err, SimError::TooLarge(_)));
    }
}
