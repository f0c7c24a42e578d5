//! Suite-level properties of the thread-coarsening and temporal-blocking
//! axes against the System Run ground truth.
//!
//! The identity half of the contract (cf = 1 / tb = 1 configurations are
//! bit-identical to the pre-axis model) is pinned by `identity_golden`;
//! this suite covers the non-identity half: estimates at cf > 1 / tb > 1
//! must track the simulator, temporal blocking must show its predicted
//! win on the iterative stencils it was built for, and the enlarged
//! sweep grids must actually visit the new axes.

use flexcl_bench::{compile, find_spec};
use flexcl_core::{
    estimate, estimate_area, explore_space_cached, AnalysisCache, CommMode, DseOptions, DseResult,
    KernelAnalysis, OptimizationConfig, Platform, SweepGrid,
};
use flexcl_kernels::Scale;
use flexcl_sim::{system_run, SimOptions};
use std::sync::Arc;

const WG: (u32, u32) = (16, 4);

fn piped(wg: (u32, u32)) -> OptimizationConfig {
    OptimizationConfig {
        work_item_pipeline: true,
        comm_mode: CommMode::Pipeline,
        ..OptimizationConfig::baseline(wg)
    }
}

/// Model-vs-sim relative error for one configuration of a named kernel.
fn model_and_sim(name: &str, cfg: &OptimizationConfig) -> (f64, f64) {
    let spec = find_spec(name);
    let func = compile(&spec);
    let platform = Platform::virtex7_adm7v3();
    let workload = spec.workload(Scale::Test, 1234);
    let analysis =
        KernelAnalysis::analyze(&func, &platform, &workload, cfg.work_group).expect("analysis");
    let est = estimate(&analysis, cfg).expect("estimate");
    assert!(est.feasible, "{name} {cfg} must fit");
    let sys = system_run(&func, &platform, &workload, cfg, SimOptions::default()).expect("sim");
    (est.cycles, sys.cycles)
}

fn rel_err(model: f64, sim: f64) -> f64 {
    (model - sim).abs() / sim
}

#[test]
fn temporal_blocking_wins_for_jacobi2d_in_model_and_sim() {
    let base = piped(WG);
    let blocked = OptimizationConfig { temporal_block_depth: 4, ..base };
    let (m1, s1) = model_and_sim("polybench/jacobi2d", &base);
    let (m4, s4) = model_and_sim("polybench/jacobi2d", &blocked);
    assert!(m4 < m1, "model must predict the temporal-blocking win: {m4} vs {m1}");
    assert!(s4 < s1, "the simulator must realise the win: {s4} vs {s1}");
    assert!(
        rel_err(m4, s4) < 0.5,
        "blocked jacobi2d estimate off by {:.1}% (model {m4}, sim {s4})",
        rel_err(m4, s4) * 100.0
    );
}

#[test]
fn temporal_blocking_wins_for_hotspot_in_model_and_sim() {
    let base = piped(WG);
    let blocked = OptimizationConfig { temporal_block_depth: 2, ..base };
    let (m1, s1) = model_and_sim("hotspot/hotspot", &base);
    let (m2, s2) = model_and_sim("hotspot/hotspot", &blocked);
    assert!(m2 < m1, "model must predict the temporal-blocking win: {m2} vs {m1}");
    assert!(s2 < s1, "the simulator must realise the win: {s2} vs {s1}");
    assert!(
        rel_err(m2, s2) < 0.5,
        "blocked hotspot estimate off by {:.1}% (model {m2}, sim {s2})",
        rel_err(m2, s2) * 100.0
    );
}

#[test]
fn coarsened_estimates_track_the_simulator() {
    for (name, cf) in
        [("polybench/jacobi2d", 2u32), ("polybench/jacobi2d", 4), ("hotspot/hotspot", 4)]
    {
        let cfg = OptimizationConfig { coarsen_factor: cf, ..piped(WG) };
        let (m, s) = model_and_sim(name, &cfg);
        assert!(
            rel_err(m, s) < 0.5,
            "{name} cf={cf}: model {m} vs sim {s} ({:.1}% off)",
            rel_err(m, s) * 100.0
        );
    }
}

#[test]
fn fine_grid_sweeps_the_new_axes_and_blocking_reaches_the_frontier() {
    let (result, _, _) = fine_jacobi2d_families(&AnalysisCache::new());
    assert!(result.points.iter().any(|p| p.config.coarsen_factor > 1));
    assert!(result.points.iter().any(|p| p.config.temporal_block_depth > 1));
    // The best blocked point must beat the best unblocked point: the DSE
    // surfaces the reuse win, not just enumerates the axis.
    let best_at = |tb_pred: &dyn Fn(u32) -> bool| {
        result
            .points
            .iter()
            .filter(|p| p.estimate.feasible && tb_pred(p.config.temporal_block_depth))
            .map(|p| p.estimate.cycles)
            .fold(f64::INFINITY, f64::min)
    };
    let best_blocked = best_at(&|tb| tb > 1);
    let best_flat = best_at(&|tb| tb == 1);
    assert!(
        best_blocked < best_flat,
        "temporal blocking must reach the frontier: blocked {best_blocked} vs flat {best_flat}"
    );
    let best = result.best().expect("best point");
    assert!(best.estimate.feasible);
}

/// A fine-grid `polybench/jacobi2d` sweep through `cache`, the cache's
/// size after it, and the analysis of each work-group family with a
/// feasible point, looked up in the same cache.
fn fine_jacobi2d_families(cache: &AnalysisCache) -> (DseResult, usize, Vec<Arc<KernelAnalysis>>) {
    let spec = find_spec("polybench/jacobi2d");
    let func = compile(&spec);
    let platform = Platform::virtex7_adm7v3();
    let workload = spec.workload(Scale::Test, 1234);
    let opts = DseOptions::default();
    let result =
        explore_space_cached(&func, &platform, &workload, &SweepGrid::fine(), opts, None, cache)
            .expect("fine sweep");
    let swept = cache.len();
    let mut wgs: Vec<(u32, u32)> =
        result.points.iter().filter(|p| p.estimate.feasible).map(|p| p.config.work_group).collect();
    wgs.dedup();
    let analyses = wgs
        .into_iter()
        .map(|wg| cache.get_or_analyze(&func, &platform, &workload, wg, opts.fuel).expect("family"))
        .collect();
    (result, swept, analyses)
}

#[test]
fn family_lookups_after_a_sweep_hit_its_cache() {
    let cache = AnalysisCache::new();
    let (_, swept, analyses) = fine_jacobi2d_families(&cache);
    assert!(analyses.len() > 1, "the fine grid sweeps several work-groups");
    assert_eq!(cache.len(), swept, "every family's lookup hit the sweep's analysis");
}

#[test]
fn pareto_costs_every_point_at_its_own_work_group() {
    let (result, _, analyses) = fine_jacobi2d_families(&AnalysisCache::new());
    let own = |wg: (u32, u32)| {
        analyses.iter().find(|a| a.work_group == wg).expect("the point's family analysis")
    };
    let mut blocked = 0;
    for a in &analyses {
        for p in result.pareto(a) {
            blocked += usize::from(p.config.temporal_block_depth > 1);
            let want = estimate_area(own(p.config.work_group), &p.config);
            assert_eq!(p.area, want, "{} costed against {:?}", p.config, a.work_group);
        }
    }
    assert!(blocked > 0, "temporal blocking reaches the frontier");
}

#[test]
fn simulator_rejects_temporal_blocking_on_non_iterative_kernels() {
    let spec = find_spec("nn/nn");
    let func = compile(&spec);
    let platform = Platform::virtex7_adm7v3();
    let workload = spec.workload(Scale::Test, 1234);
    let cfg = OptimizationConfig { temporal_block_depth: 2, ..piped((64, 1)) };
    let err = system_run(&func, &platform, &workload, &cfg, SimOptions::default());
    assert!(err.is_err(), "tb > 1 on nn must be rejected end to end");
}
