//! Reproducibility: every stochastic component is seeded, so the whole
//! reproduction — workload generation, profiling, model, System Run —
//! must be bit-identical across runs.

use flexcl_bench::find_spec;
use flexcl_core::{
    estimate, explore_space_cached, AnalysisCache, DseOptions, DseResult, KernelAnalysis,
    OptimizationConfig, Platform, SweepGrid,
};
use flexcl_kernels::Scale;
use flexcl_sim::{system_run, SimOptions};

/// A standard-grid sweep of polybench/atax reusing analyses from `cache`.
fn atax_sweep(opts: DseOptions, cache: &AnalysisCache) -> DseResult {
    let spec = find_spec("polybench/atax");
    let func = flexcl_bench::compile(&spec);
    let workload = spec.workload(Scale::Test, 5);
    let platform = Platform::virtex7_adm7v3();
    explore_space_cached(&func, &platform, &workload, &SweepGrid::standard(), opts, None, cache)
        .expect("sweep")
}

#[test]
fn workloads_are_deterministic() {
    let spec = find_spec("kmeans/center");
    let a = spec.workload(Scale::Test, 99);
    let spec = find_spec("kmeans/center");
    let b = spec.workload(Scale::Test, 99);
    assert_eq!(a.args, b.args);
}

#[test]
fn estimates_are_deterministic() {
    let spec = find_spec("polybench/atax");
    let func = flexcl_bench::compile(&spec);
    let workload = spec.workload(Scale::Test, 5);
    let platform = Platform::virtex7_adm7v3();
    let config =
        OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) };
    let e1 = {
        let a = KernelAnalysis::analyze(&func, &platform, &workload, (64, 1)).expect("a");
        estimate(&a, &config).expect("estimate").cycles
    };
    let e2 = {
        let a = KernelAnalysis::analyze(&func, &platform, &workload, (64, 1)).expect("a");
        estimate(&a, &config).expect("estimate").cycles
    };
    assert_eq!(e1, e2);
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = atax_sweep(DseOptions::default(), &AnalysisCache::new());
    let parallel =
        atax_sweep(DseOptions { threads: 4, ..DseOptions::default() }, &AnalysisCache::new());
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.estimate, b.estimate, "{}", a.config);
    }
}

#[test]
fn cached_parallel_pruned_sweep_is_bit_identical_to_uncached_serial() {
    // The full optimization stack at once — worker threads, bound-based
    // pruning off (so the explored sets coincide), an analysis cache
    // shared across sweeps, and the per-family schedule caches — merged
    // back together must reproduce the plain serial sweep from a fresh
    // cache exactly: same points in the same order with bit-identical
    // estimates, same diagnostics.
    let uncached = atax_sweep(DseOptions::default(), &AnalysisCache::new());
    // Run twice over one cache so the second parallel sweep is served
    // from a hot analysis cache in every family.
    let shared = AnalysisCache::new();
    for pass in 0..2 {
        let cached = atax_sweep(DseOptions { threads: 4, ..DseOptions::default() }, &shared);
        assert_eq!(uncached.points.len(), cached.points.len(), "pass {pass}");
        for (a, b) in uncached.points.iter().zip(&cached.points) {
            assert_eq!(a.config, b.config, "pass {pass}");
            assert_eq!(a.estimate, b.estimate, "pass {pass}: {}", a.config);
        }
        assert_eq!(uncached.diagnostics, cached.diagnostics, "pass {pass}");
        if pass == 1 {
            assert!(
                cached.stats.analysis_cache_hits > 0,
                "second sweep must hit the analysis cache: {:?}",
                cached.stats
            );
        }
        assert!(
            cached.stats.sched_cache_hits > cached.stats.sched_cache_misses,
            "budget memoization must collapse most schedules: {:?}",
            cached.stats
        );
    }
}

#[test]
fn pruned_sweep_matches_exhaustive_best_on_polybench() {
    let cache = AnalysisCache::new();
    let full = atax_sweep(DseOptions::default(), &cache);
    let opts = DseOptions { prune: true, threads: 2, ..DseOptions::default() };
    let pruned = atax_sweep(opts, &cache);
    let fb = full.best().expect("exhaustive best");
    let pb = pruned.best().expect("pruned best");
    assert_eq!(fb.config, pb.config);
    assert_eq!(fb.estimate.cycles, pb.estimate.cycles);
}

#[test]
fn system_runs_are_deterministic_and_seed_sensitive() {
    let spec = find_spec("nn/nn");
    let func = flexcl_bench::compile(&spec);
    let workload = spec.workload(Scale::Test, 5);
    let platform = Platform::virtex7_adm7v3();
    let config =
        OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) };
    let r1 = system_run(&func, &platform, &workload, &config, SimOptions::default()).expect("run");
    let r2 = system_run(&func, &platform, &workload, &config, SimOptions::default()).expect("run");
    assert_eq!(r1, r2, "same seed, same bitstream, same measurement");

    let r3 = system_run(
        &func,
        &platform,
        &workload,
        &config,
        SimOptions { seed: 777, ..SimOptions::default() },
    )
    .expect("run");
    assert_ne!(r1.cycles, r3.cycles, "a different synthesis seed must perturb the measurement");
}

#[test]
fn different_configs_get_different_synthesis_variance() {
    // The perturbation is keyed by configuration (like real synthesis):
    // two distinct configs must not share identical realized latencies by
    // construction.
    let spec = find_spec("srad/extract");
    let func = flexcl_bench::compile(&spec);
    let workload = spec.workload(Scale::Test, 5);
    let platform = Platform::virtex7_adm7v3();
    let a = system_run(
        &func,
        &platform,
        &workload,
        &OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) },
        SimOptions::default(),
    )
    .expect("run");
    let b = system_run(
        &func,
        &platform,
        &workload,
        &OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((128, 1)) },
        SimOptions::default(),
    )
    .expect("run");
    assert_ne!((a.ii, a.depth, a.cycles), (b.ii, b.depth, b.cycles));
}
