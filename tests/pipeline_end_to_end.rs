//! End-to-end pipeline integration: every stage assembled by hand, with
//! the intermediate artifacts checked along the way — frontend → IR →
//! interpreter/profiler → kernel analysis → model → System Run.

use flexcl_core::{
    estimate, explore_space_cached, AnalysisCache, CommMode, DseOptions, KernelAnalysis,
    OptimizationConfig, Platform, SweepGrid, Workload,
};
use flexcl_interp::{run, KernelArg, NdRange, RunOptions};
use flexcl_ir::TripCount;
use flexcl_sim::{system_run, SimOptions};

const SRC: &str = "
    __kernel void smooth(__global float* in, __global float* out, int n, int radius) {
        int i = get_global_id(0);
        float acc = 0.0f;
        int count = 0;
        for (int d = -radius; d <= radius; d++) {
            int j = i + d;
            if (j >= 0 && j < n) {
                acc += in[j];
                count = count + 1;
            }
        }
        out[i] = acc / (float)count;
    }";

#[test]
fn every_stage_produces_consistent_artifacts() {
    // Stage 1: frontend.
    let program = flexcl_frontend::parse_and_check(SRC).expect("frontend");
    let kernel = program.kernel("smooth").expect("kernel exists");
    assert_eq!(kernel.params.len(), 4);

    // Stage 2: IR.
    let func = flexcl_ir::lower_kernel(kernel).expect("lowering");
    assert_eq!(func.validate(), Ok(()));
    assert_eq!(func.loops.len(), 1);
    // `for (d = -radius; ...)` has a dynamic bound: needs profiling.
    assert_eq!(func.loops[0].trip, TripCount::Profiled);

    // Stage 3: functional execution + profiling.
    let n = 1024u64;
    let radius = 3i64;
    let mut args = vec![
        KernelArg::FloatBuf(vec![2.0; n as usize]),
        KernelArg::FloatBuf(vec![0.0; n as usize]),
        KernelArg::Int(n as i64),
        KernelArg::Int(radius),
    ];
    let profile =
        run(&func, &mut args, NdRange::new_1d(n, 64), RunOptions::default()).expect("execution");
    // A smooth of a constant signal is the constant.
    let KernelArg::FloatBuf(out) = &args[1] else { panic!() };
    assert!(out.iter().all(|v| (*v - 2.0).abs() < 1e-9), "functional result");
    // The profiled trip count is 2·radius + 1.
    let trip = profile.trips.trip_count(&func, flexcl_ir::LoopId(0));
    assert!((trip - 7.0).abs() < 1e-9, "trip {trip}");

    // Stage 4: analysis.
    let workload = Workload { args, global: (n, 1) };
    let platform = Platform::virtex7_adm7v3();
    let analysis = KernelAnalysis::analyze(&func, &platform, &workload, (64, 1)).expect("analysis");
    let base = &analysis.mem_levels[0];
    assert!(base.l_mem_wi(&analysis.pattern_latencies, CommMode::Pipeline) > 0.0);
    assert!(base.global_accesses_per_wi > 0.0);

    // Stage 5: model vs ground truth on a few configurations.
    for config in [
        OptimizationConfig::baseline((64, 1)),
        OptimizationConfig { work_item_pipeline: true, ..OptimizationConfig::baseline((64, 1)) },
        OptimizationConfig {
            work_item_pipeline: true,
            comm_mode: CommMode::Pipeline,
            num_cus: 2,
            ..OptimizationConfig::baseline((64, 1))
        },
    ] {
        let est = estimate(&analysis, &config).expect("estimate");
        assert!(est.feasible);
        let sys = system_run(&func, &platform, &workload, &config, SimOptions::default())
            .expect("system run");
        let err = (est.cycles - sys.cycles).abs() / sys.cycles;
        assert!(
            err < 0.35,
            "config {config}: model {:.0} vs system {:.0} ({:.1}% off)",
            est.cycles,
            sys.cycles,
            err * 100.0
        );
    }
}

#[test]
fn exploration_is_fast_and_complete() {
    let program = flexcl_frontend::parse_and_check(SRC).expect("frontend");
    let func = flexcl_ir::lower_kernel(program.kernel("smooth").expect("k")).expect("lower");
    let workload = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; 1024]),
            KernelArg::FloatBuf(vec![0.0; 1024]),
            KernelArg::Int(1024),
            KernelArg::Int(3),
        ],
        global: (1024, 1),
    };
    let start = std::time::Instant::now();
    let (grid, opts, cache) = (SweepGrid::standard(), DseOptions::default(), AnalysisCache::new());
    let platform = Platform::virtex7_adm7v3();
    let result = explore_space_cached(&func, &platform, &workload, &grid, opts, None, &cache)
        .expect("explore");
    assert!(result.points.len() > 100);
    assert!(
        start.elapsed().as_secs() < 30,
        "exploration must run in seconds, took {:?}",
        start.elapsed()
    );
    let best = result.best().expect("best point");
    assert!(best.config.work_item_pipeline, "best config pipelines: {}", best.config);
}
