//! Corpus-wide analysis health: every one of the 60 benchmark kernels must
//! flow through the complete FlexCL analysis and produce sane model inputs.
//!
//! This is the guard that keeps the kernel corpus and the analysis pipeline
//! compatible as either evolves: a kernel whose profile produces no memory
//! trace, an II of zero, or a negative latency would silently corrupt every
//! experiment built on top.

use flexcl_bench::compile;
use flexcl_core::{estimate, KernelAnalysis, OptimizationConfig, Platform};
use flexcl_kernels::Scale;
use flexcl_sched::ResourceBudget;

fn default_wg(global: (u64, u64), reqd: Option<(u32, u32, u32)>) -> (u32, u32) {
    match reqd {
        Some((x, y, _)) => (x, y),
        None if global.1 > 1 => (8, 8),
        None => (64, 1),
    }
}

#[test]
fn every_corpus_kernel_analyzes_sanely() {
    let platform = Platform::virtex7_adm7v3();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 2024);
        let wg = default_wg(workload.global, func.reqd_work_group_size);
        let analysis = KernelAnalysis::analyze(&func, &platform, &workload, wg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));

        let name = spec.full_name();
        // Memory model inputs.
        assert!(analysis.l_mem_wi() >= 0.0, "{name}: negative memory latency");
        assert!(
            analysis.l_mem_wi_phased() <= analysis.l_mem_wi() * 1.5 + 1.0,
            "{name}: phased order should not be drastically worse"
        );
        assert!(
            analysis.global_accesses_per_wi >= 0.0,
            "{name}: negative access count"
        );
        // Computation model inputs.
        let budget = ResourceBudget::unconstrained();
        let d = analysis.work_item_latency(&budget).expect("latency");
        assert!(d >= 1.0, "{name}: work-item latency {d}");
        let (ii, depth) = analysis.pipeline_params(&budget).expect("pipeline params");
        assert!(ii >= 1, "{name}: II {ii}");
        assert!(depth >= 1, "{name}: depth {depth}");
        assert!(
            f64::from(depth) + 1e-9 >= f64::from(ii),
            "{name}: depth {depth} < II {ii}"
        );
        assert!(analysis.rec_mii() >= 1, "{name}");
    }
}

#[test]
fn every_corpus_kernel_estimates_feasibly_at_baseline() {
    let platform = Platform::virtex7_adm7v3();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 2024);
        let wg = default_wg(workload.global, func.reqd_work_group_size);
        let analysis = KernelAnalysis::analyze(&func, &platform, &workload, wg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
        let baseline = OptimizationConfig::baseline(wg);
        let est = estimate(&analysis, &baseline).expect("estimate");
        assert!(est.feasible, "{}: baseline must fit the device", spec.full_name());
        assert!(
            est.cycles.is_finite() && est.cycles > 0.0,
            "{}: cycles {}",
            spec.full_name(),
            est.cycles
        );
        // Pipelining never predicts slower than the serial baseline.
        let piped = OptimizationConfig { work_item_pipeline: true, ..baseline };
        let est_p = estimate(&analysis, &piped).expect("estimate");
        assert!(
            est_p.cycles <= est.cycles * 1.01,
            "{}: pipelined {} vs serial {}",
            spec.full_name(),
            est_p.cycles,
            est.cycles
        );
    }
}

#[test]
fn barrier_kernels_are_identified() {
    // Exactly the local-memory kernels of the corpus use barriers.
    let with_barrier: Vec<String> = flexcl_kernels::all()
        .iter()
        .filter(|s| compile(s).has_barrier())
        .map(|s| s.full_name())
        .collect();
    assert!(with_barrier.contains(&"dwt2d/fdwt".to_string()));
    assert!(with_barrier.contains(&"lud/diagonal".to_string()));
    assert!(
        with_barrier.len() <= 4,
        "unexpected barrier kernels: {with_barrier:?}"
    );
}
