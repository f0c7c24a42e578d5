//! Corpus-wide analysis health: every one of the 60 benchmark kernels must
//! flow through the complete FlexCL analysis and produce sane model inputs.
//!
//! This is the guard that keeps the kernel corpus and the analysis pipeline
//! compatible as either evolves: a kernel whose profile produces no memory
//! trace, an II of zero, or a negative latency would silently corrupt every
//! experiment built on top.

use flexcl_bench::{compile, standard_wg};
use flexcl_core::{
    estimate, CommMode, ErrorKind, EvalContext, KernelAnalysis, OptimizationConfig, Platform,
    COARSEN_CANDIDATES,
};
use flexcl_kernels::Scale;
use flexcl_sched::ResourceBudget;

#[test]
fn every_corpus_kernel_analyzes_sanely() {
    let platform = Platform::virtex7_adm7v3();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 2024);
        let wg = standard_wg(workload.global, func.reqd_work_group_size);
        let analysis = KernelAnalysis::analyze(&func, &platform, &workload, wg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));

        let name = spec.full_name();
        // Memory model inputs.
        let base = &analysis.mem_levels[0];
        let l_mem = base.l_mem_wi(CommMode::Pipeline);
        let l_mem_phased = base.l_mem_wi(CommMode::Barrier);
        assert!(l_mem >= 0.0, "{name}: negative memory latency");
        assert!(
            l_mem_phased <= l_mem * 1.5 + 1.0,
            "{name}: phased order should not be drastically worse"
        );
        assert!(base.global_accesses_per_wi >= 0.0, "{name}: negative access count");
        // One memory level per analyzed coarsening factor: factor 1 first,
        // then every candidate dividing the work-group, ascending.
        let wg_size = u64::from(wg.0) * u64::from(wg.1);
        let divides = |cf: u32| wg_size.is_multiple_of(u64::from(cf));
        let want: Vec<u32> = std::iter::once(1)
            .chain(COARSEN_CANDIDATES.into_iter().filter(|&cf| divides(cf)))
            .collect();
        let got: Vec<u32> = analysis.mem_levels.iter().map(|l| l.factor).collect();
        assert_eq!(got, want, "{name}: memory levels");
        // Each estimate reads its coarsening factor's level in its mode's
        // burst order: the level's stored `L_mem^wi` must equal Eq. 9
        // recomputed here from that order's pattern counts.
        let mut ctx = EvalContext::new(&analysis);
        for level in &analysis.mem_levels {
            for mode in [CommMode::Pipeline, CommMode::Barrier] {
                let cfg = OptimizationConfig {
                    coarsen_factor: level.factor,
                    comm_mode: mode,
                    ..OptimizationConfig::baseline(wg)
                };
                let counts = match mode {
                    CommMode::Pipeline => &level.pattern_counts,
                    CommMode::Barrier => &level.pattern_counts_phased,
                };
                let lat = &analysis.pattern_latencies;
                let want =
                    lat.iter().map(|(p, dt)| dt * counts[p]).sum::<f64>() + level.mem_extra_wi;
                assert_eq!(level.l_mem_wi(mode).to_bits(), want.to_bits(), "{name} {cfg}");
                let est = ctx.estimate(&cfg).expect("estimate");
                assert_eq!(est.l_mem_wi.to_bits(), want.to_bits(), "{name} {cfg}");
            }
        }
        // A factor with no level is a typed configuration error. 3 is no
        // candidate; neither is 16, which passes validation wherever it
        // divides the work-group.
        assert!(analysis.mem_level(3).is_none(), "{name}");
        if divides(16) {
            assert!(analysis.mem_level(16).is_none(), "{name}");
            let cfg = OptimizationConfig { coarsen_factor: 16, ..OptimizationConfig::baseline(wg) };
            let err = estimate(&analysis, &cfg).expect_err("cf=16 has no memory level");
            assert_eq!(err.kind(), ErrorKind::Config, "{name}: {err}");
            assert!(err.to_string().contains("no analyzed memory level"), "{name}: {err}");
        }
        // Computation model inputs.
        let budget = ResourceBudget::unconstrained();
        let d = analysis.work_item_latency(&budget).expect("latency");
        assert!(d >= 1.0, "{name}: work-item latency {d}");
        let (ii, depth) = analysis.pipeline_params(&budget).expect("pipeline params");
        assert!(ii >= 1, "{name}: II {ii}");
        assert!(depth >= 1, "{name}: depth {depth}");
        assert!(f64::from(depth) + 1e-9 >= f64::from(ii), "{name}: depth {depth} < II {ii}");
        assert!(analysis.rec_mii() >= 1, "{name}");
    }
}

#[test]
fn every_corpus_kernel_estimates_feasibly_at_baseline() {
    let platform = Platform::virtex7_adm7v3();
    for spec in flexcl_kernels::all() {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 2024);
        let wg = standard_wg(workload.global, func.reqd_work_group_size);
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
    assert!(with_barrier.len() <= 4, "unexpected barrier kernels: {with_barrier:?}");
}
