//! Cross-crate accuracy integration tests: the paper's headline claims at
//! test scale, on a representative slice of the corpus.

use flexcl_bench::{find_spec, sweep_kernel};
use flexcl_core::Platform;
use flexcl_kernels::Scale;

/// A representative slice: streaming, stencil, reduction, irregular,
/// local-memory and math-heavy kernels.
const SLICE: &[&str] = &[
    "nn/nn",
    "srad/extract",
    "pathfinder/dynproc",
    "kmeans/center",
    "polybench/gemm",
    "polybench/jacobi2d",
];

#[test]
fn flexcl_mean_error_is_low_across_kernel_classes() {
    let platform = Platform::virtex7_adm7v3();
    let mut errors = Vec::new();
    for name in SLICE {
        let sweep = sweep_kernel(&find_spec(name), &platform, Scale::Test);
        let err = sweep.flexcl_error_pct();
        assert!(err < 30.0, "{name}: FlexCL mean error {err:.1}% exceeds the acceptance band");
        errors.push(err);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 20.0, "corpus-slice mean error {mean:.1}%");
}

#[test]
fn flexcl_beats_the_sdaccel_baseline() {
    let platform = Platform::virtex7_adm7v3();
    for name in ["nn/nn", "polybench/gemm"] {
        let sweep = sweep_kernel(&find_spec(name), &platform, Scale::Test);
        assert!(
            sweep.sdaccel_error_pct() > 2.0 * sweep.flexcl_error_pct(),
            "{name}: SDAccel {:.1}% vs FlexCL {:.1}% — the gap should be large",
            sweep.sdaccel_error_pct(),
            sweep.flexcl_error_pct()
        );
    }
}

#[test]
fn sdaccel_fails_on_a_realistic_fraction() {
    let platform = Platform::virtex7_adm7v3();
    let sweep = sweep_kernel(&find_spec("srad/extract"), &platform, Scale::Test);
    let rate = sweep.sdaccel_failure_rate();
    assert!((0.2..=0.6).contains(&rate), "failure rate {rate:.2} outside the paper's ~42% band");
}

#[test]
fn barrier_kernels_stay_in_barrier_mode() {
    // lud/diagonal uses local memory + barrier: its design space must not
    // contain pipeline-communication points.
    let spec = find_spec("lud/diagonal");
    let func = flexcl_bench::compile(&spec);
    let workload = spec.workload(Scale::Test, 9);
    let limits = flexcl_core::limits_for(&func, &workload);
    assert!(limits.has_barrier);
    let space = flexcl_core::enumerate(&limits);
    assert!(!space.is_empty());
    assert!(space.iter().all(|c| c.comm_mode == flexcl_core::CommMode::Barrier));
}

#[test]
fn model_ranks_configurations_usefully() {
    // Spearman-style sanity: among feasible configs, the model's top decile
    // should overlap the true top quartile heavily.
    let platform = Platform::virtex7_adm7v3();
    let sweep = sweep_kernel(&find_spec("polybench/atax"), &platform, Scale::Test);
    let mut by_model: Vec<_> = sweep.records.iter().collect();
    by_model.sort_by(|a, b| a.flexcl_cycles.total_cmp(&b.flexcl_cycles));
    let mut by_system: Vec<_> = sweep.records.iter().collect();
    by_system.sort_by(|a, b| a.system_cycles.total_cmp(&b.system_cycles));

    let top_decile = by_model.len() / 10;
    let top_quartile = by_system.len() / 4;
    let true_top: std::collections::HashSet<_> =
        by_system[..top_quartile].iter().map(|r| format!("{}", r.config)).collect();
    let hits = by_model[..top_decile]
        .iter()
        .filter(|r| true_top.contains(&format!("{}", r.config)))
        .count();
    let overlap = hits as f64 / top_decile.max(1) as f64;
    assert!(
        overlap >= 0.8,
        "only {overlap:.2} of the model's top decile is in the true top quartile"
    );
}
