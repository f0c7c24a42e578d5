//! Property: the sweep engine is total over its inputs. Arbitrary
//! candidate configurations (including degenerate zeros and overflowing
//! replication factors) and arbitrary sweep options (thread counts,
//! pruning, hostile fuel budgets) must flow through [`explore_configs`]
//! without a panic: invalid candidates surface in the
//! [`DiagnosticsReport`], never as a crash.

use flexcl_core::{
    explore_configs, AnalysisCache, CommMode, DseOptions, OptimizationConfig, Platform,
    ProfileFuel, Workload,
};
use flexcl_interp::KernelArg;
use proptest::prelude::*;

fn scale_kernel() -> flexcl_ir::Function {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void scale(__global float* x, float a) {
            int i = get_global_id(0);
            x[i] = x[i] * a;
        }",
    )
    .expect("frontend");
    flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering")
}

fn workload() -> Workload {
    Workload {
        args: vec![KernelArg::FloatBuf(vec![1.0; 256]), KernelArg::Float(2.0)],
        global: (256, 1),
    }
}

/// Mostly-plausible values with the occasional hostile extreme, so cases
/// reach deep model code instead of all dying in validation.
fn arb_knob() -> BoxedStrategy<u32> {
    prop_oneof![proptest::sample::select(vec![0u32, 1, 2, 4, 16, 64]), any::<u32>(),]
}

fn arb_config() -> BoxedStrategy<OptimizationConfig> {
    (
        proptest::sample::select(vec![
            (0u32, 0u32),
            (1, 1),
            (16, 1),
            (64, 1),
            (256, 1),
            (3, 7),
            (u32::MAX, 1),
        ]),
        any::<bool>(),
        arb_knob(),
        arb_knob(),
        arb_knob(),
        any::<bool>(),
        (arb_knob(), arb_knob()),
    )
        .prop_map(|(work_group, pipe, num_pes, num_cus, vector_width, pipe_mode, (cf, tb))| {
            OptimizationConfig {
                work_group,
                work_item_pipeline: pipe,
                num_pes,
                num_cus,
                vector_width,
                comm_mode: if pipe_mode { CommMode::Pipeline } else { CommMode::Barrier },
                coarsen_factor: cf,
                temporal_block_depth: tb,
            }
        })
        .boxed()
}

fn arb_opts() -> BoxedStrategy<DseOptions> {
    (
        0usize..5,
        any::<bool>(),
        proptest::sample::select(vec![0u64, 1, 1_000, 10_000_000]),
        proptest::sample::select(vec![0usize, 1, 1 << 20]),
        proptest::sample::select(vec![0usize, 1, 7, 4096]),
    )
        .prop_map(|(threads, prune, step_limit, trace_limit, chunk_size)| DseOptions {
            threads,
            prune,
            fuel: ProfileFuel { step_limit, trace_limit, ..ProfileFuel::default() },
            chunk_size,
            inject: None,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn explore_configs_never_panics(
        configs in proptest::collection::vec(arb_config(), 0..6),
        opts in arb_opts(),
    ) {
        let func = scale_kernel();
        let platform = Platform::virtex7_adm7v3();
        let w = workload();
        // Ok (possibly with diagnostics) or a typed error — never a panic.
        let cache = AnalysisCache::new();
        if let Ok(result) = explore_configs(&func, &platform, &w, &configs, opts, &cache) {
            prop_assert!(
                result.points.len() + result.diagnostics.skipped_count() <= configs.len()
            );
        }
    }

    #[test]
    fn validate_and_estimate_are_total(config in arb_config()) {
        // validate() itself must be panic-free on the whole domain
        // (including the u32::MAX * u32::MAX overflow corner)...
        let validation = config.validate();
        // ...and a validated config must estimate without panicking.
        if validation.is_ok() && config.work_group == (64, 1) {
            let func = scale_kernel();
            let platform = Platform::virtex7_adm7v3();
            let analysis = flexcl_core::KernelAnalysis::analyze(
                &func, &platform, &workload(), (64, 1),
            ).expect("analysis");
            let _ = flexcl_core::estimate(&analysis, &config);
        }
    }
}
