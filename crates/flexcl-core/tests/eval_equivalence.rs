//! Property: the memoizing evaluation context is observationally
//! identical to the uncached model.
//!
//! [`EvalContext`] serves repeated budgets from its schedule caches (the
//! per-family constants it reads live in the analysis, not in the
//! context); none of that may be visible in results.
//! For arbitrary candidate configurations — valid, degenerate, or
//! hostile — and in arbitrary evaluation orders, a context shared across
//! the whole sequence must return exactly what a fresh
//! [`flexcl_core::estimate`] call returns per configuration: bit-identical
//! `Estimate`s, identical errors.

use flexcl_core::{CommMode, EvalContext, KernelAnalysis, OptimizationConfig, Platform, Workload};
use flexcl_interp::KernelArg;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One analysis shared across all cases (profiling is the expensive part
/// and is irrelevant to the property under test).
fn analysis() -> &'static KernelAnalysis {
    static A: OnceLock<KernelAnalysis> = OnceLock::new();
    A.get_or_init(|| {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void saxpy(__global float* x, __global float* y, float a) {
                int i = get_global_id(0);
                y[i] = a * x[i] + y[i];
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
                    KernelArg::Float(0.5),
                ],
                global: (1024, 1),
            },
            (64, 1),
        )
        .expect("analysis")
    })
}

/// Mostly-plausible values with the occasional hostile extreme, so cases
/// reach deep model code instead of all dying in validation.
fn arb_knob() -> BoxedStrategy<u32> {
    prop_oneof![proptest::sample::select(vec![0u32, 1, 2, 4, 16, 64]), any::<u32>(),].boxed()
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
        // Coarsening factors skew toward the analyzed levels (1/2/4/8) but
        // include hostile values; temporal depth >1 exercises the typed
        // rejection path (saxpy is not an iterative stencil), which must
        // also be cache-transparent.
        (
            proptest::sample::select(vec![1u32, 2, 3, 4, 8]),
            proptest::sample::select(vec![1u32, 2, 4]),
        ),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A context shared across an arbitrary sequence of configurations
    /// returns, for each one, exactly what the uncached entry point
    /// returns — regardless of which budgets happen to hit the caches.
    #[test]
    fn shared_context_matches_fresh_estimates(
        configs in proptest::collection::vec(arb_config(), 1..40),
    ) {
        let a = analysis();
        let mut ctx = EvalContext::new(a);
        for cfg in &configs {
            let cached = ctx.estimate(cfg);
            let fresh = flexcl_core::estimate(a, cfg);
            prop_assert_eq!(cached, fresh, "divergence at {}", cfg);
        }
    }

    /// Evaluation order must not matter: the same set of configurations
    /// evaluated forwards and backwards through two contexts yields the
    /// same per-configuration results (the caches memoize pure functions).
    #[test]
    fn evaluation_order_is_immaterial(
        configs in proptest::collection::vec(arb_config(), 1..20),
    ) {
        let a = analysis();
        let mut fwd = EvalContext::new(a);
        let forward: Vec<_> = configs.iter().map(|c| fwd.estimate(c)).collect();
        let mut bwd = EvalContext::new(a);
        let mut backward: Vec<_> =
            configs.iter().rev().map(|c| bwd.estimate(c)).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }
}
