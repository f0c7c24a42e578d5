//! Identity anchor for the coarsening/temporal-blocking axes: estimates at
//! `coarsen_factor == 1` / `temporal_block_depth == 1` must stay bit-identical
//! to the pre-axis model on every suite kernel.
//!
//! The golden file was generated from the model *before* either axis
//! existed. On a mismatch the current rendering is written to
//! `identity_golden.actual.txt` under the cargo test scratch directory
//! ([`support::assert_golden`]).

mod support;

use flexcl_core::config::{CommMode, OptimizationConfig};
use flexcl_core::KernelAnalysis;
use flexcl_kernels::Scale;
use std::fmt::Write as _;
use support::assert_golden;

const GOLDEN: &str = include_str!("data/identity_golden.txt");

/// Largest divisor of `n` drawn from `cands` (descending), falling back to 1.
fn pick_dim(n: u64, cands: &[u32]) -> u32 {
    cands.iter().copied().find(|&c| n % u64::from(c) == 0).unwrap_or(1)
}

/// A small deterministic probe set per work-group: the barrier baseline, a
/// pipelined point, replicated PEs/CUs in both comm modes, and a vectorized
/// point — enough to cover every estimate branch the sweep exercises.
fn probe_configs(wg: (u32, u32)) -> Vec<OptimizationConfig> {
    let base = OptimizationConfig::baseline(wg);
    vec![
        base,
        OptimizationConfig { work_item_pipeline: true, ..base },
        OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 4,
            num_cus: 2,
            comm_mode: CommMode::Pipeline,
            ..base
        },
        OptimizationConfig { num_pes: 2, vector_width: 2, ..base },
        OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 8,
            num_cus: 4,
            vector_width: 2,
            comm_mode: CommMode::Pipeline,
            ..base
        },
    ]
}

fn render_current() -> String {
    let platform = flexcl_core::Platform::virtex7_adm7v3();
    let mut out = String::new();
    for spec in flexcl_kernels::all() {
        let workload = spec.workload(Scale::Test, 7);
        let program = flexcl_frontend::parse_and_check(spec.source)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
        let func = flexcl_ir::lower_kernel(program.kernel(spec.kernel).expect("kernel"))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
        let wg =
            (pick_dim(workload.global.0, &[16, 8, 4, 2]), pick_dim(workload.global.1, &[4, 2]));
        let analysis = match KernelAnalysis::analyze(&func, &platform, &workload, wg) {
            Ok(a) => a,
            Err(e) => {
                writeln!(out, "{}|analysis-err|{}", spec.full_name(), e.kind()).unwrap();
                continue;
            }
        };
        for config in probe_configs(wg) {
            match flexcl_core::estimate(&analysis, &config) {
                Ok(est) => writeln!(
                    out,
                    "{}|{config}|{:016x}|{:016x}|{:016x}|{:016x}",
                    spec.full_name(),
                    est.cycles.to_bits(),
                    est.comp_cycles.to_bits(),
                    est.mem_cycles.to_bits(),
                    est.overhead_cycles.to_bits()
                )
                .unwrap(),
                Err(e) => writeln!(out, "{}|{config}|err:{}", spec.full_name(), e.kind()).unwrap(),
            }
        }
    }
    out
}

#[test]
fn identity_configs_match_pre_axis_model_bit_for_bit() {
    assert_golden("identity_golden", GOLDEN, &render_current(), "cf=1/tb=1 estimates");
}
