//! Coarse-grained performance model and step-by-step heuristic search,
//! after Wang et al., "A Performance Analysis Framework for Optimizing
//! OpenCL Applications on FPGAs" (HPCA'16) — the comparison baseline of
//! §4.3.
//!
//! The coarse model ignores exactly what the paper criticises it for:
//! global memory access *patterns* (it uses one flat average latency),
//! pipeline structure (it assumes a fixed initiation rate), and the
//! interplay between optimizations. Its step-by-step search optimizes one
//! knob at a time assuming independence, which strands it in local optima:
//! the paper finds only 12% of its chosen configurations optimal, versus
//! 96% for FlexCL with exhaustive search.

use flexcl_core::{CommMode, KernelAnalysis, OptimizationConfig};

/// Flat per-access global-memory latency used by the coarse model
/// (a single average, no hit/miss or read/write distinction).
const FLAT_MEM_LATENCY: f64 = 10.0;

/// Assumed initiation rate of a pipelined kernel (the coarse model does
/// not schedule; it assumes the tool achieves II = 1 whenever pipelining
/// is requested).
const ASSUMED_II: f64 = 1.0;

/// The coarse-grained cycle estimate.
pub fn estimate(analysis: &KernelAnalysis, config: &OptimizationConfig) -> f64 {
    let n = (analysis.global.0 * analysis.global.1) as f64;
    let wg = config.work_group_size() as f64;
    let p = f64::from(config.effective_pes().max(1));
    let c = f64::from(config.num_cus.max(1));

    // Computation: ops per work-item at an assumed rate.
    let ops_per_wi = analysis.func.insts.len() as f64;
    let comp_per_wi = if config.work_item_pipeline { ASSUMED_II } else { ops_per_wi };

    // Memory: flat latency × access count (no coalescing model either).
    let mem_per_wi = analysis.mem_levels[0]
        .global_accesses_per_wi
        .max(analysis.func.global_accesses().len() as f64)
        * FLAT_MEM_LATENCY;

    let per_wi = match config.comm_mode {
        CommMode::Barrier => comp_per_wi + mem_per_wi,
        CommMode::Pipeline => comp_per_wi.max(mem_per_wi),
    };
    // Perfect scaling over PEs and CUs.
    (per_wi * n / (p * c)).max(wg)
}

/// The knob being varied in one step of the heuristic search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Knob {
    WorkGroup,
    Pipeline,
    Pes,
    Cus,
    Vector,
    Mode,
}

/// Whether `a` equals `b` in every dimension except possibly `knob`.
fn same_except(a: &OptimizationConfig, b: &OptimizationConfig, knob: Knob) -> bool {
    (knob == Knob::WorkGroup || a.work_group == b.work_group)
        && (knob == Knob::Pipeline || a.work_item_pipeline == b.work_item_pipeline)
        && (knob == Knob::Pes || a.num_pes == b.num_pes)
        && (knob == Knob::Cus || a.num_cus == b.num_cus)
        && (knob == Knob::Vector || a.vector_width == b.vector_width)
        && (knob == Knob::Mode || a.comm_mode == b.comm_mode)
}

/// Step-by-step heuristic search: optimize each knob once, in a fixed
/// order, holding the others at their current values (the independence
/// assumption the paper criticises).
///
/// Returns the chosen configuration (always one from `space`).
pub fn stepwise_search(
    analysis: &KernelAnalysis,
    space: &[OptimizationConfig],
) -> Option<OptimizationConfig> {
    let mut current = *space.first()?;
    for knob in [Knob::WorkGroup, Knob::Pipeline, Knob::Pes, Knob::Cus, Knob::Vector, Knob::Mode] {
        let best = space
            .iter()
            .filter(|cand| same_except(cand, &current, knob))
            .min_by(|a, b| estimate(analysis, a).total_cmp(&estimate(analysis, b)));
        if let Some(b) = best {
            current = *b;
        }
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_core::{enumerate, DesignSpaceLimits, Platform, Workload};
    use flexcl_interp::KernelArg;

    fn analysis() -> KernelAnalysis {
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
                    KernelArg::FloatBuf(vec![1.0; 4096]),
                    KernelArg::FloatBuf(vec![2.0; 4096]),
                    KernelArg::Float(0.5),
                ],
                global: (4096, 1),
            },
            (64, 1),
        )
        .expect("analysis")
    }

    fn space() -> Vec<OptimizationConfig> {
        enumerate(&DesignSpaceLimits {
            global_x: 4096,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: None,
            vectorizable: true,
            iterative: false,
        })
    }

    #[test]
    fn coarse_estimate_is_positive_and_scales() {
        let a = analysis();
        let base = OptimizationConfig::baseline((64, 1));
        let more_cus = OptimizationConfig { num_cus: 4, ..base };
        let e1 = estimate(&a, &base);
        let e4 = estimate(&a, &more_cus);
        assert!(e1 > 0.0);
        assert!(e4 < e1, "coarse model believes in perfect CU scaling");
    }

    #[test]
    fn coarse_model_is_pattern_blind() {
        // Two analyses with very different pattern mixes but the same
        // access count get the same coarse memory term: verify by checking
        // the model only depends on the count.
        let a = analysis();
        let cfg = OptimizationConfig::baseline((64, 1));
        let e = estimate(&a, &cfg);
        // Flat latency: reconstructible from the count.
        let n = 4096.0;
        let accesses =
            a.mem_levels[0].global_accesses_per_wi.max(a.func.global_accesses().len() as f64);
        let expected = (a.func.insts.len() as f64 + accesses * FLAT_MEM_LATENCY) * n;
        assert!((e - expected).abs() < 1e-6);
    }

    #[test]
    fn stepwise_search_returns_config_from_space() {
        let a = analysis();
        let sp = space();
        let chosen = stepwise_search(&a, &sp).expect("choice");
        assert!(sp.contains(&chosen));
    }

    #[test]
    fn stepwise_frequently_misses_flexcl_best() {
        // The headline DSE comparison: the stepwise pick is usually not the
        // exhaustive-FlexCL optimum.
        let a = analysis();
        let sp = space();
        let chosen = stepwise_search(&a, &sp).expect("choice");
        let flexcl_best = sp
            .iter()
            .filter(|c| flexcl_core::estimate(&a, c).expect("estimate").feasible)
            .min_by(|x, y| {
                flexcl_core::estimate(&a, x)
                    .expect("estimate")
                    .cycles
                    .total_cmp(&flexcl_core::estimate(&a, y).expect("estimate").cycles)
            })
            .expect("best");
        let chosen_cycles = flexcl_core::estimate(&a, &chosen).expect("estimate").cycles;
        let best_cycles = flexcl_core::estimate(&a, flexcl_best).expect("estimate").cycles;
        assert!(chosen_cycles >= best_cycles, "stepwise cannot beat the exhaustive optimum");
    }
}
