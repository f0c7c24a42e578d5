//! SDAccel-style HLS cycle estimator.
//!
//! SDAccel's HLS functionality reports a cycle estimate for the generated
//! RTL without going through synthesis. The paper measures its error at
//! 30.4–84.9% and attributes it to three causes (§4.2), which this
//! baseline reproduces mechanistically:
//!
//! 1. **Underestimation of memory access latency** — global accesses are
//!    charged only their interface latency; there is no DRAM model.
//! 2. **Conservative estimation of designs with complex control
//!    dependency** — branch latencies are *summed* rather than maxed, and
//!    unknown-trip loops get a conservative default.
//! 3. **Ignorance of work-group scheduling overhead with multiple CUs** —
//!    CU replication is assumed to scale perfectly.
//!
//! It also *fails to return a result* for about 42% of design points, as
//! observed in the paper (complex parallelism/memory configurations and
//! cases where the HLS run would exceed the one-hour timeout).

use flexcl_core::{KernelAnalysis, OptimizationConfig};
use flexcl_ir::{build_deps, InstId, Region};
use flexcl_sched::{list, NodeId, ResourceBudget, SchedGraph};
use std::collections::HashMap;

/// Trip count assumed for loops the static analyzer cannot bound. HLS
/// reports `?` for such loops and its latency summary effectively counts a
/// single iteration — one of the reasons the paper finds SDAccel
/// *underestimating* complex kernels.
const DEFAULT_TRIP: f64 = 1.0;

/// Produces the SDAccel-style cycle estimate, or `None` when the tool
/// would fail to return a result for this design point.
pub fn estimate(analysis: &KernelAnalysis, config: &OptimizationConfig) -> Option<f64> {
    if fails(analysis, config) {
        return None;
    }
    let budget = pe_budget_flat(analysis);
    let depth = conservative_region_latency(analysis, &analysis.func.region, &budget);
    let ii = if config.work_item_pipeline {
        // Resource-aware II but *without* the memory-pattern refinement:
        // only local ports and DSPs are considered.
        f64::from(analysis.res_mii(&budget).max(analysis.rec_mii()))
    } else {
        depth
    };

    let wg = config.work_group_size() as f64;
    let n = (analysis.global.0 * analysis.global.1) as f64;
    let p = f64::from(config.effective_pes().max(1));
    let waves = ((wg - p) / p).ceil().max(0.0);
    let l_cu = ii * waves + depth;
    // Perfect CU scaling, no scheduling overhead, no global memory model.
    let rounds = (n / (wg * f64::from(config.num_cus.max(1)))).ceil().max(1.0);
    let _ = config.comm_mode;
    Some(l_cu * rounds)
}

/// The deterministic failure predicate (≈42% of realistic design spaces).
pub fn fails(analysis: &KernelAnalysis, config: &OptimizationConfig) -> bool {
    // Complex parallelism: high CU replication or wide PE arrays trip the
    // tool's parallel code generation.
    if config.num_cus > 2 {
        return true;
    }
    if config.effective_pes() > 16 {
        return true;
    }
    // Complex memory patterns: pipelined designs with inter-work-item
    // recurrences stall pipeline inference.
    if config.work_item_pipeline && !analysis.recurrences.is_empty() && config.num_pes > 1 {
        return true;
    }
    // 2-D work-groups with vectorization exceed the one-hour budget.
    if config.work_group.1 > 1 && config.vector_width > 1 {
        return true;
    }
    false
}

/// Flat (port/DSP only) budget — SDAccel knows the device resources.
fn pe_budget_flat(analysis: &KernelAnalysis) -> ResourceBudget {
    let p = &analysis.platform;
    ResourceBudget {
        local_read_ports: p.local_read_ports_per_bank,
        local_write_ports: p.local_write_ports_per_bank,
        dsps: u32::MAX,
        global_ports: p.global_ports,
    }
}

/// Conservative latency: branches sum, unknown loops get [`DEFAULT_TRIP`].
fn conservative_region_latency(
    analysis: &KernelAnalysis,
    region: &Region,
    budget: &ResourceBudget,
) -> f64 {
    match region {
        Region::Block(b) => {
            // Blocks are scheduled competently (HLS is good at straight-line
            // code); the baseline's errors come from control, memory and
            // CU-scaling assumptions, not from block scheduling.
            let insts = &analysis.func.block(*b).insts;
            if insts.is_empty() {
                return 0.0;
            }
            let mut g = SchedGraph::new();
            let mut map: HashMap<InstId, NodeId> = HashMap::new();
            for id in insts {
                let inst = analysis.func.inst(*id);
                let node = g.add_node(
                    analysis.platform.op_latency(&inst.op, &inst.ty),
                    analysis.platform.op_resource(&inst.op, &inst.ty),
                );
                map.insert(*id, node);
            }
            for e in build_deps(&analysis.func, insts) {
                g.add_edge(map[&e.from], map[&e.to]);
            }
            match list::schedule(&g, budget) {
                Ok(s) => f64::from(s.length),
                // A degenerate budget (zero ports) cannot overlap anything:
                // the conservative baseline degrades to fully serial issue.
                Err(_) => insts
                    .iter()
                    .map(|id| {
                        let inst = analysis.func.inst(*id);
                        f64::from(analysis.platform.op_latency(&inst.op, &inst.ty))
                    })
                    .sum::<f64>()
                    .max(1.0),
            }
        }
        Region::Seq(rs) => {
            rs.iter().map(|r| conservative_region_latency(analysis, r, budget)).sum()
        }
        Region::If { cond_block, then_region, else_region } => {
            // Conservative: both branches serialized.
            conservative_region_latency(analysis, &Region::Block(*cond_block), budget)
                + conservative_region_latency(analysis, then_region, budget)
                + conservative_region_latency(analysis, else_region, budget)
        }
        Region::Loop { id, header, body, latch } => {
            let meta = &analysis.func.loops[id.0 as usize];
            let trip = match meta.trip {
                flexcl_ir::TripCount::Static(n) => n as f64,
                flexcl_ir::TripCount::Profiled => DEFAULT_TRIP,
            };
            let header_l = conservative_region_latency(analysis, &Region::Block(*header), budget);
            let latch_l = latch
                .map_or(0.0, |l| conservative_region_latency(analysis, &Region::Block(l), budget));
            header_l
                + trip * (conservative_region_latency(analysis, body, budget) + latch_l + header_l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_core::{Platform, Workload};
    use flexcl_interp::KernelArg;

    fn analysis(src: &str, n: u64) -> KernelAnalysis {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        KernelAnalysis::analyze(
            &f,
            &Platform::virtex7_adm7v3(),
            &Workload {
                args: vec![
                    KernelArg::FloatBuf(vec![1.0; n as usize]),
                    KernelArg::FloatBuf(vec![0.0; n as usize]),
                ],
                global: (n, 1),
            },
            (64, 1),
        )
        .expect("analysis")
    }

    const COPY: &str = "__kernel void copy(__global float* a, __global float* b) {
        int i = get_global_id(0);
        b[i] = a[i];
    }";

    #[test]
    fn underestimates_memory_bound_kernels() {
        let a = analysis(COPY, 1024);
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            ..OptimizationConfig::baseline((64, 1))
        };
        let sda = estimate(&a, &cfg).expect("estimate");
        let flexcl = flexcl_core::estimate(&a, &cfg).expect("estimate").cycles;
        assert!(sda < flexcl * 0.7, "SDAccel ({sda}) must underestimate vs FlexCL ({flexcl})");
    }

    #[test]
    fn fails_on_many_cus() {
        let a = analysis(COPY, 1024);
        let cfg = OptimizationConfig { num_cus: 4, ..OptimizationConfig::baseline((64, 1)) };
        assert!(estimate(&a, &cfg).is_none());
    }

    #[test]
    fn fails_on_wide_pe_arrays() {
        let a = analysis(COPY, 1024);
        let cfg = OptimizationConfig {
            work_item_pipeline: true,
            num_pes: 16,
            vector_width: 4,
            ..OptimizationConfig::baseline((64, 1))
        };
        assert!(estimate(&a, &cfg).is_none());
    }

    #[test]
    fn failure_rate_is_realistic() {
        let a = analysis(COPY, 4096);
        let limits = flexcl_core::DesignSpaceLimits {
            global_x: 4096,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: None,
            vectorizable: true,
            iterative: false,
        };
        let space = flexcl_core::enumerate(&limits);
        let failed = space.iter().filter(|c| fails(&a, c)).count();
        let rate = failed as f64 / space.len() as f64;
        assert!(
            (0.25..=0.6).contains(&rate),
            "failure rate {rate:.2} outside the paper's ~42% band"
        );
    }

    #[test]
    fn conservative_on_branchy_code() {
        let a = analysis(
            "__kernel void branchy(__global float* a, __global float* b) {
                int i = get_global_id(0);
                float v = a[i];
                if (v > 0.5f) { v = v * 2.0f + 1.0f; } else { v = v * 3.0f - 1.0f; }
                b[i] = v;
            }",
            1024,
        );
        let cfg = OptimizationConfig::baseline((64, 1));
        let sda = estimate(&a, &cfg).expect("estimate");
        // Comp-only FlexCL depth takes max of branches; SDAccel sums them,
        // so its *computation* term is larger per work-item.
        let budget = flexcl_core::pe_budget(&a, &cfg);
        let flexcl_depth = a.work_item_latency(&budget).expect("latency");
        let sda_depth = sda / 1024.0 * 64.0 / 64.0; // per-wi (serial)
        assert!(sda_depth > flexcl_depth, "sda {sda_depth} vs flexcl {flexcl_depth}");
    }
}
