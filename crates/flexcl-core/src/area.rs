//! Area estimation and performance/area trade-off queries.
//!
//! The paper motivates FlexCL as a tool to "quickly identify the solutions
//! subject to a user defined performance constraint" (§1): among the
//! configurations that meet a deadline, a designer wants the *cheapest*
//! one, and more generally the performance/area Pareto frontier. This
//! module provides the resource estimate behind those queries.
//!
//! The estimate mirrors how SDAccel composes designs: each PE instantiates
//! one IP core per DSP-mapped operation, local arrays are partitioned
//! across PEs, and the whole CU is replicated `C` times. LUT usage is
//! approximated from the non-DSP operation mix — coarse, but area
//! feasibility on these devices is dominated by DSPs and BRAM, which are
//! counted exactly from the instruction stream.

use crate::analysis::KernelAnalysis;
use crate::config::OptimizationConfig;
use flexcl_ir::Op;
use std::fmt;

/// Estimated device resources consumed by one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaEstimate {
    /// DSP slices.
    pub dsps: u64,
    /// On-chip BRAM bytes (local arrays × partitioning × CUs).
    pub bram_bytes: u64,
    /// Approximate LUTs (fabric operations × replication).
    pub luts: u64,
}

impl AreaEstimate {
    /// Whether this estimate fits the platform's capacity.
    pub fn fits(&self, platform: &crate::platform::Platform) -> bool {
        self.dsps <= u64::from(platform.total_dsps) && self.bram_bytes <= platform.total_bram_bytes
    }

    /// A scalar cost for ranking (normalised resource shares summed).
    pub fn cost(&self, platform: &crate::platform::Platform) -> f64 {
        let dsp = self.dsps as f64 / f64::from(platform.total_dsps.max(1));
        let bram = self.bram_bytes as f64 / platform.total_bram_bytes.max(1) as f64;
        // LUT capacity is roughly 433k for the XC7VX690T; use a fixed
        // reference so costs are comparable across platforms.
        let lut = self.luts as f64 / 433_000.0;
        dsp + bram + lut
    }
}

impl fmt::Display for AreaEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} DSPs, {:.1} KiB BRAM, ~{}k LUTs",
            self.dsps,
            self.bram_bytes as f64 / 1024.0,
            self.luts / 1000
        )
    }
}

/// Rough LUT cost of one non-DSP operation instance.
fn lut_cost(op: &Op, ty: &flexcl_frontend::types::Type) -> u64 {
    use flexcl_frontend::ast::BinOp;
    let wide = ty.element_scalar().is_some_and(|s| s.bits() == 64);
    let scale = if wide { 2 } else { 1 };
    let base: u64 = match op {
        Op::Bin(BinOp::Div | BinOp::Rem) => 1200, // iterative divider
        Op::Bin(BinOp::Add | BinOp::Sub) => 40,
        Op::Bin(_) => 30,
        Op::Un(_) => 20,
        Op::Select => 35,
        Op::Convert => 80,
        Op::Math(_) => 150, // control around the DSP datapath
        Op::Load { .. } | Op::Store { .. } => 60,
        Op::Extract(_) | Op::Insert(_) | Op::Splat => 10,
        Op::WorkItem(_) | Op::Alloca { .. } | Op::Barrier => 15,
    };
    base * scale * u64::from(ty.lanes())
}

/// On-chip buffer bytes temporal blocking needs per CU (DESIGN.md §15).
///
/// Fusing `tb` stencil steps keeps the intermediate layers of the tile on
/// chip: each of the `tb - 1` non-final steps buffers one halo-inclusive
/// tile layer, whose extent per blocked dimension (where the NDRange
/// extends) is `wg_d + 2·(tb - 1)`. Cells are costed at 8 bytes — one
/// double-buffered `float` — a documented approximation matching the
/// stencil suites the axis is gated to. Exactly zero at `tb <= 1`.
pub fn temporal_bram_bytes(work_group: (u32, u32), global: (u64, u64), tb: u32) -> u64 {
    if tb <= 1 {
        return 0;
    }
    let halo = u64::from(tb - 1);
    let mut layer: u64 = 1;
    if global.0 > 1 {
        layer = layer.saturating_mul(u64::from(work_group.0).saturating_add(2 * halo));
    }
    if global.1 > 1 {
        layer = layer.saturating_mul(u64::from(work_group.1).saturating_add(2 * halo));
    }
    halo.saturating_mul(layer).saturating_mul(8)
}

/// Estimates the resources a configuration consumes.
///
/// Every term is static per kernel except the temporal-blocking tiles,
/// which are sized from `config.work_group`, so one analysis of the
/// kernel costs configurations of any work-group size.
pub fn estimate_area(analysis: &KernelAnalysis, config: &OptimizationConfig) -> AreaEstimate {
    let p_eff = u64::from(config.effective_pes().max(1));
    let c = u64::from(config.num_cus.max(1));

    let dsps = u64::from(analysis.static_dsps_per_pe) * p_eff * c;
    // Unrolling partitions local arrays (bounded: the toolchain caps the
    // partition factor). Temporal blocking adds its per-CU tile buffers.
    let bram_bytes = (analysis.local_bytes * p_eff.min(4))
        .saturating_add(temporal_bram_bytes(
            config.work_group,
            analysis.global,
            config.temporal_block_depth.max(1),
        ))
        .saturating_mul(c);
    let luts_per_pe: u64 = analysis
        .func
        .insts
        .iter()
        .filter(|i| analysis.platform.op_dsps(&i.op, &i.ty) == 0)
        .map(|i| lut_cost(&i.op, &i.ty))
        .sum();
    // Pipeline registers grow with depth when work-item pipelining is on.
    let pipeline_overhead = if config.work_item_pipeline { 5 } else { 4 };
    let luts = luts_per_pe * p_eff * c * pipeline_overhead / 4;

    AreaEstimate { dsps, bram_bytes, luts }
}

/// A point on the performance/area Pareto frontier.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: OptimizationConfig,
    /// Predicted cycles.
    pub cycles: f64,
    /// Estimated area.
    pub area: AreaEstimate,
}

/// Extracts the performance/area Pareto frontier from `(config, cycles,
/// area)` triples: points where no other point is both faster and cheaper.
pub fn pareto_frontier(
    platform: &crate::platform::Platform,
    points: impl IntoIterator<Item = ParetoPoint>,
) -> Vec<ParetoPoint> {
    // Decorate each point with its cost once; `cost` is three normalised
    // divisions and the comparator would otherwise recompute it O(n log n)
    // times.
    let mut pts: Vec<(f64, ParetoPoint)> =
        points.into_iter().map(|p| (p.area.cost(platform), p)).collect();
    pts.sort_by(|(ca, a), (cb, b)| a.cycles.total_cmp(&b.cycles).then(ca.total_cmp(cb)));
    let mut frontier: Vec<ParetoPoint> = Vec::new();
    let mut best_cost = f64::INFINITY;
    for (cost, p) in pts {
        if cost < best_cost {
            best_cost = cost;
            frontier.push(p);
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workload;
    use crate::platform::Platform;
    use flexcl_interp::KernelArg;

    fn analysis() -> KernelAnalysis {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void fma_chain(__global float* x, __global float* y) {
                int i = get_global_id(0);
                float v = x[i];
                y[i] = v * v * 1.5f + v * 0.5f + 2.0f;
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        KernelAnalysis::analyze(
            &f,
            &Platform::virtex7_adm7v3(),
            &Workload {
                args: vec![
                    KernelArg::FloatBuf(vec![1.0; 512]),
                    KernelArg::FloatBuf(vec![0.0; 512]),
                ],
                global: (512, 1),
            },
            (64, 1),
        )
        .expect("analysis")
    }

    #[test]
    fn area_scales_with_replication() {
        let a = analysis();
        let base = OptimizationConfig::baseline((64, 1));
        let wide = OptimizationConfig { work_item_pipeline: true, num_pes: 4, num_cus: 2, ..base };
        let small = estimate_area(&a, &base);
        let big = estimate_area(&a, &wide);
        assert_eq!(big.dsps, small.dsps * 8);
        assert!(big.luts > small.luts * 7);
    }

    #[test]
    fn area_fits_reasonable_configs() {
        let a = analysis();
        let platform = Platform::virtex7_adm7v3();
        let area = estimate_area(&a, &OptimizationConfig::baseline((64, 1)));
        assert!(area.fits(&platform));
        assert!(area.dsps > 0, "fmul chain uses DSPs");
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let a = analysis();
        let platform = Platform::virtex7_adm7v3();
        let limits = crate::config::DesignSpaceLimits {
            global_x: 512,
            global_y: 1,
            has_barrier: false,
            reqd_work_group: None,
            vectorizable: true,
            iterative: false,
        };
        let pts: Vec<ParetoPoint> = crate::config::enumerate(&limits)
            .into_iter()
            .filter_map(|cfg| {
                let est = crate::model::estimate(&a, &cfg).expect("estimate");
                est.feasible.then(|| ParetoPoint {
                    config: cfg,
                    cycles: est.cycles,
                    area: estimate_area(&a, &cfg),
                })
            })
            .collect();
        let frontier = pareto_frontier(&platform, pts.clone());
        assert!(!frontier.is_empty());
        assert!(frontier.len() < pts.len(), "frontier prunes dominated points");
        // Monotone: cycles increase, cost decreases along the frontier.
        for w in frontier.windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
            assert!(w[0].area.cost(&platform) > w[1].area.cost(&platform));
        }
        // No frontier point is dominated by any other point.
        for f in &frontier {
            for p in &pts {
                let dominates =
                    p.cycles < f.cycles && p.area.cost(&platform) < f.area.cost(&platform);
                assert!(!dominates, "{} dominated by {}", f.config, p.config);
            }
        }
    }

    #[test]
    fn temporal_bram_is_zero_at_depth_one_and_grows_with_depth() {
        assert_eq!(temporal_bram_bytes((16, 4), (32, 32), 1), 0);
        // Depth 2 on a 16x4 tile of a 2-D NDRange: one buffered layer of
        // (16+2)x(4+2) cells at 8 bytes.
        assert_eq!(temporal_bram_bytes((16, 4), (32, 32), 2), 18 * 6 * 8);
        // 1-D NDRange ignores the unit dimension.
        assert_eq!(temporal_bram_bytes((64, 1), (1024, 1), 2), 66 * 8);
        let d2 = temporal_bram_bytes((16, 4), (32, 32), 2);
        let d4 = temporal_bram_bytes((16, 4), (32, 32), 4);
        assert!(d4 > d2, "deeper blocks buffer more layers: {d4} vs {d2}");
    }

    #[test]
    fn temporal_depth_inflates_area_estimate() {
        let a = analysis();
        let base = OptimizationConfig::baseline((64, 1));
        let blocked = OptimizationConfig { temporal_block_depth: 4, ..base };
        let a0 = estimate_area(&a, &base);
        let a1 = estimate_area(&a, &blocked);
        assert!(a1.bram_bytes > a0.bram_bytes);
        assert_eq!(a1.dsps, a0.dsps);
    }

    #[test]
    fn display_is_informative() {
        let a = analysis();
        let area = estimate_area(&a, &OptimizationConfig::baseline((64, 1)));
        let s = area.to_string();
        assert!(s.contains("DSPs"));
        assert!(s.contains("BRAM"));
    }
}
