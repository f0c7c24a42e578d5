//! # flexcl-core
//!
//! FlexCL: an analytical performance model for OpenCL workloads on FPGAs —
//! a from-scratch Rust reproduction of Wang, Liang, Zhang (DAC 2017).
//!
//! FlexCL takes an OpenCL kernel plus an optimization configuration and
//! predicts the kernel's execution cycles on an FPGA in microseconds of
//! model time, enabling exhaustive design-space exploration that would
//! take days through synthesis:
//!
//! 1. **Kernel analysis** (§3.2, [`analysis`]) — the kernel is parsed,
//!    lowered to IR, and analyzed statically (CDFG, op latencies, port and
//!    DSP pressure, inter-work-item recurrences) and dynamically (loop trip
//!    counts, the coalesced global-memory trace classified into the eight
//!    Table-1 DRAM patterns).
//! 2. **Computation model** (§3.3, [`model`]) — PE, CU and kernel levels:
//!    `II_comp^wi` from `MII = max(RecMII, ResMII)` refined by swing modulo
//!    scheduling, pipeline depth from the CDFG critical path, Eq. 1–8.
//! 3. **Global memory model** (§3.4) — Eq. 9 over micro-benchmarked
//!    pattern latencies.
//! 4. **Integration** (§3.5) — barrier mode (Eq. 10) or pipeline mode
//!    (Eq. 11–12).
//! 5. **Design-space exploration** (§4.3, [`dse`]) — exhaustive sweeps in
//!    seconds.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flexcl_core::{FlexCl, OptimizationConfig, Platform, Workload};
//! use flexcl_interp::KernelArg;
//!
//! let src = "__kernel void scale(__global float* x, float a) {
//!                int i = get_global_id(0);
//!                x[i] = x[i] * a;
//!            }";
//! let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
//! let workload = Workload {
//!     args: vec![KernelArg::FloatBuf(vec![1.0; 1024]), KernelArg::Float(2.0)],
//!     global: (1024, 1),
//! };
//! let config = OptimizationConfig {
//!     work_item_pipeline: true,
//!     ..OptimizationConfig::baseline((64, 1))
//! };
//! let est = flexcl.estimate_source(src, "scale", &workload, &config)?;
//! assert!(est.feasible);
//! assert!(est.cycles > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod area;
pub mod config;
pub mod dse;
pub mod error;
pub mod eval;
pub mod model;
pub mod platform;

pub use analysis::{coarsen_trace, AnalysisScratch, AnalysisStages, CoarsenLevel, ContentionCurve,
    KernelAnalysis, ProfileArgs, ProfileFuel, ResolvedRecurrence, Workload,
    COARSEN_CANDIDATES};
pub use area::{estimate_area, pareto_frontier, AreaEstimate, ParetoPoint};
pub use config::{
    enumerate, is_iterative_stencil, CommMode, ConfigSpace, DesignSpaceLimits,
    OptimizationConfig, SweepGrid, MAX_COARSEN, MAX_TEMPORAL_DEPTH,
};
pub use dse::{
    explore_configs, explore_space_cached, limits_for, AnalysisCache, CancelToken, DesignPoint,
    DiagnosticsReport, DseOptions, DseResult, DseStats, FailedPoint,
};
pub use error::{ErrorKind, FlexclError};
pub use eval::{EvalContext, EvalStats};
pub use model::{
    cycle_lower_bound, cycles_to_seconds, estimate, pe_budget, Estimate, InfeasibleReason,
};
pub use platform::Platform;

/// The FlexCL model bound to a platform — the main entry point.
#[derive(Debug, Clone)]
pub struct FlexCl {
    platform: Platform,
}

impl FlexCl {
    /// Creates a model instance for `platform`.
    pub fn new(platform: Platform) -> Self {
        FlexCl { platform }
    }

    /// The platform in use.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Compiles `src`, analyzes kernel `name` on `workload` and evaluates
    /// one configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError`] on frontend, lowering, profiling or
    /// configuration-validation failures.
    pub fn estimate_source(
        &self,
        src: &str,
        name: &str,
        workload: &Workload,
        config: &OptimizationConfig,
    ) -> Result<Estimate, FlexclError> {
        let analysis = self.analyze_source(src, name, workload, config.work_group)?;
        model::estimate(&analysis, config)
    }

    /// Compiles and analyzes a kernel for a given work-group size; the
    /// returned [`KernelAnalysis`] can be reused across configurations with
    /// the same work-group size.
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError`] on frontend, lowering or profiling failures.
    pub fn analyze_source(
        &self,
        src: &str,
        name: &str,
        workload: &Workload,
        work_group: (u32, u32),
    ) -> Result<KernelAnalysis, FlexclError> {
        let program = flexcl_frontend::parse_and_check(src)?;
        let kernel = program
            .kernel(name)
            .ok_or_else(|| FlexclError::NoSuchKernel { name: name.to_string() })?;
        let func = flexcl_ir::lower_kernel(kernel)?;
        KernelAnalysis::analyze(&func, &self.platform, workload, work_group)
    }

    /// Compiles `src` and exhaustively explores kernel `name` over the
    /// [`SweepGrid::standard`] grid with the default [`DseOptions`] and a
    /// fresh [`AnalysisCache`]. For other grids, options, a deadline or a
    /// cache held across sweeps, lower the kernel and call
    /// [`explore_space_cached`].
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError`] on frontend, lowering or platform-validation
    /// failures. Per-candidate failures during the sweep are recorded in
    /// [`DseResult::diagnostics`] instead of aborting.
    pub fn explore_source(
        &self,
        src: &str,
        name: &str,
        workload: &Workload,
    ) -> Result<DseResult, FlexclError> {
        let program = flexcl_frontend::parse_and_check(src)?;
        let kernel = program
            .kernel(name)
            .ok_or_else(|| FlexclError::NoSuchKernel { name: name.to_string() })?;
        let func = flexcl_ir::lower_kernel(kernel)?;
        let (grid, cache) = (SweepGrid::standard(), AnalysisCache::new());
        let opts = DseOptions::default();
        explore_space_cached(&func, &self.platform, workload, &grid, opts, None, &cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_interp::KernelArg;

    const SRC: &str = "__kernel void scale(__global float* x, float a) {
        int i = get_global_id(0);
        x[i] = x[i] * a;
    }";

    fn workload() -> Workload {
        Workload {
            args: vec![KernelArg::FloatBuf(vec![1.0; 256]), KernelArg::Float(2.0)],
            global: (256, 1),
        }
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
        let err = flexcl
            .estimate_source(SRC, "missing", &workload(), &OptimizationConfig::default())
            .unwrap_err();
        assert!(matches!(err, FlexclError::NoSuchKernel { .. }));
        assert_eq!(err.kind(), ErrorKind::NoSuchKernel);
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn frontend_errors_propagate() {
        let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
        let err = flexcl
            .estimate_source("not opencl at all", "k", &workload(), &OptimizationConfig::default())
            .unwrap_err();
        assert!(matches!(err, FlexclError::Frontend(_)));
        assert_eq!(err.kind(), ErrorKind::Frontend);
    }

    #[test]
    fn analysis_errors_propagate() {
        let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
        // Out-of-bounds workload: buffer shorter than the NDRange.
        let bad = Workload {
            args: vec![KernelArg::FloatBuf(vec![1.0; 4]), KernelArg::Float(2.0)],
            global: (256, 1),
        };
        let err = flexcl
            .estimate_source(SRC, "scale", &bad, &OptimizationConfig::default())
            .unwrap_err();
        assert!(matches!(err, FlexclError::Profiling { .. }), "{err:?}");
        assert_eq!(err.kind(), ErrorKind::Profiling);
        assert!(err.to_string().contains("scale"), "{err}");
    }

    #[test]
    fn explore_source_round_trips() {
        let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
        let result = flexcl.explore_source(SRC, "scale", &workload()).expect("explore");
        assert!(result.feasible_count() > 0);
        // The constraint query returns a point meeting the bound.
        let analysis = flexcl
            .analyze_source(SRC, "scale", &workload(), (64, 1))
            .expect("analysis");
        let best = result.best().expect("best");
        let relaxed = result
            .cheapest_meeting(&analysis, best.estimate.cycles * 4.0)
            .expect("constraint met");
        assert!(relaxed.estimate.cycles <= best.estimate.cycles * 4.0);
        let tight_area = estimate_area(&analysis, &relaxed.config);
        let best_area = estimate_area(&analysis, &best.config);
        assert!(
            tight_area.cost(flexcl.platform()) <= best_area.cost(flexcl.platform()),
            "relaxing the deadline must not cost more area"
        );
        // Pareto frontier is non-empty and within the explored set.
        let frontier = result.pareto(&analysis);
        assert!(!frontier.is_empty());
    }
}
