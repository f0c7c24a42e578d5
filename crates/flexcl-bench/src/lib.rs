//! # flexcl-bench
//!
//! Experiment harness for the FlexCL reproduction. Each binary in
//! `src/bin/` regenerates one table or figure of the paper (see
//! `DESIGN.md` §4 for the index); this library holds the shared sweep
//! machinery.
//!
//! All experiments write both a human-readable report to stdout and a CSV
//! under `results/`.

use flexcl_core::{
    explore_space_cached, AnalysisCache, DseOptions, OptimizationConfig, Platform, SweepGrid,
};
use flexcl_ir::Function;
use flexcl_kernels::{KernelSpec, Scale};
use flexcl_sim::{system_run, SimError, SimOptions};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub mod record;

/// Per-configuration record of one sweep.
#[derive(Debug, Clone)]
pub struct ConfigRecord {
    /// The configuration.
    pub config: OptimizationConfig,
    /// Ground-truth cycles from the System Run simulator.
    pub system_cycles: f64,
    /// FlexCL's estimate.
    pub flexcl_cycles: f64,
    /// SDAccel-style estimate (`None` = the tool failed on this point).
    pub sdaccel_cycles: Option<f64>,
}

impl ConfigRecord {
    /// FlexCL's relative error on this point.
    pub fn flexcl_err(&self) -> f64 {
        (self.flexcl_cycles - self.system_cycles).abs() / self.system_cycles
    }

    /// SDAccel's relative error, if it returned a result.
    pub fn sdaccel_err(&self) -> Option<f64> {
        self.sdaccel_cycles.map(|c| (c - self.system_cycles).abs() / self.system_cycles)
    }
}

/// Result of sweeping one kernel's design space with all three tools.
#[derive(Debug)]
pub struct KernelSweep {
    /// Kernel identity (`benchmark/kernel`).
    pub name: String,
    /// Feasible design points with all measurements.
    pub records: Vec<ConfigRecord>,
    /// Number of enumerated designs (incl. infeasible / failed).
    pub designs: usize,
    /// Wall time spent in System Runs.
    pub system_time: Duration,
    /// Wall time spent in SDAccel estimates.
    pub sdaccel_time: Duration,
    /// Wall time spent in FlexCL (analysis + estimates).
    pub flexcl_time: Duration,
}

impl KernelSweep {
    /// Mean absolute FlexCL error (%).
    pub fn flexcl_error_pct(&self) -> f64 {
        mean(self.records.iter().map(ConfigRecord::flexcl_err)) * 100.0
    }

    /// Mean absolute SDAccel error (%) over the surviving points.
    pub fn sdaccel_error_pct(&self) -> f64 {
        mean(self.records.iter().filter_map(ConfigRecord::sdaccel_err)) * 100.0
    }

    /// Fraction of design points where the SDAccel estimator failed.
    pub fn sdaccel_failure_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let failed = self.records.iter().filter(|r| r.sdaccel_cycles.is_none()).count();
        failed as f64 / self.records.len() as f64
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The work-group the corpus is analyzed at: the kernel's required size,
/// else 8×8 for 2-D NDRanges and 64×1 for 1-D ones.
pub fn standard_wg(global: (u64, u64), reqd: Option<(u32, u32, u32)>) -> (u32, u32) {
    match reqd {
        Some((x, y, _)) => (x, y),
        None if global.1 > 1 => (8, 8),
        None => (64, 1),
    }
}

/// Compiles a kernel spec to IR.
///
/// # Panics
///
/// Panics if a corpus kernel fails the frontend — that is a bug, caught by
/// the corpus tests.
pub fn compile(spec: &KernelSpec) -> Function {
    let program =
        flexcl_frontend::parse_and_check(spec.source).expect("corpus kernel must compile");
    flexcl_ir::lower_kernel(program.kernel(spec.kernel).expect("kernel present"))
        .expect("corpus kernel must lower")
}

/// Sweeps one kernel: every feasible configuration is evaluated by FlexCL,
/// the SDAccel baseline and the System Run simulator.
pub fn sweep_kernel(spec: &KernelSpec, platform: &Platform, scale: Scale) -> KernelSweep {
    let func = compile(spec);
    let workload = spec.workload(scale, 1234);

    // FlexCL: exhaustive exploration from a cold analysis cache (includes
    // per-wg analyses).
    let (grid, opts, cache) = (SweepGrid::standard(), DseOptions::default(), AnalysisCache::new());
    let t0 = Instant::now();
    let dse = explore_space_cached(&func, platform, &workload, &grid, opts, None, &cache)
        .expect("exploration");
    let flexcl_time = t0.elapsed();

    // Reuse the sweep's per-wg analyses for the SDAccel baseline. Points
    // come family by family, so each family looks its analysis up once.
    let mut records = Vec::new();
    let mut sdaccel_time = Duration::ZERO;
    let mut system_time = Duration::ZERO;

    for family in dse.points.chunk_by(|a, b| a.config.work_group == b.config.work_group) {
        let wg = family[0].config.work_group;
        let Ok(analysis) = cache.get_or_analyze(&func, platform, &workload, wg, opts.fuel) else {
            continue;
        };
        for point in family.iter().filter(|p| p.estimate.feasible) {
            let t = Instant::now();
            let sdaccel_cycles = flexcl_baselines::sdaccel::estimate(&analysis, &point.config);
            sdaccel_time += t.elapsed();

            let t = Instant::now();
            let system =
                system_run(&func, platform, &workload, &point.config, SimOptions::default());
            system_time += t.elapsed();
            let system_cycles = match system {
                Ok(r) => r.cycles,
                Err(SimError::Infeasible(_)) => continue,
                Err(e) => panic!("system run failed for {}: {e}", spec.full_name()),
            };

            records.push(ConfigRecord {
                config: point.config,
                system_cycles,
                flexcl_cycles: point.estimate.cycles,
                sdaccel_cycles,
            });
        }
    }

    KernelSweep {
        name: spec.full_name(),
        records,
        designs: dse.points.len(),
        system_time,
        sdaccel_time,
        flexcl_time,
    }
}

/// Finds a spec by `benchmark/kernel` name.
pub fn find_spec(name: &str) -> KernelSpec {
    flexcl_kernels::all()
        .into_iter()
        .find(|s| s.full_name() == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"))
}

/// The `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes CSV rows (with header) into `results/<name>`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write");
    for r in rows {
        writeln!(f, "{r}").expect("write");
    }
    println!("wrote {}", path.display());
}

/// Formats a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1} min", d.as_secs_f64() / 60.0)
    } else if d.as_secs_f64() >= 1.0 {
        format!("{:.1} s", d.as_secs_f64())
    } else {
        format!("{:.0} ms", d.as_secs_f64() * 1e3)
    }
}

/// The "hours per synthesis run" the paper's System Run column implies:
/// used to report the extrapolated exploration time a real toolchain would
/// need for the same number of design points (the paper's Table 2 shows
/// 47–182 hours per kernel at ~0.7 h per design).
pub const SYNTHESIS_HOURS_PER_DESIGN: f64 = 0.7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_small_kernel_end_to_end() {
        let spec = find_spec("nn/nn");
        let sweep = sweep_kernel(&spec, &Platform::virtex7_adm7v3(), Scale::Test);
        assert!(sweep.records.len() >= 50, "{} records", sweep.records.len());
        assert!(sweep.flexcl_error_pct() < 30.0, "err {:.1}%", sweep.flexcl_error_pct());
        assert!(
            sweep.sdaccel_error_pct() > sweep.flexcl_error_pct(),
            "SDAccel ({:.1}%) must be worse than FlexCL ({:.1}%)",
            sweep.sdaccel_error_pct(),
            sweep.flexcl_error_pct()
        );
        let fail = sweep.sdaccel_failure_rate();
        assert!((0.2..=0.6).contains(&fail), "failure rate {fail}");
    }
}
