//! Divergence triage harness — model-vs-System-Run error attribution.
//!
//! Sweeps every corpus kernel's design space, runs the System Run
//! simulator on each feasible point, and attributes the *signed*
//! model-vs-sim error to its compute, memory and dispatch/launch
//! components: both sides decompose their cycle counts into
//! `comp + mem + overhead` (see [`flexcl_core::Estimate`] and
//! `flexcl_sim::SimResult`), so per component
//! `err_X = (model_X - sim_X) / sim_cycles` and the three components sum
//! to the total signed error. The attribution turns "kernel X is 15% off"
//! into "kernel X's memory model is 14% optimistic at C=4" — pointing at
//! the subsystem to fix.
//!
//! Outputs:
//! * `results/triage_points.csv` — every (kernel, config) point with
//!   signed total and per-component errors.
//! * `results/triage_worst.csv` — the worst points by absolute error,
//!   ranked.
//! * repo-root `BENCH_accuracy.json` — machine-readable per-kernel rows
//!   (validated by `--check`, mirroring `dse --check`).
//!
//! Regenerate with `cargo run -p flexcl-bench --bin triage --release`.
//!
//! Flags:
//!
//! * `--kernels SUBSTR` — restrict to kernels whose `benchmark/kernel`
//!   name contains `SUBSTR`.
//! * `--out PATH` — write the JSON to `PATH` instead of the repo root.
//! * `--check PATH` — validate an existing BENCH_accuracy.json (schema
//!   keys present, errors finite and non-negative) and exit; used by
//!   `scripts/tier1.sh`.
//! * `--max-mean-err PCT` — exit non-zero if any swept kernel's mean
//!   absolute error exceeds `PCT` percent (the tier-1 accuracy smoke).
//! * `--no-csv` — skip the `results/` CSVs (so a filtered smoke run does
//!   not overwrite the committed full-suite artifacts).

use flexcl_bench::record::{self, flag_value, Row, Value};
use flexcl_bench::{compile, write_csv};
use flexcl_core::{
    estimate, explore_space_cached, is_iterative_stencil, AnalysisCache, DseOptions,
    OptimizationConfig, Platform, SweepGrid,
};
use flexcl_kernels::{all, Scale, Suite};
use flexcl_sim::{system_run, SimError, SimOptions};

/// One feasible design point with its signed error attribution.
struct PointRow {
    kernel: String,
    suite: &'static str,
    config: OptimizationConfig,
    sim_cycles: f64,
    model_cycles: f64,
    /// Signed relative error `(model - sim) / sim`.
    err: f64,
    /// Compute share of `err` (same denominator, so the three sum to it).
    err_comp: f64,
    /// Memory share of `err`.
    err_mem: f64,
    /// Dispatch/launch share of `err`.
    err_overhead: f64,
}

/// One BENCH_accuracy.json entry: a kernel's accuracy over its design
/// space, with the worst point's attribution.
struct KernelRow {
    kernel: String,
    suite: &'static str,
    points: usize,
    mean_abs_err_pct: f64,
    max_abs_err_pct: f64,
    worst_config: String,
    worst_err_pct: f64,
    worst_err_comp_pct: f64,
    worst_err_mem_pct: f64,
    worst_err_overhead_pct: f64,
}

fn suite_name(s: Suite) -> &'static str {
    match s {
        Suite::Rodinia => "rodinia",
        Suite::PolyBench => "polybench",
    }
}

/// Sweeps the corpus (optionally filtered) and returns every attributed
/// point. Infeasible system runs are skipped like in `sweep_kernel`.
fn triage_sweep(filter: Option<&str>) -> Vec<PointRow> {
    let platform = Platform::virtex7_adm7v3();
    let mut points = Vec::new();
    for spec in all() {
        let name = spec.full_name();
        if let Some(sub) = filter {
            if !name.contains(sub) {
                continue;
            }
        }
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 1234);
        let (grid, opts) = (SweepGrid::standard(), DseOptions::default());
        let cache = AnalysisCache::new();
        let dse = explore_space_cached(&func, &platform, &workload, &grid, opts, None, &cache)
            .expect("exploration");
        for point in &dse.points {
            if !point.estimate.feasible {
                continue;
            }
            let sim =
                match system_run(&func, &platform, &workload, &point.config, SimOptions::default())
                {
                    Ok(r) => r,
                    Err(SimError::Infeasible(_)) => continue,
                    Err(e) => panic!("system run failed for {name}: {e}"),
                };
            let est = &point.estimate;
            let denom = sim.cycles.max(1.0);
            points.push(PointRow {
                kernel: name.clone(),
                suite: suite_name(spec.suite),
                config: point.config,
                sim_cycles: sim.cycles,
                model_cycles: est.cycles,
                err: (est.cycles - sim.cycles) / denom,
                err_comp: (est.comp_cycles - sim.comp_cycles) / denom,
                err_mem: (est.mem_cycles - sim.mem_cycles) / denom,
                err_overhead: (est.overhead_cycles - sim.overhead_cycles) / denom,
            });
        }
        // The standard grid keeps the coarsening/temporal axes at the
        // identity (it mirrors the paper's Table 2 space), so probe them
        // explicitly off the kernel's best standard point: coarsened
        // variants for every kernel, blocked (and combined) variants for
        // iterative stencils. The probes flow through the same error
        // attribution, so BENCH_accuracy.json gates the new axes too.
        let Some(best) = dse.best() else { continue };
        let mut probes: Vec<OptimizationConfig> = Vec::new();
        for cf in [2u32, 4] {
            if best.config.work_group_size().is_multiple_of(u64::from(cf)) {
                probes.push(OptimizationConfig { coarsen_factor: cf, ..best.config });
            }
        }
        if is_iterative_stencil(&func.name) {
            for tb in [2u32, 4] {
                probes.push(OptimizationConfig { temporal_block_depth: tb, ..best.config });
            }
            if best.config.work_group_size().is_multiple_of(2) {
                probes.push(OptimizationConfig {
                    coarsen_factor: 2,
                    temporal_block_depth: 2,
                    ..best.config
                });
            }
        }
        for cfg in probes {
            let analysis = cache
                .get_or_analyze(&func, &platform, &workload, cfg.work_group, opts.fuel)
                .expect("analysis");
            let est = match estimate(&analysis, &cfg) {
                Ok(e) if e.feasible => e,
                _ => continue,
            };
            let sim = match system_run(&func, &platform, &workload, &cfg, SimOptions::default()) {
                Ok(r) => r,
                Err(SimError::Infeasible(_)) => continue,
                Err(e) => panic!("system run failed for {name} probe {cfg}: {e}"),
            };
            let denom = sim.cycles.max(1.0);
            points.push(PointRow {
                kernel: name.clone(),
                suite: suite_name(spec.suite),
                config: cfg,
                sim_cycles: sim.cycles,
                model_cycles: est.cycles,
                err: (est.cycles - sim.cycles) / denom,
                err_comp: (est.comp_cycles - sim.comp_cycles) / denom,
                err_mem: (est.mem_cycles - sim.mem_cycles) / denom,
                err_overhead: (est.overhead_cycles - sim.overhead_cycles) / denom,
            });
        }
    }
    points
}

/// Folds the point rows into per-kernel accuracy rows.
fn kernel_rows(points: &[PointRow]) -> Vec<KernelRow> {
    let mut rows: Vec<KernelRow> = Vec::new();
    for p in points {
        if !rows.iter().any(|r| r.kernel == p.kernel) {
            let mine: Vec<&PointRow> = points.iter().filter(|q| q.kernel == p.kernel).collect();
            let worst =
                mine.iter().max_by(|a, b| a.err.abs().total_cmp(&b.err.abs())).expect("non-empty");
            rows.push(KernelRow {
                kernel: p.kernel.clone(),
                suite: p.suite,
                points: mine.len(),
                mean_abs_err_pct: 100.0 * mine.iter().map(|q| q.err.abs()).sum::<f64>()
                    / mine.len() as f64,
                max_abs_err_pct: 100.0 * worst.err.abs(),
                worst_config: worst.config.to_string(),
                worst_err_pct: 100.0 * worst.err,
                worst_err_comp_pct: 100.0 * worst.err_comp,
                worst_err_mem_pct: 100.0 * worst.err_mem,
                worst_err_overhead_pct: 100.0 * worst.err_overhead,
            });
        }
    }
    rows
}

/// The keys of a BENCH_accuracy.json row, in emission order.
const BENCH_KEYS: [&str; 10] = [
    "kernel",
    "suite",
    "points",
    "mean_abs_err_pct",
    "max_abs_err_pct",
    "worst_config",
    "worst_err_pct",
    "worst_err_comp_pct",
    "worst_err_mem_pct",
    "worst_err_overhead_pct",
];

impl KernelRow {
    /// This row's values, in [`BENCH_KEYS`] order.
    fn values(&self) -> [Value<'_>; 10] {
        let pct = |x: f64| Value::Float(x, 3);
        [
            Value::Str(&self.kernel),
            Value::Str(self.suite),
            Value::Int(self.points as u64),
            pct(self.mean_abs_err_pct),
            pct(self.max_abs_err_pct),
            Value::Str(&self.worst_config),
            pct(self.worst_err_pct),
            pct(self.worst_err_comp_pct),
            pct(self.worst_err_mem_pct),
            pct(self.worst_err_overhead_pct),
        ]
    }
}

/// The BENCH_accuracy.json gate: a finite non-negative
/// `mean_abs_err_pct` on every row.
fn gate(rows: &[Row]) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let mean = row.num("mean_abs_err_pct")?;
        if !mean.is_finite() || mean < 0.0 {
            return Err(format!(
                "row {i}: mean_abs_err_pct = {mean} (must be finite and non-negative)"
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        record::run_check(path, &BENCH_KEYS, gate);
        return;
    }
    let filter = flag_value(&args, "--kernels");
    let out = flag_value(&args, "--out");
    let max_mean_err: Option<f64> =
        flag_value(&args, "--max-mean-err").map(|v| v.parse().expect("--max-mean-err PCT"));
    let write_csvs = !args.iter().any(|a| a == "--no-csv");

    let mut points = triage_sweep(filter);
    if points.is_empty() {
        eprintln!("triage: no feasible points matched (filter: {filter:?})");
        std::process::exit(1);
    }

    // Per-point CSV (the raw material for by-hand slicing), and the worst
    // points ranked by |error|.
    points.sort_by(|a, b| b.err.abs().total_cmp(&a.err.abs()));
    if write_csvs {
        let point_rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{},{},{},{:.0},{:.0},{:.4},{:.4},{:.4},{:.4}",
                    p.kernel,
                    p.suite,
                    p.config.to_string().replace(' ', ";"),
                    p.sim_cycles,
                    p.model_cycles,
                    p.err,
                    p.err_comp,
                    p.err_mem,
                    p.err_overhead
                )
            })
            .collect();
        write_csv(
            "triage_points.csv",
            "kernel,suite,config,sim_cycles,model_cycles,err,err_comp,err_mem,err_overhead",
            &point_rows,
        );

        let worst_rows: Vec<String> = points
            .iter()
            .take(20)
            .map(|p| {
                format!(
                    "{},{},{},{:.2},{:.2},{:.2},{:.2}",
                    p.kernel,
                    p.suite,
                    p.config.to_string().replace(' ', ";"),
                    100.0 * p.err,
                    100.0 * p.err_comp,
                    100.0 * p.err_mem,
                    100.0 * p.err_overhead
                )
            })
            .collect();
        write_csv(
            "triage_worst.csv",
            "kernel,suite,config,err_pct,err_comp_pct,err_mem_pct,err_overhead_pct",
            &worst_rows,
        );
    }

    let rows = kernel_rows(&points);
    println!("\nModel-vs-sim divergence triage");
    println!("{:-<100}", "");
    println!(
        "{:<26} {:>7} {:>9} {:>9}   worst point attribution (comp/mem/overhead)",
        "Kernel", "points", "mean|e|", "max|e|"
    );
    println!("{:-<100}", "");
    for r in &rows {
        println!(
            "{:<26} {:>7} {:>8.1}% {:>8.1}%   {:+.1}% = {:+.1}% {:+.1}% {:+.1}%  @ {}",
            r.kernel,
            r.points,
            r.mean_abs_err_pct,
            r.max_abs_err_pct,
            r.worst_err_pct,
            r.worst_err_comp_pct,
            r.worst_err_mem_pct,
            r.worst_err_overhead_pct,
            r.worst_config,
        );
    }
    println!("{:-<100}", "");
    let suite_mean = |s: &str| {
        let v: Vec<f64> =
            rows.iter().filter(|r| r.suite == s).map(|r| r.mean_abs_err_pct).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "Suite averages: rodinia {:.2}% | polybench {:.2}% (paper: 3.7% / 1.5%)",
        suite_mean("rodinia"),
        suite_mean("polybench")
    );

    // The temporal-blocking probes exist to show the reuse win on the
    // iterative stencils, in the simulator as well as the model — report
    // it per kernel so a regression is visible in the triage output.
    let blocked_kernels: Vec<&str> = {
        let mut v: Vec<&str> = points
            .iter()
            .filter(|p| p.config.temporal_block_depth > 1)
            .map(|p| p.kernel.as_str())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    if !blocked_kernels.is_empty() {
        println!("\nTemporal-blocking probes (best sim cycles, blocked vs flat):");
        for kernel in blocked_kernels {
            let best_sim = |pred: &dyn Fn(u32) -> bool| {
                points
                    .iter()
                    .filter(|p| p.kernel == kernel && pred(p.config.temporal_block_depth))
                    .map(|p| p.sim_cycles)
                    .fold(f64::INFINITY, f64::min)
            };
            let blocked = best_sim(&|tb| tb > 1);
            let flat = best_sim(&|tb| tb == 1);
            println!(
                "  {kernel:<26} {blocked:>10.0} vs {flat:>10.0}  ({:+.1}%{})",
                100.0 * (blocked - flat) / flat,
                if blocked < flat { ", win" } else { "" }
            );
        }
    }
    let values: Vec<_> = rows.iter().map(KernelRow::values).collect();
    record::write("BENCH_accuracy.json", out, &BENCH_KEYS, &values);

    if let Some(limit) = max_mean_err {
        for r in &rows {
            if r.mean_abs_err_pct > limit {
                eprintln!(
                    "triage: {} mean |error| {:.2}% exceeds --max-mean-err {limit}%",
                    r.kernel, r.mean_abs_err_pct
                );
                std::process::exit(1);
            }
        }
        println!("accuracy smoke ok: all kernels within {limit}% mean |error|");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rows_render_like_the_committed_file() {
        let row = KernelRow {
            kernel: "bfs/bfs_1".to_string(),
            suite: "rodinia",
            points: 332,
            mean_abs_err_pct: 5.679,
            max_abs_err_pct: 16.033,
            worst_config: "wg=32x1 pipe=1 P=1 C=4 V=1 mode=pipeline".to_string(),
            worst_err_pct: -16.033,
            worst_err_comp_pct: -1.317,
            worst_err_mem_pct: -14.53,
            worst_err_overhead_pct: -0.186,
        };
        assert_eq!(
            record::render_row(&BENCH_KEYS, &row.values()),
            r#"{"kernel": "bfs/bfs_1", "suite": "rodinia", "points": 332, "mean_abs_err_pct": 5.679, "max_abs_err_pct": 16.033, "worst_config": "wg=32x1 pipe=1 P=1 C=4 V=1 mode=pipeline", "worst_err_pct": -16.033, "worst_err_comp_pct": -1.317, "worst_err_mem_pct": -14.530, "worst_err_overhead_pct": -0.186}"#
        );
    }

    #[test]
    fn the_committed_file_passes_the_check() {
        let body = include_str!("../../../../BENCH_accuracy.json");
        let rows = record::parse_rows(body, &BENCH_KEYS).expect("committed file parses");
        assert_eq!(gate(&rows), Ok(()));
    }
}
