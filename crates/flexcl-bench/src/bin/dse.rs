//! Experiment E5 — §4.3 design-space exploration.
//!
//! Reproduced claims, per PolyBench kernel:
//!
//! * **Speed**: FlexCL explores the full space in seconds; against
//!   synthesis-based System Run (0.7 h per design, as Table 2 implies) the
//!   speedup exceeds 10,000×.
//! * **Quality**: the configuration FlexCL ranks best performs within a
//!   few percent of the true (System-Run-measured) optimum — the paper
//!   reports 2.1% average — and the best configuration accelerates the
//!   unoptimized baseline by orders of magnitude (273× on the paper's
//!   workload sizes).
//! * **Comparison with \[16\]**: exhaustive search over the FlexCL model
//!   finds the optimum for most kernels, while the coarse-grained model
//!   with step-by-step search of HPCA'16 rarely does (96% vs 12%).
//!
//! Regenerate with `cargo run -p flexcl-bench --bin dse --release`.
//!
//! In addition to the E5 tables, the binary measures the raw sweep-engine
//! throughput at 1/2/4/8 worker threads — with per-phase timings, the
//! work-stealing scheduler's chunk/steal counters and the hit rates of
//! the analysis and schedule caches — and writes it to the repo-root
//! `BENCH_dse.json`. Each row is the **median of N repetitions** after a
//! warm-up sweep: the per-sweep times are sub-millisecond at standard
//! scale, so single-shot timings are noise-dominated. Besides these warm
//! rows (one [`flexcl_core::AnalysisCache`] per kernel held across the
//! warm-up and every repetition, the steady state of a re-explored
//! kernel), the measurement adds one **cold** row per measured kernel at
//! threads=1: each repetition sweeps with a fresh
//! [`flexcl_core::AnalysisCache`], so the row times first exploration
//! and splits its analysis into interpreter profiling, burst grouping
//! and DRAM replay (`profile_ms`, `group_ms`, `replay_ms`); profiling
//! also reports the instructions it interpreted and its cost per
//! instruction (`profile_steps`, `profile_ns_per_step`). Every row
//! reports the replay pass and in-place compaction of the points
//! (`merge_ms`).
//!
//! Flags:
//!
//! * `--bench-only` — run just the throughput measurement.
//! * `--kernels SUBSTR` — restrict the measured kernels to names
//!   containing `SUBSTR` (e.g. `--kernels vadd` for a smoke run).
//! * `--grid NAME` — sweep the `standard`, `fine` (default) or `ultra`
//!   knob grid; `fine` gives the ≥10⁵-point sweeps the scaling numbers
//!   are quoted on.
//! * `--reps N` — repetitions per row (default 5); the row reports the
//!   median.
//! * `--out PATH` — write the JSON to `PATH` instead of the repo root.
//! * `--verbose` — print each measured sweep's internals (the
//!   [`flexcl_core::DseStats`] rendering) and diagnostics.
//! * `--trace-out PATH` (with `--trace-sample N`) — dump the span trace
//!   of the run as JSONL.
//! * `--check PATH` — validate an existing BENCH_dse.json (schema keys
//!   present, `configs_per_sec` finite and positive, `merge_ms` no more
//!   than `elapsed_ms` on every row, and cold rows that profiled at least
//!   one instruction and whose analysis stages sum to no more than their
//!   elapsed time) and exit; used
//!   by `scripts/tier1.sh`. With `--require-scaling`, additionally require
//!   threads=8 throughput to beat threads=1 per kernel — skipped with a
//!   notice when the rows were measured on a single-core host.

use flexcl_bench::record::{self, flag_value, Row, Value};
use flexcl_bench::{compile, sweep_kernel, write_csv, SYNTHESIS_HOURS_PER_DESIGN};
use flexcl_core::{
    explore_space_cached, AnalysisCache, DseOptions, DseResult, KernelAnalysis, Platform,
    SweepGrid, Workload,
};
use flexcl_interp::KernelArg;
use flexcl_kernels::{polybench, Scale};
use std::time::Instant;

/// One BENCH_dse.json entry: a full model-only sweep of one kernel at one
/// thread count (median of `reps` runs), with phase timings, scheduler
/// counters and cache effectiveness.
struct BenchRow {
    kernel: String,
    /// `"warm"` (analysis cache hot) or `"cold"` (fresh cache per sweep).
    cache: &'static str,
    points: usize,
    threads: usize,
    grid: String,
    reps: usize,
    chunk_size: usize,
    chunks: usize,
    steals: u64,
    repaired_chunks: usize,
    host_cores: usize,
    elapsed_ms: f64,
    configs_per_sec: f64,
    analysis_ms: f64,
    profile_ms: f64,
    /// Instructions interpreted while profiling (0 on cache hits).
    profile_steps: u64,
    /// `profile_ms` per interpreted instruction, in ns (0 without steps).
    profile_ns_per_step: f64,
    group_ms: f64,
    replay_ms: f64,
    estimate_ms: f64,
    sched_ms: f64,
    /// The replay pass and in-place compaction of the points.
    merge_ms: f64,
    analysis_cache_hit_rate: f64,
    sched_cache_hit_rate: f64,
}

impl BenchRow {
    /// The row for the median-time `res` of `reps` sweeps.
    fn new(
        kernel: &str,
        cache: &'static str,
        grid: &str,
        threads: usize,
        reps: usize,
        secs: f64,
        res: &DseResult,
    ) -> BenchRow {
        let ms = |ns: u64| ns as f64 / 1e6;
        BenchRow {
            kernel: kernel.to_string(),
            cache,
            points: res.points.len(),
            threads,
            grid: grid.to_string(),
            reps,
            chunk_size: res.stats.chunk_size,
            chunks: res.stats.chunks_processed,
            steals: res.stats.steals,
            repaired_chunks: res.stats.repaired_chunks,
            host_cores: host_cores(),
            elapsed_ms: secs * 1e3,
            configs_per_sec: res.points.len() as f64 / secs.max(1e-9),
            analysis_ms: ms(res.stats.analysis_nanos),
            profile_ms: ms(res.stats.profile_nanos),
            profile_steps: res.stats.profile_steps,
            profile_ns_per_step: if res.stats.profile_steps == 0 {
                0.0
            } else {
                res.stats.profile_nanos as f64 / res.stats.profile_steps as f64
            },
            group_ms: ms(res.stats.group_nanos),
            replay_ms: ms(res.stats.replay_nanos),
            estimate_ms: ms(res.stats.estimate_nanos),
            sched_ms: ms(res.stats.sched_nanos),
            merge_ms: ms(res.stats.merge_nanos),
            analysis_cache_hit_rate: res.stats.analysis_cache_hit_rate(),
            sched_cache_hit_rate: res.stats.sched_cache_hit_rate(),
        }
    }
}

/// Runs `sweep` `reps` times and returns the median-time run.
fn median_run(reps: usize, mut sweep: impl FnMut() -> DseResult) -> (f64, DseResult) {
    let mut runs: Vec<(f64, DseResult)> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let res = sweep();
            (start.elapsed().as_secs_f64(), res)
        })
        .collect();
    runs.sort_by(|(a, _), (b, _)| a.total_cmp(b));
    runs.swap_remove(runs.len() / 2)
}

/// Reports a measured sweep's internals (`--verbose`) and any skipped
/// candidates.
fn report(name: &str, label: &str, res: &DseResult, verbose: bool) {
    if verbose {
        println!("{name} {label} sweep internals:\n{}", res.stats);
        println!("  diagnostics      : {}", res.diagnostics);
    }
    if !res.diagnostics.is_clean() {
        eprintln!(
            "  warning: {} skipped {} candidate(s) [{}]: {}",
            name,
            res.diagnostics.skipped_count(),
            res.diagnostics.summary(),
            res.diagnostics.failed[0].message
        );
    }
}

/// CPU cores of the measuring host — the scaling gate only demands a
/// parallel speedup when the hardware can physically provide one.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The vadd fixture used by the unit tests (3 × 4096 floats, 1-D range).
fn vadd() -> (flexcl_ir::Function, Workload) {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
            int i = get_global_id(0);
            c[i] = a[i] + b[i];
        }",
    )
    .expect("vadd frontend");
    let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("vadd lowering");
    let w = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; 4096]),
            KernelArg::FloatBuf(vec![2.0; 4096]),
            KernelArg::FloatBuf(vec![0.0; 4096]),
        ],
        global: (4096, 1),
    };
    (f, w)
}

/// Times model-only sweeps (no System Run) over vadd and a few PolyBench
/// kernels: per kernel, one cold sweep at threads=1 and warm sweeps at 1,
/// 2, 4 and 8 worker threads. `filter` restricts the kernels to names
/// containing the given substring; each row is the median of `reps` timed
/// sweeps (the warm ones after one warm-up).
fn bench_sweeps(
    filter: Option<&str>,
    grid_name: &str,
    reps: usize,
    verbose: bool,
) -> Vec<BenchRow> {
    let platform = Platform::virtex7_adm7v3();
    let grid = SweepGrid::by_name(grid_name)
        .unwrap_or_else(|| panic!("unknown grid {grid_name:?} (standard|fine|ultra)"));
    let thread_counts = [1usize, 2, 4, 8];
    let reps = reps.max(1);

    let mut targets: Vec<(String, flexcl_ir::Function, Workload)> = Vec::new();
    let (f, w) = vadd();
    targets.push(("vadd".to_string(), f, w));
    for spec in polybench().into_iter().take(3) {
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 1234);
        targets.push((spec.full_name(), func, workload));
    }
    if let Some(sub) = filter {
        targets.retain(|(name, _, _)| name.contains(sub));
    }

    let mut rows = Vec::new();
    for (name, func, workload) in &targets {
        // First exploration: every repetition starts from an empty
        // analysis cache, so the row carries the real profiling, grouping
        // and replay cost.
        let (secs, res) = median_run(reps, || {
            let opts = DseOptions { threads: 1, ..DseOptions::default() };
            explore_space_cached(
                func,
                &platform,
                workload,
                &grid,
                opts,
                None,
                &AnalysisCache::new(),
            )
            .expect("cold bench sweep")
        });
        report(name, "cold threads=1", &res, verbose);
        rows.push(BenchRow::new(name, "cold", grid_name, 1, reps, secs, &res));
        // Warm this kernel's cache once so every repetition measures the
        // same steady state (the analysis cache fully hot).
        let cache = AnalysisCache::new();
        let sweep = |opts| {
            explore_space_cached(func, &platform, workload, &grid, opts, None, &cache)
                .expect("bench sweep")
        };
        sweep(DseOptions::default());
        for &threads in &thread_counts {
            let opts = DseOptions { threads, ..DseOptions::default() };
            // Median of `reps` runs: sub-millisecond standard-grid sweeps
            // are noise-dominated single-shot.
            let (secs, res) = median_run(reps, || sweep(opts));
            report(name, &format!("threads={threads}"), &res, verbose);
            rows.push(BenchRow::new(name, "warm", grid_name, threads, reps, secs, &res));
        }
    }
    rows
}

/// The keys of a BENCH_dse.json row, in emission order.
const BENCH_KEYS: [&str; 24] = [
    "kernel",
    "cache",
    "points",
    "threads",
    "grid",
    "reps",
    "chunk_size",
    "chunks",
    "steals",
    "repaired_chunks",
    "host_cores",
    "elapsed_ms",
    "configs_per_sec",
    "analysis_ms",
    "profile_ms",
    "profile_steps",
    "profile_ns_per_step",
    "group_ms",
    "replay_ms",
    "estimate_ms",
    "sched_ms",
    "merge_ms",
    "analysis_cache_hit_rate",
    "sched_cache_hit_rate",
];

impl BenchRow {
    /// This row's values, in [`BENCH_KEYS`] order.
    fn values(&self) -> [Value<'_>; 24] {
        let int = |n: usize| Value::Int(n as u64);
        let f3 = |x: f64| Value::Float(x, 3);
        [
            Value::Str(&self.kernel),
            Value::Str(self.cache),
            int(self.points),
            int(self.threads),
            Value::Str(&self.grid),
            int(self.reps),
            int(self.chunk_size),
            int(self.chunks),
            Value::Int(self.steals),
            int(self.repaired_chunks),
            int(self.host_cores),
            f3(self.elapsed_ms),
            Value::Float(self.configs_per_sec, 1),
            f3(self.analysis_ms),
            f3(self.profile_ms),
            Value::Int(self.profile_steps),
            f3(self.profile_ns_per_step),
            f3(self.group_ms),
            f3(self.replay_ms),
            f3(self.estimate_ms),
            f3(self.sched_ms),
            f3(self.merge_ms),
            f3(self.analysis_cache_hit_rate),
            f3(self.sched_cache_hit_rate),
        ]
    }
}

/// Prints the throughput rows and writes them to `out` (default:
/// repo-root `BENCH_dse.json`).
fn write_rows(rows: &[BenchRow], out: Option<&str>) {
    println!("\nSweep throughput (model only):");
    for r in rows {
        println!(
            "  {:<26} {} {:>4} points  threads={}  {:>8.2} ms  {:>9.0} configs/s  \
             sched-hits={:>5.1}%",
            r.kernel,
            r.cache,
            r.points,
            r.threads,
            r.elapsed_ms,
            r.configs_per_sec,
            r.sched_cache_hit_rate * 100.0,
        );
        if r.cache == "cold" {
            println!(
                "  {:<26}      analysis {:.2} ms = profile {:.2} + group {:.2} + replay {:.2} \
                 + static {:.2}",
                "",
                r.analysis_ms,
                r.profile_ms,
                r.group_ms,
                r.replay_ms,
                r.analysis_ms - r.profile_ms - r.group_ms - r.replay_ms,
            );
            println!(
                "  {:<26}      profile: {} steps at {:.2} ns/step",
                "", r.profile_steps, r.profile_ns_per_step,
            );
        }
    }
    let values: Vec<_> = rows.iter().map(BenchRow::values).collect();
    record::write("BENCH_dse.json", out, &BENCH_KEYS, &values);
}

/// The BENCH_dse.json gates: a finite positive `configs_per_sec` and a
/// `merge_ms` no more than `elapsed_ms` on every row, and at least one
/// cold row; every cold row missed the analysis cache, profiled at least
/// one instruction (`profile_steps`), and has analysis stages
/// (`profile_ms + group_ms + replay_ms`) that sum to no more than its
/// `elapsed_ms`. With `require_scaling`, additionally demands that per
/// kernel the warm threads=8 throughput beats threads=1 — skipped with
/// a notice when the rows report a single-core measuring host, where a
/// parallel speedup is physically impossible.
fn gate(rows: &[Row], require_scaling: bool) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let cps = row.num("configs_per_sec")?;
        if !cps.is_finite() || cps <= 0.0 {
            return Err(format!("row {i}: configs_per_sec = {cps} (must be finite and positive)"));
        }
        let (merge, elapsed) = (row.num("merge_ms")?, row.num("elapsed_ms")?);
        if !(0.0..=elapsed).contains(&merge) {
            return Err(format!(
                "row {i}: merge_ms = {merge:.3} against {elapsed:.3} ms elapsed \
                 (must be no more than elapsed)"
            ));
        }
    }
    let cold: Vec<&Row> = rows.iter().filter(|r| r.str("cache") == "cold").collect();
    if cold.is_empty() {
        return Err("no cold row (first exploration with a fresh analysis cache)".to_string());
    }
    for row in cold {
        let stages = row.num("profile_ms")? + row.num("group_ms")? + row.num("replay_ms")?;
        let elapsed = row.num("elapsed_ms")?;
        if !(stages > 0.0 && stages <= elapsed) {
            return Err(format!(
                "cold row: analysis stages sum to {stages:.3} ms against {elapsed:.3} ms \
                 elapsed (must be positive and no more than elapsed)"
            ));
        }
        if row.num("analysis_cache_hit_rate")? != 0.0 {
            return Err("cold row hit the analysis cache".to_string());
        }
        let steps = row.num("profile_steps")?;
        if steps <= 0.0 {
            return Err(format!(
                "cold row: profile_steps = {steps} (profiling interpreted nothing)"
            ));
        }
        println!(
            "BENCH check: {} cold row ok (stages {stages:.2} ms of {elapsed:.2} ms elapsed, \
             {steps} profiled steps at {:.2} ns/step)",
            row.str("kernel"),
            row.num("profile_ns_per_step")?
        );
    }
    if !require_scaling {
        return Ok(());
    }
    let warm: Vec<&Row> = rows.iter().filter(|r| r.str("cache") == "warm").collect();
    let mut kernels: Vec<&str> = Vec::new();
    for row in &warm {
        if !kernels.contains(&row.str("kernel")) {
            kernels.push(row.str("kernel"));
        }
    }
    for kernel in kernels {
        let mine: Vec<&Row> = warm.iter().copied().filter(|r| r.str("kernel") == kernel).collect();
        let cps_at = |threads: f64| -> Result<Option<f64>, String> {
            for row in &mine {
                if row.num("threads")? == threads {
                    return row.num("configs_per_sec").map(Some);
                }
            }
            Ok(None)
        };
        let (Some(t1), Some(t8)) = (cps_at(1.0)?, cps_at(8.0)?) else {
            return Err(format!(
                "{kernel}: need threads=1 and threads=8 rows for the scaling gate"
            ));
        };
        let cores = mine[0].num("host_cores")?;
        if cores < 2.0 {
            println!(
                "BENCH check: {kernel}: scaling gate skipped \
                 (rows measured on a {cores}-core host; t1={t1:.0}, t8={t8:.0} configs/s)"
            );
        } else if t8 <= t1 {
            return Err(format!(
                "{kernel}: threads=8 ({t8:.0} configs/s) does not beat \
                 threads=1 ({t1:.0} configs/s) on a {cores}-core host"
            ));
        } else {
            println!("BENCH check: {kernel}: scaling ok ({:.2}x at 8 threads)", t8 / t1);
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        let require_scaling = args.iter().any(|a| a == "--require-scaling");
        record::run_check(path, &BENCH_KEYS, |rows| gate(rows, require_scaling));
        return;
    }
    let kernels = flag_value(&args, "--kernels");
    let out = flag_value(&args, "--out");
    let grid = flag_value(&args, "--grid").unwrap_or("fine");
    let reps = flag_value(&args, "--reps")
        .map(|r| r.parse::<usize>().expect("--reps takes a positive integer"))
        .unwrap_or(5);
    let verbose = args.iter().any(|a| a == "--verbose");
    let traced = match flag_value(&args, "--trace-out") {
        Some(path) => {
            let sample = flag_value(&args, "--trace-sample")
                .map(|n| n.parse::<u64>().expect("--trace-sample takes a positive integer"))
                .unwrap_or(1);
            let file = std::fs::File::create(path).expect("create --trace-out file");
            flexcl_obs::trace::install(Box::new(file), sample)
        }
        None => false,
    };
    if args.iter().any(|a| a == "--bench-only") {
        write_rows(&bench_sweeps(kernels, grid, reps, verbose), out);
        if traced {
            flexcl_obs::trace::shutdown();
        }
        return;
    }
    let platform = Platform::virtex7_adm7v3();
    let mut rows = Vec::new();
    let mut flexcl_optimal = 0usize;
    let mut stepwise_optimal = 0usize;
    let mut total = 0usize;
    let mut gaps = Vec::new();
    let mut speedups = Vec::new();
    let mut speed_ratio = Vec::new();

    println!("Design-space exploration (PolyBench)");
    println!("{:-<100}", "");
    println!(
        "{:<26} {:>7} {:>9} {:>9} {:>9} {:>10} {:>12} {:>10}",
        "Kernel", "points", "gap", "speedup", "FlexCL t", "Synth est", "explore spd", "stepwise"
    );
    println!("{:-<100}", "");

    for spec in polybench() {
        let sweep = sweep_kernel(&spec, &platform, Scale::Test);
        if sweep.records.is_empty() {
            continue;
        }
        total += 1;

        // Ground-truth optimum and FlexCL's pick.
        let sim_best = sweep
            .records
            .iter()
            .min_by(|a, b| a.system_cycles.total_cmp(&b.system_cycles))
            .expect("non-empty");
        let flexcl_pick = sweep
            .records
            .iter()
            .min_by(|a, b| a.flexcl_cycles.total_cmp(&b.flexcl_cycles))
            .expect("non-empty");
        let gap = (flexcl_pick.system_cycles - sim_best.system_cycles) / sim_best.system_cycles;
        gaps.push(gap);
        // "Optimal" within the System Run's synthesis-variance noise floor
        // (per-op implementation factors move a measurement by a few
        // percent, so near-ties are genuine ties).
        if gap < 0.05 {
            flexcl_optimal += 1;
        }

        // Speedup of the best point over the unoptimized baseline.
        let baseline = sweep
            .records
            .iter()
            .filter(|r| {
                !r.config.work_item_pipeline
                    && r.config.num_pes == 1
                    && r.config.num_cus == 1
                    && r.config.vector_width == 1
            })
            .map(|r| r.system_cycles)
            .fold(0f64, f64::max);
        let speedup = baseline / sim_best.system_cycles;
        speedups.push(speedup);

        // Stepwise coarse-grained search (HPCA'16).
        let func = compile(&spec);
        let workload = spec.workload(Scale::Test, 1234);
        let limits = flexcl_core::limits_for(&func, &workload);
        let space = flexcl_core::enumerate(&limits);
        let analysis = KernelAnalysis::analyze(&func, &platform, &workload, (64, 1))
            .or_else(|_| KernelAnalysis::analyze(&func, &platform, &workload, (8, 8)))
            .expect("analysis");
        let stepwise_pick =
            flexcl_baselines::coarse::stepwise_search(&analysis, &space).expect("stepwise");
        let stepwise_sim = sweep
            .records
            .iter()
            .find(|r| r.config == stepwise_pick)
            .map_or(f64::INFINITY, |r| r.system_cycles);
        let stepwise_gap = (stepwise_sim - sim_best.system_cycles) / sim_best.system_cycles;
        let stepwise_is_optimal = stepwise_gap < 0.05;
        if stepwise_is_optimal {
            stepwise_optimal += 1;
        }

        // Exploration speed: measured model time vs extrapolated synthesis.
        let synth_secs = sweep.records.len() as f64 * SYNTHESIS_HOURS_PER_DESIGN * 3600.0;
        let ratio = synth_secs / sweep.flexcl_time.as_secs_f64().max(1e-9);
        speed_ratio.push(ratio);

        println!(
            "{:<26} {:>7} {:>8.1}% {:>8.1}x {:>8.1}s {:>8.0} h {:>11.0}x {:>10}",
            sweep.name,
            sweep.records.len(),
            gap * 100.0,
            speedup,
            sweep.flexcl_time.as_secs_f64(),
            synth_secs / 3600.0,
            ratio,
            if stepwise_is_optimal { "optimal" } else { "local opt" },
        );
        rows.push(format!(
            "{},{},{:.4},{:.2},{:.3},{:.0},{:.0},{}",
            sweep.name,
            sweep.records.len(),
            gap,
            speedup,
            sweep.flexcl_time.as_secs_f64(),
            synth_secs,
            ratio,
            stepwise_is_optimal
        ));
    }

    println!("{:-<100}", "");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "FlexCL pick within {:.1}% of optimum on average (paper: 2.1%); optimal picks: {}/{} = {:.0}% (paper: 96%)",
        avg(&gaps) * 100.0,
        flexcl_optimal,
        total,
        100.0 * flexcl_optimal as f64 / total.max(1) as f64
    );
    println!(
        "Stepwise [16] optimal picks: {}/{} = {:.0}% (paper: 12%)",
        stepwise_optimal,
        total,
        100.0 * stepwise_optimal as f64 / total.max(1) as f64
    );
    println!(
        "Best-vs-baseline speedup: {:.0}x average (paper: 273x at full workload scale)",
        avg(&speedups)
    );
    println!(
        "Exploration speedup over synthesis-based System Run: {:.0}x average (paper: >10,000x)",
        avg(&speed_ratio)
    );
    write_csv(
        "dse_polybench.csv",
        "kernel,points,gap_to_optimal,speedup_over_baseline,flexcl_seconds,\
         synthesis_seconds_extrapolated,exploration_speedup,stepwise_optimal",
        &rows,
    );
    write_rows(&bench_sweeps(kernels, grid, reps, verbose), out);
    if traced {
        flexcl_obs::trace::shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cold row of the committed BENCH_dse.json.
    fn cold_row() -> BenchRow {
        BenchRow {
            kernel: "vadd".to_string(),
            cache: "cold",
            points: 364_800,
            threads: 1,
            grid: "fine".to_string(),
            reps: 5,
            chunk_size: 2048,
            chunks: 183,
            steals: 15,
            repaired_chunks: 0,
            host_cores: 2,
            elapsed_ms: 104.925,
            configs_per_sec: 3_476_757.3,
            analysis_ms: 10.638,
            profile_ms: 3.044,
            profile_steps: 193_688,
            profile_ns_per_step: 15.714,
            group_ms: 6.946,
            replay_ms: 0.598,
            estimate_ms: 90.644,
            sched_ms: 0.869,
            merge_ms: 0.016,
            analysis_cache_hit_rate: 0.0,
            sched_cache_hit_rate: 1.0,
        }
    }

    #[test]
    fn bench_rows_render_like_the_committed_file() {
        assert_eq!(
            record::render_row(&BENCH_KEYS, &cold_row().values()),
            r#"{"kernel": "vadd", "cache": "cold", "points": 364800, "threads": 1, "grid": "fine", "reps": 5, "chunk_size": 2048, "chunks": 183, "steals": 15, "repaired_chunks": 0, "host_cores": 2, "elapsed_ms": 104.925, "configs_per_sec": 3476757.3, "analysis_ms": 10.638, "profile_ms": 3.044, "profile_steps": 193688, "profile_ns_per_step": 15.714, "group_ms": 6.946, "replay_ms": 0.598, "estimate_ms": 90.644, "sched_ms": 0.869, "merge_ms": 0.016, "analysis_cache_hit_rate": 0.000, "sched_cache_hit_rate": 1.000}"#
        );
    }

    #[test]
    fn the_committed_file_passes_the_check() {
        let rows = record::parse_rows(include_str!("../../../../BENCH_dse.json"), &BENCH_KEYS)
            .expect("committed BENCH_dse.json parses");
        gate(&rows, false).expect("committed BENCH_dse.json passes its gates");
    }

    /// The gate's verdict on a file of the single row `row`.
    fn gate_of(row: BenchRow) -> Result<(), String> {
        let rows = record::parse_rows(&record::render(&BENCH_KEYS, &[row.values()]), &BENCH_KEYS)
            .expect("a rendered file parses");
        gate(&rows, false)
    }

    #[test]
    fn a_cold_row_that_profiled_nothing_fails_the_gate() {
        assert_eq!(gate_of(cold_row()), Ok(()));
        let starved = BenchRow { profile_steps: 0, ..cold_row() };
        assert!(gate_of(starved).unwrap_err().contains("profiling interpreted nothing"));
    }

    #[test]
    fn a_row_whose_merge_outlasts_its_sweep_fails_the_gate() {
        let elapsed_ms = cold_row().elapsed_ms;
        assert_eq!(gate_of(BenchRow { merge_ms: elapsed_ms, ..cold_row() }), Ok(()));
        let late = BenchRow { merge_ms: elapsed_ms + 0.5, ..cold_row() };
        assert!(gate_of(late).unwrap_err().contains("merge_ms"));
    }
}
