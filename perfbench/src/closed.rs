//! The three closed-loop workloads: one caller issues the next sweep only
//! after the previous one returns.
//!
//! - `cold_explore`: every corpus kernel parsed, lowered and explored on
//!   the standard grid at threads=1 with a fresh `AnalysisCache`, as
//!   `flexcl explore` does.
//! - `fine_sweep`: exhaustive fine-grid sweeps at threads=1 over
//!   analyses warmed during set-up.
//! - `best_search`: pruned ultra-grid searches at threads=`nproc` over
//!   analyses warmed during set-up.
//!
//! A run visits the workload's kernels in seeded order, round after
//! round, and starts another round while the measured time is below
//! `--seconds`; rounds are never cut short, so every run measures the
//! same kernel mix.

use crate::common::{self, mean, ms, percentile, ratio, Report, Rng};
use crate::corpus;
use crate::trace;
use crate::{Ctx, Outcome};
use flexcl_core::{
    explore_space_cached, limits_for, AnalysisCache, ConfigSpace, DesignPoint, DseOptions,
    DseResult, DseStats, SweepGrid, Workload,
};
use flexcl_ir::Function;
use std::time::{Duration, Instant};

/// `fine_sweep` kernels: a 1-D kernel (364,800 fine-grid points), a 1-D
/// kernel with a 2.1M-element input (nw/nw1), a 2-D kernel (635,520) and
/// an iterative stencil (1,906,560).
pub const FINE_SET: [&str; 4] = ["bfs/bfs_1", "nw/nw1", "polybench/gemm", "srad/srad2"];

/// `best_search` kernels: ultra-grid spaces of 2M, 4M and 16M candidates
/// whose pruned searches evaluate from under 1% to about a quarter of
/// them, with nw/nw1 again for its 2.1M-element input.
pub const SEARCH_SET: [&str; 6] = [
    "polybench/gemm",
    "srad/srad2",
    "nw/nw1",
    "polybench/jacobi2d",
    "leukocyte/gicov",
    "dwt2d/component",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Fine,
    Search,
}

impl Kind {
    fn grid(self) -> SweepGrid {
        match self {
            Kind::Cold => SweepGrid::standard(),
            Kind::Fine => SweepGrid::fine(),
            Kind::Search => SweepGrid::ultra(),
        }
    }

    fn opts(self) -> DseOptions {
        match self {
            Kind::Cold | Kind::Fine => DseOptions::default(),
            Kind::Search => {
                DseOptions { threads: common::nproc(), prune: true, ..DseOptions::default() }
            }
        }
    }

    fn kernels(self) -> Vec<String> {
        match self {
            Kind::Cold => flexcl_kernels::all().iter().map(|s| s.full_name()).collect(),
            Kind::Fine => FINE_SET.iter().map(|s| (*s).to_string()).collect(),
            Kind::Search => SEARCH_SET.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    /// Set-up repetitions behind the median `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Cold => 5,
            Kind::Fine | Kind::Search => 3,
        }
    }
}

/// One kernel ready to sweep.
struct Kernel {
    name: String,
    source: &'static str,
    kernel: &'static str,
    workload: Workload,
    /// Compiled and warmed during set-up (`fine_sweep`, `best_search`);
    /// `cold_explore` compiles inside each operation.
    warm: Option<(Function, AnalysisCache)>,
    /// The threads=1 pruned best (`best_search`).
    reference: Option<DesignPoint>,
}

/// What one operation (one sweep) left behind.
struct Op {
    latency_ms: f64,
    stats: DseStats,
    elapsed: Duration,
    space_len: usize,
    points_bytes: usize,
}

pub fn cold_explore(ctx: &Ctx) -> Outcome {
    run(ctx, Kind::Cold)
}

pub fn fine_sweep(ctx: &Ctx) -> Outcome {
    run(ctx, Kind::Fine)
}

pub fn best_search(ctx: &Ctx) -> Outcome {
    run(ctx, Kind::Search)
}

/// Builds the workload's inputs. `cold_explore` only generates them (its
/// parse, lower and analysis are the measured work); the warm workloads
/// also compile, warm a caller-owned `AnalysisCache` per kernel and, for
/// `best_search`, compute the threads=1 pruned best.
fn setup(kind: Kind) -> Vec<Kernel> {
    kind.kernels()
        .iter()
        .map(|name| {
            let spec = corpus::find(name);
            let workload = corpus::workload(&spec);
            let mut k = Kernel {
                name: name.clone(),
                source: spec.source,
                kernel: spec.kernel,
                workload,
                warm: None,
                reference: None,
            };
            if kind != Kind::Cold {
                let func = corpus::compile(spec.source, spec.kernel);
                let cache = AnalysisCache::new();
                // A pruned threads=1 sweep analyzes every family while
                // skipping most points: it warms the cache cheaply, and on
                // the ultra grid it is the reference best.
                let warm = DseOptions { prune: true, ..DseOptions::default() };
                let r = explore_space_cached(
                    &func,
                    &corpus::platform(),
                    &k.workload,
                    &kind.grid(),
                    warm,
                    None,
                    &cache,
                )
                .expect("warm-up sweep");
                if kind == Kind::Search {
                    k.reference = r.best().cloned();
                }
                k.warm = Some((func, cache));
            }
            k
        })
        .collect()
}

/// One operation on `k`: a sweep, timed from the kernel's input to its
/// best point.
fn operate(kind: Kind, k: &Kernel) -> (DseResult, Op) {
    let start = Instant::now();
    let cold;
    let (func, cache) = match &k.warm {
        Some((f, c)) => (f, c),
        None => {
            cold = (corpus::compile(k.source, k.kernel), AnalysisCache::new());
            (&cold.0, &cold.1)
        }
    };
    let result = explore_space_cached(
        func,
        &corpus::platform(),
        &k.workload,
        &kind.grid(),
        kind.opts(),
        None,
        cache,
    )
    .expect("sweep");
    let _best = result.best();
    let latency_ms = ms(start.elapsed());
    let space_len = ConfigSpace::new(&limits_for(func, &k.workload), &kind.grid()).len();
    let op = Op {
        latency_ms,
        stats: result.stats,
        elapsed: result.elapsed,
        space_len,
        points_bytes: result.points.capacity() * std::mem::size_of::<DesignPoint>(),
    };
    (result, op)
}

/// The workload's output check for one sweep; `None` when it passes.
fn check(kind: Kind, k: &Kernel, r: &DseResult, space_len: usize) -> Option<String> {
    let best = r.best();
    match kind {
        Kind::Cold => {
            if !r.diagnostics.is_clean() {
                return Some(format!("diagnostics not clean: {}", r.diagnostics.summary()));
            }
            best.is_none().then(|| "no best point".to_string())
        }
        Kind::Fine => {
            let covered = r.points.len() + r.diagnostics.failed.len();
            if covered != space_len {
                return Some(format!("{covered} points + failures, space has {space_len}"));
            }
            let min = r
                .points
                .iter()
                .filter(|p| p.estimate.feasible)
                .map(|p| p.estimate.cycles)
                .min_by(f64::total_cmp);
            (best.map(|b| b.estimate.cycles) != min).then(|| "best() is not the minimum".into())
        }
        Kind::Search => {
            let same = match (best, &k.reference) {
                (Some(a), Some(b)) => {
                    a.config == b.config && a.estimate.cycles.to_bits() == b.estimate.cycles.to_bits()
                }
                _ => false,
            };
            (!same).then(|| "best differs from the threads=1 pruned best".to_string())
        }
    }
}

fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let before_setup = ctx.start.elapsed().as_secs_f64();
    let (kernels, setup_median) = common::repeat_setup(kind.setup_reps(), || setup(kind));
    let setup_s = before_setup + setup_median;
    common::reset_peak_rss();

    let mut rng = Rng::new(ctx.seed);
    let mut ops: Vec<(usize, Op, bool)> = Vec::new();
    let mut rounds: Vec<(f64, bool)> = Vec::new();
    let mut lines: Vec<Option<String>> = vec![None; kernels.len()];
    let mut bests: Vec<Option<DesignPoint>> = vec![None; kernels.len()];
    let mut errors: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut measured = 0.0;
    loop {
        // A traced run alternates untraced and traced rounds: per-layer
        // numbers come from the traced ones, the overhead from both.
        let traced = ctx.trace && rounds.len() % 2 == 1;
        trace::set_enabled(traced);
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        rng.shuffle(&mut order);
        let t = Instant::now();
        for &i in &order {
            let k = &kernels[i];
            let (result, op) = operate(kind, k);
            let problem = check(kind, k, &result, op.space_len);
            let line = result.best().map(|b| corpus::best_line(&k.name, result.points.len(), b));
            match (&lines[i], &line) {
                (None, _) => {
                    lines[i] = line;
                    bests[i] = result.best().cloned();
                }
                (Some(first), Some(l)) if first != l => {
                    errors.push(format!("{}: result changed between rounds", k.name));
                }
                _ => {}
            }
            if let Some(p) = problem {
                failed += 1;
                errors.push(format!("{}: {p}", k.name));
            }
            ops.push((i, op, traced));
        }
        let round_s = t.elapsed().as_secs_f64();
        measured += round_s;
        rounds.push((round_s, traced));
        trace::set_enabled(false);
        let min_rounds = if ctx.trace { 2 } else { 1 };
        if rounds.len() >= min_rounds && measured >= ctx.seconds {
            break;
        }
    }

    // Model error of each kernel's best point; the simulator runs here,
    // outside the measured rounds.
    trace::set_enabled(ctx.trace);
    let mut errs = Vec::new();
    for (k, best) in kernels.iter().zip(&bests) {
        let Some(best) = best else { continue };
        let compiled;
        let func = match &k.warm {
            Some((f, _)) => f,
            None => {
                compiled = corpus::compile(k.source, k.kernel);
                &compiled
            }
        };
        errs.push(corpus::model_err_pct(func, &k.workload, best));
    }
    trace::set_enabled(false);
    let model_err = mean(&errs);

    let attempted = ops.len() as u64;
    let digest = common::digest(lines.iter().flatten().cloned().collect());
    let mut report = Report::default();
    if ctx.trace {
        let traced: Vec<&Op> = ops.iter().filter(|(_, _, t)| *t).map(|(_, o, _)| o).collect();
        per_layer(&mut report, &traced);
        let on: Vec<f64> = rounds.iter().filter(|r| r.1).map(|r| r.0).collect();
        let off: Vec<f64> = rounds.iter().filter(|r| !r.1).map(|r| r.0).collect();
        report.add("trace.overhead_pct", (mean(&on) / mean(&off) - 1.0) * 100.0);
        report.add("gen.lag_ms.p99", 0.0);
    } else {
        let points: usize = ops.iter().map(|(_, o, _)| o.stats.points_evaluated).sum();
        // Latency percentiles run over kernels, each at the median of its
        // rounds: every run weighs every kernel the same, and one
        // disturbed sweep cannot move a kernel's figure.
        let per_kernel: Vec<f64> = (0..kernels.len())
            .map(|i| {
                let l: Vec<f64> =
                    ops.iter().filter(|(k, _, _)| *k == i).map(|(_, o, _)| o.latency_ms).collect();
                common::median(&l)
            })
            .collect();
        let pct = |q: f64| percentile(&per_kernel, q);
        match common::highest_valid_percentile(kernels.len()) {
            0.0 => println!("  latency percentiles over {} kernels", kernels.len()),
            p => println!("  latency percentiles over {} kernels, highest supported p{p}", kernels.len()),
        }
        report.add("setup_s", setup_s);
        report.add("explore_ms.p50", pct(50.0));
        report.add("explore_ms.p90", pct(90.0));
        report.add("model_err_pct", model_err);
        report.add("configs_per_s", points as f64 / measured);
        report.add("search_ms.p50", pct(50.0));
        report.add("search_ms.p90", pct(90.0));
        // A closed loop offers load at its own pace: its sustainable rate
        // is the sweeps it completes per second.
        report.add("serve_max_rps", attempted as f64 / measured);
    }
    report.add("peak_rss_mb", common::peak_rss_mb());
    report.add("failed_ratio", failed as f64 / attempted as f64);
    println!("  {attempted} sweeps in {} rounds, {measured:.2} s measured", rounds.len());
    Outcome { report, correct: errors.is_empty(), attempted, failed, digest, errors }
}

/// Per-layer metrics of the traced sweeps: the frontend and IR from the
/// benchmark's spans, analysis, scheduling, estimation and the DSE
/// engine from each sweep's returned `DseStats`. Values are means per
/// sweep unless they are ratios or per-unit times.
fn per_layer(report: &mut Report, ops: &[&Op]) {
    let n = ops.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Op) -> f64| ops.iter().map(|o| f(o)).sum::<f64>();
    let nanos_ms = 1e-6;
    let families = sum(&|o| o.stats.families_analyzed as f64);
    let analysis_ms = sum(&|o| o.stats.analysis_nanos as f64) * nanos_ms;
    let estimate_ms = sum(&|o| o.stats.estimate_nanos as f64) * nanos_ms;
    let elapsed_ms = sum(&|o| ms(o.elapsed));
    let points = sum(&|o| o.stats.points_evaluated as f64);
    let a_hits = sum(&|o| o.stats.analysis_cache_hits as f64);
    let a_total = a_hits + sum(&|o| o.stats.analysis_cache_misses as f64);
    let s_hits = sum(&|o| o.stats.sched_cache_hits as f64);
    let s_total = s_hits + sum(&|o| o.stats.sched_cache_misses as f64);
    let unattributed = elapsed_ms - analysis_ms - estimate_ms;

    report.add("frontend.parse_ms", mean(&trace::durations_ms("frontend.parse")));
    report.add("ir.lower_ms", mean(&trace::durations_ms("ir.lower")));
    report.add("analysis.analyze_ms", analysis_ms / families.max(1.0));
    report.add("analysis.families", families / n);
    report.add("analysis.cache_hit_ratio", ratio(a_hits, a_total));
    report.add("sched.ms", sum(&|o| o.stats.sched_nanos as f64) * nanos_ms / n);
    report.add("sched.cache_hit_ratio", ratio(s_hits, s_total));
    report.add("eval.estimate_ms", estimate_ms / n);
    report.add("eval.points", points / n);
    report.add("eval.ns_per_point", estimate_ms * 1e6 / points.max(1.0));
    report.add("dse.elapsed_ms", elapsed_ms / n);
    report.add("dse.unattributed_ms", unattributed / n);
    report.add("dse.unattributed_share", ratio(unattributed, elapsed_ms));
    report.add("dse.evaluated_ratio", ratio(points, sum(&|o| o.space_len as f64)));
    report.add("dse.chunks", sum(&|o| o.stats.chunks_processed as f64) / n);
    report.add("dse.steals", sum(&|o| o.stats.steals as f64) / n);
    report.add("dse.repaired_chunks", sum(&|o| o.stats.repaired_chunks as f64) / n);
    report.add("dse.points_bytes", sum(&|o| o.points_bytes as f64) / n);
    report.add("sim.system_run_ms", mean(&trace::durations_ms("sim.system_run")));
}
