//! `flexcl` — command-line interface to the performance model.
//!
//! ```text
//! flexcl estimate kernel.cl --kernel name --global 4096 [--wg 64] [--pipeline]
//!                           [--pes P] [--cus C] [--vector V] [--coarsen N]
//!                           [--temporal N] [--mode pipeline]
//!                           [--platform 7v3|ku060] [--scalar-int N] [--scalar-float X]
//!                           [--buf-elems N]
//! flexcl explore  kernel.cl --kernel name --global 4096 [--top 10] [--pareto] [--verbose]
//! flexcl ir       kernel.cl --kernel name
//! flexcl patterns [--platform 7v3|ku060]
//! ```
//!
//! Every subcommand accepts `--trace-out PATH` (plus `--trace-sample N`)
//! to dump the span trace of the run as JSONL.
//!
//! Buffer arguments are synthesized automatically: every pointer parameter
//! gets a buffer of `--buf-elems` elements (default: 64 × the global size)
//! filled with small positive values; scalar `int` parameters default to
//! `--scalar-int` (16) and `float` parameters to `--scalar-float` (1.0).
//! If the kernel indexes further than that, re-run with a larger
//! `--buf-elems`.

use flexcl_core::{
    estimate, estimate_area, explore_space_cached, AnalysisCache, CommMode, DseOptions,
    KernelAnalysis, OptimizationConfig, Platform, SweepGrid, Workload,
};
use flexcl_frontend::types::Type;
use flexcl_interp::KernelArg;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `flexcl help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_help();
        return Ok(());
    };
    let traced = install_tracer(args)?;
    let result = match cmd.as_str() {
        "estimate" => cmd_estimate(&args[1..]),
        "explore" => cmd_explore(&args[1..]),
        "ir" => cmd_ir(&args[1..]),
        "patterns" => cmd_patterns(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if traced {
        flexcl_obs::trace::shutdown();
    }
    result
}

/// Arms the process-wide tracer when `--trace-out PATH` is present
/// (optionally with `--trace-sample N`); works with every subcommand.
fn install_tracer(args: &[String]) -> Result<bool, String> {
    let value_of = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
    };
    let Some(path) = value_of("--trace-out") else { return Ok(false) };
    let sample: u64 = match value_of("--trace-sample") {
        Some(v) => v.parse().map_err(|_| "bad --trace-sample")?,
        None => 1,
    };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    Ok(flexcl_obs::trace::install(Box::new(file), sample))
}

fn print_help() {
    println!(
        "flexcl — analytical FPGA performance model for OpenCL kernels (DAC'17)\n\n\
         USAGE:\n\
         \x20 flexcl estimate <file.cl> --kernel NAME --global N[xM] [options]\n\
         \x20 flexcl explore  <file.cl> --kernel NAME --global N[xM] [--top K] [--pareto]\n\
         \x20 flexcl ir       <file.cl> --kernel NAME\n\
         \x20 flexcl patterns [--platform 7v3|ku060]\n\n\
         OPTIONS:\n\
         \x20 --wg N[xM]          work-group size (default 64 / 8x8)\n\
         \x20 --pipeline          enable work-item pipelining\n\
         \x20 --pes P             PE replication (default 1)\n\
         \x20 --cus C             CU replication (default 1)\n\
         \x20 --vector V          vectorization width (default 1)\n\
         \x20 --coarsen N         thread-coarsening factor, must divide wg (default 1)\n\
         \x20 --temporal N        temporal-blocking depth, iterative stencils only (default 1)\n\
         \x20 --mode MODE         barrier | pipeline (default barrier)\n\
         \x20 --platform P        7v3 | ku060 (default 7v3)\n\
         \x20 --buf-elems N       synthesized buffer length per pointer param\n\
         \x20 --scalar-int N      value for int scalar params (default 16)\n\
         \x20 --scalar-float X    value for float scalar params (default 1.0)\n\
         \x20 --verbose           (explore) print sweep internals and diagnostics\n\
         \x20 --trace-out PATH    write the run's span trace to PATH as JSONL\n\
         \x20 --trace-sample N    keep 1-in-N hot-loop spans (default 1 = all)"
    );
}

/// Minimal flag parser: positionals + `--key value` + boolean flags.
struct Flags {
    positional: Vec<String>,
    values: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

const BOOL_FLAGS: &[&str] = &["pipeline", "pareto", "verbose"];

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        positional: Vec::new(),
        values: std::collections::HashMap::new(),
        switches: std::collections::HashSet::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                f.switches.insert(name.to_string());
            } else if let Some(v) = it.next() {
                f.values.insert(name.to_string(), v.clone());
            }
        } else {
            f.positional.push(a.clone());
        }
    }
    f
}

fn parse_dims(s: &str) -> Result<(u64, u64), String> {
    match s.split_once('x') {
        Some((a, b)) => Ok((
            a.parse().map_err(|_| format!("bad dimension `{a}`"))?,
            b.parse().map_err(|_| format!("bad dimension `{b}`"))?,
        )),
        None => Ok((s.parse().map_err(|_| format!("bad size `{s}`"))?, 1)),
    }
}

fn platform_for(flags: &Flags) -> Result<Platform, String> {
    match flags.values.get("platform").map(String::as_str) {
        None | Some("7v3") => Ok(Platform::virtex7_adm7v3()),
        Some("ku060") => Ok(Platform::ku060_nas120a()),
        Some(other) => Err(format!("unknown platform `{other}` (use 7v3 or ku060)")),
    }
}

struct Loaded {
    func: flexcl_ir::Function,
    workload: Workload,
    global: (u64, u64),
}

fn load(flags: &Flags) -> Result<Loaded, String> {
    let path = flags.positional.first().ok_or("missing kernel file argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = flexcl_frontend::parse_and_check(&src).map_err(|e| e.to_string())?;
    let name = match flags.values.get("kernel") {
        Some(n) => n.clone(),
        None if program.kernels.len() == 1 => program.kernels[0].name.clone(),
        None => {
            return Err(format!(
                "--kernel required; file defines: {}",
                program.kernels.iter().map(|k| k.name.as_str()).collect::<Vec<_>>().join(", ")
            ))
        }
    };
    let kernel = program.kernel(&name).ok_or_else(|| format!("no kernel named `{name}`"))?;
    let func = flexcl_ir::lower_kernel(kernel).map_err(|e| e.to_string())?;

    let global = parse_dims(flags.values.get("global").map(String::as_str).unwrap_or("1024"))?;
    let total = global.0 * global.1;
    let buf_elems: u64 = match flags.values.get("buf-elems") {
        Some(v) => v.parse().map_err(|_| "bad --buf-elems")?,
        None => total * 64,
    };
    let scalar_int: i64 = flags
        .values
        .get("scalar-int")
        .map_or(Ok(16), |v| v.parse())
        .map_err(|_| "bad --scalar-int")?;
    let scalar_float: f64 = flags
        .values
        .get("scalar-float")
        .map_or(Ok(1.0), |v| v.parse())
        .map_err(|_| "bad --scalar-float")?;

    // Synthesize arguments from the signature.
    let args: Vec<KernelArg> = func
        .params
        .iter()
        .map(|p| match &p.ty {
            Type::Pointer(elem, _) => {
                let lanes = u64::from(elem.lanes());
                if elem.is_float() {
                    KernelArg::FloatBuf(vec![1.0; (buf_elems * lanes) as usize])
                } else {
                    KernelArg::IntBuf(vec![1; (buf_elems * lanes) as usize])
                }
            }
            t if t.is_float() => KernelArg::Float(scalar_float),
            _ => KernelArg::Int(scalar_int),
        })
        .collect();
    Ok(Loaded { func, workload: Workload { args, global }, global })
}

fn config_for(flags: &Flags, global: (u64, u64)) -> Result<OptimizationConfig, String> {
    let default_wg = if global.1 > 1 { "8x8" } else { "64" };
    let wg = parse_dims(flags.values.get("wg").map(String::as_str).unwrap_or(default_wg))?;
    let get_u32 = |key: &str, default: u32| -> Result<u32, String> {
        flags.values.get(key).map_or(Ok(default), |v| v.parse()).map_err(|_| format!("bad --{key}"))
    };
    let mode = match flags.values.get("mode").map(String::as_str) {
        None | Some("barrier") => CommMode::Barrier,
        Some("pipeline") => CommMode::Pipeline,
        Some(other) => Err(format!("unknown mode `{other}`"))?,
    };
    Ok(OptimizationConfig {
        work_group: (wg.0 as u32, wg.1 as u32),
        work_item_pipeline: flags.switches.contains("pipeline") || mode == CommMode::Pipeline,
        num_pes: get_u32("pes", 1)?,
        num_cus: get_u32("cus", 1)?,
        vector_width: get_u32("vector", 1)?,
        comm_mode: mode,
        coarsen_factor: get_u32("coarsen", 1)?,
        temporal_block_depth: get_u32("temporal", 1)?,
    })
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args);
    let platform = platform_for(&flags)?;
    let loaded = load(&flags)?;
    let config = config_for(&flags, loaded.global)?;
    let analysis =
        KernelAnalysis::analyze(&loaded.func, &platform, &loaded.workload, config.work_group)
            .map_err(|e| format!("{e}\nhint: if out of bounds, raise --buf-elems"))?;
    let est = estimate(&analysis, &config).map_err(|e| e.to_string())?;
    let area = estimate_area(&analysis, &config);

    println!("kernel   : {}", loaded.func.name);
    println!("platform : {}", platform.name);
    println!("config   : {config}");
    println!("estimate : {est}");
    println!("area     : {area}");
    println!(
        "wall time: {:.2} us at {} MHz",
        est.seconds(platform.frequency_mhz) * 1e6,
        platform.frequency_mhz
    );
    if !analysis.recurrences.is_empty() {
        println!(
            "note     : {} inter-work-item recurrence(s), RecMII = {}",
            analysis.recurrences.len(),
            analysis.rec_mii()
        );
    }
    Ok(())
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args);
    let platform = platform_for(&flags)?;
    let loaded = load(&flags)?;
    let top: usize =
        flags.values.get("top").map_or(Ok(10), |v| v.parse()).map_err(|_| "bad --top")?;

    let (grid, opts, cache) = (SweepGrid::standard(), DseOptions::default(), AnalysisCache::new());
    let (func, workload) = (&loaded.func, &loaded.workload);
    let result = explore_space_cached(func, &platform, workload, &grid, opts, None, &cache)
        .map_err(|e| format!("{e}\nhint: if out of bounds, raise --buf-elems"))?;
    println!(
        "explored {} configurations ({} feasible) in {:.2} s",
        result.points.len(),
        result.feasible_count(),
        result.elapsed.as_secs_f64()
    );
    if result.diagnostics.is_clean() {
        println!();
    } else {
        println!(
            "skipped {} candidate(s) [{}]; first failure: {}\n",
            result.diagnostics.skipped_count(),
            result.diagnostics.summary(),
            result.diagnostics.failed[0].message
        );
    }
    let mut ranked: Vec<_> = result.points.iter().filter(|p| p.estimate.feasible).collect();
    ranked.sort_by(|a, b| a.estimate.cycles.total_cmp(&b.estimate.cycles));
    println!("{:<46} {:>12}", "configuration", "cycles");
    for p in ranked.iter().take(top) {
        println!("{:<46} {:>12.0}", p.config.to_string(), p.estimate.cycles);
    }
    if let Some(s) = result.speedup_over_baseline() {
        println!("\nbest vs unoptimized baseline: {s:.1}x");
    }
    if flags.switches.contains("verbose") {
        println!("\nsweep internals:\n{}", result.stats);
        println!("  diagnostics      : {}", result.diagnostics);
    }
    if flags.switches.contains("pareto") {
        let wg = ranked.first().map(|p| p.config.work_group).unwrap_or((64, 1));
        let analysis = cache
            .get_or_analyze(func, &platform, workload, wg, opts.fuel)
            .map_err(|e| e.to_string())?;
        println!("\nperformance/area Pareto frontier:");
        for p in result.pareto(&analysis) {
            println!("  {:<44} {:>10.0} cycles  {}", p.config.to_string(), p.cycles, p.area);
        }
    }
    Ok(())
}

fn cmd_ir(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args);
    let loaded = load(&flags)?;
    let mut func = loaded.func;
    let removed = flexcl_ir::optimize(&mut func);
    println!("{func}");
    println!("; {} instructions removed by optimization", removed);
    println!("; loops: {}", func.loops.len());
    for l in &func.loops {
        println!(";   {:?} trip={:?} unroll={:?}", l.id, l.trip, l.unroll);
    }
    Ok(())
}

fn cmd_patterns(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args);
    let platform = platform_for(&flags)?;
    let table = flexcl_dram::microbench::profile(platform.dram);
    println!("DRAM access-pattern latencies on {} (kernel cycles):", platform.name);
    for (p, dt) in table.iter() {
        println!("  {:<10} {dt:>6.1}", p.name());
    }
    Ok(())
}
