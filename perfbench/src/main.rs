//! The FlexCL benchmark: four seeded workloads against the public APIs of
//! the workspace crates, with their outputs checked.
//!
//! ```text
//! flexcl-perfbench --workload <cold_explore|fine_sweep|best_search|serve_mix>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it records spans around each call into a layer and prints
//! the per-layer metrics instead. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! process exits non-zero when an output check fails. See NOTES.md.

mod closed;
mod common;
mod corpus;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them, and the
/// result line of an untraced run carries exactly these.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("explore_ms.p50", "ms"),
    ("explore_ms.p90", "ms"),
    ("model_err_pct", "%"),
    ("configs_per_s", "1/s"),
    ("search_ms.p50", "ms"),
    ("search_ms.p90", "ms"),
    ("serve_max_rps", "1/s"),
];

/// Per-layer metrics of a traced run. A layer a workload does not reach
/// reads 0. `peak_rss_mb`, `serve_ms.*` and `failed_ratio` are end-to-end
/// figures too unsteady or too often 0 to bound; an untraced run prints
/// them as well.
const PER_LAYER: [(&str, &str); 44] = [
    ("frontend.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.families", "count"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("sched.ms", "ms"),
    ("sched.cache_hit_ratio", "ratio"),
    ("eval.estimate_ms", "ms"),
    ("eval.points", "count"),
    ("eval.ns_per_point", "ns"),
    ("dse.elapsed_ms", "ms"),
    ("dse.unattributed_ms", "ms"),
    ("dse.unattributed_share", "ratio"),
    ("dse.evaluated_ratio", "ratio"),
    ("dse.chunks", "count"),
    ("dse.steals", "count"),
    ("dse.repaired_chunks", "count"),
    ("dse.points_bytes", "bytes"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("workload.prepare_ms", "ms"),
    ("serve.fingerprint_us", "us"),
    ("serve.service_us.p50", "us"),
    ("serve.service_us.p99", "us"),
    ("serve.queue_depth.max", "count"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.near_miss", "count"),
    ("serve.analysis_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us", "us"),
    ("cache.put_ms", "ms"),
    ("cache.evictions", "count"),
    ("net.overhead_us.p50", "us"),
    ("peak_rss_mb", "MB"),
    ("serve_ms.p50.low", "ms"),
    ("serve_ms.p99.low", "ms"),
    ("serve_ms.p50.high", "ms"),
    ("serve_ms.p99.high", "ms"),
    ("sim.system_run_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("gen.lag_ms.p99", "ms"),
    ("failed_ratio", "ratio"),
];

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `serve_mix` server worker threads and epoll listeners (at most
    /// `nproc`).
    pub server_workers: usize,
    pub listeners: usize,
    /// Process start, for `setup_s`.
    pub start: Instant,
}

/// What a workload hands back.
pub struct Outcome {
    pub report: common::Report,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the workload's results: identical on every run unless
    /// an estimate changed.
    pub digest: String,
    pub errors: Vec<String>,
}

fn parse_args() -> Result<(String, Ctx), String> {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut ctx =
        Ctx { seed: 1, seconds: 10.0, trace: false, server_workers: 2, listeners: 1, start };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |()| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => ctx.seconds = value.parse::<f64>().map_err(|_| bad(()))?,
            "--trace" => ctx.trace = value.parse::<u8>().map_err(|_| bad(()))? == 1,
            "--server-workers" => ctx.server_workers = value.parse().map_err(|_| bad(()))?,
            "--listeners" => ctx.listeners = value.parse().map_err(|_| bad(()))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    ctx.server_workers = ctx.server_workers.clamp(1, common::nproc());
    ctx.listeners = ctx.listeners.clamp(1, common::nproc());
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flexcl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {workload}, seed {}, {} s, trace {}, nproc {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        common::nproc()
    );
    let outcome = match workload.as_str() {
        "cold_explore" => closed::cold_explore(&ctx),
        "fine_sweep" => closed::fine_sweep(&ctx),
        "best_search" => closed::best_search(&ctx),
        "serve_mix" => serve::serve_mix(&ctx),
        other => {
            eprintln!("flexcl-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let table: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{"#,
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.report.get(name);
        if value.is_none() && !ctx.trace {
            eprintln!("flexcl-perfbench: {workload} did not measure {name}");
            return ExitCode::from(3);
        }
        let value = value.unwrap_or(0.0);
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    // Every measured metric by name, the unbounded ones included.
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(value) = outcome.report.get(name) {
            println!("  {name:<28} {value:>16.4} {unit}");
        }
    }
    json.push_str("}}");
    println!("digest {workload} {}", outcome.digest);
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{json}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
