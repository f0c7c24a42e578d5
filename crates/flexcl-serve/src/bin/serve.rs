//! `serve` — the FlexCL estimation server.
//!
//! ```text
//! serve --stdin [options]            # jsonl on stdin/stdout (CI, pipelines)
//! serve --listen 127.0.0.1:7143 [options]   # length-prefixed TCP frames (epoll on Linux)
//!
//! OPTIONS:
//!   --workers N          worker threads / queue shards (default 2)
//!   --queue-cap N        bounded queue capacity; past it requests shed (default 64)
//!   --degrade-at N       queue depth per grid-degradation rung (default 8)
//!   --deadline-ms N      default per-request deadline (default 10000)
//!   --cache-dir PATH     enable the persistent result cache at PATH
//!   --cache-cap N        per-shard cache entry cap (default 64)
//!   --platform P         7v3 | ku060 (default 7v3)
//!   --threads N          max sweep threads per request (default 4)
//!   --enable-testhooks   honor per-request `fault` fields (tests only)
//!   --trace-out PATH     write span traces (JSONL) to PATH
//!   --trace-sample N     keep 1-in-N hot-loop spans (default 1 = all)
//!   --listeners N        epoll event loops sharing the port via
//!                        SO_REUSEPORT (default 1; Linux --listen only)
//!   --idle-timeout-ms N  close idle connections after N ms (default
//!                        30000; 0 disables reaping so idle connections
//!                        stay open; Linux --listen only)
//! ```
//!
//! A `{"metrics":"json"}` (or `"text"`) frame on either transport
//! returns a live metrics snapshot instead of running a sweep.
//!
//! In `--stdin` mode the process exits 0 at EOF after printing a counter
//! summary to stderr — which is what the tier-1 smoke asserts on.

use flexcl_serve::server::ServerConfig;
use flexcl_serve::{net, Server};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig::default();
    let mut stdin_mode = false;
    let mut listen: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_sample: u64 = 1;
    let mut listeners: usize = 1;
    let mut idle_timeout_ms: u64 = 30_000;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or(format!("{flag} needs a value")).map(str::to_string)
        };
        match a.as_str() {
            "--stdin" => stdin_mode = true,
            "--listen" => listen = Some(value("--listen")?),
            "--workers" => cfg.workers = parse(&value("--workers")?)?,
            "--queue-cap" => cfg.queue_cap = parse(&value("--queue-cap")?)?,
            "--degrade-at" => cfg.degrade_at = parse(&value("--degrade-at")?)?,
            "--deadline-ms" => cfg.default_deadline_ms = parse(&value("--deadline-ms")?)?,
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")?.into()),
            "--cache-cap" => cfg.cache_cap_per_shard = parse(&value("--cache-cap")?)?,
            "--threads" => cfg.max_sweep_threads = parse(&value("--threads")?)?,
            "--enable-testhooks" => cfg.enable_testhooks = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--trace-sample" => trace_sample = parse(&value("--trace-sample")?)?,
            "--listeners" => listeners = parse(&value("--listeners")?)?,
            "--idle-timeout-ms" => idle_timeout_ms = parse(&value("--idle-timeout-ms")?)?,
            "--platform" => {
                cfg.platform = match value("--platform")?.as_str() {
                    "7v3" => flexcl_core::Platform::virtex7_adm7v3(),
                    "ku060" => flexcl_core::Platform::ku060_nas120a(),
                    other => return Err(format!("unknown platform `{other}`")),
                }
            }
            "--help" | "-h" => {
                eprintln!("see crate docs: serve --stdin | --listen ADDR [options]");
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if stdin_mode == listen.is_some() {
        return Err("pick exactly one of --stdin or --listen ADDR".into());
    }

    if let Some(path) = &trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("trace-out {path}: {e}"))?;
        if !flexcl_obs::trace::install(Box::new(file), trace_sample) {
            eprintln!("trace: a tracer is already installed; --trace-out ignored");
        }
    }

    let (server, report) = Server::start(cfg).map_err(|e| format!("start: {e}"))?;
    if report != Default::default() {
        eprintln!(
            "cache: loaded {} entries, quarantined {}, cleaned {} temp files",
            report.loaded, report.quarantined, report.cleaned_tmp
        );
    }

    if let Some(addr) = listen {
        listen_tcp(server, &addr, listeners, idle_timeout_ms)
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let frames = net::serve_jsonl(&server, &mut stdin.lock(), &mut stdout.lock())
            .map_err(|e| format!("stdio: {e}"))?;
        let c = server.shutdown();
        eprintln!(
            "served {frames} frames: ok={} shed={} degraded={} deadline={} malformed={} \
             failed={} cache_hits={} cache_misses={}",
            c.completed,
            c.shed,
            c.degraded,
            c.deadline_expired,
            c.malformed,
            c.failed,
            c.cache_hits,
            c.cache_misses
        );
        if trace_out.is_some() {
            flexcl_obs::trace::shutdown();
        }
        Ok(())
    }
}

/// Serves length-prefixed TCP frames on `addr` through the epoll event
/// loops.
#[cfg(target_os = "linux")]
fn listen_tcp(
    server: Server,
    addr: &str,
    listeners: usize,
    idle_timeout_ms: u64,
) -> Result<(), String> {
    let opts = net::epoll::EpollOptions {
        listeners,
        idle_timeout: std::time::Duration::from_millis(idle_timeout_ms),
        ..net::epoll::EpollOptions::default()
    };
    let transport = net::epoll::EpollTransport::bind(Arc::new(server), addr, opts)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!(
        "listening on {} (epoll, {} listener{})",
        transport.local_addr(),
        listeners.max(1),
        if listeners.max(1) == 1 { "" } else { "s" }
    );
    transport.join().map_err(|e| format!("event loop: {e}"))
}

/// Serves length-prefixed TCP frames on `addr`, one thread per
/// connection (`--listeners` and `--idle-timeout-ms` need epoll).
#[cfg(not(target_os = "linux"))]
fn listen_tcp(
    server: Server,
    addr: &str,
    _listeners: usize,
    _idle_timeout_ms: u64,
) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("listening on {addr} (blocking tcp)");
    net::serve_tcp(Arc::new(server), listener).map_err(|e| format!("accept: {e}"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value `{s}`"))
}
