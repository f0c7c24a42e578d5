//! `serve_bench` — load generator for the flexcl-serve estimation
//! server, emitting `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--steady-requests N] [--steady-clients N] [--overload-clients N]
//!             [--workers N] [--no-backoff] [--out PATH]
//! serve_bench --check PATH [--require-overload] [--require-coalesce]
//!             [--require-warm-hits] [--min-rps X]
//! ```
//!
//! Four phases:
//!
//! * **steady** — a small kernel working set is warmed once into a
//!   persistent result cache, then clients replay it in-process;
//!   traffic is cache-hit dominated, measuring the request path a warm
//!   production server actually runs. The warm-up asserts the replay
//!   really hits the cache before anything is timed.
//! * **steady-tcp** (Linux) — the same working set driven over real TCP
//!   sockets through the epoll transport, so the framing and event-loop
//!   overhead is measured, not assumed.
//! * **coalesce** — concurrent clients replay one identical fine-grid
//!   frame against a cache-less server: all but the request leading
//!   each sweep must park on it and share the result (`coalesced > 0`).
//! * **overload** — a sustained storm (16 requests per client) of
//!   unique fine-grid sources against a deliberately tiny queue, some
//!   with impossible deadlines. Clients honor the server's
//!   `retry_after_ms` back-off hint (disable with `--no-backoff`).
//!   Shed and completed latencies are reported separately — a shed
//!   rejection returns in microseconds and saying "p50 0.002 ms" about
//!   a phase that mostly sheds would measure nothing.
//!
//! `--check` validates a previously written file: schema keys on every
//! row, finite positive throughput, optional steady rps floor, and the
//! nonzero overload / coalesce / warm-hit acceptance gates.

use flexcl_bench::record::{self, flag_value, Row, Value};
use flexcl_serve::server::ServerConfig;
use flexcl_serve::{CounterSnapshot, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One kernel shape per distinct fingerprint in the steady working set.
fn steady_kernel(i: usize) -> String {
    format!(
        "__kernel void k{i}(__global float* a, __global float* b) {{ \
           int i = get_global_id(0); a[i] = a[i] * {}.0f + b[i]; }}",
        i + 1
    )
}

fn request(id: &str, src: &str, global: u64, extra: &str) -> String {
    let src_json = src.replace('\\', "\\\\").replace('"', "\\\"");
    format!(r#"{{"id":"{id}","src":"{src_json}","global":{global}{extra}}}"#)
}

struct PhaseRow {
    phase: &'static str,
    transport: &'static str,
    workers: usize,
    clients: usize,
    queue_cap: usize,
    requests: u64,
    counters: CounterSnapshot,
    backoff: bool,
    p50_ms: f64,
    p99_ms: f64,
    completed_p50_ms: f64,
    completed_p99_ms: f64,
    shed_p50_ms: f64,
    shed_p99_ms: f64,
    requests_per_sec: f64,
    elapsed_ms: f64,
    host_cores: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Client-observed latencies, split by outcome.
#[derive(Default)]
struct Latencies {
    all: Vec<f64>,
    completed: Vec<f64>,
    shed: Vec<f64>,
}

impl Latencies {
    fn absorb(&mut self, mut other: Latencies) {
        self.all.append(&mut other.all);
        self.completed.append(&mut other.completed);
        self.shed.append(&mut other.shed);
    }

    fn sort(&mut self) {
        self.all.sort_by(|a, b| a.total_cmp(b));
        self.completed.sort_by(|a, b| a.total_cmp(b));
        self.shed.sort_by(|a, b| a.total_cmp(b));
    }
}

/// Back-off cap: the server's hint is an EWMA of full service time,
/// which against fine-grid storms would idle clients for longer than
/// the bench runs. Sleeping a bounded slice still yields the queue.
const BACKOFF_CAP_MS: u64 = 5;

fn record(lat: &mut Latencies, kind: &str, ms: f64, retry_hint: Option<u64>, backoff: bool) {
    lat.all.push(ms);
    match kind {
        "ok" => lat.completed.push(ms),
        "overloaded" => {
            lat.shed.push(ms);
            if backoff {
                let hint = retry_hint.unwrap_or(1).clamp(1, BACKOFF_CAP_MS);
                std::thread::sleep(Duration::from_millis(hint));
            }
        }
        _ => {}
    }
}

/// Fires `total` requests from `clients` threads, each picking frames
/// round-robin from `frames`, against the in-process service core.
fn fire(
    server: &Arc<Server>,
    frames: &Arc<Vec<String>>,
    clients: usize,
    total: usize,
    backoff: bool,
) -> (Latencies, f64) {
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(server);
            let frames = Arc::clone(frames);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut lat = Latencies::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return lat;
                    }
                    let t = Instant::now();
                    let resp = server.handle_frame(&frames[i % frames.len()]);
                    let ms = t.elapsed().as_secs_f64() * 1000.0;
                    record(&mut lat, resp.kind(), ms, resp.retry_after_ms(), backoff);
                }
            })
        })
        .collect();
    let mut latencies = Latencies::default();
    for h in handles {
        latencies.absorb(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort();
    (latencies, elapsed)
}

/// Fires `total` requests over real TCP connections to `addr`, one
/// socket per client, length-prefixed frames both ways.
#[cfg(target_os = "linux")]
fn fire_tcp(
    addr: std::net::SocketAddrV4,
    frames: &Arc<Vec<String>>,
    clients: usize,
    total: usize,
) -> (Latencies, f64) {
    use flexcl_serve::protocol::{read_frame, write_frame};
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let frames = Arc::clone(frames);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut lat = Latencies::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return lat;
                    }
                    let t = Instant::now();
                    write_frame(&mut stream, &frames[i % frames.len()]).expect("write");
                    let reply = read_frame(&mut stream).expect("read").expect("frame");
                    let ms = t.elapsed().as_secs_f64() * 1000.0;
                    let kind = if reply.contains("\"status\":\"ok\"") { "ok" } else { "error" };
                    record(&mut lat, kind, ms, None, false);
                }
            })
        })
        .collect();
    let mut latencies = Latencies::default();
    for h in handles {
        latencies.absorb(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort();
    (latencies, elapsed)
}

fn row(
    phase: &'static str,
    transport: &'static str,
    workers: usize,
    clients: usize,
    queue_cap: usize,
    counters: CounterSnapshot,
    backoff: bool,
    lat: &Latencies,
    elapsed: f64,
) -> PhaseRow {
    PhaseRow {
        phase,
        transport,
        workers,
        clients,
        queue_cap,
        requests: lat.all.len() as u64,
        counters,
        backoff,
        p50_ms: percentile(&lat.all, 0.50),
        p99_ms: percentile(&lat.all, 0.99),
        completed_p50_ms: percentile(&lat.completed, 0.50),
        completed_p99_ms: percentile(&lat.completed, 0.99),
        shed_p50_ms: percentile(&lat.shed, 0.50),
        shed_p99_ms: percentile(&lat.shed, 0.99),
        requests_per_sec: lat.all.len() as f64 / elapsed,
        elapsed_ms: elapsed * 1000.0,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// A scratch directory for the steady phase's persistent cache,
/// removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path =
            std::env::temp_dir().join(format!("serve_bench-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create cache scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn steady_config(workers: usize, cache_dir: Option<std::path::PathBuf>) -> ServerConfig {
    ServerConfig {
        workers,
        queue_cap: 256,
        degrade_at: usize::MAX,
        default_deadline_ms: 60_000,
        cache_dir,
        ..ServerConfig::default()
    }
}

/// Warms the working set and proves the replay path hits the cache:
/// every shape computed once (miss), then one replay that must come
/// back `"cache":"hit"` — the anomaly this guards against is a steady
/// phase silently measuring cache-less traffic.
fn warm(server: &Server, frames: &[String]) {
    for f in frames {
        let resp = server.handle_frame(f);
        assert_eq!(resp.kind(), "ok", "warm-up failed: {}", resp.to_json());
    }
    let probe = server.handle_frame(&frames[0]);
    assert_eq!(probe.kind(), "ok", "warm probe failed: {}", probe.to_json());
    assert!(
        probe.to_json().contains("\"cache\":\"hit\""),
        "warm replay did not hit the persistent cache: {}",
        probe.to_json()
    );
    assert!(server.counters().cache_hits > 0, "warm-up recorded no cache hits");
}

fn steady_frames() -> Vec<String> {
    (0..4).map(|i| request(&format!("w{i}"), &steady_kernel(i), 1024, "")).collect()
}

fn steady_phase(workers: usize, clients: usize, total: usize) -> PhaseRow {
    let scratch = ScratchDir::new("steady");
    let (server, _) =
        Server::start(steady_config(workers, Some(scratch.0.clone()))).expect("start steady");
    let server = Arc::new(server);
    let frames = steady_frames();
    warm(&server, &frames);
    let frames = Arc::new(frames);

    let (lat, elapsed) = fire(&server, &frames, clients, total, false);
    let counters = server.counters();
    // Every steady request is served without a fresh sweep: from the
    // warm persistent cache, or coalesced onto a twin already fetching.
    assert!(
        (counters.cache_hits + counters.coalesced) as usize >= total,
        "steady traffic must be cache-hit dominated (hits={} coalesced={} total={total})",
        counters.cache_hits,
        counters.coalesced,
    );
    let r = row("steady", "in-process", workers, clients, 256, counters, false, &lat, elapsed);
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

#[cfg(target_os = "linux")]
fn steady_tcp_phase(workers: usize, clients: usize, total: usize) -> PhaseRow {
    use flexcl_serve::net::epoll::{EpollOptions, EpollTransport};
    let scratch = ScratchDir::new("steady-tcp");
    let (server, _) =
        Server::start(steady_config(workers, Some(scratch.0.clone()))).expect("start steady-tcp");
    let server = Arc::new(server);
    let frames = steady_frames();
    warm(&server, &frames);
    let frames = Arc::new(frames);

    let transport = EpollTransport::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        EpollOptions { listeners: 2, ..EpollOptions::default() },
    )
    .expect("bind epoll");
    let (lat, elapsed) = fire_tcp(transport.local_addr(), &frames, clients, total);
    let counters = server.counters();
    let r = row("steady-tcp", "epoll", workers, clients, 256, counters, false, &lat, elapsed);
    transport.shutdown().expect("transport shutdown");
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

/// Identical fine-grid frames from concurrent clients against a
/// cache-less server: every request that arrives while a twin's sweep
/// is queued or executing parks on it, so one sweep fans out to many.
fn coalesce_phase(workers: usize, clients: usize) -> PhaseRow {
    let queue_cap = 256;
    let (server, _) = Server::start(ServerConfig {
        workers,
        queue_cap,
        degrade_at: usize::MAX,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("start coalesce");
    let server = Arc::new(server);

    let frames = Arc::new(vec![request(
        "dup",
        "__kernel void hot(__global float* a, __global float* b) { \
           int i = get_global_id(0); b[i] = a[i] * a[i] + b[i]; }",
        4096,
        r#","grid":"fine""#,
    )]);
    let total = clients * 8;
    let (lat, elapsed) = fire(&server, &frames, clients, total, false);
    let counters = server.counters();
    assert!(
        counters.coalesced > 0,
        "identical concurrent requests coalesced zero times in {total} attempts"
    );
    let r =
        row("coalesce", "in-process", workers, clients, queue_cap, counters, false, &lat, elapsed);
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

fn overload_phase(workers: usize, clients: usize, backoff: bool) -> PhaseRow {
    // 2× overload by construction: concurrent clients = 2 × queue_cap,
    // sustained for 16 requests per client so shedding and degradation
    // are a steady regime, not a transient spike.
    let queue_cap = clients / 2;
    let (server, _) = Server::start(ServerConfig {
        workers,
        queue_cap,
        degrade_at: 1,
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    })
    .expect("start overload server");
    let server = Arc::new(server);

    // Unique fine-grid sources (no cache or coalescing relief) plus a
    // slice of impossible deadlines: every robustness counter must move.
    let frames: Vec<String> = (0..clients * 16)
        .map(|i| {
            let src = format!(
                "__kernel void o{i}(__global float* a) {{ \
                   int i = get_global_id(0); a[i] = a[i] + {i}.0f; }}"
            );
            let extra =
                if i % 7 == 3 { r#","grid":"fine","deadline_ms":0"# } else { r#","grid":"fine""# };
            request(&format!("o{i}"), &src, 1024, extra)
        })
        .collect();
    let total = frames.len();
    let frames = Arc::new(frames);

    let (lat, elapsed) = fire(&server, &frames, clients, total, backoff);
    // A deadline-0 request is answered `deadline` at admission, before
    // it could be shed, so the storm's share moves deadline_expired
    // whatever the queue holds; this probe pins that answer.
    let probe = request("probe", &steady_kernel(0), 1024, r#","deadline_ms":0"#);
    assert_eq!(server.handle_frame(&probe).kind(), "deadline");
    let r = row(
        "overload",
        "in-process",
        workers,
        clients,
        queue_cap,
        server.counters(),
        backoff,
        &lat,
        elapsed,
    );
    Arc::into_inner(server).expect("sole handle").shutdown();
    r
}

/// The keys of a BENCH_serve.json row, in emission order.
const BENCH_KEYS: [&str; 26] = [
    "phase",
    "transport",
    "workers",
    "clients",
    "queue_cap",
    "requests",
    "completed",
    "shed",
    "degraded",
    "deadline_expired",
    "malformed",
    "failed",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "backoff",
    "p50_ms",
    "p99_ms",
    "completed_p50_ms",
    "completed_p99_ms",
    "shed_p50_ms",
    "shed_p99_ms",
    "requests_per_sec",
    "elapsed_ms",
    "host_cores",
    "listeners",
];

impl PhaseRow {
    /// This row's values, in [`BENCH_KEYS`] order.
    fn values(&self) -> [Value<'_>; 26] {
        let int = |n: usize| Value::Int(n as u64);
        let c = &self.counters;
        [
            Value::Str(self.phase),
            Value::Str(self.transport),
            int(self.workers),
            int(self.clients),
            int(self.queue_cap),
            Value::Int(self.requests),
            Value::Int(c.completed),
            Value::Int(c.shed),
            Value::Int(c.degraded),
            Value::Int(c.deadline_expired),
            Value::Int(c.malformed),
            Value::Int(c.failed),
            Value::Int(c.cache_hits),
            Value::Int(c.cache_misses),
            Value::Int(c.coalesced),
            Value::Bool(self.backoff),
            Value::Float(self.p50_ms, 3),
            Value::Float(self.p99_ms, 3),
            Value::Float(self.completed_p50_ms, 3),
            Value::Float(self.completed_p99_ms, 3),
            Value::Float(self.shed_p50_ms, 4),
            Value::Float(self.shed_p99_ms, 4),
            Value::Float(self.requests_per_sec, 1),
            Value::Float(self.elapsed_ms, 1),
            int(self.host_cores),
            Value::Int(if self.transport == "epoll" { 2 } else { 0 }),
        ]
    }
}

/// Prints the phase rows and writes them to `out` (default: repo-root
/// `BENCH_serve.json`).
fn write_rows(rows: &[PhaseRow], out: Option<&str>) {
    for r in rows {
        let c = &r.counters;
        println!(
            "  {:<10} {:<10} {:>6} requests  {:>9.0} req/s  p50={:.2}ms p99={:.2}ms  \
             ok={} shed={} degraded={} deadline={} cache_hits={} coalesced={}",
            r.phase,
            r.transport,
            r.requests,
            r.requests_per_sec,
            r.p50_ms,
            r.p99_ms,
            c.completed,
            c.shed,
            c.degraded,
            c.deadline_expired,
            c.cache_hits,
            c.coalesced,
        );
    }
    let values: Vec<_> = rows.iter().map(PhaseRow::values).collect();
    record::write("BENCH_serve.json", out, &BENCH_KEYS, &values);
}

/// The rows of `phase`; an error when `required` and there are none.
fn phase_rows<'r>(rows: &'r [Row], phase: &str, required: bool) -> Result<Vec<&'r Row>, String> {
    let found: Vec<&Row> = rows.iter().filter(|r| r.str("phase") == phase).collect();
    if required && found.is_empty() {
        return Err(format!("no {phase} row to gate on"));
    }
    Ok(found)
}

/// The BENCH_serve.json acceptance gates, each enabled by its `--check`
/// flag.
struct Gates {
    require_overload: bool,
    require_coalesce: bool,
    require_warm_hits: bool,
    min_rps: Option<f64>,
}

impl Gates {
    /// Finite positive throughput on every row, then each enabled gate:
    /// the steady-phase rps floor, real warm-cache hits in the steady
    /// row, shared sweeps in the coalesce row, and nonzero shed,
    /// degraded, deadline and completed counts in the overload row.
    fn check(&self, rows: &[Row]) -> Result<(), String> {
        for (i, row) in rows.iter().enumerate() {
            let rps = row.num("requests_per_sec")?;
            if !rps.is_finite() || rps <= 0.0 {
                return Err(format!(
                    "row {i}: requests_per_sec = {rps} (must be finite and positive)"
                ));
            }
        }
        for steady in phase_rows(rows, "steady", self.require_warm_hits)? {
            if let Some(floor) = self.min_rps {
                let rps = steady.num("requests_per_sec")?;
                if rps < floor {
                    return Err(format!(
                        "steady phase sustained {rps:.0} req/s < the {floor:.0} floor"
                    ));
                }
            }
            if self.require_warm_hits && steady.num("cache_hits")? <= 0.0 {
                return Err(
                    "steady row: cache_hits = 0 — the warm cache is not being hit".to_string()
                );
            }
        }
        if self.require_coalesce {
            for row in phase_rows(rows, "coalesce", true)? {
                if row.num("coalesced")? <= 0.0 {
                    return Err("coalesce row: coalesced = 0 — identical in-flight requests \
                                did not share"
                        .to_string());
                }
            }
        }
        if self.require_overload {
            for row in phase_rows(rows, "overload", true)? {
                let shed = row.num("shed")?;
                let degraded = row.num("degraded")?;
                let deadline = row.num("deadline_expired")?;
                if shed <= 0.0 || degraded <= 0.0 || deadline <= 0.0 {
                    return Err(format!(
                        "overload row: shed={shed} degraded={degraded} \
                         deadline_expired={deadline} — all must be nonzero"
                    ));
                }
                if row.num("completed")? <= 0.0 {
                    return Err("overload row: server completed nothing under pressure".to_string());
                }
            }
        }
        Ok(())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        let gates = Gates {
            require_overload: args.iter().any(|a| a == "--require-overload"),
            require_coalesce: args.iter().any(|a| a == "--require-coalesce"),
            require_warm_hits: args.iter().any(|a| a == "--require-warm-hits"),
            min_rps: flag_value(&args, "--min-rps").map(|v| v.parse().expect("bad --min-rps")),
        };
        record::run_check(path, &BENCH_KEYS, |rows| gates.check(rows));
        return;
    }
    let parse = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag).map_or(default, |v| v.parse().expect("bad flag value"))
    };
    let workers =
        parse("--workers", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2));
    let steady_requests = parse("--steady-requests", 20_000);
    let steady_clients = parse("--steady-clients", 4);
    let overload_clients = parse("--overload-clients", 16);
    let backoff = !args.iter().any(|a| a == "--no-backoff");

    let mut rows = Vec::new();
    println!("steady phase: {steady_clients} clients, {steady_requests} requests…");
    rows.push(steady_phase(workers, steady_clients, steady_requests));
    #[cfg(target_os = "linux")]
    {
        let tcp_requests = (steady_requests / 4).max(1);
        println!("steady-tcp phase: {steady_clients} clients, {tcp_requests} requests over epoll…");
        rows.push(steady_tcp_phase(workers, steady_clients, tcp_requests));
    }
    println!("coalesce phase: 8 clients replaying one fine-grid frame…");
    rows.push(coalesce_phase(workers.min(2), 8));
    println!(
        "overload phase: {overload_clients} clients on a {}-slot queue (backoff={backoff})…",
        overload_clients / 2
    );
    rows.push(overload_phase(workers, overload_clients, backoff));
    write_rows(&rows, flag_value(&args, "--out"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_rows_render_like_the_committed_file() {
        let row = PhaseRow {
            phase: "overload",
            transport: "in-process",
            workers: 1,
            clients: 16,
            queue_cap: 8,
            requests: 256,
            counters: CounterSnapshot {
                completed: 8,
                shed: 247,
                degraded: 255,
                deadline_expired: 2,
                cache_misses: 8,
                ..CounterSnapshot::default()
            },
            backoff: true,
            p50_ms: 0.009,
            p99_ms: 92.67,
            completed_p50_ms: 92.67,
            completed_p99_ms: 102.182,
            shed_p50_ms: 0.0086,
            shed_p99_ms: 0.0761,
            requests_per_sec: 2464.8,
            elapsed_ms: 103.9,
            host_cores: 1,
        };
        assert_eq!(
            record::render_row(&BENCH_KEYS, &row.values()),
            r#"{"phase": "overload", "transport": "in-process", "workers": 1, "clients": 16, "queue_cap": 8, "requests": 256, "completed": 8, "shed": 247, "degraded": 255, "deadline_expired": 2, "malformed": 0, "failed": 0, "cache_hits": 0, "cache_misses": 8, "coalesced": 0, "backoff": true, "p50_ms": 0.009, "p99_ms": 92.670, "completed_p50_ms": 92.670, "completed_p99_ms": 102.182, "shed_p50_ms": 0.0086, "shed_p99_ms": 0.0761, "requests_per_sec": 2464.8, "elapsed_ms": 103.9, "host_cores": 1, "listeners": 0}"#
        );
    }

    #[test]
    fn the_committed_file_passes_every_gate() {
        let body = include_str!("../../../../BENCH_serve.json");
        let rows = record::parse_rows(body, &BENCH_KEYS).expect("committed file parses");
        let gates = Gates {
            require_overload: true,
            require_coalesce: true,
            require_warm_hits: true,
            min_rps: Some(5000.0),
        };
        assert_eq!(gates.check(&rows), Ok(()));
        let no_rows_of_phase = Gates { min_rps: None, ..gates };
        assert_eq!(
            no_rows_of_phase.check(&rows[..1]),
            Err("no coalesce row to gate on".to_string())
        );
    }
}
