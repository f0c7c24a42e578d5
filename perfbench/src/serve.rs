//! `serve_mix`: an open loop of seeded Poisson arrivals against an
//! in-process `Server` behind the epoll transport.
//!
//! The traffic has four classes:
//! - repeats of a popular set preloaded into the persistent cache
//!   (cache reads);
//! - novel keys, each a cold prepare, analysis and standard-grid sweep
//!   followed by an fsynced cache write;
//! - bursts of identical novel frames sent at one due time, which the
//!   server coalesces onto one sweep;
//! - a popular kernel on the pruned fine grid: a near miss that reuses
//!   the kernel's analyses.
//!
//! One generator thread on one connection sends every frame at its due
//! time and reads responses while it waits. Latency is timed from the due
//! time, so a stalled generator or server shows in every later request.

use crate::common::{self, mean, percentile, ratio, Report, Rng};
use crate::corpus;
use crate::trace;
use crate::{Ctx, Outcome};
use flexcl_core::{explore_space_cached, AnalysisCache, DseOptions, SweepGrid};
use flexcl_serve::cache::PersistentCache;
use flexcl_serve::net::epoll::{EpollOptions, EpollTransport};
use flexcl_serve::protocol::{CacheDisposition, Request, Response, SweepSummary};
use flexcl_serve::server::{request_fingerprint, ServerConfig};
use flexcl_serve::workload;
use flexcl_serve::{json, Server};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered rates, requests per second, written once from probes on the
/// commit that introduced this benchmark (2-vCPU host, 2 server workers,
/// 1 listener) and never recomputed: about 50% and 85% of the ~1750/s
/// it sustained uncongested (median latency under 1 ms, no backlog).
/// Above that, windows tip into congestion at random and the medians
/// turn bimodal.
pub const LOW_RPS: f64 = 900.0;
pub const HIGH_RPS: f64 = 1500.0;

/// The fixed rate ladder behind `serve_max_rps`: both offered rates and
/// a rung well past saturation, so the answer has the ladder's
/// resolution.
pub const LADDER: [f64; 3] = [LOW_RPS, HIGH_RPS, 6500.0];

/// Windows of each offered rate.
const ROUNDS: usize = 5;

/// The p99 latency limit a ladder step must meet.
pub const P99_LIMIT_MS: f64 = 250.0;

/// Latency charged to a request that failed, was refused or never came
/// back: it misses every limit.
const MISSING_MS: f64 = 10_000.0;

/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// Traffic classes per block of `BLOCK` arrivals, dealt in seeded order
/// so every window carries the same mix: 1.5% novel keys, 0.125% burst
/// starts (0.5% of requests), 1% near misses, the rest popular repeats.
/// About 2% of requests wait for a sweep, so p99 falls near the middle
/// of that cold class rather than on its edge.
const BLOCK: usize = 800;
const NOVEL_PER_BLOCK: usize = 12;
const BURSTS_PER_BLOCK: usize = 1;
const NEAR_PER_BLOCK: usize = 8;
const BURST_LEN: usize = 4;

/// Persistent-cache entries per shard (16 shards): the key universe is
/// far larger, so eviction runs.
const CACHE_CAP_PER_SHARD: usize = 4;

/// Requests checked against a direct sweep after the run.
const CHECK_SAMPLE: usize = 8;

/// Preloaded kernels: cache reads, and near-miss targets. nw/nw1 and
/// gaussian/fan1 carry 2.1M-element inputs.
const POPULAR: [&str; 16] = [
    "nw/nw1",
    "gaussian/fan1",
    "hotspot/hotspot",
    "srad/srad",
    "srad/srad2",
    "srad/reduce",
    "srad/extract",
    "leukocyte/dilate",
    "leukocyte/imgvf",
    "particlefilter/find_index",
    "particlefilter/sum",
    "particlefilter/normalize",
    "cfd/memset",
    "streamcluster/memset",
    "lud/diagonal",
    "dwt2d/fdwt",
];

/// Near-miss targets: popular kernels with a required or single
/// work-group size, so their fine and ultra grids (a few thousand
/// points) reuse the one analysis the preload left.
const NEAR_TARGETS: [&str; 2] = ["dwt2d/fdwt", "lud/diagonal"];

/// Novel-key kernels: servable kernels whose cold standard-grid sweep
/// takes 5–30 ms on the reference host. The long-analysis kernels are
/// measured cold by `cold_explore`; here they would leave too few cold
/// samples per window for a steady p99.
const NOVEL_POOL: [&str; 16] = [
    "bfs/bfs_1",
    "bfs/bfs_2",
    "cfd/initialize",
    "cfd/time_step",
    "dwt2d/compute",
    "dwt2d/components",
    "dwt2d/component",
    "gaussian/fan2",
    "hybridsort/count",
    "nn/nn",
    "particlefilter/likelihood",
    "pathfinder/dynproc",
    "srad/prepare",
    "srad/compress",
    "polybench/fdtd2d",
    "polybench/jacobi2d",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Popular,
    Novel,
    Burst,
    Near,
}

/// A servable kernel: source, NDRange and buffers sized from its own
/// corpus workload (serve's default sizing leaves many kernels reading
/// past their buffers).
struct Target {
    name: String,
    source: &'static str,
    kernel: &'static str,
    global: (u64, u64),
    buf_elems: u64,
}

impl Target {
    fn new(name: &str) -> Target {
        let spec = corpus::find(name);
        Target {
            name: name.to_string(),
            source: spec.source,
            kernel: spec.kernel,
            global: spec.base_global,
            buf_elems: corpus::buf_elems(&spec),
        }
    }

    /// One request frame; `pad` extra buffer elements make a distinct
    /// key with the same access pattern.
    fn frame(&self, id: &str, grid: &str, prune: bool, pad: u64) -> String {
        let mut s = String::from(r#"{"id":"#);
        json::push_escaped(&mut s, id);
        s.push_str(r#","src":"#);
        json::push_escaped(&mut s, self.source);
        s.push_str(&format!(
            r#","kernel":"{}","global":[{},{}],"grid":"{grid}","prune":{prune},"buf_elems":{}}}"#,
            self.kernel,
            self.global.0,
            self.global.1,
            self.buf_elems + pad
        ));
        s
    }
}

/// One scheduled request; its frame is rendered when it is sent.
struct Planned {
    due: Duration,
    id: String,
    class: Class,
    /// Index into the class's target list.
    target: usize,
    grid: &'static str,
    pad: u64,
}

impl Planned {
    fn frame(&self, targets: &Targets) -> String {
        let pool = match self.class {
            Class::Popular => &targets.popular,
            Class::Near => &targets.near,
            Class::Novel | Class::Burst => &targets.novel,
        };
        pool[self.target].frame(&self.id, self.grid, false, self.pad)
    }
}

/// A seeded Poisson schedule of `seconds` at `rate`. `pad` keeps the
/// novel keys of every phase distinct.
fn plan(
    rng: &mut Rng,
    targets: &Targets,
    rate: f64,
    seconds: f64,
    tag: &str,
    pad: &mut u64,
) -> Vec<Planned> {
    let mut out: Vec<Planned> = Vec::new();
    let mut t = Duration::ZERO;
    let end = Duration::from_secs_f64(seconds);
    let mut classes: Vec<Class> = Vec::new();
    // Novel keys cycle through the pool in seeded order, so every window
    // sees the same mix of cold costs.
    let mut novel_order: Vec<usize> = Vec::new();
    loop {
        t += rng.exp_gap(rate);
        if t >= end {
            return out;
        }
        if classes.is_empty() {
            classes = [
                (Class::Novel, NOVEL_PER_BLOCK),
                (Class::Burst, BURSTS_PER_BLOCK),
                (Class::Near, NEAR_PER_BLOCK),
                (Class::Popular, BLOCK - NOVEL_PER_BLOCK - BURSTS_PER_BLOCK - NEAR_PER_BLOCK),
            ]
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat(c).take(n))
            .collect();
            rng.shuffle(&mut classes);
        }
        let class = classes.pop().expect("refilled");
        let (copies, target, grid, pad_by) = match class {
            Class::Novel | Class::Burst => {
                if novel_order.is_empty() {
                    novel_order = (0..targets.novel.len()).collect();
                    rng.shuffle(&mut novel_order);
                }
                *pad += 1;
                let copies = if class == Class::Burst { BURST_LEN } else { 1 };
                (copies, novel_order.pop().expect("refilled"), "standard", *pad)
            }
            Class::Near => {
                let k = rng.below(targets.near.len());
                (1, k, if rng.below(2) == 0 { "fine" } else { "ultra" }, 0)
            }
            Class::Popular => (1, rng.below(targets.popular.len()), "standard", 0),
        };
        for _ in 0..copies {
            let id = format!("{tag}-{}", out.len());
            out.push(Planned { due: t, id, class, target, grid, pad: pad_by });
        }
    }
}

struct Targets {
    popular: Vec<Target>,
    near: Vec<Target>,
    novel: Vec<Target>,
}

/// Where a phase's frames go: the epoll transport over TCP, or straight
/// into the server.
enum Link {
    Tcp(TcpStream),
    InProc(Arc<Server>),
}

/// Responses with the instant they arrived.
type Arrivals = mpsc::Receiver<(String, Instant)>;

impl Link {
    /// Starts the receiving side: a thread that reads response frames
    /// as they arrive and stamps them.
    fn open<'s>(
        &self,
        scope: &'s std::thread::Scope<'s, '_>,
        stop: Arc<AtomicBool>,
    ) -> (Sender, Arrivals) {
        let (tx, rx) = mpsc::channel();
        let sender = match self {
            Link::Tcp(stream) => {
                let mut read = stream.try_clone().expect("clone stream");
                read.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
                scope.spawn(move || {
                    let mut buf: Vec<u8> = Vec::new();
                    let mut chunk = vec![0u8; 64 * 1024];
                    while !stop.load(Ordering::Relaxed) {
                        quickack(&read);
                        let n = match read.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(n) => n,
                            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                                continue
                            }
                            Err(_) => break,
                        };
                        let at = Instant::now();
                        buf.extend_from_slice(&chunk[..n]);
                        while buf.len() >= 4 {
                            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                            if buf.len() < 4 + len {
                                break;
                            }
                            let frame = String::from_utf8_lossy(&buf[4..4 + len]).into_owned();
                            buf.drain(..4 + len);
                            let _ = tx.send((frame, at));
                        }
                    }
                });
                Sender::Tcp(stream.try_clone().expect("clone stream"))
            }
            Link::InProc(server) => Sender::InProc(Arc::clone(server), tx),
        };
        (sender, rx)
    }
}

/// Asks the kernel to acknowledge received data at once. The server
/// leaves Nagle's algorithm on, so with delayed acknowledgements a
/// response written behind an unacknowledged one waits for the ACK that
/// rides on the client's next request; that wait swings between runs and
/// would drown what the benchmark measures. Linux clears the flag as it
/// goes, so it is set again before every read.
fn quickack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let one: i32 = 1;
    // SAFETY: a live socket descriptor and a pointer to an i32 of the
    // stated length; failure only leaves delayed ACKs on.
    unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4) };
}

/// The sending side of a [`Link`].
enum Sender {
    Tcp(TcpStream),
    InProc(Arc<Server>, mpsc::Sender<(String, Instant)>),
}

impl Sender {
    fn send(&mut self, frame: &str) {
        let _span = trace::span("net.send");
        match self {
            Sender::Tcp(stream) => {
                let mut out = Vec::with_capacity(frame.len() + 4);
                out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                out.extend_from_slice(frame.as_bytes());
                stream.write_all(&out).expect("send frame");
            }
            Sender::InProc(server, tx) => {
                let tx = tx.clone();
                server.handle_frame_raw_async(
                    frame,
                    Box::new(move |r: String| drop(tx.send((r, Instant::now())))),
                );
            }
        }
    }
}

/// What a phase measured.
#[derive(Default)]
struct Phase {
    seconds: f64,
    /// Latency from due time, every request (failures at `MISSING_MS`).
    latency: Vec<f64>,
    /// Requests that ran their own sweep (cache misses).
    sweeps: usize,
    /// How late each send left.
    lag_ms: Vec<f64>,
    /// Queue depth sampled over the window.
    depth: Vec<f64>,
    sent: u64,
    failed: u64,
    /// id → ok response frame of the requests the check may sample.
    ok: HashMap<String, String>,
    /// The schedule this phase ran.
    plan: Vec<Planned>,
}

impl Phase {
    /// The backlog grows when the queue depth over the last third of the
    /// window clearly exceeds that over the first third.
    fn backlog_grows(&self) -> bool {
        let n = self.depth.len();
        if n < 6 {
            return false;
        }
        let first = mean(&self.depth[..n / 3]);
        let last = mean(&self.depth[n - n / 3..]);
        last > 4.0 && last > 2.0 * first + 2.0
    }
}

/// The median of `f` over windows.
fn median_of(ws: &[&Phase], f: &dyn Fn(&Phase) -> f64) -> f64 {
    common::median(&ws.iter().map(|w| f(w)).collect::<Vec<_>>())
}

/// Runs one phase: this thread sends every frame at its due time (and
/// samples the server's queue depth as it goes) while a second thread
/// receives; then it waits for stragglers.
fn run_phase(
    link: &Link,
    server: &Server,
    targets: &Targets,
    plan: Vec<Planned>,
    seconds: f64,
) -> Phase {
    let mut phase = Phase { seconds, ..Phase::default() };
    let index: HashMap<&str, usize> = plan.iter().enumerate().map(|(i, p)| (p.id.as_str(), i)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let (mut sender, arrivals) = link.open(scope, Arc::clone(&stop));
        for p in &plan {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            phase.lag_ms.push(common::ms(Instant::now().saturating_duration_since(due)));
            phase.depth.push(server.queue_depth() as f64);
            sender.send(&p.frame(targets));
            phase.sent += 1;
        }
        let deadline = Instant::now() + DRAIN;
        let mut answered = vec![false; plan.len()];
        let mut left = plan.len();
        while left > 0 {
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else { break };
            let Ok((frame, at)) = arrivals.recv_timeout(wait) else { break };
            let Ok(r) = json::parse(&frame) else { continue };
            let id = r.get("id").and_then(|v| v.as_str()).unwrap_or("");
            let Some(&i) = index.get(id) else { continue };
            if std::mem::replace(&mut answered[i], true) {
                continue;
            }
            left -= 1;
            let class = plan[i].class;
            let lat = common::ms(at.saturating_duration_since(start + plan[i].due));
            if r.get("status").and_then(|v| v.as_str()) == Some("ok") {
                phase.latency.push(lat);
                if r.get("cache").and_then(|v| v.as_str()) == Some("miss")
                    && r.get("coalesced").is_none()
                {
                    phase.sweeps += 1;
                }
                // Keep what the output check may sample: every response
                // that ran or shared a sweep, and one popular in 256.
                if class != Class::Popular || i % 256 == 0 {
                    phase.ok.insert(id.to_string(), frame);
                }
            } else {
                phase.failed += 1;
                phase.latency.push(MISSING_MS.max(lat));
                let kind = r.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
                println!("  {class:?} request {id} refused: {kind}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        // Never answered: failed, and charged as missing the limit.
        phase.failed += left as u64;
        phase.latency.extend(std::iter::repeat(MISSING_MS).take(left));
    });
    phase.plan = plan;
    phase
}

/// The benchmark's scratch directory inside its checkout: under the
/// build directory the benchmark was built into.
fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join(format!("serve-{}-{tag}", std::process::id()))
}

struct Deployment {
    server: Arc<Server>,
    transport: EpollTransport,
    dir: PathBuf,
    /// (popular kernel, serialized `SweepSummary` of its preload answer).
    preload: Vec<(String, String)>,
}

impl Deployment {
    fn shutdown(self) {
        self.transport.shutdown().expect("stop the event loops");
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts the server behind the epoll transport on a fresh cache
/// directory and preloads the popular set through it.
fn deploy(ctx: &Ctx, targets: &Targets, n: usize) -> Deployment {
    let dir = scratch_dir(&format!("cache{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        workers: ctx.server_workers,
        queue_cap: 4096,
        degrade_at: 4096,
        cache_dir: Some(dir.clone()),
        cache_cap_per_shard: CACHE_CAP_PER_SHARD,
        max_sweep_threads: 1,
        ..ServerConfig::default()
    };
    let (server, _) = Server::start(cfg).expect("start the server");
    let server = Arc::new(server);
    let opts = EpollOptions {
        listeners: ctx.listeners,
        idle_timeout: Duration::ZERO,
        ..EpollOptions::default()
    };
    let transport =
        EpollTransport::bind(Arc::clone(&server), "127.0.0.1:0", opts).expect("bind");
    let preload = targets
        .popular
        .iter()
        .map(|k| {
            let r = server.handle_frame_raw(&k.frame("preload", "standard", false, 0));
            let result = result_of(&r).unwrap_or_else(|| panic!("preload of {}: {r}", k.name));
            (k.name.clone(), result)
        })
        .collect();
    Deployment { server, transport, dir, preload }
}

/// The serialized `SweepSummary` inside an ok response frame.
fn result_of(frame: &str) -> Option<String> {
    let start = frame.find(r#""result":"#)? + r#""result":"#.len();
    let end = start + frame[start..].find(r#","degraded":"#)?;
    Some(frame[start..end].to_string())
}

/// Runs a request directly — prepare, then `explore_space_cached` on the
/// grid the server used with a fresh `AnalysisCache` — and returns its
/// `SweepSummary` JSON, the time from source to best point, the points
/// evaluated and, with `sim`, the model error of the best point.
fn direct(frame: &str, grid_used: &str, sim: bool) -> (String, f64, usize, Option<f64>) {
    let req = Request::parse(frame).expect("request parses");
    let start = Instant::now();
    let p = workload::prepare(&req.src, req.kernel.as_deref(), req.global, req.synthesis)
        .expect("request prepares");
    let grid = SweepGrid::by_name(grid_used).expect("known grid");
    let opts = DseOptions { prune: req.prune, ..DseOptions::default() };
    let cache = AnalysisCache::new();
    let r = explore_space_cached(&p.func, &corpus::platform(), &p.workload, &grid, opts, None, &cache)
        .expect("direct sweep");
    let _best = r.best();
    let ms = common::ms(start.elapsed());
    let err = r.best().filter(|_| sim).map(|b| corpus::model_err_pct(&p.func, &p.workload, b));
    (SweepSummary::of(&r).to_json(), ms, r.stats.points_evaluated, err)
}

/// Calls into the protocol, workload, fingerprint and cache layers
/// outside the traffic, one span per call, for the per-layer means.
fn side_measurements(report: &mut Report, targets: &Targets, dep: &Deployment) {
    const REPS: usize = 5;
    let all = targets.popular.iter().chain(&targets.novel);
    let platform = corpus::platform();
    for _ in 0..REPS {
        for k in all.clone() {
            corpus::compile(k.source, k.kernel);
            let frame = k.frame("side", "standard", false, 0);
            let req = trace::timed("protocol.parse", || Request::parse(&frame)).expect("parses");
            trace::timed("workload.prepare", || {
                workload::prepare(&req.src, req.kernel.as_deref(), req.global, req.synthesis)
            })
            .expect("prepares");
            trace::timed("serve.fingerprint", || {
                request_fingerprint(&req, "standard", &platform.name)
            });
        }
        for (k, (_, result)) in targets.popular.iter().zip(&dep.preload) {
            let summary = SweepSummary::from_json(result).expect("summary");
            let resp = Response::Ok {
                id: "side".into(),
                summary,
                degraded: 0,
                grid_used: "standard".into(),
                cache: CacheDisposition::Hit,
                elapsed_ms: 0,
                coalesced: false,
                request_id: String::new(),
            };
            trace::timed("protocol.encode", || resp.to_json());
            let req = Request::parse(&k.frame("side", "standard", false, 0)).expect("parses");
            let key = request_fingerprint(&req, "standard", &platform.name);
            if let Some(cache) = dep.server.cache() {
                trace::timed("cache.get", || cache.get(key));
            }
        }
    }
    let dir = scratch_dir("put");
    let (cache, _) = PersistentCache::open(&dir, CACHE_CAP_PER_SHARD).expect("scratch cache");
    for (i, (_, result)) in dep.preload.iter().enumerate() {
        let key = (i as u64, 0x5EED);
        trace::timed("cache.put", || cache.put(key, key, result.as_bytes())).expect("put");
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);

    let us = |name| mean(&trace::durations_ms(name)) * 1e3;
    report.add("frontend.parse_ms", mean(&trace::durations_ms("frontend.parse")));
    report.add("ir.lower_ms", mean(&trace::durations_ms("ir.lower")));
    report.add("protocol.parse_us", us("protocol.parse"));
    report.add("protocol.encode_us", us("protocol.encode"));
    report.add("workload.prepare_ms", mean(&trace::durations_ms("workload.prepare")));
    report.add("serve.fingerprint_us", us("serve.fingerprint"));
    report.add("cache.get_us", us("cache.get"));
    report.add("cache.put_ms", mean(&trace::durations_ms("cache.put")));
}

/// Server, cache and sweep-engine counters, read from outside: the
/// server's counters and metrics frame, the persistent cache's stats, and
/// the process-wide `dse.*`/`eval.*` registry.
fn server_layers(report: &mut Report, dep: &Deployment, phases: &[&Phase]) {
    let c = dep.server.counters();
    let metrics = json::parse(&dep.server.metrics_reply("json")).expect("metrics frame");
    let service = metrics
        .get("metrics")
        .and_then(|m| m.get("server"))
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get("serve.service_us"));
    let hist = |q: &str| service.and_then(|s| s.get(q)).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let depth_max = phases.iter().flat_map(|p| p.depth.iter().copied()).fold(0.0, f64::max);
    let analysis = (c.analysis_hits + c.analysis_misses) as f64;
    report.add("serve.service_us.p50", hist("p50"));
    report.add("serve.service_us.p99", hist("p99"));
    report.add("serve.queue_depth.max", depth_max);
    report.add("serve.coalesced_ratio", ratio(c.coalesced as f64, c.received as f64));
    report.add("serve.near_miss", c.near_miss as f64);
    report.add("serve.analysis_hit_ratio", ratio(c.analysis_hits as f64, analysis));
    report.add("serve.shed", c.shed as f64);
    report.add("serve.deadline_expired", c.deadline_expired as f64);
    report.add("analysis.cache_hit_ratio", ratio(c.analysis_hits as f64, analysis));
    if let Some(cache) = dep.server.cache() {
        let hits = cache.stats.hits.load(Ordering::Relaxed) as f64;
        let misses = cache.stats.misses.load(Ordering::Relaxed) as f64;
        report.add("cache.hit_ratio", ratio(hits, hits + misses));
        report.add("cache.evictions", cache.stats.evictions.load(Ordering::Relaxed) as f64);
    }
    let g = flexcl_obs::metrics::global().snapshot();
    let count = |name| g.counter(name).unwrap_or(0) as f64;
    let sweeps = count("dse.sweeps").max(1.0);
    let s_hits = count("eval.sched_cache_hits");
    report.add("analysis.families", analysis / sweeps);
    report.add("sched.cache_hit_ratio", ratio(s_hits, s_hits + count("eval.sched_cache_misses")));
    report.add("eval.points", count("dse.points_evaluated") / sweeps);
    report.add("dse.chunks", count("dse.chunks_processed") / sweeps);
    report.add("dse.steals", count("dse.steals") / sweeps);
    report.add("dse.repaired_chunks", count("dse.repaired_chunks") / sweeps);
}

pub fn serve_mix(ctx: &Ctx) -> Outcome {
    common::fix_malloc_thresholds();
    println!(
        "  server workers {}, listeners {}; generator: a sending and a receiving thread, 1 connection",
        ctx.server_workers, ctx.listeners
    );
    let before_setup = ctx.start.elapsed().as_secs_f64();
    let targets = Targets {
        popular: POPULAR.iter().map(|n| Target::new(n)).collect(),
        near: NEAR_TARGETS.iter().map(|n| Target::new(n)).collect(),
        novel: NOVEL_POOL.iter().map(|n| Target::new(n)).collect(),
    };
    let mut setups = Vec::new();
    let mut dep: Option<Deployment> = None;
    for n in 0..3 {
        if let Some(d) = dep.take() {
            d.shutdown();
        }
        let t = Instant::now();
        dep = Some(deploy(ctx, &targets, n));
        setups.push(t.elapsed().as_secs_f64());
    }
    let dep = dep.expect("deployed");
    let setup_s = before_setup + common::median(&setups);
    common::reset_peak_rss();

    let stream = TcpStream::connect(dep.transport.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let tcp = Link::Tcp(stream);
    let mut pad = 0u64;
    let mut phases: Vec<Phase> = Vec::new();
    // Ladder index of each phase's rate.
    let mut rate_of: Vec<usize> = Vec::new();
    let mut report = Report::default();

    // The two offered rates alternate and each latency figure is the
    // median over a rate's windows, so a burst of host noise moves one
    // window rather than the result. A traced run spends half its time
    // here (without the ladder's upper rungs, which only the untraced
    // `serve_max_rps` needs), then runs the low rate traced over TCP and
    // traced in-process.
    let (rounds, rungs, share) = if ctx.trace { (3, 2, 0.5) } else { (ROUNDS, LADDER.len(), 1.0) };
    let order: Vec<usize> = (0..rounds).flat_map(|_| [0, 1]).chain(2..rungs).collect();
    let secs = ctx.seconds * share / order.len() as f64;
    let mut rng = Rng::new(ctx.seed);
    let mut rss_mb = None;
    for (n, &i) in order.iter().enumerate() {
        // The upper rungs overload the server on purpose; the memory
        // figure covers the offered rates only.
        if n == 2 * rounds {
            rss_mb = Some(common::peak_rss_mb());
        }
        let p = plan(&mut rng, &targets, LADDER[i], secs, &format!("w{n}"), &mut pad);
        phases.push(run_phase(&tcp, &dep.server, &targets, p, secs));
        rate_of.push(i);
    }
    report.add("peak_rss_mb", rss_mb.unwrap_or_else(common::peak_rss_mb));
    let windows = |i: usize| -> Vec<&Phase> {
        phases.iter().zip(&rate_of).filter(|(_, &r)| r == i).map(|(p, _)| p).collect()
    };
    let p = |q: f64| move |ph: &Phase| percentile(&ph.latency, q);
    let mut climbing = true;
    let mut max_rps = 0.0;
    for (i, rate) in LADDER.iter().enumerate().take(rungs) {
        let ws = windows(i);
        let p99 = median_of(&ws, &p(99.0));
        let grows = ws.iter().filter(|w| w.backlog_grows()).count();
        let n: usize = ws.iter().map(|w| w.latency.len()).sum();
        let sweeps: usize = ws.iter().map(|w| w.sweeps).sum();
        println!(
            "  {rate:>6.0}/s: {n} requests in {} windows, {sweeps} sweeps, median p50 {:.3} ms, p99 {:.3} ms, backlog grew in {grows}",
            ws.len(),
            median_of(&ws, &p(50.0)),
            p99,
        );
        // The climb stops at the first rung that misses the limit.
        climbing &= p99 <= P99_LIMIT_MS && 2 * grows < ws.len();
        if climbing {
            max_rps = median_of(&ws, &|w: &Phase| (w.sent - w.failed) as f64 / w.seconds);
        }
    }
    let (low, high) = (windows(0), windows(1));
    for (name, ws, q) in [
        ("serve_ms.p50.low", &low, 50.0),
        ("serve_ms.p99.low", &low, 99.0),
        ("serve_ms.p50.high", &high, 50.0),
        ("serve_ms.p99.high", &high, 99.0),
    ] {
        report.add(name, median_of(ws, &p(q)));
        let n = ws.iter().map(|w| w.latency.len()).min().unwrap_or(0);
        report.note_percentile(name, n, q);
    }

    if ctx.trace {
        let secs = ctx.seconds / 4.0;
        let schedule = |tag: &str, pad: &mut u64| {
            plan(&mut Rng::new(ctx.seed), &targets, LOW_RPS, secs, tag, pad)
        };
        trace::set_enabled(true);
        let on = run_phase(&tcp, &dep.server, &targets, schedule("on", &mut pad), secs);
        let inproc = Link::InProc(Arc::clone(&dep.server));
        let local = run_phase(&inproc, &dep.server, &targets, schedule("inproc", &mut pad), secs);
        drop(inproc);
        let low_p50 = median_of(&low, &p(50.0));
        let p50 = |ph: &Phase| percentile(&ph.latency, 50.0);
        report.add("trace.overhead_pct", (p50(&on) / low_p50 - 1.0) * 100.0);
        report.add("net.overhead_us.p50", (low_p50 - p50(&local)) * 1e3);
        let all: Vec<&Phase> = phases.iter().chain([&on, &local]).collect();
        server_layers(&mut report, &dep, &all);
        side_measurements(&mut report, &targets, &dep);
        phases.extend([on, local]);
    }
    drop(tcp);

    // Output checks, outside every timed window: the preloaded answers,
    // then a seeded sample of ok responses, each against a direct sweep.
    let mut errors = Vec::new();
    let mut model_errs = Vec::new();
    let mut lines = Vec::new();
    let mut direct_ms = Vec::new();
    let mut direct_points = 0;
    for (k, (name, got)) in targets.popular.iter().zip(&dep.preload) {
        lines.push(format!("{name}|{got}"));
        let frame = k.frame("check", "standard", false, 0);
        let (want, ms, points, err) = direct(&frame, "standard", true);
        // Two more cold explorations; the kernel's time is the median.
        let again: Vec<f64> = (0..2).map(|_| direct(&frame, "standard", false).1).collect();
        direct_ms.push(common::median(&[ms, again[0], again[1]]));
        direct_points += points;
        model_errs.extend(err);
        if &want != got {
            errors.push(format!("{name}: preload answered {got}, direct sweep gives {want}"));
        }
    }
    let mut ok: Vec<(&Planned, &String)> = phases
        .iter()
        .flat_map(|p| p.plan.iter().filter_map(|q| p.ok.get(&q.id).map(|r| (q, r))))
        .collect();
    ok.sort_by(|a, b| a.0.id.cmp(&b.0.id));
    let mut pick = Rng::new(ctx.seed ^ 0xC0DE);
    for _ in 0..CHECK_SAMPLE.min(ok.len()) {
        let (req, resp) = ok[pick.below(ok.len())];
        let parsed = json::parse(resp).expect("response parses");
        let grid_used = parsed.get("grid_used").and_then(|v| v.as_str()).unwrap_or("?");
        let got = result_of(resp).unwrap_or_default();
        let (want, ..) = direct(&req.frame(&targets), grid_used, false);
        if want != got {
            errors.push(format!("{} ({:?}): served {got}, direct sweep gives {want}", req.id, req.class));
        }
    }
    trace::set_enabled(false);

    let attempted: u64 = phases.iter().map(|p| p.sent).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let lag: Vec<f64> = phases.iter().flat_map(|p| p.lag_ms.iter().copied()).collect();
    println!("  generator lag p99 {:.3} ms over {} sends", percentile(&lag, 99.0), lag.len());
    report.add("failed_ratio", failed as f64 / attempted.max(1) as f64);
    if ctx.trace {
        report.add("gen.lag_ms.p99", percentile(&lag, 99.0));
        report.add("sim.system_run_ms", mean(&trace::durations_ms("sim.system_run")));
    } else {
        report.add("setup_s", setup_s);
        // A served request's cold path, timed without the traffic: each
        // popular kernel prepared and explored from source three times,
        // as the preload did through the server.
        report.add_percentile("explore_ms.p50", &direct_ms, 50.0);
        report.add_percentile("explore_ms.p90", &direct_ms, 90.0);
        report.add("model_err_pct", mean(&model_errs));
        report.add("configs_per_s", direct_points as f64 / (direct_ms.iter().sum::<f64>() / 1e3));
        report.add_percentile("search_ms.p50", &direct_ms, 50.0);
        report.add_percentile("search_ms.p90", &direct_ms, 90.0);
        // The delivered rate at the highest passing rung.
        report.add("serve_max_rps", max_rps);
    }
    dep.shutdown();
    Outcome {
        report,
        correct: errors.is_empty(),
        attempted,
        failed,
        digest: common::digest(lines),
        errors,
    }
}
