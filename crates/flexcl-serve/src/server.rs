//! The estimation server: a sharded thread pool with robustness as the
//! organizing principle.
//!
//! Every request passes four gates, in order:
//!
//! 1. **Admission** — the queue is bounded. A request arriving at a full
//!    queue is shed immediately with a typed `overloaded` rejection and
//!    a retry-after hint derived from observed service time; it never
//!    waits to fail.
//! 2. **Degradation** — under queue pressure (but below shedding) the
//!    requested [`SweepGrid`] is walked down the ladder
//!    `ultra → fine → standard`, one rung per `degrade_at` of queue
//!    depth. The response records how many rungs were applied, so a
//!    client always knows it got a degraded answer.
//! 3. **Deadline** — every request has one (its own or the server
//!    default). The sweep runs under a [`CancelToken`]; an expired
//!    deadline stops work at the next chunk-claim boundary and the
//!    client gets a typed `deadline` rejection carrying how far the
//!    sweep got. A request that arrives already expired is answered at
//!    admission (it never queues, leads or parks), and one that expires
//!    while still queued is rejected without doing any work at all.
//! 4. **Isolation** — panics, fuel exhaustion and cache corruption armed
//!    per-request (testhook deployments) or arising naturally are
//!    contained by the engine's typed-error backstops; one poisoned
//!    request can only ever fail itself.
//!
//! Between admission and the queue sits **coalescing**: a request whose
//! content fingerprint matches a sweep already queued or executing does
//! not enter the queue at all — it parks on that sweep's completion list
//! and the single result fans out to every waiter when the leader
//! finishes. Each waiter is judged against its *own* deadline at
//! fan-out: one that expired while parked gets a typed `deadline`
//! rejection without touching the shared sweep, and a still-live waiter
//! whose shared sweep died at the leader's deadline gets a retryable
//! `overloaded` (never a spurious `deadline`). Coalesced answers carry
//! a `coalesced: true` marker; the result payload is bit-identical to
//! the leader's.
//!
//! The service core is continuation-based: [`Server::submit_async`]
//! accepts a completion callback and never blocks the caller, which is
//! what the epoll transport needs — [`Server::handle_frame`] is the
//! blocking convenience wrapper over it.
//!
//! Requests shard by content fingerprint, so identical sources land on
//! the same worker and the same [`PersistentCache`] entries.
//!
//! Results reach the persistent cache **write-behind**: a worker answers
//! a computed request as soon as its sweep ends and hands the result to
//! one writer thread, which makes it durable through
//! [`PersistentCache::put`] (temp file, fsync, rename). No worker waits
//! on the disk, so a slow fsync cannot stall the requests queued behind
//! a miss. Until its write lands, an entry is served from memory, so a
//! repeat of the key hits at once. A crash loses only the writes still
//! queued, which are misses on restart; the writer's queue is bounded
//! and a write past the bound is dropped, never waited for.

use crate::cache::{Key, OpenReport, PersistentCache};
use crate::protocol::{CacheDisposition, Request, RequestFault, Response, SweepSummary};
use crate::workload;
use flexcl_core::config::SweepGrid;
use flexcl_core::dse::testhook::InjectedFault;
use flexcl_core::{AnalysisCache, CancelToken, DseOptions, FlexclError, Platform, ProfileFuel};
use flexcl_obs::{metrics, trace};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A continuation invoked exactly once with the finished [`Response`].
/// May run on the submitting thread (shed, malformed, already expired)
/// or on a worker thread (everything else).
pub type Completion = Box<dyn FnOnce(Response) + Send + 'static>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= queue shards).
    pub workers: usize,
    /// Bounded queue capacity across all shards; arrivals past it shed.
    pub queue_cap: usize,
    /// Queue depth per degradation rung: at `degrade_at` queued requests
    /// the grid drops one rung, at `2*degrade_at` two, and so on.
    pub degrade_at: usize,
    /// Deadline for requests that do not carry one, milliseconds.
    pub default_deadline_ms: u64,
    /// Directory for the persistent result cache; `None` serves
    /// compute-only.
    pub cache_dir: Option<PathBuf>,
    /// Per-shard entry cap of the persistent cache.
    pub cache_cap_per_shard: usize,
    /// Target platform for every sweep.
    pub platform: Platform,
    /// Honor per-request `fault` fields. Off by default: production
    /// traffic must not be able to arm faults.
    pub enable_testhooks: bool,
    /// Clamp on per-request sweep threads.
    pub max_sweep_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_cap: 64,
            degrade_at: 8,
            default_deadline_ms: 10_000,
            cache_dir: None,
            cache_cap_per_shard: 64,
            platform: Platform::virtex7_adm7v3(),
            enable_testhooks: false,
            max_sweep_threads: 4,
        }
    }
}

/// Monotonic service counters, readable while the server runs. Backed by
/// the server's own [`metrics::Registry`] instance, so the `metrics`
/// introspection frame and [`Server::counters`] read the same cells —
/// there is no mirrored state to drift.
#[derive(Debug)]
struct Counters {
    received: metrics::Counter,
    completed: metrics::Counter,
    shed: metrics::Counter,
    degraded: metrics::Counter,
    deadline_expired: metrics::Counter,
    malformed: metrics::Counter,
    failed: metrics::Counter,
    cache_hits: metrics::Counter,
    cache_misses: metrics::Counter,
    /// Requests answered by fan-out from another request's in-flight
    /// sweep instead of executing their own.
    coalesced: metrics::Counter,
    /// Full-key persistent-cache misses whose *family* fingerprint was
    /// resident — the per-family analysis-reuse path.
    near_miss: metrics::Counter,
    /// Per-family analyses reused from the serve-scoped analysis cache.
    analysis_hits: metrics::Counter,
    /// Per-family analyses computed fresh.
    analysis_misses: metrics::Counter,
    /// Cache writes dropped because the writer's queue was full.
    persist_dropped: metrics::Counter,
    /// Requests queued right now (admission increments, pickup decrements).
    queue_depth: metrics::Gauge,
    /// Distinct fingerprints with an in-flight sweep right now.
    inflight_keys: metrics::Gauge,
    /// Service time (queue wait + compute) per answered request, µs.
    service_us: metrics::Histogram,
}

impl Counters {
    fn register(r: &metrics::Registry) -> Counters {
        Counters {
            received: r.counter("serve.received"),
            completed: r.counter("serve.completed"),
            shed: r.counter("serve.shed"),
            degraded: r.counter("serve.degraded"),
            deadline_expired: r.counter("serve.deadline_expired"),
            malformed: r.counter("serve.malformed"),
            failed: r.counter("serve.failed"),
            cache_hits: r.counter("serve.cache_hits"),
            cache_misses: r.counter("serve.cache_misses"),
            coalesced: r.counter("serve.coalesced"),
            near_miss: r.counter("serve.near_miss"),
            analysis_hits: r.counter("serve.analysis_hits"),
            analysis_misses: r.counter("serve.analysis_misses"),
            persist_dropped: r.counter("serve.persist_dropped"),
            queue_depth: r.gauge("serve.queue_depth"),
            inflight_keys: r.gauge("serve.inflight_keys"),
            service_us: r.histogram("serve.service_us"),
        }
    }
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames received (well-formed or not).
    pub received: u64,
    /// Requests answered `ok`.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered from a coarser grid than asked.
    pub degraded: u64,
    /// Requests rejected at/past their deadline (queued or mid-sweep).
    pub deadline_expired: u64,
    /// Frames rejected as malformed.
    pub malformed: u64,
    /// Requests rejected with any other typed pipeline error.
    pub failed: u64,
    /// Persistent-cache hits.
    pub cache_hits: u64,
    /// Persistent-cache misses (including cache-off computes).
    pub cache_misses: u64,
    /// Requests answered by coalescing onto an in-flight sweep.
    pub coalesced: u64,
    /// Persistent-cache misses whose family fingerprint was resident.
    pub near_miss: u64,
    /// Per-family analyses reused from the serve-scoped analysis cache.
    pub analysis_hits: u64,
    /// Per-family analyses computed fresh.
    pub analysis_misses: u64,
    /// Cache writes dropped because the writer's queue was full.
    pub persist_dropped: u64,
}

struct Job {
    req: Request,
    grid_used: String,
    degraded: u32,
    deadline: Instant,
    accepted: Instant,
    /// Full content fingerprint (also the coalescing key).
    key: Key,
    /// Family fingerprint (grid/objective-independent).
    family: Key,
    /// Whether this job owns the in-flight table entry for `key` (and
    /// must fan its result out to the parked waiters on completion). A
    /// duplicate that could not coalesce — waiter list full — runs as
    /// an independent job with `leader == false` and leaves the entry
    /// alone.
    leader: bool,
    complete: Completion,
    /// Trace id of the `serve.request` span open on the connection
    /// thread, so worker-side spans attach to the same tree (0 when
    /// tracing is off).
    span: u64,
}

/// A request parked on an in-flight sweep, waiting for its fan-out.
struct Waiter {
    id: String,
    accepted: Instant,
    deadline: Instant,
    degraded: u32,
    complete: Completion,
}

/// The completion list of one in-flight sweep.
struct InFlight {
    waiters: Vec<Waiter>,
}

struct ShardQueue {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// Cache writes that may wait for the writer thread at once; past this a
/// write is dropped (the cache is best-effort) instead of stalling a
/// worker.
const WRITE_QUEUE_CAP: usize = 256;

/// A result on its way to disk: its family fingerprint and payload.
type PendingWrite = (Key, Arc<[u8]>);

/// The write-behind state shared by the workers and the writer thread.
#[derive(Default)]
struct WriteBehind {
    /// Every write handed to the writer and not yet on disk, by key;
    /// lookups read it before the disk.
    pending: Mutex<HashMap<Key, PendingWrite>>,
    /// The writer's queue of keys; `None` without a cache and once the
    /// server shuts down.
    queue: Mutex<Option<mpsc::SyncSender<Key>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Inner {
    cfg: ServerConfig,
    shards: Vec<ShardQueue>,
    queued: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
    /// Per-instance registry backing [`Counters`]; snapshotted whole by
    /// the `metrics` introspection frame.
    registry: metrics::Registry,
    cache: Option<PersistentCache>,
    /// Results on their way into `cache`.
    writes: WriteBehind,
    /// Fingerprint → completion list of the sweep currently queued or
    /// executing for it. Guarded by one mutex: entries are touched once
    /// per request (admission) plus once per sweep (fan-out), far off
    /// the estimation hot path.
    inflight: Mutex<HashMap<Key, InFlight>>,
    /// Serve-scoped per-family analysis store, threaded through every
    /// sweep via [`flexcl_core::explore_space_cached`]. Dies with the
    /// server instance.
    analysis: AnalysisCache,
    /// EWMA of service time in microseconds (×16 fixed point), feeding
    /// the retry-after hint.
    service_ewma_us: AtomicU64,
    /// Instance tag baked into every request id, so ids from different
    /// server lifetimes never collide.
    boot_tag: u32,
    /// Per-frame sequence number behind the request ids.
    req_seq: AtomicU64,
}

/// A running server. Cloning the handle shares the instance; call
/// [`Server::shutdown`] on the last handle to stop the workers.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The cache's writer thread, when there is a cache.
    writer: Option<std::thread::JoinHandle<()>>,
}

/// Content fingerprint of a request: everything that determines the
/// answer — source, kernel, geometry, grid actually swept, pruning, and
/// synthesis values — and nothing that does not (id, deadline, thread
/// count; sweeps are bit-identical across those by construction). This
/// is the persistent-cache key *and* the coalescing key. An armed fault
/// is deliberately *not* part of the key — a `corrupt-cache` attacker
/// must damage the same entry its clean twin reads for the quarantine
/// path to mean anything — so faulted requests are instead barred from
/// coalescing entirely (see [`Server::submit_async`]).
pub fn request_fingerprint(req: &Request, grid_used: &str, platform_tag: &str) -> Key {
    fingerprint_of(req, platform_tag, Some((grid_used, req.prune)))
}

/// Family fingerprint of a request: the full fingerprint minus the
/// grid/objective knobs (grid swept, pruning). Two requests for the
/// same kernel, platform and workload share a family even when they
/// sweep different grids — which is exactly when the per-family
/// `KernelAnalysis` entries in the serve-scoped analysis cache are
/// reusable.
pub fn request_family_fingerprint(req: &Request, platform_tag: &str) -> Key {
    fingerprint_of(req, platform_tag, None)
}

fn fingerprint_of(req: &Request, platform_tag: &str, variant: Option<(&str, bool)>) -> Key {
    let mut parts = (0u64, 0u64);
    for (seed, out) in [(0x9E37_79B9u64, &mut parts.0), (0xC2B2_AE35u64, &mut parts.1)] {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        seed.hash(&mut h);
        req.src.hash(&mut h);
        req.kernel.hash(&mut h);
        req.global.hash(&mut h);
        req.synthesis.buf_elems.hash(&mut h);
        req.synthesis.scalar_int.hash(&mut h);
        req.synthesis.scalar_float.to_bits().hash(&mut h);
        platform_tag.hash(&mut h);
        if let Some((grid_used, prune)) = variant {
            grid_used.hash(&mut h);
            prune.hash(&mut h);
        }
        *out = h.finish();
    }
    parts
}

/// Per-instance tag for request ids: wall-clock seconds mixed with a
/// process-wide instance counter, so two servers started in the same
/// second (common in tests) still mint distinct id streams.
fn boot_tag() -> u32 {
    static INSTANCE: AtomicU64 = AtomicU64::new(0);
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    (secs as u32)
        .wrapping_add((INSTANCE.fetch_add(1, Ordering::Relaxed) as u32).wrapping_mul(0x9E37_79B9))
}

impl Server {
    /// Starts the worker pool (and opens the persistent cache when
    /// configured), returning the handle plus the cache's startup scan
    /// report.
    ///
    /// # Errors
    ///
    /// I/O failures creating the cache directory tree. Corrupt cache
    /// *content* is quarantined, reported, and never fatal.
    pub fn start(cfg: ServerConfig) -> std::io::Result<(Server, OpenReport)> {
        let (cache, report) = match &cfg.cache_dir {
            Some(dir) => {
                let (c, r) = PersistentCache::open(dir, cfg.cache_cap_per_shard)?;
                (Some(c), r)
            }
            None => (None, OpenReport::default()),
        };
        let (queue, writes) = match cache {
            Some(_) => {
                let (tx, rx) = mpsc::sync_channel(WRITE_QUEUE_CAP);
                (Some(rx), WriteBehind { queue: Mutex::new(Some(tx)), ..WriteBehind::default() })
            }
            None => (None, WriteBehind::default()),
        };
        let workers = cfg.workers.max(1);
        let registry = metrics::Registry::new();
        let counters = Counters::register(&registry);
        let inner = Arc::new(Inner {
            shards: (0..workers)
                .map(|_| ShardQueue { q: Mutex::new(VecDeque::new()), cv: Condvar::new() })
                .collect(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters,
            registry,
            cache,
            writes,
            inflight: Mutex::new(HashMap::new()),
            analysis: AnalysisCache::new(),
            service_ewma_us: AtomicU64::new(0),
            boot_tag: boot_tag(),
            req_seq: AtomicU64::new(0),
            cfg,
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flexcl-serve-{w}"))
                    .spawn(move || worker(&inner, w))
                    .expect("spawn worker")
            })
            .collect();
        let writer = queue.map(|rx| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("flexcl-serve-writer".to_string())
                .spawn(move || writer(&inner, rx))
                .expect("spawn cache writer")
        });
        Ok((Server { inner, workers: handles, writer }, report))
    }

    /// Handles one raw frame end to end, introspection included: a
    /// `{"metrics": "json" | "text"}` frame is answered inline from the
    /// registry (bypassing admission, so it cannot be shed and does not
    /// perturb the counters it reports); anything else goes through
    /// [`Server::handle_frame`]. Both transports route through here.
    pub fn handle_frame_raw(&self, frame: &str) -> String {
        if let Some(reply) = self.try_metrics_frame(frame) {
            return reply;
        }
        self.handle_frame(frame).to_json()
    }

    /// Non-blocking [`Server::handle_frame_raw`]: `complete` receives
    /// the serialized response frame, possibly on another thread. This
    /// is the epoll transport's entry point — the event loop must never
    /// block on a sweep.
    pub fn handle_frame_raw_async(
        &self,
        frame: &str,
        complete: Box<dyn FnOnce(String) + Send + 'static>,
    ) {
        if let Some(reply) = self.try_metrics_frame(frame) {
            complete(reply);
            return;
        }
        self.handle_frame_async(frame, Box::new(move |r: Response| complete(r.to_json())));
    }

    /// Answers a metrics-introspection frame, or `None` when `frame` is
    /// not one (no top-level `metrics` key).
    fn try_metrics_frame(&self, frame: &str) -> Option<String> {
        // Cheap pre-filter: service frames never reach the JSON parser
        // twice unless they at least mention the key.
        if !frame.contains(r#""metrics""#) {
            return None;
        }
        let v = crate::json::parse(frame).ok()?;
        let mode = v.get("metrics")?.as_str().unwrap_or("json").to_string();
        Some(self.metrics_reply(&mode))
    }

    /// Renders the introspection snapshot: the server's own registry
    /// under `"server"` and the process-wide registry (trace drops,
    /// `dse.*`, `eval.*`) under `"process"`.
    pub fn metrics_reply(&self, mode: &str) -> String {
        let server = self.inner.registry.snapshot();
        let process = metrics::global().snapshot();
        let mut s = String::new();
        if mode == "text" {
            let mut text = String::new();
            for (scope, snap) in [("server", &server), ("process", &process)] {
                let _ = writeln!(text, "# scope {scope}");
                text.push_str(&snap.to_text());
            }
            s.push_str(r#"{"status":"ok","metrics_text":"#);
            crate::json::push_escaped(&mut s, &text);
            s.push('}');
        } else {
            let _ = write!(
                s,
                r#"{{"status":"ok","metrics":{{"server":{},"process":{}}}}}"#,
                server.to_json(),
                process.to_json()
            );
        }
        s
    }

    /// Handles one raw frame end to end: parse, admit, enqueue, wait for
    /// the worker's answer. Blocks the calling (connection) thread, not
    /// a worker; shed and malformed frames return without touching the
    /// queue. Every answer — ok, shed, deadline, malformed — carries the
    /// server-assigned `request_id` minted here.
    pub fn handle_frame(&self, frame: &str) -> Response {
        let (tx, rx) = mpsc::channel();
        self.handle_frame_async(frame, Box::new(move |r: Response| drop(tx.send(r))));
        rx.recv().unwrap_or_else(|_| shutdown_response("?"))
    }

    /// Non-blocking [`Server::handle_frame`]: parse, admit, enqueue, and
    /// return; `complete` receives the response when the sweep (or a
    /// coalesced fan-out) finishes. Immediate outcomes — malformed, shed
    /// — invoke `complete` before returning. The `serve.request` trace
    /// span closes at hand-off; worker-side spans still attach to it by
    /// id, so the tree shape is identical to the blocking path.
    pub fn handle_frame_async(&self, frame: &str, complete: Completion) {
        let rid = self.next_request_id();
        let mut span = trace::span("serve.request");
        span.attr_str("request_id", &rid);
        self.inner.counters.received.inc();
        match Request::parse(frame) {
            Ok(req) => {
                span.attr_str("id", &req.id);
                self.submit_async(
                    req,
                    Box::new(move |mut r: Response| {
                        r.set_request_id(&rid);
                        complete(r);
                    }),
                );
            }
            Err(e) => {
                self.inner.counters.malformed.inc();
                trace::event("serve.malformed");
                let mut r = Response::malformed(&e);
                span.attr_str("kind", r.kind());
                r.set_request_id(&rid);
                complete(r);
            }
        }
    }

    /// Mints the next server-assigned request id:
    /// `<instance tag>-<sequence>`.
    fn next_request_id(&self) -> String {
        let seq = self.inner.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{:08x}-{seq:06}", self.inner.boot_tag)
    }

    /// Admits, degrades, shards and enqueues `req`, then waits for its
    /// response.
    pub fn submit(&self, req: Request) -> Response {
        let (tx, rx) = mpsc::channel();
        self.submit_async(req, Box::new(move |r: Response| drop(tx.send(r))));
        // A worker always answers (even on deadline), so a recv error
        // can only mean shutdown raced the job.
        rx.recv().unwrap_or_else(|_| shutdown_response("?"))
    }

    /// Non-blocking [`Server::submit`]: coalesce-or-admit, degrade,
    /// shard and enqueue `req`; `complete` receives the response when it
    /// is ready. Expired, shed and coalesce decisions happen before
    /// returning.
    pub fn submit_async(&self, mut req: Request, complete: Completion) {
        let inner = &self.inner;
        // Ignored faults must not fragment the fingerprint space: clear
        // them up front so a faulted frame on a production server keys
        // (and caches, and coalesces) exactly like the clean request.
        if !inner.cfg.enable_testhooks {
            req.fault = None;
        }

        let now = Instant::now();
        let deadline_ms = req.deadline_ms.unwrap_or(inner.cfg.default_deadline_ms);
        let deadline = now + Duration::from_millis(deadline_ms);
        // Already expired: answer now. Queued, it could lead a sweep that
        // identical live requests park on, and its `deadline` would reach
        // them as a spurious `overloaded`.
        if deadline <= now {
            trace::event("serve.deadline");
            let response = Response::from_error(
                &req.id,
                &FlexclError::Deadline {
                    elapsed_ms: 0,
                    detail: "deadline expired before admission".to_string(),
                    stats: Default::default(),
                },
            );
            account(inner, &response, now);
            complete(response);
            return;
        }

        // Degradation ladder: one rung per `degrade_at` of queue depth
        // observed at admission time.
        let depth = inner.queued.load(Ordering::Relaxed);
        let mut grid_used = req.grid.clone();
        let mut degraded = 0u32;
        if let Some(rungs) = depth.checked_div(inner.cfg.degrade_at) {
            for _ in 0..rungs {
                match SweepGrid::coarser(&grid_used) {
                    Some(next) => {
                        grid_used = next.to_string();
                        degraded += 1;
                    }
                    None => break,
                }
            }
        }
        if degraded > 0 {
            inner.counters.degraded.inc();
            let mut d = trace::span("serve.degrade");
            d.attr_u64("rungs", u64::from(degraded));
            d.attr_str("grid_used", &grid_used);
        }

        let key = request_fingerprint(&req, &grid_used, inner.platform_tag());
        let family = request_family_fingerprint(&req, inner.platform_tag());

        // A faulted request (testhook deployments) neither leads nor
        // parks: its answer is not the clean answer, so sharing a sweep
        // in either direction would leak the fault across requests.
        let coalescible = req.fault.is_none();

        // Coalesce-or-admit, atomically with respect to other arrivals
        // and to fan-out: the in-flight table lock spans both decisions,
        // so a request either parks on a live entry (fan-out has not run
        // yet) or becomes/joins the queue — never lost between them.
        let mut inflight = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if coalescible {
            if let Some(entry) = inflight.get_mut(&key) {
                // Park on the executing sweep whatever the relative
                // deadlines: each waiter is re-checked against its own
                // deadline at fan-out, and the rare case where the
                // shared sweep dies at the *leader's* deadline while a
                // longer-deadlined waiter still has budget is answered
                // with a retryable `overloaded`, never a spurious
                // `deadline`. Cap the list so one hot key cannot hold
                // unbounded memory.
                if entry.waiters.len() < inner.cfg.queue_cap {
                    entry.waiters.push(Waiter {
                        id: req.id,
                        accepted: now,
                        deadline,
                        degraded,
                        complete,
                    });
                    drop(inflight);
                    inner.counters.coalesced.inc();
                    trace::event("serve.coalesced");
                    return;
                }
            }
        }

        // Admission: reserve a queue slot or shed. The compare-exchange
        // loop keeps the bound exact under concurrent arrivals. Holding
        // the in-flight lock here is fine — it is never taken around a
        // sweep, only around table operations.
        let mut cur = inner.queued.load(Ordering::Relaxed);
        loop {
            if cur >= inner.cfg.queue_cap {
                drop(inflight);
                inner.counters.shed.inc();
                trace::event("serve.shed");
                let retry = inner.retry_after_ms();
                complete(Response::from_error(
                    &req.id,
                    &FlexclError::Overloaded {
                        queue_depth: cur,
                        capacity: inner.cfg.queue_cap,
                        retry_after_ms: retry,
                    },
                ));
                return;
            }
            match inner.queued.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(n) => cur = n,
            }
        }
        // This job owns the key's in-flight entry unless another leader
        // already does (a duplicate that could not park above) or it is
        // faulted (its answer must not fan out to clean waiters).
        let leader = coalescible
            && match inflight.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(InFlight { waiters: Vec::new() });
                    true
                }
            };
        inner.counters.inflight_keys.set(inflight.len() as i64);
        drop(inflight);

        inner.counters.queue_depth.add(1);
        let mut admit = trace::span("serve.admit");
        admit.attr_u64("depth", cur as u64);
        drop(admit);

        let shard = (key.0 as usize) % inner.shards.len();
        let job = Job {
            req,
            grid_used,
            degraded,
            deadline,
            accepted: now,
            key,
            family,
            leader,
            complete,
            span: trace::current_span_id(),
        };
        let sq = &inner.shards[shard];
        let mut q = sq.q.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
        sq.cv.notify_one();
    }

    /// Current counter values.
    pub fn counters(&self) -> CounterSnapshot {
        let c = &self.inner.counters;
        CounterSnapshot {
            received: c.received.get(),
            completed: c.completed.get(),
            shed: c.shed.get(),
            degraded: c.degraded.get(),
            deadline_expired: c.deadline_expired.get(),
            malformed: c.malformed.get(),
            failed: c.failed.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            coalesced: c.coalesced.get(),
            near_miss: c.near_miss.get(),
            analysis_hits: c.analysis_hits.get(),
            analysis_misses: c.analysis_misses.get(),
            persist_dropped: c.persist_dropped.get(),
        }
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::Relaxed)
    }

    /// The persistent cache, when one is configured (tests use this to
    /// corrupt entries in place).
    #[doc(hidden)]
    pub fn cache(&self) -> Option<&PersistentCache> {
        self.inner.cache.as_ref()
    }

    /// Stops the workers and joins them, then lets the cache writer
    /// finish the writes still queued. Jobs still queued are answered
    /// with an `overloaded` rejection by the draining workers before
    /// they exit.
    pub fn shutdown(mut self) -> CounterSnapshot {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for sq in &self.inner.shards {
            sq.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Closing the queue ends the writer once it has drained it.
        drop(lock(&self.inner.writes.queue).take());
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        self.counters()
    }
}

impl Inner {
    fn platform_tag(&self) -> &str {
        &self.cfg.platform.name
    }

    /// Retry-after hint: expected queue drain time from the service-time
    /// EWMA, floored at 1 ms so clients always back off.
    fn retry_after_ms(&self) -> u64 {
        let ewma_us = self.service_ewma_us.load(Ordering::Relaxed) >> 4;
        let depth = self.queued.load(Ordering::Relaxed) as u64;
        let workers = self.shards.len() as u64;
        (ewma_us * (depth + 1) / workers / 1000).max(1)
    }

    /// The cached payload of `key`: a write still on its way to disk,
    /// else the persistent cache's record.
    fn cached(&self, key: Key) -> Option<Vec<u8>> {
        let cache = self.cache.as_ref()?;
        let pending = lock(&self.writes.pending).get(&key).map(|(_, p)| p.to_vec());
        pending.or_else(|| cache.get(key))
    }

    /// Whether some cached entry, written or pending, has `family`.
    fn family_cached(&self, family: Key) -> bool {
        self.cache.as_ref().is_some_and(|c| c.family_present(family))
            || lock(&self.writes.pending).values().any(|(f, _)| *f == family)
    }

    /// Hands `payload` to the cache writer (a no-op without a cache).
    fn persist(&self, key: Key, family: Key, payload: &[u8]) {
        let queue = lock(&self.writes.queue);
        let Some(tx) = queue.as_ref() else { return };
        lock(&self.writes.pending).insert(key, (family, Arc::from(payload)));
        if tx.try_send(key).is_err() {
            lock(&self.writes.pending).remove(&key);
            self.counters.persist_dropped.inc();
        }
    }

    fn observe_service(&self, elapsed: Duration) {
        let us = (elapsed.as_micros() as u64) << 4;
        // EWMA with α = 1/8 in ×16 fixed point; racy updates only blur
        // the hint.
        let old = self.service_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { old - (old >> 3) + (us >> 3) };
        self.service_ewma_us.store(new, Ordering::Relaxed);
    }
}

/// The rejection for a request that raced server shutdown.
fn shutdown_response(id: &str) -> Response {
    Response::Err {
        id: id.to_string(),
        kind: "overloaded".to_string(),
        message: "server shut down before the request was served".to_string(),
        retry_after_ms: None,
        request_id: String::new(),
    }
}

/// The cache writer: makes each queued result durable, then stops serving
/// it from memory. Ends when the queue closes and is drained.
fn writer(inner: &Inner, queue: mpsc::Receiver<Key>) {
    let Some(cache) = &inner.cache else { return };
    for key in queue {
        let entry = lock(&inner.writes.pending).get(&key).cloned();
        if let Some((family, payload)) = entry {
            // Best-effort, like every cache write: a full disk must not
            // fail anything.
            let _ = cache.put(key, family, &payload);
            lock(&inner.writes.pending).remove(&key);
        }
    }
}

/// One worker: drain the owned shard, answer every job (and every
/// waiter parked on it).
fn worker(inner: &Inner, shard: usize) {
    let sq = &inner.shards[shard];
    loop {
        let job = {
            let mut q = sq.q.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = sq
                    .cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let Some(job) = job else { return };
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        inner.counters.queue_depth.add(-1);
        let response = if inner.shutdown.load(Ordering::SeqCst) {
            Response::Err {
                id: job.req.id.clone(),
                kind: "overloaded".to_string(),
                message: "server is shutting down".to_string(),
                retry_after_ms: None,
                request_id: String::new(),
            }
        } else {
            serve_job(inner, &job)
        };
        finish_job(inner, job, response);
    }
}

/// Counts one answered request and feeds the latency histogram.
fn account(inner: &Inner, response: &Response, accepted: Instant) {
    match response {
        Response::Ok { .. } => inner.counters.completed.inc(),
        Response::Err { kind, .. } if kind == "deadline" => {
            inner.counters.deadline_expired.inc();
        }
        // Only a coalesced waiter can reach here with `overloaded` (a
        // live waiter whose shared sweep died at the leader's deadline);
        // the direct shed path counts itself before completing.
        Response::Err { kind, .. } if kind == "overloaded" => inner.counters.shed.inc(),
        Response::Err { .. } => inner.counters.failed.inc(),
    }
    inner.counters.service_us.record(accepted.elapsed().as_micros() as u64);
}

/// Builds one waiter's answer from the leader's: an expired waiter gets
/// its own typed `deadline` rejection; otherwise the leader's result is
/// re-addressed — same summary bytes, same grid and cache disposition,
/// the waiter's own identity, degradation count, timing, and the
/// `coalesced` marker. Non-deadline leader errors fan out re-addressed
/// too (they are deterministic properties of the shared request
/// content); a leader *deadline* rejection is the one result a
/// still-live waiter must not inherit — the waiter's own budget has not
/// run out, so it gets a retryable `overloaded` instead.
fn waiter_response(inner: &Inner, leader: &Response, w: &Waiter, now: Instant) -> Response {
    if now >= w.deadline {
        return Response::from_error(
            &w.id,
            &FlexclError::Deadline {
                elapsed_ms: w.accepted.elapsed().as_millis() as u64,
                detail: "deadline expired while coalesced on an in-flight sweep".to_string(),
                stats: Default::default(),
            },
        );
    }
    match leader {
        Response::Ok { summary, grid_used, cache, .. } => Response::Ok {
            id: w.id.clone(),
            summary: summary.clone(),
            degraded: w.degraded,
            grid_used: grid_used.clone(),
            cache: *cache,
            elapsed_ms: w.accepted.elapsed().as_millis() as u64,
            coalesced: true,
            request_id: String::new(),
        },
        Response::Err { kind, .. } if kind == "deadline" => Response::from_error(
            &w.id,
            &FlexclError::Overloaded {
                queue_depth: inner.queued.load(Ordering::Relaxed),
                capacity: inner.cfg.queue_cap,
                retry_after_ms: inner.retry_after_ms(),
            },
        ),
        Response::Err { kind, message, retry_after_ms, .. } => Response::Err {
            id: w.id.clone(),
            kind: kind.clone(),
            message: message.clone(),
            retry_after_ms: *retry_after_ms,
            request_id: String::new(),
        },
    }
}

/// Completes a job: remove its in-flight entry (leaders only), answer
/// the leader, fan the result out to every parked waiter. Waiters are
/// answered after their entry is unlinked, so a fresh identical arrival
/// starts a new sweep instead of parking on a finished one.
fn finish_job(inner: &Inner, job: Job, response: Response) {
    let waiters = if job.leader {
        let mut inflight = inner.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let entry = inflight.remove(&job.key);
        inner.counters.inflight_keys.set(inflight.len() as i64);
        entry.map_or_else(Vec::new, |e| e.waiters)
    } else {
        Vec::new()
    };

    account(inner, &response, job.accepted);
    // Leader-only EWMA: a fanned-out answer is not a fresh observation
    // of compute cost, and letting near-zero waiter latencies drag the
    // average down would understate the retry-after hint.
    inner.observe_service(job.accepted.elapsed());

    let now = Instant::now();
    for w in waiters {
        let resp = waiter_response(inner, &response, &w, now);
        account(inner, &resp, w.accepted);
        (w.complete)(resp);
    }
    // The client may have given up; that is its right, not an error.
    (job.complete)(response);
}

/// Serves one admitted job: queued-deadline check, cache lookup,
/// compile, sweep under the cancellation token, persist.
fn serve_job(inner: &Inner, job: &Job) -> Response {
    let req = &job.req;
    // Worker-side root: explicit parent ties this back to the
    // connection thread's `serve.request` span, and keeping it open on
    // this thread's stack makes the pipeline spans below (frontend
    // parse, IR lowering, the sweep) implicit children.
    let mut exec_span = trace::span_with_parent("serve.exec", job.span);
    exec_span.attr_str("grid_used", &job.grid_used);
    let now = Instant::now();
    if now >= job.deadline {
        // Expired while queued: reject without burning compute on an
        // answer nobody is waiting for.
        trace::event("serve.deadline");
        return Response::from_error(
            &req.id,
            &FlexclError::Deadline {
                elapsed_ms: job.accepted.elapsed().as_millis() as u64,
                detail: "deadline expired while queued".to_string(),
                stats: Default::default(),
            },
        );
    }

    // submit_async cleared req.fault unless testhooks are enabled.
    let fault = req.fault;
    let key = job.key;

    // Cache lookup — skipped when a corruption fault is armed so the
    // request demonstrably computes and then damages its own entry.
    if fault != Some(RequestFault::CorruptCache) {
        if let Some(payload) = inner.cached(key) {
            if let Ok(summary) = SweepSummary::from_json(&String::from_utf8_lossy(&payload)) {
                inner.counters.cache_hits.inc();
                trace::event("serve.cache_hit");
                return Response::Ok {
                    id: req.id.clone(),
                    summary,
                    degraded: job.degraded,
                    grid_used: job.grid_used.clone(),
                    cache: CacheDisposition::Hit,
                    elapsed_ms: job.accepted.elapsed().as_millis() as u64,
                    coalesced: false,
                    request_id: String::new(),
                };
            }
            // Decoded bytes that fail the protocol parse count as
            // corruption too; fall through to recompute.
        }
    }
    inner.counters.cache_misses.inc();
    trace::event("serve.cache_miss");
    // A full-key miss whose family is resident is a near miss: some
    // other grid/objective of this kernel was served before, so the
    // sweep below should find its per-family analyses already settled
    // in the serve-scoped analysis cache.
    if inner.family_cached(job.family) {
        inner.counters.near_miss.inc();
        trace::event("serve.near_miss");
    }

    let prepared =
        match workload::prepare(&req.src, req.kernel.as_deref(), req.global, req.synthesis) {
            Ok(p) => p,
            Err(e) => return Response::from_error(&req.id, &e),
        };

    let grid = SweepGrid::by_name(&job.grid_used).unwrap_or_default();
    let opts = DseOptions {
        threads: req.threads.clamp(1, inner.cfg.max_sweep_threads.max(1)),
        prune: req.prune,
        fuel: match fault {
            Some(RequestFault::Fuel) => {
                ProfileFuel { step_limit: 1, trace_limit: 1, ..ProfileFuel::default() }
            }
            _ => ProfileFuel::default(),
        },
        inject: match fault {
            Some(RequestFault::Panic) => Some(InjectedFault::AnalysisPanic(None)),
            Some(RequestFault::EstimatePanic) => Some(InjectedFault::EstimatePanic(0)),
            _ => None,
        },
        ..DseOptions::default()
    };
    let cancel = CancelToken::at(job.deadline);
    let result = match flexcl_core::explore_space_cached(
        &prepared.func,
        &inner.cfg.platform,
        &prepared.workload,
        &grid,
        opts,
        Some(&cancel),
        &inner.analysis,
    ) {
        Ok(r) => r,
        Err(e) => return Response::from_error(&req.id, &e),
    };
    inner.counters.analysis_hits.add(result.stats.analysis_cache_hits);
    inner.counters.analysis_misses.add(result.stats.analysis_cache_misses);

    // A sweep where nothing survived is a typed rejection, not an empty
    // success: surface the dominant failure kind from the diagnostics.
    if result.points.is_empty() && !result.diagnostics.is_clean() {
        let first = &result.diagnostics.failed[0];
        return Response::Err {
            id: req.id.clone(),
            kind: first.kind.to_string(),
            message: format!(
                "all {} candidates failed ({}); first: {}",
                result.diagnostics.failed.len(),
                result.diagnostics.summary(),
                first.message
            ),
            retry_after_ms: None,
            request_id: String::new(),
        };
    }

    let summary = SweepSummary::of(&result);
    let payload = summary.to_json();
    match (&inner.cache, fault) {
        // The fault damages the request's own record, so that record is
        // written in place, over any clean write still pending.
        (Some(cache), Some(RequestFault::CorruptCache)) => {
            lock(&inner.writes.pending).remove(&key);
            let _ = cache.put(key, job.family, payload.as_bytes());
            cache.corrupt_entry_for_test(key);
        }
        _ => inner.persist(key, job.family, payload.as_bytes()),
    }
    Response::Ok {
        id: req.id.clone(),
        summary,
        degraded: job.degraded,
        grid_used: job.grid_used.clone(),
        cache: if inner.cache.is_some() { CacheDisposition::Miss } else { CacheDisposition::Off },
        elapsed_ms: job.accepted.elapsed().as_millis() as u64,
        coalesced: false,
        request_id: String::new(),
    }
}
