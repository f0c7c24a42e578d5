//! Sharded lock-free metrics: counters, gauges and log-bucketed
//! latency histograms behind a named registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones; the hot-path operations (`inc`, `add`, `set`, `record`) are
//! single relaxed atomic RMWs with no locking. Counters additionally
//! shard their cell across cache lines so concurrent writers on
//! different threads do not bounce one cache line between cores.
//!
//! A [`Registry`] maps names to handles. Registration takes a mutex
//! (it happens once per metric, off the hot path); reads via
//! [`Registry::snapshot`] are wait-free with respect to writers —
//! relaxed loads of monotone cells, so a snapshot is a consistent
//! *point-in-time-ish* view, never torn within one cell.
//!
//! Process-wide metrics live in [`global()`]; components that need
//! isolation (e.g. one server instance per test) own a `Registry` of
//! their own and merge its snapshot with the global one when exporting.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of cache-padded cells a [`Counter`] stripes across. Eight
/// covers every realistic worker count here (the DSE caps sweep threads
/// well below that of a big host) while keeping snapshot sums cheap.
const COUNTER_SHARDS: usize = 8;

/// Number of histogram buckets: one per possible bit length of a `u64`
/// sample (0 through 64).
pub const HIST_BUCKETS: usize = 65;

#[repr(align(64))]
#[derive(Debug)]
struct PaddedCell(AtomicU64);

/// A monotone event counter, striped across cache-padded shards.
#[derive(Debug, Clone)]
pub struct Counter(Arc<[PaddedCell; COUNTER_SHARDS]>);

/// Round-robin assignment of threads to counter shards. A thread keeps
/// its shard for life, so concurrent writers land on distinct cache
/// lines whenever there are at least as many shards as busy threads.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize =
            NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(std::array::from_fn(|_| PaddedCell(AtomicU64::new(0)))))
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins signed gauge (queue depths, in-flight counts).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` samples (latencies in ns or µs).
///
/// Bucket `i` holds every sample whose bit length is `i`: bucket 0 is
/// exactly `{0}`, bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`. Recording
/// is one relaxed `fetch_add` into the bucket plus count/sum upkeep —
/// no floating point, no locks. Percentiles come back as the upper
/// bound of the bucket holding the nearest-rank sample, so an extracted
/// percentile is always within one bucket of the exact order statistic.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCells>);

/// Index of the bucket that holds `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value a percentile lookup
/// reports for samples landing in that bucket).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Reads the histogram into an owned summary.
    pub fn summarize(&self) -> HistSummary {
        let buckets: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = buckets.iter().sum();
        HistSummary {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            p50: percentile_of(&buckets, count, 50.0),
            p95: percentile_of(&buckets, count, 95.0),
            p99: percentile_of(&buckets, count, 99.0),
        }
    }
}

/// Nearest-rank percentile over bucket counts: the upper bound of the
/// bucket containing the `⌈p/100·n⌉`-th smallest sample.
fn percentile_of(buckets: &[u64], count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(HIST_BUCKETS - 1)
}

/// Point-in-time reading of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median (upper bucket bound).
    pub p50: u64,
    /// 95th percentile (upper bucket bound).
    pub p95: u64,
    /// 99th percentile (upper bucket bound).
    pub p99: u64,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Registration is idempotent per name;
/// asking for an existing name returns a handle to the same cells.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry<T: Clone>(
        &self,
        name: &str,
        extract: impl Fn(&Metric) -> Option<T>,
        make: impl Fn() -> (T, Metric),
    ) -> T {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, m)) = inner.iter().find(|(n, _)| n == name) {
            if let Some(h) = extract(m) {
                return h;
            }
            panic!("metric `{name}` already registered with a different type");
        }
        let (h, m) = make();
        inner.push((name.to_string(), m));
        h
    }

    /// Registers (or retrieves) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.entry(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// Registers (or retrieves) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.entry(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// Registers (or retrieves) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.entry(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Reads every registered metric. Names come back sorted so the
    /// rendering is deterministic regardless of registration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = Snapshot::default();
        for (name, m) in inner.iter() {
            match m {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.summarize())),
            }
        }
        snap.counters.sort();
        snap.gauges.sort();
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// Process-wide registry: library-level metrics (DSE sweep counters,
/// eval-cache hit rates, `trace_dropped`) register here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time reading of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistSummary)>,
}

fn push_json_name(out: &mut String, name: &str) {
    out.push('"');
    for ch in name.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Snapshot {
    /// The value of the counter called `name`, if it was registered
    /// when the snapshot was taken.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The value of the gauge called `name`, if it was registered when
    /// the snapshot was taken.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,p50,p95,p99}}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_name(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_name(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_name(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.p50, h.p95, h.p99
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in a flat `name value` text exposition
    /// (one metric per line, histogram percentiles suffixed), suitable
    /// for scraping with standard line tools.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_p50 {}", h.p50);
            let _ = writeln!(out, "{name}_p95 {}", h.p95);
            let _ = writeln!(out, "{name}_p99 {}", h.p99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cells.
        r.counter("x").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        // p99 must land in the bucket of the max sample (1000 → bucket
        // 10, bound 1023).
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 5, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i));
            if i > 0 {
                assert!(v > bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn snapshot_renders_json_and_text() {
        let r = Registry::new();
        r.counter("a.b").add(2);
        r.gauge("g").set(-1);
        r.histogram("h").record(3);
        let s = r.snapshot();
        let j = s.to_json();
        assert!(j.contains("\"a.b\":2"), "{j}");
        assert!(j.contains("\"g\":-1"), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
        let t = s.to_text();
        assert!(t.contains("a.b 2\n"), "{t}");
        assert!(t.contains("h_p50 3\n"), "{t}");
    }
}
