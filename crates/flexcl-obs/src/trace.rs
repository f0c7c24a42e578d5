//! Span-based structured tracing with a bounded, non-blocking JSONL
//! sink.
//!
//! The tracer is process-global and off by default. Every span site
//! first reads one relaxed [`AtomicBool`]; while tracing is disabled
//! that load-and-branch is the *entire* cost, so instrumentation can
//! stay in hot paths permanently. [`install`] points the tracer at a
//! writer (a file, stderr, or an in-memory buffer in tests) and flips
//! the flag; [`shutdown`] drains and joins the writer thread.
//!
//! A span is recorded as **one JSONL object at close**:
//!
//! ```json
//! {"id":7,"parent":3,"name":"dse.sweep","t_start_ns":10543,"dur_ns":81213,
//!  "thread":2,"attrs":{"kernel":"vadd","points":121600}}
//! ```
//!
//! `t_start_ns` is monotonic (an [`Instant`] epoch fixed at install
//! time), `id` is unique per process, and `parent` is `0` for roots.
//! Parenting is implicit within one thread — spans nest via a
//! thread-local stack — and explicit across threads: a fan-out site
//! captures [`current_span_id`] and hands it to workers, which open
//! their spans with [`span_with_parent`]. Sampled sites
//! ([`span_sampled`]) keep only one span in N (set at install), which
//! is what keeps per-chunk tracing affordable inside a sweep that
//! claims tens of thousands of chunks.
//!
//! Events are never silently lost: the channel to the writer thread is
//! bounded and sends never block, so overflow — or a writer I/O error —
//! increments the global `trace_dropped` counter surfaced by every
//! metrics snapshot instead of stalling the traced hot path.

use crate::metrics;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the span channel between traced threads and the writer.
/// At ~200 bytes per record this bounds sink memory near 13 MB while
/// riding out multi-millisecond writer stalls at full DSE throughput.
const CHANNEL_CAP: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);
static SAMPLE_N: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct SinkState {
    tx: SyncSender<String>,
    drain: std::thread::JoinHandle<()>,
}

fn sink() -> &'static Mutex<Option<SinkState>> {
    static SINK: OnceLock<Mutex<Option<SinkState>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// The process-wide count of trace records lost to sink overflow or
/// writer errors. Registered in [`metrics::global`] as `trace_dropped`.
pub fn dropped_counter() -> &'static metrics::Counter {
    static DROPPED: OnceLock<metrics::Counter> = OnceLock::new();
    DROPPED.get_or_init(|| metrics::global().counter("trace_dropped"))
}

/// Installs the tracer: spans flow to `writer` as JSONL, keeping one
/// sampled-site span in `sample_n` (≥ 1). Returns `false` (and changes
/// nothing) if a tracer is already installed — callers own the
/// install/[`shutdown`] pairing.
pub fn install(writer: Box<dyn Write + Send>, sample_n: u64) -> bool {
    let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return false;
    }
    epoch(); // fix the monotonic origin before any span can start
    SAMPLE_N.store(sample_n.max(1), Ordering::Relaxed);
    let (tx, rx) = sync_channel::<String>(CHANNEL_CAP);
    let drain = std::thread::Builder::new()
        .name("flexcl-trace".into())
        .spawn(move || {
            // One write per record, unbuffered: the writer runs off the
            // hot path, and per-line writes keep `trace_dropped`
            // accounting exact when the sink starts failing.
            let mut w = writer;
            for line in rx {
                if w.write_all(line.as_bytes()).is_err() {
                    dropped_counter().inc();
                }
            }
            let _ = w.flush();
        })
        .expect("spawn trace writer thread");
    *guard = Some(SinkState { tx, drain });
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Disables tracing, drains buffered spans to the writer and joins the
/// writer thread. A no-op when no tracer is installed.
pub fn shutdown() {
    let state = {
        let mut guard = sink().lock().unwrap_or_else(|e| e.into_inner());
        ENABLED.store(false, Ordering::Relaxed);
        guard.take()
    };
    if let Some(SinkState { tx, drain }) = state {
        drop(tx); // closes the channel; the drain loop ends and flushes
        let _ = drain.join();
    }
}

/// Whether a tracer is currently installed. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Pauses or resumes emission without tearing down the sink: flips the
/// same relaxed flag the disabled fast path checks, so a paused tracer
/// costs exactly what an uninstalled one does. Spans already open keep
/// recording until they close. A no-op when no tracer is installed
/// (`span` would find no sink to send to, so the flag stays false).
pub fn set_enabled(on: bool) {
    let guard = sink().lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

thread_local! {
    static STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The id of the innermost open span on this thread (`0` if none).
/// Capture this before fanning work out to other threads and pass it
/// to [`span_with_parent`] there.
pub fn current_span_id() -> u64 {
    if !enabled() {
        return 0;
    }
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

struct SpanData {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    attrs: String,
}

/// An open span. Dropping it closes the span and emits its record.
/// A span from a disabled or sampled-out site is inert: creation is a
/// branch, drop is a branch.
pub struct Span(Option<SpanData>);

fn open(name: &'static str, parent: u64) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanData { id, parent, name, start, start_ns, attrs: String::new() }))
}

/// Opens a span parented on the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(name, current_span_id())
}

/// Opens a span with an explicit parent id (cross-thread edges; pass
/// `0` for a root).
#[inline]
pub fn span_with_parent(name: &'static str, parent: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(name, parent)
}

/// Opens a span at a sampled site: only one call in N (the rate given
/// to [`install`]) produces a live span; the rest are inert. Children
/// created under a sampled-out span attach to its parent instead.
#[inline]
pub fn span_sampled(name: &'static str, parent: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let n = SAMPLE_N.load(Ordering::Relaxed);
    if n > 1 && !SAMPLE_TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(n) {
        return Span(None);
    }
    open(name, parent)
}

/// Emits an instant event (a zero-duration span) parented on the
/// innermost open span of this thread.
pub fn event(name: &'static str) {
    drop(span(name));
}

impl Span {
    /// This span's id (`0` when the span is inert), for explicit
    /// parenting across threads.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |d| d.id)
    }

    /// Whether this span will emit a record when closed.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    fn push_key(attrs: &mut String, key: &str) {
        if !attrs.is_empty() {
            attrs.push(',');
        }
        attrs.push('"');
        attrs.push_str(key); // keys are static identifiers, no escaping
        attrs.push_str("\":");
    }

    /// Attaches a string attribute (escaped on write).
    pub fn attr_str(&mut self, key: &str, value: &str) {
        if let Some(d) = self.0.as_mut() {
            Self::push_key(&mut d.attrs, key);
            d.attrs.push('"');
            for ch in value.chars() {
                match ch {
                    '"' => d.attrs.push_str("\\\""),
                    '\\' => d.attrs.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        use std::fmt::Write as _;
                        let _ = write!(d.attrs, "\\u{:04x}", c as u32);
                    }
                    c => d.attrs.push(c),
                }
            }
            d.attrs.push('"');
        }
    }

    /// Attaches an integer attribute.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        if let Some(d) = self.0.as_mut() {
            use std::fmt::Write as _;
            Self::push_key(&mut d.attrs, key);
            let _ = write!(d.attrs, "{value}");
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.0.take() else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own id; tolerate out-of-order drops from panics.
            if let Some(pos) = stack.iter().rposition(|&x| x == d.id) {
                stack.remove(pos);
            }
        });
        let dur_ns = d.start.elapsed().as_nanos() as u64;
        let mut line = String::with_capacity(96 + d.attrs.len());
        {
            use std::fmt::Write as _;
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"t_start_ns\":{},\"dur_ns\":{}",
                d.id, d.parent, d.name, d.start_ns, dur_ns
            );
            if !d.attrs.is_empty() {
                let _ = write!(line, ",\"attrs\":{{{}}}", d.attrs);
            }
            line.push_str("}\n");
        }
        let guard = sink().lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(state) => match state.tx.try_send(line) {
                Ok(()) => {}
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                    dropped_counter().inc();
                }
            },
            // Tracer shut down between our open and close.
            None => dropped_counter().inc(),
        }
    }
}

#[cfg(test)]
pub(crate) mod testsupport {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// A `Write` handing bytes to a shared buffer, for asserting on
    /// emitted JSONL in tests.
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serializes tests that install the (process-global) tracer.
    pub fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::testsupport::{tracer_lock, SharedBuf};
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = tracer_lock();
        assert!(!enabled());
        let mut s = span("noop");
        s.attr_u64("k", 1);
        assert_eq!(s.id(), 0);
        assert!(!s.is_live());
        drop(s);
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn spans_nest_and_emit_jsonl() {
        let _guard = tracer_lock();
        let buf = SharedBuf::default();
        assert!(install(Box::new(buf.clone()), 1));
        {
            let mut root = span("root");
            root.attr_str("kernel", "va\"dd");
            let root_id = root.id();
            assert!(root_id != 0);
            {
                let child = span("child");
                assert_eq!(current_span_id(), child.id());
            }
            assert_eq!(current_span_id(), root_id);
        }
        shutdown();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        // Children close first.
        assert!(lines[0].contains("\"name\":\"child\""), "{text}");
        assert!(lines[1].contains("\"name\":\"root\""), "{text}");
        assert!(lines[1].contains("\\\"dd"), "escaped attr: {text}");
        // The child's parent is the root's id.
        let root_id: u64 =
            lines[1].split("\"id\":").nth(1).unwrap().split(',').next().unwrap().parse().unwrap();
        assert!(lines[0].contains(&format!("\"parent\":{root_id}")), "{text}");
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let _guard = tracer_lock();
        let buf = SharedBuf::default();
        assert!(install(Box::new(buf.clone()), 4));
        for _ in 0..16 {
            drop(span_sampled("chunk", 0));
        }
        shutdown();
        assert_eq!(buf.contents().lines().count(), 4, "{}", buf.contents());
    }

    #[test]
    fn second_install_is_rejected() {
        let _guard = tracer_lock();
        let buf = SharedBuf::default();
        assert!(install(Box::new(buf.clone()), 1));
        assert!(!install(Box::new(buf.clone()), 1));
        shutdown();
    }
}
