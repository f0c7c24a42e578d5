//! Spans the benchmark records around each call into a layer: a name and
//! a duration, kept in memory until the run ends. With tracing off,
//! opening a span is one relaxed load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<(&'static str, Duration)>> = Mutex::new(Vec::new());

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name`, or returns `None` when tracing is off.
pub fn span(name: &'static str) -> Option<Span> {
    ENABLED.load(Ordering::Relaxed).then(|| Span { name, start: Instant::now() })
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push((self.name, dur));
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Durations of the spans named `name`, in milliseconds.
pub fn durations_ms(name: &str) -> Vec<f64> {
    SPANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .collect()
}
