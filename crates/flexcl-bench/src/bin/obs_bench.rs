//! `obs_bench` — observability overhead measurement, emitting
//! `BENCH_obs.json`.
//!
//! ```text
//! obs_bench [--reps N] [--threads N] [--serve-requests N] [--trace-sample N] [--out PATH]
//! obs_bench --check PATH [--max-overhead-pct X] [--max-disabled-pct X]
//! ```
//!
//! Four rows:
//!
//! 1. **span_disabled** — ns/op of opening+dropping a span with no
//!    tracer armed (the cost every instrumented call site pays in a
//!    production run with tracing off: one relaxed atomic load).
//! 2. **sweep_off** / **sweep_trace** — fine-grid vadd sweep throughput
//!    with tracing disabled vs enabled. The two are measured *paired*:
//!    each rep times one disabled and one enabled sweep back-to-back
//!    (via `trace::set_enabled`, whose paused state runs the exact
//!    disabled fast path), because an unpaired A-then-B comparison
//!    drifts more than the real overhead on small hosts. The pairs run
//!    ABBA — off first in even pairs, on first in odd ones — so a drift
//!    within a pair favours neither side. The sink is a line-counting
//!    null writer, so disk speed is not measured. Each side's
//!    `configs_per_sec` is its median rep; `sweep_trace.overhead_pct` is
//!    the median of the per-pair throughput losses and
//!    `overhead_iqr_pct` their interquartile range. A truly
//!    uninstrumented build does not exist in this binary, so
//!    `sweep_off.overhead_pct` is *derived*: disabled-span ns/op × spans
//!    per point as a fraction of the per-point budget.
//! 3. **serve_trace** — client-observed p50/p99 and req/s of a steady
//!    cache-warm request stream with tracing on.
//!
//! `--check` validates schema keys on every row and gates the median
//! `sweep_trace.overhead_pct` (default ceiling 5%) and the derived
//! `sweep_off.overhead_pct` (default ceiling 1%).

use flexcl_bench::record::{self, flag_value, Row, Value};
use flexcl_core::{explore_space_cached, AnalysisCache, DseOptions, Platform, SweepGrid, Workload};
use flexcl_interp::KernelArg;
use flexcl_serve::server::ServerConfig;
use flexcl_serve::Server;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A trace sink that counts emitted lines and discards the bytes, so the
/// overhead rows measure the tracer, not the disk.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.iter().filter(|&&b| b == b'\n').count() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct ObsRow {
    mode: &'static str,
    kernel: &'static str,
    grid: &'static str,
    points: u64,
    threads: usize,
    reps: usize,
    configs_per_sec: f64,
    /// sweep_trace: median per-pair loss vs sweep_off. sweep_off: derived
    /// disabled-path cost. Other rows: 0.
    overhead_pct: f64,
    /// sweep_trace: interquartile range of the per-pair losses. Other
    /// rows: 0.
    overhead_iqr_pct: f64,
    span_ns: f64,
    spans_emitted: u64,
    trace_dropped: u64,
    p50_ms: f64,
    p99_ms: f64,
    requests_per_sec: f64,
    host_cores: usize,
}

impl ObsRow {
    fn blank(mode: &'static str) -> ObsRow {
        ObsRow {
            mode,
            kernel: "",
            grid: "",
            points: 0,
            threads: 0,
            reps: 0,
            configs_per_sec: 0.0,
            overhead_pct: 0.0,
            overhead_iqr_pct: 0.0,
            span_ns: 0.0,
            spans_emitted: 0,
            trace_dropped: 0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            requests_per_sec: 0.0,
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn vadd() -> (flexcl_ir::Function, Workload) {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
            int i = get_global_id(0);
            c[i] = a[i] + b[i];
        }",
    )
    .expect("vadd frontend");
    let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("vadd lowering");
    let w = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; 4096]),
            KernelArg::FloatBuf(vec![2.0; 4096]),
            KernelArg::FloatBuf(vec![0.0; 4096]),
        ],
        global: (4096, 1),
    };
    (f, w)
}

/// ns/op of the disabled-span fast path: open + drop with no tracer.
fn bench_disabled_span() -> f64 {
    const ITERS: u64 = 20_000_000;
    // Warm the branch predictor / icache before timing.
    for _ in 0..100_000 {
        std::hint::black_box(flexcl_obs::span("obs.noop"));
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(flexcl_obs::span("obs.noop"));
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Fine-grid sweeps timed as one sample: a single sweep lasts well under
/// a scheduler hiccup on a small shared host, so one sample spans
/// several.
const SWEEPS_PER_SAMPLE: u32 = 4;

/// The throughput of [`SWEEPS_PER_SAMPLE`] back-to-back fine-grid
/// sweeps: (points per sweep, configs/s). Analyses are reused from
/// `cache`.
fn bench_sweep(
    func: &flexcl_ir::Function,
    workload: &Workload,
    threads: usize,
    cache: &AnalysisCache,
) -> (u64, f64) {
    let platform = Platform::virtex7_adm7v3();
    let grid = SweepGrid::fine();
    let opts = DseOptions { threads, ..DseOptions::default() };
    let mut points = 0u64;
    let start = Instant::now();
    for _ in 0..SWEEPS_PER_SAMPLE {
        let res = explore_space_cached(func, &platform, workload, &grid, opts, None, cache)
            .expect("obs sweep");
        points = res.points.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (points, f64::from(SWEEPS_PER_SAMPLE) * points as f64 / secs.max(1e-9))
}

/// `(first quartile, median, third quartile)` of `v`, interpolating
/// linearly between order statistics; zeros for an empty sample.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let Some(last) = s.len().checked_sub(1) else { return 0.0 };
        let pos = q * last as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Blocks until the trace drain thread has caught up: the emitted-line
/// counter is only bumped when a span is written to the sink, and on
/// small hosts the drain lags the sweep workers considerably.
fn settled_line_count(lines: &AtomicU64) -> u64 {
    let mut prev = lines.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let cur = lines.load(Ordering::Relaxed);
        if cur == prev {
            return cur;
        }
        prev = cur;
    }
}

/// Steady cache-warm serve traffic with tracing on: (p50 ms, p99 ms, req/s).
fn bench_serve(total: usize) -> (f64, f64, f64) {
    let (server, _) = Server::start(ServerConfig {
        workers: 2,
        queue_cap: 256,
        degrade_at: usize::MAX,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    })
    .expect("start serve");
    let server = Arc::new(server);
    let frames: Vec<String> = (0..4)
        .map(|i| {
            format!(
                r#"{{"id":"w{i}","src":"__kernel void k{i}(__global float* a) {{ int i = get_global_id(0); a[i] = a[i] * {}.0f; }}","global":1024}}"#,
                i + 1
            )
        })
        .collect();
    for f in &frames {
        let resp = server.handle_frame(f);
        assert_eq!(resp.kind(), "ok", "warm-up failed: {}", resp.to_json());
    }
    let frames = Arc::new(frames);
    let next = Arc::new(AtomicUsize::new(0));
    let clients = 4;
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let frames = Arc::clone(&frames);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return lat;
                    }
                    let t = Instant::now();
                    let _ = server.handle_frame(&frames[i % frames.len()]);
                    lat.push(t.elapsed().as_secs_f64() * 1000.0);
                }
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let rps = latencies.len() as f64 / elapsed.max(1e-9);
    let out = (pct(0.50), pct(0.99), rps);
    Arc::into_inner(server).expect("sole handle").shutdown();
    out
}

/// The keys of a BENCH_obs.json row, in emission order.
const BENCH_KEYS: [&str; 16] = [
    "mode",
    "kernel",
    "grid",
    "points",
    "threads",
    "reps",
    "configs_per_sec",
    "overhead_pct",
    "overhead_iqr_pct",
    "span_ns",
    "spans_emitted",
    "trace_dropped",
    "p50_ms",
    "p99_ms",
    "requests_per_sec",
    "host_cores",
];

impl ObsRow {
    /// This row's values, in [`BENCH_KEYS`] order.
    fn values(&self) -> [Value<'_>; 16] {
        let int = |n: usize| Value::Int(n as u64);
        [
            Value::Str(self.mode),
            Value::Str(self.kernel),
            Value::Str(self.grid),
            Value::Int(self.points),
            int(self.threads),
            int(self.reps),
            Value::Float(self.configs_per_sec, 1),
            Value::Float(self.overhead_pct, 3),
            Value::Float(self.overhead_iqr_pct, 3),
            Value::Float(self.span_ns, 2),
            Value::Int(self.spans_emitted),
            Value::Int(self.trace_dropped),
            Value::Float(self.p50_ms, 3),
            Value::Float(self.p99_ms, 3),
            Value::Float(self.requests_per_sec, 1),
            int(self.host_cores),
        ]
    }
}

/// Prints the rows and writes them to `out` (default: repo-root
/// `BENCH_obs.json`).
fn write_rows(rows: &[ObsRow], out: Option<&str>) {
    for r in rows {
        match r.mode {
            "span_disabled" => println!("  span_disabled  {:.2} ns/op", r.span_ns),
            "serve_trace" => println!(
                "  serve_trace    p50={:.2}ms p99={:.2}ms  {:.0} req/s",
                r.p50_ms, r.p99_ms, r.requests_per_sec
            ),
            _ => println!(
                "  {:<14} {:>9.0} configs/s  overhead={:+.2}% (IQR {:.2})  spans={} dropped={}",
                r.mode,
                r.configs_per_sec,
                r.overhead_pct,
                r.overhead_iqr_pct,
                r.spans_emitted,
                r.trace_dropped
            ),
        }
    }
    let values: Vec<_> = rows.iter().map(ObsRow::values).collect();
    record::write("BENCH_obs.json", out, &BENCH_KEYS, &values);
}

/// The BENCH_obs.json gates: the four modes present, median traced-sweep
/// overhead at most `max_pct` with a finite interquartile range and a
/// positive throughput, derived
/// disabled-path overhead at most `max_disabled_pct`, and a live serve
/// row.
fn gate(rows: &[Row], max_pct: f64, max_disabled_pct: f64) -> Result<(), String> {
    for row in rows {
        match row.str("mode") {
            "sweep_off" => {
                let pct = row.num("overhead_pct")?;
                if !pct.is_finite() || pct > max_disabled_pct {
                    return Err(format!(
                        "sweep_off: derived disabled-path overhead {pct:.3}% exceeds \
                         the {max_disabled_pct}% ceiling"
                    ));
                }
            }
            "sweep_trace" => {
                let pct = row.num("overhead_pct")?;
                if !pct.is_finite() || pct > max_pct {
                    return Err(format!(
                        "sweep_trace: median traced-sweep overhead {pct:.2}% exceeds the \
                         {max_pct}% ceiling"
                    ));
                }
                let iqr = row.num("overhead_iqr_pct")?;
                if !iqr.is_finite() || iqr < 0.0 {
                    return Err(format!("sweep_trace: overhead_iqr_pct = {iqr}"));
                }
                let cps = row.num("configs_per_sec")?;
                if !cps.is_finite() || cps <= 0.0 {
                    return Err(format!("sweep_trace: configs_per_sec = {cps}"));
                }
            }
            "serve_trace" => {
                let p99 = row.num("p99_ms")?;
                let rps = row.num("requests_per_sec")?;
                if !p99.is_finite() || p99 <= 0.0 || !rps.is_finite() || rps <= 0.0 {
                    return Err(format!("serve_trace: p99_ms = {p99}, requests_per_sec = {rps}"));
                }
            }
            _ => {}
        }
    }
    for required in ["span_disabled", "sweep_off", "sweep_trace", "serve_trace"] {
        if !rows.iter().any(|r| r.str("mode") == required) {
            return Err(format!("missing the `{required}` row"));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag_value(&args, "--check") {
        let max_pct = flag_value(&args, "--max-overhead-pct")
            .map_or(5.0, |v| v.parse().expect("bad --max-overhead-pct"));
        let max_disabled = flag_value(&args, "--max-disabled-pct")
            .map_or(1.0, |v| v.parse().expect("bad --max-disabled-pct"));
        record::run_check(path, &BENCH_KEYS, |rows| gate(rows, max_pct, max_disabled));
        return;
    }
    let parse = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag).map_or(default, |v| v.parse().expect("bad flag value"))
    };
    // Off/on pairs. Nine keep the median steady to about a point on a
    // 2-vCPU host, where single pairs spread ±5%.
    let reps = parse("--reps", 9).max(1);
    // Oversubscribing a small host adds scheduler noise the paired
    // design cannot cancel, so default to what the host actually has.
    let threads =
        parse("--threads", std::thread::available_parallelism().map_or(1, |n| n.get()).min(4));
    let serve_requests = parse("--serve-requests", 2_000);
    let sample = parse("--trace-sample", 1).max(1) as u64;

    // 1. Disabled-path microbench — must run before the tracer is armed.
    println!("disabled-span microbench…");
    let span_ns = bench_disabled_span();
    let mut r_span = ObsRow::blank("span_disabled");
    r_span.span_ns = span_ns;

    // 2 + 3. Paired off/on sweeps. An unpaired A-then-B comparison is
    // hopeless on small noisy hosts (run-to-run swing dwarfs the real
    // overhead), so the tracer is installed up front, toggled with
    // `set_enabled` — a paused tracer runs the exact disabled fast
    // path — and each rep times one disabled and one enabled sweep
    // back-to-back, in ABBA order. The median of the per-pair losses
    // is the estimate: the minimum would keep the pair where noise
    // favoured tracing most.
    println!("paired fine-grid sweeps, tracing off/on 1-in-{sample} ({reps} reps each)…");
    let (func, workload) = vadd();
    let lines = Arc::new(AtomicU64::new(0));
    assert!(
        flexcl_obs::trace::install(Box::new(CountingSink(Arc::clone(&lines))), sample),
        "tracer already installed"
    );
    flexcl_obs::trace::set_enabled(false);
    // One analysis cache, warmed here, serves every off/on rep.
    let cache = AnalysisCache::new();
    let _ = bench_sweep(&func, &workload, threads, &cache);
    let mut points = 0u64;
    let (mut offs, mut ons, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..reps {
        let mut timed = |traced: bool| {
            flexcl_obs::trace::set_enabled(traced);
            let (p, cps) = bench_sweep(&func, &workload, threads, &cache);
            points = p;
            cps
        };
        let (off, on) = if pair % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        offs.push(off);
        ons.push(on);
        losses.push((off / on.max(1e-9) - 1.0) * 100.0);
    }
    let (cps_off, cps_trace) = (quartiles(&offs).1, quartiles(&ons).1);
    let (q1, median_loss, q3) = quartiles(&losses);
    // Let the drain catch up, then snapshot before the serve phase so
    // sweep span accounting is not polluted by request spans.
    let sweep_spans = settled_line_count(&lines);
    let mut r_off = ObsRow::blank("sweep_off");
    r_off.kernel = "vadd";
    r_off.grid = "fine";
    r_off.points = points;
    r_off.threads = threads;
    r_off.reps = reps;
    r_off.configs_per_sec = cps_off;
    let mut r_trace = ObsRow::blank("sweep_trace");
    r_trace.kernel = "vadd";
    r_trace.grid = "fine";
    r_trace.points = points;
    r_trace.threads = threads;
    r_trace.reps = reps;
    r_trace.configs_per_sec = cps_trace;
    r_trace.overhead_pct = median_loss;
    r_trace.overhead_iqr_pct = q3 - q1;

    // 4. Serve latency with tracing on.
    flexcl_obs::trace::set_enabled(true);
    println!("serve steady phase with tracing on ({serve_requests} requests)…");
    let (p50, p99, rps) = bench_serve(serve_requests);
    let mut r_serve = ObsRow::blank("serve_trace");
    r_serve.p50_ms = p50;
    r_serve.p99_ms = p99;
    r_serve.requests_per_sec = rps;

    flexcl_obs::trace::shutdown();
    r_trace.spans_emitted = sweep_spans;
    r_trace.trace_dropped = flexcl_obs::trace::dropped_counter().get();

    // Derived disabled-path overhead: every emitted span corresponds to
    // one disabled-path call site hit, so spans-per-point × disabled
    // ns/op bounds what the instrumentation costs when tracing is off.
    let spans_per_point = sweep_spans as f64 / (points.max(1) as f64 * reps as f64);
    let ns_per_point_off = 1e9 / cps_off.max(1e-9);
    r_off.overhead_pct = span_ns * spans_per_point / ns_per_point_off * 100.0;
    r_off.span_ns = span_ns;

    write_rows(&[r_span, r_off, r_trace, r_serve], flag_value(&args, "--out"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_rows_render_like_the_committed_file() {
        let row = ObsRow {
            kernel: "vadd",
            grid: "fine",
            points: 364_800,
            threads: 2,
            reps: 9,
            configs_per_sec: 4_604_361.8,
            overhead_pct: 2.092,
            overhead_iqr_pct: 14.026,
            spans_emitted: 17011,
            host_cores: 2,
            ..ObsRow::blank("sweep_trace")
        };
        assert_eq!(
            record::render_row(&BENCH_KEYS, &row.values()),
            r#"{"mode": "sweep_trace", "kernel": "vadd", "grid": "fine", "points": 364800, "threads": 2, "reps": 9, "configs_per_sec": 4604361.8, "overhead_pct": 2.092, "overhead_iqr_pct": 14.026, "span_ns": 0.00, "spans_emitted": 17011, "trace_dropped": 0, "p50_ms": 0.000, "p99_ms": 0.000, "requests_per_sec": 0.0, "host_cores": 2}"#
        );
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[-2.0]), (-2.0, -2.0, -2.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn the_committed_file_passes_the_check() {
        let body = include_str!("../../../../BENCH_obs.json");
        let rows = record::parse_rows(body, &BENCH_KEYS).expect("committed file parses");
        assert_eq!(gate(&rows, 5.0, 1.0), Ok(()));
        assert_eq!(gate(&rows[..3], 5.0, 1.0), Err("missing the `serve_trace` row".to_string()));
    }
}
