//! Shared pieces of the benchmark: seeded randomness, percentiles, the
//! result digest, the metric record and its JSON rendering, and host
//! facts read from `/proc`.

use std::time::Duration;

/// SplitMix64: a small seeded generator, so every input the program sees
/// is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentile `p` (0–100) of `v` by the Harrell–Davis estimator: a
/// Beta-weighted mean of all order statistics. It reads the same
/// quantile as the plain sample percentile but moves much less when one
/// sample near it is noisy; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n <= 1 {
        return s.first().copied().unwrap_or(0.0);
    }
    let q = (p / 100.0).clamp(0.0, 1.0);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    if a <= 0.0 || b <= 0.0 {
        return if a <= 0.0 { s[0] } else { s[n - 1] };
    }
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in s.iter().enumerate() {
        let cdf = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// Regularized incomplete beta function I_x(a, b).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = G[0] + G[1..].iter().enumerate().map(|(i, g)| g / (x + (i + 1) as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it in a sample of `n`.
pub fn highest_valid_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).floor()
}

/// FNV-1a over result lines: order-independent because the lines are
/// sorted first, so a seeded visiting order never changes the digest.
pub fn digest(mut lines: Vec<String>) -> String {
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The metric values of one run by name; units live in the metric
/// tables of `main.rs`.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.push((name.to_string(), value));
    }

    /// Adds a latency percentile and prints how many samples it rests on,
    /// naming the highest percentile the sample supports when it has
    /// fewer than ten samples beyond `p`.
    pub fn add_percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        self.add(name, percentile(samples, p));
        self.note_percentile(name, samples.len(), p);
    }

    /// Prints the sample count behind percentile `p` of `name`.
    pub fn note_percentile(&self, name: &str, n: usize, p: f64) {
        let beyond = n as f64 * (1.0 - p / 100.0);
        let note = if beyond >= 10.0 || p <= 50.0 {
            String::new()
        } else {
            format!(
                "; fewer than 10 samples beyond p{p}, highest supported: p{}",
                highest_valid_percentile(n)
            )
        };
        println!("  {name}: n={n}, {beyond:.0} beyond{note}");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins glibc's mmap threshold at its default (128 KiB). Left dynamic,
/// the threshold rises the first time a large block is freed, after
/// which large blocks stay in the heap; in the multi-threaded server,
/// when that happens depends on thread timing, and it put the peak RSS
/// of identical `serve_mix` runs 30% apart. The sweep workloads keep the
/// dynamic threshold: pinned, their large short-lived buffers are mapped
/// and unmapped each time, which made them slower and noisier.
pub fn fix_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only adjusts allocator tuning; it runs before
        // the workload starts any thread.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

/// Resets the peak-RSS watermark to the current resident size, so
/// `VmHWM` covers only what runs after set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `setup` `reps` times from scratch, dropping each state before
/// building the next, and returns the last state with the median
/// set-up time in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t = std::time::Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_reads_the_expected_quantiles() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((percentile(&v, 50.0) - 51.0).abs() < 1e-9, "symmetric median");
        let p90 = percentile(&v, 90.0);
        assert!((p90 - 91.0).abs() < 0.5, "p90 {p90}");
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert!((percentile(&[7.0; 40], 99.0) - 7.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn digest_ignores_order() {
        let a = digest(vec!["x".into(), "y".into()]);
        assert_eq!(a, digest(vec!["y".into(), "x".into()]));
        assert_ne!(a, digest(vec!["x".into(), "z".into()]));
    }
}
