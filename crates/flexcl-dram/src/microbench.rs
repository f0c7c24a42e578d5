//! Micro-benchmark profiling of per-pattern latencies.
//!
//! FlexCL obtains the `ΔT` column of Table 1 "through micro-benchmark
//! profiling" (§3.4). This module reproduces that flow against the DRAM
//! simulator: for each of the eight patterns it constructs a synthetic
//! request stream in which the accesses of interest are guaranteed to be
//! classified as that pattern, services the stream, and averages the
//! measured latencies.

use crate::config::DramConfig;
use crate::pattern::{Pattern, PatternTable};
use crate::sim::{DramSim, Request};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Number of measured accesses per pattern.
const SAMPLES: u64 = 256;

/// Process-wide memoization of [`profile`] results, keyed by the full DRAM
/// configuration. Profiling is deterministic per configuration, so the
/// first caller fills the entry and everyone else (including concurrent
/// DSE workers) reads the cached table.
static PROFILE_CACHE: OnceLock<Mutex<HashMap<DramConfig, PatternTable<f64>>>> = OnceLock::new();

/// Memoized [`profile`]: each distinct `DramConfig` is micro-benchmarked
/// once per process. A design-space sweep analyzes one kernel per
/// work-group size against the same platform, so this turns five identical
/// 2k-request profiling runs into one.
pub fn profile_cached(config: DramConfig) -> PatternTable<f64> {
    let cache = PROFILE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(table) = cache.lock().expect("profile cache poisoned").get(&config) {
        return *table;
    }
    // Profile outside the lock: concurrent first callers may race, but the
    // result is deterministic so double work is the only cost.
    let table = profile(config);
    *cache.lock().expect("profile cache poisoned").entry(config).or_insert(table)
}

/// Profiles all eight pattern latencies on `config`, returning the measured
/// `ΔT` table (in kernel cycles).
pub fn profile(config: DramConfig) -> PatternTable<f64> {
    let mut out = PatternTable::new();
    for p in Pattern::all() {
        out[p] = profile_pattern(config, p);
    }
    out
}

/// Measures the average latency of accesses classified as `target`.
pub fn profile_pattern(config: DramConfig, target: Pattern) -> f64 {
    let mut sim = DramSim::new(config);
    let bank_stride = config.interleave_bytes * u64::from(config.num_banks);
    // Two different rows of bank 0.
    let chunks_per_row = config.row_bytes / config.interleave_bytes;
    let row_a = 0u64;
    let row_b = chunks_per_row * bank_stride;

    let mut time = 0u64;
    let mut total = 0f64;
    let mut measured = 0u64;
    let mut toggle = false;

    // Prime the bank so the very first measured access sees `prev` state.
    let prime_kind = target.prev;
    sim.access(Request { addr: row_a, bytes: 4, kind: prime_kind, arrival: time });
    time += 200;

    for _ in 0..SAMPLES {
        // Arrange the row-buffer state.
        let addr = if target.hit {
            row_a
        } else {
            // Alternate rows so each access misses.
            toggle = !toggle;
            if toggle {
                row_b
            } else {
                row_a
            }
        };
        let info = sim.access(Request { addr, bytes: 4, kind: target.now, arrival: time });
        if info.pattern == target {
            total += (info.finish - info.start) as f64;
            measured += 1;
        }
        time = info.finish + 50;
        // Restore `prev` kind for the next sample when it differs.
        if target.now != target.prev {
            let fix = sim.access(Request {
                addr: if target.hit { row_a } else { addr },
                bytes: 4,
                kind: target.prev,
                arrival: time,
            });
            time = fix.finish + 50;
        }
    }
    if measured == 0 {
        return 0.0;
    }
    total / measured as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::analytic_latencies;

    #[test]
    fn every_pattern_is_measurable() {
        let table = profile(DramConfig::adm_pcie_7v3());
        for (p, v) in table.iter() {
            assert!(v > 0.0, "pattern {p} produced no measurement");
        }
    }

    #[test]
    fn profiled_matches_analytic_model() {
        // The simulator's service times derive from the analytic table, so
        // profiling must recover it exactly (same-row single-burst accesses).
        let cfg = DramConfig::adm_pcie_7v3();
        let profiled = profile(cfg);
        let analytic = analytic_latencies(&cfg.timing);
        for (p, v) in profiled.iter() {
            assert!(
                (v - analytic[p]).abs() < 1e-9,
                "{p}: profiled {v} vs analytic {}",
                analytic[p]
            );
        }
    }

    #[test]
    fn miss_patterns_slower_than_hit_patterns() {
        let table = profile(DramConfig::adm_pcie_7v3());
        for p in Pattern::all().into_iter().filter(|p| p.hit) {
            let miss = Pattern { hit: false, ..p };
            assert!(table[miss] > table[p]);
        }
    }

    #[test]
    fn cached_profile_matches_direct() {
        for cfg in [DramConfig::adm_pcie_7v3(), DramConfig::nas_120a_ku060()] {
            let direct = profile(cfg);
            let first = profile_cached(cfg);
            let second = profile_cached(cfg);
            for (p, v) in direct.iter() {
                assert_eq!(v, first[p], "{p}");
                assert_eq!(first[p], second[p], "{p}");
            }
        }
    }

    #[test]
    fn ku060_profile_differs_from_v7() {
        let v7 = profile(DramConfig::adm_pcie_7v3());
        let ku = profile(DramConfig::nas_120a_ku060());
        let differs = Pattern::all().iter().any(|p| (v7[*p] - ku[*p]).abs() > 1e-9);
        assert!(differs, "platforms must have distinct pattern tables");
    }
}
