//! Property: cancellation at *any* chunk-claim boundary is safe and
//! leaves no fingerprint on later sweeps.
//!
//! `CancelToken::after_checkpoints(n)` deterministically reproduces "the
//! deadline fired at the n-th chunk boundary". For every trip point the
//! contract is:
//!
//! * a cancelled sweep returns the typed `FlexclError::Deadline` — never
//!   panics, never a truncated `Ok` — carrying partial `DseStats`
//!   bounded by the full sweep's totals;
//! * a fresh uncancelled sweep afterwards is bit-identical to the
//!   reference, i.e. cancellation cannot corrupt shared state (the
//!   analysis cache every sweep in this file shares, interned analyses);
//! * a token tripped *before* the first claim yields zero-point stats.

use flexcl_core::config::SweepGrid;
use flexcl_core::dse::CancelToken;
use flexcl_core::{
    explore_space_cached, AnalysisCache, DseOptions, DseResult, ErrorKind, FlexclError, Platform,
    Workload,
};
use flexcl_interp::KernelArg;
use flexcl_ir::Function;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (Function, Workload, Platform) {
    static F: OnceLock<(Function, Workload, Platform)> = OnceLock::new();
    F.get_or_init(|| {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let w = Workload {
            args: vec![
                KernelArg::FloatBuf(vec![1.0; 4096]),
                KernelArg::FloatBuf(vec![2.0; 4096]),
                KernelArg::FloatBuf(vec![0.0; 4096]),
            ],
            global: (4096, 1),
        };
        (f, w, Platform::virtex7_adm7v3())
    })
}

/// Small chunks so the standard grid spans many claim boundaries.
fn opts(threads: usize) -> DseOptions {
    DseOptions { threads, chunk_size: 8, ..DseOptions::default() }
}

/// Sweeps the fixture's standard grid through one analysis cache shared
/// by every sweep in this file, so a cancelled sweep's settled analyses
/// are what the next sweep reuses.
fn sweep(threads: usize, cancel: Option<&CancelToken>) -> Result<DseResult, FlexclError> {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    let (f, w, platform) = fixture();
    let cache = CACHE.get_or_init(AnalysisCache::new);
    explore_space_cached(f, platform, w, &SweepGrid::standard(), opts(threads), cancel, cache)
}

fn reference() -> &'static DseResult {
    static R: OnceLock<DseResult> = OnceLock::new();
    R.get_or_init(|| sweep(1, None).expect("reference"))
}

fn assert_points_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.points.len(), b.points.len(), "point counts differ");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.config, pb.config);
        assert_eq!(pa.estimate, pb.estimate, "{}", pa.config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trip the token at an arbitrary boundary, at various thread
    /// counts: typed error with sane partial stats, and the next
    /// uncancelled sweep is still bit-identical to the reference.
    #[test]
    fn cancelled_sweep_returns_partial_stats_and_leaves_no_residue(
        trip_after in 0u64..60,
        threads in proptest::sample::select(vec![1usize, 2, 4]),
    ) {
        let full = reference();
        let token = CancelToken::after_checkpoints(trip_after);
        let out = sweep(threads, Some(&token));
        match out {
            Err(FlexclError::Deadline { detail, stats, .. }) => {
                prop_assert!(token.is_cancelled());
                prop_assert_eq!(detail.as_str(), "cancelled");
                prop_assert!(stats.chunks_processed <= full.stats.chunks_processed,
                    "partial {} > full {}", stats.chunks_processed, full.stats.chunks_processed);
                prop_assert!(stats.points_evaluated <= full.stats.points_evaluated);
            }
            // A generous trip point can let the sweep finish; then it
            // must be the full, bit-identical result.
            Ok(result) => assert_points_identical(full, &result),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        // Cancellation must not poison shared state for the next caller.
        let rerun = sweep(threads, None).expect("uncancelled rerun");
        assert_points_identical(full, &rerun);
    }
}

#[test]
fn kind_is_deadline_and_error_kind_maps() {
    let token = CancelToken::after_checkpoints(0);
    let err = sweep(1, Some(&token)).expect_err("tripped before the first claim");
    assert_eq!(err.kind(), ErrorKind::Deadline);
    let FlexclError::Deadline { stats, .. } = err else { panic!("wrong variant: {err}") };
    assert_eq!(stats.points_evaluated, 0, "no chunk was claimed");
    assert_eq!(stats.chunks_processed, 0);
}

#[test]
fn explicit_cancel_stops_a_sweep_and_reports_cancelled() {
    let token = CancelToken::new();
    token.cancel();
    let err = sweep(2, Some(&token)).expect_err("pre-cancelled token");
    let FlexclError::Deadline { detail, .. } = &err else { panic!("wrong variant: {err}") };
    assert_eq!(detail, "cancelled");
}

#[test]
fn elapsed_deadline_reports_deadline_exceeded() {
    let token = CancelToken::with_deadline(std::time::Duration::ZERO);
    let err = sweep(1, Some(&token)).expect_err("already-expired deadline");
    let FlexclError::Deadline { detail, .. } = &err else { panic!("wrong variant: {err}") };
    assert_eq!(detail, "deadline exceeded");
}

#[test]
fn far_future_deadline_completes_identically() {
    let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
    let result = sweep(2, Some(&token)).expect("sweep under a generous deadline");
    assert_points_identical(reference(), &result);
    assert!(!token.is_cancelled());
}
