//! Property: the chunked work-stealing sweep is a pure function of the
//! schedule order — never of thread count or timing.
//!
//! The DSE engine claims fixed-size chunks from an atomic counter and
//! prunes against a racy shared incumbent, then runs a deterministic
//! replay pass that re-derives every pruning decision from the prefix
//! incumbent. These properties pin the contract down:
//!
//! * with pruning **off**, the explored points are bit-identical to the
//!   serial exhaustive sweep at *any* thread count and chunk size;
//! * with pruning **on**, the survivor set is a function of the chunk
//!   size alone — threads ∈ {2, 4, 8} reproduce the threads = 1 sweep
//!   bit for bit — and `best()` always matches the exhaustive sweep;
//! * either way the points come back as a subsequence of
//!   `ConfigSpace::iter()` order, repaired chunks included;
//! * a failed candidate leaves a hole that the in-place compaction of the
//!   sweep output closes without disturbing any other point.

use flexcl_core::dse::testhook::InjectedFault;
use flexcl_core::{
    explore_space_cached, limits_for, AnalysisCache, ConfigSpace, DseOptions, DseResult, Platform,
    SweepGrid, Workload,
};
use flexcl_interp::KernelArg;
use flexcl_ir::Function;
use proptest::prelude::*;
use std::sync::OnceLock;

/// vadd has no barrier, so its space spans both communication modes and
/// every vector width — the richest pruning surface the standard grid
/// offers.
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

/// Sweeps `grid` through one analysis cache shared by every sweep in
/// this file, which keeps the per-case sweeps cheap.
fn sweep_grid(
    f: &Function,
    platform: &Platform,
    w: &Workload,
    grid: &SweepGrid,
    opts: DseOptions,
) -> DseResult {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    let cache = CACHE.get_or_init(AnalysisCache::new);
    explore_space_cached(f, platform, w, grid, opts, None, cache).expect("sweep")
}

/// The serial exhaustive reference every case compares against. Computed
/// once.
fn serial_exhaustive() -> &'static DseResult {
    static R: OnceLock<DseResult> = OnceLock::new();
    R.get_or_init(|| sweep(1, 0, false))
}

fn sweep(threads: usize, chunk_size: usize, prune: bool) -> DseResult {
    sweep_with(threads, chunk_size, prune, None)
}

fn sweep_with(
    threads: usize,
    chunk_size: usize,
    prune: bool,
    inject: Option<InjectedFault>,
) -> DseResult {
    let (f, w, platform) = fixture();
    let opts = DseOptions { threads, chunk_size, prune, inject, ..DseOptions::default() };
    sweep_grid(f, platform, w, &SweepGrid::standard(), opts)
}

fn assert_points_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.points.len(), b.points.len(), "point counts differ");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.config, pb.config);
        assert_eq!(pa.estimate, pb.estimate, "{}", pa.config);
    }
}

/// The returned configs are a subsequence of the space's enumeration
/// order: the sweep assembles chunk runs without sorting, so a chunk
/// placed or a repaired chunk merged out of order shows up here.
fn assert_enumeration_order(space: &ConfigSpace, r: &DseResult, ctx: &str) {
    let mut rest = space.iter();
    for p in &r.points {
        assert!(rest.any(|c| c == p.config), "{ctx}: {} out of enumeration order", p.config);
    }
}

/// An iterative stencil, so the enlarged fine grid enumerates BOTH new
/// axes (coarsening per work-group family, temporal depth space-wide).
fn stencil_fixture() -> &'static (Function, Workload, Platform) {
    static F: OnceLock<(Function, Workload, Platform)> = OnceLock::new();
    F.get_or_init(|| {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void jacobi2d(__global float* a, __global float* b, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
                    b[i] = 0.2f * (a[i] + a[i - 1] + a[i + 1] + a[i - w] + a[i + w]);
                }
            }",
        )
        .expect("frontend");
        let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
        let w = Workload {
            args: vec![
                KernelArg::FloatBuf(vec![1.0; 1024]),
                KernelArg::FloatBuf(vec![0.0; 1024]),
                KernelArg::Int(32),
                KernelArg::Int(32),
            ],
            global: (32, 32),
        };
        (f, w, Platform::virtex7_adm7v3())
    })
}

/// The fine grid enlarged by the coarsening/temporal axes remains a pure
/// function of the schedule order: threads ∈ {2, 4, 8} reproduce the
/// threads = 1 sweep bit for bit, pruning on or off, and the swept space
/// genuinely contains points on the new axes.
#[test]
fn fine_grid_with_new_axes_is_deterministic_across_threads() {
    let (f, w, platform) = stencil_fixture();
    let run = |threads: usize, prune: bool| {
        let opts = DseOptions { threads, chunk_size: 37, prune, ..DseOptions::default() };
        sweep_grid(f, platform, w, &SweepGrid::fine(), opts)
    };
    for prune in [false, true] {
        let reference = run(1, prune);
        assert!(
            reference.points.iter().any(|p| p.config.coarsen_factor > 1),
            "fine grid must sweep the coarsening axis"
        );
        assert!(
            reference.points.iter().any(|p| p.config.temporal_block_depth > 1),
            "fine grid must sweep the temporal axis on an iterative stencil"
        );
        for threads in [2usize, 4, 8] {
            let parallel = run(threads, prune);
            assert_points_identical(&reference, &parallel);
        }
    }
}

/// Exhaustive and pruned sweeps at threads ∈ {2, 4, 8} return points in
/// enumeration order, on the standard grid and on the fine grid with the
/// coarsening/temporal axes.
#[test]
fn sweeps_return_points_in_enumeration_order() {
    let cases = [
        (fixture(), SweepGrid::standard(), vec![1usize, 5, 0]),
        (stencil_fixture(), SweepGrid::fine(), vec![37]),
    ];
    for ((f, w, platform), grid, chunk_sizes) in &cases {
        let space = ConfigSpace::new(&limits_for(f, w), grid);
        for &chunk_size in chunk_sizes {
            for threads in [2usize, 4, 8] {
                for prune in [false, true] {
                    let opts = DseOptions { threads, chunk_size, prune, ..DseOptions::default() };
                    let r = sweep_grid(f, platform, w, grid, opts);
                    let ctx =
                        format!("{} chunk={chunk_size} threads={threads} prune={prune}", f.name);
                    if !prune {
                        assert_eq!(r.points.len(), space.len(), "{ctx}");
                    }
                    assert_enumeration_order(&space, &r, &ctx);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive sweeps are bit-identical to the serial reference for
    /// every (threads, chunk size) combination — chunk granularity and
    /// work stealing leave no fingerprint on the result.
    #[test]
    fn exhaustive_sweep_is_bit_identical(
        threads in proptest::sample::select(vec![1usize, 2, 3, 4, 8]),
        chunk_size in proptest::sample::select(vec![0usize, 1, 3, 7, 16, 64, 333, 5000]),
    ) {
        let result = sweep(threads, chunk_size, false);
        assert_points_identical(serial_exhaustive(), &result);
        prop_assert!(result.diagnostics.is_clean(), "{:?}", result.diagnostics);
    }

    /// Pruned sweeps drop dominated points, but *which* points survive is
    /// decided by the deterministic replay pass: the survivor set depends
    /// only on the chunk size, so any thread count reproduces the
    /// threads = 1 sweep exactly, and the best point always matches the
    /// exhaustive sweep.
    #[test]
    fn pruned_sweep_is_deterministic_and_preserves_best(
        threads in proptest::sample::select(vec![2usize, 4, 8]),
        chunk_size in proptest::sample::select(vec![0usize, 1, 5, 17, 64, 1000]),
    ) {
        let reference = sweep(1, chunk_size, true);
        let parallel = sweep(threads, chunk_size, true);
        assert_points_identical(&reference, &parallel);

        let exhaustive = serial_exhaustive();
        let (eb, pb) = (
            exhaustive.best().expect("exhaustive best"),
            parallel.best().expect("pruned best"),
        );
        prop_assert_eq!(eb.config, pb.config);
        prop_assert_eq!(eb.estimate.cycles, pb.estimate.cycles);

        // Survivors are an in-order subset of the exhaustive sweep with
        // unaltered estimates (pruning may drop points, never edit them).
        let mut it = exhaustive.points.iter();
        for p in &parallel.points {
            let twin = it
                .by_ref()
                .find(|q| q.config == p.config)
                .expect("pruned point present in exhaustive sweep, in order");
            prop_assert_eq!(&twin.estimate, &p.estimate);
        }
    }

    /// A candidate whose estimate panics leaves a hole in its chunk's
    /// slot of the sweep output. Whatever the thread count, chunk size and
    /// pruning, the surviving points are the threads = 1 sweep's, in
    /// enumeration order, and exhaustively they are the serial reference
    /// minus exactly that candidate. A pruned sweep hands back an output
    /// trimmed to its length.
    #[test]
    fn a_failed_candidate_leaves_only_its_own_hole(
        victim_seed in 0usize..1_000_000,
        chunk_size in proptest::sample::select(vec![0usize, 1, 7, 64]),
        prune in proptest::sample::select(vec![false, true]),
    ) {
        let (f, w, _) = fixture();
        let space = ConfigSpace::new(&limits_for(f, w), &SweepGrid::standard());
        let victim = victim_seed % space.len();
        let inject = Some(InjectedFault::EstimatePanic(victim));
        let reference = sweep_with(1, chunk_size, prune, inject);
        let failed: Vec<usize> = reference.diagnostics.failed.iter().map(|p| p.index).collect();
        if prune {
            // Pruning may skip the victim before it is ever estimated.
            prop_assert!(failed.is_empty() || failed == [victim], "{failed:?}");
            prop_assert_eq!(reference.points.capacity(), reference.points.len());
        } else {
            prop_assert_eq!(failed, vec![victim]);
            let mut expected = serial_exhaustive().points.clone();
            expected.remove(victim);
            prop_assert_eq!(reference.points.len(), expected.len());
            for (p, q) in reference.points.iter().zip(&expected) {
                prop_assert_eq!(p.config, q.config);
                prop_assert_eq!(&p.estimate, &q.estimate);
            }
        }
        let victim_config = space.get(victim);
        prop_assert!(reference.points.iter().all(|p| p.config != victim_config));
        assert_enumeration_order(&space, &reference, &format!("victim {victim}"));
        for threads in [2usize, 4] {
            let parallel = sweep_with(threads, chunk_size, prune, inject);
            assert_points_identical(&reference, &parallel);
            prop_assert_eq!(&parallel.diagnostics, &reference.diagnostics);
        }
    }
}
