//! Property: `explore_configs` returns points in the caller's order.
//!
//! The sweep engine evaluates an explicit candidate list grouped by
//! work-group family and assembles the points family by family;
//! `explore_configs` then puts them back in the order of `configs`. These
//! tests feed it a shuffled space with interleaved work-groups and
//! interleaved invalid entries, and check that
//!
//! * every valid entry comes back in caller order, with an estimate
//!   bit-identical to the enumerated sweep's estimate for that config;
//! * every invalid entry is reported at its caller position;
//! * a pruned sweep returns an in-order subsequence of the valid entries,
//!   the same one at any thread count;
//!
//! at threads ∈ {1, 3} and chunk sizes ∈ {1, 7, default}.

use flexcl_core::{
    enumerate, explore_configs, explore_with, limits_for, DseOptions, DseResult, ErrorKind,
    Estimate, OptimizationConfig, Platform, Workload,
};
use flexcl_interp::KernelArg;
use flexcl_ir::Function;
use std::sync::OnceLock;

/// vadd spans both communication modes and several work-group families.
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

/// The enumerated sweep every explicit sweep is compared against.
fn enumerated() -> &'static DseResult {
    static R: OnceLock<DseResult> = OnceLock::new();
    R.get_or_init(|| {
        let (f, w, platform) = fixture();
        explore_with(f, platform, w, DseOptions::default()).expect("enumerated sweep")
    })
}

fn reference_estimate(cfg: &OptimizationConfig) -> &'static Estimate {
    &enumerated()
        .points
        .iter()
        .find(|p| p.config == *cfg)
        .expect("config is in the enumerated space")
        .estimate
}

/// The enumerated space, shuffled by a fixed-seed Fisher–Yates, with an
/// invalid entry after every fifth valid one (never last). Returns the list and the
/// caller positions of the invalid entries.
fn shuffled_with_invalid() -> (Vec<OptimizationConfig>, Vec<usize>) {
    let (f, w, _) = fixture();
    let mut space = enumerate(&limits_for(f, w));
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..space.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        space.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let n = space.len();
    let mut configs = Vec::with_capacity(n + n / 5);
    let mut invalid = Vec::new();
    for (i, cfg) in space.into_iter().enumerate() {
        configs.push(cfg);
        if i % 5 == 4 && i + 1 < n {
            invalid.push(configs.len());
            let bad = match invalid.len() % 3 {
                0 => OptimizationConfig { num_pes: 0, ..cfg },
                1 => OptimizationConfig { coarsen_factor: 0, ..cfg },
                // vadd is not an iterative stencil.
                _ => OptimizationConfig { temporal_block_depth: 2, ..cfg },
            };
            configs.push(bad);
        }
    }
    (configs, invalid)
}

#[test]
fn shuffled_list_comes_back_in_caller_order() {
    let (f, w, platform) = fixture();
    let (configs, invalid) = shuffled_with_invalid();

    // The list really interleaves families: some work-group reappears
    // after a different one, and invalid entries sit between valid ones.
    let wg_runs = configs.windows(2).filter(|p| p[0].work_group != p[1].work_group).count();
    let mut families: Vec<_> = enumerated().points.iter().map(|p| p.config.work_group).collect();
    families.dedup();
    assert!(wg_runs > families.len(), "shuffle did not interleave work-groups");
    assert!(invalid.len() > 10 && invalid.iter().all(|&i| i > 0 && i + 1 < configs.len()));

    let valid: Vec<OptimizationConfig> = configs
        .iter()
        .enumerate()
        .filter(|(i, _)| invalid.binary_search(i).is_err())
        .map(|(_, c)| *c)
        .collect();

    for threads in [1usize, 3] {
        for chunk_size in [1usize, 7, 0] {
            let opts = DseOptions { threads, chunk_size, ..DseOptions::default() };
            let r = explore_configs(f, platform, w, &configs, opts).expect("explicit sweep");
            let ctx = format!("threads={threads} chunk_size={chunk_size}");

            let got: Vec<OptimizationConfig> = r.points.iter().map(|p| p.config).collect();
            assert_eq!(got, valid, "{ctx}: points not in caller order");
            for p in &r.points {
                let want = reference_estimate(&p.config);
                assert_eq!(&p.estimate, want, "{ctx}: {}", p.config);
                assert_eq!(p.estimate.cycles.to_bits(), want.cycles.to_bits(), "{ctx}");
            }

            let failed: Vec<usize> = r.diagnostics.failed.iter().map(|f| f.index).collect();
            assert_eq!(failed, invalid, "{ctx}: failure indices are not caller positions");
            for fp in &r.diagnostics.failed {
                assert_eq!(fp.kind, ErrorKind::Config, "{ctx}");
                assert_eq!(fp.config, configs[fp.index], "{ctx}");
            }
        }
    }
}

#[test]
fn pruned_shuffled_list_is_an_in_order_subsequence() {
    let (f, w, platform) = fixture();
    let (configs, invalid) = shuffled_with_invalid();
    let run = |threads: usize, chunk_size: usize| {
        let opts = DseOptions { threads, chunk_size, prune: true, ..DseOptions::default() };
        explore_configs(f, platform, w, &configs, opts).expect("pruned explicit sweep")
    };
    for chunk_size in [1usize, 7, 0] {
        let serial = run(1, chunk_size);
        let parallel = run(3, chunk_size);
        let ctx = format!("chunk_size={chunk_size}");
        assert!(serial.points.len() < configs.len() - invalid.len(), "{ctx}: nothing pruned");

        // Survivors keep the caller's order and the enumerated estimates.
        let mut rest = configs.iter();
        for p in &serial.points {
            assert!(rest.any(|c| *c == p.config), "{ctx}: {} out of caller order", p.config);
            assert_eq!(&p.estimate, reference_estimate(&p.config), "{ctx}");
        }
        assert_eq!(serial.best().map(|p| p.config), enumerated().best().map(|p| p.config));

        // The survivor set does not depend on the thread count.
        assert_eq!(serial.points.len(), parallel.points.len(), "{ctx}");
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.config, b.config, "{ctx}");
            assert_eq!(a.estimate, b.estimate, "{ctx}");
        }
        let failed: Vec<usize> = parallel.diagnostics.failed.iter().map(|f| f.index).collect();
        assert_eq!(failed, invalid, "{ctx}");
    }
}
