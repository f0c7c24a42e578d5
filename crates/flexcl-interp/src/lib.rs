//! # flexcl-interp
//!
//! IR interpreter and dynamic profiler for FlexCL (DAC'17 reproduction).
//!
//! FlexCL uses lightweight dynamic profiling — executing a few work-groups
//! on the host — to obtain loop trip counts and the global-memory access
//! trace that static analysis cannot produce (§3.2 of the paper). This
//! crate provides that profiler, and doubles as a functional reference
//! executor used by the test suite to validate the kernel corpus.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flexcl_interp::{run, KernelArg, NdRange, RunOptions};
//!
//! let program = flexcl_frontend::parse_and_check(
//!     "__kernel void scale(__global float* x, float a) {
//!          int i = get_global_id(0);
//!          x[i] = x[i] * a;
//!      }",
//! )?;
//! let func = flexcl_ir::lower_kernel(&program.kernels[0])?;
//! let mut args = vec![KernelArg::FloatBuf(vec![1.0; 4]), KernelArg::Float(2.5)];
//! let profile = run(&func, &mut args, NdRange::new_1d(4, 4), RunOptions::default())?;
//! assert_eq!(args[0], KernelArg::FloatBuf(vec![2.5; 4]));
//! assert_eq!(profile.trace.len(), 8); // 4 loads + 4 stores
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod decode;
pub mod exec;
pub mod profile;
pub mod value;

pub use exec::{
    run, run_refs, ArgRef, GeometryError, GroupSampling, InterpError, NdRange, RunOptions,
};
pub use profile::{EdgeCounts, GroupObservation, GroupWeight, LoopTrips, MemAccess, Profile};
pub use value::KernelArg;

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_frontend::types::AddressSpace;
    use flexcl_ir::lower_kernel;

    fn exec(src: &str, args: &mut [KernelArg], nd: NdRange) {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        run(&f, args, nd, RunOptions::default()).expect("run");
    }

    #[test]
    fn vector_add_is_correct() {
        let mut args = vec![
            KernelArg::FloatBuf((0..16).map(f64::from).collect()),
            KernelArg::FloatBuf((0..16).map(|i| f64::from(i) * 10.0).collect()),
            KernelArg::FloatBuf(vec![0.0; 16]),
        ];
        exec(
            "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
            &mut args,
            NdRange::new_1d(16, 4),
        );
        let KernelArg::FloatBuf(c) = &args[2] else { panic!() };
        for (i, v) in c.iter().enumerate() {
            assert_eq!(*v, i as f64 * 11.0);
        }
    }

    #[test]
    fn reduction_loop_is_correct() {
        let mut args = vec![
            KernelArg::FloatBuf((1..=10).map(f64::from).collect()),
            KernelArg::FloatBuf(vec![0.0; 1]),
        ];
        exec(
            "__kernel void sum(__global float* a, __global float* out) {
                float s = 0.0f;
                for (int i = 0; i < 10; i++) { s += a[i]; }
                out[0] = s;
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        let KernelArg::FloatBuf(out) = &args[1] else { panic!() };
        assert_eq!(out[0], 55.0);
    }

    #[test]
    fn conditional_guard_is_respected() {
        let mut args = vec![KernelArg::IntBuf(vec![0; 8]), KernelArg::Int(5)];
        exec(
            "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                if (i < n) { a[i] = 1; }
            }",
            &mut args,
            NdRange::new_1d(8, 8),
        );
        let KernelArg::IntBuf(a) = &args[0] else { panic!() };
        assert_eq!(a, &vec![1, 1, 1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn local_tile_roundtrip() {
        // Each work-item writes its own slot then reads it back (id-order
        // safe pattern).
        let mut args = vec![KernelArg::IntBuf((0..8).map(|i| i * 3).collect())];
        exec(
            "__kernel void k(__global int* a) {
                __local int tile[8];
                int l = get_local_id(0);
                tile[l] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = tile[l] + 1;
            }",
            &mut args,
            NdRange::new_1d(8, 8),
        );
        let KernelArg::IntBuf(a) = &args[0] else { panic!() };
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, i as i64 * 3 + 1);
        }
    }

    #[test]
    fn math_builtins_evaluate() {
        let mut args = vec![KernelArg::FloatBuf(vec![4.0, 9.0, 16.0, 25.0])];
        exec(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = sqrt(a[i]);
            }",
            &mut args,
            NdRange::new_1d(4, 4),
        );
        let KernelArg::FloatBuf(a) = &args[0] else { panic!() };
        assert_eq!(a, &vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn two_dimensional_ids() {
        let mut args = vec![KernelArg::IntBuf(vec![0; 16])];
        exec(
            "__kernel void k(__global int* a) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                a[y * 4 + x] = y * 4 + x;
            }",
            &mut args,
            NdRange::new_2d(4, 4, 2, 2),
        );
        let KernelArg::IntBuf(a) = &args[0] else { panic!() };
        assert_eq!(a, &(0..16).collect::<Vec<i64>>());
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a) { a[100] = 1; }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 4])];
        let err = run(&f, &mut args, NdRange::new_1d(1, 1), RunOptions::default()).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { index: 100, .. }));
    }

    #[test]
    fn alloca_memories_are_scoped_and_typed_errors() {
        let src = "__kernel void k(__global int* a) {
            __local int tile[4];
            int p[4];
            int l = get_local_id(0);
            tile[l] = l + 10;
            p[l] = a[get_global_id(0)];
            a[get_global_id(0)] = p[l] + tile[l];
        }";
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        // Two groups of 4: each work-item sees only its own private array
        // and its group's tile.
        let mut args = vec![KernelArg::IntBuf((0..8).collect())];
        run(&f, &mut args, NdRange::new_1d(8, 4), RunOptions::default()).expect("run");
        assert_eq!(args[0], KernelArg::IntBuf(vec![10, 12, 14, 16, 14, 16, 18, 20]));

        // A private alloca that never executes has no memory: accesses
        // through it fail with the zero-length bounds error.
        let private = f
            .insts
            .iter()
            .find(|i| {
                matches!(i.op, flexcl_ir::Op::Alloca { space: AddressSpace::Private, elems: 4 })
            })
            .map(|i| i.id)
            .expect("private array alloca");
        let mut skipped = f.clone();
        for b in &mut skipped.blocks {
            b.insts.retain(|&id| id != private);
        }
        let mut args = vec![KernelArg::IntBuf((0..8).collect())];
        let err = run(&skipped, &mut args, NdRange::new_1d(8, 4), RunOptions::default())
            .expect_err("unallocated private array");
        assert!(matches!(err, InterpError::OutOfBounds { param: 0, len: 0, .. }), "{err:?}");
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a) {
                int i = 0;
                while (i >= 0) { i = i + 0; }
                a[0] = i;
            }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 1])];
        let opts = RunOptions { step_limit: 10_000, ..RunOptions::default() };
        let err = run(&f, &mut args, NdRange::new_1d(1, 1), opts).unwrap_err();
        assert!(matches!(err, InterpError::StepLimit(_)));
    }

    #[test]
    fn argument_mismatch_is_reported() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a, int n) { a[0] = n; }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 1])];
        let err = run(&f, &mut args, NdRange::new_1d(1, 1), RunOptions::default()).unwrap_err();
        assert!(matches!(err, InterpError::BadArguments(_)));
    }

    #[test]
    fn vector_types_execute_lanewise() {
        let mut args = vec![KernelArg::FloatBuf(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])];
        exec(
            "__kernel void k(__global float4* a) {
                int i = get_global_id(0);
                float4 v = a[i];
                a[i] = v * 2.0f;
            }",
            &mut args,
            NdRange::new_1d(2, 2),
        );
        let KernelArg::FloatBuf(a) = &args[0] else { panic!() };
        assert_eq!(a, &vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn ir_optimization_preserves_semantics() {
        let src = "__kernel void k(__global int* a, int n) {
            int i = get_global_id(0);
            int base = i * 2 + 0;
            int dead = 123 * 456;
            a[base] = a[base] + (3 - 2) * n;
            a[base + 1] = a[base] + n * 1;
        }";
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        let plain = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut opt = plain.clone();
        let removed = flexcl_ir::optimize(&mut opt);
        assert!(removed > 0, "dead code and constants must fold");

        let mut args1 = vec![KernelArg::IntBuf((0..64).collect()), KernelArg::Int(5)];
        let mut args2 = args1.clone();
        run(&plain, &mut args1, NdRange::new_1d(32, 8), RunOptions::default()).expect("run");
        run(&opt, &mut args2, NdRange::new_1d(32, 8), RunOptions::default()).expect("run");
        assert_eq!(args1, args2, "optimization must not change results");
    }

    #[test]
    fn vector_literal_constructs_lanes() {
        let mut args = vec![KernelArg::FloatBuf(vec![0.0; 8]), KernelArg::Float(3.0)];
        exec(
            "__kernel void k(__global float4* a, float s) {
                a[0] = (float4)(1.0f, 2.0f, s, 4.0f);
                a[1] = (float4)(s);
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        let KernelArg::FloatBuf(a) = &args[0] else { panic!() };
        assert_eq!(a, &vec![1.0, 2.0, 3.0, 4.0, 3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn trace_limit_stops_trip_count_explosions() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + a[i % 4]; }
                a[0] = s;
            }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 4]), KernelArg::Int(1_000_000)];
        let opts = RunOptions { trace_limit: 100, ..RunOptions::default() };
        let err = run(&f, &mut args, NdRange::new_1d(1, 1), opts).unwrap_err();
        assert_eq!(err, InterpError::TraceLimit(100));
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a) { a[0] = 1; }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 1])];
        let err =
            run(&f, &mut args, NdRange::new_1d(10, 3), RunOptions::default()).unwrap_err();
        assert_eq!(
            err,
            InterpError::Geometry(GeometryError::NotDivisible { dim: 0, global: 10, local: 3 })
        );
        let err =
            run(&f, &mut args, NdRange::new_1d(0, 1), RunOptions::default()).unwrap_err();
        assert_eq!(err, InterpError::Geometry(GeometryError::ZeroDimension { dim: 0 }));
    }

    fn lower(src: &str) -> flexcl_ir::Function {
        let p = flexcl_frontend::parse_and_check(src).expect("frontend");
        lower_kernel(&p.kernels[0]).expect("lowering")
    }

    #[test]
    fn int_typed_ops_keep_a_float_operand_float() {
        // An `int` buffer bound to float data loads float-tagged values:
        // int-typed arithmetic on them stays float (no truncation), and a
        // mixed comparison compares as floats (2.5 > 2, where 2 > 2 fails).
        let mut args = vec![KernelArg::FloatBuf(vec![2.5, 0.0, 0.0])];
        exec(
            "__kernel void k(__global int* a) {
                a[1] = a[0] + 1;
                a[2] = a[0] > 2;
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        assert_eq!(args[0], KernelArg::FloatBuf(vec![2.5, 3.5, 1.0]));
    }

    #[test]
    fn conversions_truncate_to_the_target_width() {
        let mut args = vec![KernelArg::IntBuf(vec![300, 0, 0, 0, 0])];
        exec(
            "__kernel void k(__global long* a) {
                a[1] = (uchar)(a[0]);
                a[2] = (short)(a[0] * 1000);
                a[3] = (uint)(-a[0]);
                a[4] = (uint)(-1);
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        assert_eq!(
            args[0],
            KernelArg::IntBuf(vec![
                300,
                44,
                i64::from(300_000_i32 as i16),
                4_294_966_996,
                0xFFFF_FFFF
            ])
        );
    }

    #[test]
    fn integer_division_by_zero_yields_zero() {
        let mut args = vec![KernelArg::IntBuf(vec![7, 0, 9, 9])];
        exec(
            "__kernel void k(__global int* a) {
                a[2] = a[0] / a[1];
                a[3] = a[0] % a[1];
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        assert_eq!(args[0], KernelArg::IntBuf(vec![7, 0, 0, 0]));
    }

    #[test]
    fn shift_counts_are_masked_to_63() {
        let mut args = vec![KernelArg::IntBuf(vec![5, 65, 64, 0, 0])];
        exec(
            "__kernel void k(__global long* a) {
                long x = a[0];
                a[3] = x << a[1];
                a[4] = x >> a[2];
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        assert_eq!(args[0], KernelArg::IntBuf(vec![5, 65, 64, 10, 5]));
    }

    #[test]
    fn step_limit_boundary_is_inclusive() {
        // Straight-line code: the single work-item executes every
        // instruction exactly once, so it takes exactly N steps.
        let f = lower(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                a[i] = a[i] * 3 + 1;
            }",
        );
        assert_eq!(f.blocks.len(), 1, "straight-line kernel");
        let n = f.insts.len() as u64;
        let at = |step_limit| {
            let mut args = vec![KernelArg::IntBuf(vec![1])];
            let opts = RunOptions { step_limit, ..RunOptions::default() };
            run(&f, &mut args, NdRange::new_1d(1, 1), opts)
        };
        assert!(at(n).is_ok(), "a work-item of exactly {n} steps fits a budget of {n}");
        assert_eq!(at(n - 1).unwrap_err(), InterpError::StepLimit(n - 1));
    }

    #[test]
    fn negative_global_index_is_traced_before_its_bounds_error() {
        for src in [
            "__kernel void k(__global int* a) { a[0] = a[get_global_id(0) - 1]; }",
            "__kernel void k(__global int* a) { a[get_global_id(0) - 1] = 1; }",
        ] {
            let f = lower(src);
            let mut args = vec![KernelArg::IntBuf(vec![0; 4])];
            let nd = NdRange::new_1d(1, 1);
            let err = run(&f, &mut args, nd, RunOptions::default()).unwrap_err();
            assert_eq!(err, InterpError::OutOfBounds { param: 0, index: -1, len: 4 }, "{src}");
            // With no trace budget the access fails on recording instead:
            // it is recorded before it is bounds-checked.
            let opts = RunOptions { trace_limit: 0, ..RunOptions::default() };
            let err = run(&f, &mut args, nd, opts).unwrap_err();
            assert_eq!(err, InterpError::TraceLimit(0), "{src}");
        }
    }

    #[test]
    fn negating_the_most_negative_long_wraps() {
        // Identical with and without overflow checks: `-i64::MIN` and
        // `abs(i64::MIN)` wrap to `i64::MIN`.
        for src in [
            "__kernel void k(__global long* a) {
                long x = a[0] - 9223372036854775807L - 1L;
                a[1] = -x;
            }",
            "__kernel void k(__global long* a) {
                long x = a[0] - 9223372036854775807L - 1L;
                a[1] = abs(x);
            }",
        ] {
            let mut args = vec![KernelArg::IntBuf(vec![0, 0])];
            exec(src, &mut args, NdRange::new_1d(1, 1));
            assert_eq!(args[0], KernelArg::IntBuf(vec![0, i64::MIN]), "{src}");
        }
    }

    #[test]
    fn vector_unary_operators_apply_per_lane() {
        let mut args = vec![KernelArg::FloatBuf(vec![1.0, -2.0, 3.0, 0.0, 9.0, 9.0, 9.0, 9.0])];
        exec(
            "__kernel void k(__global float4* a) {
                float4 v = a[0];
                a[1] = -v;
            }",
            &mut args,
            NdRange::new_1d(1, 1),
        );
        assert_eq!(args[0], KernelArg::FloatBuf(vec![1.0, -2.0, 3.0, 0.0, -1.0, 2.0, -3.0, -0.0]));
    }

    #[test]
    fn lent_arguments_are_read_in_place_and_stores_need_write_access() {
        let f = lower(
            "__kernel void k(__global int* a, __global int* b) {
                int i = get_global_id(0);
                b[i] = a[i] * 2;
            }",
        );
        let a = KernelArg::IntBuf(vec![1, 2, 3, 4]);
        let mut b = KernelArg::IntBuf(vec![0; 4]);
        let nd = NdRange::new_1d(4, 2);
        let opts = RunOptions::default();
        let prof = run_refs(&f, &mut [ArgRef::Read(&a), ArgRef::Write(&mut b)], nd, opts)
            .expect("run");
        assert_eq!(b, KernelArg::IntBuf(vec![2, 4, 6, 8]));
        assert_eq!(prof.trace.len(), 8);
        let mut b2 = b.clone();
        let err =
            run_refs(&f, &mut [ArgRef::Write(&mut b2), ArgRef::Read(&b)], nd, opts).unwrap_err();
        assert!(matches!(err, InterpError::BadArguments(_)), "{err:?}");
    }

    #[test]
    fn profiled_subset_limits_trace() {
        let p = flexcl_frontend::parse_and_check(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                a[i] = i;
            }",
        )
        .expect("frontend");
        let f = lower_kernel(&p.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0; 64])];
        let opts = RunOptions { profile_groups: Some(2), ..RunOptions::default() };
        let prof = run(&f, &mut args, NdRange::new_1d(64, 8), opts).expect("run");
        assert_eq!(prof.work_items, 16); // 2 groups × 8 work-items
        assert_eq!(prof.trace.len(), 16);
    }
}
