//! The 15 PolyBench kernels of the §4.2 evaluation.
//!
//! PolyBench kernels are dense linear algebra and regular stencils — the
//! "simpler structures, easy to analyze" workloads for which the paper
//! reports an 8.7% average error.

use crate::{fbuf, fzero, KernelSpec, Suite};
use flexcl_interp::KernelArg;

/// Matrix dimension used by the inner loops (constant per workload).
const K: u64 = 32;

fn mat_args_3(nx: u64, ny: u64, rng: &mut rand::rngs::StdRng) -> Vec<KernelArg> {
    vec![
        fbuf(nx.max(ny) * K, rng),
        fbuf(K * nx.max(ny), rng),
        fzero(nx * ny.max(1)),
        KernelArg::Int(K as i64),
    ]
}

/// Returns the 15 PolyBench kernel specs.
pub fn all() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "gemm",
            source: "__kernel void gemm(__global float* a, __global float* b,
                                        __global float* c, int k) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                int n = get_global_size(0);
                float acc = 0.0f;
                #pragma pipeline
                for (int p = 0; p < k; p++) {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = 1.2f * acc + 0.8f * c[i * n + j];
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * K, rng),
                    fbuf(K * nx.max(ny), rng),
                    fbuf(nx * ny, rng),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "mm2",
            source: "__kernel void mm2(__global float* a, __global float* b,
                                       __global float* tmp, int k) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                int n = get_global_size(0);
                float acc = 0.0f;
                for (int p = 0; p < k; p++) {
                    acc += a[i * k + p] * b[p * n + j];
                }
                tmp[i * n + j] = acc;
            }",
            base_global: (32, 32),
            build_args: mat_args_3,
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "mm3",
            source: "__kernel void mm3(__global float* tmp, __global float* c,
                                       __global float* out, int k) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                int n = get_global_size(0);
                float acc = 0.0f;
                for (int p = 0; p < k; p++) {
                    acc += tmp[i * k + p] * c[p * n + j];
                }
                out[i * n + j] = acc;
            }",
            base_global: (32, 32),
            build_args: mat_args_3,
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "atax",
            source: "__kernel void atax(__global float* a, __global float* x,
                                        __global float* y, int k) {
                int i = get_global_id(0);
                float tmp = 0.0f;
                for (int j = 0; j < k; j++) {
                    tmp += a[i * k + j] * x[j];
                }
                float acc = 0.0f;
                for (int j = 0; j < k; j++) {
                    acc += a[i * k + j] * tmp;
                }
                y[i] = acc;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(nx * K, rng), fbuf(K, rng), fzero(nx), KernelArg::Int(K as i64)]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "bicg",
            source: "__kernel void bicg(__global float* a, __global float* p,
                                        __global float* r, __global float* q, int k) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < k; j++) {
                    acc += a[i * k + j] * p[j];
                }
                q[i] = acc + r[i % k];
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx * K, rng),
                    fbuf(K, rng),
                    fbuf(K, rng),
                    fzero(nx),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "mvt",
            source: "__kernel void mvt(__global float* a, __global float* y1,
                                       __global float* y2, __global float* x, int k) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < k; j++) {
                    acc += a[i * k + j] * y1[j] + a[i * k + j] * y2[j];
                }
                x[i] = x[i] + acc;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx * K, rng),
                    fbuf(K, rng),
                    fbuf(K, rng),
                    fbuf(nx, rng),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "gemver",
            source: "__kernel void gemver(__global float* a, __global float* u1,
                                          __global float* v1, __global float* u2,
                                          __global float* v2, __global float* out, int k) {
                int i = get_global_id(0);
                for (int j = 0; j < k; j++) {
                    out[i * k + j] = a[i * k + j] + u1[i % k] * v1[j] + u2[i % k] * v2[j];
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx * K, rng),
                    fbuf(K, rng),
                    fbuf(K, rng),
                    fbuf(K, rng),
                    fbuf(K, rng),
                    fzero(nx * K),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "gesummv",
            source: "__kernel void gesummv(__global float* a, __global float* b,
                                           __global float* x, __global float* y, int k) {
                int i = get_global_id(0);
                float t1 = 0.0f;
                float t2 = 0.0f;
                for (int j = 0; j < k; j++) {
                    t1 += a[i * k + j] * x[j];
                    t2 += b[i * k + j] * x[j];
                }
                y[i] = 1.5f * t1 + 1.2f * t2;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx * K, rng),
                    fbuf(nx * K, rng),
                    fbuf(K, rng),
                    fzero(nx),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "syrk",
            source: "__kernel void syrk(__global float* a, __global float* c, int k) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                int n = get_global_size(0);
                float acc = c[i * n + j] * 0.9f;
                for (int p = 0; p < k; p++) {
                    acc += 1.1f * a[i * k + p] * a[j * k + p];
                }
                c[i * n + j] = acc;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![fbuf(nx.max(ny) * K, rng), fbuf(nx * ny, rng), KernelArg::Int(K as i64)]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "syr2k",
            source: "__kernel void syr2k(__global float* a, __global float* b,
                                         __global float* c, int k) {
                int i = get_global_id(0);
                int j = get_global_id(1);
                int n = get_global_size(0);
                float acc = c[i * n + j] * 0.9f;
                for (int p = 0; p < k; p++) {
                    acc += a[i * k + p] * b[j * k + p] + b[i * k + p] * a[j * k + p];
                }
                c[i * n + j] = acc;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx.max(ny) * K, rng),
                    fbuf(nx.max(ny) * K, rng),
                    fbuf(nx * ny, rng),
                    KernelArg::Int(K as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "correlation",
            source: "__kernel void correlation(__global float* data, __global float* mean,
                                               __global float* stddev, __global float* out,
                                               int k) {
                int i = get_global_id(0);
                float m = 0.0f;
                for (int j = 0; j < k; j++) { m += data[i * k + j]; }
                m = m / (float)k;
                float sd = 0.0f;
                for (int j = 0; j < k; j++) {
                    float d = data[i * k + j] - m;
                    sd += d * d;
                }
                mean[i] = m;
                stddev[i] = sqrt(sd / (float)k) + 0.0001f;
                out[i] = m / stddev[i];
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(nx * K, rng), fzero(nx), fzero(nx), fzero(nx), KernelArg::Int(K as i64)]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "covariance",
            source: "__kernel void covariance(__global float* data, __global float* mean,
                                              __global float* cov, int k) {
                int i = get_global_id(0);
                int n = get_global_size(0);
                float acc = 0.0f;
                for (int j = 0; j < k; j++) {
                    float d = data[i * k + j] - mean[j % k];
                    acc += d * d;
                }
                cov[i] = acc / (float)(n - 1);
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(nx * K, rng), fbuf(K, rng), fzero(nx), KernelArg::Int(K as i64)]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "gramschmidt",
            source: "__kernel void gramschmidt(__global float* a, __global float* r,
                                               __global float* q, int k) {
                int i = get_global_id(0);
                float norm = 0.0f;
                for (int j = 0; j < k; j++) {
                    norm += a[i * k + j] * a[i * k + j];
                }
                float rval = sqrt(norm);
                r[i] = rval;
                for (int j = 0; j < k; j++) {
                    q[i * k + j] = a[i * k + j] / (rval + 0.0001f);
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(nx * K, rng), fzero(nx), fzero(nx * K), KernelArg::Int(K as i64)]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "fdtd2d",
            source: "__kernel void fdtd2d(__global float* ex, __global float* ey,
                                          __global float* hz, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                if (x < w - 1 && y < h - 1) {
                    hz[i] = hz[i] - 0.7f * (ex[i + 1] - ex[i] + ey[i + w] - ey[i]);
                }
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny + nx, rng),
                    fbuf(nx * ny + nx, rng),
                    fbuf(nx * ny, rng),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::PolyBench,
            benchmark: "polybench",
            kernel: "jacobi2d",
            source: "__kernel void jacobi2d(__global float* a, __global float* b, int w,
                                            int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
                    b[i] = 0.2f * (a[i] + a[i - 1] + a[i + 1] + a[i - w] + a[i + w]);
                }
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                ]
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_15_kernels() {
        assert_eq!(all().len(), 15);
    }

    #[test]
    fn all_sources_compile_lower_and_run() {
        use flexcl_interp::{run, NdRange, RunOptions};
        for spec in all() {
            let program = flexcl_frontend::parse_and_check(spec.source)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
            let func = flexcl_ir::lower_kernel(program.kernel(spec.kernel).expect("kernel"))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
            assert_eq!(func.validate(), Ok(()), "{}", spec.full_name());
            let w = spec.workload(crate::Scale::Test, 7);
            let mut args = w.args.clone();
            let local = if w.global.1 > 1 { [8, 8, 1] } else { [64, 1, 1] };
            let nd = NdRange { global: [w.global.0, w.global.1, 1], local };
            run(&func, &mut args, nd, RunOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
        }
    }

    #[test]
    fn polybench_kernels_have_no_barriers() {
        for spec in all() {
            let program = flexcl_frontend::parse_and_check(spec.source).expect("frontend");
            let func = flexcl_ir::lower_kernel(program.kernel(spec.kernel).expect("kernel"))
                .expect("lowering");
            assert!(!func.has_barrier(), "{}", spec.full_name());
        }
    }
}
