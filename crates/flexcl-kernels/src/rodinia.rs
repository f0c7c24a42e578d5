//! The 45 Rodinia kernels of Table 2.
//!
//! Each kernel reproduces its benchmark's computational idiom — access
//! patterns, loop structure, local-memory usage and math mix — in the
//! supported OpenCL subset, with input generators that keep every access
//! in bounds at both workload scales.

use crate::{fbuf, fzero, ibuf_mod, iflags, izero, KernelSpec, Suite};
use flexcl_interp::KernelArg;

/// Returns all 45 Rodinia kernel specs in Table 2 order.
pub fn all() -> Vec<KernelSpec> {
    vec![
        // ------------------------------------------------------- backprop
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "backprop",
            kernel: "layer",
            source: "__kernel void layer(__global float* input, __global float* weights,
                                         __global float* out, int n_in) {
                int j = get_global_id(0);
                int stride = get_global_size(0);
                float sum = 0.0f;
                for (int i = 0; i < n_in; i++) {
                    sum += input[i] * weights[i * stride + j];
                }
                out[j] = 1.0f / (1.0f + exp(-sum));
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let n_in = 32;
                vec![fbuf(n_in, rng), fbuf(n_in * nx, rng), fzero(nx), KernelArg::Int(n_in as i64)]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "backprop",
            kernel: "adjust",
            source: "__kernel void adjust(__global float* w, __global float* delta,
                                          __global float* x, float lr, int n_in) {
                int j = get_global_id(0);
                int stride = get_global_size(0);
                for (int i = 0; i < n_in; i++) {
                    w[i * stride + j] += lr * delta[j] * x[i];
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let n_in = 32;
                vec![
                    fbuf(n_in * nx, rng),
                    fbuf(nx, rng),
                    fbuf(n_in, rng),
                    KernelArg::Float(0.01),
                    KernelArg::Int(n_in as i64),
                ]
            },
        },
        // ------------------------------------------------------------ bfs
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "bfs",
            kernel: "bfs_1",
            source: "__kernel void bfs_1(__global int* starts, __global int* edges,
                                         __global int* frontier, __global int* visited,
                                         __global int* cost, __global int* updating) {
                int tid = get_global_id(0);
                if (frontier[tid] == 1) {
                    frontier[tid] = 0;
                    int first = starts[tid];
                    int last = starts[tid + 1];
                    for (int i = first; i < last; i++) {
                        int id = edges[i];
                        if (visited[id] == 0) {
                            cost[id] = cost[tid] + 1;
                            updating[id] = 1;
                        }
                    }
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let deg = 4;
                vec![
                    KernelArg::IntBuf((0..=nx).map(|i| (i * deg) as i64).collect()),
                    ibuf_mod(nx * deg, nx as i64, rng),
                    iflags(nx, 0.2, rng),
                    iflags(nx, 0.3, rng),
                    izero(nx),
                    izero(nx),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "bfs",
            kernel: "bfs_2",
            source: "__kernel void bfs_2(__global int* updating, __global int* frontier,
                                         __global int* visited, __global int* stop) {
                int tid = get_global_id(0);
                if (updating[tid] == 1) {
                    updating[tid] = 0;
                    frontier[tid] = 1;
                    visited[tid] = 1;
                    stop[0] = 1;
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![iflags(nx, 0.3, rng), izero(nx), izero(nx), izero(1)],
        },
        // --------------------------------------------------------- b+tree
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "b+tree",
            kernel: "findK",
            source: "__kernel void findK(__global int* knodes, __global int* keys,
                                         __global int* answers, int order, int levels) {
                int tid = get_global_id(0);
                int key = keys[tid];
                int node = 0;
                for (int lvl = 0; lvl < levels; lvl++) {
                    int next = 0;
                    for (int k = 0; k < order; k++) {
                        if (knodes[node * order + k] <= key) { next = next + 1; }
                    }
                    node = node * order + next;
                }
                answers[tid] = node;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let (order, levels) = (4i64, 3i64);
                // node < (order+1)^levels · order; size generously.
                let knodes = 4096 * order as u64;
                vec![
                    ibuf_mod(knodes, 1000, rng),
                    ibuf_mod(nx, 1000, rng),
                    izero(nx),
                    KernelArg::Int(order),
                    KernelArg::Int(levels),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "b+tree",
            kernel: "rangeK",
            source: "__kernel void rangeK(__global int* knodes, __global int* lo,
                                          __global int* hi, __global int* counts, int order,
                                          int levels) {
                int tid = get_global_id(0);
                int a = lo[tid];
                int b = hi[tid];
                int node = 0;
                int found = 0;
                for (int lvl = 0; lvl < levels; lvl++) {
                    int next = 0;
                    for (int k = 0; k < order; k++) {
                        int v = knodes[node * order + k];
                        if (v >= a && v <= b) { found = found + 1; }
                        if (v <= a) { next = next + 1; }
                    }
                    node = node * order + next;
                }
                counts[tid] = found;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let (order, levels) = (4i64, 3i64);
                let knodes = 4096 * order as u64;
                vec![
                    ibuf_mod(knodes, 1000, rng),
                    ibuf_mod(nx, 500, rng),
                    KernelArg::IntBuf((0..nx).map(|_| 500 + (nx as i64 % 400)).collect()),
                    izero(nx),
                    KernelArg::Int(order),
                    KernelArg::Int(levels),
                ]
            },
        },
        // ------------------------------------------------------------ cfd
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "cfd",
            kernel: "memset",
            source: "__kernel void memset(__global float* v) {
                int i = get_global_id(0);
                v[i] = 0.0f;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "cfd",
            kernel: "initialize",
            source: "__kernel void initialize(__global float* density, __global float* momentum,
                                              __global float* energy, float ff_density,
                                              float ff_mach) {
                int i = get_global_id(0);
                density[i] = ff_density;
                momentum[i * 3] = ff_density * ff_mach;
                momentum[i * 3 + 1] = 0.0f;
                momentum[i * 3 + 2] = 0.0f;
                energy[i] = ff_density * (0.5f * ff_mach * ff_mach + 2.5f);
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, _rng| {
                vec![
                    fzero(nx),
                    fzero(nx * 3),
                    fzero(nx),
                    KernelArg::Float(1.4),
                    KernelArg::Float(0.3),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "cfd",
            kernel: "compute",
            source: "__kernel void compute(__global float* density, __global float* energy,
                                           __global int* neighbors, __global float* fluxes,
                                           int n) {
                int i = get_global_id(0);
                float flux = 0.0f;
                float d = density[i];
                float e = energy[i];
                float pressure = 0.4f * (e - 0.5f * d);
                for (int j = 0; j < 4; j++) {
                    int nb = neighbors[i * 4 + j];
                    if (nb >= 0 && nb < n) {
                        float dn = density[nb];
                        float en = energy[nb];
                        float pn = 0.4f * (en - 0.5f * dn);
                        float speed = sqrt(fabs(pn / (dn + 0.001f)));
                        flux += speed * (pressure - pn);
                    }
                }
                fluxes[i] = flux;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx, rng),
                    fbuf(nx, rng),
                    ibuf_mod(nx * 4, nx as i64, rng),
                    fzero(nx),
                    KernelArg::Int(nx as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "cfd",
            kernel: "time_step",
            source: "__kernel void time_step(__global float* density, __global float* fluxes,
                                             float factor) {
                int i = get_global_id(0);
                density[i] = density[i] + factor * fluxes[i];
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng), fbuf(nx, rng), KernelArg::Float(0.2)],
        },
        // ---------------------------------------------------------- dwt2d
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "dwt2d",
            kernel: "compute",
            source: "__kernel void compute(__global float* src, __global float* low,
                                           __global float* high, int n) {
                int i = get_global_id(0);
                int even = 2 * i;
                if (even + 1 < n) {
                    float a = src[even];
                    float b = src[even + 1];
                    low[i] = (a + b) * 0.70710678f;
                    high[i] = (a - b) * 0.70710678f;
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(2 * nx, rng), fzero(nx), fzero(nx), KernelArg::Int((2 * nx) as i64)]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "dwt2d",
            kernel: "components",
            source: "__kernel void components(__global uchar* rgb, __global float* r,
                                              __global float* g, __global float* b) {
                int i = get_global_id(0);
                r[i] = (float)rgb[i * 3] - 128.0f;
                g[i] = (float)rgb[i * 3 + 1] - 128.0f;
                b[i] = (float)rgb[i * 3 + 2] - 128.0f;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![ibuf_mod(nx * 3, 256, rng), fzero(nx), fzero(nx), fzero(nx)]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "dwt2d",
            kernel: "component",
            source: "__kernel void component(__global uchar* rgb, __global float* y) {
                int i = get_global_id(0);
                float r = (float)rgb[i * 3];
                float g = (float)rgb[i * 3 + 1];
                float b = (float)rgb[i * 3 + 2];
                y[i] = 0.299f * r + 0.587f * g + 0.114f * b - 128.0f;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![ibuf_mod(nx * 3, 256, rng), fzero(nx)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "dwt2d",
            kernel: "fdwt",
            source: "__kernel __attribute__((reqd_work_group_size(8, 8, 1)))
                void fdwt(__global float* img, __global float* out, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                __local float tile[8][33];
                int lx = get_local_id(0);
                int ly = get_local_id(1);
                tile[ly][lx] = img[y * w + x];
                barrier(CLK_LOCAL_MEM_FENCE);
                float center = tile[ly][lx];
                float left = center;
                if (lx > 0) { left = tile[ly][lx - 1]; }
                out[y * w + x] = center - 0.5f * left;
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
        // ------------------------------------------------------- gaussian
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "gaussian",
            kernel: "fan1",
            source: "__kernel void fan1(__global float* a, __global float* m, int size, int t) {
                int i = get_global_id(0);
                if (i < size - 1 - t) {
                    m[size * (i + t + 1) + t] =
                        a[size * (i + t + 1) + t] / a[size * t + t];
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                // Treat the matrix as (nx+2)² to keep all indices in range.
                let size = nx + 2;
                vec![
                    fbuf(size * size, rng),
                    fzero(size * size),
                    KernelArg::Int(size as i64),
                    KernelArg::Int(1),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "gaussian",
            kernel: "fan2",
            source: "__kernel void fan2(__global float* a, __global float* b, __global float* m,
                                        int size, int t) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                if (x < size - 1 - t && y < size - t) {
                    a[size * (x + 1 + t) + (y + t)] -=
                        m[size * (x + 1 + t) + t] * a[size * t + (y + t)];
                    if (y == 0) {
                        b[x + 1 + t] -= m[size * (x + 1 + t) + t] * b[t];
                    }
                }
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                let size = nx.max(ny) + 2;
                vec![
                    fbuf(size * size, rng),
                    fbuf(size, rng),
                    fbuf(size * size, rng),
                    KernelArg::Int(size as i64),
                    KernelArg::Int(1),
                ]
            },
        },
        // -------------------------------------------------------- hotspot
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "hotspot",
            kernel: "hotspot",
            source: "__kernel void hotspot(__global float* temp, __global float* power,
                                           __global float* out, int w, int h, float cap,
                                           float rx, float ry, float rz) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                float c = temp[i];
                float n = c;
                float s = c;
                float e = c;
                float wv = c;
                if (y > 0) { n = temp[i - w]; }
                if (y < h - 1) { s = temp[i + w]; }
                if (x > 0) { wv = temp[i - 1]; }
                if (x < w - 1) { e = temp[i + 1]; }
                float delta = cap * (power[i] + (n + s - 2.0f * c) * ry
                              + (e + wv - 2.0f * c) * rx + (80.0f - c) * rz);
                out[i] = c + delta;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                    KernelArg::Float(0.5),
                    KernelArg::Float(0.1),
                    KernelArg::Float(0.1),
                    KernelArg::Float(0.05),
                ]
            },
        },
        // ------------------------------------------------------ hotspot3D
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "hotspot3D",
            kernel: "hotspot3D",
            source: "__kernel void hotspot3D(__global float* tin, __global float* power,
                                             __global float* tout, int nx, int ny, int layers,
                                             float cc, float cn, float ct) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                for (int z = 0; z < layers; z++) {
                    int i = z * nx * ny + y * nx + x;
                    float c = tin[i];
                    float w = c;
                    float e = c;
                    float n = c;
                    float s = c;
                    float b = c;
                    float t = c;
                    if (x > 0) { w = tin[i - 1]; }
                    if (x < nx - 1) { e = tin[i + 1]; }
                    if (y > 0) { n = tin[i - nx]; }
                    if (y < ny - 1) { s = tin[i + nx]; }
                    if (z > 0) { b = tin[i - nx * ny]; }
                    if (z < layers - 1) { t = tin[i + nx * ny]; }
                    tout[i] = c * cc + (n + s + e + w) * cn + (t + b) * ct + power[i] * 0.1f;
                }
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                let layers = 4;
                vec![
                    fbuf(nx * ny * layers, rng),
                    fbuf(nx * ny * layers, rng),
                    fzero(nx * ny * layers),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                    KernelArg::Int(layers as i64),
                    KernelArg::Float(0.5),
                    KernelArg::Float(0.1),
                    KernelArg::Float(0.05),
                ]
            },
        },
        // ----------------------------------------------------- hybridsort
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "hybridsort",
            kernel: "count",
            source: "__kernel void count(__global float* input, __global int* histo,
                                         float minv, float maxv, int buckets) {
                int i = get_global_id(0);
                float v = input[i];
                int b = (int)((v - minv) / (maxv - minv) * (float)buckets);
                b = min(b, buckets - 1);
                b = max(b, 0);
                histo[b] += 1;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx, rng),
                    izero(64),
                    KernelArg::Float(0.0),
                    KernelArg::Float(2.0),
                    KernelArg::Int(64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "hybridsort",
            kernel: "prefix",
            source: "__kernel void prefix(__global int* histo, __global int* offsets,
                                          int buckets) {
                int i = get_global_id(0);
                int sum = 0;
                for (int j = 0; j < buckets; j++) {
                    if (j < i) { sum += histo[j]; }
                }
                offsets[i] = sum;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![ibuf_mod(nx, 16, rng), izero(nx), KernelArg::Int(64)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "hybridsort",
            kernel: "sort",
            source: "__kernel void sort(__global float* input, __global float* output, int n) {
                int i = get_global_id(0);
                float v = input[i];
                int rank = 0;
                for (int j = 0; j < 64; j++) {
                    int idx = (i / 64) * 64 + j;
                    float o = input[idx];
                    if (o < v || (o == v && idx < i)) { rank = rank + 1; }
                }
                output[(i / 64) * 64 + rank] = v;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng), fzero(nx), KernelArg::Int(nx as i64)],
        },
        // --------------------------------------------------------- kmeans
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "kmeans",
            kernel: "center",
            source: "__kernel void center(__global float* points, __global float* centroids,
                                          __global int* membership, int k, int dims) {
                int i = get_global_id(0);
                float best = 1e30f;
                int best_k = 0;
                for (int c = 0; c < k; c++) {
                    float dist = 0.0f;
                    #pragma unroll 4
                    for (int d = 0; d < dims; d++) {
                        float diff = points[i * dims + d] - centroids[c * dims + d];
                        dist += diff * diff;
                    }
                    if (dist < best) { best = dist; best_k = c; }
                }
                membership[i] = best_k;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let (k, dims) = (8u64, 4u64);
                vec![
                    fbuf(nx * dims, rng),
                    fbuf(k * dims, rng),
                    izero(nx),
                    KernelArg::Int(k as i64),
                    KernelArg::Int(dims as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "kmeans",
            kernel: "swap",
            source: "__kernel void swap(__global float* points, __global float* points_t,
                                        int n, int dims) {
                int i = get_global_id(0);
                for (int d = 0; d < dims; d++) {
                    points_t[d * n + i] = points[i * dims + d];
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let dims = 4u64;
                vec![
                    fbuf(nx * dims, rng),
                    fzero(nx * dims),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(dims as i64),
                ]
            },
        },
        // --------------------------------------------------------- lavaMD
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "lavaMD",
            kernel: "lavaMD",
            source: "__kernel void lavaMD(__global float* pos, __global float* charge,
                                          __global float* force, int per_box, float a2) {
                int i = get_global_id(0);
                int box = i / per_box;
                float fx = 0.0f;
                float px = pos[i * 3];
                float py = pos[i * 3 + 1];
                float pz = pos[i * 3 + 2];
                #pragma pipeline
                for (int j = 0; j < per_box; j++) {
                    int o = box * per_box + j;
                    float dx = px - pos[o * 3];
                    float dy = py - pos[o * 3 + 1];
                    float dz = pz - pos[o * 3 + 2];
                    float r2 = dx * dx + dy * dy + dz * dz + 0.01f;
                    float u2 = a2 * r2;
                    float vij = exp(-u2) * charge[o];
                    fx += dx * vij;
                }
                force[i] = fx;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx * 3, rng),
                    fbuf(nx, rng),
                    fzero(nx),
                    KernelArg::Int(16),
                    KernelArg::Float(0.5),
                ]
            },
        },
        // ------------------------------------------------------ leukocyte
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "leukocyte",
            kernel: "gicov",
            source: "__kernel void gicov(__global float* grad_x, __global float* grad_y,
                                         __global float* gicov_out, int w, int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                float sum = 0.0f;
                float m = 0.0f;
                for (int k = 0; k < 8; k++) {
                    float gx = grad_x[i];
                    float gy = grad_y[i];
                    float d = gx * cos(0.785f * (float)k) + gy * sin(0.785f * (float)k);
                    sum += d * d;
                    m += d;
                }
                m = m / 8.0f;
                float var = sum / 8.0f - m * m;
                gicov_out[i] = m * m / (var + 0.001f);
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "leukocyte",
            kernel: "dilate",
            source: "__kernel void dilate(__global float* img, __global float* out, int w,
                                          int h) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                float best = 0.0f;
                for (int dy = -1; dy <= 1; dy++) {
                    for (int dx = -1; dx <= 1; dx++) {
                        int xx = x + dx;
                        int yy = y + dy;
                        if (xx >= 0 && xx < w && yy >= 0 && yy < h) {
                            best = fmax(best, img[yy * w + xx]);
                        }
                    }
                }
                out[y * w + x] = best;
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
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "leukocyte",
            kernel: "imgvf",
            source: "__kernel void imgvf(__global float* vf, __global float* out, int w, int h,
                                         float mu) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                float c = vf[i];
                float u = c;
                float d = c;
                float l = c;
                float r = c;
                if (y > 0) { u = vf[i - w]; }
                if (y < h - 1) { d = vf[i + w]; }
                if (x > 0) { l = vf[i - 1]; }
                if (x < w - 1) { r = vf[i + 1]; }
                float heaviside = 1.0f / (1.0f + exp(-c));
                out[i] = c + mu * (u + d + l + r - 4.0f * c) * heaviside;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                    KernelArg::Float(0.2),
                ]
            },
        },
        // ------------------------------------------------------------ lud
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "lud",
            kernel: "diagonal",
            source: "__kernel __attribute__((reqd_work_group_size(16, 1, 1)))
                void diagonal(__global float* m, int size, int offset) {
                int tid = get_global_id(0);
                __local float tile[16][17];
                int lid = get_local_id(0);
                for (int i = 0; i < 16; i++) {
                    tile[i][lid] = m[(offset + i) * size + offset + lid];
                }
                barrier(CLK_LOCAL_MEM_FENCE);
                float acc = tile[lid][lid];
                for (int k = 0; k < 16; k++) {
                    if (k < lid) { acc -= tile[lid][k] * tile[k][lid]; }
                }
                m[(offset + lid) * size + offset + lid] = acc + 0.0f * (float)tid;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let size = 64 + nx / 8;
                vec![fbuf(size * size, rng), KernelArg::Int(size as i64), KernelArg::Int(2)]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "lud",
            kernel: "perimeter",
            source: "__kernel void perimeter(__global float* m, __global float* out, int size,
                                             int offset) {
                int i = get_global_id(0);
                int row = i / 16;
                int col = i % 16;
                float acc = 0.0f;
                for (int k = 0; k < 16; k++) {
                    acc += m[(offset + row) * size + offset + k]
                         * m[(offset + k) * size + offset + col];
                }
                out[i] = acc;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let size = 64 + nx / 8;
                vec![
                    fbuf(size * size, rng),
                    fzero(nx),
                    KernelArg::Int(size as i64),
                    KernelArg::Int(4),
                ]
            },
        },
        // ------------------------------------------------------------- nn
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "nn",
            kernel: "nn",
            source: "__kernel void nn(__global float* lat, __global float* lng,
                                      __global float* dist, float target_lat,
                                      float target_lng) {
                int i = get_global_id(0);
                float dx = lat[i] - target_lat;
                float dy = lng[i] - target_lng;
                dist[i] = sqrt(dx * dx + dy * dy);
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    fbuf(nx, rng),
                    fbuf(nx, rng),
                    fzero(nx),
                    KernelArg::Float(0.7),
                    KernelArg::Float(1.1),
                ]
            },
        },
        // ------------------------------------------------------------- nw
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "nw",
            kernel: "nw1",
            source: "__kernel void nw1(__global int* similarity, __global int* matrix, int cols,
                                       int penalty, int diag) {
                int tid = get_global_id(0);
                int x = tid + 1;
                int y = diag - tid;
                if (y >= 1 && y < cols - 1 && x < cols - 1) {
                    int up = matrix[(y - 1) * cols + x];
                    int left = matrix[y * cols + (x - 1)];
                    int upleft = matrix[(y - 1) * cols + (x - 1)];
                    int a = upleft + similarity[y * cols + x];
                    int b = up - penalty;
                    int c = left - penalty;
                    int m = max(a, max(b, c));
                    matrix[y * cols + x] = m;
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let cols = nx + 2;
                vec![
                    ibuf_mod(cols * cols, 10, rng),
                    ibuf_mod(cols * cols, 20, rng),
                    KernelArg::Int(cols as i64),
                    KernelArg::Int(2),
                    KernelArg::Int((nx / 2) as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "nw",
            kernel: "nw2",
            source: "__kernel void nw2(__global int* similarity, __global int* matrix, int cols,
                                       int penalty, int diag) {
                int tid = get_global_id(0);
                int x = cols - 2 - tid;
                int y = diag - tid;
                if (x >= 1 && y >= 1 && y < cols - 1) {
                    int up = matrix[(y - 1) * cols + x];
                    int left = matrix[y * cols + (x - 1)];
                    int upleft = matrix[(y - 1) * cols + (x - 1)];
                    int m = max(upleft + similarity[y * cols + x],
                                max(up - penalty, left - penalty));
                    matrix[y * cols + x] = m;
                }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let cols = nx + 2;
                vec![
                    ibuf_mod(cols * cols, 10, rng),
                    ibuf_mod(cols * cols, 20, rng),
                    KernelArg::Int(cols as i64),
                    KernelArg::Int(2),
                    KernelArg::Int((nx / 2) as i64),
                ]
            },
        },
        // -------------------------------------------------- particlefilter
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "particlefilter",
            kernel: "find_index",
            source: "__kernel void find_index(__global float* cdf, __global float* u,
                                              __global int* indices, int n) {
                int i = get_global_id(0);
                float val = u[i];
                int idx = n - 1;
                for (int j = 0; j < n; j++) {
                    if (cdf[j] >= val && j < idx) { idx = j; }
                }
                indices[i] = idx;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let n = 64u64;
                vec![
                    KernelArg::FloatBuf((0..n).map(|i| (i + 1) as f64 / n as f64).collect()),
                    fbuf(nx, rng),
                    izero(nx),
                    KernelArg::Int(n as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "particlefilter",
            kernel: "normalize",
            source: "__kernel void normalize(__global float* weights, __global float* sum) {
                int i = get_global_id(0);
                weights[i] = weights[i] / sum[0];
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng), KernelArg::FloatBuf(vec![8.0])],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "particlefilter",
            kernel: "sum",
            source: "__kernel void sum(__global float* weights, __global float* partial, int n,
                                       int chunk) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = 0; j < chunk; j++) {
                    int idx = i * chunk + j;
                    if (idx < n) { s += weights[idx]; }
                }
                partial[i] = s;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let chunk = 8;
                vec![
                    fbuf(nx * chunk, rng),
                    fzero(nx),
                    KernelArg::Int((nx * chunk) as i64),
                    KernelArg::Int(chunk as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "particlefilter",
            kernel: "likelihood",
            source: "__kernel void likelihood(__global float* arrayX, __global float* arrayY,
                                              __global float* likelihood_out,
                                              __global int* seed) {
                int i = get_global_id(0);
                int s = seed[i];
                s = (1103515245 * s + 12345) & 0x7fffffff;
                float rx = (float)(s % 1000) / 1000.0f - 0.5f;
                s = (1103515245 * s + 12345) & 0x7fffffff;
                float ry = (float)(s % 1000) / 1000.0f - 0.5f;
                seed[i] = s;
                float x = arrayX[i] + rx;
                float y = arrayY[i] + ry;
                likelihood_out[i] = exp(-(x * x + y * y) / 2.0f);
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![fbuf(nx, rng), fbuf(nx, rng), fzero(nx), ibuf_mod(nx, 1 << 30, rng)]
            },
        },
        // ----------------------------------------------------- pathfinder
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "pathfinder",
            kernel: "dynproc",
            source: "__kernel void dynproc(__global int* wall, __global int* src,
                                           __global int* dst, int cols) {
                int i = get_global_id(0);
                int left = src[i];
                int center = src[i];
                int right = src[i];
                if (i > 0) { left = src[i - 1]; }
                if (i < cols - 1) { right = src[i + 1]; }
                int shortest = min(left, min(center, right));
                dst[i] = shortest + wall[i];
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                vec![
                    ibuf_mod(nx, 10, rng),
                    ibuf_mod(nx, 100, rng),
                    izero(nx),
                    KernelArg::Int(nx as i64),
                ]
            },
        },
        // ----------------------------------------------------------- srad
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "extract",
            source: "__kernel void extract(__global float* img, __global float* out) {
                int i = get_global_id(0);
                out[i] = exp(img[i] / 255.0f);
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng), fzero(nx)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "prepare",
            source: "__kernel void prepare(__global float* img, __global float* sums,
                                           __global float* sums2) {
                int i = get_global_id(0);
                float v = img[i];
                sums[i] = v;
                sums2[i] = v * v;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng), fzero(nx), fzero(nx)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "reduce",
            source: "__kernel void reduce(__global float* sums, __global float* out, int n,
                                          int chunk) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < chunk; j++) {
                    int idx = i * chunk + j;
                    if (idx < n) { acc += sums[idx]; }
                }
                out[i] = acc;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let chunk = 8;
                vec![
                    fbuf(nx * chunk, rng),
                    fzero(nx),
                    KernelArg::Int((nx * chunk) as i64),
                    KernelArg::Int(chunk as i64),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "srad",
            source: "__kernel void srad(__global float* img, __global float* c_out,
                                        __global float* deriv, int w, int h, float q0) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                float jc = img[i];
                float jn = jc;
                float js = jc;
                float jw = jc;
                float je = jc;
                if (y > 0) { jn = img[i - w]; }
                if (y < h - 1) { js = img[i + w]; }
                if (x > 0) { jw = img[i - 1]; }
                if (x < w - 1) { je = img[i + 1]; }
                float dn = jn - jc;
                float ds = js - jc;
                float dw = jw - jc;
                float de = je - jc;
                float g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc + 0.0001f);
                float l = (dn + ds + dw + de) / (jc + 0.0001f);
                float num = 0.5f * g2 - 0.0625f * l * l;
                float den = 1.0f + 0.25f * l;
                float qsqr = num / (den * den + 0.0001f);
                float cval = 1.0f / (1.0f + (qsqr - q0) / (q0 * (1.0f + q0) + 0.0001f));
                c_out[i] = clamp(cval, 0.0f, 1.0f);
                deriv[i] = dn + ds + dw + de;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                    KernelArg::Float(0.5),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "srad2",
            source: "__kernel void srad2(__global float* img, __global float* c_in,
                                         __global float* deriv, __global float* out, int w,
                                         int h, float lambda) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                int i = y * w + x;
                float cs = c_in[i];
                float ce = cs;
                if (y < h - 1) { cs = c_in[i + w]; }
                if (x < w - 1) { ce = c_in[i + 1]; }
                float d = c_in[i] * deriv[i] + cs * deriv[i] + ce * deriv[i];
                out[i] = img[i] + 0.25f * lambda * d;
            }",
            base_global: (32, 32),
            build_args: |nx, ny, rng| {
                vec![
                    fbuf(nx * ny, rng),
                    fbuf(nx * ny, rng),
                    fbuf(nx * ny, rng),
                    fzero(nx * ny),
                    KernelArg::Int(nx as i64),
                    KernelArg::Int(ny as i64),
                    KernelArg::Float(0.3),
                ]
            },
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "srad",
            kernel: "compress",
            source: "__kernel void compress(__global float* img) {
                int i = get_global_id(0);
                img[i] = log(img[i] + 1.0f) * 255.0f;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| vec![fbuf(nx, rng)],
        },
        // -------------------------------------------------- streamcluster
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "streamcluster",
            kernel: "memset",
            source: "__kernel void memset(__global int* flags, __global float* costs) {
                int i = get_global_id(0);
                flags[i] = 0;
                costs[i] = 0.0f;
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, _rng| vec![izero(nx), fzero(nx)],
        },
        KernelSpec {
            suite: Suite::Rodinia,
            benchmark: "streamcluster",
            kernel: "pgain",
            source: "__kernel void pgain(__global float* points, __global float* center,
                                         __global float* costs, __global float* gain, int dims) {
                int i = get_global_id(0);
                float dist = 0.0f;
                for (int d = 0; d < dims; d++) {
                    float diff = points[i * dims + d] - center[d];
                    dist += diff * diff;
                }
                float delta = dist - costs[i];
                if (delta < 0.0f) { gain[i] = -delta; } else { gain[i] = 0.0f; }
            }",
            base_global: (1024, 1),
            build_args: |nx, _ny, rng| {
                let dims = 8u64;
                vec![
                    fbuf(nx * dims, rng),
                    fbuf(dims, rng),
                    fbuf(nx, rng),
                    fzero(nx),
                    KernelArg::Int(dims as i64),
                ]
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_45_kernels() {
        assert_eq!(all().len(), 45);
    }

    #[test]
    fn all_sources_compile_and_lower() {
        for spec in all() {
            let program = flexcl_frontend::parse_and_check(spec.source)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
            let kernel = program
                .kernel(spec.kernel)
                .unwrap_or_else(|| panic!("{}: kernel not found", spec.full_name()));
            let func = flexcl_ir::lower_kernel(kernel)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
            assert_eq!(func.validate(), Ok(()), "{}", spec.full_name());
        }
    }

    #[test]
    fn all_workloads_execute_in_bounds() {
        use flexcl_interp::{run, NdRange, RunOptions};
        for spec in all() {
            let program = flexcl_frontend::parse_and_check(spec.source).expect("frontend");
            let func = flexcl_ir::lower_kernel(program.kernel(spec.kernel).expect("kernel"))
                .expect("lowering");
            let w = spec.workload(crate::Scale::Test, 42);
            let mut args = w.args.clone();
            let local = match func.reqd_work_group_size {
                Some((x, y, z)) => [u64::from(x), u64::from(y), u64::from(z)],
                None if w.global.1 > 1 => [8, 8, 1],
                None => [64, 1, 1],
            };
            let nd = NdRange { global: [w.global.0, w.global.1, 1], local };
            run(&func, &mut args, nd, RunOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.full_name()));
        }
    }
}
