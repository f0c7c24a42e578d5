//! Bottleneck analysis and code-restructuring hints.
//!
//! The paper positions FlexCL not just as a predictor but as a diagnostic:
//! "help to identify the performance bottlenecks on FPGAs [and] give code
//! restructuring hints". This example compares two versions of the same
//! computation — a strided gather and a coalesced streaming version — and
//! shows how the model's components (II vs L_mem, pattern mix) pinpoint
//! the problem before anything is synthesized.
//!
//! Run with:
//! `cargo run -p flexcl-bench --example bottleneck_analysis --release`

use flexcl_core::{CommMode, FlexCl, OptimizationConfig, Platform, Workload};
use flexcl_interp::KernelArg;

const STRIDED: &str = "
    __kernel void gather(__global float* in, __global float* out, int stride) {
        int i = get_global_id(0);
        out[i] = in[i * stride] * 2.0f;
    }";

const COALESCED: &str = "
    __kernel void stream(__global float* in, __global float* out, int stride) {
        int i = get_global_id(0);
        out[i] = in[i] * 2.0f;
    }";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
    let n: u64 = 4096;
    let stride = 16i64;

    let config = OptimizationConfig {
        work_item_pipeline: true,
        comm_mode: CommMode::Pipeline,
        ..OptimizationConfig::baseline((64, 1))
    };

    println!("config: {config}\n");
    for (label, src, name) in [
        ("strided gather (in[i*16])", STRIDED, "gather"),
        ("coalesced stream (in[i])", COALESCED, "stream"),
    ] {
        let workload = Workload {
            args: vec![
                KernelArg::FloatBuf(vec![1.0; (n * stride as u64) as usize]),
                KernelArg::FloatBuf(vec![0.0; n as usize]),
                KernelArg::Int(stride),
            ],
            global: (n, 1),
        };
        let analysis = flexcl.analyze_source(src, name, &workload, config.work_group)?;
        let est = flexcl_core::estimate(&analysis, &config)?;
        let base = &analysis.mem_levels[0];

        println!("{label}:");
        println!(
            "  transactions/work-item: {:.3}   L_mem/wi: {:.2} cycles   II_comp: {}",
            base.global_accesses_per_wi,
            base.l_mem_wi(&analysis.pattern_latencies, CommMode::Pipeline),
            est.ii_comp
        );
        let dominant = if est.ii_wi > f64::from(est.ii_comp) + 0.5 {
            "MEMORY-BOUND: the work-item interval is set by global memory, \
             not computation.\n  hint: make accesses consecutive so the \
             512-bit burst engine can coalesce them"
        } else {
            "compute-bound: memory keeps up with the pipeline"
        };
        println!("  verdict: {dominant}");
        println!("  predicted total: {:.0} cycles\n", est.cycles);

        // The pattern mix explains *why*: strided access defeats both
        // coalescing and the row buffers.
        let misses: f64 = base.pattern_counts.iter().filter(|(p, _)| !p.hit).map(|(_, n)| n).sum();
        let hits: f64 = base.pattern_counts.iter().filter(|(p, _)| p.hit).map(|(_, n)| n).sum();
        println!(
            "  row-buffer behaviour: {:.2} hit vs {:.2} miss transactions per work-item\n",
            hits, misses
        );
    }
    Ok(())
}
