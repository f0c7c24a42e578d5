//! Quickstart: estimate an OpenCL kernel's FPGA performance in one page.
//!
//! This walks the full FlexCL pipeline on the paper's running example — a
//! kernel with an inter-work-item dependency (Figure 3) — and shows what
//! the model reports: the work-item initiation interval `II`, the pipeline
//! depth `D`, the per-work-item memory latency, and total kernel cycles
//! under both communication modes.
//!
//! Run with: `cargo run -p flexcl-bench --example quickstart --release`

use flexcl_core::{CommMode, FlexCl, OptimizationConfig, Platform, Workload};
use flexcl_interp::KernelArg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure-3 style kernel: work-item i+1 reads what work-item i
    // wrote, so the work-item pipeline carries a recurrence.
    let src = "
        __kernel void add(__global float* a, __global float* b) {
            int i = get_global_id(0);
            b[i + 1] = b[i] + a[i];
        }";

    let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
    let n = 4096;
    let workload = Workload {
        args: vec![KernelArg::FloatBuf(vec![1.0; n]), KernelArg::FloatBuf(vec![0.0; n + 1])],
        global: (n as u64, 1),
    };

    println!("kernel `add` on {}:", flexcl.platform().name);

    // One analysis serves every configuration with the same work-group size.
    let analysis = flexcl.analyze_source(src, "add", &workload, (64, 1))?;
    println!("  inter-work-item recurrences : {}", analysis.recurrences.len());
    println!("  RecMII                      : {}", analysis.rec_mii());
    let l_mem = analysis.mem_levels[0].l_mem_wi(&analysis.pattern_latencies, CommMode::Pipeline);
    println!("  L_mem per work-item         : {:.2} cycles", l_mem);

    for (label, config) in [
        ("unoptimized (no pipeline)", OptimizationConfig::baseline((64, 1))),
        (
            "work-item pipeline",
            OptimizationConfig {
                work_item_pipeline: true,
                ..OptimizationConfig::baseline((64, 1))
            },
        ),
        (
            "pipeline + overlapped memory",
            OptimizationConfig {
                work_item_pipeline: true,
                comm_mode: CommMode::Pipeline,
                ..OptimizationConfig::baseline((64, 1))
            },
        ),
    ] {
        let est = flexcl.estimate_source(src, "add", &workload, &config)?;
        println!(
            "  {label:<30}: {:>9.0} cycles  (II={}, D={}, {:.1} us at 200 MHz)",
            est.cycles,
            est.ii_comp,
            est.depth,
            est.seconds(200.0) * 1e6
        );
    }

    println!(
        "\nThe recurrence keeps II at {} even with pipelining — FlexCL surfaces\n\
         exactly why this kernel will not reach II = 1 on the FPGA.",
        analysis.rec_mii()
    );
    Ok(())
}
