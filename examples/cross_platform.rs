//! Cross-platform what-if analysis (§4.2 robustness).
//!
//! The same OpenCL kernel, the same design point, two FPGAs: the Virtex-7
//! evaluation board and the UltraScale KU060 robustness board. FlexCL's
//! platform profile carries the latency tables, resource capacities and
//! DRAM timings, so re-targeting is a one-line change — this is the
//! "performance comparison across architectures" use the introduction
//! motivates.
//!
//! Run with: `cargo run -p flexcl-bench --example cross_platform --release`

use flexcl_core::{CommMode, FlexCl, OptimizationConfig, Platform, Workload};
use flexcl_interp::KernelArg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A transcendental-heavy kernel: platform latency tables matter.
    let src = "
        __kernel void activation(__global float* x, __global float* y) {
            int i = get_global_id(0);
            float v = x[i];
            y[i] = 1.0f / (1.0f + exp(-v)) + 0.1f * sqrt(fabs(v));
        }";

    let n: u64 = 4096;
    let workload = || Workload {
        args: vec![
            KernelArg::FloatBuf(vec![0.5; n as usize]),
            KernelArg::FloatBuf(vec![0.0; n as usize]),
        ],
        global: (n, 1),
    };
    let config = OptimizationConfig {
        work_item_pipeline: true,
        comm_mode: CommMode::Pipeline,
        num_cus: 2,
        ..OptimizationConfig::baseline((64, 1))
    };

    println!("kernel `activation`, config: {config}\n");
    let mut rows = Vec::new();
    for platform in [Platform::virtex7_adm7v3(), Platform::ku060_nas120a()] {
        let flexcl = FlexCl::new(platform);
        let w = workload();
        let est = flexcl.estimate_source(src, "activation", &w, &config)?;
        println!("{}:", flexcl.platform().name);
        println!("  II={}, depth={} cycles, L_mem/wi={:.2}", est.ii_comp, est.depth, est.l_mem_wi);
        println!(
            "  predicted: {:.0} cycles = {:.1} us\n",
            est.cycles,
            est.seconds(flexcl.platform().frequency_mhz) * 1e6
        );
        rows.push((flexcl.platform().name.clone(), est.cycles));
    }
    let ratio = rows[0].1 / rows[1].1;
    println!(
        "the UltraScale part finishes this kernel {ratio:.2}x faster — known\n\
         before buying either board."
    );
    Ok(())
}
