//! Design-space exploration: rank hundreds of optimization configurations
//! of a stencil kernel in seconds (§4.3 of the paper).
//!
//! The paper's motivating workflow: instead of synthesizing each candidate
//! (hours per design point), FlexCL evaluates the whole space analytically
//! and hands back a ranked list; the designer synthesizes only the winner.
//!
//! Run with:
//! `cargo run -p flexcl-bench --example design_space_exploration --release`

use flexcl_core::{FlexCl, Platform, Workload};
use flexcl_interp::KernelArg;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-D Jacobi stencil — the classic FPGA offload candidate.
    let src = "
        __kernel void jacobi(__global float* in, __global float* out, int w, int h) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int i = y * w + x;
            if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
                out[i] = 0.2f * (in[i] + in[i - 1] + in[i + 1] + in[i - w] + in[i + w]);
            }
        }";

    let (w, h) = (64u64, 64u64);
    let workload = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; (w * h) as usize]),
            KernelArg::FloatBuf(vec![0.0; (w * h) as usize]),
            KernelArg::Int(w as i64),
            KernelArg::Int(h as i64),
        ],
        global: (w, h),
    };

    let flexcl = FlexCl::new(Platform::virtex7_adm7v3());
    let t0 = Instant::now();
    let result = flexcl.explore_source(src, "jacobi", &workload)?;
    let elapsed = t0.elapsed();

    let mut ranked: Vec<_> = result.points.iter().filter(|p| p.estimate.feasible).collect();
    ranked.sort_by(|a, b| a.estimate.cycles.total_cmp(&b.estimate.cycles));

    println!(
        "explored {} configurations ({} feasible) in {:.2} s",
        result.points.len(),
        result.feasible_count(),
        elapsed.as_secs_f64()
    );
    println!("\ntop 5 configurations:");
    for (rank, p) in ranked.iter().take(5).enumerate() {
        println!(
            "  #{:<2} {:<44} {:>9.0} cycles",
            rank + 1,
            p.config.to_string(),
            p.estimate.cycles
        );
    }
    println!("\nbottom 3 (what you avoid synthesizing):");
    for p in ranked.iter().rev().take(3) {
        println!("      {:<44} {:>9.0} cycles", p.config.to_string(), p.estimate.cycles);
    }
    if let Some(speedup) = result.speedup_over_baseline() {
        println!("\nbest configuration beats the unoptimized baseline by {speedup:.0}x");
    }
    println!(
        "at ~0.7 h of synthesis per design point, the same sweep through the\n\
         toolchain would take ~{:.0} hours",
        result.points.len() as f64 * 0.7
    );
    Ok(())
}
