//! Experiment E4 — §4.2 robustness: FlexCL on a second platform.
//!
//! The paper re-runs `HotSpot` and `pathfinder` on a NAS-120A board with a
//! Kintex UltraScale KU060 and reports 9.7% / 13.6% average error,
//! demonstrating the model is not tuned to one device. We evaluate the
//! same two benchmarks on the KU060 platform profile (different latency
//! tables, DSP/BRAM capacities, DDR4-class memory) with the same design
//! points.
//!
//! Regenerate with `cargo run -p flexcl-bench --bin robustness --release`.

use flexcl_bench::{find_spec, sweep_kernel, write_csv};
use flexcl_core::Platform;
use flexcl_kernels::Scale;

fn main() {
    let mut rows = Vec::new();
    println!("Robustness: FlexCL accuracy on the KU060 platform");
    println!("{:-<64}", "");
    println!("{:<26} {:>12} {:>12}", "Kernel", "7V3 err", "KU060 err");
    println!("{:-<64}", "");
    for name in ["hotspot/hotspot", "pathfinder/dynproc"] {
        let spec = find_spec(name);
        let v7 = sweep_kernel(&spec, &Platform::virtex7_adm7v3(), Scale::Test);
        let ku = sweep_kernel(&spec, &Platform::ku060_nas120a(), Scale::Test);
        println!("{:<26} {:>11.1}% {:>11.1}%", name, v7.flexcl_error_pct(), ku.flexcl_error_pct());
        rows.push(format!("{},{:.2},{:.2}", name, v7.flexcl_error_pct(), ku.flexcl_error_pct()));
    }
    println!("{:-<64}", "");
    println!("(paper: HotSpot 9.7%, pathfinder 13.6% on KU060)");
    write_csv("robustness_ku060.csv", "kernel,err_adm7v3_pct,err_ku060_pct", &rows);
}
