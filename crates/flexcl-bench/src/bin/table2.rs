//! Experiment E1 — Table 2: performance-estimation results for all 45
//! Rodinia kernels.
//!
//! For every kernel the full optimization design space is swept; each
//! feasible point is measured with the System Run simulator (ground
//! truth) and estimated by the SDAccel-style baseline and by FlexCL. The
//! table reports, per kernel: the number of designs, the average absolute
//! estimation errors, and the design-space exploration times of the three
//! approaches (System Run extrapolated to synthesis hours, as in the
//! paper; measured simulator time is written to the CSV).
//!
//! Regenerate with `cargo run -p flexcl-bench --bin table2 --release`
//! (append a kernel name, e.g. `nn/nn`, to sweep a single kernel).

use flexcl_bench::{fmt_dur, sweep_kernel, write_csv, SYNTHESIS_HOURS_PER_DESIGN};
use flexcl_core::Platform;
use flexcl_kernels::{rodinia, Scale};
use std::time::Instant;

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let platform = Platform::virtex7_adm7v3();
    let t0 = Instant::now();

    println!("Table 2: Performance Estimation Results of Rodinia");
    println!("{:-<104}", "");
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>7} | {:>14} {:>10} {:>10}",
        "Kernel",
        "#Designs",
        "SDAccel err",
        "FlexCL err",
        "SDfail",
        "SystemRun(est)",
        "SDAccel t",
        "FlexCL t"
    );
    println!("{:-<104}", "");

    let mut rows = Vec::new();
    let mut all_flexcl = Vec::new();
    let mut all_sdaccel = Vec::new();
    let mut total_fail = (0usize, 0usize);

    for spec in rodinia() {
        if let Some(f) = &filter {
            if spec.full_name() != *f {
                continue;
            }
        }
        let sweep = sweep_kernel(&spec, &platform, Scale::Test);
        let synth_hours = sweep.records.len() as f64 * SYNTHESIS_HOURS_PER_DESIGN;
        println!(
            "{:<24} {:>8} {:>11.1}% {:>11.1}% {:>6.0}% | {:>11.0} hrs {:>10} {:>10}",
            sweep.name,
            sweep.designs,
            sweep.sdaccel_error_pct(),
            sweep.flexcl_error_pct(),
            sweep.sdaccel_failure_rate() * 100.0,
            synth_hours,
            fmt_dur(sweep.sdaccel_time),
            fmt_dur(sweep.flexcl_time),
        );
        all_flexcl.push(sweep.flexcl_error_pct());
        all_sdaccel.push(sweep.sdaccel_error_pct());
        total_fail.0 += sweep.records.iter().filter(|r| r.sdaccel_cycles.is_none()).count();
        total_fail.1 += sweep.records.len();
        rows.push(format!(
            "{},{},{:.2},{:.2},{:.2},{:.2},{:.3},{:.3},{:.3}",
            sweep.name,
            sweep.designs,
            sweep.sdaccel_error_pct(),
            sweep.flexcl_error_pct(),
            sweep.sdaccel_failure_rate() * 100.0,
            synth_hours,
            sweep.system_time.as_secs_f64(),
            sweep.sdaccel_time.as_secs_f64(),
            sweep.flexcl_time.as_secs_f64(),
        ));
    }

    println!("{:-<104}", "");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "AVERAGE: SDAccel err {:.1}% (paper: 30.4-84.9%), FlexCL err {:.1}% (paper avg: 9.5%),",
        avg(&all_sdaccel),
        avg(&all_flexcl)
    );
    println!(
        "         SDAccel failures {:.0}% of designs (paper: ~42%), total wall time {}",
        100.0 * total_fail.0 as f64 / total_fail.1.max(1) as f64,
        fmt_dur(t0.elapsed())
    );
    write_csv(
        "table2_rodinia.csv",
        "kernel,designs,sdaccel_err_pct,flexcl_err_pct,sdaccel_fail_pct,\
         systemrun_extrapolated_hours,sim_seconds,sdaccel_seconds,flexcl_seconds",
        &rows,
    );
}
