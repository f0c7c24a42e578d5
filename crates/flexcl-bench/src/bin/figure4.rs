//! Experiment E3 — Figure 4: per-design-point estimated (FlexCL) vs actual
//! (System Run) performance for `hotspot3D` and `nn`.
//!
//! The paper's figure plots both series over the optimization
//! configuration id; the claim is that FlexCL tracks the actual
//! performance point-by-point, not just on average. This binary writes one
//! CSV per kernel and prints a compact summary (per-point error quantiles
//! and a coarse ASCII rendering).
//!
//! Regenerate with `cargo run -p flexcl-bench --bin figure4 --release`.

use flexcl_bench::{find_spec, sweep_kernel, write_csv};
use flexcl_core::Platform;
use flexcl_kernels::Scale;

fn main() {
    let platform = Platform::virtex7_adm7v3();
    for name in ["hotspot3D/hotspot3D", "nn/nn"] {
        let spec = find_spec(name);
        let sweep = sweep_kernel(&spec, &platform, Scale::Test);
        let short = name.split('/').next().expect("name");

        let mut rows = Vec::new();
        let mut errs: Vec<f64> = Vec::new();
        for (id, r) in sweep.records.iter().enumerate() {
            rows.push(format!(
                "{},{},{:.0},{:.0},{:.4}",
                id,
                r.config,
                r.system_cycles,
                r.flexcl_cycles,
                r.flexcl_err()
            ));
            errs.push(r.flexcl_err());
        }
        errs.sort_by(f64::total_cmp);
        let pct = |q: f64| errs[((errs.len() - 1) as f64 * q) as usize] * 100.0;

        println!("Figure 4 — {short}: {} design points", sweep.records.len());
        println!(
            "  per-point |error|: median {:.1}%  p90 {:.1}%  max {:.1}%  (mean {:.1}%)",
            pct(0.5),
            pct(0.9),
            pct(1.0),
            sweep.flexcl_error_pct()
        );
        ascii_plot(&sweep.records);
        write_csv(
            &format!("figure4_{short}.csv"),
            "config_id,config,actual_cycles,flexcl_cycles,rel_err",
            &rows,
        );
    }
}

/// Coarse terminal rendering: actual (`*`) and FlexCL (`o`) per config, log
/// scale, one column per bucket of configs.
fn ascii_plot(records: &[flexcl_bench::ConfigRecord]) {
    const WIDTH: usize = 72;
    const HEIGHT: usize = 12;
    if records.is_empty() {
        return;
    }
    let max =
        records.iter().map(|r| r.system_cycles.max(r.flexcl_cycles)).fold(0f64, f64::max).ln();
    let min = records
        .iter()
        .map(|r| r.system_cycles.min(r.flexcl_cycles))
        .fold(f64::INFINITY, f64::min)
        .ln();
    let span = (max - min).max(1e-9);
    let mut grid = vec![vec![b' '; WIDTH]; HEIGHT];
    for (i, r) in records.iter().enumerate() {
        let col = i * WIDTH / records.len();
        let row_a = ((max - r.system_cycles.ln()) / span * (HEIGHT - 1) as f64) as usize;
        let row_f = ((max - r.flexcl_cycles.ln()) / span * (HEIGHT - 1) as f64) as usize;
        grid[row_a.min(HEIGHT - 1)][col] = b'*';
        let rf = row_f.min(HEIGHT - 1);
        grid[rf][col] = if grid[rf][col] == b'*' { b'@' } else { b'o' };
    }
    println!("  cycles (log)   *=actual  o=FlexCL  @=overlap");
    for row in grid {
        println!("  |{}", String::from_utf8_lossy(&row));
    }
    println!("  +{}", "-".repeat(WIDTH));
    println!("   configuration id ->");
}
