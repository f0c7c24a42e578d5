//! Experiment E7 — Table 1: the eight global-memory access patterns and
//! their micro-benchmarked latencies `ΔT` on both platforms.
//!
//! Regenerate with `cargo run -p flexcl-bench --bin table1_patterns --release`.

use flexcl_bench::write_csv;
use flexcl_dram::{microbench, DramConfig, Pattern};

fn main() {
    let v7 = microbench::profile(DramConfig::adm_pcie_7v3());
    let ku = microbench::profile(DramConfig::nas_120a_ku060());

    println!("Table 1: Global Memory Access Patterns And Parameters");
    println!("{:-<66}", "");
    println!("{:<32} {:>14} {:>14}", "Pattern", "dT (7V3) [cyc]", "dT (KU060) [cyc]");
    println!("{:-<66}", "");
    let mut rows = Vec::new();
    for p in Pattern::all() {
        let label = pattern_label(&p);
        println!("{label:<32} {:>14.1} {:>14.1}", v7[p], ku[p]);
        rows.push(format!("{},{:.3},{:.3}", p.name(), v7[p], ku[p]));
    }
    write_csv("table1_patterns.csv", "pattern,dt_adm7v3_cycles,dt_ku060_cycles", &rows);
}

fn pattern_label(p: &Pattern) -> String {
    use flexcl_dram::AccessKind::*;
    let now = match p.now {
        Read => "read",
        Write => "write",
    };
    let prev = match p.prev {
        Read => "read",
        Write => "write",
    };
    let hit = if p.hit { "hit" } else { "miss" };
    format!("{now}({hit}) access after {prev}")
}
