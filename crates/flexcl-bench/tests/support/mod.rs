//! Helpers shared by the golden-file tests.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use flexcl_dram::PatternTable;

/// Asserts that `current` matches the golden file `name` line for line.
/// On a mismatch the current rendering is written to `<name>.actual.txt`
/// under the cargo test scratch directory for inspection, and the panic
/// names `what` drifted and every mismatched line. The golden itself is
/// never regenerated to make a change pass.
pub fn assert_golden(name: &str, golden: &str, current: &str, what: &str) {
    let mismatches: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want: {want}\n  got:  {got}"))
        .collect();
    let (want_n, got_n) = (golden.lines().count(), current.lines().count());
    if !mismatches.is_empty() || want_n != got_n {
        let path = format!("{}/{name}.actual.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, current).expect("write actual output");
        panic!(
            "{what} drifted from the golden ({} mismatched lines, {want_n} golden vs \
             {got_n} current; full output in {path}):\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

/// 64-bit FNV-1a over little-endian words: specified, so the golden does
/// not depend on the standard library's hasher.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn table(self, t: &PatternTable<f64>) -> Self {
        t.iter().fold(self, |h, (_, v)| h.f64(v))
    }
}
