//! Helpers shared by the golden-file tests.

use flexcl_dram::PatternTable;

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

    #[allow(dead_code)] // not every golden hashes pattern tables
    pub fn table(self, t: &PatternTable<f64>) -> Self {
        t.iter().fold(self, |h, (_, v)| h.f64(v))
    }
}

/// The work-group the corpus is analyzed at: the kernel's required size,
/// else 8×8 for 2-D NDRanges and 64×1 for 1-D ones.
pub fn standard_wg(global: (u64, u64), reqd: Option<(u32, u32, u32)>) -> (u32, u32) {
    match reqd {
        Some((x, y, _)) => (x, y),
        None if global.1 > 1 => (8, 8),
        None => (64, 1),
    }
}
