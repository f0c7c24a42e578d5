//! Global-memory access coalescing.
//!
//! SDAccel automatically merges consecutive reads (or writes) into wide
//! bursts of the memory access unit size (512 bit). The number of memory
//! transactions drops by the coalescing degree
//! `f = MemoryAccessUnitSize / DataTypeBitWidth` (§3.4): 1024 consecutive
//! 32-bit reads against a 512-bit unit become 1024 / 16 = 64 accesses.

use crate::pattern::AccessKind;

/// An uncoalesced element access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementAccess {
    /// Byte address of the element.
    pub addr: u64,
    /// Element size in bytes.
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
}

/// A coalesced memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Byte address of the first element.
    pub addr: u64,
    /// Total bytes covered.
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// How many element accesses were merged.
    pub merged: u32,
}

impl Burst {
    /// The burst of the single element access `a`.
    pub fn of(a: &ElementAccess) -> Burst {
        Burst { addr: a.addr, bytes: a.bytes, kind: a.kind, merged: 1 }
    }

    /// Merges `a` into this burst if it continues it: same kind, exactly
    /// contiguous, and the burst stays within one `unit_bytes` unit.
    /// Returns whether it merged.
    #[inline]
    pub fn extend(&mut self, a: &ElementAccess, unit_bytes: u32) -> bool {
        let contiguous = self.addr + u64::from(self.bytes) == a.addr;
        let same_kind = self.kind == a.kind;
        let fits = self.bytes + a.bytes <= unit_bytes;
        // A burst may not straddle a unit boundary (hardware alignment).
        let same_unit = (self.addr / u64::from(unit_bytes))
            == (a.addr + u64::from(a.bytes) - 1) / u64::from(unit_bytes);
        if contiguous && same_kind && fits && same_unit {
            self.bytes += a.bytes;
            self.merged += 1;
            true
        } else {
            false
        }
    }
}

/// Coalesces a stream of element accesses into bursts of at most
/// `unit_bytes`.
///
/// Elements merge into the current burst while they have the same kind,
/// are exactly contiguous with it, and the burst stays within one unit
/// ([`Burst::extend`]).
pub fn coalesce(accesses: &[ElementAccess], unit_bytes: u32) -> Vec<Burst> {
    let mut out: Vec<Burst> = Vec::new();
    for a in accesses {
        if !out.last_mut().is_some_and(|cur| cur.extend(a, unit_bytes)) {
            out.push(Burst::of(a));
        }
    }
    out
}

/// The ideal coalescing degree `f` for perfectly consecutive accesses.
pub fn coalescing_degree(unit_bits: u32, dtype_bits: u32) -> u32 {
    (unit_bits / dtype_bits.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(n: u64, stride: u64, bytes: u32) -> Vec<ElementAccess> {
        (0..n).map(|i| ElementAccess { addr: i * stride, bytes, kind: AccessKind::Read }).collect()
    }

    #[test]
    fn paper_example_1024_ints_become_64_bursts() {
        // 1024 consecutive 32-bit reads, 512-bit unit → 64 transactions.
        let accesses = reads(1024, 4, 4);
        let bursts = coalesce(&accesses, 64);
        assert_eq!(bursts.len(), 64);
        assert!(bursts.iter().all(|b| b.merged == 16 && b.bytes == 64));
        assert_eq!(coalescing_degree(512, 32), 16);
    }

    #[test]
    fn strided_accesses_do_not_coalesce() {
        let accesses = reads(16, 128, 4);
        let bursts = coalesce(&accesses, 64);
        assert_eq!(bursts.len(), 16);
        assert!(bursts.iter().all(|b| b.merged == 1));
    }

    #[test]
    fn kind_change_breaks_burst() {
        let mut accesses = reads(4, 4, 4);
        accesses.insert(2, ElementAccess { addr: 8, bytes: 4, kind: AccessKind::Write });
        let bursts = coalesce(&accesses, 64);
        assert!(bursts.len() >= 3);
    }

    #[test]
    fn unit_boundary_breaks_burst() {
        // 32 consecutive 4-byte reads with a 64-byte unit: exactly 2 bursts.
        let accesses = reads(32, 4, 4);
        let bursts = coalesce(&accesses, 64);
        assert_eq!(bursts.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(&[], 64).is_empty());
    }

    #[test]
    fn degree_is_at_least_one() {
        assert_eq!(coalescing_degree(512, 512), 1);
        assert_eq!(coalescing_degree(512, 1024), 1);
        assert_eq!(coalescing_degree(512, 64), 8);
    }
}
