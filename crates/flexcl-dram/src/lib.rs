//! # flexcl-dram
//!
//! Banked DRAM model for FlexCL (DAC'17 reproduction, §3.4).
//!
//! The paper models off-chip global memory as a multi-bank DRAM with
//! per-bank row buffers and byte-interleaved data mapping, classifies each
//! access into one of eight patterns ({read,write} after {read,write} ×
//! {row-buffer hit, miss}, Table 1), and obtains each pattern's latency
//! `ΔT` through micro-benchmark profiling. SDAccel-style access coalescing
//! reduces the transaction count by `f = unit_size / dtype_width`.
//!
//! This crate provides these pieces:
//!
//! * [`config`] — geometry, DDR3/DDR4 timing presets, address mapping;
//! * [`pattern`] — the Table-1 pattern taxonomy and analytic latencies;
//! * [`sim`] — a behavioural simulator (bank queues, open rows) used as the
//!   memory backend of the System Run simulator;
//! * [`summary`] — per-bank summaries of serially served burst streams,
//!   which replay them exactly without the simulator;
//! * [`mod@coalesce`] — burst coalescing;
//! * [`microbench`] — the profiling flow that recovers the `ΔT` table.
//!
//! ```
//! use flexcl_dram::{DramConfig, microbench};
//!
//! let delta_t = microbench::profile(DramConfig::adm_pcie_7v3());
//! for (pattern, latency) in delta_t.iter() {
//!     assert!(latency > 0.0, "{pattern} must have a measured latency");
//! }
//! ```

#![warn(missing_docs)]

pub mod coalesce;
pub mod config;
pub mod microbench;
pub mod pattern;
pub mod sim;
pub mod summary;

pub use coalesce::{coalesce, coalescing_degree, Burst, ElementAccess};
pub use config::{DramConfig, DramTiming};
pub use pattern::{analytic_latencies, AccessKind, Pattern, PatternTable};
pub use sim::{DramSim, Request, ServiceInfo};
pub use summary::{StreamSummaries, StreamSummary};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Address mapping is total and stable: same address, same (bank, row).
        #[test]
        fn mapping_is_deterministic(addr in 0u64..1 << 34) {
            let c = DramConfig::adm_pcie_7v3();
            prop_assert_eq!(c.map(addr), c.map(addr));
            let (bank, _row) = c.map(addr);
            prop_assert!(bank < c.num_banks);
        }

        /// Coalescing never increases the number of transactions and
        /// conserves total bytes.
        #[test]
        fn coalescing_conserves_bytes(
            n in 1usize..200,
            stride in prop::sample::select(vec![4u64, 8, 16, 64, 128]),
        ) {
            let accesses: Vec<ElementAccess> = (0..n as u64)
                .map(|i| ElementAccess { addr: i * stride, bytes: 4, kind: AccessKind::Read })
                .collect();
            let bursts = coalesce(&accesses, 64);
            prop_assert!(bursts.len() <= accesses.len());
            let in_bytes: u64 = accesses.iter().map(|a| u64::from(a.bytes)).sum();
            let out_bytes: u64 = bursts.iter().map(|b| u64::from(b.bytes)).sum();
            prop_assert_eq!(in_bytes, out_bytes);
            let merged: u32 = bursts.iter().map(|b| b.merged).sum();
            prop_assert_eq!(merged as usize, accesses.len());
        }

        /// The simulator finishes every trace, bank indices stay in range,
        /// and time is monotone per bank.
        #[test]
        fn simulator_time_is_monotone(
            addrs in prop::collection::vec(0u64..(1 << 20), 1..100),
        ) {
            let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
            let mut t = 0;
            let mut last_finish = 0;
            for (i, a) in addrs.iter().enumerate() {
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                let info = sim.access(Request { addr: *a, bytes: 4, kind, arrival: t });
                prop_assert!(info.finish > info.start);
                prop_assert!(info.start >= t);
                last_finish = last_finish.max(info.finish);
                t += 2;
            }
            prop_assert_eq!(sim.last_finish(), last_finish);
        }
    }
}
