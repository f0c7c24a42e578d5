//! A behavioural DRAM simulator.
//!
//! Given a stream of timed requests the simulator tracks each bank's open
//! row and last access kind, classifies every request into one of the
//! eight Table-1 patterns, and accounts its latency. Banks operate in
//! parallel; requests to a busy bank queue behind it. This is the memory
//! backend of the "System Run" simulator and also the measurement target
//! of the micro-benchmark profiler.

use crate::config::DramConfig;
use crate::pattern::{analytic_latencies, AccessKind, Pattern, PatternTable};

/// A memory request presented to the DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Byte address.
    pub addr: u64,
    /// Bytes transferred.
    pub bytes: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the request arrives at the controller.
    pub arrival: u64,
}

/// Result of servicing one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceInfo {
    /// The pattern the request was classified as.
    pub pattern: Pattern,
    /// Cycle at which service began.
    pub start: u64,
    /// Cycle at which the data transfer completed.
    pub finish: u64,
}

/// Per-bank state.
#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    last_kind: AccessKind,
    free_at: u64,
}

/// The DRAM simulator.
#[derive(Debug, Clone)]
pub struct DramSim {
    config: DramConfig,
    latencies: PatternTable<f64>,
    banks: Vec<BankState>,
    counts: PatternTable<u64>,
    busy_cycles: u64,
    last_finish: u64,
}

impl DramSim {
    /// Creates a simulator with analytic per-pattern latencies derived from
    /// the configuration's timing parameters.
    pub fn new(config: DramConfig) -> Self {
        let latencies = analytic_latencies(&config.timing);
        DramSim {
            banks: vec![
                BankState { open_row: None, last_kind: AccessKind::Read, free_at: 0 };
                config.num_banks as usize
            ],
            config,
            latencies,
            counts: PatternTable::new(),
            busy_cycles: 0,
            last_finish: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Services one request, returning its classification and timing.
    pub fn access(&mut self, req: Request) -> ServiceInfo {
        let (bank_idx, row) = self.config.map(req.addr);
        let bank = &mut self.banks[bank_idx as usize];
        let hit = bank.open_row == Some(row);
        let pattern = Pattern { now: req.kind, prev: bank.last_kind, hit };
        let latency = self.latencies[pattern].round() as u64;
        // Multi-chunk transfers stream additional bursts.
        let extra_bursts = (u64::from(req.bytes).saturating_sub(1)) / self.config.interleave_bytes;
        let total = latency + extra_bursts * u64::from(self.config.timing.t_burst);

        let start = req.arrival.max(bank.free_at);
        let finish = start + total;
        bank.open_row = Some(row);
        bank.last_kind = req.kind;
        bank.free_at = finish;

        self.counts[pattern] += 1;
        self.busy_cycles += total;
        self.last_finish = self.last_finish.max(finish);
        ServiceInfo { pattern, start, finish }
    }

    /// Per-pattern request counts accumulated so far.
    pub fn counts(&self) -> &PatternTable<u64> {
        &self.counts
    }

    /// Per-pattern latencies used by this simulator.
    pub fn latencies(&self) -> &PatternTable<f64> {
        &self.latencies
    }

    /// Sum of service latencies (no overlap discount).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Completion time of the latest request serviced.
    pub fn last_finish(&self) -> u64 {
        self.last_finish
    }

    /// Resets bank state and counters.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState { open_row: None, last_kind: AccessKind::Read, free_at: 0 };
        }
        self.counts = PatternTable::new();
        self.busy_cycles = 0;
        self.last_finish = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_at(addr: u64, arrival: u64) -> Request {
        Request { addr, bytes: 4, kind: AccessKind::Read, arrival }
    }

    #[test]
    fn sequential_reads_same_row_hit() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        sim.access(read_at(0, 0));
        let info = sim.access(read_at(4, 10));
        assert!(info.pattern.hit, "second read to same chunk must hit");
        assert_eq!(info.pattern.now, AccessKind::Read);
    }

    #[test]
    fn first_access_to_bank_is_miss() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        let info = sim.access(read_at(0, 0));
        assert!(!info.pattern.hit);
    }

    #[test]
    fn row_conflict_misses() {
        let cfg = DramConfig::adm_pcie_7v3();
        let mut sim = DramSim::new(cfg);
        // Two addresses in the same bank but different rows:
        // bank stride is interleave*banks = 512B; row holds 16 chunks of
        // bank-local data → +512*16 = 8192 bytes later, same bank, next row.
        sim.access(read_at(0, 0));
        let info = sim.access(read_at(8192, 100));
        let (b0, r0) = cfg.map(0);
        let (b1, r1) = cfg.map(8192);
        assert_eq!(b0, b1);
        assert_ne!(r0, r1);
        assert!(!info.pattern.hit);
    }

    #[test]
    fn banks_service_in_parallel() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        // Requests to different banks at the same arrival time overlap.
        let f1 = sim.access(read_at(0, 0)).finish;
        let f2 = sim.access(read_at(64, 0)).finish;
        assert_eq!(f1, f2, "different banks start simultaneously");
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        let a = sim.access(read_at(0, 0));
        let b = sim.access(read_at(4, 0));
        assert_eq!(b.start, a.finish, "same-bank request waits");
    }

    #[test]
    fn write_read_alternation_classified() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        sim.access(Request { addr: 0, bytes: 4, kind: AccessKind::Write, arrival: 0 });
        let info = sim.access(read_at(4, 50));
        assert_eq!(info.pattern.prev, AccessKind::Write);
        assert_eq!(info.pattern.now, AccessKind::Read);
        assert!(info.pattern.hit);
    }

    #[test]
    fn counts_accumulate() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        for i in 0..10 {
            sim.access(read_at(i * 4, i * 20));
        }
        let total: u64 = sim.counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
        sim.reset();
        let total: u64 = sim.counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn waw_sequence_classifies() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        sim.access(Request { addr: 0, bytes: 4, kind: AccessKind::Write, arrival: 0 });
        let info = sim.access(Request { addr: 8, bytes: 4, kind: AccessKind::Write, arrival: 50 });
        assert_eq!(info.pattern.now, AccessKind::Write);
        assert_eq!(info.pattern.prev, AccessKind::Write);
        assert!(info.pattern.hit);
    }

    #[test]
    fn alternating_rw_pays_turnaround() {
        // R,W,R,W on the same row: every access after the first changes
        // direction, so each is slower than steady-state same-kind hits.
        let cfg = DramConfig::adm_pcie_7v3();
        let mut alt = DramSim::new(cfg);
        let mut t = 0;
        let mut alt_total = 0u64;
        for i in 0..8 {
            let kind = if i % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
            let info = alt.access(Request { addr: 0, bytes: 4, kind, arrival: t });
            if i > 0 {
                alt_total += info.finish - info.start;
            }
            t = info.finish + 1;
        }
        let mut same = DramSim::new(cfg);
        let mut t = 0;
        let mut same_total = 0u64;
        for i in 0..8 {
            let info =
                same.access(Request { addr: 0, bytes: 4, kind: AccessKind::Read, arrival: t });
            if i > 0 {
                same_total += info.finish - info.start;
            }
            t = info.finish + 1;
        }
        assert!(alt_total > same_total, "turnaround: {alt_total} vs {same_total}");
    }

    #[test]
    fn large_burst_takes_longer() {
        let mut sim = DramSim::new(DramConfig::adm_pcie_7v3());
        let small = sim.access(read_at(0, 0));
        sim.reset();
        let big = sim.access(Request { addr: 0, bytes: 512, kind: AccessKind::Read, arrival: 0 });
        assert!(big.finish - big.start > small.finish - small.start);
    }
}
