//! Per-bank summaries of serially served burst streams.
//!
//! A lane that serves one burst at a time, each arriving as the previous
//! one finishes, never makes a burst wait for its bank. So a burst's
//! service time is its pattern's rounded `ΔT` plus its transfer cycles
//! (`t_burst` per interleave chunk beyond the first), and its pattern
//! depends only on its bank's row buffer. Within one stream, every access after its bank's first sees
//! the row buffer the stream itself left; only each bank's first access
//! reads the lane's state. A summary keeps exactly that: per touched bank
//! the first access and the exit state, plus the pattern counts and
//! cycles of every later access. Serving a summarized stream on a lane
//! ([`StreamSummaries::replay`]) then costs O(banks touched) instead of
//! O(bursts), and gives the pattern counts and service span of a serial
//! [`DramSim`](crate::DramSim) replay exactly.

use crate::coalesce::Burst;
use crate::config::DramConfig;
use crate::pattern::{AccessKind, PatternTable};
use crate::sim::{RowBuffer, ServiceTimes};

/// One bank a summarized stream touches.
#[derive(Debug, Clone, Copy)]
struct BankTouch {
    bank: u32,
    /// Row of the stream's first access to the bank.
    first_row: u64,
    /// Kind of that access.
    first_kind: AccessKind,
    /// The bank's row buffer after the stream's last access to it.
    exit: RowBuffer,
}

/// The summary of one burst stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSummary {
    /// The id the stream was pushed with; it picks the stream's lane.
    pub id: u64,
    /// Bursts in the stream.
    pub bursts: u64,
    /// Transfer cycles of its bursts: `t_burst` per interleave chunk
    /// each streams beyond its first.
    pub transfer_cycles: u64,
    /// Pattern counts of every access after its bank's first.
    later: PatternTable<u64>,
    /// Service cycles of those accesses, plus every burst's transfer
    /// cycles.
    later_cycles: u64,
    /// End of this stream's bank touches.
    touches_end: usize,
}

/// Summaries of burst streams on one DRAM configuration, in push order.
#[derive(Debug, Clone)]
pub struct StreamSummaries {
    config: DramConfig,
    times: ServiceTimes,
    streams: Vec<StreamSummary>,
    touches: Vec<BankTouch>,
    /// Per bank, the index in `touches` of the pushed stream's touch of
    /// it, or [`Self::UNTOUCHED`].
    open: Vec<usize>,
}

impl Default for StreamSummaries {
    fn default() -> Self {
        StreamSummaries::new(DramConfig::default())
    }
}

impl StreamSummaries {
    const UNTOUCHED: usize = usize::MAX;

    /// No summaries, on `config`.
    pub fn new(config: DramConfig) -> Self {
        StreamSummaries {
            config,
            times: ServiceTimes::new(&config),
            streams: Vec::new(),
            touches: Vec::new(),
            open: vec![Self::UNTOUCHED; config.num_banks as usize],
        }
    }

    /// Drops every summary and moves to `config`, keeping the buffers.
    pub fn reset(&mut self, config: DramConfig) {
        if config != self.config {
            self.config = config;
            self.times = ServiceTimes::new(&config);
            self.open = vec![Self::UNTOUCHED; config.num_banks as usize];
        }
        self.streams.clear();
        self.touches.clear();
    }

    /// Summarizes one stream of `bursts`, in service order, under `id`.
    pub fn push<'a>(&mut self, id: u64, bursts: impl IntoIterator<Item = &'a Burst>) {
        let start = self.touches.len();
        let mut s = StreamSummary {
            id,
            bursts: 0,
            transfer_cycles: 0,
            later: PatternTable::new(),
            later_cycles: 0,
            touches_end: start,
        };
        for b in bursts {
            let (bank, row) = self.config.map(b.addr);
            let transfer = self.times.transfer(b.bytes);
            s.bursts += 1;
            s.transfer_cycles += transfer;
            s.later_cycles += transfer;
            match self.open[bank as usize] {
                Self::UNTOUCHED => {
                    self.open[bank as usize] = self.touches.len();
                    let mut exit = RowBuffer::IDLE;
                    exit.access(row, b.kind);
                    self.touches.push(BankTouch { bank, first_row: row, first_kind: b.kind, exit });
                }
                i => {
                    let p = self.touches[i].exit.access(row, b.kind);
                    s.later[p] += 1;
                    s.later_cycles += self.times.pattern(p);
                }
            }
        }
        for t in &self.touches[start..] {
            self.open[t.bank as usize] = Self::UNTOUCHED;
        }
        s.touches_end = self.touches.len();
        self.streams.push(s);
    }

    /// Serves every summarized stream, in push order, on `lanes` lanes:
    /// stream `id` goes to lane `id mod lanes`, and each lane starts idle
    /// and serves its streams serially, each burst arriving as the
    /// previous one finishes. Calls `visit` with each stream, the pattern
    /// counts of all its bursts, and its service span (the cycles from
    /// its first burst's arrival to its last burst's finish).
    pub fn replay(
        &self,
        lanes: usize,
        mut visit: impl FnMut(&StreamSummary, &PatternTable<u64>, u64),
    ) {
        let banks = self.config.num_banks as usize;
        let lanes = lanes.max(1);
        let mut rows = vec![RowBuffer::IDLE; lanes * banks];
        let mut start = 0;
        for s in &self.streams {
            let lane = (s.id % lanes as u64) as usize * banks;
            let lane = &mut rows[lane..lane + banks];
            let mut counts = s.later;
            let mut span = s.later_cycles;
            for t in &self.touches[start..s.touches_end] {
                let row = &mut lane[t.bank as usize];
                let p = row.access(t.first_row, t.first_kind);
                counts[p] += 1;
                span += self.times.pattern(p);
                *row = t.exit;
            }
            start = s.touches_end;
            visit(s, &counts, span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{DramSim, Request};
    use proptest::prelude::*;

    /// Per stream `(pattern counts, service span, transfer cycles)` of a
    /// serial [`DramSim`] replay: one simulator and clock per lane.
    fn reference(
        config: DramConfig,
        streams: &[(u64, Vec<Burst>)],
        lanes: usize,
    ) -> Vec<(PatternTable<u64>, u64, u64)> {
        let mut sims = vec![DramSim::new(config); lanes];
        let mut clocks = vec![0u64; lanes];
        let mut out = Vec::new();
        for (id, bursts) in streams {
            let lane = (*id % lanes as u64) as usize;
            let sim = &mut sims[lane];
            let before = *sim.counts();
            let mut t = clocks[lane];
            let mut transfer = 0;
            for b in bursts {
                t = sim
                    .access(Request { addr: b.addr, bytes: b.bytes, kind: b.kind, arrival: t })
                    .finish;
                transfer += (u64::from(b.bytes) - 1) / config.interleave_bytes
                    * u64::from(config.timing.t_burst);
            }
            let mut delta = PatternTable::new();
            for (p, c) in sim.counts().iter() {
                delta[p] = c - before[p];
            }
            out.push((delta, t - clocks[lane], transfer));
            clocks[lane] = t;
        }
        out
    }

    fn composed(
        config: DramConfig,
        streams: &[(u64, Vec<Burst>)],
        lanes: usize,
        summaries: &mut StreamSummaries,
    ) -> Vec<(PatternTable<u64>, u64, u64)> {
        summaries.reset(config);
        for (id, bursts) in streams {
            summaries.push(*id, bursts);
        }
        let mut out = Vec::new();
        summaries.replay(lanes, |s, counts, span| out.push((*counts, span, s.transfer_cycles)));
        out
    }

    /// Up to 12 streams with ascending ids and gaps between them, each of
    /// up to 40 bursts over 32 KiB (four rows per bank, so hits, misses
    /// and both turnarounds occur) of 1–256 bytes (multi-chunk transfers).
    fn arb_streams() -> BoxedStrategy<Vec<(u64, Vec<Burst>)>> {
        let burst = (0u64..1 << 15, 1u32..257, any::<bool>()).prop_map(|(addr, bytes, write)| {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            Burst { addr, bytes, kind, merged: 1 }
        });
        let stream = (1u64..4, prop::collection::vec(burst, 0..40));
        prop::collection::vec(stream, 0..12).prop_map(|raw| {
            let mut id = 0;
            raw.into_iter()
                .map(|(gap, bursts)| {
                    id += gap;
                    (id, bursts)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Composed summaries equal a serial `DramSim` replay per stream:
        /// pattern counts, service span and transfer cycles, on any lane
        /// count, in work-item or phased (reads, then writes) order, on
        /// both DRAM presets.
        #[test]
        fn composed_summaries_match_a_serial_dram_replay(
            streams in arb_streams(),
            lanes in 1usize..9,
            phased in any::<bool>(),
            ku060 in any::<bool>(),
        ) {
            let config =
                if ku060 { DramConfig::nas_120a_ku060() } else { DramConfig::adm_pcie_7v3() };
            let streams: Vec<(u64, Vec<Burst>)> = if phased {
                streams
                    .into_iter()
                    .map(|(id, bursts)| {
                        let (mut reads, writes): (Vec<Burst>, Vec<Burst>) =
                            bursts.into_iter().partition(|b| b.kind == AccessKind::Read);
                        reads.extend(writes);
                        (id, reads)
                    })
                    .collect()
            } else {
                streams
            };
            // One summary buffer reused across presets matches fresh ones.
            let mut summaries = StreamSummaries::new(DramConfig::nas_120a_ku060());
            composed(DramConfig::adm_pcie_7v3(), &streams, 3, &mut summaries);
            prop_assert_eq!(
                composed(config, &streams, lanes, &mut summaries),
                reference(config, &streams, lanes)
            );
        }
    }
}
