//! Banked DRAM channel with row buffers.
//!
//! Each memory controller owns one device of `banks_per_device` banks
//! (Table 1: 4 banks, 16384 rows/bank, 4 KB row buffers). A request's
//! service latency depends on the row-buffer state of its bank:
//!
//! * **row hit** — the addressed row is open: column access only;
//! * **row miss** — the bank is idle (no open row): activate + access;
//! * **row conflict** — a different row is open: precharge + activate +
//!   access.
//!
//! Requests are serviced in the order they reach the controller. Each
//! starts once its bank's busy horizon and the shared data channel's
//! horizon have passed, so requests serialize per bank and on the
//! channel (burst occupancy). Table 1's FR-FCFS scheduler is not
//! modelled as a reordering queue: row hits occupy their bank for less
//! time, which is the only first-ready effect the model keeps.
//! `McStats::bypasses` counts row hits, the requests an FR-FCFS
//! scheduler could have let bypass older ones.

use ndc_types::{Addr, AddrMap, ArchConfig, Cycle};

/// Row-buffer outcome of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

impl RowOutcome {
    /// Stable lowercase label (span segments, reports).
    pub fn label(self) -> &'static str {
        match self {
            RowOutcome::Hit => "hit",
            RowOutcome::Miss => "miss",
            RowOutcome::Conflict => "conflict",
        }
    }

    /// Label of the DRAM leaf in a request's span tree: `dram:<label>`.
    pub fn span_label(self) -> &'static str {
        match self {
            RowOutcome::Hit => "dram:hit",
            RowOutcome::Miss => "dram:miss",
            RowOutcome::Conflict => "dram:conflict",
        }
    }
}

/// Timing record of one memory-controller access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McAccess {
    /// When the request entered the controller queue.
    pub queue_enter: Cycle,
    /// When the bank began servicing it.
    pub service_start: Cycle,
    /// When the data burst completed (request done).
    pub completion: Cycle,
    /// Row-buffer outcome.
    pub row: RowOutcome,
    /// Bank index within this controller's device.
    pub bank: u32,
}

impl McAccess {
    pub fn queue_delay(&self) -> Cycle {
        self.service_start - self.queue_enter
    }

    pub fn latency(&self) -> Cycle {
        self.completion - self.queue_enter
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// Per-controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    pub requests: u64,
    /// Bytes moved over the data channel (one L2 line per request) —
    /// the independent recorder the attribution ledger's DRAM column is
    /// checked against.
    pub bytes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub total_queue_delay: u64,
    /// Row hits: the requests an FR-FCFS scheduler could have let
    /// bypass older ones (metrics key `bypasses`).
    pub bypasses: u64,
    /// Cycles the shared data channel spent transferring bursts — the
    /// numerator of channel utilization (denominator: elapsed cycles).
    pub channel_busy_cycles: u64,
}

impl McStats {
    /// Conservation law the invariant checker asserts: every serviced
    /// request had exactly one row-buffer outcome.
    pub fn outcomes_accounted(&self) -> bool {
        self.row_hits + self.row_misses + self.row_conflicts == self.requests
    }

    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }

    /// Fraction of `elapsed` cycles the data channel was transferring.
    pub fn channel_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.channel_busy_cycles as f64 / elapsed as f64
        }
    }
}

/// One memory controller + its DRAM device.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: ArchConfig,
    /// The address → (bank, row) map, without divisions.
    map: AddrMap,
    banks: Vec<BankState>,
    /// Shared data-channel horizon (burst serialization).
    channel_busy_until: Cycle,
    pub stats: McStats,
}

impl MemoryController {
    pub fn new(cfg: ArchConfig) -> Self {
        let banks = vec![
            BankState {
                open_row: None,
                busy_until: 0,
            };
            cfg.mem.dram.banks_per_device as usize
        ];
        MemoryController {
            cfg,
            map: cfg.addr_map(),
            banks,
            channel_busy_until: 0,
            stats: McStats::default(),
        }
    }

    /// Service a request for `addr` arriving at the controller at
    /// `arrival`. Returns the full timing record.
    pub fn request(&mut self, addr: Addr, arrival: Cycle) -> McAccess {
        let dram = &self.cfg.mem.dram;
        let (bank_idx, row) = self.map.dram_bank_row(addr);
        let bank_idx = bank_idx as usize;
        let bank = &mut self.banks[bank_idx];

        let (outcome, access_cycles) = match bank.open_row {
            Some(r) if r == row => (RowOutcome::Hit, dram.row_hit_cycles),
            Some(_) => (RowOutcome::Conflict, dram.row_conflict_cycles),
            None => (RowOutcome::Miss, dram.row_miss_cycles),
        };

        let service_start = arrival.max(bank.busy_until).max(self.channel_busy_until);
        let data_ready = service_start + access_cycles;
        let completion = data_ready + dram.burst_cycles;

        bank.open_row = Some(row);
        bank.busy_until = data_ready;
        self.channel_busy_until = completion;

        self.stats.requests += 1;
        self.stats.bytes += self.cfg.l2.line_bytes;
        self.stats.total_queue_delay += service_start - arrival;
        self.stats.channel_busy_cycles += dram.burst_cycles;
        match outcome {
            RowOutcome::Hit => {
                self.stats.row_hits += 1;
                self.stats.bypasses += 1;
            }
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }

        McAccess {
            queue_enter: arrival,
            service_start,
            completion,
            row: outcome,
            bank: bank_idx as u32,
        }
    }

    /// Reset dynamic state between simulations.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.open_row = None;
            b.busy_until = 0;
        }
        self.channel_busy_until = 0;
        self.stats = McStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(ArchConfig::paper_default())
    }

    // In paper_default, consecutive 4 KB frames on the same MC map to
    // consecutive banks; same-frame addresses share a bank and row.
    const FRAME: Addr = 4 * 4096; // stride between frames of MC0

    #[test]
    fn first_access_is_row_miss() {
        let mut m = mc();
        let a = m.request(0, 100);
        assert_eq!(a.row, RowOutcome::Miss);
        assert_eq!(a.queue_enter, 100);
        assert_eq!(a.service_start, 100);
        assert_eq!(a.completion, 100 + 60 + 4);
    }

    #[test]
    fn same_row_hits() {
        let mut m = mc();
        let first = m.request(0, 0);
        let second = m.request(64, first.completion);
        assert_eq!(second.row, RowOutcome::Hit);
        assert_eq!(second.completion - second.service_start, 30 + 4);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut m = mc();
        let first = m.request(0, 0);
        // 16 frames ahead wraps banks (4 banks) and advances the row.
        let conflict_addr = 16 * FRAME / 4 * 4; // = 16 frames of MC0
        let second = m.request(16 * FRAME, first.completion);
        let _ = conflict_addr;
        assert_eq!(second.bank, first.bank);
        assert_eq!(second.row, RowOutcome::Conflict);
        assert_eq!(second.completion - second.service_start, 90 + 4);
    }

    #[test]
    fn different_banks_overlap_but_channel_serializes() {
        let mut m = mc();
        let a = m.request(0, 0); // bank 0
        let b = m.request(FRAME, 0); // bank 1, same channel
        assert_ne!(a.bank, b.bank);
        // Bank 1 is free, but the data channel forces b after a's burst.
        assert!(b.service_start >= a.completion);
    }

    #[test]
    fn bank_busy_defers_back_to_back_same_bank() {
        let mut m = mc();
        let a = m.request(0, 0);
        let b = m.request(64, 0); // same row, bank busy until data_ready
        assert_eq!(b.row, RowOutcome::Hit);
        assert!(b.service_start >= a.completion - 4);
        assert!(b.queue_delay() > 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mc();
        m.request(0, 0);
        m.request(64, 200);
        m.request(16 * FRAME, 400);
        assert_eq!(m.stats.requests, 3);
        assert_eq!(m.stats.row_misses, 1);
        assert_eq!(m.stats.row_hits, 1);
        assert_eq!(m.stats.row_conflicts, 1);
        assert!(m.stats.outcomes_accounted());
        let broken = McStats {
            requests: 4,
            ..m.stats
        };
        assert!(!broken.outcomes_accounted());
        assert!((m.stats.row_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Three bursts of 4 cycles crossed the channel.
        assert_eq!(m.stats.channel_busy_cycles, 12);
        assert!((m.stats.channel_utilization(120) - 0.1).abs() < 1e-12);
        assert_eq!(m.stats.channel_utilization(0), 0.0);
    }

    #[test]
    fn row_outcome_labels_are_stable() {
        assert_eq!(RowOutcome::Hit.label(), "hit");
        assert_eq!(RowOutcome::Miss.label(), "miss");
        assert_eq!(RowOutcome::Conflict.label(), "conflict");
        for row in [RowOutcome::Hit, RowOutcome::Miss, RowOutcome::Conflict] {
            assert_eq!(row.span_label(), format!("dram:{}", row.label()));
        }
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = mc();
        m.request(0, 0);
        m.reset();
        let a = m.request(64, 0);
        assert_eq!(a.row, RowOutcome::Miss);
        assert_eq!(a.service_start, 0);
        assert_eq!(m.stats.requests, 1);
    }
}
