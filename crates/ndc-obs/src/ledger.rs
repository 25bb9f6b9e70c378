//! The tenant/request attribution ledger.
//!
//! Every simulated cycle, DRAM byte, NoC message/flit-hop, and NDC
//! gather/exec/feed cycle is charged to an owning tenant row at the
//! moment the simulated component pays it. Charging is pure
//! bookkeeping — it never reads or perturbs simulated timing — and all
//! row operations are commutative `u64` sums plus
//! [`QuantileSketch`](crate::sketch::QuantileSketch) merges, so rows
//! fold together ([`TenantRow::merge`]) in any order.
//!
//! The point of the ledger is that its column sums are *conserved*
//! quantities: `ndc-check` asserts they equal the simulator's global
//! counters (messages, flit-hops, DRAM requests × line bytes, NDC
//! offload/wait cycles) and that the per-location
//! gather + wait + exec + feed decomposition tiles each offload column
//! exactly. A mis-charge anywhere breaks a column sum and the
//! `ledger-conservation` invariant fires.

use crate::sketch::QuantileSketch;
use ndc_types::{Cycle, Json};

/// NDC location count (mirrors `ndc_types::NdcLocation`: link buffer,
/// cache controller, memory controller, memory bank).
pub const NUM_LOCATIONS: usize = 4;

/// Everything charged to one tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantRow {
    /// Memory requests completed (one per access path walked).
    pub requests: u64,
    /// Sum of request end-to-end latencies, in cycles.
    pub request_cycles: u64,
    /// NoC messages injected on behalf of this tenant.
    pub noc_messages: u64,
    /// Flit-hops: link occupancy cycles × links crossed, summed over
    /// every message.
    pub noc_flit_hops: u64,
    /// DRAM bytes moved (line-sized transfers).
    pub dram_bytes: u64,
    /// Issue→result-at-core cycles of performed NDC, per location.
    pub ndc_offload_cycles: [u64; NUM_LOCATIONS],
    /// First-operand wait at the component, per location.
    pub ndc_wait_cycles: [u64; NUM_LOCATIONS],
    /// Operand-gather leg (issue → first arrival), per location.
    pub ndc_gather_cycles: [u64; NUM_LOCATIONS],
    /// Execution at the component, per location.
    pub ndc_exec_cycles: [u64; NUM_LOCATIONS],
    /// CPU-feed leg (op done → result at core), per location.
    pub ndc_feed_cycles: [u64; NUM_LOCATIONS],
    /// Distribution of per-request end-to-end latencies.
    pub latency: QuantileSketch,
    /// Distribution of DRAM controller queue delays (requests that
    /// reached a memory controller).
    pub queue_delay: QuantileSketch,
    /// Distribution of per-offload issue→result cycles, per location.
    pub offload: [QuantileSketch; NUM_LOCATIONS],
}

impl TenantRow {
    fn new() -> TenantRow {
        TenantRow {
            latency: QuantileSketch::new(),
            queue_delay: QuantileSketch::new(),
            offload: std::array::from_fn(|_| QuantileSketch::new()),
            ..TenantRow::default()
        }
    }

    /// Fold another row into this one (commutative, associative).
    pub fn merge(&mut self, other: &TenantRow) {
        self.requests += other.requests;
        self.request_cycles += other.request_cycles;
        self.noc_messages += other.noc_messages;
        self.noc_flit_hops += other.noc_flit_hops;
        self.dram_bytes += other.dram_bytes;
        for i in 0..NUM_LOCATIONS {
            self.ndc_offload_cycles[i] += other.ndc_offload_cycles[i];
            self.ndc_wait_cycles[i] += other.ndc_wait_cycles[i];
            self.ndc_gather_cycles[i] += other.ndc_gather_cycles[i];
            self.ndc_exec_cycles[i] += other.ndc_exec_cycles[i];
            self.ndc_feed_cycles[i] += other.ndc_feed_cycles[i];
            self.offload[i].merge(&other.offload[i]);
        }
        self.latency.merge(&other.latency);
        self.queue_delay.merge(&other.queue_delay);
    }
}

/// Per-tenant attribution rows, indexed densely by tenant id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionLedger {
    rows: Vec<TenantRow>,
}

impl AttributionLedger {
    /// A ledger with `num_tenants` zeroed rows (at least one — the
    /// default single-tenant world charges everything to tenant 0).
    pub fn new(num_tenants: usize) -> AttributionLedger {
        AttributionLedger {
            rows: (0..num_tenants.max(1)).map(|_| TenantRow::new()).collect(),
        }
    }

    pub fn num_tenants(&self) -> usize {
        self.rows.len()
    }

    pub fn rows(&self) -> &[TenantRow] {
        &self.rows
    }

    pub fn row(&self, tenant: u16) -> Option<&TenantRow> {
        self.rows.get(tenant as usize)
    }

    /// Mutable row access, growing the table if a new tenant appears.
    pub fn row_mut(&mut self, tenant: u16) -> &mut TenantRow {
        let i = tenant as usize;
        while self.rows.len() <= i {
            self.rows.push(TenantRow::new());
        }
        &mut self.rows[i]
    }

    /// Charge one completed memory request: its end-to-end latency and
    /// (when it reached a memory controller) its queue delay.
    pub fn charge_request(&mut self, tenant: u16, latency: Cycle, queue_delay: Option<Cycle>) {
        let row = self.row_mut(tenant);
        row.requests += 1;
        row.request_cycles += latency;
        row.latency.record(latency);
        if let Some(q) = queue_delay {
            row.queue_delay.record(q);
        }
    }

    /// Charge one NoC message and its flit-hops.
    pub fn charge_traverse(&mut self, tenant: u16, flit_hops: u64) {
        let row = self.row_mut(tenant);
        row.noc_messages += 1;
        row.noc_flit_hops += flit_hops;
    }

    /// Charge one DRAM transfer.
    pub fn charge_dram(&mut self, tenant: u16, bytes: u64) {
        self.row_mut(tenant).dram_bytes += bytes;
    }

    /// Charge one performed NDC offload, decomposed exactly the way the
    /// span layer tiles it: `gather + wait + exec + feed` covers
    /// `[issue, result_at_core)` with no residue, so the per-location
    /// components always sum to the offload column.
    #[allow(clippy::too_many_arguments)]
    pub fn charge_ndc(
        &mut self,
        tenant: u16,
        loc: usize,
        issue: Cycle,
        wait: Cycle,
        op_done: Cycle,
        exec_cycles: Cycle,
        result_at_core: Cycle,
    ) {
        let total = result_at_core.saturating_sub(issue);
        let feed = result_at_core.saturating_sub(op_done).min(total);
        let exec = exec_cycles.min(total - feed);
        let wait_part = wait.min(total - feed - exec);
        let gather = total - feed - exec - wait_part;
        let row = self.row_mut(tenant);
        row.ndc_offload_cycles[loc] += total;
        row.ndc_wait_cycles[loc] += wait_part;
        row.ndc_gather_cycles[loc] += gather;
        row.ndc_exec_cycles[loc] += exec;
        row.ndc_feed_cycles[loc] += feed;
        row.offload[loc].record(total);
    }

    /// Render as a JSON array of per-tenant rows, in tenant order.
    pub fn to_json(&self) -> Json {
        let arr =
            |xs: &[u64; NUM_LOCATIONS]| Json::Arr(xs.iter().map(|&x| Json::UInt(x)).collect());
        Json::Arr(
            self.rows
                .iter()
                .enumerate()
                .map(|(t, r)| {
                    Json::obj()
                        .with("tenant", t as u64)
                        .with("requests", r.requests)
                        .with("request_cycles", r.request_cycles)
                        .with("noc_messages", r.noc_messages)
                        .with("noc_flit_hops", r.noc_flit_hops)
                        .with("dram_bytes", r.dram_bytes)
                        .with("ndc_offload_cycles", arr(&r.ndc_offload_cycles))
                        .with("ndc_wait_cycles", arr(&r.ndc_wait_cycles))
                        .with("ndc_gather_cycles", arr(&r.ndc_gather_cycles))
                        .with("ndc_exec_cycles", arr(&r.ndc_exec_cycles))
                        .with("ndc_feed_cycles", arr(&r.ndc_feed_cycles))
                        .with("latency", r.latency.to_json())
                        .with("dram_queue_delay", r.queue_delay.to_json())
                        .with(
                            "offload",
                            Json::Arr(r.offload.iter().map(|s| s.to_json()).collect()),
                        )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_tenant() {
        let mut l = AttributionLedger::new(2);
        l.charge_request(0, 100, Some(7));
        l.charge_request(1, 50, None);
        l.charge_traverse(0, 12);
        l.charge_dram(1, 64);
        assert_eq!(l.rows()[0].requests, 1);
        assert_eq!(l.rows()[0].request_cycles, 100);
        assert_eq!(l.rows()[0].noc_messages, 1);
        assert_eq!(l.rows()[0].noc_flit_hops, 12);
        assert_eq!(l.rows()[1].dram_bytes, 64);
        assert_eq!(l.rows()[0].queue_delay.count(), 1);
        assert_eq!(l.rows()[1].queue_delay.count(), 0);
    }

    #[test]
    fn ndc_decomposition_tiles_offload_exactly() {
        let mut l = AttributionLedger::new(1);
        // issue 100, first arrival 130, wait to 150, exec to 152,
        // feed to 170.
        l.charge_ndc(0, 2, 100, 20, 152, 2, 170);
        let r = &l.rows()[0];
        assert_eq!(r.ndc_offload_cycles[2], 70);
        assert_eq!(r.ndc_gather_cycles[2], 30);
        assert_eq!(r.ndc_wait_cycles[2], 20);
        assert_eq!(r.ndc_exec_cycles[2], 2);
        assert_eq!(r.ndc_feed_cycles[2], 18);
        assert_eq!(
            r.ndc_gather_cycles[2]
                + r.ndc_wait_cycles[2]
                + r.ndc_exec_cycles[2]
                + r.ndc_feed_cycles[2],
            r.ndc_offload_cycles[2]
        );
        assert_eq!(r.offload[2].count(), 1);
    }

    #[test]
    fn json_rows_in_tenant_order() {
        let mut l = AttributionLedger::new(2);
        l.charge_request(1, 5, None);
        let s = l.to_json().render();
        assert!(s.starts_with(r#"[{"tenant":0,"#), "{s}");
        assert!(s.contains(r#"{"tenant":1,"requests":1"#), "{s}");
    }
}
