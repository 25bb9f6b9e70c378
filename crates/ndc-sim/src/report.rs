//! Per-run component-level metrics assembly.
//!
//! [`build_metrics`] walks the machine's end-of-run state plus the
//! [`SimResult`] and lays it out as an `ndc_obs::Metrics` tree, one
//! subtree per datapath component: the engine (issue slots, MSHR and
//! offload-table stalls), the NDC hardware (per-location outcomes and
//! per-reason aborts), the caches (totals plus per-L2-bank counters),
//! the directory, the NoC (totals plus per-link occupancy and
//! queue-delay histograms when `Network::enable_obs` was on), and the
//! DRAM controllers (row-buffer outcomes and channel utilization).
//!
//! Everything here is a pure function of simulation state, and every
//! container is iterated in a fixed order (node index, link index, MC
//! index), so the rendered JSON is byte-identical across runs and
//! thread counts.

use crate::machine::Machine;
use crate::ndc::ALL_ABORT_REASONS;
use crate::stats::SimResult;
use ndc_mem::CacheStats;
use ndc_noc::LinkId;
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::sketch::QuantileSketch;
use ndc_obs::Metrics;
use ndc_types::ALL_NDC_LOCATIONS;

fn cache_counters(t: &mut Metrics, s: &CacheStats) {
    t.counter("hits", s.hits)
        .counter("misses", s.misses)
        .counter("coherence_misses", s.coherence_misses)
        .counter("evictions", s.evictions)
        .counter("invalidations", s.invalidations);
}

/// Assemble the full per-component breakdown of one finished run.
pub fn build_metrics(machine: &Machine, result: &SimResult) -> Metrics {
    let mut m = Metrics::new();

    let eng = m.tree("engine");
    eng.counter("total_cycles", result.total_cycles)
        .counter("issued_insts", result.issued_insts)
        .counter("mshr_stall_cycles", result.mshr_stall_cycles)
        .counter("offload_stall_cycles", result.offload_stall_cycles)
        .counter("eligible_computes", result.eligible_computes)
        .counter("total_computes", result.total_computes);

    let ndc = m.tree("ndc");
    ndc.counter("attempts", result.ndc_attempts)
        .counter("aborts", result.ndc_aborts)
        .counter("local_hits", result.ndc_local_hits);
    let perf = ndc.tree("performed");
    for loc in ALL_NDC_LOCATIONS {
        perf.counter(loc.paper_label(), result.ndc_performed[loc.index()]);
    }
    let wait = ndc.tree("wait_cycles");
    for loc in ALL_NDC_LOCATIONS {
        wait.counter(loc.paper_label(), result.ndc_wait_cycles[loc.index()]);
    }
    let ab = ndc.tree("abort_reasons");
    for r in ALL_ABORT_REASONS {
        ab.counter(r.label(), result.ndc_abort_reasons[r.index()]);
    }

    cache_counters(m.tree("l1"), &machine.l1_totals());
    let l2 = m.tree("l2");
    cache_counters(l2, &machine.l2_totals());
    let banks = l2.tree("banks");
    for (i, bank) in machine.l2s.iter().enumerate() {
        let s = &bank.stats;
        if s.hits + s.misses == 0 {
            continue; // untouched bank: keep the tree readable
        }
        cache_counters(banks.tree(&format!("bank{i}")), s);
    }

    let dir = m.tree("directory");
    let ds = machine.dir.stats;
    dir.counter("sharer_adds", ds.sharer_adds)
        .counter("writes", ds.writes)
        .counter("contended_writes", ds.contended_writes)
        .counter("invalidations_sent", ds.invalidations_sent);

    let noc = m.tree("noc");
    noc.counter("messages", machine.net.messages)
        .counter("queueing_cycles", machine.net.queueing_cycles)
        .counter("flit_hops", machine.net.flit_hops);
    if let Some(links) = machine.net.link_obs() {
        let mesh = machine.mesh();
        let lt = noc.tree("links");
        for (i, lo) in links.iter().enumerate() {
            if lo.traversals == 0 {
                continue;
            }
            let (from, to) = mesh.link_endpoints(LinkId(i as u32));
            let t = lt.tree(&format!("({},{})->({},{})", from.x, from.y, to.x, to.y));
            t.counter("traversals", lo.traversals)
                .counter("busy_cycles", lo.busy_cycles)
                .hist("queue_delay", &lo.queue_delay);
        }
    }

    let dram = m.tree("dram");
    for (i, mc) in machine.mcs.iter().enumerate() {
        let s = mc.stats;
        let t = dram.tree(&format!("mc{i}"));
        t.counter("requests", s.requests)
            .counter("bytes", s.bytes)
            .counter("row_hits", s.row_hits)
            .counter("row_misses", s.row_misses)
            .counter("row_conflicts", s.row_conflicts)
            .counter("queue_delay_cycles", s.total_queue_delay)
            .counter("bypasses", s.bypasses)
            .counter("channel_busy_cycles", s.channel_busy_cycles);
    }

    m
}

fn sketch_counters(t: &mut Metrics, s: &QuantileSketch) {
    t.counter("count", s.count())
        .counter("min", s.min().unwrap_or(0))
        .counter("p50", s.quantile_pct(50).unwrap_or(0))
        .counter("p90", s.quantile_pct(90).unwrap_or(0))
        .counter("p99", s.quantile_pct(99).unwrap_or(0))
        .counter("max", s.max().unwrap_or(0));
}

/// Lay the attribution ledger out as a `tenants` subtree: one child per
/// tenant, in tenant order, with the conserved columns and the latency
/// / queue-delay / per-location offload sketches summarized as
/// quantile counters.
pub fn ledger_metrics(m: &mut Metrics, ledger: &AttributionLedger) {
    let tenants = m.tree("tenants");
    for (i, r) in ledger.rows().iter().enumerate() {
        let t = tenants.tree(&format!("tenant{i}"));
        t.counter("requests", r.requests)
            .counter("request_cycles", r.request_cycles)
            .counter("noc_messages", r.noc_messages)
            .counter("noc_flit_hops", r.noc_flit_hops)
            .counter("dram_bytes", r.dram_bytes);
        let ndc = t.tree("ndc");
        for loc in ALL_NDC_LOCATIONS {
            let i = loc.index();
            if r.ndc_offload_cycles[i] == 0 && r.offload[i].count() == 0 {
                continue; // untouched location: keep the tree readable
            }
            let lt = ndc.tree(loc.paper_label());
            lt.counter("offload_cycles", r.ndc_offload_cycles[i])
                .counter("gather_cycles", r.ndc_gather_cycles[i])
                .counter("wait_cycles", r.ndc_wait_cycles[i])
                .counter("exec_cycles", r.ndc_exec_cycles[i])
                .counter("feed_cycles", r.ndc_feed_cycles[i]);
            sketch_counters(lt.tree("offload"), &r.offload[i]);
        }
        sketch_counters(t.tree("latency"), &r.latency);
        sketch_counters(t.tree("dram_queue_delay"), &r.queue_delay);
    }
}
