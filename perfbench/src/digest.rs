//! Digests of simulated counters, so repeated jobs, thread counts and
//! the library's own evaluation path can be compared with one `u64`.

use ndc::cme::AccuracyReport;
use ndc::compiler::CompilerReport;
use ndc::mem::CacheStats;
use ndc::sim::stats::PcCacheCounters;
use ndc::sim::SimResult;
use ndc::types::FxHasher;
use std::hash::Hasher;

/// Digest of every counter of a run. The scheme label is left out: the
/// split oracle and `simulate(.., Scheme::Oracle{..})` must agree on the
/// numbers, however the run was driven.
pub fn sim_result(r: &SimResult) -> u64 {
    let mut h = FxHasher::default();
    h.write(r.program.as_bytes());
    for v in [
        r.total_cycles,
        r.ndc_attempts,
        r.ndc_aborts,
        r.ndc_local_hits,
        r.eligible_computes,
        r.total_computes,
        r.noc_messages,
        r.noc_queueing_cycles,
        r.noc_flit_hops,
        r.issued_insts,
        r.mshr_stall_cycles,
        r.offload_stall_cycles,
    ] {
        h.write_u64(v);
    }
    let arrays = [
        &r.ndc_performed[..],
        &r.ndc_wait_cycles,
        &r.ndc_offload_cycles,
        &r.ndc_offload_samples,
        &r.ndc_abort_reasons,
        &r.per_core_cycles,
    ];
    for a in arrays {
        h.write_usize(a.len());
        a.iter().for_each(|&v| h.write_u64(v));
    }
    cache(&mut h, &r.l1);
    cache(&mut h, &r.l2);
    pc_counters(&mut h, &r.pc_l1);
    pc_counters(&mut h, &r.pc_l2);
    h.finish()
}

/// Digest of the decision counts of one compile.
pub fn compiler_report(r: &CompilerReport) -> u64 {
    let mut h = FxHasher::default();
    for v in [
        r.opportunities,
        r.planned,
        r.bypassed_reuse,
        r.no_target,
        r.fused_chains,
        r.fused_ops,
        r.transforms_applied,
        r.certificates.len() as u64,
        r.provenance.len() as u64,
    ] {
        h.write_u64(v);
    }
    r.per_target.iter().for_each(|&v| h.write_u64(v));
    h.finish()
}

/// Digest of a Table 2 (CME accuracy) row.
pub fn accuracy(a: &AccuracyReport) -> u64 {
    combine([
        a.l1_accesses,
        a.l2_accesses,
        a.l1_accuracy_pct.to_bits(),
        a.l2_accuracy_pct.to_bits(),
    ])
}

/// Fold a list of digests (order matters) into one.
pub fn combine(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    parts.into_iter().for_each(|d| h.write_u64(d));
    h.finish()
}

fn cache(h: &mut FxHasher, c: &CacheStats) {
    for v in [
        c.hits,
        c.misses,
        c.coherence_misses,
        c.evictions,
        c.invalidations,
    ] {
        h.write_u64(v);
    }
}

/// Per-PC maps hash in key order, independent of map iteration order.
fn pc_counters(h: &mut FxHasher, m: &PcCacheCounters) {
    let mut rows: Vec<_> = m.iter().collect();
    rows.sort_unstable_by_key(|(k, _)| **k);
    h.write_usize(rows.len());
    for ((pc, slot), v) in rows {
        h.write_u32(*pc);
        h.write_u8(*slot);
        h.write_u64(v.hits);
        h.write_u64(v.misses);
        h.write_u64(v.coherence_misses);
    }
}
