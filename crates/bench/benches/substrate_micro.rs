//! Microbenchmarks of the substrates: cache accesses, DRAM requests,
//! XY routing, signature selection.

use bench::Harness;
use ndc_mem::{MemoryController, SetAssocCache};
use ndc_noc::{best_signature_pair, Mesh, Network};
use ndc_sim::queue::ReadyQueue;
use ndc_types::{ArchConfig, Coord, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn main() {
    let cfg = ArchConfig::paper_default();
    let mut h = Harness::new("substrate_micro");

    {
        let mut cache = SetAssocCache::new(cfg.l1);
        let mut addr = 0u64;
        h.bench("cache_access_stream", || {
            addr = addr.wrapping_add(64) % (1 << 20);
            cache.access(addr)
        });
    }

    {
        let mut mc = MemoryController::new(cfg);
        let mut addr = 0u64;
        let mut t = 0u64;
        h.bench("dram_request_stream", || {
            addr = addr.wrapping_add(256) % (1 << 24);
            t += 10;
            mc.request(addr, t)
        });
    }

    {
        let mesh = Mesh::new(cfg.noc);
        let mut net = Network::new(mesh.clone());
        let route = mesh.xy_links(Coord::new(0, 0), Coord::new(4, 4));
        let mut t = 0u64;
        h.bench("noc_traverse_contended", || {
            t += 2;
            net.traverse(route, t, 64, None).arrived
        });
    }

    // The engine's scheduler hot loop: pop the earliest core, advance
    // it, reinsert — calendar queue vs the binary heap it replaced,
    // over an identical pre-generated engine-like delta stream (mostly
    // 0–2 cycles, occasional memory-latency jumps).
    {
        let mut g = SplitMix64::new(0xbeef);
        let deltas: Vec<u64> = (0..4096)
            .map(|_| match g.below(8) {
                0..=5 => g.below(3),
                6 => g.below(300),
                _ => g.below(4000),
            })
            .collect();

        let mut q = ReadyQueue::new();
        for c in 0..256 {
            q.push(0, c);
        }
        let mut i = 0;
        h.bench("ready_queue_calendar", || {
            let (t, c) = q.pop().expect("queue never drains");
            i = (i + 1) % deltas.len();
            q.push(t + deltas[i], c);
            t
        });

        let mut heap: BinaryHeap<(Reverse<u64>, usize)> =
            (0..256).map(|c| (Reverse(0), c)).collect();
        let mut j = 0;
        h.bench("ready_queue_binary_heap", || {
            let (Reverse(t), c) = heap.pop().expect("heap never drains");
            j = (j + 1) % deltas.len();
            heap.push((Reverse(t + deltas[j]), c));
            t
        });
    }

    {
        let mesh = Mesh::new(cfg.noc);
        h.bench("signature_pair_selection", || {
            best_signature_pair(
                &mesh,
                Coord::new(0, 1),
                Coord::new(3, 2),
                Coord::new(1, 0),
                Coord::new(2, 3),
            )
            .common_links
        });
    }

    h.finish();
}
