//! Cross-substrate integration: the machine model's pieces (NUCA
//! mapping, directory, DRAM, NoC) must agree with each other through
//! the full access walk.

use ndc_sim::machine::{AccessIntent, Machine};
use ndc_types::{ArchConfig, NodeId};

fn machine() -> Machine {
    Machine::new(ArchConfig::paper_default())
}

#[test]
fn access_legs_agree_with_static_mappings() {
    let mut m = machine();
    // A spread of addresses covering several pages, banks, and rows.
    for k in 0..200u64 {
        let addr = 0x20_0000 + k * 4097; // deliberately page-straddling
        let core = NodeId((k % 25) as u16);
        let p = m.access(core, addr, k * 10, false, AccessIntent::ToCore);
        if let Some(l2) = p.l2 {
            assert_eq!(l2.bank, m.cfg.l2_home(addr), "home mismatch at {addr:#x}");
            if let Some(mem) = p.mem {
                assert_eq!(mem.mc, m.cfg.mc_of(addr));
                assert_eq!(mem.mc_node, m.cfg.mc_node(mem.mc));
                assert_eq!(mem.dram_bank, m.cfg.dram_bank_of(addr) % 4);
            }
        }
    }
}

#[test]
fn repeated_access_monotonically_warms_the_hierarchy() {
    let mut m = machine();
    let core = NodeId(7);
    let addr = 0x40_0000;
    let cold = m.access(core, addr, 0, false, AccessIntent::ToCore);
    assert!(!cold.l1_hit);
    assert!(cold.mem.is_some(), "first touch must reach DRAM");
    // Second touch: L1 hit.
    let warm = m.access(core, addr, 10_000, false, AccessIntent::ToCore);
    assert!(warm.l1_hit);
    // A different core touching the same line: L2 hit (no DRAM).
    let sibling = m.access(NodeId(8), addr, 20_000, false, AccessIntent::ToCore);
    assert!(!sibling.l1_hit);
    assert!(sibling.l2.unwrap().hit);
    assert!(sibling.mem.is_none());
    // Latencies shrink down the chain.
    assert!(warm.latency() < sibling.latency());
    assert!(sibling.latency() < cold.latency());
}

#[test]
fn writes_keep_directory_and_l1s_coherent_across_many_cores() {
    let mut m = machine();
    let addr = 0x60_0000;
    // Every core reads the line.
    for c in 0..25u16 {
        m.access(
            NodeId(c),
            addr,
            1000 + c as u64 * 100,
            false,
            AccessIntent::ToCore,
        );
    }
    for c in 0..25usize {
        assert!(m.l1s[c].probe(addr), "core {c} should hold the line");
    }
    // One write invalidates all other 24 copies.
    m.access(NodeId(3), addr, 50_000, true, AccessIntent::ToCore);
    for c in 0..25usize {
        assert_eq!(m.l1s[c].probe(addr), c == 3, "core {c}");
    }
    // The invalidated cores re-miss with the coherence flag.
    let p = m.access(NodeId(17), addr, 60_000, false, AccessIntent::ToCore);
    assert!(p.coherence_miss);
}

#[test]
fn near_data_fetches_warm_l2_but_never_l1() {
    let mut m = machine();
    let core = NodeId(12);
    for k in 0..50u64 {
        let addr = 0x80_0000 + k * 256;
        m.access(core, addr, k * 50, false, AccessIntent::NearData);
        assert!(!m.l1s[core.index()].probe(addr));
        let home = m.cfg.l2_home(addr);
        assert!(m.l2s[home.index()].probe(addr));
    }
}

#[test]
fn contention_raises_latencies_under_load() {
    // The same access pattern, executed alone vs amid heavy cross
    // traffic, must see a higher completion time under load.
    let mut quiet = machine();
    let probe_addr = 0x90_0000;
    let quiet_path = quiet.access(NodeId(12), probe_addr, 0, false, AccessIntent::ToCore);

    let mut busy = machine();
    // Generate a storm crossing the center of the mesh.
    for k in 0..400u64 {
        let addr = 0xA0_0000 + k * 64;
        busy.access(
            NodeId((k % 25) as u16),
            addr,
            0,
            false,
            AccessIntent::ToCore,
        );
    }
    let busy_path = busy.access(NodeId(12), probe_addr, 0, false, AccessIntent::ToCore);
    assert!(
        busy_path.latency() >= quiet_path.latency(),
        "load should not reduce latency: {} vs {}",
        busy_path.latency(),
        quiet_path.latency()
    );
    assert!(busy.net.queueing_cycles > 0);
}

#[test]
fn dram_row_locality_visible_end_to_end() {
    let mut m = machine();
    // Stream within one DRAM row (4 KB page on one controller) vs
    // jumping across rows of the same bank: the row-hit stream must be
    // faster in total.
    let mut stream_total = 0;
    for k in 0..8u64 {
        let p = m.access(
            NodeId(0),
            0xB0_0000 + k * 256,
            100_000 + k * 500,
            false,
            AccessIntent::ToCore,
        );
        stream_total += p.latency();
    }
    let mut m2 = machine();
    let mut jump_total = 0;
    for k in 0..8u64 {
        // Same MC + same bank, different rows: 64-page stride.
        let p = m2.access(
            NodeId(0),
            0xB0_0000 + k * 64 * 4096,
            100_000 + k * 500,
            false,
            AccessIntent::ToCore,
        );
        jump_total += p.latency();
    }
    assert!(
        stream_total < jump_total,
        "row locality should pay: {stream_total} vs {jump_total}"
    );
}

#[test]
fn mesh_sizes_scale_the_machine_consistently() {
    for (w, h) in [(4u16, 4u16), (5, 5), (6, 6)] {
        let mut cfg = ArchConfig::paper_default();
        cfg.noc.width = w;
        cfg.noc.height = h;
        let mut m = Machine::new(cfg);
        assert_eq!(m.l1s.len(), (w * h) as usize);
        assert_eq!(m.l2s.len(), (w * h) as usize);
        // Every valid home bank is reachable.
        for k in 0..(w * h) as u64 {
            let addr = k * cfg.l2.line_bytes;
            let home = cfg.l2_home(addr);
            assert!(home.index() < (w * h) as usize);
            let p = m.access(NodeId(0), addr, 0, false, AccessIntent::ToCore);
            assert_eq!(p.l2.unwrap().bank, home);
        }
    }
}
