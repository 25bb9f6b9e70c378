//! Cross-substrate integration: the machine model's pieces (NUCA
//! mapping, directory, DRAM, NoC) must agree with each other through
//! the full access walk.

use ndc_mem::{DirStats, Directory, MAX_CORES};
use ndc_sim::machine::{AccessIntent, Machine};
use ndc_types::{Addr, ArchConfig, FxHashMap, NodeId, SplitMix64};
use std::collections::BTreeSet;

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

/// The textbook directory: a hash map from each tracked line to its
/// nonempty sharer set.
#[derive(Default)]
struct ReferenceDirectory {
    sharers: FxHashMap<Addr, BTreeSet<usize>>,
    stats: DirStats,
}

impl ReferenceDirectory {
    fn add_sharer(&mut self, line: Addr, core: usize) {
        self.sharers.entry(line).or_default().insert(core);
        self.stats.sharer_adds += 1;
    }

    fn write_by(&mut self, line: Addr, core: usize) -> Vec<usize> {
        let set = self.sharers.entry(line).or_default();
        let others: Vec<usize> = set.iter().copied().filter(|&c| c != core).collect();
        *set = [core].into();
        self.stats.writes += 1;
        if !others.is_empty() {
            self.stats.contended_writes += 1;
            self.stats.invalidations_sent += others.len() as u64;
        }
        others
    }

    fn remove_sharer(&mut self, line: Addr, core: usize) {
        if let Some(set) = self.sharers.get_mut(&line) {
            set.remove(&core);
            if set.is_empty() {
                self.sharers.remove(&line);
            }
        }
    }

    fn take_sharers(&mut self, line: Addr) -> Vec<usize> {
        self.sharers
            .remove(&line)
            .map_or_else(Vec::new, |set| set.into_iter().collect())
    }

    fn is_sharer(&self, line: Addr, core: usize) -> bool {
        self.sharers.get(&line).is_some_and(|s| s.contains(&core))
    }

    fn sharer_count(&self, line: Addr) -> u32 {
        self.sharers.get(&line).map_or(0, |s| s.len() as u32)
    }
}

fn stats_tuple(s: &DirStats) -> (u64, u64, u64, u64) {
    (
        s.sharer_adds,
        s.writes,
        s.invalidations_sent,
        s.contended_writes,
    )
}

/// Seeded property: mixed add/write/remove/take sequences give the
/// paged directory and a hash-map model the same invalidation sets,
/// sharer queries, tracked-line count and statistics. Lines cluster
/// around page boundaries (a page is 64 lines), sit far apart, or lie
/// at address 0; directories of one mask word (64 and 25 cores) and of
/// four words (cores 0–255) both run, over 64- and 256-byte lines.
#[test]
fn paged_directory_matches_a_reference_hash_map_model() {
    for case in 0..512u64 {
        let mut rng = SplitMix64::new(0xd1ec + case);
        let cores = [MAX_CORES, 64, 25][case as usize % 3];
        let line_bytes = if case % 4 == 3 { 256 } else { 64 };
        let page_bytes = 64 * line_bytes;
        let mut d = Directory::new(line_bytes, cores);
        let mut model = ReferenceDirectory::default();
        // A pool of lines: address 0, lines straddling page boundaries,
        // a dense run inside one page, far-apart lines.
        let mut lines = vec![0, line_bytes];
        for _ in 0..4 {
            let boundary = page_bytes * (1 + rng.below(1 << 20));
            lines.extend([boundary - line_bytes, boundary, boundary + line_bytes]);
        }
        let run = page_bytes * rng.below(1 << 10);
        lines.extend((0..8).map(|k| run + k * line_bytes));
        lines.extend((0..4).map(|_| rng.below(1 << 40) * line_bytes));
        let pick = |rng: &mut SplitMix64| lines[rng.below(lines.len() as u64) as usize];
        for step in 0..160 {
            let line = pick(&mut rng);
            let core = rng.below(cores as u64) as usize;
            match rng.below(20) {
                0..=7 => {
                    d.add_sharer(line, core);
                    model.add_sharer(line, core);
                }
                8..=12 => {
                    let got: Vec<usize> = d.write_by(line, core).collect();
                    assert_eq!(got, model.write_by(line, core), "case {case} step {step}");
                }
                13..=18 => {
                    d.remove_sharer(line, core);
                    model.remove_sharer(line, core);
                }
                _ => {
                    let got: Vec<usize> = d.take_sharers(line).collect();
                    assert_eq!(got, model.take_sharers(line), "case {case} step {step}");
                }
            }
            let (probe, c) = (pick(&mut rng), rng.below(cores as u64) as usize);
            assert_eq!(
                d.is_sharer(probe, c),
                model.is_sharer(probe, c),
                "case {case} step {step}: is_sharer({probe:#x}, {c})"
            );
            assert_eq!(d.sharer_count(line), model.sharer_count(line));
            assert_eq!(
                d.tracked_lines(),
                model.sharers.len(),
                "case {case} step {step}"
            );
        }
        for &line in &lines {
            assert_eq!(
                d.sharer_count(line),
                model.sharer_count(line),
                "case {case}"
            );
            for c in 0..cores {
                assert_eq!(
                    d.is_sharer(line, c),
                    model.is_sharer(line, c),
                    "case {case}"
                );
            }
        }
        assert_eq!(
            stats_tuple(&d.stats),
            stats_tuple(&model.stats),
            "case {case}"
        );
    }
}

/// The invariant the paged directory relies on: a core is a sharer of a
/// line exactly while its L1 holds the line, so the directory tracks
/// only L1-resident lines. Random conventional reads and writes,
/// near-data fetches and near-data stores (`remote_write`) from every
/// core, over a few hot shared lines and a footprint four L1s deep,
/// keep it for every line and core.
#[test]
fn directory_sharers_are_exactly_the_l1_copies() {
    for seed in 0..6u64 {
        let cfg = if seed % 2 == 0 {
            ArchConfig::paper_default()
        } else {
            ArchConfig::test_small()
        };
        let mut m = Machine::new(cfg);
        let mut rng = SplitMix64::new(0x5ead + seed);
        let line = cfg.l1.line_bytes;
        let lines: Vec<Addr> = (0..4 * cfg.l1.lines())
            .map(|k| 0x10_0000 + k * line)
            .collect();
        let nodes = cfg.nodes();
        let mut t = 0;
        for _ in 0..4000 {
            // Most accesses hit a few hot lines, so lines gain many
            // sharers before a write or eviction takes them away.
            let k = if rng.chance(0.6) {
                rng.below(16)
            } else {
                rng.below(lines.len() as u64)
            };
            let addr = lines[k as usize] + rng.below(line);
            let core = NodeId(rng.below(nodes as u64) as u16);
            t += rng.below(20);
            match rng.below(10) {
                0..=4 => {
                    m.access(core, addr, t, false, AccessIntent::ToCore);
                }
                5..=7 => {
                    m.access(core, addr, t, true, AccessIntent::ToCore);
                }
                8 => {
                    m.access(core, addr, t, false, AccessIntent::NearData);
                }
                _ => {
                    m.remote_write(core, addr, t);
                }
            }
        }
        let mut resident = 0;
        for &l in &lines {
            let mut held = false;
            for c in 0..nodes {
                let in_l1 = m.l1s[c].probe(l);
                assert_eq!(
                    m.dir.is_sharer(l, c),
                    in_l1,
                    "seed {seed}: line {l:#x} core {c}"
                );
                held |= in_l1;
            }
            resident += usize::from(held);
        }
        assert_eq!(m.dir.tracked_lines(), resident, "seed {seed}");
    }
}
