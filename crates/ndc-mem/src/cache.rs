//! An LRU, set-associative cache.
//!
//! Used for both L1s (32 KB, 64 B lines, 2-way) and NUCA L2 banks
//! (512 KB, 256 B lines, 64-way). Only residency is modelled: the
//! simulator charges latencies along the full access path itself.
//!
//! Each way is one line index (`addr >> log2(line_bytes)`) in a flat
//! tag array plus an LRU stamp in a parallel array. A lookup compares
//! the set's tags; only a miss scans the stamps for the LRU victim.

use ndc_types::{Addr, CacheConfig, FxHashSet};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident. It has been filled (allocated) by this
    /// access; `evicted` names the line address displaced, if any, and
    /// `coherence` is true when the line was absent because of a
    /// directory invalidation (a coherence miss).
    Miss {
        evicted: Option<Addr>,
        coherence: bool,
    },
}

impl AccessOutcome {
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Hit/miss counters, split by demand kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Misses caused by a directory invalidation having removed the
    /// line (coherence misses). A subset of `misses`.
    pub coherence_misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Tag of an empty way. No line index reaches it: line sizes are
/// powers of two above 1, so a line index is at most `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

/// A set-associative, write-allocate, LRU cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    ways: usize,
    /// `log2(line_bytes)`: address → line index.
    line_shift: u32,
    /// `sets - 1`: line index → set.
    set_mask: u64,
    /// `sets * ways` line indices, row-major by set; [`EMPTY`] marks an
    /// empty way.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`: larger = more recently used, 0 =
    /// empty (the clock starts at 1), so the oldest stamp in a set is
    /// its first empty way if it has one.
    lru: Vec<u64>,
    lru_clock: u64,
    /// Lines whose next miss should count as a coherence miss because
    /// an invalidation (not capacity/conflict pressure) removed them.
    invalidated: FxHashSet<Addr>,
    pub stats: CacheStats,
}

impl SetAssocCache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes > 1 && cfg.line_bytes.is_power_of_two(),
            "cache line size must be a power of two above 1, got {}",
            cfg.line_bytes
        );
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a nonzero power of two, got {sets}"
        );
        let ways = cfg.ways as usize;
        SetAssocCache {
            cfg,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![EMPTY; sets as usize * ways],
            lru: vec![0; sets as usize * ways],
            lru_clock: 0,
            invalidated: FxHashSet::default(),
            stats: CacheStats::default(),
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-aligned address of the block containing `addr`.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// The line index of `addr` and the first slot of its set.
    fn locate(&self, addr: Addr) -> (u64, usize) {
        let line = addr >> self.line_shift;
        (line, (line & self.set_mask) as usize * self.ways)
    }

    /// Access `addr`. On a miss the line is allocated, evicting the
    /// set's least recently used line when the set is full.
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        let (line, base) = self.locate(addr);
        self.lru_clock += 1;
        let found = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line);
        let lru = &mut self.lru[base..base + self.ways];
        if let Some(w) = found {
            lru[w] = self.lru_clock;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        // The victim is the first way holding the oldest stamp.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (w, &stamp) in lru.iter().enumerate() {
            if stamp < oldest {
                (victim, oldest) = (w, stamp);
            }
        }

        self.stats.misses += 1;
        // L2 banks are never invalidated: skip the hash on their misses.
        let coherence =
            !self.invalidated.is_empty() && self.invalidated.remove(&(line << self.line_shift));
        if coherence {
            self.stats.coherence_misses += 1;
        }
        let old = std::mem::replace(&mut self.tags[base + victim], line);
        lru[victim] = self.lru_clock;
        let evicted = (old != EMPTY).then(|| old << self.line_shift);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        AccessOutcome::Miss { evicted, coherence }
    }

    /// Non-mutating residency probe (the LD/ST unit's "local $ probe"
    /// before offloading, Figure 1).
    pub fn probe(&self, addr: Addr) -> bool {
        let (line, base) = self.locate(addr);
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Remove a line (directory-initiated invalidation). The next demand
    /// miss on this line is counted as a coherence miss.
    pub fn invalidate(&mut self, addr: Addr) {
        let (line, base) = self.locate(addr);
        if let Some(w) = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
        {
            self.tags[base + w] = EMPTY;
            self.lru[base + w] = 0;
            self.stats.invalidations += 1;
            self.invalidated.insert(line << self.line_shift);
        }
    }

    /// Number of currently-valid lines (tests and occupancy metrics).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            latency: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.set_mask + 1, 4);
        assert_eq!(c.ways, 2);
        assert_eq!(c.line_addr(130), 128);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0).is_hit());
        assert!(c.access(32).is_hit(), "same line should hit");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 4 == 0): 0, 256, 512, ...
        c.access(0); // A
        c.access(256); // B
        c.access(0); // touch A -> B is now LRU
        match c.access(512) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(256)),
            _ => panic!("expected miss"),
        }
        // A must still be resident.
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn associativity_is_respected() {
        let mut c = tiny();
        c.access(0);
        c.access(256);
        assert_eq!(c.occupancy(), 2);
        c.access(512);
        // Still only 2 lines in set 0.
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0);
        let stats_before = c.stats;
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.stats, stats_before);
    }

    #[test]
    fn invalidation_counts_coherence_miss() {
        let mut c = tiny();
        c.access(0);
        c.invalidate(0);
        assert!(!c.probe(0));
        assert_eq!(c.stats.invalidations, 1);
        match c.access(0) {
            AccessOutcome::Miss { coherence, .. } => assert!(coherence),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.stats.coherence_misses, 1);
        // A second miss on the same line (capacity path) is not
        // coherence.
        c.access(256);
        c.access(512); // evicts line 0's set members
        c.access(0);
        assert_eq!(c.stats.coherence_misses, 1);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = tiny();
        // Line at address 64 lives in set 1; its set-mates are 64+256k.
        c.access(64);
        c.access(64 + 256);
        match c.access(64 + 512) {
            AccessOutcome::Miss { evicted, .. } => assert_eq!(evicted, Some(64)),
            _ => panic!("expected miss"),
        }
    }

    /// The textbook model: each set a list of resident lines, least
    /// recently used first.
    struct ReferenceLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<Addr>>,
        invalidated: std::collections::BTreeSet<Addr>,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(cfg: CacheConfig) -> Self {
            ReferenceLru {
                line_bytes: cfg.line_bytes,
                ways: cfg.ways as usize,
                sets: vec![Vec::new(); cfg.sets() as usize],
                invalidated: Default::default(),
                stats: CacheStats::default(),
            }
        }

        fn set(&mut self, line: Addr) -> &mut Vec<Addr> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line / self.line_bytes % n) as usize]
        }

        fn access(&mut self, addr: Addr) -> AccessOutcome {
            let line = addr / self.line_bytes * self.line_bytes;
            let ways = self.ways;
            let set = self.set(line);
            if let Some(i) = set.iter().position(|&l| l == line) {
                set.remove(i);
                set.push(line);
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
            let evicted = (set.len() == ways).then(|| set.remove(0));
            set.push(line);
            self.stats.misses += 1;
            self.stats.evictions += evicted.is_some() as u64;
            let coherence = self.invalidated.remove(&line);
            self.stats.coherence_misses += coherence as u64;
            AccessOutcome::Miss { evicted, coherence }
        }

        fn invalidate(&mut self, addr: Addr) {
            let line = addr / self.line_bytes * self.line_bytes;
            let set = self.set(line);
            if let Some(i) = set.iter().position(|&l| l == line) {
                set.remove(i);
                self.stats.invalidations += 1;
                self.invalidated.insert(line);
            }
        }
    }

    /// Seeded random access/invalidate sequences over the L1, L2 and
    /// `test_small` geometries: the flat tag store and the reference
    /// model agree on every outcome (hit/miss, evicted line, coherence
    /// flag), every probe, and the final stats and occupancy.
    #[test]
    fn matches_a_reference_lru_model() {
        use ndc_types::{ArchConfig, SplitMix64};
        let paper = ArchConfig::paper_default();
        let small = ArchConfig::test_small();
        let geometries = [paper.l1, paper.l2, small.l1, small.l2];
        for case in 0..256u64 {
            let cfg = geometries[case as usize % geometries.len()];
            let mut rng = SplitMix64::new(0xcac4e + case);
            let mut cache = SetAssocCache::new(cfg);
            let mut model = ReferenceLru::new(cfg);
            let sets = cfg.sets();
            // Crowd a few sets with up to twice their ways' worth of
            // lines, so evictions and re-references are common.
            let hot_sets = 1 + rng.below(3);
            let tags = 2 * cfg.ways as u64;
            for step in 0..400 {
                let line = if rng.chance(0.9) {
                    rng.below(hot_sets) + sets * rng.below(tags)
                } else {
                    rng.below(1 << 30)
                };
                let addr = line * cfg.line_bytes + rng.below(cfg.line_bytes);
                if rng.chance(0.15) {
                    cache.invalidate(addr);
                    model.invalidate(addr);
                } else {
                    assert_eq!(
                        cache.access(addr),
                        model.access(addr),
                        "case {case} step {step}: access {addr:#x}"
                    );
                }
                let probe = rng.below(hot_sets) + sets * rng.below(tags);
                let probe = probe * cfg.line_bytes;
                assert_eq!(
                    cache.probe(probe),
                    model.set(probe).contains(&probe),
                    "case {case} step {step}: probe {probe:#x}"
                );
            }
            assert_eq!(cache.stats, model.stats, "case {case}");
            let resident: usize = model.sets.iter().map(Vec::len).sum();
            assert_eq!(cache.occupancy(), resident, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_a_set_count_that_is_not_a_power_of_two() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 3 * 2 * 64,
            line_bytes: 64,
            ways: 2,
            latency: 2,
        });
    }
}
