//! Full-map sharer directory for L1 coherence.
//!
//! The simulated machine keeps a directory entry per L2-home line
//! recording which cores hold the line in their L1. A write from core
//! `c` invalidates every other sharer's L1 copy. Those later re-reads
//! become *coherence misses* — the miss class the paper's CME estimator
//! deliberately does not model ("our CME implementation does not model
//! coherence misses", §5.2), which is what caps the Table 2 accuracies.

use ndc_types::{Addr, FxHashMap};

/// Directory contention counters: how much coherence traffic the
/// directory generated and absorbed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirStats {
    /// Read copies registered.
    pub sharer_adds: u64,
    /// Writes processed.
    pub writes: u64,
    /// Invalidation messages sent to other sharers (each later re-read
    /// by the victim is a coherence miss).
    pub invalidations_sent: u64,
    /// Writes that found other sharers to invalidate — the contended
    /// fraction of write traffic.
    pub contended_writes: u64,
}

/// Widest mesh the sharer mask supports: 4×64 bits = 256 cores, i.e. a
/// 16×16 mesh. `debug_assert`ed at every entry point.
pub const MAX_CORES: usize = SHARER_WORDS * 64;
const SHARER_WORDS: usize = 4;

/// Sharer bitmask per line address: a fixed `[u64; 4]` word array, wide
/// enough for the 16×16 scale-up mesh (256 cores) while staying a flat
/// inline value — no per-line heap allocation on the coherence path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SharerMask {
    words: [u64; SHARER_WORDS],
}

impl SharerMask {
    #[inline]
    fn set(&mut self, core: usize) {
        self.words[core / 64] |= 1 << (core % 64);
    }

    #[inline]
    fn clear(&mut self, core: usize) {
        self.words[core / 64] &= !(1 << (core % 64));
    }

    #[inline]
    fn contains(&self, core: usize) -> bool {
        self.words[core / 64] & (1 << (core % 64)) != 0
    }

    #[inline]
    fn only(core: usize) -> Self {
        let mut m = Self::default();
        m.set(core);
        m
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

/// Full-map L1 sharer directory. Supports up to [`MAX_CORES`] cores.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    sharers: FxHashMap<Addr, SharerMask>,
    pub stats: DirStats,
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `core` obtained a readable copy of `line`.
    pub fn add_sharer(&mut self, line: Addr, core: usize) {
        debug_assert!(core < MAX_CORES);
        self.sharers.entry(line).or_default().set(core);
        self.stats.sharer_adds += 1;
    }

    /// Record a write by `core`: returns the cores whose copies must be
    /// invalidated (every sharer except the writer), and collapses the
    /// entry to the writer alone.
    pub fn write_by(&mut self, line: Addr, core: usize) -> SharerIter {
        debug_assert!(core < MAX_CORES);
        let entry = self.sharers.entry(line).or_default();
        let mut others = *entry;
        others.clear(core);
        *entry = SharerMask::only(core);
        self.stats.writes += 1;
        if !others.is_empty() {
            self.stats.contended_writes += 1;
            self.stats.invalidations_sent += u64::from(others.count());
        }
        SharerIter {
            mask: others,
            word: 0,
        }
    }

    /// Drop a core's copy (L1 eviction writes back / silently drops).
    pub fn remove_sharer(&mut self, line: Addr, core: usize) {
        debug_assert!(core < MAX_CORES);
        if let Some(e) = self.sharers.get_mut(&line) {
            e.clear(core);
            if e.is_empty() {
                self.sharers.remove(&line);
            }
        }
    }

    pub fn sharer_count(&self, line: Addr) -> u32 {
        self.sharers.get(&line).map_or(0, |m| m.count())
    }

    pub fn is_sharer(&self, line: Addr, core: usize) -> bool {
        debug_assert!(core < MAX_CORES);
        self.sharers.get(&line).is_some_and(|m| m.contains(core))
    }

    /// Number of tracked lines (tests / memory accounting).
    pub fn tracked_lines(&self) -> usize {
        self.sharers.len()
    }
}

/// Iterator over core indices in a sharer bitmask, ascending.
#[derive(Debug, Clone, Copy)]
pub struct SharerIter {
    mask: SharerMask,
    word: usize,
}

impl Iterator for SharerIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word < SHARER_WORDS {
            let bits = self.mask.words[self.word];
            if bits == 0 {
                self.word += 1;
                continue;
            }
            let c = bits.trailing_zeros() as usize;
            self.mask.words[self.word] = bits & (bits - 1);
            return Some(self.word * 64 + c);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_sharing_accumulates() {
        let mut d = Directory::new();
        d.add_sharer(0x1000, 1);
        d.add_sharer(0x1000, 5);
        d.add_sharer(0x1000, 5);
        assert_eq!(d.sharer_count(0x1000), 2);
        assert!(d.is_sharer(0x1000, 1));
        assert!(d.is_sharer(0x1000, 5));
        assert!(!d.is_sharer(0x1000, 2));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        for c in [0, 3, 7] {
            d.add_sharer(0x40, c);
        }
        let invalidated: Vec<usize> = d.write_by(0x40, 3).collect();
        assert_eq!(invalidated, vec![0, 7]);
        assert_eq!(d.sharer_count(0x40), 1);
        assert!(d.is_sharer(0x40, 3));
    }

    #[test]
    fn write_by_sole_sharer_invalidates_nothing() {
        let mut d = Directory::new();
        d.add_sharer(0x40, 2);
        let inv: Vec<usize> = d.write_by(0x40, 2).collect();
        assert!(inv.is_empty());
    }

    #[test]
    fn write_to_untracked_line_creates_owner() {
        let mut d = Directory::new();
        let inv: Vec<usize> = d.write_by(0x80, 9).collect();
        assert!(inv.is_empty());
        assert!(d.is_sharer(0x80, 9));
    }

    #[test]
    fn remove_sharer_cleans_up() {
        let mut d = Directory::new();
        d.add_sharer(0x40, 1);
        d.add_sharer(0x40, 2);
        d.remove_sharer(0x40, 1);
        assert_eq!(d.sharer_count(0x40), 1);
        d.remove_sharer(0x40, 2);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn stats_count_coherence_traffic() {
        let mut d = Directory::new();
        for c in [0, 3, 7] {
            d.add_sharer(0x40, c);
        }
        let _ = d.write_by(0x40, 3); // invalidates cores 0 and 7
        let _ = d.write_by(0x40, 3); // sole owner: nothing to invalidate
        assert_eq!(d.stats.sharer_adds, 3);
        assert_eq!(d.stats.writes, 2);
        assert_eq!(d.stats.invalidations_sent, 2);
        assert_eq!(d.stats.contended_writes, 1);
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut d = Directory::new();
        d.add_sharer(0x40, 1);
        d.add_sharer(0x80, 2);
        let inv: Vec<usize> = d.write_by(0x40, 3).collect();
        assert_eq!(inv, vec![1]);
        assert!(d.is_sharer(0x80, 2));
    }

    /// The 16×16 scale-up mesh has 256 cores — sharers above core 63
    /// must round-trip through every operation (the pre-scale-up mask
    /// was a single u64 and silently aliased them).
    #[test]
    fn cores_beyond_64_are_tracked() {
        let mut d = Directory::new();
        for c in [0, 63, 64, 130, 255] {
            d.add_sharer(0x40, c);
        }
        assert_eq!(d.sharer_count(0x40), 5);
        assert!(d.is_sharer(0x40, 255));
        let inv: Vec<usize> = d.write_by(0x40, 130).collect();
        assert_eq!(inv, vec![0, 63, 64, 255]);
        assert_eq!(d.sharer_count(0x40), 1);
        assert!(d.is_sharer(0x40, 130));
        d.remove_sharer(0x40, 130);
        assert_eq!(d.tracked_lines(), 0);
    }
}
