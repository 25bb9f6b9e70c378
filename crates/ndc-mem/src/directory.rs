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

/// Lines per directory page: 64 consecutive lines, 4 KB of address
/// space at the paper's 64-byte L1 lines.
const PAGE_LINES: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 6;

/// Page number of an empty last-page entry (no line maps to it: line
/// sizes are above 1, so page numbers stay below `u64::MAX >> 7`).
const NO_PAGE: u64 = u64::MAX;

/// Full-map L1 sharer directory. Supports up to [`MAX_CORES`] cores.
///
/// The directory only ever tracks lines resident in some L1: a fill or
/// a write creates an entry and the last holder's eviction removes it.
/// Its sharer masks live in pages of [`PAGE_LINES`] consecutive lines,
/// found through a page index behind a cache of the last page used,
/// so a stream of stores to neighbouring lines touches one page
/// instead of a hash-map entry per line. A mask is one `u64`
/// word on meshes of at most 64 cores, four words above. A page whose
/// last sharer leaves goes back to a free list, so memory follows the
/// resident lines.
#[derive(Debug, Clone)]
pub struct Directory {
    /// `log2(line_bytes)`: line address → line index.
    line_shift: u32,
    /// `u64` words per sharer mask.
    words: usize,
    /// Page number (line index / [`PAGE_LINES`]) → page slot.
    index: FxHashMap<u64, u32>,
    /// The sharer masks of every page slot: line `l` of slot `s` owns
    /// words `(s · PAGE_LINES + l) · words ..` and an untracked line's
    /// words are zero.
    masks: Vec<u64>,
    /// Tracked (nonempty) lines per page slot.
    live: Vec<u32>,
    /// Page slots with no tracked line, all zero, ready for reuse.
    free: Vec<u32>,
    /// The last page used, `(page number, slot)`.
    last: (u64, u32),
    /// Tracked lines in all pages.
    tracked: usize,
    pub stats: DirStats,
}

impl Directory {
    /// A directory over `line_bytes`-byte lines (a power of two above
    /// 1) for a machine of `cores` cores (at most [`MAX_CORES`]).
    pub fn new(line_bytes: u64, cores: usize) -> Self {
        assert!(
            line_bytes > 1 && line_bytes.is_power_of_two(),
            "directory line size must be a power of two above 1, got {line_bytes}"
        );
        assert!(cores <= MAX_CORES, "{cores} cores exceed MAX_CORES");
        Directory {
            line_shift: line_bytes.trailing_zeros(),
            words: if cores <= 64 { 1 } else { SHARER_WORDS },
            index: FxHashMap::default(),
            masks: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            last: (NO_PAGE, 0),
            tracked: 0,
            stats: DirStats::default(),
        }
    }

    /// Record that `core` obtained a readable copy of `line`.
    pub fn add_sharer(&mut self, line: Addr, core: usize) {
        let (page, at) = self.locate(line, core);
        let slot = self.page_or_insert(page);
        let at = self.mask_start(slot, at);
        let mut mask = self.load(at);
        if is_empty(&mask) {
            self.live[slot as usize] += 1;
            self.tracked += 1;
        }
        mask[core / 64] |= 1 << (core % 64);
        self.store(at, mask);
        self.stats.sharer_adds += 1;
    }

    /// Record a write by `core`: returns the cores whose copies must be
    /// invalidated (every sharer except the writer), and collapses the
    /// entry to the writer alone.
    pub fn write_by(&mut self, line: Addr, core: usize) -> SharerIter {
        let (page, at) = self.locate(line, core);
        let slot = self.page_or_insert(page);
        let at = self.mask_start(slot, at);
        let mut others = self.load(at);
        if is_empty(&others) {
            self.live[slot as usize] += 1;
            self.tracked += 1;
        }
        others[core / 64] &= !(1 << (core % 64));
        let mut only = [0; SHARER_WORDS];
        only[core / 64] = 1 << (core % 64);
        self.store(at, only);
        self.stats.writes += 1;
        // Most writes find the writer alone: count bits only when not.
        if !is_empty(&others) {
            let invalidated: u32 = others.iter().map(|w| w.count_ones()).sum();
            self.stats.contended_writes += 1;
            self.stats.invalidations_sent += u64::from(invalidated);
        }
        SharerIter {
            words: others,
            word: 0,
        }
    }

    /// Drop a core's copy (L1 eviction writes back / silently drops).
    pub fn remove_sharer(&mut self, line: Addr, core: usize) {
        let (page, at) = self.locate(line, core);
        let Some(slot) = self.page_cached(page) else {
            return;
        };
        let at = self.mask_start(slot, at);
        let mut mask = self.load(at);
        let bit = 1 << (core % 64);
        if mask[core / 64] & bit == 0 {
            return;
        }
        mask[core / 64] &= !bit;
        self.store(at, mask);
        if is_empty(&mask) {
            self.untrack(page, slot);
        }
    }

    /// Drop every copy of `line`, returning the cores that held one
    /// (a write by no core, e.g. a store performed near data). Counts
    /// as no directory traffic, like [`Directory::remove_sharer`].
    pub fn take_sharers(&mut self, line: Addr) -> SharerIter {
        let (page, at) = self.locate(line, 0);
        let mut words = [0; SHARER_WORDS];
        if let Some(slot) = self.page_cached(page) {
            let at = self.mask_start(slot, at);
            words = self.load(at);
            if !is_empty(&words) {
                self.store(at, [0; SHARER_WORDS]);
                self.untrack(page, slot);
            }
        }
        SharerIter { words, word: 0 }
    }

    pub fn sharer_count(&self, line: Addr) -> u32 {
        let (page, at) = self.locate(line, 0);
        self.page(page).map_or(0, |slot| {
            let mask = self.load(self.mask_start(slot, at));
            mask.iter().map(|w| w.count_ones()).sum()
        })
    }

    pub fn is_sharer(&self, line: Addr, core: usize) -> bool {
        let (page, at) = self.locate(line, core);
        self.page(page).is_some_and(|slot| {
            let mask = self.load(self.mask_start(slot, at));
            mask[core / 64] & (1 << (core % 64)) != 0
        })
    }

    /// Number of tracked lines (tests / memory accounting).
    pub fn tracked_lines(&self) -> usize {
        self.tracked
    }

    /// Page number and line-within-page of `line`, checking the
    /// arguments every entry point takes.
    #[inline]
    fn locate(&self, line: Addr, core: usize) -> (u64, usize) {
        assert!(core < self.words * 64, "core {core} beyond the sharer mask");
        debug_assert_eq!(
            line & ((1 << self.line_shift) - 1),
            0,
            "{line:#x} is not a line address"
        );
        let index = line >> self.line_shift;
        (index >> PAGE_SHIFT, index as usize & (PAGE_LINES - 1))
    }

    /// Index in `masks` of the first word of line `at` of page `slot`.
    #[inline]
    fn mask_start(&self, slot: u32, at: usize) -> usize {
        (slot as usize * PAGE_LINES + at) * self.words
    }

    /// The mask starting at word `at`, widened to [`SHARER_WORDS`]
    /// words. Fixed-size copies, so no call to `memcpy`.
    #[inline]
    fn load(&self, at: usize) -> [u64; SHARER_WORDS] {
        if self.words == 1 {
            [self.masks[at], 0, 0, 0]
        } else {
            self.masks[at..at + SHARER_WORDS]
                .try_into()
                .expect("a mask is SHARER_WORDS words")
        }
    }

    /// Store `mask` at word `at`; a one-word mask keeps word 0 only.
    #[inline]
    fn store(&mut self, at: usize, mask: [u64; SHARER_WORDS]) {
        if self.words == 1 {
            self.masks[at] = mask[0];
        } else {
            self.masks[at..at + SHARER_WORDS].copy_from_slice(&mask);
        }
    }

    /// The slot of `page`, if tracked, without updating the cache.
    #[inline]
    fn page(&self, page: u64) -> Option<u32> {
        if self.last.0 == page {
            return Some(self.last.1);
        }
        self.index.get(&page).copied()
    }

    /// The slot of `page`, if tracked, caching it as the last page.
    #[inline]
    fn page_cached(&mut self, page: u64) -> Option<u32> {
        if self.last.0 == page {
            return Some(self.last.1);
        }
        let slot = *self.index.get(&page)?;
        self.last = (page, slot);
        Some(slot)
    }

    /// The slot of `page`, taking a free or new one if it is untracked.
    #[inline]
    fn page_or_insert(&mut self, page: u64) -> u32 {
        if let Some(slot) = self.page_cached(page) {
            return slot;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.live.push(0);
            self.masks
                .resize(self.masks.len() + PAGE_LINES * self.words, 0);
            (self.live.len() - 1) as u32
        });
        self.index.insert(page, slot);
        self.last = (page, slot);
        slot
    }

    /// One line of `page` (slot `slot`) lost its last sharer; free the
    /// page when it was the page's last tracked line.
    fn untrack(&mut self, page: u64, slot: u32) {
        self.tracked -= 1;
        let live = &mut self.live[slot as usize];
        *live -= 1;
        if *live == 0 {
            self.index.remove(&page);
            self.free.push(slot);
            if self.last.0 == page {
                self.last = (NO_PAGE, 0);
            }
        }
    }
}

/// Whether a loaded mask has no sharer. Word by word, so the words stay
/// in registers: comparing the array as a whole goes through memory
/// and stalls on the stores that just built it.
#[inline]
fn is_empty(mask: &[u64; SHARER_WORDS]) -> bool {
    mask.iter().fold(0, |any, &w| any | w) == 0
}

/// Iterator over core indices in a sharer bitmask, ascending.
#[derive(Debug, Clone, Copy)]
pub struct SharerIter {
    words: [u64; SHARER_WORDS],
    word: usize,
}

impl Iterator for SharerIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word < SHARER_WORDS {
            let bits = self.words[self.word];
            if bits == 0 {
                self.word += 1;
                continue;
            }
            let c = bits.trailing_zeros() as usize;
            self.words[self.word] = bits & (bits - 1);
            return Some(self.word * 64 + c);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory for the 16×16 mesh's 256 cores over 64-byte lines.
    fn dir() -> Directory {
        Directory::new(64, MAX_CORES)
    }

    #[test]
    fn read_sharing_accumulates() {
        let mut d = dir();
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
        let mut d = dir();
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
        let mut d = dir();
        d.add_sharer(0x40, 2);
        let inv: Vec<usize> = d.write_by(0x40, 2).collect();
        assert!(inv.is_empty());
    }

    #[test]
    fn write_to_untracked_line_creates_owner() {
        let mut d = dir();
        let inv: Vec<usize> = d.write_by(0x80, 9).collect();
        assert!(inv.is_empty());
        assert!(d.is_sharer(0x80, 9));
    }

    #[test]
    fn remove_sharer_cleans_up() {
        let mut d = dir();
        d.add_sharer(0x40, 1);
        d.add_sharer(0x40, 2);
        d.remove_sharer(0x40, 1);
        assert_eq!(d.sharer_count(0x40), 1);
        d.remove_sharer(0x40, 2);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn stats_count_coherence_traffic() {
        let mut d = dir();
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
        let mut d = dir();
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
        let mut d = dir();
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

    /// A page whose last line leaves is freed and reused; the last-page
    /// cache never points at a freed page.
    #[test]
    fn emptied_pages_are_reused() {
        let mut d = Directory::new(64, 25);
        d.add_sharer(0, 1);
        d.add_sharer(64, 2);
        d.remove_sharer(0, 1);
        assert_eq!(d.index.len(), 1);
        d.remove_sharer(64, 2);
        assert_eq!((d.index.len(), d.free.len(), d.tracked_lines()), (0, 1, 0));
        assert!(!d.is_sharer(64, 2));
        // A far line takes the freed slot, which was left zeroed.
        d.add_sharer(1 << 30, 3);
        assert_eq!((d.live.len(), d.free.len()), (1, 0));
        assert_eq!(d.sharer_count(1 << 30), 1);
        assert!(!d.is_sharer(0, 1) && !d.is_sharer(64, 2));
    }
}
