//! Division-free static address maps.
//!
//! The simulator maps every L2-reaching access to its home L2 bank, its
//! memory controller and its DRAM bank and row. [`ArchConfig`] defines
//! those maps with plain `/` and `%`; [`AddrMap`] computes the same
//! values from divisors fixed at construction, so the hot path pays
//! shifts and masks instead of 64-bit divisions. Line, interleave, bank
//! and row counts are powers of two in every configuration the
//! repository builds; the node count (25 on the paper's 5×5 mesh) is
//! not, and keeps the hardware divide.

use crate::{Addr, ArchConfig, NodeId};

/// Marks a [`Divisor`] that is not a power of two.
const NOT_POW2: u32 = u32::MAX;

/// Division and remainder by a divisor fixed at construction: a power
/// of two divides by a shift and a mask, any other divisor by the
/// hardware divide. Both return exactly `n / d` and `n % d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` for a power of two, else [`NOT_POW2`].
    shift: u32,
}

impl Divisor {
    /// # Panics
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Divisor {
        assert!(d > 0, "Divisor::new(0)");
        let shift = if d.is_power_of_two() {
            d.trailing_zeros()
        } else {
            NOT_POW2
        };
        Divisor { d, shift }
    }

    /// `n / d`.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        if self.shift != NOT_POW2 {
            n >> self.shift
        } else {
            n / self.d
        }
    }

    /// `n % d`.
    #[inline]
    pub fn remainder(self, n: u64) -> u64 {
        if self.shift != NOT_POW2 {
            n & (self.d - 1)
        } else {
            n % self.d
        }
    }

    /// `⌈n / d⌉`, for `n + d - 1` within `u64`.
    #[inline]
    pub fn div_ceil(self, n: u64) -> u64 {
        self.quotient(n + (self.d - 1))
    }
}

/// The static address maps of one [`ArchConfig`], precomputed. Each
/// method returns exactly what the `ArchConfig` method of the same
/// name returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrMap {
    l2_line: Divisor,
    nodes: Divisor,
    interleave: Divisor,
    controllers: Divisor,
    banks: Divisor,
    rows: Divisor,
}

impl AddrMap {
    pub fn new(cfg: &ArchConfig) -> AddrMap {
        AddrMap {
            l2_line: Divisor::new(cfg.l2.line_bytes),
            nodes: Divisor::new(cfg.nodes() as u64),
            interleave: Divisor::new(cfg.mem.interleave_bytes),
            controllers: Divisor::new(cfg.mem.num_controllers as u64),
            banks: Divisor::new(cfg.mem.dram.banks_per_device as u64),
            rows: Divisor::new(cfg.mem.dram.rows_per_bank),
        }
    }

    /// [`ArchConfig::l2_home`].
    #[inline]
    pub fn l2_home(&self, addr: Addr) -> NodeId {
        NodeId(self.nodes.remainder(self.l2_line.quotient(addr)) as u16)
    }

    /// [`ArchConfig::mc_of`].
    #[inline]
    pub fn mc_of(&self, addr: Addr) -> u32 {
        self.controllers.remainder(self.interleave.quotient(addr)) as u32
    }

    /// [`ArchConfig::dram_bank_of`] and [`ArchConfig::dram_row_of`]
    /// together, from one frame computation.
    #[inline]
    pub fn dram_bank_row(&self, addr: Addr) -> (u32, u64) {
        let per_mc_frame = self.controllers.quotient(self.interleave.quotient(addr));
        (
            self.banks.remainder(per_mc_frame) as u32,
            self.rows.remainder(self.banks.quotient(per_mc_frame)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Both paths (shift and mask, hardware divide) against `/`, `%`
    /// and `div_ceil`, at the edges and at random.
    #[test]
    fn divisor_matches_hardware_division() {
        let mut rng = SplitMix64::new(0xd1u64);
        let mut divisors = vec![1, 2, 3, 5, 7, 16, 25, 36, 64, 100, 255, 256, 4096, 16384];
        divisors.extend([u32::MAX as u64, u32::MAX as u64 + 1, u32::MAX as u64 + 2]);
        divisors.extend((0..64).map(|_| 1 + rng.below(1 << 20)));
        divisors.extend((0..16).map(|_| 1 + rng.next_u64() / 2));
        for &d in &divisors {
            let v = Divisor::new(d);
            let mut ns = vec![0, 1, d - 1, d, d + 1, u32::MAX as u64, u32::MAX as u64 + 1];
            ns.extend([u64::MAX - d, u64::MAX / 2]);
            ns.extend((0..256).map(|_| rng.below(1 << 32)));
            ns.extend((0..64).map(|_| rng.next_u64()));
            for n in ns {
                assert_eq!(v.quotient(n), n / d, "{n} / {d}");
                assert_eq!(v.remainder(n), n % d, "{n} % {d}");
                if n.checked_add(d - 1).is_some() {
                    assert_eq!(v.div_ceil(n), n.div_ceil(d), "ceil({n} / {d})");
                }
            }
        }
    }

    /// The precomputed maps equal `ArchConfig`'s on every configuration
    /// the repository builds, and on non-power-of-two counts that take
    /// the divide path.
    #[test]
    fn addr_map_matches_arch_config() {
        let mut odd = ArchConfig::with_mesh(3, 7);
        odd.mem.num_controllers = 3;
        odd.mem.interleave_bytes = 3000;
        odd.mem.dram.banks_per_device = 5;
        odd.mem.dram.rows_per_bank = 1000;
        let configs = [
            ArchConfig::paper_default(),
            ArchConfig::test_small(),
            ArchConfig::with_mesh(6, 6),
            ArchConfig::with_mesh(8, 8),
            ArchConfig::with_mesh(16, 16),
            odd,
        ];
        let mut rng = SplitMix64::new(0xadd7);
        for cfg in configs {
            let map = AddrMap::new(&cfg);
            let mut addrs = vec![0, 1, 255, 256, 4095, 4096, u64::MAX];
            addrs.extend((0..2000).map(|_| rng.below(1 << 34)));
            addrs.extend((0..200).map(|_| rng.next_u64()));
            for a in addrs {
                assert_eq!(map.l2_home(a), cfg.l2_home(a), "{a:#x}");
                assert_eq!(map.mc_of(a), cfg.mc_of(a), "{a:#x}");
                assert_eq!(
                    map.dram_bank_row(a),
                    (cfg.dram_bank_of(a), cfg.dram_row_of(a)),
                    "{a:#x}"
                );
            }
        }
    }
}
