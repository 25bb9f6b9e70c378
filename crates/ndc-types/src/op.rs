//! Arithmetic/logic operations and NDC hardware locations.

use crate::trace::MAX_FUSED_OPS;

/// The arithmetic and logic operations that can be offloaded near data.
///
/// The paper writes `A + B` throughout but states the approach handles
/// "any arithmetic or logic operation implemented in a given location of
/// interest" (§2). The Figure 17 sensitivity study restricts the
/// offloadable set to `{+, -}`, which [`Op::is_add_sub`] supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Min,
    Max,
    /// Compare, producing 0 or 1. Used by the tree-walk style workloads
    /// (kdtree, barnes) whose inner computations are key comparisons.
    CmpLt,
}

impl Op {
    /// True for the `{+, -}` subset used by the restricted-ops
    /// sensitivity experiment (Figure 17, last pair of bars).
    pub fn is_add_sub(self) -> bool {
        matches!(self, Op::Add | Op::Sub)
    }

    /// Evaluate the operation on two `f64` values. The simulator carries
    /// real values so that semantics-preservation of compiler transforms
    /// can be checked end-to-end (transformed program ⇒ identical
    /// results).
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
            // Guard against division by zero in synthetic data; the
            // workloads avoid zero divisors, but property tests do not.
            Op::Div => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
            Op::And => ((a as i64) & (b as i64)) as f64,
            Op::Or => ((a as i64) | (b as i64)) as f64,
            Op::Xor => ((a as i64) ^ (b as i64)) as f64,
            Op::Min => a.min(b),
            Op::Max => a.max(b),
            Op::CmpLt => {
                if a < b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// All operations, for exhaustive tests.
    pub const ALL: [Op; 10] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Min,
        Op::Max,
        Op::CmpLt,
    ];
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::And => "&",
            Op::Or => "|",
            Op::Xor => "^",
            Op::Min => "min",
            Op::Max => "max",
            Op::CmpLt => "<",
        };
        f.write_str(s)
    }
}

/// The four hardware locations the paper considers for near-data
/// computation (Figure 1: ⓐ link buffers/routers, ⓑ cache controllers,
/// ⓒ memory controllers, ⓓ main memory banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NdcLocation {
    /// An ALU attached to a NoC router's link buffer.
    LinkBuffer,
    /// An ALU attached to an L2 bank's cache controller.
    CacheController,
    /// An ALU attached to a memory controller's request queue.
    MemoryController,
    /// A compute unit inside a DRAM bank.
    MemoryBank,
}

/// [`NdcLocation::trace_name`] by op count (1..=[`MAX_FUSED_OPS`]) and
/// [`NdcLocation::index`].
const TRACE_NAMES: [[&str; 4]; MAX_FUSED_OPS] = [
    ["ndc@network", "ndc@cache", "ndc@MC", "ndc@memory"],
    [
        "ndc-fused2@network",
        "ndc-fused2@cache",
        "ndc-fused2@MC",
        "ndc-fused2@memory",
    ],
    [
        "ndc-fused3@network",
        "ndc-fused3@cache",
        "ndc-fused3@MC",
        "ndc-fused3@memory",
    ],
    [
        "ndc-fused4@network",
        "ndc-fused4@cache",
        "ndc-fused4@MC",
        "ndc-fused4@memory",
    ],
];

/// All four locations in the order the paper's figures report them
/// (cache, network, MC, memory in the breakdown plots; we keep the
/// canonical enum order here and let presentation code reorder).
pub const ALL_NDC_LOCATIONS: [NdcLocation; 4] = [
    NdcLocation::LinkBuffer,
    NdcLocation::CacheController,
    NdcLocation::MemoryController,
    NdcLocation::MemoryBank,
];

impl NdcLocation {
    /// Stable dense index for per-location arrays.
    pub fn index(self) -> usize {
        match self {
            NdcLocation::LinkBuffer => 0,
            NdcLocation::CacheController => 1,
            NdcLocation::MemoryController => 2,
            NdcLocation::MemoryBank => 3,
        }
    }

    /// The label the paper's breakdown figures use for this location.
    pub fn paper_label(self) -> &'static str {
        match self {
            NdcLocation::LinkBuffer => "network",
            NdcLocation::CacheController => "cache",
            NdcLocation::MemoryController => "MC",
            NdcLocation::MemoryBank => "memory",
        }
    }

    /// Trace-event name of an NDC package of `n_ops` operations
    /// performed here: `ndc@<paper label>` for one op,
    /// `ndc-fused<n_ops>@<paper label>` for a fused chain of `n_ops` in
    /// `2..=MAX_FUSED_OPS`.
    pub fn trace_name(self, n_ops: usize) -> &'static str {
        TRACE_NAMES[n_ops - 1][self.index()]
    }

    pub fn from_index(i: usize) -> Option<Self> {
        ALL_NDC_LOCATIONS.get(i).copied()
    }
}

impl std::fmt::Display for NdcLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NdcLocation::LinkBuffer => "link buffer",
            NdcLocation::CacheController => "cache controller",
            NdcLocation::MemoryController => "memory controller",
            NdcLocation::MemoryBank => "main memory",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_names_match_their_labels() {
        for loc in ALL_NDC_LOCATIONS {
            assert_eq!(loc.trace_name(1), format!("ndc@{}", loc.paper_label()));
            for n in 2..=MAX_FUSED_OPS {
                assert_eq!(
                    loc.trace_name(n),
                    format!("ndc-fused{n}@{}", loc.paper_label())
                );
            }
        }
    }

    #[test]
    fn op_apply_basics() {
        assert_eq!(Op::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(Op::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(Op::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(Op::Div.apply(6.0, 3.0), 2.0);
        assert_eq!(Op::Div.apply(6.0, 0.0), 0.0);
        assert_eq!(Op::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(Op::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(Op::CmpLt.apply(2.0, 3.0), 1.0);
        assert_eq!(Op::CmpLt.apply(3.0, 2.0), 0.0);
    }

    #[test]
    fn op_bitwise_on_integral_values() {
        assert_eq!(Op::And.apply(6.0, 3.0), 2.0);
        assert_eq!(Op::Or.apply(6.0, 3.0), 7.0);
        assert_eq!(Op::Xor.apply(6.0, 3.0), 5.0);
    }

    #[test]
    fn add_sub_restriction_matches_fig17() {
        let restricted: Vec<Op> = Op::ALL.iter().copied().filter(|o| o.is_add_sub()).collect();
        assert_eq!(restricted, vec![Op::Add, Op::Sub]);
    }

    #[test]
    fn location_indices_are_dense_and_stable() {
        for (i, loc) in ALL_NDC_LOCATIONS.iter().enumerate() {
            assert_eq!(loc.index(), i);
            assert_eq!(NdcLocation::from_index(i), Some(*loc));
        }
        assert_eq!(NdcLocation::from_index(4), None);
    }
}
