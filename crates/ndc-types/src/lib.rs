//! Shared vocabulary for the near-data-computing (NDC) reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//! cycle timestamps, physical addresses, mesh coordinates, arithmetic/logic
//! operations, the architecture configuration mirroring Table 1 of the
//! paper, the trace instruction set the simulator executes, the
//! check-event record its invariant checker reads, and the bucketed
//! statistics (arrival-window CDFs) used throughout the evaluation.
//!
//! Nothing here performs simulation or compilation; it is deliberately a
//! leaf crate with no workspace dependencies so that the NoC, memory,
//! simulator, and compiler crates can all share it without cycles.

#![forbid(unsafe_code)]

pub mod addrmap;
pub mod check;
pub mod config;
pub mod geom;
pub mod hash;
pub mod json;
pub mod op;
pub mod rng;
pub mod stats;
pub mod trace;

pub use addrmap::{AddrMap, Divisor};
pub use check::{CheckKind, CheckRecord};
pub use config::{ArchConfig, CacheConfig, DramConfig, MemConfig, NdcConfig, NocConfig, OpClass};
pub use geom::{Coord, NodeId};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{Json, JsonError};
pub use op::{NdcLocation, Op, ALL_NDC_LOCATIONS};
pub use rng::SplitMix64;
pub use stats::{
    bucket_index, geomean_improvement, mean, Cdf, WindowHistogram, BUCKET_LABELS, NUM_BUCKETS,
};
pub use trace::{Inst, InstIter, InstKind, Insts, Operand, Trace, TraceProgram, MAX_FUSED_OPS};

/// A simulation timestamp, measured in core clock cycles.
pub type Cycle = u64;

/// A physical byte address in the simulated machine.
pub type Addr = u64;

/// A static-instruction identifier ("program counter"). Each distinct
/// statement instance in a lowered program gets a stable `Pc`, so that
/// per-PC predictors (the paper's "Last Wait" scheme, Figure 5) can key
/// their history on it.
pub type Pc = u32;
