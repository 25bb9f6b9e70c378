//! Memory-hierarchy substrate for the NDC manycore.
//!
//! Three pieces, composed by the simulator:
//!
//! * [`cache::SetAssocCache`] — an LRU, set-associative cache used for
//!   both the per-core L1s and the static-NUCA L2 banks (Table 1
//!   geometries). It models residency only; the simulator charges each
//!   access's latency along its path.
//! * [`directory::Directory`] — a full-map sharer directory at the L2
//!   home banks. Writes invalidate remote L1 copies; the resulting
//!   *coherence misses* are exactly what the paper's CME estimator does
//!   not model, driving the Table 2 accuracy gap.
//! * [`dram::MemoryController`] — a banked DRAM channel with open-row
//!   buffers, serviced in arrival order: row hits, row misses
//!   (activations) and row conflicts (precharge+activate) cost
//!   different latencies, banks serialize on their busy horizon, and
//!   the shared data channel serializes bursts.

#![forbid(unsafe_code)]

pub mod cache;
pub mod directory;
pub mod dram;

pub use cache::{AccessOutcome, CacheStats, SetAssocCache};
pub use directory::{DirStats, Directory, MAX_CORES};
pub use dram::{McAccess, McStats, MemoryController, RowOutcome};
