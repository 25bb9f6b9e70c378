//! The paper's primary contribution: two compiler-directed NDC
//! optimization passes.
//!
//! * [`algorithm1`] — *Exploiting NDC through computation restructuring*
//!   (paper Algorithm 1): for every use-use chain (two-memory-operand
//!   computation) it tries the candidate components in order
//!   (L2 bank → router → memory queue → memory bank), and for each
//!   component the three movement strategies of Figure 8 (move `y`,
//!   move `x`, move both) realized as operand-issue staggers plus an
//!   iteration lookahead, with dependence-constrained legality and a
//!   unimodular loop-transformation search (`T·D ≻ 0`) on top. For the
//!   router target it additionally selects route signatures maximizing
//!   `Sx ∩ Sy` (§5.2.1, Figure 11).
//! * [`algorithm2`] — *Exploring the NDC/data-locality trade-off*
//!   (paper Algorithm 2): identical search, but a plan is rejected when
//!   either operand is reused beyond the computation (the `∃ I_m` check
//!   of §5.3), favoring cache locality; the rejection count is the
//!   Figure 15 metric. The reuse threshold `k` is configurable (the
//!   paper evaluates `k = 0` and leaves `k > 0` to future work).
//! * [`coarse`] — the coarse-grain ablation of §5.4: whole-nest mapping
//!   to a single component, which the paper reports performs poorly
//!   (1.2%/2.5%) — reproduced as a bench target.
//! * [`layout`] — the data-layout optimization the paper defers to
//!   future work (§5.2.1, fourth challenge): base-address padding that
//!   co-homes cross-array operand pairs, creating NDC opportunities
//!   that no amount of code motion could.
//!
//! All passes consume the Cache Miss Equations estimates (`ndc-cme`),
//! the architecture description (`ndc_types::ArchConfig`) and produce
//! an `ndc_ir::Schedule` plus a [`report::CompilerReport`].

#![forbid(unsafe_code)]

pub mod algorithm1;
pub mod algorithm2;
pub mod coarse;
pub mod estimate;
pub mod layout;
pub mod report;

pub use algorithm1::compile_algorithm1;
pub use algorithm2::{compile_algorithm2, Algorithm2Options};
pub use coarse::compile_coarse;
pub use estimate::{assess_fused, FusedViability, LatencyModel, TargetViability};
pub use layout::{optimize_layout, LayoutReport};
pub use report::{
    fuse_note, no_offload, outcome, reason, CandidateRecord, ChainProvenance, CompilerReport,
};
