//! Cache Miss Equations (CME) — the static cache-behaviour estimator
//! the NDC compiler conditions on (§5.2, a variant of Ghosh, Martonosi
//! & Malik's framework).
//!
//! The estimator is built on compiler reuse analysis: for every array
//! reference it derives reuse vectors (self-spatial and self-temporal
//! from `ndc_ir::affine`'s fold of `F·I + f` into per-loop byte
//! strides, group-temporal by solving the linear Diophantine systems
//! `F·d = Δf` with the same module's exact solver), converts reuse
//! distances into cache footprints, and classifies the reference's
//! expected *cold*, *capacity* and *conflict* behaviour in both L1 and
//! L2.
//!
//! Faithful to the paper, the estimator **does not model coherence
//! misses** — cross-thread invalidations are invisible to the static
//! analysis. That blind spot is what caps the Table 2 accuracies
//! (≈81% L1 / ≈73% L2 on average in the paper), and our accuracy
//! comparison ([`accuracy`]) measures the same effect against the
//! simulator's per-reference counters, which *do* include coherence
//! misses.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod bottleneck;
pub mod predict;
pub mod reuse;

pub use accuracy::{
    accuracy_against_sim, offload_accuracy, AccuracyReport, OffloadAccuracy, OffloadAccuracyReport,
};
pub use bottleneck::{classify, BottleneckClass, BottleneckCounters};
pub use predict::{analyze, CmeAnalysis, MissPrediction, RefKey};
pub use reuse::{ReuseInfo, ReuseKind};
