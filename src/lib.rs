//! # ndc — Compiler Support for Near Data Computing
//!
//! A from-scratch Rust reproduction of *"Compiler Support for Near Data
//! Computing"* (Kandemir, Ryoo, Tang, Karakoy — PPoPP '21): a
//! quantification of near-data-computing potential on a mesh manycore,
//! plus two compiler algorithms that restructure loop nests to create
//! and selectively exploit NDC opportunities in four hardware locations
//! (NoC link buffers, L2 cache controllers, memory controllers, DRAM
//! banks).
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`ndc_types`] | shared vocabulary: config (paper Table 1), ops, traces, stats buckets |
//! | [`ndc_noc`] | 2D-mesh NoC: XY routing, route signatures, contended links |
//! | [`ndc_mem`] | caches, sharer directory, banked DRAM controllers |
//! | [`ndc_sim`] | the manycore simulator + NDC hardware + execution schemes |
//! | [`ndc_ir`] | loop-nest IR: affine accesses, dependences, transforms, lowering |
//! | [`ndc_lint`] | static legality: IR verifier, bounds prover, `T·D` certificates, race detector |
//! | [`ndc_cme`] | Cache Miss Equations estimator (paper §5.2) |
//! | [`ndc_reuse`] | static reuse/footprint analysis: `Exact`/`Bound` line & byte counts |
//! | [`ndc_compiler`] | **the paper's contribution**: Algorithms 1 & 2 |
//! | [`ndc_workloads`] | the 20 paper benchmarks as synthetic IR kernels |
//! | [`ndc_check`] | differential oracle, simulator invariants, fault injection |
//!
//! This facade crate re-exports the public API and hosts the
//! [`experiments`] harness that regenerates every table and figure of
//! the paper's evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for measured-vs-paper results).
//!
//! ## Quickstart
//!
//! ```
//! use ndc::prelude::*;
//!
//! // Build a benchmark, compile it with Algorithm 2, and compare
//! // against conventional execution.
//! let cfg = ArchConfig::paper_default();
//! let bench = ndc::workloads::by_name("kdtree").unwrap();
//! let program = bench.build(Scale::Test);
//!
//! let opts = LowerOptions { cores: cfg.nodes(), emit_busy: true };
//! let baseline = simulate(cfg, &lower(&program, &opts, None), Scheme::Baseline);
//!
//! let (schedule, report) =
//!     compile_algorithm2(&program, &cfg, cfg.nodes(), Algorithm2Options::default());
//! let compiled = simulate(cfg, &lower(&program, &opts, Some(&schedule)), Scheme::Compiled);
//!
//! let improvement = compiled.result.improvement_over(&baseline.result);
//! println!("{}: {improvement:.1}% faster, {} chains offloaded", program.name, report.planned);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fuzz;
pub mod table;

/// Re-exports of the workspace crates under stable names.
pub use ndc_check as check;
pub use ndc_cme as cme;
pub use ndc_compiler as compiler;
pub use ndc_ir as ir;
pub use ndc_lint as lint;
pub use ndc_mem as mem;
pub use ndc_noc as noc;
pub use ndc_obs as obs;
pub use ndc_reuse as reuse;
pub use ndc_sim as sim;
pub use ndc_types as types;
pub use ndc_workloads as workloads;

/// The most common imports, in one place.
pub mod prelude {
    pub use ndc_compiler::{
        compile_algorithm1, compile_algorithm2, compile_coarse, Algorithm2Options, CompilerReport,
    };
    pub use ndc_ir::{lower, LowerOptions, Program, Schedule};
    pub use ndc_sim::engine::simulate;
    pub use ndc_sim::schemes::{Scheme, WaitBudget};
    pub use ndc_sim::SimResult;
    pub use ndc_types::{ArchConfig, NdcConfig, NdcLocation, Op, OpClass};
    pub use ndc_workloads::{all_benchmarks, by_name, Benchmark, Scale};
}
