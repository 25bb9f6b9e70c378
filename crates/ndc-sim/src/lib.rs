//! The NDC manycore simulator.
//!
//! A trace-driven, contention-aware model of the paper's machine
//! (Figure 1 / Table 1): per-node cores with L1s, a static-NUCA L2, a
//! 2D-mesh NoC, corner memory controllers with banked DRAM — plus the
//! NDC hardware: LD/ST offload tables, per-component service tables and
//! time-out registers, NDC compute packages, and the control register
//! selecting which components may compute near data.
//!
//! Module map:
//!
//! * [`machine`] — the memory system walk: an access's full
//!   L1 → NoC → L2 → NoC → MC → DRAM path with per-location presence
//!   timestamps ([`machine::AccessPath`]);
//! * [`ndc`] — NDC package resolution: given a package's operand paths
//!   (two for a pair, more for a fused chain), where (and when) can the
//!   computation be performed near data;
//! * [`instrument`] — arrival-window, breakeven-point, and per-PC
//!   series collection (Figures 2, 3, 5);
//! * [`schemes`] — the execution schemes of Figure 4 (Default NDC,
//!   Wait(x%), Last-Wait predictor, Oracle, compiled);
//! * [`engine`] — the multicore execution loop (2-issue cores,
//!   MSHR-bounded memory-level parallelism, offload tables);
//! * [`stats`] — per-run results: cycles, cache stats, NDC breakdown;
//! * [`report`] — per-component [`ndc_obs::Metrics`] assembly for the
//!   observability layer (`--metrics` / `--trace`).

#![forbid(unsafe_code)]

pub mod engine;
pub mod instrument;
pub mod machine;
pub mod ndc;
pub mod queue;
pub mod report;
pub mod schemes;
pub mod stats;

pub use engine::{simulate, CheckData, Engine, EngineOutput};
pub use instrument::{BreakevenInfo, Instrumentation, WindowObservation};
pub use machine::{AccessPath, CheckRecorder, Machine, SpanRecorder, SPAN_SEED};
pub use ndc::{NdcOutcome, ALL_ABORT_REASONS};
pub use report::{build_metrics, ledger_metrics};
pub use schemes::{Scheme, WaitBudget};
pub use stats::SimResult;

pub use ndc_obs::span::{decompose, render_tree, Span, SpanTrace};
pub use ndc_obs::{CheckLevel, ObsLevel};
