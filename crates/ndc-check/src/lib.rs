//! Correctness layer for the NDC stack: a differential oracle over the
//! IR interpreter, conservation-law invariants over the simulator's
//! check-event stream, and a seeded fault-injection harness proving the
//! invariants actually fire.
//!
//! The paper's claims rest on two trust anchors this crate hardens:
//!
//! * **Semantic equivalence** of Algorithm 1/2 schedules. A single
//!   `f64` checksum can collide under compensating element-wise errors
//!   (see `oracle::tests::illegal_interchange_caught_despite_checksum_collision`),
//!   so [`oracle`] diffs array contents element-wise and reports the
//!   first divergent array/index, sweeping every workload × every
//!   candidate transform through `Interpreter::run` vs `run_scheduled`.
//! * **Simulator bookkeeping**. [`invariant`] asserts, over the
//!   [`ndc_sim::CheckData`] stream a `CheckLevel::full()` run records:
//!   every issued request retires exactly once; per-link flit
//!   occupancy is matched and drains to zero; timestamps are monotonic
//!   along each request path; `ndc_performed + per-reason aborts ==
//!   ndc_attempts`; and DRAM row-buffer outcomes account for every
//!   request.
//! * **The checker itself** is tested by [`fault`]: `SplitMix64`-seeded
//!   injections (dropped flit, delayed DRAM response, stale
//!   offload-table window, corrupted reshape tally) each trip exactly
//!   the invariant that guards against them. Schedule-level injections
//!   (illegal transform, swapped dependent statements, corrupted
//!   permutation, non-unimodular transform) likewise each draw exactly
//!   the `ndc-lint` error that guards against them, closing the loop
//!   between the static checker and the runtime oracle.
//! * **The static cost model's inputs**. [`reuse_check`] holds
//!   `ndc-reuse`'s soundness contract — interpreter-measured distinct
//!   line/byte footprints equal every `Exact`-tagged count and never
//!   exceed a `Bound`-tagged one — and proves the check fires via a
//!   seeded corrupted-reuse-vector fault.
//!
//! Zero-dependency like the rest of the workspace; everything here is
//! deterministic (seeded PRNG, no clocks).

#![forbid(unsafe_code)]

pub mod fault;
pub mod invariant;
pub mod oracle;
pub mod reuse_check;

pub use fault::{
    inject, inject_ledger, inject_schedule, Fault, LedgerFault, ScheduleFault, ALL_FAULTS,
    ALL_LEDGER_FAULTS, ALL_SCHEDULE_FAULTS,
};
pub use invariant::{
    check_counters, check_engine_output, check_ledger, check_run, check_spans, CheckReport,
    Invariant, Violation,
};
pub use oracle::{
    check_schedule, first_divergence, sweep_workload, sweep_workload_with, Divergence,
    OracleSummary, SweepFailure, SweepOptions,
};
pub use reuse_check::{
    cross_check_workload, inject_reuse, CORRUPTED_REUSE_VECTOR, REUSE_SOUNDNESS,
};

pub use ndc_obs::CheckLevel;
