//! Allocation budget of the simulator hot path and of checked runs.
//!
//! A counting global allocator shows that simulating a kernel makes at
//! most one heap allocation per simulated instruction under the
//! instrumented baseline, Default NDC, and Algorithm 2's compiled
//! schedule, and that a fully checked and observed run, invariant
//! check included, stays within a small constant per instruction. The
//! count is a deterministic function of the inputs, so unlike a
//! wall-clock bound it guards the hot path without flaking on a loaded
//! host.

use ndc::check::{check_engine_output, CheckLevel};
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::types::TraceProgram;
use ndc_sim::engine::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made by the current
/// thread. The test harness runs tests on parallel threads, so one
/// process-wide counter would mix their counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each inherits `System`'s guarantees; the counter it bumps first is
// a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per simulated instruction of one run.
fn allocs_per_inst(run: impl FnOnce() -> SimResult) -> f64 {
    let before = ALLOCS.with(Cell::get);
    let result = run();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(result.issued_insts > 0);
    allocs as f64 / result.issued_insts as f64
}

/// At most this many allocations per simulated instruction. With path
/// buffers recycled these kernels measure 0.07–0.24. Allocating one
/// link buffer per access that reaches L2 reads 0.3–1.7 (ocean
/// highest), and building route and record vectors per message reads
/// 1.7–24.
const BUDGET: f64 = 0.5;

#[test]
fn simulation_allocates_at_most_once_per_instruction() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let default_ndc = Scheme::NdcAll {
        budget: WaitBudget::Forever,
    };
    for name in ["swim", "kdtree", "ocean", "barnes"] {
        let prog = by_name(name).expect("known kernel").build(Scale::Test);
        let base = lower(&prog, &opts, None);
        let (sched, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
        let compiled = lower(&prog, &opts, Some(&sched));

        let runs = [
            (
                "instrumented baseline",
                allocs_per_inst(|| {
                    Engine::new(cfg, &base, Scheme::Baseline)
                        .with_instrumentation()
                        .run()
                        .result
                }),
            ),
            (
                "Default",
                allocs_per_inst(|| Engine::new(cfg, &base, default_ndc).run().result),
            ),
            (
                "compiled Alg 2",
                allocs_per_inst(|| Engine::new(cfg, &compiled, Scheme::Compiled).run().result),
            ),
        ];
        for (label, per_inst) in runs {
            assert!(
                per_inst <= BUDGET,
                "{name}/{label}: {per_inst:.3} allocations per simulated instruction \
                 (budget {BUDGET})"
            );
        }
    }
}

/// At most this many allocations per simulated instruction for a run
/// under `CheckLevel::full()` + `ObsLevel::metrics()` followed by its
/// invariant check. Check events carry static names and the checker
/// keeps per-id tables, so these kernels read 1.6–4.4; what remains is
/// mostly the sampled span trees. One `String` per check event read
/// 9.8–22.1.
const CHECKED_BUDGET: f64 = 6.0;

#[test]
fn checked_runs_allocate_a_bounded_amount_per_instruction() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let checked = |traces: &TraceProgram, scheme: Scheme| {
        let out = Engine::new(cfg, traces, scheme)
            .with_check(CheckLevel::full())
            .with_obs(ObsLevel::metrics())
            .run();
        let report = check_engine_output(&out);
        assert!(report.ok(), "{:?}", report.violations);
        out.result
    };
    for name in ["swim", "kdtree", "ocean", "barnes"] {
        let prog = by_name(name).expect("known kernel").build(Scale::Test);
        let base = lower(&prog, &opts, None);
        let (sched, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
        let compiled = lower(&prog, &opts, Some(&sched));
        let runs = [
            (
                "baseline",
                allocs_per_inst(|| checked(&base, Scheme::Baseline)),
            ),
            (
                "compiled Alg 2",
                allocs_per_inst(|| checked(&compiled, Scheme::Compiled)),
            ),
        ];
        for (label, per_inst) in runs {
            assert!(
                per_inst <= CHECKED_BUDGET,
                "{name}/{label}: {per_inst:.3} allocations per simulated instruction \
                 in a checked run (budget {CHECKED_BUDGET})"
            );
        }
    }
}
