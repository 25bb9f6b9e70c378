//! Allocation budgets of the simulator hot path, of checked runs, of
//! the compiler and of lowering.
//!
//! A counting global allocator shows that:
//! - simulating a kernel makes at most one heap allocation per
//!   simulated instruction under the instrumented baseline, Default
//!   NDC, and Algorithm 2's compiled schedule;
//! - a fully checked and observed run, invariant check included,
//!   allocates about once per simulated instruction and requests a
//!   bounded number of bytes per instruction, because check records are
//!   16-byte typed values and span labels are not heap strings;
//! - compiling a kernel with Algorithm 1 or 2 at paper size allocates
//!   about what it does at test size, because the cost model draws its
//!   24 sample points directly instead of walking the iteration space;
//! - lowering allocates far less than once per lowered instruction,
//!   and requests few bytes more per instruction than its 24-byte
//!   packed record, because each trace is reserved once from a bound on
//!   its length and an untransformed nest's points are walked in place;
//! - lowering allocates a few times per trace and per nest, not per
//!   thread of each nest, because its scratch is shared by every nest
//!   and thread of a call.
//!
//! The allocator also sums the bytes requested: each allocation's size,
//! and the new size of each reallocation that grows a block.
//!
//! Both sums are deterministic functions of the inputs, so unlike a
//! wall-clock bound they guard these paths without flaking on a loaded
//! host.

use ndc::check::{check_engine_output, CheckLevel};
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::types::TraceProgram;
use ndc_sim::engine::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made by the current
/// thread, and the bytes they request. The test harness runs tests on
/// parallel threads, so one process-wide counter would mix their
/// counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one request for `bytes` more bytes.
fn count_one(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each inherits `System`'s guarantees; the counter it bumps first is
// a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing reallocation requests its whole new size (it may
        // move the block); a shrinking one requests nothing.
        count_one(if new_size > layout.size() {
            new_size
        } else {
            0
        });
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

/// Allocations made by `f` on this thread, and its result.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (allocs, _, result) = requests(f);
    (allocs, result)
}

/// Allocations made by `f` on this thread, the bytes they requested,
/// and its result.
fn requests<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (allocs - before.0, bytes - before.1, result)
}

/// Allocations per simulated instruction of one run.
fn allocs_per_inst(run: impl FnOnce() -> SimResult) -> f64 {
    let (allocs, result) = allocs(run);
    assert!(result.issued_insts > 0);
    allocs as f64 / result.issued_insts as f64
}

/// At most this many allocations per simulated instruction. With the
/// engine's access paths refilled in place these kernels measure
/// 0.05–0.21. Allocating one link buffer per access that reaches L2
/// reads 0.3–1.7 (ocean highest), and building route and record
/// vectors per message reads 1.7–24.
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
/// invariant check. Check records are 16-byte typed values and span
/// labels are static names or link ids, so these kernels read
/// 0.40–1.03; what remains is mostly the sampled span trees' child
/// lists. `String` span labels with 56-byte string-tagged events read
/// 1.6–4.4, and one `String` per check event read 9.8–22.1.
const CHECKED_BUDGET: f64 = 1.4;

/// At most this many bytes requested per simulated instruction by the
/// same checked runs. Most of it is the check stream, grown by
/// doubling; these kernels read 839–1966, and 56-byte string-tagged
/// events with `String` span labels read 1500–3178.
const CHECKED_BYTES_BUDGET: f64 = 2500.0;

#[test]
fn checked_runs_allocate_a_bounded_amount_per_instruction() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    // Allocations and bytes requested per simulated instruction.
    let checked = |traces: &TraceProgram, scheme: Scheme| {
        let (allocs, bytes, result) = requests(|| {
            let out = Engine::new(cfg, traces, scheme)
                .with_check(CheckLevel::full())
                .with_obs(ObsLevel::metrics())
                .run();
            let report = check_engine_output(&out);
            assert!(report.ok(), "{:?}", report.violations);
            out.result
        });
        let insts = result.issued_insts as f64;
        assert!(insts > 0.0);
        (allocs as f64 / insts, bytes as f64 / insts)
    };
    for name in ["swim", "kdtree", "ocean", "barnes"] {
        let prog = by_name(name).expect("known kernel").build(Scale::Test);
        let base = lower(&prog, &opts, None);
        let (sched, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
        let compiled = lower(&prog, &opts, Some(&sched));
        let runs = [
            ("baseline", checked(&base, Scheme::Baseline)),
            ("compiled Alg 2", checked(&compiled, Scheme::Compiled)),
        ];
        for (label, (per_inst, bytes_per_inst)) in runs {
            assert!(
                per_inst <= CHECKED_BUDGET,
                "{name}/{label}: {per_inst:.3} allocations per simulated instruction \
                 in a checked run (budget {CHECKED_BUDGET})"
            );
            assert!(
                bytes_per_inst <= CHECKED_BYTES_BUDGET,
                "{name}/{label}: {bytes_per_inst:.1} bytes requested per simulated \
                 instruction in a checked run (budget {CHECKED_BYTES_BUDGET})"
            );
        }
    }
}

/// Compiling at `Scale::Paper` may allocate at most this many times what
/// compiling the same kernel at `Scale::Test` does. The cost model's 24
/// samples cost O(depth) each, so these kernels read 0.91–1.0. Reaching
/// the samples by walking the iteration space, one `Vec` per point,
/// read 7× (kdtree) to 40× (bwaves).
const COMPILE_SCALE_RATIO: f64 = 1.5;

#[test]
fn compiling_at_paper_size_allocates_about_what_test_size_does() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    for name in ["bwaves", "applu", "kdtree"] {
        let bench = by_name(name).expect("known kernel");
        let count = |scale: Scale| {
            let prog = bench.build(scale);
            let (alg1, _) = allocs(|| compile_algorithm1(&prog, &cfg, cores));
            let (alg2, _) =
                allocs(|| compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default()));
            [alg1, alg2]
        };
        let (test, paper) = (count(Scale::Test), count(Scale::Paper));
        for (label, t, p) in [
            ("Algorithm 1", test[0], paper[0]),
            ("Algorithm 2", test[1], paper[1]),
        ] {
            let ratio = p as f64 / t as f64;
            assert!(
                ratio <= COMPILE_SCALE_RATIO,
                "{name}/{label}: {p} allocations at paper size vs {t} at test size \
                 ({ratio:.2}×, budget {COMPILE_SCALE_RATIO}×)"
            );
        }
    }
}

/// At most this many allocations per lowered instruction at paper
/// size. Walking each thread's box in place, these kernels read
/// 0.0003–0.0008; what remains is per nest and per trace (the
/// reservations, and the link validation of debug builds). A flat
/// buffer of every point, grouped by thread, read 0.001–0.006, and one
/// `Vec` per point, sorted and bucketed per thread, read 0.11–0.34.
const LOWER_BUDGET: f64 = 0.02;

/// At most this many bytes requested per lowered instruction at paper
/// size. A packed record is 24 bytes and each trace is reserved once,
/// so these kernels read 24.1 in release builds and 26.0–27.6 in debug
/// builds, whose link validation adds a hash set sized to the trace's
/// ids; the rest is the bound's slack. 40-byte records with a point
/// list of the whole nest read 42–44 and 46–50, and 72-byte `Inst`s in
/// buffers grown by doubling 204–229.
const LOWER_BYTES_BUDGET: f64 = 35.0;

#[test]
fn lowering_allocates_far_less_than_once_per_instruction() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    for name in ["swim", "kdtree", "ocean"] {
        let prog = by_name(name).expect("known kernel").build(Scale::Paper);
        let (sched, _) = compile_algorithm1(&prog, &cfg, cores);
        let (allocs, bytes, traces) = requests(|| lower(&prog, &opts, Some(&sched)));
        let insts = traces.total_insts() as f64;
        let per_inst = allocs as f64 / insts;
        assert!(
            per_inst <= LOWER_BUDGET,
            "{name}: {per_inst:.4} allocations per lowered instruction (budget {LOWER_BUDGET})"
        );
        let bytes_per_inst = bytes as f64 / insts;
        assert!(
            bytes_per_inst <= LOWER_BYTES_BUDGET,
            "{name}: {bytes_per_inst:.1} bytes requested per lowered instruction \
             (budget {LOWER_BYTES_BUDGET})"
        );
    }
}

/// At most this many allocations per trace, plus
/// [`LOWER_NEST_ALLOCS`] per nest, for one test-scale lowering. Per
/// trace a lowering reserves the records and the fused packets' side
/// table and shrinks both to fit, and a debug build's link validation
/// sizes one hash set: these kernels read 1 (baselines) to 5 (fused
/// Algorithm 2, debug) per added trace.
const LOWER_TRACE_ALLOCS: u64 = 6;

/// At most this many allocations per nest, beside the per-trace ones:
/// each reference's affine form, a transformed nest's point list, and
/// the growth of the scratch every nest and thread reuse. Over the 20
/// kernels the allocations left after 5 per trace read at most 25.0 per
/// nest (md, fused Algorithm 2, debug; 16.7 in release): a form
/// allocates only its coefficients. Allocating the rings once per
/// (nest, thread) adds 3 per nest for every busy thread, 75 per nest at
/// 25 cores.
const LOWER_NEST_ALLOCS: u64 = 25;

#[test]
fn lowering_allocates_per_trace_and_per_nest_not_per_thread() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let fused = Algorithm2Options {
        fuse: true,
        ..Default::default()
    };
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let budget =
            LOWER_TRACE_ALLOCS * cores as u64 + LOWER_NEST_ALLOCS * prog.nests.len() as u64;
        for (label, sched) in [
            ("baseline", None),
            ("alg1", Some(compile_algorithm1(&prog, &cfg, cores).0)),
            (
                "alg2",
                Some(compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default()).0),
            ),
            (
                "alg2 fused",
                Some(compile_algorithm2(&prog, &cfg, cores, fused).0),
            ),
        ] {
            let (allocs, _) = allocs(|| lower(&prog, &opts, sched.as_ref()));
            assert!(
                allocs <= budget,
                "{}/{label}: {allocs} allocations lowering {} nests onto {cores} traces \
                 (budget {budget})",
                bench.name,
                prog.nests.len()
            );
        }
    }
}
