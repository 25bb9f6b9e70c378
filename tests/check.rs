//! Integration: the correctness layer (`ndc-check`) against the real
//! benchmarks — differential oracle sweeps, simulator invariants under
//! every scheme family, and the seeded fault-injection matrix.

use ndc::check::{
    check_engine_output, check_run, check_schedule, inject, sweep_workload, CheckLevel, ALL_FAULTS,
};
use ndc::prelude::*;
use ndc::sim::{render_tree, EngineOutput};
use ndc_ir::{DataStore, Interpreter};
use ndc_sim::engine::{simulate as simulate_plain, Engine};

fn cfg() -> ArchConfig {
    ArchConfig::paper_default()
}

fn traces_for(bench: &Benchmark, cfg: &ArchConfig) -> ndc_types::TraceProgram {
    let prog = bench.build_timesteps(Scale::Test, 1);
    lower(
        &prog,
        &LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        },
        None,
    )
}

#[test]
fn oracle_sweep_passes_for_every_workload() {
    for bench in all_benchmarks() {
        let prog = bench.build_timesteps(Scale::Test, 1);
        let summary = sweep_workload(&prog, 1);
        assert!(
            summary.passed(),
            "{}: legal transform diverged: {:?}",
            bench.name,
            summary.failures
        );
        // Each nest admits 11 depth-2 (or more at depth 3) non-identity
        // candidates; every one must be either verified or rejected.
        assert!(
            summary.legal_checked + summary.illegal_skipped >= summary.nests.min(1),
            "{}: sweep checked nothing",
            bench.name
        );
    }
}

#[test]
fn compiled_schedules_pass_the_elementwise_oracle() {
    let cfg = cfg();
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let (s1, _) = compile_algorithm1(&prog, &cfg, cfg.nodes());
        let (s2, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        for (label, sched) in [("alg1", &s1), ("alg2", &s2)] {
            if let Err(d) = check_schedule(&prog, sched) {
                panic!("{}/{label}: first divergence {d}", bench.name);
            }
        }
    }
}

#[test]
fn invariants_hold_under_every_scheme_family() {
    let cfg = cfg();
    let traces = traces_for(&by_name("kdtree").unwrap(), &cfg);
    for scheme in [
        Scheme::Baseline,
        Scheme::NdcAll {
            budget: WaitBudget::Forever,
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        },
        Scheme::NdcAll {
            budget: WaitBudget::LastWindow,
        },
        Scheme::Oracle { reuse_aware: true },
    ] {
        let out = Engine::new(cfg, &traces, scheme)
            .with_check(CheckLevel::full())
            .run();
        let report = check_engine_output(&out);
        assert!(
            report.ok(),
            "{}: invariant violations {:?}",
            scheme.label(),
            report.violations
        );
        assert!(report.requests > 0, "{}: empty stream", scheme.label());
    }
}

#[test]
fn check_level_off_collects_nothing_and_matches_checked_timing() {
    let cfg = cfg();
    let traces = traces_for(&by_name("ocean").unwrap(), &cfg);
    let scheme = Scheme::NdcAll {
        budget: WaitBudget::PctOfCap(25),
    };
    let plain = simulate_plain(cfg, &traces, scheme);
    let checked = Engine::new(cfg, &traces, scheme)
        .with_check(CheckLevel::full())
        .run();
    assert!(plain.check.is_none(), "plain runs must not record");
    assert!(checked.check.is_some());
    assert_eq!(plain.result.total_cycles, checked.result.total_cycles);
    assert_eq!(plain.result.ndc_performed, checked.result.ndc_performed);
    assert_eq!(plain.result.l1.misses, checked.result.l1.misses);
}

#[test]
fn fault_matrix_trips_every_invariant_on_a_real_run() {
    let cfg = cfg();
    let traces = traces_for(&by_name("kdtree").unwrap(), &cfg);
    let out = Engine::new(
        cfg,
        &traces,
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        },
    )
    .with_check(CheckLevel::full())
    .run();
    let clean_result = out.result;
    let clean_data = out.check.expect("checked run records CheckData");
    assert!(clean_result.ndc_attempts > 0, "need NDC traffic");
    for (k, fault) in ALL_FAULTS.iter().enumerate() {
        let mut data = clean_data.clone();
        let mut result = clean_result.clone();
        assert!(
            inject(&mut data, &mut result, *fault, 0xBAD5EED + k as u64),
            "{}: no injection site",
            fault.label()
        );
        let report = check_run(&data, &result);
        assert!(
            report.violated(fault.expected_invariant()),
            "{}: {} did not fire: {:?}",
            fault.label(),
            fault.expected_invariant().label(),
            report.violations
        );
    }
}

#[test]
fn reference_runs_have_no_out_of_bounds_reads() {
    // None of the 20 kernels read outside their declared extents: the
    // interpreter's silent zero-fill must stay unexercised (satellite
    // guard for the halo-read bug class).
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let mut store = DataStore::init(&prog);
        Interpreter::new(&prog).run(&mut store);
        assert_eq!(
            store.oob_reads(),
            0,
            "{}: reference run touched out-of-bounds indices",
            bench.name
        );
    }
}

/// FNV-1a, folded over `bytes` into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The content of a checked run's two recorded streams: the number of
/// check events and a hash of each as (name, ts, request-or-link id),
/// in stream order; the number of sampled span trees and a hash of
/// each tree as `render_tree` prints it.
fn stream_digest(out: &EngineOutput) -> (usize, u64, usize, u64) {
    let data = out.check.as_ref().expect("checked run records CheckData");
    let mut events = 0xcbf2_9ce4_8422_2325;
    for ev in &data.events {
        fnv1a(&mut events, ev.kind.name().as_bytes());
        fnv1a(&mut events, &[0]);
        fnv1a(&mut events, &ev.ts.to_le_bytes());
        fnv1a(&mut events, &ev.id.to_le_bytes());
    }
    let mut spans = 0xcbf2_9ce4_8422_2325;
    for t in &out.spans {
        fnv1a(&mut spans, render_tree(t).as_bytes());
    }
    (data.events.len(), events, out.spans.len(), spans)
}

/// What a checked run records is pinned, not only its counts: the check
/// stream and every sampled span tree hash to the values the
/// `String`-labelled, 56-byte-event recorders produced, for two kernels
/// under NdcAll w50% (as `ndc-eval check` runs them) and for
/// Algorithm 2's compiled schedule, whose offloads are packets.
#[test]
fn checked_runs_record_the_pinned_streams() {
    let cfg = cfg();
    let checked = |traces: &ndc_types::TraceProgram, scheme: Scheme| {
        Engine::new(cfg, traces, scheme)
            .with_check(CheckLevel::full())
            .run()
    };
    let w50 = Scheme::NdcAll {
        budget: WaitBudget::PctOfCap(50),
    };
    let kdtree = by_name("kdtree").unwrap();
    let prog = kdtree.build_timesteps(Scale::Test, 1);
    let (sched, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let compiled = lower(&prog, &opts, Some(&sched));
    let runs = [
        (
            "kdtree NdcAll w50%",
            checked(&traces_for(&kdtree, &cfg), w50),
            (146_020, 0x4e8e_f648_f25a_a60a, 1070, 0x8c34_0d3d_b078_665a),
        ),
        (
            "swim NdcAll w50%",
            checked(&traces_for(&by_name("swim").unwrap(), &cfg), w50),
            (226_761, 0xf20e_111e_e64c_addb, 2834, 0x38f2_414f_aa9a_124e),
        ),
        (
            "kdtree Algorithm 2",
            checked(&compiled, Scheme::Compiled),
            (144_750, 0x39ef_74c2_343d_3038, 1036, 0x030f_0a99_a28c_c9a4),
        ),
    ];
    for (label, out, want) in runs {
        assert_eq!(stream_digest(&out), want, "{label}");
    }
}
