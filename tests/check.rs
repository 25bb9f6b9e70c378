//! Integration: the correctness layer (`ndc-check`) against the real
//! benchmarks — differential oracle sweeps, simulator invariants under
//! every scheme family, and the seeded fault-injection matrix.

use ndc::check::{
    check_engine_output, check_run, check_schedule, inject, sweep_workload, CheckLevel, ALL_FAULTS,
};
use ndc::prelude::*;
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
