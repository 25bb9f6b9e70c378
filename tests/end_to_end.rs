//! End-to-end integration: every benchmark builds, compiles under both
//! algorithms, preserves semantics, and simulates under every scheme.

use ndc::experiments::round_robin_tenants;
use ndc::prelude::*;
use ndc::sim::schemes::OracleGuide;
use ndc::sim::{CheckLevel, Engine, ObsLevel};
use ndc_ir::{lower, DataStore, Interpreter, LowerOptions};
use ndc_sim::engine::simulate;

fn cfg() -> ArchConfig {
    ArchConfig::paper_default()
}

#[test]
fn all_benchmarks_compile_and_simulate() {
    let cfg = cfg();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let traces = lower(&prog, &opts, None);
        assert!(traces.validate_precompute_links().is_ok());
        let base = simulate(cfg, &traces, Scheme::Baseline).result;
        assert!(base.total_cycles > 0, "{}: empty baseline", bench.name);

        for (label, sched) in [
            ("alg1", compile_algorithm1(&prog, &cfg, cores).0),
            (
                "alg2",
                compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default()).0,
            ),
        ] {
            assert!(
                sched.validate(&prog).is_ok(),
                "{}/{label}: invalid schedule",
                bench.name
            );
            let t = lower(&prog, &opts, Some(&sched));
            assert!(
                t.validate_precompute_links().is_ok(),
                "{}/{label}: broken precompute links",
                bench.name
            );
            let r = simulate(cfg, &t, Scheme::Compiled).result;
            assert!(r.total_cycles > 0);
            // Offloads can never exceed attempts; accounting must add
            // up.
            assert!(r.ndc_total() + r.ndc_aborts + r.ndc_local_hits <= r.ndc_attempts + 1);
        }
    }
}

#[test]
fn compiled_schedules_preserve_semantics_for_all_benchmarks() {
    let cfg = cfg();
    let cores = cfg.nodes();
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let (s1, _) = compile_algorithm1(&prog, &cfg, cores);
        let (s2, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
        let mut reference = DataStore::init(&prog);
        Interpreter::new(&prog).run(&mut reference);
        // No kernel in the suite is a halo stencil: any out-of-bounds
        // read means a subscript bug, not a boundary condition.
        assert_eq!(
            reference.oob_reads(),
            0,
            "{}: reference run read out of bounds",
            bench.name
        );
        for (label, sched) in [("alg1", &s1), ("alg2", &s2)] {
            let mut transformed = DataStore::init(&prog);
            Interpreter::new(&prog).run_scheduled(&mut transformed, sched);
            assert_eq!(
                reference, transformed,
                "{}/{label}: transformation changed results",
                bench.name
            );
            assert_eq!(
                transformed.oob_reads(),
                0,
                "{}/{label}: scheduled run read out of bounds",
                bench.name
            );
        }
    }
}

#[test]
fn every_scheme_runs_on_a_representative_benchmark() {
    let cfg = cfg();
    let prog = by_name("kdtree").unwrap().build(Scale::Test);
    let traces = lower(
        &prog,
        &LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        },
        None,
    );
    let base = simulate(cfg, &traces, Scheme::Baseline).result;
    for scheme in [
        Scheme::NdcAll {
            budget: WaitBudget::Forever,
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(5),
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        },
        Scheme::NdcAll {
            budget: WaitBudget::Fixed(25),
        },
        Scheme::NdcAll {
            budget: WaitBudget::LastWindow,
        },
        Scheme::Oracle { reuse_aware: true },
        Scheme::Oracle { reuse_aware: false },
    ] {
        let r = simulate(cfg, &traces, scheme).result;
        assert!(r.total_cycles > 0, "{}: no cycles", scheme.label());
        // NDC schemes must at least attempt offloads on kdtree (every
        // chain is eligible).
        if scheme.offloads_everything() {
            assert!(r.ndc_attempts > 0, "{}: no attempts", scheme.label());
        }
        let _ = &base;
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let cfg = cfg();
    let prog = by_name("md").unwrap().build(Scale::Test);
    let traces = lower(
        &prog,
        &LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        },
        None,
    );
    for scheme in [
        Scheme::Baseline,
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(25),
        },
        Scheme::Oracle { reuse_aware: true },
    ] {
        let a = simulate(cfg, &traces, scheme).result;
        let b = simulate(cfg, &traces, scheme).result;
        assert_eq!(
            a.total_cycles,
            b.total_cycles,
            "{}: nondeterministic",
            scheme.label()
        );
        assert_eq!(a.ndc_performed, b.ndc_performed);
        assert_eq!(a.l1.misses, b.l1.misses);
    }
}

/// A guide-less `Scheme::Oracle` engine runs the oracle's two passes
/// itself: its run equals the explicit split (instrumented baseline,
/// `OracleGuide::build`, `with_guide`) byte for byte, and the options
/// it carries observe the guided pass only.
#[test]
fn guideless_oracle_engine_plans_then_runs_guided() {
    let cfg = cfg();
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let tenants = round_robin_tenants(cfg.nodes(), 2);
    let observed = |e: Engine| {
        e.with_check(CheckLevel::full())
            .with_obs(ObsLevel::metrics())
            .with_tenants(tenants.clone())
            .run()
    };
    // Kernels on which both oracle variants offload at test scale.
    for name in ["md", "bwaves", "water"] {
        let traces = lower(&by_name(name).unwrap().build(Scale::Test), &opts, None);
        for reuse_aware in [true, false] {
            let scheme = Scheme::Oracle { reuse_aware };
            let plan = Engine::new(cfg, &traces, Scheme::Baseline)
                .with_instrumentation()
                .run();
            let records = &plan
                .instrumentation
                .as_ref()
                .expect("instrumented plan pass")
                .records;
            let guide = OracleGuide::build(records, &traces, cfg.l1.line_bytes, reuse_aware);

            let split = Engine::new(cfg, &traces, scheme).with_guide(&guide).run();
            assert!(
                split.result.ndc_total() > 0,
                "{name} {scheme:?}: the guided oracle must offload"
            );
            let own = Engine::new(cfg, &traces, scheme).run();
            assert_eq!(
                format!("{:?}", own.result),
                format!("{:?}", split.result),
                "{name} {scheme:?}: guide-less run differs from the split"
            );

            let split = observed(Engine::new(cfg, &traces, scheme).with_guide(&guide));
            let own = observed(Engine::new(cfg, &traces, scheme));
            assert_eq!(
                format!("{:?}", own.result),
                format!("{:?}", split.result),
                "{name} {scheme:?}: observed guide-less run differs"
            );
            assert!(split.check.is_some() && split.metrics.is_some() && split.ledger.is_some());
            assert!(own.check == split.check, "{name} {scheme:?}: CheckData");
            assert!(own.metrics == split.metrics, "{name} {scheme:?}: metrics");
            assert!(own.ledger == split.ledger, "{name} {scheme:?}: ledger");
            assert!(own.instrumentation.is_none());
        }
    }
}

#[test]
fn compilation_is_deterministic() {
    let cfg = cfg();
    let prog = by_name("swim").unwrap().build(Scale::Test);
    let (s1a, r1a) = compile_algorithm1(&prog, &cfg, cfg.nodes());
    let (s1b, r1b) = compile_algorithm1(&prog, &cfg, cfg.nodes());
    assert_eq!(s1a, s1b);
    assert_eq!(r1a, r1b);
}
