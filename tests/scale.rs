//! Mesh scale-up: the simulator satisfies every invariant and the
//! compiler's schedules pass the differential oracle at each mesh size
//! of the scaling study (5×5, 8×8, 12×12, 16×16).

use ndc::check::{check_engine_output, check_schedule, CheckLevel};
use ndc::prelude::*;
use ndc::sim::Engine;

const MESHES: [(u16, u16); 4] = [(5, 5), (8, 8), (12, 12), (16, 16)];

#[test]
fn engine_invariants_hold_at_every_mesh_size() {
    let bench = by_name("ocean").unwrap();
    for (w, h) in MESHES {
        let cfg = ArchConfig::with_mesh(w, h);
        let prog = bench.build(Scale::Test);
        let opts = LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        };
        let (sched, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());

        for (traces, scheme) in [
            (lower(&prog, &opts, None), Scheme::Baseline),
            (
                lower(&prog, &opts, None),
                Scheme::NdcAll {
                    budget: WaitBudget::LastWindow,
                },
            ),
            (lower(&prog, &opts, Some(&sched)), Scheme::Compiled),
        ] {
            let out = Engine::new(cfg, &traces, scheme)
                .with_check(CheckLevel::full())
                .run();
            let report = check_engine_output(&out);
            assert!(
                report.ok(),
                "{w}x{h} {scheme:?}: invariant violations: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn compiled_schedules_match_oracle_at_every_mesh_size() {
    let bench = by_name("cholesky").unwrap();
    for (w, h) in MESHES {
        let cfg = ArchConfig::with_mesh(w, h);
        let prog = bench.build(Scale::Test);
        let (sched, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        assert!(
            check_schedule(&prog, &sched).is_ok(),
            "{w}x{h}: compiled schedule diverges from the oracle"
        );
    }
}
