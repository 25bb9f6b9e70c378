//! Operator fusion as a regression gate: every fused schedule the
//! compiler emits must survive the full verification stack — schedule
//! validation, lint with independently re-verified fusion certificates,
//! the differential oracle, and the checked simulator — across all 20
//! paper workloads and the seeded fuzz corpus. A hand-forged illegal
//! fusion must be rejected by both the certifier and `lint_schedule`.

use ndc::check::{check_engine_output, check_schedule, CheckLevel};
use ndc::compiler::outcome;
use ndc::ir::program::{ArrayDecl, ArrayRef, LoopNest, NestId, Program, Ref, Stmt, StmtId};
use ndc::ir::schedule::FusedPrecomputePlan;
use ndc::ir::try_lower;
use ndc::lint::{certify_fusion, lint_schedule, verify_fusion_certificate, FusionError};
use ndc::prelude::*;
use ndc::sim::Engine;
use ndc::workloads::gen::generate_batch;

/// Same base seed as `ndc-eval fuzz`'s default and `scripts/verify.sh`.
const BASE_SEED: u64 = 7;
const CORPUS: usize = 256;

fn fuse_opts() -> Algorithm2Options {
    Algorithm2Options {
        fuse: true,
        ..Default::default()
    }
}

/// Differential-oracle sweep with fusion enabled: every workload's
/// fused schedule validates, lints clean with one independently
/// re-verified certificate per fused chain, and computes bit-identical
/// results to the unscheduled reference program.
#[test]
fn fused_schedules_pass_oracle_and_certificates_on_every_workload() {
    let cfg = ArchConfig::paper_default();
    let mut fused_workloads = 0;
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let (sched, rep) = compile_algorithm2(&prog, &cfg, cfg.nodes(), fuse_opts());
        sched
            .validate(&prog)
            .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", bench.name));
        assert_eq!(sched.fused.len() as u64, rep.fused_chains, "{}", bench.name);
        assert_eq!(
            sched
                .fused
                .iter()
                .map(|p| p.stmts.len() as u64)
                .sum::<u64>(),
            rep.fused_ops,
            "{}",
            bench.name
        );
        if rep.fused_chains > 0 {
            fused_workloads += 1;
        }

        let lint = lint_schedule(&prog, &sched);
        assert!(lint.accepted(), "{}: {:?}", bench.name, lint.errors);
        assert_eq!(
            lint.fusion_certificates.len() as u64,
            rep.fused_chains,
            "{}: lint must certify exactly the fused chains",
            bench.name
        );
        for cert in &lint.fusion_certificates {
            let nest = prog
                .nests
                .iter()
                .find(|n| n.id == cert.nest)
                .unwrap_or_else(|| panic!("{}: certificate for unknown nest", bench.name));
            verify_fusion_certificate(nest, cert)
                .unwrap_or_else(|e| panic!("{}: re-verification failed: {e}", bench.name));
        }

        if let Err(d) = check_schedule(&prog, &sched) {
            panic!("{}: oracle diverged under fusion: {d}", bench.name);
        }
    }
    assert!(
        fused_workloads > 0,
        "no workload fused at test scale — the sweep exercises nothing"
    );
}

/// Provenance consistency (the ChainProvenance contract): every member
/// of a fused packet is marked `fused`, shares the packet's group id
/// and adopted location, and records a union footprint that beat the
/// unfused bytes estimate — otherwise the packet should not exist.
#[test]
fn fused_members_agree_on_group_target_and_bytes_benefit() {
    let cfg = ArchConfig::paper_default();
    let mut checked_members = 0;
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let (sched, rep) = compile_algorithm2(&prog, &cfg, cfg.nodes(), fuse_opts());
        for plan in &sched.fused {
            let nest_pos = prog
                .nests
                .iter()
                .position(|n| n.id == plan.nest)
                .unwrap_or_else(|| panic!("{}: fused plan for unknown nest", bench.name));
            let nest = &prog.nests[nest_pos];
            let mut group = None;
            for id in &plan.stmts {
                let stmt_pos = nest.stmt_pos(*id).expect("validated by the compiler");
                let pr = rep
                    .provenance
                    .iter()
                    .find(|c| c.nest == nest_pos && c.stmt == stmt_pos)
                    .unwrap_or_else(|| {
                        panic!("{}: fused member {id:?} has no provenance", bench.name)
                    });
                assert_eq!(pr.outcome, outcome::FUSED, "{}", bench.name);
                assert_eq!(
                    pr.final_target,
                    Some(plan.target),
                    "{}: member disagrees with its packet's adopted location",
                    bench.name
                );
                let g = pr.chain_group.expect("fused members carry a group id");
                assert_eq!(*group.get_or_insert(g), g, "{}", bench.name);
                let fused_bytes = pr.fused_predicted_bytes.expect("recorded on every member");
                let unfused_bytes = pr.fused_unfused_bytes.expect("recorded on every member");
                assert!(
                    fused_bytes < unfused_bytes,
                    "{}: packet adopted without a bytes benefit ({fused_bytes} >= \
                     {unfused_bytes})",
                    bench.name
                );
                checked_members += 1;
            }
        }
        // Group ids are packet-unique: no two plans share one.
        let mut groups: Vec<u32> = rep
            .provenance
            .iter()
            .filter_map(|c| c.chain_group)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len(), sched.fused.len(), "{}", bench.name);
    }
    assert!(checked_members > 0, "no fused members to check");
}

/// Fused packets run end-to-end: lower the fused schedule, simulate it
/// under the full invariant checker, and require that the NDC hardware
/// actually performed offloads.
#[test]
fn fused_packets_simulate_under_full_checks() {
    let cfg = ArchConfig::paper_default();
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let mut fused_any = false;
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let (sched, rep) = compile_algorithm2(&prog, &cfg, cfg.nodes(), fuse_opts());
        if rep.fused_chains == 0 {
            continue;
        }
        fused_any = true;
        let traces = try_lower(&prog, &opts, Some(&sched))
            .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", bench.name));
        let out = Engine::new(cfg, &traces, Scheme::Compiled)
            .with_check(CheckLevel::full())
            .run();
        let report = check_engine_output(&out);
        assert!(report.ok(), "{}: {:?}", bench.name, report.violations);
        assert!(
            out.result.ndc_performed.iter().sum::<u64>() > 0,
            "{}: fused schedule performed no NDC computations",
            bench.name
        );
    }
    assert!(fused_any, "no workload fused at test scale");
}

/// `scripts/verify.sh` gates every row of `results/fusion.json`;
/// re-deriving the measured columns of md and swim, the workloads
/// whose schedules fuse chains at this scale, lets `cargo test` catch a
/// change to how fused packets simulate. Each schedule is measured the
/// way `ndc-eval fuse` measures it: Algorithm 2 with fusion off and on,
/// lowered with `Busy` runs, simulated under `Scheme::Compiled`.
#[test]
fn committed_fusion_counters_match_a_fresh_run() {
    use ndc::types::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fusion.json");
    let text = std::fs::read_to_string(path).expect("committed results/fusion.json");
    let committed = Json::parse(&text).expect("results/fusion.json parses");
    assert_eq!(committed.get("scale").and_then(Json::as_str), Some("Test"));
    let rows = committed.get("rows").expect("results/fusion.json has rows");
    let cfg = ArchConfig::paper_default();
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    for name in ["md", "swim"] {
        let row = rows
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from results/fusion.json"));
        let committed = |column: &str| {
            row.get(column)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name}: results/fusion.json has no {column}"))
        };
        let prog = by_name(name).expect("a paper workload").build(Scale::Test);
        for (suffix, fuse) in [("unf", false), ("fus", true)] {
            let opts_fuse = Algorithm2Options {
                fuse,
                ..Default::default()
            };
            let (sched, rep) = compile_algorithm2(&prog, &cfg, cfg.nodes(), opts_fuse);
            if fuse {
                assert_eq!(rep.fused_chains, committed("chains"), "{name}");
            }
            let run = simulate(cfg, &lower(&prog, &opts, Some(&sched)), Scheme::Compiled).result;
            let measured = [
                ("offcyc", run.ndc_offload_cycles.iter().sum::<u64>()),
                ("noc", run.noc_messages),
            ];
            for (column, value) in measured {
                let column = format!("{column}-{suffix}");
                assert_eq!(
                    value,
                    committed(&column),
                    "{name}: {column} moved; regenerate with `ndc-eval fuse --scale test`"
                );
            }
        }
    }
}

/// The 256-seed corpus with fusion enabled: every generated program
/// compiles with `fuse: true` into a schedule that validates, lints
/// clean with a certificate per fused chain, and passes the
/// differential oracle. (The checked-simulation leg of the same corpus
/// runs inside `fuzz_batch`'s fusion stage — see `tests/fuzz.rs`.)
#[test]
fn fused_compilation_is_clean_over_the_seed_corpus() {
    let cfg = ArchConfig::paper_default();
    for g in generate_batch(BASE_SEED, CORPUS) {
        let (sched, rep) = compile_algorithm2(&g.program, &cfg, cfg.nodes(), fuse_opts());
        sched
            .validate(&g.program)
            .unwrap_or_else(|e| panic!("seed {:#018x}: invalid schedule: {e}", g.seed));
        let lint = lint_schedule(&g.program, &sched);
        assert!(lint.accepted(), "seed {:#018x}: {:?}", g.seed, lint.errors);
        assert_eq!(
            lint.fusion_certificates.len() as u64,
            rep.fused_chains,
            "seed {:#018x}",
            g.seed
        );
        if let Err(d) = check_schedule(&g.program, &sched) {
            panic!("seed {:#018x}: oracle diverged under fusion: {d}", g.seed);
        }
    }
}

/// s0: Z = X + Y; s1: X = Y + Y (clobbers the gathered operand);
/// s2: W = Z + X. Fusing (s0, s2) across s1 would let the head's
/// gather snapshot a stale X.
fn intervening_dependence_prog() -> Program {
    let mut p = Program::new("illegal-fusion");
    let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
    let y = p.add_array(ArrayDecl::new("Y", vec![16], 8));
    let z = p.add_array(ArrayDecl::new("Z", vec![16], 8));
    let w = p.add_array(ArrayDecl::new("W", vec![16], 8));
    let s0 = Stmt::binary(
        0,
        ArrayRef::identity(z, 1, vec![0]),
        Op::Add,
        Ref::Array(ArrayRef::identity(x, 1, vec![0])),
        Ref::Array(ArrayRef::identity(y, 1, vec![0])),
        1,
    );
    let s1 = Stmt::binary(
        1,
        ArrayRef::identity(x, 1, vec![0]),
        Op::Add,
        Ref::Array(ArrayRef::identity(y, 1, vec![0])),
        Ref::Array(ArrayRef::identity(y, 1, vec![0])),
        1,
    );
    let s2 = Stmt::binary(
        2,
        ArrayRef::identity(w, 1, vec![0]),
        Op::Add,
        Ref::Array(ArrayRef::identity(z, 1, vec![0])),
        Ref::Array(ArrayRef::identity(x, 1, vec![0])),
        1,
    );
    p.nests
        .push(LoopNest::new(0, vec![0], vec![16], vec![s0, s1, s2]));
    p.assign_layout(0, 64);
    p
}

/// A deliberately illegal fusion is refused twice over: the certifier
/// names the intervening dependence, and a schedule that smuggles the
/// chain in anyway is rejected by `lint_schedule`. The compiler itself
/// never emits it.
#[test]
fn illegal_fusion_is_rejected_by_certifier_and_lint() {
    let p = intervening_dependence_prog();
    let err = certify_fusion(&p.nests[0], &[StmtId(0), StmtId(2)]).unwrap_err();
    assert!(
        matches!(&err, FusionError::InterveningDependence { through, .. }
            if *through == StmtId(1)),
        "{err}"
    );

    // Forge the plan anyway: lint must refuse the schedule.
    let mut sched = Schedule::default();
    sched.fused.push(FusedPrecomputePlan {
        nest: NestId(0),
        stmts: vec![StmtId(0), StmtId(2)],
        lookahead: 4,
        stagger: 0,
        reshape_routes: false,
        target: NdcLocation::CacheController,
    });
    let lint = lint_schedule(&p, &sched);
    assert!(!lint.accepted(), "lint accepted an illegal fusion");
    assert!(lint.fusion_certificates.is_empty());
    assert!(
        lint.errors
            .iter()
            .any(|e| format!("{e}").contains("illegal fusion")),
        "{:?}",
        lint.errors
    );

    // The compiler declines the same chain on its own.
    let cfg = ArchConfig::paper_default();
    let (compiled, rep) = compile_algorithm2(&p, &cfg, cfg.nodes(), fuse_opts());
    assert!(compiled.fused.is_empty(), "compiler fused an illegal chain");
    assert_eq!(rep.fused_chains, 0);
    assert!(lint_schedule(&p, &compiled).accepted());
}
