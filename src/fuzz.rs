//! Seeded end-to-end fuzzing: generated IR through every layer.
//!
//! One seed drives one [`ndc_workloads::gen`] program through the full
//! stack — static legality (verifier + bounds prover), the reuse
//! analysis cross-checked against interpreter-measured footprints,
//! both compiler algorithms, schedule lint certification, the
//! differential oracle,
//! structured lowering, the checked simulator (`CheckLevel::full()`),
//! and finally the DAMOV-style bottleneck classifier. Any divergence,
//! invariant violation, or panic is reported *with the seed that
//! reproduces it*, so a red fuzz run is a one-command repro:
//! `ndc-eval fuzz --count 1 --seed <seed>`.
//!
//! The pipeline is deterministic: outcomes depend only on the seed and
//! the architecture config, and batches fan out with
//! [`ndc_par::parallel_map`] in input order, so reports are
//! byte-identical under any `NDC_THREADS`.

use crate::check as chk;
use crate::prelude::*;
use crate::sim::{CheckLevel, Engine};
use crate::table::{Cell, Table};
use ndc_cme::{classify, BottleneckClass, BottleneckCounters};
use ndc_ir::try_lower;
use ndc_workloads::gen::{generate, GenClass};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything one seed produced, pass or fail.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The reproducing seed (pass it back via `--seed`, `--count 1`).
    pub seed: u64,
    /// Access-pattern class the generator drew.
    pub class: GenClass,
    /// Bottleneck label from the checked simulation (`None` when the
    /// pipeline failed before simulating).
    pub bottleneck: Option<BottleneckClass>,
    /// Loop nests in the generated program.
    pub nests: usize,
    /// Total iteration points across nests (0 for all-zero-trip).
    pub points: u64,
    /// Chains planned by Algorithm 1 / Algorithm 2.
    pub alg1_planned: u64,
    pub alg2_planned: u64,
    /// Lint-certified transforms the oracle executed and diffed.
    pub oracle_legal: usize,
    /// Producer-consumer chains fused by the fusion stage (with the
    /// fusion-enabled Algorithm 2 compile).
    pub fused_chains: u64,
    /// Simulated cycles of the checked run (0 on earlier failure).
    pub sim_cycles: u64,
    /// Every divergence / violation / panic, already seed-stamped.
    pub failures: Vec<String>,
}

impl FuzzOutcome {
    /// Did every stage hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Copy the classifier's counters out of a simulation result.
pub fn counters_of(cfg: &ArchConfig, r: &SimResult) -> BottleneckCounters {
    BottleneckCounters {
        cores: cfg.nodes() as u32,
        total_cycles: r.total_cycles,
        issued_insts: r.issued_insts,
        mshr_stall_cycles: r.mshr_stall_cycles,
        offload_stall_cycles: r.offload_stall_cycles,
        noc_queueing_cycles: r.noc_queueing_cycles,
        noc_messages: r.noc_messages,
        l1_misses: r.l1.misses,
        l2_misses: r.l2.misses,
    }
}

/// Run one seed through the whole pipeline. Never panics: every stage
/// runs under `catch_unwind`, and a panic becomes a seed-stamped
/// failure line instead of tearing down the batch.
pub fn fuzz_one(seed: u64, cfg: &ArchConfig) -> FuzzOutcome {
    let gen = generate(seed);
    let prog = &gen.program;
    let mut out = FuzzOutcome {
        seed,
        class: gen.class,
        bottleneck: None,
        nests: prog.nests.len(),
        points: prog.nests.iter().map(|n| n.points()).sum(),
        alg1_planned: 0,
        alg2_planned: 0,
        oracle_legal: 0,
        fused_chains: 0,
        sim_cycles: 0,
        failures: Vec::new(),
    };
    let fail = |failures: &mut Vec<String>, stage: &str, msg: String| {
        failures.push(format!("seed {seed:#018x} [{stage}]: {msg}"));
    };

    // Stage 1: static legality of the generated program itself. The
    // generator promises valid IR; hold it to that promise.
    let errors = ndc_lint::verify_program(prog);
    for e in &errors {
        fail(&mut out.failures, "verify", e.to_string());
    }
    for rb in ndc_lint::prove_program(prog) {
        if !rb.in_bounds {
            fail(
                &mut out.failures,
                "bounds",
                format!("reference not provably in bounds: {rb:?}"),
            );
        }
    }
    if !out.failures.is_empty() {
        return out; // invalid IR would only cascade noise downstream
    }

    // Stage 1b: reuse analysis. Every generated program must analyze
    // without panicking, and every fact the analysis emits must honor
    // its own soundness contract against the interpreter: measured
    // footprints equal `Exact`-tagged counts, never exceed `Bound`s.
    match catch_unwind(AssertUnwindSafe(|| {
        chk::cross_check_workload(prog, cfg.l1.line_bytes, cfg.l2.line_bytes)
    })) {
        Ok(sum) => {
            for v in &sum.violations {
                fail(&mut out.failures, "reuse", v.clone());
            }
        }
        Err(p) => fail(&mut out.failures, "reuse", panic_text(p)),
    }

    // Stage 1c: the layout pass must preserve static legality — a
    // re-based program stays verifiable, provably in bounds, and its
    // arrays stay pairwise disjoint (shifts that cannot fit are
    // refused, never applied half-way).
    match catch_unwind(AssertUnwindSafe(|| {
        ndc_compiler::optimize_layout(prog, cfg)
    })) {
        Ok((rebased, _)) => {
            for e in ndc_lint::verify_program(&rebased) {
                fail(&mut out.failures, "layout", format!("rebased program: {e}"));
            }
            for rb in ndc_lint::prove_program(&rebased) {
                if !rb.in_bounds {
                    fail(
                        &mut out.failures,
                        "layout",
                        format!("rebased reference not provably in bounds: {rb:?}"),
                    );
                }
            }
            let mut ranges: Vec<(u64, u64)> = rebased
                .arrays
                .iter()
                .map(|a| (a.base, a.base.saturating_add(a.size_bytes())))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                if w[0].1 > w[1].0 {
                    fail(
                        &mut out.failures,
                        "layout",
                        format!("arrays overlap after layout pass: {ranges:?}"),
                    );
                    break;
                }
            }
        }
        Err(p) => fail(&mut out.failures, "layout", panic_text(p)),
    }

    // Stage 2: both compiler algorithms, each schedule re-certified by
    // the independent lint layer and re-executed by the oracle.
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        let (s1, r1) = compile_algorithm1(prog, cfg, cfg.nodes());
        let (s2, r2) = compile_algorithm2(prog, cfg, cfg.nodes(), Algorithm2Options::default());
        (s1, r1, s2, r2)
    }));
    let (sched1, rep1, sched2, rep2) = match compiled {
        Ok(v) => v,
        Err(p) => {
            fail(&mut out.failures, "compile", panic_text(p));
            return out;
        }
    };
    out.alg1_planned = rep1.planned;
    out.alg2_planned = rep2.planned;
    for (alg, sched) in [("alg1", &sched1), ("alg2", &sched2)] {
        let lint = ndc_lint::lint_schedule(prog, sched);
        if !lint.accepted() {
            for e in &lint.errors {
                fail(&mut out.failures, alg, format!("lint rejected: {e}"));
            }
        }
        if lint.unproven_bounds() > 0 {
            fail(
                &mut out.failures,
                alg,
                format!(
                    "{} references not provably in bounds",
                    lint.unproven_bounds()
                ),
            );
        }
        if let Err(d) = chk::check_schedule(prog, sched) {
            fail(&mut out.failures, alg, format!("oracle diverged: {d}"));
        }
    }

    // Stage 3: transform sweep — every lint-certified candidate
    // transform executes and diffs against the reference order.
    let sweep = match catch_unwind(AssertUnwindSafe(|| chk::sweep_workload(prog, 1))) {
        Ok(s) => s,
        Err(p) => {
            fail(&mut out.failures, "sweep", panic_text(p));
            return out;
        }
    };
    out.oracle_legal = sweep.legal_checked;
    if sweep.oob_reads > 0 {
        fail(
            &mut out.failures,
            "sweep",
            format!("{} out-of-bounds reads", sweep.oob_reads),
        );
    }
    for f in &sweep.failures {
        fail(
            &mut out.failures,
            "sweep",
            format!(
                "nest {} transform {:?}: {}",
                f.nest, f.transform, f.divergence
            ),
        );
    }

    // Stage 4: structured lowering of the Algorithm-2 schedule, then
    // the checked simulator with every invariant armed.
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let traces = match try_lower(prog, &opts, Some(&sched2)) {
        Ok(t) => t,
        Err(e) => {
            fail(&mut out.failures, "lower", e.to_string());
            return out;
        }
    };
    let simulated = catch_unwind(AssertUnwindSafe(|| {
        Engine::new(
            *cfg,
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::PctOfCap(50),
            },
        )
        .with_check(CheckLevel::full())
        .run()
    }));
    let engine_out = match simulated {
        Ok(o) => o,
        Err(p) => {
            fail(&mut out.failures, "simulate", panic_text(p));
            return out;
        }
    };
    let report = chk::check_engine_output(&engine_out);
    for v in &report.violations {
        fail(&mut out.failures, "invariant", v.to_string());
    }

    // Stage 5: bottleneck taxonomy over the measured counters.
    out.sim_cycles = engine_out.result.total_cycles;
    out.bottleneck = Some(classify(&counters_of(cfg, &engine_out.result)));

    // Stage 6: fusion. Re-compile Algorithm 2 with operator fusion on,
    // then hold the fused schedule to every bar the unfused one passed:
    // lint (which independently re-verifies each fusion certificate),
    // the differential oracle, structured lowering, and the checked
    // simulator executing multi-op precompute packets.
    let fused = catch_unwind(AssertUnwindSafe(|| {
        compile_algorithm2(
            prog,
            cfg,
            cfg.nodes(),
            Algorithm2Options {
                fuse: true,
                ..Default::default()
            },
        )
    }));
    let (fsched, frep) = match fused {
        Ok(v) => v,
        Err(p) => {
            fail(&mut out.failures, "fuse", panic_text(p));
            return out;
        }
    };
    out.fused_chains = frep.fused_chains;
    let lint = ndc_lint::lint_schedule(prog, &fsched);
    if !lint.accepted() {
        for e in &lint.errors {
            fail(&mut out.failures, "fuse", format!("lint rejected: {e}"));
        }
    }
    if lint.fusion_certificates.len() as u64 != frep.fused_chains {
        fail(
            &mut out.failures,
            "fuse",
            format!(
                "{} fused chains but {} certificates",
                frep.fused_chains,
                lint.fusion_certificates.len()
            ),
        );
    }
    if let Err(d) = chk::check_schedule(prog, &fsched) {
        fail(&mut out.failures, "fuse", format!("oracle diverged: {d}"));
    }
    let ftraces = match try_lower(prog, &opts, Some(&fsched)) {
        Ok(t) => t,
        Err(e) => {
            fail(&mut out.failures, "fuse", e.to_string());
            return out;
        }
    };
    let fsim = catch_unwind(AssertUnwindSafe(|| {
        Engine::new(*cfg, &ftraces, Scheme::Compiled)
            .with_check(CheckLevel::full())
            .run()
    }));
    match fsim {
        Ok(o) => {
            for v in &chk::check_engine_output(&o).violations {
                fail(&mut out.failures, "fuse", v.to_string());
            }
        }
        Err(p) => fail(&mut out.failures, "fuse", panic_text(p)),
    }
    out
}

/// Fuzz `count` seeds starting at `base_seed` (seed `base + i`, so any
/// failure reproduces from a single u64). Deterministic input-order
/// results for any `NDC_THREADS`.
pub fn fuzz_batch(base_seed: u64, count: usize, cfg: &ArchConfig) -> Vec<FuzzOutcome> {
    let seeds: Vec<u64> = (0..count as u64)
        .map(|i| base_seed.wrapping_add(i))
        .collect();
    ndc_par::parallel_map(&seeds, |s| fuzz_one(*s, cfg))
}

/// Corpus coverage: outcome counts per (class, bottleneck) cell plus
/// per-class aggregates, ready for table printing.
#[derive(Debug, Clone, Default)]
pub struct CorpusTable {
    /// `cells[class_idx][bottleneck_idx]` — counts only simulated runs.
    pub cells: [[usize; 3]; 5],
    /// Programs per class (including ones that failed early).
    pub per_class: [usize; 5],
    pub total: usize,
    pub failed: usize,
}

impl CorpusTable {
    pub fn build(outcomes: &[FuzzOutcome]) -> CorpusTable {
        let mut t = CorpusTable::default();
        for o in outcomes {
            let ci = GenClass::ALL
                .iter()
                .position(|c| *c == o.class)
                .expect("class is from ALL");
            t.per_class[ci] += 1;
            t.total += 1;
            if !o.passed() {
                t.failed += 1;
            }
            if let Some(b) = o.bottleneck {
                let bi = BottleneckClass::ALL
                    .iter()
                    .position(|c| *c == b)
                    .expect("bottleneck is from ALL");
                t.cells[ci][bi] += 1;
            }
        }
        t
    }
}

/// The corpus as the table `ndc-eval fuzz` prints and writes: per
/// access-pattern class, the programs, their bottleneck cells, the
/// failed seeds and the planned chains and oracle-verified transforms,
/// with a total row. Each failing seed is a note with the command that
/// reproduces it.
pub fn corpus_table(outcomes: &[FuzzOutcome], base_seed: u64) -> Table {
    let title = format!(
        "Fuzz: {} seeded programs from base seed {base_seed:#x}, access-pattern class x bottleneck",
        outcomes.len()
    );
    let mut t = Table::new("fuzz_corpus", title, "class").columns(
        &[
            "programs",
            "compute",
            "dram-bw",
            "noc",
            "failed",
            "alg1-planned",
            "alg2-planned",
            "oracle-verified",
        ],
        0,
    );
    let corpus = CorpusTable::build(outcomes);
    for (ci, class) in GenClass::ALL.iter().enumerate() {
        let of_class = || outcomes.iter().filter(|o| o.class == *class);
        let failed = of_class().filter(|o| !o.passed()).count();
        let planned1: u64 = of_class().map(|o| o.alg1_planned).sum();
        let planned2: u64 = of_class().map(|o| o.alg2_planned).sum();
        let verified: usize = of_class().map(|o| o.oracle_legal).sum();
        let mut cells = vec![corpus.per_class[ci].into()];
        cells.extend(corpus.cells[ci].map(Cell::from));
        cells.extend([
            failed.into(),
            planned1.into(),
            planned2.into(),
            verified.into(),
        ]);
        t.row(class.label(), cells);
    }
    t.total();
    for o in outcomes.iter().filter(|o| !o.passed()) {
        t.notes.push(format!(
            "FAIL seed {:#018x} (reproduce: ndc-eval fuzz --count 1 --seed {:#x}): {}",
            o.seed,
            o.seed,
            o.failures.join("; ")
        ));
    }
    t
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_batch_runs_clean() {
        let cfg = ArchConfig::paper_default();
        let outcomes = fuzz_batch(0xF00D, 8, &cfg);
        assert_eq!(outcomes.len(), 8);
        for o in &outcomes {
            assert!(o.passed(), "seed {:#018x} failed: {:?}", o.seed, o.failures);
            assert!(
                o.bottleneck.is_some(),
                "seed {:#018x} never simulated",
                o.seed
            );
        }
    }

    #[test]
    fn outcomes_are_deterministic() {
        let cfg = ArchConfig::paper_default();
        let a = fuzz_batch(42, 4, &cfg);
        let b = fuzz_batch(42, 4, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn corpus_table_counts_every_outcome() {
        let cfg = ArchConfig::paper_default();
        let outcomes = fuzz_batch(7, 12, &cfg);
        let t = CorpusTable::build(&outcomes);
        assert_eq!(t.total, 12);
        assert_eq!(t.per_class.iter().sum::<usize>(), 12);
        let simulated: usize = t.cells.iter().flatten().sum();
        assert_eq!(
            simulated,
            outcomes.iter().filter(|o| o.bottleneck.is_some()).count()
        );
    }
}
