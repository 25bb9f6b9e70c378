//! The three workloads: how each builds its inputs, and what one job does.
//!
//! * `eval-sweep` — one job is one benchmark evaluation exactly as
//!   `ndc::experiments::evaluate_benchmark` performs it (instrumented
//!   baseline + CME accuracy, the seven Figure 4 schemes, Algorithms 1
//!   and 2 compiled, lowered and simulated), with the oracle split into
//!   its plan pass and guided pass so both are timed.
//! * `compile` — one job runs CME, reuse analysis, and Algorithm 1,
//!   Algorithm 2 and fused Algorithm 2 each through `lint_schedule` and
//!   `lower`. Nothing is simulated.
//! * `checked` — one job runs the baseline and Algorithm 2 with every
//!   recorder on (`CheckLevel::full()`, `ObsLevel::metrics()`), each run
//!   followed by `check_engine_output`, plus the differential oracle on
//!   the compiled schedule.

use crate::digest;
use crate::trace::JobTrace;
use ndc::check::{self as chk, CheckLevel, Fault};
use ndc::cme::{accuracy_against_sim, offload_accuracy};
use ndc::compiler::{compile_algorithm1, compile_algorithm2, Algorithm2Options, CompilerReport};
use ndc::experiments::{figure4_schemes, predicted_offload_means, BenchmarkEvaluation};
use ndc::ir::{lower, pc_of, LowerOptions, Program, Schedule, ROLE_MAIN};
use ndc::lint::lint_schedule;
use ndc::obs::ObsLevel;
use ndc::sim::engine::{Engine, EngineOutput};
use ndc::sim::schemes::OracleGuide;
use ndc::sim::{Scheme, SimResult};
use ndc::types::{ArchConfig, SplitMix64, TraceProgram};
use ndc::workloads::{all_benchmarks, gen, Scale};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalSweep,
    Compile,
    Checked,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::EvalSweep, Workload::Compile, Workload::Checked];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalSweep => "eval-sweep",
            Workload::Compile => "compile",
            Workload::Checked => "checked",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Kernel scale and the number of seeded generated programs added
    /// to the 20 kernels. `compile` uses paper sizes so that input size
    /// varies; the generated shapes vary the IR features used. Generated
    /// programs are far smaller than any kernel, so fewer of them than
    /// kernels keeps the median job a kernel on every seed.
    fn corpus(self) -> (Scale, usize) {
        match self {
            Workload::EvalSweep => (Scale::Test, 0),
            Workload::Compile => (Scale::Paper, 8),
            Workload::Checked => (Scale::Test, 8),
        }
    }
}

/// Everything a workload's jobs read: built before the timed loop.
pub struct Inputs {
    pub workload: Workload,
    pub programs: Vec<Program>,
    /// Baseline lowering of each program; empty for `compile`, which
    /// never simulates.
    pub baselines: Vec<TraceProgram>,
    /// Instructions in the baseline lowerings.
    pub baseline_insts: u64,
}

/// Exact work counts, keyed by their metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Simulated improvement over the job's baseline run, in percent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gains {
    pub alg1: Option<f64>,
    pub alg2: Option<f64>,
    pub oracle: Option<f64>,
}

/// What one job produced.
#[derive(Debug, Default)]
pub struct JobOut {
    /// Digest of every run and count below; a repeat of the job must
    /// reproduce it exactly.
    pub digest: u64,
    /// Per-run digests, labelled, in execution order.
    pub runs: Vec<(String, u64)>,
    pub counts: Counts,
    pub gains: Gains,
    /// Offload cost-model error cells (percent), Algorithm 2 only.
    pub model_err: Vec<f64>,
    pub failures: Vec<String>,
    /// Host seconds of the checked+observed runs and of plain runs of
    /// the same traces and schemes (`checked` verification only).
    pub obs_cost: Option<(f64, f64)>,
}

fn lower_opts(cfg: &ArchConfig) -> LowerOptions {
    LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    }
}

/// Build the workload's programs and lower their baseline traces.
pub fn set_up(w: Workload, seed: u64, cfg: &ArchConfig, tr: &mut JobTrace) -> Inputs {
    let (scale, generated) = w.corpus();
    let programs = tr.span("ndc-workloads.build", || {
        let mut p: Vec<Program> = all_benchmarks().iter().map(|b| b.build(scale)).collect();
        // Decorrelate neighbouring seeds: batch i starts at a mixed
        // value, so seeds 1 and 2 share no generated program.
        let base = SplitMix64::new(seed).next_u64();
        p.extend(
            gen::generate_batch(base, generated)
                .into_iter()
                .map(|g| g.program),
        );
        p
    });
    // Every workload lowers its baselines here, so `setup_s` means the
    // same on all three; `compile` keeps only their size, since paper
    // scale traces of all kernels would not fit in memory at once.
    let keep = w != Workload::Compile;
    let opts = lower_opts(cfg);
    let mut baseline_insts = 0;
    let baselines = tr.span("ndc-ir.setup_lower", || {
        programs
            .iter()
            .filter_map(|p| {
                let t = lower(p, &opts, None);
                baseline_insts += t.total_insts();
                keep.then_some(t)
            })
            .collect()
    });
    Inputs {
        workload: w,
        programs,
        baselines,
        baseline_insts,
    }
}

/// Run job `i`. `verify` adds the checks that run once per job before
/// the timed loop (lint and the oracle where the job itself has none,
/// plain re-runs for `checked`). `fault` seeds a fault injected into
/// the job's checked Algorithm 2 run.
pub fn run_job(
    inp: &Inputs,
    i: usize,
    cfg: &ArchConfig,
    verify: bool,
    fault: Option<u64>,
    tr: &mut JobTrace,
) -> JobOut {
    let mut out = JobOut::default();
    let prog = &inp.programs[i];
    match inp.workload {
        Workload::EvalSweep => eval_job(prog, &inp.baselines[i], cfg, verify, tr, &mut out),
        Workload::Compile => compile_job(prog, cfg, verify, tr, &mut out),
        Workload::Checked => checked_job(prog, &inp.baselines[i], cfg, verify, fault, tr, &mut out),
    }
    out.digest = digest::combine(
        out.runs
            .iter()
            .map(|r| r.1)
            .chain(out.counts.values().copied()),
    );
    out
}

fn add(c: &mut Counts, key: &'static str, v: u64) {
    *c.entry(key).or_default() += v;
}

/// Digest a simulated run and add its counters.
fn record_sim(out: &mut JobOut, label: &str, r: &SimResult) {
    out.runs.push((label.to_string(), digest::sim_result(r)));
    let c = &mut out.counts;
    add(c, "ndc-sim.runs", 1);
    add(c, "ndc-sim.cycles", r.total_cycles);
    add(c, "ndc-sim.insts", r.issued_insts);
    add(c, "ndc-noc.messages", r.noc_messages);
    add(c, "ndc-noc.flit_hops", r.noc_flit_hops);
    add(c, "ndc-noc.queueing_cycles", r.noc_queueing_cycles);
    add(c, "ndc-mem.l1_misses", r.l1.misses);
    add(c, "ndc-mem.l2_misses", r.l2.misses);
    add(c, "ndc-mem.mshr_stall_cycles", r.mshr_stall_cycles);
}

fn record_compile(out: &mut JobOut, label: &str, r: &CompilerReport) {
    out.runs
        .push((format!("{label}:compile"), digest::compiler_report(r)));
    let c = &mut out.counts;
    add(c, "ndc-compiler.chains_seen", r.opportunities);
    add(c, "ndc-compiler.chains_planned", r.planned);
    add(c, "ndc-compiler.fused_chains", r.fused_chains);
    add(c, "ndc-compiler.transforms", r.transforms_applied);
}

/// Lint a schedule; every error is a failure. Returns the number of
/// legality and fusion certificates lint verified.
fn lint(prog: &Program, label: &str, sched: &Schedule, tr: &mut JobTrace, out: &mut JobOut) -> u64 {
    let report = tr.span("ndc-lint.lint", || lint_schedule(prog, sched));
    for e in &report.errors {
        out.failures.push(format!("{label}: lint: {e}"));
    }
    (report.certificates.len() + report.fusion_certificates.len()) as u64
}

/// The differential oracle: the scheduled program must leave every
/// array bit-identical to the original order.
fn oracle(prog: &Program, label: &str, sched: &Schedule, tr: &mut JobTrace, out: &mut JobOut) {
    if let Err(d) = tr.span("ndc-check.oracle", || chk::check_schedule(prog, sched)) {
        out.failures.push(format!("{label}: oracle diverged: {d}"));
    }
}

/// Lower a compiled schedule and simulate it, as `evaluate_benchmark`
/// does for each algorithm.
fn compiled_run(
    prog: &Program,
    sched: &Schedule,
    cfg: &ArchConfig,
    tr: &mut JobTrace,
    out: &mut JobOut,
) -> SimResult {
    let traces = tr.span("ndc-ir.lower", || {
        lower(prog, &lower_opts(cfg), Some(sched))
    });
    add(&mut out.counts, "ndc-ir.trace_insts", traces.total_insts());
    tr.span("ndc-sim.compiled", || {
        Engine::new(*cfg, &traces, Scheme::Compiled).run().result
    })
}

fn eval_job(
    prog: &Program,
    traces: &TraceProgram,
    cfg: &ArchConfig,
    verify: bool,
    tr: &mut JobTrace,
    out: &mut JobOut,
) {
    let cores = cfg.nodes();
    let base = tr.span("ndc-sim.baseline", || {
        Engine::new(*cfg, traces, Scheme::Baseline)
            .with_instrumentation()
            .run()
            .result
    });
    let acc = tr.span("ndc-cme.analyze", || {
        let cme = ndc::cme::analyze(prog, cfg, cores);
        let pair = |m: &ndc::sim::stats::PcCacheCounters| {
            m.iter().map(|(k, v)| (*k, (v.hits, v.misses))).collect()
        };
        accuracy_against_sim(&cme, &pair(&base.pc_l1), &pair(&base.pc_l2), |k| {
            pc_of(k.nest_pos, k.stmt_pos, ROLE_MAIN)
        })
    });
    record_sim(out, "baseline", &base);
    out.runs.push(("cme".to_string(), digest::accuracy(&acc)));

    for scheme in figure4_schemes() {
        let r = match scheme {
            Scheme::Oracle { reuse_aware } => {
                let guide = tr.span("ndc-sim.oracle_plan", || {
                    let plan = Engine::new(*cfg, traces, Scheme::Baseline)
                        .with_instrumentation()
                        .run();
                    let records = &plan
                        .instrumentation
                        .as_ref()
                        .expect("instrumented plan pass")
                        .records;
                    OracleGuide::build(records, traces, cfg.l1.line_bytes, reuse_aware)
                });
                let r = tr.span("ndc-sim.oracle_guided", || {
                    Engine::new(*cfg, traces, scheme)
                        .with_guide(&guide)
                        .run()
                        .result
                });
                out.gains.oracle = Some(r.improvement_over(&base));
                r
            }
            _ => tr.span("ndc-sim.schemes", || {
                Engine::new(*cfg, traces, scheme).run().result
            }),
        };
        record_sim(out, &scheme.label(), &r);
    }

    let (s1, r1) = tr.span("ndc-compiler.alg1", || compile_algorithm1(prog, cfg, cores));
    record_compile(out, "alg1", &r1);
    let a1 = compiled_run(prog, &s1, cfg, tr, out);
    record_sim(out, "alg1", &a1);
    let (s2, r2) = tr.span("ndc-compiler.alg2", || {
        compile_algorithm2(prog, cfg, cores, Algorithm2Options::default())
    });
    record_compile(out, "alg2", &r2);
    let a2 = compiled_run(prog, &s2, cfg, tr, out);
    record_sim(out, "alg2", &a2);

    out.gains.alg1 = Some(a1.improvement_over(&base));
    out.gains.alg2 = Some(a2.improvement_over(&base));
    let offload = offload_accuracy(
        predicted_offload_means(&r2),
        a2.ndc_offload_cycles,
        a2.ndc_offload_samples,
    );
    out.model_err = offload
        .per_location
        .iter()
        .filter_map(|a| a.error_pct())
        .collect();
    if verify {
        for (label, sched) in [("alg1", &s1), ("alg2", &s2)] {
            lint(prog, label, sched, tr, out);
            oracle(prog, label, sched, tr, out);
        }
    }
}

/// The run digests `evaluate_benchmark` yields for one kernel, labelled
/// and ordered as `eval_job` records them: the faithfulness reference.
pub fn reference_runs(e: &BenchmarkEvaluation) -> Vec<(String, u64)> {
    let mut runs = vec![
        ("baseline".to_string(), digest::sim_result(&e.baseline)),
        ("cme".to_string(), digest::accuracy(&e.cme_accuracy)),
    ];
    for (scheme, r) in figure4_schemes().iter().zip(&e.scheme_results) {
        runs.push((scheme.label(), digest::sim_result(r)));
    }
    for (label, (r, report)) in [("alg1", &e.alg1), ("alg2", &e.alg2)] {
        runs.push((format!("{label}:compile"), digest::compiler_report(report)));
        runs.push((label.to_string(), digest::sim_result(r)));
    }
    runs
}

fn compile_job(
    prog: &Program,
    cfg: &ArchConfig,
    verify: bool,
    tr: &mut JobTrace,
    out: &mut JobOut,
) {
    let cores = cfg.nodes();
    let cme = tr.span("ndc-cme.analyze", || ndc::cme::analyze(prog, cfg, cores));
    add(
        &mut out.counts,
        "ndc-cme.predictions",
        cme.predictions.len() as u64,
    );
    let reuse = tr.span("ndc-reuse.analyze", || {
        ndc::reuse::analyze_program(prog, cfg.l1.line_bytes, cfg.l2.line_bytes)
    });
    add(&mut out.counts, "ndc-reuse.refs", reuse.total_refs() as u64);
    add(
        &mut out.counts,
        "ndc-reuse.exact_refs",
        reuse.exact_refs() as u64,
    );

    // `None` is Algorithm 1; `Some(fuse)` is Algorithm 2.
    for (span, label, alg2_fuse) in [
        ("ndc-compiler.alg1", "alg1", None),
        ("ndc-compiler.alg2", "alg2", Some(false)),
        ("ndc-compiler.alg2_fused", "alg2_fused", Some(true)),
    ] {
        let (sched, report) = tr.span(span, || match alg2_fuse {
            None => compile_algorithm1(prog, cfg, cores),
            Some(fuse) => compile_algorithm2(
                prog,
                cfg,
                cores,
                Algorithm2Options {
                    fuse,
                    ..Default::default()
                },
            ),
        });
        record_compile(out, label, &report);
        let certs = lint(prog, label, &sched, tr, out);
        add(&mut out.counts, "ndc-lint.certificates", certs);
        let traces = tr.span("ndc-ir.lower", || {
            lower(prog, &lower_opts(cfg), Some(&sched))
        });
        let insts = traces.total_insts();
        add(&mut out.counts, "ndc-ir.trace_insts", insts);
        out.runs.push((
            format!("{label}:lower"),
            digest::combine(traces.traces.iter().map(|t| t.insts.len() as u64)),
        ));
        if verify {
            oracle(prog, label, &sched, tr, out);
        }
    }
}

fn checked_job(
    prog: &Program,
    traces: &TraceProgram,
    cfg: &ArchConfig,
    verify: bool,
    fault: Option<u64>,
    tr: &mut JobTrace,
    out: &mut JobOut,
) {
    let observed = |t: &TraceProgram, s: Scheme| {
        Engine::new(*cfg, t, s)
            .with_check(CheckLevel::full())
            .with_obs(ObsLevel::metrics())
            .run()
    };
    let t0 = Instant::now();
    let base = tr.span("ndc-sim.baseline", || observed(traces, Scheme::Baseline));
    let mut checked_s = t0.elapsed().as_secs_f64();
    check_run(out, "baseline", &base, tr);

    let (sched, report) = tr.span("ndc-compiler.alg2", || {
        compile_algorithm2(prog, cfg, cfg.nodes(), Algorithm2Options::default())
    });
    record_compile(out, "alg2", &report);
    let certs = lint(prog, "alg2", &sched, tr, out);
    add(&mut out.counts, "ndc-lint.certificates", certs);
    oracle(prog, "alg2", &sched, tr, out);
    let compiled = tr.span("ndc-ir.lower", || {
        lower(prog, &lower_opts(cfg), Some(&sched))
    });
    add(
        &mut out.counts,
        "ndc-ir.trace_insts",
        compiled.total_insts(),
    );
    let t0 = Instant::now();
    let mut a2 = tr.span("ndc-sim.compiled", || observed(&compiled, Scheme::Compiled));
    checked_s += t0.elapsed().as_secs_f64();
    if let (Some(seed), Some(data)) = (fault, a2.check.as_mut()) {
        chk::inject(data, &mut a2.result, Fault::DroppedFlit, seed);
    }
    check_run(out, "alg2", &a2, tr);
    out.gains.alg2 = Some(a2.result.improvement_over(&base.result));

    if verify {
        // Observation must not change the simulation, and its host cost
        // is the ratio of the two timings.
        let t0 = Instant::now();
        let plain = [
            Engine::new(*cfg, traces, Scheme::Baseline).run().result,
            Engine::new(*cfg, &compiled, Scheme::Compiled).run().result,
        ];
        let plain_s = t0.elapsed().as_secs_f64();
        for (p, o) in plain.iter().zip([&base.result, &a2.result]) {
            if digest::sim_result(p) != digest::sim_result(o) {
                out.failures
                    .push(format!("{}: observed run differs from plain run", o.scheme));
            }
        }
        out.obs_cost = Some((checked_s, plain_s));
    }
    // The recorded event streams, spans and ledgers are large; freeing
    // them is part of what observation costs.
    tr.span("ndc-obs.free", || drop((base, a2)));
}

/// Check one observed run's invariants and record its counters.
fn check_run(out: &mut JobOut, label: &str, o: &EngineOutput, tr: &mut JobTrace) {
    let report = tr.span("ndc-check.invariants", || chk::check_engine_output(o));
    for v in &report.violations {
        out.failures.push(format!("{label}: invariant: {v}"));
    }
    let c = &mut out.counts;
    add(c, "ndc-check.violations", report.violations.len() as u64);
    add(
        c,
        "ndc-obs.events",
        o.check.as_ref().map_or(0, |d| d.events.len() as u64),
    );
    add(c, "ndc-obs.spans", o.spans.len() as u64);
    add(c, "ndc-obs.events_dropped", o.events_dropped);
    record_sim(out, label, &o.result);
}
