//! The evaluation harness: one function per table/figure of the paper.
//!
//! Every artifact of the paper's evaluation section maps to a function
//! here (see DESIGN.md §3 for the index). The expensive per-benchmark
//! work is shared through [`evaluate_benchmark`], which runs the
//! instrumented baseline, every Figure 4 scheme, and both compiler
//! algorithms once; figure-specific functions then aggregate. The
//! 20-benchmark sweeps — and, within one benchmark, the per-scheme
//! simulations — fan out on the in-tree `ndc-par` runtime (the harness
//! layer is the only parallel code; each simulation is deterministic
//! and single-threaded, and `ndc-par` returns results in input order,
//! so parallel and serial runs produce bit-identical output; set
//! `NDC_THREADS=1` to force the serial path). Nested fan-outs are
//! safe: a `parallel_map` issued from inside a worker runs serially,
//! so the per-scheme level only spawns when a benchmark is evaluated
//! on its own (e.g. `ndc-eval fig4 --bench swim`).

use ndc_cme::{
    accuracy_against_sim, offload_accuracy, AccuracyReport, OffloadAccuracyReport, RefKey,
};
use ndc_compiler::{
    compile_algorithm1, compile_algorithm2, compile_coarse, Algorithm2Options, CandidateRecord,
    CompilerReport,
};
use ndc_ir::{lower, LowerOptions, Program};
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::span::SpanTrace;
use ndc_obs::{Event, Metrics, ObsLevel};
use ndc_sim::engine::{simulate, Engine};
use ndc_sim::instrument::Instrumentation;
use ndc_sim::schemes::{OracleGuide, Scheme, WaitBudget};
use ndc_sim::SimResult;
use ndc_types::{
    geomean_improvement, ArchConfig, Cycle, Json, NdcConfig, NdcLocation, OpClass, Pc,
    WindowHistogram, ALL_NDC_LOCATIONS,
};
use ndc_workloads::{all_benchmarks, Benchmark, Scale};

/// The Figure 4 scheme lineup, in the paper's bar order (Default,
/// Oracle, Wait(5/10/25/50%), Last Wait, Algorithm-1, Algorithm-2 —
/// Algorithms are run separately since they need compilation).
pub fn figure4_schemes() -> Vec<Scheme> {
    vec![
        Scheme::NdcAll {
            budget: WaitBudget::Forever,
        },
        Scheme::Oracle { reuse_aware: true },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(5),
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(10),
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(25),
        },
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        },
        Scheme::NdcAll {
            budget: WaitBudget::LastWindow,
        },
    ]
}

/// Everything one benchmark contributes to the evaluation.
pub struct BenchmarkEvaluation {
    pub name: String,
    pub baseline: SimResult,
    /// The characterization data from the instrumented baseline
    /// (Figures 2, 3, 5).
    pub instrumentation: Instrumentation,
    /// Results of the Figure 4 measurement schemes, in
    /// [`figure4_schemes`] order.
    pub scheme_results: Vec<SimResult>,
    /// Algorithm 1: compiled result + compiler report.
    pub alg1: (SimResult, CompilerReport),
    /// Algorithm 2: compiled result + compiler report.
    pub alg2: (SimResult, CompilerReport),
    /// CME estimation accuracy against the baseline run (Table 2).
    pub cme_accuracy: AccuracyReport,
}

impl BenchmarkEvaluation {
    /// Improvement (%) of a scheme result over the baseline.
    pub fn improvement(&self, r: &SimResult) -> f64 {
        r.improvement_over(&self.baseline)
    }

    /// The oracle run (Figure 4 bar 2, Figure 6 breakdown).
    pub fn oracle(&self) -> &SimResult {
        &self.scheme_results[1]
    }

    /// Every simulated run, in [`run_labels`] order.
    pub fn runs(&self) -> impl Iterator<Item = &SimResult> {
        std::iter::once(&self.baseline)
            .chain(&self.scheme_results)
            .chain([&self.alg1.0, &self.alg2.0])
    }
}

/// The label of every run of one benchmark evaluation, in job order:
/// `baseline`, the seven [`figure4_schemes`] labels, `alg1`, `alg2`.
/// `--metrics` and [`figure4_counters`] key their runs by these.
pub fn run_labels() -> Vec<String> {
    std::iter::once("baseline".to_string())
        .chain(figure4_schemes().into_iter().map(|s| s.label()))
        .chain(["alg1".to_string(), "alg2".to_string()])
        .collect()
}

/// Map a [`RefKey`] to the PC the lowering assigned its accesses.
fn pc_of_refkey(key: &RefKey) -> Pc {
    ndc_ir::pc_of(key.nest_pos, key.stmt_pos, ndc_ir::ROLE_MAIN)
}

/// Observability artifacts from one benchmark evaluation: every run's
/// component-level metrics tree and (optionally) its trace events, in
/// fixed [`run_labels`] order. The order is the `ndc-par` job input
/// order, so it is identical under any `NDC_THREADS`.
#[derive(Default)]
pub struct BenchObs {
    pub per_run: Vec<(String, Metrics)>,
    pub per_run_events: Vec<(String, Vec<Event>)>,
}

/// Run the full shared evaluation of one benchmark.
pub fn evaluate_benchmark(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> BenchmarkEvaluation {
    evaluate_benchmark_obs(bench, cfg, scale, ObsLevel::off()).0
}

/// [`evaluate_benchmark`] with the observability layer enabled: each
/// simulated run also yields a per-component [`Metrics`] tree and, if
/// the trace ring is on, its latest-window events (collected into
/// [`BenchObs`] in job input order, preserving determinism).
pub fn evaluate_benchmark_obs(
    bench: &Benchmark,
    cfg: ArchConfig,
    scale: Scale,
    obs: ObsLevel,
) -> (BenchmarkEvaluation, BenchObs) {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    // The baseline lowering is shared read-only by the instrumented
    // run and every measurement scheme — computed once, not per
    // scheme.
    let traces = lower(&prog, &opts, None);

    // Every remaining piece of the evaluation is independent given
    // `traces`, except the oracle: the instrumented baseline (+ CME
    // accuracy), the seven Figure 4 measurement schemes, and the two
    // compiler algorithms (each of which lowers its own schedule). Fan
    // them out; ndc-par returns results in job order, so the output is
    // bit-identical to the serial path. The oracle plans its guide from
    // the baseline's characterization records, so the baseline job runs
    // it too rather than the oracle job re-simulating the same
    // instrumented baseline as its plan pass.
    enum Job {
        Baseline,
        Scheme(Scheme),
        Algorithm(u8),
    }
    enum JobOut {
        Baseline(Box<(SimResult, Instrumentation, AccuracyReport, Ran)>),
        Scheme(Box<SimResult>),
        /// The oracle's slot: its run comes out of the baseline job.
        OracleInBaseline,
        Algorithm(Box<(SimResult, CompilerReport)>),
    }
    /// One simulated run's output with its observability.
    struct Ran {
        out: JobOut,
        metrics: Option<Metrics>,
        events: Vec<Event>,
    }

    let mut jobs = vec![Job::Baseline];
    jobs.extend(figure4_schemes().into_iter().map(Job::Scheme));
    jobs.push(Job::Algorithm(1));
    jobs.push(Job::Algorithm(2));
    let reuse_aware = figure4_schemes()
        .into_iter()
        .find_map(|s| match s {
            Scheme::Oracle { reuse_aware } => Some(reuse_aware),
            _ => None,
        })
        .expect("Figure 4 runs the oracle");

    // Per-job run labels in the same order as `jobs`, used to key the
    // observability output.
    let labels = run_labels();

    let outs = ndc_par::parallel_map(&jobs, |job| match job {
        Job::Baseline => {
            // Instrumented baseline: execution time + characterization
            // + per-reference cache counters.
            let base_out = Engine::new(cfg, &traces, Scheme::Baseline)
                .with_instrumentation()
                .with_obs(obs)
                .run();
            let baseline = base_out.result;
            let instrumentation = base_out.instrumentation.expect("instrumented run");
            // The oracle's guided pass, planned from this run.
            let guide = OracleGuide::build(
                &instrumentation.records,
                &traces,
                cfg.l1.line_bytes,
                reuse_aware,
            );
            let out = Engine::new(cfg, &traces, Scheme::Oracle { reuse_aware })
                .with_guide(&guide)
                .with_obs(obs)
                .run();
            let oracle = Ran {
                out: JobOut::Scheme(Box::new(out.result)),
                metrics: out.metrics,
                events: out.events,
            };
            // Table 2: CME predictions vs the baseline's measured
            // behaviour.
            let cme = ndc_cme::analyze(&prog, &cfg, cores);
            let l1_counters = baseline
                .pc_l1
                .iter()
                .map(|(k, v)| (*k, (v.hits, v.misses)))
                .collect();
            let l2_counters = baseline
                .pc_l2
                .iter()
                .map(|(k, v)| (*k, (v.hits, v.misses)))
                .collect();
            let cme_accuracy = accuracy_against_sim(&cme, &l1_counters, &l2_counters, pc_of_refkey);
            Ran {
                out: JobOut::Baseline(Box::new((baseline, instrumentation, cme_accuracy, oracle))),
                metrics: base_out.metrics,
                events: base_out.events,
            }
        }
        Job::Scheme(Scheme::Oracle { .. }) => Ran {
            out: JobOut::OracleInBaseline,
            metrics: None,
            events: Vec::new(),
        },
        Job::Scheme(s) => {
            let out = Engine::new(cfg, &traces, *s).with_obs(obs).run();
            Ran {
                out: JobOut::Scheme(Box::new(out.result)),
                metrics: out.metrics,
                events: out.events,
            }
        }
        Job::Algorithm(which) => {
            let (sched, report) = if *which == 1 {
                compile_algorithm1(&prog, &cfg, cores)
            } else {
                compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default())
            };
            let t = lower(&prog, &opts, Some(&sched));
            let out = Engine::new(cfg, &t, Scheme::Compiled).with_obs(obs).run();
            Ran {
                out: JobOut::Algorithm(Box::new((out.result, report))),
                metrics: out.metrics,
                events: out.events,
            }
        }
    });

    let mut baseline_parts = None;
    let mut oracle_run = None;
    let mut scheme_results = Vec::new();
    let mut algs = Vec::new();
    let mut bench_obs = BenchObs::default();
    for (label, ran) in labels.into_iter().zip(outs) {
        // The baseline job comes first, so the oracle's run is in hand
        // by the time its slot comes up.
        let ran = match ran.out {
            JobOut::OracleInBaseline => oracle_run.take().expect("the baseline job ran the oracle"),
            _ => ran,
        };
        if let Some(m) = ran.metrics {
            bench_obs.per_run.push((label.clone(), m));
        }
        if obs.trace_capacity > 0 {
            bench_obs.per_run_events.push((label, ran.events));
        }
        match ran.out {
            JobOut::Baseline(b) => {
                let (baseline, instrumentation, cme_accuracy, oracle) = *b;
                baseline_parts = Some((baseline, instrumentation, cme_accuracy));
                oracle_run = Some(oracle);
            }
            JobOut::Scheme(r) => scheme_results.push(*r),
            JobOut::OracleInBaseline => unreachable!("replaced by the baseline job's oracle run"),
            JobOut::Algorithm(a) => algs.push(*a),
        }
    }
    let (baseline, instrumentation, cme_accuracy) = baseline_parts.expect("baseline job ran");
    let (a2, r2) = algs.pop().expect("algorithm 2 job ran");
    let (a1, r1) = algs.pop().expect("algorithm 1 job ran");

    (
        BenchmarkEvaluation {
            name: bench.name.to_string(),
            baseline,
            instrumentation,
            scheme_results,
            alg1: (a1, r1),
            alg2: (a2, r2),
            cme_accuracy,
        },
        bench_obs,
    )
}

/// Evaluate all 20 benchmarks (ndc-par fan-out, ordered results).
pub fn evaluate_all(cfg: ArchConfig, scale: Scale) -> Vec<BenchmarkEvaluation> {
    let benches = all_benchmarks();
    ndc_par::parallel_map(&benches, |b| evaluate_benchmark(b, cfg, scale))
}

// ---------------------------------------------------------------------
// Figure 2: arrival-window CDFs per location.
// ---------------------------------------------------------------------

/// Per-benchmark, per-location window CDF values (truncated at 50% as
/// in the paper's plots).
pub fn figure2(evals: &[BenchmarkEvaluation]) -> Vec<(String, [[f64; 7]; 4])> {
    evals
        .iter()
        .map(|e| {
            let mut per_loc = [[0.0; 7]; 4];
            for (i, slot) in per_loc.iter_mut().enumerate() {
                *slot = e.instrumentation.window_hist[i].cdf().truncated(50.0);
            }
            (e.name.clone(), per_loc)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3: breakeven vs arrival-window distributions, averaged over
// all benchmarks.
// ---------------------------------------------------------------------

pub struct Figure3 {
    pub windows: [WindowHistogram; 4],
    pub breakevens: [WindowHistogram; 4],
}

pub fn figure3(evals: &[BenchmarkEvaluation]) -> Figure3 {
    let mut out = Figure3 {
        windows: Default::default(),
        breakevens: Default::default(),
    };
    for e in evals {
        for i in 0..4 {
            out.windows[i].merge(&e.instrumentation.window_hist[i]);
            out.breakevens[i].merge(&e.instrumentation.breakeven_hist[i]);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4: performance benefits of every scheme.
// ---------------------------------------------------------------------

/// One Figure 4 row: improvements (%) over the original program.
pub struct Figure4Row {
    pub name: String,
    /// Default, Oracle, Wait(5/10/25/50), LastWait — in
    /// [`figure4_schemes`] order.
    pub schemes: Vec<f64>,
    pub alg1: f64,
    pub alg2: f64,
}

pub fn figure4(evals: &[BenchmarkEvaluation]) -> Vec<Figure4Row> {
    evals
        .iter()
        .map(|e| Figure4Row {
            name: e.name.clone(),
            schemes: e.scheme_results.iter().map(|r| e.improvement(r)).collect(),
            alg1: e.improvement(&e.alg1.0),
            alg2: e.improvement(&e.alg2.0),
        })
        .collect()
}

/// Geometric-mean summary of a Figure 4 column.
pub fn figure4_geomean(rows: &[Figure4Row], col: impl Fn(&Figure4Row) -> f64) -> f64 {
    let vals: Vec<f64> = rows.iter().map(col).collect();
    geomean_improvement(&vals)
}

/// The simulated counters behind Figures 4, 6 and 13, as the document
/// `ndc-eval fig4` commits as `BENCH_fig4_schemes.json`: one row per
/// benchmark, each listing its runs under their [`run_labels`] with
/// execution time, issued instructions, NoC messages and performed NDC
/// per location (in [`ALL_NDC_LOCATIONS`] order: network, cache, MC,
/// memory). Counters only, so the document is identical on every host.
pub fn figure4_counters(evals: &[BenchmarkEvaluation], scale: Scale) -> Json {
    let rows: Vec<Json> = evals
        .iter()
        .map(|e| {
            let runs: Vec<Json> = run_labels()
                .into_iter()
                .zip(e.runs())
                .map(|(label, r)| {
                    Json::obj()
                        .with("run", label)
                        .with("total_cycles", r.total_cycles)
                        .with("issued_insts", r.issued_insts)
                        .with("noc_messages", r.noc_messages)
                        .with("ndc_performed", r.ndc_performed.to_vec())
                })
                .collect();
            Json::obj().with("name", e.name.as_str()).with("runs", runs)
        })
        .collect();
    Json::obj()
        .with("experiment", "fig4")
        .with("scale", format!("{scale:?}"))
        .with("rows", rows)
}

// ---------------------------------------------------------------------
// Figure 5: consecutive arrival windows of one static instruction.
// ---------------------------------------------------------------------

/// The first `n` windows observed for the busiest PC of a benchmark
/// (`None` = the operands never co-located for that instance).
pub fn figure5(eval: &BenchmarkEvaluation, n: usize) -> Vec<Option<Cycle>> {
    let Some(pc) = eval.instrumentation.busiest_pc() else {
        return Vec::new();
    };
    eval.instrumentation.pc_series[&pc]
        .iter()
        .take(n)
        .copied()
        .collect()
}

// ---------------------------------------------------------------------
// Figures 6 and 13: NDC location breakdowns.
// ---------------------------------------------------------------------

/// Per-benchmark per-location breakdown (%) of where NDC was performed.
pub struct BreakdownRow {
    pub name: String,
    pub pct: [f64; 4],
}

/// Figure 6: the oracle's NDC location distribution.
pub fn figure6(evals: &[BenchmarkEvaluation]) -> Vec<BreakdownRow> {
    evals
        .iter()
        .map(|e| BreakdownRow {
            name: e.name.clone(),
            pct: e.oracle().ndc_breakdown_pct(),
        })
        .collect()
}

/// Figure 13: Algorithm 1's NDC location distribution (plus footnote
/// 6's offloaded-instruction fraction, via `SimResult::ndc_fraction`).
pub fn figure13(evals: &[BenchmarkEvaluation]) -> Vec<BreakdownRow> {
    evals
        .iter()
        .map(|e| BreakdownRow {
            name: e.name.clone(),
            pct: e.alg1.0.ndc_breakdown_pct(),
        })
        .collect()
}

/// Average of a set of breakdown rows (the paper's "average" bar).
pub fn breakdown_average(rows: &[BreakdownRow]) -> [f64; 4] {
    let mut avg = [0.0; 4];
    let n = rows.len().max(1) as f64;
    for r in rows {
        for (a, p) in avg.iter_mut().zip(r.pct.iter()) {
            *a += p / n;
        }
    }
    avg
}

// ---------------------------------------------------------------------
// Figure 14: Algorithm 1 restricted to a single component.
// ---------------------------------------------------------------------

pub struct Figure14Row {
    pub name: String,
    /// Improvement when only this location (by index) is enabled.
    pub isolated: [f64; 4],
    /// Improvement with all four locations (the Algorithm 1 bar).
    pub all: f64,
}

pub fn figure14(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> Figure14Row {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let traces = lower(&prog, &opts, None);
    let baseline = simulate(cfg, &traces, Scheme::Baseline).result;

    let run_with_mask = |mask: u8| -> f64 {
        let mut c = cfg;
        c.ndc.enabled_mask = mask;
        let (sched, _) = compile_algorithm1(&prog, &c, cores);
        let t = lower(&prog, &opts, Some(&sched));
        simulate(c, &t, Scheme::Compiled)
            .result
            .improvement_over(&baseline)
    };

    // The five compile+lower+simulate runs (one per isolated location
    // plus the all-locations bar) are independent given the shared
    // baseline above.
    let masks: Vec<u8> = ALL_NDC_LOCATIONS
        .iter()
        .map(|&loc| NdcConfig::only(loc))
        .chain([NdcConfig::ALL_LOCATIONS])
        .collect();
    let improvements = ndc_par::parallel_map(&masks, |&m| run_with_mask(m));
    let mut isolated = [0.0; 4];
    for (loc, imp) in ALL_NDC_LOCATIONS.iter().zip(&improvements) {
        isolated[loc.index()] = *imp;
    }
    Figure14Row {
        name: bench.name.to_string(),
        isolated,
        all: improvements[4],
    }
}

pub fn figure14_all(cfg: ArchConfig, scale: Scale) -> Vec<Figure14Row> {
    let benches = all_benchmarks();
    ndc_par::parallel_map(&benches, |b| figure14(b, cfg, scale))
}

// ---------------------------------------------------------------------
// Figure 15: fraction of NDC opportunities exercised by Algorithm 2.
// ---------------------------------------------------------------------

pub fn figure15(evals: &[BenchmarkEvaluation]) -> Vec<(String, f64)> {
    evals
        .iter()
        .map(|e| (e.name.clone(), e.alg2.1.exercised_pct()))
        .collect()
}

// ---------------------------------------------------------------------
// Figure 16: L1/L2 miss rates under Algorithms 1 and 2.
// ---------------------------------------------------------------------

pub struct Figure16Row {
    pub name: String,
    pub l1_alg1: f64,
    pub l1_alg2: f64,
    pub l2_alg1: f64,
    pub l2_alg2: f64,
}

pub fn figure16(evals: &[BenchmarkEvaluation]) -> Vec<Figure16Row> {
    evals
        .iter()
        .map(|e| Figure16Row {
            name: e.name.clone(),
            l1_alg1: 100.0 * e.alg1.0.l1.miss_rate(),
            l1_alg2: 100.0 * e.alg2.0.l1.miss_rate(),
            l2_alg1: 100.0 * e.alg1.0.l2.miss_rate(),
            l2_alg2: 100.0 * e.alg2.0.l2.miss_rate(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 17: sensitivity study.
// ---------------------------------------------------------------------

/// One sensitivity configuration.
pub struct SensitivityConfig {
    pub label: String,
    pub cfg: ArchConfig,
}

/// The paper's sensitivity axes: default, 4×4 and 6×6 meshes, 256 KB
/// and 1 MB L2 banks, and offloadable ops restricted to `{+,−}`.
pub fn figure17_configs() -> Vec<SensitivityConfig> {
    let base = ArchConfig::paper_default();
    let mut configs = vec![SensitivityConfig {
        label: "default (5x5, 512KB, all ops)".into(),
        cfg: base,
    }];
    for (w, h) in [(4u16, 4u16), (6, 6)] {
        let mut c = base;
        c.noc.width = w;
        c.noc.height = h;
        configs.push(SensitivityConfig {
            label: format!("{w}x{h} mesh"),
            cfg: c,
        });
    }
    for kb in [256u64, 1024] {
        let mut c = base;
        c.l2.size_bytes = kb * 1024;
        configs.push(SensitivityConfig {
            label: format!("{kb}KB L2 banks"),
            cfg: c,
        });
    }
    let mut c = base;
    c.ndc.op_class = OpClass::AddSubOnly;
    configs.push(SensitivityConfig {
        label: "ops restricted to +/-".into(),
        cfg: c,
    });
    configs
}

pub struct Figure17Row {
    pub label: String,
    /// Geometric means across all benchmarks.
    pub alg1: f64,
    pub alg2: f64,
    pub oracle: f64,
}

/// Run the sensitivity sweep. Each configuration runs baseline, oracle,
/// and both algorithms on every benchmark; rows are geometric means.
///
/// The whole (configuration × benchmark) grid is flattened into one
/// fan-out so a slow configuration can't serialize the sweep behind a
/// per-configuration barrier.
pub fn figure17(scale: Scale) -> Vec<Figure17Row> {
    let configs = figure17_configs();
    let benches = all_benchmarks();
    let pairs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|ci| (0..benches.len()).map(move |bi| (ci, bi)))
        .collect();

    let cells: Vec<(f64, f64, f64)> = ndc_par::parallel_map(&pairs, |&(ci, bi)| {
        let cfg = configs[ci].cfg;
        let prog = benches[bi].build(scale);
        let cores = cfg.nodes();
        let opts = LowerOptions {
            cores,
            emit_busy: true,
        };
        // Shared baseline lowering for this (config, benchmark) cell;
        // the oracle run reuses it, only the algorithms re-lower.
        let traces = lower(&prog, &opts, None);
        let base = simulate(cfg, &traces, Scheme::Baseline).result;
        let oracle = simulate(cfg, &traces, Scheme::Oracle { reuse_aware: true })
            .result
            .improvement_over(&base);
        let (s1, _) = compile_algorithm1(&prog, &cfg, cores);
        let a1 = simulate(cfg, &lower(&prog, &opts, Some(&s1)), Scheme::Compiled)
            .result
            .improvement_over(&base);
        let (s2, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
        let a2 = simulate(cfg, &lower(&prog, &opts, Some(&s2)), Scheme::Compiled)
            .result
            .improvement_over(&base);
        (a1, a2, oracle)
    });

    configs
        .into_iter()
        .enumerate()
        .map(|(ci, sc)| {
            let rows = &cells[ci * benches.len()..(ci + 1) * benches.len()];
            let a1: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let a2: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let oracle: Vec<f64> = rows.iter().map(|r| r.2).collect();
            Figure17Row {
                label: sc.label,
                alg1: geomean_improvement(&a1),
                alg2: geomean_improvement(&a2),
                oracle: geomean_improvement(&oracle),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2: CME estimation accuracy.
// ---------------------------------------------------------------------

pub fn table2(evals: &[BenchmarkEvaluation]) -> Vec<(String, AccuracyReport)> {
    evals
        .iter()
        .map(|e| (e.name.clone(), e.cme_accuracy))
        .collect()
}

// ---------------------------------------------------------------------
// `ndc-eval explain`: causal span traces joined with the compiler's
// decision provenance and the offload cost-model cross-check.
// ---------------------------------------------------------------------

/// Default span sampling rate for `explain` sweeps: one request in 64,
/// enough material for decomposition without unbounded trace memory.
pub const EXPLAIN_SAMPLE_ONE_IN: u32 = 64;

/// Everything `ndc-eval explain` reports for one benchmark: the
/// Algorithm 2 compiled run with span tracing on, the compiler's
/// per-chain decision provenance, and the predicted-vs-measured
/// offload-latency cross-check.
pub struct ExplainReport {
    pub name: String,
    /// The compiled (Algorithm 2) run the spans were sampled from.
    pub result: SimResult,
    /// Compiler report carrying the per-chain [`ndc_compiler::ChainProvenance`].
    pub compiler: CompilerReport,
    /// Sampled span traces (deterministic in the request id).
    pub spans: Vec<SpanTrace>,
    /// Predicted-vs-measured offload cycles per NDC location, under
    /// the reuse-derived static cost model.
    pub offload: OffloadAccuracyReport,
    /// The same cross-check under the retired CME-probability
    /// heuristic — the baseline the model-accuracy gate compares
    /// against.
    pub offload_legacy: OffloadAccuracyReport,
}

impl ExplainReport {
    /// The `k` slowest sampled requests, slowest first (ties broken by
    /// request id, so the order is deterministic).
    pub fn top_slowest(&self, k: usize) -> Vec<&SpanTrace> {
        let mut refs: Vec<&SpanTrace> = self.spans.iter().collect();
        refs.sort_by(|a, b| b.latency().cmp(&a.latency()).then(a.id.cmp(&b.id)));
        refs.truncate(k);
        refs
    }
}

/// Mean predicted offload cycles per location over every chain the
/// planner assessed (the candidate tables of the provenance) — the
/// predicted side of the cost-model cross-check. `pick` selects which
/// model's prediction to average.
fn offload_means_by(report: &CompilerReport, pick: impl Fn(&CandidateRecord) -> f64) -> [f64; 4] {
    let mut sum = [0.0; 4];
    let mut n = [0u64; 4];
    for chain in &report.provenance {
        for c in &chain.candidates {
            sum[c.location.index()] += pick(c);
            n[c.location.index()] += 1;
        }
    }
    let mut out = [0.0; 4];
    for i in 0..4 {
        if n[i] > 0 {
            out[i] = sum[i] / n[i] as f64;
        }
    }
    out
}

/// Per-location mean predictions of the reuse-derived static model.
pub fn predicted_offload_means(report: &CompilerReport) -> [f64; 4] {
    offload_means_by(report, |c| c.predicted_cycles)
}

/// Per-location mean predictions of the retired CME-probability
/// heuristic, kept as the model-accuracy baseline.
pub fn predicted_offload_means_legacy(report: &CompilerReport) -> [f64; 4] {
    offload_means_by(report, |c| c.predicted_cycles_legacy)
}

/// Compile one benchmark with Algorithm 2, run it with span tracing at
/// `one_in`, and join spans, provenance, and the offload cross-check.
pub fn explain_benchmark(
    bench: &Benchmark,
    cfg: ArchConfig,
    scale: Scale,
    one_in: u32,
) -> ExplainReport {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let (sched, compiler) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
    let traces = lower(&prog, &opts, Some(&sched));
    let out = Engine::new(cfg, &traces, Scheme::Compiled)
        .with_obs(ObsLevel::with_spans(one_in))
        .run();
    let offload = offload_accuracy(
        predicted_offload_means(&compiler),
        out.result.ndc_offload_cycles,
        out.result.ndc_offload_samples,
    );
    let offload_legacy = offload_accuracy(
        predicted_offload_means_legacy(&compiler),
        out.result.ndc_offload_cycles,
        out.result.ndc_offload_samples,
    );
    ExplainReport {
        name: bench.name.to_string(),
        result: out.result,
        compiler,
        spans: out.spans,
        offload,
        offload_legacy,
    }
}

/// [`explain_benchmark`] over all 20 benchmarks (ndc-par fan-out,
/// ordered results) — the rows of the explain error table.
pub fn explain_all(cfg: ArchConfig, scale: Scale, one_in: u32) -> Vec<ExplainReport> {
    let benches = all_benchmarks();
    ndc_par::parallel_map(&benches, |b| explain_benchmark(b, cfg, scale, one_in))
}

// ---------------------------------------------------------------------
// `ndc-eval profile`: per-tenant attribution ledger, latency sketch
// quantiles, and the slowest sampled requests.
// ---------------------------------------------------------------------

/// Default span sampling rate for `profile` sweeps (the outlier table
/// only needs a representative tail, not every request).
pub const PROFILE_SAMPLE_ONE_IN: u32 = 64;

/// Round-robin core→tenant assignment: core `c` belongs to tenant
/// `c mod num_tenants`. One tenant reproduces the default
/// single-tenant world, so every existing figure is unchanged.
pub fn round_robin_tenants(cores: usize, num_tenants: u16) -> Vec<u16> {
    let n = num_tenants.max(1) as usize;
    (0..cores).map(|c| (c % n) as u16).collect()
}

/// Everything `ndc-eval profile` reports for one benchmark: the
/// attribution ledger of the Algorithm 2 compiled run (cores mapped to
/// tenants round-robin), the sampled span traces for the outlier
/// table, and the run result.
pub struct ProfileReport {
    pub name: String,
    /// The compiled (Algorithm 2) run the ledger was charged from.
    pub result: SimResult,
    /// Per-tenant attribution rows with latency/queue-delay/offload
    /// sketches.
    pub ledger: AttributionLedger,
    /// Sampled span traces (deterministic in the request id).
    pub spans: Vec<SpanTrace>,
    /// Trace events evicted from the observability ring (0 unless a
    /// `--trace` ring overflowed; surfaced so profiles are explicit
    /// about lossy capture).
    pub events_dropped: u64,
}

impl ProfileReport {
    /// The `k` slowest sampled requests, slowest first (ties broken by
    /// request id, so the order is deterministic).
    pub fn top_slowest(&self, k: usize) -> Vec<&SpanTrace> {
        let mut refs: Vec<&SpanTrace> = self.spans.iter().collect();
        refs.sort_by(|a, b| b.latency().cmp(&a.latency()).then(a.id.cmp(&b.id)));
        refs.truncate(k);
        refs
    }
}

/// Compile one benchmark with Algorithm 2 and run it with the
/// attribution ledger on, cores assigned to `num_tenants` tenants
/// round-robin, sampling one request in `one_in` for the outlier
/// table. Pure observation: the simulated timing is identical to the
/// unprofiled run.
pub fn profile_benchmark(
    bench: &Benchmark,
    cfg: ArchConfig,
    scale: Scale,
    num_tenants: u16,
    one_in: u32,
) -> ProfileReport {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let (sched, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
    let traces = lower(&prog, &opts, Some(&sched));
    let obs = ObsLevel {
        span_one_in: one_in,
        ledger: true,
        ..ObsLevel::default()
    };
    let tenants = round_robin_tenants(cores, num_tenants);
    let out = Engine::new(cfg, &traces, Scheme::Compiled)
        .with_obs(obs)
        .with_tenants(tenants)
        .run();
    ProfileReport {
        name: bench.name.to_string(),
        result: out.result,
        ledger: out.ledger.expect("profile run collects the ledger"),
        spans: out.spans,
        events_dropped: out.events_dropped,
    }
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// §5.4: disabling route reshaping cuts router NDC by ~40%.
pub struct RoutingAblationRow {
    pub name: String,
    pub router_ndc_with: u64,
    pub router_ndc_without: u64,
}

pub fn ablation_routing(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> RoutingAblationRow {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let (sched, _) = compile_algorithm1(&prog, &cfg, cores);
    let with = simulate(cfg, &lower(&prog, &opts, Some(&sched)), Scheme::Compiled).result;

    let mut stripped = sched.clone();
    for p in &mut stripped.precomputes {
        p.reshape_routes = false;
    }
    let without = simulate(cfg, &lower(&prog, &opts, Some(&stripped)), Scheme::Compiled).result;

    RoutingAblationRow {
        name: bench.name.to_string(),
        router_ndc_with: with.ndc_performed_at(NdcLocation::LinkBuffer),
        router_ndc_without: without.ndc_performed_at(NdcLocation::LinkBuffer),
    }
}

/// §5.4: coarse-grain (whole-nest) mapping performs poorly.
pub struct CoarseAblationRow {
    pub name: String,
    pub fine_alg1: f64,
    pub fine_alg2: f64,
    pub coarse_alg1: f64,
    pub coarse_alg2: f64,
}

pub fn ablation_coarse(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> CoarseAblationRow {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let traces = lower(&prog, &opts, None);
    let base = simulate(cfg, &traces, Scheme::Baseline).result;
    let run = |sched: &ndc_ir::Schedule| -> f64 {
        simulate(cfg, &lower(&prog, &opts, Some(sched)), Scheme::Compiled)
            .result
            .improvement_over(&base)
    };
    let (s1, _) = compile_algorithm1(&prog, &cfg, cores);
    let (s2, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
    let (c1, _) = compile_coarse(&prog, &cfg, false);
    let (c2, _) = compile_coarse(&prog, &cfg, true);
    CoarseAblationRow {
        name: bench.name.to_string(),
        fine_alg1: run(&s1),
        fine_alg2: run(&s2),
        coarse_alg1: run(&c1),
        coarse_alg2: run(&c2),
    }
}

/// Extension: sweep Algorithm 2's reuse threshold `k` (the paper's
/// future-work parameter, §5.3/§5.4) on one benchmark.
pub struct KSweepRow {
    pub k: u32,
    pub improvement: f64,
    pub exercised_pct: f64,
}

pub fn ablation_k(bench: &Benchmark, cfg: ArchConfig, scale: Scale, ks: &[u32]) -> Vec<KSweepRow> {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let traces = lower(&prog, &opts, None);
    let base = simulate(cfg, &traces, Scheme::Baseline).result;
    ks.iter()
        .map(|&k| {
            let (sched, report) = compile_algorithm2(
                &prog,
                &cfg,
                cores,
                Algorithm2Options {
                    reuse_k: k,
                    ..Default::default()
                },
            );
            let r = simulate(cfg, &lower(&prog, &opts, Some(&sched)), Scheme::Compiled).result;
            KSweepRow {
                k,
                improvement: r.improvement_over(&base),
                exercised_pct: report.exercised_pct(),
            }
        })
        .collect()
}

/// Extension: the Markov-chain window predictor the paper mentions in
/// §4.4 ("even a Markov Chain-based predictor generated similar
/// results") — compared against Last-Wait and the oracle.
pub struct MarkovRow {
    pub name: String,
    pub last_wait: f64,
    pub markov: f64,
    pub oracle: f64,
}

pub fn ablation_markov(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> MarkovRow {
    let prog = bench.build(scale);
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let traces = lower(&prog, &opts, None);
    let base = simulate(cfg, &traces, Scheme::Baseline).result;
    let run = |s: Scheme| simulate(cfg, &traces, s).result.improvement_over(&base);
    MarkovRow {
        name: bench.name.to_string(),
        last_wait: run(Scheme::NdcAll {
            budget: WaitBudget::LastWindow,
        }),
        markov: run(Scheme::NdcAll {
            budget: WaitBudget::Markov,
        }),
        oracle: run(Scheme::Oracle { reuse_aware: true }),
    }
}

/// Extension: the data-layout optimization of §5.2.1's fourth
/// challenge, applied before Algorithm 2.
pub struct LayoutRow {
    pub name: String,
    pub without: f64,
    pub with_layout: f64,
    pub chains_aligned: u64,
}

pub fn ablation_layout(bench: &Benchmark, cfg: ArchConfig, scale: Scale) -> LayoutRow {
    let prog = bench.build(scale);
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    // Baseline timing uses the ORIGINAL layout; the layout pass is a
    // whole-program change, so its variant gets its own baseline too.
    let base = simulate(cfg, &lower(&prog, &opts, None), Scheme::Baseline).result;
    let (s2, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
    let without = simulate(cfg, &lower(&prog, &opts, Some(&s2)), Scheme::Compiled)
        .result
        .improvement_over(&base);

    let (reprog, lreport) = ndc_compiler::optimize_layout(&prog, &cfg);
    let rebase = simulate(cfg, &lower(&reprog, &opts, None), Scheme::Baseline).result;
    let (s2l, _) = compile_algorithm2(&reprog, &cfg, cores, Algorithm2Options::default());
    let with_layout = simulate(cfg, &lower(&reprog, &opts, Some(&s2l)), Scheme::Compiled)
        .result
        .improvement_over(&rebase);

    LayoutRow {
        name: bench.name.to_string(),
        without,
        with_layout,
        chains_aligned: lreport.aligned,
    }
}

/// Semantics-preservation oracle used by integration tests: the
/// compiled schedule must compute bit-identical results.
pub fn semantics_preserved(prog: &Program, sched: &ndc_ir::Schedule) -> bool {
    use ndc_ir::{DataStore, Interpreter};
    let mut a = DataStore::init(prog);
    let mut b = DataStore::init(prog);
    Interpreter::new(prog).run(&mut a);
    Interpreter::new(prog).run_scheduled(&mut b, sched);
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_eval() -> BenchmarkEvaluation {
        let bench = ndc_workloads::by_name("kdtree").unwrap();
        evaluate_benchmark(&bench, ArchConfig::paper_default(), Scale::Test)
    }

    #[test]
    fn evaluation_produces_all_artifacts() {
        let e = small_eval();
        assert!(e.baseline.total_cycles > 0);
        assert_eq!(e.scheme_results.len(), figure4_schemes().len());
        assert!(e.instrumentation.observations() > 0);
        assert!(e.cme_accuracy.l1_accesses > 0);
        // kdtree's chains are always co-homed: Algorithm 1 plans them.
        assert!(e.alg1.1.planned > 0);
    }

    #[test]
    fn profile_splits_charges_across_tenants_without_perturbing_timing() {
        let bench = ndc_workloads::by_name("kdtree").unwrap();
        let cfg = ArchConfig::paper_default();
        let one = profile_benchmark(&bench, cfg, Scale::Test, 1, 8);
        let two = profile_benchmark(&bench, cfg, Scale::Test, 2, 8);
        // Observation only: tenant count never changes the simulation.
        assert_eq!(one.result.total_cycles, two.result.total_cycles);
        assert_eq!(one.ledger.num_tenants(), 1);
        assert_eq!(two.ledger.num_tenants(), 2);
        assert!(two.ledger.rows()[0].requests > 0);
        assert!(two.ledger.rows()[1].requests > 0);
        // The 2-tenant rows merge back to the single-tenant row:
        // attribution partitions the charges, it never invents any.
        let mut merged = two.ledger.rows()[0].clone();
        merged.merge(&two.ledger.rows()[1]);
        assert_eq!(merged, one.ledger.rows()[0]);
        // Default-config profile runs must be lossless.
        assert_eq!(one.events_dropped, 0);
        assert!(!one.top_slowest(3).is_empty());
    }

    #[test]
    fn figure_builders_consume_evaluations() {
        let evals = vec![small_eval()];
        assert_eq!(figure2(&evals).len(), 1);
        let f3 = figure3(&evals);
        assert!(f3.windows[0].total() > 0);
        let f4 = figure4(&evals);
        assert_eq!(f4[0].schemes.len(), 7);
        assert!(!figure5(&evals[0], 30).is_empty());
        let f6 = figure6(&evals);
        let avg = breakdown_average(&f6);
        assert!(avg.iter().sum::<f64>() <= 100.0 + 1e-9);
        assert_eq!(figure15(&evals).len(), 1);
        assert_eq!(figure16(&evals).len(), 1);
        assert_eq!(table2(&evals).len(), 1);
    }

    #[test]
    fn obs_evaluation_labels_every_run_in_job_order() {
        let bench = ndc_workloads::by_name("kdtree").unwrap();
        let (e, obs) = evaluate_benchmark_obs(
            &bench,
            ArchConfig::paper_default(),
            Scale::Test,
            ObsLevel::metrics(),
        );
        // One metrics tree per simulated run: baseline + 7 schemes +
        // 2 algorithms, in fixed job order.
        assert_eq!(obs.per_run.len(), 10);
        assert_eq!(obs.per_run[0].0, "baseline");
        assert_eq!(obs.per_run[8].0, "alg1");
        assert_eq!(obs.per_run[9].0, "alg2");
        // No trace ring requested -> no event lists.
        assert!(obs.per_run_events.is_empty());
        // The baseline metrics agree with the baseline result.
        let m = &obs.per_run[0].1;
        match m.get("engine") {
            Some(ndc_obs::MetricNode::Tree(t)) => {
                assert_eq!(
                    t.counter_value("total_cycles"),
                    Some(e.baseline.total_cycles)
                );
            }
            _ => panic!("engine subtree missing"),
        }
        // The plain path is unaffected and timing-identical.
        let plain = evaluate_benchmark(&bench, ArchConfig::paper_default(), Scale::Test);
        assert_eq!(plain.baseline.total_cycles, e.baseline.total_cycles);
    }

    #[test]
    fn explain_joins_spans_provenance_and_accuracy() {
        let bench = ndc_workloads::by_name("kdtree").unwrap();
        let rep = explain_benchmark(&bench, ArchConfig::paper_default(), Scale::Test, 1);
        assert!(!rep.spans.is_empty());
        for t in &rep.spans {
            assert_eq!(t.root.partition_violation(), None);
        }
        // kdtree plans chains, so provenance carries candidate tables.
        assert!(rep
            .compiler
            .provenance
            .iter()
            .any(|p| !p.candidates.is_empty()));
        // Performed offloads yield measured means the predictions pair
        // against.
        assert!(rep.result.ndc_total() > 0);
        let measured: u64 = rep.offload.per_location.iter().map(|a| a.samples).sum();
        assert_eq!(measured, rep.result.ndc_total());
        // Top-slowest is ordered and bounded.
        let top = rep.top_slowest(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].latency() >= w[1].latency());
        }
        // Predicted means cover the locations candidates were scored
        // at.
        let pred = predicted_offload_means(&rep.compiler);
        assert!(pred.iter().any(|&p| p > 0.0));
    }

    #[test]
    fn figure17_configs_cover_the_paper_axes() {
        let configs = figure17_configs();
        assert_eq!(configs.len(), 6);
        assert!(configs.iter().any(|c| c.cfg.noc.width == 4));
        assert!(configs.iter().any(|c| c.cfg.noc.width == 6));
        assert!(configs.iter().any(|c| c.cfg.l2.size_bytes == 256 * 1024));
        assert!(configs
            .iter()
            .any(|c| c.cfg.ndc.op_class == OpClass::AddSubOnly));
    }

    #[test]
    fn k_sweep_is_monotone_in_exercised_fraction() {
        let bench = ndc_workloads::by_name("md").unwrap();
        let rows = ablation_k(&bench, ArchConfig::paper_default(), Scale::Test, &[0, 2, 8]);
        for w in rows.windows(2) {
            assert!(
                w[1].exercised_pct >= w[0].exercised_pct - 1e-9,
                "higher k must exercise at least as many opportunities"
            );
        }
    }

    #[test]
    fn markov_scheme_runs() {
        let bench = ndc_workloads::by_name("radiosity").unwrap();
        let row = ablation_markov(&bench, ArchConfig::paper_default(), Scale::Test);
        assert!(row.markov.is_finite());
        assert!(row.oracle.is_finite());
    }

    #[test]
    fn layout_pass_never_corrupts_the_program() {
        let cfg = ArchConfig::paper_default();
        for name in ["raytrace", "fft", "swim"] {
            let bench = ndc_workloads::by_name(name).unwrap();
            let prog = bench.build(Scale::Test);
            let (reprog, _) = ndc_compiler::optimize_layout(&prog, &cfg);
            // Arrays stay disjoint...
            let mut ranges: Vec<(u64, u64)> = reprog
                .arrays
                .iter()
                .map(|a| (a.base, a.base + a.size_bytes()))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "{name}: overlap after layout");
            }
            // ...and the program still simulates.
            let opts = LowerOptions {
                cores: cfg.nodes(),
                emit_busy: true,
            };
            let r = simulate(cfg, &lower(&reprog, &opts, None), Scheme::Baseline).result;
            assert!(r.total_cycles > 0);
        }
    }

    #[test]
    fn routing_ablation_reduces_router_ndc() {
        // swim's chains rely on reshaped overlap.
        let bench = ndc_workloads::by_name("swim").unwrap();
        let row = ablation_routing(&bench, ArchConfig::paper_default(), Scale::Test);
        assert!(
            row.router_ndc_without <= row.router_ndc_with,
            "reshaping can only add router meetings: {} vs {}",
            row.router_ndc_without,
            row.router_ndc_with
        );
    }

    #[test]
    fn compiled_schedules_preserve_semantics() {
        let cfg = ArchConfig::paper_default();
        for name in ["kdtree", "swim", "applu"] {
            let bench = ndc_workloads::by_name(name).unwrap();
            let prog = bench.build(Scale::Test);
            let (s1, _) = compile_algorithm1(&prog, &cfg, cfg.nodes());
            assert!(
                semantics_preserved(&prog, &s1),
                "{name}: Algorithm 1 broke semantics"
            );
            let (s2, _) =
                compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
            assert!(
                semantics_preserved(&prog, &s2),
                "{name}: Algorithm 2 broke semantics"
            );
        }
    }
}
