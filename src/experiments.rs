//! The evaluation harness: one function per table/figure of the paper.
//!
//! Every artifact of the paper's evaluation section maps to a function
//! here (see DESIGN.md §3 for the index), and every one returns a
//! [`Table`], which `ndc-eval` prints and commits. The expensive
//! per-benchmark work is shared through [`evaluate_benchmark`], which
//! runs the instrumented baseline, every Figure 4 scheme, and both
//! compiler algorithms once; figure-specific functions then aggregate.
//! The 20-benchmark sweeps — and, within one benchmark, the per-scheme
//! simulations — fan out on the in-tree `ndc-par` runtime (the harness
//! layer is the only parallel code; each simulation is deterministic
//! and single-threaded, and `ndc-par` returns results in input order,
//! so parallel and serial runs produce bit-identical output; set
//! `NDC_THREADS=1` to force the serial path). Nested fan-outs are
//! safe: a `parallel_map` issued from inside a worker runs serially,
//! so the per-scheme level only spawns when a benchmark is evaluated
//! on its own (e.g. `ndc-eval fig4 --bench swim`).

use crate::table::{Cell, Table};
use ndc_cme::{
    accuracy_against_sim, offload_accuracy, AccuracyReport, OffloadAccuracyReport, RefKey,
};
use ndc_compiler::{
    compile_algorithm1, compile_algorithm2, compile_coarse, outcome, Algorithm2Options,
    CandidateRecord, CompilerReport,
};
use ndc_ir::{lower, LowerOptions, Program, Schedule};
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::span::SpanTrace;
use ndc_obs::{Event, Metrics, ObsLevel};
use ndc_sim::engine::{simulate, Engine, EngineOutput};
use ndc_sim::instrument::Instrumentation;
use ndc_sim::schemes::{OracleGuide, Scheme, WaitBudget};
use ndc_sim::{SimResult, ALL_ABORT_REASONS};
use ndc_types::{
    geomean_improvement, mean, ArchConfig, NdcConfig, NdcLocation, OpClass, Pc, TraceProgram,
    WindowHistogram, ALL_NDC_LOCATIONS, BUCKET_LABELS,
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
/// `--metrics` and the [`counters`] table key their runs by these.
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

/// How every experiment lowers a program: one trace per mesh node,
/// with `Busy` runs.
fn lower_opts(cfg: &ArchConfig) -> LowerOptions {
    LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    }
}

/// The baseline and the oracle of one lowering, the one way every
/// experiment runs the oracle: the instrumented baseline plans the
/// oracle's guide, then the guided pass runs. Both passes are observed
/// at `obs`. (A guideless oracle engine would simulate the same
/// baseline again as its plan pass.)
fn baseline_and_oracle(
    cfg: ArchConfig,
    traces: &TraceProgram,
    reuse_aware: bool,
    obs: ObsLevel,
) -> (EngineOutput, EngineOutput) {
    let base = Engine::new(cfg, traces, Scheme::Baseline)
        .with_instrumentation()
        .with_obs(obs)
        .run();
    let records = &base
        .instrumentation
        .as_ref()
        .expect("instrumented run")
        .records;
    let guide = OracleGuide::build(records, traces, cfg.l1.line_bytes, reuse_aware);
    let oracle = Engine::new(cfg, traces, Scheme::Oracle { reuse_aware })
        .with_guide(&guide)
        .with_obs(obs)
        .run();
    (base, oracle)
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
    let opts = lower_opts(&cfg);
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
    // it too (`baseline_and_oracle`).
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
            // + per-reference cache counters, then the oracle it plans.
            let (base_out, out) = baseline_and_oracle(cfg, &traces, reuse_aware, obs);
            let baseline = base_out.result;
            let instrumentation = base_out.instrumentation.expect("instrumented run");
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

/// The NDC locations in the paper's breakdown order (Figures 6, 13 and
/// 14): cache, network, MC, memory.
const PAPER_ORDER: [NdcLocation; 4] = [
    NdcLocation::CacheController,
    NdcLocation::LinkBuffer,
    NdcLocation::MemoryController,
    NdcLocation::MemoryBank,
];

/// The paper labels of [`PAPER_ORDER`], the column names of its tables.
fn paper_order_labels() -> [&'static str; 4] {
    PAPER_ORDER.map(NdcLocation::paper_label)
}

/// `t` with one row per benchmark, computed in parallel (results in
/// input order).
fn per_bench(
    mut t: Table,
    benches: &[Benchmark],
    row: impl Fn(&Benchmark) -> Vec<Cell> + Sync,
) -> Table {
    for (b, cells) in benches.iter().zip(ndc_par::parallel_map(benches, row)) {
        t.row(b.name, cells);
    }
    t
}

/// `values` as one row of numeric cells.
fn nums(values: impl IntoIterator<Item = f64>) -> Vec<Cell> {
    values.into_iter().map(Cell::Num).collect()
}

// ---------------------------------------------------------------------
// Table 1: the simulated configuration.
// ---------------------------------------------------------------------

pub fn table1(cfg: &ArchConfig) -> Table {
    let mut t = Table::new("table1", "Table 1: simulated configuration", "parameter")
        .columns(&["value"], 0)
        .note("2D mesh, XY routing; line-interleaved static NUCA L2; 1 thread/core")
        .note("offloading: all arithmetic/logic ops");
    let params = [
        ("mesh width", u64::from(cfg.noc.width)),
        ("mesh height", u64::from(cfg.noc.height)),
        ("link bytes", cfg.noc.link_bytes),
        ("router pipeline cycles", cfg.noc.hop_cycles),
        ("L1 KB/node", cfg.l1.size_bytes / 1024),
        ("L1 line bytes", cfg.l1.line_bytes),
        ("L1 ways", u64::from(cfg.l1.ways)),
        ("L1 cycles", cfg.l1.latency),
        ("L2 KB/node", cfg.l2.size_bytes / 1024),
        ("L2 line bytes", cfg.l2.line_bytes),
        ("L2 ways", u64::from(cfg.l2.ways)),
        ("L2 cycles", cfg.l2.latency),
        ("memory controllers", u64::from(cfg.mem.num_controllers)),
        ("interleave KB", cfg.mem.interleave_bytes / 1024),
        ("banks/device", u64::from(cfg.mem.dram.banks_per_device)),
        ("rows/bank", cfg.mem.dram.rows_per_bank),
        ("row buffer KB", cfg.mem.dram.row_bytes / 1024),
        ("issue width", u64::from(cfg.issue_width)),
        ("MSHRs", u64::from(cfg.mshrs)),
    ];
    for (name, value) in params {
        t.row(name, vec![Cell::Int(value)]);
    }
    t
}

// ---------------------------------------------------------------------
// Table 2: CME estimation accuracy.
// ---------------------------------------------------------------------

pub fn table2(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "table2",
        "Table 2: L1/L2 miss-estimation accuracy (%)",
        "bench",
    )
    .columns(&["L1", "L2"], 1)
    .paper(nums([81.1, 72.9]));
    for e in evals {
        let a = e.cme_accuracy;
        t.row(&e.name, nums([a.l1_accuracy_pct, a.l2_accuracy_pct]));
    }
    t.aggregate_by("average", mean);
    t
}

// ---------------------------------------------------------------------
// Figure 2: arrival-window CDFs per location.
// ---------------------------------------------------------------------

/// Per-location, per-benchmark window CDF values (truncated at 50% as
/// in the paper's plots); rows are `<location>/<bench>`.
pub fn figure2(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "fig2",
        "Figure 2: arrival-window CDFs (%, truncated at 50)",
        "location/bench",
    )
    .columns(&BUCKET_LABELS, 1);
    for loc in ALL_NDC_LOCATIONS {
        for e in evals {
            let cdf = e.instrumentation.window_hist[loc.index()].cdf();
            t.row(
                format!("{}/{}", loc.paper_label(), e.name),
                nums(cdf.truncated(50.0)),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// Figure 3: breakeven vs arrival-window distributions, averaged over
// all benchmarks.
// ---------------------------------------------------------------------

pub fn figure3(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "fig3",
        "Figure 3: breakeven points vs arrival windows (% per bucket)",
        "location/series",
    )
    .columns(&BUCKET_LABELS, 1);
    for loc in ALL_NDC_LOCATIONS {
        let (mut windows, mut breakevens) =
            (WindowHistogram::default(), WindowHistogram::default());
        for e in evals {
            windows.merge(&e.instrumentation.window_hist[loc.index()]);
            breakevens.merge(&e.instrumentation.breakeven_hist[loc.index()]);
        }
        t.row(
            format!("{}/window", loc.paper_label()),
            nums(windows.percentages()),
        );
        t.row(
            format!("{}/breakeven", loc.paper_label()),
            nums(breakevens.percentages()),
        );
    }
    t
}

// ---------------------------------------------------------------------
// Figure 4: performance benefits of every scheme, and the simulated
// counters behind Figures 4, 6 and 13.
// ---------------------------------------------------------------------

/// Improvements (%) over the original program, one row per benchmark:
/// the [`figure4_schemes`] in order, then both algorithms.
pub fn figure4(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "fig4",
        "Figure 4: performance benefit over original (%)",
        "bench",
    )
    .columns(
        &[
            "default", "oracle", "w5%", "w10%", "w25%", "w50%", "lastwait", "alg1", "alg2",
        ],
        1,
    )
    .paper(nums([
        -16.7, 29.3, -15.1, -14.7, -13.9, -13.4, -4.3, 22.5, 25.2,
    ]));
    for e in evals {
        let runs = e.scheme_results.iter().chain([&e.alg1.0, &e.alg2.0]);
        t.row(&e.name, nums(runs.map(|r| e.improvement(r))));
    }
    t.aggregate_by("geomean", geomean_improvement);
    t
}

/// The simulated counters of every evaluation run, one row per
/// `<bench>/<run>` (runs under their [`run_labels`]): execution time,
/// issued instructions, NoC messages, performed NDC per location (in
/// [`ALL_NDC_LOCATIONS`] order), and the counters that say why a cycle
/// count moved — NoC queueing, MSHR and offload-table stalls, and NDC
/// fallbacks per abort reason. Counters only, so the table is identical
/// on every host.
pub fn counters(evals: &[BenchmarkEvaluation]) -> Table {
    let ndc = ALL_NDC_LOCATIONS.map(|l| format!("ndc_{}", l.paper_label()));
    let aborts = ALL_ABORT_REASONS.map(|r| format!("abort_{}", r.label()));
    let mut t = Table::new(
        "counters",
        "Simulated counters of every Figure 4 run (Figures 4, 6 and 13)",
        "bench/run",
    )
    .columns(&["total_cycles", "issued_insts", "noc_messages"], 0)
    .columns(&ndc, 0)
    .columns(
        &[
            "noc_queueing_cycles",
            "mshr_stall_cycles",
            "offload_stall_cycles",
        ],
        0,
    )
    .columns(&aborts, 0);
    for e in evals {
        for (label, r) in run_labels().into_iter().zip(e.runs()) {
            let head = [r.total_cycles, r.issued_insts, r.noc_messages];
            let stalls = [
                r.noc_queueing_cycles,
                r.mshr_stall_cycles,
                r.offload_stall_cycles,
            ];
            let cells = head
                .into_iter()
                .chain(r.ndc_performed)
                .chain(stalls)
                .chain(r.ndc_abort_reasons);
            t.row(
                format!("{}/{label}", e.name),
                cells.map(Cell::Int).collect(),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// Figure 5: consecutive arrival windows of one static instruction.
// ---------------------------------------------------------------------

/// The first `n` windows observed for the busiest PC of each benchmark
/// (missing = the operands never co-located for that instance).
pub fn figure5(evals: &[BenchmarkEvaluation], n: usize) -> Table {
    let names: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
    let mut t = Table::new(
        "fig5",
        "Figure 5: 30 consecutive arrival windows of one instruction",
        "bench",
    )
    .columns(&names, 0)
    .note("- = operands never co-located for that instance");
    for e in evals {
        let series = e
            .instrumentation
            .busiest_pc()
            .map(|pc| &e.instrumentation.pc_series[&pc]);
        let windows = series.into_iter().flatten().take(n).map(|w| Cell::from(*w));
        let padding = std::iter::repeat(Cell::Missing);
        t.row(&e.name, windows.chain(padding).take(n).collect());
    }
    t
}

// ---------------------------------------------------------------------
// Figures 6 and 13: NDC location breakdowns.
// ---------------------------------------------------------------------

/// Per-benchmark per-location breakdown (%) of where `run` performed
/// NDC, in the paper's order, with the paper's "average" bar.
fn breakdown(
    evals: &[BenchmarkEvaluation],
    t: Table,
    run: fn(&BenchmarkEvaluation) -> &SimResult,
    fraction: bool,
) -> Table {
    let mut t = t;
    for e in evals {
        let r = run(e);
        let pct = r.ndc_breakdown_pct();
        let fraction = fraction.then(|| 100.0 * r.ndc_fraction());
        t.row(
            &e.name,
            nums(PAPER_ORDER.iter().map(|l| pct[l.index()]).chain(fraction)),
        );
    }
    t.aggregate_by("average", mean);
    t
}

/// Figure 6: the oracle's NDC location distribution.
pub fn figure6(evals: &[BenchmarkEvaluation]) -> Table {
    let t = Table::new(
        "fig6",
        "Figure 6: oracle NDC location breakdown (%)",
        "bench",
    )
    .columns(&paper_order_labels(), 1)
    .paper(nums([25.9, 36.0, 21.7, 16.4]));
    breakdown(evals, t, BenchmarkEvaluation::oracle, false)
}

/// Figure 13: Algorithm 1's NDC location distribution, plus footnote
/// 6's share of arithmetic/logic instructions executed as NDC.
pub fn figure13(evals: &[BenchmarkEvaluation]) -> Table {
    let t = Table::new(
        "fig13",
        "Figure 13: Algorithm-1 NDC location breakdown (%)",
        "bench",
    )
    .columns(&paper_order_labels(), 1)
    .columns(&["ndc%"], 1)
    .paper(
        [None, None, None, None, Some(32.0)]
            .map(Cell::from)
            .to_vec(),
    )
    .note("ndc%: arithmetic/logic instructions executed as NDC (footnote 6)")
    .note("paper: similar shape to Figure 6");
    breakdown(evals, t, |e| &e.alg1.0, true)
}

// ---------------------------------------------------------------------
// Figure 14: Algorithm 1 restricted to a single component.
// ---------------------------------------------------------------------

/// Improvement (%) of Algorithm 1 with only one location enabled, in
/// the paper's order, then with all four (the Algorithm 1 bar).
pub fn figure14(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "fig14",
        "Figure 14: Algorithm 1 restricted to a single component (%)",
        "bench",
    )
    .columns(&paper_order_labels(), 1)
    .columns(&["all"], 1)
    .note(
        "the paper notes per-component sums exceed the combined run: a computation \
             performed in one component is not re-performed in another",
    );
    per_bench(t, benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        let baseline = simulate(cfg, &lower(&prog, &opts, None), Scheme::Baseline).result;
        // The five compile+lower+simulate runs are independent given
        // the shared baseline.
        let masks: Vec<u8> = PAPER_ORDER
            .iter()
            .map(|&loc| NdcConfig::only(loc))
            .chain([NdcConfig::ALL_LOCATIONS])
            .collect();
        nums(ndc_par::parallel_map(&masks, |&mask| {
            let mut c = cfg;
            c.ndc.enabled_mask = mask;
            let (sched, _) = compile_algorithm1(&prog, &c, cfg.nodes());
            simulate(c, &lower(&prog, &opts, Some(&sched)), Scheme::Compiled)
                .result
                .improvement_over(&baseline)
        }))
    })
}

// ---------------------------------------------------------------------
// Figure 15: fraction of NDC opportunities exercised by Algorithm 2.
// ---------------------------------------------------------------------

pub fn figure15(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "fig15",
        "Figure 15: NDC opportunities exercised by Algorithm 2 (%)",
        "bench",
    )
    .columns(&["exercised%"], 1)
    .paper(nums([81.8]));
    for e in evals {
        t.row(&e.name, nums([e.alg2.1.exercised_pct()]));
    }
    t.aggregate_by("average", mean);
    t
}

// ---------------------------------------------------------------------
// Figure 16: L1/L2 miss rates under Algorithms 1 and 2.
// ---------------------------------------------------------------------

pub fn figure16(evals: &[BenchmarkEvaluation]) -> Table {
    let mut t = Table::new(
        "fig16",
        "Figure 16: L1/L2 miss rates (%) under Algorithms 1 and 2",
        "bench",
    )
    .columns(&["L1 alg1", "L1 alg2", "L2 alg1", "L2 alg2"], 1)
    .note("paper: Algorithm 2's rates are lower than Algorithm 1's in all programs");
    for e in evals {
        let (a1, a2) = (&e.alg1.0, &e.alg2.0);
        let rates = [
            a1.l1.miss_rate(),
            a2.l1.miss_rate(),
            a1.l2.miss_rate(),
            a2.l2.miss_rate(),
        ];
        t.row(&e.name, nums(rates.map(|r| 100.0 * r)));
    }
    t
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

/// Run the sensitivity sweep. Each configuration runs baseline, oracle,
/// and both algorithms on every benchmark; rows are geometric means.
///
/// The whole (configuration × benchmark) grid is flattened into one
/// fan-out so a slow configuration can't serialize the sweep behind a
/// per-configuration barrier.
pub fn figure17(scale: Scale) -> Table {
    let configs = figure17_configs();
    let benches = all_benchmarks();
    let pairs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|ci| (0..benches.len()).map(move |bi| (ci, bi)))
        .collect();

    let cells: Vec<[f64; 3]> = ndc_par::parallel_map(&pairs, |&(ci, bi)| {
        let cfg = configs[ci].cfg;
        let prog = benches[bi].build(scale);
        let opts = lower_opts(&cfg);
        // Shared baseline lowering for this (config, benchmark) cell;
        // the oracle reuses it, only the algorithms re-lower.
        let traces = lower(&prog, &opts, None);
        let (base, oracle) = baseline_and_oracle(cfg, &traces, true, ObsLevel::off());
        let base = base.result;
        let compiled = |sched: &Schedule| {
            simulate(cfg, &lower(&prog, &opts, Some(sched)), Scheme::Compiled)
                .result
                .improvement_over(&base)
        };
        let (s1, _) = compile_algorithm1(&prog, &cfg, cfg.nodes());
        let (s2, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        [
            compiled(&s1),
            compiled(&s2),
            oracle.result.improvement_over(&base),
        ]
    });

    let mut t = Table::new(
        "fig17",
        "Figure 17: sensitivity study (geomean improvement %)",
        "configuration",
    )
    .columns(&["alg1", "alg2", "oracle"], 1)
    .note("paper: larger meshes help; L2 capacity is neutral; +/- restriction gives 14.1/16.5");
    for (sc, rows) in configs.iter().zip(cells.chunks(benches.len())) {
        let column = |i: usize| geomean_improvement(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        t.row(&sc.label, nums([column(0), column(1), column(2)]));
    }
    t
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
    let (sched, compiler) =
        compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
    let traces = lower(&prog, &lower_opts(&cfg), Some(&sched));
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
    let (sched, _) = compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default());
    let traces = lower(&prog, &lower_opts(&cfg), Some(&sched));
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

/// The cost model's error over every (benchmark, location) cell where
/// both models' errors are measured: the summary `explain --json`
/// reports and the model-accuracy table's `mean` and `max` rows hold.
pub struct ModelAccuracy {
    pub cells: usize,
    pub mean: f64,
    pub max: f64,
    pub mean_legacy: f64,
    pub max_legacy: f64,
}

impl ModelAccuracy {
    pub fn of(reports: &[ExplainReport]) -> ModelAccuracy {
        let (mut errs, mut legacy) = (Vec::new(), Vec::new());
        for r in reports {
            for loc in ALL_NDC_LOCATIONS {
                let a = r.offload.per_location[loc.index()].error_pct();
                let l = r.offload_legacy.per_location[loc.index()].error_pct();
                if let (Some(a), Some(l)) = (a, l) {
                    errs.push(a);
                    legacy.push(l);
                }
            }
        }
        let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
        ModelAccuracy {
            cells: errs.len(),
            mean: mean(&errs),
            max: max(&errs),
            mean_legacy: mean(&legacy),
            max_legacy: max(&legacy),
        }
    }

    /// The reuse-derived model's mean error is below the retired
    /// heuristic's.
    pub fn beats_legacy(&self) -> bool {
        self.cells > 0 && self.mean < self.mean_legacy
    }
}

/// `explain`'s cost-model cross-check: predicted (reuse model and
/// retired heuristic) vs measured offload cycles per `<location>/<bench>`,
/// each location's average error, and the mean and max over the cells
/// where both errors are measured.
pub fn model_accuracy(reports: &[ExplainReport]) -> Table {
    let mut t = Table::new(
        "model_accuracy",
        "Explain: compiler cost model vs measured offload cycles (alg2)",
        "location/bench",
    )
    .columns(&["predicted", "legacy", "measured"], 1)
    .columns(&["samples"], 0)
    .columns(&["err%", "leg-err%"], 1);
    let errors = |a: Option<f64>, l: Option<f64>| {
        let mut cells = vec![Cell::Missing; 4];
        cells.extend([a.into(), l.into()]);
        cells
    };
    for loc in PAPER_ORDER {
        let (mut errs, mut legacy) = (Vec::new(), Vec::new());
        for r in reports {
            let a = r.offload.per_location[loc.index()];
            let l = r.offload_legacy.per_location[loc.index()];
            errs.extend(a.error_pct());
            legacy.extend(l.error_pct());
            let predicted = [a.predicted_cycles, l.predicted_cycles, a.measured_cycles];
            let mut cells = nums(predicted);
            cells.extend([a.samples.into(), a.error_pct().into(), l.error_pct().into()]);
            t.row(format!("{}/{}", loc.paper_label(), r.name), cells);
        }
        let avg = |v: &[f64]| (!v.is_empty()).then(|| mean(v));
        t.aggregate(
            &format!("{}/average", loc.paper_label()),
            errors(avg(&errs), avg(&legacy)),
        );
    }
    let s = ModelAccuracy::of(reports);
    t.aggregate("mean", errors(Some(s.mean), Some(s.mean_legacy)));
    t.aggregate("max", errors(Some(s.max), Some(s.max_legacy)));
    t.note(format!(
        "mean and max over the {} cells where both errors are measured",
        s.cells
    ))
    .note(format!("model_beats_legacy: {}", s.beats_legacy()))
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// §5.4: disabling route reshaping cuts router NDC by ~40%.
pub fn ablation_routing(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "ablation_routing",
        "Ablation: route reshaping (router NDC counts)",
        "bench",
    )
    .columns(&["with", "without"], 0)
    .columns(&["drop%"], 1)
    .paper(vec![Cell::Missing, Cell::Missing, Cell::Num(40.0)])
    .note("paper: ~40% fewer router NDC; the average is over kernels with router NDC");
    let mut t = per_bench(t, benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        let (sched, _) = compile_algorithm1(&prog, &cfg, cfg.nodes());
        let mut stripped = sched.clone();
        for p in &mut stripped.precomputes {
            p.reshape_routes = false;
        }
        let router_ndc = |s: &Schedule| {
            simulate(cfg, &lower(&prog, &opts, Some(s)), Scheme::Compiled)
                .result
                .ndc_performed_at(NdcLocation::LinkBuffer)
        };
        let (with, without) = (router_ndc(&sched), router_ndc(&stripped));
        let drop = if with > 0 {
            100.0 * (with - without) as f64 / with as f64
        } else {
            0.0
        };
        vec![with.into(), without.into(), drop.into()]
    });
    let drops: Vec<f64> = t
        .rows
        .iter()
        .filter(|(_, r)| r[0] != Cell::Int(0))
        .filter_map(|(_, r)| r[2].as_f64())
        .collect();
    t.aggregate(
        "average",
        vec![Cell::Missing, Cell::Missing, mean(&drops).into()],
    );
    t
}

/// §5.4: coarse-grain (whole-nest) mapping performs poorly.
pub fn ablation_coarse(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "ablation_coarse",
        "Ablation: coarse-grain (whole-nest) mapping (%)",
        "bench",
    )
    .columns(&["fine-a1", "fine-a2", "coarse-a1", "coarse-a2"], 1)
    .paper(vec![
        Cell::Missing,
        Cell::Missing,
        Cell::Num(1.2),
        Cell::Num(2.5),
    ]);
    let mut t = per_bench(t, benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        let base = simulate(cfg, &lower(&prog, &opts, None), Scheme::Baseline).result;
        let run = |sched: &Schedule| {
            simulate(cfg, &lower(&prog, &opts, Some(sched)), Scheme::Compiled)
                .result
                .improvement_over(&base)
        };
        let (s1, _) = compile_algorithm1(&prog, &cfg, cfg.nodes());
        let (s2, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        let (c1, _) = compile_coarse(&prog, &cfg, false);
        let (c2, _) = compile_coarse(&prog, &cfg, true);
        nums([run(&s1), run(&s2), run(&c1), run(&c2)])
    });
    t.aggregate_by("geomean", geomean_improvement);
    t
}

/// Extension: sweep Algorithm 2's reuse threshold `k` (the paper's
/// future-work parameter, §5.3/§5.4); rows are `<bench>/k=<k>`.
pub fn ablation_k(benches: &[Benchmark], cfg: ArchConfig, scale: Scale, ks: &[u32]) -> Table {
    let sweeps = ndc_par::parallel_map(benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        let base = simulate(cfg, &lower(&prog, &opts, None), Scheme::Baseline).result;
        let sweep = ks.iter().map(|&k| {
            let opts2 = Algorithm2Options {
                reuse_k: k,
                ..Default::default()
            };
            let (sched, report) = compile_algorithm2(&prog, &cfg, cfg.nodes(), opts2);
            let r = simulate(cfg, &lower(&prog, &opts, Some(&sched)), Scheme::Compiled).result;
            [r.improvement_over(&base), report.exercised_pct()]
        });
        sweep.collect::<Vec<_>>()
    });
    let mut t = Table::new(
        "ablation_k",
        "Extension: Algorithm 2 reuse-threshold k sweep",
        "bench/k",
    )
    .columns(&["improve%", "exercised%"], 1)
    .note("the paper evaluates k=0 and defers tuning to future work");
    for (bench, sweep) in benches.iter().zip(sweeps) {
        for (k, cells) in ks.iter().zip(sweep) {
            t.row(format!("{}/k={k}", bench.name), nums(cells));
        }
    }
    t
}

/// Extension: the Markov-chain window predictor the paper mentions in
/// §4.4 ("even a Markov Chain-based predictor generated similar
/// results") — compared against Last-Wait and the oracle.
pub fn ablation_markov(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "ablation_markov",
        "Extension: Markov window predictor (vs Last-Wait, oracle)",
        "bench",
    )
    .columns(&["lastwait", "markov", "oracle"], 1)
    .note("paper: \"even a Markov Chain-based predictor generated similar results\" to Last-Wait");
    let mut t = per_bench(t, benches, |bench| {
        let traces = lower(&bench.build(scale), &lower_opts(&cfg), None);
        let (base, oracle) = baseline_and_oracle(cfg, &traces, true, ObsLevel::off());
        let base = base.result;
        let run = |budget| {
            simulate(cfg, &traces, Scheme::NdcAll { budget })
                .result
                .improvement_over(&base)
        };
        let oracle = oracle.result.improvement_over(&base);
        nums([run(WaitBudget::LastWindow), run(WaitBudget::Markov), oracle])
    });
    t.aggregate_by("geomean", geomean_improvement);
    t
}

/// Extension: the data-layout optimization of §5.2.1's fourth
/// challenge, applied before Algorithm 2.
pub fn ablation_layout(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "ablation_layout",
        "Extension: data-layout optimization before Algorithm 2",
        "bench",
    )
    .columns(&["without", "with-layout"], 1)
    .columns(&["aligned", "partial"], 0)
    .note("aligned: chains the shifts co-home at every point; partial: at only some points")
    .note("the paper defers bank-remapping layout optimization to a future study");
    per_bench(t, benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        // Each layout is timed against its own baseline: the layout
        // pass is a whole-program change.
        let improvement = |prog: &Program| {
            let base = simulate(cfg, &lower(prog, &opts, None), Scheme::Baseline).result;
            let (s2, _) = compile_algorithm2(prog, &cfg, cfg.nodes(), Algorithm2Options::default());
            simulate(cfg, &lower(prog, &opts, Some(&s2)), Scheme::Compiled)
                .result
                .improvement_over(&base)
        };
        let (reprog, report) = ndc_compiler::optimize_layout(&prog, &cfg);
        vec![
            improvement(&prog).into(),
            improvement(&reprog).into(),
            report.aligned.into(),
            report.partial.into(),
        ]
    })
}

// ---------------------------------------------------------------------
// Operator fusion.
// ---------------------------------------------------------------------

/// Cost-model bytes moved under a fusion-enabled schedule: planned
/// chains at their adopted target, fused packets once per group. With
/// `unfused_equiv` the fused groups are instead charged the compiler's
/// estimate of what the same members would have moved unfused
/// (individual plans at their own targets, conventional tails at their
/// near-L2 lower bound) — the like-for-like baseline of the bytes-moved
/// comparison.
fn predicted_bytes(rep: &CompilerReport, unfused_equiv: bool) -> u64 {
    let mut total = 0u64;
    let mut charged_groups = std::collections::BTreeSet::new();
    for chain in &rep.provenance {
        if chain.outcome == outcome::FUSED {
            let bytes = if unfused_equiv {
                chain.fused_unfused_bytes
            } else {
                chain.fused_predicted_bytes
            };
            if let (Some(g), Some(b)) = (chain.chain_group, bytes) {
                if charged_groups.insert(g) {
                    total = total.saturating_add(b);
                }
            }
        } else if chain.outcome == outcome::PLANNED {
            if let Some(target) = chain.final_target {
                if let Some(c) = chain.candidates.iter().find(|c| c.location == target) {
                    total = total.saturating_add(c.predicted_bytes_moved);
                }
            }
        }
    }
    total
}

/// The operator-fusion ablation: Algorithm 2 with and without
/// producer-consumer chain fusion, per workload. "Bytes moved" is the
/// compiler's cost model ([`predicted_bytes`]); conventional execution
/// returns whole cache lines to the core where an offload returns a
/// 16 B result, so the real saving is larger. Offload cycles and NoC
/// messages are measured by simulating both schedules under
/// `Scheme::Compiled`. `cuts-both` is 1 where fusion fires and cuts both
/// predicted bytes and measured offload cycles; its total counts those
/// workloads.
pub fn fusion(benches: &[Benchmark], cfg: ArchConfig, scale: Scale) -> Table {
    let t = Table::new(
        "fusion",
        "Fusion: Algorithm 2 with producer-consumer chain fusion",
        "bench",
    )
    .columns(&["chains", "ops", "bytes-unf", "bytes-fus"], 0)
    .columns(&["drop%"], 1)
    .columns(
        &[
            "offcyc-unf",
            "offcyc-fus",
            "noc-unf",
            "noc-fus",
            "cuts-both",
        ],
        0,
    )
    .note("cuts-both: fusion fires and cuts both predicted bytes and measured offload cycles");
    let mut t = per_bench(t, benches, |bench| {
        let prog = bench.build(scale);
        let opts = lower_opts(&cfg);
        let compile = |fuse| {
            let opts2 = Algorithm2Options {
                fuse,
                ..Default::default()
            };
            compile_algorithm2(&prog, &cfg, cfg.nodes(), opts2)
        };
        let ((su, _), (sf, rf)) = (compile(false), compile(true));
        let run = |sched: &Schedule| {
            simulate(cfg, &lower(&prog, &opts, Some(sched)), Scheme::Compiled).result
        };
        let (mu, mf) = (run(&su), run(&sf));
        let (bu, bf) = (predicted_bytes(&rf, true), predicted_bytes(&rf, false));
        let (cu, cf) = (
            mu.ndc_offload_cycles.iter().sum::<u64>(),
            mf.ndc_offload_cycles.iter().sum::<u64>(),
        );
        let drop = if bu > 0 {
            100.0 * (bu.saturating_sub(bf)) as f64 / bu as f64
        } else {
            0.0
        };
        let cuts_both = rf.fused_chains > 0 && bf < bu && cf < cu;
        let counts = [rf.fused_chains, rf.fused_ops, bu, bf].map(Cell::Int);
        let measured = [
            cu,
            cf,
            mu.noc_messages,
            mf.noc_messages,
            u64::from(cuts_both),
        ]
        .map(Cell::Int);
        counts
            .into_iter()
            .chain([drop.into()])
            .chain(measured)
            .collect()
    });
    t.total();
    t
}

// ---------------------------------------------------------------------
// Mesh scale-up.
// ---------------------------------------------------------------------

/// The mesh scale-up study: `bench` under Last Wait at every mesh size,
/// its work scaled with the node count. `Scale::Test` runs the 8×8 mesh
/// alone; `Scale::Paper` sweeps 5×5 to 16×16. Per row: simulated cycles
/// and issued instructions, then host wall-clock and host throughput
/// (issued instructions per second), which are printed but not written.
pub fn mesh_scale(bench: &Benchmark, scale: Scale) -> Table {
    let meshes: &[(u16, u16)] = match scale {
        Scale::Paper => &[(5, 5), (8, 8), (12, 12), (16, 16)],
        _ => &[(8, 8)],
    };
    let scheme = Scheme::NdcAll {
        budget: WaitBudget::LastWindow,
    };
    let mut t = Table::new("scale", format!("Mesh scale-up ({})", bench.name), "mesh")
        .columns(&["nodes", "sim cycles", "insts"], 0)
        .host_column("host ms", 1)
        .host_column("insts/sec", 0)
        .note(format!("scheme: {scheme:?}"));
    for &(w, h) in meshes {
        let cfg = ArchConfig::with_mesh(w, h);
        // Work scales with the mesh so per-node load stays constant:
        // the 5×5 study mesh is exactly `Scale::Test`.
        let prog = bench.build(Scale::proportional(cfg.nodes()));
        let traces = lower(&prog, &lower_opts(&cfg), None);
        let t0 = std::time::Instant::now();
        let result = Engine::new(cfg, &traces, scheme).run().result;
        let host_ns = t0.elapsed().as_nanos() as u64;
        let per_sec = result.issued_insts as f64 * 1e9 / host_ns.max(1) as f64;
        let cells = [cfg.nodes() as u64, result.total_cycles, result.issued_insts].map(Cell::Int);
        t.row(
            format!("{w}x{h}"),
            cells
                .into_iter()
                .chain(nums([host_ns as f64 / 1e6, per_sec]))
                .collect(),
        );
    }
    t
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
        // Figure 2 has one row per location and benchmark.
        assert_eq!(figure2(&evals).rows.len(), 4);
        let f3 = figure3(&evals);
        let windows: f64 = f3.rows[0].1.iter().filter_map(Cell::as_f64).sum();
        assert!(windows > 0.0 && windows <= 100.0 + 1e-6, "{windows}");
        let f4 = figure4(&evals);
        assert_eq!(f4.columns.len(), 9);
        assert!(f4.cell("kdtree", "alg1").and_then(Cell::as_f64).is_some());
        assert_eq!(counters(&evals).rows.len(), run_labels().len());
        let f5 = figure5(&evals, 30);
        assert!(f5.rows[0].1.iter().any(|c| *c != Cell::Missing));
        let f6 = figure6(&evals);
        let avg: f64 = f6.aggregates[0].1.iter().filter_map(Cell::as_f64).sum();
        assert!(avg <= 100.0 + 1e-9);
        assert_eq!(figure13(&evals).columns.len(), 5);
        assert_eq!(figure15(&evals).rows.len(), 1);
        assert_eq!(figure16(&evals).rows.len(), 1);
        assert_eq!(table2(&evals).rows.len(), 1);
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
        let t = ablation_k(
            &[bench],
            ArchConfig::paper_default(),
            Scale::Test,
            &[0, 2, 8],
        );
        let exercised: Vec<f64> = ["md/k=0", "md/k=2", "md/k=8"]
            .map(|row| t.cell(row, "exercised%").and_then(Cell::as_f64).unwrap())
            .into();
        for w in exercised.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "higher k must exercise at least as many opportunities"
            );
        }
    }

    #[test]
    fn markov_scheme_runs() {
        let bench = ndc_workloads::by_name("radiosity").unwrap();
        let t = ablation_markov(&[bench], ArchConfig::paper_default(), Scale::Test);
        for column in ["markov", "oracle"] {
            let v = t.cell("radiosity", column).and_then(Cell::as_f64).unwrap();
            assert!(v.is_finite(), "{column}: {v}");
        }
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
            let r = simulate(
                cfg,
                &lower(&reprog, &lower_opts(&cfg), None),
                Scheme::Baseline,
            )
            .result;
            assert!(r.total_cycles > 0);
        }
    }

    #[test]
    fn routing_ablation_reduces_router_ndc() {
        // swim's chains rely on reshaped overlap.
        let bench = ndc_workloads::by_name("swim").unwrap();
        let t = ablation_routing(&[bench], ArchConfig::paper_default(), Scale::Test);
        let count = |column| t.cell("swim", column).and_then(Cell::as_f64).unwrap();
        let (with, without) = (count("with"), count("without"));
        assert!(
            without <= with,
            "reshaping can only add router meetings: {without} vs {with}"
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
