//! The repository benchmark.
//!
//! `ndc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds a workload's inputs (several times, to time set-up), runs
//! every job once with extra checks, then runs passes of all jobs on
//! the `ndc-par` pool for `--seconds`. Every metric is printed with its
//! unit, and the last line is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones. Any failed
//! check makes the exit code nonzero. See `README.md` for the metrics.

mod digest;
mod trace;
mod workloads;

use ndc::types::{geomean_improvement, ArchConfig, Json, SplitMix64};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use trace::{JobTrace, Span};
use workloads::{Counts, Inputs, JobOut, Workload};

const USAGE: &str = "usage: ndc-perfbench --workload <eval-sweep|compile|checked> \
     --seed <n> --seconds <s> --trace <0|1> [--inject-fault]";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// `job_tail_ms` is the highest percentile with this many samples
/// beyond it.
const TAIL_BEYOND: usize = 10;

/// Passes per timed loop, at least. Every job then has more samples
/// than `TAIL_BEYOND`, so the tail sample always comes from the
/// heaviest job rather than jumping between jobs with the pass count.
const MIN_PASSES: usize = 12;

/// `(name, unit)` of the metrics printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the metrics printed with `--trace 1`. Layer times
/// (`*_ms`) are self time per job; counts are per pass over the
/// workload's jobs. A layer a workload does not call reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("sim_insts_per_s", "1/s"),
    ("alg1_gain_pct", "%"),
    ("alg2_gain_pct", "%"),
    ("oracle_gain_pct", "%"),
    ("failed_frac", "ratio"),
    ("ndc-workloads.build_ms", "ms"),
    ("ndc-ir.setup_lower_ms", "ms"),
    ("ndc-ir.setup_insts", "count"),
    ("ndc-ir.lower_ms", "ms"),
    ("ndc-ir.trace_insts", "count"),
    ("ndc-ir.lower_insts_per_s", "1/s"),
    ("ndc-compiler.alg1_ms", "ms"),
    ("ndc-compiler.alg2_ms", "ms"),
    ("ndc-compiler.alg2_fused_ms", "ms"),
    ("ndc-compiler.chains_seen", "count"),
    ("ndc-compiler.chains_planned", "count"),
    ("ndc-compiler.planned_ratio", "ratio"),
    ("ndc-compiler.fused_chains", "count"),
    ("ndc-compiler.transforms", "count"),
    ("ndc-compiler.model_err_pct", "%"),
    ("ndc-cme.analyze_ms", "ms"),
    ("ndc-reuse.analyze_ms", "ms"),
    ("ndc-reuse.exact_ratio", "ratio"),
    ("ndc-lint.lint_ms", "ms"),
    ("ndc-lint.certificates", "count"),
    ("ndc-sim.run_ms", "ms"),
    ("ndc-sim.baseline_ms", "ms"),
    ("ndc-sim.oracle_plan_ms", "ms"),
    ("ndc-sim.oracle_guided_ms", "ms"),
    ("ndc-sim.oracle_over_baseline", "ratio"),
    ("ndc-sim.schemes_ms", "ms"),
    ("ndc-sim.compiled_ms", "ms"),
    ("ndc-sim.ns_per_inst", "ns"),
    ("ndc-sim.cycles", "count"),
    ("ndc-sim.insts", "count"),
    ("ndc-noc.messages", "count"),
    ("ndc-noc.flit_hops", "count"),
    ("ndc-noc.queueing_cycles", "count"),
    ("ndc-mem.l1_misses", "count"),
    ("ndc-mem.l2_misses", "count"),
    ("ndc-mem.mshr_stall_cycles", "count"),
    ("ndc-obs.overhead_ratio", "ratio"),
    ("ndc-obs.events", "count"),
    ("ndc-obs.spans", "count"),
    ("ndc-obs.events_dropped", "count"),
    ("ndc-obs.free_ms", "ms"),
    ("ndc-check.invariants_ms", "ms"),
    ("ndc-check.violations", "count"),
    ("ndc-check.oracle_ms", "ms"),
    ("ndc-par.busy_frac", "ratio"),
    ("ndc-par.straggler_ms", "ms"),
    ("bench.residue_ms", "ms"),
    ("bench.job_wall_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Inject one seeded `ndc_check` fault (`checked` only), to show
    /// that a failure reaches `failed_frac` and the exit code.
    inject_fault: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject_fault = false;
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?.clamp(1, 3600)),
            "--trace" => trace = Some(int()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if inject_fault && workload != Workload::Checked {
        return Err("--inject-fault applies to the checked workload only".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_fault,
    })
}

/// One timed job as the loop saw it.
struct JobRecord {
    idx: usize,
    thread: ThreadId,
    start_ns: u64,
    end_ns: u64,
    spans: Vec<Span>,
    /// Digest and failures, or the panic text.
    out: Result<(u64, Vec<String>), String>,
}

impl JobRecord {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Pass {
    traced: bool,
    wall_ns: u64,
    jobs: Vec<JobRecord>,
}

impl Pass {
    /// Wall time after the first worker went idle for good.
    fn straggler_ns(&self, pass_end: u64) -> u64 {
        let mut last_end: HashMap<ThreadId, u64> = HashMap::new();
        for j in &self.jobs {
            let e = last_end.entry(j.thread).or_default();
            *e = (*e).max(j.end_ns);
        }
        let first_idle = last_end.values().copied().min().unwrap_or(pass_end);
        pass_end.saturating_sub(first_idle)
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Never run more workers than the host has cores: `NDC_THREADS` may
/// lower the count, not raise it.
fn clamp_workers() -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = ndc_par::num_threads().min(host);
    // Set before any worker thread exists.
    std::env::set_var("NDC_THREADS", workers.to_string());
    workers
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ndc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = clamp_workers();
    let cfg = ArchConfig::paper_default();
    let epoch = Instant::now();
    println!(
        "workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Set-up, repeated; the last one's inputs are used. Each repeat
    // first frees the previous inputs, so one copy is ever resident.
    let mut setup_spans: Vec<Vec<Span>> = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for rep in 0..SETUP_REPS {
        drop(inputs.take());
        let mut tr = JobTrace::start(true, epoch, u64::MAX - rep as u64, "setup");
        inputs = Some(workloads::set_up(args.workload, args.seed, &cfg, &mut tr));
        setup_spans.push(tr.finish());
    }
    let inputs = inputs.expect("at least one set-up");
    let n = inputs.programs.len();
    let idx: Vec<usize> = (0..n).collect();
    let fault_job = args
        .inject_fault
        .then(|| SplitMix64::new(args.seed).below(n as u64) as usize);
    let fault_for = |i: usize| (Some(i) == fault_job).then_some(args.seed);
    let job_name = |i: usize| inputs.programs[i].name.as_str();

    // Verification pass: every job once, with the checks that need not
    // repeat; its digests are the reference every timed job must hit.
    // It runs one job at a time, so the memory peak it leaves does not
    // depend on which jobs happen to overlap.
    let verify_start = Instant::now();
    let verified: Vec<Result<JobOut, String>> = idx
        .iter()
        .map(|&i| {
            let mut tr = JobTrace::start(false, epoch, i as u64, "verify");
            catch_unwind(AssertUnwindSafe(|| {
                workloads::run_job(&inputs, i, &cfg, true, fault_for(i), &mut tr)
            }))
            .map_err(panic_text)
        })
        .collect();
    let peak_rss_mb = peak_rss_mb();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    for (i, v) in verified.iter().enumerate() {
        let msgs = match v {
            Ok(out) => out.failures.clone(),
            Err(p) => vec![format!("panic: {p}")],
        };
        if !msgs.is_empty() {
            failed += 1;
        }
        failures.extend(
            msgs.into_iter()
                .map(|m| format!("verify {}: {m}", job_name(i))),
        );
    }
    if args.workload == Workload::EvalSweep {
        // Faithfulness: the composed job must reproduce the library's
        // own evaluation, counter for counter, the oracle included.
        let reference = ndc::experiments::evaluate_all(cfg, ndc::workloads::Scale::Test);
        for (i, e) in reference.iter().enumerate() {
            let Ok(out) = &verified[i] else { continue };
            let expected = workloads::reference_runs(e);
            if out.runs != expected {
                failed += 1;
                let diff: Vec<&str> = expected
                    .iter()
                    .zip(&out.runs)
                    .filter(|(a, b)| a != b)
                    .map(|(a, _)| a.0.as_str())
                    .collect();
                failures.push(format!(
                    "faithfulness {}: runs differ from evaluate_benchmark: {diff:?}",
                    e.name
                ));
            }
        }
    }
    let verify_s = verify_start.elapsed().as_secs_f64();
    let reference: Vec<Option<u64>> = verified
        .iter()
        .map(|v| v.as_ref().ok().map(|o| o.digest))
        .collect();

    // Timed closed loop: each pass hands all jobs to the ndc-par pool,
    // whose workers take the next job as soon as one finishes. With
    // `--trace 1` passes alternate untraced/traced, so the tracing
    // overhead is measured on the same stretch of time.
    let budget = Duration::from_secs(args.seconds);
    let loop_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass_no = passes.len() as u64;
        let t0 = Instant::now();
        let jobs: Vec<JobRecord> = ndc_par::parallel_map(&idx, |&i| {
            let job = pass_no * n as u64 + i as u64;
            let mut tr = JobTrace::start(traced, epoch, job, "job");
            let out = catch_unwind(AssertUnwindSafe(|| {
                workloads::run_job(&inputs, i, &cfg, false, fault_for(i), &mut tr)
            }));
            let spans = tr.finish();
            JobRecord {
                idx: i,
                thread: std::thread::current().id(),
                start_ns: spans[0].start_ns,
                end_ns: spans[0].end_ns,
                out: out.map(|o| (o.digest, o.failures)).map_err(panic_text),
                spans: if traced { spans } else { Vec::new() },
            }
        });
        passes.push(Pass {
            traced,
            wall_ns: t0.elapsed().as_nanos() as u64,
            jobs,
        });
        if loop_start.elapsed() >= budget
            && passes.len() >= MIN_PASSES
            && (!args.trace || passes.len().is_multiple_of(2))
        {
            break;
        }
    }

    println!(
        "phases: set-up x{SETUP_REPS}, verification {verify_s:.2} s, timed loop {:.2} s in {} passes of {n} jobs",
        loop_start.elapsed().as_secs_f64(),
        passes.len()
    );
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_ns as f64 / 1e9))
        .collect();
    println!("pass wall times (s): {}", walls.join(" "));
    let mut attempted = n as u64;
    for j in passes.iter().flat_map(|p| &p.jobs) {
        attempted += 1;
        let msgs = match &j.out {
            Err(p) => vec![format!("panic: {p}")],
            Ok((digest, fails)) => {
                let mut m = fails.clone();
                if reference[j.idx] != Some(*digest) {
                    m.push(format!(
                        "digest {digest:#018x} differs from the verified run"
                    ));
                }
                m
            }
        };
        if !msgs.is_empty() {
            failed += 1;
            failures.extend(
                msgs.into_iter()
                    .map(|m| format!("{}: {m}", job_name(j.idx))),
            );
        }
    }

    let counts_of = |i: usize| verified[i].as_ref().ok().map(|o| &o.counts);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    end_to_end(&mut m, &setup_spans, &passes, &counts_of);
    m.insert("peak_rss_mb".into(), peak_rss_mb);
    per_layer(&mut m, &setup_spans, &passes, &verified, &counts_of);
    m.insert("failed_frac".into(), failed as f64 / attempted as f64);
    m.insert("ndc-ir.setup_insts".into(), inputs.baseline_insts as f64);

    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = m.get(*name) {
            println!("{name:<32} {v:>18.6} {unit}");
        }
    }
    let digest = digest::combine(verified.iter().map(|v| v.as_ref().map_or(0, |o| o.digest)));
    println!("digest {digest:#018x} over {n} jobs");
    if args.trace {
        print_shares(&passes);
        write_spans(&args, &setup_spans, &passes);
    }
    for f in failures.iter().take(20) {
        println!("FAIL {f}");
    }
    if failures.len() > 20 {
        println!("FAIL ... {} more", failures.len() - 20);
    }

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for (name, unit) in listed {
        let value = m.get(*name).copied().unwrap_or(0.0);
        metrics.set(*name, Json::obj().with("value", value).with("unit", *unit));
    }
    let result = Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Sums over jobs of the self time of each span name, the number of
/// jobs, and their summed wall time.
struct LayerTimes {
    self_ns: BTreeMap<&'static str, u64>,
    jobs: u64,
    wall_ns: u64,
}

fn layer_times<'a>(jobs: impl Iterator<Item = &'a JobRecord>) -> LayerTimes {
    let mut t = LayerTimes {
        self_ns: BTreeMap::new(),
        jobs: 0,
        wall_ns: 0,
    };
    for j in jobs {
        t.jobs += 1;
        t.wall_ns += j.wall_ns();
        for (s, own) in j.spans.iter().zip(trace::self_times_ns(&j.spans)) {
            *t.self_ns.entry(s.name).or_default() += own;
        }
    }
    t
}

fn span_ms<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e6
}

/// Jobs per second and simulated instructions per second: the median
/// over passes, so one pass slowed by the host does not move them.
fn throughput<'a>(
    passes: impl Iterator<Item = &'a Pass>,
    counts_of: &dyn Fn(usize) -> Option<&'a Counts>,
) -> (f64, f64) {
    let (mut jobs, mut insts): (Vec<f64>, Vec<f64>) = passes
        .map(|p| {
            let secs = p.wall_ns as f64 / 1e9;
            let sim: u64 = p
                .jobs
                .iter()
                .filter_map(|j| counts_of(j.idx).and_then(|c| c.get("ndc-sim.insts")))
                .sum();
            (p.jobs.len() as f64 / secs, sim as f64 / secs)
        })
        .unzip();
    (median(&mut jobs), median(&mut insts))
}

fn end_to_end<'a>(
    m: &mut BTreeMap<String, f64>,
    setup_spans: &[Vec<Span>],
    passes: &'a [Pass],
    counts_of: &dyn Fn(usize) -> Option<&'a Counts>,
) {
    let mut setup: Vec<f64> = setup_spans
        .iter()
        .map(|s| s[0].dur_ns() as f64 / 1e9)
        .collect();
    m.insert("setup_s".into(), median(&mut setup));
    let untraced = || passes.iter().filter(|p| !p.traced);
    let (jobs_per_s, insts_per_s) = throughput(untraced(), counts_of);
    m.insert("jobs_per_s".into(), jobs_per_s);
    m.insert("sim_insts_per_s".into(), insts_per_s);
    let mut lat: Vec<f64> = untraced()
        .flat_map(|p| &p.jobs)
        .map(|j| j.wall_ns() as f64 / 1e6)
        .collect();
    m.insert("job_p50_ms".into(), median(&mut lat));
    // `median` sorted `lat`: the tail is the sample with exactly
    // TAIL_BEYOND samples above it (the maximum if there are fewer).
    let k = lat.len().saturating_sub(TAIL_BEYOND + 1);
    let tail = lat.get(k).copied().unwrap_or(0.0);
    m.insert("job_tail_ms".into(), tail);
    println!(
        "job_tail_ms is p{:.2} of {} job samples ({} beyond it)",
        100.0 * (k + 1) as f64 / lat.len().max(1) as f64,
        lat.len(),
        lat.len() - (k + 1).min(lat.len())
    );
}

fn per_layer<'a>(
    m: &mut BTreeMap<String, f64>,
    setup_spans: &[Vec<Span>],
    passes: &'a [Pass],
    verified: &'a [Result<JobOut, String>],
    counts_of: &dyn Fn(usize) -> Option<&'a Counts>,
) {
    for (span, metric) in [
        ("ndc-workloads.build", "ndc-workloads.build_ms"),
        ("ndc-ir.setup_lower", "ndc-ir.setup_lower_ms"),
    ] {
        let mut v: Vec<f64> = setup_spans
            .iter()
            .map(|s| span_ms(s.iter().filter(|x| x.name == span)))
            .collect();
        m.insert(metric.into(), median(&mut v));
    }

    // Exact counts: one pass over the workload's jobs.
    let mut total = Counts::new();
    for out in verified.iter().filter_map(|v| v.as_ref().ok()) {
        for (k, v) in &out.counts {
            *total.entry(k).or_default() += v;
        }
    }
    let count = |k: &str| total.get(k).copied().unwrap_or(0) as f64;
    for (k, v) in &total {
        m.insert(k.to_string(), *v as f64);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert(
        "ndc-compiler.planned_ratio".into(),
        ratio(
            count("ndc-compiler.chains_planned"),
            count("ndc-compiler.chains_seen"),
        ),
    );
    m.insert(
        "ndc-reuse.exact_ratio".into(),
        ratio(count("ndc-reuse.exact_refs"), count("ndc-reuse.refs")),
    );
    let outs = || verified.iter().filter_map(|v| v.as_ref().ok());
    for (name, pick) in [
        (
            "alg1_gain_pct",
            (|g: &workloads::Gains| g.alg1) as fn(&_) -> _,
        ),
        ("alg2_gain_pct", |g| g.alg2),
        ("oracle_gain_pct", |g| g.oracle),
    ] {
        let v: Vec<f64> = outs().filter_map(|o| pick(&o.gains)).collect();
        if !v.is_empty() {
            m.insert(name.into(), geomean_improvement(&v));
        }
    }
    let errs: Vec<f64> = outs().flat_map(|o| o.model_err.iter().copied()).collect();
    if !errs.is_empty() {
        m.insert("ndc-compiler.model_err_pct".into(), ndc::types::mean(&errs));
    }
    let (checked_s, plain_s) = outs()
        .filter_map(|o| o.obs_cost)
        .fold((0.0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1));
    if plain_s > 0.0 {
        m.insert("ndc-obs.overhead_ratio".into(), checked_s / plain_s);
    }

    // Host time per layer, from the traced passes (all passes when the
    // run is untraced: then only the scheduling numbers exist).
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let layer_passes: Vec<&Pass> = if traced.is_empty() {
        passes.iter().collect()
    } else {
        traced
    };
    let mut busy_ns = 0u64;
    let mut capacity_ns = 0u64;
    let mut straggler_ns = 0u64;
    for p in &layer_passes {
        let threads: HashSet<ThreadId> = p.jobs.iter().map(|j| j.thread).collect();
        busy_ns += p.jobs.iter().map(JobRecord::wall_ns).sum::<u64>();
        capacity_ns += p.wall_ns * threads.len() as u64;
        let pass_end = p.jobs.iter().map(|j| j.start_ns).min().unwrap_or(0) + p.wall_ns;
        straggler_ns += p.straggler_ns(pass_end);
    }
    m.insert(
        "ndc-par.busy_frac".into(),
        ratio(busy_ns as f64, capacity_ns as f64),
    );
    m.insert(
        "ndc-par.straggler_ms".into(),
        straggler_ns as f64 / 1e6 / layer_passes.len().max(1) as f64,
    );
    if layer_passes.iter().all(|p| !p.traced) {
        return;
    }

    let t = layer_times(layer_passes.iter().flat_map(|p| &p.jobs));
    let per_job_ms = |ns: u64| ns as f64 / 1e6 / t.jobs.max(1) as f64;
    let mut sim_ns = 0u64;
    for (name, ns) in &t.self_ns {
        let metric = if *name == "job" {
            "bench.residue_ms".to_string()
        } else {
            format!("{name}_ms")
        };
        m.insert(metric, per_job_ms(*ns));
        if name.starts_with("ndc-sim.") {
            sim_ns += ns;
        }
    }
    m.insert("ndc-sim.run_ms".into(), per_job_ms(sim_ns));
    m.insert("bench.job_wall_ms".into(), per_job_ms(t.wall_ns));
    let ns = |name: &str| t.self_ns.get(name).copied().unwrap_or(0) as f64;
    m.insert(
        "ndc-sim.oracle_over_baseline".into(),
        ratio(
            ns("ndc-sim.oracle_plan") + ns("ndc-sim.oracle_guided"),
            ns("ndc-sim.baseline"),
        ),
    );
    let traced_jobs = || layer_passes.iter().flat_map(|p| &p.jobs);
    let sum_count = |k: &str| -> f64 {
        traced_jobs()
            .filter_map(|j| counts_of(j.idx).and_then(|c| c.get(k)))
            .sum::<u64>() as f64
    };
    m.insert(
        "ndc-sim.ns_per_inst".into(),
        ratio(sim_ns as f64, sum_count("ndc-sim.insts")),
    );
    m.insert(
        "ndc-ir.lower_insts_per_s".into(),
        ratio(sum_count("ndc-ir.trace_insts"), ns("ndc-ir.lower") / 1e9),
    );
    let (untraced_jps, _) = throughput(passes.iter().filter(|p| !p.traced), counts_of);
    let (traced_jps, _) = throughput(layer_passes.iter().copied(), counts_of);
    m.insert(
        "bench.trace_overhead_pct".into(),
        100.0 * (1.0 - ratio(traced_jps, untraced_jps)),
    );
}

/// Per-layer self time per job and its share of the job's wall time.
/// Layer self times plus the residue add up to the wall time exactly.
fn print_shares(passes: &[Pass]) {
    let t = layer_times(passes.iter().filter(|p| p.traced).flat_map(|p| &p.jobs));
    let wall = t.wall_ns.max(1) as f64;
    println!(
        "{:<28} {:>12} {:>8}",
        "layer (self time)", "ms/job", "share"
    );
    let mut rows: Vec<(&str, u64)> = t.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in &rows {
        let label = if *name == "job" { "(residue)" } else { name };
        println!(
            "{label:<28} {:>12.3} {:>7.2}%",
            *ns as f64 / 1e6 / t.jobs.max(1) as f64,
            100.0 * *ns as f64 / wall
        );
    }
    let accounted: u64 = rows.iter().map(|r| r.1).sum();
    println!(
        "accounted {:.3} ms of {:.3} ms wall over {} traced jobs",
        accounted as f64 / 1e6,
        t.wall_ns as f64 / 1e6,
        t.jobs
    );
}

/// Write the set-up spans and every traced job's spans as one Chrome
/// trace next to the benchmark's sources.
fn write_spans(args: &Args, setup_spans: &[Vec<Span>], passes: &[Pass]) {
    let spans: Vec<Span> = setup_spans
        .iter()
        .flatten()
        .chain(passes.iter().flat_map(|p| &p.jobs).flat_map(|j| &j.spans))
        .cloned()
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(&spans).render()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("ndc-perfbench: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares the metric
    /// names and units this program prints; they must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(listed)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(trace::self_times_ns(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload compile --seed 3 --seconds 5 --trace 1").is_ok());
        assert!(args("--workload compile --seed 3 --seconds 5").is_err());
        assert!(args("--workload nope --seed 3 --seconds 5 --trace 0").is_err());
        assert!(args("--workload compile --seed 3 --seconds 5 --trace 0 --inject-fault").is_err());
        assert!(args("--workload checked --seed 3 --seconds 5 --trace 0 --inject-fault").is_ok());
    }
}
