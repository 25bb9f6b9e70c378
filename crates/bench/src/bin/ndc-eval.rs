//! `ndc-eval` — regenerate the paper's tables and figures.
//!
//! ```text
//! ndc-eval <experiment> [--scale test|paper] [--bench <name>]
//!                       [--metrics <out.json>] [--trace <out.trace.json>]
//!
//! experiments:
//!   table1            simulated configuration (paper Table 1)
//!   table2            CME L1/L2 estimation accuracy
//!   fig2              arrival-window CDFs per location
//!   fig3              breakeven points vs arrival windows
//!   fig4              performance benefit of every scheme
//!   fig5              consecutive arrival windows (ocean, radiosity)
//!   fig6              oracle NDC location breakdown
//!   fig13             Algorithm-1 NDC location breakdown
//!   fig14             Algorithm 1 restricted to single components
//!   fig15             NDC opportunities exercised by Algorithm 2
//!   fig16             L1/L2 miss rates under Algorithms 1 and 2
//!   fig17             sensitivity study (mesh size, L2 size, op class)
//!   explain           span traces + compiler provenance + cost-model cross-check
//!   ablation-routing  router NDC with vs without route reshaping
//!   ablation-coarse   fine-grain vs whole-nest mapping
//!   fuse              operator fusion: bytes moved + offload cycles, BENCH_fusion.json
//!   check             differential oracle + simulator invariants + fault matrix
//!   lint              static legality: certificates, bounds proofs, race report
//!   scale             mesh scale-up study (5x5 to 16x16), BENCH_scale.json
//!   fuzz              seeded IR fuzzing: generator -> compilers -> oracle -> checked sim
//!   gen               seeded corpus summary (class mix, shapes, degenerate coverage)
//!   all               everything above in sequence (except check, lint, scale, fuzz)
//!   help              full usage (also -h / --help)
//! ```
//!
//! `fuzz` drives `--count` seeded programs (seeds `--seed`, `--seed`+1,
//! ...) through every layer and exits 1 on any divergence, invariant
//! violation, or panic, printing the reproducing seed; rerun one case
//! with `ndc-eval fuzz --count 1 --seed <seed>`. The class × bottleneck
//! corpus table lands in `BENCH_fuzz_corpus.json`.
//!
//! The `explain` full sweep writes `BENCH_model_accuracy.json` and
//! `fuse` writes `BENCH_fusion.json`; at `--scale paper` they write
//! `BENCH_<name>.paper.json` instead, so a paper-scale run leaves the
//! committed test-scale baselines untouched.
//!
//! `--metrics` writes a per-run component-level breakdown (engine,
//! NDC, caches, directory, NoC links, DRAM channels) of every
//! benchmark-evaluation run as JSON; `--trace` additionally writes the
//! latest NDC offload events in Chrome trace format (load it at
//! `chrome://tracing` or Perfetto). Both apply to experiments that run
//! the shared benchmark evaluation (table2, fig2-fig6, fig13, fig15,
//! fig16); the output is byte-identical for any `NDC_THREADS`.
//!
//! `explain` cross-checks the compiler's offload cost model against
//! the simulator's measured issue→result latencies for every NDC
//! location; with `--bench` it additionally prints the per-segment
//! latency decomposition of the sampled span traces, the slowest
//! request trees, and the planner's per-chain decision provenance.
//!
//! Unknown experiments, flags, or flag values are errors (exit 2).

use ndc::experiments as exp;
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::sim::Engine;
use ndc_types::{geomean_improvement, Json, ALL_NDC_LOCATIONS, BUCKET_LABELS};

/// Ring capacity per simulated run when `--trace` is on: enough to
/// hold the tail of any test-scale run without unbounded memory.
const TRACE_RING_CAPACITY: usize = 4096;

struct Args {
    experiment: String,
    scale: Scale,
    bench: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    /// `--count` for fuzz/gen (default 256).
    count: Option<usize>,
    /// `--seed` for fuzz/gen (default 7, the acceptance seed).
    seed: Option<u64>,
    /// `--json`: machine-readable document on stdout instead of tables
    /// (profile, explain, check).
    json: bool,
    /// `--tenants` for profile (default 1, the single-tenant world).
    tenants: u16,
    /// `--top` for profile: outlier requests to show (default 5).
    top: usize,
    /// `--baseline` for gate: the committed `BENCH_*.json`.
    baseline: Option<String>,
    /// `--current` for gate: the freshly generated `BENCH_*.json`.
    current: Option<String>,
    /// `--tolerance` for gate: wall-clock ratio (default 10x).
    tolerance: f64,
}

impl Args {
    /// Observability requested on the command line.
    fn obs_level(&self) -> ObsLevel {
        match (&self.metrics, &self.trace) {
            (None, None) => ObsLevel::off(),
            (_, None) => ObsLevel::metrics(),
            (_, Some(_)) => ObsLevel::with_trace(TRACE_RING_CAPACITY),
        }
    }
}

/// Full usage text — the `help` experiment and the answer to any
/// argument error.
fn usage() {
    println!("usage: ndc-eval <experiment> [--scale test|paper] [--bench <name>]");
    println!("                             [--metrics <out.json>] [--trace <out.trace.json>]");
    println!();
    println!("experiments:");
    println!("  list              enumerate the 20 benchmarks");
    println!("  table1            simulated configuration (paper Table 1)");
    println!("  table2            CME L1/L2 estimation accuracy");
    println!("  fig2              arrival-window CDFs per location");
    println!("  fig3              breakeven points vs arrival windows");
    println!("  fig4              performance benefit of every scheme");
    println!("  fig5              consecutive arrival windows (ocean, radiosity)");
    println!("  fig6              oracle NDC location breakdown");
    println!("  fig13             Algorithm-1 NDC location breakdown");
    println!("  fig14             Algorithm 1 restricted to single components");
    println!("  fig15             NDC opportunities exercised by Algorithm 2");
    println!("  fig16             L1/L2 miss rates under Algorithms 1 and 2");
    println!("  fig17             sensitivity study (mesh size, L2 size, op class)");
    println!("  explain           span traces + compiler provenance + cost-model cross-check");
    println!("  profile           per-tenant attribution ledger + latency quantiles + outliers");
    println!("  gate              perf-regression gate: --current BENCH json vs --baseline");
    println!("  ablation-routing  router NDC with vs without route reshaping");
    println!("  ablation-coarse   fine-grain vs whole-nest mapping");
    println!("  ablation-k        Algorithm 2 reuse-threshold k sweep");
    println!("  ablation-markov   Markov window predictor vs Last-Wait");
    println!("  ablation-layout   data-layout optimization before Algorithm 2");
    println!(
        "  fuse              operator fusion: bytes moved + offload cycles, BENCH_fusion.json"
    );
    println!("  check             differential oracle + simulator invariants + fault matrix");
    println!("  lint              static legality: certificates, bounds proofs, race report");
    println!("  scale             mesh scale-up study (5x5 to 16x16), BENCH_scale.json");
    println!(
        "  fuzz              seeded IR fuzzing: generator -> compilers -> oracle -> checked sim"
    );
    println!("  gen               seeded corpus summary (class mix, shapes, degenerate coverage)");
    println!("  all               everything above in sequence (except check, lint, scale, fuzz)");
    println!("  help              this text (also -h / --help)");
    println!();
    println!("flags:");
    println!("  --scale test|paper   problem sizes (default: paper)");
    println!("  --bench <name>       restrict to one benchmark (see `list`)");
    println!("  --metrics <path>     per-run component breakdown JSON (evaluation runs)");
    println!("  --trace <path>       NDC offload events, Chrome trace format (implies metrics)");
    println!("  --count <n>          fuzz/gen: programs to generate (default: 256)");
    println!("  --seed <u64>         fuzz/gen: base seed, decimal or 0x hex (default: 7)");
    println!("  --json               profile/explain/check: JSON document on stdout");
    println!("  --tenants <n>        profile: tenants, cores assigned round-robin (default: 1)");
    println!("  --top <k>            profile: slowest sampled requests to show (default: 5)");
    println!("  --baseline <path>    gate: committed BENCH_*.json to compare against");
    println!("  --current <path>     gate: freshly generated BENCH_*.json under test");
    println!("  --tolerance <ratio>  gate: wall-clock ratio tolerance (default: 10)");
}

/// Exit 2 with an argument error (usage goes to stderr so piped
/// experiment output stays clean).
fn arg_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `ndc-eval help` for usage");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Paper;
    let mut bench = None;
    let mut metrics = None;
    let mut trace = None;
    let mut count = None;
    let mut seed = None;
    let mut json = false;
    let mut tenants = 1u16;
    let mut top = 5usize;
    let mut baseline = None;
    let mut current = None;
    let mut tolerance = bench::baseline::DEFAULT_WALL_TOLERANCE;
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| arg_error(&format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                usage();
                std::process::exit(0);
            }
            "--scale" => {
                let v = value(&mut it, "--scale");
                scale = match v.as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    other => arg_error(&format!("unknown scale '{other}' (want test|paper)")),
                };
            }
            "--bench" => bench = Some(value(&mut it, "--bench")),
            "--metrics" => metrics = Some(value(&mut it, "--metrics")),
            "--trace" => trace = Some(value(&mut it, "--trace")),
            "--count" => {
                let v = value(&mut it, "--count");
                count = Some(v.parse().unwrap_or_else(|_| {
                    arg_error(&format!("--count wants a positive integer, got '{v}'"))
                }));
            }
            "--seed" => {
                let v = value(&mut it, "--seed");
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                seed = Some(parsed.unwrap_or_else(|_| {
                    arg_error(&format!(
                        "--seed wants a u64 (decimal or 0x hex), got '{v}'"
                    ))
                }));
            }
            "--json" => json = true,
            "--tenants" => {
                let v = value(&mut it, "--tenants");
                tenants = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    arg_error(&format!("--tenants wants a positive integer, got '{v}'"))
                });
            }
            "--top" => {
                let v = value(&mut it, "--top");
                top = v.parse().unwrap_or_else(|_| {
                    arg_error(&format!("--top wants a non-negative integer, got '{v}'"))
                });
            }
            "--baseline" => baseline = Some(value(&mut it, "--baseline")),
            "--current" => current = Some(value(&mut it, "--current")),
            "--tolerance" => {
                let v = value(&mut it, "--tolerance");
                tolerance = v.parse().ok().filter(|&t| t >= 1.0).unwrap_or_else(|| {
                    arg_error(&format!("--tolerance wants a ratio >= 1.0, got '{v}'"))
                });
            }
            flag if flag.starts_with('-') => arg_error(&format!("unknown flag '{flag}'")),
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => arg_error(&format!(
                "unexpected argument '{other}' (experiment already given)"
            )),
        }
    }
    Args {
        experiment: experiment.unwrap_or_else(|| "help".into()),
        scale,
        bench,
        metrics,
        trace,
        count,
        seed,
        json,
        tenants,
        top,
        baseline,
        current,
        tolerance,
    }
}

fn benches(filter: &Option<String>) -> Vec<Benchmark> {
    match filter {
        Some(name) => vec![by_name(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark '{name}'");
            std::process::exit(1);
        })],
        None => all_benchmarks(),
    }
}

fn main() {
    let args = parse_args();
    let cfg = ArchConfig::paper_default();
    match args.experiment.as_str() {
        "list" => list_benchmarks(),
        "table1" => table1(&cfg),
        "table2" => with_evals(&args, cfg, table2_cmd),
        "fig2" => with_evals(&args, cfg, fig2),
        "fig3" => with_evals(&args, cfg, fig3),
        "fig4" => with_evals(&args, cfg, fig4),
        "fig5" => fig5(&args, cfg),
        "fig6" => with_evals(&args, cfg, fig6),
        "fig13" => with_evals(&args, cfg, fig13),
        "fig14" => fig14(&args, cfg),
        "fig15" => with_evals(&args, cfg, fig15),
        "fig16" => with_evals(&args, cfg, fig16),
        "fig17" => fig17(&args),
        "explain" => explain_cmd(&args, cfg),
        "profile" => profile_cmd(&args, cfg),
        "gate" => gate_cmd(&args),
        "ablation-routing" => ablation_routing(&args, cfg),
        "ablation-coarse" => ablation_coarse(&args, cfg),
        "ablation-k" => ablation_k(&args, cfg),
        "ablation-markov" => ablation_markov(&args, cfg),
        "ablation-layout" => ablation_layout(&args, cfg),
        "fuse" => fuse_cmd(&args, cfg),
        "check" => check_cmd(&args, cfg),
        "lint" => lint_cmd(&args, cfg),
        "scale" => scale_cmd(&args),
        "fuzz" => fuzz_cmd(&args, cfg),
        "gen" => gen_cmd(&args),
        "all" => {
            table1(&cfg);
            let evals = eval_benches(&args, cfg);
            table2_cmd(&evals);
            fig2(&evals);
            fig3(&evals);
            fig4(&evals);
            fig5(&args, cfg);
            fig6(&evals);
            fig13(&evals);
            fig14(&args, cfg);
            fig15(&evals);
            fig16(&evals);
            fig17(&args);
            explain_cmd(&args, cfg);
            ablation_routing(&args, cfg);
            ablation_coarse(&args, cfg);
            ablation_k(&args, cfg);
            ablation_markov(&args, cfg);
            ablation_layout(&args, cfg);
            fuse_cmd(&args, cfg);
        }
        "help" => usage(),
        other => arg_error(&format!("unknown experiment '{other}'")),
    }
}

/// Evaluate the selected benchmarks in parallel (ordered, deterministic)
/// and hand the slice to the printing closure.
fn with_evals(args: &Args, cfg: ArchConfig, f: impl Fn(&[exp::BenchmarkEvaluation])) {
    f(&eval_benches(args, cfg));
}

fn eval_benches(args: &Args, cfg: ArchConfig) -> Vec<exp::BenchmarkEvaluation> {
    let list = benches(&args.bench);
    let obs = args.obs_level();
    if !obs.any() {
        return ndc_par::parallel_map(&list, |b| exp::evaluate_benchmark(b, cfg, args.scale));
    }
    let pairs = ndc_par::parallel_map(&list, |b| {
        exp::evaluate_benchmark_obs(b, cfg, args.scale, obs)
    });
    let (mut evals, mut all_obs) = (Vec::new(), Vec::new());
    for (e, o) in pairs {
        evals.push(e);
        all_obs.push(o);
    }
    write_obs_outputs(args, &evals, &all_obs);
    evals
}

/// Write `--metrics` / `--trace` artifacts collected from the shared
/// benchmark evaluation. Benchmarks and runs appear in job input
/// order, so the files are byte-identical under any `NDC_THREADS`.
fn write_obs_outputs(args: &Args, evals: &[exp::BenchmarkEvaluation], all_obs: &[exp::BenchObs]) {
    if let Some(path) = &args.metrics {
        let mut bench_arr = Vec::new();
        for (e, o) in evals.iter().zip(all_obs) {
            let runs: Vec<Json> = o
                .per_run
                .iter()
                .map(|(label, m)| {
                    Json::obj()
                        .with("run", label.as_str())
                        .with("metrics", m.to_json())
                })
                .collect();
            bench_arr.push(Json::obj().with("name", e.name.as_str()).with("runs", runs));
        }
        let doc = Json::obj()
            .with("experiment", args.experiment.as_str())
            .with("scale", format!("{:?}", args.scale))
            .with("benchmarks", bench_arr);
        write_json(path, &doc);
    }
    if let Some(path) = &args.trace {
        // One Chrome-trace process per (benchmark, run); trace_json
        // assigns pids in slice order.
        let mut runs = Vec::new();
        for (e, o) in evals.iter().zip(all_obs) {
            for (label, events) in &o.per_run_events {
                runs.push((format!("{}/{}", e.name, label), events.clone()));
            }
        }
        write_json(path, &ndc::obs::trace_json(&runs));
    }
}

/// Where an experiment's `BENCH_<name>.json` artifact goes. Paper-scale
/// runs write `BENCH_<name>.paper.json` instead, so they never replace
/// the committed test-scale baselines `scripts/verify.sh` gates against.
fn bench_path(name: &str, scale: Scale) -> String {
    match scale {
        Scale::Paper => format!("BENCH_{name}.paper.json"),
        _ => format!("BENCH_{name}.json"),
    }
}

fn write_json(path: &str, doc: &Json) {
    let mut text = doc.render();
    text.push('\n');
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn list_benchmarks() {
    println!("== Benchmarks (paper §3: SPECOMP + SPLASH-2) ==");
    println!(
        "{:<10} {:<9} {:<17} {:>9} {:>7} {:>9}",
        "name", "suite", "pattern", "arrays", "nests", "KB"
    );
    for b in all_benchmarks() {
        let p = b.build(Scale::Paper);
        println!(
            "{:<10} {:<9} {:<17} {:>9} {:>7} {:>9}",
            b.name,
            format!("{:?}", b.suite),
            format!("{:?}", b.pattern),
            p.arrays.len(),
            p.nests.len(),
            p.footprint() / 1024,
        );
    }
    println!();
}

fn table1(cfg: &ArchConfig) {
    println!("== Table 1: simulated configuration ==");
    println!(
        "Mesh: {}x{} 2D mesh, XY routing, {}B links, {}-cycle router pipeline",
        cfg.noc.width, cfg.noc.height, cfg.noc.link_bytes, cfg.noc.hop_cycles
    );
    println!(
        "L1: {} KB/node, {}B lines, {}-way, {}-cycle",
        cfg.l1.size_bytes / 1024,
        cfg.l1.line_bytes,
        cfg.l1.ways,
        cfg.l1.latency
    );
    println!(
        "L2: {} KB/node, {}B lines, {}-way, {}-cycle, line-interleaved static NUCA",
        cfg.l2.size_bytes / 1024,
        cfg.l2.line_bytes,
        cfg.l2.ways,
        cfg.l2.latency
    );
    println!(
        "Memory: {} controllers, {} KB interleave, {} banks/device, {} rows/bank, {} KB row buffers",
        cfg.mem.num_controllers,
        cfg.mem.interleave_bytes / 1024,
        cfg.mem.dram.banks_per_device,
        cfg.mem.dram.rows_per_bank,
        cfg.mem.dram.row_bytes / 1024
    );
    println!(
        "Cores: {}-issue, 1 thread/core, {} MSHRs; offloading: all arithmetic/logic ops",
        cfg.issue_width, cfg.mshrs
    );
    println!();
}

fn table2_cmd(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Table 2: L1/L2 miss-estimation accuracy (%) ==");
    println!("{:<10} {:>6} {:>6}", "bench", "L1", "L2");
    let rows = exp::table2(evals);
    let (mut l1s, mut l2s) = (Vec::new(), Vec::new());
    for (name, r) in &rows {
        println!(
            "{:<10} {:>6.1} {:>6.1}",
            name, r.l1_accuracy_pct, r.l2_accuracy_pct
        );
        l1s.push(r.l1_accuracy_pct);
        l2s.push(r.l2_accuracy_pct);
    }
    println!(
        "{:<10} {:>6.1} {:>6.1}   (paper: 81.1 / 72.9)",
        "average",
        ndc_types::mean(&l1s),
        ndc_types::mean(&l2s)
    );
    println!();
}

fn fig2(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Figure 2: arrival-window CDFs (%, truncated at 50) ==");
    let loc_names = [
        "link buffer",
        "L2 controller",
        "memory controller",
        "main memory",
    ];
    let rows = exp::figure2(evals);
    for (li, lname) in loc_names.iter().enumerate() {
        println!("--- ({}) {} ---", (b'a' + li as u8) as char, lname);
        print!("{:<10}", "bench");
        for l in BUCKET_LABELS {
            print!(" {l:>6}");
        }
        println!();
        for (name, per_loc) in &rows {
            print!("{name:<10}");
            for v in per_loc[li] {
                print!(" {v:>6.1}");
            }
            println!();
        }
    }
    println!();
}

fn fig3(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Figure 3: breakeven points vs arrival windows (% per bucket) ==");
    let f3 = exp::figure3(evals);
    let loc_names = [
        "link buffer",
        "cache controller",
        "memory controller",
        "main memory",
    ];
    print!("{:<34}", "location / series");
    for l in BUCKET_LABELS {
        print!(" {l:>6}");
    }
    println!();
    for (i, lname) in loc_names.iter().enumerate() {
        print!("{:<34}", format!("{lname} arrival window"));
        for v in f3.windows[i].percentages() {
            print!(" {v:>6.1}");
        }
        println!();
        print!("{:<34}", format!("{lname} breakeven point"));
        for v in f3.breakevens[i].percentages() {
            print!(" {v:>6.1}");
        }
        println!();
    }
    println!();
}

fn fig4(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Figure 4: performance benefit over original (%) ==");
    let rows = exp::figure4(evals);
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7} {:>7}",
        "bench", "default", "oracle", "w5%", "w10%", "w25%", "w50%", "lastwait", "alg1", "alg2"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>7.1} {:>7.1}",
            r.name,
            r.schemes[0],
            r.schemes[1],
            r.schemes[2],
            r.schemes[3],
            r.schemes[4],
            r.schemes[5],
            r.schemes[6],
            r.alg1,
            r.alg2
        );
    }
    let g = |f: &dyn Fn(&exp::Figure4Row) -> f64| {
        geomean_improvement(&rows.iter().map(f).collect::<Vec<_>>())
    };
    println!(
        "{:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>7.1} {:>7.1}",
        "geomean",
        g(&|r| r.schemes[0]),
        g(&|r| r.schemes[1]),
        g(&|r| r.schemes[2]),
        g(&|r| r.schemes[3]),
        g(&|r| r.schemes[4]),
        g(&|r| r.schemes[5]),
        g(&|r| r.schemes[6]),
        g(&|r| r.alg1),
        g(&|r| r.alg2),
    );
    println!("(paper geomeans: default -16.7, oracle +29.3, wait -15.1..-13.4, lastwait -4.3, alg1 +22.5, alg2 +25.2)");
    println!();
}

fn fig5(args: &Args, cfg: ArchConfig) {
    println!("== Figure 5: 30 consecutive arrival windows of one instruction ==");
    let names = ["ocean", "radiosity"];
    let lines = ndc_par::parallel_map(&names, |name| {
        let bench = by_name(name).unwrap();
        let eval = exp::evaluate_benchmark(&bench, cfg, args.scale);
        let series = exp::figure5(&eval, 30);
        series
            .iter()
            .map(|w| w.map_or("-".into(), |c| c.to_string()))
            .collect::<Vec<String>>()
            .join(" ")
    });
    for (name, line) in names.iter().zip(&lines) {
        println!("{name:<10} {line}");
    }
    println!("(- = operands never co-located for that instance)");
    println!();
}

fn breakdown(rows: &[exp::BreakdownRow], title: &str, paper_avg: &str) {
    println!("== {title} ==");
    println!(
        "{:<10} {:>7} {:>8} {:>6} {:>7}",
        "bench", "cache", "network", "MC", "memory"
    );
    for r in rows {
        // Paper order: cache, network, MC, memory.
        println!(
            "{:<10} {:>7.1} {:>8.1} {:>6.1} {:>7.1}",
            r.name,
            r.pct[NdcLocation::CacheController.index()],
            r.pct[NdcLocation::LinkBuffer.index()],
            r.pct[NdcLocation::MemoryController.index()],
            r.pct[NdcLocation::MemoryBank.index()]
        );
    }
    let avg = exp::breakdown_average(rows);
    println!(
        "{:<10} {:>7.1} {:>8.1} {:>6.1} {:>7.1}   (paper avg: {paper_avg})",
        "average",
        avg[NdcLocation::CacheController.index()],
        avg[NdcLocation::LinkBuffer.index()],
        avg[NdcLocation::MemoryController.index()],
        avg[NdcLocation::MemoryBank.index()]
    );
    println!();
}

fn fig6(evals: &[exp::BenchmarkEvaluation]) {
    breakdown(
        &exp::figure6(evals),
        "Figure 6: oracle NDC location breakdown (%)",
        "25.9 / 36.0 / 21.7 / 16.4",
    );
}

fn fig13(evals: &[exp::BenchmarkEvaluation]) {
    breakdown(
        &exp::figure13(evals),
        "Figure 13: Algorithm-1 NDC location breakdown (%)",
        "similar shape to Figure 6",
    );
    let fracs: Vec<f64> = evals
        .iter()
        .map(|e| 100.0 * e.alg1.0.ndc_fraction())
        .collect();
    println!(
        "footnote 6: {:.1}% of arithmetic/logic instructions executed as NDC (paper: ~32%)",
        ndc_types::mean(&fracs)
    );
    println!();
}

fn fig14(args: &Args, cfg: ArchConfig) {
    println!("== Figure 14: Algorithm 1 restricted to a single component (%) ==");
    println!(
        "{:<10} {:>7} {:>8} {:>6} {:>7} {:>6}",
        "bench", "cache", "network", "MC", "memory", "all"
    );
    let list = benches(&args.bench);
    let rows = ndc_par::parallel_map(&list, |b| exp::figure14(b, cfg, args.scale));
    for r in &rows {
        println!(
            "{:<10} {:>7.1} {:>8.1} {:>6.1} {:>7.1} {:>6.1}",
            r.name,
            r.isolated[NdcLocation::CacheController.index()],
            r.isolated[NdcLocation::LinkBuffer.index()],
            r.isolated[NdcLocation::MemoryController.index()],
            r.isolated[NdcLocation::MemoryBank.index()],
            r.all
        );
    }
    println!("(the paper notes per-component sums exceed the combined run: a computation");
    println!(" performed in one component is not re-performed in another)");
    println!();
}

fn fig15(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Figure 15: NDC opportunities exercised by Algorithm 2 (%) ==");
    let rows = exp::figure15(evals);
    let mut vals = Vec::new();
    for (name, pct) in &rows {
        println!("{name:<10} {pct:>6.1}");
        vals.push(*pct);
    }
    println!(
        "{:<10} {:>6.1}   (paper avg: 81.8)",
        "average",
        ndc_types::mean(&vals)
    );
    println!();
}

fn fig16(evals: &[exp::BenchmarkEvaluation]) {
    println!("== Figure 16: L1/L2 miss rates (%) under Algorithms 1 and 2 ==");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "bench", "L1 alg1", "L1 alg2", "L2 alg1", "L2 alg2"
    );
    for r in exp::figure16(evals) {
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            r.name, r.l1_alg1, r.l1_alg2, r.l2_alg1, r.l2_alg2
        );
    }
    println!("(paper: Algorithm 2's rates are lower than Algorithm 1's in all programs)");
    println!();
}

fn fig17(args: &Args) {
    println!("== Figure 17: sensitivity study (geomean improvement %) ==");
    println!(
        "{:<32} {:>7} {:>7} {:>7}",
        "configuration", "alg1", "alg2", "oracle"
    );
    for r in exp::figure17(args.scale) {
        println!(
            "{:<32} {:>7.1} {:>7.1} {:>7.1}",
            r.label, r.alg1, r.alg2, r.oracle
        );
    }
    println!(
        "(paper: larger meshes help; L2 capacity is neutral; +/- restriction gives 14.1/16.5)"
    );
    println!();
}

/// `explain`: cross-check the compiler's offload cost model against
/// the simulator's measured issue→result-at-core latencies, per NDC
/// location, for every selected benchmark. With `--bench` the spans
/// are sampled more densely and the per-segment latency decomposition,
/// the slowest sampled request trees, and the planner's per-chain
/// decision provenance are printed too.
fn explain_cmd(args: &Args, cfg: ArchConfig) {
    let detail = args.bench.is_some();
    let one_in = if detail {
        8
    } else {
        exp::EXPLAIN_SAMPLE_ONE_IN
    };
    let list = benches(&args.bench);
    let reports = ndc_par::parallel_map(&list, |b| {
        exp::explain_benchmark(b, cfg, args.scale, one_in)
    });

    // Aggregate model accuracy over the (benchmark × location) matrix:
    // absolute relative error of the reuse-derived model and of the
    // retired CME heuristic, on exactly the cells where the simulator
    // measured offloads. The new model must beat the legacy mean —
    // `ndc-eval gate` holds this via BENCH_model_accuracy.json.
    let mut acc_rows: Vec<Json> = Vec::new();
    let mut errs_new: Vec<f64> = Vec::new();
    let mut errs_legacy: Vec<f64> = Vec::new();
    for r in &reports {
        for loc in ALL_NDC_LOCATIONS {
            let a = r.offload.per_location[loc.index()];
            let l = r.offload_legacy.per_location[loc.index()];
            let (Some(en), Some(el)) = (a.error_pct(), l.error_pct()) else {
                continue;
            };
            errs_new.push(en);
            errs_legacy.push(el);
            acc_rows.push(
                Json::obj()
                    .with("name", r.name.as_str())
                    .with("location", loc.paper_label())
                    .with("measured_cycles", a.measured_cycles)
                    .with("predicted_cycles", a.predicted_cycles)
                    .with("predicted_cycles_legacy", l.predicted_cycles)
                    .with("error_pct", en)
                    .with("error_pct_legacy", el),
            );
        }
    }
    let agg = |v: &[f64]| -> (f64, f64) {
        if v.is_empty() {
            (0.0, 0.0)
        } else {
            (ndc_types::mean(v), v.iter().cloned().fold(0.0, f64::max))
        }
    };
    let (mean_new, max_new) = agg(&errs_new);
    let (mean_legacy, max_legacy) = agg(&errs_legacy);
    let beats = !errs_new.is_empty() && mean_new < mean_legacy;
    let summary = Json::obj()
        .with("cells", errs_new.len() as u64)
        .with("mean_abs_rel_error_pct", mean_new)
        .with("max_abs_rel_error_pct", max_new)
        .with("mean_abs_rel_error_pct_legacy", mean_legacy)
        .with("max_abs_rel_error_pct_legacy", max_legacy)
        .with("model_beats_legacy", beats);
    if !detail {
        // Full-sweep accuracy artifact for the CI gate.
        let doc = Json::obj()
            .with("experiment", "model_accuracy")
            .with("scale", format!("{:?}", args.scale))
            .with("summary", summary.clone())
            .with("rows", acc_rows);
        write_json(&bench_path("model_accuracy", args.scale), &doc);
    }

    if args.json {
        let bench_arr: Vec<Json> = reports
            .iter()
            .map(|r| {
                let offload: Vec<Json> = ALL_NDC_LOCATIONS
                    .iter()
                    .map(|loc| {
                        let a = r.offload.per_location[loc.index()];
                        let l = r.offload_legacy.per_location[loc.index()];
                        Json::obj()
                            .with("location", loc.paper_label())
                            .with("predicted_cycles", a.predicted_cycles)
                            .with("predicted_cycles_legacy", l.predicted_cycles)
                            .with("measured_cycles", a.measured_cycles)
                            .with("samples", a.samples)
                            .with("error_pct", a.error_pct().map_or(Json::Null, Json::Num))
                            .with(
                                "error_pct_legacy",
                                l.error_pct().map_or(Json::Null, Json::Num),
                            )
                    })
                    .collect();
                let top: Vec<Json> = r
                    .top_slowest(5)
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .with("id", t.id)
                            .with("latency", t.latency())
                            .with("tree", ndc::sim::render_tree(t))
                    })
                    .collect();
                Json::obj()
                    .with("name", r.name.as_str())
                    .with("total_cycles", r.result.total_cycles)
                    .with("sampled_spans", r.spans.len())
                    .with("offload", offload)
                    .with("top", top)
            })
            .collect();
        let doc = Json::obj()
            .with("experiment", "explain")
            .with("scale", format!("{:?}", args.scale))
            .with("span_one_in", one_in)
            .with("model_accuracy", summary)
            .with("benchmarks", bench_arr);
        println!("{}", doc.render());
        return;
    }

    println!("== Explain: compiler cost model vs measured offload cycles (alg2) ==");
    // Paper breakdown order: cache, network, MC, memory.
    let locs = [
        NdcLocation::CacheController,
        NdcLocation::LinkBuffer,
        NdcLocation::MemoryController,
        NdcLocation::MemoryBank,
    ];
    for loc in locs {
        println!("-- {} --", loc.paper_label());
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>8} {:>7} {:>8}",
            "bench", "predicted", "legacy", "measured", "samples", "err%", "leg-err%"
        );
        let mut errs = Vec::new();
        let mut lerrs = Vec::new();
        for r in &reports {
            let a = r.offload.per_location[loc.index()];
            let l = r.offload_legacy.per_location[loc.index()];
            let err = match a.error_pct() {
                Some(e) => {
                    errs.push(e);
                    format!("{e:.1}")
                }
                None => "-".into(),
            };
            let lerr = match l.error_pct() {
                Some(e) => {
                    lerrs.push(e);
                    format!("{e:.1}")
                }
                None => "-".into(),
            };
            println!(
                "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>7} {:>8}",
                r.name,
                a.predicted_cycles,
                l.predicted_cycles,
                a.measured_cycles,
                a.samples,
                err,
                lerr
            );
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1}", ndc_types::mean(v))
            }
        };
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>8} {:>7} {:>8}",
            "average",
            "",
            "",
            "",
            "",
            avg(&errs),
            avg(&lerrs)
        );
        println!();
    }
    println!(
        "-- model accuracy over {} measured cells --",
        errs_new.len()
    );
    println!(
        "reuse model:  mean {mean_new:.1}%  max {max_new:.1}%\n\
         legacy model: mean {mean_legacy:.1}%  max {max_legacy:.1}%\n\
         model_beats_legacy: {beats}"
    );
    println!();
    if detail {
        explain_detail(&reports[0], one_in);
    }
}

/// The `--bench` detail of [`explain_cmd`]: decomposition, slowest
/// request trees, and the compiler's decision provenance.
fn explain_detail(r: &exp::ExplainReport, one_in: u32) {
    let total: u64 = r.spans.iter().map(|t| t.latency()).sum();
    println!(
        "-- {}: latency decomposition over {} sampled requests (one in {one_in}) --",
        r.name,
        r.spans.len()
    );
    println!("{:<10} {:>12} {:>7}", "segment", "cycles", "%");
    for (seg, cycles) in ndc::sim::decompose(&r.spans) {
        let pct = if total > 0 {
            100.0 * cycles as f64 / total as f64
        } else {
            0.0
        };
        println!("{seg:<10} {cycles:>12} {pct:>7.1}");
    }
    println!();

    println!("-- {}: slowest sampled requests --", r.name);
    for t in r.top_slowest(5) {
        print!("{}", ndc::sim::render_tree(t));
    }
    println!();

    println!("-- {}: compiler decision provenance (alg2) --", r.name);
    for chain in &r.compiler.provenance {
        println!(
            "nest {} stmt {}: {} (pL1 {:.2}/{:.2}, same-line {:.2})",
            chain.nest, chain.stmt, chain.outcome, chain.p_l1_a, chain.p_l1_b, chain.same_l1_line
        );
        // Fusion provenance: which packet absorbed the chain (the
        // packet's union-footprint bytes are charged once per group,
        // reconciling with the per-candidate bytes below), or why the
        // fusion pass declined.
        if let (Some(g), Some(t)) = (chain.chain_group, chain.final_target) {
            if chain.outcome == ndc::compiler::outcome::FUSED {
                println!(
                    "    fused into packet {} @ {} (union cycles={:.1} byte-hops={})",
                    g,
                    t.paper_label(),
                    chain.fused_predicted_cycles.unwrap_or(0.0),
                    chain.fused_predicted_bytes.unwrap_or(0)
                );
            }
        }
        if let Some(note) = chain.fuse_note {
            if note != ndc::compiler::fuse_note::FUSED {
                println!("    fusion declined: {note}");
            }
        }
        // The analysis facts behind the predictions: per-operand reuse
        // class and line counts with their Exact/Bound soundness tags,
        // the pair's shared/union line structure, and the hottest
        // projected NoC link of the chain's traffic.
        if let Some(ru) = &chain.reuse {
            for (slot, f) in [("a", &ru.a), ("b", &ru.b)] {
                println!(
                    "    reuse[{slot}] {}: {} l2-lines={} ({}) dram-bytes={} ({})",
                    f.array,
                    f.class.label(),
                    f.l2_lines.value,
                    f.l2_lines.tag.label(),
                    f.dram_bytes.value,
                    f.dram_bytes.tag.label()
                );
            }
            let link = match ru.max_link {
                Some((from, to)) => format!("{from}->{to} ({} B)", ru.max_link_bytes),
                None => "-".into(),
            };
            println!(
                "    reuse[pair] shared-l2-iters={} union-l2-lines={} max-link={link}",
                ru.shared_l2_iters, ru.union_l2_lines
            );
        }
        for c in &chain.candidates {
            println!(
                "    {:<8} coloc={:.2} cycles={:>8.1} legacy={:>8.1} byte-hops={:>12}  {}",
                c.location.paper_label(),
                c.colocation,
                c.predicted_cycles,
                c.predicted_cycles_legacy,
                c.predicted_bytes_moved,
                c.reason
            );
        }
    }
    println!();
}

/// One line of quantiles from a latency sketch: count plus
/// p50/p90/p99/max (blank when the sketch is empty).
fn sketch_cells(s: &ndc::obs::sketch::QuantileSketch) -> (u64, String, String, String, String) {
    let q = |p: u64| {
        s.quantile_pct(p)
            .map_or_else(|| "-".into(), |v| v.to_string())
    };
    let max = s.max().map_or_else(|| "-".into(), |v| v.to_string());
    (s.count(), q(50), q(90), q(99), max)
}

fn profile_cmd(args: &Args, cfg: ArchConfig) {
    let detail = args.bench.is_some();
    let one_in = if detail {
        8
    } else {
        exp::PROFILE_SAMPLE_ONE_IN
    };
    let list = benches(&args.bench);
    let reports = ndc_par::parallel_map(&list, |b| {
        exp::profile_benchmark(b, cfg, args.scale, args.tenants, one_in)
    });

    if args.json {
        let bench_arr: Vec<Json> = reports
            .iter()
            .map(|r| {
                let top: Vec<Json> = r
                    .top_slowest(args.top)
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .with("id", t.id)
                            .with("latency", t.latency())
                            .with("tree", ndc::sim::render_tree(t))
                    })
                    .collect();
                Json::obj()
                    .with("name", r.name.as_str())
                    .with("total_cycles", r.result.total_cycles)
                    .with("events_dropped", r.events_dropped)
                    .with("tenants", r.ledger.to_json())
                    .with("top", top)
            })
            .collect();
        let doc = Json::obj()
            .with("experiment", "profile")
            .with("scale", format!("{:?}", args.scale))
            .with("tenants", args.tenants as u64)
            .with("span_one_in", one_in)
            .with("benchmarks", bench_arr);
        println!("{}", doc.render());
        return;
    }

    println!(
        "== Profile: per-tenant attribution, {} tenant(s) round-robin over {} cores (alg2) ==",
        args.tenants,
        cfg.nodes()
    );
    for r in &reports {
        println!("-- {} --", r.name);
        println!(
            "{:<7} {:>10} {:>6} {:>10} {:>12} {:>12} {:>12}",
            "tenant", "requests", "util%", "noc_msgs", "flit_hops", "dram_bytes", "offload_cyc"
        );
        let total_cycles: u64 = r.ledger.rows().iter().map(|t| t.request_cycles).sum();
        for (t, row) in r.ledger.rows().iter().enumerate() {
            let util = if total_cycles > 0 {
                100.0 * row.request_cycles as f64 / total_cycles as f64
            } else {
                0.0
            };
            println!(
                "{:<7} {:>10} {:>6.1} {:>10} {:>12} {:>12} {:>12}",
                t,
                row.requests,
                util,
                row.noc_messages,
                row.noc_flit_hops,
                row.dram_bytes,
                row.ndc_offload_cycles.iter().sum::<u64>()
            );
        }
        println!(
            "{:<7} {:>10} {:>8} {:>8} {:>8} {:>8}   (request latency, cycles)",
            "tenant", "count", "p50", "p90", "p99", "max"
        );
        for (t, row) in r.ledger.rows().iter().enumerate() {
            let (n, p50, p90, p99, max) = sketch_cells(&row.latency);
            println!("{t:<7} {n:>10} {p50:>8} {p90:>8} {p99:>8} {max:>8}");
        }
        if r.events_dropped > 0 {
            println!("(trace ring dropped {} events)", r.events_dropped);
        }
        if detail {
            println!();
            println!(
                "-- {}: slowest sampled requests (one in {one_in}) --",
                r.name
            );
            for t in r.top_slowest(args.top) {
                print!("{}", ndc::sim::render_tree(t));
            }
        }
        println!();
    }
}

/// `gate`: compare a freshly generated `BENCH_*.json` (`--current`)
/// against a committed baseline (`--baseline`). Simulated counters
/// must match exactly; wall-clock keys gate on `--tolerance`;
/// `NDC_BENCH_REBASE=1` skips the comparison.
fn gate_cmd(args: &Args) {
    let Some(baseline) = &args.baseline else {
        arg_error("gate requires --baseline <path>");
    };
    let Some(current_path) = &args.current else {
        arg_error("gate requires --current <path>");
    };
    let text = std::fs::read_to_string(current_path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read current {current_path}: {e}");
        std::process::exit(1);
    });
    let current = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("gate: cannot parse current {current_path}: {e}");
        std::process::exit(1);
    });
    match bench::baseline::gate_against_file(baseline, &current, args.tolerance) {
        Ok(diffs) if diffs.is_empty() => {
            println!("gate: {current_path} matches baseline {baseline}");
        }
        Ok(diffs) => {
            eprintln!("gate: {current_path} DIVERGES from baseline {baseline}:");
            for d in &diffs {
                eprintln!("  {d}");
            }
            eprintln!("(rerun with NDC_BENCH_REBASE=1 to accept the new numbers)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
}

fn ablation_routing(args: &Args, cfg: ArchConfig) {
    println!("== Ablation: route reshaping (router NDC counts) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "bench", "with", "without", "drop%"
    );
    let list = benches(&args.bench);
    let rows = ndc_par::parallel_map(&list, |b| exp::ablation_routing(b, cfg, args.scale));
    let mut drops = Vec::new();
    for r in &rows {
        let drop = if r.router_ndc_with > 0 {
            100.0 * (r.router_ndc_with - r.router_ndc_without) as f64 / r.router_ndc_with as f64
        } else {
            0.0
        };
        println!(
            "{:<10} {:>10} {:>10} {:>8.1}",
            r.name, r.router_ndc_with, r.router_ndc_without, drop
        );
        if r.router_ndc_with > 0 {
            drops.push(drop);
        }
    }
    println!(
        "{:<10} {:>10} {:>10} {:>8.1}   (paper: ~40% fewer router NDC)",
        "average",
        "",
        "",
        ndc_types::mean(&drops)
    );
    println!();
}

fn ablation_k(args: &Args, cfg: ArchConfig) {
    println!("== Extension: Algorithm 2 reuse-threshold k sweep ==");
    let ks = [0u32, 1, 2, 4, 8];
    println!(
        "{:<10} {:>4} {:>10} {:>12}",
        "bench", "k", "improve%", "exercised%"
    );
    let names = if args.bench.is_some() {
        benches(&args.bench)
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
    } else {
        vec!["md", "water", "bt", "cholesky"]
    };
    let sweeps = ndc_par::parallel_map(&names, |name| {
        let b = by_name(name).unwrap();
        ndc::experiments::ablation_k(&b, cfg, args.scale, &ks)
    });
    for (name, rows) in names.iter().zip(&sweeps) {
        for r in rows {
            println!(
                "{:<10} {:>4} {:>10.1} {:>12.1}",
                name, r.k, r.improvement, r.exercised_pct
            );
        }
    }
    println!("(the paper evaluates k=0 and defers tuning to future work)");
    println!();
}

fn ablation_markov(args: &Args, cfg: ArchConfig) {
    println!("== Extension: Markov window predictor (vs Last-Wait, oracle) ==");
    println!(
        "{:<10} {:>9} {:>8} {:>8}",
        "bench", "lastwait", "markov", "oracle"
    );
    let list = benches(&args.bench);
    let rows = ndc_par::parallel_map(&list, |b| {
        ndc::experiments::ablation_markov(b, cfg, args.scale)
    });
    let (mut lw, mut mk) = (Vec::new(), Vec::new());
    for r in &rows {
        println!(
            "{:<10} {:>9.1} {:>8.1} {:>8.1}",
            r.name, r.last_wait, r.markov, r.oracle
        );
        lw.push(r.last_wait);
        mk.push(r.markov);
    }
    println!(
        "{:<10} {:>9.1} {:>8.1}          (paper: \"even a Markov Chain-based predictor\"",
        "geomean",
        geomean_improvement(&lw),
        geomean_improvement(&mk)
    );
    println!("                                      \"generated similar results\" to Last-Wait)");
    println!();
}

fn ablation_layout(args: &Args, cfg: ArchConfig) {
    println!("== Extension: data-layout optimization before Algorithm 2 ==");
    println!(
        "{:<10} {:>9} {:>12} {:>9}",
        "bench", "without", "with-layout", "aligned"
    );
    let list = benches(&args.bench);
    let rows = ndc_par::parallel_map(&list, |b| {
        ndc::experiments::ablation_layout(b, cfg, args.scale)
    });
    for r in &rows {
        println!(
            "{:<10} {:>9.1} {:>12.1} {:>9}",
            r.name, r.without, r.with_layout, r.chains_aligned
        );
    }
    println!("(the paper defers bank-remapping layout optimization to a future study)");
    println!();
}

/// `check`: run the correctness layer — the differential oracle over
/// every workload × candidate transform, the simulator invariant
/// checker on a `CheckLevel::full()` run per benchmark, and the seeded
/// fault-injection matrix proving each invariant fires. Exits 1 on any
/// failure; output is deterministic for any `NDC_THREADS`.
fn check_cmd(args: &Args, cfg: ArchConfig) {
    use ndc::check as chk;
    let quiet = args.json;
    if !quiet {
        println!("== Check: differential oracle + simulator invariants ==");
    }
    let list = benches(&args.bench);
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let mut failed = false;

    if !quiet {
        println!("-- differential oracle: reference vs every legal candidate transform --");
        println!(
            "{:<10} {:>6} {:>6} {:>8} {:>10}  result",
            "bench", "nests", "legal", "illegal", "oob-reads"
        );
    }
    let sweeps = ndc_par::parallel_map(&list, |b| {
        let prog = b.build_timesteps(args.scale, 1);
        chk::sweep_workload(&prog, 1)
    });
    let mut oracle_rows = Vec::new();
    for s in &sweeps {
        if !quiet {
            println!(
                "{:<10} {:>6} {:>6} {:>8} {:>10}  {}",
                s.workload,
                s.nests,
                s.legal_checked,
                s.illegal_skipped,
                s.oob_reads,
                if s.passed() { "ok" } else { "DIVERGED" }
            );
        }
        for f in &s.failures {
            failed = true;
            if !quiet {
                println!(
                    "    nest {} transform {:?}: {}",
                    f.nest, f.transform, f.divergence
                );
            }
        }
        oracle_rows.push(
            Json::obj()
                .with("bench", s.workload.as_str())
                .with("legal_checked", s.legal_checked as u64)
                .with("illegal_skipped", s.illegal_skipped as u64)
                .with("passed", s.passed()),
        );
    }

    if !quiet {
        println!();
        println!("-- simulator invariants: CheckLevel::full() under NdcAll w50% --");
        println!(
            "{:<10} {:>9} {:>6} {:>9} {:>6}  result",
            "bench", "requests", "links", "events", "spans"
        );
    }
    let reports = ndc_par::parallel_map(&list, |b| {
        let prog = b.build_timesteps(args.scale, 1);
        let traces = lower(&prog, &opts, None);
        let out = Engine::new(
            cfg,
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::PctOfCap(50),
            },
        )
        .with_check(chk::CheckLevel::full())
        .run();
        (b.name, out.spans.len(), chk::check_engine_output(&out))
    });
    let mut invariant_rows = Vec::new();
    for (name, spans, r) in &reports {
        if !quiet {
            println!(
                "{:<10} {:>9} {:>6} {:>9} {:>6}  {}",
                name,
                r.requests,
                r.links,
                r.events,
                spans,
                if r.ok() { "ok" } else { "VIOLATED" }
            );
        }
        let mut violations = Vec::new();
        for v in &r.violations {
            failed = true;
            if !quiet {
                println!("    {v}");
            }
            violations.push(Json::Str(v.to_string()));
        }
        invariant_rows.push(
            Json::obj()
                .with("bench", *name)
                .with("requests", r.requests as u64)
                .with("events", r.events as u64)
                .with("spans", *spans as u64)
                .with("ok", r.ok())
                .with("violations", Json::Arr(violations)),
        );
    }

    // Reuse-soundness cross-check: interpreter-measured distinct
    // line/byte footprints must equal every Exact-tagged static count
    // and never exceed a Bound-tagged one — the contract the
    // compiler's integer traffic model rests on.
    if !quiet {
        println!();
        println!("-- reuse soundness: measured footprints vs ndc-reuse static counts --");
        println!(
            "{:<10} {:>6} {:>6} {:>6}  result",
            "bench", "refs", "exact", "bound"
        );
    }
    let reuse_sums = ndc_par::parallel_map(&list, |b| {
        let prog = b.build_timesteps(args.scale, 1);
        (
            b.name,
            chk::cross_check_workload(&prog, cfg.l1.line_bytes, cfg.l2.line_bytes),
        )
    });
    let mut reuse_rows = Vec::new();
    for (name, s) in &reuse_sums {
        if !quiet {
            println!(
                "{:<10} {:>6} {:>6} {:>6}  {}",
                name,
                s.refs,
                s.exact_refs,
                s.bound_refs,
                if s.ok() { "ok" } else { "VIOLATED" }
            );
        }
        let mut violations = Vec::new();
        for v in &s.violations {
            failed = true;
            if !quiet {
                println!("    {v}");
            }
            violations.push(Json::Str(v.clone()));
        }
        reuse_rows.push(
            Json::obj()
                .with("bench", *name)
                .with("refs", s.refs as u64)
                .with("exact_refs", s.exact_refs as u64)
                .with("bound_refs", s.bound_refs as u64)
                .with("ok", s.ok())
                .with("violations", Json::Arr(violations)),
        );
    }

    // Fault matrices: a checked kdtree run, with every stream-level and
    // ledger-level fault class injected into a clean copy — each must
    // draw exactly the invariant that guards against it.
    if !quiet {
        println!();
        println!("-- fault-injection matrix: kdtree under NdcAll w50%, seed 0xC0FFEE --");
    }
    let prog = by_name("kdtree").unwrap().build_timesteps(args.scale, 1);
    let traces = lower(&prog, &opts, None);
    let out = Engine::new(
        cfg,
        &traces,
        Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        },
    )
    .with_check(chk::CheckLevel::full())
    .run();
    let clean_result = out.result;
    let clean_data = out.check.expect("checked run records CheckData");
    let clean_ledger = out.ledger.expect("checked run collects the ledger");
    let mut fault_rows = Vec::new();
    if !quiet {
        println!("{:<24} {:<20}  result", "fault", "invariant");
    }
    let mut fault_row = |label: &str, invariant: &str, tripped: bool| {
        if !quiet {
            println!(
                "{:<24} {:<20}  {}",
                label,
                invariant,
                if tripped { "tripped" } else { "MISSED" }
            );
        }
        fault_rows.push(
            Json::obj()
                .with("fault", label)
                .with("invariant", invariant)
                .with("tripped", tripped),
        );
    };
    for (k, fault) in chk::ALL_FAULTS.iter().enumerate() {
        let mut data = clean_data.clone();
        let mut result = clean_result.clone();
        let injected = chk::inject(&mut data, &mut result, *fault, 0xC0FFEE + k as u64);
        let report = chk::check_run(&data, &result);
        let tripped = injected && report.violated(fault.expected_invariant());
        if !tripped {
            failed = true;
        }
        fault_row(fault.label(), fault.expected_invariant().label(), tripped);
    }
    for (k, fault) in chk::ALL_LEDGER_FAULTS.iter().enumerate() {
        let mut ledger = clean_ledger.clone();
        let injected = chk::inject_ledger(&mut ledger, *fault, 0xC0FFEE + k as u64);
        let violations = chk::check_ledger(&ledger, &clean_data, &clean_result);
        let tripped = injected
            && violations
                .iter()
                .any(|v| v.invariant == fault.expected_invariant());
        if !tripped {
            failed = true;
        }
        fault_row(fault.label(), fault.expected_invariant().label(), tripped);
    }
    {
        // A deliberately corrupted reuse vector must trip the
        // reuse-soundness cross-check.
        let mut report = ndc::reuse::analyze_program(&prog, cfg.l1.line_bytes, cfg.l2.line_bytes);
        let injected = chk::inject_reuse(&mut report, 0xC0FFEE);
        let sum =
            ndc::reuse::cross_check_program(&prog, &report, cfg.l1.line_bytes, cfg.l2.line_bytes);
        let tripped = injected && !sum.ok();
        if !tripped {
            failed = true;
        }
        fault_row(chk::CORRUPTED_REUSE_VECTOR, chk::REUSE_SOUNDNESS, tripped);
    }

    if quiet {
        let doc = Json::obj()
            .with("experiment", "check")
            .with("scale", format!("{:?}", args.scale))
            .with("oracle", Json::Arr(oracle_rows))
            .with("invariants", Json::Arr(invariant_rows))
            .with("reuse", Json::Arr(reuse_rows))
            .with("faults", Json::Arr(fault_rows))
            .with("ok", !failed);
        println!("{}", doc.render());
        if failed {
            std::process::exit(1);
        }
        return;
    }
    println!();
    if failed {
        println!("check: FAILED");
        std::process::exit(1);
    }
    println!("check: oracle clean, all invariants hold, every fault class detected");
    println!();
}

/// `lint`: run the static legality layer — IR verifier, affine bounds
/// prover, GCD/Banerjee refinement, `T·D` certificate engine, and race
/// detector — over every selected workload and both compiled schedules,
/// then the schedule-fault matrix proving each injected compiler bug
/// class draws exactly the lint error that guards against it. Exits 1
/// on any lint error, unproven bound, failed certificate
/// re-verification, or missed fault; output is deterministic for any
/// `NDC_THREADS`.
///
/// With `--bench` the per-workload detail is printed too: each
/// certificate's witnesses, the race report, and a deliberately-illegal
/// candidate transform with its printed certificate failure.
fn lint_cmd(args: &Args, cfg: ArchConfig) {
    println!("== Lint: static legality of every workload and shipped schedule ==");
    let list = benches(&args.bench);
    let mut failed = false;

    println!(
        "{:<10} {:<5} {:>7} {:>9} {:>8} {:>6} {:>6} {:>11}  result",
        "bench", "alg", "errors", "unproven", "refined", "races", "certs", "transforms"
    );
    let rows = ndc_par::parallel_map(&list, |b| {
        let prog = b.build_timesteps(args.scale, 1);
        let (s1, r1) = compile_algorithm1(&prog, &cfg, cfg.nodes());
        let (s2, r2) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        let out = [("alg1", s1, r1), ("alg2", s2, r2)].map(|(alg, sched, rep)| {
            let lint = ndc::lint::lint_schedule(&prog, &sched);
            // Every certificate the compiler attached must re-verify
            // independently against the IR — not just lint cleanly.
            let certs_ok = rep.certificates.iter().all(|c| {
                prog.nests
                    .iter()
                    .find(|n| n.id == c.nest)
                    .is_some_and(|n| ndc::lint::verify_certificate(n, c).is_ok())
            });
            (alg, rep.transforms_applied, lint, certs_ok)
        });
        (prog, out)
    });
    for (_, out) in &rows {
        for (alg, transforms, lint, certs_ok) in out {
            let ok = lint.accepted() && *certs_ok;
            if !ok {
                failed = true;
            }
            println!(
                "{:<10} {:<5} {:>7} {:>9} {:>8} {:>6} {:>6} {:>11}  {}",
                lint.workload,
                alg,
                lint.errors.len(),
                lint.unproven_bounds(),
                lint.refine.total(),
                lint.races.len(),
                lint.certificates.len(),
                transforms,
                if ok { "ok" } else { "REJECTED" }
            );
            for e in &lint.errors {
                println!("    {e}");
            }
            if !certs_ok {
                println!("    certificate re-verification FAILED");
            }
        }
    }

    println!();
    println!("-- schedule-fault matrix: corrupted schedules must draw their lint error --");
    println!("{:<24} {:<10} {:<26}  result", "fault", "bench", "expected");
    for (k, fault) in ndc::check::ALL_SCHEDULE_FAULTS.iter().enumerate() {
        // First selected workload with an injection site (deterministic).
        let mut drawn = None;
        for (prog, _) in &rows {
            let mut sched = Schedule::default();
            if !ndc::check::inject_schedule(prog, &mut sched, *fault, 0xC0FFEE + k as u64) {
                continue;
            }
            let report = ndc::lint::lint_schedule(prog, &sched);
            let hit = report
                .errors
                .iter()
                .any(|e| e.label() == fault.expected_lint());
            drawn = Some((prog.name.clone(), hit));
            break;
        }
        let (bench, hit) = drawn.unwrap_or(("-".into(), false));
        if !hit {
            failed = true;
        }
        println!(
            "{:<24} {:<10} {:<26}  {}",
            fault.label(),
            bench,
            fault.expected_lint(),
            if hit { "drawn" } else { "MISSED" }
        );
    }

    if args.bench.is_some() {
        lint_detail(&rows[0].0, &rows[0].1);
    }

    println!();
    if failed {
        println!("lint: FAILED");
        std::process::exit(1);
    }
    println!("lint: all schedules certified, all bounds proven, every fault class drawn");
    println!();
}

/// The `--bench` detail of [`lint_cmd`]: certificate witnesses, the
/// race report, and a deliberately-illegal transform with its printed
/// certificate failure.
fn lint_detail(prog: &Program, out: &[(&str, u64, ndc::lint::LintReport, bool); 2]) {
    println!();
    println!("-- {}: certificates (alg1/alg2) --", prog.name);
    let mut any = false;
    for (alg, _, lint, _) in out {
        for cert in &lint.certificates {
            any = true;
            println!(
                "{alg}: nest {} transform {:?}: {} witnesses, {} edges refined away",
                cert.nest.0,
                cert.transform,
                cert.witnesses.len(),
                cert.refined_away
            );
            for w in &cert.witnesses {
                println!(
                    "    stmt {} -> stmt {} on array {}: T·{:?} = {:?}, pivot {}",
                    w.src.0, w.dst.0, w.array.0, w.distance, w.image, w.pivot
                );
            }
        }
    }
    if !any {
        println!("(no transforms adopted; identity schedules need no certificate)");
    }

    println!();
    println!(
        "-- {}: race report (parallel-partition dimension) --",
        prog.name
    );
    let races = &out[0].2.races;
    if races.is_empty() {
        println!("(no loop-carried dependence crosses the partitioned dimension)");
    }
    for r in races {
        println!("{r}");
    }

    println!();
    println!(
        "-- {}: a deliberately-illegal transform, refused --",
        prog.name
    );
    let mut shown = false;
    'nests: for nest in &prog.nests {
        let identity = ndc::ir::IMat::identity(nest.depth());
        for t in ndc::ir::matrix::candidate_transforms(nest.depth(), 1) {
            if t == identity {
                continue;
            }
            if let Err(e) = ndc::lint::certify(nest, &t) {
                println!("nest {} transform {:?}:", nest.id.0, t);
                println!("    {e}");
                shown = true;
                break 'nests;
            }
        }
    }
    if !shown {
        println!("(every skew-1 candidate on every nest is legal for this workload)");
    }
}

fn ablation_coarse(args: &Args, cfg: ArchConfig) {
    println!("== Ablation: coarse-grain (whole-nest) mapping (%) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>11} {:>11}",
        "bench", "fine-a1", "fine-a2", "coarse-a1", "coarse-a2"
    );
    let list = benches(&args.bench);
    let rows = ndc_par::parallel_map(&list, |b| exp::ablation_coarse(b, cfg, args.scale));
    let (mut c1s, mut c2s) = (Vec::new(), Vec::new());
    for r in &rows {
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
            r.name, r.fine_alg1, r.fine_alg2, r.coarse_alg1, r.coarse_alg2
        );
        c1s.push(r.coarse_alg1);
        c2s.push(r.coarse_alg2);
    }
    println!(
        "{:<10} {:>9} {:>9} {:>11.1} {:>11.1}   (paper: 1.2 / 2.5)",
        "geomean",
        "",
        "",
        geomean_improvement(&c1s),
        geomean_improvement(&c2s)
    );
    println!();
}

/// `scale` — the mesh scale-up study: one workload simulated at every
/// mesh size, its work scaled with the node count. Per row: simulated
/// cycles and issued instructions, then host wall-clock and host
/// throughput (issued instructions per second). Only the simulated
/// counters land in `BENCH_scale.json`, so the file is identical on
/// every host; the host columns stay on stdout.
///
/// `NDC_BENCH_FAST=1` shrinks the sweep to the 8×8 mesh for CI.
fn scale_cmd(args: &Args) {
    use std::time::Instant;

    let fast = std::env::var("NDC_BENCH_FAST").is_ok();
    let meshes: &[(u16, u16)] = if fast {
        &[(8, 8)]
    } else {
        &[(5, 5), (8, 8), (12, 12), (16, 16)]
    };
    let name = args.bench.as_deref().unwrap_or("ocean");
    let bench = by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    });
    let scheme = Scheme::NdcAll {
        budget: WaitBudget::LastWindow,
    };

    println!("== Mesh scale-up ({name}) ==");
    println!(
        "{:<7} {:>6} {:>14} {:>12} {:>10} {:>12}",
        "mesh", "nodes", "sim cycles", "insts", "host ms", "insts/sec"
    );

    let mut rows: Vec<Json> = Vec::new();
    for &(w, h) in meshes {
        let cfg = ArchConfig::with_mesh(w, h);
        // Work scales with the mesh so per-node load stays constant:
        // the 5×5 study mesh is exactly `Scale::Test`.
        let prog = bench.build(Scale::proportional(cfg.nodes()));
        let opts = LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        };
        let traces = lower(&prog, &opts, None);

        let t0 = Instant::now();
        let result = Engine::new(cfg, &traces, scheme).run().result;
        let host_ns = t0.elapsed().as_nanos() as u64;
        let per_sec = result.issued_insts as f64 * 1e9 / host_ns.max(1) as f64;
        println!(
            "{:<7} {:>6} {:>14} {:>12} {:>10.1} {:>12.0}",
            format!("{w}x{h}"),
            cfg.nodes(),
            result.total_cycles,
            result.issued_insts,
            host_ns as f64 / 1e6,
            per_sec
        );
        rows.push(
            Json::obj()
                .with("mesh", format!("{w}x{h}"))
                .with("nodes", cfg.nodes())
                .with("simulated_cycles", result.total_cycles)
                .with("issued_insts", result.issued_insts),
        );
    }

    let doc = Json::obj()
        .with("experiment", "scale")
        .with("benchmark", name)
        .with("scheme", format!("{scheme:?}"))
        .with("fast", fast)
        .with("rows", rows);
    write_json("BENCH_scale.json", &doc);
}

/// `fuse`: the operator-fusion ablation — Algorithm 2 with and without
/// producer-consumer chain fusion, per workload. "Bytes moved" is the
/// compiler's cost model over the fused schedule's chains: a planned
/// chain is charged its adopted candidate's predicted bytes, a fused
/// packet its union footprint exactly once (arrays gathered by several
/// members are not double-counted), and the unfused baseline charges
/// each packet what its members would have moved individually —
/// individual plans at their own adopted targets, conventional tails
/// at their near-L2 lower bound (conventional execution returns whole
/// cache lines to the core where an offload returns a 16 B result, so
/// the real saving is larger). Offload cycles and NoC messages are
/// measured by simulating both schedules under `Scheme::Compiled`.
/// Results land in `BENCH_fusion.json` (`BENCH_fusion.paper.json` at
/// paper scale); rows are deterministic for any `NDC_THREADS`.
fn fuse_cmd(args: &Args, cfg: ArchConfig) {
    use ndc::compiler::outcome;
    use std::collections::BTreeSet;

    /// Cost-model bytes moved under the fusion-enabled schedule:
    /// planned chains at their adopted target, fused packets once per
    /// group. With `unfused_equiv` the fused groups are instead
    /// charged the compiler's estimate of what the same members would
    /// have moved unfused (individual plans at their own targets,
    /// conventional tails at their near-L2 lower bound) — the
    /// like-for-like baseline of the bytes-moved comparison.
    fn predicted_bytes(rep: &CompilerReport, unfused_equiv: bool) -> u64 {
        let mut total = 0u64;
        let mut charged_groups: BTreeSet<u32> = BTreeSet::new();
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

    println!("== Fusion: Algorithm 2 with producer-consumer chain fusion ==");
    println!(
        "{:<10} {:>6} {:>4} {:>12} {:>12} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "bench",
        "chains",
        "ops",
        "bytes-unf",
        "bytes-fus",
        "drop%",
        "offcyc-unf",
        "offcyc-fus",
        "noc-unf",
        "noc-fus"
    );
    let list = benches(&args.bench);
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let rows = ndc_par::parallel_map(&list, |b| {
        let prog = b.build(args.scale);
        let (su, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
        let (sf, rf) = compile_algorithm2(
            &prog,
            &cfg,
            cfg.nodes(),
            Algorithm2Options {
                fuse: true,
                ..Default::default()
            },
        );
        let run = |sched: &Schedule| {
            simulate(cfg, &lower(&prog, &opts, Some(sched)), Scheme::Compiled).result
        };
        let (mu, mf) = (run(&su), run(&sf));
        (
            b.name,
            rf.fused_chains,
            rf.fused_ops,
            predicted_bytes(&rf, true),
            predicted_bytes(&rf, false),
            mu.ndc_offload_cycles.iter().sum::<u64>(),
            mf.ndc_offload_cycles.iter().sum::<u64>(),
            mu.noc_messages,
            mf.noc_messages,
        )
    });

    let mut json_rows: Vec<Json> = Vec::new();
    let mut reduced_both = 0usize;
    let mut total_chains = 0u64;
    for &(name, chains, ops, bu, bf, cu, cf, nu, nf) in &rows {
        let drop_pct = if bu > 0 {
            100.0 * (bu.saturating_sub(bf)) as f64 / bu as f64
        } else {
            0.0
        };
        println!(
            "{:<10} {:>6} {:>4} {:>12} {:>12} {:>6.1} {:>12} {:>12} {:>10} {:>10}",
            name, chains, ops, bu, bf, drop_pct, cu, cf, nu, nf
        );
        total_chains += chains;
        if chains > 0 && bf < bu && cf < cu {
            reduced_both += 1;
        }
        json_rows.push(
            Json::obj()
                .with("name", name)
                .with("fused_chains", chains)
                .with("fused_ops", ops)
                .with("predicted_bytes_unfused", bu)
                .with("predicted_bytes_fused", bf)
                .with("offload_cycles_unfused", cu)
                .with("offload_cycles_fused", cf)
                .with("noc_messages_unfused", nu)
                .with("noc_messages_fused", nf),
        );
    }
    println!();
    println!(
        "fused chains: {total_chains}   workloads with fewer predicted bytes AND \
         fewer measured offload cycles: {reduced_both}"
    );

    let doc = Json::obj()
        .with("experiment", "fuse")
        .with("scale", format!("{:?}", args.scale))
        .with("fused_chains", total_chains)
        .with("workloads_reduced_bytes_and_cycles", reduced_both as u64)
        .with("rows", json_rows);
    write_json(&bench_path("fusion", args.scale), &doc);
}

/// `fuzz`: drive `--count` seeded programs (seeds `--seed`, `--seed`+1,
/// ...) through the whole stack — generator, verifier + bounds prover,
/// both compiler algorithms, schedule lint, the differential oracle,
/// structured lowering, and the checked simulator — then classify each
/// simulated run with the DAMOV-style bottleneck taxonomy. Prints the
/// class × bottleneck corpus table, writes `BENCH_fuzz_corpus.json`,
/// and exits 1 on any failure with the seed that reproduces it.
/// Deterministic for any `NDC_THREADS`.
fn fuzz_cmd(args: &Args, cfg: ArchConfig) {
    use ndc::fuzz::{fuzz_batch, CorpusTable};
    use ndc::workloads::gen::GenClass;
    let count = args.count.unwrap_or(256);
    let seed = args.seed.unwrap_or(7);
    println!("== Fuzz: {count} seeded programs from base seed {seed:#x}, full pipeline ==");
    let outcomes = fuzz_batch(seed, count, &cfg);
    let table = CorpusTable::build(&outcomes);

    println!();
    println!("-- corpus coverage: access-pattern class x bottleneck --");
    println!(
        "{:<17} {:>9} {:>9} {:>9} {:>9}",
        "class", "programs", "compute", "dram-bw", "noc"
    );
    let mut class_rows: Vec<Json> = Vec::new();
    for (ci, class) in GenClass::ALL.iter().enumerate() {
        println!(
            "{:<17} {:>9} {:>9} {:>9} {:>9}",
            class.label(),
            table.per_class[ci],
            table.cells[ci][0],
            table.cells[ci][1],
            table.cells[ci][2],
        );
        class_rows.push(
            Json::obj()
                .with("class", class.label())
                .with("programs", table.per_class[ci] as u64)
                .with("compute", table.cells[ci][0] as u64)
                .with("dram_bw", table.cells[ci][1] as u64)
                .with("noc", table.cells[ci][2] as u64),
        );
    }

    let planned1: u64 = outcomes.iter().map(|o| o.alg1_planned).sum();
    let planned2: u64 = outcomes.iter().map(|o| o.alg2_planned).sum();
    let oracle_legal: usize = outcomes.iter().map(|o| o.oracle_legal).sum();
    println!();
    println!(
        "alg1 chains planned: {planned1}   alg2 chains planned: {planned2}   \
         oracle-verified transforms: {oracle_legal}"
    );

    let mut failure_rows: Vec<Json> = Vec::new();
    for o in outcomes.iter().filter(|o| !o.passed()) {
        println!();
        println!(
            "FAIL seed {:#018x} (reproduce: ndc-eval fuzz --count 1 --seed {:#x})",
            o.seed, o.seed
        );
        for f in &o.failures {
            println!("  {f}");
        }
        failure_rows.push(
            Json::obj().with("seed", format!("{:#x}", o.seed)).with(
                "failures",
                o.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            ),
        );
    }

    let doc = Json::obj()
        .with("experiment", "fuzz")
        .with("base_seed", format!("{seed:#x}"))
        .with("count", count as u64)
        .with("failed", table.failed as u64)
        .with("clean", table.failed == 0)
        .with("alg1_planned", planned1)
        .with("alg2_planned", planned2)
        .with("oracle_verified_transforms", oracle_legal as u64)
        .with("classes", class_rows)
        .with("failures", failure_rows);
    write_json("BENCH_fuzz_corpus.json", &doc);

    println!();
    if table.failed > 0 {
        println!("fuzz: FAILED ({} of {} seeds)", table.failed, table.total);
        std::process::exit(1);
    }
    println!(
        "fuzz: {} seeds clean — zero divergences, violations, or panics",
        table.total
    );
}

/// `gen`: summarize the seeded corpus without running it — class mix,
/// shape statistics, and coverage of the degenerate cases the fuzzer
/// is designed to reach (zero-trip and single-trip nests, negative
/// strides, zero-work bodies).
fn gen_cmd(args: &Args) {
    use ndc::workloads::gen::{generate_batch, GenClass};
    let count = args.count.unwrap_or(256);
    let seed = args.seed.unwrap_or(7);
    println!("== Generated corpus: {count} programs from base seed {seed:#x} ==");
    let batch = generate_batch(seed, count);

    println!(
        "{:<17} {:>9} {:>7} {:>12} {:>8} {:>10}",
        "class", "programs", "nests", "points", "arrays", "KB"
    );
    for class in GenClass::ALL {
        let of_class: Vec<_> = batch.iter().filter(|g| g.class == class).collect();
        let nests: usize = of_class.iter().map(|g| g.program.nests.len()).sum();
        let points: u64 = of_class
            .iter()
            .flat_map(|g| g.program.nests.iter())
            .map(|n| n.points())
            .sum();
        let arrays: usize = of_class.iter().map(|g| g.program.arrays.len()).sum();
        let kb: u64 = of_class.iter().map(|g| g.program.footprint() / 1024).sum();
        println!(
            "{:<17} {:>9} {:>7} {:>12} {:>8} {:>10}",
            class.label(),
            of_class.len(),
            nests,
            points,
            arrays,
            kb
        );
    }

    let zero_trip = batch
        .iter()
        .filter(|g| g.program.nests.iter().any(|n| n.is_empty()))
        .count();
    let single_trip = batch
        .iter()
        .filter(|g| {
            g.program
                .nests
                .iter()
                .any(|n| n.lo.iter().zip(n.hi.iter()).any(|(&l, &h)| h - l == 1))
        })
        .count();
    let neg_stride = batch
        .iter()
        .filter(|g| {
            g.program.nests.iter().any(|n| {
                n.body.iter().any(|s| {
                    s.array_refs().iter().any(|(r, _)| {
                        (0..r.coeffs.rows).any(|i| (0..r.coeffs.cols).any(|j| r.coeffs[(i, j)] < 0))
                    })
                })
            })
        })
        .count();
    let zero_work = batch
        .iter()
        .filter(|g| {
            g.program
                .nests
                .iter()
                .any(|n| n.body.iter().any(|s| s.work == 0))
        })
        .count();
    println!();
    println!(
        "degenerate coverage: zero-trip {zero_trip}, single-trip {single_trip}, \
         negative-stride {neg_stride}, zero-work {zero_work}"
    );
}
