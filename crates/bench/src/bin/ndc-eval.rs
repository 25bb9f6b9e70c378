//! `ndc-eval` — regenerate the paper's tables and figures. `ndc-eval
//! help` lists every experiment and flag.
//!
//! Every experiment returns [`Table`]s. `ndc-eval` prints each with the
//! one renderer and, on a full sweep, writes it with the one writer to
//! `results/<table>.json`, or `results/<table>.paper.json` at
//! `--scale paper`. A `--bench` run writes nothing, so a partial run
//! never replaces a committed file. `scripts/verify.sh` regenerates
//! every committed table and gates each exactly with `ndc-eval gate`.
//!
//! `--metrics` writes a per-run component-level breakdown (engine,
//! NDC, caches, directory, NoC links, DRAM channels) of every run of
//! the shared benchmark evaluation as JSON; `--trace` additionally
//! writes the latest NDC offload events in Chrome trace format (load it
//! at `chrome://tracing` or Perfetto). Both apply to the experiments
//! that run the shared evaluation (table2, fig2, fig3, fig4, fig6,
//! fig13, fig15, fig16 and `all`); the output is byte-identical for any
//! `NDC_THREADS`.
//!
//! Unknown experiments, flags, or flag values are errors (exit 2).

use ndc::experiments as exp;
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::sim::Engine;
use ndc::table::Table;
use ndc_types::Json;
use std::cell::OnceCell;

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
    /// `--baseline` for gate: the committed `results/<table>.json`.
    baseline: Option<String>,
    /// `--current` for gate: the freshly written `results/<table>.json`.
    current: Option<String>,
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
    println!("  fig4              performance benefit of every scheme + every run's counters");
    println!("  fig5              consecutive arrival windows (ocean, radiosity)");
    println!("  fig6              oracle NDC location breakdown");
    println!("  fig13             Algorithm-1 NDC location breakdown");
    println!("  fig14             Algorithm 1 restricted to single components");
    println!("  fig15             NDC opportunities exercised by Algorithm 2");
    println!("  fig16             L1/L2 miss rates under Algorithms 1 and 2");
    println!("  fig17             sensitivity study (mesh size, L2 size, op class)");
    println!("  explain           cost-model cross-check; with --bench: spans + provenance");
    println!("  profile           per-tenant attribution ledger + latency quantiles + outliers");
    println!("  gate              exact gate: --current table JSON vs --baseline");
    println!("  ablation-routing  router NDC with vs without route reshaping");
    println!("  ablation-coarse   fine-grain vs whole-nest mapping");
    println!("  ablation-k        Algorithm 2 reuse-threshold k sweep");
    println!("  ablation-markov   Markov window predictor vs Last-Wait");
    println!("  ablation-layout   data-layout optimization before Algorithm 2");
    println!("  fuse              operator fusion: bytes moved + offload cycles");
    println!("  check             differential oracle + simulator invariants + fault matrix");
    println!("  lint              static legality: certificates, bounds proofs, race report");
    println!("  scale             mesh scale-up study (8x8 at test scale, 5x5 to 16x16 at paper)");
    println!(
        "  fuzz              seeded IR fuzzing: generator -> compilers -> oracle -> checked sim"
    );
    println!("  gen               seeded corpus summary (class mix, shapes, degenerate coverage)");
    println!("  all               every experiment from table1 to fuse above, except profile/gate");
    println!("  help              this text (also -h / --help)");
    println!();
    println!("Every table is printed and, on a full sweep (no --bench), written to");
    println!("results/<table>.json (results/<table>.paper.json at --scale paper);");
    println!("fuzz writes results/fuzz_corpus.json.");
    println!();
    println!("flags:");
    println!("  --scale test|paper   problem sizes (default: paper)");
    println!("  --bench <name>       restrict to one benchmark (see `list`)");
    println!("  --metrics <path>     per-run component breakdown JSON (shared evaluation)");
    println!("  --trace <path>       NDC offload events, Chrome trace format (implies metrics)");
    println!("  --count <n>          fuzz/gen: programs to generate (default: 256)");
    println!("  --seed <u64>         fuzz/gen: base seed, decimal or 0x hex (default: 7)");
    println!("  --json               profile/explain/check: JSON document on stdout");
    println!("  --tenants <n>        profile: tenants, cores assigned round-robin (default: 1)");
    println!("  --top <k>            profile: slowest sampled requests to show (default: 5)");
    println!("  --baseline <path>    gate: committed results/<table>.json to compare against");
    println!("  --current <path>     gate: freshly written results/<table>.json under test");
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

/// The experiments `all` runs, in order.
const ALL: [&str; 19] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "explain",
    "ablation-routing",
    "ablation-coarse",
    "ablation-k",
    "ablation-markov",
    "ablation-layout",
    "fuse",
];

fn main() {
    let args = parse_args();
    let cfg = ArchConfig::paper_default();
    // The shared evaluation, run on first use and reused by every
    // experiment that reads it.
    let evals = OnceCell::new();
    match args.experiment.as_str() {
        "list" => list_benchmarks(),
        "profile" => profile_cmd(&args, cfg),
        "gate" => gate_cmd(&args),
        "check" => check_cmd(&args, cfg),
        "lint" => lint_cmd(&args, cfg),
        "scale" => scale_cmd(&args),
        "fuzz" => fuzz_cmd(&args, cfg),
        "gen" => gen_cmd(&args),
        "help" => usage(),
        "all" => {
            for name in ALL {
                experiment(name, &args, cfg, &evals);
            }
        }
        name if ALL.contains(&name) => experiment(name, &args, cfg, &evals),
        other => arg_error(&format!("unknown experiment '{other}'")),
    }
}

/// Print and write the tables of one experiment of [`ALL`].
fn experiment(
    name: &str,
    args: &Args,
    cfg: ArchConfig,
    evals: &OnceCell<Vec<exp::BenchmarkEvaluation>>,
) {
    let shared = || evals.get_or_init(|| eval_benches(args, cfg)).as_slice();
    let (list, scale) = (benches(&args.bench), args.scale);
    let tables = match name {
        "table1" => vec![exp::table1(&cfg)],
        "table2" => vec![exp::table2(shared())],
        "fig2" => vec![exp::figure2(shared())],
        "fig3" => vec![exp::figure3(shared())],
        "fig4" => vec![exp::figure4(shared()), exp::counters(shared())],
        "fig5" => {
            // Figure 5 always shows ocean and radiosity.
            let two = ["ocean", "radiosity"].map(|n| by_name(n).expect("a paper workload"));
            let evals = ndc_par::parallel_map(&two, |b| exp::evaluate_benchmark(b, cfg, scale));
            vec![exp::figure5(&evals, 30)]
        }
        "fig6" => vec![exp::figure6(shared())],
        "fig13" => vec![exp::figure13(shared())],
        "fig14" => vec![exp::figure14(&list, cfg, scale)],
        "fig15" => vec![exp::figure15(shared())],
        "fig16" => vec![exp::figure16(shared())],
        "fig17" => vec![exp::figure17(scale)],
        "explain" => return explain_cmd(args, cfg),
        "ablation-routing" => vec![exp::ablation_routing(&list, cfg, scale)],
        "ablation-coarse" => vec![exp::ablation_coarse(&list, cfg, scale)],
        "ablation-k" => {
            let list = match args.bench {
                Some(_) => list,
                None => ["md", "water", "bt", "cholesky"]
                    .map(|n| by_name(n).unwrap())
                    .into(),
            };
            vec![exp::ablation_k(&list, cfg, scale, &[0, 1, 2, 4, 8])]
        }
        "ablation-markov" => vec![exp::ablation_markov(&list, cfg, scale)],
        "ablation-layout" => vec![exp::ablation_layout(&list, cfg, scale)],
        "fuse" => vec![exp::fusion(&list, cfg, scale)],
        other => unreachable!("{other} is not in ALL"),
    };
    for t in &tables {
        emit(args, t);
    }
}

/// Evaluate the selected benchmarks in parallel (ordered, deterministic),
/// writing the `--metrics` / `--trace` artifacts if asked for.
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

/// Where a table's file goes, if anywhere: `results/<name>.json`, or
/// `results/<name>.paper.json` at paper scale. A `--bench`-filtered run
/// covers part of the sweep, so it writes nothing. So only a full
/// test-scale sweep replaces a committed test-scale file, and only a
/// full paper-scale sweep a committed paper-scale one.
fn table_file(name: &str, scale: Scale, filter: Option<&str>) -> Option<String> {
    match (filter, scale) {
        (Some(_), _) => None,
        (None, Scale::Paper) => Some(format!("results/{name}.paper.json")),
        (None, _) => Some(format!("results/{name}.json")),
    }
}

/// Print a table, then write it as [`write_table`] does.
fn emit(args: &Args, t: &Table) {
    println!("{}", t.render());
    write_table(args, t);
}

/// Write a table to its [`table_file`], if it has one.
fn write_table(args: &Args, t: &Table) {
    if let Some(path) = table_file(&t.name, args.scale, args.bench.as_deref()) {
        write_file(&path, &t.to_json(Some(&format!("{:?}", args.scale))));
    }
}

fn write_json(path: &str, doc: &Json) {
    write_file(path, &format!("{}\n", doc.render()));
}

fn write_file(path: &str, text: &str) {
    let dir = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty());
    match dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text))
    {
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
    let table = exp::model_accuracy(&reports);
    write_table(args, &table);

    if args.json {
        let s = exp::ModelAccuracy::of(&reports);
        let summary = Json::obj()
            .with("cells", s.cells as u64)
            .with("mean_abs_rel_error_pct", s.mean)
            .with("max_abs_rel_error_pct", s.max)
            .with("mean_abs_rel_error_pct_legacy", s.mean_legacy)
            .with("max_abs_rel_error_pct_legacy", s.max_legacy)
            .with("model_beats_legacy", s.beats_legacy());
        let bench_arr: Vec<Json> = reports
            .iter()
            .map(|r| {
                let offload: Vec<Json> = ndc_types::ALL_NDC_LOCATIONS
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

    println!("{}", table.render());
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

/// `gate`: compare a freshly written table file (`--current`)
/// against a committed baseline (`--baseline`). Every value must match
/// exactly; to accept new numbers, regenerate the file and commit it.
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
    match bench::baseline::gate_against_file(baseline, &current) {
        Ok(diffs) if diffs.is_empty() => {
            println!("gate: {current_path} matches baseline {baseline}");
        }
        Ok(diffs) => {
            eprintln!("gate: {current_path} DIVERGES from baseline {baseline}:");
            for d in &diffs {
                eprintln!("  {d}");
            }
            eprintln!("(to accept the new numbers, commit the regenerated file)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("gate: {e}");
            std::process::exit(1);
        }
    }
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

/// `scale` — the mesh scale-up study ([`exp::mesh_scale`]) of one
/// workload (`--bench`, default ocean). Its host columns are printed
/// but not written, so `results/scale.json` is identical on every host.
fn scale_cmd(args: &Args) {
    let name = args.bench.as_deref().unwrap_or("ocean");
    let bench = by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}'");
        std::process::exit(1);
    });
    emit(args, &exp::mesh_scale(&bench, args.scale));
}

/// `fuzz`: drive `--count` seeded programs (seeds `--seed`, `--seed`+1,
/// ...) through the whole stack — generator, verifier + bounds prover,
/// both compiler algorithms, schedule lint, the differential oracle,
/// structured lowering, and the checked simulator — then classify each
/// simulated run with the DAMOV-style bottleneck taxonomy. Prints the
/// class × bottleneck corpus table (a failing seed is a note with the
/// command that reproduces it), writes it to
/// `results/fuzz_corpus.json`, and exits 1 on any failure.
/// Deterministic for any `NDC_THREADS`.
fn fuzz_cmd(args: &Args, cfg: ArchConfig) {
    let count = args.count.unwrap_or(256);
    let seed = args.seed.unwrap_or(7);
    let outcomes = ndc::fuzz::fuzz_batch(seed, count, &cfg);
    let table = ndc::fuzz::corpus_table(&outcomes, seed);
    println!("{}", table.render());
    write_file("results/fuzz_corpus.json", &table.to_json(None));
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    if failed > 0 {
        println!("fuzz: FAILED ({failed} of {count} seeds)");
        std::process::exit(1);
    }
    println!("fuzz: {count} seeds clean — zero divergences, violations, or panics");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_full_sweep_writes_a_table_file() {
        assert_eq!(
            table_file("fusion", Scale::Test, None).as_deref(),
            Some("results/fusion.json")
        );
        assert_eq!(
            table_file("fusion", Scale::Paper, None).as_deref(),
            Some("results/fusion.paper.json")
        );
        for scale in [Scale::Test, Scale::Paper] {
            assert_eq!(table_file("scale", scale, Some("md")), None);
        }
    }
}
