//! Span tracing is observation, not simulation: the sampled traces are
//! byte-identical under any `NDC_THREADS`, and turning tracing on (or
//! off) never changes a single counter a figure is built from.

use ndc::experiments as exp;
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::sim::{render_tree, Engine};

const BENCHES: [&str; 3] = ["kdtree", "ocean", "fft"];

/// Render every sampled trace of an explain run over [`BENCHES`],
/// fanned out through the ndc-par pool (the component `NDC_THREADS`
/// steers).
fn rendered_traces() -> Vec<String> {
    let list: Vec<Benchmark> = BENCHES.iter().map(|n| by_name(n).unwrap()).collect();
    let reports = ndc_par::parallel_map(&list, |b| {
        exp::explain_benchmark(b, ArchConfig::paper_default(), Scale::Test, 8)
    });
    reports
        .iter()
        .map(|r| {
            let mut s = String::new();
            for t in &r.spans {
                s.push_str(&render_tree(t));
            }
            s
        })
        .collect()
}

#[test]
fn span_traces_are_byte_identical_across_thread_counts() {
    std::env::set_var("NDC_THREADS", "1");
    let one = rendered_traces();
    std::env::set_var("NDC_THREADS", "8");
    let eight = rendered_traces();
    std::env::remove_var("NDC_THREADS");
    assert!(one.iter().all(|s| !s.is_empty()), "no spans sampled");
    assert_eq!(one, eight, "trace output depends on NDC_THREADS");
}

#[test]
fn observation_level_never_changes_figure_counters() {
    let cfg = ArchConfig::paper_default();
    let bench = by_name("radiosity").unwrap();
    let prog = bench.build(Scale::Test);
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let (sched, _) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
    let traces = lower(&prog, &opts, Some(&sched));

    // Every counter any figure reads lives in SimResult; the Debug
    // rendering is a byte-level comparison of all of them at once.
    let untraced = format!("{:?}", simulate(cfg, &traces, Scheme::Compiled).result);
    let off = format!(
        "{:?}",
        Engine::new(cfg, &traces, Scheme::Compiled)
            .with_obs(ObsLevel::off())
            .run()
            .result
    );
    let spanned = Engine::new(cfg, &traces, Scheme::Compiled)
        .with_obs(ObsLevel::with_spans(4))
        .run();
    assert_eq!(untraced, off);
    assert_eq!(untraced, format!("{:?}", spanned.result));
    assert!(!spanned.spans.is_empty());
}
