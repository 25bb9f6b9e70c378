//! The attribution-and-distribution layer end to end: quantile-sketch
//! algebra, ledger conservation at every mesh size, profile determinism
//! across thread counts, and the lossless-capture contract of the trace
//! ring.

use ndc::check::{check_engine_output, CheckLevel};
use ndc::experiments as exp;
use ndc::obs::sketch::{QuantileSketch, SUB_BUCKETS};
use ndc::obs::ObsLevel;
use ndc::prelude::*;
use ndc::sim::Engine;
use ndc::types::SplitMix64;

const MESHES: [(u16, u16); 4] = [(5, 5), (8, 8), (12, 12), (16, 16)];

/// Seeded values with a long tail: mostly small latencies, occasional
/// large outliers — the shape of real request-latency distributions.
fn seeded_values(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            match r % 10 {
                0..=6 => r % 1_000,
                7 | 8 => r % 100_000,
                _ => r % 50_000_000,
            }
        })
        .collect()
}

#[test]
fn sketch_merge_is_commutative_and_associative() {
    let vals = seeded_values(0x5EED, 3000);
    let mut parts = [
        QuantileSketch::new(),
        QuantileSketch::new(),
        QuantileSketch::new(),
    ];
    let mut whole = QuantileSketch::new();
    for (i, &v) in vals.iter().enumerate() {
        parts[i % 3].record(v);
        whole.record(v);
    }
    let [a, b, c] = parts;

    // (a + b) + c == a + (b + c) == c + b + a == one sketch of all.
    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    let mut cba = c.clone();
    cba.merge(&b);
    cba.merge(&a);
    assert_eq!(ab_c, a_bc);
    assert_eq!(ab_c, cba);
    assert_eq!(ab_c, whole);
}

#[test]
fn sketch_quantiles_meet_the_rank_error_bound() {
    for seed in [7u64, 0xC0FFEE, 0xDEAD_BEEF] {
        let mut vals = seeded_values(seed, 10_000);
        let mut s = QuantileSketch::new();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        for pct in [50u64, 90, 99] {
            let rank = ((pct as u128 * vals.len() as u128).div_ceil(100) as usize).max(1);
            let exact = vals[rank - 1];
            let est = s.quantile_pct(pct).unwrap();
            // Log-bucketed estimate: within one sub-bucket of the value
            // actually at that rank.
            let bound = exact / SUB_BUCKETS + 1;
            assert!(
                est.abs_diff(exact) <= bound,
                "seed {seed:#x} p{pct}: est {est} vs exact {exact} (bound {bound})"
            );
        }
        assert_eq!(s.quantile_pct(0), Some(vals[0]));
        assert_eq!(s.quantile_pct(100), Some(*vals.last().unwrap()));
    }
}

/// Render the profile sweep (ledger JSON per benchmark) over the
/// ndc-par pool the given thread count steers.
fn profile_fingerprint(threads: &str) -> Vec<String> {
    std::env::set_var("NDC_THREADS", threads);
    let list: Vec<Benchmark> = ["kdtree", "ocean", "fft"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect();
    let reports = ndc_par::parallel_map(&list, |b| {
        exp::profile_benchmark(b, ArchConfig::paper_default(), Scale::Test, 2, 8)
    });
    std::env::remove_var("NDC_THREADS");
    reports
        .iter()
        .map(|r| format!("{:?}\n{}", r.result, r.ledger.to_json().render()))
        .collect()
}

#[test]
fn profile_ledger_identical_across_thread_counts() {
    let one = profile_fingerprint("1");
    let four = profile_fingerprint("4");
    let eight = profile_fingerprint("8");
    assert!(one.iter().all(|s| s.contains(r#""tenant":1"#)));
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn ledger_conservation_holds_at_every_mesh_size_with_tenants() {
    let bench = by_name("ocean").unwrap();
    for (w, h) in MESHES {
        let cfg = ArchConfig::with_mesh(w, h);
        let prog = bench.build(Scale::Test);
        let opts = LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        };
        let traces = lower(&prog, &opts, None);
        let out = Engine::new(
            cfg,
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::PctOfCap(50),
            },
        )
        .with_check(CheckLevel::full())
        .with_tenants(exp::round_robin_tenants(cfg.nodes(), 2))
        .run();
        let report = check_engine_output(&out);
        assert!(
            report.ok(),
            "{w}x{h}: ledger/invariant violations: {:?}",
            report.violations
        );
        let ledger = out.ledger.as_ref().expect("checked run collects ledger");
        assert_eq!(ledger.num_tenants(), 2, "{w}x{h}");
        assert!(ledger.rows().iter().all(|r| r.requests > 0), "{w}x{h}");
    }
}

#[test]
fn trace_ring_is_lossless_at_default_capacity_and_counts_drops() {
    let cfg = ArchConfig::paper_default();
    let prog = by_name("kdtree").unwrap().build(Scale::Test);
    let opts = LowerOptions {
        cores: cfg.nodes(),
        emit_busy: true,
    };
    let traces = lower(&prog, &opts, None);
    let scheme = Scheme::NdcAll {
        budget: WaitBudget::PctOfCap(50),
    };

    // A ring big enough for the whole run drops nothing — and says so.
    let big = Engine::new(cfg, &traces, scheme)
        .with_obs(ObsLevel::with_trace(1 << 22))
        .run();
    assert_eq!(
        big.events_dropped, 0,
        "default-config capture must be lossless"
    );
    assert!(!big.events.is_empty());

    // A tiny ring keeps the newest events and reports every eviction.
    let small = Engine::new(cfg, &traces, scheme)
        .with_obs(ObsLevel::with_trace(16))
        .run();
    assert_eq!(small.events.len(), 16);
    assert_eq!(
        small.events_dropped as usize,
        big.events.len() - small.events.len(),
        "dropped counter must account for every evicted event"
    );
}
