//! Integration: the reuse analysis (`ndc-reuse`) against the real
//! benchmarks — the Exact/Bound soundness contract cross-checked by
//! the interpreter for all 20 kernels, the seeded corrupted-reuse
//! fault, provenance threading through the compiler, and the fuzz
//! stage that holds generated IR to the same contract.

use ndc::check::{cross_check_workload, inject_reuse};
use ndc::fuzz::fuzz_batch;
use ndc::prelude::*;
use ndc::reuse::{analyze_program, cross_check_program};

fn cfg() -> ArchConfig {
    ArchConfig::paper_default()
}

#[test]
fn every_workload_cross_checks_clean() {
    let cfg = cfg();
    let (l1, l2) = (cfg.l1.line_bytes, cfg.l2.line_bytes);
    let mut exact_total = 0;
    let mut bound_total = 0;
    for bench in all_benchmarks() {
        let prog = bench.build_timesteps(Scale::Test, 1);
        let sum = cross_check_workload(&prog, l1, l2);
        assert!(
            sum.ok(),
            "{}: reuse contract violated: {:?}",
            bench.name,
            sum.violations
        );
        assert!(sum.refs > 0, "{}: no references analyzed", bench.name);
        exact_total += sum.exact_refs;
        bound_total += sum.bound_refs;
    }
    // The suite exercises both sides of the contract: equality on
    // Exact-tagged counts and domination on Bound-tagged ones.
    assert!(exact_total > 0, "no workload proved a single exact count");
    assert!(bound_total > 0, "no workload carried a bound");
}

#[test]
fn corrupted_reuse_vector_is_caught_on_a_real_workload() {
    let cfg = cfg();
    let prog = by_name("md").unwrap().build(Scale::Test);
    let mut report = analyze_program(&prog, cfg.l1.line_bytes, cfg.l2.line_bytes);
    assert!(inject_reuse(&mut report, 0xDEADBEEF));
    let sum = cross_check_program(&prog, &report, cfg.l1.line_bytes, cfg.l2.line_bytes);
    assert!(!sum.ok(), "corruption must trip the cross-check");
}

#[test]
fn compiler_threads_reuse_provenance_into_the_report() {
    let cfg = cfg();
    let prog = by_name("kdtree").unwrap().build(Scale::Test);
    let (_, report) = compile_algorithm2(&prog, &cfg, cfg.nodes(), Algorithm2Options::default());
    let with_reuse = report
        .provenance
        .iter()
        .filter(|c| c.reuse.is_some())
        .count();
    assert!(
        with_reuse > 0,
        "no planned chain carries reuse facts in its provenance"
    );
    for c in report.provenance.iter().filter_map(|c| c.reuse.as_ref()) {
        // The facts must be internally consistent: the union footprint
        // never exceeds the sum of the parts and never undercuts the
        // larger one.
        let (a, b) = (c.a.l2_lines.value, c.b.l2_lines.value);
        assert!(c.union_l2_lines <= a.saturating_add(b));
        assert!(c.union_l2_lines >= a.max(b));
        assert!(c.shared_l2_iters <= c.a.accesses.max(c.b.accesses));
    }
}

#[test]
fn fuzzed_programs_hold_the_reuse_contract() {
    // A small batch through the full pipeline — the reuse stage runs
    // inside fuzz_one, so any analysis panic or Exact/Bound violation
    // on generated IR fails here with a reproducing seed.
    let cfg = cfg();
    for o in fuzz_batch(0x5EED_CAFE, 12, &cfg) {
        assert!(o.passed(), "seed {:#018x} failed: {:?}", o.seed, o.failures);
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        ws.into_iter().for_each(|w| self.word(w));
    }
}

/// Every CME prediction of `prog` in key order: the key, both rates by
/// their bits, and the reuse kind with its distance and leader.
fn hash_cme(h: &mut Fnv, prog: &Program, cfg: &ArchConfig) {
    use ndc::cme::ReuseKind;
    let cme = ndc::cme::analyze(prog, cfg, cfg.nodes());
    let mut keys: Vec<_> = cme.predictions.keys().copied().collect();
    keys.sort_unstable();
    h.word(keys.len() as u64);
    for key in keys {
        let p = &cme.predictions[&key];
        h.words([key.nest_pos as u64, key.stmt_pos as u64, key.slot as u64]);
        h.words([p.l1_miss_rate.to_bits(), p.l2_miss_rate.to_bits()]);
        let distance = |h: &mut Fnv, d: &[i64]| {
            h.word(d.len() as u64);
            h.words(d.iter().map(|&x| x as u64));
        };
        match &p.reuse {
            ReuseKind::SelfTemporalInnermost => h.word(0),
            ReuseKind::SelfTemporal { distance: d } => {
                h.word(1);
                distance(h, d);
            }
            ReuseKind::GroupTemporal {
                distance: d,
                leader_stmt_pos,
                leader_slot,
            } => {
                h.word(2);
                distance(h, d);
                h.words([*leader_stmt_pos as u64, *leader_slot as u64]);
            }
            ReuseKind::SelfSpatial { stride_bytes } => h.words([3, *stride_bytes as u64]),
            ReuseKind::None => h.word(4),
        }
    }
}

/// Every reference's reuse facts of `prog`, in program order: its
/// position, class, four counts with their tags, and bounds verdict.
fn hash_reuse(h: &mut Fnv, prog: &Program, cfg: &ArchConfig) {
    use ndc::reuse::{Count, Exactness, ReuseClass};
    let report = analyze_program(prog, cfg.l1.line_bytes, cfg.l2.line_bytes);
    let count = |h: &mut Fnv, c: Count| h.words([c.value, (c.tag == Exactness::Exact) as u64]);
    for nest in &report.nests {
        h.words([nest.nest_pos as u64, nest.refs.len() as u64]);
        for f in &nest.refs {
            h.words([f.stmt_pos as u64, f.slot as u64, f.in_bounds as u64]);
            match f.class {
                ReuseClass::LoopInvariant => h.word(0),
                ReuseClass::TemporalInnermost => h.word(1),
                ReuseClass::TemporalCoupled => h.word(2),
                ReuseClass::Spatial { stride_bytes } => h.words([3, stride_bytes]),
                ReuseClass::NoReuse { stride_bytes } => h.words([4, stride_bytes]),
            }
            for c in [f.elems, f.l1_lines, f.l2_lines, f.dram_bytes] {
                count(h, c);
            }
        }
    }
}

/// (scale, hash of the CME predictions, hash of the reuse facts) over
/// the 20 kernels in suite order, on the paper's 5×5 machine.
const PINNED: [(Scale, u64, u64); 2] = [
    (Scale::Test, 0xf8d3_a4a1_2cc7_7cfe, 0x6cc0_ddf9_dcc6_a195),
    (Scale::Paper, 0x1a2b_9aae_f387_c780, 0x58c0_be66_da3b_73fc),
];

/// The static analyses' outputs, pinned: a prediction or a fact that
/// moves fails here even where no decision, stagger or figure flips.
#[test]
fn cme_predictions_and_reuse_facts_match_their_pinned_hashes() {
    let cfg = cfg();
    for (scale, cme_hash, reuse_hash) in PINNED {
        let (mut cme, mut reuse) = (Fnv(0xcbf2_9ce4_8422_2325), Fnv(0xcbf2_9ce4_8422_2325));
        for bench in all_benchmarks() {
            let prog = bench.build(scale);
            hash_cme(&mut cme, &prog, &cfg);
            hash_reuse(&mut reuse, &prog, &cfg);
        }
        assert_eq!(
            (cme.0, reuse.0),
            (cme_hash, reuse_hash),
            "{scale:?}: CME {:#018x}, reuse {:#018x}",
            cme.0,
            reuse.0
        );
    }
}
