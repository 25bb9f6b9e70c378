//! The packed trace store's summaries against the scans they replace,
//! and the lowered instructions themselves.
//!
//! A trace keeps its largest pc, the end of its precompute-id range and
//! its compute, precompute and precompute-id counts up to date on every
//! push, so the engine sizes its per-pc and per-id tables and counts
//! computations without decoding a trace. Each summary must equal a
//! full scan of the decoded instructions: on every kernel's baseline and
//! compiled lowerings, and on hand-built traces whose ids are sparse.
//! The same lowerings are hashed instruction by instruction against a
//! pinned value, so a changed address, id or order fails here even
//! where no simulated counter moves.

use ndc::prelude::*;
use ndc::types::{Inst, InstKind, NodeId, Operand, Trace, TraceProgram};

/// (pc end, precompute-id end, computes, precomputes, precompute ids)
/// of a trace, by decoding every instruction.
fn scan(t: &Trace) -> (u64, u64, u64, u64, u64) {
    let mut s = (0, 0, 0, 0, 0);
    for inst in &t.insts {
        s.0 = s.0.max(inst.pc as u64 + 1);
        let defined = match inst.kind {
            InstKind::Compute { .. } => {
                s.2 += 1;
                None
            }
            InstKind::PreCompute { id, .. } => Some((id, 1)),
            InstKind::FusedPreCompute { id, n_ops, .. } => Some((id, n_ops as u64)),
            _ => None,
        };
        if let Some((id, n)) = defined {
            s.1 = s.1.max(id as u64 + n);
            s.3 += 1;
            s.4 += n;
        }
    }
    s
}

fn summaries(t: &Trace) -> (u64, u64, u64, u64, u64) {
    (
        t.insts.pc_end(),
        t.insts.precompute_id_end(),
        t.compute_count(),
        t.precompute_count(),
        t.precompute_ids(),
    )
}

fn assert_summaries_match(label: &str, tp: &TraceProgram) {
    for (c, t) in tp.traces.iter().enumerate() {
        assert_eq!(summaries(t), scan(t), "{label}: trace {c}");
    }
    let computes: u64 = tp.traces.iter().map(|t| scan(t).2).sum();
    assert_eq!(tp.total_computes(), computes, "{label}");
}

/// Fold every decoded instruction of `t` into the FNV-1a hash `h`: the
/// core and length, then per instruction its pc, a kind tag and every
/// field, immediates by their bits.
fn hash_trace(h: &mut u64, t: &Trace) {
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    let operand = |o: Operand| match o {
        Operand::Mem(addr) => [0, addr],
        Operand::Imm(v) => [1, v.to_bits()],
    };
    let option = |o: Option<u64>| o.map_or([0, 0], |v| [1, v]);
    word(t.core.0 as u64);
    word(t.insts.len() as u64);
    for inst in &t.insts {
        word(inst.pc as u64);
        let fields: Vec<u64> = match inst.kind {
            InstKind::Load { addr } => vec![0, addr],
            InstKind::Store { addr } => vec![1, addr],
            InstKind::Compute {
                op,
                a,
                b,
                store_to,
                precomputed,
            } => [[2, op as u64], operand(a), operand(b), option(store_to)]
                .concat()
                .into_iter()
                .chain(option(precomputed.map(u64::from)))
                .collect(),
            InstKind::PreCompute {
                id,
                op,
                a,
                b,
                stagger,
                reshape_routes,
            } => vec![
                3,
                id as u64,
                op as u64,
                a,
                b,
                stagger as u32 as u64,
                reshape_routes as u64,
            ],
            InstKind::FusedPreCompute {
                id,
                n_ops,
                ops,
                addrs,
                stagger,
                reshape_routes,
            } => [4, id as u64, n_ops as u64]
                .into_iter()
                .chain(ops.map(|op| op as u64))
                .chain(addrs)
                .chain([stagger as u32 as u64, reshape_routes as u64])
                .collect(),
            InstKind::Busy { cycles } => vec![5, cycles as u64],
        };
        fields.into_iter().for_each(&mut word);
    }
}

/// The hash of every instruction of the 20 kernels' test-scale
/// baseline, Algorithm 1, Algorithm 2 and fused Algorithm 2 lowerings
/// (25 cores, `Busy` emitted), in kernel order. Computed when lowering
/// still built the whole iteration space as a point list, evaluated
/// each reference from scratch at every point, and stored 40-byte
/// records, with `PreCompute::store_to` (since deleted) left out.
const LOWERED_HASH: u64 = 0x206d_f76e_bfd4_016b;

#[test]
fn trace_summaries_equal_a_full_scan_for_every_kernel() {
    let cfg = ArchConfig::paper_default();
    let cores = cfg.nodes();
    let opts = LowerOptions {
        cores,
        emit_busy: true,
    };
    let mut fused_packets = 0;
    let mut lowered = 0xcbf2_9ce4_8422_2325;
    let mut hash = |tp: &TraceProgram| tp.traces.iter().for_each(|t| hash_trace(&mut lowered, t));
    for bench in all_benchmarks() {
        let prog = bench.build(Scale::Test);
        let base = lower(&prog, &opts, None);
        assert_summaries_match(bench.name, &base);
        hash(&base);
        let fused = Algorithm2Options {
            fuse: true,
            ..Default::default()
        };
        for (label, sched) in [
            ("alg1", compile_algorithm1(&prog, &cfg, cores).0),
            (
                "alg2",
                compile_algorithm2(&prog, &cfg, cores, Algorithm2Options::default()).0,
            ),
            (
                "alg2 fused",
                compile_algorithm2(&prog, &cfg, cores, fused).0,
            ),
        ] {
            let tp = lower(&prog, &opts, Some(&sched));
            assert_summaries_match(&format!("{}/{label}", bench.name), &tp);
            hash(&tp);
            fused_packets += sched.fused.len();
        }
    }
    // The fused lowerings exercise the packets' n_ops-wide id ranges.
    assert!(fused_packets > 0);
    assert_eq!(
        lowered, LOWERED_HASH,
        "lowered instructions differ from the pinned ones: {lowered:#018x}"
    );
}

#[test]
fn hand_built_traces_with_sparse_ids_summarize_exactly() {
    let pre = |pc, id| Inst {
        pc,
        kind: InstKind::PreCompute {
            id,
            op: Op::Add,
            a: 0,
            b: 64,
            stagger: 0,
            reshape_routes: false,
        },
    };
    let fused = |pc, id, n_ops| Inst {
        pc,
        kind: InstKind::FusedPreCompute {
            id,
            n_ops,
            ops: [Op::Mul; 4],
            addrs: [0, 64, 128, 192, 256],
            stagger: -3,
            reshape_routes: true,
        },
    };
    let compute = |pc, precomputed| Inst {
        pc,
        kind: InstKind::Compute {
            op: Op::Sub,
            a: Operand::Mem(8),
            b: Operand::Imm(2.5),
            store_to: Some(16),
            precomputed,
        },
    };
    let traces: [Vec<Inst>; 4] = [
        vec![],
        // Ids far apart, the largest first; a high pc early.
        vec![
            pre(40_000, 9_000),
            compute(3, Some(9_000)),
            pre(1, 7),
            fused(2, 100, 3),
            compute(5, Some(101)),
            Inst::busy(7, 4),
        ],
        // A fused packet ends the id range, defined below a plain one.
        vec![pre(0, 5), fused(0, 70_000, 4), Inst::load(9, 0)],
        // Extremes: the largest pc and id.
        vec![
            pre(u32::MAX, u32::MAX),
            fused(1, u32::MAX - 1, 2),
            Inst::store(0, 8),
        ],
    ];
    let mut prog = TraceProgram::new("sparse");
    for (c, insts) in traces.iter().enumerate() {
        let mut t = Trace::new(NodeId(c as u16));
        for &i in insts {
            t.insts.push(i);
        }
        prog.traces.push(t);
    }
    assert_summaries_match("sparse", &prog);
    assert_eq!(summaries(&prog.traces[1]), (40_001, 9_001, 2, 3, 5));
    assert_eq!(summaries(&prog.traces[2]), (10, 70_004, 0, 2, 5));
    assert_eq!(
        summaries(&prog.traces[3]),
        (u32::MAX as u64 + 1, u32::MAX as u64 + 1, 0, 2, 3)
    );
    assert_eq!(prog.total_precomputes(), 7);
}
