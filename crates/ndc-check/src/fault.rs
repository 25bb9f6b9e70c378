//! Seeded fault injection: corrupt a recorded run or a compiler
//! schedule in a controlled way and prove the matching checker fires.
//!
//! Each [`Fault`] models a concrete simulator bug class and maps to
//! exactly one [`Invariant`]; each [`ScheduleFault`] models a concrete
//! compiler bug class and maps to the `ndc-lint` error it must draw.
//! Victim selection is driven by [`SplitMix64`] so every injection is
//! reproducible from its seed.

use crate::invariant::Invariant;
use ndc_ir::deps::{DependenceGraph, DistanceVector};
use ndc_ir::matrix::{candidate_transforms, IMat};
use ndc_ir::{Program, Schedule};
use ndc_obs::chk::CheckKind;
use ndc_obs::ledger::{AttributionLedger, NUM_LOCATIONS};
use ndc_sim::{CheckData, SimResult};
use ndc_types::SplitMix64;

/// A class of injected simulator fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A flit vanishes in the network: one `FlitExit` record is removed,
    /// so that link's occupancy never drains back to zero.
    DroppedFlit,
    /// A DRAM response is delayed past the rest of its request's path:
    /// one `MemDone` timestamp jumps far into the future, breaking
    /// per-request timestamp monotonicity.
    DelayedDramResponse,
    /// A stale offload-table window replays a completed request: one
    /// `Retire` record is duplicated, so the request retires twice.
    StaleOffloadWindow,
    /// A corrupted reshape tally: `ndc_attempts` is bumped without a
    /// matching performed/abort outcome, breaking NDC accounting.
    CorruptedReshape,
}

/// All fault classes, in a fixed order for deterministic matrices.
pub const ALL_FAULTS: [Fault; 4] = [
    Fault::DroppedFlit,
    Fault::DelayedDramResponse,
    Fault::StaleOffloadWindow,
    Fault::CorruptedReshape,
];

impl Fault {
    pub fn label(&self) -> &'static str {
        match self {
            Fault::DroppedFlit => "dropped-flit",
            Fault::DelayedDramResponse => "delayed-dram-response",
            Fault::StaleOffloadWindow => "stale-offload-window",
            Fault::CorruptedReshape => "corrupted-reshape",
        }
    }

    /// The invariant this fault class is designed to violate.
    pub fn expected_invariant(&self) -> Invariant {
        match self {
            Fault::DroppedFlit => Invariant::LinkOccupancy,
            Fault::DelayedDramResponse => Invariant::PathMonotonic,
            Fault::StaleOffloadWindow => Invariant::RetireOnce,
            Fault::CorruptedReshape => Invariant::NdcAccounting,
        }
    }
}

/// Pick a seeded victim among the indices of records of `kind`.
fn pick_index(data: &CheckData, kind: CheckKind, rng: &mut SplitMix64) -> Option<usize> {
    let sites: Vec<usize> = data
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == kind)
        .map(|(i, _)| i)
        .collect();
    if sites.is_empty() {
        None
    } else {
        Some(sites[rng.below(sites.len() as u64) as usize])
    }
}

/// Inject `fault` into a recorded run. Returns `false` when the run has
/// no applicable site (e.g. no DRAM traffic to delay), in which case
/// nothing is modified.
pub fn inject(data: &mut CheckData, result: &mut SimResult, fault: Fault, seed: u64) -> bool {
    let mut rng = SplitMix64::new(seed);
    match fault {
        Fault::DroppedFlit => match pick_index(data, CheckKind::FlitExit, &mut rng) {
            Some(i) => {
                data.events.remove(i);
                true
            }
            None => false,
        },
        Fault::DelayedDramResponse => match pick_index(data, CheckKind::MemDone, &mut rng) {
            Some(i) => {
                data.events[i].ts += 1_000_000_000;
                true
            }
            None => false,
        },
        Fault::StaleOffloadWindow => match pick_index(data, CheckKind::Retire, &mut rng) {
            Some(i) => {
                let dup = data.events[i];
                data.events.push(dup);
                true
            }
            None => false,
        },
        Fault::CorruptedReshape => {
            if result.ndc_attempts == 0 {
                return false;
            }
            result.ndc_attempts += 1 + rng.below(7);
            true
        }
    }
}

/// A class of injected attribution mis-charge. Each models a concrete
/// bug in the ledger plumbing — a charge site that was skipped, ran
/// twice, clamped a component, or invented a request — and every one
/// must trip [`Invariant::LedgerConservation`] when the corrupted
/// ledger is checked against the run's untouched global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerFault {
    /// A traverse went uncharged: one message and its flit-hops vanish
    /// from a tenant row, so the NoC column sums fall short.
    DroppedTraverse,
    /// A DRAM charge site ran twice: one row gains a phantom line's
    /// worth of bytes the controllers never moved.
    DoubleChargedDram,
    /// A mis-clamped decomposition: one location's wait component is
    /// shaved, so gather+wait+exec+feed no longer tiles the offload
    /// column (and the wait column sum drifts off `SimResult`).
    TruncatedWait,
    /// A request charged without its latency sample: the row's request
    /// count and its latency sketch disagree.
    PhantomRequest,
}

/// All ledger-fault classes, in a fixed order for deterministic
/// matrices.
pub const ALL_LEDGER_FAULTS: [LedgerFault; 4] = [
    LedgerFault::DroppedTraverse,
    LedgerFault::DoubleChargedDram,
    LedgerFault::TruncatedWait,
    LedgerFault::PhantomRequest,
];

impl LedgerFault {
    pub fn label(&self) -> &'static str {
        match self {
            LedgerFault::DroppedTraverse => "dropped-traverse",
            LedgerFault::DoubleChargedDram => "double-charged-dram",
            LedgerFault::TruncatedWait => "truncated-wait",
            LedgerFault::PhantomRequest => "phantom-request",
        }
    }

    /// Every mis-charge breaks the same law from a different direction.
    pub fn expected_invariant(&self) -> Invariant {
        Invariant::LedgerConservation
    }
}

/// Inject `fault` into an attribution ledger. Returns `false` when no
/// row has the traffic the fault needs (e.g. no NDC offloads to
/// truncate), in which case the ledger is unchanged.
pub fn inject_ledger(ledger: &mut AttributionLedger, fault: LedgerFault, seed: u64) -> bool {
    let mut rng = SplitMix64::new(seed);
    // Seeded victim row among those where `applicable` holds.
    fn pick_row(
        ledger: &AttributionLedger,
        rng: &mut SplitMix64,
        applicable: impl Fn(&ndc_obs::ledger::TenantRow) -> bool,
    ) -> Option<u16> {
        let rows: Vec<u16> = ledger
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, r)| applicable(r))
            .map(|(t, _)| t as u16)
            .collect();
        if rows.is_empty() {
            None
        } else {
            Some(rows[rng.below(rows.len() as u64) as usize])
        }
    }
    match fault {
        LedgerFault::DroppedTraverse => match pick_row(ledger, &mut rng, |r| r.noc_messages > 0) {
            Some(t) => {
                let row = ledger.row_mut(t);
                row.noc_messages -= 1;
                row.noc_flit_hops = row.noc_flit_hops.saturating_sub(1 + rng.below(8));
                true
            }
            None => false,
        },
        LedgerFault::DoubleChargedDram => match pick_row(ledger, &mut rng, |r| r.dram_bytes > 0) {
            Some(t) => {
                let row = ledger.row_mut(t);
                row.dram_bytes += row.dram_bytes.min(256);
                true
            }
            None => false,
        },
        LedgerFault::TruncatedWait => {
            let has_wait = |r: &ndc_obs::ledger::TenantRow| {
                (0..NUM_LOCATIONS).any(|i| r.ndc_wait_cycles[i] > 0)
            };
            match pick_row(ledger, &mut rng, has_wait) {
                Some(t) => {
                    let row = ledger.row_mut(t);
                    let locs: Vec<usize> = (0..NUM_LOCATIONS)
                        .filter(|&i| row.ndc_wait_cycles[i] > 0)
                        .collect();
                    let loc = locs[rng.below(locs.len() as u64) as usize];
                    row.ndc_wait_cycles[loc] -= 1;
                    true
                }
                None => false,
            }
        }
        LedgerFault::PhantomRequest => match pick_row(ledger, &mut rng, |r| r.requests > 0) {
            Some(t) => {
                ledger.row_mut(t).requests += 1;
                true
            }
            None => false,
        },
    }
}

/// A class of injected compiler-schedule fault. Unlike [`Fault`] these
/// corrupt the *input* to execution, so the differential oracle (not a
/// simulator invariant) is the runtime witness — and `ndc-lint` must
/// reject every corruption the oracle would report as divergent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleFault {
    /// Replace a nest's transform with a unimodular but
    /// dependence-violating candidate (e.g. the Figure 10 interchange).
    IllegalTransform,
    /// Reorder two statements linked by a loop-independent (zero
    /// distance) dependence so the consumer runs first.
    SwappedDependentStmts,
    /// Corrupt a statement order into a non-permutation by duplicating
    /// one entry.
    CorruptedPermutation,
    /// Replace a nest's transform with `2·I` — volume-changing, so not
    /// a reordering at all.
    NonUnimodularTransform,
}

/// All schedule-fault classes, in a fixed order for deterministic
/// matrices.
pub const ALL_SCHEDULE_FAULTS: [ScheduleFault; 4] = [
    ScheduleFault::IllegalTransform,
    ScheduleFault::SwappedDependentStmts,
    ScheduleFault::CorruptedPermutation,
    ScheduleFault::NonUnimodularTransform,
];

impl ScheduleFault {
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleFault::IllegalTransform => "illegal-transform-fault",
            ScheduleFault::SwappedDependentStmts => "swapped-dependent-stmts",
            ScheduleFault::CorruptedPermutation => "corrupted-permutation",
            ScheduleFault::NonUnimodularTransform => "non-unimodular-transform",
        }
    }

    /// The [`ndc_lint::LintError::label`] this fault class must draw.
    pub fn expected_lint(&self) -> &'static str {
        match self {
            ScheduleFault::IllegalTransform => "illegal-transform",
            ScheduleFault::SwappedDependentStmts => "order-violates-dependence",
            ScheduleFault::CorruptedPermutation => "order-not-permutation",
            ScheduleFault::NonUnimodularTransform => "non-unimodular",
        }
    }
}

/// Inject `fault` into a schedule for `prog`. Returns `false` when the
/// program has no applicable site (e.g. no nest with a reorderable
/// dependent statement pair), in which case the schedule is unchanged.
pub fn inject_schedule(
    prog: &Program,
    schedule: &mut Schedule,
    fault: ScheduleFault,
    seed: u64,
) -> bool {
    fn pick<T>(mut sites: Vec<T>, rng: &mut SplitMix64) -> Option<T> {
        if sites.is_empty() {
            None
        } else {
            let i = rng.below(sites.len() as u64) as usize;
            Some(sites.swap_remove(i))
        }
    }
    let mut rng = SplitMix64::new(seed);
    match fault {
        ScheduleFault::IllegalTransform => {
            // Any unimodular candidate lint cannot certify. The shape
            // and unimodularity checks pass by construction, so the
            // schedule's sole lint error is the failed certificate.
            let mut sites = Vec::new();
            for nest in &prog.nests {
                let depth = nest.depth();
                let identity = IMat::identity(depth);
                for t in candidate_transforms(depth, 1) {
                    if t != identity && ndc_lint::certify(nest, &t).is_err() {
                        sites.push((nest.id, t));
                    }
                }
            }
            match pick(sites, &mut rng) {
                Some((nest, t)) => {
                    schedule.transforms.insert(nest, t);
                    true
                }
                None => false,
            }
        }
        ScheduleFault::SwappedDependentStmts => {
            let mut sites = Vec::new();
            for nest in &prog.nests {
                let graph = DependenceGraph::analyze(nest);
                for e in &graph.edges {
                    if !e.kind.constrains() || e.src == e.dst {
                        continue;
                    }
                    let DistanceVector::Constant(d) = &e.distance else {
                        continue;
                    };
                    if d.iter().any(|&x| x != 0) {
                        continue;
                    }
                    if let (Some(sp), Some(dp)) = (nest.stmt_pos(e.src), nest.stmt_pos(e.dst)) {
                        if sp != dp {
                            sites.push((nest.id, nest.body.len(), sp, dp));
                        }
                    }
                }
            }
            match pick(sites, &mut rng) {
                Some((nest, len, sp, dp)) => {
                    let mut order: Vec<usize> = (0..len).collect();
                    order.swap(sp, dp);
                    schedule.stmt_order.insert(nest, order);
                    true
                }
                None => false,
            }
        }
        ScheduleFault::CorruptedPermutation => {
            let sites: Vec<_> = prog
                .nests
                .iter()
                .filter(|n| n.body.len() >= 2)
                .map(|n| (n.id, n.body.len()))
                .collect();
            match pick(sites, &mut rng) {
                Some((nest, len)) => {
                    let mut order: Vec<usize> = (0..len).collect();
                    order[len - 1] = order[0];
                    schedule.stmt_order.insert(nest, order);
                    true
                }
                None => false,
            }
        }
        ScheduleFault::NonUnimodularTransform => {
            let sites: Vec<_> = prog.nests.iter().map(|n| (n.id, n.depth())).collect();
            match pick(sites, &mut rng) {
                Some((nest, depth)) => {
                    let mut t = IMat::identity(depth);
                    for i in 0..depth {
                        t[(i, i)] = 2;
                    }
                    schedule.transforms.insert(nest, t);
                    true
                }
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::check_run;
    use ndc_ir::{lower, LowerOptions};
    use ndc_sim::{CheckLevel, Engine, Scheme, WaitBudget};
    use ndc_types::ArchConfig;
    use ndc_workloads::{by_name, Scale};

    /// A real checked run with NDC traffic so every fault class has an
    /// injection site (kdtree offloads on every chain).
    fn checked_run() -> (CheckData, SimResult) {
        let cfg = ArchConfig::paper_default();
        let prog = by_name("kdtree").unwrap().build_timesteps(Scale::Test, 1);
        let traces = lower(
            &prog,
            &LowerOptions {
                cores: cfg.nodes(),
                emit_busy: true,
            },
            None,
        );
        let out = Engine::new(
            cfg,
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::PctOfCap(50),
            },
        )
        .with_check(CheckLevel::full())
        .run();
        (
            out.check.expect("checked run records CheckData"),
            out.result,
        )
    }

    #[test]
    fn healthy_run_passes_all_invariants() {
        let (data, result) = checked_run();
        let report = check_run(&data, &result);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.requests > 0);
        assert!(data.dram_requests > 0);
        assert!(result.ndc_attempts > 0, "need NDC traffic for the matrix");
    }

    #[test]
    fn every_fault_trips_exactly_its_invariant() {
        let (clean_data, clean_result) = checked_run();
        for (k, fault) in ALL_FAULTS.iter().enumerate() {
            let mut data = clean_data.clone();
            let mut result = clean_result.clone();
            let injected = inject(&mut data, &mut result, *fault, 0x9E37 + k as u64);
            assert!(
                injected,
                "{}: no injection site in a real run",
                fault.label()
            );
            let report = check_run(&data, &result);
            assert!(
                report.violated(fault.expected_invariant()),
                "{}: expected a {} violation, got {:?}",
                fault.label(),
                fault.expected_invariant().label(),
                report.violations
            );
        }
    }

    #[test]
    fn injection_is_seed_deterministic() {
        let (clean_data, clean_result) = checked_run();
        let mut a = (clean_data.clone(), clean_result.clone());
        let mut b = (clean_data, clean_result);
        assert!(inject(&mut a.0, &mut a.1, Fault::DroppedFlit, 42));
        assert!(inject(&mut b.0, &mut b.1, Fault::DroppedFlit, 42));
        assert_eq!(
            a.0.events, b.0.events,
            "same seed must pick the same victim"
        );
    }

    #[test]
    fn inject_reports_missing_sites() {
        let mut data = CheckData::default();
        let mut result = SimResult::default();
        for fault in ALL_FAULTS {
            assert!(
                !inject(&mut data, &mut result, fault, 1),
                "{}: empty run has no injection site",
                fault.label()
            );
        }
    }

    /// A full checked run whose `EngineOutput` carries the attribution
    /// ledger (enabled whenever invariants are checked).
    fn checked_output() -> ndc_sim::EngineOutput {
        let cfg = ArchConfig::paper_default();
        let prog = by_name("kdtree").unwrap().build_timesteps(Scale::Test, 1);
        let traces = lower(
            &prog,
            &LowerOptions {
                cores: cfg.nodes(),
                emit_busy: true,
            },
            None,
        );
        Engine::new(
            cfg,
            &traces,
            Scheme::NdcAll {
                budget: WaitBudget::PctOfCap(50),
            },
        )
        .with_check(CheckLevel::full())
        .run()
    }

    #[test]
    fn healthy_ledger_passes_conservation() {
        let out = checked_output();
        assert!(out.ledger.is_some(), "checked runs must carry a ledger");
        let report = crate::invariant::check_engine_output(&out);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn every_ledger_fault_trips_conservation() {
        let clean = checked_output();
        for (k, fault) in ALL_LEDGER_FAULTS.iter().enumerate() {
            let mut out = checked_output();
            out.ledger = clean.ledger.clone();
            let ledger = out.ledger.as_mut().expect("checked run carries a ledger");
            assert!(
                inject_ledger(ledger, *fault, 0xADD5 + k as u64),
                "{}: no injection site in a real run",
                fault.label()
            );
            let report = crate::invariant::check_engine_output(&out);
            assert!(
                report.violated(fault.expected_invariant()),
                "{}: expected a {} violation, got {:?}",
                fault.label(),
                fault.expected_invariant().label(),
                report.violations
            );
        }
    }

    #[test]
    fn ledger_injection_is_seed_deterministic_and_reports_missing_sites() {
        let clean = checked_output().ledger.unwrap();
        for fault in ALL_LEDGER_FAULTS {
            let mut a = clean.clone();
            let mut b = clean.clone();
            assert!(inject_ledger(&mut a, fault, 99));
            assert!(inject_ledger(&mut b, fault, 99));
            assert_eq!(
                a,
                b,
                "{}: same seed must pick the same victim",
                fault.label()
            );
        }
        let mut empty = AttributionLedger::new(1);
        for fault in ALL_LEDGER_FAULTS {
            assert!(
                !inject_ledger(&mut empty, fault, 1),
                "{}: empty ledger has no injection site",
                fault.label()
            );
        }
    }

    /// Two dependent statements (S0 writes Z, S1 reads it) plus a
    /// wavefront carried dependence: every schedule-fault class has an
    /// injection site.
    fn faultable_prog() -> ndc_ir::Program {
        use ndc_ir::{ArrayDecl, ArrayRef, LoopNest, Ref, Stmt};
        use ndc_types::Op;
        let mut p = ndc_ir::Program::new("faultable");
        let z = p.add_array(ArrayDecl::new("Z", vec![17, 16], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![17, 16], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(z, 2, vec![-1, 1])),
            Ref::Const(1.0),
            1,
        );
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(w, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(z, 2, vec![0, 0])),
            Ref::Const(0.0),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![1, 0], vec![16, 15], vec![s0, s1]));
        p.assign_layout(0, 4096);
        p
    }

    #[test]
    fn every_schedule_fault_draws_exactly_its_lint_error() {
        let p = faultable_prog();
        for (k, fault) in ALL_SCHEDULE_FAULTS.iter().enumerate() {
            let mut sched = Schedule::default();
            assert!(
                inject_schedule(&p, &mut sched, *fault, 0xC0FF + k as u64),
                "{}: no injection site",
                fault.label()
            );
            let report = ndc_lint::lint_schedule(&p, &sched);
            assert!(
                report
                    .errors
                    .iter()
                    .any(|e| e.label() == fault.expected_lint()),
                "{}: expected a {} error, got {:?}",
                fault.label(),
                fault.expected_lint(),
                report.errors
            );
        }
    }

    #[test]
    fn schedule_injection_is_seed_deterministic() {
        let p = faultable_prog();
        for fault in ALL_SCHEDULE_FAULTS {
            let mut a = Schedule::default();
            let mut b = Schedule::default();
            assert!(inject_schedule(&p, &mut a, fault, 77));
            assert!(inject_schedule(&p, &mut b, fault, 77));
            assert_eq!(a.transforms, b.transforms, "{}", fault.label());
            assert_eq!(a.stmt_order, b.stmt_order, "{}", fault.label());
        }
    }

    #[test]
    fn schedule_inject_reports_missing_sites() {
        use ndc_ir::{ArrayDecl, ArrayRef, LoopNest, Ref, Stmt};
        // A single-statement dependence-free nest: nothing to swap and
        // no dependent pair, so the order faults have no site; the
        // transform faults always do.
        let mut p = ndc_ir::Program::new("clean");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let s = Stmt::copy(0, ArrayRef::identity(x, 1, vec![0]), Ref::Const(1.0), 0);
        p.nests.push(LoopNest::new(0, vec![0], vec![8], vec![s]));
        p.assign_layout(0, 64);
        let mut sched = Schedule::default();
        assert!(!inject_schedule(
            &p,
            &mut sched,
            ScheduleFault::SwappedDependentStmts,
            1
        ));
        assert!(!inject_schedule(
            &p,
            &mut sched,
            ScheduleFault::CorruptedPermutation,
            1
        ));
        assert!(sched.transforms.is_empty() && sched.stmt_order.is_empty());
        assert!(inject_schedule(
            &p,
            &mut sched,
            ScheduleFault::NonUnimodularTransform,
            1
        ));
    }
}
