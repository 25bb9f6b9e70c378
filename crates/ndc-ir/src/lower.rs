//! Lowering: from (scheduled) IR programs to per-core instruction
//! traces.
//!
//! The parallelization step (Figure 7) is modelled here: the nest's
//! `parallel_level` dimension is block-partitioned across the machine's
//! cores, one thread per core (Table 1). Within a thread, iteration
//! points execute in the schedule's order (transformed lexicographic
//! order under `T`), and each statement instance lowers to `Busy` +
//! `Load`/`Compute`/`Store` instructions with concrete physical
//! addresses.
//!
//! Pre-compute plans lower to [`InstKind::PreCompute`] instructions
//! issued `lookahead` iterations ahead of their consumer, which is the
//! trace-level realization of the S1'/S2'/S3' code motion of Figure 8:
//! the offload request (and its operand fetches, staggered by the plan's
//! `stagger`) starts early, and the original statement S3 becomes a
//! `Compute` that consumes the offloaded result.

use crate::affine::AffineAddr;
use crate::program::{ArrayRef, LoopNest, NestId, PointList, Program, Ref, Stmt, StmtId};
use crate::schedule::{chain_operands, FusedPrecomputePlan, Schedule};
use ndc_types::{
    Addr, FxHashMap, Inst, InstKind, NodeId, Op, Operand, Pc, Trace, TraceProgram, MAX_FUSED_OPS,
};

/// A structural defect in the (program, schedule) pair that makes
/// lowering meaningless. Returned by [`try_lower`] instead of
/// panicking, so fuzzed or externally supplied schedules fail
/// gracefully with a diagnosable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A pre-compute plan names a statement that does not exist in the
    /// nest it targets.
    UnknownPlanStmt { nest: NestId, stmt: StmtId },
    /// A pre-compute plan targets a nest that does not exist in the
    /// program.
    UnknownPlanNest { nest: NestId },
    /// A fused plan's chain shape is invalid (bad member count,
    /// non-increasing positions, missing link, gathered operand aliasing
    /// an earlier destination, ...).
    InvalidFusedPlan { nest: NestId, detail: String },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnknownPlanStmt { nest, stmt } => write!(
                f,
                "precompute plan references statement S{} absent from nest N{}",
                stmt.0, nest.0
            ),
            LowerError::UnknownPlanNest { nest } => write!(
                f,
                "precompute plan references nest N{} absent from the program",
                nest.0
            ),
            LowerError::InvalidFusedPlan { nest, detail } => {
                write!(f, "fused plan for nest N{} is invalid: {detail}", nest.0)
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowering options.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Number of cores (threads); the parallel dimension is
    /// block-partitioned across them.
    pub cores: usize,
    /// Emit `Busy` instructions for statement `work` (disable for pure
    /// address-trace analyses).
    pub emit_busy: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            cores: 25,
            emit_busy: true,
        }
    }
}

/// Stable PC numbering: each (nest position, statement position,
/// micro-op role) triple gets a distinct PC shared by all dynamic
/// instances. Public so analyses (CME accuracy, Figure 5 series) can
/// map simulator per-PC counters back to IR references.
pub fn pc_of(nest_pos: usize, stmt_pos: usize, role: u32) -> Pc {
    (nest_pos as Pc) * 4096 + (stmt_pos as Pc) * 16 + role
}

/// Role of the `Busy` micro-op within a statement's lowering.
pub const ROLE_BUSY: u32 = 0;
/// Role of the main `Compute`/`Load` micro-op.
pub const ROLE_MAIN: u32 = 1;
/// Role of a copy statement's `Store` micro-op.
pub const ROLE_STORE: u32 = 2;
/// Role of an inserted `PreCompute` micro-op.
pub const ROLE_PRECOMPUTE: u32 = 3;

/// Lower a program to per-core traces. `schedule = None` produces the
/// baseline stream; with a schedule, iteration order, statement order,
/// and pre-compute insertion apply.
///
/// Panics if the schedule is structurally invalid (see [`try_lower`]
/// for the non-panicking variant); compiler-produced schedules are
/// always valid.
pub fn lower(prog: &Program, opts: &LowerOptions, schedule: Option<&Schedule>) -> TraceProgram {
    match try_lower(prog, opts, schedule) {
        Ok(tp) => tp,
        Err(e) => panic!("lower: {e}"),
    }
}

/// Lowering with structural validation: every pre-compute plan must
/// reference an existing nest and a statement present in that nest's
/// body. Returns a [`LowerError`] instead of panicking on a defective
/// schedule.
pub fn try_lower(
    prog: &Program,
    opts: &LowerOptions,
    schedule: Option<&Schedule>,
) -> Result<TraceProgram, LowerError> {
    let default_schedule = Schedule::default();
    let sched = schedule.unwrap_or(&default_schedule);
    for plan in &sched.precomputes {
        let Some(nest) = prog.nests.iter().find(|n| n.id == plan.nest) else {
            return Err(LowerError::UnknownPlanNest { nest: plan.nest });
        };
        if nest.stmt(plan.stmt).is_none() {
            return Err(LowerError::UnknownPlanStmt {
                nest: plan.nest,
                stmt: plan.stmt,
            });
        }
    }
    for plan in &sched.fused {
        let Some(nest) = prog.nests.iter().find(|n| n.id == plan.nest) else {
            return Err(LowerError::UnknownPlanNest { nest: plan.nest });
        };
        crate::schedule::validate_chain_shape(nest, &plan.stmts).map_err(|detail| {
            LowerError::InvalidFusedPlan {
                nest: plan.nest,
                detail,
            }
        })?;
    }
    let cores = opts.cores.max(1);
    let mut out = TraceProgram::new(prog.name.clone());
    out.traces = (0..opts.cores)
        .map(|c| Trace::new(NodeId(c as u16)))
        .collect();
    // One reservation per trace: the points each nest gives the thread,
    // times the most instructions a point can lower to. The final
    // `shrink_to_fit` trims only what the bound over-counts (lookahead
    // tails and halo fallbacks).
    let reserved: Vec<usize> = (0..out.traces.len())
        .map(|t| {
            prog.nests
                .iter()
                .map(|nest| {
                    nest.thread_points(t, cores) * insts_per_point(nest, sched, opts.emit_busy)
                })
                .sum::<u64>() as usize
        })
        .collect();
    for (trace, &bound) in out.traces.iter_mut().zip(&reserved) {
        trace.insts.reserve_exact(bound);
    }
    // Next free precompute id per trace, carried across nests. Ids are
    // dense per trace (0..precompute_ids), which lets the engine index
    // its pre-result table directly instead of hashing (usize, u32)
    // keys in the inner loop.
    let mut next_ids = vec![0u32; opts.cores];

    for (nest_pos, nest) in prog.nests.iter().enumerate() {
        let order = sched.stmt_order_for(nest);
        let plans: Vec<_> = sched.plans_for(nest.id).collect();
        // Each plan's statement position in this nest's body, looked up
        // once rather than at every point.
        let plan_pos: Vec<Option<usize>> = plans.iter().map(|p| nest.stmt_pos(p.stmt)).collect();
        let stmt_addrs: Vec<StmtAddrs> = nest
            .body
            .iter()
            .map(|s| StmtAddrs::new(prog, s, nest))
            .collect();
        let fused_infos: Vec<FusedLowerInfo> = sched
            .fused_for(nest.id)
            .map(|p| FusedLowerInfo::build(prog, nest, p))
            .collect();
        // Statement id -> (fused plan index, chain member index).
        let mut fused_member: FxHashMap<StmtId, (usize, usize)> = FxHashMap::default();
        for (fi, p) in sched.fused_for(nest.id).enumerate() {
            for (mi, id) in p.stmts.iter().enumerate() {
                fused_member.insert(*id, (fi, mi));
            }
        }

        // Scheduled points grouped by the thread that runs them (block
        // partitioning of the original parallel dimension), each
        // thread's in schedule order (`interp::scheduled_points`):
        // thread `t` runs points `starts[t]..starts[t + 1]`. Under a
        // transform one sort by (thread, T·I) both orders and groups
        // them.
        let thread = |p: &[i64]| nest.thread_of(p, cores);
        let points = match sched.transforms.get(&nest.id) {
            Some(t) => PointList::sorted_by(nest, 1 + t.rows, |p, key| {
                key[0] = thread(p) as i64;
                t.mul_into(p, &mut key[1..]);
            }),
            None => PointList::of(nest),
        };
        let (points, starts) = points.grouped_by(cores, thread);

        for (tid, bounds) in starts.windows(2).enumerate() {
            let my_points = |j: usize| points.get(bounds[0] + j);
            let my_len = bounds[1] - bounds[0];
            let trace = &mut out.traces[tid];
            let mut next_precompute_id = next_ids[tid];
            // (plan index, consumer point index) -> precompute id.
            let mut pending: FxHashMap<(usize, usize), u32> = FxHashMap::default();
            // (fused plan index, consumer point index) -> base id. Kept
            // until every chain member at that point has consumed its
            // slot, then retired after the body loop.
            let mut pending_fused: FxHashMap<(usize, usize), u32> = FxHashMap::default();
            for j in 0..my_len {
                let point = my_points(j);
                // Issue pre-computes whose consumer sits `lookahead`
                // iterations ahead.
                for (pi, plan) in plans.iter().enumerate() {
                    let target = j + plan.lookahead as usize;
                    if target >= my_len {
                        continue;
                    }
                    let Some(stmt_pos) = plan_pos[pi] else {
                        continue;
                    };
                    let addrs = &stmt_addrs[stmt_pos];
                    let (Some(op), OperandAddr::Mem(ra), Some(OperandAddr::Mem(rb))) =
                        (nest.body[stmt_pos].op, &addrs.a, &addrs.b)
                    else {
                        continue;
                    };
                    let tpoint = my_points(target);
                    let (Some(addr_a), Some(addr_b)) = (ra.at(prog, tpoint), rb.at(prog, tpoint))
                    else {
                        continue;
                    };
                    let store_to = addrs.dst.at(prog, tpoint);
                    let id = next_precompute_id;
                    next_precompute_id += 1;
                    pending.insert((pi, target), id);
                    trace.insts.push(Inst {
                        pc: pc_of(nest_pos, stmt_pos, ROLE_PRECOMPUTE),
                        kind: InstKind::PreCompute {
                            id,
                            op,
                            a: addr_a,
                            b: addr_b,
                            store_to,
                            stagger: plan.stagger,
                            reshape_routes: plan.reshape_routes,
                        },
                    });
                }

                // Issue fused packets whose chain head's consumer sits
                // `lookahead` iterations ahead: one gather of the union
                // footprint, one packet, `n_ops` result slots.
                for (fi, info) in fused_infos.iter().enumerate() {
                    let target = j + info.lookahead as usize;
                    if target >= my_len {
                        continue;
                    }
                    let tpoint = my_points(target);
                    let mut addrs = [0u64; MAX_FUSED_OPS + 1];
                    let mut resolvable = true;
                    for (k, r) in info.gathered.iter().enumerate() {
                        match r.at(prog, tpoint) {
                            Some(a) => addrs[k] = a,
                            None => {
                                // Halo access: the chain falls back to
                                // conventional execution at this point.
                                resolvable = false;
                                break;
                            }
                        }
                    }
                    if !resolvable {
                        continue;
                    }
                    let id = next_precompute_id;
                    next_precompute_id += info.n_ops as u32;
                    pending_fused.insert((fi, target), id);
                    trace.insts.push(Inst {
                        pc: pc_of(nest_pos, info.head_pos, ROLE_PRECOMPUTE),
                        kind: InstKind::FusedPreCompute {
                            id,
                            n_ops: info.n_ops,
                            ops: info.ops,
                            addrs,
                            stagger: info.stagger,
                            reshape_routes: info.reshape_routes,
                        },
                    });
                }

                // Body statements in scheduled order.
                for &stmt_pos in &order {
                    let stmt = &nest.body[stmt_pos];
                    let precomputed = plans
                        .iter()
                        .enumerate()
                        .find_map(|(pi, plan)| {
                            (plan.stmt == stmt.id)
                                .then(|| pending.remove(&(pi, j)))
                                .flatten()
                        })
                        .or_else(|| {
                            let &(fi, mi) = fused_member.get(&stmt.id)?;
                            pending_fused.get(&(fi, j)).map(|&base| base + mi as u32)
                        });
                    emit_stmt(
                        prog,
                        trace,
                        nest_pos,
                        stmt_pos,
                        stmt,
                        &stmt_addrs[stmt_pos],
                        point,
                        precomputed,
                        opts.emit_busy,
                    );
                }
                // Retire fused slots consumed at this point.
                pending_fused.retain(|&(_, t), _| t != j);
            }
            next_ids[tid] = next_precompute_id;
        }
    }
    // Callers keep traces while they simulate them, and an evaluation
    // keeps every kernel's baseline, so the bound's slack would stay
    // resident; hand it back to the allocator.
    for (trace, &bound) in out.traces.iter_mut().zip(&reserved) {
        debug_assert!(trace.insts.len() <= bound, "trace outgrew its reservation");
        trace.insts.shrink_to_fit();
    }
    debug_assert_eq!(out.validate_precompute_links(), Ok(()));
    Ok(out)
}

/// The most instructions one point of `nest` lowers to: one per
/// precompute plan and per fused plan, and per statement a `Busy` (when
/// emitted) plus a `Compute`, or a `Load` and a `Store` for a copy.
fn insts_per_point(nest: &LoopNest, sched: &Schedule, emit_busy: bool) -> u64 {
    let plans = sched.plans_for(nest.id).count() + sched.fused_for(nest.id).count();
    let body: usize = nest
        .body
        .iter()
        .map(|s| {
            let busy = usize::from(emit_busy && s.work > 0);
            let main = match (s.op, &s.b) {
                (Some(_), Some(_)) => 1,
                _ => 2,
            };
            busy + main
        })
        .sum();
    (plans + body) as u64
}

/// How lowering finds one reference's address at a point.
enum RefAddr<'a> {
    /// Proven inside its array over the whole nest: `c0 + g·I`.
    Affine(AffineAddr),
    /// May leave its array: [`Program::addr_of`], `None` outside.
    Checked(&'a ArrayRef),
}

impl<'a> RefAddr<'a> {
    fn new(prog: &Program, aref: &'a ArrayRef, nest: &LoopNest) -> Self {
        match AffineAddr::of(prog, aref, nest) {
            Some(form) => RefAddr::Affine(form),
            None => RefAddr::Checked(aref),
        }
    }

    #[inline]
    fn at(&self, prog: &Program, point: &[i64]) -> Option<Addr> {
        match self {
            RefAddr::Affine(form) => Some(form.at(point)),
            RefAddr::Checked(aref) => prog.addr_of(aref, point),
        }
    }
}

/// A right-hand-side operand, ready to evaluate at each point.
enum OperandAddr<'a> {
    Mem(RefAddr<'a>),
    Const(f64),
}

impl<'a> OperandAddr<'a> {
    fn new(prog: &Program, r: &'a Ref, nest: &LoopNest) -> Self {
        match r {
            Ref::Array(a) => OperandAddr::Mem(RefAddr::new(prog, a, nest)),
            Ref::Const(c) => OperandAddr::Const(*c),
        }
    }

    #[inline]
    fn at(&self, prog: &Program, point: &[i64]) -> Operand {
        match self {
            OperandAddr::Mem(r) => match r.at(prog, point) {
                Some(addr) => Operand::Mem(addr),
                // Halo/out-of-bounds reads evaluate to 0.0 (matching the
                // interpreter) and cost nothing.
                None => Operand::Imm(0.0),
            },
            OperandAddr::Const(c) => Operand::Imm(*c),
        }
    }
}

/// One statement's references, built once per nest.
struct StmtAddrs<'a> {
    dst: RefAddr<'a>,
    a: OperandAddr<'a>,
    b: Option<OperandAddr<'a>>,
}

impl<'a> StmtAddrs<'a> {
    fn new(prog: &Program, stmt: &'a Stmt, nest: &LoopNest) -> Self {
        StmtAddrs {
            dst: RefAddr::new(prog, &stmt.dst, nest),
            a: OperandAddr::new(prog, &stmt.a, nest),
            b: stmt.b.as_ref().map(|b| OperandAddr::new(prog, b, nest)),
        }
    }
}

/// Per-nest lowering view of one fused plan: member ops in chain order
/// and the gathered operand references (head `a`, head `b`, then each
/// tail's single gathered operand — the packet's union footprint).
struct FusedLowerInfo<'a> {
    head_pos: usize,
    n_ops: u8,
    ops: [Op; MAX_FUSED_OPS],
    gathered: Vec<RefAddr<'a>>,
    lookahead: u32,
    stagger: i32,
    reshape_routes: bool,
}

impl<'a> FusedLowerInfo<'a> {
    /// Plans are validated up-front ([`crate::schedule::validate_chain_shape`]),
    /// so member lookups here cannot fail.
    fn build(prog: &Program, nest: &'a LoopNest, plan: &FusedPrecomputePlan) -> Self {
        let head = nest.stmt(plan.stmts[0]).expect("validated plan");
        let (ra, rb) = head.memory_operand_pair().expect("validated head");
        let mut ops = [Op::Add; MAX_FUSED_OPS];
        ops[0] = head.op.expect("validated head");
        let mut gathered = vec![RefAddr::new(prog, ra, nest), RefAddr::new(prog, rb, nest)];
        let mut prev_dst = &head.dst;
        for (k, id) in plan.stmts[1..].iter().enumerate() {
            let s = nest.stmt(*id).expect("validated plan");
            let (_, g) = chain_operands(s, prev_dst).expect("validated link");
            ops[k + 1] = s.op.expect("validated tail");
            gathered.push(RefAddr::new(prog, g, nest));
            prev_dst = &s.dst;
        }
        FusedLowerInfo {
            head_pos: nest.stmt_pos(plan.stmts[0]).expect("validated plan"),
            n_ops: plan.stmts.len() as u8,
            ops,
            gathered,
            lookahead: plan.lookahead,
            stagger: plan.stagger,
            reshape_routes: plan.reshape_routes,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_stmt(
    prog: &Program,
    trace: &mut Trace,
    nest_pos: usize,
    stmt_pos: usize,
    stmt: &Stmt,
    addrs: &StmtAddrs,
    point: &[i64],
    precomputed: Option<u32>,
    emit_busy: bool,
) {
    if emit_busy && stmt.work > 0 {
        trace.insts.push(Inst {
            pc: pc_of(nest_pos, stmt_pos, ROLE_BUSY),
            kind: InstKind::Busy { cycles: stmt.work },
        });
    }
    let dst_addr = addrs.dst.at(prog, point);
    match (stmt.op, &addrs.b) {
        (Some(op), Some(b)) => {
            trace.insts.push(Inst {
                pc: pc_of(nest_pos, stmt_pos, ROLE_MAIN),
                kind: InstKind::Compute {
                    op,
                    a: addrs.a.at(prog, point),
                    b: b.at(prog, point),
                    store_to: dst_addr,
                    precomputed,
                },
            });
        }
        _ => {
            // Copy statement: load (if memory) then store.
            if let Operand::Mem(addr) = addrs.a.at(prog, point) {
                trace.insts.push(Inst {
                    pc: pc_of(nest_pos, stmt_pos, ROLE_MAIN),
                    kind: InstKind::Load { addr },
                });
            }
            if let Some(d) = dst_addr {
                trace.insts.push(Inst {
                    pc: pc_of(nest_pos, stmt_pos, ROLE_STORE),
                    kind: InstKind::Store { addr: d },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayDecl, ArrayRef, LoopNest, Program};
    use crate::schedule::{MoveStrategy, PrecomputePlan};
    use ndc_types::{NdcLocation, Op};

    fn vec_add(n: u64) -> Program {
        let mut p = Program::new("vadd");
        let x = p.add_array(ArrayDecl::new("X", vec![n], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![n], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![n], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            2,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![n as i64], vec![s]));
        p.assign_layout(0, 256);
        p
    }

    #[test]
    fn baseline_lowering_shape() {
        let p = vec_add(100);
        let opts = LowerOptions {
            cores: 4,
            emit_busy: true,
        };
        let tp = lower(&p, &opts, None);
        assert_eq!(tp.traces.len(), 4);
        assert_eq!(tp.total_computes(), 100);
        assert_eq!(tp.total_precomputes(), 0);
        // Busy + Compute per iteration.
        assert_eq!(tp.total_insts(), 200);
        // Block partitioning: 100/4 = 25 iterations -> 50 insts per core.
        for t in &tp.traces {
            assert_eq!(t.insts.len(), 50);
        }
    }

    #[test]
    fn partitioning_is_block_contiguous() {
        let p = vec_add(100);
        let opts = LowerOptions {
            cores: 4,
            emit_busy: false,
        };
        let tp = lower(&p, &opts, None);
        // Thread 0 computes Z[0..25): its first compute reads X[0].
        let x_base = p.array(crate::program::ArrayId(0)).base;
        match tp.traces[0].insts.get(0).kind {
            InstKind::Compute { a, .. } => assert_eq!(a.addr(), Some(x_base)),
            ref k => panic!("unexpected {k:?}"),
        }
        match tp.traces[1].insts.get(0).kind {
            InstKind::Compute { a, .. } => assert_eq!(a.addr(), Some(x_base + 25 * 8)),
            ref k => panic!("unexpected {k:?}"),
        }
    }

    /// Every point lowered into trace `t` is one that
    /// [`LoopNest::thread_of`] gives to thread `t`, in the order
    /// `scheduled_points` runs them: with either loop parallel or
    /// none, under transforms that interleave the threads' points, and
    /// for core counts that do not divide the extent.
    #[test]
    fn every_lowered_point_runs_on_its_thread() {
        let (rows, cols) = (10i64, 7i64);
        let transforms = [
            crate::matrix::IMat::identity(2),
            crate::matrix::IMat::from_rows(&[&[0, 1], &[1, 0]]),
            crate::matrix::IMat::from_rows(&[&[-1, 0], &[0, 1]]),
            crate::matrix::IMat::from_rows(&[&[1, 0], &[1, 1]]),
        ];
        for level in [Some(0), Some(1), None] {
            for t in &transforms {
                for cores in [1, 3, 4] {
                    let mut p = Program::new("owners");
                    let x = p.add_array(ArrayDecl::new("X", vec![rows as u64, cols as u64], 8));
                    // X[i+5][j] over i in -5..5: a negative lower bound.
                    let at = ArrayRef::identity(x, 2, vec![5, 0]);
                    let s =
                        Stmt::binary(0, at.clone(), Op::Add, Ref::Array(at), Ref::Const(1.0), 0);
                    let mut nest = LoopNest::new(0, vec![-5, 0], vec![rows - 5, cols], vec![s]);
                    nest.parallel_level = level;
                    p.nests.push(nest.clone());
                    p.assign_layout(0, 64);
                    let mut sched = Schedule::default();
                    sched
                        .transforms
                        .insert(crate::program::NestId(0), t.clone());
                    let opts = LowerOptions {
                        cores,
                        emit_busy: false,
                    };
                    let tp = lower(&p, &opts, Some(&sched));
                    let scheduled = crate::interp::scheduled_points(&nest, &sched);
                    let mut lowered = 0;
                    for (tid, trace) in tp.traces.iter().enumerate() {
                        let mut mine = scheduled.iter().filter(|q| nest.thread_of(q, cores) == tid);
                        for inst in &trace.insts {
                            let InstKind::Compute {
                                store_to: Some(addr),
                                ..
                            } = inst.kind
                            else {
                                panic!("unexpected {inst:?}");
                            };
                            let l = (addr - p.array(x).base) as i64 / 8;
                            let point = [l / cols - 5, l % cols];
                            assert_eq!(
                                nest.thread_of(&point, cores),
                                tid,
                                "{point:?} under {t:?}, {level:?} of {cores} cores"
                            );
                            // In schedule order within the thread.
                            assert_eq!(mine.next(), Some(&point[..]), "under {t:?}");
                            lowered += 1;
                        }
                        assert_eq!(mine.next(), None);
                    }
                    assert_eq!(lowered, nest.points());
                }
            }
        }
    }

    #[test]
    fn precompute_plans_lower_with_lookahead() {
        let p = vec_add(40);
        let mut sched = Schedule::default();
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(0),
            stmt: crate::program::StmtId(0),
            lookahead: 3,
            stagger: 5,
            reshape_routes: true,
            strategy: MoveStrategy::MoveY,
            target: NdcLocation::CacheController,
        });
        let opts = LowerOptions {
            cores: 2,
            emit_busy: false,
        };
        let tp = lower(&p, &opts, Some(&sched));
        assert!(tp.validate_precompute_links().is_ok());
        // Each thread has 20 iterations; consumers exist for the first
        // 17 precomputes (20 - 3).
        assert_eq!(tp.total_precomputes(), 2 * 17);
        // Consumers at positions >= lookahead are marked precomputed.
        let consumed = tp
            .traces
            .iter()
            .flat_map(|t| &t.insts)
            .filter(|i| {
                matches!(
                    i.kind,
                    InstKind::Compute {
                        precomputed: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(consumed, 2 * 17);
        // The precompute for consumer j carries consumer j's addresses,
        // issued 3 iterations earlier.
        let t0 = &tp.traces[0];
        let first_pre = t0
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::PreCompute {
                    a,
                    stagger,
                    reshape_routes,
                    ..
                } => Some((a, stagger, reshape_routes)),
                _ => None,
            })
            .unwrap();
        let x_base = p.array(crate::program::ArrayId(0)).base;
        assert_eq!(first_pre.0, x_base + 3 * 8);
        assert_eq!(first_pre.1, 5);
        assert!(first_pre.2);
    }

    #[test]
    fn zero_lookahead_still_links() {
        let p = vec_add(10);
        let mut sched = Schedule::default();
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(0),
            stmt: crate::program::StmtId(0),
            lookahead: 0,
            stagger: 0,
            reshape_routes: false,
            strategy: MoveStrategy::MoveBoth,
            target: NdcLocation::MemoryBank,
        });
        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let tp = lower(&p, &opts, Some(&sched));
        assert!(tp.validate_precompute_links().is_ok());
        assert_eq!(tp.total_precomputes(), 10);
    }

    #[test]
    fn transformed_order_changes_stream() {
        // 2D copy: transform interchanges loops; the address stream of
        // thread 0 must change accordingly.
        let mut p = Program::new("t2d");
        let x = p.add_array(ArrayDecl::new("X", vec![4, 4], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![4, 4], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Const(1.0),
            0,
        );
        let mut nest = LoopNest::new(0, vec![0, 0], vec![4, 4], vec![s]);
        nest.parallel_level = None;
        p.nests.push(nest);
        p.assign_layout(0, 64);

        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let base = lower(&p, &opts, None);
        let mut sched = Schedule::default();
        sched.transforms.insert(
            crate::program::NestId(0),
            crate::matrix::IMat::from_rows(&[&[0, 1], &[1, 0]]),
        );
        let xf = lower(&p, &opts, Some(&sched));
        let addrs = |tp: &TraceProgram| -> Vec<u64> {
            tp.traces[0]
                .insts
                .iter()
                .filter_map(|i| match i.kind {
                    InstKind::Compute { a, .. } => a.addr(),
                    _ => None,
                })
                .collect()
        };
        let a0 = addrs(&base);
        let a1 = addrs(&xf);
        assert_ne!(a0, a1);
        // Interchange = column-major walk: second access is X[1][0].
        let x_base = p.array(x).base;
        assert_eq!(a1[1], x_base + 4 * 8);
        // Same multiset of addresses.
        let mut s0 = a0.clone();
        let mut s1 = a1.clone();
        s0.sort_unstable();
        s1.sort_unstable();
        assert_eq!(s0, s1);
    }

    #[test]
    fn stmt_order_override_reorders_emission() {
        let mut p = Program::new("ord");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Const(1.0),
            Ref::Const(2.0),
            0,
        );
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(y, 1, vec![0]),
            Op::Add,
            Ref::Const(3.0),
            Ref::Const(4.0),
            0,
        );
        let mut nest = LoopNest::new(0, vec![0], vec![4], vec![s0, s1]);
        nest.parallel_level = None;
        p.nests.push(nest);
        p.assign_layout(0, 64);

        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let base = lower(&p, &opts, None);
        let mut sched = Schedule::default();
        sched
            .stmt_order
            .insert(crate::program::NestId(0), vec![1, 0]);
        let reordered = lower(&p, &opts, Some(&sched));
        // Same instruction count, swapped within-iteration order.
        assert_eq!(base.total_insts(), reordered.total_insts());
        let first_store = |tp: &TraceProgram| match tp.traces[0].insts.get(0).kind {
            InstKind::Compute { store_to, .. } => store_to,
            ref k => panic!("unexpected {k:?}"),
        };
        assert_ne!(first_store(&base), first_store(&reordered));
    }

    #[test]
    fn pc_numbering_is_stable_across_schedules() {
        let p = vec_add(16);
        let opts = LowerOptions {
            cores: 2,
            emit_busy: true,
        };
        let a = lower(&p, &opts, None);
        let mut sched = Schedule::default();
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(0),
            stmt: crate::program::StmtId(0),
            lookahead: 2,
            stagger: 0,
            reshape_routes: false,
            strategy: MoveStrategy::MoveBoth,
            target: NdcLocation::CacheController,
        });
        let b = lower(&p, &opts, Some(&sched));
        // The consumer Compute keeps its PC under the schedule; only
        // PreCompute instructions (a distinct role PC) are added.
        let pcs = |tp: &TraceProgram| {
            let mut v: Vec<_> = tp.traces[0]
                .insts
                .iter()
                .filter(|i| matches!(i.kind, InstKind::Compute { .. }))
                .map(|i| i.pc)
                .collect();
            v.dedup();
            v
        };
        assert_eq!(pcs(&a), pcs(&b));
    }

    #[test]
    fn busy_emission_toggle() {
        let p = vec_add(10);
        let with = lower(
            &p,
            &LowerOptions {
                cores: 1,
                emit_busy: true,
            },
            None,
        );
        let without = lower(
            &p,
            &LowerOptions {
                cores: 1,
                emit_busy: false,
            },
            None,
        );
        assert_eq!(with.total_insts(), 20);
        assert_eq!(without.total_insts(), 10);
    }

    #[test]
    fn plan_with_unknown_stmt_is_a_structured_error() {
        let p = vec_add(10);
        let mut sched = Schedule::default();
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(0),
            stmt: crate::program::StmtId(99),
            lookahead: 1,
            stagger: 0,
            reshape_routes: false,
            strategy: MoveStrategy::MoveBoth,
            target: NdcLocation::MemoryBank,
        });
        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let err = try_lower(&p, &opts, Some(&sched)).unwrap_err();
        assert_eq!(
            err,
            LowerError::UnknownPlanStmt {
                nest: crate::program::NestId(0),
                stmt: crate::program::StmtId(99),
            }
        );
        assert!(err.to_string().contains("S99"));
    }

    #[test]
    fn plan_with_unknown_nest_is_a_structured_error() {
        let p = vec_add(10);
        let mut sched = Schedule::default();
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(7),
            stmt: crate::program::StmtId(0),
            lookahead: 1,
            stagger: 0,
            reshape_routes: false,
            strategy: MoveStrategy::MoveBoth,
            target: NdcLocation::MemoryBank,
        });
        let opts = LowerOptions::default();
        let err = try_lower(&p, &opts, Some(&sched)).unwrap_err();
        assert_eq!(
            err,
            LowerError::UnknownPlanNest {
                nest: crate::program::NestId(7),
            }
        );
    }

    #[test]
    fn zero_trip_nest_lowers_to_empty_traces() {
        let mut p = Program::new("zt");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Const(1.0),
            2,
        );
        p.nests.push(LoopNest::new(0, vec![4], vec![4], vec![s]));
        p.assign_layout(0, 64);
        let tp = lower(
            &p,
            &LowerOptions {
                cores: 4,
                emit_busy: true,
            },
            None,
        );
        assert_eq!(tp.total_insts(), 0);
        assert_eq!(tp.total_computes(), 0);
    }

    /// s0: Z = X + Y, s1: W = Z * X — a two-member chain.
    fn chain_prog(n: u64) -> Program {
        let mut p = Program::new("chain");
        let x = p.add_array(ArrayDecl::new("X", vec![n], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![n], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![n], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![n], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(w, 1, vec![0]),
            Op::Mul,
            Ref::Array(ArrayRef::identity(z, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![n as i64], vec![s0, s1]));
        p.assign_layout(0, 256);
        p
    }

    fn chain_sched(lookahead: u32) -> Schedule {
        let mut sched = Schedule::default();
        sched.fused.push(crate::schedule::FusedPrecomputePlan {
            nest: crate::program::NestId(0),
            stmts: vec![crate::program::StmtId(0), crate::program::StmtId(1)],
            lookahead,
            stagger: 4,
            reshape_routes: true,
            target: NdcLocation::CacheController,
        });
        sched
    }

    #[test]
    fn fused_plan_lowers_to_one_packet_per_point() {
        let p = chain_prog(20);
        let opts = LowerOptions {
            cores: 2,
            emit_busy: false,
        };
        let tp = lower(&p, &opts, Some(&chain_sched(3)));
        assert!(tp.validate_precompute_links().is_ok());
        // 10 iterations per thread, consumers exist for the first 7:
        // one *packet* each, defining two ids each.
        assert_eq!(tp.total_precomputes(), 2 * 7);
        assert_eq!(
            tp.traces.iter().map(|t| t.precompute_ids()).sum::<u64>(),
            2 * 14
        );
        // Both chain members consume their slot: head gets base, tail
        // gets base + 1.
        let t0 = &tp.traces[0];
        let consumed: Vec<u32> = t0
            .insts
            .iter()
            .filter_map(|i| match i.kind {
                InstKind::Compute {
                    precomputed: Some(id),
                    ..
                } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(consumed.len(), 14);
        assert_eq!(&consumed[..2], &[0, 1]);
        // The packet carries the union footprint: head a, head b, tail
        // gathered (X, Y, X at the consumer point).
        let (addrs, n_ops, stagger) = t0
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::FusedPreCompute {
                    addrs,
                    n_ops,
                    stagger,
                    ..
                } => Some((addrs, n_ops, stagger)),
                _ => None,
            })
            .unwrap();
        assert_eq!(n_ops, 2);
        assert_eq!(stagger, 4);
        let x_base = p.array(crate::program::ArrayId(0)).base;
        let y_base = p.array(crate::program::ArrayId(1)).base;
        assert_eq!(addrs[0], x_base + 3 * 8);
        assert_eq!(addrs[1], y_base + 3 * 8);
        assert_eq!(addrs[2], x_base + 3 * 8);
    }

    #[test]
    fn fused_and_individual_ids_stay_dense() {
        // A fused chain in nest 0 plus an individual plan in nest 1:
        // ids must still be dense per trace.
        let mut p = chain_prog(10);
        let v = p.add_array(ArrayDecl::new("V", vec![10], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(v, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(v, 1, vec![0])),
            Ref::Array(ArrayRef::identity(crate::program::ArrayId(0), 1, vec![0])),
            1,
        );
        p.nests.push(LoopNest::new(1, vec![0], vec![10], vec![s]));
        p.assign_layout(0, 256);
        let mut sched = chain_sched(2);
        sched.precomputes.push(PrecomputePlan {
            nest: crate::program::NestId(1),
            stmt: crate::program::StmtId(0),
            lookahead: 2,
            stagger: 0,
            reshape_routes: false,
            strategy: MoveStrategy::MoveBoth,
            target: NdcLocation::MemoryBank,
        });
        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let tp = lower(&p, &opts, Some(&sched));
        assert!(tp.validate_precompute_links().is_ok());
        // Nest 0: 8 packets x 2 ids; nest 1: 8 singles.
        assert_eq!(tp.traces[0].precompute_ids(), 24);
    }

    #[test]
    fn invalid_fused_plan_is_a_structured_error() {
        let p = chain_prog(10);
        // Reversed member order: not strictly increasing.
        let mut sched = Schedule::default();
        sched.fused.push(crate::schedule::FusedPrecomputePlan {
            nest: crate::program::NestId(0),
            stmts: vec![crate::program::StmtId(1), crate::program::StmtId(0)],
            lookahead: 1,
            stagger: 0,
            reshape_routes: false,
            target: NdcLocation::CacheController,
        });
        let opts = LowerOptions {
            cores: 1,
            emit_busy: false,
        };
        let err = try_lower(&p, &opts, Some(&sched)).unwrap_err();
        assert!(matches!(err, LowerError::InvalidFusedPlan { .. }));
        assert!(err.to_string().contains("increasing"));
    }

    #[test]
    fn copy_statements_lower_to_load_store() {
        let mut p = Program::new("copy");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let s = Stmt::copy(
            0,
            ArrayRef::identity(y, 1, vec![0]),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            0,
        );
        let mut nest = LoopNest::new(0, vec![0], vec![8], vec![s]);
        nest.parallel_level = None;
        p.nests.push(nest);
        p.assign_layout(0, 64);
        let tp = lower(
            &p,
            &LowerOptions {
                cores: 1,
                emit_busy: false,
            },
            None,
        );
        let kinds: Vec<bool> = tp.traces[0]
            .insts
            .iter()
            .map(|i| matches!(i.kind, InstKind::Load { .. }))
            .collect();
        assert_eq!(tp.traces[0].insts.len(), 16);
        assert!(kinds[0]);
        assert!(!kinds[1]);
    }
}
