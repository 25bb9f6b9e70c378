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
//!
//! A thread's points come from one of two sources: the thread's box of
//! an untransformed nest ([`LoopNest::thread_box`]), walked in place
//! with each affine reference's address advanced by increments, or a
//! transformed nest's point list sorted by (thread, `T·I`). Both feed
//! one emitter, which evaluates every reference once per point into a
//! small ring of address rows that runs ahead of it by the longest
//! lookahead.

use crate::affine::AffineAddr;
use crate::program::{ArrayRef, LoopNest, NestId, PointList, Program, Ref, StmtId};
use crate::schedule::{chain_operands, is_permutation, FusedPrecomputePlan, Schedule};
use ndc_types::{
    Addr, Inst, InstKind, NodeId, Op, Operand, Pc, Trace, TraceProgram, MAX_FUSED_OPS,
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
    /// A statement-order override is not a permutation of the nest's
    /// body positions.
    InvalidStmtOrder { nest: NestId, order: Vec<usize> },
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
            LowerError::InvalidStmtOrder { nest, order } => write!(
                f,
                "statement order {order:?} for nest N{} is not a permutation of its body",
                nest.0
            ),
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
/// body, every fused plan must have a valid chain shape, and every
/// statement order a nest runs under must be a permutation of its body.
/// Returns a [`LowerError`] instead of panicking on a defective
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
    for nest in &prog.nests {
        let order = sched.stmt_order.get(&nest.id);
        if let Some(order) = order.filter(|o| !is_permutation(o, nest.body.len())) {
            return Err(LowerError::InvalidStmtOrder {
                nest: nest.id,
                order: order.clone(),
            });
        }
    }
    let cores = opts.cores.max(1);
    let mut out = TraceProgram::new(prog.name.clone());
    out.traces = (0..opts.cores)
        .map(|c| Trace::new(NodeId(c as u16)))
        .collect();
    // One reservation per trace: the points each nest gives the thread,
    // times the most instructions, and fused packets, a point can lower
    // to. The final `shrink_to_fit` trims only what the bound
    // over-counts (lookahead tails and halo fallbacks).
    let mut reserved = Vec::with_capacity(out.traces.len());
    for (t, trace) in out.traces.iter_mut().enumerate() {
        let (mut insts, mut fused) = (0, 0);
        for nest in &prog.nests {
            let points = nest.thread_points(t, cores);
            insts += points * insts_per_point(nest, sched, opts.emit_busy);
            fused += points * sched.fused_for(nest.id).count() as u64;
        }
        trace.insts.reserve_exact(insts as usize, fused as usize);
        reserved.push(insts as usize);
    }
    // Next free precompute id per trace, carried across nests. Ids are
    // dense per trace (0..precompute_ids), which lets the engine index
    // its pre-result table directly instead of hashing (usize, u32)
    // keys in the inner loop.
    let mut next_ids = vec![0u32; opts.cores];
    // Working memory for every nest and thread of this call.
    let mut plan = NestPlan::default();
    let mut rings = Rings::default();
    let mut walk = BoxWalk::default();

    for (nest_pos, nest) in prog.nests.iter().enumerate() {
        plan.build(prog, sched, nest, nest_pos, opts.emit_busy);
        let threads = out.traces.iter_mut().zip(&mut next_ids).enumerate();
        match sched.transforms.get(&nest.id) {
            // Thread `t` runs the points of its box in walk order.
            None => {
                for (tid, (trace, next_id)) in threads {
                    let n = nest.thread_box(tid, cores, &mut walk.lo, &mut walk.hi) as usize;
                    if n > 0 {
                        walk.start(&plan.refs);
                        emit_thread(prog, &plan, &mut rings, &mut walk, trace, next_id, n);
                    }
                }
            }
            // One sort by (thread, T·I) both orders and groups the
            // points: thread `t` runs the `thread_points(t)` after the
            // earlier threads' in schedule order
            // (`interp::transformed_points`).
            Some(t) => {
                let points = PointList::sorted_by(nest, 1 + t.rows, |p, key| {
                    key[0] = nest.thread_of(p, cores) as i64;
                    t.mul_into(p, &mut key[1..]);
                });
                let mut next = 0;
                for (tid, (trace, next_id)) in threads {
                    let n = nest.thread_points(tid, cores) as usize;
                    let mut list = ListWalk {
                        points: &points,
                        next,
                    };
                    next += n;
                    emit_thread(prog, &plan, &mut rings, &mut list, trace, next_id, n);
                }
            }
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

/// A right-hand-side operand: a reference's slot in the address row,
/// or a constant.
#[derive(Clone, Copy)]
enum Src {
    Mem(usize),
    Const(f64),
}

impl Src {
    /// The operand at the point whose addresses `row` holds.
    #[inline]
    fn at(self, row: &[Option<Addr>]) -> Operand {
        match self {
            Src::Mem(slot) => match row[slot] {
                Some(addr) => Operand::Mem(addr),
                // Halo/out-of-bounds reads evaluate to 0.0 (matching the
                // interpreter) and cost nothing.
                None => Operand::Imm(0.0),
            },
            Src::Const(c) => Operand::Imm(c),
        }
    }
}

/// One statement, resolved against the address row.
struct StmtInfo {
    id: StmtId,
    /// Whether a pre-compute plan or a fused plan names the statement,
    /// so that it may consume a precomputed result.
    consumer: bool,
    /// `Busy` cycles emitted before the statement, 0 for none.
    busy: u32,
    dst: usize,
    a: Src,
    /// The op and second operand of a computation; `None` for a copy.
    binary: Option<(Op, Src)>,
}

/// One pre-compute plan, resolved against its statement.
struct PlanInfo {
    stmt: StmtId,
    lookahead: usize,
    /// The op, the operand slots and the pc of what the plan issues;
    /// `None` when its statement is not a two-memory-operand
    /// computation of this nest, so it never issues.
    issue: Option<(Op, usize, usize, Pc)>,
    stagger: i32,
    reshape_routes: bool,
}

/// One fused plan: member ops in chain order and the slots of the
/// gathered operands (head `a`, head `b`, then each tail's single
/// gathered operand — the packet's union footprint).
struct FusedInfo {
    pc: Pc,
    n_ops: u8,
    ops: [Op; MAX_FUSED_OPS],
    gathered: [usize; MAX_FUSED_OPS + 1],
    lookahead: usize,
    stagger: i32,
    reshape_routes: bool,
}

/// What lowering needs of one nest. One is built per `try_lower` call
/// and rebuilt in place for each nest.
#[derive(Default)]
struct NestPlan<'a> {
    /// Every reference a point evaluates, in address-row order: each
    /// statement's `dst`, `a` and `b` (where they are arrays), then
    /// each fused plan's gathered operands.
    refs: Vec<RefAddr<'a>>,
    /// The slots of the references without an affine form.
    checked: Vec<usize>,
    /// By body position.
    stmts: Vec<StmtInfo>,
    /// Body positions in execution order.
    order: Vec<usize>,
    plans: Vec<PlanInfo>,
    fused: Vec<FusedInfo>,
    /// By body position: the (fused plan, chain member) it belongs to.
    member: Vec<Option<(usize, usize)>>,
    nest_pos: usize,
}

impl<'a> NestPlan<'a> {
    fn build(
        &mut self,
        prog: &Program,
        sched: &Schedule,
        nest: &'a LoopNest,
        nest_pos: usize,
        emit_busy: bool,
    ) {
        self.nest_pos = nest_pos;
        let NestPlan {
            refs,
            checked,
            stmts,
            order,
            plans,
            fused,
            member,
            ..
        } = self;
        refs.clear();
        checked.clear();
        stmts.clear();
        plans.clear();
        fused.clear();
        member.clear();
        member.resize(nest.body.len(), None);
        let mut slot = |aref: &'a ArrayRef| {
            refs.push(RefAddr::new(prog, aref, nest));
            refs.len() - 1
        };
        for s in &nest.body {
            let dst = slot(&s.dst);
            let mut src = |r: &'a Ref| match r {
                Ref::Array(a) => Src::Mem(slot(a)),
                Ref::Const(c) => Src::Const(*c),
            };
            let a = src(&s.a);
            let binary = match (s.op, &s.b) {
                (Some(op), Some(b)) => Some((op, src(b))),
                _ => None,
            };
            stmts.push(StmtInfo {
                id: s.id,
                consumer: false,
                busy: if emit_busy { s.work } else { 0 },
                dst,
                a,
                binary,
            });
        }
        *order = sched.stmt_order_for(nest);
        for p in sched.plans_for(nest.id) {
            let issue = nest.stmt_pos(p.stmt).and_then(|pos| match stmts[pos] {
                StmtInfo {
                    a: Src::Mem(a),
                    binary: Some((op, Src::Mem(b))),
                    ..
                } => Some((op, a, b, pc_of(nest_pos, pos, ROLE_PRECOMPUTE))),
                _ => None,
            });
            plans.push(PlanInfo {
                stmt: p.stmt,
                lookahead: p.lookahead as usize,
                issue,
                stagger: p.stagger,
                reshape_routes: p.reshape_routes,
            });
        }
        for (fi, p) in sched.fused_for(nest.id).enumerate() {
            fused.push(FusedInfo::build(nest, nest_pos, p, &mut slot));
            for (mi, id) in p.stmts.iter().enumerate() {
                for (pos, s) in nest.body.iter().enumerate() {
                    if s.id == *id {
                        member[pos] = Some((fi, mi));
                    }
                }
            }
        }
        for (info, member) in stmts.iter_mut().zip(member.iter()) {
            info.consumer = member.is_some() || plans.iter().any(|p| p.stmt == info.id);
        }
        let without_form = refs
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, RefAddr::Checked(_)));
        checked.extend(without_form.map(|(slot, _)| slot));
    }

    /// The longest lookahead that reaches a consumer among `n` points:
    /// how far the lead walker runs ahead of the emitter.
    fn lead(&self, n: usize) -> usize {
        let plans = self.plans.iter().map(|p| p.lookahead);
        let fused = self.fused.iter().map(|f| f.lookahead);
        plans.chain(fused).filter(|&l| l < n).max().unwrap_or(0)
    }
}

impl FusedInfo {
    /// Plans are validated up-front ([`crate::schedule::validate_chain_shape`]),
    /// so member lookups here cannot fail. `slot` adds a reference to
    /// the address row and returns its slot.
    fn build<'a>(
        nest: &'a LoopNest,
        nest_pos: usize,
        plan: &FusedPrecomputePlan,
        mut slot: impl FnMut(&'a ArrayRef) -> usize,
    ) -> Self {
        let head = nest.stmt(plan.stmts[0]).expect("validated plan");
        let (ra, rb) = head.memory_operand_pair().expect("validated head");
        let mut ops = [Op::Add; MAX_FUSED_OPS];
        ops[0] = head.op.expect("validated head");
        let mut gathered = [0; MAX_FUSED_OPS + 1];
        gathered[0] = slot(ra);
        gathered[1] = slot(rb);
        let mut prev_dst = &head.dst;
        for (k, id) in plan.stmts[1..].iter().enumerate() {
            let s = nest.stmt(*id).expect("validated plan");
            let (_, g) = chain_operands(s, prev_dst).expect("validated link");
            ops[k + 1] = s.op.expect("validated tail");
            gathered[k + 2] = slot(g);
            prev_dst = &s.dst;
        }
        let head_pos = nest.stmt_pos(plan.stmts[0]).expect("validated plan");
        FusedInfo {
            pc: pc_of(nest_pos, head_pos, ROLE_PRECOMPUTE),
            n_ops: plan.stmts.len() as u8,
            ops,
            gathered,
            lookahead: plan.lookahead as usize,
            stagger: plan.stagger,
            reshape_routes: plan.reshape_routes,
        }
    }
}

/// Where the lead walker takes a thread's points from, in execution
/// order.
trait PointSource {
    /// Write the address of each of `plan`'s references at the next
    /// point into `row`.
    fn fill_next(&mut self, prog: &Program, plan: &NestPlan, row: &mut [Option<Addr>]);
}

/// A thread's box (`lo`, `hi` from [`LoopNest::thread_box`]), walked
/// in place. Each affine reference's address is advanced by its carry
/// delta ([`AffineAddr::carry_deltas`]) rather than evaluated at every
/// point.
#[derive(Default)]
struct BoxWalk {
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// The lead point.
    point: Vec<i64>,
    /// Per reference: its address at `point` (0 for one without an
    /// affine form).
    addrs: Vec<i64>,
    /// Loop `k`'s carry delta of reference `r` at `k * refs + r`.
    deltas: Vec<i64>,
    /// Per loop: the box's trip count, then one reference's deltas.
    extents: Vec<i64>,
    carry: Vec<i64>,
}

impl BoxWalk {
    /// Start at the first point of the (non-empty) box in `lo`, `hi`.
    fn start(&mut self, refs: &[RefAddr]) {
        let (depth, width) = (self.lo.len(), refs.len());
        self.point.clone_from(&self.lo);
        self.extents.clear();
        let extents = self.lo.iter().zip(&self.hi).map(|(l, h)| h - l);
        self.extents.extend(extents);
        self.carry.resize(depth, 0);
        self.addrs.clear();
        self.deltas.clear();
        self.deltas.resize(depth * width, 0);
        for (r, aref) in refs.iter().enumerate() {
            let RefAddr::Affine(form) = aref else {
                self.addrs.push(0);
                continue;
            };
            self.addrs.push(form.at(&self.lo) as i64);
            form.carry_deltas(&self.extents, &mut self.carry);
            for (k, &delta) in self.carry.iter().enumerate() {
                self.deltas[k * width + r] = delta;
            }
        }
    }
}

impl PointSource for BoxWalk {
    #[inline]
    fn fill_next(&mut self, prog: &Program, plan: &NestPlan, row: &mut [Option<Addr>]) {
        for (out, &addr) in row.iter_mut().zip(&self.addrs) {
            *out = Some(addr as Addr);
        }
        for &slot in &plan.checked {
            if let RefAddr::Checked(aref) = plan.refs[slot] {
                row[slot] = prog.addr_of(aref, &self.point);
            }
        }
        // Odometer step from the innermost loop; the loop that steps
        // decides every address's delta.
        let width = row.len();
        for k in (0..self.point.len()).rev() {
            self.point[k] += 1;
            if self.point[k] < self.hi[k] {
                let deltas = &self.deltas[k * width..(k + 1) * width];
                for (addr, &delta) in self.addrs.iter_mut().zip(deltas) {
                    *addr = addr.wrapping_add(delta);
                }
                return;
            }
            self.point[k] = self.lo[k];
        }
    }
}

/// A thread's run of a sorted point list: each reference evaluated at
/// each point.
struct ListWalk<'p> {
    points: &'p PointList,
    next: usize,
}

impl PointSource for ListWalk<'_> {
    #[inline]
    fn fill_next(&mut self, prog: &Program, plan: &NestPlan, row: &mut [Option<Addr>]) {
        let point = self.points.get(self.next);
        self.next += 1;
        for (out, aref) in row.iter_mut().zip(&plan.refs) {
            *out = aref.at(prog, point);
        }
    }
}

/// In-flight state of one thread, indexed by point `i & mask`: a ring
/// of `len` slots per table, `len` a power of two above the lead. One
/// is allocated per `try_lower` call and reused by every thread.
#[derive(Default)]
struct Rings {
    /// Row `i & mask` holds every reference's address at point `i`.
    rows: Vec<Option<Addr>>,
    /// Plan `p`'s precompute id for consumer point `i`, at
    /// `p * len + (i & mask)`.
    pending: Vec<Option<u32>>,
    /// Fused plan `f`'s base id for consumer point `i`, likewise. It
    /// stays until every chain member at that point has consumed its
    /// slot.
    pending_fused: Vec<Option<u32>>,
}

/// Lower one thread's `n` points of a nest into `trace`, the points
/// taken from `src` in execution order and the thread's precompute ids
/// from `next_id` on. A lead walker fills the ring of address rows
/// [`NestPlan::lead`] points ahead of the emitter: a pre-compute reads
/// the row of its consumer, `lookahead` points ahead, and each
/// statement the row of its own point, so every reference is evaluated
/// once per point.
fn emit_thread(
    prog: &Program,
    plan: &NestPlan,
    rings: &mut Rings,
    src: &mut impl PointSource,
    trace: &mut Trace,
    next_id: &mut u32,
    n: usize,
) {
    let lead = plan.lead(n);
    let len = (lead + 1).next_power_of_two();
    let mask = len - 1;
    let width = plan.refs.len();
    let Rings {
        rows,
        pending,
        pending_fused,
    } = rings;
    if rows.len() < len * width {
        rows.resize(len * width, None);
    }
    pending.clear();
    pending.resize(plan.plans.len() * len, None);
    pending_fused.clear();
    pending_fused.resize(plan.fused.len() * len, None);
    let nest_pos = plan.nest_pos;
    // Points whose row the lead walker has written.
    let mut filled = 0;
    for j in 0..n {
        while filled <= (j + lead).min(n - 1) {
            let at = (filled & mask) * width;
            src.fill_next(prog, plan, &mut rows[at..at + width]);
            filled += 1;
        }
        let row_of = |i: usize| &rows[(i & mask) * width..][..width];

        // Issue pre-computes whose consumer sits `lookahead` points
        // ahead.
        for (pi, p) in plan.plans.iter().enumerate() {
            let Some((op, slot_a, slot_b, pc)) = p.issue else {
                continue;
            };
            let target = j + p.lookahead;
            if target >= n {
                continue;
            }
            let row = row_of(target);
            let (Some(a), Some(b)) = (row[slot_a], row[slot_b]) else {
                continue;
            };
            let id = *next_id;
            *next_id += 1;
            pending[pi * len + (target & mask)] = Some(id);
            trace.insts.push(Inst {
                pc,
                kind: InstKind::PreCompute {
                    id,
                    op,
                    a,
                    b,
                    stagger: p.stagger,
                    reshape_routes: p.reshape_routes,
                },
            });
        }

        // Issue fused packets whose chain head's consumer sits
        // `lookahead` points ahead: one gather of the union footprint,
        // one packet, `n_ops` result slots.
        for (fi, f) in plan.fused.iter().enumerate() {
            let target = j + f.lookahead;
            if target >= n {
                continue;
            }
            let row = row_of(target);
            let mut addrs = [0u64; MAX_FUSED_OPS + 1];
            let gathered = &f.gathered[..f.n_ops as usize + 1];
            let resolved = gathered.iter().zip(&mut addrs).all(|(&slot, out)| {
                // A halo access: the chain falls back to conventional
                // execution at this point.
                row[slot].map(|a| *out = a).is_some()
            });
            if !resolved {
                continue;
            }
            let id = *next_id;
            *next_id += f.n_ops as u32;
            pending_fused[fi * len + (target & mask)] = Some(id);
            trace.insts.push(Inst {
                pc: f.pc,
                kind: InstKind::FusedPreCompute {
                    id,
                    n_ops: f.n_ops,
                    ops: f.ops,
                    addrs,
                    stagger: f.stagger,
                    reshape_routes: f.reshape_routes,
                },
            });
        }

        // Body statements in scheduled order.
        let at = j & mask;
        let row = row_of(j);
        for &pos in &plan.order {
            let info = &plan.stmts[pos];
            let precomputed = info.consumer.then(|| {
                plan.plans
                    .iter()
                    .enumerate()
                    .find_map(|(pi, p)| {
                        (p.stmt == info.id).then(|| pending[pi * len + at].take())?
                    })
                    .or_else(|| {
                        let (fi, mi) = plan.member[pos]?;
                        pending_fused[fi * len + at].map(|base| base + mi as u32)
                    })
            });
            emit_stmt(trace, nest_pos, pos, info, row, precomputed.flatten());
        }
        // Retire this point's slots, consumed or not.
        for pi in 0..plan.plans.len() {
            pending[pi * len + at] = None;
        }
        for fi in 0..plan.fused.len() {
            pending_fused[fi * len + at] = None;
        }
    }
}

fn emit_stmt(
    trace: &mut Trace,
    nest_pos: usize,
    pos: usize,
    stmt: &StmtInfo,
    row: &[Option<Addr>],
    precomputed: Option<u32>,
) {
    if stmt.busy > 0 {
        trace
            .insts
            .push(Inst::busy(pc_of(nest_pos, pos, ROLE_BUSY), stmt.busy));
    }
    let dst = row[stmt.dst];
    match stmt.binary {
        Some((op, b)) => {
            trace.insts.push(Inst {
                pc: pc_of(nest_pos, pos, ROLE_MAIN),
                kind: InstKind::Compute {
                    op,
                    a: stmt.a.at(row),
                    b: b.at(row),
                    store_to: dst,
                    precomputed,
                },
            });
        }
        None => {
            // Copy statement: load (if memory) then store.
            if let Operand::Mem(addr) = stmt.a.at(row) {
                trace
                    .insts
                    .push(Inst::load(pc_of(nest_pos, pos, ROLE_MAIN), addr));
            }
            if let Some(d) = dst {
                trace
                    .insts
                    .push(Inst::store(pc_of(nest_pos, pos, ROLE_STORE), d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;
    use crate::program::{ArrayDecl, ArrayId, Stmt};
    use crate::schedule::{MoveStrategy, PrecomputePlan};
    use ndc_types::{NdcLocation, Op, SplitMix64};

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
    /// `transformed_points` runs them: with either loop parallel or
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
                    let scheduled = crate::interp::transformed_points(&nest, t);
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

    /// A reference into `x` for `random_case`: row `r` walks loop
    /// `perm[r]` forwards or backwards through an array of `m + 2`
    /// elements per dimension (`m` the nest's widest extent), so the
    /// reference stays inside it with a one-element halo to spare. A
    /// `shift` of ±1 reads the halo, and ±2 leaves the array at the
    /// box's edge (no affine form: `addr_of` at each point). A depth-0
    /// nest reads one element of a 3-element array.
    fn random_ref(g: &mut SplitMix64, x: ArrayId, nest: &LoopNest, shift: i64) -> ArrayRef {
        let depth = nest.depth();
        if depth == 0 {
            return ArrayRef::affine(x, IMat::zeros(1, 0), vec![1 + shift]);
        }
        let mut perm: Vec<usize> = (0..depth).collect();
        for k in (1..depth).rev() {
            perm.swap(k, g.below(k as u64 + 1) as usize);
        }
        let mut coeffs = IMat::zeros(depth, depth);
        let offsets = (0..depth)
            .map(|r| {
                let k = perm[r];
                let edge = if r == 0 { shift } else { 0 };
                if g.chance(0.5) {
                    coeffs[(r, k)] = 1;
                    1 - nest.lo[k] + edge
                } else {
                    coeffs[(r, k)] = -1;
                    nest.hi[k] + edge
                }
            })
            .collect();
        ArrayRef::affine(x, coeffs, offsets)
    }

    /// A seeded random program of one or two `random_nest`s (depth
    /// 0–4, negative `lo`, zero-trip loops, any parallel level or none)
    /// and a schedule for it with pre-compute plans of every lookahead
    /// class (0, 1–12, past a thread's share, `u32::MAX`), fused plans
    /// where the drawn statements form a chain, and some statement
    /// orders. Arrays sit below, across or above 2^32, so some record
    /// words are wide. Each nest's first statement is a computation,
    /// so each point lowers to one `Compute` at its pc. Also returns
    /// whether some reference leaves its array.
    fn random_case(g: &mut SplitMix64, cores: usize) -> (Program, Schedule, bool) {
        let mut p = Program::new("random");
        let mut sched = Schedule::default();
        let mut halo = false;
        for n in 0..g.range_u64(1, 3) as u32 {
            let mut nest = crate::program::tests::random_nest(g);
            nest.id = crate::program::NestId(n);
            let m = (0..nest.depth())
                .map(|k| nest.hi[k] - nest.lo[k])
                .max()
                .unwrap_or(1)
                .max(1) as u64;
            let dims = vec![m + 2; nest.depth().max(1)];
            let arrays: Vec<ArrayId> = (0..3)
                .map(|a| p.add_array(ArrayDecl::new(format!("A{n}_{a}"), dims.clone(), 8)))
                .collect();
            let mut refer = |g: &mut SplitMix64| {
                let shift: i64 = *g.choose(&[0, 0, 0, 0, 1, -1, 2, -2]);
                halo |= shift.abs() == 2 && !nest.is_empty();
                let x = *g.choose(&arrays);
                random_ref(g, x, &nest, shift)
            };
            let ops = [Op::Add, Op::Sub, Op::Mul];
            let mut body: Vec<Stmt> = Vec::new();
            let chain = g.chance(0.5);
            for i in 0..g.range_u64(2, 6) as u32 {
                let work = g.below(3) as u32;
                let op = *g.choose(&ops);
                let dst = refer(g);
                let mut operand = |g: &mut SplitMix64| match g.chance(0.8) {
                    true => Ref::Array(refer(g)),
                    false => Ref::Const(g.range_i64(-4, 4) as f64),
                };
                let s = match (i, chain) {
                    // A chain head, then a tail forwarding its result.
                    (0, true) => {
                        let (a, b) = (Ref::Array(refer(g)), Ref::Array(refer(g)));
                        Stmt::binary(i, dst, op, a, b, work)
                    }
                    (1, true) => {
                        let link = Ref::Array(body[0].dst.clone());
                        let other = Ref::Array(refer(g));
                        let (a, b) = if g.chance(0.5) {
                            (link, other)
                        } else {
                            (other, link)
                        };
                        Stmt::binary(i, dst, op, a, b, work)
                    }
                    (0, false) => Stmt::binary(i, dst, op, operand(g), operand(g), work),
                    _ if g.chance(0.25) => Stmt::copy(i, dst, operand(g), work),
                    _ => Stmt::binary(i, dst, op, operand(g), operand(g), work),
                };
                body.push(s);
            }
            nest.body = body;
            let share = nest.thread_points(0, cores) as u32;
            let lookahead = |g: &mut SplitMix64| match g.below(4) {
                0 => 0,
                1 => g.range_u64(1, 13) as u32,
                2 => share.saturating_add(g.below(3) as u32),
                _ => u32::MAX,
            };
            let mut fused = Vec::new();
            if chain {
                let stmts = vec![nest.body[0].id, nest.body[1].id];
                if crate::schedule::validate_chain_shape(&nest, &stmts).is_ok() {
                    fused = stmts.clone();
                    sched.fused.push(crate::schedule::FusedPrecomputePlan {
                        nest: nest.id,
                        stmts,
                        lookahead: lookahead(g),
                        stagger: g.range_i64(-8, 9) as i32,
                        reshape_routes: g.chance(0.5),
                        target: NdcLocation::CacheController,
                    });
                }
            }
            for s in &nest.body {
                if s.memory_operand_pair().is_none() || fused.contains(&s.id) || g.chance(0.3) {
                    continue;
                }
                sched.precomputes.push(PrecomputePlan {
                    nest: nest.id,
                    stmt: s.id,
                    lookahead: lookahead(g),
                    stagger: g.range_i64(-8, 9) as i32,
                    reshape_routes: g.chance(0.5),
                    strategy: MoveStrategy::MoveBoth,
                    target: NdcLocation::CacheController,
                });
            }
            if g.chance(0.3) {
                let mut order: Vec<usize> = (0..nest.body.len()).collect();
                order.reverse();
                sched.stmt_order.insert(nest.id, order);
            }
            p.nests.push(nest);
        }
        let base = *g.choose(&[0, 0x1000, (1 << 32) - 512, 1 << 33]);
        p.assign_layout(base, 64);
        (p, sched, halo)
    }

    /// Differential test of the two point sources: lowering a nest by
    /// walking each thread's box in place, with addresses advanced by
    /// carry deltas, gives record for record what lowering the same
    /// points from a list sorted by (thread, `T·I`) gives, where an
    /// identity transform `T` on every nest forces the list. Each
    /// thread lowers `thread_points` points of each nest.
    #[test]
    fn box_walks_lower_exactly_what_sorted_lists_do() {
        let g = SplitMix64::new(0x1024);
        let (mut issued, mut fused, mut halos, mut wide) = (0, 0, 0, 0);
        for case in 0..512 {
            let mut g = g.fork(case);
            let cores = *g.choose(&[1, 3, 4, 25]);
            let (p, sched, halo) = random_case(&mut g, cores);
            let opts = LowerOptions {
                cores,
                emit_busy: g.chance(0.7),
            };
            let boxed = lower(&p, &opts, Some(&sched));
            let mut listed = sched.clone();
            for nest in &p.nests {
                listed
                    .transforms
                    .insert(nest.id, crate::matrix::IMat::identity(nest.depth()));
            }
            let listed = lower(&p, &opts, Some(&listed));
            assert_eq!(
                boxed, listed,
                "case {case}: {p:?} {sched:?} on {cores} cores"
            );
            for (nest_pos, nest) in p.nests.iter().enumerate() {
                let pc = pc_of(nest_pos, 0, ROLE_MAIN);
                for (tid, trace) in boxed.traces.iter().enumerate() {
                    let walked = trace
                        .insts
                        .iter()
                        .filter(|i| i.pc == pc && matches!(i.kind, InstKind::Compute { .. }))
                        .count();
                    assert_eq!(walked as u64, nest.thread_points(tid, cores), "case {case}");
                }
            }
            issued += boxed.total_precomputes();
            fused += boxed
                .traces
                .iter()
                .flat_map(|t| &t.insts)
                .filter(|i| matches!(i.kind, InstKind::FusedPreCompute { .. }))
                .count();
            halos += usize::from(halo);
            wide += usize::from(p.arrays.iter().any(|a| a.base + a.size_bytes() > 1 << 32));
        }
        // Every class of input is exercised.
        assert!(
            issued > 1000 && fused > 100,
            "{issued} issued, {fused} fused"
        );
        assert!(halos > 50 && wide > 100, "{halos} with halos, {wide} wide");
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

    /// An order that drops a statement, or names a position past the
    /// body, is a structured error: not a trace short of a statement,
    /// not an index panic.
    #[test]
    fn stmt_order_that_is_not_a_permutation_is_a_structured_error() {
        let mut p = Program::new("ord");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let copy = |id, v| Stmt::copy(id, ArrayRef::identity(x, 1, vec![0]), Ref::Const(v), 0);
        let body = vec![copy(0, 1.0), copy(1, 2.0)];
        p.nests.push(LoopNest::new(0, vec![0], vec![4], body));
        p.assign_layout(0, 64);
        let nest = crate::program::NestId(0);
        for order in [vec![0], vec![0, 5]] {
            let mut sched = Schedule::default();
            sched.stmt_order.insert(nest, order.clone());
            assert!(sched.validate(&p).is_err());
            let err = try_lower(&p, &LowerOptions::default(), Some(&sched)).unwrap_err();
            assert_eq!(err, LowerError::InvalidStmtOrder { nest, order });
            assert!(err.to_string().contains("not a permutation"), "{err}");
        }
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
