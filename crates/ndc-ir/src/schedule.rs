//! The compiler's output contract: what the NDC algorithms decided.
//!
//! A [`Schedule`] records, per nest, the loop transformation `T` (if
//! any), a statement-order override (statement-level code motion, the
//! scalar case of Figure 8), and the list of [`PrecomputePlan`]s — one
//! per computation the compiler chose to offload, carrying the
//! iteration lookahead Δ, the operand stagger, and whether the NoC
//! routes are reshaped for link overlap.

use crate::matrix::IMat;
use crate::program::{ArrayRef, LoopNest, NestId, Stmt, StmtId};
use ndc_types::{NdcLocation, MAX_FUSED_OPS};
use std::collections::HashMap;

/// Which operand-movement strategy produced a plan (Figure 8 b/c/d).
/// Retained for reporting; the lowered effect is captured by
/// `stagger`/`lookahead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveStrategy {
    /// Keep `x`, move `y` toward it (Figure 8b).
    MoveY,
    /// Keep `y`, move `x` toward it (Figure 8c).
    MoveX,
    /// Move both accesses (Figure 8d).
    MoveBoth,
}

/// One offloaded computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputePlan {
    pub nest: NestId,
    /// The two-memory-operand statement being offloaded.
    pub stmt: StmtId,
    /// How many iterations ahead of the consumer the pre-compute
    /// issues (the compiler's translation of "cycles to move" into
    /// "program instructions", §5.2.1).
    pub lookahead: u32,
    /// Cycle stagger between the two operand requests (positive delays
    /// the second operand `b`).
    pub stagger: i32,
    /// Use reshaped (overlap-maximized) NoC routes for the operands.
    pub reshape_routes: bool,
    /// Which movement strategy was selected.
    pub strategy: MoveStrategy,
    /// The component the compiler sized the stagger for (first-choice
    /// target in the trial order). The hardware may still perform the
    /// computation earlier on the path if operands meet there.
    pub target: NdcLocation,
}

/// A fused chain of offloaded computations: 2..=[`MAX_FUSED_OPS`]
/// producer-consumer statements lowered as one multi-op precompute
/// packet (one gather, one exec, one feed).
///
/// `stmts[0]` is the chain head (a two-memory-operand computation);
/// each later member reads the previous member's destination as one
/// operand (the forwarded *link*) and gathers exactly one other array
/// operand.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPrecomputePlan {
    pub nest: NestId,
    /// Chain members in body order (strictly increasing positions).
    pub stmts: Vec<StmtId>,
    /// Iteration lookahead of the packet relative to the chain head's
    /// consumer, as in [`PrecomputePlan::lookahead`].
    pub lookahead: u32,
    /// Stagger between the head's two operand requests.
    pub stagger: i32,
    pub reshape_routes: bool,
    /// The common NDC location the whole chain was costed for.
    pub target: NdcLocation,
}

/// Classify a chain-tail statement's operands against the previous
/// member's destination reference. Returns `(link_is_a, gathered)`
/// where `link_is_a` says operand `a` is the forwarded link (an array
/// reference structurally equal to `prev_dst`) and `gathered` is the
/// other operand, which must itself be an array reference. Returns
/// `None` when the statement is not binary, when neither operand links
/// to `prev_dst`, when both do (ambiguous forwarding), or when the
/// non-link operand is a constant.
pub fn chain_operands<'a>(stmt: &'a Stmt, prev_dst: &ArrayRef) -> Option<(bool, &'a ArrayRef)> {
    stmt.op?;
    let a = stmt.a.as_array();
    let b = stmt.b.as_ref()?.as_array();
    match (a == Some(prev_dst), b == Some(prev_dst)) {
        (true, false) => b.map(|g| (true, g)),
        (false, true) => a.map(|g| (false, g)),
        _ => None,
    }
}

/// Whether a statement-order override lists each of a nest's `len` body
/// positions exactly once. Lowering, [`Schedule::validate`] and the
/// linter's schedule verifier all apply this one rule.
pub fn is_permutation(order: &[usize], len: usize) -> bool {
    order.len() == len && (0..len).all(|pos| order.contains(&pos))
}

/// Structural legality of a fused chain's shape inside one nest:
/// member count in 2..=[`MAX_FUSED_OPS`], strictly increasing body
/// positions, a two-memory-operand head, and every tail linking to its
/// predecessor's destination while gathering exactly one array operand
/// that is not any earlier member's destination (a gather at the chain
/// head would otherwise observe a stale pre-write value).
///
/// This checks chain *shape* only; dependence legality (no intervening
/// statement constrains the chain) is discharged separately by lint.
pub fn validate_chain_shape(nest: &LoopNest, stmts: &[StmtId]) -> Result<(), String> {
    if !(2..=MAX_FUSED_OPS).contains(&stmts.len()) {
        return Err(format!(
            "fused chain has {} members, expected 2..={MAX_FUSED_OPS}",
            stmts.len()
        ));
    }
    let mut last_pos: Option<usize> = None;
    for id in stmts {
        let pos = nest
            .stmt_pos(*id)
            .ok_or_else(|| format!("fused chain references unknown stmt {id:?}"))?;
        if let Some(prev) = last_pos {
            if pos <= prev {
                return Err(format!(
                    "fused chain positions not strictly increasing at stmt {id:?}"
                ));
            }
        }
        last_pos = Some(pos);
    }
    let head = nest.stmt(stmts[0]).expect("position resolved above");
    if head.memory_operand_pair().is_none() {
        return Err(format!(
            "fused chain head {:?} is not a two-memory-operand computation",
            stmts[0]
        ));
    }
    let mut dsts: Vec<&ArrayRef> = vec![&head.dst];
    for id in &stmts[1..] {
        let s = nest.stmt(*id).expect("position resolved above");
        let prev_dst = *dsts.last().expect("head dst pushed");
        let Some((_, gathered)) = chain_operands(s, prev_dst) else {
            return Err(format!(
                "fused chain member {id:?} does not forward its predecessor's \
                 destination as exactly one operand"
            ));
        };
        if dsts.contains(&gathered) {
            return Err(format!(
                "fused chain member {id:?} gathers an earlier member's destination \
                 (stale under gather-at-head semantics)"
            ));
        }
        dsts.push(&s.dst);
    }
    Ok(())
}

/// A complete compiler schedule for a program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Per-nest unimodular loop transformation.
    pub transforms: HashMap<NestId, IMat>,
    /// Per-nest statement-order override (body positions in execution
    /// order). Nests absent from the map run in original body order.
    pub stmt_order: HashMap<NestId, Vec<usize>>,
    /// Offload decisions.
    pub precomputes: Vec<PrecomputePlan>,
    /// Fused-chain offload decisions. A statement appears in at most
    /// one fused plan and never also in `precomputes`.
    pub fused: Vec<FusedPrecomputePlan>,
}

impl Schedule {
    /// Execution order of body positions for a nest (override or
    /// original order).
    pub fn stmt_order_for(&self, nest: &LoopNest) -> Vec<usize> {
        match self.stmt_order.get(&nest.id) {
            Some(o) => {
                debug_assert_eq!(o.len(), nest.body.len());
                o.clone()
            }
            None => (0..nest.body.len()).collect(),
        }
    }

    /// Plans targeting a given nest.
    pub fn plans_for(&self, nest: NestId) -> impl Iterator<Item = &PrecomputePlan> {
        self.precomputes.iter().filter(move |p| p.nest == nest)
    }

    /// Fused plans targeting a given nest.
    pub fn fused_for(&self, nest: NestId) -> impl Iterator<Item = &FusedPrecomputePlan> {
        self.fused.iter().filter(move |p| p.nest == nest)
    }

    /// Validate internal consistency against a program: plan statements
    /// exist and are two-memory-operand computations; statement orders
    /// are permutations.
    pub fn validate(&self, prog: &crate::program::Program) -> Result<(), String> {
        for plan in &self.precomputes {
            let nest = prog
                .nests
                .iter()
                .find(|n| n.id == plan.nest)
                .ok_or_else(|| format!("plan references unknown nest {:?}", plan.nest))?;
            let stmt = nest
                .stmt(plan.stmt)
                .ok_or_else(|| format!("plan references unknown stmt {:?}", plan.stmt))?;
            if stmt.memory_operand_pair().is_none() {
                return Err(format!(
                    "plan for {:?}/{:?} is not a two-memory-operand computation",
                    plan.nest, plan.stmt
                ));
            }
        }
        let mut fused_members = std::collections::HashSet::new();
        for plan in &self.fused {
            let nest = prog
                .nests
                .iter()
                .find(|n| n.id == plan.nest)
                .ok_or_else(|| format!("fused plan references unknown nest {:?}", plan.nest))?;
            validate_chain_shape(nest, &plan.stmts)?;
            for id in &plan.stmts {
                if !fused_members.insert((plan.nest, *id)) {
                    return Err(format!(
                        "stmt {:?}/{id:?} appears in two fused plans",
                        plan.nest
                    ));
                }
            }
        }
        for plan in &self.precomputes {
            if fused_members.contains(&(plan.nest, plan.stmt)) {
                return Err(format!(
                    "stmt {:?}/{:?} appears in both a fused plan and an individual plan",
                    plan.nest, plan.stmt
                ));
            }
        }
        for (nest_id, order) in &self.stmt_order {
            let nest = prog
                .nests
                .iter()
                .find(|n| n.id == *nest_id)
                .ok_or_else(|| format!("stmt_order references unknown nest {nest_id:?}"))?;
            if !is_permutation(order, nest.body.len()) {
                return Err(format!(
                    "stmt_order for {nest_id:?} is not a permutation: {order:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayDecl, ArrayRef, LoopNest, Program, Ref, Stmt};
    use ndc_types::Op;

    fn prog() -> Program {
        let mut p = Program::new("t");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![8], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let s1 = Stmt::copy(1, ArrayRef::identity(x, 1, vec![0]), Ref::Const(0.0), 1);
        p.nests
            .push(LoopNest::new(0, vec![0], vec![8], vec![s0, s1]));
        p.assign_layout(0, 64);
        p
    }

    fn plan(stmt: u32) -> PrecomputePlan {
        PrecomputePlan {
            nest: NestId(0),
            stmt: StmtId(stmt),
            lookahead: 4,
            stagger: 10,
            reshape_routes: true,
            strategy: MoveStrategy::MoveY,
            target: NdcLocation::CacheController,
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let p = prog();
        let mut s = Schedule::default();
        s.precomputes.push(plan(0));
        s.stmt_order.insert(NestId(0), vec![1, 0]);
        assert!(s.validate(&p).is_ok());
    }

    #[test]
    fn plan_on_copy_stmt_rejected() {
        let p = prog();
        let mut s = Schedule::default();
        s.precomputes.push(plan(1));
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn plan_on_unknown_stmt_rejected() {
        let p = prog();
        let mut s = Schedule::default();
        s.precomputes.push(plan(9));
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn non_permutation_order_rejected() {
        let p = prog();
        let mut s = Schedule::default();
        s.stmt_order.insert(NestId(0), vec![0, 0]);
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn default_order_is_body_order() {
        let p = prog();
        let s = Schedule::default();
        assert_eq!(s.stmt_order_for(&p.nests[0]), vec![0, 1]);
    }

    /// s0: Z = X + Y, s1: W = Z + X — a legal two-member chain (link Z,
    /// gather X).
    fn chain_prog() -> Program {
        let mut p = Program::new("chain");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![8], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![8], 8));
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
            Op::Add,
            Ref::Array(ArrayRef::identity(z, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![8], vec![s0, s1]));
        p.assign_layout(0, 64);
        p
    }

    fn fused_plan(stmts: Vec<u32>) -> FusedPrecomputePlan {
        FusedPrecomputePlan {
            nest: NestId(0),
            stmts: stmts.into_iter().map(StmtId).collect(),
            lookahead: 4,
            stagger: 0,
            reshape_routes: false,
            target: NdcLocation::CacheController,
        }
    }

    #[test]
    fn valid_fused_plan_passes() {
        let p = chain_prog();
        let mut s = Schedule::default();
        s.fused.push(fused_plan(vec![0, 1]));
        assert!(s.validate(&p).is_ok());
    }

    #[test]
    fn fused_plan_with_reversed_positions_rejected() {
        let p = chain_prog();
        let mut s = Schedule::default();
        s.fused.push(fused_plan(vec![1, 0]));
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn fused_member_cannot_also_have_individual_plan() {
        let p = chain_prog();
        let mut s = Schedule::default();
        s.fused.push(fused_plan(vec![0, 1]));
        s.precomputes.push(plan(0));
        assert!(s.validate(&p).is_err());
    }

    #[test]
    fn unlinked_pair_is_not_a_chain() {
        // s1 of prog() is a copy; also Z = X + Y twice has no link.
        let p = chain_prog();
        let mut s = Schedule::default();
        s.fused.push(fused_plan(vec![0, 0]));
        assert!(s.validate(&p).is_err(), "duplicate member must fail");
    }

    #[test]
    fn chain_operands_classifies_link_side() {
        let p = chain_prog();
        let nest = &p.nests[0];
        let head = nest.stmt(StmtId(0)).unwrap();
        let tail = nest.stmt(StmtId(1)).unwrap();
        let (link_is_a, gathered) = chain_operands(tail, &head.dst).unwrap();
        assert!(link_is_a, "Z is operand a of s1");
        assert_eq!(gathered, tail.b.as_ref().unwrap().as_array().unwrap());
        // A statement that doesn't read Z is not a chain member.
        assert!(chain_operands(head, &tail.dst).is_none());
    }
}
