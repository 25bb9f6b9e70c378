//! Pass 1: the IR verifier.
//!
//! Structural well-formedness of programs and schedules: every array
//! reference resolves and has a shape consistent with its nest and
//! array, every transform is a square unimodular matrix over the right
//! depth, and every statement-order override is a permutation that
//! keeps loop-independent dependences source-before-sink.

use crate::LintError;
use ndc_ir::deps::{DependenceGraph, DistanceVector};
use ndc_ir::program::{NestId, Program};
use ndc_ir::schedule::{is_permutation, Schedule};

/// Check structural well-formedness of a program.
pub fn verify_program(prog: &Program) -> Vec<LintError> {
    let mut errors = Vec::new();
    for nest in &prog.nests {
        if let Some(level) = nest.parallel_level {
            if level >= nest.depth() {
                errors.push(LintError::ParallelLevel {
                    nest: nest.id,
                    level,
                    depth: nest.depth(),
                });
            }
        }
        // `LoopNest::new` rejects inverted bounds, but nests can be
        // built by struct literal (fields are public), so the verifier
        // re-checks. Zero-trip (`lo == hi`) dimensions are legal.
        for (dim, (&lo, &hi)) in nest.lo.iter().zip(nest.hi.iter()).enumerate() {
            if lo > hi {
                errors.push(LintError::InvertedBounds {
                    nest: nest.id,
                    dim,
                    lo,
                    hi,
                });
            }
        }
        for stmt in &nest.body {
            for (slot, (aref, _)) in stmt.array_refs().into_iter().enumerate() {
                let slot = slot as u8;
                if aref.array.0 as usize >= prog.arrays.len() {
                    errors.push(LintError::UnknownArray {
                        nest: nest.id,
                        stmt: stmt.id,
                        slot,
                    });
                    continue;
                }
                let rank = prog.array(aref.array).dims.len();
                let mut problems = Vec::new();
                if aref.coeffs.rows != rank {
                    problems.push(format!(
                        "access matrix has {} rows but array rank is {rank}",
                        aref.coeffs.rows
                    ));
                }
                if aref.coeffs.cols != nest.depth() {
                    problems.push(format!(
                        "access matrix has {} columns but nest depth is {}",
                        aref.coeffs.cols,
                        nest.depth()
                    ));
                }
                if aref.offsets.len() != aref.coeffs.rows {
                    problems.push(format!(
                        "offset vector has {} entries but access matrix has {} rows",
                        aref.offsets.len(),
                        aref.coeffs.rows
                    ));
                }
                if !problems.is_empty() {
                    errors.push(LintError::RefShape {
                        nest: nest.id,
                        stmt: stmt.id,
                        slot,
                        detail: problems.join("; "),
                    });
                }
            }
        }
    }
    errors
}

/// Check a schedule against a program: transform shapes and
/// unimodularity, statement-order permutations and their respect for
/// loop-independent dependences, and pre-compute plan consistency.
///
/// Iteration over the schedule's hash maps is sorted by nest id so the
/// error list is deterministic.
pub fn verify_schedule(prog: &Program, schedule: &Schedule) -> Vec<LintError> {
    let mut errors = Vec::new();

    let mut transformed: Vec<NestId> = schedule.transforms.keys().copied().collect();
    transformed.sort();
    for nest_id in transformed {
        let t = &schedule.transforms[&nest_id];
        let Some(nest) = prog.nests.iter().find(|n| n.id == nest_id) else {
            errors.push(LintError::TransformUnknownNest { nest: nest_id });
            continue;
        };
        let depth = nest.depth();
        if t.rows != depth || t.cols != depth {
            errors.push(LintError::TransformShape {
                nest: nest_id,
                detail: format!(
                    "transform is {}x{} but nest depth is {depth}",
                    t.rows, t.cols
                ),
            });
            continue;
        }
        if !t.is_unimodular() {
            errors.push(LintError::NotUnimodular { nest: nest_id });
        }
    }

    let mut ordered: Vec<NestId> = schedule.stmt_order.keys().copied().collect();
    ordered.sort();
    for nest_id in ordered {
        let order = &schedule.stmt_order[&nest_id];
        let Some(nest) = prog.nests.iter().find(|n| n.id == nest_id) else {
            errors.push(LintError::OrderUnknownNest { nest: nest_id });
            continue;
        };
        if !is_permutation(order, nest.body.len()) {
            errors.push(LintError::OrderNotPermutation {
                nest: nest_id,
                order: order.clone(),
            });
            continue;
        }
        // A zero-distance constraining edge means src's access and
        // dst's access hit the same element in the same iteration;
        // the override must keep src before dst.
        let exec_pos = |body_pos: usize| order.iter().position(|&p| p == body_pos);
        let graph = DependenceGraph::analyze(nest);
        for edge in &graph.edges {
            if !edge.kind.constrains() || edge.src == edge.dst {
                continue;
            }
            let DistanceVector::Constant(d) = &edge.distance else {
                continue;
            };
            if d.iter().any(|&x| x != 0) {
                continue;
            }
            let (Some(sp), Some(dp)) = (nest.stmt_pos(edge.src), nest.stmt_pos(edge.dst)) else {
                continue;
            };
            if exec_pos(sp) > exec_pos(dp) {
                errors.push(LintError::OrderViolatesDependence {
                    nest: nest_id,
                    src: edge.src,
                    dst: edge.dst,
                    array: edge.array,
                });
            }
        }
    }

    for plan in &schedule.precomputes {
        let Some(nest) = prog.nests.iter().find(|n| n.id == plan.nest) else {
            errors.push(LintError::PlanInvalid {
                detail: format!("plan references unknown nest {}", plan.nest.0),
            });
            continue;
        };
        let Some(stmt) = nest.stmt(plan.stmt) else {
            errors.push(LintError::PlanInvalid {
                detail: format!(
                    "plan references unknown stmt {} in nest {}",
                    plan.stmt.0, plan.nest.0
                ),
            });
            continue;
        };
        if stmt.memory_operand_pair().is_none() {
            errors.push(LintError::PlanInvalid {
                detail: format!(
                    "plan for nest {} stmt {} is not a two-memory-operand computation",
                    plan.nest.0, plan.stmt.0
                ),
            });
        }
    }

    let mut fused_members = std::collections::HashSet::new();
    for plan in &schedule.fused {
        let Some(nest) = prog.nests.iter().find(|n| n.id == plan.nest) else {
            errors.push(LintError::PlanInvalid {
                detail: format!("fused plan references unknown nest {}", plan.nest.0),
            });
            continue;
        };
        if let Err(detail) = ndc_ir::schedule::validate_chain_shape(nest, &plan.stmts) {
            errors.push(LintError::PlanInvalid { detail });
            continue;
        }
        for id in &plan.stmts {
            if !fused_members.insert((plan.nest, *id)) {
                errors.push(LintError::PlanInvalid {
                    detail: format!(
                        "stmt {} in nest {} appears in two fused plans",
                        id.0, plan.nest.0
                    ),
                });
            }
        }
    }
    for plan in &schedule.precomputes {
        if fused_members.contains(&(plan.nest, plan.stmt)) {
            errors.push(LintError::PlanInvalid {
                detail: format!(
                    "stmt {} in nest {} has both a fused and an individual plan",
                    plan.stmt.0, plan.nest.0
                ),
            });
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayId, ArrayRef, LoopNest, Ref, Stmt, StmtId};
    use ndc_types::Op;

    /// S0 writes Z[i]; S1 reads Z[i] — loop-independent flow S0 → S1.
    fn chained_prog() -> Program {
        let mut p = Program::new("chain");
        let z = p.add_array(ArrayDecl::new("Z", vec![8], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![8], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Const(1.0),
            Ref::Const(2.0),
            1,
        );
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(w, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(z, 1, vec![0])),
            Ref::Const(0.0),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![8], vec![s0, s1]));
        p.assign_layout(0, 64);
        p
    }

    #[test]
    fn clean_program_and_schedule_verify() {
        let p = chained_prog();
        assert!(verify_program(&p).is_empty());
        assert!(verify_schedule(&p, &Schedule::default()).is_empty());
    }

    #[test]
    fn shape_mismatches_are_reported() {
        let mut p = chained_prog();
        // 1-column access matrix in what we now declare a 2-deep nest.
        let z = ArrayId(0);
        let bad = Stmt::copy(
            2,
            ArrayRef::affine(z, IMat::from_rows(&[&[1]]), vec![0]),
            Ref::Const(0.0),
            0,
        );
        p.nests
            .push(LoopNest::new(1, vec![0, 0], vec![4, 4], vec![bad]));
        let errors = verify_program(&p);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "ref-shape");
        assert!(errors[0].to_string().contains("nest depth is 2"));
    }

    #[test]
    fn unknown_array_is_reported() {
        let mut p = chained_prog();
        let bad = Stmt::copy(
            2,
            ArrayRef::identity(ArrayId(9), 1, vec![0]),
            Ref::Const(0.0),
            0,
        );
        p.nests.push(LoopNest::new(1, vec![0], vec![4], vec![bad]));
        let errors = verify_program(&p);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "unknown-array");
    }

    #[test]
    fn parallel_level_out_of_range_is_reported() {
        let mut p = chained_prog();
        p.nests[0].parallel_level = Some(5);
        let errors = verify_program(&p);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "parallel-level");
    }

    #[test]
    fn inverted_bounds_are_reported() {
        let mut p = chained_prog();
        // Struct-literal construction bypasses `LoopNest::new`'s assert.
        p.nests.push(LoopNest {
            id: NestId(1),
            lo: vec![4],
            hi: vec![0],
            body: vec![],
            parallel_level: None,
        });
        let errors = verify_program(&p);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "inverted-bounds");
        assert!(errors[0].to_string().contains("[4, 0)"));
    }

    #[test]
    fn zero_trip_nest_verifies_clean() {
        let mut p = chained_prog();
        p.nests.push(LoopNest::new(1, vec![4], vec![4], vec![]));
        assert!(verify_program(&p).is_empty());
    }

    #[test]
    fn transform_shape_and_unimodularity_checked() {
        let p = chained_prog();
        let mut s = Schedule::default();
        s.transforms.insert(NestId(0), IMat::identity(2));
        let errors = verify_schedule(&p, &s);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "transform-shape");

        let mut s = Schedule::default();
        s.transforms.insert(NestId(0), IMat::from_rows(&[&[3]]));
        let errors = verify_schedule(&p, &s);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "non-unimodular");

        let mut s = Schedule::default();
        s.transforms.insert(NestId(7), IMat::identity(1));
        let errors = verify_schedule(&p, &s);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "transform-unknown-nest");
    }

    #[test]
    fn order_violating_zero_distance_dependence_is_rejected() {
        let p = chained_prog();
        let mut s = Schedule::default();
        // Run the consumer before the producer.
        s.stmt_order.insert(NestId(0), vec![1, 0]);
        let errors = verify_schedule(&p, &s);
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            &errors[0],
            LintError::OrderViolatesDependence {
                src: StmtId(0),
                dst: StmtId(1),
                ..
            }
        ));
    }

    #[test]
    fn non_permutation_order_is_rejected() {
        let p = chained_prog();
        let mut s = Schedule::default();
        s.stmt_order.insert(NestId(0), vec![0, 0]);
        let errors = verify_schedule(&p, &s);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].label(), "order-not-permutation");
    }

    #[test]
    fn reordering_independent_statements_is_fine() {
        // Two statements touching disjoint arrays: any order is legal.
        let mut p = Program::new("ind");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let s0 = Stmt::copy(0, ArrayRef::identity(x, 1, vec![0]), Ref::Const(1.0), 0);
        let s1 = Stmt::copy(1, ArrayRef::identity(y, 1, vec![0]), Ref::Const(2.0), 0);
        p.nests
            .push(LoopNest::new(0, vec![0], vec![8], vec![s0, s1]));
        p.assign_layout(0, 64);
        let mut s = Schedule::default();
        s.stmt_order.insert(NestId(0), vec![1, 0]);
        assert!(verify_schedule(&p, &s).is_empty());
    }
}
