//! Reuse analysis: the front half of the Cache Miss Equations.
//!
//! For a reference `X(F·I + f)` we derive, from `ndc_ir::affine`'s fold
//! of `F·I + f` into per-loop byte strides ([`Fold::bytes`]):
//!
//! * the **innermost stride** — the address delta between consecutive
//!   innermost iterations, which drives self-spatial reuse;
//! * **self-temporal reuse** — the innermost loop whose stride is zero:
//!   one step of it touches the same element again;
//! * **group-temporal reuse** — another reference `X(F·I + f')` in the
//!   nest with the same `F`; the reuse distance solves `F·d = f' − f`
//!   exactly over the integers ([`solve`]), mirroring the paper's
//!   Diophantine machinery.

use ndc_ir::affine::{decl_of, solve, Fold, Solve};
use ndc_ir::matrix::{lex_positive, IVec};
use ndc_ir::program::{ArrayRef, LoopNest, Program};

/// The reuse a reference enjoys, in decreasing order of quality.
#[derive(Debug, Clone, PartialEq)]
pub enum ReuseKind {
    /// The same element is accessed every innermost iteration
    /// (innermost stride 0).
    SelfTemporalInnermost,
    /// The same element is accessed again `distance` iterations later
    /// (a unit step of a loop whose stride is zero).
    SelfTemporal { distance: IVec },
    /// Another reference touches the same element `distance` iterations
    /// later/earlier; `leader_stmt_pos`/`leader_slot` identify the
    /// reference that touches it first.
    GroupTemporal {
        distance: IVec,
        leader_stmt_pos: usize,
        leader_slot: u8,
    },
    /// Only spatial reuse along the innermost loop (stride smaller than
    /// a line).
    SelfSpatial { stride_bytes: i64 },
    /// No reuse: every access touches a fresh line.
    None,
}

/// Reuse summary for one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseInfo {
    pub kind: ReuseKind,
    /// Innermost-iteration address stride in bytes.
    pub stride_bytes: i64,
}

/// Analyze one reference's reuse within its nest.
///
/// `stmt_pos`/`slot` identify the reference so that group reuse can
/// point at its leader; `line_bytes` bounds what counts as spatial
/// reuse. A reference without byte strides (its shape fails
/// [`decl_of`] or its fold leaves `i64`) is predicted to touch a fresh
/// line every access.
pub fn analyze_reuse(
    prog: &Program,
    nest: &LoopNest,
    stmt_pos: usize,
    slot: u8,
    aref: &ArrayRef,
    line_bytes: u64,
) -> ReuseInfo {
    let strides = decl_of(prog, aref, nest.depth())
        .and_then(|decl| Fold::bytes(decl, aref))
        .map_or_else(Vec::new, |f| f.coeffs);
    let Some(&stride) = strides.last() else {
        return ReuseInfo {
            kind: ReuseKind::None,
            stride_bytes: i64::MAX,
        };
    };

    // Innermost temporal: stride 0 means the same element every
    // innermost iteration.
    if stride == 0 {
        return ReuseInfo {
            kind: ReuseKind::SelfTemporalInnermost,
            stride_bytes: 0,
        };
    }

    // Self-temporal across outer loops: the innermost loop that leaves
    // the address fixed.
    if let Some(k) = strides.iter().rposition(|&s| s == 0) {
        let mut distance = vec![0; strides.len()];
        distance[k] = 1;
        return ReuseInfo {
            kind: ReuseKind::SelfTemporal { distance },
            stride_bytes: stride,
        };
    }

    // Group-temporal: the lexicographically-smallest positive reuse
    // distance from any other reference with the same F.
    let mut best: Option<(IVec, usize, u8)> = None;
    for (other_pos, other_stmt) in nest.body.iter().enumerate() {
        for (other_slot, (other_ref, _w)) in other_stmt.array_refs().iter().enumerate() {
            if other_ref.array != aref.array || other_ref.coeffs != aref.coeffs {
                continue;
            }
            if other_pos == stmt_pos && other_slot as u8 == slot {
                continue;
            }
            // d such that this ref at I+d touches what `other` touched
            // at I: F·d = f_other − f_self.
            let c: IVec = other_ref
                .offsets
                .iter()
                .zip(aref.offsets.iter())
                .map(|(o, s)| o - s)
                .collect();
            if let Solve::Unique(d) = solve(&aref.coeffs, &c, nest.depth()) {
                // Lex-positive: touched again d iterations later.
                // Zero distance: touched within the same iteration by
                // an earlier statement (or an earlier slot of this
                // statement) — the follower hits L1.
                let zero = d.iter().all(|&x| x == 0);
                let qualifies = lex_positive(&d)
                    || (zero
                        && (other_pos < stmt_pos
                            || (other_pos == stmt_pos && (other_slot as u8) < slot)));
                if qualifies
                    && best
                        .as_ref()
                        .is_none_or(|(b, _, _)| ndc_ir::matrix::lex_cmp(&d, b).is_lt())
                {
                    best = Some((d, other_pos, other_slot as u8));
                }
            }
        }
    }
    if let Some((distance, leader_stmt_pos, leader_slot)) = best {
        return ReuseInfo {
            kind: ReuseKind::GroupTemporal {
                distance,
                leader_stmt_pos,
                leader_slot,
            },
            stride_bytes: stride,
        };
    }

    if stride.unsigned_abs() < line_bytes {
        ReuseInfo {
            kind: ReuseKind::SelfSpatial {
                stride_bytes: stride,
            },
            stride_bytes: stride,
        }
    } else {
        ReuseInfo {
            kind: ReuseKind::None,
            stride_bytes: stride,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, Program, Ref, Stmt};
    use ndc_types::Op;

    fn prog2d() -> Program {
        let mut p = Program::new("t");
        p.add_array(ArrayDecl::new("X", vec![64, 64], 8));
        p.add_array(ArrayDecl::new("Y", vec![64, 64], 8));
        p.assign_layout(0, 256);
        p
    }

    #[test]
    fn unit_stride_is_spatial() {
        let p = prog2d();
        let x = ndc_ir::program::ArrayId(0);
        let r = ArrayRef::identity(x, 2, vec![0, 0]);
        let nest = LoopNest::new(0, vec![0, 0], vec![64, 64], vec![]);
        let info = analyze_reuse(&p, &nest, 0, 0, &r, 64);
        assert_eq!(info.stride_bytes, 8);
        assert_eq!(info.kind, ReuseKind::SelfSpatial { stride_bytes: 8 });
    }

    #[test]
    fn transposed_access_is_large_stride() {
        let p = prog2d();
        let x = ndc_ir::program::ArrayId(0);
        // X[j][i]: innermost j varies the ROW -> stride = 64*8 bytes.
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]);
        let nest = LoopNest::new(0, vec![0, 0], vec![64, 64], vec![]);
        let info = analyze_reuse(&p, &nest, 0, 0, &r, 64);
        assert_eq!(info.stride_bytes, 64 * 8);
        assert_eq!(info.kind, ReuseKind::None);
    }

    #[test]
    fn row_broadcast_is_self_temporal() {
        let p = prog2d();
        let x = ndc_ir::program::ArrayId(0);
        // X[i][0] in an (i, j) nest: innermost column of F is zero.
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[1, 0], &[0, 0]]), vec![0, 0]);
        let nest = LoopNest::new(0, vec![0, 0], vec![64, 64], vec![]);
        let info = analyze_reuse(&p, &nest, 0, 0, &r, 64);
        assert_eq!(info.kind, ReuseKind::SelfTemporalInnermost);
    }

    #[test]
    fn stencil_pair_has_group_reuse() {
        let p = prog2d();
        let x = ndc_ir::program::ArrayId(0);
        let y = ndc_ir::program::ArrayId(1);
        // Y[i][j] = X[i][j] + X[i-1][j]: the X[i-1][j] read re-touches
        // what X[i][j] read one outer iteration earlier -> d = (1, 0).
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 0])),
            1,
        );
        let nest = LoopNest::new(0, vec![1, 0], vec![64, 64], vec![s]);
        let lagging = nest.body[0].b.as_ref().unwrap().as_array().unwrap().clone();
        let info = analyze_reuse(&p, &nest, 0, 1, &lagging, 64);
        match info.kind {
            ReuseKind::GroupTemporal {
                distance,
                leader_stmt_pos,
                leader_slot,
            } => {
                assert_eq!(distance, vec![1, 0]);
                assert_eq!(leader_stmt_pos, 0);
                assert_eq!(leader_slot, 0);
            }
            other => panic!("expected group reuse, got {other:?}"),
        }
    }

    #[test]
    fn leader_of_group_is_not_its_own_follower() {
        let p = prog2d();
        let x = ndc_ir::program::ArrayId(0);
        let y = ndc_ir::program::ArrayId(1);
        let s = Stmt::binary(
            0,
            ArrayRef::identity(y, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 0])),
            1,
        );
        let nest = LoopNest::new(0, vec![1, 0], vec![64, 64], vec![s]);
        let leader = nest.body[0].a.as_array().unwrap().clone();
        let info = analyze_reuse(&p, &nest, 0, 0, &leader, 64);
        // The leader's "reuse" of the follower is lex-NEGATIVE, so it
        // falls through to spatial.
        assert_eq!(info.kind, ReuseKind::SelfSpatial { stride_bytes: 8 });
    }
}
