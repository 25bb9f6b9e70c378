//! Pass 2: the affine bounds prover.
//!
//! For each reference `X(F·I + f)` the subscript in dimension `r` is a
//! linear function of the iteration vector, so over a rectangular box
//! its extrema are attained at per-variable endpoints:
//! `min_r = f_r + Σ_j min(F_rj·lo_j, F_rj·(hi_j − 1))` and symmetrically
//! for `max_r`. The access is proven in-bounds iff
//! `0 <= min_r` and `max_r < dims_r` for every dimension — exact, not
//! approximate, for the rectangular nests this IR has. The rule and the
//! verdict live in `ndc_ir::affine` ([`row_extrema`], [`in_bounds`]),
//! where the same verdict admits a reference to lowering's `c0 + g·I`
//! address form and gates `ndc-reuse`'s `Exact` tags.
//!
//! Schedules don't change the verdict: a unimodular transform permutes
//! the *order* of iteration points, never the set of points visited, so
//! the proof covers the scheduled program too.

use ndc_ir::affine::{decl_of, in_bounds, row_extrema};
use ndc_ir::program::{ArrayId, LoopNest, NestId, Program, StmtId};

/// The proven subscript range of one array reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefBounds {
    pub nest: NestId,
    pub stmt: StmtId,
    /// Slot in the statement's `array_refs()` order (reads then write).
    pub slot: u8,
    pub array: ArrayId,
    pub is_write: bool,
    /// Per array dimension: the (min, max) subscript values attained
    /// over the whole iteration space. Empty when the reference's shape
    /// is malformed (which the verifier reports separately).
    pub range: Vec<(i64, i64)>,
    /// The array's declared extents, copied for self-contained
    /// reporting.
    pub dims: Vec<u64>,
    /// Whether every dimension's range fits inside the array.
    pub in_bounds: bool,
}

impl RefBounds {
    /// Human-readable account of which dimensions escape the array,
    /// e.g. `dim 0 spans [-1, 14] outside [0, 15]`.
    pub fn describe_violation(&self) -> String {
        if self.range.is_empty() {
            return "reference shape prevents bounds analysis".into();
        }
        let parts: Vec<String> = self
            .range
            .iter()
            .enumerate()
            .filter(|&(r, &(min, max))| {
                self.dims.get(r).is_none_or(|&d| min < 0 || max >= d as i64)
            })
            .map(|(r, &(min, max))| {
                let d = self.dims.get(r).copied().unwrap_or(0);
                format!("dim {r} spans [{min}, {max}] outside [0, {}]", d as i64 - 1)
            })
            .collect();
        parts.join("; ")
    }
}

/// Prove bounds for every array reference of every nest. Returns one
/// entry per reference, in program order, pass or fail.
pub fn prove_program(prog: &Program) -> Vec<RefBounds> {
    let mut out = Vec::new();
    for nest in &prog.nests {
        for stmt in &nest.body {
            for (slot, (aref, is_write)) in stmt.array_refs().into_iter().enumerate() {
                out.push(prove_ref(prog, nest, stmt.id, slot as u8, aref, is_write));
            }
        }
    }
    out
}

/// Prove bounds for a single reference: the verdict is
/// [`ndc_ir::affine::in_bounds`], and the per-row ranges beside it are
/// the diagnostics [`RefBounds::describe_violation`] reports.
pub fn prove_ref(
    prog: &Program,
    nest: &LoopNest,
    stmt: StmtId,
    slot: u8,
    aref: &ndc_ir::program::ArrayRef,
    is_write: bool,
) -> RefBounds {
    let mut rb = RefBounds {
        nest: nest.id,
        stmt,
        slot,
        array: aref.array,
        is_write,
        range: Vec::new(),
        dims: Vec::new(),
        in_bounds: false,
    };
    if let Some(decl) = prog.arrays.get(aref.array.0 as usize) {
        rb.dims = decl.dims.clone();
    }
    let Some(decl) = decl_of(prog, aref, nest.depth()) else {
        return rb;
    };
    rb.in_bounds = in_bounds(decl, aref, nest);
    rb.range = (0..decl.dims.len())
        .map(|r| {
            if nest.is_empty() {
                // The canonical empty interval: the endpoint rule would
                // evaluate at `hi[j] - 1 < lo[j]`, a point the nest
                // never visits.
                (0, -1)
            } else {
                let (min, max) = row_extrema(aref, r, nest);
                (clamp_i64(min), clamp_i64(max))
            }
        })
        .collect();
    rb
}

fn clamp_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayRef, LoopNest, Ref, Stmt};
    use ndc_types::Op;

    #[test]
    fn guarded_stencil_is_proven_in_bounds() {
        // X[i-1][j+1] over i in [1, 16), j in [0, 15) against a 17×16
        // array: rows span [0, 14], cols span [1, 15]. All inside.
        let mut p = Program::new("b");
        let x = p.add_array(ArrayDecl::new("X", vec![17, 16], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 1])),
            Ref::Const(1.0),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![1, 0], vec![16, 15], vec![s]));
        let bounds = prove_program(&p);
        assert_eq!(bounds.len(), 2);
        assert!(bounds.iter().all(|b| b.in_bounds), "{bounds:?}");
        let read = &bounds[0];
        assert!(!read.is_write);
        assert_eq!(read.range, vec![(0, 14), (1, 15)]);
    }

    #[test]
    fn unguarded_halo_read_is_flagged() {
        // X[i-1] over i in [0, 4): reads X[-1] at i = 0.
        let mut p = Program::new("halo");
        let x = p.add_array(ArrayDecl::new("X", vec![4], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![-1])),
            Ref::Const(1.0),
            0,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![4], vec![s]));
        let bounds = prove_program(&p);
        let read = &bounds[0];
        assert!(!read.in_bounds);
        assert_eq!(read.range, vec![(-1, 2)]);
        let msg = read.describe_violation();
        assert!(msg.contains("dim 0 spans [-1, 2]"), "{msg}");
        // The write X[i] itself is fine.
        assert!(bounds[1].in_bounds);
    }

    #[test]
    fn overflowing_upper_bound_is_flagged() {
        // X[2i] over i in [0, 8) against 15 elements: touches X[14],
        // fine; against 14 elements: X[14] escapes.
        let mk = |elems: u64| {
            let mut p = Program::new("stride");
            let x = p.add_array(ArrayDecl::new("X", vec![elems], 8));
            let w = ArrayRef::affine(x, IMat::from_rows(&[&[2]]), vec![0]);
            let s = Stmt::copy(0, w, Ref::Const(0.0), 0);
            p.nests.push(LoopNest::new(0, vec![0], vec![8], vec![s]));
            p
        };
        assert!(prove_program(&mk(15))[0].in_bounds);
        assert!(!prove_program(&mk(14))[0].in_bounds);
    }

    #[test]
    fn negative_stride_bounds_are_exact() {
        // X[-i + 7] over i in [0, 8): spans [0, 7], exactly the array.
        let mut p = Program::new("neg");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let w = ArrayRef::affine(x, IMat::from_rows(&[&[-1]]), vec![7]);
        let s = Stmt::copy(0, w, Ref::Const(0.0), 0);
        p.nests.push(LoopNest::new(0, vec![0], vec![8], vec![s]));
        let b = &prove_program(&p)[0];
        assert!(b.in_bounds);
        assert_eq!(b.range, vec![(0, 7)]);
    }

    #[test]
    fn coupled_subscript_bounds_sum_both_dimensions() {
        // X[i+j] over a 4×4 box: spans [0, 6].
        let mut p = Program::new("coupled");
        let x = p.add_array(ArrayDecl::new("X", vec![7], 8));
        let w = ArrayRef::affine(x, IMat::from_rows(&[&[1, 1]]), vec![0]);
        let s = Stmt::copy(0, w, Ref::Const(0.0), 0);
        p.nests
            .push(LoopNest::new(0, vec![0, 0], vec![4, 4], vec![s]));
        let b = &prove_program(&p)[0];
        assert!(b.in_bounds);
        assert_eq!(b.range, vec![(0, 6)]);
        // Offset 1 pushes the max to 7, one past the end.
        let mut p2 = Program::new("coupled2");
        let x2 = p2.add_array(ArrayDecl::new("X", vec![7], 8));
        let w2 = ArrayRef::affine(x2, IMat::from_rows(&[&[1, 1]]), vec![1]);
        let s2 = Stmt::copy(0, w2, Ref::Const(0.0), 0);
        p2.nests
            .push(LoopNest::new(0, vec![0, 0], vec![4, 4], vec![s2]));
        let b2 = &prove_program(&p2)[0];
        assert!(!b2.in_bounds);
        assert_eq!(b2.range, vec![(1, 7)]);
    }

    #[test]
    fn zero_trip_nest_is_vacuously_in_bounds() {
        // X[i - 100] over i in [4, 4): no iteration ever runs, so the
        // wildly out-of-range subscript is never evaluated.
        let mut p = Program::new("vacuous");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let w = ArrayRef::identity(x, 1, vec![-100]);
        let s = Stmt::copy(0, w, Ref::Const(0.0), 0);
        p.nests.push(LoopNest::new(0, vec![4], vec![4], vec![s]));
        let b = &prove_program(&p)[0];
        assert!(b.in_bounds);
        // The recorded range is the canonical empty interval.
        assert_eq!(b.range, vec![(0, -1)]);
    }

    #[test]
    fn malformed_shape_yields_unproven_empty_range() {
        let mut p = Program::new("bad");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        // 1-D access to a 2-D array.
        let w = ArrayRef::affine(x, IMat::from_rows(&[&[1]]), vec![0]);
        let s = Stmt::copy(0, w, Ref::Const(0.0), 0);
        p.nests.push(LoopNest::new(0, vec![0], vec![8], vec![s]));
        let b = &prove_program(&p)[0];
        assert!(!b.in_bounds);
        assert!(b.range.is_empty());
        assert_eq!(
            b.describe_violation(),
            "reference shape prevents bounds analysis"
        );
    }
}
