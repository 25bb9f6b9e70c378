//! The reference algebra: what lowering, the reuse analysis, the CME,
//! the linter and the layout pass derive from an affine reference
//! `X(F·I + f)` (§5.2.1), in one place.
//!
//! * The shape rule, [`decl_of`]: the array exists, `F` is rank × depth
//!   and `f` has rank entries. Everything below assumes it.
//! * The fold, [`Fold`]: on the row-major array `F·I + f` is one linear
//!   element index `constant + Σ_j A_j·I_j`, with row weights
//!   `w_r = Π_{r'>r} dims_r'`, `A_j = Σ_r w_r·F_rj` and
//!   `constant = Σ_r w_r·f_r`, even where subscripts couple loops.
//! * The bounds verdict, [`in_bounds`]. Row `r` is linear in the
//!   iteration vector, so over a nest's rectangular box its extrema sit
//!   at per-variable endpoints ([`row_extrema`]): exact for this IR.
//! * The exact solver, [`solve`]: `F·d = c` by Cramer's rule.
//!
//! An in-bounds reference has `addr_of(I) = base + elem·(constant +
//! Σ_j A_j·I_j)` at every point, which is [`AffineAddr`]'s `c0 + g·I`:
//! one multiply-add per loop instead of evaluating and bounds-checking
//! each row.

use crate::matrix::{IMat, IVec};
use crate::program::{ArrayDecl, ArrayRef, LoopNest, Program};
use ndc_types::Addr;

/// The shape rule: the array `aref` indexes, when it exists, `F` is
/// rank × `depth` and `f` has rank entries; `None` otherwise.
pub fn decl_of<'p>(prog: &'p Program, aref: &ArrayRef, depth: usize) -> Option<&'p ArrayDecl> {
    let decl = prog.arrays.get(aref.array.0 as usize)?;
    let rank = decl.dims.len();
    (aref.coeffs.rows == rank && aref.coeffs.cols == depth && aref.offsets.len() == rank)
        .then_some(decl)
}

/// `F·I + f` as one linear function of the iteration vector:
/// `constant + Σ_j coeffs_j·I_j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Per loop, in loop order: how far the reference moves when that
    /// loop steps by one.
    pub coeffs: Vec<i64>,
    pub constant: i128,
}

impl Fold {
    /// The fold in elements (`A_j` and `Σ_r w_r·f_r`) of `aref`, whose
    /// shape must pass [`decl_of`] for `decl`; `None` when a weight or a
    /// sum leaves `i128` or an `A_j` leaves `i64`.
    pub fn of(decl: &ArrayDecl, aref: &ArrayRef) -> Option<Fold> {
        Some(Fold {
            coeffs: (0..aref.coeffs.cols)
                .map(|j| i64::try_from(weighted(&decl.dims, |r| aref.coeffs[(r, j)])?).ok())
                .collect::<Option<_>>()?,
            constant: weighted(&decl.dims, |r| aref.offsets[r])?,
        })
    }

    /// [`Fold::of`] scaled to bytes by `elem_bytes` (`base` not added);
    /// `None` also when a scaled value overflows.
    pub fn bytes(decl: &ArrayDecl, aref: &ArrayRef) -> Option<Fold> {
        let mut fold = Fold::of(decl, aref)?;
        let elem = i64::try_from(decl.elem_bytes).ok()?;
        for a in &mut fold.coeffs {
            *a = a.checked_mul(elem)?;
        }
        fold.constant = fold.constant.checked_mul(elem as i128)?;
        Some(fold)
    }
}

/// `Σ_r w_r·v(r)` over the rows of an array with extents `dims`, walking
/// the rows last to first so each weight is one multiply from the next.
fn weighted(dims: &[u64], v: impl Fn(usize) -> i64) -> Option<i128> {
    let (mut sum, mut w) = (0i128, 1i128);
    for r in (0..dims.len()).rev() {
        sum = sum.checked_add(w.checked_mul(v(r) as i128)?)?;
        if r > 0 {
            w = w.checked_mul(dims[r] as i128)?;
        }
    }
    Some(sum)
}

/// The least and greatest value of subscript row `r` of `aref` over the
/// box of `nest`: `f_r + Σ_j min(F_rj·lo_j, F_rj·(hi_j − 1))`, and
/// symmetrically the max. The nest must be non-empty (an empty box has
/// no extrema) and `aref` must have one coefficient column per loop and
/// an offset for row `r`.
pub fn row_extrema(aref: &ArrayRef, r: usize, nest: &LoopNest) -> (i128, i128) {
    let offset = aref.offsets[r] as i128;
    let (mut min, mut max) = (offset, offset);
    for j in 0..aref.coeffs.cols {
        let a = aref.coeffs[(r, j)] as i128;
        let lo = a * nest.lo[j] as i128;
        let hi = a * (nest.hi[j] - 1) as i128;
        min += lo.min(hi);
        max += lo.max(hi);
    }
    (min, max)
}

/// The bounds verdict: every row's [`row_extrema`] over `nest` lies in
/// `[0, dims_r)`. An empty nest performs no accesses, so it is vacuously
/// in bounds. The shape must pass [`decl_of`].
pub fn in_bounds(decl: &ArrayDecl, aref: &ArrayRef, nest: &LoopNest) -> bool {
    nest.is_empty()
        || decl.dims.iter().enumerate().all(|(r, &dim)| {
            let (min, max) = row_extrema(aref, r, nest);
            min >= 0 && max < dim as i128
        })
}

/// What [`solve`] finds for `F·d = c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solve {
    Unique(IVec),
    /// No integer solution: the two accesses never meet.
    None,
    /// `F` is not square over the nest's loops, or is singular: the
    /// distances are underdetermined.
    Many,
}

/// Solve `F·d = c` for an integer `d` with `depth` entries: Cramer's
/// rule with exact integer division, for a square non-singular `F`.
pub fn solve(f: &IMat, c: &[i64], depth: usize) -> Solve {
    let square = f.rows == f.cols && f.rows == depth;
    let det = if square { f.det() } else { 0 };
    if det == 0 {
        return Solve::Many;
    }
    let mut d = vec![0i64; depth];
    for (j, dj) in d.iter_mut().enumerate() {
        // Replace column j with c.
        let mut fj = f.clone();
        for i in 0..depth {
            fj[(i, j)] = c[i];
        }
        let num = fj.det();
        if num % det != 0 {
            return Solve::None;
        }
        *dj = num / det;
    }
    Solve::Unique(d)
}

/// The address of an in-bounds reference as an affine function of the
/// iteration vector: `c0 + g·I`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineAddr {
    c0: i64,
    g: Vec<i64>,
}

impl AffineAddr {
    /// The form of `aref` over `nest`: [`Fold::bytes`] plus `base`.
    /// `None` unless the shape passes [`decl_of`], the nest is non-empty,
    /// the reference is [`in_bounds`], and the fold and `c0` fit.
    pub fn of(prog: &Program, aref: &ArrayRef, nest: &LoopNest) -> Option<AffineAddr> {
        let decl = decl_of(prog, aref, nest.depth())?;
        if nest.is_empty() || !in_bounds(decl, aref, nest) {
            return None;
        }
        let fold = Fold::bytes(decl, aref)?;
        let c0 = i64::try_from((decl.base as i128).checked_add(fold.constant)?).ok()?;
        Some(AffineAddr { c0, g: fold.coeffs })
    }

    /// The address at `point`, a point of the nest the form was built
    /// for. The true value is an address inside the array, so wrapping
    /// arithmetic (mod 2^64) yields it exactly even where an
    /// intermediate sum leaves `i64`.
    #[inline]
    pub fn at(&self, point: &[i64]) -> Addr {
        self.g
            .iter()
            .zip(point)
            .fold(self.c0, |acc, (&g, &x)| acc.wrapping_add(g.wrapping_mul(x))) as Addr
    }

    /// How the address moves between consecutive points of a
    /// lexicographic walk over a box with trip counts `extents` (one per
    /// loop, each at least 1): when loop `k` is the innermost one to
    /// step, it advances by one and every deeper loop `d > k` wraps from
    /// its last value to its first, so the address moves by
    /// `out[k] = g_k − Σ_{d>k} g_d·(ext_d − 1)`. Starting from
    /// [`AffineAddr::at`] the box's first point, adding `out[k]` at each
    /// step yields `at` at every point. The arithmetic wraps, as in
    /// `at`: each step's true sum is an address inside the array.
    pub fn carry_deltas(&self, extents: &[i64], out: &mut [i64]) {
        let mut wrapped: i64 = 0;
        for k in (0..self.g.len()).rev() {
            out[k] = self.g[k].wrapping_sub(wrapped);
            wrapped = wrapped.wrapping_add(self.g[k].wrapping_mul(extents[k] - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;
    use crate::program::tests::random_nest;
    use crate::program::ArrayDecl;
    use ndc_types::SplitMix64;

    /// A random program with one array and a reference into it over
    /// `nest`: coefficients in -3..=3, so subscripts may couple loops
    /// and run backwards. Each row's offset and extent are fitted to the
    /// span the row walks (measured point by point), then nudged by
    /// up to one element either way, which pushes some rows outside the
    /// array.
    fn random_ref(g: &mut SplitMix64, nest: &LoopNest) -> (Program, ArrayRef) {
        let rank = g.range_i64(1, 4) as usize;
        let rows: Vec<Vec<i64>> = (0..rank)
            .map(|_| (0..nest.depth()).map(|_| g.range_i64(-3, 4)).collect())
            .collect();
        let (mut offsets, mut dims) = (Vec::new(), Vec::new());
        for row in &rows {
            let (mut min, mut max) = (0, 0);
            let mut first = true;
            nest.for_each_point(|p| {
                let v: i64 = row.iter().zip(p).map(|(c, x)| c * x).sum();
                (min, max) = if first {
                    (v, v)
                } else {
                    (min.min(v), max.max(v))
                };
                first = false;
            });
            offsets.push(-min + g.range_i64(-1, 2));
            dims.push((max - min + 1 + g.range_i64(-1, 2)).max(1) as u64);
        }
        let mut prog = Program::new("forms");
        let x = prog.add_array(ArrayDecl::new("X", dims, *g.choose(&[1, 4, 8])));
        prog.assign_layout(g.range_u64(0, 1 << 20), 64);
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        (prog, ArrayRef::affine(x, IMat::from_rows(&rows), offsets))
    }

    /// Seeded property: wherever a form is built it equals
    /// `Program::addr_of` at every point of the nest, and wherever some
    /// point's `addr_of` is `None` no form is built.
    #[test]
    fn affine_forms_match_addr_of_at_every_point() {
        let g = SplitMix64::new(0x2021);
        let (mut built, mut refused) = (0, 0);
        for case in 0..1024 {
            let mut g = g.fork(case);
            let nest = random_nest(&mut g);
            let (prog, aref) = random_ref(&mut g, &nest);
            let form = AffineAddr::of(&prog, &aref, &nest);
            let mut all_inside = true;
            nest.for_each_point(|p| {
                let want = prog.addr_of(&aref, p);
                all_inside &= want.is_some();
                if let Some(f) = &form {
                    assert_eq!(Some(f.at(p)), want, "{aref:?} at {p:?} in {nest:?}");
                }
            });
            match form {
                Some(_) => built += 1,
                None => {
                    // An empty nest never needs one; otherwise only an
                    // escaping reference goes without.
                    assert!(nest.is_empty() || !all_inside, "{aref:?} over {nest:?}");
                    refused += 1;
                }
            }
        }
        // Both outcomes are exercised.
        assert!(
            built > 100 && refused > 100,
            "built {built}, refused {refused}"
        );
    }

    /// Seeded property: walking each thread's box of a random nest
    /// (`LoopNest::thread_box`, any core count) from `at` of its first
    /// point and adding the carry delta of the loop that steps gives
    /// `at` at every point, for every form built.
    #[test]
    fn carry_deltas_advance_a_box_walk_exactly() {
        let g = SplitMix64::new(0x2022);
        let mut stepped = 0;
        for case in 0..1024 {
            let mut g = g.fork(case);
            let nest = random_nest(&mut g);
            let (prog, aref) = random_ref(&mut g, &nest);
            let Some(form) = AffineAddr::of(&prog, &aref, &nest) else {
                continue;
            };
            let cores = g.range_i64(1, 6) as usize;
            let depth = nest.depth();
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for t in 0..cores {
                if nest.thread_box(t, cores, &mut lo, &mut hi) == 0 {
                    continue;
                }
                let extents: Vec<i64> = lo.iter().zip(&hi).map(|(l, h)| h - l).collect();
                let mut deltas = vec![0; depth];
                form.carry_deltas(&extents, &mut deltas);
                let mut point = lo.clone();
                let mut addr = form.at(&point);
                'walk: loop {
                    assert_eq!(addr, form.at(&point), "{aref:?} at {point:?} in {nest:?}");
                    for k in (0..depth).rev() {
                        point[k] += 1;
                        if point[k] < hi[k] {
                            addr = addr.wrapping_add(deltas[k] as Addr);
                            stepped += 1;
                            continue 'walk;
                        }
                        point[k] = lo[k];
                    }
                    break;
                }
            }
        }
        assert!(stepped > 500, "{stepped} steps checked");
    }

    #[test]
    fn forms_need_a_matching_shape_and_a_representable_range() {
        let mut prog = Program::new("shapes");
        let x = prog.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        prog.assign_layout(0x1000, 64);
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![]);
        let ok = ArrayRef::identity(x, 2, vec![0, 0]);
        assert_eq!(
            AffineAddr::of(&prog, &ok, &nest),
            Some(AffineAddr {
                c0: 0x1000,
                g: vec![64, 8]
            })
        );
        // Rank 1 reference into the rank 2 array.
        let short = ArrayRef::affine(x, IMat::from_rows(&[&[1, 0]]), vec![0]);
        assert_eq!(AffineAddr::of(&prog, &short, &nest), None);
        // A base past i64::MAX leaves c0 unrepresentable.
        prog.arrays[0].base = u64::MAX - 1024;
        assert_eq!(AffineAddr::of(&prog, &ok, &nest), None);
    }

    /// A form may start below zero (`X[i - 1]` from `i = 1` at base 0)
    /// and still yield each in-bounds address exactly.
    #[test]
    fn negative_constant_terms_wrap_back_into_range() {
        let mut prog = Program::new("neg");
        let x = prog.add_array(ArrayDecl::new("X", vec![4], 8));
        prog.assign_layout(0, 64);
        let nest = LoopNest::new(0, vec![1], vec![5], vec![]);
        let r = ArrayRef::identity(x, 1, vec![-1]);
        let f = AffineAddr::of(&prog, &r, &nest).expect("in bounds");
        assert_eq!(f.c0, -8);
        assert_eq!(
            (1..5).map(|i| f.at(&[i])).collect::<Vec<_>>(),
            [0, 8, 16, 24]
        );
    }
}
