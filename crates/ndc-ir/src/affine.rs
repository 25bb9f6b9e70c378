//! The box-extrema rule and affine address forms.
//!
//! Row `r` of a reference's subscript, `F_r·I + f_r`, is linear in the
//! iteration vector, so over a nest's rectangular box its extrema sit at
//! per-variable endpoints: `min_r = f_r + Σ_j min(F_rj·lo_j,
//! F_rj·(hi_j − 1))`, and symmetrically for `max_r`. That rule is exact
//! for this IR's nests. One copy of it, [`row_extrema`], decides both
//! `ndc-lint`'s bounds verdict and whether lowering may evaluate a
//! reference as an [`AffineAddr`].
//!
//! A reference whose every row stays in `[0, dims_r)` over the box has
//! `addr_of(I) = base + elem·Σ_r stride_r·(F_r·I + f_r)` at every point,
//! which is `c0 + g·I`: one multiply-add per loop instead of evaluating
//! and bounds-checking each row.

use crate::program::{ArrayRef, LoopNest, Program};
use ndc_types::Addr;

/// The least and greatest value of subscript row `r` of `aref` over the
/// box of `nest`, by the per-variable endpoint rule. The nest must be
/// non-empty (an empty box has no extrema) and `aref` must have one
/// coefficient column per loop and an offset for row `r`.
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

/// Whether a row's range `(min, max)` lies inside an array dimension of
/// `dim` elements.
pub fn row_fits((min, max): (i128, i128), dim: u64) -> bool {
    min >= 0 && max < dim as i128
}

/// The address of an in-bounds reference as an affine function of the
/// iteration vector: `c0 + g·I`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineAddr {
    c0: i64,
    g: Vec<i64>,
}

impl AffineAddr {
    /// The form of `aref` over `nest`, or `None` unless the nest is
    /// non-empty, the reference's shape matches the array and the nest,
    /// every row fits its dimension by [`row_extrema`], and `c0` and
    /// every `g_j` fit in `i64`.
    pub fn of(prog: &Program, aref: &ArrayRef, nest: &LoopNest) -> Option<AffineAddr> {
        let decl = prog.arrays.get(aref.array.0 as usize)?;
        let rows = decl.dims.len();
        if nest.is_empty()
            || aref.coeffs.cols != nest.depth()
            || aref.coeffs.rows != rows
            || aref.offsets.len() != rows
        {
            return None;
        }
        let inside = |r: usize| row_fits(row_extrema(aref, r, nest), decl.dims[r]);
        if !(0..rows).all(inside) {
            return None;
        }
        // Row-major strides in bytes: elem · Π_{s > r} dims_s.
        let mut strides = vec![0i128; rows];
        let mut stride = decl.elem_bytes as i128;
        for r in (0..rows).rev() {
            strides[r] = stride;
            stride = stride.checked_mul(decl.dims[r] as i128)?;
        }
        let mut c0 = decl.base as i128;
        for (r, &s) in strides.iter().enumerate() {
            c0 = c0.checked_add(s.checked_mul(aref.offsets[r] as i128)?)?;
        }
        let g = (0..nest.depth())
            .map(|j| {
                let mut gj: i128 = 0;
                for (r, &s) in strides.iter().enumerate() {
                    gj = gj.checked_add(s.checked_mul(aref.coeffs[(r, j)] as i128)?)?;
                }
                i64::try_from(gj).ok()
            })
            .collect::<Option<Vec<i64>>>()?;
        Some(AffineAddr {
            c0: i64::try_from(c0).ok()?,
            g,
        })
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
