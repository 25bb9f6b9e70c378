//! The composite address form: every affine reference reduced to a
//! one-dimensional linear functional over the nest's iteration box.
//!
//! For `X(F·I + f)` on a row-major array, `ndc_ir::affine`'s [`Fold`]
//! gives the linear element index as a single linear form
//! `β + Σ_j A_j·I_j`, even when subscripts couple several iterators.
//! Normalizing negative coefficients (mirroring the dimension) and
//! dropping zero-coefficient and single-trip dimensions leaves a
//! canonical sum-of-progressions whose distinct-value and
//! distinct-cache-line cardinalities admit closed forms in the common
//! cases; when no closed form is exact, the counts carry an explicit
//! [`Exactness::Bound`] tag.

use ndc_ir::affine::{decl_of, Fold};
use ndc_ir::program::{ArrayRef, LoopNest, Program};
use ndc_lint::gcd;

/// Whether a count is provably exact or a conservative over-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// The count equals the true cardinality (assuming every access is
    /// in-bounds; callers downgrade on an unproven bounds check).
    Exact,
    /// The count is `>=` the true cardinality.
    Bound,
}

impl Exactness {
    pub fn label(&self) -> &'static str {
        match self {
            Exactness::Exact => "exact",
            Exactness::Bound => "bound",
        }
    }

    /// Combining two counts is exact only when both sides are.
    pub fn meet(self, other: Exactness) -> Exactness {
        if self == Exactness::Exact && other == Exactness::Exact {
            Exactness::Exact
        } else {
            Exactness::Bound
        }
    }
}

/// A cardinality with its soundness tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    pub value: u64,
    pub tag: Exactness,
}

impl Count {
    pub fn exact(value: u64) -> Self {
        Count {
            value,
            tag: Exactness::Exact,
        }
    }

    pub fn bound(value: u64) -> Self {
        Count {
            value,
            tag: Exactness::Bound,
        }
    }

    /// Force the tag down to `Bound`, keeping the value.
    pub fn relaxed(self) -> Self {
        Count {
            value: self.value,
            tag: Exactness::Bound,
        }
    }

    /// Scale the value by a per-unit byte cost, saturating.
    pub fn times(self, unit: u64) -> Self {
        Count {
            value: self.value.saturating_mul(unit),
            tag: self.tag,
        }
    }
}

/// One normalized progression: `coeff·i` for `i` in `[0, extent)`,
/// `coeff > 0`, `extent >= 2` (units: array elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    pub coeff: u64,
    pub extent: u64,
}

/// A reference's touched-address set in canonical form:
/// `addr = min_addr + elem_bytes·(Σ_j coeff_j·i_j)`, `i_j ∈ [0, e_j)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressForm {
    pub elem_bytes: u64,
    /// Byte address of the minimal touched element (may be negative for
    /// out-of-bounds references; those degrade to `Bound` upstream).
    pub min_addr: i128,
    /// Normalized progressions, sorted by coefficient descending.
    pub terms: Vec<Term>,
    /// The composite per-loop coefficient `A_j` in loop order, before
    /// normalization — the symbolic reuse vector's signature (the
    /// innermost entry is the element stride of consecutive
    /// iterations).
    pub raw_coeffs: Vec<i64>,
    /// Total iterations of the nest (not distinct values).
    pub points: u64,
}

impl AddressForm {
    /// Build the canonical form: [`Fold`] of the reference, then box
    /// normalization. It covers references that leave their array too
    /// (their counts degrade to `Bound` upstream). `None` when the
    /// shape fails [`decl_of`] or the fold overflows — callers fall
    /// back to trivial `Bound` facts.
    pub fn build(prog: &Program, nest: &LoopNest, aref: &ArrayRef) -> Option<AddressForm> {
        let arr = decl_of(prog, aref, nest.depth())?;
        let Fold {
            coeffs: raw_coeffs,
            constant: mut beta,
        } = Fold::of(arr, aref)?;
        let mut terms = Vec::new();
        // An empty box has no minimum and no progressions.
        let walked = if nest.is_empty() { 0 } else { nest.depth() };
        for (j, &a) in raw_coeffs[..walked].iter().enumerate() {
            // The minimum of `a·I_j` over `[lo, hi)` is at `lo` for
            // positive coefficients and at `hi-1` for negative ones;
            // mirroring the dimension leaves the value set unchanged.
            let at = if a >= 0 { nest.lo[j] } else { nest.hi[j] - 1 };
            beta = beta.checked_add((a as i128).checked_mul(at as i128)?)?;
            let extent = (nest.hi[j] - nest.lo[j]).max(0) as u64;
            if a != 0 && extent >= 2 {
                terms.push(Term {
                    coeff: a.unsigned_abs(),
                    extent,
                });
            }
        }
        terms.sort_by_key(|t| std::cmp::Reverse(t.coeff));
        let min_addr =
            (arr.base as i128).checked_add((arr.elem_bytes as i128).checked_mul(beta)?)?;
        Some(AddressForm {
            elem_bytes: arr.elem_bytes,
            min_addr,
            terms,
            raw_coeffs,
            points: nest.points(),
        })
    }

    /// True when the nest executes no iterations.
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Distinct elements the reference touches over the whole nest.
    pub fn distinct_elements(&self) -> Count {
        if self.is_empty() {
            return Count::exact(0);
        }
        distinct_of_terms(&self.terms)
    }

    /// Distinct `line_bytes`-sized cache lines touched over the whole
    /// nest (global line ids: `addr / line_bytes`).
    pub fn distinct_lines(&self, line_bytes: u64) -> Count {
        if self.is_empty() {
            return Count::exact(0);
        }
        let eb = self.elem_bytes;
        if line_bytes == 0 || eb == 0 {
            return Count::bound(0);
        }
        let span_b = span(&self.terms).saturating_mul(eb as u128);
        let aligned =
            line_bytes.is_multiple_of(eb) && self.min_addr >= 0 && self.min_addr % eb as i128 == 0;
        if !aligned {
            // Coarse: the touched bytes live in
            // `[min_addr, min_addr + span + eb)`; each element also
            // touches at most `ceil(eb/L) + 1` lines.
            let lo_line = self.min_addr.div_euclid(line_bytes as i128);
            let hi_line =
                (self.min_addr + span_b as i128 + eb as i128 - 1).div_euclid(line_bytes as i128);
            let range = sat_u64((hi_line - lo_line + 1).max(0) as u128);
            let per_elem = self
                .distinct_elements()
                .value
                .saturating_mul(eb.div_ceil(line_bytes) + 1);
            return Count::bound(range.min(per_elem));
        }
        let c = line_bytes / eb; // elements per line
        let off = ((self.min_addr % line_bytes as i128) / eb as i128) as u128;
        if self.terms.is_empty() {
            return Count::exact(1);
        }
        // Every coefficient a multiple of `c`: the line index is itself
        // a linear form with coefficients `coeff/c`, so the distinct
        // line count is a distinct-value count (exact under the same
        // conditions).
        if self.terms.iter().all(|t| t.coeff % c == 0) {
            let scaled: Vec<Term> = self
                .terms
                .iter()
                .map(|t| Term {
                    coeff: t.coeff / c,
                    extent: t.extent,
                })
                .collect();
            return distinct_of_terms(&scaled);
        }
        lines_rec(&self.terms, off, c)
    }
}

/// `Σ coeff·(extent − 1)` — the largest value the term sum attains.
fn span(terms: &[Term]) -> u128 {
    terms
        .iter()
        .map(|t| t.coeff as u128 * (t.extent - 1) as u128)
        .fold(0u128, u128::saturating_add)
}

fn sat_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Distinct values of `Σ coeff_j·i_j` over `i_j ∈ [0, e_j)` (terms
/// sorted by coefficient descending, all `coeff > 0`, `extent >= 2`).
fn distinct_of_terms(terms: &[Term]) -> Count {
    if terms.is_empty() {
        return Count::exact(1);
    }
    // Mixed-radix injectivity: if each coefficient exceeds the whole
    // span of the smaller ones, representations are unique and the
    // count is the product of extents.
    let injective = (0..terms.len()).all(|k| terms[k].coeff as u128 > span(&terms[k + 1..]));
    let product = terms
        .iter()
        .map(|t| t.extent as u128)
        .fold(1u128, u128::saturating_mul);
    if injective {
        return Count::exact(sat_u64(product));
    }
    let g = terms
        .iter()
        .fold(0i128, |acc, t| gcd(acc, t.coeff as i128))
        .max(1) as u128;
    let steps = span(terms) / g; // span is a multiple of each coeff's g
                                 // Completeness: if (after dividing by the gcd) each coefficient is
                                 // at most one more than the span of the smaller ones, the sum hits
                                 // every multiple of g in [0, span] — an exact arithmetic
                                 // progression of steps+1 values.
    let complete =
        (0..terms.len()).all(|k| (terms[k].coeff as u128 / g) <= 1 + span(&terms[k + 1..]) / g);
    if complete {
        return Count::exact(sat_u64(steps + 1));
    }
    Count::bound(sat_u64(product.min(steps + 1)))
}

/// Distinct values of `floor((off + Σ coeff_j·i_j) / c)` — line
/// indices relative to the first line, `off < c`.
fn lines_rec(terms: &[Term], off: u128, c: u64) -> Count {
    if terms.is_empty() {
        return Count::exact(1);
    }
    let t = terms[0];
    let tail = &terms[1..];
    let tail_span = span(tail);
    // Disjoint-translate product: a line-aligned stride that jumps past
    // everything the inner terms (plus the in-line offset) can reach
    // replicates the inner line set `extent` times without overlap.
    if t.coeff.is_multiple_of(c) && t.coeff as u128 > off + tail_span {
        let inner = lines_rec(tail, off, c);
        return Count {
            value: sat_u64(t.extent as u128 * inner.value as u128),
            tag: inner.tag,
        };
    }
    if tail.is_empty() {
        if t.coeff >= c {
            // Each step advances the floor by at least one: all
            // `extent` line indices are distinct.
            return Count::exact(t.extent);
        }
        // Sub-line stride: consecutive floors differ by 0 or 1, so the
        // line indices are exactly the integers up to the last one.
        let last = (off + t.coeff as u128 * (t.extent - 1) as u128) / c as u128;
        return Count::exact(sat_u64(last + 1));
    }
    let full = t.coeff as u128 * (t.extent - 1) as u128 + tail_span;
    let range = (off + full) / c as u128 + 1;
    // If the value sum hits every integer in [0, span] the lines form
    // one contiguous interval — exact despite the coupling.
    let g = terms
        .iter()
        .fold(0i128, |acc, t| gcd(acc, t.coeff as i128))
        .max(1) as u128;
    let complete =
        g == 1 && (0..terms.len()).all(|k| terms[k].coeff as u128 <= 1 + span(&terms[k + 1..]));
    if complete {
        return Count::exact(sat_u64(range));
    }
    Count::bound(sat_u64(range.min(distinct_of_terms(terms).value as u128)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayRef, LoopNest, Program};
    use ndc_types::FxHashSet;

    fn prog_1d(elems: u64, base_align: u64) -> (Program, ndc_ir::program::ArrayId) {
        let mut p = Program::new("t");
        let x = p.add_array(ArrayDecl::new("X", vec![elems], 8));
        p.assign_layout(0x1000, base_align);
        (p, x)
    }

    /// Brute-force the distinct element / line sets by enumeration and
    /// require: Exact tags match exactly, Bound tags dominate.
    fn check_against_enumeration(prog: &Program, nest: &LoopNest, aref: &ArrayRef, line: u64) {
        let form = AddressForm::build(prog, nest, aref).expect("well-formed ref");
        let mut elems: FxHashSet<i128> = FxHashSet::default();
        let mut lines: FxHashSet<i128> = FxHashSet::default();
        let arr = prog.array(aref.array);
        nest.for_each_point(|point| {
            let idx = aref.index_at(point);
            // Composite linear index, in-bounds or not: the form models
            // the full affine image.
            let mut lin: i128 = 0;
            for (&i, &d) in idx.iter().zip(arr.dims.iter()) {
                lin = lin * d as i128 + i as i128;
            }
            let addr = arr.base as i128 + lin * arr.elem_bytes as i128;
            elems.insert(addr);
            lines.insert(addr.div_euclid(line as i128));
        });
        let e = form.distinct_elements();
        match e.tag {
            Exactness::Exact => assert_eq!(e.value as usize, elems.len(), "{form:?}"),
            Exactness::Bound => assert!(e.value as usize >= elems.len(), "{form:?}"),
        }
        let l = form.distinct_lines(line);
        match l.tag {
            Exactness::Exact => assert_eq!(l.value as usize, lines.len(), "line={line} {form:?}"),
            Exactness::Bound => assert!(l.value as usize >= lines.len(), "line={line} {form:?}"),
        }
    }

    #[test]
    fn streaming_unit_stride_counts_are_exact() {
        let (p, x) = prog_1d(4096, 4096);
        let nest = LoopNest::new(0, vec![0], vec![1000], vec![]);
        let r = ArrayRef::identity(x, 1, vec![0]);
        let form = AddressForm::build(&p, &nest, &r).unwrap();
        assert_eq!(form.distinct_elements(), Count::exact(1000));
        // 8-byte elements, 64-byte lines: 1000 elements span 125 lines.
        assert_eq!(form.distinct_lines(64), Count::exact(125));
        // 256-byte lines hold 32 elements: ceil(1000/32) = 32 lines.
        assert_eq!(form.distinct_lines(256), Count::exact(32));
        check_against_enumeration(&p, &nest, &r, 64);
        check_against_enumeration(&p, &nest, &r, 256);
    }

    #[test]
    fn strided_and_offset_references_match_enumeration() {
        let (p, x) = prog_1d(8192, 4096);
        for (coeff, lo, hi, off) in [
            (2i64, 0i64, 500i64, 0i64),
            (3, 10, 200, 7),
            (-1, 0, 300, 400),
            (32, 0, 100, 5),
            (33, 0, 100, 0),
            (64, 0, 50, 1),
        ] {
            let nest = LoopNest::new(0, vec![lo], vec![hi], vec![]);
            let r = ArrayRef::affine(x, IMat::from_rows(&[&[coeff]]), vec![off]);
            for line in [64u64, 256] {
                check_against_enumeration(&p, &nest, &r, line);
            }
        }
    }

    #[test]
    fn two_dim_row_and_column_walks_match_enumeration() {
        let mut p = Program::new("2d");
        let x = p.add_array(ArrayDecl::new("X", vec![64, 64], 8));
        p.assign_layout(0x1000, 4096);
        let nest = LoopNest::new(0, vec![0, 0], vec![48, 40], vec![]);
        // Row-major walk X[i][j], transposed walk X[j][i], stencil
        // X[i-1][j+1] (padded by the bounds), diagonal X[i][i+j].
        let refs = [
            ArrayRef::identity(x, 2, vec![0, 0]),
            ArrayRef::affine(x, IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]),
            ArrayRef::identity(x, 2, vec![1, 1]),
            ArrayRef::affine(x, IMat::from_rows(&[&[1, 0], &[1, 1]]), vec![0, 0]),
        ];
        for r in &refs {
            for line in [64u64, 256] {
                check_against_enumeration(&p, &nest, r, line);
            }
        }
    }

    #[test]
    fn coupled_subscript_is_exact_when_contiguous() {
        // X[i+j] over 16x16: values form the interval [0, 30].
        let (p, x) = prog_1d(64, 4096);
        let nest = LoopNest::new(0, vec![0, 0], vec![16, 16], vec![]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[1, 1]]), vec![0]);
        let form = AddressForm::build(&p, &nest, &r).unwrap();
        assert_eq!(form.distinct_elements(), Count::exact(31));
        check_against_enumeration(&p, &nest, &r, 64);
    }

    #[test]
    fn coupled_subscript_falls_back_to_bound() {
        // X[4i+7j] over 8x8: neither injective (4·7 overlaps) nor
        // complete — the count must carry a Bound tag that dominates.
        let (p, x) = prog_1d(256, 4096);
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[4, 7]]), vec![0]);
        let form = AddressForm::build(&p, &nest, &r).unwrap();
        assert_eq!(form.distinct_elements().tag, Exactness::Bound);
        check_against_enumeration(&p, &nest, &r, 64);
        check_against_enumeration(&p, &nest, &r, 256);
    }

    #[test]
    fn zero_trip_nest_has_empty_footprint() {
        let (p, x) = prog_1d(64, 4096);
        let nest = LoopNest::new(0, vec![4, 0], vec![4, 8], vec![]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[1, 0]]), vec![0]);
        let form = AddressForm::build(&p, &nest, &r).unwrap();
        assert!(form.is_empty());
        assert_eq!(form.distinct_elements(), Count::exact(0));
        assert_eq!(form.distinct_lines(64), Count::exact(0));
    }

    #[test]
    fn loop_invariant_reference_is_one_element() {
        let (p, x) = prog_1d(64, 4096);
        let nest = LoopNest::new(0, vec![0], vec![100], vec![]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[0]]), vec![5]);
        let form = AddressForm::build(&p, &nest, &r).unwrap();
        assert_eq!(form.distinct_elements(), Count::exact(1));
        assert_eq!(form.distinct_lines(64), Count::exact(1));
        assert_eq!(form.raw_coeffs, vec![0]);
    }

    #[test]
    fn negative_stride_normalizes_to_same_set() {
        let (p, x) = prog_1d(512, 4096);
        let nest = LoopNest::new(0, vec![0], vec![256], vec![]);
        let fwd = ArrayRef::affine(x, IMat::from_rows(&[&[1]]), vec![0]);
        let bwd = ArrayRef::affine(x, IMat::from_rows(&[&[-1]]), vec![255]);
        let ff = AddressForm::build(&p, &nest, &fwd).unwrap();
        let fb = AddressForm::build(&p, &nest, &bwd).unwrap();
        assert_eq!(ff.min_addr, fb.min_addr);
        assert_eq!(ff.terms, fb.terms);
        assert_eq!(ff.distinct_lines(64), fb.distinct_lines(64));
        assert_eq!(ff.raw_coeffs, vec![1]);
        assert_eq!(fb.raw_coeffs, vec![-1]);
    }

    #[test]
    fn malformed_shape_yields_none() {
        let mut p = Program::new("bad");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        p.assign_layout(0, 64);
        let nest = LoopNest::new(0, vec![0], vec![8], vec![]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[1]]), vec![0]);
        assert!(AddressForm::build(&p, &nest, &r).is_none());
    }

    #[test]
    fn nonstandard_alignment_still_dominates() {
        // Layout aligned to 32 bytes with a 64-byte line: the array
        // starts mid-line, exercising the nonzero in-line offset path.
        let mut p = Program::new("mis");
        let pad = p.add_array(ArrayDecl::new("P", vec![4], 8)); // 32 bytes
        let x = p.add_array(ArrayDecl::new("X", vec![256], 8));
        p.assign_layout(0, 32);
        let _ = pad;
        let nest = LoopNest::new(0, vec![0], vec![100], vec![]);
        let r = ArrayRef::identity(x, 1, vec![0]);
        check_against_enumeration(&p, &nest, &r, 64);
        check_against_enumeration(&p, &nest, &r, 256);
    }
}
