//! Small integer vector/matrix algebra for loop-transformation theory.
//!
//! Loop nests of depth `n` use `n`-entry iteration vectors and `n×n`
//! transformation matrices. Everything here is exact `i64` arithmetic:
//! transformation legality (`T·D ≻ 0` column-wise) must not suffer
//! rounding.

/// An integer (iteration/distance) vector.
pub type IVec = Vec<i64>;

/// A dense row-major integer matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    pub rows: usize,
    pub cols: usize,
    data: Vec<i64>,
}

impl IMat {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Matrix × vector.
    pub fn mul_vec(&self, v: &[i64]) -> IVec {
        let mut out = vec![0; self.rows];
        self.mul_into(v, &mut out);
        out
    }

    /// Matrix × vector into a caller-owned buffer of `rows` entries.
    pub fn mul_into(&self, v: &[i64], out: &mut [i64]) {
        assert_eq!(self.cols, v.len());
        assert_eq!(self.rows, out.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(v).map(|(a, x)| a * x).sum();
        }
    }

    /// Matrix × matrix.
    pub fn mul(&self, other: &IMat) -> IMat {
        assert_eq!(self.cols, other.rows);
        let mut out = IMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Determinant by fraction-free Gaussian elimination (Bareiss),
    /// exact in `i128`. The `i64`-facing wrappers below convert with a
    /// check instead of truncating.
    fn det_i128(&self) -> i128 {
        assert_eq!(self.rows, self.cols, "det of non-square");
        let n = self.rows;
        if n == 0 {
            return 1;
        }
        let mut a: Vec<i128> = self.data.iter().map(|&x| x as i128).collect();
        let idx = |i: usize, j: usize| i * n + j;
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            // Pivot.
            if a[idx(k, k)] == 0 {
                let swap = (k + 1..n).find(|&i| a[idx(i, k)] != 0);
                match swap {
                    Some(i) => {
                        for j in 0..n {
                            a.swap(idx(k, j), idx(i, j));
                        }
                        sign = -sign;
                    }
                    None => return 0,
                }
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    a[idx(i, j)] =
                        (a[idx(i, j)] * a[idx(k, k)] - a[idx(i, k)] * a[idx(k, j)]) / prev;
                }
                a[idx(i, k)] = 0;
            }
            prev = a[idx(k, k)];
        }
        sign * a[idx(n - 1, n - 1)]
    }

    /// Determinant. Panics if the exact value does not fit in `i64`
    /// (use [`IMat::checked_det`] to handle that case); silently
    /// truncating here would mislabel huge-determinant matrices as
    /// unimodular.
    pub fn det(&self) -> i64 {
        let d = self.det_i128();
        i64::try_from(d).unwrap_or_else(|_| panic!("determinant {d} overflows i64"))
    }

    /// Determinant, or `None` when the exact value overflows `i64`.
    pub fn checked_det(&self) -> Option<i64> {
        i64::try_from(self.det_i128()).ok()
    }

    /// A transformation is unimodular iff `|det| == 1`; unimodular
    /// transformations map the integer lattice bijectively, which is
    /// what makes them legal loop transformations (Wolfe's condition).
    /// Decided on the exact `i128` determinant, so an overflowing
    /// determinant is never mistaken for ±1.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && {
            let d = self.det_i128();
            d == 1 || d == -1
        }
    }

    /// Exact inverse of a unimodular matrix (adjugate divided by the
    /// ±1 determinant). Panics if the matrix is not unimodular — the
    /// compiler only inverts transformation matrices drawn from
    /// [`candidate_transforms`].
    pub fn inverse_unimodular(&self) -> IMat {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let det128 = self.det_i128();
        assert!(
            det128 == 1 || det128 == -1,
            "inverse_unimodular on non-unimodular matrix"
        );
        let det = det128 as i64;
        let mut inv = IMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                // Cofactor C_ji (note the transpose for the adjugate).
                let minor = self.minor(j, i);
                let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
                inv[(i, j)] = sign * minor.det() * det;
            }
        }
        inv
    }

    fn minor(&self, drop_row: usize, drop_col: usize) -> IMat {
        let n = self.rows;
        if n == 1 {
            return IMat::identity(0);
        }
        let mut m = IMat::zeros(n - 1, n - 1);
        let mut ii = 0;
        for i in 0..n {
            if i == drop_row {
                continue;
            }
            let mut jj = 0;
            for j in 0..n {
                if j == drop_col {
                    continue;
                }
                m[(ii, jj)] = self[(i, j)];
                jj += 1;
            }
            ii += 1;
        }
        m
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Lexicographic comparison of two equal-length vectors.
pub fn lex_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// A vector is lexicographically positive if its first nonzero entry is
/// positive. The all-zero vector is *not* positive (a zero distance is a
/// loop-independent dependence, always preserved by statement order).
pub fn lex_positive(v: &[i64]) -> bool {
    for &x in v {
        if x > 0 {
            return true;
        }
        if x < 0 {
            return false;
        }
    }
    false
}

/// Legality of applying transformation `T` to a nest with dependence
/// distance vectors `dists`: every transformed distance `T·d` must stay
/// lexicographically positive (§5.2.1: "each column of T·D should be
/// lexicographically positive"). Zero vectors (loop-independent
/// dependences) are exempt — they are ordered by statement position.
pub fn transformation_legal(t: &IMat, dists: &[IVec]) -> bool {
    dists.iter().all(|d| {
        if d.iter().all(|&x| x == 0) {
            return true;
        }
        lex_positive(&t.mul_vec(d))
    })
}

/// Enumerate candidate unimodular transformations for a nest of depth
/// `n`: all loop permutations, each with every sign-reversal pattern,
/// plus single-skew variants (`i_j += s·i_k` for small `s`). This is the
/// search space Algorithm 1 draws `T` from ("with all available
/// strides").
pub fn candidate_transforms(n: usize, max_skew: i64) -> Vec<IMat> {
    let mut out = Vec::new();
    let perms = permutations(n);
    for perm in &perms {
        for signs in 0..(1u32 << n) {
            let mut m = IMat::zeros(n, n);
            for (i, &p) in perm.iter().enumerate() {
                m[(i, p)] = if signs & (1 << i) != 0 { -1 } else { 1 };
            }
            out.push(m);
        }
    }
    // Single skews applied to the identity permutation (skewing a
    // permuted nest is reachable by composing; we bound the space to
    // keep compilation fast, as the paper's implementation does by
    // trying strategies "in order").
    for j in 0..n {
        for k in 0..n {
            if j == k {
                continue;
            }
            for s in 1..=max_skew {
                for &sgn in &[s, -s] {
                    let mut m = IMat::identity(n);
                    m[(j, k)] = sgn;
                    out.push(m);
                }
            }
        }
    }
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::SplitMix64;

    #[test]
    fn identity_and_mul() {
        let i3 = IMat::identity(3);
        let v = vec![4, -5, 6];
        assert_eq!(i3.mul_vec(&v), v);
        let m = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.mul_vec(&[1, 1]), vec![3, 7]);
        let mm = m.mul(&IMat::identity(2));
        assert_eq!(mm, m);
    }

    #[test]
    fn determinants() {
        assert_eq!(IMat::identity(4).det(), 1);
        let m = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.det(), -2);
        let m = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(m.det(), -1);
        assert!(m.is_unimodular());
        let m = IMat::from_rows(&[&[2, 0], &[0, 1]]);
        assert!(!m.is_unimodular());
        let singular = IMat::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(singular.det(), 0);
    }

    #[test]
    fn det_three_by_three_with_pivoting() {
        let m = IMat::from_rows(&[&[0, 0, 1], &[0, 1, 0], &[1, 0, 0]]);
        assert_eq!(m.det(), -1);
        let m = IMat::from_rows(&[&[2, 1, 3], &[0, 0, 2], &[1, 4, 0]]);
        // det = 2*(0*0-2*4) - 1*(0*0-2*1) + 3*(0*4-0*1) = -16 + 2 = -14.
        assert_eq!(m.det(), -14);
    }

    #[test]
    fn lex_order() {
        assert!(lex_positive(&[1, -5]));
        assert!(lex_positive(&[0, 0, 2]));
        assert!(!lex_positive(&[0, 0, 0]));
        assert!(!lex_positive(&[-1, 100]));
        assert_eq!(lex_cmp(&[1, 2], &[1, 3]), std::cmp::Ordering::Less);
        assert_eq!(lex_cmp(&[2, 0], &[1, 9]), std::cmp::Ordering::Greater);
        assert_eq!(lex_cmp(&[1, 1], &[1, 1]), std::cmp::Ordering::Equal);
    }

    #[test]
    fn interchange_legality_textbook_case() {
        // Distance (1, -1): legal as-is, illegal after interchange —
        // the classic example (paper's Figure 10 access pattern).
        let d = vec![vec![1, -1]];
        let id = IMat::identity(2);
        let swap = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert!(transformation_legal(&id, &d));
        assert!(!transformation_legal(&swap, &d));
        // Skewing by one (i2' = i2 + i1) makes the interchange legal:
        // T = swap * skew.
        let skew = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let t = swap.mul(&skew);
        assert!(transformation_legal(&t, &d));
    }

    #[test]
    fn zero_distance_is_always_legal() {
        let d = vec![vec![0, 0]];
        let rev = IMat::from_rows(&[&[-1, 0], &[0, -1]]);
        assert!(transformation_legal(&rev, &d));
    }

    #[test]
    fn candidate_space_contents() {
        let cands = candidate_transforms(2, 1);
        // 2 perms * 4 sign patterns + 2*1*2 skews = 12.
        assert_eq!(cands.len(), 12);
        for t in &cands {
            assert!(t.is_unimodular(), "{t:?} not unimodular");
        }
        assert!(cands.contains(&IMat::identity(2)));
        assert!(cands.contains(&IMat::from_rows(&[&[0, 1], &[1, 0]])));
        assert!(cands.contains(&IMat::from_rows(&[&[1, 1], &[0, 1]])));
    }

    #[test]
    fn unimodular_inverse_roundtrip() {
        for t in candidate_transforms(3, 2) {
            let inv = t.inverse_unimodular();
            assert_eq!(t.mul(&inv), IMat::identity(3), "{t:?}");
            assert_eq!(inv.mul(&t), IMat::identity(3), "{t:?}");
        }
        let one = IMat::from_rows(&[&[-1]]);
        assert_eq!(one.inverse_unimodular(), one);
    }

    #[test]
    #[should_panic(expected = "non-unimodular")]
    fn inverse_rejects_non_unimodular() {
        IMat::from_rows(&[&[2, 0], &[0, 1]]).inverse_unimodular();
    }

    /// A determinant whose exact value exceeds `i64::MAX` must not be
    /// silently truncated: before the checked conversion, this matrix's
    /// det (≈ 9.22e18, just over `i64::MAX`) wrapped to a *negative*
    /// value and could alias ±1 for other inputs.
    #[test]
    fn det_overflow_is_detected_not_truncated() {
        // 3037000500^2 = 9223372037000250000 > i64::MAX (9223372036854775807).
        let big = IMat::from_rows(&[&[3_037_000_500, 0], &[0, 3_037_000_500]]);
        assert_eq!(big.checked_det(), None);
        assert!(!big.is_unimodular());
        // A matrix with a large but representable det still round-trips.
        let ok = IMat::from_rows(&[&[3_000_000_000, 0], &[0, 3_000_000_000]]);
        assert_eq!(ok.checked_det(), Some(9_000_000_000_000_000_000));
        assert_eq!(ok.det(), 9_000_000_000_000_000_000);
    }

    #[test]
    #[should_panic(expected = "overflows i64")]
    fn det_panics_on_overflow() {
        IMat::from_rows(&[&[3_037_000_500, 0], &[0, 3_037_000_500]]).det();
    }

    #[test]
    #[should_panic(expected = "non-unimodular")]
    fn inverse_rejects_overflowing_determinant() {
        // Must hit the unimodularity assert, not a truncation artifact.
        IMat::from_rows(&[&[3_037_000_500, 0], &[0, 3_037_000_500]]).inverse_unimodular();
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    /// det(A·B) == det(A)·det(B) for small random matrices
    /// (seeded-loop property test, 256 cases).
    #[test]
    fn det_is_multiplicative() {
        let mut g = SplitMix64::new(0x3a71);
        for _ in 0..256 {
            let a: Vec<i64> = (0..9).map(|_| g.range_i64(-3, 4)).collect();
            let b: Vec<i64> = (0..9).map(|_| g.range_i64(-3, 4)).collect();
            let ma = IMat {
                rows: 3,
                cols: 3,
                data: a,
            };
            let mb = IMat {
                rows: 3,
                cols: 3,
                data: b,
            };
            assert_eq!(ma.mul(&mb).det(), ma.det() * mb.det(), "{ma:?} {mb:?}");
        }
    }

    /// Candidate transforms are all unimodular, hence invertible on
    /// the lattice. Exhaustive over the dimensions the compiler uses.
    #[test]
    fn candidates_unimodular() {
        for n in 1usize..4 {
            for t in candidate_transforms(n, 2) {
                assert!(t.is_unimodular(), "{t:?}");
            }
        }
    }

    /// lex_cmp is a total order consistent with lex_positive on
    /// differences (seeded-loop property test, 256 cases).
    #[test]
    fn lex_cmp_consistent() {
        let mut g = SplitMix64::new(0x3a72);
        for _ in 0..256 {
            let a: Vec<i64> = (0..4).map(|_| g.range_i64(-5, 6)).collect();
            let b: Vec<i64> = (0..4).map(|_| g.range_i64(-5, 6)).collect();
            let diff: Vec<i64> = a.iter().zip(b.iter()).map(|(x, y)| x - y).collect();
            match lex_cmp(&a, &b) {
                std::cmp::Ordering::Greater => assert!(lex_positive(&diff), "{a:?} {b:?}"),
                std::cmp::Ordering::Less => {
                    let neg: Vec<i64> = diff.iter().map(|x| -x).collect();
                    assert!(lex_positive(&neg), "{a:?} {b:?}");
                }
                std::cmp::Ordering::Equal => assert!(diff.iter().all(|&x| x == 0)),
            }
        }
    }
}
