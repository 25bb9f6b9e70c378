//! Arrays, affine references, statements, loop nests, programs.
//!
//! A reference is `X(F·I + f)` exactly as in §5.2.1: `F` an `m×n`
//! integer matrix over the nest's iteration vector `I`, `f` an `m`-entry
//! offset vector. A statement computes `dst = a op b` (or a plain copy),
//! with an attached `work` cost modelling the surrounding non-memory
//! computation.

use crate::matrix::{lex_cmp, IMat, IVec};
use ndc_types::{Addr, Op};

/// Index of an array within its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Index of a loop nest within its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NestId(pub u32);

/// Statement identity, unique within a nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// An array declaration: shape, element size, and (after layout) its
/// base physical address. Row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    pub dims: Vec<u64>,
    pub elem_bytes: u64,
    pub base: Addr,
}

impl ArrayDecl {
    pub fn new(name: impl Into<String>, dims: Vec<u64>, elem_bytes: u64) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0));
        ArrayDecl {
            name: name.into(),
            dims,
            elem_bytes,
            base: 0,
        }
    }

    pub fn elements(&self) -> u64 {
        self.dims.iter().product()
    }

    pub fn size_bytes(&self) -> u64 {
        self.elements() * self.elem_bytes
    }

    /// Row-major linear index of a (validated, in-bounds) index vector.
    pub fn linearize(&self, idx: &[i64]) -> Option<u64> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut lin: u64 = 0;
        for (&i, &d) in idx.iter().zip(self.dims.iter()) {
            if i < 0 || i as u64 >= d {
                return None;
            }
            lin = lin * d + i as u64;
        }
        Some(lin)
    }

    /// Physical address of an element, `None` if out of bounds.
    pub fn addr_of(&self, idx: &[i64]) -> Option<Addr> {
        self.linearize(idx).map(|l| self.base + l * self.elem_bytes)
    }
}

/// An affine array reference `X(F·I + f)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    pub array: ArrayId,
    /// `m×n` coefficient matrix (`m` = array rank, `n` = nest depth).
    pub coeffs: IMat,
    /// `m`-entry constant offset.
    pub offsets: IVec,
}

impl ArrayRef {
    /// The common case: rank equals depth and `F` is the identity with
    /// constant offsets, e.g. `X[i-1][j+1]` → offsets `[-1, 1]`.
    pub fn identity(array: ArrayId, depth: usize, offsets: IVec) -> Self {
        assert_eq!(offsets.len(), depth);
        ArrayRef {
            array,
            coeffs: IMat::identity(depth),
            offsets,
        }
    }

    /// General affine reference.
    pub fn affine(array: ArrayId, coeffs: IMat, offsets: IVec) -> Self {
        assert_eq!(coeffs.rows, offsets.len());
        ArrayRef {
            array,
            coeffs,
            offsets,
        }
    }

    /// The index vector this reference touches at iteration `iter`.
    pub fn index_at(&self, iter: &[i64]) -> IVec {
        let mut idx = self.coeffs.mul_vec(iter);
        for (i, o) in idx.iter_mut().zip(self.offsets.iter()) {
            *i += o;
        }
        idx
    }
}

/// A right-hand-side operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Ref {
    Array(ArrayRef),
    Const(f64),
}

impl Ref {
    pub fn as_array(&self) -> Option<&ArrayRef> {
        match self {
            Ref::Array(a) => Some(a),
            Ref::Const(_) => None,
        }
    }
}

/// One statement: `dst = a op b`, or a copy `dst = a` when `op`/`b` are
/// absent. `work` models the non-memory computation around the accesses
/// (lowered to `Busy` cycles), giving the instruction stream realistic
/// time texture for the compiler's Δ estimation to work against.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub id: StmtId,
    pub dst: ArrayRef,
    pub op: Option<Op>,
    pub a: Ref,
    pub b: Option<Ref>,
    pub work: u32,
}

impl Stmt {
    /// A two-operand computation `dst = a op b`.
    pub fn binary(id: u32, dst: ArrayRef, op: Op, a: Ref, b: Ref, work: u32) -> Self {
        Stmt {
            id: StmtId(id),
            dst,
            op: Some(op),
            a,
            b: Some(b),
            work,
        }
    }

    /// A copy `dst = a`.
    pub fn copy(id: u32, dst: ArrayRef, a: Ref, work: u32) -> Self {
        Stmt {
            id: StmtId(id),
            dst,
            op: None,
            a,
            b: None,
            work,
        }
    }

    /// Both operands as array references, if this is a two-memory-operand
    /// computation — the NDC candidates (`x + y` with `x`, `y` in
    /// memory).
    pub fn memory_operand_pair(&self) -> Option<(&ArrayRef, &ArrayRef)> {
        match (
            self.op,
            self.a.as_array(),
            self.b.as_ref().and_then(|b| b.as_array()),
        ) {
            (Some(_), Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// All array references in the statement (reads then write).
    pub fn array_refs(&self) -> Vec<(&ArrayRef, bool)> {
        let mut v = Vec::with_capacity(3);
        if let Some(a) = self.a.as_array() {
            v.push((a, false));
        }
        if let Some(b) = self.b.as_ref().and_then(|b| b.as_array()) {
            v.push((b, false));
        }
        v.push((&self.dst, true));
        v
    }
}

/// A rectangular loop nest of depth `n` with body statements executed in
/// order per iteration. Bounds are `lo[k] <= i_k < hi[k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    pub id: NestId,
    pub lo: IVec,
    pub hi: IVec,
    pub body: Vec<Stmt>,
    /// The loop level partitioned across threads (usually 0, the
    /// outermost). `None` means the nest runs on thread 0 only.
    pub parallel_level: Option<usize>,
}

impl LoopNest {
    /// Zero-trip dimensions (`lo[k] == hi[k]`) are legal and make the
    /// nest empty; inverted bounds (`lo[k] > hi[k]`) are rejected here
    /// (and by the `ndc-lint` IR verifier for hand-built nests).
    pub fn new(id: u32, lo: IVec, hi: IVec, body: Vec<Stmt>) -> Self {
        assert_eq!(lo.len(), hi.len());
        assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "inverted nest bounds"
        );
        LoopNest {
            id: NestId(id),
            lo,
            hi,
            body,
            parallel_level: Some(0),
        }
    }

    pub fn depth(&self) -> usize {
        self.lo.len()
    }

    /// Total iteration count. Zero when any dimension is zero-trip or
    /// inverted.
    pub fn points(&self) -> u64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| (h - l).max(0) as u64)
            .product()
    }

    /// True when the nest executes no iterations at all.
    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }

    /// Visit every iteration vector in lexicographic order, reusing one
    /// coordinate buffer for all of them. Visits nothing for an empty
    /// (zero-trip or inverted) nest; a depth-0 nest has one empty
    /// point.
    pub fn for_each_point(&self, mut f: impl FnMut(&[i64])) {
        if self.is_empty() {
            return;
        }
        let mut point = self.lo.clone();
        'walk: loop {
            f(&point);
            // Odometer increment from the innermost dimension; wrapping
            // past the outermost one means that was the last point.
            for k in (0..point.len()).rev() {
                point[k] += 1;
                if point[k] < self.hi[k] {
                    continue 'walk;
                }
                point[k] = self.lo[k];
            }
            return;
        }
    }

    /// Write the `k`-th point of the lexicographic walk (0-based) into
    /// `out`, one entry per loop, by mixed-radix arithmetic: O(depth),
    /// whatever `k` is. Panics unless `k < points()`.
    pub fn point_at(&self, k: u64, out: &mut [i64]) {
        assert!(k < self.points(), "point {k} outside the iteration space");
        let mut rest = k;
        for d in (0..self.depth()).rev() {
            let extent = (self.hi[d] - self.lo[d]) as u64;
            out[d] = self.lo[d] + (rest % extent) as i64;
            rest /= extent;
        }
    }

    /// Visit up to `count` points spread evenly through the walk: the
    /// points at indices 0, step, 2·step, … below [`LoopNest::points`],
    /// with `step = max(points / count, 1)`. Each visit costs O(depth),
    /// however large the nest.
    pub fn for_each_sample(&self, count: usize, mut f: impl FnMut(&[i64])) {
        let total = self.points();
        let step = (total / count.max(1) as u64).max(1);
        let mut point = self.lo.clone();
        for k in (0..count as u64)
            .map(|i| i * step)
            .take_while(|&k| k < total)
        {
            self.point_at(k, &mut point);
            f(&point);
        }
    }

    /// Per-loop trip counts as one thread runs them: the parallel level
    /// is cut into blocks of ⌈extent / cores⌉ (see
    /// [`LoopNest::thread_of`]); every other level runs whole.
    pub fn thread_extents(&self, cores: usize) -> IVec {
        let mut extents: IVec = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0))
            .collect();
        if let Some(level) = self.parallel_level {
            extents[level] = self.block(level, cores);
        }
        extents
    }

    /// The thread, of `cores`, that runs `point`: the parallel level's
    /// values are dealt out in consecutive blocks of ⌈extent / cores⌉,
    /// so the last busy thread may get fewer values and any threads
    /// after it none. A nest without a parallel level runs on thread 0.
    /// Lowering places each point by this rule and the cost model
    /// assumes it.
    pub fn thread_of(&self, point: &[i64], cores: usize) -> usize {
        let cores = cores.max(1);
        match self.parallel_level {
            None => 0,
            Some(level) => {
                let block = self.block(level, cores).max(1) as usize;
                ((point[level] - self.lo[level]) as usize / block).min(cores - 1)
            }
        }
    }

    /// How many points thread `t` of `cores` runs under
    /// [`LoopNest::thread_of`]: its block of the parallel level's values
    /// (possibly short or empty) times every other level's trip count.
    /// A nest without a parallel level gives every point to thread 0.
    pub fn thread_points(&self, t: usize, cores: usize) -> u64 {
        let Some((level, start, end)) = self.thread_block(t, cores) else {
            return if t == 0 { self.points() } else { 0 };
        };
        (0..self.depth())
            .map(|k| {
                let trips = if k == level {
                    end - start
                } else {
                    (self.hi[k] - self.lo[k]).max(0)
                };
                trips as u64
            })
            .product()
    }

    /// Thread `t`'s share of the nest under [`LoopNest::thread_of`] as a
    /// box, written into `lo` and `hi`: the nest's bounds with the
    /// parallel level cut to the thread's block `[lo + t·B, min(hi, lo +
    /// (t+1)·B))`, `B = ⌈extent / cores⌉`. Without a parallel level
    /// thread 0's box is the whole nest. Returns the box's point count,
    /// [`LoopNest::thread_points`]; lowering skips a box of 0 points
    /// (at depth 0 the bounds alone cannot show that it is empty).
    /// Walking the box lexicographically visits the thread's points in
    /// the order the whole nest's walk does.
    pub fn thread_box(&self, t: usize, cores: usize, lo: &mut IVec, hi: &mut IVec) -> u64 {
        lo.clone_from(&self.lo);
        hi.clone_from(&self.hi);
        if let Some((level, start, end)) = self.thread_block(t, cores) {
            lo[level] = start;
            hi[level] = end;
        }
        self.thread_points(t, cores)
    }

    /// Thread `t`'s values `start..end` of the parallel level (`None`
    /// without one): block `t` of ⌈extent / cores⌉, clipped to the
    /// loop's bounds, so possibly short or empty.
    fn thread_block(&self, t: usize, cores: usize) -> Option<(usize, i64, i64)> {
        let level = self.parallel_level?;
        let block = self.block(level, cores);
        let (lo, hi) = (self.lo[level], self.hi[level].max(self.lo[level]));
        let start = lo.saturating_add(block.saturating_mul(t as i64)).min(hi);
        Some((level, start, start.saturating_add(block).min(hi)))
    }

    /// ⌈extent / cores⌉ of loop `level`: one thread's block.
    fn block(&self, level: usize, cores: usize) -> i64 {
        let extent = (self.hi[level] - self.lo[level]).max(0);
        let c = cores.max(1) as i64;
        (extent + c - 1) / c
    }

    pub fn stmt(&self, id: StmtId) -> Option<&Stmt> {
        self.body.iter().find(|s| s.id == id)
    }

    /// Position of a statement in body order.
    pub fn stmt_pos(&self, id: StmtId) -> Option<usize> {
        self.body.iter().position(|s| s.id == id)
    }
}

/// Iteration points stored flat: `depth` coordinates per point, all in
/// one buffer, so a list of a million points is one allocation rather
/// than a million.
#[derive(Debug, Clone)]
pub(crate) struct PointList {
    depth: usize,
    /// Number of points. Kept apart from `coords` because depth-0
    /// points have no coordinates.
    len: usize,
    coords: Vec<i64>,
}

impl PointList {
    /// Point `i`.
    pub(crate) fn get(&self, i: usize) -> &[i64] {
        assert!(i < self.len, "point {i} of {}", self.len);
        &self.coords[i * self.depth..(i + 1) * self.depth]
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[i64]> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// A nest's points ordered by `key`: ascending in the lexicographic
    /// order of the `width` entries `key(point, out)` writes, points with
    /// equal keys kept in lexicographic order (a stable sort). Each key
    /// is computed once, and the lexicographic list is never held: the
    /// sorted points are rebuilt from their walk indices with
    /// [`LoopNest::point_at`].
    pub(crate) fn sorted_by(
        nest: &LoopNest,
        width: usize,
        key: impl Fn(&[i64], &mut [i64]),
    ) -> PointList {
        let len = nest.points() as usize;
        let mut keys = vec![0i64; len * width];
        let mut at = 0;
        nest.for_each_point(|p| {
            key(p, &mut keys[at..at + width]);
            at += width;
        });
        let key_of = |i: usize| &keys[i * width..(i + 1) * width];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| lex_cmp(key_of(a), key_of(b)));
        drop(keys);
        let depth = nest.depth();
        let mut coords = vec![0i64; len * depth];
        for (j, &k) in order.iter().enumerate() {
            nest.point_at(k as u64, &mut coords[j * depth..(j + 1) * depth]);
        }
        PointList { depth, len, coords }
    }
}

/// A whole program: arrays plus loop nests executed in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub arrays: Vec<ArrayDecl>,
    pub nests: Vec<LoopNest>,
}

impl Program {
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            nests: Vec::new(),
        }
    }

    pub fn add_array(&mut self, decl: ArrayDecl) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(decl);
        id
    }

    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    pub fn nest(&self, id: NestId) -> &LoopNest {
        self.nests
            .iter()
            .find(|n| n.id == id)
            .expect("unknown nest id")
    }

    /// Assign base addresses: arrays laid out back-to-back from `base`,
    /// each aligned to `align` bytes. The layout determines every
    /// address-derived property downstream (L2 home bank, MC, DRAM
    /// bank), so it is part of the program's identity.
    pub fn assign_layout(&mut self, base: Addr, align: u64) {
        let mut at = base;
        for a in &mut self.arrays {
            at = at.div_ceil(align) * align;
            a.base = at;
            at += a.size_bytes();
        }
    }

    /// Total data footprint in bytes (after layout).
    pub fn footprint(&self) -> u64 {
        self.arrays.iter().map(|a| a.size_bytes()).sum()
    }

    /// Row-major element index touched by `aref` at iteration `iter`,
    /// `None` if out of the array's bounds. Equal to
    /// `array.linearize(&aref.index_at(iter))`, but evaluates `F·I + f`
    /// row by row and linearizes in place, so neither lowering nor the
    /// interpreter allocates per reference.
    pub fn element_index(&self, aref: &ArrayRef, iter: &[i64]) -> Option<u64> {
        let decl = self.array(aref.array);
        let f = &aref.coeffs;
        assert_eq!(f.cols, iter.len());
        if f.rows != decl.dims.len() {
            return None;
        }
        let mut lin: u64 = 0;
        for (r, &d) in decl.dims.iter().enumerate() {
            let offset = aref.offsets.get(r).copied().unwrap_or(0);
            let i = f.row(r).iter().zip(iter).map(|(c, x)| c * x).sum::<i64>() + offset;
            if i < 0 || i as u64 >= d {
                return None;
            }
            lin = lin * d + i as u64;
        }
        Some(lin)
    }

    /// Physical address touched by `aref` at iteration `iter`, `None`
    /// if out of the array's bounds: the array's base plus
    /// [`Program::element_index`] elements.
    pub fn addr_of(&self, aref: &ArrayRef, iter: &[i64]) -> Option<Addr> {
        let decl = self.array(aref.array);
        self.element_index(aref, iter)
            .map(|l| decl.base + l * decl.elem_bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::candidate_transforms;
    use ndc_types::SplitMix64;

    /// Every point of the walk, collected.
    fn walk(nest: &LoopNest) -> Vec<IVec> {
        let mut pts = Vec::new();
        nest.for_each_point(|p| pts.push(p.to_vec()));
        pts
    }

    /// A seeded random nest: depth 0–4, `lo` in -3..3, extents 0–4 (a
    /// zero extent empties the whole nest), any parallel level or none.
    pub(crate) fn random_nest(g: &mut SplitMix64) -> LoopNest {
        let depth = g.range_i64(0, 5) as usize;
        let lo: IVec = (0..depth).map(|_| g.range_i64(-3, 3)).collect();
        let hi: IVec = lo.iter().map(|&l| l + g.range_i64(0, 5)).collect();
        let mut nest = LoopNest::new(0, lo, hi, vec![]);
        nest.parallel_level = match depth {
            0 => None,
            _ if g.chance(0.2) => None,
            _ => Some(g.range_i64(0, depth as i64) as usize),
        };
        nest
    }

    /// A random unimodular transform for a depth-`n` nest: the product
    /// of up to three candidate transforms (permutations, reversals,
    /// skews).
    fn random_transform(g: &mut SplitMix64, n: usize) -> IMat {
        let cands = candidate_transforms(n, 2);
        (0..g.range_i64(1, 4)).fold(IMat::identity(n), |t, _| t.mul(g.choose(&cands)))
    }

    fn simple_prog() -> (Program, ArrayId, ArrayId) {
        let mut p = Program::new("t");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8, 8], 8));
        p.assign_layout(0x1000, 256);
        (p, x, y)
    }

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let (p, x, y) = simple_prog();
        let xd = p.array(x);
        let yd = p.array(y);
        assert_eq!(xd.base % 256, 0);
        assert_eq!(yd.base % 256, 0);
        assert!(yd.base >= xd.base + xd.size_bytes());
        assert_eq!(p.footprint(), 2 * 8 * 8 * 8);
    }

    #[test]
    fn row_major_addressing() {
        let (p, x, _) = simple_prog();
        let xd = p.array(x);
        assert_eq!(xd.addr_of(&[0, 0]), Some(xd.base));
        assert_eq!(xd.addr_of(&[0, 1]), Some(xd.base + 8));
        assert_eq!(xd.addr_of(&[1, 0]), Some(xd.base + 64));
        assert_eq!(xd.addr_of(&[7, 7]), Some(xd.base + 8 * 63));
        assert_eq!(xd.addr_of(&[8, 0]), None);
        assert_eq!(xd.addr_of(&[-1, 0]), None);
        assert_eq!(xd.addr_of(&[0]), None);
    }

    #[test]
    fn reference_index_evaluation() {
        let (_, x, _) = simple_prog();
        // X[i-1][j+1] over (i, j).
        let r = ArrayRef::identity(x, 2, vec![-1, 1]);
        assert_eq!(r.index_at(&[5, 4]), vec![4, 5]);
        // X[j][i] — transposed access (Figure 10 style).
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]);
        assert_eq!(r.index_at(&[5, 4]), vec![4, 5]);
    }

    /// The in-place evaluation (element index and address) equals
    /// evaluating the index vector and linearizing it, inside and
    /// outside the array's bounds and for a reference whose rank does
    /// not match the array's.
    #[test]
    fn program_addr_of_matches_index_then_linearize() {
        let (mut p, x, _) = simple_prog();
        let v = p.add_array(ArrayDecl::new("V", vec![8], 8));
        p.assign_layout(0x1000, 256);
        let refs = [
            ArrayRef::identity(x, 2, vec![-1, 1]),
            ArrayRef::affine(x, IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]),
            ArrayRef::affine(x, IMat::from_rows(&[&[2, -1], &[1, 1]]), vec![3, -2]),
            ArrayRef::affine(v, IMat::from_rows(&[&[1, 1]]), vec![-4]),
            // Rank 1 reference into the rank 2 array X.
            ArrayRef::affine(x, IMat::from_rows(&[&[1, 0]]), vec![0]),
        ];
        for r in &refs {
            for i in -2..10 {
                for j in -2..10 {
                    let it = [i, j];
                    let idx = r.index_at(&it);
                    let expect = p.array(r.array).addr_of(&idx);
                    assert_eq!(p.addr_of(r, &it), expect, "{r:?} at {it:?}");
                    let expect = p.array(r.array).linearize(&idx);
                    assert_eq!(p.element_index(r, &it), expect, "{r:?} at {it:?}");
                }
            }
        }
    }

    #[test]
    fn iteration_order_is_lexicographic() {
        let nest = LoopNest::new(0, vec![0, 0], vec![2, 3], vec![]);
        let pts = walk(&nest);
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
        assert_eq!(nest.points(), 6);
    }

    #[test]
    fn nonzero_lower_bounds() {
        let nest = LoopNest::new(0, vec![1, 2], vec![3, 4], vec![]);
        let pts = walk(&nest);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], vec![1, 2]);
        assert_eq!(pts[3], vec![2, 3]);
    }

    #[test]
    fn memory_operand_pair_detection() {
        let (_, x, y) = simple_prog();
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(y, 2, vec![0, 0])),
            2,
        );
        assert!(s.memory_operand_pair().is_some());
        let s2 = Stmt::binary(
            1,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Const(3.0),
            2,
        );
        assert!(s2.memory_operand_pair().is_none());
        let s3 = Stmt::copy(2, ArrayRef::identity(x, 2, vec![0, 0]), Ref::Const(0.0), 0);
        assert!(s3.memory_operand_pair().is_none());
        assert_eq!(s3.array_refs().len(), 1);
    }

    #[test]
    fn zero_trip_nest_is_empty() {
        let nest = LoopNest::new(0, vec![0], vec![0], vec![]);
        assert_eq!(nest.points(), 0);
        assert!(nest.is_empty());
        assert!(walk(&nest).is_empty());
        // A single zero-trip dimension empties the whole space.
        let nest = LoopNest::new(1, vec![0, 4], vec![8, 4], vec![]);
        assert_eq!(nest.points(), 0);
        assert!(walk(&nest).is_empty());
        assert_eq!(PointList::sorted_by(&nest, 0, |_, _| {}).iter().len(), 0);
    }

    #[test]
    fn single_trip_nest_yields_one_point() {
        let nest = LoopNest::new(0, vec![3, 0], vec![4, 2], vec![]);
        assert_eq!(nest.points(), 2);
        assert_eq!(walk(&nest), vec![vec![3, 0], vec![3, 1]]);
    }

    /// Seeded property over random nests (depth 0–4, zero-trip
    /// dimensions, negative `lo`): `point_at(k)` is the k-th point of
    /// the walk, a flat list sorted by an empty key holds the walk (the
    /// sort is stable), and the evenly spaced sample is what `step_by`
    /// over the walk selects.
    #[test]
    fn point_at_and_samples_match_the_walk() {
        let g = SplitMix64::new(0x9017);
        for case in 0..512 {
            let nest = random_nest(&mut g.fork(case));
            let pts = walk(&nest);
            assert_eq!(pts.len() as u64, nest.points(), "{nest:?}");
            let mut at = vec![0; nest.depth()];
            for (k, p) in pts.iter().enumerate() {
                nest.point_at(k as u64, &mut at);
                assert_eq!(&at, p, "{nest:?} point {k}");
            }
            let flat = PointList::sorted_by(&nest, 0, |_, _| {});
            assert_eq!(flat.iter().len(), pts.len());
            assert!(flat.iter().eq(pts.iter().map(|p| p.as_slice())));
            for count in [1, 3, 24] {
                let step = (pts.len() / count).max(1);
                let expect: Vec<&IVec> = pts.iter().step_by(step).take(count).collect();
                let mut got = Vec::new();
                nest.for_each_sample(count, |p| got.push(p.to_vec()));
                assert!(got.iter().eq(expect), "{nest:?} count {count}");
            }
        }
    }

    /// The transformed order sorts by keys computed once per point; it
    /// must keep the order of sorting with `lex_cmp(T·a, T·b)` per
    /// comparison, the reference kept here, under random unimodular
    /// transforms.
    #[test]
    fn scheduled_order_keeps_the_per_comparison_order() {
        let g = SplitMix64::new(0x9018);
        for case in 0..512 {
            let mut g = g.fork(case);
            let nest = random_nest(&mut g);
            let t = random_transform(&mut g, nest.depth());
            let mut expect = walk(&nest);
            expect.sort_by(|a, b| lex_cmp(&t.mul_vec(a), &t.mul_vec(b)));
            let got = crate::interp::transformed_points(&nest, &t);
            assert!(
                got.iter().eq(expect.iter().map(|p| p.as_slice())),
                "{nest:?} under {t:?}"
            );
        }
    }

    /// Block partitioning: each thread runs a contiguous block of the
    /// parallel level, ⌈extent / cores⌉ wide except for the last busy
    /// thread's, and a serial nest runs on thread 0.
    #[test]
    fn threads_own_contiguous_blocks_of_the_parallel_level() {
        let nest = LoopNest::new(0, vec![0], vec![100], vec![]);
        assert_eq!(nest.thread_of(&[0], 25), 0);
        assert_eq!(nest.thread_of(&[99], 25), 24);
        assert_eq!(nest.thread_of(&[50], 25), 12);
        assert_eq!(nest.thread_extents(25), vec![4]);
        // 10 values over 4 threads: blocks of 3, 3, 3, 1.
        let nest = LoopNest::new(0, vec![-5, 0], vec![5, 7], vec![]);
        let owners: Vec<usize> = (-5..5).map(|i| nest.thread_of(&[i, 6], 4)).collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(nest.thread_extents(4), vec![3, 7]);
        // More threads than values: one value each, the rest idle.
        assert_eq!(nest.thread_of(&[4, 0], 25), 9);
        assert_eq!(nest.thread_extents(25), vec![1, 7]);
        let mut serial = nest.clone();
        serial.parallel_level = None;
        assert_eq!(serial.thread_of(&[4, 6], 4), 0);
        assert_eq!(serial.thread_extents(4), vec![10, 7]);
        // The inner level can be the parallel one.
        let mut inner = nest;
        inner.parallel_level = Some(1);
        assert_eq!(inner.thread_of(&[0, 6], 4), 3);
        assert_eq!(inner.thread_extents(4), vec![10, 2]);
    }

    /// Each thread's share, both ways lowering reads it: its box
    /// (`thread_box`) walks exactly the points `thread_of` gives it, in
    /// walk order, and a list sorted by (thread, `T·I`) holds them as
    /// one run of `thread_points` entries after the earlier threads'
    /// runs, in `T·I` order. A thread past the last gets none.
    #[test]
    fn thread_boxes_and_thread_sorted_runs_hold_each_threads_points() {
        let g = SplitMix64::new(0x9019);
        for case in 0..256 {
            let mut g = g.fork(case);
            let nest = random_nest(&mut g);
            let t = random_transform(&mut g, nest.depth());
            let cores = g.range_i64(1, 6) as usize;
            let thread = |p: &[i64]| nest.thread_of(p, cores);
            let images = crate::interp::transformed_points(&nest, &t);
            let by_thread = PointList::sorted_by(&nest, 1 + t.rows, |p, key| {
                key[0] = thread(p) as i64;
                t.mul_into(p, &mut key[1..]);
            });
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            let mut start = 0;
            for c in 0..=cores {
                let n = nest.thread_points(c, cores) as usize;
                assert_eq!(nest.thread_box(c, cores, &mut lo, &mut hi), n as u64);
                let mut boxed = Vec::new();
                if n > 0 {
                    LoopNest::new(0, lo.clone(), hi.clone(), vec![])
                        .for_each_point(|p| boxed.push(p.to_vec()));
                }
                let mine: Vec<IVec> = walk(&nest).into_iter().filter(|p| thread(p) == c).collect();
                assert_eq!(boxed, mine, "{nest:?} thread {c} of {cores}");
                let run: Vec<&[i64]> = (start..start + n).map(|i| by_thread.get(i)).collect();
                let expect: Vec<&[i64]> = images.iter().filter(|p| thread(p) == c).collect();
                assert_eq!(run, expect, "{nest:?} thread {c} of {cores} under {t:?}");
                start += n;
            }
            assert_eq!(start as u64, nest.points());
        }
    }

    #[test]
    #[should_panic(expected = "inverted nest bounds")]
    fn inverted_nest_rejected() {
        LoopNest::new(0, vec![4], vec![0], vec![]);
    }
}
