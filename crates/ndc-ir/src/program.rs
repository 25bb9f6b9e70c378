//! Arrays, affine references, statements, loop nests, programs.
//!
//! A reference is `X(F·I + f)` exactly as in §5.2.1: `F` an `m×n`
//! integer matrix over the nest's iteration vector `I`, `f` an `m`-entry
//! offset vector. A statement computes `dst = a op b` (or a plain copy),
//! with an attached `work` cost modelling the surrounding non-memory
//! computation.

use crate::matrix::{IMat, IVec};
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

    /// Enumerate all iteration vectors in lexicographic order. Yields
    /// nothing for an empty (zero-trip or inverted) nest.
    pub fn iter_points(&self) -> IterPoints<'_> {
        IterPoints {
            nest: self,
            cur: if self.is_empty() {
                None
            } else {
                Some(self.lo.clone())
            },
        }
    }

    pub fn stmt(&self, id: StmtId) -> Option<&Stmt> {
        self.body.iter().find(|s| s.id == id)
    }

    /// Position of a statement in body order.
    pub fn stmt_pos(&self, id: StmtId) -> Option<usize> {
        self.body.iter().position(|s| s.id == id)
    }
}

/// Iterator over a nest's iteration space in lexicographic order.
pub struct IterPoints<'a> {
    nest: &'a LoopNest,
    cur: Option<IVec>,
}

impl Iterator for IterPoints<'_> {
    type Item = IVec;

    fn next(&mut self) -> Option<IVec> {
        let cur = self.cur.take()?;
        let mut next = cur.clone();
        // Odometer increment from the innermost dimension.
        for k in (0..next.len()).rev() {
            next[k] += 1;
            if next[k] < self.nest.hi[k] {
                self.cur = Some(next);
                return Some(cur);
            }
            next[k] = self.nest.lo[k];
        }
        // Wrapped past the end: this was the last point.
        self.cur = None;
        Some(cur)
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

    /// Physical address touched by `aref` at iteration `iter`, `None`
    /// if out of the array's bounds. Equal to
    /// `array.addr_of(&aref.index_at(iter))`, but evaluates `F·I + f`
    /// row by row and linearizes in place, so lowering allocates
    /// nothing per reference.
    pub fn addr_of(&self, aref: &ArrayRef, iter: &[i64]) -> Option<Addr> {
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
        Some(decl.base + lin * decl.elem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The in-place evaluation equals evaluating the index vector and
    /// linearizing it, inside and outside the array's bounds and for a
    /// reference whose rank does not match the array's.
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
                    let expect = p.array(r.array).addr_of(&r.index_at(&it));
                    assert_eq!(p.addr_of(r, &it), expect, "{r:?} at {it:?}");
                }
            }
        }
    }

    #[test]
    fn iteration_order_is_lexicographic() {
        let nest = LoopNest::new(0, vec![0, 0], vec![2, 3], vec![]);
        let pts: Vec<IVec> = nest.iter_points().collect();
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
        let pts: Vec<IVec> = nest.iter_points().collect();
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
        assert_eq!(nest.iter_points().count(), 0);
        // A single zero-trip dimension empties the whole space.
        let nest = LoopNest::new(1, vec![0, 4], vec![8, 4], vec![]);
        assert_eq!(nest.points(), 0);
        assert_eq!(nest.iter_points().count(), 0);
    }

    #[test]
    fn single_trip_nest_yields_one_point() {
        let nest = LoopNest::new(0, vec![3, 0], vec![4, 2], vec![]);
        assert_eq!(nest.points(), 2);
        let pts: Vec<IVec> = nest.iter_points().collect();
        assert_eq!(pts, vec![vec![3, 0], vec![3, 1]]);
    }

    #[test]
    #[should_panic(expected = "inverted nest bounds")]
    fn inverted_nest_rejected() {
        LoopNest::new(0, vec![4], vec![0], vec![]);
    }
}
