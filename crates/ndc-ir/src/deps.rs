//! Dependence analysis: distance vectors and the statement dependence
//! graph (`extract_use-use_chains` / `dependency_analysis` of
//! Algorithm 1).
//!
//! For two affine references `r1 = X(F1·I + f1)` and `r2 = X(F2·I + f2)`
//! in the same nest, a dependence exists between iterations `I1`, `I2`
//! when `F1·I1 + f1 = F2·I2 + f2`. When `F1 = F2 = F` and `F` is square
//! and non-singular, the distance `d = I2 − I1` is the unique solution
//! of `F·d = f1 − f2` (constant distance). Non-matching or singular
//! coefficient matrices yield an *unknown* distance, treated
//! conservatively (blocks transformation).

use crate::affine::{solve, Solve};
use crate::matrix::{lex_positive, IMat, IVec};
use crate::program::{ArrayId, LoopNest, StmtId};

/// Classification of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// Write → read (true/flow dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
    /// Read → read: not a real dependence, but exactly the *reuse*
    /// Algorithm 2 inspects ("is the operand reused beyond the
    /// computation?").
    Input,
}

impl DependenceKind {
    /// Does this edge constrain legality of reordering?
    pub fn constrains(&self) -> bool {
        !matches!(self, DependenceKind::Input)
    }
}

/// A dependence distance: constant vector or statically unknown.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DistanceVector {
    Constant(IVec),
    Unknown,
}

impl DistanceVector {
    pub fn as_constant(&self) -> Option<&IVec> {
        match self {
            DistanceVector::Constant(v) => Some(v),
            DistanceVector::Unknown => None,
        }
    }
}

/// One dependence edge between two statements of a nest.
#[derive(Debug, Clone, PartialEq)]
pub struct DependenceEdge {
    pub src: StmtId,
    pub dst: StmtId,
    /// Slot of the source reference in `src`'s `array_refs()` order
    /// (reads then write) — lets a consumer recover the exact
    /// access function behind this edge, e.g. to sharpen an `Unknown`
    /// distance with a GCD/Banerjee test.
    pub src_slot: u8,
    /// Operand slot of the sink reference (0 = `a`, 1 = `b`, 2 = the
    /// written destination) — which access of `dst` depends on `src`.
    pub dst_slot: u8,
    /// The array both references touch.
    pub array: ArrayId,
    pub kind: DependenceKind,
    pub distance: DistanceVector,
}

/// The dependence graph of one loop nest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependenceGraph {
    pub edges: Vec<DependenceEdge>,
    /// True when any reference pair could not be analyzed precisely
    /// (unknown distance on a constraining edge).
    pub has_unknown: bool,
}

impl DependenceGraph {
    /// Analyze one loop nest.
    pub fn analyze(nest: &LoopNest) -> Self {
        let mut g = DependenceGraph::default();
        let stmts = &nest.body;
        for (pi, s1) in stmts.iter().enumerate() {
            for (pj, s2) in stmts.iter().enumerate() {
                for (slot1, (r1, w1)) in s1.array_refs().into_iter().enumerate() {
                    for (slot2, (r2, w2)) in s2.array_refs().into_iter().enumerate() {
                        if r1.array != r2.array {
                            continue;
                        }
                        let kind = match (w1, w2) {
                            (true, false) => DependenceKind::Flow,
                            (false, true) => DependenceKind::Anti,
                            (true, true) => DependenceKind::Output,
                            (false, false) => DependenceKind::Input,
                        };
                        // Self-pairs of the same reference occurrence:
                        // a read against itself is Input (never
                        // constrains), and an *injective* write against
                        // itself touches each element once. But a
                        // rank-deficient write subscript (e.g. C[i,j]
                        // written inside an i,j,k nest) stores to the
                        // same element from every iteration along the
                        // kernel of F — an output dependence carried by
                        // the unused dimensions, and reordering them
                        // changes which write lands last.
                        let same_occurrence = pi == pj && std::ptr::eq(r1, r2);
                        if same_occurrence {
                            if w1 {
                                for edge in self_output_edges(r1, s1.id, slot1 as u8, nest.depth())
                                {
                                    if matches!(edge.distance, DistanceVector::Unknown) {
                                        g.has_unknown = true;
                                    }
                                    g.edges.push(edge);
                                }
                            }
                            continue;
                        }
                        if let Some(edge) = dependence_between(
                            r1,
                            r2,
                            s1.id,
                            s2.id,
                            pi,
                            pj,
                            slot1 as u8,
                            slot2 as u8,
                            kind,
                            nest.depth(),
                        ) {
                            if matches!(edge.distance, DistanceVector::Unknown)
                                && edge.kind.constrains()
                            {
                                g.has_unknown = true;
                            }
                            g.edges.push(edge);
                        }
                    }
                }
            }
        }
        g
    }

    /// The constant distance vectors of all constraining edges — the
    /// columns of the dependence matrix `D` used for `T·D` legality.
    pub fn distance_vectors(&self) -> Vec<IVec> {
        self.edges
            .iter()
            .filter(|e| e.kind.constrains())
            .filter_map(|e| e.distance.as_constant().cloned())
            .collect()
    }

    /// Whether a transformation `t` is legal for this nest: no unknown
    /// constraining distances, and all constant constraining distances
    /// stay lexicographically positive under `t`.
    pub fn transformation_legal(&self, t: &IMat) -> bool {
        if self.has_unknown {
            return false;
        }
        crate::matrix::transformation_legal(t, &self.distance_vectors())
    }

    /// Does the value read by `stmt`'s operand reference get *reused*
    /// (read again, by any statement) at a lexicographically later
    /// iteration? This is Algorithm 2's check for the existence of
    /// `I_m` with `I_e > I_m > I_c` and `f(I_x) = p(I_m)` — with
    /// constant distances, such an `I_m` exists iff some Input/Flow
    /// edge out of this reference has a lex-positive distance (or an
    /// unknown one, handled conservatively as "reused").
    pub fn has_future_reuse(&self, stmt: StmtId) -> bool {
        self.edges.iter().any(|e| {
            e.src == stmt
                && matches!(e.kind, DependenceKind::Input | DependenceKind::Anti)
                && match &e.distance {
                    DistanceVector::Constant(d) => lex_positive(d),
                    DistanceVector::Unknown => true,
                }
        })
    }

    /// Edges out of a statement.
    pub fn edges_from(&self, s: StmtId) -> impl Iterator<Item = &DependenceEdge> {
        self.edges.iter().filter(move |e| e.src == s)
    }
}

/// Compute the dependence (if any) from `r1` (in `s1` at body position
/// `p1`) to `r2` (in `s2` at `p2`).
#[allow(clippy::too_many_arguments)]
fn dependence_between(
    r1: &crate::program::ArrayRef,
    r2: &crate::program::ArrayRef,
    s1: StmtId,
    s2: StmtId,
    p1: usize,
    p2: usize,
    src_slot: u8,
    dst_slot: u8,
    kind: DependenceKind,
    depth: usize,
) -> Option<DependenceEdge> {
    let edge = |distance| DependenceEdge {
        src: s1,
        dst: s2,
        src_slot,
        dst_slot,
        array: r1.array,
        kind,
        distance,
    };
    if r1.coeffs != r2.coeffs {
        // Different access matrices (e.g. X[i][j] vs X[j][i]): distances
        // vary per iteration. Conservative.
        return Some(edge(DistanceVector::Unknown));
    }
    // F·(I2 - I1) = f1 - f2  =>  solve F·d = c.
    let c: IVec = r1
        .offsets
        .iter()
        .zip(r2.offsets.iter())
        .map(|(a, b)| a - b)
        .collect();
    match solve(&r1.coeffs, &c, depth) {
        Solve::Unique(d) => {
            // Orientation: the dependence runs from the earlier access
            // to the later one. A lex-positive d means s2's iteration
            // trails s1's by d (source = s1). A lex-negative d means the
            // roles flip; we only record the forward direction once (the
            // symmetric pair enumeration visits (r2, r1) too).
            if lex_positive(&d) {
                Some(edge(DistanceVector::Constant(d)))
            } else if d.iter().all(|&x| x == 0) {
                // Loop-independent: ordered by body position.
                if p1 < p2 || (p1 == p2 && kind.constrains()) {
                    Some(edge(DistanceVector::Constant(d)))
                } else {
                    None
                }
            } else {
                None
            }
        }
        Solve::None => None,
        Solve::Many => Some(edge(DistanceVector::Unknown)),
    }
}

/// Output self-dependences of one write occurrence: the distances along
/// which the access revisits the same element, i.e. the integer kernel
/// of `F`. Injective accesses yield none. When the kernel is exactly
/// the span of `F`'s zero columns (the subscript simply ignores those
/// iterators, the common case) each basis vector becomes a precise
/// constant distance `e_j`; any other deficiency is conservatively one
/// `Unknown` edge, which blocks transformation of the nest.
fn self_output_edges(
    r: &crate::program::ArrayRef,
    s: StmtId,
    slot: u8,
    depth: usize,
) -> Vec<DependenceEdge> {
    let f = &r.coeffs;
    let zero = vec![0i64; f.rows];
    if matches!(solve(f, &zero, depth), Solve::Unique(_)) {
        // Square non-singular: F·d = 0 only at d = 0 — injective.
        return Vec::new();
    }
    let edge = |distance| DependenceEdge {
        src: s,
        dst: s,
        src_slot: slot,
        dst_slot: slot,
        array: r.array,
        kind: DependenceKind::Output,
        distance,
    };
    let zero_cols: Vec<usize> = (0..f.cols)
        .filter(|&j| (0..f.rows).all(|i| f[(i, j)] == 0))
        .collect();
    if !zero_cols.is_empty() && f.cols - zero_cols.len() == f.rows {
        // Dropping the zero columns leaves a square system; if it is
        // non-singular the kernel is exactly span{e_j : column j zero}.
        let kept: Vec<usize> = (0..f.cols).filter(|j| !zero_cols.contains(j)).collect();
        let mut sub = IMat::zeros(f.rows, kept.len());
        for (cj, &j) in kept.iter().enumerate() {
            for i in 0..f.rows {
                sub[(i, cj)] = f[(i, j)];
            }
        }
        if sub.det() != 0 {
            return zero_cols
                .iter()
                .map(|&j| {
                    let mut d = vec![0i64; depth];
                    d[j] = 1;
                    edge(DistanceVector::Constant(d))
                })
                .collect();
        }
    }
    vec![edge(DistanceVector::Unknown)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayDecl, ArrayRef, LoopNest, Program, Ref, Stmt};
    use ndc_types::Op;

    /// Figure 10: X[i,j] = X[i-1, j+1] — flow dependence with distance
    /// (1, -1).
    fn fig10_nest() -> (Program, LoopNest) {
        let mut p = Program::new("fig10");
        let x = p.add_array(ArrayDecl::new("X", vec![16, 16], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 1])),
            Ref::Const(1.0),
            1,
        );
        let nest = LoopNest::new(0, vec![1, 0], vec![16, 15], vec![s]);
        (p, nest)
    }

    #[test]
    fn fig10_distance_is_one_minus_one() {
        let (_, nest) = fig10_nest();
        let g = DependenceGraph::analyze(&nest);
        let dists = g.distance_vectors();
        assert!(dists.contains(&vec![1, -1]), "expected (1,-1) in {dists:?}");
        assert!(!g.has_unknown);
    }

    #[test]
    fn fig10_legality() {
        let (_, nest) = fig10_nest();
        let g = DependenceGraph::analyze(&nest);
        assert!(g.transformation_legal(&IMat::identity(2)));
        // Interchange alone is illegal; skew-then-interchange is legal.
        let swap = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert!(!g.transformation_legal(&swap));
        let skew = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        assert!(g.transformation_legal(&swap.mul(&skew)));
    }

    #[test]
    fn independent_statements_have_no_constraining_edges() {
        let mut p = Program::new("ind");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            Ref::Const(1.0),
            1,
        );
        let nest = LoopNest::new(0, vec![0], vec![8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.distance_vectors().is_empty());
        assert!(!g.has_unknown);
    }

    #[test]
    fn reads_of_shifted_elements_are_input_reuse() {
        // X[i] and X[i-2] read in the same statement: the element read
        // at iteration i is re-read at i+2 → future reuse.
        let mut p = Program::new("reuse");
        let x = p.add_array(ArrayDecl::new("X", vec![32], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![32], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![-2])),
            1,
        );
        let nest = LoopNest::new(0, vec![2], vec![32], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.has_future_reuse(StmtId(0)));
    }

    #[test]
    fn streaming_access_has_no_future_reuse() {
        let mut p = Program::new("stream");
        let x = p.add_array(ArrayDecl::new("X", vec![32], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![32], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![32], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let nest = LoopNest::new(0, vec![0], vec![32], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(!g.has_future_reuse(StmtId(0)));
    }

    #[test]
    fn transposed_access_is_unknown() {
        let mut p = Program::new("transpose");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let transposed = ArrayRef::affine(x, IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]);
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(transposed),
            Ref::Const(1.0),
            1,
        );
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.has_unknown);
        assert!(!g.transformation_legal(&IMat::identity(2)));
    }

    #[test]
    fn loop_independent_dependence_orders_statements() {
        // S0 writes Z[i], S1 reads Z[i]: flow dependence with zero
        // distance, ordered by body position.
        let mut p = Program::new("li");
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
        let nest = LoopNest::new(0, vec![0], vec![8], vec![s0, s1]);
        let g = DependenceGraph::analyze(&nest);
        let zero_flow: Vec<_> = g
            .edges
            .iter()
            .filter(|e| {
                e.kind == DependenceKind::Flow && e.distance == DistanceVector::Constant(vec![0])
            })
            .collect();
        assert_eq!(zero_flow.len(), 1);
        assert_eq!(zero_flow[0].src, StmtId(0));
        assert_eq!(zero_flow[0].dst, StmtId(1));
    }

    #[test]
    fn negative_stride_distance_is_exact() {
        // X[-i] written, X[-i-1] read: the element written at iteration
        // i is read back at i+1, so the flow distance is +1 even though
        // the stride is negative (Cramer divides by det = -1 exactly).
        let mut p = Program::new("negstride");
        let x = p.add_array(ArrayDecl::new("X", vec![32], 8));
        let w = ArrayRef::affine(x, IMat::from_rows(&[&[-1]]), vec![31]);
        let r = ArrayRef::affine(x, IMat::from_rows(&[&[-1]]), vec![30]);
        let s = Stmt::binary(0, w, Op::Add, Ref::Array(r), Ref::Const(1.0), 1);
        let nest = LoopNest::new(0, vec![0], vec![31], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(!g.has_unknown);
        assert!(g.distance_vectors().contains(&vec![1]));
    }

    #[test]
    fn negative_stride_disjoint_offsets_no_dependence() {
        // X[-2i] written, X[-2i+1] read: -2·d = ±1 has no integer
        // solution, so no edge either direction.
        let mut p = Program::new("negdisjoint");
        let x = p.add_array(ArrayDecl::new("X", vec![64], 8));
        let even = ArrayRef::affine(x, IMat::from_rows(&[&[-2]]), vec![62]);
        let odd = ArrayRef::affine(x, IMat::from_rows(&[&[-2]]), vec![63]);
        let s = Stmt::binary(0, even, Op::Add, Ref::Array(odd), Ref::Const(1.0), 1);
        let nest = LoopNest::new(0, vec![0], vec![16], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        let cross: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind != DependenceKind::Output)
            .collect();
        assert!(cross.is_empty(), "unexpected edges: {cross:?}");
        assert!(!g.has_unknown);
    }

    #[test]
    fn coupled_subscript_is_unknown() {
        // X[i+j] in a 2-D nest: the 1×2 access matrix is rank-deficient,
        // so many (i, j) pairs alias and the distance is unknown. The
        // edge still records which references collided so a sharper
        // test (ndc-lint's GCD/Banerjee refinement) can revisit it.
        let mut p = Program::new("coupled");
        let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
        let diag = ArrayRef::affine(x, IMat::from_rows(&[&[1, 1]]), vec![0]);
        let s = Stmt::binary(
            0,
            diag.clone(),
            Op::Add,
            Ref::Array(diag),
            Ref::Const(1.0),
            1,
        );
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.has_unknown);
        let unknown = g
            .edges
            .iter()
            .find(|e| e.distance == DistanceVector::Unknown && e.kind.constrains())
            .expect("coupled subscript should produce an unknown edge");
        assert_eq!(unknown.array, ArrayId(0));
        // Slots index array_refs() order (reads first, write last), so a
        // consumer can recover both access functions behind the edge.
        let src_stmt = &nest.body[0];
        let refs = src_stmt.array_refs();
        assert!((unknown.src_slot as usize) < refs.len());
        assert!((unknown.dst_slot as usize) < refs.len());
    }

    #[test]
    fn single_trip_loop_records_conservative_distance() {
        // X[i] = X[i-1] over a single-iteration loop: the subscript
        // equation alone says d = 1, even though no iteration pair can
        // realize it (the loop has one trip). Dependence analysis is
        // deliberately bounds-blind here; the extent-aware refutation
        // lives in ndc-lint's refinement pass.
        let mut p = Program::new("onetrip");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![-1])),
            Ref::Const(1.0),
            1,
        );
        let nest = LoopNest::new(0, vec![3], vec![4], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.distance_vectors().contains(&vec![1]));
    }

    /// Zero-trip nests are legal (the fuzz generator emits them) and
    /// analysis must stay well-defined over an empty iteration space:
    /// subscript equations may still admit solutions, but the nest runs
    /// no iterations, so any recorded edges are harmless conservatism.
    #[test]
    fn zero_trip_nest_analyzes_without_panicking() {
        let mut p = Program::new("zerotrip");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![-1])),
            Ref::Const(2.0),
            1,
        );
        let nest = LoopNest::new(0, vec![4], vec![4], vec![s]);
        assert!(nest.is_empty());
        let g = DependenceGraph::analyze(&nest);
        assert!(!g.has_unknown);
    }

    #[test]
    fn disjoint_offsets_no_dependence() {
        // X[2i] written, X[2i+1] read: GCD says never equal.
        let mut p = Program::new("gcd");
        let x = p.add_array(ArrayDecl::new("X", vec![64], 8));
        let even = ArrayRef::affine(x, IMat::from_rows(&[&[2]]), vec![0]);
        let odd = ArrayRef::affine(x, IMat::from_rows(&[&[2]]), vec![1]);
        let s = Stmt::binary(0, even, Op::Add, Ref::Array(odd), Ref::Const(1.0), 1);
        let nest = LoopNest::new(0, vec![0], vec![16], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        // The write(2i) / read(2i+1) pair admits no integer solution.
        let cross: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind != DependenceKind::Output)
            .collect();
        assert!(cross.is_empty(), "unexpected edges: {cross:?}");
    }

    /// C[i,j] = A[i,k] + B[k,j] (no accumulation): every k writes the
    /// same C element, so the last k must stay last — an output
    /// self-dependence with distance (0,0,1). Reversing or hoisting k
    /// is illegal; reordering i and j stays legal. Found by fuzzing
    /// (seed 0xf00f): the analysis used to skip a write's self-pair as
    /// "trivial" and lint certified k-reversal, which the differential
    /// oracle refuted.
    #[test]
    fn rank_deficient_write_carries_output_dependence() {
        let mut p = Program::new("lastwrite");
        let a = p.add_array(ArrayDecl::new("A", vec![8, 8], 8));
        let b = p.add_array(ArrayDecl::new("B", vec![8, 8], 8));
        let c = p.add_array(ArrayDecl::new("C", vec![8, 8], 8));
        let cw = ArrayRef::affine(c, IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), vec![0, 0]);
        let ar = ArrayRef::affine(a, IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]), vec![0, 0]);
        let br = ArrayRef::affine(b, IMat::from_rows(&[&[0, 0, 1], &[0, 1, 0]]), vec![0, 0]);
        let s = Stmt::binary(0, cw, Op::Add, Ref::Array(ar), Ref::Array(br), 1);
        let nest = LoopNest::new(0, vec![0, 0, 0], vec![8, 8, 8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(!g.has_unknown, "kernel is a plain zero column: {g:?}");
        assert!(g.distance_vectors().contains(&vec![0, 0, 1]), "{g:?}");
        // k-reversal breaks the last-write order...
        let rev_k = IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, -1]]);
        assert!(!g.transformation_legal(&rev_k));
        // ...while the i/j interchange leaves it intact.
        let swap_ij = IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]);
        assert!(g.transformation_legal(&swap_ij));
    }

    /// An injective write (identity subscript) has no self output
    /// dependence: each iteration touches a distinct element.
    #[test]
    fn injective_write_has_no_self_output_edge() {
        let mut p = Program::new("inj");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Const(1.0),
            Ref::Const(2.0),
            1,
        );
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.edges.is_empty(), "{g:?}");
    }

    /// A scalar accumulator (all-zero subscript matrix) writes one
    /// element from every iteration; the kernel is the whole space, so
    /// the analysis must at least flag the nest untransformable.
    #[test]
    fn scalar_write_blocks_all_transforms() {
        let mut p = Program::new("accum");
        let s_arr = p.add_array(ArrayDecl::new("S", vec![1], 8));
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let sw = ArrayRef::affine(s_arr, IMat::zeros(1, 2), vec![0]);
        let s = Stmt::binary(
            0,
            sw,
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Const(0.0),
            1,
        );
        let nest = LoopNest::new(0, vec![0, 0], vec![8, 8], vec![s]);
        let g = DependenceGraph::analyze(&nest);
        assert!(g.has_unknown);
        let rev = IMat::from_rows(&[&[-1, 0], &[0, 1]]);
        assert!(!g.transformation_legal(&rev));
    }
}
