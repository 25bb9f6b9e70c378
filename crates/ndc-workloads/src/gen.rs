//! Seeded workload generator: arbitrarily many *valid* IR programs
//! from a `SplitMix64` seed.
//!
//! The 20 hand-written kernels cap scenario diversity; this module
//! turns the access-pattern classes they span — stencil, dense linear
//! algebra, reduction, tree walk, irregular/gather — into a structured
//! generator. Each seed picks a class, nest count, depth, extents
//! (including zero-trip and single-trip loops), affine subscripts
//! (negative strides, coupled subscripts), dependence-carrying
//! statements, statement work, and parallel levels, then sizes every
//! array from the exact min/max subscript range its references attain,
//! so every emitted program passes the `ndc-lint` IR verifier and
//! bounds prover by construction.
//!
//! Because `ndc-check` runs any program through an element-wise
//! differential oracle and the simulator's invariant stream, every
//! generated program is a free end-to-end compiler+simulator
//! correctness test: `ndc-eval fuzz` drives N seeds through
//! Algorithm 1/2 → lint certification → oracle → invariants and
//! reports any divergence with its reproducing seed.

use ndc_ir::affine::row_extrema;
use ndc_ir::matrix::IMat;
use ndc_ir::program::{ArrayDecl, ArrayId, ArrayRef, LoopNest, Program, Ref, Stmt};
use ndc_types::{Op, SplitMix64};

/// Access-pattern class of a generated program. These deliberately
/// mirror the classes the hand-written suite spans, so corpus tables
/// join against the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GenClass {
    /// Neighbor offsets over an identity access: `Y[i][j] = f(X[i±a][j±b])`.
    Stencil,
    /// Matmul-shaped rank-2 accesses over a depth-3 nest, with
    /// transposed and coupled-subscript variants.
    DenseLinearAlgebra,
    /// Accumulation into a loop-invariant cell: `S[0] = S[0] op X[I]`.
    Reduction,
    /// Implicit-heap parent/child strides: `V[i] = X[2i+1] op X[2i+2]`.
    TreeWalk,
    /// Large (and negative) strides with little reuse.
    IrregularGather,
}

impl GenClass {
    pub const ALL: [GenClass; 5] = [
        GenClass::Stencil,
        GenClass::DenseLinearAlgebra,
        GenClass::Reduction,
        GenClass::TreeWalk,
        GenClass::IrregularGather,
    ];

    /// Stable table label.
    pub fn label(&self) -> &'static str {
        match self {
            GenClass::Stencil => "stencil",
            GenClass::DenseLinearAlgebra => "dense-la",
            GenClass::Reduction => "reduction",
            GenClass::TreeWalk => "tree-walk",
            GenClass::IrregularGather => "irregular-gather",
        }
    }
}

/// One generated program plus the metadata the fuzz/corpus consumers
/// report.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The exact seed that reproduces this program via [`generate`].
    pub seed: u64,
    pub class: GenClass,
    pub program: Program,
}

/// Generate the program of one seed. Pure: the same seed produces the
/// same program on every platform and every call.
pub fn generate(seed: u64) -> Generated {
    let mut rng = SplitMix64::new(seed);
    // Decorrelate adjacent seeds (they differ by a Weyl step only).
    rng.next_u64();
    let class = *rng.choose(&GenClass::ALL);
    let mut prog = Program::new(format!("gen-{}-{seed:#018x}", class.label()));
    let nests = if rng.chance(0.4) { 2 } else { 1 };
    let mut builder = Builder {
        rng,
        prog: &mut prog,
    };
    for nest_id in 0..nests {
        builder.emit_nest(class, nest_id);
    }
    prog.assign_layout(0x10_0000, 4096);
    size_arrays(&mut prog);
    Generated {
        seed,
        class,
        program: prog,
    }
}

/// Generate `count` programs; program `i` uses seed `base_seed + i`,
/// so any failure is reproducible from a single reported seed.
pub fn generate_batch(base_seed: u64, count: usize) -> Vec<Generated> {
    (0..count)
        .map(|i| generate(base_seed.wrapping_add(i as u64)))
        .collect()
}

struct Builder<'a> {
    rng: SplitMix64,
    prog: &'a mut Program,
}

impl Builder<'_> {
    /// A fresh array of the given rank; dims are placeholders until
    /// [`size_arrays`] computes the exact referenced ranges.
    fn array(&mut self, tag: &str, rank: usize) -> ArrayId {
        let name = format!("{tag}{}", self.prog.arrays.len());
        self.prog.add_array(ArrayDecl::new(name, vec![1; rank], 8))
    }

    /// Loop extents for a nest of `depth` dimensions, bounded so the
    /// iteration space stays simulation-friendly, with occasional
    /// zero-trip and single-trip dimensions and nonzero lower bounds.
    fn bounds(&mut self, depth: usize) -> (Vec<i64>, Vec<i64>) {
        let per_dim_max: i64 = match depth {
            1 => 1536,
            2 => 40,
            _ => 10,
        };
        let mut lo = Vec::with_capacity(depth);
        let mut hi = Vec::with_capacity(depth);
        for _ in 0..depth {
            let l = if self.rng.chance(0.3) {
                self.rng.range_i64(1, 5)
            } else {
                0
            };
            let extent = if self.rng.chance(0.06) {
                0 // zero-trip
            } else if self.rng.chance(0.06) {
                1 // single-trip
            } else if depth == 1 {
                self.rng.range_i64(64, per_dim_max)
            } else {
                self.rng.range_i64(4, per_dim_max)
            };
            lo.push(l);
            hi.push(l + extent);
        }
        (lo, hi)
    }

    fn op(&mut self) -> Op {
        *self.rng.choose(&[Op::Add, Op::Sub, Op::Mul])
    }

    /// Statement work cycles — zero included on purpose (regression
    /// surface for the cycles-per-iteration clamp).
    fn work(&mut self) -> u32 {
        self.rng.range_u64(0, 7) as u32
    }

    fn push_nest(&mut self, nest_id: u32, lo: Vec<i64>, hi: Vec<i64>, body: Vec<Stmt>) {
        let depth = lo.len();
        let mut nest = LoopNest::new(nest_id, lo, hi, body);
        nest.parallel_level = if self.rng.chance(0.15) {
            None
        } else if depth > 1 && self.rng.chance(0.15) {
            Some(depth - 1)
        } else {
            Some(0)
        };
        self.prog.nests.push(nest);
    }

    fn emit_nest(&mut self, class: GenClass, nest_id: u32) {
        match class {
            GenClass::Stencil => self.stencil(nest_id),
            GenClass::DenseLinearAlgebra => self.dense_la(nest_id),
            GenClass::Reduction => self.reduction(nest_id),
            GenClass::TreeWalk => self.tree_walk(nest_id),
            GenClass::IrregularGather => self.gather(nest_id),
        }
    }

    /// `Y[I] = X[I+o1] op X[I+o2]`, optionally followed by a
    /// dependence-carrying update `X[I] = X[I - e0] op Y[I]`.
    fn stencil(&mut self, nest_id: u32) {
        let depth = if self.rng.chance(0.35) { 3 } else { 2 };
        let (lo, hi) = self.bounds(depth);
        let x = self.array("X", depth);
        let y = self.array("Y", depth);
        let offs =
            |r: &mut SplitMix64| -> Vec<i64> { (0..depth).map(|_| r.range_i64(-2, 3)).collect() };
        let o1 = offs(&mut self.rng);
        let o2 = offs(&mut self.rng);
        let mut body = vec![Stmt::binary(
            0,
            ArrayRef::identity(y, depth, vec![0; depth]),
            self.op(),
            Ref::Array(ArrayRef::identity(x, depth, o1)),
            Ref::Array(ArrayRef::identity(x, depth, o2)),
            self.work(),
        )];
        if self.rng.chance(0.4) {
            // Flow dependence at distance 1 on the outermost loop.
            let mut back = vec![0; depth];
            back[0] = -1;
            body.push(Stmt::binary(
                1,
                ArrayRef::identity(x, depth, vec![0; depth]),
                self.op(),
                Ref::Array(ArrayRef::identity(x, depth, back)),
                Ref::Array(ArrayRef::identity(y, depth, vec![0; depth])),
                self.work(),
            ));
        }
        self.push_nest(nest_id, lo, hi, body);
    }

    /// `C[i][j] = A[i][k] op B[k][j]` over a depth-3 nest, with
    /// transposed-A and coupled-subscript variants.
    fn dense_la(&mut self, nest_id: u32) {
        let (lo, hi) = self.bounds(3);
        let a = self.array("A", 2);
        let b = self.array("B", 2);
        let c = self.array("C", 2);
        let row = |r0: [i64; 3], r1: [i64; 3]| IMat::from_rows(&[&r0, &r1]);
        let a_coeffs = if self.rng.chance(0.25) {
            row([0, 0, 1], [1, 0, 0]) // A[k][i] — transposed walk
        } else if self.rng.chance(0.3) {
            row([1, 0, 1], [0, 0, 1]) // A[i+k][k] — coupled subscript
        } else {
            row([1, 0, 0], [0, 0, 1]) // A[i][k]
        };
        let body = vec![Stmt::binary(
            0,
            ArrayRef::affine(c, row([1, 0, 0], [0, 1, 0]), vec![0, 0]),
            self.op(),
            Ref::Array(ArrayRef::affine(a, a_coeffs, vec![0, 0])),
            Ref::Array(ArrayRef::affine(b, row([0, 0, 1], [0, 1, 0]), vec![0, 0])),
            self.work(),
        )];
        self.push_nest(nest_id, lo, hi, body);
    }

    /// `S[0] = S[0] op X[I]`: the accumulator's access matrix is all
    /// zeros, which the dependence solver can only call `Unknown` —
    /// exactly the conservative path worth fuzzing.
    fn reduction(&mut self, nest_id: u32) {
        let depth = if self.rng.chance(0.4) { 2 } else { 1 };
        let (lo, hi) = self.bounds(depth);
        let s = self.array("S", 1);
        let x = self.array("X", depth);
        let zero = ArrayRef::affine(s, IMat::zeros(1, depth), vec![0]);
        let body = vec![Stmt::binary(
            0,
            zero.clone(),
            self.op(),
            Ref::Array(zero),
            Ref::Array(ArrayRef::identity(x, depth, vec![0; depth])),
            self.work(),
        )];
        self.push_nest(nest_id, lo, hi, body);
    }

    /// Implicit-heap walk: `V[i] = X[2i+1] op X[2i+2]`, optionally a
    /// write-back `X[i] = X[2i+1] op c` whose dependence distance is
    /// not solvable as a constant.
    fn tree_walk(&mut self, nest_id: u32) {
        let (lo, hi) = self.bounds(1);
        let x = self.array("X", 1);
        let v = self.array("V", 1);
        let stride2 = |off: i64| ArrayRef::affine(x, IMat::from_rows(&[&[2]]), vec![off]);
        let mut body = vec![Stmt::binary(
            0,
            ArrayRef::identity(v, 1, vec![0]),
            self.op(),
            Ref::Array(stride2(1)),
            Ref::Array(stride2(2)),
            self.work(),
        )];
        if self.rng.chance(0.35) {
            body.push(Stmt::binary(
                1,
                ArrayRef::identity(x, 1, vec![0]),
                self.op(),
                Ref::Array(stride2(1)),
                Ref::Const(0.5),
                self.work(),
            ));
        }
        self.push_nest(nest_id, lo, hi, body);
    }

    /// Large-stride streaming with negative strides in the mix:
    /// `Z[i] = X[s1·i + o1] op X[s2·i + o2]`.
    fn gather(&mut self, nest_id: u32) {
        let depth = if self.rng.chance(0.25) { 2 } else { 1 };
        let (lo, hi) = self.bounds(depth);
        let x = self.array("X", 1);
        let z = self.array("Z", 1);
        let strided = |r: &mut SplitMix64| -> ArrayRef {
            let s = *r.choose(&[-11i64, -8, -3, 3, 5, 7, 8, 11]);
            let mut coeffs = vec![0i64; depth];
            coeffs[r.below(depth as u64) as usize] = s;
            let refs: [&[i64]; 1] = [&coeffs];
            ArrayRef::affine(x, IMat::from_rows(&refs), vec![r.range_i64(-4, 5)])
        };
        let (ra, rb) = (strided(&mut self.rng), strided(&mut self.rng));
        let mut z_coeffs = vec![0i64; depth];
        z_coeffs[0] = 1;
        let z_rows: [&[i64]; 1] = [&z_coeffs];
        let body = vec![Stmt::binary(
            0,
            ArrayRef::affine(z, IMat::from_rows(&z_rows), vec![0]),
            self.op(),
            Ref::Array(ra),
            Ref::Array(rb),
            self.work(),
        )];
        self.push_nest(nest_id, lo, hi, body);
    }
}

/// Exact per-dimension (min, max) subscript range a reference attains
/// over its nest, by the bounds verdict's endpoint rule
/// ([`row_extrema`]). `None` for an empty iteration space.
fn extrema(nest: &LoopNest, aref: &ArrayRef) -> Option<Vec<(i64, i64)>> {
    let range = |r| {
        let (min, max) = row_extrema(aref, r, nest);
        (min as i64, max as i64)
    };
    (!nest.is_empty()).then(|| (0..aref.coeffs.rows).map(range).collect())
}

/// Size every array from the union of its references' subscript
/// ranges: shift offsets so the minimum lands at 0, then set each
/// dimension's extent to cover the maximum. After this pass the
/// bounds prover accepts every reference (vacuously, for references
/// that only appear in empty nests).
fn size_arrays(prog: &mut Program) {
    let mut ranges: Vec<Option<Vec<(i64, i64)>>> = vec![None; prog.arrays.len()];
    for nest in &prog.nests {
        for stmt in &nest.body {
            for (aref, _) in stmt.array_refs() {
                let Some(e) = extrema(nest, aref) else {
                    continue;
                };
                let slot = &mut ranges[aref.array.0 as usize];
                match slot {
                    None => *slot = Some(e),
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(e) {
                            a.0 = a.0.min(b.0);
                            a.1 = a.1.max(b.1);
                        }
                    }
                }
            }
        }
    }
    let mut shifts: Vec<Vec<i64>> = Vec::with_capacity(prog.arrays.len());
    for (k, range) in ranges.iter().enumerate() {
        match range {
            Some(r) => {
                let shift: Vec<i64> = r.iter().map(|&(mn, _)| (-mn).max(0)).collect();
                prog.arrays[k].dims = r
                    .iter()
                    .zip(&shift)
                    .map(|(&(_, mx), &s)| (mx + s + 1).max(1) as u64)
                    .collect();
                shifts.push(shift);
            }
            // Referenced only from empty nests (or never): keep the
            // placeholder unit dims.
            None => shifts.push(vec![0; prog.arrays[k].dims.len()]),
        }
    }
    for nest in &mut prog.nests {
        for stmt in &mut nest.body {
            let apply = |aref: &mut ArrayRef| {
                let shift = &shifts[aref.array.0 as usize];
                for (o, s) in aref.offsets.iter_mut().zip(shift) {
                    *o += s;
                }
            };
            apply(&mut stmt.dst);
            if let Ref::Array(a) = &mut stmt.a {
                apply(a);
            }
            if let Some(Ref::Array(b)) = &mut stmt.b {
                apply(b);
            }
        }
    }
    // Re-layout with the final sizes.
    prog.assign_layout(0x10_0000, 4096);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.class, b.class);
        assert_eq!(a.program, b.program);
        let c = generate(43);
        assert!(c.program.name != a.program.name || c.program != a.program);
    }

    #[test]
    fn every_generated_program_passes_verifier_and_bounds_prover() {
        for g in generate_batch(0, 300) {
            let errors = ndc_lint::verify_program(&g.program);
            assert!(errors.is_empty(), "seed {}: {errors:?}", g.seed);
            for b in ndc_lint::prove_program(&g.program) {
                assert!(
                    b.in_bounds,
                    "seed {}: {} {}",
                    g.seed,
                    g.program.array(b.array).name,
                    b.describe_violation()
                );
            }
        }
    }

    #[test]
    fn corpus_covers_all_classes_and_degenerate_shapes() {
        let corpus = generate_batch(0, 512);
        for class in GenClass::ALL {
            assert!(
                corpus.iter().any(|g| g.class == class),
                "class {} missing from 512 seeds",
                class.label()
            );
        }
        let any_zero_trip = corpus
            .iter()
            .any(|g| g.program.nests.iter().any(|n| n.is_empty()));
        assert!(any_zero_trip, "no zero-trip nest in 512 seeds");
        let any_single_trip = corpus.iter().any(|g| {
            g.program.nests.iter().any(|n| {
                n.lo.iter()
                    .zip(n.hi.iter())
                    .any(|(l, h)| h - l == 1 && !n.is_empty())
            })
        });
        assert!(any_single_trip, "no single-trip dimension in 512 seeds");
        let any_negative_stride = corpus.iter().any(|g| {
            g.program.nests.iter().any(|n| {
                n.body.iter().any(|s| {
                    s.array_refs().iter().any(|(r, _)| {
                        (0..r.coeffs.rows).any(|i| (0..r.coeffs.cols).any(|j| r.coeffs[(i, j)] < 0))
                    })
                })
            })
        });
        assert!(any_negative_stride, "no negative stride in 512 seeds");
        let any_zero_work = corpus.iter().any(|g| {
            g.program
                .nests
                .iter()
                .any(|n| !n.body.is_empty() && n.body.iter().all(|s| s.work == 0))
        });
        assert!(any_zero_work, "no zero-work body in 512 seeds");
    }

    #[test]
    fn generated_programs_interpret_within_their_arrays() {
        // The interpreter counts out-of-bounds reads; a proven-in-bounds
        // program must report zero.
        for g in generate_batch(100, 40) {
            let mut store = ndc_ir::interp::DataStore::init(&g.program);
            ndc_ir::interp::Interpreter::new(&g.program).run(&mut store);
            assert_eq!(
                store.oob_reads(),
                0,
                "seed {}: interpreter saw OOB reads",
                g.seed
            );
        }
    }
}
