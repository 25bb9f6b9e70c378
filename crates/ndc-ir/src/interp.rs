//! Reference interpreter over `f64` arrays.
//!
//! Used as the semantics oracle: a compiler transformation is correct
//! iff interpreting the scheduled program (transformed iteration order)
//! produces bit-identical array contents to the original. Out-of-bounds
//! reads (e.g. a stencil's halo the workloads guard by construction)
//! evaluate to 0.0 so the oracle stays total.

use crate::matrix::IMat;
use crate::program::{ArrayId, LoopNest, PointList, Program, Ref, Stmt};
use crate::schedule::Schedule;

/// Backing storage for a program's arrays.
#[derive(Debug, Clone)]
pub struct DataStore {
    arrays: Vec<Vec<f64>>,
    /// Out-of-bounds reads served as 0.0 (halo accesses). Interior
    /// mutability keeps `read(&self)` callers unchanged; the counter is
    /// observability, not semantics, so equality ignores it.
    oob_reads: std::cell::Cell<u64>,
}

/// Semantic equality: array contents only. The OOB-read counter is
/// deliberately excluded so differential-oracle comparisons are not
/// perturbed by how many halo reads each execution order performed.
impl PartialEq for DataStore {
    fn eq(&self, other: &DataStore) -> bool {
        self.arrays == other.arrays
    }
}

impl DataStore {
    /// Deterministic initial contents: element `k` of array `a` holds a
    /// small value derived from `(a, k)`. Seeded runs stay reproducible
    /// without any entropy source.
    pub fn init(prog: &Program) -> Self {
        let arrays = prog
            .arrays
            .iter()
            .enumerate()
            .map(|(ai, decl)| {
                (0..decl.elements())
                    .map(|k| {
                        // A cheap LCG-ish mix, kept strictly deterministic.
                        // Both multiplies must wrap: the array-index term
                        // alone exceeds u64 from the 13th array on.
                        let h = (k
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((ai as u64).wrapping_mul(1442695040888963407)))
                            >> 33;
                        1.0 + (h % 1000) as f64 / 250.0
                    })
                    .collect()
            })
            .collect();
        DataStore {
            arrays,
            oob_reads: std::cell::Cell::new(0),
        }
    }

    pub fn read(&self, prog: &Program, aref: &crate::program::ArrayRef, iter: &[i64]) -> f64 {
        match prog.element_index(aref, iter) {
            Some(l) => self.arrays[aref.array.0 as usize][l as usize],
            None => {
                self.oob_reads.set(self.oob_reads.get() + 1);
                0.0
            }
        }
    }

    /// How many reads fell outside their array and evaluated to 0.0.
    /// Nonzero is expected only for stencil-style workloads with halo
    /// reads; anywhere else it flags a bad subscript.
    pub fn oob_reads(&self) -> u64 {
        self.oob_reads.get()
    }

    pub fn write(
        &mut self,
        prog: &Program,
        aref: &crate::program::ArrayRef,
        iter: &[i64],
        value: f64,
    ) {
        if let Some(l) = prog.element_index(aref, iter) {
            self.arrays[aref.array.0 as usize][l as usize] = value;
        }
    }

    pub fn array(&self, id: ArrayId) -> &[f64] {
        &self.arrays[id.0 as usize]
    }

    /// A digest of all array contents for cheap equality assertions.
    pub fn checksum(&self) -> f64 {
        self.arrays
            .iter()
            .flat_map(|a| a.iter())
            .enumerate()
            .map(|(i, &v)| v * (1.0 + (i % 7) as f64))
            .sum()
    }
}

/// Executes programs against a [`DataStore`].
pub struct Interpreter<'p> {
    prog: &'p Program,
}

impl<'p> Interpreter<'p> {
    pub fn new(prog: &'p Program) -> Self {
        Interpreter { prog }
    }

    fn eval_ref(&self, store: &DataStore, r: &Ref, iter: &[i64]) -> f64 {
        match r {
            Ref::Array(a) => store.read(self.prog, a, iter),
            Ref::Const(c) => *c,
        }
    }

    fn exec_stmt(&self, store: &mut DataStore, s: &Stmt, iter: &[i64]) {
        let a = self.eval_ref(store, &s.a, iter);
        let value = match (s.op, &s.b) {
            (Some(op), Some(b)) => op.apply(a, self.eval_ref(store, b, iter)),
            _ => a,
        };
        store.write(self.prog, &s.dst, iter, value);
    }

    /// Execute the whole program in original order.
    pub fn run(&self, store: &mut DataStore) {
        for nest in &self.prog.nests {
            nest.for_each_point(|point| {
                for s in &nest.body {
                    self.exec_stmt(store, s, point);
                }
            });
        }
    }

    /// Execute under a schedule: each nest's iteration points are
    /// visited in the order of their transformed images `T·I`
    /// (lexicographic), and statement order overrides apply. This is the
    /// semantics of the transformed loop nest without needing explicit
    /// bound recomputation.
    ///
    /// Fused chains execute with *gather-at-head* semantics, mirroring
    /// the hardware's single multi-op packet: when the chain head runs,
    /// every tail member's gathered operand is read immediately
    /// (snapshot); each tail then combines the forwarded chain value
    /// with its snapshot at its own position in the statement order.
    /// For a legal fusion (no intervening statement writes a gathered
    /// operand) this is identical to unfused execution; for an illegal
    /// one it genuinely diverges — which is exactly what gives the
    /// differential oracle its discriminating power.
    pub fn run_scheduled(&self, store: &mut DataStore, schedule: &Schedule) {
        for nest in &self.prog.nests {
            let order = schedule.stmt_order_for(nest);
            let chains: Vec<FusedChain> = schedule
                .fused_for(nest.id)
                .map(|plan| FusedChain::build(nest, plan))
                .collect();
            // Body position -> (chain index, member index).
            let mut member_at: Vec<Option<(usize, usize)>> = vec![None; nest.body.len()];
            for (ci, c) in chains.iter().enumerate() {
                for (mi, &pos) in c.positions.iter().enumerate() {
                    member_at[pos] = Some((ci, mi));
                }
            }
            // One packet per chain, reused at every point.
            let mut packets: Vec<ChainState> = chains
                .iter()
                .map(|c| ChainState {
                    live: false,
                    snapshots: Vec::with_capacity(c.tails.len()),
                    forwarded: 0.0,
                })
                .collect();
            let run_point = |point: &[i64]| {
                for packet in &mut packets {
                    packet.live = false;
                }
                for &pos in &order {
                    let s = &nest.body[pos];
                    match member_at[pos] {
                        Some((ci, 0)) => {
                            // Chain head: gather the whole union
                            // footprint now, execute op 0, forward.
                            let chain = &chains[ci];
                            let a = self.eval_ref(store, &s.a, point);
                            let b =
                                self.eval_ref(store, s.b.as_ref().expect("head is binary"), point);
                            let packet = &mut packets[ci];
                            packet.snapshots.clear();
                            packet.snapshots.extend(
                                chain
                                    .tails
                                    .iter()
                                    .map(|t| store.read(self.prog, &t.gathered, point)),
                            );
                            let v = s.op.expect("head is binary").apply(a, b);
                            store.write(self.prog, &s.dst, point, v);
                            packet.forwarded = v;
                            packet.live = true;
                        }
                        Some((ci, mi)) => {
                            let chain = &chains[ci];
                            // A statement order that runs a tail before
                            // its head has no packet to consume from;
                            // fall back to plain execution.
                            let packet = &mut packets[ci];
                            if !packet.live {
                                self.exec_stmt(store, s, point);
                                continue;
                            }
                            let tail = &chain.tails[mi - 1];
                            let g = packet.snapshots[mi - 1];
                            let op = s.op.expect("tail is binary");
                            let v = if tail.link_is_a {
                                op.apply(packet.forwarded, g)
                            } else {
                                op.apply(g, packet.forwarded)
                            };
                            store.write(self.prog, &s.dst, point, v);
                            packet.forwarded = v;
                        }
                        None => self.exec_stmt(store, s, point),
                    }
                }
            };
            // An untransformed nest runs in walk order, with no list.
            match schedule.transforms.get(&nest.id) {
                Some(t) => transformed_points(nest, t).iter().for_each(run_point),
                None => nest.for_each_point(run_point),
            }
        }
    }
}

/// Precomputed structure of one fused chain inside a nest.
struct FusedChain {
    /// Body positions of the members, in chain order.
    positions: Vec<usize>,
    tails: Vec<TailInfo>,
}

struct TailInfo {
    /// Operand `a` is the forwarded link (else `b` is).
    link_is_a: bool,
    /// The member's single gathered operand.
    gathered: crate::program::ArrayRef,
}

/// Per-point execution state of a fused chain.
struct ChainState {
    /// The head ran at the current point.
    live: bool,
    /// Tail gathered-operand values, read at head time.
    snapshots: Vec<f64>,
    /// Running chain value forwarded to the next member.
    forwarded: f64,
}

impl FusedChain {
    fn build(nest: &LoopNest, plan: &crate::schedule::FusedPrecomputePlan) -> FusedChain {
        let positions: Vec<usize> = plan
            .stmts
            .iter()
            .map(|id| nest.stmt_pos(*id).expect("validated plan"))
            .collect();
        let mut tails = Vec::new();
        let mut prev_dst = &nest.stmt(plan.stmts[0]).expect("validated plan").dst;
        for id in &plan.stmts[1..] {
            let s = nest.stmt(*id).expect("validated plan");
            let (link_is_a, gathered) =
                crate::schedule::chain_operands(s, prev_dst).expect("validated plan");
            tails.push(TailInfo {
                link_is_a,
                gathered: gathered.clone(),
            });
            prev_dst = &s.dst;
        }
        FusedChain { positions, tails }
    }
}

/// A transformed nest's iteration points in execution order: the
/// lexicographic order of their images `T·I`.
pub(crate) fn transformed_points(nest: &LoopNest, t: &IMat) -> PointList {
    PointList::sorted_by(nest, t.rows, |p, image| t.mul_into(p, image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;
    use crate::program::{ArrayDecl, ArrayRef, LoopNest, Program, Ref, Stmt};
    use ndc_types::Op;

    /// X[i][j] = X[i][j] + Y[i][j] over an 8x8 space.
    fn add_prog() -> Program {
        let mut p = Program::new("add");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8, 8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![0, 0])),
            Ref::Array(ArrayRef::identity(y, 2, vec![0, 0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0, 0], vec![8, 8], vec![s]));
        p.assign_layout(0, 64);
        p
    }

    #[test]
    fn deterministic_init() {
        let p = add_prog();
        let a = DataStore::init(&p);
        let b = DataStore::init(&p);
        assert_eq!(a, b);
        assert!(a.checksum() != 0.0);
    }

    #[test]
    fn elementwise_add_runs() {
        let p = add_prog();
        let mut store = DataStore::init(&p);
        let before_x0 = store.array(ArrayId(0))[0];
        let y0 = store.array(ArrayId(1))[0];
        Interpreter::new(&p).run(&mut store);
        assert_eq!(store.array(ArrayId(0))[0], before_x0 + y0);
    }

    #[test]
    fn identity_schedule_preserves_results() {
        let p = add_prog();
        let mut a = DataStore::init(&p);
        let mut b = DataStore::init(&p);
        Interpreter::new(&p).run(&mut a);
        Interpreter::new(&p).run_scheduled(&mut b, &Schedule::default());
        assert_eq!(a, b);
    }

    #[test]
    fn interchange_preserves_independent_nest() {
        let p = add_prog();
        let mut sched = Schedule::default();
        sched.transforms.insert(
            crate::program::NestId(0),
            IMat::from_rows(&[&[0, 1], &[1, 0]]),
        );
        let mut a = DataStore::init(&p);
        let mut b = DataStore::init(&p);
        Interpreter::new(&p).run(&mut a);
        Interpreter::new(&p).run_scheduled(&mut b, &sched);
        assert_eq!(a, b);
    }

    /// A nest with a (1, -1) flow dependence (Figure 10):
    /// X[i][j] = X[i-1][j+1] + Y[i][j]. Reversing the outer loop
    /// violates the dependence and must change results — demonstrating
    /// the interpreter really is order-sensitive (so it can catch
    /// illegal transformations).
    #[test]
    fn illegal_reversal_changes_results() {
        let mut p = Program::new("dep");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![8, 8], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(x, 2, vec![0, 0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 2, vec![-1, 1])),
            Ref::Array(ArrayRef::identity(y, 2, vec![0, 0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![1, 0], vec![8, 7], vec![s]));
        p.assign_layout(0, 64);

        let mut sched = Schedule::default();
        sched.transforms.insert(
            crate::program::NestId(0),
            IMat::from_rows(&[&[-1, 0], &[0, 1]]),
        );
        let mut a = DataStore::init(&p);
        let mut b = DataStore::init(&p);
        Interpreter::new(&p).run(&mut a);
        Interpreter::new(&p).run_scheduled(&mut b, &sched);
        assert_ne!(a, b, "reversal should break the (1,-1) dependence");
    }

    #[test]
    fn out_of_bounds_reads_are_zero() {
        let mut p = Program::new("oob");
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
        p.assign_layout(0, 64);
        let mut store = DataStore::init(&p);
        assert_eq!(store.oob_reads(), 0);
        Interpreter::new(&p).run(&mut store);
        // At i=0, X[-1] reads 0.0, so X[0] = 1.0.
        assert_eq!(store.array(x)[0], 1.0);
        // Exactly one halo read (i=0); the in-bounds reads don't count.
        assert_eq!(store.oob_reads(), 1);
    }

    /// Regression: `DataStore::init` used an unchecked `ai * constant`
    /// mix, which overflows u64 (debug-build panic) from the 13th array
    /// on. 16 arrays must initialize cleanly and deterministically.
    #[test]
    fn init_handles_many_arrays_without_overflow() {
        let mut p = Program::new("wide");
        for i in 0..16 {
            p.add_array(ArrayDecl::new(format!("A{i}"), vec![4], 8));
        }
        p.assign_layout(0, 64);
        let a = DataStore::init(&p);
        let b = DataStore::init(&p);
        assert_eq!(a, b);
        for i in 0..16 {
            assert_eq!(a.array(ArrayId(i)).len(), 4);
        }
    }

    /// Legal fusion (s0: Z = X + Y, s1: W = Z * X, no intervening
    /// writes): gather-at-head execution must be element-wise identical
    /// to the unfused original.
    #[test]
    fn legal_fused_chain_matches_unfused() {
        let mut p = Program::new("fuse-legal");
        let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![16], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![16], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![16], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(w, 1, vec![0]),
            Op::Mul,
            Ref::Array(ArrayRef::identity(z, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![16], vec![s0, s1]));
        p.assign_layout(0, 64);

        let mut sched = Schedule::default();
        sched.fused.push(crate::schedule::FusedPrecomputePlan {
            nest: crate::program::NestId(0),
            stmts: vec![crate::program::StmtId(0), crate::program::StmtId(1)],
            lookahead: 2,
            stagger: 0,
            reshape_routes: false,
            target: ndc_types::NdcLocation::CacheController,
        });
        assert!(sched.validate(&p).is_ok());
        let mut a = DataStore::init(&p);
        let mut b = DataStore::init(&p);
        Interpreter::new(&p).run(&mut a);
        Interpreter::new(&p).run_scheduled(&mut b, &sched);
        assert_eq!(a, b);
    }

    /// Illegal fusion: an intervening statement rewrites the tail's
    /// gathered operand between head and tail. Gather-at-head snapshots
    /// the pre-write value, so the fused execution must diverge — this
    /// is what the differential oracle relies on to reject bad fusions.
    #[test]
    fn illegal_fused_chain_diverges() {
        let mut p = Program::new("fuse-illegal");
        let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![16], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![16], 8));
        let w = p.add_array(ArrayDecl::new("W", vec![16], 8));
        let s0 = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        // Intervening write: X = Y + Y clobbers the gathered operand.
        let s1 = Stmt::binary(
            1,
            ArrayRef::identity(x, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let s2 = Stmt::binary(
            2,
            ArrayRef::identity(w, 1, vec![0]),
            Op::Mul,
            Ref::Array(ArrayRef::identity(z, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![16], vec![s0, s1, s2]));
        p.assign_layout(0, 64);

        let mut sched = Schedule::default();
        sched.fused.push(crate::schedule::FusedPrecomputePlan {
            nest: crate::program::NestId(0),
            stmts: vec![crate::program::StmtId(0), crate::program::StmtId(2)],
            lookahead: 2,
            stagger: 0,
            reshape_routes: false,
            target: ndc_types::NdcLocation::CacheController,
        });
        let mut a = DataStore::init(&p);
        let mut b = DataStore::init(&p);
        Interpreter::new(&p).run(&mut a);
        Interpreter::new(&p).run_scheduled(&mut b, &sched);
        assert_ne!(a, b, "stale gathered operand must change results");
    }

    /// The OOB counter is observability, not semantics: two stores with
    /// equal arrays but different halo-read histories compare equal.
    #[test]
    fn oob_counter_does_not_affect_equality() {
        let mut p = Program::new("oob");
        let x = p.add_array(ArrayDecl::new("X", vec![4], 8));
        p.assign_layout(0, 64);
        let a = DataStore::init(&p);
        let b = DataStore::init(&p);
        // Force an OOB read on `a` only.
        let halo = ArrayRef::identity(x, 1, vec![-1]);
        assert_eq!(a.read(&p, &halo, &[0]), 0.0);
        assert_eq!(a.oob_reads(), 1);
        assert_eq!(b.oob_reads(), 0);
        assert_eq!(a, b);
    }
}
