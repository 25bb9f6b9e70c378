//! Static legality analysis for NDC programs and schedules.
//!
//! The paper's Algorithms 1/2 are only sound when every unimodular
//! transformation and statement reordering respects the dependence
//! matrix `D`, and the rest of the repo establishes that *dynamically*
//! (the `ndc-check` differential oracle diffs interpreter outputs; the
//! interpreter counts out-of-bounds reads at runtime). This crate
//! proves the same properties *statically*, before any cycle is
//! simulated, with four passes:
//!
//! * [`verify`] — an IR verifier: access-matrix shapes match loop depth
//!   and array rank, statement/array references resolve, statement
//!   orders are permutations that respect loop-independent dependences,
//!   and every transformation is unimodular;
//! * [`bounds`] — an affine bounds prover: the min/max of `F·I + f`
//!   over the rectangular iteration bounds, proving every access
//!   in-bounds without executing anything;
//! * [`refine`] + [`certificate`] — a legality certificate engine:
//!   GCD/Banerjee-style refinement of `Unknown` dependence edges, and
//!   per-transform machine-checkable certificates (the `T·D`
//!   lexicographic-positivity witness per dependence edge) that are
//!   re-verified independently of the optimizer that emitted them;
//! * [`race`] — an IR-level race detector: given the loop dimension
//!   `ndc-par` partitions across threads, find every loop-carried
//!   dependence that crosses partitions of that dimension.
//!
//! The crate depends only on `ndc-ir` (and `ndc-types` transitively) —
//! it never touches the simulator, so its verdicts cannot be
//! contaminated by the machinery it is checking.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod certificate;
pub mod fusion;
pub mod race;
pub mod refine;
pub mod verify;

pub use bounds::{prove_program, prove_ref, RefBounds};
pub use certificate::{
    certify, certify_with, verify_certificate, CertificateError, EdgeWitness, LegalityCertificate,
};
pub use fusion::{
    certify_fusion, certify_fusion_with, verify_fusion_certificate, FusionCertificate, FusionError,
    LinkWitness,
};
pub use race::{nest_races, program_races, Race};
pub use refine::{gcd, refine, refined_graph, RefineStats};
pub use verify::{verify_program, verify_schedule};

use ndc_ir::program::{ArrayId, NestId, Program, StmtId};
use ndc_ir::schedule::Schedule;

/// One defect found by a lint pass. Every variant names the IR entity
/// at fault so the report is actionable without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub enum LintError {
    /// An array reference names an array the program does not declare.
    UnknownArray {
        nest: NestId,
        stmt: StmtId,
        slot: u8,
    },
    /// An access matrix/offset shape disagrees with the nest depth or
    /// the array rank.
    RefShape {
        nest: NestId,
        stmt: StmtId,
        slot: u8,
        detail: String,
    },
    /// A nest's parallel level is not a loop dimension of the nest.
    ParallelLevel {
        nest: NestId,
        level: usize,
        depth: usize,
    },
    /// A nest dimension has `lo > hi` — an inverted iteration space.
    /// (Zero-trip `lo == hi` dimensions are legal and make the nest
    /// empty.)
    InvertedBounds {
        nest: NestId,
        dim: usize,
        lo: i64,
        hi: i64,
    },
    /// A schedule transform targets a nest the program does not have.
    TransformUnknownNest { nest: NestId },
    /// A schedule transform is not `depth × depth`.
    TransformShape { nest: NestId, detail: String },
    /// A schedule transform is not unimodular (|det T| ≠ 1).
    NotUnimodular { nest: NestId },
    /// A statement-order override targets a nest the program does not
    /// have.
    OrderUnknownNest { nest: NestId },
    /// A statement-order override is not a permutation of the body.
    OrderNotPermutation { nest: NestId, order: Vec<usize> },
    /// A statement-order override executes the sink of a
    /// loop-independent (zero-distance) dependence before its source.
    OrderViolatesDependence {
        nest: NestId,
        src: StmtId,
        dst: StmtId,
        array: ArrayId,
    },
    /// An access can touch an element outside its array.
    OutOfBounds {
        nest: NestId,
        stmt: StmtId,
        slot: u8,
        array: ArrayId,
        detail: String,
    },
    /// A pre-compute plan is internally inconsistent.
    PlanInvalid { detail: String },
    /// A transform fails legality certification (`T·D` not
    /// lexicographically positive on some dependence edge, or an
    /// unrefinable unknown distance).
    IllegalTransform(CertificateError),
}

impl LintError {
    /// A stable machine-readable tag for each error class, used by the
    /// fault-matrix soundness tests and the `ndc-eval lint` table.
    pub fn label(&self) -> &'static str {
        match self {
            LintError::UnknownArray { .. } => "unknown-array",
            LintError::RefShape { .. } => "ref-shape",
            LintError::ParallelLevel { .. } => "parallel-level",
            LintError::InvertedBounds { .. } => "inverted-bounds",
            LintError::TransformUnknownNest { .. } => "transform-unknown-nest",
            LintError::TransformShape { .. } => "transform-shape",
            LintError::NotUnimodular { .. } => "non-unimodular",
            LintError::OrderUnknownNest { .. } => "order-unknown-nest",
            LintError::OrderNotPermutation { .. } => "order-not-permutation",
            LintError::OrderViolatesDependence { .. } => "order-violates-dependence",
            LintError::OutOfBounds { .. } => "out-of-bounds",
            LintError::PlanInvalid { .. } => "plan-invalid",
            LintError::IllegalTransform(_) => "illegal-transform",
        }
    }
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::UnknownArray { nest, stmt, slot } => write!(
                f,
                "nest {}: stmt {} slot {slot} references an undeclared array",
                nest.0, stmt.0
            ),
            LintError::RefShape {
                nest,
                stmt,
                slot,
                detail,
            } => write!(f, "nest {}: stmt {} slot {slot}: {detail}", nest.0, stmt.0),
            LintError::ParallelLevel { nest, level, depth } => write!(
                f,
                "nest {}: parallel level {level} out of range for depth {depth}",
                nest.0
            ),
            LintError::InvertedBounds { nest, dim, lo, hi } => write!(
                f,
                "nest {}: dimension {dim} has inverted bounds [{lo}, {hi})",
                nest.0
            ),
            LintError::TransformUnknownNest { nest } => {
                write!(f, "transform targets unknown nest {}", nest.0)
            }
            LintError::TransformShape { nest, detail } => {
                write!(f, "nest {}: {detail}", nest.0)
            }
            LintError::NotUnimodular { nest } => {
                write!(f, "nest {}: transform is not unimodular", nest.0)
            }
            LintError::OrderUnknownNest { nest } => {
                write!(f, "stmt order targets unknown nest {}", nest.0)
            }
            LintError::OrderNotPermutation { nest, order } => write!(
                f,
                "nest {}: stmt order {order:?} is not a permutation of the body",
                nest.0
            ),
            LintError::OrderViolatesDependence {
                nest,
                src,
                dst,
                array,
            } => write!(
                f,
                "nest {}: stmt order runs stmt {} before stmt {} despite a \
                 loop-independent dependence on array {}",
                nest.0, dst.0, src.0, array.0
            ),
            LintError::OutOfBounds {
                nest,
                stmt,
                slot,
                array,
                detail,
            } => write!(
                f,
                "nest {}: stmt {} slot {slot} can index array {} out of bounds: {detail}",
                nest.0, stmt.0, array.0
            ),
            LintError::PlanInvalid { detail } => write!(f, "invalid pre-compute plan: {detail}"),
            LintError::IllegalTransform(e) => write!(f, "illegal transform: {e}"),
        }
    }
}

/// The verdict of [`lint_schedule`] on one `(program, schedule)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// Program name, carried for table rendering.
    pub workload: String,
    /// Everything that must be fixed before the schedule is legal.
    pub errors: Vec<LintError>,
    /// Per-reference bounds proofs (all references, pass or fail).
    pub bounds: Vec<RefBounds>,
    /// How many conservative `Unknown`/too-long distances the
    /// refinement pass discharged across all nests.
    pub refine: RefineStats,
    /// One re-verifiable legality certificate per transformed nest.
    pub certificates: Vec<LegalityCertificate>,
    /// One re-verifiable fusion certificate per fused chain.
    pub fusion_certificates: Vec<FusionCertificate>,
    /// Loop-carried dependences crossing the parallel partition
    /// dimension. Diagnostics, not errors: `ndc-par` replays nests
    /// deterministically, so a cross-partition dependence degrades
    /// parallelism, not correctness.
    pub races: Vec<Race>,
}

impl LintReport {
    /// No errors: the schedule is statically proven legal.
    pub fn accepted(&self) -> bool {
        self.errors.is_empty()
    }

    /// References whose bounds proof failed.
    pub fn unproven_bounds(&self) -> usize {
        self.bounds.iter().filter(|b| !b.in_bounds).count()
    }
}

/// Run all four lint passes on a program under a schedule.
///
/// The result is deterministic: errors appear in program order
/// (nest, then statement, then reference slot), never in hash order.
pub fn lint_schedule(prog: &Program, schedule: &Schedule) -> LintReport {
    let mut report = LintReport {
        workload: prog.name.clone(),
        ..LintReport::default()
    };
    report.errors.extend(verify_program(prog));
    report.errors.extend(verify_schedule(prog, schedule));
    report.bounds = prove_program(prog);
    for b in report.bounds.iter().filter(|b| !b.in_bounds) {
        report.errors.push(LintError::OutOfBounds {
            nest: b.nest,
            stmt: b.stmt,
            slot: b.slot,
            array: b.array,
            detail: b.describe_violation(),
        });
    }
    for nest in &prog.nests {
        let (graph, stats) = refine(nest);
        report.refine.merge(&stats);
        report.races.extend(race::races_in(nest, &graph));
        for plan in schedule.fused_for(nest.id) {
            // Certify against the nest's refined graph, then re-verify
            // the certificate independently (it re-derives everything
            // from the program, sharing no state with the certifier).
            match fusion::certify_fusion_with(nest, &graph, &plan.stmts) {
                Ok(cert) => match fusion::verify_fusion_certificate(nest, &cert) {
                    Ok(()) => report.fusion_certificates.push(cert),
                    Err(e) => report.errors.push(LintError::PlanInvalid {
                        detail: format!("fusion certificate failed re-verification: {e}"),
                    }),
                },
                Err(e) => report.errors.push(LintError::PlanInvalid {
                    detail: format!("illegal fusion: {e}"),
                }),
            }
        }
        if let Some(t) = schedule.transforms.get(&nest.id) {
            // Shape/unimodularity defects are already reported by the
            // verifier; don't duplicate them as certificate failures.
            if t.rows != nest.depth() || t.cols != nest.depth() || !t.is_unimodular() {
                continue;
            }
            match certify_with(nest, &graph, &stats, t) {
                Ok(cert) => report.certificates.push(cert),
                Err(e) => report.errors.push(LintError::IllegalTransform(e)),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayRef, LoopNest, Ref, Stmt};
    use ndc_types::Op;

    /// Figure 10: X[i,j] = X[i-1,j+1] + 1 — flow distance (1, -1).
    fn fig10() -> Program {
        let mut p = Program::new("fig10");
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
        p.assign_layout(0, 64);
        p
    }

    #[test]
    fn legal_schedule_is_accepted_with_certificate() {
        let p = fig10();
        let mut s = Schedule::default();
        // Skew-then-interchange: legal for distance (1, -1).
        let swap = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let skew = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        s.transforms.insert(p.nests[0].id, swap.mul(&skew));
        let report = lint_schedule(&p, &s);
        assert!(report.accepted(), "{:?}", report.errors);
        assert_eq!(report.certificates.len(), 1);
        verify_certificate(&p.nests[0], &report.certificates[0]).unwrap();
    }

    #[test]
    fn illegal_interchange_is_rejected() {
        let p = fig10();
        let mut s = Schedule::default();
        s.transforms
            .insert(p.nests[0].id, IMat::from_rows(&[&[0, 1], &[1, 0]]));
        let report = lint_schedule(&p, &s);
        assert!(!report.accepted());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].label(), "illegal-transform");
        assert!(matches!(
            &report.errors[0],
            LintError::IllegalTransform(CertificateError::NotLexPositive { .. })
        ));
    }

    #[test]
    fn non_unimodular_transform_reported_once() {
        let p = fig10();
        let mut s = Schedule::default();
        let mut t = IMat::identity(2);
        t[(0, 0)] = 2;
        s.transforms.insert(p.nests[0].id, t);
        let report = lint_schedule(&p, &s);
        let labels: Vec<_> = report.errors.iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["non-unimodular"]);
    }

    #[test]
    fn identity_schedule_on_clean_program_is_clean() {
        let p = fig10();
        let report = lint_schedule(&p, &Schedule::default());
        assert!(report.accepted(), "{:?}", report.errors);
        assert!(report.certificates.is_empty());
        assert_eq!(report.unproven_bounds(), 0);
    }

    #[test]
    fn error_display_and_labels_are_stable() {
        let e = LintError::OrderViolatesDependence {
            nest: NestId(3),
            src: StmtId(0),
            dst: StmtId(1),
            array: ArrayId(2),
        };
        assert_eq!(e.label(), "order-violates-dependence");
        let msg = e.to_string();
        assert!(msg.contains("nest 3"), "{msg}");
        assert!(msg.contains("array 2"), "{msg}");
    }
}
