//! Static reuse-distance and traffic analysis over the affine IR.
//!
//! The compiler's offload decisions need to know, *before any cycle is
//! simulated*, how much data each loop nest actually moves: which
//! references revisit elements (temporal reuse), which stay within a
//! cache line (spatial reuse), and how many distinct L1/L2 lines and
//! DRAM bytes a nest touches end to end. This crate derives those
//! quantities symbolically:
//!
//! * [`form`] reduces every affine reference — coupled subscripts
//!   included — to a canonical one-dimensional linear functional over
//!   the iteration box (the row-major composite of `F·I + f`), then
//!   counts distinct elements and distinct cache lines in closed form.
//!   Each count carries an [`Exactness`] tag: `Exact` when a
//!   mixed-radix injectivity or completeness argument proves the
//!   closed form equals the true cardinality, `Bound` when coupled
//!   subscripts defeat exactness and only a conservative
//!   over-approximation is available.
//! * [`classify`] reads the symbolic reuse vector (the composite
//!   per-loop coefficients) into temporal/spatial reuse classes.
//! * [`measure`] is the contract's other side: enumerate the nest,
//!   collect what a reference *actually* touches, and check
//!   `Exact == measured` and `Bound >= measured` — wired into
//!   `ndc-check`'s invariant layer and the fuzz pipeline.
//! * [`chain`] analyzes operand pairs (shared-line iterations, union
//!   footprints) for the compiler's use-use chain cost model.
//! * [`hopload`] projects byte flows onto per-link NoC hop loads under
//!   XY routing — the placement-aware half of the traffic picture.
//!
//! The shape rule, the fold of `F·I + f` into the composite form and
//! the bounds verdict gating every `Exact` tag come from
//! [`ndc_ir::affine`], the reference algebra lowering, the CME and the
//! linter share; the distinct-value counting shares the linter's GCD
//! machinery ([`ndc_lint::gcd`]).
//!
//! Zero-dependency like the rest of the workspace: only `ndc-ir`,
//! `ndc-lint`, and `ndc-types`.

#![forbid(unsafe_code)]

pub mod chain;
pub mod classify;
pub mod form;
pub mod hopload;
pub mod measure;
pub mod report;

pub use chain::{identical_stream, shared_line_iters, union_lines, ChainReuse};
pub use classify::{classify, ReuseClass};
pub use form::{AddressForm, Count, Exactness, Term};
pub use hopload::HopLoad;
pub use measure::{
    cross_check_program, cross_check_ref, measure_ref, CrossCheckSummary, MeasuredFootprint,
};
pub use report::{analyze_nest, analyze_program, analyze_ref, NestReuse, RefFacts, ReuseReport};

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::matrix::IMat;
    use ndc_ir::program::{ArrayDecl, ArrayRef, LoopNest, Program, Ref, Stmt};
    use ndc_types::Op;

    /// A small dense-LA-flavored program: a streaming add, a coupled
    /// diagonal read, and a reduction.
    fn mixed_prog() -> Program {
        let mut p = Program::new("mixed");
        let x = p.add_array(ArrayDecl::new("X", vec![512], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![512], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![512], 8));
        let s = p.add_array(ArrayDecl::new("S", vec![1], 8));
        let add = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        p.nests
            .push(LoopNest::new(0, vec![0], vec![400], vec![add]));
        let diag = Stmt::binary(
            1,
            ArrayRef::affine(z, IMat::from_rows(&[&[1, 1]]), vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::affine(x, IMat::from_rows(&[&[1, 1]]), vec![0])),
            Ref::Const(1.0),
            1,
        );
        p.nests
            .push(LoopNest::new(1, vec![0, 0], vec![16, 16], vec![diag]));
        let red = Stmt::binary(
            2,
            ArrayRef::affine(s, IMat::from_rows(&[&[0]]), vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            Ref::Const(0.0),
            1,
        );
        p.nests
            .push(LoopNest::new(2, vec![0], vec![256], vec![red]));
        p.assign_layout(0x10_0000, 4096);
        p
    }

    #[test]
    fn whole_program_analysis_cross_checks_clean() {
        let p = mixed_prog();
        let report = analyze_program(&p, 64, 256);
        assert_eq!(report.nests.len(), 3);
        assert!(report.total_refs() >= 7);
        let sum = cross_check_program(&p, &report, 64, 256);
        assert!(sum.ok(), "violations: {:?}", sum.violations);
        assert_eq!(sum.refs, report.total_refs());
        assert!(sum.exact_refs > 0);
    }

    #[test]
    fn facts_expose_classes_and_exactness() {
        let p = mixed_prog();
        let report = analyze_program(&p, 64, 256);
        // Streaming X[i]: spatial, exact 400 elements, 13 L2 lines.
        let f = report.get(0, 0, 0).unwrap();
        assert_eq!(f.class, ReuseClass::Spatial { stride_bytes: 8 });
        assert_eq!(f.elems, Count::exact(400));
        assert_eq!(f.l2_lines, Count::exact(13));
        assert_eq!(f.dram_bytes, Count::exact(13 * 256));
        // Coupled diagonal: temporal reuse, exact 31 elements.
        let d = report.get(1, 0, 0).unwrap();
        assert_eq!(d.class, ReuseClass::TemporalCoupled);
        assert_eq!(d.elems, Count::exact(31));
        // Reduction accumulator write: loop-invariant, one element.
        let r = report.get(2, 0, 1).unwrap();
        assert!(r.is_write);
        assert_eq!(r.class, ReuseClass::LoopInvariant);
        assert_eq!(r.elems, Count::exact(1));
    }

    #[test]
    fn corrupting_an_exact_count_trips_the_cross_check() {
        let p = mixed_prog();
        let mut report = analyze_program(&p, 64, 256);
        let f = &mut report.nests[0].refs[0];
        assert_eq!(f.l2_lines.tag, Exactness::Exact);
        f.l2_lines.value += 1;
        let sum = cross_check_program(&p, &report, 64, 256);
        assert!(!sum.ok());
        assert!(
            sum.violations[0].contains("l2-lines"),
            "{:?}",
            sum.violations
        );
    }

    #[test]
    fn out_of_bounds_reference_is_bound_tagged_and_dominates() {
        let mut p = Program::new("oob");
        let x = p.add_array(ArrayDecl::new("X", vec![64], 8));
        let s = Stmt::copy(
            0,
            ArrayRef::identity(x, 1, vec![0]),
            Ref::Array(ArrayRef::identity(x, 1, vec![-8])),
            0,
        );
        p.nests.push(LoopNest::new(0, vec![0], vec![64], vec![s]));
        p.assign_layout(0x1000, 4096);
        let report = analyze_program(&p, 64, 256);
        let f = report.get(0, 0, 0).unwrap();
        assert!(!f.in_bounds);
        assert_eq!(f.elems.tag, Exactness::Bound);
        // The measured side skips the 8 out-of-bounds accesses; the
        // bound must still dominate.
        let sum = cross_check_program(&p, &report, 64, 256);
        assert!(sum.ok(), "violations: {:?}", sum.violations);
    }
}
