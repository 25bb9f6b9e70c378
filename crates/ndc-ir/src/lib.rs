//! The compiler intermediate representation for the NDC compiler.
//!
//! The paper's algorithms (§5.2.2, §5.3.1) operate on loop nests with
//! affine array accesses `X(F·I + f)`, dependence matrices `D`, and
//! unimodular loop transformations `T` whose legality requires every
//! column of `T·D` to be lexicographically positive. This crate provides
//! exactly that abstraction, built from scratch:
//!
//! * [`affine`] — the reference algebra every layer shares: the shape
//!   rule, the fold of `F·I + f` into per-loop coefficients, the bounds
//!   verdict, the exact solver for `F·d = c`, and the `c0 + g·I`
//!   address forms lowering evaluates for references proven inside
//!   their arrays;
//! * [`matrix`] — small integer vectors/matrices, unimodularity,
//!   lexicographic order, and candidate-`T` enumeration;
//! * [`program`] — arrays, affine references, statements, loop nests,
//!   and whole programs, plus the address layout that maps array
//!   elements to physical addresses (which in turn determines NUCA L2
//!   homes, memory controllers, and DRAM banks);
//! * [`interp`] — a reference interpreter over `f64` arrays, used by
//!   tests to prove transformations preserve semantics;
//! * [`deps`] — dependence analysis producing distance vectors and
//!   statement-level dependence graphs (the `D` of Algorithm 1);
//! * [`schedule`] — the compiler's output contract: per-nest loop
//!   transformations plus pre-compute insertions (which computation to
//!   offload, how many iterations ahead, with what operand stagger and
//!   route reshaping);
//! * [`mod@lower`] — lowering of a (scheduled) program to per-core
//!   instruction traces consumed by `ndc-sim`.

#![forbid(unsafe_code)]

pub mod affine;
pub mod deps;
pub mod interp;
pub mod lower;
pub mod matrix;
pub mod program;
pub mod schedule;

pub use deps::{DependenceEdge, DependenceGraph, DependenceKind, DistanceVector};
pub use interp::{DataStore, Interpreter};
pub use lower::{
    lower, pc_of, try_lower, LowerError, LowerOptions, ROLE_MAIN, ROLE_PRECOMPUTE, ROLE_STORE,
};
pub use matrix::{IMat, IVec};
pub use program::{ArrayDecl, ArrayId, ArrayRef, LoopNest, NestId, Program, Ref, Stmt, StmtId};
pub use schedule::{
    chain_operands, validate_chain_shape, FusedPrecomputePlan, MoveStrategy, PrecomputePlan,
    Schedule,
};
