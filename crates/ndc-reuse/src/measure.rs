//! The interpreter-measured side of the soundness contract: enumerate
//! a nest's iteration space, collect the distinct element addresses
//! and cache lines a reference actually touches, and compare them
//! against the static prediction — `Exact` tags must match the
//! measurement exactly, `Bound` tags must dominate it.

use crate::report::{NestReuse, RefFacts, ReuseReport};
use crate::Exactness;
use ndc_ir::affine::decl_of;
use ndc_ir::program::{ArrayRef, LoopNest, Program};
use ndc_types::FxHashSet;

/// Ground-truth footprint of one reference, by enumeration. Only
/// in-bounds accesses count (out-of-bounds index vectors address
/// nothing), mirroring the interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasuredFootprint {
    /// In-bounds accesses performed.
    pub accesses: u64,
    pub elems: u64,
    pub l1_lines: u64,
    pub l2_lines: u64,
    pub dram_bytes: u64,
}

/// Walk the nest and measure one reference's footprint. Shape
/// mismatches (which the IR verifier reports separately) measure as
/// zero.
pub fn measure_ref(
    prog: &Program,
    nest: &LoopNest,
    aref: &ArrayRef,
    l1_line: u64,
    l2_line: u64,
) -> MeasuredFootprint {
    let mut m = MeasuredFootprint::default();
    if decl_of(prog, aref, nest.depth()).is_none() {
        return m;
    }
    let mut elems: FxHashSet<u64> = FxHashSet::default();
    let mut l1: FxHashSet<u64> = FxHashSet::default();
    let mut l2: FxHashSet<u64> = FxHashSet::default();
    nest.for_each_point(|point| {
        let Some(addr) = prog.addr_of(aref, point) else {
            return;
        };
        m.accesses += 1;
        elems.insert(addr);
        l1.insert(addr / l1_line.max(1));
        l2.insert(addr / l2_line.max(1));
    });
    m.elems = elems.len() as u64;
    m.l1_lines = l1.len() as u64;
    m.l2_lines = l2.len() as u64;
    m.dram_bytes = m.l2_lines * l2_line;
    m
}

/// One quantity's verdict: `Exact` ⇒ equality, `Bound` ⇒ domination.
fn check_one(
    what: &str,
    facts: &RefFacts,
    predicted: crate::Count,
    measured: u64,
) -> Option<String> {
    let violated = match predicted.tag {
        Exactness::Exact => predicted.value != measured,
        Exactness::Bound => predicted.value < measured,
    };
    if violated {
        Some(format!(
            "stmt {} slot {} ({}): {} {} {} vs measured {}",
            facts.stmt_pos,
            facts.slot,
            facts.array,
            what,
            predicted.tag.label(),
            predicted.value,
            measured
        ))
    } else {
        None
    }
}

/// Cross-check one reference's facts against its measured footprint.
/// Returns every violated quantity (empty = the contract holds).
pub fn cross_check_ref(facts: &RefFacts, m: &MeasuredFootprint) -> Vec<String> {
    let mut v = Vec::new();
    v.extend(check_one("elems", facts, facts.elems, m.elems));
    v.extend(check_one("l1-lines", facts, facts.l1_lines, m.l1_lines));
    v.extend(check_one("l2-lines", facts, facts.l2_lines, m.l2_lines));
    v.extend(check_one(
        "dram-bytes",
        facts,
        facts.dram_bytes,
        m.dram_bytes,
    ));
    v
}

/// Whole-program cross-check verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheckSummary {
    /// References checked.
    pub refs: usize,
    /// References whose four counts all carry `Exact` tags.
    pub exact_refs: usize,
    /// References carrying at least one `Bound` tag.
    pub bound_refs: usize,
    /// Violation descriptions, program order. Empty = contract holds.
    pub violations: Vec<String>,
}

impl CrossCheckSummary {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Cross-check every reference of `report` against enumeration of
/// `prog`. The report must have been computed from the same program
/// and line sizes.
pub fn cross_check_program(
    prog: &Program,
    report: &ReuseReport,
    l1_line: u64,
    l2_line: u64,
) -> CrossCheckSummary {
    let mut sum = CrossCheckSummary::default();
    for nest_reuse in &report.nests {
        let Some(nest) = prog.nests.get(nest_reuse.nest_pos) else {
            sum.violations
                .push(format!("nest {} missing from program", nest_reuse.nest_pos));
            continue;
        };
        cross_check_nest(prog, nest, nest_reuse, l1_line, l2_line, &mut sum);
    }
    sum
}

fn cross_check_nest(
    prog: &Program,
    nest: &LoopNest,
    nest_reuse: &NestReuse,
    l1_line: u64,
    l2_line: u64,
    sum: &mut CrossCheckSummary,
) {
    for facts in &nest_reuse.refs {
        let Some(stmt) = nest.body.get(facts.stmt_pos) else {
            sum.violations.push(format!(
                "nest {} stmt {} missing",
                nest_reuse.nest_pos, facts.stmt_pos
            ));
            continue;
        };
        let refs = stmt.array_refs();
        let Some(&(aref, _)) = refs.get(facts.slot as usize) else {
            sum.violations.push(format!(
                "nest {} stmt {} slot {} missing",
                nest_reuse.nest_pos, facts.stmt_pos, facts.slot
            ));
            continue;
        };
        sum.refs += 1;
        if facts.all_exact() {
            sum.exact_refs += 1;
        } else {
            sum.bound_refs += 1;
        }
        let m = measure_ref(prog, nest, aref, l1_line, l2_line);
        for v in cross_check_ref(facts, &m) {
            sum.violations
                .push(format!("nest {}: {v}", nest_reuse.nest_pos));
        }
    }
}
