//! Per-reference analysis facts and the whole-program report.

use crate::classify::{classify, ReuseClass};
use crate::form::{AddressForm, Count, Exactness};
use ndc_ir::affine::{decl_of, in_bounds};
use ndc_ir::program::{LoopNest, Program, Stmt};

/// Everything the analysis proves about one array reference of one
/// nest: its reuse class and its distinct-footprint counts, each
/// carrying an `Exact`/`Bound` soundness tag.
#[derive(Debug, Clone, PartialEq)]
pub struct RefFacts {
    /// Statement position in body order.
    pub stmt_pos: usize,
    /// Slot in `Stmt::array_refs()` order (reads then write).
    pub slot: u8,
    /// Array name, for attribution in reports.
    pub array: String,
    pub is_write: bool,
    /// The bounds verdict of `ndc_ir::affine::in_bounds`; an unproven
    /// reference performs only a subset of its affine image, so every
    /// count is downgraded to `Bound`.
    pub in_bounds: bool,
    pub class: ReuseClass,
    /// Dynamic accesses the nest issues through this reference.
    pub accesses: u64,
    /// Distinct elements touched.
    pub elems: Count,
    /// Distinct L1 lines touched.
    pub l1_lines: Count,
    /// Distinct L2 lines touched — the compulsory DRAM fill count.
    pub l2_lines: Count,
    /// Compulsory DRAM byte volume (`l2_lines × l2_line_bytes`).
    pub dram_bytes: Count,
}

impl RefFacts {
    /// All four counts proven exact.
    pub fn all_exact(&self) -> bool {
        [self.elems, self.l1_lines, self.l2_lines, self.dram_bytes]
            .iter()
            .all(|c| c.tag == Exactness::Exact)
    }
}

/// Analysis results for one loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct NestReuse {
    /// Nest position in program order.
    pub nest_pos: usize,
    pub points: u64,
    /// One entry per array reference, statement then slot order.
    pub refs: Vec<RefFacts>,
}

/// The whole-program reuse report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseReport {
    pub nests: Vec<NestReuse>,
}

impl ReuseReport {
    pub fn get(&self, nest_pos: usize, stmt_pos: usize, slot: u8) -> Option<&RefFacts> {
        self.nests
            .iter()
            .find(|n| n.nest_pos == nest_pos)?
            .refs
            .iter()
            .find(|r| r.stmt_pos == stmt_pos && r.slot == slot)
    }

    pub fn total_refs(&self) -> usize {
        self.nests.iter().map(|n| n.refs.len()).sum()
    }

    pub fn exact_refs(&self) -> usize {
        self.nests
            .iter()
            .flat_map(|n| &n.refs)
            .filter(|r| r.all_exact())
            .count()
    }

    pub fn bound_refs(&self) -> usize {
        self.total_refs() - self.exact_refs()
    }
}

/// Analyze one reference: canonical form, classification, footprint
/// counts. Falls back to trivial `Bound` facts (capped by accesses and
/// array size) when the reference's shape defeats the form builder.
/// The form comes back beside the facts, so a caller that pairs
/// references builds each form once.
pub fn analyze_ref(
    prog: &Program,
    nest: &LoopNest,
    stmt: &Stmt,
    stmt_pos: usize,
    slot: u8,
    l1_line: u64,
    l2_line: u64,
) -> Option<(RefFacts, Option<AddressForm>)> {
    let (aref, is_write) = *stmt.array_refs().get(slot as usize)?;
    let decl = prog.arrays.get(aref.array.0 as usize);
    let accesses = nest.points();
    let form = AddressForm::build(prog, nest, aref);
    let (in_bounds, class, elems, l1_lines, l2_lines) = match &form {
        Some(form) => {
            let in_bounds =
                decl_of(prog, aref, nest.depth()).is_some_and(|d| in_bounds(d, aref, nest));
            // Out-of-bounds accesses address nothing, so the affine
            // image over-approximates the touched set: sound only as a
            // bound.
            let tag = |c: Count| if in_bounds { c } else { c.relaxed() };
            let (l1, l2) = (form.distinct_lines(l1_line), form.distinct_lines(l2_line));
            let class = classify(form, l1_line);
            (
                in_bounds,
                class,
                tag(form.distinct_elements()),
                tag(l1),
                tag(l2),
            )
        }
        None => {
            // Shape mismatch (reported by the verifier): everything the
            // reference could touch is bounded by its access count and
            // the array's size.
            let cap = Count::bound(decl.map_or(0, |a| a.elements()).min(accesses));
            (
                false,
                ReuseClass::NoReuse { stride_bytes: 0 },
                cap,
                cap,
                cap,
            )
        }
    };
    let facts = RefFacts {
        stmt_pos,
        slot,
        array: decl.map_or_else(|| format!("array#{}", aref.array.0), |a| a.name.clone()),
        is_write,
        in_bounds,
        class,
        accesses,
        elems,
        l1_lines,
        l2_lines,
        dram_bytes: l2_lines.times(l2_line),
    };
    Some((facts, form))
}

/// Analyze every reference of one nest.
pub fn analyze_nest(
    prog: &Program,
    nest_pos: usize,
    nest: &LoopNest,
    l1_line: u64,
    l2_line: u64,
) -> NestReuse {
    let mut refs = Vec::new();
    for (stmt_pos, stmt) in nest.body.iter().enumerate() {
        for slot in 0..stmt.array_refs().len() {
            if let Some((f, _)) =
                analyze_ref(prog, nest, stmt, stmt_pos, slot as u8, l1_line, l2_line)
            {
                refs.push(f);
            }
        }
    }
    NestReuse {
        nest_pos,
        points: nest.points(),
        refs,
    }
}

/// Analyze the whole program (nests in program order).
pub fn analyze_program(prog: &Program, l1_line: u64, l2_line: u64) -> ReuseReport {
    ReuseReport {
        nests: prog
            .nests
            .iter()
            .enumerate()
            .map(|(pos, nest)| analyze_nest(prog, pos, nest, l1_line, l2_line))
            .collect(),
    }
}
