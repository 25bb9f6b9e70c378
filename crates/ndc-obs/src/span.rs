//! Causal span trees: per-request critical-path attribution.
//!
//! A [`SpanTrace`] is the full story of one sampled memory request: a
//! tree of labelled `[start, end)` intervals covering every segment of
//! the L1→NoC→L2→NoC→MC→DRAM path it actually took (plus the NDC
//! execution spans the engine adds for offloaded computes). The
//! structural contract — enforced by [`Span::partition_violation`] and
//! by `ndc-check`'s span-attribution invariant — is **exact
//! partitioning**: the children of every non-leaf span tile its
//! interval with no gap and no overlap, so summing any level of the
//! tree reproduces the root's end-to-end latency exactly. Time the
//! datapath cannot attribute to a component is never silently lost;
//! the recorder closes gaps with explicit residue leaves labelled
//! [`QUEUE`] or [`STALL`] via [`Span::fill_residue`].
//!
//! Labels are [`Label`]s — a static name or a link id — so building a
//! tree allocates only its child lists.
//!
//! Sampling ([`SpanSampler`]) is a pure function of the request id and
//! a seed — never of thread, wall clock, or iteration order — so the
//! set of sampled requests (and therefore the rendered traces) is
//! byte-identical at any `NDC_THREADS`.

use ndc_types::{Cycle, SplitMix64};
use std::fmt;

/// Residue label for time spent waiting behind earlier traffic
/// (link queues, MC queues, DRAM bank contention).
pub const QUEUE: &str = "queue";
/// Residue label for time the request held a resource without
/// progressing (e.g. the core stalled on an in-flight line).
pub const STALL: &str = "stall";

/// A span's label: a fixed segment name (`l1`, `noc:req`, `dram:hit`,
/// `ndc@cache`, …) or one hop on a link, rendered `link:<id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Name(&'static str),
    Link(u32),
}

impl Label {
    /// The segment [`decompose`] groups this label under: the name
    /// itself, or `link` for every hop.
    pub(crate) fn segment(self) -> &'static str {
        match self {
            Label::Name(name) => name,
            Label::Link(_) => "link",
        }
    }
}

impl From<&'static str> for Label {
    fn from(name: &'static str) -> Label {
        Label::Name(name)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Name(name) => f.write_str(name),
            Label::Link(id) => write!(f, "link:{id}"),
        }
    }
}

/// One labelled interval in a span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub label: Label,
    pub start: Cycle,
    pub end: Cycle,
    pub children: Vec<Span>,
}

impl Span {
    pub fn new(label: impl Into<Label>, start: Cycle, end: Cycle) -> Span {
        Span {
            label: label.into(),
            start,
            end,
            children: Vec::new(),
        }
    }

    /// Duration in cycles.
    pub fn dur(&self) -> Cycle {
        self.end - self.start
    }

    /// Append a child span (children must be pushed in time order).
    pub fn push(&mut self, child: Span) {
        self.children.push(child);
    }

    /// Convenience: append a leaf child.
    pub fn leaf(&mut self, label: impl Into<Label>, start: Cycle, end: Cycle) {
        self.push(Span::new(label, start, end));
    }

    /// Close every gap at this level with residue leaves labelled
    /// `residue`, so the children exactly partition `[start, end)`.
    /// Zero-length gaps produce no span. Works in place: a level
    /// without gaps is left untouched, and each residue is inserted
    /// before the child it precedes. Does not recurse: each level
    /// chooses its own residue label (`queue` inside the NoC and MC,
    /// `stall` at the request root).
    pub fn fill_residue(&mut self, residue: &'static str) {
        if self.children.is_empty() {
            return;
        }
        let mut cursor = self.start;
        let mut i = 0;
        while i < self.children.len() {
            let (start, end) = (self.children[i].start, self.children[i].end);
            if start > cursor {
                self.children.insert(i, Span::new(residue, cursor, start));
                i += 1;
            }
            cursor = end;
            i += 1;
        }
        if cursor < self.end {
            self.children.push(Span::new(residue, cursor, self.end));
        }
    }

    /// Recursively verify the exact-partition contract. Returns a
    /// description of the first violation, or `None` if every non-leaf
    /// span's children tile its interval exactly.
    pub fn partition_violation(&self) -> Option<String> {
        if self.end < self.start {
            return Some(format!(
                "span '{}' ends before it starts: [{}, {})",
                self.label, self.start, self.end
            ));
        }
        if self.children.is_empty() {
            return None;
        }
        let mut cursor = self.start;
        for child in &self.children {
            if child.start != cursor {
                return Some(format!(
                    "child '{}' of '{}' starts at {} but the covered prefix ends at {}",
                    child.label, self.label, child.start, cursor
                ));
            }
            if let Some(v) = child.partition_violation() {
                return Some(v);
            }
            cursor = child.end;
        }
        if cursor != self.end {
            return Some(format!(
                "children of '{}' cover [{}, {}) but the span ends at {}",
                self.label, self.start, cursor, self.end
            ));
        }
        None
    }

    /// Visit every leaf of the tree, in time order.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(&Span)) {
        if self.children.is_empty() {
            f(self);
        } else {
            for c in &self.children {
                c.for_each_leaf(f);
            }
        }
    }
}

/// The complete span tree of one sampled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTrace {
    /// Request id (issue order — identical at any thread count).
    pub id: u64,
    /// Issuing core (or NDC location index for offload spans).
    pub core: u32,
    /// Request address (0 for NDC execution spans).
    pub addr: u64,
    pub root: Span,
}

impl SpanTrace {
    /// End-to-end latency of the traced request.
    pub fn latency(&self) -> Cycle {
        self.root.dur()
    }
}

/// Deterministic request sampler: keep a request iff a SplitMix64 draw
/// keyed *only* by `(seed, id)` lands in the `1/one_in` acceptance
/// window. `one_in <= 1` keeps everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampler {
    seed: u64,
    one_in: u32,
}

impl SpanSampler {
    pub fn new(seed: u64, one_in: u32) -> SpanSampler {
        SpanSampler { seed, one_in }
    }

    /// Should the request with this id be traced?
    pub fn keep(&self, id: u64) -> bool {
        if self.one_in <= 1 {
            return true;
        }
        let mut g = SplitMix64::new(self.seed ^ id.wrapping_mul(0xa076_1d64_78bd_642f));
        g.below(self.one_in as u64) == 0
    }

    /// The sampling rate (for reporting).
    pub fn one_in(&self) -> u32 {
        self.one_in.max(1)
    }
}

/// Sum leaf durations across traces, grouped by segment: a leaf's
/// name, or `link` for every hop. Output is sorted by segment name
/// (deterministic).
pub fn decompose(traces: &[SpanTrace]) -> Vec<(&'static str, Cycle)> {
    let mut by_seg = std::collections::BTreeMap::<&'static str, Cycle>::new();
    for t in traces {
        t.root.for_each_leaf(&mut |leaf| {
            *by_seg.entry(leaf.label.segment()).or_insert(0) += leaf.dur();
        });
    }
    by_seg.into_iter().collect()
}

/// Render one trace as an indented text tree (deterministic; used by
/// `ndc-eval explain` and the thread-count diff in verify.sh).
pub fn render_tree(trace: &SpanTrace) -> String {
    let mut out = format!(
        "req#{} core={} addr={:#x} latency={}\n",
        trace.id,
        trace.core,
        trace.addr,
        trace.latency()
    );
    render_span(&trace.root, 1, &mut out);
    out
}

fn render_span(span: &Span, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{}{} [{}, {}) {}",
        "  ".repeat(depth),
        span.label,
        span.start,
        span.end,
        span.dur()
    );
    for c in &span.children {
        render_span(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(root: Span) -> SpanTrace {
        SpanTrace {
            id: 7,
            core: 2,
            addr: 0x40,
            root,
        }
    }

    #[test]
    fn fill_residue_tiles_the_parent_exactly() {
        let mut s = Span::new("req", 100, 160);
        s.leaf("l1", 100, 104);
        s.leaf("l2", 120, 130); // gap 104..120
        s.fill_residue(STALL); // and tail gap 130..160
        assert_eq!(s.partition_violation(), None);
        let labels: Vec<Label> = s.children.iter().map(|c| c.label).collect();
        assert_eq!(labels, ["l1", STALL, "l2", STALL].map(Label::Name));
        let total: Cycle = s.children.iter().map(Span::dur).sum();
        assert_eq!(total, s.dur());
    }

    #[test]
    fn fill_residue_is_a_noop_on_exact_children() {
        let mut s = Span::new("req", 0, 10);
        s.leaf("a", 0, 4);
        s.leaf("b", 4, 10);
        s.fill_residue(QUEUE);
        assert_eq!(s.children.len(), 2);
        assert_eq!(s.partition_violation(), None);
    }

    /// The fill `fill_residue` replaced, which rebuilt the child list.
    fn rebuilt_fill(span: &Span, residue: &'static str) -> Vec<Span> {
        let mut filled = Vec::new();
        let mut cursor = span.start;
        for child in &span.children {
            if child.start > cursor {
                filled.push(Span::new(residue, cursor, child.start));
            }
            cursor = child.end;
            filled.push(child.clone());
        }
        if cursor < span.end && !span.children.is_empty() {
            filled.push(Span::new(residue, cursor, span.end));
        }
        filled
    }

    #[test]
    fn fill_residue_in_place_equals_the_rebuilt_list() {
        for case in 0..256u64 {
            let mut rng = SplitMix64::new(0x5eed_0000 + case);
            let start = rng.below(50);
            let mut s = Span::new("req", start, start + rng.below(120));
            // Children in time order, with gaps, abutting and the odd
            // overlap.
            let mut t = start;
            for _ in 0..rng.below(8) {
                let a = (t + rng.below(12)).saturating_sub(rng.below(3));
                let b = a + rng.below(15);
                s.leaf(Label::Link(rng.below(80) as u32), a, b);
                t = b;
            }
            let want = rebuilt_fill(&s, QUEUE);
            s.fill_residue(QUEUE);
            assert_eq!(s.children, want, "case {case}");
        }
    }

    #[test]
    fn partition_violation_reports_gap_overlap_and_overhang() {
        let mut gap = Span::new("req", 0, 10);
        gap.leaf("a", 0, 3);
        gap.leaf("b", 5, 10);
        assert!(gap.partition_violation().unwrap().contains("starts at 5"));

        let mut short = Span::new("req", 0, 10);
        short.leaf("a", 0, 8);
        assert!(short.partition_violation().unwrap().contains("ends at 10"));

        let mut nested = Span::new("req", 0, 10);
        let mut mid = Span::new("noc", 0, 10);
        mid.leaf(Label::Link(0), 0, 4); // inner gap 4..10
        nested.push(mid);
        assert!(nested.partition_violation().is_some());
    }

    #[test]
    fn sampler_is_a_pure_function_of_id() {
        let s = SpanSampler::new(0xfeed, 8);
        let a: Vec<bool> = (0..256).map(|i| s.keep(i)).collect();
        let b: Vec<bool> = (0..256).map(|i| s.keep(i)).collect();
        assert_eq!(a, b);
        let kept = a.iter().filter(|&&k| k).count();
        // ~1/8 of 256 = 32; the seeded draw should land near it.
        assert!((8..=80).contains(&kept), "kept {kept} of 256");
        // one_in <= 1 keeps everything.
        assert!((0..64).all(|i| SpanSampler::new(1, 0).keep(i)));
        assert!((0..64).all(|i| SpanSampler::new(1, 1).keep(i)));
    }

    #[test]
    fn labels_render_and_group_by_segment() {
        assert_eq!(Label::Link(14).to_string(), "link:14");
        assert_eq!(Label::Link(14).segment(), "link");
        assert_eq!(Label::from("dram:hit").to_string(), "dram:hit");
        assert_eq!(Label::from("dram:hit").segment(), "dram:hit");
        assert_eq!(Label::from("ndc:gather").segment(), "ndc:gather");
    }

    #[test]
    fn decompose_sums_leaves_by_segment() {
        let mut root = Span::new("req", 0, 20);
        root.leaf("l1", 0, 4);
        let mut noc = Span::new("noc:req", 4, 16);
        noc.leaf(Label::Link(0), 4, 7);
        noc.leaf(Label::Link(5), 7, 12);
        noc.leaf(QUEUE, 12, 16);
        root.push(noc);
        root.leaf("l2", 16, 20);
        let d = decompose(&[trace(root)]);
        assert_eq!(d, vec![("l1", 4), ("l2", 4), ("link", 8), (QUEUE, 4)]);
        // Leaf segments account for the whole request.
        let total: Cycle = d.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn render_tree_is_indented_and_complete() {
        let mut root = Span::new("req", 0, 10);
        let mut noc = Span::new("noc:req", 0, 10);
        noc.leaf(Label::Link(3), 0, 10);
        root.push(noc);
        let text = render_tree(&trace(root));
        assert_eq!(
            text,
            "req#7 core=2 addr=0x40 latency=10\n  req [0, 10) 10\n    noc:req [0, 10) 10\n      link:3 [0, 10) 10\n"
        );
    }
}
