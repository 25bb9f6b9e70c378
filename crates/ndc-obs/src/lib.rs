//! Determinism-preserving observability for the simulated datapath.
//!
//! The paper's argument is about *where* cycles go on the
//! L1→NoC→L2→NoC→MC→DRAM path; this crate gives every component a way
//! to say so without perturbing the simulation or its determinism
//! contract:
//!
//! * [`Metrics`] — an insertion-ordered tree of counters and
//!   window-bucket histograms, rendered through `ndc_types::Json`.
//!   Merging is defined per node kind (counters add, histograms merge,
//!   subtrees recurse), so per-worker trees collected by
//!   `ndc_par::parallel_map` in input order fold into one tree whose
//!   rendering is independent of thread count.
//! * [`ObsSink`] — the event hook the hot path talks to. Its default
//!   methods are no-ops and [`NullSink`] is a zero-sized implementor,
//!   so a disabled sink costs one predictable branch. [`RingSink`]
//!   keeps a bounded ring of [`Event`]s (oldest dropped first) for
//!   trace emission.
//! * [`trace_json`] — Chrome trace-format JSON (`chrome://tracing`,
//!   Perfetto) assembly from per-run event streams.
//!
//! Nothing in here reads clocks or random state: timestamps are
//! simulated cycles supplied by the caller, and every container
//! preserves insertion order.

#![forbid(unsafe_code)]

use ndc_types::{Cycle, Json, WindowHistogram, BUCKET_LABELS};

pub mod ledger;
pub mod sketch;
pub mod span;

/// How much observability a run should collect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsLevel {
    /// Collect the per-component [`Metrics`] tree.
    pub metrics: bool,
    /// Capacity of the trace event ring; `0` disables event capture.
    pub trace_capacity: usize,
    /// Causal span tracing: sample one request in `span_one_in`
    /// (deterministically, by request id — see [`span::SpanSampler`]);
    /// `0` disables span collection.
    pub span_one_in: u32,
    /// Collect the per-tenant [`ledger::AttributionLedger`] (cycle,
    /// byte, and flit-hop attribution plus latency sketches).
    pub ledger: bool,
}

impl ObsLevel {
    /// Everything off — the default for figure runs.
    pub fn off() -> ObsLevel {
        ObsLevel::default()
    }

    /// Metrics tree only.
    pub fn metrics() -> ObsLevel {
        ObsLevel {
            metrics: true,
            ..ObsLevel::default()
        }
    }

    /// Metrics tree plus a bounded event trace.
    pub fn with_trace(capacity: usize) -> ObsLevel {
        ObsLevel {
            metrics: true,
            trace_capacity: capacity,
            ..ObsLevel::default()
        }
    }

    /// Metrics tree plus span traces for one request in `one_in`.
    pub fn with_spans(one_in: u32) -> ObsLevel {
        ObsLevel {
            metrics: true,
            span_one_in: one_in.max(1),
            ..ObsLevel::default()
        }
    }

    /// Metrics tree plus the attribution ledger — the `profile` level.
    pub fn with_ledger() -> ObsLevel {
        ObsLevel {
            metrics: true,
            ledger: true,
            ..ObsLevel::default()
        }
    }

    /// True when any collection is requested.
    pub fn any(&self) -> bool {
        self.metrics || self.trace_capacity > 0 || self.span_one_in > 0 || self.ledger
    }
}

/// How much runtime invariant checking a run should collect. Mirrors
/// [`ObsLevel`]: `off()` is the default for figure runs and must leave
/// simulator output byte-identical; `full()` makes the engine record a
/// fine-grained check-event stream (see [`chk`]) that `ndc-check`
/// validates against the simulator's conservation laws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckLevel {
    /// Collect the check-event stream for invariant validation.
    pub invariants: bool,
}

impl CheckLevel {
    /// No checking — the default for figure runs.
    pub fn off() -> CheckLevel {
        CheckLevel::default()
    }

    /// Record the full check-event stream.
    pub fn full() -> CheckLevel {
        CheckLevel { invariants: true }
    }

    /// True when any checking is requested.
    pub fn any(&self) -> bool {
        self.invariants
    }
}

/// The check-event contract shared by the emitters (`ndc-sim`'s
/// `CheckRecorder` and `ndc-noc`'s flit log) and the validator
/// (`ndc-check`).
///
/// The stream is a `Vec` of 16-byte [`chk::CheckRecord`]s, each
/// carrying exactly three fields: its [`chk::CheckKind`] (one byte),
/// one `u32` id, and the timestamp `ts` in simulated cycles.
///
/// - **Request-path records** (`Issue` … `Retire`): `id` is the request
///   id, numbered densely from 0 in recording order. Each request's
///   records appear in path order,
///   `Issue → [L2Req] → [MemQueue → MemService → MemDone] →
///   [DataAtBank] → Retire`, with non-decreasing `ts`.
/// - **Flit records** (`FlitEnter`, `FlitExit`): `id` is the link id.
///   Each link traversal writes one `FlitEnter` (`ts` = slot entry)
///   directly followed by its `FlitExit` (`ts` = exit from the
///   downstream router), so per-link occupancy computed from the pair
///   sweep is non-negative and drains to zero.
///
/// Every request-path record precedes every flit record. Neither kind
/// records the issuing core, the requester of a flit or a duration:
/// no invariant reads them.
pub mod chk {
    pub use ndc_types::check::{CheckKind, CheckRecord};
}

/// One node in a [`Metrics`] tree.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricNode {
    /// A monotonically accumulated count (cycles, events, bytes…).
    Counter(u64),
    /// A distribution over the paper's window buckets.
    Hist(WindowHistogram),
    /// A named subtree.
    Tree(Metrics),
}

/// An insertion-ordered tree of named metrics.
///
/// Keys keep first-insertion order so the rendered JSON is byte-stable;
/// lookups are linear, which is fine at the tens-of-entries scale this
/// tree has (per component, per bank, per link).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, MetricNode)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Set (or overwrite) a counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.put(name, MetricNode::Counter(value));
        self
    }

    /// Add to a counter, creating it at zero first if absent.
    pub fn add(&mut self, name: &str, delta: u64) -> &mut Self {
        match self.entry_mut(name) {
            Some(MetricNode::Counter(c)) => *c += delta,
            Some(other) => panic!("metric {name:?} is not a counter: {other:?}"),
            None => self.put(name, MetricNode::Counter(delta)),
        }
        self
    }

    /// Set (or overwrite) a histogram.
    pub fn hist(&mut self, name: &str, h: &WindowHistogram) -> &mut Self {
        self.put(name, MetricNode::Hist(h.clone()));
        self
    }

    /// Get-or-create a subtree and hand back a mutable reference.
    pub fn tree(&mut self, name: &str) -> &mut Metrics {
        if self.entry_mut(name).is_none() {
            self.put(name, MetricNode::Tree(Metrics::new()));
        }
        match self.entry_mut(name) {
            Some(MetricNode::Tree(t)) => t,
            Some(other) => panic!("metric {name:?} is not a subtree: {other:?}"),
            None => unreachable!(),
        }
    }

    /// Look up a node by name.
    pub fn get(&self, name: &str) -> Option<&MetricNode> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Convenience: the value of a counter, or `None`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricNode::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Number of direct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold another tree into this one: counters add, histograms merge,
    /// subtrees recurse; keys absent here are appended in the other
    /// tree's order. Merging worker trees in input order therefore
    /// yields the same tree — same keys, same order, same totals — as a
    /// serial run.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.entries {
            match self.entry_mut(k) {
                None => self.put(k, v.clone()),
                Some(mine) => match (mine, v) {
                    (MetricNode::Counter(a), MetricNode::Counter(b)) => *a += *b,
                    (MetricNode::Hist(a), MetricNode::Hist(b)) => a.merge(b),
                    (MetricNode::Tree(a), MetricNode::Tree(b)) => a.merge(b),
                    (mine, theirs) => {
                        panic!("metric {k:?} kind mismatch: {mine:?} vs {theirs:?}")
                    }
                },
            }
        }
    }

    /// Render as a JSON object. Counters become numbers; histograms
    /// become `{bucket label: count, ..., "total": n}` objects; subtrees
    /// nest.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, v) in &self.entries {
            match v {
                MetricNode::Counter(c) => {
                    obj.set(k.clone(), *c);
                }
                MetricNode::Hist(h) => {
                    let mut hj = Json::obj();
                    for (b, label) in BUCKET_LABELS.iter().enumerate() {
                        hj.set(*label, h.count(b));
                    }
                    hj.set("total", h.total());
                    obj.set(k.clone(), hj);
                }
                MetricNode::Tree(t) => {
                    obj.set(k.clone(), t.to_json());
                }
            }
        }
        obj
    }

    fn entry_mut(&mut self, name: &str) -> Option<&mut MetricNode> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    fn put(&mut self, name: &str, node: MetricNode) {
        if let Some(slot) = self.entry_mut(name) {
            *slot = node;
        } else {
            self.entries.push((name.to_string(), node));
        }
    }
}

/// One trace-ring event: a named duration on a simulated timeline.
///
/// `pid`/`tid` map to Chrome-trace process/thread rows; we use pid for
/// the run (benchmark × scheme) and tid for the simulated core or
/// component lane. Every name the simulator emits comes from a finite
/// set (the engine's static trace-name tables), so an event is a plain
/// `Copy` value and recording one never allocates. The invariant
/// checker's stream uses the smaller [`chk::CheckRecord`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub name: &'static str,
    /// Category string, comma-separable in trace viewers.
    pub cat: &'static str,
    /// Start, in simulated cycles.
    pub ts: Cycle,
    /// Duration, in simulated cycles.
    pub dur: Cycle,
    pub pid: u32,
    pub tid: u32,
}

/// The hook the simulated datapath reports through. All methods have
/// no-op defaults so the disabled path ([`NullSink`]) costs a branch on
/// [`ObsSink::enabled`] and nothing else.
pub trait ObsSink {
    /// Cheap gate the hot path checks before building an [`Event`].
    fn enabled(&self) -> bool {
        false
    }

    /// Record one event. Implementations must be deterministic
    /// functions of the call sequence.
    fn record(&mut self, _ev: Event) {}
}

/// The do-nothing sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// A bounded ring of events: when full, the oldest event is dropped
/// and counted, so a long run keeps its *latest* window of activity —
/// the part that usually explains a tail — in bounded memory. Drops
/// are tallied per event category so a `--metrics` dump can say *whose*
/// history was truncated, not just that something was.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    cap: usize,
    events: std::collections::VecDeque<Event>,
    dropped: u64,
    /// Per-category eviction counts, in first-eviction order.
    dropped_by_cat: Vec<(&'static str, u64)>,
}

impl RingSink {
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap,
            events: std::collections::VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
            dropped_by_cat: Vec::new(),
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Consume the sink, returning retained events oldest-first.
    pub fn into_events(self) -> Vec<Event> {
        self.events.into()
    }

    /// How many events were evicted to keep the ring bounded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evictions per event category, in first-eviction order.
    pub fn dropped_by_cat(&self) -> &[(&'static str, u64)] {
        &self.dropped_by_cat
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl ObsSink for RingSink {
    fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn record(&mut self, ev: Event) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            let old = self.events.pop_front().expect("ring at capacity");
            self.dropped += 1;
            match self.dropped_by_cat.iter_mut().find(|(c, _)| *c == old.cat) {
                Some((_, n)) => *n += 1,
                None => self.dropped_by_cat.push((old.cat, 1)),
            }
        }
        self.events.push_back(ev);
    }
}

/// Assemble Chrome trace-format JSON from per-run event streams.
///
/// Each `(label, events)` pair becomes one trace "process": a `ph:"M"`
/// `process_name` metadata record naming it, followed by its events as
/// `ph:"X"` complete-duration records. The result loads directly in
/// `chrome://tracing` or Perfetto. Cycle timestamps are emitted as
/// microseconds 1:1 (viewers need *some* time unit; relative spans are
/// what matter).
pub fn trace_json(runs: &[(String, Vec<Event>)]) -> Json {
    let mut events = Vec::new();
    for (pid, (label, evs)) in runs.iter().enumerate() {
        let pid = pid as u32;
        events.push(
            Json::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", pid)
                .with("tid", 0u32)
                .with("args", Json::obj().with("name", label.clone())),
        );
        for ev in evs {
            events.push(
                Json::obj()
                    .with("name", ev.name)
                    .with("cat", ev.cat)
                    .with("ph", "X")
                    .with("ts", ev.ts)
                    .with("dur", ev.dur)
                    .with("pid", pid)
                    .with("tid", ev.tid),
            );
        }
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", "ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts: Cycle) -> Event {
        Event {
            name,
            cat: "test",
            ts,
            dur: 1,
            pid: 0,
            tid: 0,
        }
    }

    #[test]
    fn counters_add_and_render() {
        let mut m = Metrics::new();
        m.counter("requests", 3).add("requests", 2).add("hits", 1);
        assert_eq!(m.counter_value("requests"), Some(5));
        assert_eq!(m.counter_value("hits"), Some(1));
        assert_eq!(m.to_json().render(), r#"{"requests":5,"hits":1}"#);
    }

    #[test]
    fn trees_nest_and_keep_insertion_order() {
        let mut m = Metrics::new();
        m.tree("noc").counter("messages", 7);
        m.tree("dram").counter("row_hits", 2);
        m.tree("noc").counter("queueing", 9);
        assert_eq!(
            m.to_json().render(),
            r#"{"noc":{"messages":7,"queueing":9},"dram":{"row_hits":2}}"#
        );
    }

    #[test]
    fn hist_renders_bucket_labels() {
        let mut h = WindowHistogram::new();
        h.record(Some(5));
        h.record(None);
        let mut m = Metrics::new();
        m.hist("window", &h);
        assert_eq!(
            m.to_json().render(),
            r#"{"window":{"1":0,"10":1,"20":0,"50":0,"100":0,"500":0,"500+":1,"total":2}}"#
        );
    }

    #[test]
    fn merge_is_order_insensitive_on_totals_and_keeps_self_order() {
        let mut a = Metrics::new();
        a.counter("x", 1);
        a.tree("sub").counter("y", 10);
        let mut b = Metrics::new();
        b.tree("sub").counter("y", 5);
        b.counter("x", 2);
        b.counter("z", 4);

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counter_value("x"), Some(3));
        assert_eq!(ab.counter_value("z"), Some(4));
        match ab.get("sub") {
            Some(MetricNode::Tree(t)) => assert_eq!(t.counter_value("y"), Some(15)),
            other => panic!("expected subtree, got {other:?}"),
        }
        // Self's key order wins; new keys append.
        assert_eq!(ab.to_json().render(), r#"{"x":3,"sub":{"y":15},"z":4}"#);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Metrics::new();
        a.counter("x", 1);
        let before = a.to_json().render();
        a.merge(&Metrics::new());
        assert_eq!(a.to_json().render(), before);

        let mut e = Metrics::new();
        e.merge(&a);
        assert_eq!(e.to_json().render(), before);
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
    }

    #[test]
    fn ring_sink_bounds_and_keeps_latest() {
        let mut s = RingSink::new(3);
        assert!(s.enabled());
        for i in 0..5 {
            s.record(ev("e", i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let ts: Vec<Cycle> = s.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        // Both evictions were category "test".
        assert_eq!(s.dropped_by_cat(), &[("test", 2)]);
    }

    #[test]
    fn ring_sink_attributes_drops_per_category() {
        let mut s = RingSink::new(1);
        s.record(Event {
            cat: "a",
            ..ev("e", 0)
        });
        s.record(Event {
            cat: "b",
            ..ev("e", 1)
        });
        s.record(Event {
            cat: "a",
            ..ev("e", 2)
        });
        s.record(ev("e", 3)); // evicts the "a" at ts=2
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.dropped_by_cat(), &[("a", 2), ("b", 1)]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut s = RingSink::new(0);
        assert!(!s.enabled());
        s.record(ev("e", 1));
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
        assert!(s.dropped_by_cat().is_empty());
    }

    #[test]
    fn trace_json_has_metadata_then_events() {
        let runs = vec![
            ("kdtree/baseline".to_string(), vec![ev("mshr_stall", 10)]),
            ("kdtree/alg1".to_string(), vec![]),
        ];
        let s = trace_json(&runs).render();
        assert!(s.starts_with(r#"{"traceEvents":["#));
        assert!(s.contains(r#""name":"process_name","ph":"M","pid":0"#));
        assert!(s.contains(r#""args":{"name":"kdtree/baseline"}"#));
        assert!(s.contains(
            r#""name":"mshr_stall","cat":"test","ph":"X","ts":10,"dur":1,"pid":0,"tid":0"#
        ));
        assert!(s.contains(r#""args":{"name":"kdtree/alg1"}"#));
        assert!(s.ends_with(r#""displayTimeUnit":"ns"}"#));
    }

    #[test]
    fn obs_level_constructors() {
        assert!(!ObsLevel::off().any());
        assert!(ObsLevel::metrics().metrics);
        assert_eq!(ObsLevel::with_trace(64).trace_capacity, 64);
        assert!(ObsLevel::with_trace(64).any());
        assert_eq!(ObsLevel::metrics().span_one_in, 0);
        assert_eq!(ObsLevel::with_spans(8).span_one_in, 8);
        assert_eq!(ObsLevel::with_spans(0).span_one_in, 1);
        assert!(ObsLevel::with_spans(8).any());
        assert!(ObsLevel::with_ledger().ledger);
        assert!(ObsLevel::with_ledger().any());
        assert!(!ObsLevel::metrics().ledger);
    }

    #[test]
    fn check_level_constructors() {
        assert!(!CheckLevel::off().any());
        assert!(CheckLevel::full().invariants);
        assert!(CheckLevel::full().any());
        assert_eq!(CheckLevel::default(), CheckLevel::off());
    }
}
