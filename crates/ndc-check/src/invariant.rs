//! Conservation-law invariants over a checked simulation run.
//!
//! Input is the [`ndc_sim::CheckData`] stream recorded by a
//! `CheckLevel::full()` run (the `ndc_obs::chk` record contract) plus
//! the run's [`ndc_sim::SimResult`] counters. Violations are reported
//! in id order (requests, then links), so reports are deterministic.

use ndc_obs::chk::{CheckKind, CheckRecord};
use ndc_obs::ledger::{AttributionLedger, NUM_LOCATIONS};
use ndc_obs::span::SpanTrace;
use ndc_sim::{CheckData, EngineOutput, SimResult};
use std::collections::BTreeMap;

/// The conservation laws the checker asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every issued request retires exactly once.
    RetireOnce,
    /// Per-link flit enters and exits pair up (occupancy non-negative,
    /// drained to zero at end of run).
    LinkOccupancy,
    /// Timestamps are monotonically non-decreasing along each request
    /// path.
    PathMonotonic,
    /// `ndc_performed + per-reason aborts == ndc_attempts`.
    NdcAccounting,
    /// DRAM row-buffer outcomes account for every controller request.
    DramAccounting,
    /// Every sampled span tree partitions its root exactly: child
    /// durations (including queue/stall residue) sum to the request's
    /// end-to-end latency at every level.
    SpanAttribution,
    /// The attribution ledger's column sums equal the simulator's
    /// global counters (NoC messages/flit-hops, DRAM bytes, NDC
    /// offload/wait cycles, request count), and each tenant row's
    /// gather + wait + exec + feed decomposition tiles its offload
    /// column exactly. Nothing charged twice, nothing dropped.
    LedgerConservation,
}

impl Invariant {
    pub fn label(&self) -> &'static str {
        match self {
            Invariant::RetireOnce => "retire-once",
            Invariant::LinkOccupancy => "link-occupancy",
            Invariant::PathMonotonic => "path-monotonic",
            Invariant::NdcAccounting => "ndc-accounting",
            Invariant::DramAccounting => "dram-accounting",
            Invariant::SpanAttribution => "span-attribution",
            Invariant::LedgerConservation => "ledger-conservation",
        }
    }
}

/// One invariant violation, with a human-readable locus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: Invariant,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant.label(), self.detail)
    }
}

/// Outcome of checking one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Distinct request ids seen in the stream.
    pub requests: usize,
    /// Distinct links seen in the stream.
    pub links: usize,
    /// Events examined.
    pub events: usize,
    pub violations: Vec<Violation>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether some violation of `inv` was found.
    pub fn violated(&self, inv: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == inv)
    }
}

/// Per-id state of [`check_stream`]. Ids below the stream's length
/// index a `Vec`; larger ones, which only a malformed stream has, go to
/// an ordered map, so memory stays O(events) whatever the ids are.
struct IdTable<T> {
    dense: Vec<T>,
    bound: usize,
    sparse: BTreeMap<u32, T>,
}

impl<T: Clone + Default> IdTable<T> {
    fn new(bound: usize) -> Self {
        IdTable {
            dense: Vec::new(),
            bound,
            sparse: BTreeMap::new(),
        }
    }

    fn get_mut(&mut self, id: u32) -> &mut T {
        let i = id as usize;
        if i >= self.bound {
            return self.sparse.entry(id).or_default();
        }
        if i >= self.dense.len() {
            self.dense.resize(i + 1, T::default());
        }
        &mut self.dense[i]
    }

    fn get(&self, id: u32) -> Option<&T> {
        let i = id as usize;
        if i < self.bound {
            self.dense.get(i)
        } else {
            self.sparse.get(&id)
        }
    }

    /// Every slot in id order (dense ids all precede sparse ones).
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let dense = self.dense.iter().enumerate().map(|(i, t)| (i as u32, t));
        dense.chain(self.sparse.iter().map(|(id, t)| (*id, t)))
    }
}

#[derive(Clone, Copy, Default)]
struct ReqState {
    issues: u64,
    retires: u64,
    /// Timestamp of the request's latest record; `None` until one is
    /// seen (a gap in the dense table).
    last_ts: Option<u64>,
    /// The first record that went back in time: (kind, ts, prior ts).
    broken: Option<(CheckKind, u64, u64)>,
}

#[derive(Clone, Copy, Default)]
struct LinkState {
    seen: bool,
    enters: u64,
    exits: u64,
    /// Some `flit_exit` on this link does not directly follow a
    /// `flit_enter` of the same link no later than it.
    unpaired: bool,
    /// Of an unpaired link with balanced counts: the first `i` whose
    /// `i`-th earliest exit precedes its `i`-th earliest enter, as
    /// (i, enter, exit).
    crossing: Option<(usize, u64, u64)>,
}

/// Check the stream-level invariants (retire-once, path monotonicity,
/// link occupancy) over a check-record stream.
///
/// One pass does O(1) work and no allocation per record, dispatching on
/// its kind byte: requests and links are tables indexed by id (the
/// recorder numbers requests densely from 0). Link occupancy is proven
/// without storing a timestamp: when every `FlitExit` of a link
/// directly follows a `FlitEnter` of the same link no later than it —
/// which is how the network writes its flit log — and the link has as
/// many enters as exits, those pairs match every enter to a distinct
/// exit no earlier than it, so occupancy never goes negative. Only a
/// link whose flits do not pair up that way (a malformed stream) has
/// its timestamps collected and sorted for the exact check.
pub fn check_stream(events: &[CheckRecord]) -> CheckReport {
    let mut report = CheckReport {
        events: events.len(),
        ..Default::default()
    };
    let mut reqs: IdTable<ReqState> = IdTable::new(events.len());
    let mut links: IdTable<LinkState> = IdTable::new(events.len());
    // The previous event, when it was a `flit_enter`: (link, ts).
    let mut prev_enter: Option<(u32, u64)> = None;

    for ev in events {
        let after_enter = prev_enter.take();
        match ev.kind {
            CheckKind::FlitEnter => {
                let st = links.get_mut(ev.id);
                st.seen = true;
                st.enters += 1;
                prev_enter = Some((ev.id, ev.ts));
            }
            CheckKind::FlitExit => {
                let st = links.get_mut(ev.id);
                st.seen = true;
                st.exits += 1;
                st.unpaired |= !after_enter.is_some_and(|(link, ts)| link == ev.id && ts <= ev.ts);
            }
            kind => {
                let st = reqs.get_mut(ev.id);
                match kind {
                    CheckKind::Issue => st.issues += 1,
                    CheckKind::Retire => st.retires += 1,
                    _ => {}
                }
                if let Some(prev) = st.last_ts {
                    if ev.ts < prev && st.broken.is_none() {
                        st.broken = Some((kind, ev.ts, prev));
                    }
                }
                st.last_ts = Some(ev.ts);
            }
        }
    }
    exact_crossings(events, &mut links);

    report.requests = reqs.iter().filter(|(_, st)| st.last_ts.is_some()).count();
    report.links = links.iter().filter(|(_, st)| st.seen).count();

    for (id, st) in reqs.iter() {
        if st.last_ts.is_none() {
            continue;
        }
        if st.issues != 1 || st.retires != 1 {
            report.violations.push(Violation {
                invariant: Invariant::RetireOnce,
                detail: format!(
                    "request {id}: {} issue(s), {} retire(s) (want exactly 1 of each)",
                    st.issues, st.retires
                ),
            });
        }
        if let Some((kind, ts, prev)) = st.broken {
            report.violations.push(Violation {
                invariant: Invariant::PathMonotonic,
                detail: format!(
                    "request {id}: {} at cycle {ts} precedes prior event at cycle {prev}",
                    kind.name()
                ),
            });
        }
    }

    for (link, st) in links.iter() {
        if !st.seen {
            continue;
        }
        if st.enters != st.exits {
            report.violations.push(Violation {
                invariant: Invariant::LinkOccupancy,
                detail: format!(
                    "link {link}: {} flit enters vs {} exits (occupancy does not drain to zero)",
                    st.enters, st.exits
                ),
            });
        } else if let Some((i, en, ex)) = st.crossing {
            report.violations.push(Violation {
                invariant: Invariant::LinkOccupancy,
                detail: format!(
                    "link {link}: {i}-th flit exit at cycle {ex} precedes its enter at cycle {en}"
                ),
            });
        }
    }

    report
}

/// The exact occupancy check for links whose flits did not pair up:
/// pairing the i-th earliest enter with the i-th earliest exit must
/// never require an exit before its enter — otherwise occupancy went
/// negative at some point. Links with unequal counts are reported by
/// count alone and skipped here.
fn exact_crossings(events: &[CheckRecord], links: &mut IdTable<LinkState>) {
    let suspect = |st: &LinkState| st.unpaired && st.enters == st.exits;
    if !links.iter().any(|(_, st)| suspect(st)) {
        return;
    }
    // (link, is_exit, ts): sorted, each link's enters come first, then
    // its exits, each in time order.
    let mut flits: Vec<(u32, bool, u64)> = events
        .iter()
        .filter(|ev| ev.kind.is_link() && links.get(ev.id).is_some_and(suspect))
        .map(|ev| (ev.id, ev.kind == CheckKind::FlitExit, ev.ts))
        .collect();
    flits.sort_unstable();
    for group in flits.chunk_by(|a, b| a.0 == b.0) {
        let (enters, exits) = group.split_at(group.len() / 2);
        links.get_mut(group[0].0).crossing = enters
            .iter()
            .zip(exits)
            .enumerate()
            .find(|(_, (en, ex))| ex.2 < en.2)
            .map(|(i, (en, ex))| (i, en.2, ex.2));
    }
}

/// Check the counter-level conservation laws of a [`SimResult`]:
/// every NDC attempt either performed or aborted with a tallied reason.
pub fn check_counters(result: &SimResult) -> Vec<Violation> {
    let mut v = Vec::new();
    let attempts = result.ndc_attempts;
    let accounted = result.ndc_total() + result.ndc_abort_reasons.iter().sum::<u64>();
    if attempts != accounted {
        v.push(Violation {
            invariant: Invariant::NdcAccounting,
            detail: format!(
                "ndc_attempts = {attempts} but performed + per-reason aborts = {accounted}"
            ),
        });
    }
    v
}

/// Check the span-attribution invariant over the sampled span traces
/// of a run: every tree tiles its root exactly (no gap, no overlap,
/// residue labelled), so child durations sum to the end-to-end latency.
pub fn check_spans(spans: &[SpanTrace]) -> Vec<Violation> {
    let mut v = Vec::new();
    for t in spans {
        if let Some(detail) = t.root.partition_violation() {
            v.push(Violation {
                invariant: Invariant::SpanAttribution,
                detail: format!("req#{} (core {}): {detail}", t.id, t.core),
            });
        }
    }
    v
}

/// Check the ledger-conservation invariant: the attribution ledger's
/// column sums must equal the simulator's independently recorded global
/// counters, and every tenant row must be internally consistent
/// (decomposition tiles offload, sketch counts match charge counts).
///
/// This is what makes the ledger trustworthy: a dropped, doubled, or
/// mis-clamped charge anywhere in the engines breaks a column sum here.
pub fn check_ledger(
    ledger: &AttributionLedger,
    data: &CheckData,
    result: &SimResult,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut fail = |detail: String| {
        v.push(Violation {
            invariant: Invariant::LedgerConservation,
            detail,
        });
    };
    let col =
        |f: fn(&ndc_obs::ledger::TenantRow) -> u64| -> u64 { ledger.rows().iter().map(f).sum() };

    // Column sums against the independent global recorders.
    let checks: [(&str, u64, u64); 3] = [
        ("noc_messages", col(|r| r.noc_messages), data.noc_messages),
        (
            "noc_flit_hops",
            col(|r| r.noc_flit_hops),
            data.noc_flit_hops,
        ),
        ("dram_bytes", col(|r| r.dram_bytes), data.dram_bytes),
    ];
    for (name, ledger_sum, global) in checks {
        if ledger_sum != global {
            fail(format!(
                "{name}: ledger column sums to {ledger_sum} but the global counter is {global}"
            ));
        }
    }

    // NDC columns against the per-location `SimResult` counters.
    for loc in 0..NUM_LOCATIONS {
        let offload: u64 = ledger
            .rows()
            .iter()
            .map(|r| r.ndc_offload_cycles[loc])
            .sum();
        let wait: u64 = ledger.rows().iter().map(|r| r.ndc_wait_cycles[loc]).sum();
        let samples: u64 = ledger.rows().iter().map(|r| r.offload[loc].count()).sum();
        if offload != result.ndc_offload_cycles[loc] {
            fail(format!(
                "ndc_offload_cycles[{loc}]: ledger column sums to {offload} but SimResult has {}",
                result.ndc_offload_cycles[loc]
            ));
        }
        if wait != result.ndc_wait_cycles[loc] {
            fail(format!(
                "ndc_wait_cycles[{loc}]: ledger column sums to {wait} but SimResult has {}",
                result.ndc_wait_cycles[loc]
            ));
        }
        if samples != result.ndc_offload_samples[loc] {
            fail(format!(
                "offload sketch[{loc}]: ledger holds {samples} samples but SimResult \
                 performed {}",
                result.ndc_offload_samples[loc]
            ));
        }
    }

    // Per-row internal consistency.
    for (t, r) in ledger.rows().iter().enumerate() {
        for loc in 0..NUM_LOCATIONS {
            let parts = r.ndc_gather_cycles[loc]
                + r.ndc_wait_cycles[loc]
                + r.ndc_exec_cycles[loc]
                + r.ndc_feed_cycles[loc];
            if parts != r.ndc_offload_cycles[loc] {
                fail(format!(
                    "tenant {t} loc {loc}: gather+wait+exec+feed = {parts} does not tile \
                     offload column {}",
                    r.ndc_offload_cycles[loc]
                ));
            }
        }
        if r.latency.count() != r.requests {
            fail(format!(
                "tenant {t}: latency sketch holds {} samples but the row charged {} requests",
                r.latency.count(),
                r.requests
            ));
        }
        if r.latency.sum() != r.request_cycles {
            fail(format!(
                "tenant {t}: latency sketch sums to {} cycles but the row charged {}",
                r.latency.sum(),
                r.request_cycles
            ));
        }
    }
    v
}

/// Check everything for one recorded run: the event stream, the
/// `SimResult` counters, and the DRAM accounting totals.
pub fn check_run(data: &CheckData, result: &SimResult) -> CheckReport {
    let mut report = check_stream(&data.events);
    report.violations.extend(check_counters(result));
    if data.dram_requests != data.dram_outcomes {
        report.violations.push(Violation {
            invariant: Invariant::DramAccounting,
            detail: format!(
                "{} DRAM requests but {} row-buffer outcomes",
                data.dram_requests, data.dram_outcomes
            ),
        });
    }
    report
}

/// Convenience: check a `CheckLevel::full()` engine run — the recorded
/// stream, the counters, and the sampled span traces. Panics if the
/// run was not checked (no [`CheckData`] collected).
pub fn check_engine_output(out: &EngineOutput) -> CheckReport {
    let data = out
        .check
        .as_ref()
        .expect("engine run without CheckLevel::full(); nothing to check");
    let mut report = check_run(data, &out.result);
    report.violations.extend(check_spans(&out.spans));
    if let Some(ledger) = &out.ledger {
        report
            .violations
            .extend(check_ledger(ledger, data, &out.result));
        // The request column is conserved against the check stream
        // itself: one charge per distinct request id seen issuing.
        let charged: u64 = ledger.rows().iter().map(|r| r.requests).sum();
        if charged != report.requests as u64 {
            report.violations.push(Violation {
                invariant: Invariant::LedgerConservation,
                detail: format!(
                    "requests: ledger charged {charged} but the check stream saw {} \
                     distinct requests",
                    report.requests
                ),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::SplitMix64;

    fn rec(kind: CheckKind, ts: u64, id: u32) -> CheckRecord {
        CheckRecord::new(kind, id, ts)
    }

    fn healthy_stream() -> Vec<CheckRecord> {
        use CheckKind::*;
        vec![
            rec(Issue, 0, 0),
            rec(L2Req, 10, 0),
            rec(MemQueue, 20, 0),
            rec(MemService, 25, 0),
            rec(MemDone, 80, 0),
            rec(DataAtBank, 95, 0),
            rec(Retire, 110, 0),
            rec(Issue, 5, 1),
            rec(Retire, 8, 1),
            rec(FlitEnter, 12, 3),
            rec(FlitExit, 15, 3),
            rec(FlitEnter, 14, 3),
            rec(FlitExit, 17, 3),
        ]
    }

    #[test]
    fn healthy_stream_passes() {
        let r = check_stream(&healthy_stream());
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.requests, 2);
        assert_eq!(r.links, 1);
        assert_eq!(r.events, 13);
    }

    #[test]
    fn duplicate_retire_is_caught() {
        let mut evs = healthy_stream();
        evs.push(rec(CheckKind::Retire, 110, 0));
        let r = check_stream(&evs);
        assert!(r.violated(Invariant::RetireOnce));
        assert!(!r.violated(Invariant::PathMonotonic));
    }

    #[test]
    fn missing_retire_is_caught() {
        let evs: Vec<CheckRecord> = healthy_stream()
            .into_iter()
            .filter(|e| !(e.id == 1 && e.kind == CheckKind::Retire))
            .collect();
        let r = check_stream(&evs);
        assert!(r.violated(Invariant::RetireOnce));
    }

    #[test]
    fn non_monotonic_path_is_caught() {
        let mut evs = healthy_stream();
        // Delay MEM_DONE past everything after it.
        evs[4].ts = 1_000_000;
        let r = check_stream(&evs);
        assert!(r.violated(Invariant::PathMonotonic));
        assert!(!r.violated(Invariant::RetireOnce));
    }

    #[test]
    fn unbalanced_flits_are_caught() {
        let evs: Vec<CheckRecord> = healthy_stream()
            .into_iter()
            .filter(|e| !(e.kind == CheckKind::FlitExit && e.ts == 17))
            .collect();
        let r = check_stream(&evs);
        assert!(r.violated(Invariant::LinkOccupancy));
    }

    #[test]
    fn exit_before_enter_is_caught() {
        let evs = vec![
            rec(CheckKind::FlitEnter, 100, 7),
            rec(CheckKind::FlitExit, 5, 7),
        ];
        let r = check_stream(&evs);
        assert!(r.violated(Invariant::LinkOccupancy));
    }

    #[test]
    fn ndc_accounting_checks_sim_result() {
        let mut result = SimResult {
            ndc_attempts: 10,
            ndc_performed: [4, 2, 0, 0],
            ..Default::default()
        };
        result.ndc_abort_reasons[0] = 3;
        result.ndc_abort_reasons[2] = 1;
        assert!(check_counters(&result).is_empty());
        result.ndc_attempts = 11;
        let v = check_counters(&result);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::NdcAccounting);
    }

    #[test]
    fn span_attribution_passes_exact_trees_and_catches_corruption() {
        use ndc_obs::span::{Span, STALL};
        let mut root = Span::new("req", 100, 160);
        root.leaf("l1", 100, 104);
        root.leaf("l2", 120, 130);
        root.fill_residue(STALL);
        let healthy = SpanTrace {
            id: 3,
            core: 1,
            addr: 0x40,
            root,
        };
        assert!(check_spans(std::slice::from_ref(&healthy)).is_empty());

        // Lose a residue leaf: the sum no longer reaches the latency.
        let mut corrupted = healthy;
        corrupted.root.children.pop();
        let v = check_spans(&[corrupted]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::SpanAttribution);
        assert!(v[0].detail.contains("req#3"), "{}", v[0].detail);
        assert_eq!(Invariant::SpanAttribution.label(), "span-attribution");
    }

    #[test]
    fn dram_accounting_checks_check_data() {
        let data = CheckData {
            events: healthy_stream(),
            dram_requests: 5,
            dram_outcomes: 5,
            ..Default::default()
        };
        let result = SimResult::default();
        assert!(check_run(&data, &result).ok());
        let broken = CheckData {
            dram_outcomes: 4,
            ..data
        };
        let r = check_run(&broken, &result);
        assert!(r.violated(Invariant::DramAccounting));
    }

    /// The `BTreeMap` checker [`check_stream`] replaced, kept as the
    /// reference its reports must equal on every stream.
    fn reference_check_stream(events: &[CheckRecord]) -> CheckReport {
        let mut report = CheckReport {
            events: events.len(),
            ..Default::default()
        };

        #[derive(Default)]
        struct ReqState {
            issues: u64,
            retires: u64,
            last_ts: Option<u64>,
            monotonic_broken: Option<String>,
        }
        let mut reqs: BTreeMap<u32, ReqState> = BTreeMap::new();
        let mut links: BTreeMap<u32, (Vec<u64>, Vec<u64>)> = BTreeMap::new();

        for ev in events {
            match ev.kind {
                CheckKind::FlitEnter => links.entry(ev.id).or_default().0.push(ev.ts),
                CheckKind::FlitExit => links.entry(ev.id).or_default().1.push(ev.ts),
                kind => {
                    let st = reqs.entry(ev.id).or_default();
                    match kind {
                        CheckKind::Issue => st.issues += 1,
                        CheckKind::Retire => st.retires += 1,
                        _ => {}
                    }
                    if let Some(prev) = st.last_ts {
                        if ev.ts < prev && st.monotonic_broken.is_none() {
                            st.monotonic_broken = Some(format!(
                                "request {}: {} at cycle {} precedes prior event at cycle {}",
                                ev.id,
                                kind.name(),
                                ev.ts,
                                prev
                            ));
                        }
                    }
                    st.last_ts = Some(ev.ts);
                }
            }
        }

        report.requests = reqs.len();
        report.links = links.len();

        for (id, st) in &reqs {
            if st.issues != 1 || st.retires != 1 {
                report.violations.push(Violation {
                    invariant: Invariant::RetireOnce,
                    detail: format!(
                        "request {id}: {} issue(s), {} retire(s) (want exactly 1 of each)",
                        st.issues, st.retires
                    ),
                });
            }
            if let Some(d) = &st.monotonic_broken {
                report.violations.push(Violation {
                    invariant: Invariant::PathMonotonic,
                    detail: d.clone(),
                });
            }
        }

        for (link, (enters, exits)) in &mut links {
            if enters.len() != exits.len() {
                report.violations.push(Violation {
                    invariant: Invariant::LinkOccupancy,
                    detail: format!(
                        "link {link}: {} flit enters vs {} exits (occupancy does not drain to zero)",
                        enters.len(),
                        exits.len()
                    ),
                });
                continue;
            }
            enters.sort_unstable();
            exits.sort_unstable();
            if let Some((i, (en, ex))) = enters
                .iter()
                .zip(exits.iter())
                .enumerate()
                .find(|(_, (en, ex))| ex < en)
            {
                report.violations.push(Violation {
                    invariant: Invariant::LinkOccupancy,
                    detail: format!(
                        "link {link}: {i}-th flit exit at cycle {ex} precedes its enter at cycle {en}"
                    ),
                });
            }
        }

        report
    }

    /// Recorded streams of real kernels, faulted by every class of the
    /// fault matrix, give the reference's report exactly.
    #[test]
    fn check_stream_matches_the_reference_on_recorded_runs() {
        use crate::fault::{inject, ALL_FAULTS};
        use ndc_ir::{lower, LowerOptions};
        use ndc_sim::{CheckLevel, Engine, Scheme, WaitBudget};
        use ndc_types::ArchConfig;
        use ndc_workloads::{by_name, Scale};

        let cfg = ArchConfig::paper_default();
        let opts = LowerOptions {
            cores: cfg.nodes(),
            emit_busy: true,
        };
        let scheme = Scheme::NdcAll {
            budget: WaitBudget::PctOfCap(50),
        };
        for name in ["kdtree", "swim", "barnes"] {
            let prog = by_name(name).unwrap().build_timesteps(Scale::Test, 1);
            let out = Engine::new(cfg, &lower(&prog, &opts, None), scheme)
                .with_check(CheckLevel::full())
                .run();
            let data = out.check.expect("checked run records CheckData");
            let clean = check_stream(&data.events);
            assert!(clean.ok(), "{name}: {:?}", clean.violations);
            assert!(clean.requests > 0 && clean.links > 0);
            assert_eq!(clean, reference_check_stream(&data.events), "{name}");
            for (k, fault) in ALL_FAULTS.iter().enumerate() {
                let mut faulted = data.clone();
                let mut result = out.result.clone();
                inject(&mut faulted, &mut result, *fault, 0x5eed + k as u64);
                assert_eq!(
                    check_stream(&faulted.events),
                    reference_check_stream(&faulted.events),
                    "{name}: {}",
                    fault.label()
                );
            }
        }
    }

    /// A healthy synthetic stream: request paths with ids from 0, then
    /// enter/exit pairs on a few links.
    fn synthetic_stream(rng: &mut SplitMix64) -> Vec<CheckRecord> {
        use CheckKind::*;
        const SHORT: [CheckKind; 2] = [Issue, Retire];
        const LONG: [CheckKind; 7] = [
            Issue, L2Req, MemQueue, MemService, MemDone, DataAtBank, Retire,
        ];
        let mut evs = Vec::new();
        for id in 0..rng.below(6) as u32 {
            let path: &[CheckKind] = if rng.chance(0.5) { &SHORT } else { &LONG };
            let mut t = rng.below(100);
            for &kind in path {
                evs.push(rec(kind, t, id));
                t += rng.below(20);
            }
        }
        let links = 1 + rng.below(4);
        for _ in 0..rng.below(12) {
            let link = rng.below(links) as u32;
            let enter = rng.below(200);
            evs.push(rec(FlitEnter, enter, link));
            evs.push(rec(FlitExit, enter + rng.below(8), link));
        }
        evs
    }

    /// Corrupt a stream: drop, duplicate, swap and move records,
    /// re-tag them among the nine kinds (which moves a record between
    /// the request and link halves of the contract), give them sparse
    /// ids up to `u32::MAX`, and shift their timestamps.
    fn mutate(rng: &mut SplitMix64, evs: &mut Vec<CheckRecord>) {
        for _ in 0..rng.below(8) {
            if evs.is_empty() {
                return;
            }
            let n = evs.len() as u64;
            let i = rng.below(n) as usize;
            match rng.below(7) {
                0 => {
                    evs.remove(i);
                }
                1 => {
                    let ev = evs[i];
                    evs.insert(rng.below(n + 1) as usize, ev);
                }
                2 => evs.swap(i, rng.below(n) as usize),
                3 => {
                    let ev = evs.remove(i);
                    evs.insert(rng.below(n) as usize, ev);
                }
                4 => evs[i].kind = *rng.choose(&CheckKind::ALL),
                5 => {
                    let near = rng.below(3) as u32;
                    let ids = [
                        u32::MAX,
                        u32::MAX - 1 - near,
                        rng.next_u32(),
                        n as u32 - 1,
                        n as u32 + near,
                    ];
                    evs[i].id = *rng.choose(&ids);
                }
                _ => evs[i].ts = rng.below(220),
            }
        }
    }

    #[test]
    fn check_stream_matches_the_reference_on_corrupted_streams() {
        let mut seen = [0usize; 4];
        for case in 0..512u64 {
            let mut rng = SplitMix64::new(0xc4ec_0000 + case);
            let mut evs = synthetic_stream(&mut rng);
            mutate(&mut rng, &mut evs);
            let report = check_stream(&evs);
            assert_eq!(report, reference_check_stream(&evs), "case {case}: {evs:?}");
            for v in &report.violations {
                let kind = match v.invariant {
                    Invariant::RetireOnce => 0,
                    Invariant::PathMonotonic => 1,
                    _ if v.detail.contains("precedes its enter") => 2,
                    _ => 3,
                };
                seen[kind] += 1;
            }
        }
        // Every kind of stream violation, including the exact
        // occupancy check's crossing, was exercised.
        assert!(seen.iter().all(|&k| k > 0), "{seen:?}");
    }
}
