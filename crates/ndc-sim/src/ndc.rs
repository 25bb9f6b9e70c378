//! NDC compute-package resolution.
//!
//! An offloaded computation is one package (§2, Figure 1): it travels
//! with its operand requests and computes at the first component where
//! all of them are available. Given the operand journeys of a package,
//! decide *where* the operands can meet (link buffer on their data
//! routes, the common home L2 bank, the common memory controller, or
//! the common DRAM bank — Figure 1's ⓐ–ⓓ), *how long* the first operand
//! waits for the last (the arrival window), and whether the attempt
//! aborts (time-out register, full service table, disabled component,
//! disallowed op). A pair — an online offload or a compiled
//! `PreCompute` — gathers two operands and runs one op; a fused packet
//! gathers one operand per op plus one and runs its chain.
//!
//! The oracle scheme instead picks the best location, and Figure 14's
//! isolation runs restrict candidates via the control register.

use crate::instrument::WindowObservation;
use crate::machine::{AccessPath, Machine};
use ndc_noc::{best_signature_pair, converging_pair, LinkId, Mesh, Route, XyLinks};
use ndc_types::{Coord, Cycle, NdcLocation, NodeId, Op, Pc};

/// Why an NDC attempt did not happen / was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// An operand was in the local L1; the LD/ST unit skipped the
    /// offload (performed at the core — cheap, not a failure).
    LocalHit,
    /// The operation type is not offloadable (control register /
    /// Figure 17 restriction).
    OpNotAllowed,
    /// The operands never co-locate at any enabled component.
    NoColocation,
    /// The wait at the meeting component exceeded the time-out
    /// register.
    Timeout,
    /// The component's service table was full on arrival (§2: triggers
    /// the time-out mechanism immediately).
    ServiceTableFull,
    /// The scheme's wait budget was smaller than the required wait.
    BudgetExceeded,
}

/// All abort reasons, in [`AbortReason::index`] order.
pub const ALL_ABORT_REASONS: [AbortReason; 6] = [
    AbortReason::LocalHit,
    AbortReason::OpNotAllowed,
    AbortReason::NoColocation,
    AbortReason::Timeout,
    AbortReason::ServiceTableFull,
    AbortReason::BudgetExceeded,
];

impl AbortReason {
    /// Stable dense index for per-reason tallies.
    pub fn index(self) -> usize {
        match self {
            AbortReason::LocalHit => 0,
            AbortReason::OpNotAllowed => 1,
            AbortReason::NoColocation => 2,
            AbortReason::Timeout => 3,
            AbortReason::ServiceTableFull => 4,
            AbortReason::BudgetExceeded => 5,
        }
    }

    /// Short stable name for metrics keys and trace-event labels.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::LocalHit => "local_hit",
            AbortReason::OpNotAllowed => "op_not_allowed",
            AbortReason::NoColocation => "no_colocation",
            AbortReason::Timeout => "timeout",
            AbortReason::ServiceTableFull => "service_table_full",
            AbortReason::BudgetExceeded => "budget_exceeded",
        }
    }

    /// Trace-event name of an abort for this reason:
    /// `ndc-abort:<label>`.
    pub fn trace_name(self) -> &'static str {
        [
            "ndc-abort:local_hit",
            "ndc-abort:op_not_allowed",
            "ndc-abort:no_colocation",
            "ndc-abort:timeout",
            "ndc-abort:service_table_full",
            "ndc-abort:budget_exceeded",
        ][self.index()]
    }
}

/// One candidate meeting point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meeting {
    pub loc: NdcLocation,
    /// The node hosting the component (router / L2 bank / MC node; for
    /// DRAM banks, the MC's node).
    pub node: NodeId,
    /// When the first and the last of the package's operands are
    /// available there.
    pub first: Cycle,
    pub last: Cycle,
}

impl Meeting {
    /// A meeting of operands available at `times` (at least one).
    fn new(loc: NdcLocation, node: NodeId, times: impl Iterator<Item = Cycle>) -> Meeting {
        let (first, last) = times.fold((Cycle::MAX, Cycle::MIN), |(lo, hi), t| {
            (lo.min(t), hi.max(t))
        });
        Meeting {
            loc,
            node,
            first,
            last,
        }
    }

    /// The arrival window: how long the first operand waits for the
    /// last.
    pub fn window(&self) -> Cycle {
        self.last - self.first
    }

    pub fn ready(&self) -> Cycle {
        self.last
    }
}

/// The candidate meetings of one resolution, in path order, held
/// inline. At most two exist: a shared home bank (cache controller)
/// and a link meeting exclude each other, and at most one memory-side
/// meeting joins either.
#[derive(Debug, Clone, Copy, Default)]
pub struct Candidates {
    slots: [Option<Meeting>; 2],
    len: usize,
}

impl Candidates {
    fn push(&mut self, m: Meeting) {
        self.slots[self.len] = Some(m);
        self.len += 1;
    }

    /// Keep the candidates satisfying `keep`, preserving order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Meeting) -> bool) {
        let mut kept = Candidates::default();
        for m in self.iter().copied().filter(|m| keep(m)) {
            kept.push(m);
        }
        *self = kept;
    }

    pub fn iter(&self) -> impl Iterator<Item = &Meeting> + '_ {
        self.slots[..self.len].iter().flatten()
    }

    pub fn first(&self) -> Option<Meeting> {
        self.slots[0]
    }
}

/// Result of resolving an NDC package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdcOutcome {
    Performed {
        loc: NdcLocation,
        node: NodeId,
        /// The wait the first-arriving operand endured.
        wait: Cycle,
        /// Cycle the operation completed at the component.
        op_done: Cycle,
        /// Cycle the CPU-feed (result) reached the requesting core.
        result_at_core: Cycle,
    },
    Aborted {
        reason: AbortReason,
        /// When the abort was known at the core (conventional fallback
        /// may start then).
        at: Cycle,
    },
}

/// How to choose among feasible meeting points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationPolicy {
    /// The hardware's general flow: first component along the data
    /// path (link buffer → cache controller → MC → memory bank).
    FirstOnPath,
    /// Restrict to one component (the oracle's planned location;
    /// Figure 14 isolation; control register ⓔ).
    Only(NdcLocation),
}

/// Per-component service tables and in-flight occupancy.
///
/// Entries are (release cycle) lists stored densely: component
/// instances are `(location, node)` pairs with four locations and a
/// bounded node count, so slot `node * 4 + location` in a grow-on-
/// demand `Vec` replaces the former `HashMap<(u8, u32), Vec<Cycle>>`
/// — the table sits on the offload fast path and is probed for every
/// candidate meeting.
#[derive(Debug, Default)]
pub struct ServiceTables {
    entries: Vec<Vec<Cycle>>,
}

impl ServiceTables {
    fn slot(&mut self, loc: NdcLocation, node: NodeId) -> &mut Vec<Cycle> {
        let idx = node.0 as usize * 4 + loc.index();
        // Dense per-(node, location) table: bounded by the widest mesh
        // the directory supports (16×16 = 256 nodes), so a bad NodeId
        // can't silently balloon the vector.
        debug_assert!(
            idx < ndc_mem::MAX_CORES * 4,
            "service-table slot {idx} outside the 16x16 mesh bound"
        );
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, Vec::new);
        }
        &mut self.entries[idx]
    }

    /// Count live entries at `now` (pruning released ones).
    fn live(&mut self, loc: NdcLocation, node: NodeId, now: Cycle) -> usize {
        let v = self.slot(loc, node);
        v.retain(|&r| r > now);
        v.len()
    }

    fn insert(&mut self, loc: NdcLocation, node: NodeId, release: Cycle) {
        self.slot(loc, node).push(release);
    }
}

/// Enumerate the candidate meetings of a package that gathers `paths`
/// (two or more operand fetches), ordered by where the operands' *data*
/// first co-locates physically:
///
/// 1. the shared home L2 bank (the data converges there — no reply
///    messages exist under NDC, so no link meeting is possible);
/// 2. the shared memory controller / DRAM bank (refills pass through
///    before any reply);
/// 3. a link common to every operand's data-reply route toward the
///    core — the fallback when no memory-side component is shared, and
///    the place route reshaping (`reshape`) creates overlap (§5.2.1,
///    Figure 11).
///
/// Every operand must be present at a meeting; its window is the spread
/// of their arrivals there. Two operands are a pair: with `reshape` their reply routes are the
/// maximal-overlap pair, and a link where their refill legs
/// (MC → bank) cross is a link meeting too. With three or more
/// operands the reply routes are XY (reshaping is a pairwise signature
/// optimization), and refill legs are not searched: pairwise leg
/// crossings no longer describe one component every operand passes.
///
/// A pure function of the paths and the mesh: callers compute it once
/// per package and derive windows, breakevens and the resolution from
/// the result.
pub fn candidate_meetings(
    machine: &Machine,
    core: NodeId,
    paths: &[AccessPath],
    reshape: bool,
) -> Candidates {
    let mut out = Candidates::default();

    // Every operand must actually travel (L1 hits never leave the core,
    // so no meeting is possible anywhere).
    let Some(home) = paths.first().and_then(|p| p.l2) else {
        return out;
    };
    if paths.iter().any(|p| p.l2.is_none()) {
        return out;
    }
    let l2 = |p: &AccessPath| p.l2.expect("every operand reached its bank");
    let same_bank = paths.iter().all(|p| l2(p).bank == home.bank);

    // --- Cache controller: every operand homed at the same L2 bank. ---
    if same_bank {
        out.push(Meeting::new(
            NdcLocation::CacheController,
            home.bank,
            paths.iter().map(|p| l2(p).data_at_bank),
        ));
    }

    // --- Memory side: every operand L2-missed to the same controller.
    // When they also live in the same DRAM bank, the computation
    // happens *in memory* (§2: "performed in memory if both A and B are
    // currently residing in the same memory bank") — the data is born
    // co-located, so in-array computation is the deepest, cheapest
    // meeting and takes precedence over the queue; the windows gate on
    // the access commands reaching the device.
    if let Some(m0) = paths[0].mem {
        if paths.iter().all(|p| p.mem.is_some_and(|m| m.mc == m0.mc)) {
            let mem = |p: &AccessPath| p.mem.expect("every operand reached the controller");
            let loc = if paths.iter().all(|p| mem(p).dram_bank == m0.dram_bank) {
                NdcLocation::MemoryBank
            } else {
                NdcLocation::MemoryController
            };
            out.push(Meeting::new(
                loc,
                m0.mc_node,
                paths.iter().map(|p| mem(p).queue_enter),
            ));
        }
    }

    // --- Link buffer: only reachable when the operands' data actually
    // moves on the network as separate messages (different home
    // banks). ---
    if !same_bank {
        let mesh = machine.mesh();
        let routes = ReplyRoutes::new(machine, core, paths, reshape);
        // Entry time of an operand on hop k of its route: data leaves
        // the bank at data_at_bank and pays `hop` per link.
        let hop = machine.cfg.noc.hop_cycles;
        let mut best_link = None;
        // One pass over the first route, looking each link up on every
        // other route (a minimal route holds a link at most once).
        'links: for (k0, link) in routes.route(machine, 0, home.bank).enumerate() {
            let t0 = home.data_at_bank + hop * k0 as Cycle;
            let (mut first, mut last) = (t0, t0);
            for (k, p) in paths.iter().enumerate().skip(1) {
                let l2 = l2(p);
                let Some(pos) = routes.route(machine, k, l2.bank).position(|l| l == link) else {
                    continue 'links;
                };
                let t = l2.data_at_bank + hop * pos as Cycle;
                first = first.min(t);
                last = last.max(t);
            }
            keep_tighter(
                &mut best_link,
                Meeting {
                    loc: NdcLocation::LinkBuffer,
                    node: mesh.link_router(link),
                    first,
                    last,
                },
            );
        }
        // A pair's refill legs (MC -> bank) can also overlap — the
        // "second router attempt" on the L2-miss path of the paper's
        // trial order.
        if let [a, b] = paths {
            for ta in a.data_links() {
                for tb in b.data_links() {
                    if ta.link == tb.link {
                        keep_tighter(
                            &mut best_link,
                            Meeting::new(
                                NdcLocation::LinkBuffer,
                                mesh.link_router(ta.link),
                                [ta.enter, tb.enter].into_iter(),
                            ),
                        );
                    }
                }
            }
        }
        if let Some(m) = best_link {
            out.push(m);
        }
    }

    out
}

/// `candidate_meetings(.., reshape = true)` given the plain pass: only
/// a pair's link meeting depends on the reply routes, and it exists
/// only when the operands' banks differ, so every other package reuses
/// `plain`.
pub fn reshaped_candidates(
    machine: &Machine,
    core: NodeId,
    paths: &[AccessPath],
    plain: Candidates,
) -> Candidates {
    match paths {
        [a, b] if matches!((a.l2, b.l2), (Some(l2a), Some(l2b)) if l2a.bank != l2b.bank) => {
            candidate_meetings(machine, core, paths, true)
        }
        _ => plain,
    }
}

/// Replace `best` with `m` if `m` has a strictly smaller window, so
/// ties keep the meeting found first.
fn keep_tighter(best: &mut Option<Meeting>, m: Meeting) {
    if best.is_none_or(|cur| m.window() < cur.window()) {
        *best = Some(m);
    }
}

/// One operand's data-reply route toward the core.
enum ReplyRoute {
    /// An XY route, or a leg of the closed-form reshaped pair
    /// ([`converging_pair`]): walked arithmetically, never stored.
    Walk(XyLinks),
    /// A reshaped leg beyond the exhaustive bound, chosen by the route
    /// search.
    Listed(Route),
}

impl ReplyRoute {
    fn links(&self) -> ReplyLinks<'_> {
        match self {
            ReplyRoute::Walk(w) => ReplyLinks::Walk(*w),
            ReplyRoute::Listed(r) => ReplyLinks::Listed(r.links.iter()),
        }
    }
}

/// The link sequence of a [`ReplyRoute`].
#[derive(Clone)]
enum ReplyLinks<'a> {
    Walk(XyLinks),
    Listed(std::slice::Iter<'a, LinkId>),
}

impl Iterator for ReplyLinks<'_> {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        match self {
            ReplyLinks::Walk(w) => w.next(),
            ReplyLinks::Listed(it) => it.next().copied(),
        }
    }
}

/// The data-reply routes of a package's operands toward the core: the
/// routes its link meetings are sought on, and the ones a link-buffer
/// meeting charges the operands' data along.
struct ReplyRoutes {
    core: Coord,
    /// A pair's two routes: XY, or with `reshape` the maximal-overlap
    /// pair of §5.2.1. `None` for three or more operands, whose routes
    /// are XY.
    pair: Option<[ReplyRoute; 2]>,
}

impl ReplyRoutes {
    /// The routes of `paths`, every one of which reached its bank.
    fn new(machine: &Machine, core: NodeId, paths: &[AccessPath], reshape: bool) -> ReplyRoutes {
        let mesh = machine.mesh();
        let cc = machine.coord(core);
        let bank =
            |p: &AccessPath| machine.coord(p.l2.expect("every operand reached its bank").bank);
        let pair = match paths {
            [a, b] if reshape => Some(match converging_pair(mesh, bank(a), bank(b), cc) {
                Some((ra, rb)) => [ReplyRoute::Walk(ra), ReplyRoute::Walk(rb)],
                None => {
                    let pair = best_signature_pair(mesh, bank(a), cc, bank(b), cc);
                    [
                        ReplyRoute::Listed(pair.route_a),
                        ReplyRoute::Listed(pair.route_b),
                    ]
                }
            }),
            [a, b] => Some([
                ReplyRoute::Walk(mesh.xy_links(bank(a), cc)),
                ReplyRoute::Walk(mesh.xy_links(bank(b), cc)),
            ]),
            _ => None,
        };
        ReplyRoutes { core: cc, pair }
    }

    /// The route of operand `k`, whose home bank is `bank`.
    fn route(&self, machine: &Machine, k: usize, bank: NodeId) -> ReplyLinks<'_> {
        match &self.pair {
            Some(pair) => pair[k].links(),
            None => ReplyLinks::Walk(machine.mesh().xy_links(machine.coord(bank), self.core)),
        }
    }
}

/// The prefix of `links` that ends entering `node`, or `None` when the
/// route does not pass through `node`.
fn prefix_to<I>(mesh: &Mesh, links: I, node: NodeId) -> Option<std::iter::Take<I>>
where
    I: Iterator<Item = LinkId> + Clone,
{
    let k = links.clone().position(|l| mesh.link_router(l) == node)?;
    Some(links.take(k + 1))
}

/// Parameters of one resolution attempt.
#[derive(Debug, Clone, Copy)]
pub struct ResolveParams {
    pub policy: LocationPolicy,
    /// Maximum wait the scheme tolerates at the meeting component
    /// (`None` = wait forever, bounded only by the hardware time-out).
    pub budget: Option<Cycle>,
    /// Use reshaped reply routes for a pair's link-buffer candidate.
    pub reshape: bool,
    /// Oracle mode: skip the time-out register and service-table
    /// capacity (perfect scheduling never trips either).
    pub ignore_limits: bool,
}

/// The decision half of a resolution: everything up to (but not
/// including) charging the network and inserting the service-table
/// entry.
#[derive(Debug, Clone, Copy)]
enum ResolvePlan {
    Abort { reason: AbortReason, at: Cycle },
    Perform { chosen: Meeting, wait: Cycle },
}

/// Decide the outcome of an NDC package that gathers `paths` and
/// executes the chain `ops` at the meeting component. The checks run in
/// hardware order, each with its own abort time: local L1 copy, op
/// class, co-location, scheme budget, time-out register, service table.
/// Only the last touches `tables` (pruning released entries); nothing
/// allocates. `cands` are the unfiltered candidate meetings of `paths`.
fn plan_resolution(
    machine: &Machine,
    tables: &mut ServiceTables,
    ops: &[Op],
    paths: &[AccessPath],
    issue: Cycle,
    params: ResolveParams,
    mut cands: Candidates,
) -> ResolvePlan {
    let cfg = &machine.cfg;
    // Local L1 copy of any operand: the LD/ST unit skips the offload
    // (handled by the caller for timing; reported here for
    // completeness).
    if paths.iter().any(|p| p.l1_hit) {
        return ResolvePlan::Abort {
            reason: AbortReason::LocalHit,
            at: issue,
        };
    }
    if ops.iter().any(|&op| !cfg.ndc.op_class.allows(op)) {
        return ResolvePlan::Abort {
            reason: AbortReason::OpNotAllowed,
            at: issue,
        };
    }

    cands.retain(|m| cfg.ndc.location_enabled(m.loc));
    if let LocationPolicy::Only(loc) = params.policy {
        cands.retain(|m| m.loc == loc);
    }
    let Some(chosen) = cands.first() else {
        // The package traveled with the operands to the end of the path
        // and nothing met; the hardware knows once every journey
        // resolves, and signals the offload table (no time-out wait).
        let at = paths.iter().map(|p| p.completion).fold(issue, Cycle::max);
        return ResolvePlan::Abort {
            reason: AbortReason::NoColocation,
            at,
        };
    };

    let wait = chosen.window();
    // Scheme budget: the first operand leaves after `budget` cycles.
    if let Some(budget) = params.budget {
        if wait > budget {
            return ResolvePlan::Abort {
                reason: AbortReason::BudgetExceeded,
                at: chosen.first + budget,
            };
        }
    }
    // Hardware time-out register.
    if !params.ignore_limits {
        if let Some(tmo) = cfg.ndc.timeout {
            if wait > tmo {
                return ResolvePlan::Abort {
                    reason: AbortReason::Timeout,
                    at: chosen.first + tmo,
                };
            }
        }
    }
    // Service table capacity at the component. A full table triggers
    // the time-out mechanism (§2): the request lingers until the
    // time-out expires and is then performed at the original core —
    // the expensive path that makes indiscriminate offloading hurt.
    let arrive = chosen.first;
    if !params.ignore_limits
        && tables.live(chosen.loc, chosen.node, arrive) >= cfg.ndc.service_table_entries
    {
        let wasted = cfg.ndc.timeout.unwrap_or(0);
        return ResolvePlan::Abort {
            reason: AbortReason::ServiceTableFull,
            at: arrive + wasted,
        };
    }
    ResolvePlan::Perform { chosen, wait }
}

/// Resolve an NDC package that gathers `paths` and runs the chain `ops`
/// at the meeting component: pick a meeting, enforce the control
/// register / op class / service tables / time-out, charge the network
/// for the data movement that actually happens, and produce the
/// outcome. A pair (an online offload or a compiled `PreCompute`) is
/// the one-op package with two gathers; a fused packet gathers one
/// operand more than it has ops.
///
/// `cands` must be the unfiltered output of [`candidate_meetings`] for
/// `(core, paths, params.reshape)`: callers that also need the
/// package's windows compute the candidates once and hand them in.
/// Only this function reads and writes the service tables and link
/// horizons.
///
/// `issue` is when the LD/ST unit injected the package; aborts resolve
/// at `issue + wasted-wait` and the engine then falls back to
/// conventional execution.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    ops: &[Op],
    paths: &[AccessPath],
    issue: Cycle,
    params: ResolveParams,
    cands: Candidates,
) -> NdcOutcome {
    machine.attribute_to(core);
    let plan = plan_resolution(machine, tables, ops, paths, issue, params, cands);
    let (chosen, wait) = match plan {
        ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
        ResolvePlan::Perform { chosen, wait } => (chosen, wait),
    };

    // Charge the data movement that actually happens for a link-buffer
    // meeting: each operand's data travels from its bank to the meeting
    // router, along the routes the meeting was found on.
    if chosen.loc == NdcLocation::LinkBuffer {
        let routes = ReplyRoutes::new(machine, core, paths, params.reshape);
        let bytes = machine.cfg.l1.line_bytes;
        for (k, p) in paths.iter().enumerate() {
            let Some(l2) = p.l2 else { continue };
            let route = routes.route(machine, k, l2.bank);
            if let Some(prefix) = prefix_to(machine.mesh(), route, chosen.node) {
                machine.send_data_along(prefix, l2.data_at_bank, bytes);
            }
        }
    }

    // The chain executes serially at the component: one cycle per op.
    let op_done = chosen.ready() + ops.len() as Cycle;
    tables.insert(chosen.loc, chosen.node, op_done);
    // CPU-feed: the result returns to the core.
    let result_at_core = machine.send_result(chosen.node, core, op_done);
    NdcOutcome::Performed {
        loc: chosen.loc,
        node: chosen.node,
        wait,
        op_done,
        result_at_core,
    }
}

/// Measurement helper for the characterization study (Figures 2/3):
/// the per-location windows of a pair's candidate meetings. Returns
/// one entry per location, `None` when the operands never co-locate
/// there.
pub fn windows_by_location(cands: &Candidates) -> [Option<Cycle>; 4] {
    let mut out = [None; 4];
    for m in cands.iter() {
        let slot = &mut out[m.loc.index()];
        let w = m.window();
        if slot.is_none_or(|cur| w < cur) {
            *slot = Some(w);
        }
    }
    out
}

/// The breakeven point of a computation for each location (§4.1): the
/// largest wait `w` such that performing the op at the location and
/// shipping the result back beats the conventional completion.
///
/// `conv_done` is the conventional completion time (operands at core +
/// 1 op cycle). For a meeting with first-operand availability `t1` at
/// node `n`, NDC completes at `t1 + w + 1 + return(n → core)`;
/// breakeven = `conv_done - t1 - 1 - return`, clamped at 0. `cands`
/// are the pair's plain (XY) candidate meetings.
pub fn breakeven_by_location(
    machine: &Machine,
    core: NodeId,
    cands: &Candidates,
    conv_done: Cycle,
) -> [Option<Cycle>; 4] {
    let mut out = [None; 4];
    for m in cands.iter() {
        let ret = machine.hop_latency(m.node, core);
        let be = conv_done.saturating_sub(m.first + 1 + ret);
        let slot = &mut out[m.loc.index()];
        if slot.is_none_or(|cur| be > cur) {
            *slot = Some(be);
        }
    }
    out
}

/// The characterization record of one conventionally executed compute
/// (instrumented baseline runs) whose two operand fetches are `pair`:
/// windows under XY and reshaped reply routes plus breakevens, from one
/// plain candidate pass and — only when the operands' banks differ —
/// one reshaped pass.
pub fn window_observation(
    machine: &Machine,
    core: NodeId,
    pc: Pc,
    pair: &[AccessPath],
    conv_done: Cycle,
) -> WindowObservation {
    let plain = candidate_meetings(machine, core, pair, false);
    let reshaped = reshaped_candidates(machine, core, pair, plain);
    WindowObservation {
        pc,
        windows: windows_by_location(&plain),
        windows_reshaped: windows_by_location(&reshaped),
        breakevens: breakeven_by_location(machine, core, &plain, conv_done),
        conv_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::AccessIntent;
    use ndc_types::ArchConfig;

    #[test]
    fn abort_trace_names_match_their_labels() {
        for r in ALL_ABORT_REASONS {
            assert_eq!(r.trace_name(), format!("ndc-abort:{}", r.label()));
        }
    }

    fn machine() -> Machine {
        Machine::new(ArchConfig::paper_default())
    }

    /// The engine's parameters for a compiled pre-compute without route
    /// reshaping.
    fn first_on_path() -> ResolveParams {
        ResolveParams {
            policy: LocationPolicy::FirstOnPath,
            budget: None,
            reshape: false,
            ignore_limits: false,
        }
    }

    /// Resolve a one-op pair package, computing its candidates the way
    /// the engine does.
    fn resolve_pair(
        m: &mut Machine,
        tables: &mut ServiceTables,
        core: NodeId,
        op: Op,
        pair: &[AccessPath],
        issue: Cycle,
        params: ResolveParams,
    ) -> NdcOutcome {
        let cands = candidate_meetings(m, core, pair, params.reshape);
        resolve(m, tables, core, &[op], pair, issue, params, cands)
    }

    /// The link-buffer candidate among `cands`, if any.
    fn link_meeting(cands: &Candidates) -> Option<Meeting> {
        cands
            .iter()
            .copied()
            .find(|c| c.loc == NdcLocation::LinkBuffer)
    }

    /// Two addresses with the same L2 home bank but different lines.
    fn same_bank_addrs(cfg: &ArchConfig) -> (u64, u64) {
        let line = cfg.l2.line_bytes;
        let nodes = cfg.nodes() as u64;
        (0, nodes * line) // both home at bank 0
    }

    #[test]
    fn same_bank_operands_meet_at_cache_controller() {
        let mut m = machine();
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let cands = candidate_meetings(&m, core, &[a, b], false);
        assert!(cands
            .iter()
            .any(|c| c.loc == NdcLocation::CacheController && c.node == NodeId(0)));
    }

    #[test]
    fn different_banks_no_cache_meeting_but_links_can_meet() {
        let mut m = machine();
        let core = NodeId(12);
        let line = m.cfg.l2.line_bytes;
        // Banks 0 and 1: adjacent nodes; replies toward core 12 share
        // links.
        let a = m.access(core, 0, 0, false, AccessIntent::NearData);
        let b = m.access(core, line, 0, false, AccessIntent::NearData);
        let cands = candidate_meetings(&m, core, &[a, b], false);
        assert!(!cands.iter().any(|c| c.loc == NdcLocation::CacheController));
        // Banks 0=(0,0) and 1=(1,0) routing XY to (2,2): share links
        // from (2,0) down? Route a: e,e,s,s; route b: e,s,s. Common:
        // the south links at column 2.
        assert!(cands.iter().any(|c| c.loc == NdcLocation::LinkBuffer));
    }

    /// L2-resident operands homed at banks (0,0) and (0,1), gathered for
    /// core (2,2): their XY replies share only the last link into the
    /// core, while the reshaped pair joins at (0,1) and shares the path
    /// from there.
    fn converging_pair_of_l2_hits(m: &mut Machine) -> (NodeId, [AccessPath; 2]) {
        let core = NodeId(12);
        let line = m.cfg.l2.line_bytes;
        let (a_addr, b_addr) = (0, 5 * line);
        assert_eq!(m.cfg.l2_home(a_addr), NodeId(0));
        assert_eq!(m.cfg.l2_home(b_addr), NodeId(5));
        // A first near-data fetch warms the L2 (never the L1), so the
        // second reaches each bank without a refill leg.
        for addr in [a_addr, b_addr] {
            m.access(core, addr, 0, false, AccessIntent::NearData);
        }
        let a = m.access(core, a_addr, 10_000, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 10_000, false, AccessIntent::NearData);
        assert!(a.mem.is_none() && b.mem.is_none());
        (core, [a, b])
    }

    #[test]
    fn reshaped_reply_routes_apply_to_pairs_only() {
        let mut m = machine();
        let (core, [a, b]) = converging_pair_of_l2_hits(&mut m);
        // A pair: XY replies meet entering the core's router (2,2); the
        // reshaped replies meet entering (1,1), one hop after joining.
        let pair = [a.clone(), b.clone()];
        let xy = link_meeting(&candidate_meetings(&m, core, &pair, false)).unwrap();
        let reshaped = link_meeting(&candidate_meetings(&m, core, &pair, true)).unwrap();
        assert_eq!(xy.node, NodeId(12));
        assert_eq!(reshaped.node, NodeId(6));
        let plain = candidate_meetings(&m, core, &pair, false);
        assert_eq!(
            link_meeting(&reshaped_candidates(&m, core, &pair, plain)),
            Some(reshaped)
        );
        // Three operands: reshaping does not apply, the replies stay XY.
        let three = [a, b.clone(), b];
        let xy3: Vec<Meeting> = candidate_meetings(&m, core, &three, false)
            .iter()
            .copied()
            .collect();
        let reshaped3: Vec<Meeting> = candidate_meetings(&m, core, &three, true)
            .iter()
            .copied()
            .collect();
        assert_eq!(xy3, reshaped3);
        assert_eq!(xy3, vec![xy]);
        let plain3 = candidate_meetings(&m, core, &three, false);
        assert_eq!(
            link_meeting(&reshaped_candidates(&m, core, &three, plain3)),
            Some(xy)
        );
    }

    #[test]
    fn refill_leg_overlap_applies_to_pairs_only() {
        let mut m = machine();
        // Cold misses to controller 0 at (0,0) for banks (3,0) and
        // (3,2): both refills run east along row 0, while the replies
        // toward core (4,1) share no link.
        let core = NodeId(9);
        let line = m.cfg.l2.line_bytes;
        let (a_addr, b_addr) = (3 * line, 13 * line);
        assert_eq!(m.cfg.l2_home(a_addr), NodeId(3));
        assert_eq!(m.cfg.l2_home(b_addr), NodeId(13));
        assert_eq!(m.cfg.mc_of(a_addr), 0);
        assert_eq!(m.cfg.mc_of(b_addr), 0);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        assert!(!a.refill_links().is_empty() && !b.refill_links().is_empty());
        // The pair meets on the refill legs' first common link, entering
        // router (1,0).
        let pair = link_meeting(&candidate_meetings(
            &m,
            core,
            &[a.clone(), b.clone()],
            false,
        ));
        assert_eq!(pair.map(|l| l.node), Some(NodeId(1)));
        // With three operands only the XY replies are searched, and they
        // have no link in common.
        let three = candidate_meetings(&m, core, &[a.clone(), b, a], false);
        assert_eq!(link_meeting(&three), None);
    }

    #[test]
    fn link_buffer_charge_walks_the_reshaped_routes() {
        let mut m = machine();
        let (core, pair) = converging_pair_of_l2_hits(&mut m);
        let mut tables = ServiceTables::default();
        let messages = m.net.messages;
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &pair,
            10_000,
            ResolveParams {
                reshape: true,
                ..first_on_path()
            },
        );
        match out {
            NdcOutcome::Performed { loc, node, .. } => {
                assert_eq!(loc, NdcLocation::LinkBuffer);
                assert_eq!(node, NodeId(6));
            }
            other => panic!("expected success, got {other:?}"),
        }
        // Both operands' data travel to (1,1) along the reshaped routes
        // (operand a's XY route never enters (1,1)), then one result
        // feed goes home.
        assert_eq!(m.net.messages - messages, 3);
    }

    #[test]
    fn l1_hit_operand_aborts_with_local_hit() {
        let mut m = machine();
        let core = NodeId(5);
        m.access(core, 0x1000, 0, false, AccessIntent::ToCore);
        let a = m.access(core, 0x1000, 100, false, AccessIntent::NearData);
        let b = m.access(core, 0x2000, 100, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &[a, b],
            100,
            first_on_path(),
        );
        assert_eq!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::LocalHit,
                at: 100
            }
        );
    }

    #[test]
    fn op_class_restriction_aborts_mul() {
        let mut m = machine();
        m.cfg.ndc.op_class = ndc_types::OpClass::AddSubOnly;
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Mul,
            &[a, b],
            0,
            first_on_path(),
        );
        assert!(matches!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::OpNotAllowed,
                ..
            }
        ));
    }

    #[test]
    fn successful_resolution_at_cache_controller() {
        let mut m = machine();
        // Disable link buffers so the first-on-path is the cache bank.
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &[a, b],
            0,
            first_on_path(),
        );
        match out {
            NdcOutcome::Performed {
                loc,
                node,
                op_done,
                result_at_core,
                ..
            } => {
                assert_eq!(loc, NdcLocation::CacheController);
                assert_eq!(node, NodeId(0));
                assert!(result_at_core > op_done);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_aborts_at_budget() {
        let mut m = machine();
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        // Operand b fetched much later: a big window.
        let b = m.access(core, b_addr, 5000, false, AccessIntent::NearData);
        let l2a = a.l2.unwrap();
        let mut tables = ServiceTables::default();
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &[a, b],
            5000,
            ResolveParams {
                budget: Some(10),
                ..first_on_path()
            },
        );
        match out {
            NdcOutcome::Aborted { reason, at } => {
                assert_eq!(reason, AbortReason::BudgetExceeded);
                assert_eq!(at, l2a.data_at_bank + 10);
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn service_table_fills_up() {
        let mut m = machine();
        m.cfg.ndc.enabled_mask = ndc_types::NdcConfig::only(NdcLocation::CacheController);
        m.cfg.ndc.service_table_entries = 1;
        m.cfg.ndc.timeout = Some(100_000);
        let core = NodeId(12);
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        let mut tables = ServiceTables::default();
        // Fill the single slot with a far-future release.
        tables.insert(NdcLocation::CacheController, NodeId(0), 1_000_000);
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 0, false, AccessIntent::NearData);
        let out = resolve_pair(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &[a, b],
            0,
            first_on_path(),
        );
        assert!(matches!(
            out,
            NdcOutcome::Aborted {
                reason: AbortReason::ServiceTableFull,
                ..
            }
        ));
    }

    #[test]
    fn windows_report_per_location() {
        let mut m = machine();
        let core = NodeId(12);
        // Same L2 home bank (multiple of 25 lines) AND same memory
        // controller (multiple of 4 pages): line 1600 = 409600 bytes.
        let (a_addr, b_addr) = (0u64, 1600 * m.cfg.l2.line_bytes);
        assert_eq!(m.cfg.l2_home(a_addr), m.cfg.l2_home(b_addr));
        assert_eq!(m.cfg.mc_of(a_addr), m.cfg.mc_of(b_addr));
        let a = m.access(core, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(core, b_addr, 40, false, AccessIntent::NearData);
        let w = windows_by_location(&candidate_meetings(&m, core, &[a, b], false));
        // Same L2 bank: cache-controller window exists.
        assert!(w[NdcLocation::CacheController.index()].is_some());
        // Cold misses to the same MC: the MC window exists too.
        assert!(w[NdcLocation::MemoryController.index()].is_some());
    }

    #[test]
    fn breakeven_shrinks_with_distance() {
        let mut m = machine();
        let (a_addr, b_addr) = same_bank_addrs(&m.cfg);
        // Core far from bank 0 (node 24) vs adjacent core (node 1).
        let far = NodeId(24);
        let a = m.access(far, a_addr, 0, false, AccessIntent::NearData);
        let b = m.access(far, b_addr, 0, false, AccessIntent::NearData);
        let pair = [a, b];
        let conv_done = 500;
        let be_far = breakeven_by_location(
            &m,
            far,
            &candidate_meetings(&m, far, &pair, false),
            conv_done,
        )[NdcLocation::CacheController.index()]
        .unwrap();
        let near = NodeId(1);
        let be_near = breakeven_by_location(
            &m,
            near,
            &candidate_meetings(&m, near, &pair, false),
            conv_done,
        )[NdcLocation::CacheController.index()]
        .unwrap();
        // The far core pays more for the result return, so its
        // breakeven is smaller.
        assert!(be_far < be_near);
    }
}
