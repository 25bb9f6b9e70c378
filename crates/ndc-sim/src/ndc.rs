//! NDC compute-package resolution.
//!
//! Given the two operand journeys of an offloaded computation, decide
//! *where* the operands can meet (link buffer on their data routes, the
//! common home L2 bank, the common memory controller, or the common
//! DRAM bank — Figure 1's ⓐ–ⓓ), *how long* the first operand waits
//! (the arrival window), and whether the attempt aborts (time-out
//! register, full service table, disabled component, disallowed op).
//!
//! The candidate evaluation mirrors the hardware flow of §2: the
//! package travels with the operand requests and computes at the first
//! component where both operands are available; the oracle scheme
//! instead picks the best location, and Figure 14's isolation runs
//! restrict candidates via the control register.

use crate::instrument::WindowObservation;
use crate::machine::{AccessPath, Machine};
use ndc_noc::{best_signature_pair, converging_pair, LinkId, Mesh, Route, XyLinks};
use ndc_types::{Cycle, NdcLocation, NodeId, Op, Pc, ALL_NDC_LOCATIONS};

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
    /// When each operand is available there.
    pub t_a: Cycle,
    pub t_b: Cycle,
}

impl Meeting {
    /// The arrival window: how long the first operand waits for the
    /// second.
    pub fn window(&self) -> Cycle {
        self.t_a.abs_diff(self.t_b)
    }

    pub fn ready(&self) -> Cycle {
        self.t_a.max(self.t_b)
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

    pub fn is_empty(&self) -> bool {
        self.len == 0
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

impl NdcOutcome {
    pub fn performed(&self) -> bool {
        matches!(self, NdcOutcome::Performed { .. })
    }
}

/// How to choose among feasible meeting points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationPolicy {
    /// The hardware's general flow: first component along the data
    /// path (link buffer → cache controller → MC → memory bank).
    FirstOnPath,
    /// Oracle: the component minimizing result-at-core time.
    Best,
    /// Restrict to one component (Figure 14 isolation; control
    /// register ⓔ).
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

    /// Total live entries across all components (occupancy audit).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
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

    pub fn clear(&mut self) {
        for v in &mut self.entries {
            v.clear();
        }
    }
}

/// Enumerate the candidate meetings for two operand paths, ordered by
/// where the operands' *data* first co-locates physically:
///
/// 1. the shared home L2 bank (the data converges there — no reply
///    messages exist under NDC, so no link meeting is possible);
/// 2. the shared memory controller / DRAM bank (refills pass through
///    before any reply);
/// 3. a common link of the data-reply routes toward the core — the
///    fallback when no memory-side component is shared, and the place
///    route reshaping (`reshape`) creates overlap (§5.2.1, Figure 11).
///
/// A pure function of the two paths and the mesh: callers compute it
/// once per compute and derive windows, breakevens and the resolution
/// from the result.
pub fn candidate_meetings(
    machine: &Machine,
    core: NodeId,
    a: &AccessPath,
    b: &AccessPath,
    reshape: bool,
) -> Candidates {
    let mut out = Candidates::default();

    // Both operands must actually travel (L1 hits never leave the
    // core, so no meeting is possible anywhere).
    let (Some(l2a), Some(l2b)) = (a.l2, b.l2) else {
        return out;
    };
    let same_bank = l2a.bank == l2b.bank;

    // --- Cache controller: both operands homed at the same L2 bank. ---
    if same_bank {
        out.push(Meeting {
            loc: NdcLocation::CacheController,
            node: l2a.bank,
            t_a: l2a.data_at_bank,
            t_b: l2b.data_at_bank,
        });
    }

    // --- Memory side: both operands L2-missed to the same
    // controller. When they also live in the same DRAM bank, the
    // computation happens *in memory* (§2: "performed in memory if
    // both A and B are currently residing in the same memory bank") —
    // the data is born co-located, so in-array computation is the
    // deepest, cheapest meeting and takes precedence over the queue;
    // the windows gate on the two access commands reaching the device.
    if let (Some(ma), Some(mb)) = (a.mem, b.mem) {
        if ma.mc == mb.mc {
            let loc = if ma.dram_bank == mb.dram_bank {
                NdcLocation::MemoryBank
            } else {
                NdcLocation::MemoryController
            };
            out.push(Meeting {
                loc,
                node: ma.mc_node,
                t_a: ma.queue_enter,
                t_b: mb.queue_enter,
            });
        }
    }

    // --- Link buffer: only reachable when the operands' data actually
    // moves on the network as two separate messages (different home
    // banks): common links of the data routes toward the core, plus
    // any actual refill-leg overlap. ---
    if !same_bank {
        let mesh = machine.mesh();
        let (route_a, route_b) = reply_routes(machine, core, l2a.bank, l2b.bank, reshape);
        let mut best_link = None;
        // Entry time of operand X on hop k of its route: data leaves
        // the bank at data_at_bank and pays `hop` per link.
        let hop = machine.cfg.noc.hop_cycles;
        // One pass over route a, looking each link up on route b (a
        // minimal route holds a link at most once).
        for (ka, la) in route_a.links().enumerate() {
            if let Some(kb) = route_b.links().position(|lb| lb == la) {
                keep_tighter(
                    &mut best_link,
                    Meeting {
                        loc: NdcLocation::LinkBuffer,
                        node: mesh.link_router(la),
                        t_a: l2a.data_at_bank + hop * ka as Cycle,
                        t_b: l2b.data_at_bank + hop * kb as Cycle,
                    },
                );
            }
        }
        // Refill legs (MC -> bank) can also overlap — the "second
        // router attempt" on the L2-miss path of the paper's trial
        // order.
        for ta in a.data_links() {
            for tb in b.data_links() {
                if ta.link == tb.link {
                    keep_tighter(
                        &mut best_link,
                        Meeting {
                            loc: NdcLocation::LinkBuffer,
                            node: mesh.link_router(ta.link),
                            t_a: ta.enter,
                            t_b: tb.enter,
                        },
                    );
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
/// the link meeting depends on the reply routes, and it exists only
/// when the operands' banks differ, so other pairs reuse `plain`.
pub fn reshaped_candidates(
    machine: &Machine,
    core: NodeId,
    a: &AccessPath,
    b: &AccessPath,
    plain: Candidates,
) -> Candidates {
    match (a.l2, b.l2) {
        (Some(l2a), Some(l2b)) if l2a.bank != l2b.bank => {
            candidate_meetings(machine, core, a, b, true)
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

/// Enumerate the candidate meetings for an n-operand fused gather
/// (one multi-op pre-compute packet): the same physical convergence
/// points as [`candidate_meetings`], but *every* gathered operand must
/// co-locate there. The window generalizes to the full arrival spread
/// (`t_a` = earliest operand, `t_b` = latest), so `Meeting::window`
/// is the wait the first-arriving operand endures for the last.
///
/// Link meetings use the operands' XY reply routes (route reshaping is
/// a pairwise signature optimization; with three or more gathered
/// operands the packet falls back to XY) and require a link common to
/// every route. Refill-leg overlap is not considered for fused
/// packets — with n operands the pairwise leg intersections no longer
/// describe a single component all operands pass through.
pub fn candidate_meetings_fused(
    machine: &Machine,
    core: NodeId,
    paths: &[AccessPath],
    reshape: bool,
) -> Candidates {
    let mut out = Candidates::default();
    // Every operand must actually travel.
    let Some(first) = paths.first().and_then(|p| p.l2) else {
        return out;
    };
    if paths.iter().any(|p| p.l2.is_none()) {
        return out;
    }
    let l2 = |k: usize| paths[k].l2.expect("every operand reached its bank");
    let operands = 0..paths.len();
    let same_bank = operands.clone().all(|k| l2(k).bank == first.bank);

    // --- Cache controller: all operands homed at the same L2 bank. ---
    if same_bank {
        let (t_a, t_b) = spread(operands.clone().map(|k| l2(k).data_at_bank));
        out.push(Meeting {
            loc: NdcLocation::CacheController,
            node: first.bank,
            t_a,
            t_b,
        });
    }

    // --- Memory side: all operands L2-missed to the same controller
    // (same DRAM bank deepens the meeting to the bank itself). ---
    if let Some(m0) = paths[0].mem {
        if paths.iter().all(|p| p.mem.is_some_and(|m| m.mc == m0.mc)) {
            let mem = |k: usize| paths[k].mem.expect("every operand reached the controller");
            let (t_a, t_b) = spread(operands.clone().map(|k| mem(k).queue_enter));
            let loc = if operands.clone().all(|k| mem(k).dram_bank == m0.dram_bank) {
                NdcLocation::MemoryBank
            } else {
                NdcLocation::MemoryController
            };
            out.push(Meeting {
                loc,
                node: m0.mc_node,
                t_a,
                t_b,
            });
        }
    }

    // --- Link buffer: a link every operand's data-reply route crosses. ---
    if !same_bank {
        let mesh = machine.mesh();
        let cc = machine.coord(core);
        let hop = machine.cfg.noc.hop_cycles;
        let reshaped = (reshape && paths.len() == 2)
            .then(|| reply_routes(machine, core, l2(0).bank, l2(1).bank, true));
        let route = |k: usize| match &reshaped {
            Some((ra, rb)) => [ra, rb][k].links(),
            None => ReplyLinks::Walk(mesh.xy_links(machine.coord(l2(k).bank), cc)),
        };
        let mut best_link = None;
        // Candidate links come from the first route; each must appear
        // on every other route too.
        'links: for (k0, link) in route(0).enumerate() {
            let mut t_min = l2(0).data_at_bank + hop * k0 as Cycle;
            let mut t_max = t_min;
            for k in operands.clone().skip(1) {
                let Some(pos) = route(k).position(|l| l == link) else {
                    continue 'links;
                };
                let t = l2(k).data_at_bank + hop * pos as Cycle;
                t_min = t_min.min(t);
                t_max = t_max.max(t);
            }
            keep_tighter(
                &mut best_link,
                Meeting {
                    loc: NdcLocation::LinkBuffer,
                    node: mesh.link_router(link),
                    t_a: t_min,
                    t_b: t_max,
                },
            );
        }
        if let Some(m) = best_link {
            out.push(m);
        }
    }

    out
}

/// Earliest and latest of a non-empty set of arrival times.
fn spread(times: impl Iterator<Item = Cycle> + Clone) -> (Cycle, Cycle) {
    (times.clone().min().unwrap_or(0), times.max().unwrap_or(0))
}

/// Resolve a fused multi-op package: one gather of all operands, one
/// chain execution (`ops.len()` cycles at the component), one CPU-feed
/// carrying the final chain value home.
pub fn resolve_fused(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    ops: &[Op],
    paths: &[AccessPath],
    issue: Cycle,
    params: ResolveParams,
) -> NdcOutcome {
    machine.attribute_to(core);
    let cfg = machine.cfg;
    let cands = candidate_meetings_fused(machine, core, paths, params.reshape);
    let plan = plan_resolution(
        machine,
        tables,
        core,
        ops,
        paths.iter(),
        issue,
        params,
        cands,
    );
    let (chosen, wait) = match plan {
        ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
        ResolvePlan::Perform { chosen, wait } => (chosen, wait),
    };

    // A link-buffer meeting moves each operand's data from its bank to
    // the meeting router.
    if chosen.loc == NdcLocation::LinkBuffer {
        let cc = machine.coord(core);
        for p in paths {
            let Some(l2) = p.l2 else { continue };
            let route = machine.mesh().xy_links(machine.coord(l2.bank), cc);
            if let Some(prefix) = prefix_to(machine.mesh(), route, chosen.node) {
                machine.send_data_along(prefix, l2.data_at_bank, cfg.l1.line_bytes);
            }
        }
    }

    // The chain executes serially at the component: one cycle per op.
    let op_done = chosen.ready() + ops.len() as Cycle;
    tables.insert(chosen.loc, chosen.node, op_done);
    let result_at_core = machine.send_result(chosen.node, core, op_done);
    NdcOutcome::Performed {
        loc: chosen.loc,
        node: chosen.node,
        wait,
        op_done,
        result_at_core,
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

/// The data-reply routes used for link-overlap evaluation: XY, or with
/// `reshape` the maximal-overlap pair of §5.2.1.
fn reply_routes(
    machine: &Machine,
    core: NodeId,
    bank_a: NodeId,
    bank_b: NodeId,
    reshape: bool,
) -> (ReplyRoute, ReplyRoute) {
    let mesh = machine.mesh();
    let ca = machine.coord(bank_a);
    let cb = machine.coord(bank_b);
    let cc = machine.coord(core);
    if !reshape {
        return (
            ReplyRoute::Walk(mesh.xy_links(ca, cc)),
            ReplyRoute::Walk(mesh.xy_links(cb, cc)),
        );
    }
    match converging_pair(mesh, ca, cb, cc) {
        Some((ra, rb)) => (ReplyRoute::Walk(ra), ReplyRoute::Walk(rb)),
        None => {
            let pair = best_signature_pair(mesh, ca, cc, cb, cc);
            (
                ReplyRoute::Listed(pair.route_a),
                ReplyRoute::Listed(pair.route_b),
            )
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
    /// Use reshaped reply routes for the link-buffer candidate.
    pub reshape: bool,
    /// Oracle mode: skip the time-out register and service-table
    /// capacity (perfect scheduling never trips either).
    pub ignore_limits: bool,
}

/// Resolve an NDC package: pick a meeting, enforce the control
/// register / op class / service tables / time-out, charge the network
/// for the data movement that actually happens, and produce the
/// outcome.
///
/// `issue` is when the LD/ST unit injected the package; aborts resolve
/// at `issue + wasted-wait` and the engine then falls back to
/// conventional execution.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    op: Op,
    a: &AccessPath,
    b: &AccessPath,
    issue: Cycle,
    params: ResolveParams,
) -> NdcOutcome {
    let cands = candidate_meetings(machine, core, a, b, params.reshape);
    resolve_with_candidates(machine, tables, core, op, a, b, issue, params, cands)
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
/// executes the chain `ops` at the meeting component. A pair package
/// is the one-op, two-path case. The checks run in hardware order, each
/// with its own abort time: local L1 copy, op class, co-location,
/// scheme budget, time-out register, service table. Only the last
/// touches `tables` (pruning released entries); nothing allocates.
/// `cands` are the unfiltered candidate meetings of `paths`.
#[allow(clippy::too_many_arguments)]
fn plan_resolution<'p>(
    machine: &Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    ops: &[Op],
    paths: impl Iterator<Item = &'p AccessPath> + Clone,
    issue: Cycle,
    params: ResolveParams,
    mut cands: Candidates,
) -> ResolvePlan {
    let cfg = &machine.cfg;
    // Local L1 copy of any operand: the LD/ST unit skips the offload
    // (handled by the caller for timing; reported here for
    // completeness).
    if paths.clone().any(|p| p.l1_hit) {
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
    match params.policy {
        LocationPolicy::Only(loc) => cands.retain(|m| m.loc == loc),
        LocationPolicy::FirstOnPath | LocationPolicy::Best => {}
    }
    if cands.is_empty() {
        // The package traveled with the operands to the end of the path
        // and nothing met; the hardware knows once every journey
        // resolves, and signals the offload table (no time-out wait).
        let at = paths.map(|p| p.completion).fold(issue, Cycle::max);
        return ResolvePlan::Abort {
            reason: AbortReason::NoColocation,
            at,
        };
    }

    let chosen = match params.policy {
        LocationPolicy::Best => *cands
            .iter()
            .min_by_key(|m| m.ready() + machine.hop_latency(m.node, core))
            .unwrap(),
        _ => cands.first().expect("checked non-empty above"),
    };

    let wait = chosen.window();
    // Scheme budget: the first operand leaves after `budget` cycles.
    if let Some(budget) = params.budget {
        if wait > budget {
            let first = chosen.t_a.min(chosen.t_b);
            return ResolvePlan::Abort {
                reason: AbortReason::BudgetExceeded,
                at: first + budget,
            };
        }
    }
    // Hardware time-out register.
    if !params.ignore_limits {
        if let Some(tmo) = cfg.ndc.timeout {
            if wait > tmo {
                let first = chosen.t_a.min(chosen.t_b);
                return ResolvePlan::Abort {
                    reason: AbortReason::Timeout,
                    at: first + tmo,
                };
            }
        }
    }
    // Service table capacity at the component. A full table triggers
    // the time-out mechanism (§2): the request lingers until the
    // time-out expires and is then performed at the original core —
    // the expensive path that makes indiscriminate offloading hurt.
    let arrive = chosen.t_a.min(chosen.t_b);
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

/// [`resolve`] with the candidate meetings already computed.
///
/// `candidate_meetings` is a pure function of the two operand paths and
/// the mesh, so callers that also need the pair's windows compute the
/// candidates once and hand them in here. Only this part reads and
/// writes the service tables and link horizons. `cands` must be the
/// unfiltered output of [`candidate_meetings`] for
/// `(core, a, b, params.reshape)`.
#[allow(clippy::too_many_arguments)]
pub fn resolve_with_candidates(
    machine: &mut Machine,
    tables: &mut ServiceTables,
    core: NodeId,
    op: Op,
    a: &AccessPath,
    b: &AccessPath,
    issue: Cycle,
    params: ResolveParams,
    cands: Candidates,
) -> NdcOutcome {
    machine.attribute_to(core);
    let cfg = machine.cfg;
    let plan = plan_resolution(
        machine,
        tables,
        core,
        &[op],
        [a, b].into_iter(),
        issue,
        params,
        cands,
    );
    let (chosen, wait) = match plan {
        ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
        ResolvePlan::Perform { chosen, wait } => (chosen, wait),
    };

    // Charge the data movement that actually happens for a link-buffer
    // meeting: each operand's data travels from its bank to the meeting
    // router.
    let op_ready = chosen.ready();
    if chosen.loc == NdcLocation::LinkBuffer {
        if let (Some(l2a), Some(l2b)) = (a.l2, b.l2) {
            let (ra, rb) = reply_routes(machine, core, l2a.bank, l2b.bank, params.reshape);
            let bytes = cfg.l1.line_bytes;
            for (route, l2) in [(ra, l2a), (rb, l2b)] {
                if let Some(prefix) = prefix_to(machine.mesh(), route.links(), chosen.node) {
                    machine.send_data_along(prefix, l2.data_at_bank, bytes);
                }
            }
        }
    }

    let op_done = op_ready + 1;
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
        let t1 = m.t_a.min(m.t_b);
        let ret = machine.hop_latency(m.node, core);
        let be = conv_done.saturating_sub(t1 + 1 + ret);
        let slot = &mut out[m.loc.index()];
        if slot.is_none_or(|cur| be > cur) {
            *slot = Some(be);
        }
    }
    out
}

/// The characterization record of one conventionally executed compute
/// (instrumented baseline runs): windows under XY and reshaped reply
/// routes plus breakevens, from one plain candidate pass and — only
/// when the operands' banks differ — one reshaped pass.
pub fn window_observation(
    machine: &Machine,
    core: NodeId,
    pc: Pc,
    a: &AccessPath,
    b: &AccessPath,
    conv_done: Cycle,
) -> WindowObservation {
    let plain = candidate_meetings(machine, core, a, b, false);
    let reshaped = reshaped_candidates(machine, core, a, b, plain);
    WindowObservation {
        pc,
        windows: windows_by_location(&plain),
        windows_reshaped: windows_by_location(&reshaped),
        breakevens: breakeven_by_location(machine, core, &plain, conv_done),
        conv_done,
    }
}

/// All four locations, exported for iteration in reports.
pub fn all_locations() -> [NdcLocation; 4] {
    ALL_NDC_LOCATIONS
}

/// Alias used by the engine: a resolution request's full inputs.
pub struct NdcResolution;

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
        let cands = candidate_meetings(&m, core, &a, &b, false);
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
        let cands = candidate_meetings(&m, core, &a, &b, false);
        assert!(!cands.iter().any(|c| c.loc == NdcLocation::CacheController));
        // Banks 0=(0,0) and 1=(1,0) routing XY to (2,2): share links
        // from (2,0) down? Route a: e,e,s,s; route b: e,s,s. Common:
        // the south links at column 2.
        assert!(cands.iter().any(|c| c.loc == NdcLocation::LinkBuffer));
    }

    #[test]
    fn l1_hit_operand_aborts_with_local_hit() {
        let mut m = machine();
        let core = NodeId(5);
        m.access(core, 0x1000, 0, false, AccessIntent::ToCore);
        let a = m.access(core, 0x1000, 100, false, AccessIntent::NearData);
        let b = m.access(core, 0x2000, 100, false, AccessIntent::NearData);
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            100,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
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
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Mul,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
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
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
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
        let mut tables = ServiceTables::default();
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            5000,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: Some(10),
                reshape: false,
                ignore_limits: false,
            },
        );
        match out {
            NdcOutcome::Aborted { reason, at } => {
                assert_eq!(reason, AbortReason::BudgetExceeded);
                let l2a = a.l2.unwrap();
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
        let out = resolve(
            &mut m,
            &mut tables,
            core,
            Op::Add,
            &a,
            &b,
            0,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: false,
                ignore_limits: false,
            },
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
        let w = windows_by_location(&candidate_meetings(&m, core, &a, &b, false));
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
        let conv_done = 500;
        let be_far = breakeven_by_location(
            &m,
            far,
            &candidate_meetings(&m, far, &a, &b, false),
            conv_done,
        )[NdcLocation::CacheController.index()]
        .unwrap();
        let near = NodeId(1);
        let be_near = breakeven_by_location(
            &m,
            near,
            &candidate_meetings(&m, near, &a, &b, false),
            conv_done,
        )[NdcLocation::CacheController.index()]
        .unwrap();
        // The far core pays more for the result return, so its
        // breakeven is smaller.
        assert!(be_far < be_near);
    }
}
