//! The epoch-barriered parallel lane engine.
//!
//! [`LaneEngine`] restructures the serial [`crate::engine::Engine`]
//! loop into **per-tile event lanes**: every core advances through its
//! own trace independently inside a bounded *epoch*, and all shared
//! machine state (NoC link horizons, L2 banks, DRAM controllers, the
//! coherence directory, NDC service tables, predictor tables) is read
//! from a snapshot **frozen at the epoch boundary** and mutated only at
//! the barrier, by draining per-core mailboxes in canonical core
//! order. This is a conservative parallel-discrete-event scheme: the
//! epoch length is the synchronization lookahead, derived from the
//! minimum NoC link latency (`hop_cycles × EPOCH_HOPS`), so no event a
//! lane computes can be invalidated by a message another lane sends in
//! the same epoch — cross-lane effects are simply deferred one barrier.
//!
//! # Determinism
//!
//! Results are **byte-identical for any `NDC_THREADS`** by
//! construction, not by locking:
//!
//! * a lane (worker) only ever mutates per-core state — which cores
//!   share a worker is the *only* thing the lane count changes;
//! * each core plans its NoC traffic on a private [`LanePlanner`]
//!   overlay; the barrier commits overlays with a commutative per-link
//!   max-merge, and commits them in fixed core order so telemetry and
//!   flit logs are byte-stable too;
//! * every cross-core side effect (L2 fills, DRAM requests, directory
//!   ops, service-table inserts, predictor observations, check/span
//!   replays, trace events) rides in a per-core mailbox drained in
//!   `(epoch, core, emission-sequence)` order.
//!
//! # Fidelity vs. the serial engine
//!
//! The lane engine is a *model* of the same machine, not a bit-exact
//! replay of the serial engine: within an epoch a core sees other
//! cores' L2 fills, link traffic, DRAM bank state, directory
//! invalidations, and predictor updates only as of the epoch start
//! (its **own** effects it sees immediately, via private overlays).
//! The serial engine remains the reference baseline; `ndc-eval scale`
//! reports both. All `ndc-check` invariants (retire-once, path
//! monotonicity, link occupancy, NDC/DRAM accounting, span
//! attribution) hold for lane runs at every mesh size.

use crate::engine::{
    record_ndc_span, record_pc_cache, CheckData, EngineOutput, LastWindowTable, PreResult,
    CHECK_SPAN_ONE_IN,
};
use crate::instrument::{Instrumentation, WindowObservation};
use crate::machine::{AccessIntent, AccessPath, L2Leg, Machine, MemLeg, REQ_BYTES, RESULT_BYTES};
use crate::ndc::{
    candidate_meetings, candidate_meetings_fused, plan_resolution, plan_resolution_fused,
    prefix_to, reply_routes, reshaped_candidates, window_observation, windows_by_location,
    AbortReason, Candidates, LocationPolicy, NdcOutcome, ResolveParams, ResolvePlan, ServiceTables,
};
use crate::report::build_metrics;
use crate::schemes::{
    MarkovPredictor, OracleDecision, OracleGuide, Scheme, WaitBudget, WINDOW_CAP,
};
use crate::stats::SimResult;
use ndc_noc::{LanePlanner, LinkId, LinkTraversal, Traversal};
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::{CheckLevel, Event, ObsLevel, RingSink};
use ndc_par::LanePool;
use ndc_types::{
    Addr, ArchConfig, Cycle, FxHashMap, FxHashSet, InstKind, NdcLocation, NodeId, Op, Operand, Pc,
    TraceProgram,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Epoch length in units of one NoC hop: the conservative lookahead is
/// `hop_cycles × EPOCH_HOPS` cycles. Large enough to amortize barrier
/// costs, small enough that cross-core state is at most one epoch
/// stale.
pub const EPOCH_HOPS: Cycle = 256;

/// A deferred `chk`/span replay item, kept in per-core emission order
/// so request numbering is independent of the lane count.
enum Replay {
    Path(Box<AccessPath>),
    NdcSpan {
        core: u32,
        loc_label: &'static str,
        issue: Cycle,
        wait: Cycle,
        op_done: Cycle,
        exec_cycles: Cycle,
        result_at_core: Cycle,
    },
}

/// A deferred coherence-directory operation (applied at the barrier).
enum DirOp {
    /// This core filled `line` in its L1 (read): register as sharer.
    AddSharer(Addr),
    /// This core evicted `line` from its L1: deregister.
    RemoveSharer(Addr),
    /// This core wrote `line`: invalidate every *other* sharer's L1.
    WriteInvalidate(Addr),
}

/// Everything a core defers to the epoch barrier, drained in canonical
/// core order — the "mailbox" of the lane scheme.
#[derive(Default)]
struct Mailbox {
    /// L2 accesses `(bank, addr)`, replayed into the live banks for
    /// state and statistics evolution.
    l2_ops: Vec<(usize, Addr)>,
    /// DRAM requests `(controller, addr, arrival)`.
    mc_ops: Vec<(usize, Addr, Cycle)>,
    dir_ops: Vec<DirOp>,
    /// NDC service-table inserts `(loc, node, release)`.
    table_ops: Vec<(NdcLocation, NodeId, Cycle)>,
    /// Check/span replays, in emission order (recorded only when a
    /// recorder is attached).
    replays: Vec<Replay>,
    /// Deferred trace-ring events.
    events: Vec<Event>,
    /// Last-Wait predictor observations `(pc, window)`.
    lw_obs: Vec<(Pc, Cycle)>,
    /// Markov predictor observations.
    mk_obs: Vec<(Pc, Option<Cycle>)>,
    /// Characterization records (instrumented baseline runs).
    instr_obs: Vec<WindowObservation>,
}

/// The shared, read-only epoch snapshot every lane reads.
struct Frozen<'a> {
    machine: &'a Machine,
    tables: &'a ServiceTables,
    last_window: &'a LastWindowTable,
    markov: &'a MarkovPredictor,
    guide: Option<&'a OracleGuide>,
    prog: &'a TraceProgram,
    scheme: Scheme,
    /// Trace-ring attached: record sink events into the mailbox.
    sink_enabled: bool,
    /// A `chk` or span recorder is attached: defer path replays.
    replay_paths: bool,
    spans_enabled: bool,
}

/// One per-tile event lane: a core's execution state plus its private
/// overlays over the frozen shared state.
struct LaneCore {
    c: usize,
    core: NodeId,
    l1: ndc_mem::SetAssocCache,
    planner: LanePlanner,
    // --- execution state (mirrors the serial engine's CoreState) ---
    idx: usize,
    now: Cycle,
    slot_acc: u32,
    outstanding: BinaryHeap<Reverse<Cycle>>,
    offload: Vec<Cycle>,
    finish: Cycle,
    compute_seq: usize,
    done: bool,
    /// Per-core scratch counters, merged into the run result in core
    /// order at the end.
    stats: SimResult,
    /// Pending pre-compute results (producer and consumer are the same
    /// core, so the table is lane-private).
    pre: Vec<Option<PreResult>>,
    // --- epoch-local overlays (reset at every barrier) ---
    /// Lazily-cloned DRAM controllers: own requests this epoch queue
    /// behind each other; other cores' traffic lands at the barrier.
    mc_view: Option<Vec<ndc_mem::MemoryController>>,
    /// L2 lines this core filled this epoch (line addresses).
    l2_overlay: FxHashSet<Addr>,
    /// Own Last-Wait observations this epoch (read before the frozen
    /// table, so a core's self-feedback loop matches the serial
    /// engine's).
    own_lw: FxHashMap<Pc, Cycle>,
    /// Collect characterization instrumentation on this run.
    collect: bool,
    /// This core's owning tenant (only read when the ledger is on).
    tenant: u16,
    /// Lane-local attribution ledger: all charges are commutative sums
    /// and sketch merges, folded into the run ledger in canonical core
    /// order at the end — byte-identical for any lane count.
    ledger: Option<AttributionLedger>,
    mail: Mailbox,
}

impl LaneCore {
    #[inline]
    fn charge_traverse(&mut self, flit_hops: u64) {
        if let Some(l) = &mut self.ledger {
            l.charge_traverse(self.tenant, flit_hops);
        }
    }

    #[inline]
    fn charge_dram(&mut self, bytes: u64) {
        if let Some(l) = &mut self.ledger {
            l.charge_dram(self.tenant, bytes);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn charge_ndc(
        &mut self,
        loc: usize,
        issue: Cycle,
        wait: Cycle,
        op_done: Cycle,
        exec_cycles: Cycle,
        result_at_core: Cycle,
    ) {
        if let Some(l) = &mut self.ledger {
            l.charge_ndc(
                self.tenant,
                loc,
                issue,
                wait,
                op_done,
                exec_cycles,
                result_at_core,
            );
        }
    }

    fn begin_epoch(&mut self) {
        self.planner.begin_epoch();
        self.mc_view = None;
        self.l2_overlay.clear();
        self.own_lw.clear();
    }

    /// Advance this core until its local clock reaches `epoch_end` or
    /// its trace is exhausted. Reads only `frozen` + own state.
    fn run_epoch(&mut self, fz: &Frozen<'_>, epoch_end: Cycle) {
        self.begin_epoch();
        let trace = &fz.prog.traces[self.c];
        while !self.done && self.now < epoch_end {
            if self.idx >= trace.insts.len() {
                self.drain_outstanding();
                break;
            }
            let inst = trace.insts[self.idx];
            self.idx += 1;
            self.exec_inst(fz, inst);
            if self.idx >= trace.insts.len() {
                self.drain_outstanding();
            }
        }
    }

    fn drain_outstanding(&mut self) {
        while let Some(Reverse(t)) = self.outstanding.pop() {
            self.finish = self.finish.max(t);
        }
        self.finish = self.finish.max(self.now);
        self.done = true;
    }

    fn exec_inst(&mut self, fz: &Frozen<'_>, inst: ndc_types::Inst) {
        let issue_width = fz.machine.cfg.issue_width.max(1);
        self.stats.issued_insts += 1;
        // Issue-slot accounting: `issue_width` instructions per cycle.
        self.slot_acc += 1;
        if self.slot_acc >= issue_width {
            self.slot_acc = 0;
            self.now += 1;
        }

        match inst.kind {
            InstKind::Busy { cycles } => {
                self.now += cycles as Cycle;
            }
            InstKind::Load { addr } => {
                self.mshr_acquire(fz, 1);
                let now = self.now;
                let path = self.lane_access(fz, addr, now, false, AccessIntent::ToCore);
                record_pc_cache(&mut self.stats, inst.pc, 0, &path);
                self.outstanding.push(Reverse(path.completion));
                self.finish = self.finish.max(path.completion);
            }
            InstKind::Store { addr } => {
                self.mshr_acquire(fz, 1);
                let now = self.now;
                let path = self.lane_access(fz, addr, now, true, AccessIntent::ToCore);
                record_pc_cache(&mut self.stats, inst.pc, 2, &path);
                self.outstanding.push(Reverse(path.completion));
                self.finish = self.finish.max(path.completion);
            }
            InstKind::Compute {
                op,
                a,
                b,
                store_to,
                precomputed,
            } => self.exec_compute(fz, inst.pc, op, a, b, store_to, precomputed),
            InstKind::PreCompute {
                id,
                op,
                a,
                b,
                store_to,
                stagger,
                reshape_routes,
            } => self.exec_precompute(fz, id, op, a, b, store_to, stagger, reshape_routes),
            InstKind::FusedPreCompute {
                id,
                n_ops,
                ops,
                addrs,
                stagger,
                reshape_routes,
            } => self.exec_fused_precompute(
                fz,
                id,
                &ops[..n_ops as usize],
                &addrs[..n_ops as usize + 1],
                stagger,
                reshape_routes,
            ),
        }
    }

    /// Block issue until an MSHR slot frees, charging the stall.
    fn mshr_acquire(&mut self, fz: &Frozen<'_>, need: usize) {
        let cap = fz.machine.cfg.mshrs.max(1) as usize;
        let before = self.now;
        while self.outstanding.len() + need > cap {
            match self.outstanding.pop() {
                Some(Reverse(t)) => self.now = self.now.max(t),
                None => break,
            }
        }
        self.stats.mshr_stall_cycles += self.now - before;
    }

    /// Stall until the LD/ST offload table has a free entry.
    fn offload_admit(&mut self, fz: &Frozen<'_>) {
        let cap = fz.machine.cfg.ndc.offload_table_entries.max(1);
        let before = self.now;
        let now = self.now;
        self.offload.retain(|&r| r > now);
        while self.offload.len() >= cap {
            let Some(min) = self.offload.iter().copied().min() else {
                break;
            };
            self.now = self.now.max(min);
            let now = self.now;
            self.offload.retain(|&r| r > now);
        }
        self.stats.offload_stall_cycles += self.now - before;
    }

    /// The memory-hierarchy walk of [`Machine::access`], against the
    /// frozen snapshot plus this core's private overlays. Timing math
    /// is identical; all shared-state mutations go to the mailbox.
    fn lane_access(
        &mut self,
        fz: &Frozen<'_>,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) -> AccessPath {
        let m = fz.machine;
        let cfg = &m.cfg;
        let mut path = AccessPath::new(addr, self.core, now);
        let width = cfg.noc.width;
        let core_coord = self.core.coord(width);
        let l1_latency = cfg.l1.latency;
        let l1_line = self.l1.line_addr(addr);

        // --- L1 (core-private: exact, not deferred) ---
        match intent {
            AccessIntent::ToCore => match self.l1.access(addr) {
                ndc_mem::AccessOutcome::Hit => {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    if write {
                        self.mail.dir_ops.push(DirOp::WriteInvalidate(l1_line));
                    }
                    self.record_path(fz, &path);
                    return path;
                }
                ndc_mem::AccessOutcome::Miss { evicted, coherence } => {
                    path.coherence_miss = coherence;
                    if let Some(ev) = evicted {
                        self.mail.dir_ops.push(DirOp::RemoveSharer(ev));
                    }
                }
            },
            AccessIntent::NearData => {
                if self.l1.probe(addr) {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    self.record_path(fz, &path);
                    return path;
                }
            }
        }

        // --- Request to the home L2 bank ---
        let home = cfg.l2_home(addr);
        let home_coord = home.coord(width);
        let mc = cfg.mc_of(addr);
        let mc_node = cfg.mc_node(mc);
        let mc_coord = mc_node.coord(width);
        path.reserve_legs(Vec::new(), core_coord, home_coord, mc_coord, intent);
        let req_links = m.mesh().xy_links(core_coord, home_coord);
        let req = self.send(
            fz,
            req_links,
            now + l1_latency,
            REQ_BYTES,
            Some(path.links_mut()),
        );
        let req_arrival = req.arrived;
        path.end_leg(0);

        // --- L2 bank: frozen residency + own fills this epoch ---
        let l2_latency = cfg.l2.latency;
        let l2_line = m.l2s[home.index()].line_addr(addr);
        let resident = m.l2s[home.index()].probe(addr) || self.l2_overlay.contains(&l2_line);
        self.mail.l2_ops.push((home.index(), addr));
        let (l2_hit, data_at_bank) = if resident {
            (true, req_arrival + l2_latency)
        } else {
            self.l2_overlay.insert(l2_line);
            // --- Memory controller + DRAM ---
            let to_mc = m.mesh().xy_links(home_coord, mc_coord);
            let mc_req = self.send(
                fz,
                to_mc,
                req_arrival + l2_latency,
                REQ_BYTES,
                Some(path.links_mut()),
            );
            path.end_leg(1);
            let mc_view = self.mc_view.get_or_insert_with(|| m.mcs.clone());
            let dram = mc_view[mc as usize].request(addr, mc_req.arrived);
            // Charged at plan time; the barrier replays this mc_op into
            // the live controller exactly once, so the per-run byte
            // totals stay conserved.
            self.charge_dram(cfg.l2.line_bytes);
            self.mail.mc_ops.push((mc as usize, addr, mc_req.arrived));
            // Refill back to the bank (carries the L2 line).
            let back = m.mesh().xy_links(mc_coord, home_coord);
            let line = cfg.l2.line_bytes;
            let refill = self.send(fz, back, dram.completion, line, Some(path.links_mut()));
            path.mem = Some(MemLeg {
                mc,
                mc_node,
                queue_enter: dram.queue_enter,
                service_start: dram.service_start,
                completion: dram.completion,
                dram_bank: dram.bank,
                row: dram.row,
            });
            (false, refill.arrived)
        };
        path.end_leg(2);
        path.l2 = Some(L2Leg {
            bank: home,
            req_arrival,
            hit: l2_hit,
            data_at_bank,
        });

        match intent {
            AccessIntent::NearData => {
                path.completion = data_at_bank;
            }
            AccessIntent::ToCore => {
                // --- Data reply to the core ---
                let reply_links = m.mesh().xy_links(home_coord, core_coord);
                let line = cfg.l1.line_bytes;
                let reply = self.send(fz, reply_links, data_at_bank, line, Some(path.links_mut()));
                path.completion = reply.arrived + l1_latency;
                if write {
                    self.mail.dir_ops.push(DirOp::WriteInvalidate(l1_line));
                } else {
                    self.mail.dir_ops.push(DirOp::AddSharer(l1_line));
                }
            }
        }
        self.record_path(fz, &path);
        path
    }

    /// Plan a traversal of `links` on this lane and charge it to the
    /// core's tenant.
    fn send(
        &mut self,
        fz: &Frozen<'_>,
        links: impl IntoIterator<Item = LinkId>,
        t: Cycle,
        bytes: u64,
        out: Option<&mut Vec<LinkTraversal>>,
    ) -> Traversal {
        let rec = self.planner.traverse(&fz.machine.net, links, t, bytes, out);
        self.charge_traverse(rec.flit_hops);
        rec
    }

    fn record_path(&mut self, fz: &Frozen<'_>, path: &AccessPath) {
        // Called exactly once per access, so the per-request charge
        // mirrors the serial `Machine::access` wrapper.
        if let Some(l) = &mut self.ledger {
            let q = path.mem.as_ref().map(|m| m.service_start - m.queue_enter);
            l.charge_request(self.tenant, path.latency(), q);
        }
        if fz.replay_paths {
            self.mail.replays.push(Replay::Path(Box::new(path.clone())));
        }
    }

    /// The resolution of [`crate::ndc::resolve`], with network charges
    /// going to the lane planner and the service-table insert deferred.
    /// `cands` are [`candidate_meetings`] for `(a, b, params.reshape)`.
    #[allow(clippy::too_many_arguments)]
    fn lane_resolve(
        &mut self,
        fz: &Frozen<'_>,
        op: Op,
        a: &AccessPath,
        b: &AccessPath,
        issue: Cycle,
        params: ResolveParams,
        cands: Candidates,
    ) -> NdcOutcome {
        let m = fz.machine;
        let cfg = m.cfg;
        let core = self.core;
        let own_tables = &self.mail.table_ops;
        let plan = plan_resolution(
            &cfg,
            |n| m.hop_latency(n, core),
            |loc, node, at| {
                fz.tables.live_at(loc, node, at)
                    + own_tables
                        .iter()
                        .filter(|&&(l, n, r)| l == loc && n == node && r > at)
                        .count()
            },
            op,
            a,
            b,
            issue,
            params,
            cands,
        );
        let (chosen, wait) = match plan {
            ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
            ResolvePlan::Perform { chosen, wait } => (chosen, wait),
        };

        // Charge the data movement of a link-buffer meeting: each
        // operand's data travels from its bank to the meeting router.
        let op_ready = chosen.ready();
        if chosen.loc == NdcLocation::LinkBuffer {
            if let (Some(l2a), Some(l2b)) = (a.l2, b.l2) {
                let (ra, rb) = reply_routes(m, core, l2a.bank, l2b.bank, params.reshape);
                let bytes = cfg.l1.line_bytes;
                for (route, l2) in [(ra, l2a), (rb, l2b)] {
                    if let Some(prefix) = prefix_to(m.mesh(), route.links(), chosen.node) {
                        self.send(fz, prefix, l2.data_at_bank, bytes, None);
                    }
                }
            }
        }

        let op_done = op_ready + 1;
        self.mail.table_ops.push((chosen.loc, chosen.node, op_done));
        // CPU-feed: the result returns to the core.
        let result_at_core = self.send_feed(fz, chosen.node, op_done);
        NdcOutcome::Performed {
            loc: chosen.loc,
            node: chosen.node,
            wait,
            op_done,
            result_at_core,
        }
    }

    /// Plan the CPU-feed from `node` back to this core; returns its
    /// arrival.
    fn send_feed(&mut self, fz: &Frozen<'_>, node: NodeId, t: Cycle) -> Cycle {
        let width = fz.machine.cfg.noc.width;
        let feed = fz
            .machine
            .mesh()
            .xy_links(node.coord(width), self.core.coord(width));
        self.send(fz, feed, t, RESULT_BYTES, None).arrived
    }

    /// Conventional execution of a two-operand compute starting at
    /// `start`. Returns the completion time and operand paths.
    #[allow(clippy::too_many_arguments)]
    fn conventional_compute(
        &mut self,
        fz: &Frozen<'_>,
        pc: Pc,
        a: Operand,
        b: Operand,
        store_to: Option<Addr>,
        start: Cycle,
    ) -> (Cycle, Option<AccessPath>, Option<AccessPath>) {
        let mut done = start;
        let pa = match a {
            Operand::Mem(addr) => {
                let p = self.lane_access(fz, addr, start, false, AccessIntent::ToCore);
                record_pc_cache(&mut self.stats, pc, 0, &p);
                done = done.max(p.completion);
                Some(p)
            }
            Operand::Imm(_) => None,
        };
        let pb = match b {
            Operand::Mem(addr) => {
                let p = self.lane_access(fz, addr, start, false, AccessIntent::ToCore);
                record_pc_cache(&mut self.stats, pc, 1, &p);
                done = done.max(p.completion);
                Some(p)
            }
            Operand::Imm(_) => None,
        };
        let done = done + 1; // the op itself
        if let Some(dst) = store_to {
            let p = self.lane_access(fz, dst, done, true, AccessIntent::ToCore);
            record_pc_cache(&mut self.stats, pc, 2, &p);
            self.outstanding.push(Reverse(p.completion));
            self.finish = self.finish.max(p.completion);
        }
        self.outstanding.push(Reverse(done));
        self.finish = self.finish.max(done);
        (done, pa, pb)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_compute(
        &mut self,
        fz: &Frozen<'_>,
        pc: Pc,
        op: Op,
        a: Operand,
        b: Operand,
        store_to: Option<Addr>,
        precomputed: Option<u32>,
    ) {
        let eligible = matches!((a, b), (Operand::Mem(_), Operand::Mem(_)));
        if eligible {
            self.stats.eligible_computes += 1;
        }
        let seq = self.compute_seq;
        if eligible {
            self.compute_seq += 1;
        }
        self.mshr_acquire(fz, 2);
        let start = self.now;

        // --- Compiled scheme: consume a pre-computed result. ---
        if let Some(id) = precomputed {
            let taken = self.pre.get_mut(id as usize).and_then(Option::take);
            match taken {
                Some(PreResult::Performed {
                    loc_index,
                    result_at_core,
                }) => {
                    let done = start.max(result_at_core);
                    self.stats.ndc_performed[loc_index] += 1;
                    if let Some(dst) = store_to {
                        let pw = self.lane_access(fz, dst, done, true, AccessIntent::ToCore);
                        record_pc_cache(&mut self.stats, pc, 2, &pw);
                        self.outstanding.push(Reverse(pw.completion));
                        self.finish = self.finish.max(pw.completion);
                    }
                    self.outstanding.push(Reverse(done));
                    self.finish = self.finish.max(done);
                    return;
                }
                Some(PreResult::LocalHit) => {
                    self.stats.ndc_local_hits += 1;
                    self.stats.ndc_abort_reasons[AbortReason::LocalHit.index()] += 1;
                    self.conventional_compute(fz, pc, a, b, store_to, start);
                    return;
                }
                Some(PreResult::Aborted { at }) => {
                    self.stats.ndc_aborts += 1;
                    let begin = start.max(at);
                    self.conventional_compute(fz, pc, a, b, store_to, begin);
                    return;
                }
                None => { /* dangling link: fall through to conventional */ }
            }
        }

        // --- Decide whether this compute is offloaded by the scheme. ---
        let mut oracle_reshape = false;
        let decision: Option<(LocationPolicy, Option<Cycle>)> = match fz.scheme {
            Scheme::Baseline | Scheme::Compiled => None,
            Scheme::NdcAll { budget } => {
                if eligible {
                    let lw = self
                        .own_lw
                        .get(&pc)
                        .copied()
                        .or_else(|| fz.last_window.get(pc));
                    match budget {
                        WaitBudget::LastWindow if lw.is_some_and(|w| w > WINDOW_CAP) => None,
                        WaitBudget::Markov => match fz.markov.predict(pc) {
                            Some(None) => None,
                            Some(Some(budget_cycles)) => {
                                Some((LocationPolicy::FirstOnPath, Some(budget_cycles)))
                            }
                            None => Some((LocationPolicy::FirstOnPath, Some(0))),
                        },
                        _ => Some((LocationPolicy::FirstOnPath, budget.cycles(lw))),
                    }
                } else {
                    None
                }
            }
            Scheme::Oracle { .. } => {
                if eligible {
                    match fz
                        .guide
                        .map(|g| g.decision(self.c, seq))
                        .unwrap_or(OracleDecision::Conventional)
                    {
                        OracleDecision::Conventional => None,
                        OracleDecision::Ndc { loc, reshape } => {
                            oracle_reshape = reshape;
                            Some((LocationPolicy::Only(loc), None))
                        }
                    }
                } else {
                    None
                }
            }
        };

        let (Operand::Mem(addr_a), Operand::Mem(addr_b)) = (a, b) else {
            self.conventional_compute(fz, pc, a, b, store_to, start);
            return;
        };

        let oracle_lead: Cycle = if matches!(fz.scheme, Scheme::Oracle { .. }) {
            150
        } else {
            0
        };

        match decision {
            None => {
                let collect = self.collect;
                let (done, pa, pb) = self.conventional_compute(fz, pc, a, b, store_to, start);
                if let (true, Some(pa), Some(pb)) = (collect, pa, pb) {
                    let obs = window_observation(fz.machine, self.core, pc, &pa, &pb, done);
                    self.mail.instr_obs.push(obs);
                }
            }
            Some((policy, budget)) => {
                self.stats.ndc_attempts += 1;
                self.offload_admit(fz);
                let start = self.now.max(start);
                // LD/ST probe + operand fetches toward their homes.
                let issue = start.saturating_sub(oracle_lead);
                let pa = self.lane_access(fz, addr_a, issue, false, AccessIntent::NearData);
                let pb = self.lane_access(fz, addr_b, issue, false, AccessIntent::NearData);
                let plain = candidate_meetings(fz.machine, self.core, &pa, &pb, false);
                let cands = if oracle_reshape {
                    reshaped_candidates(fz.machine, self.core, &pa, &pb, plain)
                } else {
                    plain
                };
                let outcome = self.lane_resolve(
                    fz,
                    op,
                    &pa,
                    &pb,
                    issue,
                    ResolveParams {
                        policy,
                        budget,
                        reshape: oracle_reshape,
                        ignore_limits: oracle_lead > 0,
                    },
                    cands,
                );
                // Track the actual window for the predictors.
                let windows = windows_by_location(&plain);
                let observed = windows.iter().flatten().min().copied();
                let w = observed.unwrap_or(WINDOW_CAP + 1);
                self.own_lw.insert(pc, w);
                self.mail.lw_obs.push((pc, w));
                self.mail.mk_obs.push((pc, observed));

                match outcome {
                    NdcOutcome::Performed {
                        loc,
                        result_at_core,
                        wait,
                        op_done,
                        ..
                    } => {
                        self.stats.ndc_performed[loc.index()] += 1;
                        self.stats.ndc_wait_cycles[loc.index()] += wait;
                        self.stats.ndc_offload_cycles[loc.index()] +=
                            result_at_core.saturating_sub(issue);
                        self.stats.ndc_offload_samples[loc.index()] += 1;
                        self.charge_ndc(loc.index(), issue, wait, op_done, 1, result_at_core);
                        if fz.spans_enabled {
                            self.mail.replays.push(Replay::NdcSpan {
                                core: self.c as u32,
                                loc_label: loc.paper_label(),
                                issue,
                                wait,
                                op_done,
                                exec_cycles: 1,
                                result_at_core,
                            });
                        }
                        if fz.sink_enabled {
                            self.mail.events.push(Event {
                                name: loc.trace_name(),
                                cat: "ndc",
                                ts: start,
                                dur: result_at_core.saturating_sub(start),
                                pid: 0,
                                tid: self.c as u32,
                            });
                        }
                        let done = if oracle_lead > 0 {
                            start
                        } else {
                            start.max(result_at_core)
                        };
                        if let Some(dst) = store_to {
                            let pw = self.lane_access(fz, dst, done, true, AccessIntent::ToCore);
                            record_pc_cache(&mut self.stats, pc, 2, &pw);
                            self.outstanding.push(Reverse(pw.completion));
                            self.finish = self.finish.max(pw.completion);
                        }
                        self.offload.push(done);
                        self.finish = self.finish.max(done);
                    }
                    NdcOutcome::Aborted {
                        reason: AbortReason::LocalHit,
                        ..
                    } => {
                        self.stats.ndc_local_hits += 1;
                        self.stats.ndc_abort_reasons[AbortReason::LocalHit.index()] += 1;
                        self.conventional_compute(fz, pc, a, b, store_to, start);
                    }
                    NdcOutcome::Aborted { reason, at } => {
                        self.stats.ndc_aborts += 1;
                        self.stats.ndc_abort_reasons[reason.index()] += 1;
                        if fz.sink_enabled {
                            self.mail.events.push(Event {
                                name: reason.trace_name(),
                                cat: "ndc",
                                ts: start,
                                dur: at.saturating_sub(start),
                                pid: 0,
                                tid: self.c as u32,
                            });
                        }
                        let begin = start.max(at);
                        // The failed offload occupied its table entry
                        // until the abort signal came back.
                        self.offload.push(begin);
                        self.conventional_compute(fz, pc, a, b, store_to, begin);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_precompute(
        &mut self,
        fz: &Frozen<'_>,
        id: u32,
        op: Op,
        a: Addr,
        b: Addr,
        store_to: Option<Addr>,
        stagger: i32,
        reshape_routes: bool,
    ) {
        // Non-compiled schemes ignore stray pre-computes (defensive).
        if fz.scheme != Scheme::Compiled {
            return;
        }
        self.offload_admit(fz);
        self.stats.ndc_attempts += 1;
        let start = self.now;

        // Local-cache probe (Figure 1: "Local $ probe. If found, skip
        // NDC").
        if self.l1.probe(a) || self.l1.probe(b) {
            self.pre_insert(id, PreResult::LocalHit);
            return;
        }

        // Staggered operand fetches: positive delays b, negative delays
        // a — the compiler's arrival alignment.
        let (ta, tb) = if stagger >= 0 {
            (start, start + stagger as Cycle)
        } else {
            (start + (-stagger) as Cycle, start)
        };
        let pa = self.lane_access(fz, a, ta, false, AccessIntent::NearData);
        let pb = self.lane_access(fz, b, tb, false, AccessIntent::NearData);
        let cands = candidate_meetings(fz.machine, self.core, &pa, &pb, reshape_routes);
        let outcome = self.lane_resolve(
            fz,
            op,
            &pa,
            &pb,
            start,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: reshape_routes,
                ignore_limits: false,
            },
            cands,
        );
        let _ = store_to;
        match outcome {
            NdcOutcome::Performed {
                loc,
                result_at_core,
                wait,
                op_done,
                ..
            } => {
                self.stats.ndc_wait_cycles[loc.index()] += wait;
                self.stats.ndc_offload_cycles[loc.index()] += result_at_core.saturating_sub(start);
                self.stats.ndc_offload_samples[loc.index()] += 1;
                self.charge_ndc(loc.index(), start, wait, op_done, 1, result_at_core);
                if fz.spans_enabled {
                    self.mail.replays.push(Replay::NdcSpan {
                        core: self.c as u32,
                        loc_label: loc.paper_label(),
                        issue: start,
                        wait,
                        op_done,
                        exec_cycles: 1,
                        result_at_core,
                    });
                }
                if fz.sink_enabled {
                    self.mail.events.push(Event {
                        name: loc.trace_name(),
                        cat: "pre",
                        ts: start,
                        dur: result_at_core.saturating_sub(start),
                        pid: 0,
                        tid: self.c as u32,
                    });
                }
                self.offload.push(result_at_core);
                self.pre_insert(
                    id,
                    PreResult::Performed {
                        loc_index: loc.index(),
                        result_at_core,
                    },
                );
            }
            NdcOutcome::Aborted {
                reason: AbortReason::LocalHit,
                ..
            } => {
                self.pre_insert(id, PreResult::LocalHit);
            }
            NdcOutcome::Aborted { reason, at } => {
                self.stats.ndc_abort_reasons[reason.index()] += 1;
                if fz.sink_enabled {
                    self.mail.events.push(Event {
                        name: reason.trace_name(),
                        cat: "pre",
                        ts: start,
                        dur: at.saturating_sub(start),
                        pid: 0,
                        tid: self.c as u32,
                    });
                }
                self.offload.push(at);
                self.pre_insert(id, PreResult::Aborted { at });
            }
        }
    }

    /// The lane counterpart of [`crate::ndc::resolve_fused`]: network
    /// charges go to the lane planner, the service-table insert is
    /// deferred to the barrier mailbox.
    fn lane_resolve_fused(
        &mut self,
        fz: &Frozen<'_>,
        ops: &[Op],
        paths: &[AccessPath],
        issue: Cycle,
        params: ResolveParams,
    ) -> NdcOutcome {
        let m = fz.machine;
        let cfg = m.cfg;
        let core = self.core;
        let cands = candidate_meetings_fused(m, core, paths, params.reshape);
        let own_tables = &self.mail.table_ops;
        let plan = plan_resolution_fused(
            &cfg,
            |n| m.hop_latency(n, core),
            |loc, node, at| {
                fz.tables.live_at(loc, node, at)
                    + own_tables
                        .iter()
                        .filter(|&&(l, n, r)| l == loc && n == node && r > at)
                        .count()
            },
            ops,
            paths,
            issue,
            params,
            cands,
        );
        let (chosen, wait) = match plan {
            ResolvePlan::Abort { reason, at } => return NdcOutcome::Aborted { reason, at },
            ResolvePlan::Perform { chosen, wait } => (chosen, wait),
        };

        // A link-buffer meeting moves each operand's data from its bank
        // to the meeting router.
        if chosen.loc == NdcLocation::LinkBuffer {
            let width = cfg.noc.width;
            let cc = core.coord(width);
            for p in paths {
                let Some(l2) = p.l2 else { continue };
                let route = m.mesh().xy_links(l2.bank.coord(width), cc);
                if let Some(prefix) = prefix_to(m.mesh(), route, chosen.node) {
                    self.send(fz, prefix, l2.data_at_bank, cfg.l1.line_bytes, None);
                }
            }
        }

        // The chain executes serially at the component: one cycle per op.
        let op_done = chosen.ready() + ops.len() as Cycle;
        self.mail.table_ops.push((chosen.loc, chosen.node, op_done));
        let result_at_core = self.send_feed(fz, chosen.node, op_done);
        NdcOutcome::Performed {
            loc: chosen.loc,
            node: chosen.node,
            wait,
            op_done,
            result_at_core,
        }
    }

    /// The lane counterpart of the serial engine's fused pre-compute:
    /// one offload-table entry, one gather, results for every chain
    /// member id; accounting scales by the chain length exactly as in
    /// the serial engine.
    fn exec_fused_precompute(
        &mut self,
        fz: &Frozen<'_>,
        id: u32,
        ops: &[Op],
        addrs: &[Addr],
        stagger: i32,
        reshape_routes: bool,
    ) {
        // Non-compiled schemes ignore stray pre-computes (defensive).
        if fz.scheme != Scheme::Compiled {
            return;
        }
        let n_ops = ops.len() as u32;
        self.offload_admit(fz);
        self.stats.ndc_attempts += n_ops as u64;
        let start = self.now;

        // Local-cache probe over the whole gather set.
        if addrs.iter().any(|&a| self.l1.probe(a)) {
            for k in 0..n_ops {
                self.pre_insert(id + k, PreResult::LocalHit);
            }
            return;
        }

        // Stagger aligns the head pair; the tail gathers issue with the
        // earlier head operand.
        let (ta, tb) = if stagger >= 0 {
            (start, start + stagger as Cycle)
        } else {
            (start + (-stagger) as Cycle, start)
        };
        let paths: Vec<AccessPath> = addrs
            .iter()
            .enumerate()
            .map(|(k, &addr)| {
                let t = match k {
                    0 => ta,
                    1 => tb,
                    _ => start,
                };
                self.lane_access(fz, addr, t, false, AccessIntent::NearData)
            })
            .collect();
        let outcome = self.lane_resolve_fused(
            fz,
            ops,
            &paths,
            start,
            ResolveParams {
                policy: LocationPolicy::FirstOnPath,
                budget: None,
                reshape: reshape_routes,
                ignore_limits: false,
            },
        );
        match outcome {
            NdcOutcome::Performed {
                loc,
                result_at_core,
                wait,
                op_done,
                ..
            } => {
                self.stats.ndc_wait_cycles[loc.index()] += wait;
                self.stats.ndc_offload_cycles[loc.index()] += result_at_core.saturating_sub(start);
                self.stats.ndc_offload_samples[loc.index()] += 1;
                self.charge_ndc(
                    loc.index(),
                    start,
                    wait,
                    op_done,
                    n_ops as Cycle,
                    result_at_core,
                );
                if fz.spans_enabled {
                    self.mail.replays.push(Replay::NdcSpan {
                        core: self.c as u32,
                        loc_label: loc.paper_label(),
                        issue: start,
                        wait,
                        op_done,
                        exec_cycles: n_ops as Cycle,
                        result_at_core,
                    });
                }
                if fz.sink_enabled {
                    self.mail.events.push(Event {
                        name: loc.fused_trace_name(n_ops as usize),
                        cat: "pre",
                        ts: start,
                        dur: result_at_core.saturating_sub(start),
                        pid: 0,
                        tid: self.c as u32,
                    });
                }
                self.offload.push(result_at_core);
                for k in 0..n_ops {
                    self.pre_insert(
                        id + k,
                        PreResult::Performed {
                            loc_index: loc.index(),
                            result_at_core,
                        },
                    );
                }
            }
            NdcOutcome::Aborted {
                reason: AbortReason::LocalHit,
                ..
            } => {
                for k in 0..n_ops {
                    self.pre_insert(id + k, PreResult::LocalHit);
                }
            }
            NdcOutcome::Aborted { reason, at } => {
                self.stats.ndc_abort_reasons[reason.index()] += n_ops as u64;
                if fz.sink_enabled {
                    self.mail.events.push(Event {
                        name: reason.trace_name(),
                        cat: "pre",
                        ts: start,
                        dur: at.saturating_sub(start),
                        pid: 0,
                        tid: self.c as u32,
                    });
                }
                self.offload.push(at);
                for k in 0..n_ops {
                    self.pre_insert(id + k, PreResult::Aborted { at });
                }
            }
        }
    }

    fn pre_insert(&mut self, id: u32, r: PreResult) {
        let i = id as usize;
        if i >= self.pre.len() {
            self.pre.resize(i + 1, None);
        }
        // Pending-slot occupancy audit (satellite of the 16×16 table
        // sweep): a slot is re-filled only after its consumer took the
        // previous result, so live entries never exceed the static
        // pre-compute count of this core's trace.
        debug_assert!(self.pre[i].is_none(), "precompute id {id} double-filled");
        self.pre[i] = Some(r);
    }
}

/// The parallel counterpart of [`crate::engine::Engine`]: same
/// builder surface, same [`EngineOutput`].
pub struct LaneEngine<'a> {
    cfg: ArchConfig,
    prog: &'a TraceProgram,
    scheme: Scheme,
    guide: Option<&'a OracleGuide>,
    collect: bool,
    obs: ObsLevel,
    check: CheckLevel,
    lanes: Option<usize>,
    /// Owning tenant per core (missing entries → tenant 0); only read
    /// when the ledger is enabled.
    tenants: Vec<u16>,
}

impl<'a> LaneEngine<'a> {
    pub fn new(cfg: ArchConfig, prog: &'a TraceProgram, scheme: Scheme) -> Self {
        LaneEngine {
            cfg,
            prog,
            scheme,
            guide: None,
            collect: false,
            obs: ObsLevel::off(),
            check: CheckLevel::off(),
            lanes: None,
            tenants: Vec::new(),
        }
    }

    /// Assign cores to tenants for the attribution ledger (`tenants[c]`
    /// owns core `c`; unlisted cores belong to tenant 0). Ignored
    /// unless the run enables the ledger.
    pub fn with_tenants(mut self, tenants: Vec<u16>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Attach an oracle guide (required for `Scheme::Oracle`).
    pub fn with_guide(mut self, guide: &'a OracleGuide) -> Self {
        self.guide = Some(guide);
        self
    }

    /// Collect characterization instrumentation (baseline runs).
    pub fn with_instrumentation(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Collect component-level observability (metrics tree / trace
    /// ring). Purely observational: simulated timing is unchanged.
    pub fn with_obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// Collect the invariant-checker event stream ([`CheckData`]).
    pub fn with_check(mut self, check: CheckLevel) -> Self {
        self.check = check;
        self
    }

    /// Pin the lane count (default: `NDC_THREADS` / host parallelism).
    /// The result is byte-identical for every choice; this only sets
    /// how many worker threads share the per-core lanes.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    pub fn run(self) -> EngineOutput {
        let mut machine = Machine::new(self.cfg);
        if self.obs.metrics {
            machine.net.enable_obs();
        }
        if self.check.invariants {
            machine.enable_check();
        }
        if self.obs.span_one_in > 0 {
            machine.enable_spans(self.obs.span_one_in);
        } else if self.check.invariants {
            machine.enable_spans(CHECK_SPAN_ONE_IN);
        }
        let mut ring =
            (self.obs.trace_capacity > 0).then(|| RingSink::new(self.obs.trace_capacity));
        let mut tables = ServiceTables::default();
        let mut instr = self
            .collect
            .then(|| Instrumentation::new(self.prog.traces.len()));
        let mut result = SimResult {
            program: self.prog.name.clone(),
            scheme: self.scheme.label(),
            ..Default::default()
        };
        let mut last_window = LastWindowTable::for_program(self.prog);
        let mut markov = MarkovPredictor::new();

        // Build the lanes, taking ownership of each core's private L1.
        let num_links = machine.mesh().num_links();
        let nodes = self.cfg.nodes();
        // Attribution: explicit request, or the single-tenant ledger a
        // checked run needs to feed the conservation invariant.
        let ledger_on = self.obs.ledger || self.check.invariants;
        let mut seen = vec![false; nodes];
        let mut cores: Vec<LaneCore> = self
            .prog
            .traces
            .iter()
            .enumerate()
            .map(|(c, t)| {
                assert!(
                    t.core.index() < nodes,
                    "trace {c} names core {} outside the {nodes}-node mesh",
                    t.core.index()
                );
                assert!(
                    !std::mem::replace(&mut seen[t.core.index()], true),
                    "two traces share core {}: per-tile lanes require distinct cores",
                    t.core.index()
                );
                let pre_slots = t
                    .insts
                    .iter()
                    .filter_map(|i| match i.kind {
                        InstKind::PreCompute { id, .. } => Some(id as usize + 1),
                        InstKind::FusedPreCompute { id, n_ops, .. } => {
                            Some(id as usize + n_ops as usize)
                        }
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
                LaneCore {
                    c,
                    core: t.core,
                    l1: std::mem::replace(
                        &mut machine.l1s[t.core.index()],
                        ndc_mem::SetAssocCache::new(self.cfg.l1),
                    ),
                    planner: LanePlanner::new(num_links),
                    idx: 0,
                    now: 0,
                    slot_acc: 0,
                    outstanding: BinaryHeap::new(),
                    offload: Vec::new(),
                    finish: 0,
                    compute_seq: 0,
                    done: t.insts.is_empty(),
                    stats: SimResult::default(),
                    pre: vec![None; pre_slots],
                    mc_view: None,
                    l2_overlay: FxHashSet::default(),
                    own_lw: FxHashMap::default(),
                    collect: self.collect,
                    tenant: self.tenants.get(t.core.index()).copied().unwrap_or(0),
                    ledger: ledger_on.then(|| AttributionLedger::new(1)),
                    mail: Mailbox::default(),
                }
            })
            .collect();

        let pool = match self.lanes {
            Some(n) => LanePool::new(n),
            None => LanePool::for_env(),
        };
        let hops = std::env::var("NDC_EPOCH_HOPS")
            .ok()
            .and_then(|v| v.trim().parse::<Cycle>().ok())
            .filter(|&h| h > 0)
            .unwrap_or(EPOCH_HOPS);
        let lookahead = self.cfg.noc.hop_cycles.max(1) * hops;

        // `NDC_LANE_PROF=1`: report the wall-clock split between the
        // parallel phase and the serial barrier on stderr — the first
        // thing to look at when lane scaling disappoints.
        let prof = std::env::var("NDC_LANE_PROF").is_ok();
        let (mut epochs, mut phase_ns, mut barrier_ns) = (0u64, 0u64, 0u64);

        while let Some(min_now) = cores.iter().filter(|l| !l.done).map(|l| l.now).min() {
            let epoch_end = (min_now / lookahead + 1) * lookahead;
            let issued_before: u64 = cores.iter().map(|l| l.stats.issued_insts).sum();

            // --- Parallel phase: every lane against the frozen snapshot. ---
            {
                let fz = Frozen {
                    machine: &machine,
                    tables: &tables,
                    last_window: &last_window,
                    markov: &markov,
                    guide: self.guide,
                    prog: self.prog,
                    scheme: self.scheme,
                    sink_enabled: ring.is_some(),
                    replay_paths: machine.chk.is_some() || machine.spans.is_some(),
                    spans_enabled: machine.spans.is_some(),
                };
                let t0 = prof.then(std::time::Instant::now);
                pool.run_sharded(&mut cores, |_, lc| lc.run_epoch(&fz, epoch_end));
                if let Some(t0) = t0 {
                    phase_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            let t0 = prof.then(std::time::Instant::now);

            // --- Barrier: drain mailboxes in canonical core order. ---
            // Cross-core L1 invalidations are queued here (the target
            // L1s are owned by other lanes) and applied after the
            // drain, in queue order.
            let mut pending_inval: Vec<(usize, Addr)> = Vec::new();
            for lc in &mut cores {
                lc.planner.commit(&mut machine.net);
                for (bank, addr) in lc.mail.l2_ops.drain(..) {
                    machine.l2s[bank].access(addr);
                }
                for (mc, addr, arrival) in lc.mail.mc_ops.drain(..) {
                    machine.mcs[mc].request(addr, arrival);
                }
                for op in lc.mail.dir_ops.drain(..) {
                    match op {
                        DirOp::AddSharer(line) => machine.dir.add_sharer(line, lc.core.index()),
                        DirOp::RemoveSharer(line) => {
                            machine.dir.remove_sharer(line, lc.core.index())
                        }
                        DirOp::WriteInvalidate(line) => {
                            pending_inval.extend(
                                machine
                                    .dir
                                    .write_by(line, lc.core.index())
                                    .map(|o| (o, line)),
                            );
                        }
                    }
                }
                for (loc, node, release) in lc.mail.table_ops.drain(..) {
                    tables.insert(loc, node, release);
                }
                for (pc, w) in lc.mail.lw_obs.drain(..) {
                    last_window.set(pc, w);
                }
                for (pc, obs) in lc.mail.mk_obs.drain(..) {
                    markov.observe(pc, obs);
                }
                if let Some(ins) = instr.as_mut() {
                    for obs in lc.mail.instr_obs.drain(..) {
                        ins.record(lc.c, obs);
                    }
                }
                for replay in lc.mail.replays.drain(..) {
                    match replay {
                        Replay::Path(p) => {
                            if let Some(chk) = machine.chk.as_mut() {
                                chk.record_path(&p);
                            }
                            if let Some(spans) = machine.spans.as_mut() {
                                spans.record_path(&p);
                            }
                        }
                        Replay::NdcSpan {
                            core,
                            loc_label,
                            issue,
                            wait,
                            op_done,
                            exec_cycles,
                            result_at_core,
                        } => record_ndc_span(
                            &mut machine,
                            core,
                            loc_label,
                            issue,
                            wait,
                            op_done,
                            exec_cycles,
                            result_at_core,
                        ),
                    }
                }
                if let Some(r) = ring.as_mut() {
                    use ndc_obs::ObsSink;
                    for ev in lc.mail.events.drain(..) {
                        r.record(ev);
                    }
                }
            }
            // Cross-core write invalidations are visible to lane L1s
            // from the next epoch: apply the queued invalidations now.
            if !pending_inval.is_empty() {
                let mut lane_of = vec![usize::MAX; nodes];
                for (i, lc) in cores.iter().enumerate() {
                    lane_of[lc.core.index()] = i;
                }
                for (node, line) in pending_inval {
                    match lane_of.get(node).copied() {
                        Some(i) if i != usize::MAX => cores[i].l1.invalidate(line),
                        _ => machine.l1s[node].invalidate(line),
                    }
                }
            }
            tables.prune_released(min_now);
            if let Some(t0) = t0 {
                barrier_ns += t0.elapsed().as_nanos() as u64;
            }
            epochs += 1;

            let issued_after: u64 = cores.iter().map(|l| l.stats.issued_insts).sum();
            let all_done = cores.iter().all(|l| l.done);
            assert!(
                issued_after > issued_before || all_done,
                "lane engine stalled: no instruction issued in epoch ending at {epoch_end}"
            );
        }

        if prof {
            eprintln!(
                "lane-prof: {epochs} epochs, parallel phase {:.1} ms, barrier {:.1} ms",
                phase_ns as f64 / 1e6,
                barrier_ns as f64 / 1e6
            );
        }

        // --- Restore lane-owned state and merge per-core counters. ---
        for lc in &mut cores {
            machine.l1s[lc.core.index()] =
                std::mem::replace(&mut lc.l1, ndc_mem::SetAssocCache::new(self.cfg.l1));
        }
        result.per_core_cycles = cores.iter().map(|l| l.finish).collect();
        result.total_cycles = cores.iter().map(|l| l.finish).max().unwrap_or(0);
        for lc in &cores {
            merge_counters(&mut result, &lc.stats);
        }
        result.l1 = machine.l1_totals();
        result.l2 = machine.l2_totals();
        result.noc_messages = machine.net.messages;
        result.noc_queueing_cycles = machine.net.queueing_cycles;
        result.noc_flit_hops = machine.net.flit_hops;
        result.total_computes = self.prog.total_computes();

        // Fold lane ledgers in canonical core order. Row count matches
        // the serial engine's: the padded tenant map's maximum + 1.
        let ledger = ledger_on.then(|| {
            let rows = self
                .tenants
                .iter()
                .take(nodes)
                .map(|&t| t as usize + 1)
                .max()
                .unwrap_or(1);
            let mut led = AttributionLedger::new(rows);
            for lc in &cores {
                if let Some(l) = &lc.ledger {
                    led.merge(l);
                }
            }
            led
        });

        let mut metrics = self.obs.metrics.then(|| build_metrics(&machine, &result));
        if let (Some(m), Some(l)) = (metrics.as_mut(), ledger.as_ref()) {
            crate::report::ledger_metrics(m, l);
        }
        if let (Some(m), Some(r)) = (metrics.as_mut(), ring.as_ref()) {
            let obs = m.tree("obs");
            obs.counter("events_dropped", r.dropped());
            for (cat, n) in r.dropped_by_cat() {
                obs.tree("events_dropped_by_cat").counter(cat, *n);
            }
        }
        let events_dropped = ring.as_ref().map_or(0, RingSink::dropped);
        let events = ring.map(RingSink::into_events).unwrap_or_default();
        let spans = machine
            .spans
            .take()
            .map(crate::machine::SpanRecorder::into_traces)
            .unwrap_or_default();
        let check = self
            .check
            .invariants
            .then(|| CheckData::collect(&mut machine));
        EngineOutput {
            result,
            instrumentation: instr,
            metrics,
            events,
            spans,
            check,
            ledger,
            events_dropped,
        }
    }
}

/// Merge one lane's scratch counters into the run result, preserving
/// per-core emission order inside the per-PC maps so the merged maps'
/// iteration order (and `Debug` rendering) is lane-count-independent.
fn merge_counters(result: &mut SimResult, s: &SimResult) {
    result.issued_insts += s.issued_insts;
    result.mshr_stall_cycles += s.mshr_stall_cycles;
    result.offload_stall_cycles += s.offload_stall_cycles;
    result.eligible_computes += s.eligible_computes;
    result.ndc_attempts += s.ndc_attempts;
    result.ndc_aborts += s.ndc_aborts;
    result.ndc_local_hits += s.ndc_local_hits;
    for i in 0..4 {
        result.ndc_performed[i] += s.ndc_performed[i];
        result.ndc_wait_cycles[i] += s.ndc_wait_cycles[i];
        result.ndc_offload_cycles[i] += s.ndc_offload_cycles[i];
        result.ndc_offload_samples[i] += s.ndc_offload_samples[i];
    }
    for i in 0..s.ndc_abort_reasons.len() {
        result.ndc_abort_reasons[i] += s.ndc_abort_reasons[i];
    }
    for (k, v) in &s.pc_l1 {
        let e = result.pc_l1.entry(*k).or_default();
        e.hits += v.hits;
        e.misses += v.misses;
        e.coherence_misses += v.coherence_misses;
    }
    for (k, v) in &s.pc_l2 {
        let e = result.pc_l2.entry(*k).or_default();
        e.hits += v.hits;
        e.misses += v.misses;
        e.coherence_misses += v.coherence_misses;
    }
}

/// Run a scheme end-to-end on the lane engine, handling the oracle's
/// two-pass protocol (the instrumented baseline runs on lanes too).
pub fn simulate_lanes(cfg: ArchConfig, prog: &TraceProgram, scheme: Scheme) -> EngineOutput {
    simulate_lanes_obs(cfg, prog, scheme, ObsLevel::off())
}

/// [`simulate_lanes`] with observability.
pub fn simulate_lanes_obs(
    cfg: ArchConfig,
    prog: &TraceProgram,
    scheme: Scheme,
    obs: ObsLevel,
) -> EngineOutput {
    match scheme {
        Scheme::Oracle { reuse_aware } => {
            let base = LaneEngine::new(cfg, prog, Scheme::Baseline)
                .with_instrumentation()
                .run();
            let records = &base
                .instrumentation
                .as_ref()
                .expect("instrumented baseline")
                .records;
            let guide = OracleGuide::build(records, prog, cfg.l1.line_bytes, reuse_aware);
            let mut out = LaneEngine::new(cfg, prog, scheme)
                .with_guide(&guide)
                .with_obs(obs)
                .run();
            out.result.scheme = scheme.label();
            out
        }
        _ => LaneEngine::new(cfg, prog, scheme).with_obs(obs).run(),
    }
}

/// [`simulate_lanes_obs`] with a core→tenant assignment for the
/// attribution ledger (only the measured run is attributed under the
/// oracle's two-pass protocol).
pub fn simulate_lanes_tenants(
    cfg: ArchConfig,
    prog: &TraceProgram,
    scheme: Scheme,
    obs: ObsLevel,
    tenants: Vec<u16>,
) -> EngineOutput {
    match scheme {
        Scheme::Oracle { reuse_aware } => {
            let base = LaneEngine::new(cfg, prog, Scheme::Baseline)
                .with_instrumentation()
                .run();
            let records = &base
                .instrumentation
                .as_ref()
                .expect("instrumented baseline")
                .records;
            let guide = OracleGuide::build(records, prog, cfg.l1.line_bytes, reuse_aware);
            let mut out = LaneEngine::new(cfg, prog, scheme)
                .with_guide(&guide)
                .with_obs(obs)
                .with_tenants(tenants)
                .run();
            out.result.scheme = scheme.label();
            out
        }
        _ => LaneEngine::new(cfg, prog, scheme)
            .with_obs(obs)
            .with_tenants(tenants)
            .run(),
    }
}

/// [`simulate_lanes`] with the invariant-checker stream enabled.
pub fn simulate_lanes_checked(
    cfg: ArchConfig,
    prog: &TraceProgram,
    scheme: Scheme,
) -> EngineOutput {
    match scheme {
        Scheme::Oracle { reuse_aware } => {
            let base = LaneEngine::new(cfg, prog, Scheme::Baseline)
                .with_instrumentation()
                .run();
            let records = &base
                .instrumentation
                .as_ref()
                .expect("instrumented baseline")
                .records;
            let guide = OracleGuide::build(records, prog, cfg.l1.line_bytes, reuse_aware);
            let mut out = LaneEngine::new(cfg, prog, scheme)
                .with_guide(&guide)
                .with_check(CheckLevel::full())
                .run();
            out.result.scheme = scheme.label();
            out
        }
        _ => LaneEngine::new(cfg, prog, scheme)
            .with_check(CheckLevel::full())
            .run(),
    }
}
