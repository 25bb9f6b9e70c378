//! The memory system walk.
//!
//! [`Machine::access`] models one data access's full journey: L1 probe,
//! request over the NoC to the address's static-NUCA home L2 bank, on a
//! miss a request to the owning memory controller and its DRAM banks,
//! the refill back to the bank, and (for conventional accesses) the
//! data reply to the requesting core. The [`AccessPath`] it fills
//! carries per-location presence timestamps — the raw material both for
//! the paper's arrival-window instrumentation (Figure 2) and for NDC
//! package resolution.

use ndc_mem::{AccessOutcome, Directory, MemoryController, RowOutcome, SetAssocCache};
use ndc_noc::{LinkId, LinkTraversal, Mesh, Network, Traversal};
use ndc_obs::ledger::AttributionLedger;
use ndc_obs::span::{Label, Span, SpanSampler, SpanTrace, QUEUE, STALL};
use ndc_types::{Addr, AddrMap, ArchConfig, CheckKind, CheckRecord, Coord, Cycle, NodeId};

/// Size in bytes of a request message (address + command).
pub const REQ_BYTES: u64 = 16;
/// Size in bytes of an NDC result / CPU-feed message.
pub const RESULT_BYTES: u64 = 16;

/// The L2 leg of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Leg {
    /// Home bank (static NUCA, line-interleaved).
    pub bank: NodeId,
    /// When the request reached the bank's controller.
    pub req_arrival: Cycle,
    pub hit: bool,
    /// When the data was available at the bank: `req_arrival + latency`
    /// on a hit, refill arrival on a miss. This is the operand's
    /// "arrival at the cache controller" for window purposes.
    pub data_at_bank: Cycle,
}

/// The memory leg of an access (L2 miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLeg {
    pub mc: u32,
    pub mc_node: NodeId,
    /// Arrival in the controller queue — the operand's "arrival at the
    /// memory controller".
    pub queue_enter: Cycle,
    /// DRAM bank service start — the operand's "arrival at the memory
    /// bank".
    pub service_start: Cycle,
    /// Data leaves the device.
    pub completion: Cycle,
    pub dram_bank: u32,
    /// Row-buffer outcome of the DRAM access.
    pub row: RowOutcome,
}

/// Complete record of one access. A caller that walks many accesses
/// keeps one path per operand and hands it to
/// [`Machine::access_into`], which refills it in place and reuses its
/// link buffer.
#[derive(Debug, Clone, Default)]
pub struct AccessPath {
    pub addr: Addr,
    pub core: NodeId,
    pub issued: Cycle,
    /// When the data reached its destination (core for conventional
    /// accesses; the L2 bank for NDC operand fetches).
    pub completion: Cycle,
    pub l1_hit: bool,
    /// This access missed L1 because of a prior invalidation.
    pub coherence_miss: bool,
    pub l2: Option<L2Leg>,
    pub mem: Option<MemLeg>,
    /// Every link traversal of the access in path order, leg after leg:
    /// request (core → home bank), MC request (bank → controller),
    /// refill (controller → bank), reply (bank → core). One buffer per
    /// access, sliced by the leg accessors.
    links: Vec<LinkTraversal>,
    /// End offsets in `links` of the request, MC-request and refill
    /// legs; the reply leg runs to the end.
    leg_ends: [u16; 3],
}

impl AccessPath {
    /// Start the path over as an access that has not left the core yet,
    /// keeping the link buffer's capacity.
    fn reset(&mut self, addr: Addr, core: NodeId, issued: Cycle) {
        self.addr = addr;
        self.core = core;
        self.issued = issued;
        self.completion = issued;
        self.l1_hit = false;
        self.coherence_miss = false;
        self.l2 = None;
        self.mem = None;
        self.links.clear();
        self.leg_ends = [0; 3];
    }

    pub fn latency(&self) -> Cycle {
        self.completion - self.issued
    }

    /// Make room in the link buffer for every leg an access from `core`
    /// to its `home` bank can take: the request, on a miss the MC
    /// request and refill via `mc`, and the reply of a conventional
    /// access. The buffer then never grows mid-walk.
    fn reserve_legs(&mut self, core: Coord, home: Coord, mc: Coord, intent: AccessIntent) {
        let reply = match intent {
            AccessIntent::ToCore => home.manhattan(core),
            AccessIntent::NearData => 0,
        };
        self.links
            .reserve((core.manhattan(home) + 2 * home.manhattan(mc) + reply) as usize);
    }

    /// The link buffer the next leg's traversals are appended to.
    fn links_mut(&mut self) -> &mut Vec<LinkTraversal> {
        &mut self.links
    }

    /// Close leg `leg` (0 = request, 1 = MC request, 2 = refill) at the
    /// current end of the buffer. Legs an access skips close empty.
    fn end_leg(&mut self, leg: usize) {
        let end =
            u16::try_from(self.links.len()).expect("a path spans at most four minimal routes");
        for e in &mut self.leg_ends[leg..] {
            *e = end;
        }
    }

    /// Request-leg link traversals (core → home L2 bank).
    pub fn req_links(&self) -> &[LinkTraversal] {
        &self.links[..self.leg_ends[0] as usize]
    }

    /// MC-request-leg link traversals (home bank → memory controller).
    pub fn mc_links(&self) -> &[LinkTraversal] {
        &self.links[self.leg_ends[0] as usize..self.leg_ends[1] as usize]
    }

    /// Refill-leg link traversals (memory controller → home bank).
    pub fn refill_links(&self) -> &[LinkTraversal] {
        &self.links[self.leg_ends[1] as usize..self.leg_ends[2] as usize]
    }

    /// Reply-leg link traversals (home bank → core).
    pub fn reply_links(&self) -> &[LinkTraversal] {
        &self.links[self.leg_ends[2] as usize..]
    }

    /// Data-carrying link traversals (refill + reply legs): where this
    /// operand's *data* was present on the network, for link-buffer
    /// window measurement.
    pub fn data_links(&self) -> &[LinkTraversal] {
        &self.links[self.leg_ends[1] as usize..]
    }
}

/// How far the data should travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessIntent {
    /// Conventional demand access: data comes to the core and fills L1.
    ToCore,
    /// NDC operand fetch: data converges at its home L2 bank (or DRAM);
    /// no L1 fill, no reply to the core.
    NearData,
}

/// Records the request-path half of the check-event contract
/// (`ndc_obs::chk`): each completed [`AccessPath`] becomes one freshly
/// numbered request whose presence timestamps are replayed as check
/// records in path order. The invariant checker later asserts each
/// request id retires exactly once with monotonic timestamps.
#[derive(Debug, Default)]
pub struct CheckRecorder {
    records: Vec<CheckRecord>,
    next_id: u32,
}

impl CheckRecorder {
    fn push(&mut self, kind: CheckKind, ts: Cycle, id: u32) {
        self.records.push(CheckRecord::new(kind, id, ts));
    }

    /// Replay one access's presence timestamps as check records.
    pub fn record_path(&mut self, path: &AccessPath) {
        let id = self.next_id;
        self.next_id += 1;
        self.push(CheckKind::Issue, path.issued, id);
        if let Some(l2) = &path.l2 {
            self.push(CheckKind::L2Req, l2.req_arrival, id);
            if let Some(mem) = &path.mem {
                self.push(CheckKind::MemQueue, mem.queue_enter, id);
                self.push(CheckKind::MemService, mem.service_start, id);
                self.push(CheckKind::MemDone, mem.completion, id);
            }
            self.push(CheckKind::DataAtBank, l2.data_at_bank, id);
        }
        self.push(CheckKind::Retire, path.completion, id);
    }

    /// Requests recorded so far.
    pub fn requests(&self) -> u32 {
        self.next_id
    }

    pub fn records(&self) -> &[CheckRecord] {
        &self.records
    }

    pub fn into_records(self) -> Vec<CheckRecord> {
        self.records
    }
}

/// Seed of the span sampler: fixed so the sampled-request set is a
/// property of the run, not of the environment.
pub const SPAN_SEED: u64 = 0x005e_ed0f_5a2a_2021;

/// Builds exact-partition span trees ([`ndc_obs::span`]) from completed
/// [`AccessPath`]s. Requests are numbered in issue order (identical at
/// any thread count — each simulation is single-threaded) and sampled
/// deterministically by id, so the collected traces are byte-identical
/// across `NDC_THREADS`.
#[derive(Debug)]
pub struct SpanRecorder {
    sampler: SpanSampler,
    traces: Vec<SpanTrace>,
    next_id: u64,
    l1_latency: Cycle,
    l2_latency: Cycle,
}

impl SpanRecorder {
    pub fn new(cfg: &ArchConfig, one_in: u32) -> SpanRecorder {
        SpanRecorder {
            sampler: SpanSampler::new(SPAN_SEED, one_in),
            traces: Vec::new(),
            next_id: 0,
            l1_latency: cfg.l1.latency,
            l2_latency: cfg.l2.latency,
        }
    }

    /// Take the next request id, returning it if the id is sampled.
    /// Every request and every performed NDC offload takes one id, in
    /// issue order, so the sampled set does not depend on which trees
    /// get built; a caller builds a tree only for a returned id.
    pub(crate) fn sample(&mut self) -> Option<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.sampler.keep(id).then_some(id)
    }

    /// Turn one access path into a span tree, if its id is sampled.
    ///
    /// Construction mirrors the timing chain of
    /// [`Machine::access`] exactly — `traverse` guarantees each hop's
    /// entry is at or after the previous hop's exit, and the DRAM
    /// queue-enter equals the MC-request arrival — so every child
    /// level tiles its parent with only labelled `queue`/`stall`
    /// residue (the invariant `ndc-check` asserts).
    pub fn record_path(&mut self, path: &AccessPath) {
        let Some(id) = self.sample() else {
            return;
        };
        let mut root = Span::new("req", path.issued, path.completion);
        if path.l1_hit {
            root.leaf("l1", path.issued, path.completion);
        } else {
            root.leaf("l1", path.issued, path.issued + self.l1_latency);
            if let Some(l2) = &path.l2 {
                push_noc_span(
                    &mut root,
                    "noc:req",
                    path.issued + self.l1_latency,
                    l2.req_arrival,
                    path.req_links(),
                );
                root.leaf("l2", l2.req_arrival, l2.req_arrival + self.l2_latency);
                if let Some(mem) = &path.mem {
                    push_noc_span(
                        &mut root,
                        "noc:mc_req",
                        l2.req_arrival + self.l2_latency,
                        mem.queue_enter,
                        path.mc_links(),
                    );
                    let mut mc = Span::new("mc", mem.queue_enter, mem.completion);
                    mc.leaf(mem.row.span_label(), mem.service_start, mem.completion);
                    mc.fill_residue(QUEUE);
                    root.push(mc);
                    push_noc_span(
                        &mut root,
                        "noc:refill",
                        mem.completion,
                        l2.data_at_bank,
                        path.refill_links(),
                    );
                }
                if path.completion > l2.data_at_bank {
                    // Conventional reply: bank → core, then the L1 fill.
                    push_noc_span(
                        &mut root,
                        "noc:reply",
                        l2.data_at_bank,
                        path.completion - self.l1_latency,
                        path.reply_links(),
                    );
                    root.leaf("l1", path.completion - self.l1_latency, path.completion);
                }
            }
        }
        // The chain above is gap-free by construction; any residue an
        // edge case leaves is attributed explicitly, never lost.
        self.record_span(id, path.core.index() as u32, path.addr, root);
    }

    /// Record the tree of sampled id `id` (from [`SpanRecorder::sample`]):
    /// a memory request's, or an NDC execution's (the engine owns
    /// offload timing; the recorder owns ids and sampling, and an
    /// offload's `addr` is 0). Gaps at the root become `stall` residue.
    pub(crate) fn record_span(&mut self, id: u64, core: u32, addr: u64, mut root: Span) {
        root.fill_residue(STALL);
        self.traces.push(SpanTrace {
            id,
            core,
            addr,
            root,
        });
    }

    /// Requests considered so far (sampled or not).
    pub fn requests(&self) -> u64 {
        self.next_id
    }

    pub fn traces(&self) -> &[SpanTrace] {
        &self.traces
    }

    pub fn into_traces(self) -> Vec<SpanTrace> {
        self.traces
    }
}

/// Append a `label` span covering `[start, end)` whose children are the
/// given link hops plus explicit `queue` residue. Zero-width legs
/// (zero-hop routes) are skipped entirely.
fn push_noc_span(
    parent: &mut Span,
    label: &'static str,
    start: Cycle,
    end: Cycle,
    links: &[LinkTraversal],
) {
    if start == end && links.is_empty() {
        return;
    }
    let mut noc = Span::new(label, start, end);
    for l in links {
        noc.leaf(Label::Link(l.link.0), l.enter, l.exit);
    }
    noc.fill_residue(QUEUE);
    parent.push(noc);
}

/// Tenant-attribution state: per-core owners plus the ledger every
/// simulated cost is charged to. Boxed and `None` by default so the
/// hot path pays one branch when attribution is off.
#[derive(Debug)]
pub struct AttrState {
    /// Owning tenant per core, indexed by `NodeId`.
    tenants: Vec<u16>,
    /// Tenant currently on the hook — set from the issuing core at the
    /// top of [`Machine::access`] and by [`Machine::attribute_to`]
    /// before component-side work (NDC resolution).
    current: u16,
    pub ledger: AttributionLedger,
}

/// The simulated machine: caches, directory, network, controllers.
pub struct Machine {
    pub cfg: ArchConfig,
    pub net: Network,
    pub l1s: Vec<SetAssocCache>,
    pub l2s: Vec<SetAssocCache>,
    pub dir: Directory,
    pub mcs: Vec<MemoryController>,
    /// Check-event recorder; `None` (the default) keeps `access` on its
    /// original path apart from one branch.
    pub chk: Option<CheckRecorder>,
    /// Span-trace recorder; `None` (the default) costs one branch.
    pub spans: Option<SpanRecorder>,
    /// Attribution ledger; `None` (the default) costs one branch per
    /// charge site. Charging never reads simulated time, so enabling it
    /// cannot perturb results.
    pub attr: Option<Box<AttrState>>,
    /// The configuration's address maps, without divisions.
    map: AddrMap,
    /// Mesh coordinates of every node, indexed by `NodeId`.
    coords: Vec<Coord>,
    /// Node of every memory controller.
    mc_nodes: Vec<NodeId>,
}

impl Machine {
    pub fn new(cfg: ArchConfig) -> Self {
        let mesh = Mesh::new(cfg.noc);
        let nodes = cfg.nodes();
        Machine {
            cfg,
            net: Network::new(mesh),
            l1s: (0..nodes).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2s: (0..nodes).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            dir: Directory::new(cfg.l1.line_bytes, nodes),
            mcs: (0..cfg.mem.num_controllers)
                .map(|_| MemoryController::new(cfg))
                .collect(),
            chk: None,
            spans: None,
            attr: None,
            map: cfg.addr_map(),
            coords: (0..nodes)
                .map(|n| NodeId(n as u16).coord(cfg.noc.width))
                .collect(),
            mc_nodes: (0..cfg.mem.num_controllers)
                .map(|mc| cfg.mc_node(mc))
                .collect(),
        }
    }

    /// Switch on check-event recording (idempotent): every access path
    /// is replayed as request-path check records and the network's flit
    /// log starts collecting enter/exit record pairs.
    pub fn enable_check(&mut self) {
        if self.chk.is_none() {
            self.chk = Some(CheckRecorder::default());
        }
        self.net.enable_check_log();
    }

    /// Switch on span tracing (idempotent): one request in `one_in` is
    /// sampled deterministically by id and its full path recorded as an
    /// exact-partition span tree.
    pub fn enable_spans(&mut self, one_in: u32) {
        if self.spans.is_none() {
            self.spans = Some(SpanRecorder::new(&self.cfg, one_in));
        }
    }

    /// Switch on the attribution ledger (idempotent). `tenants[c]` is
    /// the owner of core `c`; missing entries default to tenant 0, so
    /// an empty vector gives the single-tenant world where the ledger's
    /// single row must equal the global counters exactly.
    pub fn enable_ledger(&mut self, mut tenants: Vec<u16>) {
        if self.attr.is_some() {
            return;
        }
        tenants.resize(self.cfg.nodes(), 0);
        let rows = tenants.iter().map(|&t| t as usize + 1).max().unwrap_or(1);
        self.attr = Some(Box::new(AttrState {
            current: tenants.first().copied().unwrap_or(0),
            ledger: AttributionLedger::new(rows),
            tenants,
        }));
    }

    /// Charge subsequent machine work (messages, DRAM) to `core`'s
    /// tenant. Called by NDC resolution before component-side sends;
    /// [`Machine::access`] sets this itself from its own core argument.
    pub fn attribute_to(&mut self, core: NodeId) {
        if let Some(a) = &mut self.attr {
            a.current = a.tenants[core.index()];
        }
    }

    /// Take the finished ledger (leaves attribution disabled).
    pub fn take_ledger(&mut self) -> Option<AttributionLedger> {
        self.attr.take().map(|a| a.ledger)
    }

    #[inline]
    fn charge_traverse(&mut self, flit_hops: u64) {
        if let Some(a) = &mut self.attr {
            a.ledger.charge_traverse(a.current, flit_hops);
        }
    }

    #[inline]
    fn charge_dram(&mut self) {
        let bytes = self.cfg.l2.line_bytes;
        if let Some(a) = &mut self.attr {
            a.ledger.charge_dram(a.current, bytes);
        }
    }

    /// Charge one performed NDC offload to `core`'s tenant, decomposed
    /// into gather/wait/exec/feed (called by the engine's
    /// `record_offload`, next to the offload's span tree).
    #[allow(clippy::too_many_arguments)]
    pub fn charge_ndc(
        &mut self,
        core: NodeId,
        loc: usize,
        issue: Cycle,
        wait: Cycle,
        op_done: Cycle,
        exec_cycles: Cycle,
        result_at_core: Cycle,
    ) {
        if let Some(a) = &mut self.attr {
            let t = a.tenants[core.index()];
            a.ledger
                .charge_ndc(t, loc, issue, wait, op_done, exec_cycles, result_at_core);
        }
    }

    pub fn mesh(&self) -> &Mesh {
        self.net.mesh()
    }

    /// Mesh coordinates of node `n` (a table lookup, no division).
    #[inline]
    pub(crate) fn coord(&self, n: NodeId) -> Coord {
        self.coords[n.index()]
    }

    /// Walk one access through the hierarchy into a new path. Callers
    /// that walk many accesses use [`Machine::access_into`] instead.
    pub fn access(
        &mut self,
        core: NodeId,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) -> AccessPath {
        let mut path = AccessPath::default();
        self.access_into(&mut path, core, addr, now, write, intent);
        path
    }

    /// Walk one access through the hierarchy, refilling `path` in place.
    pub fn access_into(
        &mut self,
        path: &mut AccessPath,
        core: NodeId,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) {
        self.attribute_to(core);
        self.walk(path, core, addr, now, write, intent);
        if let Some(a) = &mut self.attr {
            let q = path.mem.as_ref().map(|m| m.service_start - m.queue_enter);
            a.ledger.charge_request(a.current, path.latency(), q);
        }
        if let Some(chk) = &mut self.chk {
            chk.record_path(path);
        }
        if let Some(spans) = &mut self.spans {
            spans.record_path(path);
        }
    }

    fn walk(
        &mut self,
        path: &mut AccessPath,
        core: NodeId,
        addr: Addr,
        now: Cycle,
        write: bool,
        intent: AccessIntent,
    ) {
        path.reset(addr, core, now);
        let l1_latency = self.cfg.l1.latency;
        let l1_line = self.l1s[core.index()].line_addr(addr);

        // --- L1 ---
        match intent {
            AccessIntent::ToCore => match self.l1s[core.index()].access(addr) {
                AccessOutcome::Hit => {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    if write {
                        self.invalidate_other_sharers(l1_line, core);
                    }
                    return;
                }
                AccessOutcome::Miss { evicted, coherence } => {
                    path.coherence_miss = coherence;
                    if let Some(ev) = evicted {
                        self.dir.remove_sharer(ev, core.index());
                    }
                }
            },
            AccessIntent::NearData => {
                // The LD/ST unit probed before offloading; a resident
                // line means the caller should not have offloaded. Treat
                // defensively as a local hit.
                if self.l1s[core.index()].probe(addr) {
                    path.l1_hit = true;
                    path.completion = now + l1_latency;
                    return;
                }
            }
        }

        // --- Request to the home L2 bank ---
        let home = self.map.l2_home(addr);
        let mc = self.map.mc_of(addr);
        let mc_node = self.mc_nodes[mc as usize];
        let core_coord = self.coord(core);
        let home_coord = self.coord(home);
        let mc_coord = self.coord(mc_node);
        path.reserve_legs(core_coord, home_coord, mc_coord, intent);
        let req_links = self.mesh().xy_links(core_coord, home_coord);
        let req = self.send(
            req_links,
            now + l1_latency,
            REQ_BYTES,
            Some(path.links_mut()),
        );
        let req_arrival = req.arrived;
        path.end_leg(0);

        // --- L2 bank ---
        let l2_latency = self.cfg.l2.latency;
        let (l2_hit, data_at_bank) = match self.l2s[home.index()].access(addr) {
            AccessOutcome::Hit => (true, req_arrival + l2_latency),
            AccessOutcome::Miss { .. } => {
                // --- Memory controller + DRAM ---
                let to_mc = self.mesh().xy_links(home_coord, mc_coord);
                let mc_req = self.send(
                    to_mc,
                    req_arrival + l2_latency,
                    REQ_BYTES,
                    Some(path.links_mut()),
                );
                path.end_leg(1);
                let dram = self.mcs[mc as usize].request(addr, mc_req.arrived);
                self.charge_dram();
                // Refill back to the bank (carries the L2 line).
                let back = self.mesh().xy_links(mc_coord, home_coord);
                let line = self.cfg.l2.line_bytes;
                let refill = self.send(back, dram.completion, line, Some(path.links_mut()));
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
            }
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
                let reply_links = self.mesh().xy_links(home_coord, core_coord);
                let line = self.cfg.l1.line_bytes;
                let reply = self.send(reply_links, data_at_bank, line, Some(path.links_mut()));
                path.completion = reply.arrived + l1_latency;
                // Directory bookkeeping: the core now holds the line.
                if write {
                    self.invalidate_other_sharers(l1_line, core);
                } else {
                    self.dir.add_sharer(l1_line, core.index());
                }
            }
        }
    }

    /// Traverse `links` and charge the message to the current tenant.
    fn send(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        t: Cycle,
        bytes: u64,
        out: Option<&mut Vec<LinkTraversal>>,
    ) -> Traversal {
        let rec = self.net.traverse(links, t, bytes, out);
        self.charge_traverse(rec.flit_hops);
        rec
    }

    fn invalidate_other_sharers(&mut self, l1_line: Addr, writer: NodeId) {
        for c in self.dir.write_by(l1_line, writer.index()) {
            self.l1s[c].invalidate(l1_line);
        }
    }

    /// A store performed at an NDC component: the result is written to
    /// the destination line's home L2 bank (no L1 fill at any core),
    /// invalidating L1 sharers. Write-allocate is honest: an L2 miss
    /// pays the full memory-controller + DRAM path, exactly like a
    /// conventional write, so NDC stores enjoy no phantom discount.
    /// Returns the write completion time.
    pub fn remote_write(&mut self, from: NodeId, addr: Addr, t: Cycle) -> Cycle {
        let home = self.map.l2_home(addr);
        let home_coord = self.coord(home);
        let route = self.mesh().xy_links(self.coord(from), home_coord);
        let arr = self.send(route, t, RESULT_BYTES, None).arrived;
        let done = match self.l2s[home.index()].access(addr) {
            AccessOutcome::Hit => arr + self.cfg.l2.latency,
            AccessOutcome::Miss { .. } => {
                let mc = self.map.mc_of(addr);
                let mc_coord = self.coord(self.mc_nodes[mc as usize]);
                let to_mc = self.mesh().xy_links(home_coord, mc_coord);
                let mc_req = self.send(to_mc, arr + self.cfg.l2.latency, REQ_BYTES, None);
                let dram = self.mcs[mc as usize].request(addr, mc_req.arrived);
                self.charge_dram();
                let back = self.mesh().xy_links(mc_coord, home_coord);
                let line = self.cfg.l2.line_bytes;
                let refill = self.send(back, dram.completion, line, None);
                refill.arrived + self.cfg.l2.latency
            }
        };
        let l1_line = self.l1s[0].line_addr(addr);
        // The writer is no core: invalidate every L1 sharer.
        for c in self.dir.take_sharers(l1_line) {
            self.l1s[c].invalidate(l1_line);
        }
        done
    }

    /// Send a small point-to-point message (NDC result / CPU-feed) and
    /// return its arrival time.
    pub fn send_result(&mut self, from: NodeId, to: NodeId, t: Cycle) -> Cycle {
        let route = self.mesh().xy_links(self.coord(from), self.coord(to));
        self.send(route, t, RESULT_BYTES, None).arrived
    }

    /// Charge the network for a data message along explicit links (an
    /// operand's route prefix up to an NDC meeting router), returning
    /// its arrival time.
    pub fn send_data_along(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        t: Cycle,
        bytes: u64,
    ) -> Cycle {
        self.send(links, t, bytes, None).arrived
    }

    /// Uncontended one-way latency between two nodes (static estimates).
    pub fn hop_latency(&self, a: NodeId, b: NodeId) -> Cycle {
        let hops = self.coord(a).manhattan(self.coord(b));
        self.net.uncontended_latency(hops)
    }

    /// Aggregate L1 statistics over all cores.
    pub fn l1_totals(&self) -> ndc_mem::CacheStats {
        let mut agg = ndc_mem::CacheStats::default();
        for c in &self.l1s {
            agg.hits += c.stats.hits;
            agg.misses += c.stats.misses;
            agg.coherence_misses += c.stats.coherence_misses;
            agg.evictions += c.stats.evictions;
            agg.invalidations += c.stats.invalidations;
        }
        agg
    }

    /// Aggregate L2 statistics over all banks.
    pub fn l2_totals(&self) -> ndc_mem::CacheStats {
        let mut agg = ndc_mem::CacheStats::default();
        for c in &self.l2s {
            agg.hits += c.stats.hits;
            agg.misses += c.stats.misses;
            agg.coherence_misses += c.stats.coherence_misses;
            agg.evictions += c.stats.evictions;
            agg.invalidations += c.stats.invalidations;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(ArchConfig::paper_default())
    }

    #[test]
    fn cold_access_walks_full_path() {
        let mut m = machine();
        let core = NodeId(12); // center of the 5x5 mesh
        let p = m.access(core, 0x10000, 0, false, AccessIntent::ToCore);
        assert!(!p.l1_hit);
        let l2 = p.l2.expect("L2 leg");
        assert!(!l2.hit);
        assert!(p.mem.is_some());
        // Completion after DRAM + two network legs + latencies.
        assert!(p.completion > 100, "completion {}", p.completion);
        assert!(!p.data_links().is_empty());
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = machine();
        let core = NodeId(12);
        let first = m.access(core, 0x10000, 0, false, AccessIntent::ToCore);
        let second = m.access(core, 0x10008, first.completion, false, AccessIntent::ToCore);
        assert!(second.l1_hit);
        assert_eq!(second.latency(), m.cfg.l1.latency);
    }

    #[test]
    fn l2_hit_from_another_core() {
        let mut m = machine();
        let a = m.access(NodeId(0), 0x10000, 0, false, AccessIntent::ToCore);
        // Another core, different L1, same L2 home bank: L2 hit.
        let b = m.access(
            NodeId(24),
            0x10000,
            a.completion,
            false,
            AccessIntent::ToCore,
        );
        assert!(!b.l1_hit);
        let l2 = b.l2.unwrap();
        assert!(l2.hit);
        assert!(b.mem.is_none());
        assert!(b.completion < a.completion + 200);
    }

    #[test]
    fn near_data_intent_stops_at_bank_and_skips_l1_fill() {
        let mut m = machine();
        let core = NodeId(12);
        let addr = 0x20000;
        let p = m.access(core, addr, 0, false, AccessIntent::NearData);
        assert!(!p.l1_hit);
        let l2 = p.l2.unwrap();
        assert_eq!(p.completion, l2.data_at_bank);
        // L1 must NOT hold the line afterwards.
        assert!(!m.l1s[core.index()].probe(addr));
        // But the L2 bank does.
        assert!(m.l2s[l2.bank.index()].probe(addr));
    }

    #[test]
    fn near_data_on_local_line_degenerates_to_l1_hit() {
        let mut m = machine();
        let core = NodeId(3);
        m.access(core, 0x30000, 0, false, AccessIntent::ToCore);
        let p = m.access(core, 0x30000, 1000, false, AccessIntent::NearData);
        assert!(p.l1_hit);
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = machine();
        let addr = 0x40000;
        m.access(NodeId(1), addr, 0, false, AccessIntent::ToCore);
        m.access(NodeId(2), addr, 500, false, AccessIntent::ToCore);
        assert!(m.l1s[1].probe(addr));
        assert!(m.l1s[2].probe(addr));
        // Core 3 writes: both readers lose their copies.
        m.access(NodeId(3), addr, 1000, true, AccessIntent::ToCore);
        assert!(!m.l1s[1].probe(addr));
        assert!(!m.l1s[2].probe(addr));
        // Their next access is a coherence miss.
        let p = m.access(NodeId(1), addr, 1500, false, AccessIntent::ToCore);
        assert!(p.coherence_miss);
    }

    #[test]
    fn presence_timestamps_are_ordered() {
        let mut m = machine();
        let p = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        let l2 = p.l2.unwrap();
        let mem = p.mem.unwrap();
        assert!(p.issued <= l2.req_arrival);
        assert!(l2.req_arrival <= mem.queue_enter);
        assert!(mem.queue_enter <= mem.service_start);
        assert!(mem.service_start < mem.completion);
        assert!(mem.completion <= l2.data_at_bank);
        assert!(l2.data_at_bank <= p.completion);
    }

    #[test]
    fn home_bank_matches_config() {
        let mut m = machine();
        let addr = 0x1234_5678;
        let p = m.access(NodeId(0), addr, 0, false, AccessIntent::ToCore);
        assert_eq!(p.l2.unwrap().bank, m.cfg.l2_home(addr));
        let mem = p.mem.unwrap();
        assert_eq!(mem.mc, m.cfg.mc_of(addr));
        assert_eq!(mem.mc_node, m.cfg.mc_node(mem.mc));
    }

    #[test]
    fn send_result_latency_scales_with_distance() {
        let mut m = machine();
        let t_near = m.send_result(NodeId(0), NodeId(1), 0);
        assert_eq!(t_near, 3);
        // Fresh network: an uncontended far send pays hops * pipeline.
        m.net.reset();
        let t_far = m.send_result(NodeId(0), NodeId(24), 0);
        assert_eq!(t_far, 8 * 3);
    }

    #[test]
    fn check_recorder_replays_path_timestamps_in_order() {
        let mut m = machine();
        m.enable_check();
        // Cold miss: full issue→l2→mem→bank→retire chain.
        let p = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        // Warm L1 hit: just issue→retire.
        m.access(
            NodeId(7),
            0x50000,
            p.completion,
            false,
            AccessIntent::ToCore,
        );
        let rec = m.chk.as_ref().unwrap();
        assert_eq!(rec.requests(), 2);
        let evs = rec.records();
        assert_eq!(evs[0].kind, CheckKind::Issue);
        assert_eq!(evs[0].id, 0);
        let retire0 = evs
            .iter()
            .position(|e| e.kind == CheckKind::Retire)
            .unwrap();
        // Monotonic along the first request's path.
        for w in evs[..=retire0].windows(2) {
            assert!(w[0].ts <= w[1].ts, "{w:?}");
        }
        // Second request: fresh id, issue then retire only.
        assert_eq!(evs[retire0 + 1].kind, CheckKind::Issue);
        assert_eq!(evs[retire0 + 1].id, 1);
        assert_eq!(evs.last().unwrap().kind, CheckKind::Retire);
        // The network flit log is on too.
        assert!(!m.net.check_log().unwrap().is_empty());
    }

    #[test]
    fn span_recorder_partitions_every_sampled_path_exactly() {
        let mut m = machine();
        m.enable_spans(1); // sample everything
        let cold = m.access(NodeId(7), 0x50000, 10, false, AccessIntent::ToCore);
        m.access(
            NodeId(7),
            0x50000,
            cold.completion,
            false,
            AccessIntent::ToCore,
        ); // L1 hit
        m.access(NodeId(3), 0x60000, 20, false, AccessIntent::NearData);
        let rec = m.spans.as_ref().unwrap();
        assert_eq!(rec.requests(), 3);
        assert_eq!(rec.traces().len(), 3);
        for t in rec.traces() {
            assert_eq!(t.root.partition_violation(), None, "{t:?}");
        }
        // The cold miss went through DRAM: its tree names the full
        // path, ending with the L1 fill.
        let full = &rec.traces()[0];
        assert_eq!(full.root.start, cold.issued);
        assert_eq!(full.root.end, cold.completion);
        let labels: Vec<String> = full
            .root
            .children
            .iter()
            .map(|c| c.label.to_string())
            .collect();
        assert_eq!(
            labels,
            [
                "l1",
                "noc:req",
                "l2",
                "noc:mc_req",
                "mc",
                "noc:refill",
                "noc:reply",
                "l1"
            ]
        );
        let mc = &full.root.children[4];
        assert!(mc
            .children
            .iter()
            .any(|c| c.label.to_string().starts_with("dram:")));
        // The L1 hit is one leaf covering the whole request.
        let hit = &rec.traces()[1];
        assert_eq!(hit.root.children.len(), 1);
        assert_eq!(hit.root.children[0].label, Label::Name("l1"));
        // NearData ends at the bank: no reply leg.
        let near = &rec.traces()[2];
        assert!(!near
            .root
            .children
            .iter()
            .any(|c| c.label == Label::Name("noc:reply")));
    }

    #[test]
    fn span_sampling_thins_but_keeps_ids_stable() {
        let run = |one_in: u32| -> Vec<u64> {
            let mut m = machine();
            m.enable_spans(one_in);
            for i in 0..64u64 {
                m.access(
                    NodeId((i % 25) as u16),
                    0x1000 * i,
                    i * 10,
                    false,
                    AccessIntent::ToCore,
                );
            }
            m.spans
                .unwrap()
                .into_traces()
                .iter()
                .map(|t| t.id)
                .collect()
        };
        let all = run(1);
        assert_eq!(all.len(), 64);
        let sampled = run(4);
        assert!(sampled.len() < 64 && !sampled.is_empty());
        // Sampled ids are a subset of the full id space, stable per run.
        assert_eq!(sampled, run(4));
    }

    #[test]
    fn ledger_conserves_machine_counters() {
        let mut m = machine();
        m.enable_ledger(Vec::new()); // single-tenant default
        for i in 0..12u64 {
            m.access(
                NodeId((i % 25) as u16),
                0x1000 * i,
                i * 50,
                i % 3 == 0,
                AccessIntent::ToCore,
            );
        }
        m.remote_write(NodeId(4), 0x9000, 2000);
        m.send_result(NodeId(0), NodeId(24), 2500);
        let led = m.take_ledger().unwrap();
        assert_eq!(led.num_tenants(), 1);
        let row = &led.rows()[0];
        assert_eq!(row.noc_messages, m.net.messages);
        assert_eq!(row.noc_flit_hops, m.net.flit_hops);
        let dram: u64 = m.mcs.iter().map(|mc| mc.stats.bytes).sum();
        assert_eq!(row.dram_bytes, dram);
        assert_eq!(row.requests, 12);
        assert_eq!(row.latency.count(), 12);
    }

    #[test]
    fn ledger_splits_by_core_tenant() {
        // Odd cores belong to tenant 1, even to tenant 0.
        let tenants: Vec<u16> = (0..25).map(|c| (c % 2) as u16).collect();
        let mut m = machine();
        m.enable_ledger(tenants);
        m.access(NodeId(0), 0x1000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(1), 0x2000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(1), 0x3000, 10, false, AccessIntent::ToCore);
        let led = m.take_ledger().unwrap();
        assert_eq!(led.num_tenants(), 2);
        assert_eq!(led.rows()[0].requests, 1);
        assert_eq!(led.rows()[1].requests, 2);
        // Column sums still equal the global counters.
        let msgs: u64 = led.rows().iter().map(|r| r.noc_messages).sum();
        assert_eq!(msgs, m.net.messages);
        let hops: u64 = led.rows().iter().map(|r| r.noc_flit_hops).sum();
        assert_eq!(hops, m.net.flit_hops);
    }

    #[test]
    fn stats_aggregate_across_nodes() {
        let mut m = machine();
        m.access(NodeId(0), 0x1000, 0, false, AccessIntent::ToCore);
        m.access(NodeId(5), 0x2000, 0, false, AccessIntent::ToCore);
        let l1 = m.l1_totals();
        assert_eq!(l1.misses, 2);
        assert_eq!(l1.hits, 0);
        let l2 = m.l2_totals();
        assert_eq!(l2.misses, 2);
    }
}
