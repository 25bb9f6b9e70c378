//! Static estimation: what the compiler can know about a use-use chain
//! without running the program.
//!
//! For a two-memory-operand statement in a nest, [`assess`] combines
//! two static sources:
//!
//! * **Reuse analysis** (`ndc-reuse`): exact-or-bounded distinct
//!   L1/L2-line counts, shared-line iteration counts, and union
//!   footprints for the operand pair — the traffic side of the model.
//!   Byte volumes ([`TargetViability::est_bytes`]) are *integer*
//!   whole-nest byte-hop totals built from these counts; no sampled
//!   f64 heuristics remain on the bytes path.
//! * **Iteration-space sampling**: placement-dependent fractions (how
//!   often the operands share an L2 home bank, a memory controller, a
//!   DRAM bank; how often their reply routes overlap) and the expected
//!   arrival-time skew at the target — the **stagger** (`Δ` of §5.2.1)
//!   the pre-compute instruction encodes.
//!
//! The offload-latency predictions come in two flavors:
//! [`TargetViability::est_offload`] weights the DRAM path by the
//! reuse-derived compulsory miss fraction (`distinct L2 lines /
//! accesses`), while [`TargetViability::est_offload_legacy`] keeps the
//! retired CME-probability heuristic so `ndc-eval explain` can score
//! both models against the simulator's measured latencies.

use ndc_cme::{CmeAnalysis, RefKey};
use ndc_ir::program::{LoopNest, Program, Stmt};
use ndc_ir::schedule::chain_operands;
use ndc_noc::{best_signature_pair, Mesh, RouteSignature};
use ndc_reuse::{
    analyze_ref, identical_stream, shared_line_iters, union_lines, AddressForm, ChainReuse,
    HopLoad, RefFacts,
};
use ndc_types::FxHashMap;
use ndc_types::{ArchConfig, Coord, NodeId};

/// Static latency model derived from the architecture description —
/// the compiler-side mirror of the simulator's timing.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    pub cfg: ArchConfig,
}

impl LatencyModel {
    pub fn new(cfg: ArchConfig) -> Self {
        LatencyModel { cfg }
    }

    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let w = self.cfg.noc.width;
        a.coord(w).manhattan(b.coord(w)) as u64
    }

    /// Expected cycle (relative to issue) at which an operand's data is
    /// available at its home L2 bank, weighting the DRAM path by the
    /// given L2 miss probability (CME-predicted for the legacy model,
    /// reuse-derived for the new one).
    pub fn est_data_at_bank(&self, core: NodeId, home: NodeId, p_l2_miss: f64) -> f64 {
        let hop = self.cfg.noc.hop_cycles as f64;
        let req = self.cfg.l1.latency as f64 + self.hops(core, home) as f64 * hop;
        let hit = req + self.cfg.l2.latency as f64;
        let mc = self.cfg.mc_of(0); // representative controller distance
        let mc_node = self.cfg.mc_node(mc);
        let dram = self.cfg.mem.dram.row_miss_cycles as f64 + self.cfg.mem.dram.burst_cycles as f64;
        let miss = hit + 2.0 * self.hops(home, mc_node) as f64 * hop + dram;
        hit * (1.0 - p_l2_miss) + miss * p_l2_miss
    }

    /// Expected arrival at the owning memory controller's queue.
    pub fn est_at_mc(&self, core: NodeId, home: NodeId, mc_node: NodeId) -> f64 {
        let hop = self.cfg.noc.hop_cycles as f64;
        self.cfg.l1.latency as f64
            + self.hops(core, home) as f64 * hop
            + self.cfg.l2.latency as f64
            + self.hops(home, mc_node) as f64 * hop
    }
}

/// Static viability of each NDC target for one use-use chain:
/// placement fractions sampled from the iteration space, integer
/// traffic totals derived from the reuse analysis.
#[derive(Debug, Clone, Default)]
pub struct TargetViability {
    /// Fraction of sampled iterations whose operands share an L2 home
    /// bank.
    pub same_bank: f64,
    /// Fraction sharing a memory controller.
    pub same_mc: f64,
    /// Fraction sharing a DRAM bank.
    pub same_dram_bank: f64,
    /// Fraction of iterations whose two operands sit in the same L1
    /// line — such pairs are conventional-friendly (one fill serves
    /// both) and poor NDC candidates.
    pub same_l1_line: f64,
    /// Fraction whose XY reply routes share at least one link.
    pub overlap_xy: f64,
    /// Same with reshaped (overlap-maximized) minimal routes.
    pub overlap_reshaped: f64,
    /// Mean estimated availability skew at the L2 bank
    /// (`est(a) − est(b)` in cycles; positive = `a` later).
    pub bank_skew: f64,
    /// Mean estimated skew at the memory controller.
    pub mc_skew: f64,
    /// Mean predicted issue→result-at-core cycles if the chain were
    /// offloaded to each location (indexed by `NdcLocation::index()`),
    /// with the DRAM path weighted by the reuse-derived compulsory
    /// miss fraction — the predicted side `ndc-eval explain`
    /// cross-checks against measured offload latencies.
    pub est_offload: [f64; 4],
    /// The retired heuristic: same formula, but the DRAM path weighted
    /// by the CME miss probability. Kept solely so the model-accuracy
    /// comparison has its baseline.
    pub est_offload_legacy: [f64; 4],
    /// Predicted whole-nest NoC traffic (byte·hops) per location:
    /// operand requests, compulsory line fills (one per distinct L2
    /// line, from the reuse analysis), and result returns. Integer
    /// totals — shared-line and identical-stream dedup comes from
    /// `ndc-reuse`, not from per-sample address comparison.
    pub est_bytes: [u64; 4],
    /// The reuse facts behind the traffic totals, threaded into
    /// `ChainProvenance` so `ndc-eval explain` can attribute each
    /// prediction to its analysis.
    pub reuse: Option<ChainReuse>,
    /// Placement samples taken.
    pub samples: u32,
}

/// How many iteration points to sample per chain.
const SAMPLES: usize = 24;

/// Bytes of one operand request / result message on the NoC.
const MSG_BYTES: u64 = 16;

/// Reuse analysis of one operand pair: per-ref facts, canonical forms
/// (when the shape permits), shared/union line structure.
struct PairReuse {
    facts_a: RefFacts,
    facts_b: RefFacts,
    /// One gather serves both operands every iteration.
    identical: bool,
    /// Iterations whose operands share an L2 line.
    shared_l2_iters: u64,
    /// Distinct L2 lines of the union footprint.
    union_l2: u64,
}

fn pair_reuse(
    prog: &Program,
    nest: &LoopNest,
    stmt: &Stmt,
    stmt_pos: usize,
    cfg: &ArchConfig,
) -> Option<PairReuse> {
    let l1 = cfg.l1.line_bytes;
    let l2 = cfg.l2.line_bytes;
    // Slots 0 and 1 are the operand pair's `a` and `b`.
    stmt.memory_operand_pair()?;
    let (facts_a, form_a) = analyze_ref(prog, nest, stmt, stmt_pos, 0, l1, l2)?;
    let (facts_b, form_b) = analyze_ref(prog, nest, stmt, stmt_pos, 1, l1, l2)?;
    let n = nest.points();
    let (identical, shared, union_l2) = match (&form_a, &form_b) {
        (Some(fa), Some(fb)) => {
            let identical = identical_stream(fa, fb);
            let shared = if identical {
                n
            } else {
                shared_line_iters(fa, fb, l2).min(n)
            };
            (
                identical,
                shared,
                union_lines(fa, fb, facts_a.l2_lines.value, facts_b.l2_lines.value, l2),
            )
        }
        // Shape defeated the form builder: no dedup, conservative
        // union.
        _ => (
            false,
            0,
            facts_a
                .l2_lines
                .value
                .saturating_add(facts_b.l2_lines.value),
        ),
    };
    Some(PairReuse {
        facts_a,
        facts_b,
        identical,
        shared_l2_iters: shared,
        union_l2,
    })
}

/// `total · per / div` in u128, saturated to u64 — the whole-nest
/// extrapolation of a sampled hop sum.
fn scaled(total: u64, per: u64, div: u64) -> u64 {
    if div == 0 {
        return 0;
    }
    let v = (total as u128) * (per as u128) / (div as u128);
    v.min(u64::MAX as u128) as u64
}

/// Assess one statement's NDC viability. The iteration space is
/// sampled for placement fractions and mean hop distances; the traffic
/// totals come from the reuse analysis. `cme` provides the miss
/// predictions the legacy latency model (and the locality gates) use.
#[allow(clippy::too_many_arguments)]
pub fn assess(
    prog: &Program,
    nest_pos: usize,
    nest: &LoopNest,
    stmt_pos: usize,
    stmt: &Stmt,
    cfg: &ArchConfig,
    cme: &CmeAnalysis,
    cores: usize,
) -> Option<TargetViability> {
    let (ra, rb) = stmt.memory_operand_pair()?;
    let model = LatencyModel::new(*cfg);
    let mesh = Mesh::new(cfg.noc);
    let mut v = TargetViability::default();
    let mut overlap_cache: FxHashMap<(Coord, Coord, Coord), bool> = FxHashMap::default();

    let p_l2_a = cme
        .get(&RefKey {
            nest_pos,
            stmt_pos,
            slot: 0,
        })
        .map(|p| p.l2_miss_rate)
        .unwrap_or(0.5);
    let p_l2_b = cme
        .get(&RefKey {
            nest_pos,
            stmt_pos,
            slot: 1,
        })
        .map(|p| p.l2_miss_rate)
        .unwrap_or(0.5);

    // The reuse side: distinct-line counts and pair structure. The
    // new latency model weights the DRAM path by the compulsory miss
    // fraction these counts imply.
    let total = nest.points();
    let reuse = pair_reuse(prog, nest, stmt, stmt_pos, cfg);
    let compulsory = |lines: u64| (lines as f64 / total.max(1) as f64).min(1.0);
    let (p_new_a, p_new_b) = match &reuse {
        Some(r) => (
            compulsory(r.facts_a.l2_lines.value),
            compulsory(r.facts_b.l2_lines.value),
        ),
        None => (p_l2_a, p_l2_b),
    };

    let mut skews_bank = 0.0;
    let mut skews_mc = 0.0;
    // Sampled hop sums, extrapolated to whole-nest byte·hop totals
    // after the loop.
    let mut hops_req_a = 0u64; // core -> home(a)
    let mut hops_req_b = 0u64; // core -> home(b)
    let mut hops_fill_a = 0u64; // home(a) -> mc(a)
    let mut hops_fill_b = 0u64; // home(b) -> mc(b)
    let mut hops_res_l2 = 0u64; // home(a) -> core
    let mut hops_res_mc = 0u64; // mc(a) -> core
    let mut load = HopLoad::new(cfg.noc.width);

    // Evenly spaced sample points across the iteration space.
    nest.for_each_sample(SAMPLES, |point| {
        let (Some(addr_a), Some(addr_b)) = (prog.addr_of(ra, point), prog.addr_of(rb, point))
        else {
            return;
        };
        // Which core executes this iteration (block partitioning).
        let core = NodeId(nest.thread_of(point, cores) as u16);
        let home_a = cfg.l2_home(addr_a);
        let home_b = cfg.l2_home(addr_b);
        v.samples += 1;

        if home_a == home_b {
            v.same_bank += 1.0;
        }
        if addr_a / cfg.l1.line_bytes == addr_b / cfg.l1.line_bytes {
            v.same_l1_line += 1.0;
        }
        let mc_a = cfg.mc_of(addr_a);
        let mc_b = cfg.mc_of(addr_b);
        if mc_a == mc_b {
            v.same_mc += 1.0;
            if cfg.dram_bank_of(addr_a) == cfg.dram_bank_of(addr_b) {
                v.same_dram_bank += 1.0;
            }
        }

        // Route overlap of the data replies toward the executing core.
        let w = cfg.noc.width;
        let (ca, cb, cc) = (home_a.coord(w), home_b.coord(w), core.coord(w));
        let xy_a = mesh.xy_route(ca, cc);
        let xy_b = mesh.xy_route(cb, cc);
        let sa = RouteSignature::from_route(&mesh, &xy_a);
        let sb = RouteSignature::from_route(&mesh, &xy_b);
        if sa.and(&sb).count_ones() > 0 {
            v.overlap_xy += 1.0;
        }
        let reshaped = *overlap_cache
            .entry((ca, cb, cc))
            .or_insert_with(|| best_signature_pair(&mesh, ca, cc, cb, cc).common_links > 0);
        if reshaped {
            v.overlap_reshaped += 1.0;
        }

        skews_bank += model.est_data_at_bank(core, home_a, p_l2_a)
            - model.est_data_at_bank(core, home_b, p_l2_b);
        let mcn_a = cfg.mc_node(mc_a);
        let mcn_b = cfg.mc_node(mc_b);
        skews_mc += model.est_at_mc(core, home_a, mcn_a) - model.est_at_mc(core, home_b, mcn_b);

        // Predicted offload latency (issue → result at core) per
        // location: both operands must be present at the meeting
        // component, plus the one-cycle op and the result's trip home.
        // Accumulated twice — once per miss model.
        let hop = cfg.noc.hop_cycles as f64;
        let h = |x: NodeId, y: NodeId| model.hops(x, y) as f64;
        for (est, pa, pb) in [
            (&mut v.est_offload, p_new_a, p_new_b),
            (&mut v.est_offload_legacy, p_l2_a, p_l2_b),
        ] {
            let at_bank = model
                .est_data_at_bank(core, home_a, pa)
                .max(model.est_data_at_bank(core, home_b, pb));
            let cc_lat = at_bank + 1.0 + h(home_a, core) * hop;
            est[ndc_types::NdcLocation::CacheController.index()] += cc_lat;
            // A link buffer meets the operands one hop off the bank
            // path.
            est[ndc_types::NdcLocation::LinkBuffer.index()] += cc_lat + hop;
            let at_mc = model
                .est_at_mc(core, home_a, mcn_a)
                .max(model.est_at_mc(core, home_b, mcn_b));
            let mc_lat = at_mc + 1.0 + h(mcn_a, core) * hop;
            est[ndc_types::NdcLocation::MemoryController.index()] += mc_lat;
            // The bank variant additionally waits out the row access.
            est[ndc_types::NdcLocation::MemoryBank.index()] +=
                mc_lat + cfg.mem.dram.row_hit_cycles as f64;
        }

        // Hop distances for the traffic extrapolation, and the
        // per-link projection of the request/result flows.
        hops_req_a += model.hops(core, home_a);
        hops_req_b += model.hops(core, home_b);
        hops_fill_a += model.hops(home_a, mcn_a);
        hops_fill_b += model.hops(home_b, mcn_b);
        hops_res_l2 += model.hops(home_a, core);
        hops_res_mc += model.hops(mcn_a, core);
        load.add_flow(core, home_a, MSG_BYTES);
        if !reuse.as_ref().is_some_and(|r| r.identical) {
            load.add_flow(core, home_b, MSG_BYTES);
        }
        load.add_flow(home_a, core, MSG_BYTES);
    });

    if v.samples == 0 {
        return None;
    }
    let n = v.samples as f64;
    v.same_bank /= n;
    v.same_l1_line /= n;
    v.same_mc /= n;
    v.same_dram_bank /= n;
    v.overlap_xy /= n;
    v.overlap_reshaped /= n;
    v.bank_skew = skews_bank / n;
    v.mc_skew = skews_mc / n;
    for e in &mut v.est_offload {
        *e /= n;
    }
    for e in &mut v.est_offload_legacy {
        *e /= n;
    }

    // Whole-nest traffic totals (byte·hops). Requests: operand `a`
    // every iteration; operand `b` only on iterations its line is not
    // already being gathered for `a` (identical streams never, shared
    // lines deducted). Fills: one line per distinct L2 line of the
    // union footprint — `a`'s own lines along `a`'s DRAM path, the
    // extra lines `b` adds along `b`'s. Result: one message per
    // iteration back to the core.
    let k = v.samples as u64;
    let (req_iters_b, fills_a, fills_b) = match &reuse {
        Some(r) => (
            if r.identical {
                0
            } else {
                total - r.shared_l2_iters.min(total)
            },
            r.facts_a.l2_lines.value,
            r.union_l2.saturating_sub(r.facts_a.l2_lines.value),
        ),
        // No reuse facts (malformed refs): charge everything.
        None => (total, total, total),
    };
    let line = cfg.l2.line_bytes;
    let req = scaled(MSG_BYTES * total, hops_req_a, k).saturating_add(scaled(
        MSG_BYTES * req_iters_b,
        hops_req_b,
        k,
    ));
    let fills = scaled(line * fills_a, hops_fill_a, k).saturating_add(scaled(
        line * fills_b,
        hops_fill_b,
        k,
    ));
    let near_l2 =
        req.saturating_add(fills)
            .saturating_add(scaled(MSG_BYTES * total, hops_res_l2, k));
    let near_mc =
        req.saturating_add(fills)
            .saturating_add(scaled(MSG_BYTES * total, hops_res_mc, k));
    v.est_bytes[ndc_types::NdcLocation::CacheController.index()] = near_l2;
    v.est_bytes[ndc_types::NdcLocation::LinkBuffer.index()] = near_l2;
    v.est_bytes[ndc_types::NdcLocation::MemoryController.index()] = near_mc;
    v.est_bytes[ndc_types::NdcLocation::MemoryBank.index()] = near_mc;

    // The chain's reuse provenance: facts, pair structure, and the
    // hottest projected link of its request/result traffic.
    if let Some(r) = reuse {
        load.scale(total, k);
        let (max_link, max_link_bytes) = match load.max_link() {
            Some((l, b)) => (Some(l), b),
            None => (None, 0),
        };
        v.reuse = Some(ChainReuse {
            a: r.facts_a,
            b: r.facts_b,
            shared_l2_iters: r.shared_l2_iters,
            union_l2_lines: r.union_l2,
            max_link,
            max_link_bytes,
        });
    }
    Some(v)
}

/// Static viability of a fused chain: every gathered operand of the
/// packet, costed together as one gather / one exec / one feed.
#[derive(Debug, Clone, Default)]
pub struct FusedViability {
    /// Per-location fraction of sampled iterations whose gathered
    /// operands *all* co-locate there (`NdcLocation::index()` order).
    pub colocation: [f64; 4],
    /// Mean predicted issue→result-at-core cycles for the whole
    /// packet: slowest operand's availability (DRAM path weighted by
    /// each operand's compulsory miss fraction), one cycle per chained
    /// op, one result trip home.
    pub est_offload: [f64; 4],
    /// Predicted whole-nest NoC traffic (byte·hops) for the packet's
    /// *union* footprint — duplicate address streams gathered once,
    /// one fill per distinct L2 line, one result return per iteration.
    pub est_bytes: [u64; 4],
    /// Samples taken.
    pub samples: u32,
}

/// Assess a fused chain (`members` are body positions in chain order)
/// by analyzing the union footprint of its gathered operands. The
/// chain's structure must already validate ([`chain_operands`] must
/// link every tail); returns `None` otherwise or when the iteration
/// space is unsampleable. Miss weighting is reuse-derived; the CME
/// gates run per chain in the caller.
pub fn assess_fused(
    prog: &Program,
    nest: &LoopNest,
    members: &[usize],
    cfg: &ArchConfig,
    cores: usize,
) -> Option<FusedViability> {
    let head = nest.body.get(*members.first()?)?;
    let (ra, rb) = head.memory_operand_pair()?;
    // (gathered ref, stmt_pos, slot) for every operand the packet
    // fetches from memory; forwarded link values move no NoC bytes.
    let mut refs = vec![(ra, members[0], 0u8), (rb, members[0], 1u8)];
    let mut prev_dst = &head.dst;
    for &pos in &members[1..] {
        let s = nest.body.get(pos)?;
        let (link_is_a, gathered) = chain_operands(s, prev_dst)?;
        refs.push((gathered, pos, if link_is_a { 1 } else { 0 }));
        prev_dst = &s.dst;
    }
    let n_ops = members.len() as f64;
    let total = nest.points();

    // Reuse facts per gathered ref; `rep[i]` is the index of the first
    // ref with an identical address stream (the one gather that serves
    // all of them).
    let l1 = cfg.l1.line_bytes;
    let l2 = cfg.l2.line_bytes;
    let (facts, forms): (Vec<Option<RefFacts>>, Vec<Option<AddressForm>>) = refs
        .iter()
        .map(|&(_, stmt_pos, slot)| {
            match analyze_ref(prog, nest, &nest.body[stmt_pos], stmt_pos, slot, l1, l2) {
                Some((facts, form)) => (Some(facts), form),
                None => (None, None),
            }
        })
        .unzip();
    let mut rep: Vec<usize> = (0..refs.len()).collect();
    for i in 0..refs.len() {
        if let Some(fi) = &forms[i] {
            if let Some(j) = forms[..i]
                .iter()
                .position(|fj| fj.as_ref().is_some_and(|fj| identical_stream(fj, fi)))
            {
                rep[i] = j;
            }
        }
    }
    let lines_of = |i: usize| facts[i].as_ref().map_or(total, |f| f.l2_lines.value);
    let p_new: Vec<f64> = (0..refs.len())
        .map(|i| (lines_of(i) as f64 / total.max(1) as f64).min(1.0))
        .collect();

    let model = LatencyModel::new(*cfg);
    let mesh = Mesh::new(cfg.noc);
    let mut v = FusedViability::default();
    // Per-ref sampled hop sums (request and fill paths), plus the
    // result path of the head operand.
    let mut hops_req = vec![0u64; refs.len()];
    let mut hops_fill = vec![0u64; refs.len()];
    let mut hops_res_l2 = 0u64;
    let mut hops_res_mc = 0u64;
    // Per-sample operand addresses, L2 homes and memory-controller
    // nodes, in buffers reused across samples.
    let mut addrs: Vec<u64> = Vec::with_capacity(refs.len());
    let mut homes: Vec<NodeId> = Vec::with_capacity(refs.len());
    let mut mcns: Vec<NodeId> = Vec::with_capacity(refs.len());
    nest.for_each_sample(SAMPLES, |point| {
        addrs.clear();
        for (r, _, _) in &refs {
            match prog.addr_of(r, point) {
                Some(a) => addrs.push(a),
                None => return,
            }
        }
        let core = NodeId(nest.thread_of(point, cores) as u16);
        homes.clear();
        homes.extend(addrs.iter().map(|&a| cfg.l2_home(a)));
        mcns.clear();
        mcns.extend(addrs.iter().map(|&a| cfg.mc_node(cfg.mc_of(a))));
        v.samples += 1;

        use ndc_types::NdcLocation::*;
        if homes.iter().all(|&hm| hm == homes[0]) {
            v.colocation[CacheController.index()] += 1.0;
        }
        // Router viability needs one link that every operand's XY
        // reply route crosses — the n-ary analogue of pairwise
        // overlap (reshaping is pairwise, so fused packets use XY).
        let w = cfg.noc.width;
        let cc_coord = core.coord(w);
        let mut sig =
            RouteSignature::from_route(&mesh, &mesh.xy_route(homes[0].coord(w), cc_coord));
        for hm in &homes[1..] {
            sig = sig.and(&RouteSignature::from_route(
                &mesh,
                &mesh.xy_route(hm.coord(w), cc_coord),
            ));
        }
        if sig.count_ones() > 0 {
            v.colocation[LinkBuffer.index()] += 1.0;
        }
        let same_mc = mcns.iter().all(|&m| m == mcns[0]);
        if same_mc {
            v.colocation[MemoryController.index()] += 1.0;
            if addrs
                .iter()
                .all(|&a| cfg.dram_bank_of(a) == cfg.dram_bank_of(addrs[0]))
            {
                v.colocation[MemoryBank.index()] += 1.0;
            }
        }

        // Packet latency: the slowest operand's availability at the
        // meeting component, one cycle per chained op, result home.
        let hop = cfg.noc.hop_cycles as f64;
        let h = |x: NodeId, y: NodeId| model.hops(x, y) as f64;
        let at_bank = homes
            .iter()
            .zip(&p_new)
            .map(|(&hm, &p)| model.est_data_at_bank(core, hm, p))
            .fold(0.0_f64, f64::max);
        let cc_cost = at_bank + n_ops + h(homes[0], core) * hop;
        v.est_offload[CacheController.index()] += cc_cost;
        v.est_offload[LinkBuffer.index()] += cc_cost + hop;
        let at_mc = homes
            .iter()
            .zip(&mcns)
            .map(|(&hm, &m)| model.est_at_mc(core, hm, m))
            .fold(0.0_f64, f64::max);
        let mc_cost = at_mc + n_ops + h(mcns[0], core) * hop;
        v.est_offload[MemoryController.index()] += mc_cost;
        v.est_offload[MemoryBank.index()] += mc_cost + cfg.mem.dram.row_hit_cycles as f64;

        for i in 0..refs.len() {
            hops_req[i] += model.hops(core, homes[i]);
            hops_fill[i] += model.hops(homes[i], mcns[i]);
        }
        hops_res_l2 += model.hops(homes[0], core);
        hops_res_mc += model.hops(mcns[0], core);
    });

    if v.samples == 0 {
        return None;
    }
    let n = v.samples as f64;
    for c in &mut v.colocation {
        *c /= n;
    }
    for e in &mut v.est_offload {
        *e /= n;
    }

    // Union-footprint traffic: each *distinct* address stream is
    // requested and filled once — an array read by several members is
    // gathered once, which is exactly the byte saving the adoption
    // check banks on. Integer whole-nest totals, as in [`assess`].
    let k = v.samples as u64;
    let mut req = 0u64;
    let mut fills = 0u64;
    for i in 0..refs.len() {
        if rep[i] != i {
            continue; // duplicate stream: served by its representative
        }
        req = req.saturating_add(scaled(MSG_BYTES * total, hops_req[i], k));
        fills = fills.saturating_add(scaled(l2 * lines_of(i), hops_fill[i], k));
    }
    let near_l2 =
        req.saturating_add(fills)
            .saturating_add(scaled(MSG_BYTES * total, hops_res_l2, k));
    let near_mc =
        req.saturating_add(fills)
            .saturating_add(scaled(MSG_BYTES * total, hops_res_mc, k));
    use ndc_types::NdcLocation::*;
    v.est_bytes[CacheController.index()] = near_l2;
    v.est_bytes[LinkBuffer.index()] = near_l2;
    v.est_bytes[MemoryController.index()] = near_mc;
    v.est_bytes[MemoryBank.index()] = near_mc;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_ir::program::{ArrayDecl, ArrayRef, Program, Ref};
    use ndc_types::Op;

    fn cfg() -> ArchConfig {
        ArchConfig::paper_default()
    }

    fn streaming(n: u64) -> (Program, LoopNest) {
        let mut p = Program::new("s");
        let x = p.add_array(ArrayDecl::new("X", vec![n], 8));
        let y = p.add_array(ArrayDecl::new("Y", vec![n], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![n], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(y, 1, vec![0])),
            1,
        );
        let nest = LoopNest::new(0, vec![0], vec![n as i64], vec![s]);
        p.nests.push(nest.clone());
        p.assign_layout(0, 4096);
        (p, nest)
    }

    #[test]
    fn assess_produces_fractions_in_range() {
        let (p, nest) = streaming(4096);
        let cme = ndc_cme::analyze(&p, &cfg(), 25);
        let v = assess(&p, 0, &nest, 0, &nest.body[0], &cfg(), &cme, 25).unwrap();
        assert!(v.samples > 0);
        for f in [
            v.same_bank,
            v.same_mc,
            v.same_dram_bank,
            v.overlap_xy,
            v.overlap_reshaped,
        ] {
            assert!((0.0..=1.0).contains(&f), "fraction out of range: {v:?}");
        }
        // Reshaping can only help.
        assert!(v.overlap_reshaped >= v.overlap_xy);
    }

    #[test]
    fn same_array_offset_chain_shares_banks_often() {
        // Z[i] = X[i] + X[i+25]: operands 25 lines apart... with 8-byte
        // elements, X[i] and X[i+8k] share an L2 line when within one
        // 256-byte line. Use a pair 25*32 elements apart so homes
        // coincide (25 banks * 256B lines).
        let mut p = Program::new("sb");
        let x = p.add_array(ArrayDecl::new("X", vec![8192], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![8192], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            // 25 banks * 32 elements/line = 800 elements ahead: same
            // home bank, different line.
            Ref::Array(ArrayRef::identity(x, 1, vec![800])),
            1,
        );
        let nest = LoopNest::new(0, vec![0], vec![7000], vec![s]);
        p.nests.push(nest.clone());
        p.assign_layout(0, 4096);
        let cme = ndc_cme::analyze(&p, &cfg(), 25);
        let v = assess(&p, 0, &nest, 0, &nest.body[0], &cfg(), &cme, 25).unwrap();
        assert!(
            v.same_bank > 0.9,
            "operands 800 elements apart always share a home: {v:?}"
        );
    }

    #[test]
    fn offload_estimates_are_positive_and_ordered() {
        let (p, nest) = streaming(4096);
        let cme = ndc_cme::analyze(&p, &cfg(), 25);
        let v = assess(&p, 0, &nest, 0, &nest.body[0], &cfg(), &cme, 25).unwrap();
        for loc in ndc_types::ALL_NDC_LOCATIONS {
            assert!(v.est_offload[loc.index()] > 1.0, "{v:?}");
            assert!(v.est_offload_legacy[loc.index()] > 1.0, "{v:?}");
            assert!(v.est_bytes[loc.index()] > 0, "{v:?}");
        }
        // The link buffer sits one hop past the L2 bank; the memory
        // bank waits out a row access the queue variant does not.
        for est in [&v.est_offload, &v.est_offload_legacy] {
            let cc = est[ndc_types::NdcLocation::CacheController.index()];
            let lb = est[ndc_types::NdcLocation::LinkBuffer.index()];
            let mc = est[ndc_types::NdcLocation::MemoryController.index()];
            let mb = est[ndc_types::NdcLocation::MemoryBank.index()];
            assert!(lb > cc);
            assert!(mb > mc);
        }
        // Near-L2 and near-memory traffic share requests and fills,
        // differing only in the result path.
        let cc = v.est_bytes[ndc_types::NdcLocation::CacheController.index()];
        let lb = v.est_bytes[ndc_types::NdcLocation::LinkBuffer.index()];
        assert_eq!(cc, lb);
    }

    #[test]
    fn reuse_facts_drive_the_traffic_totals() {
        let (p, nest) = streaming(4096);
        let cme = ndc_cme::analyze(&p, &cfg(), 25);
        let v = assess(&p, 0, &nest, 0, &nest.body[0], &cfg(), &cme, 25).unwrap();
        let r = v.reuse.as_ref().expect("well-formed refs analyze");
        // Streaming X[i]: 4096 elements * 8 B / 256 B = 128 exact L2
        // lines; disjoint arrays never share lines.
        assert_eq!(r.a.l2_lines, ndc_reuse::Count::exact(128));
        assert_eq!(r.b.l2_lines, ndc_reuse::Count::exact(128));
        assert_eq!(r.shared_l2_iters, 0);
        assert_eq!(r.union_l2_lines, 256);
        assert!(r.a.all_exact() && r.b.all_exact());
    }

    #[test]
    fn identical_streams_are_gathered_once() {
        // Z[i] = X[i] + X[i]: one gather serves both operands, so the
        // pair's traffic equals a single-operand stream's (requests +
        // fills for one stream, one result per iteration).
        let mut p = Program::new("dup");
        let x = p.add_array(ArrayDecl::new("X", vec![4096], 8));
        let z = p.add_array(ArrayDecl::new("Z", vec![4096], 8));
        let s = Stmt::binary(
            0,
            ArrayRef::identity(z, 1, vec![0]),
            Op::Add,
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            Ref::Array(ArrayRef::identity(x, 1, vec![0])),
            1,
        );
        let nest = LoopNest::new(0, vec![0], vec![4096], vec![s]);
        p.nests.push(nest.clone());
        p.assign_layout(0, 4096);
        let cme = ndc_cme::analyze(&p, &cfg(), 25);
        let v = assess(&p, 0, &nest, 0, &nest.body[0], &cfg(), &cme, 25).unwrap();
        let r = v.reuse.as_ref().unwrap();
        assert_eq!(r.shared_l2_iters, 4096);
        assert_eq!(r.union_l2_lines, r.a.l2_lines.value);
        // Distinct-operand traffic at the same shape costs strictly
        // more.
        let (p2, nest2) = streaming(4096);
        let cme2 = ndc_cme::analyze(&p2, &cfg(), 25);
        let v2 = assess(&p2, 0, &nest2, 0, &nest2.body[0], &cfg(), &cme2, 25).unwrap();
        let t = ndc_types::NdcLocation::CacheController.index();
        assert!(
            v.est_bytes[t] < v2.est_bytes[t],
            "dup {} vs distinct {}",
            v.est_bytes[t],
            v2.est_bytes[t]
        );
    }

    #[test]
    fn latency_model_orders_paths() {
        let m = LatencyModel::new(cfg());
        let core = NodeId(12);
        let near = NodeId(12);
        let far = NodeId(24);
        // Farther homes take longer.
        assert!(m.est_data_at_bank(core, far, 0.0) > m.est_data_at_bank(core, near, 0.0));
        // Missing L2 costs more than hitting.
        assert!(m.est_data_at_bank(core, near, 1.0) > m.est_data_at_bank(core, near, 0.0));
    }
}
