//! Dynamic network state: contended-link message traversal.
//!
//! Each directed link keeps a `busy_until` horizon. A message entering a
//! link waits until the link frees, occupies it for
//! `⌈bytes / link_bytes⌉` cycles (16-byte links, Table 1), and pays the
//! router pipeline (`hop_cycles`, 3 by default) to move to the next
//! router. A traversal takes its link sequence as an iterator (usually
//! an arithmetic [`crate::XyLinks`] walk) and appends the per-link entry
//! timestamps to a caller-owned buffer — or to none, when nobody reads
//! them. The simulator's instrumentation uses them to compute
//! link-buffer arrival windows: two operands co-locate at a router when
//! their messages traverse a common link, and the window is the gap
//! between their entry times.

use crate::mesh::{LinkId, Mesh};
use ndc_types::{CheckKind, CheckRecord, Cycle, Divisor, NodeId, WindowHistogram};

/// Timestamp record for one link of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraversal {
    pub link: LinkId,
    /// Cycle at which the message entered the link's buffer (after any
    /// queueing delay).
    pub enter: Cycle,
    /// Cycle at which the message left the downstream router.
    pub exit: Cycle,
    /// The downstream router — where an NDC link-buffer ALU could
    /// operate on the message.
    pub router: NodeId,
}

/// Timing summary of one message traversal (the per-link records go
/// to the caller's buffer, if any).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traversal {
    pub departed: Cycle,
    pub arrived: Cycle,
    /// Link occupancy paid per hop times hops crossed: the message's
    /// flit-hop cost. Zero for a zero-hop route. Computed by the same
    /// `traverse` that paid the cost, so attribution ledgers charging
    /// from this record can never drift from the network's own total.
    pub flit_hops: u64,
}

impl Traversal {
    /// Total network latency including queueing.
    pub fn latency(&self) -> Cycle {
        self.arrived - self.departed
    }
}

/// Per-directed-link observability: how often the link carried a
/// message, how long it was occupied, and the distribution of queueing
/// delays messages suffered waiting for it.
#[derive(Debug, Clone, Default)]
pub struct LinkObs {
    /// Messages that crossed this link.
    pub traversals: u64,
    /// Cycles the link spent serializing message bodies (occupancy).
    pub busy_cycles: u64,
    /// Distribution of per-message queueing delays at this link, over
    /// the paper's window buckets (0-delay messages land in bucket "1").
    pub queue_delay: WindowHistogram,
}

/// Mutable network state: one busy-horizon per directed link.
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    /// The link width, for a message's `⌈bytes / link_bytes⌉` flits.
    link_bytes: Divisor,
    busy_until: Vec<Cycle>,
    /// Total messages injected (stats).
    pub messages: u64,
    /// Total link-cycles of queueing delay suffered (stats).
    pub queueing_cycles: u64,
    /// Total flit-hops carried (occupancy × hops, summed per message).
    pub flit_hops: u64,
    /// Per-link telemetry; `None` (the default) keeps `traverse` on its
    /// original path apart from one branch.
    obs: Option<Vec<LinkObs>>,
    /// Flit-level occupancy log for the invariant checker: a
    /// `FlitEnter` and a `FlitExit` check record per hop of every
    /// traversal, in traversal order (the `ndc_obs::chk` contract).
    /// `None` (the default) costs one branch.
    check_log: Option<Vec<CheckRecord>>,
}

impl Network {
    pub fn new(mesh: Mesh) -> Self {
        let n = mesh.num_links();
        Network {
            link_bytes: Divisor::new(mesh.config().link_bytes),
            mesh,
            busy_until: vec![0; n],
            messages: 0,
            queueing_cycles: 0,
            flit_hops: 0,
            obs: None,
            check_log: None,
        }
    }

    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Switch on per-link telemetry (idempotent).
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(vec![LinkObs::default(); self.mesh.num_links()]);
        }
    }

    /// Per-link telemetry, if enabled. Indexed by `LinkId::index()`.
    pub fn link_obs(&self) -> Option<&[LinkObs]> {
        self.obs.as_deref()
    }

    /// Switch on the flit-level occupancy log (idempotent). Unlike
    /// [`Network::enable_obs`] this is unbounded — it exists for the
    /// invariant checker, which needs every enter/exit pair to prove
    /// per-link occupancy drains to zero.
    pub fn enable_check_log(&mut self) {
        if self.check_log.is_none() {
            self.check_log = Some(Vec::new());
        }
    }

    /// The flit log, if enabled: an enter/exit record pair per hop.
    pub fn check_log(&self) -> Option<&[CheckRecord]> {
        self.check_log.as_deref()
    }

    /// Drain the flit log (leaves logging enabled).
    pub fn take_check_log(&mut self) -> Vec<CheckRecord> {
        self.check_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Send a message of `bytes` bytes along `links`, starting at cycle
    /// `start`, appending one [`LinkTraversal`] per hop to `out` when
    /// given. A zero-hop route (source == destination) arrives
    /// instantly.
    pub fn traverse(
        &mut self,
        links: impl IntoIterator<Item = LinkId>,
        start: Cycle,
        bytes: u64,
        mut out: Option<&mut Vec<LinkTraversal>>,
    ) -> Traversal {
        let hop = self.mesh.config().hop_cycles;
        let occupancy = self.link_bytes.div_ceil(bytes).max(1);
        // Whether any hop record is kept, decided once per message.
        let recorded = self.obs.is_some() || self.check_log.is_some() || out.is_some();
        let (mut t, mut hops, mut queued) = (start, 0, 0);
        for l in links {
            hops += 1;
            let busy_until = &mut self.busy_until[l.index()];
            let enter = t.max(*busy_until);
            queued += enter - t;
            // Serialize the message body over the link.
            *busy_until = enter + occupancy;
            // The head reaches the next router after the pipeline delay.
            let exit = enter + hop;
            if recorded {
                if let Some(obs) = &mut self.obs {
                    let lo = &mut obs[l.index()];
                    lo.traversals += 1;
                    lo.busy_cycles += occupancy;
                    lo.queue_delay.record(Some(enter - t));
                }
                if let Some(log) = &mut self.check_log {
                    log.push(CheckRecord::new(CheckKind::FlitEnter, l.0, enter));
                    log.push(CheckRecord::new(CheckKind::FlitExit, l.0, exit));
                }
                if let Some(out) = out.as_deref_mut() {
                    out.push(LinkTraversal {
                        link: l,
                        enter,
                        exit,
                        router: self.mesh.link_router(l),
                    });
                }
            }
            t = exit;
        }
        let flit_hops = occupancy * hops;
        self.queueing_cycles += queued;
        self.messages += 1;
        self.flit_hops += flit_hops;
        Traversal {
            departed: start,
            arrived: t,
            flit_hops,
        }
    }

    /// Latency of an uncontended traversal of `hops` hops (used for
    /// static compiler estimates).
    pub fn uncontended_latency(&self, hops: u32) -> Cycle {
        hops as Cycle * self.mesh.config().hop_cycles
    }

    /// Busy-horizon of one directed link.
    #[cfg(test)]
    fn horizon(&self, l: LinkId) -> Cycle {
        self.busy_until[l.index()]
    }

    /// Reset all busy horizons (between independent simulations).
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
        self.messages = 0;
        self.queueing_cycles = 0;
        self.flit_hops = 0;
        if let Some(obs) = &mut self.obs {
            obs.fill(LinkObs::default());
        }
        if let Some(log) = &mut self.check_log {
            log.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::{Coord, NocConfig};

    fn net() -> Network {
        Network::new(Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        }))
    }

    /// Send along the XY route `s → d`, collecting per-link records.
    fn send(
        n: &mut Network,
        s: Coord,
        d: Coord,
        start: Cycle,
        bytes: u64,
    ) -> (Traversal, Vec<LinkTraversal>) {
        let links = n.mesh().xy_links(s, d);
        let mut buf = Vec::new();
        let rec = n.traverse(links, start, bytes, Some(&mut buf));
        (rec, buf)
    }

    #[test]
    fn uncontended_latency_is_hops_times_pipeline() {
        let mut n = net();
        let (rec, links) = send(&mut n, Coord::new(0, 0), Coord::new(3, 0), 100, 16);
        assert_eq!(rec.departed, 100);
        assert_eq!(rec.arrived, 100 + 3 * 3);
        assert_eq!(rec.latency(), 9);
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].enter, 100);
        assert_eq!(links[0].exit, 103);
        assert_eq!(links[2].enter, 106);
        // Each link stays busy for one 16-byte flit after entry.
        for l in &links {
            assert_eq!(n.horizon(l.link), l.enter + 1);
        }
    }

    #[test]
    fn zero_hop_route_is_free() {
        let mut n = net();
        let (rec, links) = send(&mut n, Coord::new(2, 2), Coord::new(2, 2), 42, 64);
        assert_eq!(rec.arrived, 42);
        assert!(links.is_empty());
        assert_eq!(rec.flit_hops, 0);
        assert_eq!(n.flit_hops, 0);
        assert_eq!(n.messages, 1);
    }

    #[test]
    fn contention_serializes_messages() {
        let mut n = net();
        let (a, b) = (Coord::new(0, 0), Coord::new(1, 0));
        // A 64-byte message occupies the 16-byte link for 4 cycles.
        let (first, first_links) = send(&mut n, a, b, 0, 64);
        assert_eq!(first_links[0].enter, 0);
        assert_eq!(n.horizon(first_links[0].link), 4);
        // A second message at the same cycle must wait for the link.
        let (second, second_links) = send(&mut n, a, b, 0, 64);
        assert_eq!(second_links[0].enter, 4);
        assert_eq!(second.arrived, 4 + 3);
        assert_eq!(n.horizon(second_links[0].link), 8);
        assert_eq!(n.queueing_cycles, 4);
        assert_eq!(n.messages, 2);
        // Two 4-cycle occupancies over one link each.
        assert_eq!(first.flit_hops, 4);
        assert_eq!(n.flit_hops, 8);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut n = net();
        send(&mut n, Coord::new(0, 0), Coord::new(1, 0), 0, 64);
        let (_, links) = send(&mut n, Coord::new(0, 1), Coord::new(1, 1), 0, 64);
        assert_eq!(links[0].enter, 0);
        assert_eq!(n.queueing_cycles, 0);
    }

    /// Appending to a caller buffer is observation only: without one,
    /// a traversal pays the same timing, counters and link horizons,
    /// and a reused buffer just grows by one record per hop.
    #[test]
    fn buffer_is_optional_and_appended_to() {
        let mut with = net();
        let mut without = net();
        let mesh = with.mesh().clone();
        let mut buf = Vec::new();
        let routes = [
            (Coord::new(0, 0), Coord::new(3, 2)),
            (Coord::new(1, 0), Coord::new(3, 4)),
            (Coord::new(4, 4), Coord::new(0, 1)),
            (Coord::new(2, 0), Coord::new(2, 3)),
        ];
        for (k, &(s, d)) in routes.iter().enumerate() {
            let before = buf.len();
            let a = with.traverse(mesh.xy_links(s, d), 10 * k as Cycle, 64, Some(&mut buf));
            let b = without.traverse(mesh.xy_links(s, d), 10 * k as Cycle, 64, None);
            assert_eq!(a, b);
            assert_eq!(buf.len() - before, s.manhattan(d) as usize);
            // The appended records chain hop to hop and end on arrival.
            let mut t = a.departed;
            for l in &buf[before..] {
                assert!(l.enter >= t);
                assert_eq!(l.exit, l.enter + 3);
                t = l.exit;
            }
            assert_eq!(t, a.arrived);
        }
        for l in 0..mesh.num_links() as u32 {
            assert_eq!(with.horizon(LinkId(l)), without.horizon(LinkId(l)));
        }
        assert_eq!(with.queueing_cycles, without.queueing_cycles);
        assert_eq!(with.flit_hops, without.flit_hops);
        assert_eq!(with.messages, without.messages);
    }

    #[test]
    fn reset_clears_state() {
        let mut n = net();
        send(&mut n, Coord::new(0, 0), Coord::new(1, 0), 0, 64);
        n.reset();
        let (_, links) = send(&mut n, Coord::new(0, 0), Coord::new(1, 0), 0, 64);
        assert_eq!(links[0].enter, 0);
        assert_eq!(n.messages, 1);
    }

    #[test]
    fn link_obs_records_occupancy_and_queue_delay() {
        let mut n = net();
        // Disabled by default: no per-link state allocated.
        assert!(n.link_obs().is_none());
        n.enable_obs();
        let (s, d) = (Coord::new(0, 0), Coord::new(1, 0));
        let (_, links) = send(&mut n, s, d, 0, 64); // occupies the link 4 cycles
        send(&mut n, s, d, 0, 64); // queues 4 cycles behind it
        let obs = n.link_obs().unwrap();
        let l = links[0].link.index();
        assert_eq!(obs[l].traversals, 2);
        assert_eq!(obs[l].busy_cycles, 8);
        assert_eq!(obs[l].queue_delay.total(), 2);
        assert_eq!(obs[l].queue_delay.count(0), 1); // 0-cycle delay
        assert_eq!(obs[l].queue_delay.count(1), 1); // 4-cycle delay
                                                    // Untouched links recorded nothing.
        let quiet = obs.iter().filter(|o| o.traversals == 0).count();
        assert_eq!(quiet, obs.len() - 1);
        // Timing is identical with obs on: same result as the
        // contention_serializes_messages test.
        assert_eq!(n.queueing_cycles, 4);
        n.reset();
        assert_eq!(n.link_obs().unwrap()[l].traversals, 0);
    }

    #[test]
    fn check_log_records_every_hop_and_timing_is_unchanged() {
        let mut n = net();
        assert!(n.check_log().is_none());
        n.enable_check_log();
        let (s, d) = (Coord::new(0, 0), Coord::new(3, 0));
        let (rec, links) = send(&mut n, s, d, 100, 16);
        // Same timing as the uncontended_latency test: logging is
        // observation-only.
        assert_eq!(rec.arrived, 109);
        let log = n.check_log().unwrap();
        assert_eq!(log.len(), 6);
        for (pair, hop) in log.chunks(2).zip(&links) {
            let id = hop.link.0;
            assert_eq!(
                pair[0],
                CheckRecord::new(CheckKind::FlitEnter, id, hop.enter)
            );
            assert_eq!(pair[1], CheckRecord::new(CheckKind::FlitExit, id, hop.exit));
            assert!(hop.enter <= hop.exit);
        }
        assert_eq!(n.take_check_log().len(), 6);
        assert_eq!(n.check_log().unwrap().len(), 0);
        // Logging does not depend on the caller keeping records.
        let mesh = n.mesh().clone();
        n.traverse(mesh.xy_links(s, d), 0, 16, None);
        assert_eq!(n.check_log().unwrap().len(), 6);
        n.reset();
        assert!(n.check_log().unwrap().is_empty());
    }

    #[test]
    fn router_of_each_hop_is_downstream_node() {
        let mut n = net();
        let (_, links) = send(&mut n, Coord::new(0, 0), Coord::new(0, 2), 0, 16);
        assert_eq!(links[0].router, NodeId::from_coord(Coord::new(0, 1), 5));
        assert_eq!(links[1].router, NodeId::from_coord(Coord::new(0, 2), 5));
    }
}
