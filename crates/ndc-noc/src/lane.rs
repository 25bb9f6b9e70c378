//! Lane-local link progress for the epoch-barriered parallel engine.
//!
//! Each simulation *lane* (a shard of the machine: a group of L2 home
//! banks or one memory controller) plans its epoch's message traversals
//! against a **frozen** snapshot of the live [`Network`] horizons plus a
//! private overlay of what the lane itself has sent this epoch. No
//! shared link state is written during a parallel phase; at the epoch
//! barrier every planner [`commit`](LanePlanner::commit)s its overlay
//! back with a per-link **max-merge** — commutative, so the committed
//! horizons are identical for any lane count and any commit order.
//!
//! The overlay is epoch-tagged and lazily reset: `begin_epoch` is O(1)
//! and a link's overlay entry is live only when its tag matches the
//! current epoch, so a planner touching k links per epoch costs O(k),
//! not O(num_links).

use crate::mesh::LinkId;
use crate::network::{LinkTraversal, Network, Traversal};
use ndc_types::Cycle;

/// A lane's private view of link horizons: frozen network snapshot plus
/// an epoch-tagged overlay of the lane's own planned traffic.
#[derive(Debug)]
pub struct LanePlanner {
    epoch: u32,
    /// Overlay validity tag per link: the overlay value is live iff
    /// `tag[l] == epoch`.
    tag: Vec<u32>,
    /// Overlay horizon per link (meaningful only when the tag matches).
    overlay: Vec<Cycle>,
    /// Links touched this epoch (each at most once), for commit.
    touched: Vec<u32>,
    /// Planned traffic counters since the last commit.
    messages: u64,
    queueing_cycles: u64,
    flit_hops: u64,
    /// Planned per-hop telemetry samples `(link, occupancy, delay)`,
    /// captured only when the live network has obs enabled.
    obs_log: Vec<(LinkId, u64, Cycle)>,
    /// Planned flit tuples `(link, enter, exit)`, captured only when
    /// the live network has its check log enabled.
    flit_log: Vec<(LinkId, Cycle, Cycle)>,
}

impl LanePlanner {
    pub fn new(num_links: usize) -> Self {
        LanePlanner {
            epoch: 0,
            tag: vec![u32::MAX; num_links],
            overlay: vec![0; num_links],
            touched: Vec::new(),
            messages: 0,
            queueing_cycles: 0,
            flit_hops: 0,
            obs_log: Vec::new(),
            flit_log: Vec::new(),
        }
    }

    /// Start a new epoch: forget the overlay in O(1) (the tag bump
    /// invalidates every entry lazily).
    pub fn begin_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.touched.clear();
        debug_assert!(self.messages == 0, "uncommitted planner traffic");
    }

    fn horizon(&self, frozen: &Network, l: LinkId) -> Cycle {
        let i = l.index();
        let over = if self.tag[i] == self.epoch {
            self.overlay[i]
        } else {
            0
        };
        frozen.horizon(l).max(over)
    }

    fn raise(&mut self, l: LinkId, until: Cycle) {
        let i = l.index();
        if self.tag[i] != self.epoch {
            self.tag[i] = self.epoch;
            self.overlay[i] = until;
            self.touched.push(l.0);
        } else {
            self.overlay[i] = self.overlay[i].max(until);
        }
    }

    /// Plan a traversal of `bytes` along `links` starting at `start`:
    /// the same enter/occupancy/exit arithmetic as
    /// [`Network::traverse`], but against the frozen horizons plus this
    /// lane's overlay, with all side effects kept lane-local until
    /// [`commit`](LanePlanner::commit). Per-link records are appended
    /// to `out` when given.
    pub fn traverse(
        &mut self,
        frozen: &Network,
        links: impl IntoIterator<Item = LinkId>,
        start: Cycle,
        bytes: u64,
        mut out: Option<&mut Vec<LinkTraversal>>,
    ) -> Traversal {
        let hop = frozen.mesh().config().hop_cycles;
        let occupancy = bytes.div_ceil(frozen.mesh().config().link_bytes).max(1);
        let mut t = start;
        let mut hops = 0;
        for l in links {
            hops += 1;
            let enter = t.max(self.horizon(frozen, l));
            self.queueing_cycles += enter - t;
            if frozen.obs_enabled() {
                self.obs_log.push((l, occupancy, enter - t));
            }
            self.raise(l, enter + occupancy);
            let exit = enter + hop;
            if frozen.check_log_enabled() {
                self.flit_log.push((l, enter, exit));
            }
            if let Some(out) = out.as_deref_mut() {
                out.push(LinkTraversal {
                    link: l,
                    enter,
                    exit,
                    router: frozen.mesh().link_router(l),
                });
            }
            t = exit;
        }
        let flit_hops = occupancy * hops;
        self.messages += 1;
        self.flit_hops += flit_hops;
        Traversal {
            departed: start,
            arrived: t,
            flit_hops,
        }
    }

    /// Commit the epoch's planned traffic into the live network:
    /// max-merge horizons, sum counters, append telemetry and flits.
    /// Horizon and counter merges are commutative; the flit/obs logs
    /// are appended in whatever order the caller commits planners, so
    /// the caller must iterate shards in a fixed order for byte-stable
    /// logs.
    pub fn commit(&mut self, net: &mut Network) {
        for &raw in &self.touched {
            let l = LinkId(raw);
            net.raise_horizon(l, self.overlay[l.index()]);
        }
        self.touched.clear();
        net.add_traffic(self.messages, self.queueing_cycles, self.flit_hops);
        self.messages = 0;
        self.queueing_cycles = 0;
        self.flit_hops = 0;
        for (l, occ, delay) in self.obs_log.drain(..) {
            net.record_obs_sample(l, occ, delay);
        }
        for (l, enter, exit) in self.flit_log.drain(..) {
            net.log_flit(l, enter, exit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use ndc_types::{Coord, NocConfig};

    fn net() -> Network {
        Network::new(Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        }))
    }

    #[test]
    fn planned_traversal_matches_live_traverse() {
        let mut live = net();
        let frozen = net();
        let mesh = frozen.mesh().clone();
        let mut planner = LanePlanner::new(mesh.num_links());
        planner.begin_epoch();
        let r = mesh.xy_links(Coord::new(0, 0), Coord::new(3, 2));
        let (mut planned_links, mut actual_links) = (Vec::new(), Vec::new());
        let planned = planner.traverse(&frozen, r, 100, 64, Some(&mut planned_links));
        let actual = live.traverse(r, 100, 64, Some(&mut actual_links));
        assert_eq!(planned_links, actual_links);
        assert_eq!(planned, actual);
    }

    #[test]
    fn overlay_sees_own_traffic_within_epoch() {
        let frozen = net();
        let mesh = frozen.mesh().clone();
        let mut planner = LanePlanner::new(mesh.num_links());
        planner.begin_epoch();
        let r = mesh.xy_links(Coord::new(0, 0), Coord::new(1, 0));
        let mut links = Vec::new();
        planner.traverse(&frozen, r, 0, 64, Some(&mut links));
        planner.traverse(&frozen, r, 0, 64, Some(&mut links));
        assert_eq!(links[0].enter, 0);
        // The second message queues behind the lane's own first one.
        assert_eq!(links[1].enter, 4);
    }

    #[test]
    fn commit_merge_is_order_independent() {
        let frozen = net();
        let mesh = frozen.mesh().clone();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(2, 0));
        let plan = |starts: &[Cycle]| {
            let mut p = LanePlanner::new(mesh.num_links());
            p.begin_epoch();
            for &s in starts {
                p.traverse(&frozen, r.links.iter().copied(), s, 64, None);
            }
            p
        };
        let mut a = plan(&[0, 10]);
        let mut b = plan(&[5]);
        let mut net_ab = net();
        a.commit(&mut net_ab);
        b.commit(&mut net_ab);
        let mut a2 = plan(&[0, 10]);
        let mut b2 = plan(&[5]);
        let mut net_ba = net();
        b2.commit(&mut net_ba);
        a2.commit(&mut net_ba);
        for l in &r.links {
            assert_eq!(net_ab.horizon(*l), net_ba.horizon(*l));
        }
        assert_eq!(net_ab.messages, net_ba.messages);
        assert_eq!(net_ab.queueing_cycles, net_ba.queueing_cycles);
        assert_eq!(net_ab.flit_hops, net_ba.flit_hops);
        // 3 messages × 4-cycle occupancy × 2 hops.
        assert_eq!(net_ab.flit_hops, 24);
    }

    #[test]
    fn epoch_reset_forgets_overlay_but_commit_persists() {
        let mut live = net();
        let mesh = live.mesh().clone();
        let mut planner = LanePlanner::new(mesh.num_links());
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(1, 0));
        let links = || r.links.iter().copied();

        planner.begin_epoch();
        planner.traverse(&live, links(), 0, 64, None); // raises overlay to 4
        planner.commit(&mut live);
        assert_eq!(live.horizon(r.links[0]), 4);

        planner.begin_epoch();
        // New epoch: overlay gone, but the committed live horizon queues us.
        let mut rec = Vec::new();
        planner.traverse(&live, links(), 0, 64, Some(&mut rec));
        assert_eq!(rec[0].enter, 4);
        planner.commit(&mut live);
        assert_eq!(live.horizon(r.links[0]), 8);
        assert_eq!(live.messages, 2);
        assert_eq!(live.queueing_cycles, 4);
    }

    #[test]
    fn planner_captures_obs_and_flits_when_enabled() {
        let mut live = net();
        live.enable_obs();
        live.enable_check_log();
        let mesh = live.mesh().clone();
        let mut planner = LanePlanner::new(mesh.num_links());
        planner.begin_epoch();
        let r = mesh.xy_route(Coord::new(0, 0), Coord::new(2, 0));
        planner.traverse(&live, r.links.iter().copied(), 0, 64, None);
        planner.traverse(&live, r.links.iter().copied(), 0, 64, None);
        planner.commit(&mut live);
        let l = r.links[0].index();
        let obs = live.link_obs().unwrap();
        assert_eq!(obs[l].traversals, 2);
        assert_eq!(obs[l].busy_cycles, 8);
        assert_eq!(obs[l].queue_delay.count(1), 1); // the 4-cycle delay
        assert_eq!(live.check_log().unwrap().len(), 4); // 2 msgs × 2 hops
    }
}
