//! Mesh topology: nodes, directed links, and static XY routing.
//!
//! Every straight segment of a route is a run of consecutive link ids
//! (the four link blocks are numbered along rows and columns), so a
//! dimension-ordered route is walked arithmetically by [`XyLinks`]
//! without collecting its links into a buffer.

use ndc_types::{Coord, NocConfig, NodeId};

/// A directed communication link between two adjacent mesh nodes.
///
/// Links are numbered densely so a route signature can be a bitset over
/// all `L` links (§5.2.1: "for an on-chip network with a total L
/// communication links, a signature can be represented using an L-bit
/// sequence").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One concrete path through the mesh: an ordered list of directed
/// links from source to destination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    pub src: Coord,
    pub dst: Coord,
    pub links: Vec<LinkId>,
}

impl Route {
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// One straight segment of a route: `left` more consecutive link ids
/// from `next`, ascending or descending.
#[derive(Debug, Clone, Copy)]
struct Run {
    next: u32,
    left: u32,
    descending: bool,
}

/// The links of `XY(src → via) · XY(via → dst)`, generated on the fly.
/// A plain XY route is the case `via == dst`; the compiler's reshaped
/// reply routes ([`crate::converging_pair`]) bend once more at `via`.
/// Copyable and allocation-free: it holds four [`Run`]s.
#[derive(Debug, Clone, Copy)]
pub struct XyLinks {
    runs: [Run; 4],
    at: usize,
}

impl Iterator for XyLinks {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        while let Some(run) = self.runs.get_mut(self.at) {
            if run.left > 0 {
                let id = run.next;
                run.left -= 1;
                run.next = if run.descending {
                    id.wrapping_sub(1)
                } else {
                    id + 1
                };
                return Some(LinkId(id));
            }
            self.at += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.runs[self.at..].iter().map(|r| r.left as usize).sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for XyLinks {}

/// Static description of a `w × h` 2D mesh.
///
/// Directed links are numbered in four blocks: east (`x → x+1`), west,
/// south (`y → y+1`), north. The block layout is an implementation
/// detail; use [`Mesh::link_between`] / [`Mesh::link_endpoints`].
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: NocConfig,
    /// Downstream router of every link, indexed by `LinkId`.
    routers: Vec<NodeId>,
}

impl Mesh {
    pub fn new(cfg: NocConfig) -> Self {
        assert!(cfg.width >= 1 && cfg.height >= 1, "degenerate mesh");
        let mut mesh = Mesh {
            cfg,
            routers: Vec::new(),
        };
        mesh.routers = (0..mesh.num_links() as u32)
            .map(|i| NodeId::from_coord(mesh.link_endpoints(LinkId(i)).1, cfg.width))
            .collect();
        mesh
    }

    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    pub fn width(&self) -> u16 {
        self.cfg.width
    }

    pub fn height(&self) -> u16 {
        self.cfg.height
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// Total number of directed links, the `L` of route signatures.
    pub fn num_links(&self) -> usize {
        let w = self.cfg.width as usize;
        let h = self.cfg.height as usize;
        // Horizontal: (w-1)*h in each direction; vertical: w*(h-1) each.
        2 * ((w - 1) * h + w * (h - 1))
    }

    fn east_count(&self) -> u32 {
        (self.cfg.width as u32 - 1) * self.cfg.height as u32
    }

    fn south_count(&self) -> u32 {
        self.cfg.width as u32 * (self.cfg.height as u32 - 1)
    }

    /// The directed link from `a` to the adjacent node `b`.
    ///
    /// # Panics
    /// Panics if `a` and `b` are not mesh-adjacent.
    pub fn link_between(&self, a: Coord, b: Coord) -> LinkId {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let (ax, ay, bx, by) = (a.x as u32, a.y as u32, b.x as u32, b.y as u32);
        let east = self.east_count();
        let south = self.south_count();
        if by == ay && bx == ax + 1 {
            // East block: indexed by (row, column-of-left-node).
            LinkId(ay * w1 + ax)
        } else if by == ay && bx + 1 == ax {
            // West block.
            LinkId(east + ay * w1 + bx)
        } else if bx == ax && by == ay + 1 {
            // South block: indexed by (column, row-of-top-node).
            LinkId(2 * east + ax * h1 + ay)
        } else if bx == ax && by + 1 == ay {
            // North block.
            LinkId(2 * east + south + ax * h1 + by)
        } else {
            panic!("link_between: {a} and {b} are not adjacent");
        }
    }

    /// Inverse of [`Mesh::link_between`]: the (from, to) endpoints.
    pub fn link_endpoints(&self, l: LinkId) -> (Coord, Coord) {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let east = self.east_count();
        let south = self.south_count();
        let i = l.0;
        if i < east {
            let (y, x) = (i / w1, i % w1);
            (
                Coord::new(x as u16, y as u16),
                Coord::new(x as u16 + 1, y as u16),
            )
        } else if i < 2 * east {
            let j = i - east;
            let (y, x) = (j / w1, j % w1);
            (
                Coord::new(x as u16 + 1, y as u16),
                Coord::new(x as u16, y as u16),
            )
        } else if i < 2 * east + south {
            let j = i - 2 * east;
            let (x, y) = (j / h1, j % h1);
            (
                Coord::new(x as u16, y as u16),
                Coord::new(x as u16, y as u16 + 1),
            )
        } else {
            let j = i - 2 * east - south;
            let (x, y) = (j / h1, j % h1);
            (
                Coord::new(x as u16, y as u16 + 1),
                Coord::new(x as u16, y as u16),
            )
        }
    }

    /// The router a message sits in after traversing `l`: the link's
    /// downstream endpoint. NDC link-buffer computations happen at this
    /// router's buffer.
    #[inline]
    pub fn link_router(&self, l: LinkId) -> NodeId {
        self.routers[l.index()]
    }

    /// The X run then the Y run of `XY(src → dst)`.
    fn xy_runs(&self, src: Coord, dst: Coord) -> [Run; 2] {
        let w1 = self.cfg.width as u32 - 1;
        let h1 = self.cfg.height as u32 - 1;
        let east = self.east_count();
        let south = self.south_count();
        let (sx, sy, dx, dy) = (src.x as u32, src.y as u32, dst.x as u32, dst.y as u32);
        // Along row `sy`: east links are `sy·w1 + x`, west links
        // `east + sy·w1 + (x-1)` for a hop leaving column x.
        let x = if dx >= sx {
            Run {
                next: sy * w1 + sx,
                left: dx - sx,
                descending: false,
            }
        } else {
            Run {
                next: east + sy * w1 + sx - 1,
                left: sx - dx,
                descending: true,
            }
        };
        // Along column `dx`: south links are `2·east + dx·h1 + y`, north
        // links `2·east + south + dx·h1 + (y-1)` for a hop leaving row y.
        let y = if dy >= sy {
            Run {
                next: 2 * east + dx * h1 + sy,
                left: dy - sy,
                descending: false,
            }
        } else {
            Run {
                next: 2 * east + south + dx * h1 + sy - 1,
                left: sy - dy,
                descending: true,
            }
        };
        [x, y]
    }

    /// The links of the static XY route `src → dst`, generated without
    /// a buffer (see [`Mesh::xy_route`]).
    pub fn xy_links(&self, src: Coord, dst: Coord) -> XyLinks {
        self.xy_via(src, dst, dst)
    }

    /// The links of `XY(src → via) · XY(via → dst)`. Minimal whenever
    /// `via` lies in the bounding box of `src` and `dst`.
    pub fn xy_via(&self, src: Coord, via: Coord, dst: Coord) -> XyLinks {
        let [a, b] = self.xy_runs(src, via);
        let [c, d] = self.xy_runs(via, dst);
        XyLinks {
            runs: [a, b, c, d],
            at: 0,
        }
    }

    /// Static XY (dimension-ordered) route: travel along X first, then
    /// Y. This is the baseline routing of the simulated machine
    /// (Table 1: "XY-routing").
    pub fn xy_route(&self, src: Coord, dst: Coord) -> Route {
        Route {
            src,
            dst,
            links: self.xy_links(src, dst).collect(),
        }
    }

    /// Build a route from an explicit node sequence (used by the
    /// compiler's reshaped routes). Consecutive coordinates must be
    /// adjacent.
    pub fn route_via(&self, path: &[Coord]) -> Route {
        assert!(!path.is_empty());
        let mut links = Vec::with_capacity(path.len().saturating_sub(1));
        for pair in path.windows(2) {
            links.push(self.link_between(pair[0], pair[1]));
        }
        Route {
            src: path[0],
            dst: *path.last().unwrap(),
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh5() -> Mesh {
        Mesh::new(NocConfig {
            width: 5,
            height: 5,
            link_bytes: 16,
            hop_cycles: 3,
        })
    }

    #[test]
    fn link_count_for_5x5() {
        // 5x5 mesh: 4*5=20 east + 20 west + 20 south + 20 north = 80.
        assert_eq!(mesh5().num_links(), 80);
    }

    #[test]
    fn link_ids_are_dense_and_invertible() {
        let m = mesh5();
        let mut seen = std::collections::HashSet::new();
        for y in 0..5u16 {
            for x in 0..5u16 {
                let a = Coord::new(x, y);
                for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1)] {
                    let nx = x as i32 + dx;
                    let ny = y as i32 + dy;
                    if nx < 0 || ny < 0 || nx >= 5 || ny >= 5 {
                        continue;
                    }
                    let b = Coord::new(nx as u16, ny as u16);
                    let l = m.link_between(a, b);
                    assert!(l.index() < m.num_links(), "id {l:?} out of range");
                    assert!(seen.insert(l), "duplicate link id {l:?}");
                    assert_eq!(m.link_endpoints(l), (a, b));
                }
            }
        }
        assert_eq!(seen.len(), m.num_links());
    }

    #[test]
    fn xy_route_goes_x_then_y() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(r.hops(), 4);
        // First two hops move east along row 0, then two south.
        let (f0, t0) = m.link_endpoints(r.links[0]);
        assert_eq!((f0, t0), (Coord::new(0, 0), Coord::new(1, 0)));
        let (f3, t3) = m.link_endpoints(r.links[3]);
        assert_eq!((f3, t3), (Coord::new(2, 1), Coord::new(2, 2)));
    }

    #[test]
    fn xy_route_handles_negative_directions() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(4, 4), Coord::new(1, 0));
        assert_eq!(r.hops(), 7);
        let mut at = Coord::new(4, 4);
        for &l in &r.links {
            let (from, to) = m.link_endpoints(l);
            assert_eq!(from, at);
            at = to;
        }
        assert_eq!(at, Coord::new(1, 0));
    }

    #[test]
    fn self_route_is_empty() {
        let m = mesh5();
        let r = m.xy_route(Coord::new(2, 2), Coord::new(2, 2));
        assert!(r.links.is_empty());
    }

    #[test]
    fn route_via_custom_path() {
        let m = mesh5();
        // A YX-ish detour path from (0,0) to (1,1).
        let r = m.route_via(&[Coord::new(0, 0), Coord::new(0, 1), Coord::new(1, 1)]);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.src, Coord::new(0, 0));
        assert_eq!(r.dst, Coord::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_link_panics() {
        mesh5().link_between(Coord::new(0, 0), Coord::new(2, 0));
    }

    /// The arithmetic walk matches hop-by-hop `link_between` stepping
    /// for every endpoint pair, on square and non-square meshes.
    #[test]
    fn xy_links_match_stepwise_routes() {
        for (w, h) in [(5u16, 5u16), (7, 4), (1, 6), (6, 1), (3, 8)] {
            let m = Mesh::new(NocConfig {
                width: w,
                height: h,
                link_bytes: 16,
                hop_cycles: 3,
            });
            let nodes: Vec<Coord> = (0..h)
                .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
                .collect();
            for &s in &nodes {
                for &d in &nodes {
                    let mut expect = Vec::new();
                    let mut at = s;
                    while at.x != d.x {
                        let nx = if d.x > at.x { at.x + 1 } else { at.x - 1 };
                        expect.push(m.link_between(at, Coord::new(nx, at.y)));
                        at.x = nx;
                    }
                    while at.y != d.y {
                        let ny = if d.y > at.y { at.y + 1 } else { at.y - 1 };
                        expect.push(m.link_between(at, Coord::new(at.x, ny)));
                        at.y = ny;
                    }
                    let walk = m.xy_links(s, d);
                    assert_eq!(walk.len(), expect.len(), "{w}x{h} {s:?}->{d:?}");
                    assert_eq!(walk.collect::<Vec<_>>(), expect, "{w}x{h} {s:?}->{d:?}");
                    for &v in &nodes {
                        let via: Vec<LinkId> = m.xy_via(s, v, d).collect();
                        let mut joined = m.xy_route(s, v).links;
                        joined.extend(m.xy_route(v, d).links);
                        assert_eq!(via, joined, "{w}x{h} {s:?}->{v:?}->{d:?}");
                    }
                }
            }
            for i in 0..m.num_links() as u32 {
                let (_, to) = m.link_endpoints(LinkId(i));
                assert_eq!(m.link_router(LinkId(i)), NodeId::from_coord(to, w));
            }
        }
    }

    #[test]
    fn link_router_is_downstream() {
        let m = mesh5();
        let l = m.link_between(Coord::new(1, 1), Coord::new(2, 1));
        assert_eq!(m.link_router(l), NodeId::from_coord(Coord::new(2, 1), 5));
    }
}
