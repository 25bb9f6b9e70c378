//! Route signatures and minimal-path selection (§5.2.1, third
//! challenge).
//!
//! A signature `S{(p1,q1),(p2,q2)}` is an `L`-bit set over the mesh's
//! directed links marking which links a (minimal) path uses. Given two
//! accesses `x` and `y` with sources `(px,qx)`, `(py,qy)` and
//! destinations `(pr,qr)`, `(ps,qs)`, the compiler selects signatures
//! maximizing `|Sx ∩ Sy|` — every common link is a router where the NDC
//! computation `x op y` can be performed.
//!
//! The selection is an exhaustive search over pairs of minimal routes.
//! For the case the simulator and cost model ask about — two data
//! replies converging on one core — the answer has a closed form
//! ([`converging_pair`]), so the search only runs for diverging pairs
//! and for legs longer than the exhaustive bound.

use crate::mesh::{LinkId, Mesh, Route, XyLinks};
use ndc_types::Coord;

/// An `L`-bit link set, stored as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteSignature {
    words: Vec<u64>,
    num_links: usize,
}

impl RouteSignature {
    pub fn empty(mesh: &Mesh) -> Self {
        let n = mesh.num_links();
        RouteSignature {
            words: vec![0; n.div_ceil(64)],
            num_links: n,
        }
    }

    pub fn from_route(mesh: &Mesh, route: &Route) -> Self {
        let mut s = Self::empty(mesh);
        for &l in &route.links {
            s.set(l);
        }
        s
    }

    pub fn set(&mut self, l: LinkId) {
        debug_assert!(l.index() < self.num_links);
        self.words[l.index() / 64] |= 1 << (l.index() % 64);
    }

    pub fn get(&self, l: LinkId) -> bool {
        self.words[l.index() / 64] & (1 << (l.index() % 64)) != 0
    }

    /// Bitwise intersection (the paper's `∩`).
    pub fn and(&self, other: &RouteSignature) -> RouteSignature {
        debug_assert_eq!(self.num_links, other.num_links);
        RouteSignature {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b)
                .collect(),
            num_links: self.num_links,
        }
    }

    /// `|self ∩ other|`, without building the intersection.
    pub fn common_links(&self, other: &RouteSignature) -> u32 {
        debug_assert_eq!(self.num_links, other.num_links);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Number of set bits ("the total number of 1s").
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterate over the set links.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(LinkId((wi as u32) * 64 + b))
            })
        })
    }
}

/// Displacement (in hops) up to which every minimal route is
/// enumerated: `C(10, 5) = 252` routes at worst, which covers any
/// endpoint pair on the paper's 5×5 mesh exactly as before. Beyond
/// this, exhaustive enumeration is combinatorial — `C(30, 15) ≈ 155
/// million` routes for opposite corners of the 16×16 scale-up mesh —
/// so the enumeration falls back to [`bounded_routes`].
const MAX_EXHAUSTIVE_HOPS: u16 = 10;

/// Enumerate minimal (monotone, Manhattan-length) routes between two
/// coordinates. For displacements up to [`MAX_EXHAUSTIVE_HOPS`] this
/// is every such route (`C(dx+dy, dx)` of them); for larger
/// displacements it is the two-bend staircase family — `O(dx + dy)`
/// routes including the XY and YX extremes — which preserves route
/// *diversity* (which links a route can occupy) without the
/// combinatorial blowup that made signature selection intractable at
/// 12×12 and beyond.
pub fn minimal_routes(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<Route> {
    let dist = src.x.abs_diff(dst.x) + src.y.abs_diff(dst.y);
    if dist > MAX_EXHAUSTIVE_HOPS {
        return bounded_routes(mesh, src, dst);
    }
    let mut out = Vec::new();
    let mut path = vec![src];
    recurse(mesh, dst, &mut path, &mut out);
    out
}

/// Walk from `a` to `b` inclusive, one hop at a time, in either axis
/// direction.
fn axis_walk(a: u16, b: u16) -> Box<dyn Iterator<Item = u16>> {
    if a <= b {
        Box::new(a..=b)
    } else {
        Box::new((b..=a).rev())
    }
}

/// Monotone routes with at most two bends: `x–y–x` staircases through
/// every intermediate column and `y–x–y` staircases through every
/// interior row. Both L-shaped (XY, YX) routes are members (the
/// `x–y–x` family at the extreme columns), and the set spans every
/// link an exhaustive enumeration could reach, so link-overlap
/// maximization still has the full rectangle to work with.
fn bounded_routes(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<Route> {
    if src.x == dst.x || src.y == dst.y {
        // Straight line: a single minimal route.
        return vec![mesh.xy_route(src, dst)];
    }
    let mut out = Vec::new();
    let mut push = |via: &[Coord]| {
        let mut path = vec![src];
        for w in via.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.x == b.x {
                for y in axis_walk(a.y, b.y).skip(1) {
                    path.push(Coord::new(a.x, y));
                }
            } else {
                for x in axis_walk(a.x, b.x).skip(1) {
                    path.push(Coord::new(x, a.y));
                }
            }
        }
        out.push(mesh.route_via(&path));
    };
    // x–y–x through every column between the endpoints (the first,
    // `mx = src.x`, is the YX route; the last, `mx = dst.x`, is XY).
    for mx in axis_walk(src.x, dst.x) {
        push(&[src, Coord::new(mx, src.y), Coord::new(mx, dst.y), dst]);
    }
    // y–x–y through interior rows (the boundary rows duplicate the XY
    // and YX routes already emitted above).
    for my in axis_walk(src.y, dst.y).skip(1) {
        if my == dst.y {
            continue;
        }
        push(&[src, Coord::new(src.x, my), Coord::new(dst.x, my), dst]);
    }
    out
}

fn recurse(mesh: &Mesh, dst: Coord, path: &mut Vec<Coord>, out: &mut Vec<Route>) {
    let at = *path.last().unwrap();
    if at == dst {
        out.push(mesh.route_via(path));
        return;
    }
    // Move one step closer in X, then (as an alternative) in Y —
    // exploring both orders yields every monotone staircase.
    if at.x != dst.x {
        let next = if dst.x > at.x {
            Coord::new(at.x + 1, at.y)
        } else {
            Coord::new(at.x - 1, at.y)
        };
        path.push(next);
        recurse(mesh, dst, path, out);
        path.pop();
    }
    if at.y != dst.y {
        let next = if dst.y > at.y {
            Coord::new(at.x, at.y + 1)
        } else {
            Coord::new(at.x, at.y - 1)
        };
        path.push(next);
        recurse(mesh, dst, path, out);
        path.pop();
    }
}

/// The result of signature selection for a pair of accesses.
#[derive(Debug, Clone)]
pub struct SignaturePair {
    pub route_a: Route,
    pub route_b: Route,
    pub sig_a: RouteSignature,
    pub sig_b: RouteSignature,
    /// `|Sa ∩ Sb|` — the number of routers where the two operands'
    /// messages share a link buffer.
    pub common_links: u32,
}

/// The corner `m*` of `bbox(a, c) ∩ bbox(b, c)` farthest from `c`. Per
/// axis both boxes contain `c`'s coordinate, so the intersection runs
/// from `c` to the nearer of `a` and `b` when they lie on the same side
/// of `c`, and is `c`'s coordinate alone when they lie on opposite
/// sides.
pub fn meeting_corner(a: Coord, b: Coord, c: Coord) -> Coord {
    fn axis(a: u16, b: u16, c: u16) -> u16 {
        if a <= c && b <= c {
            a.max(b)
        } else if a >= c && b >= c {
            a.min(b)
        } else {
            c
        }
    }
    Coord::new(axis(a.x, b.x, c.x), axis(a.y, b.y, c.y))
}

/// Closed form of [`best_signature_pair`]`(a, c, b, c)`: the
/// maximal-overlap minimal routes of two messages converging on `c`
/// (§5.2.1 reshaping of two data replies toward one core), as
/// allocation-free link walks.
///
/// Every link both routes use lies in `B = bbox(a, c) ∩ bbox(b, c)` =
/// `bbox(m*, c)` with `m* =` [`meeting_corner`]. A monotone route into
/// `c` crosses at most `|m* c|` links inside `B` (each hop inside `B`
/// closes one unit of its extent), so no pair shares more than
/// `|m* c|` links — and a pair that shares that many must share the
/// whole path from `m*` to `c`. Such pairs exist: `a → m* → c` and
/// `b → m* → c` are minimal because `m*` lies in both bounding boxes.
/// The search enumerates routes X-move-first, so among maximal pairs it
/// keeps the lexicographically first one:
/// `XY(a → m*) · XY(m* → c)` and `XY(b → m*) · XY(m* → c)`.
///
/// `None` when a leg exceeds the exhaustive bound: longer legs are
/// searched over the bounded two-bend family, whose best pair differs,
/// so callers fall back to [`best_signature_pair`].
pub fn converging_pair(mesh: &Mesh, a: Coord, b: Coord, c: Coord) -> Option<(XyLinks, XyLinks)> {
    let bound = MAX_EXHAUSTIVE_HOPS as u32;
    if a.manhattan(c) > bound || b.manhattan(c) > bound {
        return None;
    }
    let m = meeting_corner(a, b, c);
    Some((mesh.xy_via(a, m, c), mesh.xy_via(b, m, c)))
}

/// Select, among all minimal routes of `(a_src → a_dst)` and
/// `(b_src → b_dst)`, the pair maximizing the number of common links
/// (§5.2.1: "selects signatures carefully in an attempt to maximize 1s
/// in S{...} ∩ S{...}"). Ties prefer the XY route (index 0 of the
/// enumeration explores X-first moves first), keeping the baseline
/// routing when reshaping buys nothing. Converging pairs within the
/// exhaustive bound take the closed form of [`converging_pair`].
pub fn best_signature_pair(
    mesh: &Mesh,
    a_src: Coord,
    a_dst: Coord,
    b_src: Coord,
    b_dst: Coord,
) -> SignaturePair {
    if a_dst == b_dst {
        if let Some((walk_a, walk_b)) = converging_pair(mesh, a_src, b_src, a_dst) {
            let route_a = Route {
                src: a_src,
                dst: a_dst,
                links: walk_a.collect(),
            };
            let route_b = Route {
                src: b_src,
                dst: b_dst,
                links: walk_b.collect(),
            };
            return SignaturePair {
                sig_a: RouteSignature::from_route(mesh, &route_a),
                sig_b: RouteSignature::from_route(mesh, &route_b),
                route_a,
                route_b,
                common_links: meeting_corner(a_src, b_src, a_dst).manhattan(a_dst),
            };
        }
    }
    enumerated_signature_pair(mesh, a_src, a_dst, b_src, b_dst)
}

/// The exhaustive search behind [`best_signature_pair`]: every pair of
/// enumerated minimal routes, first strictly better pair kept.
fn enumerated_signature_pair(
    mesh: &Mesh,
    a_src: Coord,
    a_dst: Coord,
    b_src: Coord,
    b_dst: Coord,
) -> SignaturePair {
    let routes_a = minimal_routes(mesh, a_src, a_dst);
    let routes_b = minimal_routes(mesh, b_src, b_dst);
    let sigs_a: Vec<RouteSignature> = routes_a
        .iter()
        .map(|r| RouteSignature::from_route(mesh, r))
        .collect();
    let sigs_b: Vec<RouteSignature> = routes_b
        .iter()
        .map(|r| RouteSignature::from_route(mesh, r))
        .collect();

    let mut best: Option<(usize, usize, u32)> = None;
    for (i, sa) in sigs_a.iter().enumerate() {
        for (j, sb) in sigs_b.iter().enumerate() {
            let common = sa.common_links(sb);
            let better = match best {
                None => true,
                Some((_, _, c)) => common > c,
            };
            if better {
                best = Some((i, j, common));
            }
        }
    }
    let (i, j, common) = best.expect("route enumerations are never empty");
    SignaturePair {
        route_a: routes_a[i].clone(),
        route_b: routes_b[j].clone(),
        sig_a: sigs_a[i].clone(),
        sig_b: sigs_b[j].clone(),
        common_links: common,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndc_types::NocConfig;

    fn mesh6() -> Mesh {
        Mesh::new(NocConfig {
            width: 6,
            height: 6,
            link_bytes: 16,
            hop_cycles: 3,
        })
    }

    #[test]
    fn signature_set_get_and_count() {
        let m = mesh6();
        let r = m.xy_route(Coord::new(0, 0), Coord::new(3, 2));
        let s = RouteSignature::from_route(&m, &r);
        assert_eq!(s.count_ones(), 5);
        for &l in &r.links {
            assert!(s.get(l));
        }
        let collected: Vec<LinkId> = s.links().collect();
        assert_eq!(collected.len(), 5);
        let mut sorted = r.links.clone();
        sorted.sort();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn intersection_of_disjoint_routes_is_empty() {
        let m = mesh6();
        let r1 = m.xy_route(Coord::new(0, 0), Coord::new(2, 0));
        let r2 = m.xy_route(Coord::new(0, 5), Coord::new(2, 5));
        let s1 = RouteSignature::from_route(&m, &r1);
        let s2 = RouteSignature::from_route(&m, &r2);
        assert_eq!(s1.and(&s2).count_ones(), 0);
    }

    #[test]
    fn minimal_route_counts() {
        let m = mesh6();
        // (0,0) -> (2,2): C(4,2) = 6 staircases.
        let routes = minimal_routes(&m, Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(routes.len(), 6);
        // Straight line: exactly one.
        let routes = minimal_routes(&m, Coord::new(0, 0), Coord::new(0, 4));
        assert_eq!(routes.len(), 1);
        // Self: one empty route.
        let routes = minimal_routes(&m, Coord::new(3, 3), Coord::new(3, 3));
        assert_eq!(routes.len(), 1);
        assert!(routes[0].links.is_empty());
    }

    /// Reproduces the Figure 11 scenario: two accesses whose XY routes
    /// do not share a link, but reshaped minimal routes share several.
    #[test]
    fn reshaping_creates_overlap_fig11() {
        let m = mesh6();
        // Access a: (0,0) -> (3,3); access b: (0,3)->(3,0) region chosen
        // so XY routes are disjoint on inner links but staircases can
        // overlap.
        let a_src = Coord::new(0, 1);
        let a_dst = Coord::new(3, 2);
        let b_src = Coord::new(1, 0);
        let b_dst = Coord::new(2, 3);
        let xy1 = RouteSignature::from_route(&m, &m.xy_route(a_src, a_dst));
        let xy2 = RouteSignature::from_route(&m, &m.xy_route(b_src, b_dst));
        let xy_common = xy1.and(&xy2).count_ones();
        let best = best_signature_pair(&m, a_src, a_dst, b_src, b_dst);
        assert!(
            best.common_links > xy_common,
            "reshaping should beat XY here: best {} vs xy {}",
            best.common_links,
            xy_common
        );
        assert!(best.common_links >= 1);
    }

    #[test]
    fn same_source_and_dest_share_everything() {
        let m = mesh6();
        let s = Coord::new(1, 1);
        let d = Coord::new(4, 1);
        let best = best_signature_pair(&m, s, d, s, d);
        assert_eq!(best.common_links, 3);
    }

    /// The closed form equals the exhaustive search link for link — the
    /// same routes and the same `common_links` — for every `(a, b, c)`
    /// triple of a square and a non-square mesh, all of whose legs are
    /// within the exhaustive bound.
    #[test]
    fn converging_closed_form_matches_enumeration() {
        for (w, h) in [(5u16, 5u16), (7, 4)] {
            let m = Mesh::new(NocConfig {
                width: w,
                height: h,
                link_bytes: 16,
                hop_cycles: 3,
            });
            let nodes: Vec<Coord> = (0..h)
                .flat_map(|y| (0..w).map(move |x| Coord::new(x, y)))
                .collect();
            for &c in &nodes {
                for &a in &nodes {
                    for &b in &nodes {
                        let reference = enumerated_signature_pair(&m, a, c, b, c);
                        let (wa, wb) = converging_pair(&m, a, b, c).expect("within bound");
                        let ctx = format!("{w}x{h} a={a:?} b={b:?} c={c:?}");
                        assert_eq!(wa.collect::<Vec<_>>(), reference.route_a.links, "{ctx}");
                        assert_eq!(wb.collect::<Vec<_>>(), reference.route_b.links, "{ctx}");
                        let chosen = best_signature_pair(&m, a, c, b, c);
                        assert_eq!(chosen.route_a, reference.route_a, "{ctx}");
                        assert_eq!(chosen.route_b, reference.route_b, "{ctx}");
                        assert_eq!(chosen.sig_a, reference.sig_a, "{ctx}");
                        assert_eq!(chosen.sig_b, reference.sig_b, "{ctx}");
                        assert_eq!(chosen.common_links, reference.common_links, "{ctx}");
                    }
                }
            }
        }
    }

    /// Legs beyond the exhaustive bound have no closed form: the
    /// bounded staircase search decides them.
    #[test]
    fn converging_pair_defers_long_legs_to_the_search() {
        let m = Mesh::new(NocConfig {
            width: 16,
            height: 16,
            link_bytes: 16,
            hop_cycles: 3,
        });
        let c = Coord::new(15, 15);
        assert!(converging_pair(&m, Coord::new(0, 0), Coord::new(14, 15), c).is_none());
        assert!(converging_pair(&m, Coord::new(10, 10), Coord::new(14, 15), c).is_some());
    }

    #[test]
    fn chosen_routes_remain_minimal() {
        let m = mesh6();
        let a_src = Coord::new(0, 0);
        let a_dst = Coord::new(2, 2);
        let b_src = Coord::new(2, 0);
        let b_dst = Coord::new(0, 2);
        let best = best_signature_pair(&m, a_src, a_dst, b_src, b_dst);
        assert_eq!(best.route_a.hops() as u32, a_src.manhattan(a_dst));
        assert_eq!(best.route_b.hops() as u32, b_src.manhattan(b_dst));
    }
}
