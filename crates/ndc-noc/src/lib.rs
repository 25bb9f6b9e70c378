//! 2D-mesh network-on-chip substrate.
//!
//! This crate builds the on-chip network the paper's manycore assumes
//! (§2): a `w × h` mesh with static XY routing, 16-byte links, and a
//! 3-cycle router pipeline. Beyond plain routing it implements the
//! route-*signature* machinery of §5.2.1 (third challenge): every
//! minimal path between two nodes is an `L`-bit link set, and the
//! compiler may pick, among the minimal paths of two different accesses,
//! the pair of signatures maximizing the number of common links — each
//! common link is an opportunity to perform the computation at the
//! associated router. For two replies converging on one core the best
//! pair has a closed form ([`converging_pair`]), which the simulator
//! walks without building routes or signatures.
//!
//! The dynamic side ([`Network`]) is a contended-link latency model:
//! each directed link has a `busy_until` horizon; messages serialize on
//! links (occupancy = ⌈bytes / link width⌉ cycles) and pay the router
//! pipeline per hop. This produces realistic queueing-driven jitter in
//! operand arrival times — the raw material of the paper's
//! arrival-window study — without flit-level simulation cost.

#![forbid(unsafe_code)]

pub mod mesh;
pub mod network;
pub mod signature;

pub use mesh::{LinkId, Mesh, Route, XyLinks};
pub use network::{LinkObs, LinkTraversal, Network, Traversal};
pub use signature::{
    best_signature_pair, converging_pair, meeting_corner, minimal_routes, RouteSignature,
    SignaturePair,
};

#[cfg(test)]
mod proptests {
    //! Seeded-loop property tests (in-tree PRNG, no external framework):
    //! each test draws ≥256 random cases from a fixed seed, so failures
    //! reproduce exactly and the suite runs offline.

    use super::*;
    use ndc_types::{Coord, NocConfig, SplitMix64};

    const CASES: u64 = 256;

    fn cfg() -> NocConfig {
        NocConfig {
            width: 6,
            height: 6,
            link_bytes: 16,
            hop_cycles: 3,
        }
    }

    fn coord(g: &mut SplitMix64, bound: u64) -> Coord {
        Coord::new(g.below(bound) as u16, g.below(bound) as u16)
    }

    /// XY routes are minimal: hop count equals Manhattan distance.
    #[test]
    fn xy_routes_are_minimal() {
        let mesh = Mesh::new(cfg());
        let mut g = SplitMix64::new(0x10c1);
        for _ in 0..CASES {
            let (s, d) = (coord(&mut g, 6), coord(&mut g, 6));
            let route = mesh.xy_route(s, d);
            assert_eq!(route.links.len() as u32, s.manhattan(d), "{s:?}->{d:?}");
        }
    }

    /// Every link of an XY route connects adjacent nodes and the
    /// route is connected from source to destination.
    #[test]
    fn xy_routes_are_connected() {
        let mesh = Mesh::new(cfg());
        let mut g = SplitMix64::new(0x10c2);
        for _ in 0..CASES {
            let (s, d) = (coord(&mut g, 6), coord(&mut g, 6));
            let route = mesh.xy_route(s, d);
            let mut at = s;
            for &l in &route.links {
                let (from, to) = mesh.link_endpoints(l);
                assert_eq!(from, at, "{s:?}->{d:?}");
                assert_eq!(from.manhattan(to), 1);
                at = to;
            }
            assert_eq!(at, d, "{s:?}->{d:?}");
        }
    }

    /// A route signature has exactly one bit per hop.
    #[test]
    fn signatures_have_hop_many_bits() {
        let mesh = Mesh::new(cfg());
        let mut g = SplitMix64::new(0x10c3);
        for _ in 0..CASES {
            let (s, d) = (coord(&mut g, 6), coord(&mut g, 6));
            let route = mesh.xy_route(s, d);
            let sig = RouteSignature::from_route(&mesh, &route);
            assert_eq!(sig.count_ones(), route.links.len() as u32, "{s:?}->{d:?}");
        }
    }

    /// All enumerated minimal routes have the same (minimal) length
    /// and their count equals the binomial coefficient C(dx+dy, dx).
    #[test]
    fn minimal_route_enumeration_is_complete() {
        let mesh = Mesh::new(cfg());
        let mut g = SplitMix64::new(0x10c4);
        for _ in 0..CASES {
            let (s, d) = (coord(&mut g, 5), coord(&mut g, 5));
            let routes = minimal_routes(&mesh, s, d);
            let ddx = (s.x as i64 - d.x as i64).unsigned_abs();
            let ddy = (s.y as i64 - d.y as i64).unsigned_abs();
            let expect = binomial(ddx + ddy, ddx.min(ddy));
            assert_eq!(routes.len() as u64, expect, "{s:?}->{d:?}");
            for r in &routes {
                assert_eq!(r.links.len() as u32, s.manhattan(d), "{s:?}->{d:?}");
            }
        }
    }

    /// Non-square meshes (width ≠ height): XY routes stay minimal and
    /// connected, `link_endpoints` inverts `link_between`, and link ids
    /// stay inside `num_links`. Guards the 16×16 scale-up work against
    /// any width/height transposition bug in the 4-block link numbering
    /// (square meshes cannot distinguish `w` from `h`).
    #[test]
    fn nonsquare_meshes_route_and_number_links_consistently() {
        let mut g = SplitMix64::new(0x10c7);
        for _ in 0..CASES {
            let w = 2 + g.below(15) as u16;
            let mut h = 2 + g.below(15) as u16;
            if h == w {
                h = if w == 16 { 2 } else { w + 1 };
            }
            let mesh = Mesh::new(NocConfig {
                width: w,
                height: h,
                link_bytes: 16,
                hop_cycles: 3,
            });
            let s = Coord::new(g.below(w as u64) as u16, g.below(h as u64) as u16);
            let d = Coord::new(g.below(w as u64) as u16, g.below(h as u64) as u16);
            let route = mesh.xy_route(s, d);
            assert_eq!(
                route.links.len() as u32,
                s.manhattan(d),
                "{w}x{h} {s:?}->{d:?}"
            );
            let mut at = s;
            for &l in &route.links {
                assert!(l.index() < mesh.num_links(), "{w}x{h}: id out of range");
                let (from, to) = mesh.link_endpoints(l);
                assert_eq!(from, at, "{w}x{h} {s:?}->{d:?}");
                assert_eq!(from.manhattan(to), 1);
                assert_eq!(
                    mesh.link_between(from, to),
                    l,
                    "{w}x{h}: endpoints roundtrip"
                );
                at = to;
            }
            assert_eq!(at, d, "{w}x{h} {s:?}->{d:?}");
        }
    }

    /// The chosen signature pair shares at least as many links as the
    /// plain XY pair (the compiler's reshaping never loses overlap).
    #[test]
    fn best_pair_at_least_xy_overlap() {
        let mesh = Mesh::new(cfg());
        let mut g = SplitMix64::new(0x10c5);
        for _ in 0..CASES {
            let (a, b) = (coord(&mut g, 5), coord(&mut g, 5));
            let (c, e) = (coord(&mut g, 5), coord(&mut g, 5));
            let xy1 = RouteSignature::from_route(&mesh, &mesh.xy_route(a, b));
            let xy2 = RouteSignature::from_route(&mesh, &mesh.xy_route(c, e));
            let xy_common = xy1.and(&xy2).count_ones();
            let best = best_signature_pair(&mesh, a, b, c, e);
            assert!(
                best.common_links >= xy_common,
                "{a:?}->{b:?} / {c:?}->{e:?}: {} < {xy_common}",
                best.common_links
            );
        }
    }

    fn binomial(n: u64, k: u64) -> u64 {
        let mut acc = 1u64;
        for i in 0..k {
            acc = acc * (n - i) / (i + 1);
        }
        acc
    }
}
