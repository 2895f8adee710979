//! The Thorup–Zwick approximate distance oracle (\[TZ01a\]), answered from the
//! routing scheme's own data.
//!
//! The scheme already stores everything the oracle needs: each vertex's
//! *bunch with distances* (the table: every tree containing it, with the
//! estimate to the root) and its per-level pivots
//! ([`RoutingScheme::pivots`]). The classical alternating query then
//! returns a distance estimate with stretch at most `2k − 1` (+`o(1)` from
//! the approximate clusters/pivots) — without touching the graph.
//!
//! This is the query-side counterpart of routing: `route` moves a message
//! with stretch ≤ 4k−3, `query` *predicts* a distance with stretch ≤ 2k−1.

use graphs::{VertexId, Weight, INFINITY};

use crate::scheme::RoutingScheme;

/// A borrowed view of the scheme exposing distance queries.
///
/// # Examples
///
/// ```
/// use graphs::{generators, VertexId};
/// use routing::{build, BuildParams, oracle::DistanceOracle};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let g = generators::erdos_renyi_connected(60, 0.08, 1..=9, &mut rng);
/// let built = build(&g, &BuildParams::new(2), &mut rng);
/// let oracle = DistanceOracle::new(&built.scheme);
/// let est = oracle.query(VertexId(0), VertexId(42));
/// let exact = graphs::shortest_paths::dijkstra(&g, VertexId(0))[42];
/// assert!(est >= exact && est as f64 <= 3.5 * exact as f64); // ≤ 2k−1 (+o(1))
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DistanceOracle<'a> {
    scheme: &'a RoutingScheme,
}

impl<'a> DistanceOracle<'a> {
    /// Wrap a scheme.
    pub fn new(scheme: &'a RoutingScheme) -> Self {
        DistanceOracle { scheme }
    }

    /// The classical alternating bunch query: estimate `d(u, v)`.
    ///
    /// Returns [`INFINITY`] if the endpoints share no tree (different
    /// components). The estimate never undershoots the true distance.
    pub fn query(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        let (mut x, mut y) = (u, v);
        let mut w = x;
        let mut d_xw: Weight = 0;
        let mut i = 0usize;
        loop {
            if let Some(e) = self.scheme.entry(y, w) {
                return d_xw.saturating_add(e.dist);
            }
            i += 1;
            std::mem::swap(&mut x, &mut y);
            match self.scheme.pivots(x).get(i) {
                Some(&(p, d)) => {
                    w = p;
                    d_xw = d;
                }
                None => return INFINITY,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build, BuildParams, Mode};
    use graphs::{generators, shortest_paths, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn er(n: usize, seed: u64) -> (Graph, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        (g, rng)
    }

    fn check_all_pairs(g: &Graph, scheme: &RoutingScheme, bound: f64) -> f64 {
        let oracle = DistanceOracle::new(scheme);
        let mut worst: f64 = 1.0;
        for u in g.vertices() {
            let exact = shortest_paths::dijkstra(g, u);
            for v in g.vertices() {
                if u == v {
                    assert_eq!(oracle.query(u, v), 0);
                    continue;
                }
                let est = oracle.query(u, v);
                assert!(est >= exact[v.index()], "undershoot {u}->{v}");
                let stretch = est as f64 / exact[v.index()] as f64;
                assert!(
                    stretch <= bound,
                    "oracle stretch {stretch} for {u}->{v} exceeds {bound}"
                );
                worst = worst.max(stretch);
            }
        }
        worst
    }

    #[test]
    fn oracle_stretch_2k_minus_1_centralized() {
        for k in [2usize, 3] {
            let (g, mut rng) = er(70, 500 + k as u64);
            let built = build(
                &g,
                &BuildParams::new(k).with_mode(Mode::Centralized),
                &mut rng,
            );
            check_all_pairs(&g, &built.scheme, (2 * k - 1) as f64 + 1e-9);
        }
    }

    #[test]
    fn oracle_stretch_2k_minus_1_distributed() {
        for k in [2usize, 3] {
            let (g, mut rng) = er(70, 510 + k as u64);
            let built = build(&g, &BuildParams::new(k), &mut rng);
            // Approximate clusters add an o(1) slack.
            check_all_pairs(&g, &built.scheme, (2 * k - 1) as f64 + 0.5);
        }
    }

    #[test]
    fn oracle_beats_routing_stretch_bound() {
        // 2k-1 < 4k-3 for k ≥ 2: the oracle's estimate cannot be worse than
        // the routed path is *guaranteed* to be (though an actual routed
        // path may happen to be shorter than the estimate).
        let (g, mut rng) = er(60, 520);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        let worst = check_all_pairs(&g, &built.scheme, 5.5);
        assert!(worst <= 5.5);
    }

    #[test]
    fn oracle_on_geometric_networks() {
        let mut rng = ChaCha8Rng::seed_from_u64(530);
        let g = generators::random_geometric_connected(70, 0.17, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        check_all_pairs(&g, &built.scheme, 3.5);
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(540);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let oracle = DistanceOracle::new(&built.scheme);
        assert_eq!(oracle.query(VertexId(0), VertexId(3)), INFINITY);
        assert_eq!(oracle.query(VertexId(0), VertexId(1)), 1);
    }

    #[test]
    fn oracle_extra_state_is_o_k_words() {
        let (g, mut rng) = er(80, 550);
        let built = build(&g, &BuildParams::new(4), &mut rng);
        // The oracle's state beyond the routing table is the pivot list,
        // two words per pivot.
        for v in g.vertices() {
            assert!(2 * built.scheme.pivots(v).len() <= 2 * 4);
        }
    }
}
