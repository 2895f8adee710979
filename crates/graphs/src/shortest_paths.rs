//! Exact shortest-path computations used as ground truth by tests and benches.
//!
//! Everything here is *centralized* — these routines are the oracle against
//! which the distributed schemes' stretch and exactness claims are checked.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dist_add;
use crate::graph::{Graph, VertexId, Weight, INFINITY};

/// Single-source shortest path distances from `src` (Dijkstra).
///
/// Returns a vector indexed by vertex; unreachable vertices get
/// [`INFINITY`].
///
/// # Examples
///
/// ```
/// use graphs::{GraphBuilder, VertexId, shortest_paths::dijkstra};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1), 2);
/// b.add_edge(VertexId(1), VertexId(2), 2);
/// b.add_edge(VertexId(0), VertexId(2), 5);
/// let d = dijkstra(&b.build(), VertexId(0));
/// assert_eq!(d, vec![0, 2, 4]);
/// ```
pub fn dijkstra(g: &Graph, src: VertexId) -> Vec<Weight> {
    dijkstra_with_parents(g, src).0
}

/// Dijkstra that also returns the shortest-path-tree parent of each vertex
/// (`None` for the source and unreachable vertices).
pub fn dijkstra_with_parents(g: &Graph, src: VertexId) -> (Vec<Weight>, Vec<Option<VertexId>>) {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for arc in g.neighbors(u) {
            let nd = dist_add(d, arc.weight);
            if nd < dist[arc.to.index()] {
                dist[arc.to.index()] = nd;
                parent[arc.to.index()] = Some(u);
                heap.push(Reverse((nd, arc.to)));
            }
        }
    }
    (dist, parent)
}

/// One reusable truncated-Dijkstra scratch: tentative distance and
/// tree parent per vertex, plus the vertices the last growth reached, which
/// resets it in `O(|ball|)`. Thorup–Zwick clusters, hopset bunches and the
/// superclustering searches all grow on it.
///
/// Vertices settle by `(d, id)`, so every growth that reaches a vertex within
/// the same truncation gives it the distance and parent that
/// [`dijkstra_with_parents`] gives it.
///
/// # Examples
///
/// ```
/// use graphs::{GraphBuilder, VertexId, INFINITY, shortest_paths::Ball};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1), 2);
/// b.add_edge(VertexId(1), VertexId(2), 2);
/// let g = b.build();
/// let mut ball = Ball::new(3);
/// ball.grow(&g, VertexId(0), |_, d| d <= 2, |_, _| false);
/// assert_eq!(ball.dist(VertexId(1)), 2);
/// assert_eq!(ball.dist(VertexId(2)), INFINITY);
/// assert_eq!(ball.path_to(VertexId(1)), vec![VertexId(0), VertexId(1)]);
/// ball.reset();
/// ```
#[derive(Debug)]
pub struct Ball {
    dist: Vec<Weight>,
    parent: Vec<(VertexId, Weight)>,
    touched: Vec<VertexId>,
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
}

impl Ball {
    /// A scratch for a graph of `n` vertices, all unreached.
    pub fn new(n: usize) -> Self {
        Ball {
            dist: vec![INFINITY; n],
            parent: vec![(VertexId(0), 0); n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Dijkstra from `src` on a reset scratch. An offer `d` to `x` is
    /// recorded (and relayed on) only if it beats what `x` holds and
    /// `admit(x, d)`; `stop(u, d)` sees each vertex as it settles, and
    /// returning `true` ends the growth before `u` relays. Weights are
    /// positive, so once `stop` fires at `d`, every vertex within `d` holds
    /// its final distance and parent.
    pub fn grow(
        &mut self,
        g: &Graph,
        src: VertexId,
        mut admit: impl FnMut(VertexId, Weight) -> bool,
        mut stop: impl FnMut(VertexId, Weight) -> bool,
    ) {
        debug_assert!(self.touched.is_empty(), "grow on a ball that was not reset");
        self.dist[src.index()] = 0;
        self.parent[src.index()] = (src, 0);
        self.touched.push(src);
        self.heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u.index()] {
                continue;
            }
            if stop(u, d) {
                break;
            }
            for arc in g.neighbors(u) {
                let nd = dist_add(d, arc.weight);
                let old = self.dist[arc.to.index()];
                if nd < old && admit(arc.to, nd) {
                    if old == INFINITY {
                        self.touched.push(arc.to);
                    }
                    self.dist[arc.to.index()] = nd;
                    self.parent[arc.to.index()] = (u, arc.weight);
                    self.heap.push(Reverse((nd, arc.to)));
                }
            }
        }
    }

    /// `v`'s distance in the last growth ([`INFINITY`] if unreached).
    pub fn dist(&self, v: VertexId) -> Weight {
        self.dist[v.index()]
    }

    /// `v`'s tree parent in the last growth and the weight of the edge to
    /// it; the source is its own parent, at weight 0. Meaningful only for
    /// reached vertices.
    pub fn parent(&self, v: VertexId) -> (VertexId, Weight) {
        self.parent[v.index()]
    }

    /// The vertices the last growth reached, in no particular order.
    pub fn reached(&self) -> &[VertexId] {
        &self.touched
    }

    /// The tree path `src → … → dst` of the last growth from `src`; `dst`
    /// must have been reached.
    pub fn path_to(&self, dst: VertexId) -> Vec<VertexId> {
        let mut path = vec![dst];
        let mut cur = dst;
        loop {
            let (p, _) = self.parent[cur.index()];
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Forget the last growth.
    pub fn reset(&mut self) {
        for v in self.touched.drain(..) {
            self.dist[v.index()] = INFINITY;
        }
        self.heap.clear();
    }
}

/// Shortest distance from every vertex to the *nearest member of a set*
/// (multi-source Dijkstra). Used for the Thorup–Zwick pivot distances
/// `d(v, A_i)`.
///
/// Also returns, per vertex, which source realizes that distance (the pivot),
/// `None` if the set is empty or the vertex is unreachable from it.
pub fn multi_source_dijkstra(
    g: &Graph,
    sources: &[VertexId],
) -> (Vec<Weight>, Vec<Option<VertexId>>) {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut owner: Vec<Option<VertexId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        if dist[s.index()] != 0 {
            dist[s.index()] = 0;
            owner[s.index()] = Some(s);
            heap.push(Reverse((0, s)));
        }
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for arc in g.neighbors(u) {
            let nd = dist_add(d, arc.weight);
            if nd < dist[arc.to.index()] {
                dist[arc.to.index()] = nd;
                owner[arc.to.index()] = owner[u.index()];
                heap.push(Reverse((nd, arc.to)));
            }
        }
    }
    (dist, owner)
}

/// `t`-bounded distances from `src`: length of the shortest path using at
/// most `t` edges (hops). This is `t` rounds of Bellman–Ford; note the
/// result is not a metric.
///
/// # Examples
///
/// ```
/// use graphs::{GraphBuilder, VertexId, INFINITY, shortest_paths::hop_bounded_distances};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1), 1);
/// b.add_edge(VertexId(1), VertexId(2), 1);
/// let g = b.build();
/// assert_eq!(hop_bounded_distances(&g, VertexId(0), 1)[2], INFINITY);
/// assert_eq!(hop_bounded_distances(&g, VertexId(0), 2)[2], 2);
/// ```
pub fn hop_bounded_distances(g: &Graph, src: VertexId, t: usize) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    dist[src.index()] = 0;
    let mut frontier: Vec<VertexId> = vec![src];
    for _ in 0..t {
        let mut next = Vec::new();
        let mut updated = vec![false; n];
        let snapshot = dist.clone();
        for &u in &frontier {
            let du = snapshot[u.index()];
            for arc in g.neighbors(u) {
                let nd = dist_add(du, arc.weight);
                if nd < dist[arc.to.index()] {
                    dist[arc.to.index()] = nd;
                    if !updated[arc.to.index()] {
                        updated[arc.to.index()] = true;
                        next.push(arc.to);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    dist
}

/// Unweighted BFS hop counts from `src` ([`INFINITY`] if unreachable).
pub fn bfs_hops(g: &Graph, src: VertexId) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut hops = vec![INFINITY; n];
    hops[src.index()] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for arc in g.neighbors(u) {
            if hops[arc.to.index()] == INFINITY {
                hops[arc.to.index()] = hops[u.index()] + 1;
                queue.push_back(arc.to);
            }
        }
    }
    hops
}

/// All-pairs shortest path distances; `result[u][v]` is `d(u, v)`.
///
/// Quadratic memory — intended for the modest `n` used in tests and benches.
pub fn all_pairs(g: &Graph) -> Vec<Vec<Weight>> {
    g.vertices().map(|v| dijkstra(g, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A 4-cycle with one heavy chord.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        b.add_edge(VertexId(3), VertexId(0), 1);
        b.add_edge(VertexId(0), VertexId(2), 10);
        b.build()
    }

    #[test]
    fn dijkstra_prefers_light_path_over_heavy_chord() {
        let d = dijkstra(&diamond(), VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 1]);
    }

    #[test]
    fn dijkstra_parents_form_shortest_path_tree() {
        let (dist, parent) = dijkstra_with_parents(&diamond(), VertexId(0));
        for v in 1..4u32 {
            let p = parent[v as usize].unwrap();
            let g = diamond();
            let w = g.edge_weight(p, VertexId(v)).unwrap();
            assert_eq!(dist[p.index()] + w, dist[v as usize]);
        }
        assert_eq!(parent[0], None);
    }

    #[test]
    fn unreachable_vertices_are_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1), 1);
        let d = dijkstra(&b.build(), VertexId(0));
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn hop_bounded_matches_unbounded_for_large_t() {
        let g = diamond();
        let exact = dijkstra(&g, VertexId(0));
        let bounded = hop_bounded_distances(&g, VertexId(0), g.num_vertices());
        assert_eq!(exact, bounded);
    }

    #[test]
    fn hop_bounded_is_monotone_in_t() {
        let g = diamond();
        let mut prev = hop_bounded_distances(&g, VertexId(0), 0);
        for t in 1..=4 {
            let cur = hop_bounded_distances(&g, VertexId(0), t);
            for (p, c) in prev.iter().zip(cur.iter()) {
                assert!(c <= p, "t-bounded distance must be non-increasing in t");
            }
            prev = cur;
        }
    }

    #[test]
    fn one_hop_bound_sees_only_direct_edges() {
        let g = diamond();
        let d = hop_bounded_distances(&g, VertexId(0), 1);
        assert_eq!(d, vec![0, 1, 10, 1]);
    }

    #[test]
    fn multi_source_takes_nearest_source() {
        let g = diamond();
        let (d, owner) = multi_source_dijkstra(&g, &[VertexId(1), VertexId(3)]);
        assert_eq!(d, vec![1, 0, 1, 0]);
        assert_eq!(owner[1], Some(VertexId(1)));
        assert_eq!(owner[3], Some(VertexId(3)));
        assert!(owner[0] == Some(VertexId(1)) || owner[0] == Some(VertexId(3)));
    }

    #[test]
    fn multi_source_with_empty_set() {
        let g = diamond();
        let (d, owner) = multi_source_dijkstra(&g, &[]);
        assert!(d.iter().all(|&x| x == INFINITY));
        assert!(owner.iter().all(|o| o.is_none()));
    }

    #[test]
    fn bfs_hops_ignores_weights() {
        let g = diamond();
        let h = bfs_hops(&g, VertexId(0));
        assert_eq!(h, vec![0, 1, 1, 1]);
    }

    /// What `ball` holds for every vertex: distance, and for reached
    /// vertices the parent with its edge weight.
    fn ball_state(ball: &Ball, n: usize) -> Vec<(Weight, Option<(VertexId, Weight)>)> {
        (0..n as u32)
            .map(VertexId)
            .map(|v| {
                let reached = ball.dist(v) != INFINITY;
                (ball.dist(v), reached.then(|| ball.parent(v)))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `Ball` against the ground truth, on tie-heavy and wide weights:
        /// untruncated it is `dijkstra_with_parents` (the parent weight is
        /// the edge's weight); truncated at `r` by `admit` or by `stop`, it
        /// agrees on every vertex within `r`; and a reset ball grows exactly
        /// like a fresh one.
        #[test]
        fn ball_matches_dijkstra(
            n in 1usize..120,
            wide in 0u8..2,
            r_pct in 0u64..=100,
            seed in 0u64..1_000_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let weights = if wide == 1 { 1..=100 } else { 1..=3 };
            let p = (3.0 / n as f64).min(1.0);
            let g = crate::generators::erdos_renyi_connected(n, p, weights, &mut rng);
            let src = VertexId(rng.gen_range(0..n as u32));
            let (dist, parent) = dijkstra_with_parents(&g, src);
            let ecc = dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0);
            let r = ecc * r_pct / 100;

            // Dirty the scratch with a truncated growth from elsewhere
            // (it leaves entries on the heap), then reset it.
            let mut ball = Ball::new(n);
            let other = VertexId(rng.gen_range(0..n as u32));
            ball.grow(&g, other, |_, _| true, |_, d| d > r);
            ball.reset();

            ball.grow(&g, src, |_, _| true, |_, _| false);
            let mut fresh = Ball::new(n);
            fresh.grow(&g, src, |_, _| true, |_, _| false);
            proptest::prop_assert_eq!(ball.reached(), fresh.reached());
            proptest::prop_assert_eq!(ball_state(&ball, n), ball_state(&fresh, n));
            for v in g.vertices() {
                proptest::prop_assert_eq!(ball.dist(v), dist[v.index()]);
                if let Some(p) = parent[v.index()] {
                    let w = g.edge_weight(p, v);
                    proptest::prop_assert_eq!(Some(ball.parent(v)), w.map(|w| (p, w)));
                }
            }
            proptest::prop_assert_eq!(ball.parent(src), (src, 0));
            ball.reset();

            for by_admit in [true, false] {
                if by_admit {
                    ball.grow(&g, src, |_, d| d <= r, |_, _| false);
                } else {
                    ball.grow(&g, src, |_, _| true, |_, d| d > r);
                }
                for v in g.vertices().filter(|v| dist[v.index()] <= r) {
                    proptest::prop_assert_eq!(ball.dist(v), dist[v.index()]);
                    let mut want = vec![v];
                    while let Some(p) = parent[want.last().unwrap().index()] {
                        want.push(p);
                    }
                    want.reverse();
                    proptest::prop_assert_eq!(ball.path_to(v), want);
                }
                if by_admit {
                    let within = g.vertices().filter(|v| dist[v.index()] <= r).count();
                    proptest::prop_assert_eq!(ball.reached().len(), within);
                }
                ball.reset();
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn all_pairs_is_symmetric() {
        let g = diamond();
        let apsp = all_pairs(&g);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(apsp[u][v], apsp[v][u]);
            }
        }
    }
}
