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
