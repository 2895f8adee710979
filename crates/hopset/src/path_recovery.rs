//! The path-recovery mechanism (paper §2).
//!
//! Hopset edges are shortcuts; routing needs real trees in `G`. When a
//! hopset edge `e = (x, y)` carries a root-distance `d̂(x, z)` into a
//! cluster tree, every vertex `v` on the realizing path `P(e)` must learn its
//! own approximate distance `d̂(v, z) ≤ d_P(v, x) + d̂(x, z)` and a parent
//! (its predecessor on `P(e)`) implementing it. The protocol runs in
//! `Õ(|H|·C + D)·β` rounds, where `C` bounds how many roots any vertex
//! serves; memory per path vertex grows by O(1) words per root.

use congest::MemoryMeter;
use graphs::{dist_add, VertexId, Weight, INFINITY};

use crate::hopset::Hopset;

/// Per-vertex recovered state for one root: best distance plus the parent
/// (predecessor toward the root) realizing it.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// Best known distance to the root, per host vertex.
    pub dist: Vec<Weight>,
    /// Predecessor implementing `dist` (a neighbor on some `P(e)` or an
    /// exploration parent), `None` at the root / unreached vertices.
    pub parent: Vec<Option<VertexId>>,
}

impl Recovered {
    /// Fresh state over `n` host vertices.
    pub fn new(n: usize) -> Self {
        Recovered {
            dist: vec![INFINITY; n],
            parent: vec![None; n],
        }
    }

    /// Seed the root itself.
    pub fn seed(&mut self, root: VertexId, d0: Weight) {
        if d0 < self.dist[root.index()] {
            self.dist[root.index()] = d0;
            self.parent[root.index()] = None;
        }
    }

    /// Fold in a candidate `(dist, parent)` for `v`; returns whether it won.
    pub fn offer(&mut self, v: VertexId, d: Weight, parent: Option<VertexId>) -> bool {
        if d < self.dist[v.index()] {
            self.dist[v.index()] = d;
            self.parent[v.index()] = parent;
            true
        } else {
            false
        }
    }
}

/// Push a root distance along the path realizing one hopset record.
///
/// `owner`/`index` select the record; `reversed = false` walks the stored
/// direction (tail = owner), `true` walks backwards (tail = the `to`
/// endpoint). `tail_dist` is the tail's approximate distance to the root.
/// Every path vertex is offered `tail_dist + d_P(tail, v)` with its
/// predecessor as parent. Rounds are charged as one sweep of the path;
/// memory is touched O(1) per improved vertex.
///
/// Returns how many vertices improved.
#[allow(clippy::too_many_arguments)]
pub fn recover_edge(
    hopset: &Hopset,
    owner: VertexId,
    index: usize,
    reversed: bool,
    tail_dist: Weight,
    g: &graphs::Graph,
    out: &mut Recovered,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> usize {
    let stored = hopset.path(owner, index);
    let path: Vec<VertexId> = if reversed {
        stored.iter().rev().copied().collect()
    } else {
        stored.to_vec()
    };
    let mut improved = 0;
    let mut acc = tail_dist;
    for w in path.windows(2) {
        let (prev, cur) = (w[0], w[1]);
        let edge = g
            .edge_weight(prev, cur)
            .expect("hopset path edge exists in G");
        acc = dist_add(acc, edge);
        memory.touch(cur, 2);
        if out.offer(cur, acc, Some(prev)) {
            improved += 1;
        }
    }
    rec.charge_rounds(path.len().saturating_sub(1) as u64);
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, GraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_hopset() -> (graphs::Graph, Hopset) {
        // Path 0-1-2-3 with weights 2, 3, 4; hopset edge 0 → 3 (weight 9).
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(1), VertexId(2), 3);
        b.add_edge(VertexId(2), VertexId(3), 4);
        let g = b.build();
        let mut h = Hopset::new(4);
        h.add_edge(
            VertexId(0),
            VertexId(3),
            9,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)],
        );
        (g, h)
    }

    #[test]
    fn forward_walk_accumulates_distances() {
        let (g, h) = line_hopset();
        let mut out = Recovered::new(4);
        out.seed(VertexId(0), 0);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(4);
        let improved = recover_edge(
            &h,
            VertexId(0),
            0,
            false,
            0,
            &g,
            &mut out,
            &mut rec,
            &mut mem,
        );
        assert_eq!(improved, 3);
        assert_eq!(out.dist, vec![0, 2, 5, 9]);
        assert_eq!(out.parent[3], Some(VertexId(2)));
        assert_eq!(out.parent[1], Some(VertexId(0)));
        assert_eq!(rec.totals().rounds, 3);
    }

    #[test]
    fn reversed_walk_runs_from_the_other_end() {
        let (g, h) = line_hopset();
        let mut out = Recovered::new(4);
        out.seed(VertexId(3), 10);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(4);
        recover_edge(
            &h,
            VertexId(0),
            0,
            true,
            10,
            &g,
            &mut out,
            &mut rec,
            &mut mem,
        );
        assert_eq!(out.dist, vec![19, 17, 14, 10]);
        assert_eq!(out.parent[0], Some(VertexId(1)));
    }

    #[test]
    fn offers_lose_to_better_existing_distances() {
        let (g, h) = line_hopset();
        let mut out = Recovered::new(4);
        out.seed(VertexId(0), 0);
        out.offer(VertexId(2), 1, Some(VertexId(3))); // artificially good
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(4);
        let improved = recover_edge(
            &h,
            VertexId(0),
            0,
            false,
            0,
            &g,
            &mut out,
            &mut rec,
            &mut mem,
        );
        assert_eq!(improved, 2); // vertex 2 kept its better value
        assert_eq!(out.dist[2], 1);
        assert_eq!(out.parent[2], Some(VertexId(3)));
    }

    #[test]
    fn recovered_parents_chain_to_a_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let g = generators::erdos_renyi_connected(60, 0.08, 1..=9, &mut rng);
        // Hopset edge along a real shortest path from 0.
        let (dist, parents) = graphs::shortest_paths::dijkstra_with_parents(&g, VertexId(0));
        // Find the farthest vertex and its path.
        let far = g
            .vertices()
            .max_by_key(|v| dist[v.index()])
            .expect("non-empty");
        let mut path = vec![far];
        let mut cur = far;
        while let Some(p) = parents[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let mut h = Hopset::new(60);
        h.add_edge(VertexId(0), far, dist[far.index()], path);
        let mut out = Recovered::new(60);
        out.seed(VertexId(0), 0);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(60);
        recover_edge(
            &h,
            VertexId(0),
            0,
            false,
            0,
            &g,
            &mut out,
            &mut rec,
            &mut mem,
        );
        // Walk back from far: parents chain to the seed with consistent dist.
        let mut cur = far;
        while let Some(p) = out.parent[cur.index()] {
            let w = g.edge_weight(p, cur).unwrap();
            assert_eq!(out.dist[cur.index()], out.dist[p.index()] + w);
            cur = p;
        }
        assert_eq!(cur, VertexId(0));
    }
}
