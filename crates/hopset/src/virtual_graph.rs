//! The virtual graph `G' = (V', E')`, with edges realized on the fly.
//!
//! `V'` is a sampled subset of the network's vertices; `E'` notionally
//! contains an edge `{u', v'}` weighted by the shortest `B`-hop-bounded
//! `u'–v'` path in `G`. Storing `E'` would cost some vertices `Ω(|V'|)`
//! words, so — following the paper — edges are *never stored*: a Bellman–Ford
//! iteration over `E'` is implemented by seeding every virtual vertex's
//! current estimate into `G` and running `B` rounds of bounded exploration.

use congest::MemoryMeter;
use graphs::{dist_add, Graph, VertexId, Weight, INFINITY};
use rand::Rng;

/// The sampled virtual vertex set plus the exploration machinery.
#[derive(Clone, Debug)]
pub struct VirtualGraph {
    verts: Vec<VertexId>,
    is_virtual: Vec<bool>,
    /// Hop bound `B` for realizing virtual edges.
    b_hops: usize,
}

/// Result of a bounded exploration: per host vertex, the best value heard and
/// the neighbor it was heard from (`None` at seeds / unreached vertices).
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Best (smallest) value per host vertex; [`INFINITY`] if unreached.
    pub dist: Vec<Weight>,
    /// The neighbor whose message produced `dist` (exploration parent).
    pub parent: Vec<Option<VertexId>>,
    /// Which seed's wave reached each vertex (`None` if unreached).
    pub origin: Vec<Option<VertexId>>,
}

impl VirtualGraph {
    /// Sample each vertex of `g` into `V'` independently with probability `p`
    /// and set `B = 4·√n·ln n` (the paper's Claim-7 bound, capped at `n`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn sample<R: Rng>(g: &Graph, p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let n = g.num_vertices();
        let verts: Vec<VertexId> = g.vertices().filter(|_| rng.gen_bool(p)).collect();
        Self::from_set(g, verts, default_b(n))
    }

    /// Build from an explicit vertex set and hop bound.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range or `b_hops == 0`.
    pub fn from_set(g: &Graph, verts: Vec<VertexId>, b_hops: usize) -> Self {
        assert!(b_hops > 0, "hop bound must be positive");
        let n = g.num_vertices();
        let mut is_virtual = vec![false; n];
        for &v in &verts {
            assert!(v.index() < n, "virtual vertex {v} out of range");
            is_virtual[v.index()] = true;
        }
        VirtualGraph {
            verts,
            is_virtual,
            b_hops,
        }
    }

    /// The virtual vertices `V'`.
    pub fn virtual_vertices(&self) -> &[VertexId] {
        &self.verts
    }

    /// Whether `v` is virtual.
    #[inline]
    pub fn is_virtual(&self, v: VertexId) -> bool {
        self.is_virtual[v.index()]
    }

    /// The hop bound `B`.
    pub fn b_hops(&self) -> usize {
        self.b_hops
    }

    /// One `B`-bounded multi-source exploration of `g`: `seeds` are
    /// `(vertex, initial value)` pairs; for `B` rounds every vertex forwards
    /// the smallest value it knows (plus the edge weight) to its neighbors.
    /// `limit(v, value)` gates forwarding *through* `v` (the paper's limited
    /// explorations); seeds always speak, and values are recorded at a vertex
    /// even when the limit stops it from forwarding.
    ///
    /// Charges `B` rounds to `rec` and touches O(1) transient words per
    /// vertex that heard a neighbor on `memory`.
    pub fn bounded_exploration<L>(
        &self,
        g: &Graph,
        seeds: &[(VertexId, Weight)],
        limit: &L,
        rec: &mut obs::Recorder,
        memory: &mut MemoryMeter,
    ) -> Exploration
    where
        L: Fn(VertexId, Weight) -> bool + ?Sized,
    {
        let n = g.num_vertices();
        let mut dist = vec![INFINITY; n];
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        let mut origin: Vec<Option<VertexId>> = vec![None; n];
        // `queued` flags exactly the vertices in `frontier`; each round
        // clears its frontier's flags and reads its round-start values.
        let mut queued = vec![false; n];
        let mut frontier: Vec<VertexId> = Vec::new();
        for &(s, val) in seeds {
            if val < dist[s.index()] {
                dist[s.index()] = val;
                origin[s.index()] = Some(s);
                if !queued[s.index()] {
                    queued[s.index()] = true;
                    frontier.push(s);
                }
            }
        }
        let mut next: Vec<VertexId> = Vec::new();
        let mut snapshot: Vec<Weight> = Vec::new();
        for _ in 0..self.b_hops {
            if frontier.is_empty() {
                break;
            }
            snapshot.clear();
            for &u in &frontier {
                queued[u.index()] = false;
                snapshot.push(dist[u.index()]);
            }
            for (&u, &du) in frontier.iter().zip(&snapshot) {
                // Non-seed vertices only relay while under their limit.
                let from = origin[u.index()];
                if from != Some(u) && !limit(u, du) {
                    continue;
                }
                for arc in g.neighbors(u) {
                    let nd = dist_add(du, arc.weight);
                    if nd < dist[arc.to.index()] {
                        dist[arc.to.index()] = nd;
                        parent[arc.to.index()] = Some(u);
                        origin[arc.to.index()] = from;
                        if !queued[arc.to.index()] {
                            queued[arc.to.index()] = true;
                            next.push(arc.to);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        // Folding a message in is transient (`touch` leaves `current` alone),
        // so one touch per vertex that heard a neighbor sets the same peak as
        // one per improvement.
        for (v, p) in parent.iter().enumerate() {
            if p.is_some() {
                memory.touch(VertexId(v as u32), 2);
            }
        }
        rec.charge_rounds(self.b_hops as u64);
        Exploration {
            dist,
            parent,
            origin,
        }
    }

    /// Materialize `E'` exactly (all-pairs `B`-bounded distances between
    /// virtual vertices). **Test and ablation use only** — this is precisely
    /// the `Ω(√n)`-memory object the paper avoids building.
    pub fn materialize(&self, g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
        let mut edges = Vec::new();
        for (i, &u) in self.verts.iter().enumerate() {
            let dist = graphs::shortest_paths::hop_bounded_distances(g, u, self.b_hops);
            for &v in &self.verts[i + 1..] {
                if dist[v.index()] != INFINITY {
                    edges.push((u, v, dist[v.index()]));
                }
            }
        }
        edges
    }
}

/// The paper's hop bound `B = 4·√n·ln n`, capped at `n` (a path can't be
/// longer than that).
pub fn default_b(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let b = 4.0 * (n as f64).sqrt() * (n as f64).ln();
    (b as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, shortest_paths};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn recorder_and_meter(n: usize) -> (obs::Recorder, MemoryMeter) {
        (obs::Recorder::disabled(), MemoryMeter::new(n))
    }

    #[test]
    fn default_b_is_capped() {
        assert_eq!(default_b(1), 1);
        assert_eq!(default_b(100), 100);
        assert!(default_b(100_000) < 100_000);
    }

    #[test]
    fn exploration_from_single_seed_matches_bounded_bf() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let g = generators::erdos_renyi_connected(60, 0.08, 1..=9, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(0)], 5);
        let (mut rec, mut mem) = recorder_and_meter(60);
        let out =
            virt.bounded_exploration(&g, &[(VertexId(0), 0)], &|_, _| true, &mut rec, &mut mem);
        let want = shortest_paths::hop_bounded_distances(&g, VertexId(0), 5);
        assert_eq!(out.dist, want);
        assert_eq!(rec.totals().rounds, 5);
    }

    #[test]
    fn exploration_takes_min_over_seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let g = generators::path(10, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(0), VertexId(9)], 10);
        let (mut rec, mut mem) = recorder_and_meter(10);
        let out = virt.bounded_exploration(
            &g,
            &[(VertexId(0), 0), (VertexId(9), 0)],
            &|_, _| true,
            &mut rec,
            &mut mem,
        );
        for v in 0..10u32 {
            let want = (v as u64).min(9 - v as u64);
            assert_eq!(out.dist[v as usize], want, "vertex {v}");
        }
        assert_eq!(out.origin[1], Some(VertexId(0)));
        assert_eq!(out.origin[8], Some(VertexId(9)));
    }

    #[test]
    fn seeds_can_carry_initial_values() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let g = generators::path(5, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(0), VertexId(4)], 5);
        let (mut rec, mut mem) = recorder_and_meter(5);
        // Seed 0 starts at 100, seed 4 at 0: everything should hear seed 4.
        let out = virt.bounded_exploration(
            &g,
            &[(VertexId(0), 100), (VertexId(4), 0)],
            &|_, _| true,
            &mut rec,
            &mut mem,
        );
        assert_eq!(out.dist, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn limit_blocks_relay_but_not_receipt() {
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let g = generators::path(5, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(0)], 5);
        let (mut rec, mut mem) = recorder_and_meter(5);
        // Vertex 2 refuses to forward: the wave stops there, but 2 itself
        // still records its distance.
        let out = virt.bounded_exploration(
            &g,
            &[(VertexId(0), 0)],
            &|v, _| v != VertexId(2),
            &mut rec,
            &mut mem,
        );
        assert_eq!(out.dist[2], 2);
        assert_eq!(out.dist[3], INFINITY);
    }

    #[test]
    fn hop_bound_truncates() {
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let g = generators::path(10, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(0)], 3);
        let (mut rec, mut mem) = recorder_and_meter(10);
        let out =
            virt.bounded_exploration(&g, &[(VertexId(0), 0)], &|_, _| true, &mut rec, &mut mem);
        assert_eq!(out.dist[3], 3);
        assert_eq!(out.dist[4], INFINITY);
    }

    #[test]
    fn materialized_edges_are_symmetric_bounded_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(56);
        let g = generators::erdos_renyi_connected(40, 0.1, 1..=9, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.3, &mut rng);
        let edges = virt.materialize(&g);
        for &(u, v, w) in &edges {
            assert!(virt.is_virtual(u) && virt.is_virtual(v));
            let duv = shortest_paths::hop_bounded_distances(&g, u, virt.b_hops())[v.index()];
            assert_eq!(w, duv);
            // Bounded distances dominate true distances.
            assert!(w >= shortest_paths::dijkstra(&g, u)[v.index()]);
        }
    }

    #[test]
    fn sampling_probability_shapes_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(57);
        let g = generators::erdos_renyi_connected(400, 0.02, 1..=5, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.25, &mut rng);
        let m = virt.virtual_vertices().len() as f64;
        assert!(m > 100.0 * 0.5 && m < 100.0 * 2.0, "|V'| = {m}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The exploration matches its pre-scratch form: values, parents,
        /// origins, the cost totals and every meter peak, with one seed or many,
        /// with and without a clipping limit, on tie-heavy and wide weights.
        #[test]
        fn exploration_matches_reference(
            n in 2usize..120,
            wide in 0u8..2,
            many in 0u8..2,
            clip in 0u8..2,
            b_hops in 1usize..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let weights = if wide == 1 { 1..=100 } else { 1..=3 };
            let p = (3.0 / n as f64).min(1.0);
            let g = generators::erdos_renyi_connected(n, p, weights, &mut rng);
            let virt = VirtualGraph::from_set(&g, vec![VertexId(0)], b_hops);
            let count = if many == 1 { rng.gen_range(2..=n.min(12)) } else { 1 };
            let seeds: Vec<(VertexId, Weight)> = (0..count)
                .map(|_| (VertexId(rng.gen_range(0..n as u32)), rng.gen_range(0..20)))
                .collect();
            let threshold: Vec<Weight> = (0..n).map(|_| rng.gen_range(1..60)).collect();
            let limit = |v: VertexId, est: Weight| clip == 0 || est < threshold[v.index()];
            let mut start = MemoryMeter::new(n);
            for v in g.vertices() {
                start.set(v, rng.gen_range(0..4));
            }
            let (mut rec, mut mem) = (obs::Recorder::disabled(), start.clone());
            let got = virt.bounded_exploration(&g, &seeds, &limit, &mut rec, &mut mem);
            let (mut ref_rec, mut ref_mem) = (obs::Recorder::disabled(), start);
            let want = crate::reference::bounded_exploration(
                &virt, &g, &seeds, &limit, &mut ref_rec, &mut ref_mem,
            );
            proptest::prop_assert_eq!(&got.dist, &want.dist);
            proptest::prop_assert_eq!(&got.parent, &want.parent);
            proptest::prop_assert_eq!(&got.origin, &want.origin);
            proptest::prop_assert_eq!(rec.totals(), ref_rec.totals());
            proptest::prop_assert_eq!(&mem, &ref_mem);
        }
    }

    #[test]
    fn exploration_parents_chain_back_to_origin() {
        let mut rng = ChaCha8Rng::seed_from_u64(58);
        let g = generators::erdos_renyi_connected(50, 0.1, 1..=9, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(7)], 50);
        let (mut rec, mut mem) = recorder_and_meter(50);
        let out =
            virt.bounded_exploration(&g, &[(VertexId(7), 0)], &|_, _| true, &mut rec, &mut mem);
        for v in g.vertices() {
            if out.dist[v.index()] == INFINITY || v == VertexId(7) {
                continue;
            }
            let mut cur = v;
            let mut hops = 0;
            while let Some(p) = out.parent[cur.index()] {
                // Parent improves distance by exactly the edge weight.
                let w = g.edge_weight(p, cur).unwrap();
                assert_eq!(out.dist[cur.index()], out.dist[p.index()] + w);
                cur = p;
                hops += 1;
                assert!(hops <= 50);
            }
            assert_eq!(cur, VertexId(7));
        }
    }
}
