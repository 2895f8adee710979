//! Hopset construction: the Thorup–Zwick-bunch scheme of \[EN17b\] on the
//! virtual vertex set.
//!
//! A sampled hierarchy `A_0 ⊇ A_1 ⊇ … ⊇ A_ℓ` over `V'` (uniform demotion
//! probability `|V'|^{-1/(ℓ+1)}`) yields, for every `u ∈ A_i \ A_{i+1}`:
//!
//! * **bunch edges** `u → v` for all `v ∈ A_i` with `d(u, v) < d(u, A_{i+1})`
//!   — whp `Õ(|V'|^{1/(ℓ+1)})` of them, which is what bounds the out-degree
//!   and hence the arboricity;
//! * a **pivot edge** `u → p_{i+1}(u)` to the nearest vertex of `A_{i+1}`;
//! * the top level `A_ℓ` is intraconnected (a clique on whp few vertices).
//!
//! Edge weights are exact `G`-distances between virtual vertices; by the
//! paper's Claim 7 these equal the virtual-graph distances whp (a vertex of
//! `V'` appears on every `B` consecutive shortest-path vertices), and the
//! realizing `G`-paths are retained for the path-recovery mechanism.
//!
//! Rounds are charged per the distributed schedule: each level costs one
//! `B`-bounded exploration plus a Lemma-1 broadcast of the level's sets and
//! new edges (see `DESIGN.md` on accounting).

use congest::MemoryMeter;
use graphs::shortest_paths::{self, Ball};
use graphs::{Graph, VertexId, INFINITY};
use rand::Rng;

use crate::hopset::Hopset;
use crate::virtual_graph::VirtualGraph;

/// Construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopsetParams {
    /// Number of hierarchy levels `ℓ` (the hierarchy has `ℓ + 1` sets).
    /// Larger `ℓ` → sparser hopset and smaller arboricity, larger hop bound.
    pub levels: usize,
}

impl Default for HopsetParams {
    fn default() -> Self {
        HopsetParams { levels: 2 }
    }
}

/// Everything the construction measured about itself.
#[derive(Clone, Debug)]
pub struct BuildStats {
    /// Sizes of the hierarchy sets `|A_0|, …, |A_ℓ|`. The
    /// superclustering construction ([`crate::superclustering::build_sc`])
    /// samples afresh at every level of every scale and keeps no such
    /// hierarchy, so it reports `[|A_0|]`, the virtual vertex count, alone.
    pub level_sizes: Vec<usize>,
    /// Directed hopset records created.
    pub edges: usize,
    /// Max out-degree = the arboricity bound `α`.
    pub arboricity: usize,
}

/// Output of [`build`].
#[derive(Clone, Debug)]
pub struct HopsetOutput {
    /// The hopset (out-edge oriented, with realizing paths).
    pub hopset: Hopset,
    /// Self-measurements.
    pub stats: BuildStats,
}

/// Build a hopset for the virtual graph `virt` over host graph `g`.
///
/// `d` is the broadcast-tree depth used to price Lemma-1 phases. Rounds go to
/// `rec`, per-vertex memory to `memory`. Each level opens
/// `hopset/L{i}/superclustering` (pivot exploration + hierarchy broadcast)
/// and `hopset/L{i}/interconnection` (bunch + pivot edges) spans on `rec`,
/// and the top-level clique opens `hopset/intraconnect`; every charge falls
/// inside one of them.
///
/// # Panics
///
/// Panics if `virt` has no virtual vertices.
pub fn build<R: Rng>(
    g: &Graph,
    virt: &VirtualGraph,
    params: HopsetParams,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
    rng: &mut R,
) -> HopsetOutput {
    let verts = virt.virtual_vertices();
    assert!(!verts.is_empty(), "virtual graph has no vertices");
    let m = verts.len();
    let levels = params.levels.max(1);
    let p = (m as f64).powf(-1.0 / (levels as f64 + 1.0));

    // Hierarchy: A_0 = V'; demote with probability p at each step.
    let mut hierarchy: Vec<Vec<VertexId>> = vec![verts.to_vec()];
    for _ in 0..levels {
        let prev = hierarchy.last().expect("non-empty");
        let next: Vec<VertexId> = prev
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(p.clamp(0.0, 1.0)))
            .collect();
        hierarchy.push(next);
    }
    // The top level anchors everything; if sampling emptied it, promote the
    // last non-empty set (keeps the construction total on small inputs).
    if hierarchy.last().expect("non-empty").is_empty() {
        let last_nonempty = hierarchy
            .iter()
            .rposition(|a| !a.is_empty())
            .expect("A_0 is non-empty");
        hierarchy.truncate(last_nonempty + 1);
    }
    let levels = hierarchy.len() - 1;

    let mut hopset = Hopset::new(g.num_vertices());

    // Per level, each member's position in the level's list (`NOT_MEMBER`
    // elsewhere): the survival test, and the order bunch edges are added in.
    let mut position: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
    for a in &hierarchy {
        let mut pos = vec![NOT_MEMBER; g.num_vertices()];
        for (j, &v) in a.iter().enumerate() {
            pos[v.index()] = j as u32;
        }
        position.push(pos);
    }

    let mut ball = Ball::new(g.num_vertices());
    let mut bunch: Vec<(u32, VertexId)> = Vec::new();
    for i in 0..levels {
        // Pivot distances d(·, A_{i+1}) via a multi-source exploration.
        let super_span = rec.begin(&format!("hopset/L{i}/superclustering"));
        let (piv_dist, piv_owner) = shortest_paths::multi_source_dijkstra(g, &hierarchy[i + 1]);
        rec.charge_rounds(virt.b_hops() as u64);
        rec.charge_broadcast(hierarchy[i].len() as u64, d);
        rec.end_with_memory(super_span, memory.peaks());

        let inter_span = rec.begin(&format!("hopset/L{i}/interconnection"));
        let mut level_edges = 0u64;
        for &u in &hierarchy[i] {
            if position[i + 1][u.index()] != NOT_MEMBER {
                continue; // u survives to the next level
            }
            // The ball of u: every vertex within d(u, A_{i+1}) settles.
            let du_next = piv_dist[u.index()];
            ball.grow(g, u, |_, _| true, |_, dv| dv > du_next);
            // Bunch edges: strictly closer members of A_i than A_{i+1}, in
            // the level's order.
            bunch.clear();
            bunch.extend(ball.reached().iter().filter_map(|&v| {
                let at = position[i][v.index()];
                (at != NOT_MEMBER && v != u && ball.dist(v) < du_next).then_some((at, v))
            }));
            bunch.sort_unstable();
            for &(_, v) in &bunch {
                hopset.add_edge(u, v, ball.dist(v), ball.path_to(v));
                level_edges += 1;
            }
            // Pivot edge.
            if du_next != INFINITY {
                let pivot = piv_owner[u.index()].expect("finite pivot distance");
                debug_assert_eq!(ball.dist(pivot), du_next);
                hopset.add_edge(u, pivot, du_next, ball.path_to(pivot));
                level_edges += 1;
            }
            ball.reset();
            memory.set(u, hopset.memory_words(u) + 2 * (levels + 1));
        }
        rec.charge_broadcast(level_edges, d);
        rec.end_with_memory(inter_span, memory.peaks());
    }

    // Top level: intraconnect (oriented small-id → large-id).
    let intra_span = rec.begin("hopset/intraconnect");
    let top = &hierarchy[levels];
    let top_position = &position[levels];
    let mut top_edges = 0u64;
    for (j, &u) in top.iter().enumerate() {
        if top.len() > 1 {
            // Grow until every later top vertex has settled.
            let mut later = top.len() - j - 1;
            ball.grow(
                g,
                u,
                |_, _| true,
                |v, _| {
                    let at = top_position[v.index()];
                    if at != NOT_MEMBER && at as usize > j {
                        later -= 1;
                    }
                    later == 0
                },
            );
            for &v in &top[j + 1..] {
                if ball.dist(v) != INFINITY {
                    hopset.add_edge(u, v, ball.dist(v), ball.path_to(v));
                    top_edges += 1;
                }
            }
            ball.reset();
        }
        memory.set(u, hopset.memory_words(u) + 2 * (levels + 1));
    }
    rec.charge_rounds(virt.b_hops() as u64);
    rec.charge_broadcast(top_edges, d);
    rec.end_with_memory(intra_span, memory.peaks());

    let stats = BuildStats {
        level_sizes: hierarchy.iter().map(Vec::len).collect(),
        edges: hopset.num_edges(),
        arboricity: hopset.max_out_degree(),
    };
    HopsetOutput { hopset, stats }
}

/// Marks a vertex outside a hierarchy level in its position array.
const NOT_MEMBER: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, Weight};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, p_virt: f64, seed: u64) -> (Graph, VirtualGraph, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=20, &mut rng);
        let virt = VirtualGraph::sample(&g, p_virt, &mut rng);
        (g, virt, rng)
    }

    fn default_build(
        g: &Graph,
        virt: &VirtualGraph,
        rng: &mut ChaCha8Rng,
    ) -> (HopsetOutput, obs::Recorder, MemoryMeter) {
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(g.num_vertices());
        let out = build(g, virt, HopsetParams::default(), 8, &mut rec, &mut mem, rng);
        (out, rec, mem)
    }

    #[test]
    fn hierarchy_is_nested_and_shrinking() {
        let (g, virt, mut rng) = setup(300, 0.3, 61);
        let (out, _, _) = default_build(&g, &virt, &mut rng);
        let sizes = &out.stats.level_sizes;
        assert_eq!(sizes[0], virt.virtual_vertices().len());
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "levels must shrink: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn edges_start_and_end_at_virtual_vertices() {
        let (g, virt, mut rng) = setup(200, 0.25, 62);
        let (out, _, _) = default_build(&g, &virt, &mut rng);
        for u in g.vertices() {
            for e in out.hopset.out_edges(u) {
                assert!(virt.is_virtual(u), "{u} not virtual");
                assert!(virt.is_virtual(e.to), "{} not virtual", e.to);
                assert!(e.weight > 0 || u == e.to);
            }
        }
    }

    #[test]
    fn edge_weights_are_exact_distances_with_valid_paths() {
        let (g, virt, mut rng) = setup(120, 0.3, 63);
        let (out, _, _) = default_build(&g, &virt, &mut rng);
        for u in g.vertices() {
            let dist_u = if out.hopset.out_edges(u).is_empty() {
                continue;
            } else {
                shortest_paths::dijkstra(&g, u)
            };
            for (j, e) in out.hopset.out_edges(u).iter().enumerate() {
                assert_eq!(e.weight, dist_u[e.to.index()], "weight is d_G");
                // The stored path realizes the weight edge by edge.
                let path = out.hopset.path(u, j);
                let mut total = 0;
                for pair in path.windows(2) {
                    total += g.edge_weight(pair[0], pair[1]).expect("path edge in G");
                }
                assert_eq!(total, e.weight);
            }
        }
    }

    #[test]
    fn arboricity_is_far_below_virtual_count() {
        let (g, virt, mut rng) = setup(600, 0.4, 64);
        let (out, _, _) = default_build(&g, &virt, &mut rng);
        let m = virt.virtual_vertices().len();
        assert!(
            out.stats.arboricity < m / 2,
            "arboricity {} should be far below |V'| = {m}",
            out.stats.arboricity
        );
    }

    #[test]
    fn more_levels_means_sparser() {
        let (g, virt, mut rng) = setup(500, 0.4, 65);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(g.num_vertices());
        let dense = build(
            &g,
            &virt,
            HopsetParams { levels: 1 },
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        let sparse = build(
            &g,
            &virt,
            HopsetParams { levels: 4 },
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        assert!(
            sparse.hopset.num_edges() < dense.hopset.num_edges(),
            "levels=4 ({}) should be sparser than levels=1 ({})",
            sparse.hopset.num_edges(),
            dense.hopset.num_edges()
        );
    }

    #[test]
    fn memory_metered_matches_out_edges() {
        let (g, virt, mut rng) = setup(150, 0.3, 66);
        let (out, _, mem) = default_build(&g, &virt, &mut rng);
        for &u in virt.virtual_vertices() {
            assert!(mem.peak(u) >= out.hopset.memory_words(u));
        }
    }

    #[test]
    fn ledger_accounts_rounds_and_broadcasts() {
        let (g, virt, mut rng) = setup(150, 0.3, 67);
        let (_, rec, _) = default_build(&g, &virt, &mut rng);
        assert!(rec.totals().rounds > 0);
        assert!(rec.totals().broadcasts > 0);
    }

    #[test]
    fn build_attributes_every_charge_to_a_span() {
        let (g, virt, mut rng) = setup(150, 0.3, 69);
        let mut mem = MemoryMeter::new(g.num_vertices());
        let mut rec = obs::Recorder::new();
        let out = build(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        // Spans: superclustering + interconnection per level, + intraconnect.
        let levels = out.stats.level_sizes.len() - 1;
        assert_eq!(rec.spans().len(), 2 * levels + 1);
        assert!(rec.spans().iter().any(|s| s.name == "hopset/intraconnect"));
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "hopset/L0/superclustering"));
        // Top-level spans partition the totals.
        let sum: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.delta.rounds)
            .sum();
        assert_eq!(sum, rec.totals().rounds);
        // Memory snapshots are monotone toward the final max peak.
        assert_eq!(
            rec.spans().last().unwrap().peak_memory_words,
            mem.max_peak()
        );
    }

    /// Every out-record with its realizing path, vertex by vertex.
    fn records(h: &Hopset) -> Vec<Vec<(VertexId, Weight, Vec<VertexId>)>> {
        (0..h.len() as u32)
            .map(VertexId)
            .map(|u| {
                let out = h.out_edges(u).iter().enumerate();
                out.map(|(j, e)| (e.to, e.weight, h.path(u, j).to_vec()))
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Balls settle exactly what the full Dijkstras settled: the same
        /// records in the same order, the same paths, totals, spans and
        /// meter, on tie-heavy and on wide weights, with the virtual set in
        /// id order or shuffled.
        #[test]
        fn balls_match_full_dijkstras(
            n in 2usize..160,
            wide in 0u8..2,
            virt_pct in 5u32..100,
            levels in 1usize..5,
            shuffled in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let weights = if wide == 1 { 1..=100 } else { 1..=3 };
            let g = generators::erdos_renyi_connected(n, (4.0 / n as f64).min(1.0), weights, &mut rng);
            let mut verts: Vec<VertexId> =
                g.vertices().filter(|_| rng.gen_range(0..100u32) < virt_pct).collect();
            if verts.is_empty() {
                verts.push(VertexId(0));
            }
            if shuffled == 1 {
                use rand::seq::SliceRandom;
                verts.shuffle(&mut rng);
            }
            let virt = VirtualGraph::from_set(&g, verts, 8);
            let params = HopsetParams { levels };
            let run = |reference: bool| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
                let (mut rec, mut mem) = (obs::Recorder::new(), MemoryMeter::new(n));
                let built = if reference { crate::reference::build } else { build };
                let out = built(&g, &virt, params, 5, &mut rec, &mut mem, &mut rng);
                let spans: Vec<_> = rec
                    .spans()
                    .iter()
                    .map(|s| (s.name.clone(), s.delta, s.peak_memory_words))
                    .collect();
                (records(&out.hopset), out.stats.level_sizes, rec.totals(), mem, spans)
            };
            let (got, want) = (run(false), run(true));
            proptest::prop_assert_eq!(&got.0, &want.0);
            proptest::prop_assert_eq!(&got.1, &want.1);
            proptest::prop_assert_eq!(&got.2, &want.2);
            proptest::prop_assert_eq!(&got.3, &want.3);
            proptest::prop_assert_eq!(&got.4, &want.4);
        }
    }

    #[test]
    fn single_virtual_vertex_yields_empty_hopset() {
        let mut rng = ChaCha8Rng::seed_from_u64(68);
        let g = generators::path(10, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(3)], 10);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(10);
        let out = build(
            &g,
            &virt,
            HopsetParams::default(),
            3,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        assert_eq!(out.hopset.num_edges(), 0);
    }
}
