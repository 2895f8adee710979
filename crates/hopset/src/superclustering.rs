//! The superclustering-and-interconnection hopset construction — the
//! \[EN16a\]/\[EN17a\] family behind the paper's Theorem 1, implemented as an
//! alternative to the Thorup–Zwick-bunch construction in
//! [`crate::construction`].
//!
//! The construction works scale by scale: for each distance scale
//! `δ = 2^s`, it maintains a partition of the virtual vertices into
//! clusters (initially singletons) and runs `ℓ` levels; in each level,
//! cluster centers are *sampled*, unsampled clusters within reach `r_i` of a
//! sampled center **merge into its supercluster** (adding one hopset edge
//! center→center), and unsampled clusters with no sampled center nearby
//! **interconnect** with every cluster center within `r_i` (adding those
//! edges). Radii grow geometrically so a scale-`δ` pair is covered with few
//! hops and `(1+ε)` slack. Edge weights are exact `G`-distances with
//! realizing paths, as in the bunch construction.
//!
//! Differences from the paper's parameterization are deliberate and
//! documented: sampling is uniform per level (probability `m^{-1/(ℓ+1)}`)
//! rather than the doubly-exponential schedule; this preserves the size /
//! out-degree / hop-reduction *shape* the ablation compares while keeping
//! the implementation auditable. Both constructions plug into the same
//! [`crate::bellman_ford::LimitedBf`] and path-recovery machinery.

use congest::MemoryMeter;
use graphs::shortest_paths::{self, Ball};
use graphs::{Graph, VertexId, Weight, INFINITY};
use rand::Rng;

use crate::construction::{BuildStats, HopsetOutput, HopsetParams};
use crate::hopset::Hopset;
use crate::virtual_graph::VirtualGraph;

/// Build a superclustering-and-interconnection hopset over `virt`.
///
/// Parameters, accounting, and output mirror [`crate::construction::build`].
///
/// # Panics
///
/// Panics if `virt` has no virtual vertices or `eps` is not in `(0, 1)`.
#[allow(clippy::too_many_arguments)]
pub fn build_sc<R: Rng>(
    g: &Graph,
    virt: &VirtualGraph,
    params: HopsetParams,
    eps: f64,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
    rng: &mut R,
) -> HopsetOutput {
    let verts = virt.virtual_vertices();
    assert!(!verts.is_empty(), "virtual graph has no vertices");
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
    let n = g.num_vertices();
    let m = verts.len();
    let levels = params.levels.max(1);
    let p = (m as f64)
        .powf(-1.0 / (levels as f64 + 1.0))
        .clamp(0.0, 1.0);

    let mut hopset = Hopset::new(n);
    let mut ball = Ball::new(n);

    // Distance scales: powers of two up to the weighted diameter of the
    // virtual set (measured from an arbitrary virtual vertex, doubled).
    let probe = shortest_paths::dijkstra(g, verts[0]);
    let reach = verts
        .iter()
        .map(|v| probe[v.index()])
        .filter(|&x| x != INFINITY)
        .max()
        .unwrap_or(1);
    let max_scale = 2 * reach.max(1);

    let mut scale: Weight = 1;
    while scale <= max_scale {
        run_scale(
            g,
            verts,
            scale,
            levels,
            p,
            &mut hopset,
            &mut ball,
            rec,
            memory,
            d,
            rng,
        );
        scale = scale.saturating_mul(2);
        if scale == 0 {
            break;
        }
    }

    for &v in verts {
        memory.set(v, hopset.memory_words(v) + 2 * (levels + 1));
    }
    let stats = BuildStats {
        level_sizes: vec![m],
        edges: hopset.num_edges(),
        arboricity: hopset.max_out_degree(),
    };
    HopsetOutput { hopset, stats }
}

/// One distance scale: supercluster and interconnect until one level past
/// the sampling cascade.
#[allow(clippy::too_many_arguments)]
fn run_scale<R: Rng>(
    g: &Graph,
    verts: &[VertexId],
    scale: Weight,
    levels: usize,
    p: f64,
    hopset: &mut Hopset,
    ball: &mut Ball,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
    d: u64,
    rng: &mut R,
) {
    let n = g.num_vertices();
    // Active cluster centers (clusters are identified by their centers).
    let mut centers: Vec<VertexId> = verts.to_vec();
    // Merge/interconnect reach doubles per level up to the scale itself:
    // r_i = δ / 2^{levels − i}. Early levels merge nearby centers (thinning
    // the population by ≈ the sampling rate each time), so the final
    // full-scale interconnect sees few survivors — that is what keeps the
    // edge count and out-degree small. The ε slack enters through the
    // caller's Bellman–Ford limits, not the radii.
    for i in 0..=levels {
        if centers.len() <= 1 {
            break;
        }
        let r_i = (scale >> (levels - i)).max(1);
        let last = i == levels;
        // Sample surviving centers; the last level samples nobody and
        // interconnects everything within the full scale.
        let sampled: Vec<VertexId> = if last {
            Vec::new()
        } else {
            centers
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(p))
                .collect()
        };
        rec.charge_broadcast(centers.len() as u64, d);
        rec.charge_rounds(r_i.min(n as u64));

        let mut next_centers: Vec<VertexId> = sampled.clone();
        if sampled.is_empty() && !last {
            // Nobody sampled: skip to interconnection next level.
            continue;
        }
        // Nearest sampled center for merging.
        let (near_dist, near_owner) = if sampled.is_empty() {
            (vec![INFINITY; n], vec![None; n])
        } else {
            shortest_paths::multi_source_dijkstra(g, &sampled)
        };

        let (mut active, mut is_sampled) = (vec![false; n], vec![false; n]);
        for &c in &centers {
            active[c.index()] = true;
        }
        for &c in &sampled {
            is_sampled[c.index()] = true;
        }
        let reach = if last { scale } else { r_i };
        let mut found = Vec::new();
        for &c in &centers {
            if is_sampled[c.index()] {
                continue;
            }
            // The ball of c within reach, with the active centers it holds
            // in settling order.
            found.clear();
            ball.grow(
                g,
                c,
                |_, dd| dd <= reach,
                |u, _| {
                    if u != c && active[u.index()] {
                        found.push(u);
                    }
                    false
                },
            );
            if !last && near_dist[c.index()] <= reach {
                // Supercluster: merge into the nearest sampled center.
                let owner = near_owner[c.index()].expect("finite distance");
                memory.touch(c, 2);
                hopset.add_edge(c, owner, ball.dist(owner), ball.path_to(owner));
            } else {
                // Interconnect with every active center within reach.
                for &other in &found {
                    if other <= c {
                        continue; // orient small→large, once
                    }
                    memory.touch(c, 2);
                    hopset.add_edge(c, other, ball.dist(other), ball.path_to(other));
                }
                next_centers.push(c);
            }
            ball.reset();
        }
        rec.charge_broadcast(next_centers.len() as u64, d);
        centers = next_centers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bellman_ford::LimitedBf;
    use crate::construction::build as build_bunch;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture(n: usize, seed: u64) -> (Graph, VirtualGraph, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.25, &mut rng);
        (g, virt, rng)
    }

    fn build(g: &Graph, virt: &VirtualGraph, rng: &mut ChaCha8Rng) -> HopsetOutput {
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(g.num_vertices());
        build_sc(
            g,
            virt,
            HopsetParams::default(),
            0.25,
            8,
            &mut rec,
            &mut mem,
            rng,
        )
    }

    #[test]
    fn edges_are_exact_distances_with_valid_paths() {
        let (g, virt, mut rng) = fixture(120, 901);
        let out = build(&g, &virt, &mut rng);
        assert!(out.hopset.num_edges() > 0);
        for u in g.vertices() {
            if out.hopset.out_edges(u).is_empty() {
                continue;
            }
            let dist_u = shortest_paths::dijkstra(&g, u);
            for (j, e) in out.hopset.out_edges(u).iter().enumerate() {
                assert_eq!(e.weight, dist_u[e.to.index()]);
                let path = out.hopset.path(u, j);
                let mut total = 0;
                for pair in path.windows(2) {
                    total += g.edge_weight(pair[0], pair[1]).expect("path edge");
                }
                assert_eq!(total, e.weight);
            }
        }
    }

    #[test]
    fn endpoints_are_virtual() {
        let (g, virt, mut rng) = fixture(100, 902);
        let out = build(&g, &virt, &mut rng);
        for u in g.vertices() {
            for e in out.hopset.out_edges(u) {
                assert!(virt.is_virtual(u) && virt.is_virtual(e.to));
            }
        }
    }

    #[test]
    fn bellman_ford_converges_exactly_with_sc_hopset() {
        let (g, virt, mut rng) = fixture(150, 903);
        let out = build(&g, &virt, &mut rng);
        let root = virt.virtual_vertices()[0];
        let bf = LimitedBf {
            g: &g,
            virt: &virt,
            hopset: &out.hopset,
        };
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(g.num_vertices());
        let res = bf.run(&[(root, 0)], &|_, _| true, 400, 8, &mut rec, &mut mem);
        let exact = shortest_paths::dijkstra(&g, root);
        for &x in virt.virtual_vertices() {
            assert_eq!(res.est[x.index()], exact[x.index()]);
        }
    }

    #[test]
    fn sc_reduces_hops_on_long_paths() {
        let mut rng = ChaCha8Rng::seed_from_u64(904);
        let g = generators::path(500, 1..=3, &mut rng);
        let verts: Vec<VertexId> = (0..500).step_by(11).map(|i| VertexId(i as u32)).collect();
        let virt = VirtualGraph::from_set(&g, verts, 40);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(500);
        let sc = build_sc(
            &g,
            &virt,
            HopsetParams { levels: 2 },
            0.25,
            5,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        let empty = Hopset::new(500);
        let root = VertexId(0);
        let run = |h: &Hopset| {
            let mut rec = obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(500);
            LimitedBf {
                g: &g,
                virt: &virt,
                hopset: h,
            }
            .run(&[(root, 0)], &|_, _| true, 2000, 5, &mut rec, &mut mem)
            .beta_used
        };
        assert!(
            run(&sc.hopset) < run(&empty),
            "SC hopset should reduce Bellman-Ford iterations"
        );
    }

    #[test]
    fn sc_and_bunch_tradeoff_is_reported() {
        // The two families are comparable through the same stats type.
        let (g, virt, mut rng) = fixture(200, 905);
        let sc = build(&g, &virt, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(g.num_vertices());
        let bunch = build_bunch(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        assert!(sc.stats.edges > 0 && bunch.stats.edges > 0);
        assert!(sc.stats.arboricity >= 1 && bunch.stats.arboricity >= 1);
    }

    #[test]
    fn level_sizes_start_with_the_virtual_vertex_count() {
        for seed in [905u64, 906, 907] {
            let (g, virt, mut rng) = fixture(150, seed);
            let m = virt.virtual_vertices().len();
            let sc = build(&g, &virt, &mut rng);
            assert_eq!(
                sc.stats.level_sizes,
                vec![m],
                "superclustering, seed {seed}"
            );
            let mut rec = obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(g.num_vertices());
            let bunch = build_bunch(
                &g,
                &virt,
                HopsetParams::default(),
                8,
                &mut rec,
                &mut mem,
                &mut rng,
            );
            assert_eq!(bunch.stats.level_sizes[0], m, "bunches, seed {seed}");
        }
    }

    #[test]
    fn singleton_virtual_set_yields_empty_hopset() {
        let mut rng = ChaCha8Rng::seed_from_u64(906);
        let g = generators::path(10, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(4)], 10);
        let out = build(&g, &virt, &mut rng);
        assert_eq!(out.hopset.num_edges(), 0);
    }
}
