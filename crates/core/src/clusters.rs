//! Cluster trees: exact for low levels, approximate for high levels.
//!
//! Every vertex `v` roots exactly one cluster, at its hierarchy level
//! `ℓ(v)`: `C(v) = {u : d(u, v) < d(u, A_{ℓ(v)+1})}` (Eq. 1). The scheme's
//! tables are the per-cluster tree-routing tables of the (at most
//! `4·n^{1/k}·ln n`, Claim 6) clusters containing each vertex.
//!
//! * **Exact clusters** (levels `i < ⌈k/2⌉`): a limited exploration from
//!   each root — only vertices strictly inside the cluster keep forwarding
//!   (the TZ pruned-Dijkstra), to hop depth `R_i = 4·n^{(i+1)/k}·ln n`
//!   (Claim 8 guarantees that depth suffices whp).
//! * **Approximate clusters** (levels `i ≥ ⌈k/2⌉`, Claims 9–10): a limited
//!   Bellman–Ford over `G' ∪ H` rooted at `v` (virtual vertices clipped at
//!   `d̂(u, A_{i+1})/(1+ε)²`, hosts at `/(1+ε)`), hopset edges resolved into
//!   `G`-paths by the path-recovery mechanism, and a final `B`-bounded
//!   exploration that lets every limit-passing host join. The result is a
//!   genuine tree of `G` satisfying `C_{6ε}(v) ⊆ C̃(v) ⊆ C(v)`.

use congest::MemoryMeter;
use graphs::shortest_paths::Ball;
use graphs::{dist_add, Graph, VertexId, Weight, INFINITY};
use hopset::bellman_ford::{LimitedBf, Via};
use hopset::path_recovery::{recover_edge, Recovered};
use hopset::{Hopset, VirtualGraph};

use crate::sparse::{MemberInfo, SparseTree};

/// Measurements from building one level's clusters.
#[derive(Clone, Debug, Default)]
pub struct LevelStats {
    /// Number of cluster trees built.
    pub clusters: usize,
    /// Total membership over all clusters at this level.
    pub total_membership: usize,
    /// Max number of this level's clusters any single vertex belongs to —
    /// the congestion factor `C_i` that multiplies the exploration depth.
    pub max_overlap: usize,
    /// Largest `β` used by any approximate cluster (0 for exact levels).
    pub beta_used: usize,
}

/// The last growth of `ball` from `root` as a tree (members sorted by id),
/// then reset `ball`.
pub(crate) fn take_tree(ball: &mut Ball, root: VertexId, level: usize) -> SparseTree {
    let mut members = ball.reached().to_vec();
    members.sort_unstable();
    let info = members
        .iter()
        .map(|&u| {
            let (parent, parent_weight) = ball.parent(u);
            MemberInfo {
                parent,
                parent_weight,
                dist: ball.dist(u),
            }
        })
        .collect();
    ball.reset();
    SparseTree::new(root, level, members, info)
}

/// Build the exact clusters of every root whose hierarchy level is exactly
/// `level`. `next_dist[u]` must be the exact `d(u, A_{level+1})`
/// ([`INFINITY`] when that set is empty).
///
/// Each cluster is the TZ pruned exploration: grow shortest paths from the
/// root, but only record and expand vertices strictly inside the cluster
/// (`d < next_dist`) — exact, as shortest paths to members stay inside.
///
/// Rounds: `R · max(1, C)` where `R` is `depth` and `C` the measured
/// congestion, matching the paper's `Õ(n^{1/2+1/k})` accounting.
pub fn exact_clusters(
    g: &Graph,
    roots: &[VertexId],
    level: usize,
    next_dist: &[Weight],
    depth: usize,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> (Vec<SparseTree>, LevelStats) {
    let n = g.num_vertices();
    let mut trees = Vec::with_capacity(roots.len());
    let mut overlap = vec![0usize; n];
    let mut stats = LevelStats::default();
    let mut ball = Ball::new(n);
    for &v in roots {
        // Only vertices strictly inside the cluster record (and pay for) an
        // offer.
        let admit = |x: VertexId, d| {
            let inside = d < next_dist[x.index()];
            if inside {
                memory.touch(x, 2);
            }
            inside
        };
        ball.grow(g, v, admit, |_, _| false);
        let tree = take_tree(&mut ball, v, level);
        for &u in tree.members() {
            overlap[u.index()] += 1;
            memory.add(u, 3);
        }
        stats.total_membership += tree.len();
        trees.push(tree);
    }
    stats.clusters = trees.len();
    stats.max_overlap = overlap.iter().copied().max().unwrap_or(0);
    rec.charge_rounds(depth as u64 * stats.max_overlap.max(1) as u64);
    (trees, stats)
}

/// Build the approximate clusters of every root at `level` (all roots are in
/// `V'`). `next_hat[u]` is `d̂(u, A_{level+1})`; `eps` the paper's `ε`.
///
/// Rounds: `β_max · (B · C + D)` plus the measured broadcast load (per the
/// Appendix-B accounting).
#[allow(clippy::too_many_arguments)]
pub fn approx_clusters(
    g: &Graph,
    virt: &VirtualGraph,
    hopset: &Hopset,
    roots: &[VertexId],
    level: usize,
    next_hat: &[Weight],
    eps: f64,
    beta_budget: usize,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> (Vec<SparseTree>, LevelStats) {
    let n = g.num_vertices();
    let mut trees = Vec::with_capacity(roots.len());
    let mut overlap = vec![0usize; n];
    let mut stats = LevelStats::default();
    let mut broadcast_msgs = 0u64;
    for &v in roots {
        let mut scratch = obs::Recorder::disabled();
        let (tree, beta) = one_approx_cluster(
            g,
            virt,
            hopset,
            v,
            level,
            next_hat,
            eps,
            beta_budget,
            d,
            &mut scratch,
            memory,
        );
        broadcast_msgs += scratch.totals().messages;
        stats.beta_used = stats.beta_used.max(beta);
        for &u in tree.members() {
            overlap[u.index()] += 1;
        }
        stats.total_membership += tree.len();
        trees.push(tree);
    }
    stats.clusters = trees.len();
    stats.max_overlap = overlap.iter().copied().max().unwrap_or(0);
    // All clusters run in parallel: the E'-steps pay the congestion factor,
    // hopset broadcasts share the backbone (Lemma 1 on the summed load).
    let beta = stats.beta_used.max(1) as u64;
    rec.charge_rounds(beta * (virt.b_hops() as u64 * stats.max_overlap.max(1) as u64 + d));
    rec.charge_broadcast(broadcast_msgs, d);
    (trees, stats)
}

#[allow(clippy::too_many_arguments)]
fn one_approx_cluster(
    g: &Graph,
    virt: &VirtualGraph,
    hopset: &Hopset,
    v: VertexId,
    level: usize,
    next_hat: &[Weight],
    eps: f64,
    beta_budget: usize,
    d: u64,
    scratch: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> (SparseTree, usize) {
    let n = g.num_vertices();
    // The Appendix-B limits: virtual vertices clip at d̂/(1+ε)², hosts at
    // d̂/(1+ε); an infinite threshold (top level) never clips.
    let passes = move |u: VertexId, est: Weight, factor: f64| {
        let thr = next_hat[u.index()];
        thr == INFINITY || (est as f64) * factor < thr as f64
    };
    let limit = |u: VertexId, est: Weight| {
        let factor = if virt.is_virtual(u) {
            (1.0 + eps) * (1.0 + eps)
        } else {
            1.0 + eps
        };
        passes(u, est, factor)
    };

    let bf = LimitedBf { g, virt, hopset };
    let out = bf.run(&[(v, 0)], &limit, beta_budget, d, scratch, memory);

    // Accumulate the tree: the final exploration covers all E'-paths...
    let mut rec = Recovered::new(n);
    rec.seed(v, 0);
    for u in g.vertices() {
        let du = out.last_exploration.dist[u.index()];
        if du != INFINITY && u != v {
            rec.offer(u, du, out.last_exploration.parent[u.index()]);
        }
    }
    // ...and the path-recovery mechanism resolves used hopset edges. An
    // edge joins the tree only when its receiving endpoint satisfies the
    // strict virtual condition (Claim 9's second case needs `b_v(y) <
    // d̂(y, A)/(1+ε)²` to certify the path vertices).
    let mut forced = vec![false; n];
    forced[v.index()] = true;
    for &x in virt.virtual_vertices() {
        if let Via::Hopset {
            owner,
            index,
            reversed,
        } = out.via[x.index()]
        {
            if !passes(x, out.est[x.index()], (1.0 + eps) * (1.0 + eps)) {
                continue;
            }
            let tail = if reversed {
                hopset.out_edges(owner)[index].to
            } else {
                owner
            };
            if out.est[tail.index()] == INFINITY {
                continue;
            }
            recover_edge(
                hopset,
                owner,
                index,
                reversed,
                out.est[tail.index()],
                g,
                &mut rec,
                scratch,
                memory,
            );
            let path = hopset.path(owner, index);
            for &w in path {
                forced[w.index()] = true;
            }
        }
    }
    // Virtual estimates may beat anything the waves delivered locally.
    for &x in virt.virtual_vertices() {
        if out.est[x.index()] < rec.dist[x.index()] {
            // Parent comes from recovery/exploration; keep the better dist.
            rec.dist[x.index()] = out.est[x.index()];
        }
    }
    // Acknowledgement pass: a virtual vertex whose estimate arrived through
    // an E'-exploration was a *seed* of the final exploration and thus never
    // received a G-parent there; it adopts the neighbor that delivers a
    // consistent (no-worse) value — the paper's y→x acknowledgement.
    for &x in virt.virtual_vertices() {
        if x == v || rec.dist[x.index()] == INFINITY || rec.parent[x.index()].is_some() {
            continue;
        }
        let best = g
            .neighbors(x)
            .iter()
            .filter(|a| rec.dist[a.to.index()] != INFINITY)
            .map(|a| (dist_add(rec.dist[a.to.index()], a.weight), a.to))
            .min();
        if let Some((through, p)) = best {
            if through <= rec.dist[x.index()] {
                rec.parent[x.index()] = Some(p);
            }
        }
    }

    // Membership: the root, forced path vertices, and every vertex passing
    // the (1+ε) joining condition of the final exploration.
    let mut member = vec![false; n];
    for u in g.vertices() {
        let du = rec.dist[u.index()];
        if du == INFINITY {
            continue;
        }
        member[u.index()] = u == v || forced[u.index()] || passes(u, du, 1.0 + eps);
    }
    // Repair: a member whose parent chain leaves the membership is dropped
    // (rare — only when a clipped vertex relayed the winning offer).
    loop {
        let mut dropped = false;
        for u in g.vertices() {
            if !member[u.index()] || u == v {
                continue;
            }
            match rec.parent[u.index()] {
                Some(p) if member[p.index()] => {}
                _ => {
                    member[u.index()] = false;
                    dropped = true;
                }
            }
        }
        if !dropped {
            break;
        }
    }

    let (mut members, mut info) = (Vec::new(), Vec::new());
    for u in g.vertices() {
        if !member[u.index()] {
            continue;
        }
        let (p, w) = if u == v {
            (v, 0)
        } else {
            let p = rec.parent[u.index()].expect("repaired member has a parent");
            let w = g.edge_weight(p, u).expect("tree edge is a graph edge");
            (p, w)
        };
        members.push(u);
        info.push(MemberInfo {
            parent: p,
            parent_weight: w,
            dist: rec.dist[u.index()],
        });
        memory.add(u, 3);
    }
    (SparseTree::new(v, level, members, info), out.beta_used)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graphs::{generators, shortest_paths};
    use hopset::construction::{build as build_hopset, HopsetParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Reference exact cluster membership by definition (Eq. 1).
    fn cluster_by_definition(
        g: &Graph,
        v: VertexId,
        next_dist: &[Weight],
    ) -> std::collections::HashSet<VertexId> {
        let dv = shortest_paths::dijkstra(g, v);
        g.vertices()
            .filter(|&u| u == v || dv[u.index()] < next_dist[u.index()])
            .collect()
    }

    #[test]
    fn exact_clusters_match_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(221);
        let g = generators::erdos_renyi_connected(90, 0.07, 1..=9, &mut rng);
        // A_1: a random subset; next_dist = d(·, A_1).
        let a1: Vec<VertexId> = (0..90u32).step_by(7).map(VertexId).collect();
        let (next_dist, _) = shortest_paths::multi_source_dijkstra(&g, &a1);
        let roots: Vec<VertexId> = (0..90u32)
            .map(VertexId)
            .filter(|v| !a1.contains(v))
            .take(20)
            .collect();
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(90);
        let (trees, stats) = exact_clusters(&g, &roots, 0, &next_dist, 90, &mut rec, &mut mem);
        assert_eq!(stats.clusters, 20);
        for tree in &trees {
            let want = cluster_by_definition(&g, tree.root, &next_dist);
            let got: std::collections::HashSet<VertexId> = tree.members().iter().copied().collect();
            assert_eq!(got, want, "cluster of {}", tree.root);
            // Distances are exact.
            let dv = shortest_paths::dijkstra(&g, tree.root);
            for (&u, info) in tree.members().iter().zip(tree.info()) {
                assert_eq!(info.dist, dv[u.index()]);
            }
        }
    }

    #[test]
    fn exact_cluster_trees_are_valid_rooted_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(222);
        let g = generators::random_geometric_connected(80, 0.15, 1..=9, &mut rng);
        let a1: Vec<VertexId> = (0..80u32).step_by(9).map(VertexId).collect();
        let (next_dist, _) = shortest_paths::multi_source_dijkstra(&g, &a1);
        let roots: Vec<VertexId> = vec![VertexId(1), VertexId(2), VertexId(3)];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(80);
        let (trees, _) = exact_clusters(&g, &roots, 0, &next_dist, 80, &mut rec, &mut mem);
        for tree in &trees {
            // to_rooted panics on inconsistent parents; also check weights.
            let rt = tree.to_rooted(80);
            for (&u, info) in tree.members().iter().zip(tree.info()) {
                if u != tree.root {
                    assert_eq!(
                        g.edge_weight(info.parent, u),
                        Some(info.parent_weight),
                        "tree edge must be a graph edge"
                    );
                }
            }
            assert_eq!(rt.num_vertices(), tree.len());
        }
    }

    /// The member-sorted layout: members strictly ascending, and exactly
    /// the members the rooted form lists.
    pub(crate) fn assert_member_sorted(tree: &SparseTree, n: usize) {
        assert!(
            tree.members().windows(2).all(|w| w[0] < w[1]),
            "members of {} not strictly ascending",
            tree.root
        );
        assert_eq!(tree.to_rooted(n).members(), tree.members());
    }

    #[test]
    fn exact_clusters_do_not_depend_on_root_order() {
        // One scratch serves every root of a level; a stale entry left by
        // one root would change a later root's tree.
        let mut rng = ChaCha8Rng::seed_from_u64(228);
        let g = generators::erdos_renyi_connected(100, 0.06, 1..=9, &mut rng);
        let a1: Vec<VertexId> = (0..100u32).step_by(11).map(VertexId).collect();
        let (next_dist, _) = shortest_paths::multi_source_dijkstra(&g, &a1);
        let roots: Vec<VertexId> = g.vertices().filter(|v| !a1.contains(v)).collect();
        let run = |roots: &[VertexId]| {
            let mut rec = obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(100);
            exact_clusters(&g, roots, 0, &next_dist, 100, &mut rec, &mut mem).0
        };
        let forward = run(&roots);
        let reversed: Vec<VertexId> = roots.iter().rev().copied().collect();
        let mut backward = run(&reversed);
        backward.reverse();
        let one_by_one: Vec<SparseTree> = roots.iter().flat_map(|&v| run(&[v])).collect();
        assert_eq!(forward, backward);
        assert_eq!(forward, one_by_one);
        for tree in &forward {
            assert_member_sorted(tree, 100);
        }
    }

    struct ApproxFixture {
        g: Graph,
        virt: VirtualGraph,
        hopset: Hopset,
        next_hat: Vec<Weight>,
        roots: Vec<VertexId>,
    }

    fn approx_fixture(seed: u64) -> ApproxFixture {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(120, 0.06, 1..=9, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.3, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(120);
        let hs = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        // Next-level set: a sub-sample of the virtual vertices.
        let a_next: Vec<VertexId> = virt.virtual_vertices().iter().copied().step_by(4).collect();
        let (next_hat, _) = shortest_paths::multi_source_dijkstra(&g, &a_next);
        let roots: Vec<VertexId> = virt
            .virtual_vertices()
            .iter()
            .copied()
            .filter(|v| !a_next.contains(v))
            .take(8)
            .collect();
        ApproxFixture {
            g,
            virt,
            hopset: hs.hopset,
            next_hat,
            roots,
        }
    }

    #[test]
    fn approx_clusters_contained_in_exact_clusters() {
        // Claim 9: C̃(v) ⊆ C(v) when thresholds are the exact distances.
        let f = approx_fixture(223);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let eps = 0.01;
        let (trees, _) = approx_clusters(
            &f.g,
            &f.virt,
            &f.hopset,
            &f.roots,
            1,
            &f.next_hat,
            eps,
            300,
            8,
            &mut rec,
            &mut mem,
        );
        for tree in &trees {
            let exact = cluster_by_definition(&f.g, tree.root, &f.next_hat);
            for &u in tree.members() {
                assert!(
                    exact.contains(&u),
                    "C̃({}) member {u} outside C({})",
                    tree.root,
                    tree.root
                );
            }
        }
    }

    #[test]
    fn approx_clusters_contain_inner_clusters() {
        // Claim 10: C_{6ε}(v) ⊆ C̃(v).
        let f = approx_fixture(224);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let eps = 0.02;
        let (trees, _) = approx_clusters(
            &f.g,
            &f.virt,
            &f.hopset,
            &f.roots,
            1,
            &f.next_hat,
            eps,
            300,
            8,
            &mut rec,
            &mut mem,
        );
        for tree in &trees {
            let dv = shortest_paths::dijkstra(&f.g, tree.root);
            for u in f.g.vertices() {
                let inner =
                    (dv[u.index()] as f64) * (1.0 + 6.0 * eps) < f.next_hat[u.index()] as f64;
                if u == tree.root || (inner && f.next_hat[u.index()] != INFINITY) {
                    assert!(
                        tree.contains(u),
                        "C_6ε({}) member {u} missing from C̃",
                        tree.root
                    );
                }
            }
        }
    }

    #[test]
    fn approx_cluster_estimates_dominate_distance() {
        let f = approx_fixture(225);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let (trees, _) = approx_clusters(
            &f.g,
            &f.virt,
            &f.hopset,
            &f.roots,
            1,
            &f.next_hat,
            0.05,
            300,
            8,
            &mut rec,
            &mut mem,
        );
        for tree in &trees {
            assert_member_sorted(tree, f.g.num_vertices());
            let dv = shortest_paths::dijkstra(&f.g, tree.root);
            let rt = tree.to_rooted(f.g.num_vertices());
            for (&u, info) in tree.members().iter().zip(tree.info()) {
                assert!(info.dist >= dv[u.index()], "estimate undershot");
                // Tree path realizes a distance no worse than the estimate.
                let tree_dist = rt.root_distance(u).unwrap();
                assert!(tree_dist <= info.dist.max(tree_dist));
                assert!(tree_dist >= dv[u.index()]);
            }
        }
    }

    #[test]
    fn top_level_cluster_spans_everything() {
        // With infinite thresholds (A_{i+1} = ∅) the cluster is the whole
        // connected component.
        let f = approx_fixture(226);
        let inf = vec![INFINITY; f.g.num_vertices()];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let (trees, _) = approx_clusters(
            &f.g,
            &f.virt,
            &f.hopset,
            &f.roots[..1],
            1,
            &inf,
            0.05,
            300,
            8,
            &mut rec,
            &mut mem,
        );
        assert_eq!(trees[0].len(), f.g.num_vertices());
    }

    #[test]
    fn stats_report_overlap_and_depth() {
        let f = approx_fixture(227);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let (trees, stats) = approx_clusters(
            &f.g,
            &f.virt,
            &f.hopset,
            &f.roots,
            1,
            &f.next_hat,
            0.05,
            300,
            8,
            &mut rec,
            &mut mem,
        );
        assert_eq!(stats.clusters, trees.len());
        assert_eq!(
            stats.total_membership,
            trees.iter().map(SparseTree::len).sum::<usize>()
        );
        assert!(stats.max_overlap >= 1);
        assert!(rec.totals().rounds > 0);
    }
}
