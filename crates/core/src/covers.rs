//! Sparse-cover routing — the \[ABNLP90\]-style comparison row of Table 1.
//!
//! Awerbuch, Bar-Noy, Linial and Peleg routed over *sparse covers* rather
//! than the Thorup–Zwick hierarchy. For every distance scale `2^s`, a cover
//! is a family of clusters such that every vertex's `2^s`-ball is contained
//! in some cluster (its *home* cluster), cluster radii are `O(k·2^s)`, and
//! overlap is small. This module implements the classical Awerbuch–Peleg
//! ball-growing construction: grow a ball from an uncovered vertex in
//! `2^s`-steps while it keeps inflating by a factor `n^{1/k}`; the final
//! ball is a cluster whose inner core becomes *covered*. Growth can repeat
//! at most `k` times, so radii are at most `(k+1)·2^s`.
//!
//! Each cluster carries an exact tree-routing scheme (the paper's Theorem 2
//! trees); labels store, per scale, the home-cluster root and the vertex's
//! tree label; routing walks the smallest scale whose home tree contains the
//! source. Stretch is `O(k)` per the radius bound — with far larger tables
//! and labels than the Thorup–Zwick-based scheme, and a `log Λ` scale
//! factor on both: exactly the tradeoff Table 1's first row records.

use congest::WordSized;
use graphs::shortest_paths::Ball;
use graphs::{dist_add, Graph, VertexId, Weight, INFINITY};
use tree_routing::types::{TreeLabel, TreeTable};
use tree_routing::tz;

use crate::clusters::take_tree;
use crate::forward::{self, GraphRouteError};
use crate::scheme::max_row_words;
use crate::sparse::SparseTree;

/// One scale's cover.
#[derive(Clone, Debug)]
pub struct ScaleCover {
    /// The scale `2^s` this cover serves.
    pub scale: Weight,
    /// Cluster trees (rooted at their ball centers).
    pub clusters: Vec<SparseTree>,
    /// Per vertex: index into `clusters` of its home cluster.
    pub home: Vec<usize>,
    /// Max clusters any vertex belongs to at this scale.
    pub max_overlap: usize,
}

/// One table row of the cover scheme.
#[derive(Clone, Debug)]
pub struct CoverTableEntry {
    /// Scale index (the `s` of `2^s`).
    pub scale_idx: usize,
    /// The cluster's root/center.
    pub root: VertexId,
    /// Tree routing table within the cluster tree.
    pub table: TreeTable,
}

impl WordSized for CoverTableEntry {
    fn words(&self) -> usize {
        2 + self.table.words()
    }
}

/// One label row of the cover scheme.
#[derive(Clone, Debug)]
pub struct CoverLabelEntry {
    /// Scale index.
    pub scale_idx: usize,
    /// Home-cluster root at this scale.
    pub root: VertexId,
    /// The vertex's tree label in its home cluster's tree.
    pub label: TreeLabel,
}

impl WordSized for CoverLabelEntry {
    fn words(&self) -> usize {
        2 + self.label.words()
    }
}

/// The assembled sparse-cover scheme.
#[derive(Clone, Debug)]
pub struct CoverScheme {
    /// The per-scale covers (ascending scales).
    pub scales: Vec<ScaleCover>,
    /// Per vertex: rows for every (scale, cluster) containing it.
    pub tables: Vec<Vec<CoverTableEntry>>,
    /// Per vertex: one home row per scale.
    pub labels: Vec<Vec<CoverLabelEntry>>,
}

impl CoverScheme {
    /// Largest table, in words.
    pub fn max_table_words(&self) -> usize {
        max_row_words(&self.tables)
    }

    /// Largest label, in words.
    pub fn max_label_words(&self) -> usize {
        max_row_words(&self.labels)
    }

    /// Max overlap over all scales (the cover "degree").
    pub fn max_overlap(&self) -> usize {
        self.scales.iter().map(|s| s.max_overlap).max().unwrap_or(0)
    }
}

/// Build the sparse-cover scheme for `g` with overlap exponent `k`.
///
/// # Panics
///
/// Panics if `k < 1` or the graph is empty.
pub fn build_cover_scheme(g: &Graph, k: usize) -> CoverScheme {
    assert!(k >= 1, "k must be positive");
    let n = g.num_vertices();
    assert!(n > 0, "graph must be non-empty");
    let growth = (n as f64).powf(1.0 / k as f64);

    // Scales: powers of two up to the weighted diameter, bounded by twice
    // the eccentricity of vertex 0 (diam ≤ 2·ecc by the triangle inequality).
    let probe = graphs::shortest_paths::dijkstra(g, VertexId(0));
    let ecc = probe
        .iter()
        .copied()
        .filter(|&d| d != INFINITY)
        .max()
        .unwrap_or(1);
    let diam = 2 * ecc.max(1);
    let mut scales = Vec::new();
    let mut scale: Weight = 1;
    loop {
        scales.push(build_scale(g, scale, growth));
        if scale > diam {
            break;
        }
        scale = scale.saturating_mul(2);
    }

    // Assemble per-vertex rows.
    let mut tables: Vec<Vec<CoverTableEntry>> = vec![Vec::new(); n];
    let mut labels: Vec<Vec<CoverLabelEntry>> = vec![Vec::new(); n];
    for (si, sc) in scales.iter().enumerate() {
        for (ci, cluster) in sc.clusters.iter().enumerate() {
            let dense = cluster.to_rooted(n);
            let scheme = tz::build(&dense);
            for &u in cluster.members() {
                tables[u.index()].push(CoverTableEntry {
                    scale_idx: si,
                    root: cluster.root,
                    table: scheme.table(u).expect("member").clone(),
                });
                // Home label for the vertices homed here.
                if sc.home[u.index()] == ci {
                    labels[u.index()].push(CoverLabelEntry {
                        scale_idx: si,
                        root: cluster.root,
                        label: scheme.label(u).expect("home is a member").clone(),
                    });
                }
            }
        }
    }
    CoverScheme {
        scales,
        tables,
        labels,
    }
}

/// One scale's Awerbuch–Peleg ball-growing cover.
fn build_scale(g: &Graph, scale: Weight, growth: f64) -> ScaleCover {
    let n = g.num_vertices();
    let mut covered = vec![false; n];
    let mut clusters: Vec<SparseTree> = Vec::new();
    let mut home = vec![usize::MAX; n];
    let mut overlap = vec![0usize; n];
    let mut ball = Ball::new(n);
    let mut core: Vec<VertexId> = Vec::new();
    for start in g.vertices() {
        if covered[start.index()] {
            continue;
        }
        // Grow: core radius r, cluster radius r + scale; keep growing while
        // the cluster inflates by more than the growth factor. Each radius
        // is one truncated Dijkstra from `start`: a cluster ball that keeps
        // inflating is the next round's core. Weights are positive, so the
        // radius-0 core is `start` alone.
        core.clear();
        core.push(start);
        let mut reach = scale;
        loop {
            ball.grow(g, start, |_, d| d <= reach, |_, _| false);
            if (ball.reached().len() as f64) <= growth * (core.len() as f64) {
                break;
            }
            core.clear();
            core.extend_from_slice(ball.reached());
            ball.reset();
            reach = dist_add(reach, scale);
        }
        // Finalize this cluster; its core is covered.
        let idx = clusters.len();
        let cluster = take_tree(&mut ball, start, 0);
        for &u in cluster.members() {
            overlap[u.index()] += 1;
        }
        for &u in &core {
            if !covered[u.index()] {
                covered[u.index()] = true;
                home[u.index()] = idx;
            }
        }
        clusters.push(cluster);
    }
    ScaleCover {
        scale,
        clusters,
        home,
        max_overlap: overlap.iter().copied().max().unwrap_or(0),
    }
}

/// A routed path under the cover scheme.
#[derive(Clone, Debug)]
pub struct CoverTrace {
    /// Visited vertices, source first.
    pub path: Vec<VertexId>,
    /// Total weight.
    pub weight: Weight,
    /// The scale that served the route.
    pub scale: Weight,
}

/// Route `src → dst`: ascend scales until the target's home tree contains
/// the source, then forward in that tree. Returns `None` for disconnected
/// pairs.
pub fn route_cover(
    g: &Graph,
    scheme: &CoverScheme,
    src: VertexId,
    dst: VertexId,
) -> Option<CoverTrace> {
    if src == dst {
        return Some(CoverTrace {
            path: vec![src],
            weight: 0,
            scale: 0,
        });
    }
    for entry in &scheme.labels[dst.index()] {
        // The source must be inside the target's home cluster at this scale;
        // if it is, forward hop by hop inside that cluster's tree.
        let row_of = |v: VertexId| {
            scheme.tables[v.index()]
                .iter()
                .find(|t| t.scale_idx == entry.scale_idx && t.root == entry.root)
        };
        if row_of(src).is_none() {
            continue;
        }
        let mut path = Vec::new();
        let walked = forward::drive(
            g,
            src,
            |at, ports| {
                let row = row_of(at).ok_or(GraphRouteError::Stuck(at))?;
                forward::tree_step(at, &row.table, &entry.label, ports)
            },
            |v| path.push(v),
        );
        if let Ok((weight, _)) = walked {
            return Some(CoverTrace {
                path,
                weight,
                scale: scheme.scales[entry.scale_idx].scale,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, shortest_paths};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn er(n: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng)
    }

    /// The cover loop before each outer ball was kept as the next core:
    /// it regrew the core at radius `r` every round.
    fn build_scale_regrowing_cores(g: &Graph, scale: Weight, growth: f64) -> ScaleCover {
        let n = g.num_vertices();
        let mut covered = vec![false; n];
        let mut clusters: Vec<SparseTree> = Vec::new();
        let mut home = vec![usize::MAX; n];
        let mut overlap = vec![0usize; n];
        let mut ball = Ball::new(n);
        for start in g.vertices() {
            if covered[start.index()] {
                continue;
            }
            let mut r: Weight = 0;
            let core = loop {
                ball.grow(g, start, |_, d| d <= r, |_, _| false);
                let core = ball.reached().to_vec();
                ball.reset();
                let reach = dist_add(r, scale);
                ball.grow(g, start, |_, d| d <= reach, |_, _| false);
                if (ball.reached().len() as f64) <= growth * (core.len() as f64) {
                    break core;
                }
                ball.reset();
                r = reach;
            };
            let idx = clusters.len();
            let cluster = take_tree(&mut ball, start, 0);
            for &u in cluster.members() {
                overlap[u.index()] += 1;
            }
            for u in core {
                if !covered[u.index()] {
                    covered[u.index()] = true;
                    home[u.index()] = idx;
                }
            }
            clusters.push(cluster);
        }
        ScaleCover {
            scale,
            clusters,
            home,
            max_overlap: overlap.iter().copied().max().unwrap_or(0),
        }
    }

    #[test]
    fn kept_cores_match_regrown_cores() {
        let mut rng = ChaCha8Rng::seed_from_u64(1310);
        let graphs = [
            er(90, 1310),
            generators::erdos_renyi_connected(120, 0.03, 1..=3, &mut rng),
            generators::erdos_renyi_connected(80, 0.05, 1..=100, &mut rng),
            generators::path(60, 1..=4, &mut rng),
        ];
        for g in &graphs {
            for k in [1usize, 2, 3, 5] {
                let growth = (g.num_vertices() as f64).powf(1.0 / k as f64);
                for scale in [1, 2, 4, 16, 64, 1024] {
                    let got = build_scale(g, scale, growth);
                    let want = build_scale_regrowing_cores(g, scale, growth);
                    assert_eq!(got.clusters, want.clusters, "k {k} scale {scale}");
                    assert_eq!(got.home, want.home, "k {k} scale {scale}");
                    assert_eq!(got.max_overlap, want.max_overlap, "k {k} scale {scale}");
                }
            }
        }
    }

    #[test]
    fn every_vertex_has_a_home_at_every_scale() {
        let g = er(80, 1301);
        let scheme = build_cover_scheme(&g, 2);
        for sc in &scheme.scales {
            for v in g.vertices() {
                let h = sc.home[v.index()];
                assert!(h < sc.clusters.len(), "no home at scale {}", sc.scale);
                assert!(sc.clusters[h].contains(v));
            }
        }
    }

    #[test]
    fn home_cluster_contains_the_scale_ball() {
        let g = er(70, 1302);
        let scheme = build_cover_scheme(&g, 2);
        for sc in &scheme.scales {
            for v in g.vertices() {
                let dv = shortest_paths::dijkstra(&g, v);
                let cluster = &sc.clusters[sc.home[v.index()]];
                for u in g.vertices() {
                    if dv[u.index()] <= sc.scale {
                        assert!(
                            cluster.contains(u),
                            "ball({v}, {}) member {u} outside home cluster",
                            sc.scale
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_radii_respect_the_k_bound() {
        let g = er(90, 1303);
        let k = 2;
        let scheme = build_cover_scheme(&g, k);
        for sc in &scheme.scales {
            for cluster in &sc.clusters {
                for info in cluster.info() {
                    assert!(
                        info.dist <= (k as u64 + 1) * sc.scale,
                        "radius {} above (k+1)·{} at scale {}",
                        info.dist,
                        sc.scale,
                        sc.scale
                    );
                }
            }
        }
    }

    #[test]
    fn cover_clusters_are_member_sorted() {
        let g = er(90, 1309);
        for sc in &build_cover_scheme(&g, 2).scales {
            for cluster in &sc.clusters {
                crate::clusters::tests::assert_member_sorted(cluster, 90);
            }
        }
    }

    #[test]
    fn cover_routing_is_complete_with_o_k_stretch() {
        let g = er(60, 1304);
        let k = 2;
        let scheme = build_cover_scheme(&g, k);
        let bound = (8 * (k as u64 + 1)) as f64;
        for u in g.vertices() {
            let du = shortest_paths::dijkstra(&g, u);
            for v in g.vertices() {
                let trace = route_cover(&g, &scheme, u, v).expect("connected");
                if u == v {
                    assert_eq!(trace.weight, 0);
                    continue;
                }
                assert!(trace.weight >= du[v.index()]);
                let stretch = trace.weight as f64 / du[v.index()] as f64;
                assert!(
                    stretch <= bound,
                    "cover stretch {stretch} above O(k) bound {bound} for {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn scales_cover_the_diameter() {
        let g = er(50, 1305);
        let scheme = build_cover_scheme(&g, 3);
        let apsp = shortest_paths::all_pairs(&g);
        let diam = apsp
            .iter()
            .flatten()
            .copied()
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap();
        let top = scheme.scales.last().unwrap().scale;
        assert!(top >= diam, "top scale {top} below diameter {diam}");
        // Top scale: single cluster spanning everything.
        assert_eq!(scheme.scales.last().unwrap().clusters.len(), 1);
    }

    #[test]
    fn tables_are_larger_than_tz_schemes() {
        // The tradeoff Table 1 records: covers pay a log Λ scale factor.
        let g = er(100, 1306);
        let cover = build_cover_scheme(&g, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let tz = crate::scheme::build(
            &g,
            &crate::scheme::BuildParams::new(2).with_mode(crate::scheme::Mode::Centralized),
            &mut rng,
        );
        assert!(cover.max_label_words() > tz.report.max_label_words);
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let mut b = graphs::GraphBuilder::new(6);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(3), VertexId(4), 1);
        b.add_edge(VertexId(4), VertexId(5), 1);
        let g = b.build();
        let scheme = build_cover_scheme(&g, 2);
        assert!(route_cover(&g, &scheme, VertexId(0), VertexId(5)).is_none());
        assert!(route_cover(&g, &scheme, VertexId(0), VertexId(2)).is_some());
    }

    #[test]
    fn report_display_is_informative() {
        let g = er(40, 1308);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let built = crate::scheme::build(&g, &crate::scheme::BuildParams::new(2), &mut rng);
        let text = built.report.to_string();
        assert!(text.contains("rounds"));
        assert!(text.contains("peak memory"));
        assert!(text.contains("clusters"));
    }

    #[test]
    fn overlap_is_reported() {
        let g = er(120, 1307);
        let scheme = build_cover_scheme(&g, 2);
        assert!(scheme.max_overlap() >= 1);
        // Not a proof, but the greedy cover should stay well below n.
        assert!(scheme.max_overlap() < 120 / 2);
    }
}
