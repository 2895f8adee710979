//! Synthetic network generators spanning the diameter / degree regimes the
//! paper discusses (`D ≪ S ≪ n`).
//!
//! All generators take an explicit RNG so experiments are reproducible, and a
//! weight range so both unweighted (`1..=1`) and heavily weighted networks can
//! be produced.

use std::collections::HashSet;
use std::ops::RangeInclusive;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Graph, GraphBuilder, VertexId, Weight};

fn random_weight<R: Rng>(range: &RangeInclusive<Weight>, rng: &mut R) -> Weight {
    rng.gen_range(range.clone())
}

/// G(n, p) made connected by first laying down a random recursive spanning
/// tree, then adding each remaining pair independently with probability `p`.
pub fn erdos_renyi_connected<R: Rng>(
    n: usize,
    p: f64,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(n > 0, "need at least one vertex");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(*weights.start() > 0, "weights must be positive");
    let mut b = GraphBuilder::new(n);
    // `tree_parent[v] < v` is v's neighbor in the spanning tree, so the pair
    // `u < v` is already an edge exactly when `tree_parent[v] == u`.
    let mut tree_parent = vec![0usize]; // vertex 0 has none; pairs have v ≥ 1
    for v in 1..n {
        let u = rng.gen_range(0..v);
        b.add_edge(
            VertexId(u as u32),
            VertexId(v as u32),
            random_weight(&weights, rng),
        );
        tree_parent.push(u);
    }
    for u in 0..n {
        for (v, &parent) in tree_parent.iter().enumerate().skip(u + 1) {
            if parent != u && rng.gen_bool(p) {
                b.add_edge(
                    VertexId(u as u32),
                    VertexId(v as u32),
                    random_weight(&weights, rng),
                );
            }
        }
    }
    b.build()
}

/// Random geometric graph: `n` points in the unit square, edges between pairs
/// within Euclidean distance `radius`, weighted by `weights`. Connected by a
/// fallback spanning tree over the point sequence (each point links to its
/// nearest earlier point) so experiments never see disconnected inputs.
///
/// Geometric graphs have large hop diameter (≈ 1/radius) — the regime where
/// the `+D` term matters.
pub fn random_geometric_connected<R: Rng>(
    n: usize,
    radius: f64,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(n > 0);
    assert!(radius > 0.0);
    assert!(*weights.start() > 0, "weights must be positive");
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut b = GraphBuilder::new(n);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(
                    VertexId(u as u32),
                    VertexId(v as u32),
                    random_weight(&weights, rng),
                );
                present.insert((u as u32, v as u32));
            }
        }
    }
    // Connectivity fallback: nearest earlier point.
    for v in 1..n {
        let nearest = (0..v)
            .min_by(|&a, &c| {
                let da = (pts[a].0 - pts[v].0).powi(2) + (pts[a].1 - pts[v].1).powi(2);
                let dc = (pts[c].0 - pts[v].0).powi(2) + (pts[c].1 - pts[v].1).powi(2);
                da.partial_cmp(&dc).unwrap()
            })
            .expect("v >= 1");
        let key = (nearest as u32, v as u32);
        if !present.contains(&key) {
            b.add_edge(
                VertexId(nearest as u32),
                VertexId(v as u32),
                random_weight(&weights, rng),
            );
            present.insert(key);
        }
    }
    b.build()
}

/// `rows × cols` grid with 4-neighborhoods; weights from `weights`.
pub fn grid<R: Rng>(
    rows: usize,
    cols: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(rows > 0 && cols > 0);
    assert!(*weights.start() > 0, "weights must be positive");
    let id = |r: usize, c: usize| VertexId((r * cols + c) as u32);
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), random_weight(&weights, rng));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), random_weight(&weights, rng));
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound); regular degree 4 when both
/// dimensions exceed 2.
pub fn torus<R: Rng>(
    rows: usize,
    cols: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(rows > 2 && cols > 2, "torus needs both dimensions > 2");
    assert!(*weights.start() > 0, "weights must be positive");
    let id = |r: usize, c: usize| VertexId(((r % rows) * cols + (c % cols)) as u32);
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, c + 1), random_weight(&weights, rng));
            b.add_edge(id(r, c), id(r + 1, c), random_weight(&weights, rng));
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` distinct existing vertices chosen proportionally to degree.
/// Produces small-diameter, heavy-tailed-degree networks (ISP-like).
///
/// # Panics
///
/// Panics if `attach == 0` or `n <= attach`.
pub fn preferential_attachment<R: Rng>(
    n: usize,
    attach: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(attach > 0, "attach must be positive");
    assert!(n > attach, "need more vertices than attachment count");
    assert!(*weights.start() > 0, "weights must be positive");
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints urn.
    let mut urn: Vec<u32> = Vec::new();
    // Seed clique on the first `attach + 1` vertices.
    for u in 0..=attach {
        for v in (u + 1)..=attach {
            b.add_edge(
                VertexId(u as u32),
                VertexId(v as u32),
                random_weight(&weights, rng),
            );
            urn.push(u as u32);
            urn.push(v as u32);
        }
    }
    for v in (attach + 1)..n {
        let mut targets: HashSet<u32> = HashSet::new();
        while targets.len() < attach {
            let t = *urn.choose(rng).expect("urn non-empty");
            targets.insert(t);
        }
        // Iterate in sorted order, not HashSet order: the set's randomized
        // iteration would desynchronize the weight draws and urn growth from
        // the seed, making "seeded" scale-free graphs irreproducible.
        let mut targets: Vec<u32> = targets.into_iter().collect();
        targets.sort_unstable();
        for &t in &targets {
            b.add_edge(
                VertexId(v as u32),
                VertexId(t),
                random_weight(&weights, rng),
            );
            urn.push(v as u32);
            urn.push(t);
        }
    }
    b.build()
}

/// A simple path `0 - 1 - ... - n-1` (hop diameter n−1; the worst case for
/// `D`-dependent terms).
pub fn path<R: Rng>(n: usize, weights: RangeInclusive<Weight>, rng: &mut R) -> Graph {
    assert!(n > 0);
    assert!(*weights.start() > 0, "weights must be positive");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(
            VertexId((v - 1) as u32),
            VertexId(v as u32),
            random_weight(&weights, rng),
        );
    }
    b.build()
}

/// A star with center 0 (hop diameter 2, maximum degree n−1).
pub fn star<R: Rng>(n: usize, weights: RangeInclusive<Weight>, rng: &mut R) -> Graph {
    assert!(n > 0);
    assert!(*weights.start() > 0, "weights must be positive");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(
            VertexId(0),
            VertexId(v as u32),
            random_weight(&weights, rng),
        );
    }
    b.build()
}

/// The "lollipop": a clique on `clique` vertices with a path of `tail`
/// vertices hanging off vertex 0. Small `D` inside the clique, large `S`
/// along the tail — separates hop-diameter from shortest-path-diameter.
pub fn lollipop<R: Rng>(
    clique: usize,
    tail: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(clique >= 2);
    assert!(*weights.start() > 0, "weights must be positive");
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique {
        for v in (u + 1)..clique {
            b.add_edge(
                VertexId(u as u32),
                VertexId(v as u32),
                random_weight(&weights, rng),
            );
        }
    }
    for i in 0..tail {
        let u = if i == 0 { 0 } else { clique + i - 1 };
        b.add_edge(
            VertexId(u as u32),
            VertexId((clique + i) as u32),
            random_weight(&weights, rng),
        );
    }
    b.build()
}

/// The `d`-dimensional hypercube (`n = 2^d` vertices, degree `d`, hop
/// diameter `d`): a classic low-diameter regular interconnect.
///
/// # Panics
///
/// Panics if `dims == 0` or `dims > 20`.
pub fn hypercube<R: Rng>(dims: usize, weights: RangeInclusive<Weight>, rng: &mut R) -> Graph {
    assert!(dims > 0 && dims <= 20, "dims must be in 1..=20");
    assert!(*weights.start() > 0, "weights must be positive");
    let n = 1usize << dims;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for bit in 0..dims {
            let v = u ^ (1 << bit);
            if u < v {
                b.add_edge(
                    VertexId(u as u32),
                    VertexId(v as u32),
                    random_weight(&weights, rng),
                );
            }
        }
    }
    b.build()
}

/// A random near-`d`-regular expander: the union of `d` random perfect
/// matchings (each pass pairs a shuffled vertex sequence; duplicate pairs
/// are skipped), plus a fallback recursive tree for connectivity — mean
/// degree ≈ `d`, with a light tail from the fallback. Expanders have
/// `O(log n)` diameter and no small separators — the opposite regime from
/// meshes.
///
/// # Panics
///
/// Panics if `d < 2` or `n < 4`.
pub fn random_regular_expander<R: Rng>(
    n: usize,
    d: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(d >= 2, "need degree at least 2");
    assert!(n >= 4, "need at least 4 vertices");
    assert!(*weights.start() > 0, "weights must be positive");
    let mut b = GraphBuilder::new(n);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for _ in 0..d {
        order.shuffle(rng);
        for pair in order.chunks_exact(2) {
            let key = if pair[0] < pair[1] {
                (pair[0], pair[1])
            } else {
                (pair[1], pair[0])
            };
            if present.insert(key) {
                b.add_edge(
                    VertexId(key.0),
                    VertexId(key.1),
                    random_weight(&weights, rng),
                );
            }
        }
    }
    for v in 1..n {
        let u = rng.gen_range(0..v) as u32;
        let key = (u.min(v as u32), u.max(v as u32));
        if present.insert(key) {
            b.add_edge(
                VertexId(key.0),
                VertexId(key.1),
                random_weight(&weights, rng),
            );
        }
    }
    b.build()
}

/// A barbell: two cliques of `side` vertices joined by a path of `bridge`
/// vertices. Dense ends, thin middle — hard for schemes that assume
/// homogeneous degree.
///
/// # Panics
///
/// Panics if `side < 2`.
pub fn barbell<R: Rng>(
    side: usize,
    bridge: usize,
    weights: RangeInclusive<Weight>,
    rng: &mut R,
) -> Graph {
    assert!(side >= 2, "cliques need at least 2 vertices");
    assert!(*weights.start() > 0, "weights must be positive");
    let n = 2 * side + bridge;
    let mut b = GraphBuilder::new(n);
    let clique = |b: &mut GraphBuilder, base: usize, rng: &mut R| {
        for u in 0..side {
            for v in (u + 1)..side {
                b.add_edge(
                    VertexId((base + u) as u32),
                    VertexId((base + v) as u32),
                    random_weight(&weights, rng),
                );
            }
        }
    };
    clique(&mut b, 0, rng);
    clique(&mut b, side + bridge, rng);
    // Bridge path from clique-1 vertex 0 to clique-2 vertex side+bridge.
    let mut prev = 0usize;
    for i in 0..bridge {
        b.add_edge(
            VertexId(prev as u32),
            VertexId((side + i) as u32),
            random_weight(&weights, rng),
        );
        prev = side + i;
    }
    b.add_edge(
        VertexId(prev as u32),
        VertexId((side + bridge) as u32),
        random_weight(&weights, rng),
    );
    b.build()
}

/// A weighted graph whose *hop* diameter is tiny but whose *shortest-path*
/// diameter is large: a cycle of `n` unit edges plus random long-range
/// "highways" of very large weight. Shortest paths avoid highways, so they
/// use many hops (large `S`), while the highways keep `D` small.
pub fn small_hop_diameter_large_spd<R: Rng>(n: usize, chords: usize, rng: &mut R) -> Graph {
    assert!(n >= 4);
    let mut b = GraphBuilder::new(n);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    for v in 0..n {
        let u = v as u32;
        let w = ((v + 1) % n) as u32;
        let (a, c) = if u < w { (u, w) } else { (w, u) };
        b.add_edge(VertexId(a), VertexId(c), 1);
        present.insert((a, c));
    }
    let heavy: Weight = (n as Weight) * 10;
    let mut added = 0;
    while added < chords {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if present.insert(key) {
            b.add_edge(VertexId(key.0), VertexId(key.1), heavy);
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn er_connected_is_connected() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(50, 0.02, 1..=10, &mut rng(seed));
            assert!(properties::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn er_density_tracks_p() {
        // n − 1 tree edges plus each other pair with probability p.
        let g = erdos_renyi_connected(200, 0.5, 1..=1, &mut rng(0));
        let max_edges = 200 * 199 / 2;
        let density = g.num_edges() as f64 / max_edges as f64;
        assert!((density - 0.5).abs() < 0.05, "density {density}");
    }

    #[test]
    fn er_p_zero_and_one() {
        let g0 = erdos_renyi_connected(10, 0.0, 1..=1, &mut rng(0));
        assert_eq!(g0.num_edges(), 9, "p = 0 leaves the spanning tree");
        let g1 = erdos_renyi_connected(10, 1.0, 1..=1, &mut rng(0));
        assert_eq!(g1.num_edges(), 45);
    }

    #[test]
    fn geometric_is_connected() {
        let g = random_geometric_connected(80, 0.12, 1..=5, &mut rng(1));
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, 1..=1, &mut rng(0));
        assert_eq!(g.num_vertices(), 12);
        // 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8.
        assert_eq!(g.num_edges(), 17);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(4, 5, 1..=1, &mut rng(0));
        assert_eq!(g.num_vertices(), 20);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(100, 3, 1..=4, &mut rng(2));
        assert_eq!(g.num_vertices(), 100);
        assert!(properties::is_connected(&g));
        // Seed clique K4 (6 edges) + 96 vertices × 3 edges.
        assert_eq!(g.num_edges(), 6 + 96 * 3);
        // Preferential attachment should produce at least one hub.
        assert!(g.max_degree() >= 10);
    }

    #[test]
    fn path_and_star_diameters() {
        let p = path(10, 1..=1, &mut rng(0));
        assert_eq!(properties::hop_diameter(&p), Some(9));
        let s = star(10, 1..=1, &mut rng(0));
        assert_eq!(properties::hop_diameter(&s), Some(2));
    }

    #[test]
    fn lollipop_connected() {
        let g = lollipop(5, 10, 1..=3, &mut rng(3));
        assert_eq!(g.num_vertices(), 15);
        assert!(properties::is_connected(&g));
        assert_eq!(g.degree(VertexId(14)), 1);
    }

    #[test]
    fn spd_gap_graph_has_gap() {
        let g = small_hop_diameter_large_spd(60, 30, &mut rng(4));
        assert!(properties::is_connected(&g));
        let d = properties::hop_diameter(&g).unwrap();
        let s = properties::shortest_path_diameter(&g).unwrap();
        assert!(s > d, "expected S={s} > D={d}");
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(5, 1..=1, &mut rng(10));
        assert_eq!(g.num_vertices(), 32);
        assert_eq!(g.num_edges(), 32 * 5 / 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 5);
        }
        assert_eq!(properties::hop_diameter(&g), Some(5));
    }

    #[test]
    fn expander_is_connected_with_small_diameter() {
        let g = random_regular_expander(200, 6, 1..=9, &mut rng(11));
        assert!(properties::is_connected(&g));
        let d = properties::hop_diameter(&g).unwrap();
        assert!(d <= 8, "expander diameter {d} too large");
        let (_, _, mean) = properties::degree_stats(&g).unwrap();
        assert!((5.0..=9.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(6, 4, 1..=3, &mut rng(12));
        assert_eq!(g.num_vertices(), 16);
        assert!(properties::is_connected(&g));
        // Clique interiors have degree side-1 (+1 for the bridge endpoints).
        assert_eq!(g.degree(VertexId(1)), 5);
        // Bridge interior vertices have degree 2.
        assert_eq!(g.degree(VertexId(7)), 2);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let a = erdos_renyi_connected(30, 0.1, 1..=9, &mut rng(7));
        let b = erdos_renyi_connected(30, 0.1, 1..=9, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn weights_respect_range() {
        let g = erdos_renyi_connected(40, 0.2, 5..=8, &mut rng(8));
        for (_, _, w) in g.edges() {
            assert!((5..=8).contains(&w));
        }
    }
}
