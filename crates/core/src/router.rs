//! The routing phase: forward a message using only tables, the target's
//! label, and a constant-size header (the chosen tree root).
//!
//! The sender inspects the target's label, keeps the entries whose pivot
//! tree it belongs to itself, and commits to one tree (the header). Every
//! subsequent vertex applies its stored tree-routing rule for that tree.
//! Both halves live in [`crate::forward`]; this module is that kernel in a
//! loop, collecting the path, plus the stretch measurement built on it.
//! [`Selection::SourceOptimal`] picks the valid entry minimizing the
//! estimated round trip `d̂(u, w) + d̂(w, v)`: never a worse estimate than
//! the first-valid rule, under the same `4k − 3` guarantee.

use graphs::{Graph, VertexId, Weight, INFINITY};
use obs::metrics::nearest_rank;

use crate::forward::{self, Header};
pub use crate::forward::{GraphRouteError, Selection};
use crate::scheme::RoutingScheme;

/// A completed route.
#[derive(Clone, Debug)]
pub struct GraphRouteTrace {
    /// Vertices visited, source first, target last.
    pub path: Vec<VertexId>,
    /// Total weight of traversed edges.
    pub weight: Weight,
    /// The tree the message committed to (its root).
    pub tree_root: VertexId,
    /// The hierarchy level of the chosen entry.
    pub level: usize,
}

impl GraphRouteTrace {
    /// Number of edges traversed.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Route with [`Selection::SourceOptimal`].
///
/// # Errors
///
/// See [`GraphRouteError`].
pub fn route(
    g: &Graph,
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
) -> Result<GraphRouteTrace, GraphRouteError> {
    route_with(g, scheme, src, dst, Selection::SourceOptimal)
}

/// Route with an explicit source selection rule.
///
/// # Errors
///
/// See [`GraphRouteError`].
pub fn route_with(
    g: &Graph,
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
    selection: Selection,
) -> Result<GraphRouteTrace, GraphRouteError> {
    if src == dst {
        return Ok(GraphRouteTrace {
            path: vec![src],
            weight: 0,
            tree_root: src,
            level: 0,
        });
    }
    let in_tree = |header: Header<'_>| {
        let mut path = Vec::new();
        let (weight, _) = forward::walk(g, scheme, src, &header, |v| path.push(v))?;
        Ok(GraphRouteTrace {
            path,
            weight,
            tree_root: header.entry.pivot,
            level: header.entry.level,
        })
    };
    if selection == Selection::Handshake {
        // Probe every shared tree and keep the best realized route.
        let mut best: Option<GraphRouteTrace> = None;
        for header in forward::candidates(scheme, src, dst) {
            let trace = in_tree(header)?;
            if best.as_ref().is_none_or(|b| trace.weight < b.weight) {
                best = Some(trace);
            }
        }
        return best.ok_or(GraphRouteError::NoCommonTree);
    }
    in_tree(forward::select(scheme, src, dst, selection).ok_or(GraphRouteError::NoCommonTree)?)
}

/// Stretch statistics over sampled pairs.
#[derive(Clone, Debug, Default)]
pub struct StretchStats {
    /// Pairs measured.
    pub pairs: usize,
    /// Worst stretch observed.
    pub max: f64,
    /// Mean stretch.
    pub mean: f64,
    /// Median stretch.
    pub p50: f64,
    /// 95th-percentile stretch.
    pub p95: f64,
    /// 99th-percentile stretch.
    pub p99: f64,
    /// Mean number of hops routed.
    pub mean_hops: f64,
    /// Every sampled stretch value, sorted ascending — the raw material for
    /// histogram records in run reports.
    pub values: Vec<f64>,
}

/// Route `srcs × all-other-vertices` (or all pairs if `srcs` is `None`) and
/// compare against exact Dijkstra distances.
///
/// # Panics
///
/// Panics if any reachable pair fails to route or undershoots the true
/// distance — either indicates a construction bug.
pub fn measure_stretch(
    g: &Graph,
    scheme: &RoutingScheme,
    srcs: &[VertexId],
    selection: Selection,
) -> StretchStats {
    measure_stretch_by(g, srcs, |s, t| {
        route_with(g, scheme, s, t, selection).map(|trace| (trace.weight, trace.hops()))
    })
}

/// [`measure_stretch`] for any router: `route(s, t)` answers a pair with its
/// routed `(weight, hops)`. Every comparison row measures through this loop.
///
/// # Panics
///
/// As [`measure_stretch`].
pub fn measure_stretch_by(
    g: &Graph,
    srcs: &[VertexId],
    mut route: impl FnMut(VertexId, VertexId) -> Result<(Weight, usize), GraphRouteError>,
) -> StretchStats {
    let mut stats = StretchStats::default();
    let mut values = Vec::new();
    let mut hops = 0usize;
    for &s in srcs {
        let exact = graphs::shortest_paths::dijkstra(g, s);
        for t in g.vertices() {
            if t == s {
                continue;
            }
            if exact[t.index()] == INFINITY {
                continue;
            }
            let (weight, routed_hops) =
                route(s, t).unwrap_or_else(|e| panic!("route {s} -> {t} failed: {e}"));
            assert!(
                weight >= exact[t.index()],
                "routed weight {} undershoots distance {}",
                weight,
                exact[t.index()]
            );
            let stretch = weight as f64 / exact[t.index()] as f64;
            stats.pairs += 1;
            stats.max = stats.max.max(stretch);
            values.push(stretch);
            hops += routed_hops;
        }
    }
    if stats.pairs > 0 {
        stats.mean = values.iter().sum::<f64>() / stats.pairs as f64;
        stats.mean_hops = hops as f64 / stats.pairs as f64;
        values.sort_by(|a, b| a.partial_cmp(b).expect("stretch is finite"));
        stats.p50 = nearest_rank(&values, 0.50);
        stats.p95 = nearest_rank(&values, 0.95);
        stats.p99 = nearest_rank(&values, 0.99);
    }
    stats.values = values;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build, BuildParams, Mode};
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn er(n: usize, seed: u64) -> (Graph, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        (g, rng)
    }

    fn all_sources(g: &Graph) -> Vec<VertexId> {
        g.vertices().collect()
    }

    #[test]
    fn stretch_bound_holds_centralized_k2() {
        let (g, mut rng) = er(70, 311);
        let built = build(
            &g,
            &BuildParams::new(2).with_mode(Mode::Centralized),
            &mut rng,
        );
        let stats = measure_stretch(&g, &built.scheme, &all_sources(&g), Selection::FirstValid);
        assert_eq!(stats.pairs, 70 * 69);
        assert!(
            stats.max <= (4 * 2 - 3) as f64 + 1e-9,
            "stretch {} exceeds 4k-3",
            stats.max
        );
    }

    #[test]
    fn stretch_bound_holds_distributed_k2() {
        let (g, mut rng) = er(70, 312);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let stats = measure_stretch(
            &g,
            &built.scheme,
            &all_sources(&g),
            Selection::SourceOptimal,
        );
        assert!(
            stats.max <= (4 * 2 - 3) as f64 + 0.5,
            "stretch {} exceeds 4k-3+o(1)",
            stats.max
        );
    }

    #[test]
    fn stretch_bound_holds_distributed_k3() {
        let (g, mut rng) = er(90, 313);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        let stats = measure_stretch(
            &g,
            &built.scheme,
            &all_sources(&g),
            Selection::SourceOptimal,
        );
        assert!(
            stats.max <= (4 * 3 - 3) as f64 + 0.5,
            "stretch {} exceeds 4k-3+o(1)",
            stats.max
        );
    }

    #[test]
    fn stretch_bound_holds_prior_mode() {
        let (g, mut rng) = er(60, 314);
        let built = crate::prior::build(&g, 2, &mut rng);
        let stats = crate::prior::measure_stretch(&g, &built.scheme, &all_sources(&g));
        assert!(
            stats.max <= (4 * 2 - 3) as f64 + 0.5,
            "prior-mode stretch {} exceeds bound",
            stats.max
        );
    }

    #[test]
    fn source_optimal_never_worse_than_first_valid() {
        let (g, mut rng) = er(60, 315);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        let srcs = all_sources(&g);
        let first = measure_stretch(&g, &built.scheme, &srcs, Selection::FirstValid);
        let best = measure_stretch(&g, &built.scheme, &srcs, Selection::SourceOptimal);
        assert!(best.mean <= first.mean + 1e-9);
    }

    #[test]
    fn handshake_never_worse_than_source_optimal() {
        let (g, mut rng) = er(60, 320);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        let srcs = all_sources(&g);
        let optimal = measure_stretch(&g, &built.scheme, &srcs, Selection::SourceOptimal);
        let shake = measure_stretch(&g, &built.scheme, &srcs, Selection::Handshake);
        assert!(shake.mean <= optimal.mean + 1e-9);
        assert!(shake.max <= optimal.max + 1e-9);
    }

    #[test]
    fn handshake_respects_the_scheme_bound() {
        let (g, mut rng) = er(70, 321);
        let k = 2;
        let built = build(&g, &BuildParams::new(k), &mut rng);
        let srcs = all_sources(&g);
        let shake = measure_stretch(&g, &built.scheme, &srcs, Selection::Handshake);
        assert!(
            shake.max <= (4 * k - 3) as f64 + 0.5,
            "handshake stretch {} above the scheme bound",
            shake.max
        );
        assert!(shake.p50 >= 1.0 && shake.p50 <= shake.max);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let (g, mut rng) = er(60, 322);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let stats = measure_stretch(
            &g,
            &built.scheme,
            &all_sources(&g),
            Selection::SourceOptimal,
        );
        assert!(1.0 <= stats.p50);
        assert!(stats.p50 <= stats.p95);
        assert!(stats.p95 <= stats.p99);
        assert!(stats.p99 <= stats.max);
        assert!(stats.mean >= 1.0 && stats.mean <= stats.max);
    }

    #[test]
    fn self_route_is_trivial() {
        let (g, mut rng) = er(30, 316);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let trace = route(&g, &built.scheme, VertexId(5), VertexId(5)).unwrap();
        assert_eq!(trace.weight, 0);
        assert_eq!(trace.hops(), 0);
    }

    #[test]
    fn routes_on_geometric_networks() {
        let mut rng = ChaCha8Rng::seed_from_u64(317);
        let g = generators::random_geometric_connected(80, 0.16, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let srcs: Vec<VertexId> = (0..80).step_by(8).map(|i| VertexId(i as u32)).collect();
        let stats = measure_stretch(&g, &built.scheme, &srcs, Selection::SourceOptimal);
        assert!(stats.max <= 5.5, "geometric stretch {}", stats.max);
    }

    #[test]
    fn disconnected_pairs_report_no_common_tree() {
        let mut b = graphs::GraphBuilder::new(6);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(3), VertexId(4), 1);
        b.add_edge(VertexId(4), VertexId(5), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(318);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        match route(&g, &built.scheme, VertexId(0), VertexId(5)) {
            Err(GraphRouteError::NoCommonTree) => {}
            other => panic!("expected NoCommonTree, got {other:?}"),
        }
        // Within a component routing still works.
        assert!(route(&g, &built.scheme, VertexId(0), VertexId(2)).is_ok());
    }

    #[test]
    fn route_reports_committed_tree() {
        let (g, mut rng) = er(50, 319);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let trace = route(&g, &built.scheme, VertexId(1), VertexId(40)).unwrap();
        // The committed tree root must appear in both endpoints' views.
        assert!(built.scheme.entry(VertexId(1), trace.tree_root).is_some());
        let label = built.scheme.label(VertexId(40));
        assert!(label.rows().iter().any(|e| e.pivot == trace.tree_root));
    }
}
