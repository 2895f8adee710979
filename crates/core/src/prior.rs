//! The \[EN16b\]-style comparison row of Table 1 — Elkin–Neiman's distributed
//! construction, which reaches near-optimal rounds by materializing the
//! virtual graph.
//!
//! It runs every stage of [`crate::scheme`]'s pipeline — backbone,
//! hierarchy, hopset, pivots, clusters — and differs in two places: every
//! virtual vertex stores its `E'` edges (the `Ω̃(√n)` memory step the paper
//! eliminates), and each cluster tree gets the prior two-level tree scheme
//! ([`tree_routing::baseline`]: `O(log n)`-word tables, `O(log² n)`-word
//! labels). Its rows are its own [`PriorScheme`], routed through
//! [`forward::baseline_step`] the way [`crate::covers`] routes the
//! \[ABNLP90\] row's rows.

use graphs::{Graph, VertexId};
use rand::Rng;
use tree_routing::baseline::{self, BaselineLabel, BaselineTable};

use crate::forward::{self, GraphRouteError};
use crate::router::{self, GraphRouteTrace, StretchStats};
use crate::scheme::{self, BuildParams, Built, LabelEntry, TableEntry};

/// The baseline's per-vertex rows. Their largest table and label, in words,
/// are in the build's report.
#[derive(Clone, Debug)]
pub struct PriorScheme {
    /// Per vertex: one row per cluster tree containing it, ascending by root.
    pub tables: Vec<Vec<TableEntry<BaselineTable>>>,
    /// Per vertex: one row per level whose pivot tree contains it, ascending
    /// by level.
    pub labels: Vec<Vec<LabelEntry<BaselineLabel>>>,
}

impl PriorScheme {
    /// `v`'s row for the tree rooted at `root`, if `v` is in that tree.
    pub fn entry(&self, v: VertexId, root: VertexId) -> Option<&TableEntry<BaselineTable>> {
        let rows = &self.tables[v.index()];
        rows.binary_search_by_key(&root, |e| e.root)
            .ok()
            .map(|i| &rows[i])
    }
}

/// Build the baseline for `g` with parameter `k`.
///
/// # Panics
///
/// Panics if `k < 2` or `g` is empty.
pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Built<PriorScheme> {
    build_observed(g, k, rng, &mut obs::Recorder::disabled())
}

/// [`build`], with the same phase spans on `rec` as
/// [`crate::scheme::build_observed`].
///
/// # Panics
///
/// As [`build`].
pub fn build_observed<R: Rng>(
    g: &Graph,
    k: usize,
    rng: &mut R,
    rec: &mut obs::Recorder,
) -> Built<PriorScheme> {
    // `BuildParams::new(k)` is a distributed run with the paper's ε; only
    // the tree stage differs.
    scheme::build_staged(
        g,
        &BuildParams::new(k),
        true,
        rng,
        rec,
        |net, tree, cfg, wanted, rng| {
            let out = baseline::build(net, tree, cfg, rng);
            let (_, tables, labels) = out.scheme.into_parts();
            let labels = scheme::pick(&labels, wanted);
            ((tables, labels), Some((out.cost, out.memory)))
        },
        |(tables, labels, _)| PriorScheme { tables, labels },
    )
}

/// Route `src → dst`: the source commits to the entry of `dst`'s label with
/// the cheapest estimate `d̂(src, w) + d̂(w, dst)` (the first of equally
/// cheap entries wins, as in [`forward::select`]), then every hop applies
/// the two-level rule in that tree (a vertex routes to itself in zero hops).
///
/// # Errors
///
/// As [`router::route`].
pub fn route(
    g: &Graph,
    scheme: &PriorScheme,
    src: VertexId,
    dst: VertexId,
) -> Result<GraphRouteTrace, GraphRouteError> {
    let (_, entry) = scheme.labels[dst.index()]
        .iter()
        .filter_map(|e| Some((scheme.entry(src, e.pivot)?.dist.saturating_add(e.dist), e)))
        .min_by_key(|&(cost, _)| cost)
        .ok_or(GraphRouteError::NoCommonTree)?;
    let mut path = Vec::new();
    let (weight, _) = forward::drive(
        g,
        src,
        |at, ports| {
            let row = scheme
                .entry(at, entry.pivot)
                .ok_or(GraphRouteError::Stuck(at))?;
            forward::baseline_step(at, &row.table, &entry.tree_label, ports)
        },
        |v| path.push(v),
    )?;
    Ok(GraphRouteTrace {
        path,
        weight,
        tree_root: entry.pivot,
        level: entry.level,
    })
}

/// [`router::measure_stretch`] over the baseline's [`route`].
///
/// # Panics
///
/// As [`router::measure_stretch`].
pub fn measure_stretch(g: &Graph, scheme: &PriorScheme, srcs: &[VertexId]) -> StretchStats {
    router::measure_stretch_by(g, srcs, |s, t| {
        route(g, scheme, s, t).map(|trace| (trace.weight, trace.hops()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One seed draws the same hierarchy, hopset, pivots and clusters for
    /// both families (their RNG streams first differ in the tree stage), so
    /// both commit to the same tree; both tree schemes are exact, so both
    /// walk its one path. This is why every row of Table 1 shows the same
    /// stretch for the two.
    fn assert_same_routes(g: &Graph, k: usize, seed: u64) {
        let ours = scheme::build(
            g,
            &BuildParams::new(k),
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let prior = build(g, k, &mut ChaCha8Rng::seed_from_u64(seed));
        for s in g.vertices() {
            for t in g.vertices() {
                let a = router::route(g, &ours.scheme, s, t).expect("ours routes");
                let b = route(g, &prior.scheme, s, t).expect("prior routes");
                assert_eq!((a.weight, &a.path), (b.weight, &b.path), "{s} -> {t}");
            }
        }
    }

    #[test]
    fn routes_the_same_tree_paths_as_the_paper_scheme() {
        let mut rng = ChaCha8Rng::seed_from_u64(1401);
        let er = generators::erdos_renyi_connected(60, 3.0 / 60.0, 1..=9, &mut rng);
        assert_same_routes(&er, 2, 1402);
        let torus = generators::torus(8, 8, 1..=9, &mut rng);
        assert_same_routes(&torus, 3, 1403);
    }

    #[test]
    fn disconnected_pairs_report_no_common_tree() {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        let built = build(&g, 2, &mut ChaCha8Rng::seed_from_u64(1404));
        assert_eq!(
            route(&g, &built.scheme, VertexId(0), VertexId(3)).unwrap_err(),
            GraphRouteError::NoCommonTree
        );
        assert!(route(&g, &built.scheme, VertexId(0), VertexId(1)).is_ok());
    }
}
