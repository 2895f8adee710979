//! The scheme observatory: read-only audits of a built routing scheme.
//!
//! Three families of questions, answered without mutating anything:
//!
//! 1. **Where do the words live?** [`attribution`] splits every vertex's
//!    resident memory into named components — cluster-membership rows, tree
//!    tables, TZ label rows, tree labels, pivot sets — and the split is
//!    asserted to sum *exactly* to [`RoutingScheme::resident_words`], which
//!    is in turn exactly what the construction charged its
//!    [`congest::MemoryMeter`] for final outputs. No estimate anywhere: the
//!    reconciliation is word-for-word.
//! 2. **Does the structure hold?** [`audit`]/[`audit_built`] re-check the
//!    invariants the theorems lean on: the [`crate::verify`] structural
//!    checks, cover coverage (every vertex labeled in ≥ 1 pivot tree and
//!    owning its own cluster at distance 0), the Claim-6 membership bound
//!    `s ≤ 4·n^{1/k}·ln n`, DFS-interval nesting inside every cluster tree,
//!    distance-estimate soundness against exact Dijkstra on sampled
//!    sources, tree/table cross-consistency, and — when the hopset was
//!    retained — that sampled hopset records are realized by genuine
//!    `G`-paths of exactly their claimed weight. They return the
//!    `scheme_audit` record itself ([`obs::audit::SchemeAudit`]): each
//!    invariant is counted straight into its `InvariantStat`, and the
//!    attribution arrives as per-component `ComponentStat`s.
//! 3. **Does it still route?** [`routing_probe`] samples source–target
//!    pairs (full sweep at small `n`), routes each one, and compares
//!    against exact distances and the central [`DistanceOracle`]. On the
//!    intact graph every failure is a violation; [`probe_perturbed`]
//!    re-runs the same probe against a seeded edge/vertex-killed copy of
//!    the graph with the *stale* tables, turning "what happens under
//!    churn" into measured reachability, stretch inflation, and misroute
//!    counts — the record's `perturbed` field
//!    ([`obs::audit::PerturbedStat`]).
//!
//! Determinism: given the same graph, scheme, and [`AuditConfig`], every
//! audit function returns identical results — sampling is seeded, and
//! nothing depends on thread count or iteration order of hash maps (per-
//! tree walks sort before checking).

use congest::WordSized;
use graphs::{shortest_paths, Graph, Overlay, VertexId, Weight, INFINITY};
use obs::audit::{ComponentStat, InvariantStat, PerturbedStat, ProbeStat, SchemeAudit};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::oracle::DistanceOracle;
use crate::router::{self, GraphRouteError, Selection};
use crate::scheme::{Built, Mode, RoutingScheme};
use crate::verify;

/// The resident memory components the attribution splits a vertex into.
///
/// The five resident components partition [`RoutingScheme::resident_words`]
/// exactly; `HopsetEdges` is construction-time state (reported for context
/// when available, never part of the resident sum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Table-row overhead: `(root, level, dist)` per cluster containing the
    /// vertex — the cluster/cover membership words.
    ClusterMembership,
    /// Tree-routing tables inside the table rows (`O(1)` words each).
    TreeTables,
    /// Label-row overhead: `(level, pivot, dist)` per pivot level — the TZ
    /// label words.
    TzLabels,
    /// Tree-routing labels inside the label rows (`O(log n)` words).
    TreeLabels,
    /// Pivot sets: `(p̂_i(v), d̂(v, A_i))` pairs, two words per level.
    PivotSets,
}

impl Component {
    /// All resident components, in attribution order.
    pub const ALL: [Component; 5] = [
        Component::ClusterMembership,
        Component::TreeTables,
        Component::TzLabels,
        Component::TreeLabels,
        Component::PivotSets,
    ];

    /// Stable name used in records and reports.
    pub fn name(self) -> &'static str {
        match self {
            Component::ClusterMembership => "cluster_membership",
            Component::TreeTables => "tree_tables",
            Component::TzLabels => "tz_labels",
            Component::TreeLabels => "tree_labels",
            Component::PivotSets => "pivot_sets",
        }
    }
}

/// Per-vertex, per-component word counts plus the exactness verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribution {
    /// `per_vertex[v][c]` = words component `Component::ALL[c]` owns at `v`.
    pub per_vertex: Vec<[usize; 5]>,
    /// Independently computed [`RoutingScheme::resident_words`] per vertex.
    pub resident: Vec<usize>,
    /// Whether the five components summed exactly to `resident` everywhere.
    pub exact: bool,
}

impl Attribution {
    /// One component's per-vertex series (for heatmaps and scaling fits).
    pub fn component_words(&self, c: Component) -> Vec<u64> {
        let idx = Component::ALL.iter().position(|&x| x == c).expect("known");
        self.per_vertex.iter().map(|w| w[idx] as u64).collect()
    }

    /// Largest per-vertex value of one component.
    pub fn component_max(&self, c: Component) -> usize {
        let idx = Component::ALL.iter().position(|&x| x == c).expect("known");
        self.per_vertex.iter().map(|w| w[idx]).max().unwrap_or(0)
    }

    /// Total resident words across all vertices.
    pub fn resident_total(&self) -> u64 {
        self.resident.iter().map(|&w| w as u64).sum()
    }

    /// Largest per-vertex resident word count.
    pub fn resident_max(&self) -> usize {
        self.resident.iter().copied().max().unwrap_or(0)
    }
}

/// Split every vertex's resident words into the five components.
///
/// The component split re-derives each count from the raw entry structure —
/// deliberately *not* through the same `words()` sums `resident_words`
/// uses — so `exact` is a genuine reconciliation, not a tautology.
pub fn attribution(scheme: &RoutingScheme) -> Attribution {
    let n = scheme.num_vertices();
    let mut per_vertex = Vec::with_capacity(n);
    let mut resident = Vec::with_capacity(n);
    let mut exact = true;
    for v in scheme.vertices() {
        let table = scheme.table(v).rows();
        let label = scheme.label(v).rows();
        let membership = 3 * table.len();
        let tree_tables: usize = table.iter().map(|e| e.table.words()).sum();
        let tz_labels = 3 * label.len();
        let tree_labels: usize = label.iter().map(|e| e.tree_label.words()).sum();
        let pivots = 2 * scheme.pivots(v).len();
        let split = [membership, tree_tables, tz_labels, tree_labels, pivots];
        let total = scheme.resident_words(v);
        exact &= split.iter().sum::<usize>() == total;
        per_vertex.push(split);
        resident.push(total);
    }
    Attribution {
        per_vertex,
        resident,
        exact,
    }
}

/// Violations a probe contributes on an *intact* graph, where every
/// connected pair must deliver within bounds and the oracle must be sound.
fn intact_violations(p: &ProbeStat) -> u64 {
    (p.connected - p.delivered)
        + p.undershoots
        + p.over_bound
        + p.oracle_undershoots
        + p.oracle_over_bound
}

/// At `n` up to this, the routing probe covers every pair instead of
/// sampling.
const FULL_SWEEP_MAX_N: usize = 72;

/// Hopset records spot-checked against their realizing paths.
const HOPSET_SAMPLES: usize = 128;

/// Additive slack on the stretch bounds (`4k − 3` routing, `2k − 1` oracle)
/// absorbing the construction's `(1 + ε)` distance estimates.
const STRETCH_SLACK: f64 = 0.5;

/// Sampling for the audits. The defaults keep a full audit well under a
/// second at `n` in the thousands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditConfig {
    /// Seed for all sampling (sources, targets, hopset records) and for
    /// the kill draws of [`probe_perturbed`].
    pub seed: u64,
    /// Sources sampled for the routing probe and distance-soundness sweep.
    pub sources: usize,
    /// Targets sampled per source.
    pub targets_per_source: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            seed: 0xA0D17,
            sources: 12,
            targets_per_source: 24,
        }
    }
}

impl AuditConfig {
    /// Scale the pair budget, keeping the sources/targets shape.
    pub fn with_sample_pairs(mut self, pairs: usize) -> AuditConfig {
        let side = (pairs as f64).sqrt().ceil() as usize;
        self.sources = side.max(1);
        self.targets_per_source = pairs.div_ceil(self.sources).max(1);
        self
    }
}

/// Audit a scheme alone — e.g. one loaded via [`crate::persist`], where no
/// build-time meter, trees, or hopset exist. The record's `perturbed` is
/// `None`; [`probe_perturbed`] fills it.
pub fn audit(g: &Graph, scheme: &RoutingScheme, cfg: &AuditConfig) -> SchemeAudit {
    audit_inner(g, scheme, cfg, None)
}

/// Audit a freshly built scheme with its construction context: everything
/// [`audit`] checks, plus the meter cross-check, tree/table consistency,
/// and hopset path spot checks.
pub fn audit_built(g: &Graph, built: &Built, cfg: &AuditConfig) -> SchemeAudit {
    audit_inner(g, &built.scheme, cfg, Some(built))
}

fn audit_inner(
    g: &Graph,
    scheme: &RoutingScheme,
    cfg: &AuditConfig,
    built: Option<&Built>,
) -> SchemeAudit {
    let n = g.num_vertices();
    let k = scheme.k;
    let att = attribution(scheme);
    let mut components: Vec<ComponentStat> = Component::ALL
        .iter()
        .map(|&c| ComponentStat::from_words(c.name(), true, &att.component_words(c)))
        .collect();
    let mut invariants = Vec::new();

    // 1. The packaged structural verifier.
    invariants.push(InvariantStat {
        name: "structural".to_string(),
        checked: n as u64,
        violations: verify::verify(g, scheme).len() as u64,
    });

    // 2. Cover coverage: every vertex carries at least one label row (it is
    // in some pivot's tree at every realized level it survives to), rows
    // ascend strictly by level, and there are at most k of them; its own
    // cluster row sits at distance 0.
    let mut coverage = InvariantStat::new("label_coverage");
    let mut self_dist = InvariantStat::new("self_distance");
    for v in g.vertices() {
        let label = scheme.label(v).rows();
        let ascending = label.windows(2).all(|w| w[0].level < w[1].level);
        coverage.note(!label.is_empty() && ascending && label.len() <= k);
        self_dist.note(scheme.entry(v, v).is_some_and(|e| e.dist == 0));
    }
    invariants.push(coverage);
    invariants.push(self_dist);

    // 3. Claim 6's membership bound: no vertex sits in more than
    // 4·n^{1/k}·ln n cluster trees (w.h.p.; seed-built schemes meet it).
    let mut membership = InvariantStat::new("membership_bound");
    let bound = (4.0 * (n as f64).powf(1.0 / k as f64) * (n as f64).ln().max(1.0)).ceil() as usize;
    for v in g.vertices() {
        membership.note(scheme.table(v).rows().len() <= bound);
    }
    invariants.push(membership);

    // 4. DFS nesting inside every cluster tree. A child's interval must sit
    // strictly inside its parent's, and the parent must hold a row for the
    // same tree.
    let mut nesting = InvariantStat::new("dfs_nesting");
    for v in g.vertices() {
        for e in scheme.table(v).rows() {
            let t = &e.table;
            nesting.note(
                t.enter <= t.exit
                    && t.parent.is_none_or(|p| {
                        scheme.entry(p, e.root).is_some_and(|parent| {
                            parent.table.enter < t.enter && t.exit <= parent.table.exit
                        })
                    }),
            );
        }
    }
    invariants.push(nesting);

    // Built-only checks: tree/table cross-consistency and hopset paths.
    let (mut meter_checked, mut meter_ok) = (false, true);
    if let Some(built) = built {
        let mut cross = InvariantStat::new("tree_cover");
        for t in &built.trees {
            for (&u, info) in t.members().iter().zip(t.info()) {
                let row = scheme.entry(u, t.root);
                cross.note(row.is_some_and(|e| e.level as usize == t.level && e.dist == info.dist));
            }
        }
        cross.note(built.trees.len() == built.report.cluster_count);
        invariants.push(cross);

        if let Some(hs) = &built.hopset {
            let mut paths = InvariantStat::new("hopset_paths");
            let mut edges: Vec<(VertexId, usize)> = Vec::new();
            for v in g.vertices() {
                for j in 0..hs.out_edges(v).len() {
                    edges.push((v, j));
                }
            }
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x4095);
            edges.shuffle(&mut rng);
            edges.truncate(HOPSET_SAMPLES);
            for (v, j) in edges {
                let e = hs.out_edges(v)[j];
                let path = hs.path(v, j);
                let mut ok = path.first() == Some(&v) && path.last() == Some(&e.to);
                let mut weight: Weight = 0;
                for pair in path.windows(2) {
                    match g.edge_weight(pair[0], pair[1]) {
                        Some(w) => weight = weight.saturating_add(w),
                        None => ok = false,
                    }
                }
                paths.note(ok && weight == e.weight);
            }
            paths.note(hs.num_edges() == built.report.hopset_edges);
            paths.note(hs.max_out_degree() == built.report.hopset_arboricity);
            invariants.push(paths);
            let words: Vec<u64> = g.vertices().map(|v| hs.memory_words(v) as u64).collect();
            components.push(ComponentStat::from_words("hopset_edges", false, &words));
        }

        // Meter cross-check: every resident word must have been charged.
        meter_checked = true;
        meter_ok = built
            .report
            .memory
            .first_undershoot(&att.resident)
            .is_none();
    }

    // 5 + probe: distance-estimate soundness folded into the probe's
    // per-source Dijkstra sweeps, so sampled sources price one shortest-path
    // tree each, shared by both audits.
    let mut soundness = InvariantStat::new("distance_soundness");
    let probe = routing_probe(g, scheme, cfg, None, |s, exact| {
        for v in g.vertices() {
            let d = exact[v.index()];
            if d == INFINITY {
                continue;
            }
            if let Some(e) = scheme.entry(v, s) {
                soundness.note(e.dist >= d);
            }
            for e in scheme.label(v).rows().iter().filter(|e| e.pivot == s) {
                soundness.note(e.dist >= d);
            }
            for &(_, pd) in scheme.pivots(v).iter().filter(|&&(p, _)| p == s) {
                soundness.note(pd >= d);
            }
        }
    });
    invariants.push(soundness);

    let violations = invariants.iter().map(|c| c.violations).sum::<u64>()
        + intact_violations(&probe)
        + u64::from(!att.exact)
        + u64::from(!meter_ok);
    SchemeAudit {
        n: n as u64,
        k: k as u64,
        mode: match scheme.mode {
            Mode::Centralized => "centralized",
            Mode::DistributedLowMemory => "distributed-low-memory",
        }
        .to_string(),
        components,
        attribution_exact: att.exact,
        resident_total: att.resident_total(),
        resident_max: att.resident_max() as u64,
        meter_checked,
        meter_ok,
        invariants,
        probe,
        perturbed: None,
        violations,
    }
}

/// Route sampled (or, at small `n`, all) pairs and compare against exact
/// Dijkstra distances and the central oracle. `alive` masks vertices out of
/// the sample (killed vertices in a perturbation probe). `on_source` sees
/// every probed source with its exact distance array, letting callers fold
/// extra per-source checks into the same Dijkstra sweep.
pub fn routing_probe(
    g: &Graph,
    scheme: &RoutingScheme,
    cfg: &AuditConfig,
    alive: Option<&[bool]>,
    mut on_source: impl FnMut(VertexId, &[Weight]),
) -> ProbeStat {
    let is_alive = |v: VertexId| alive.is_none_or(|a| a[v.index()]);
    let candidates: Vec<VertexId> = g.vertices().filter(|&v| is_alive(v)).collect();
    let full_sweep = g.num_vertices() <= FULL_SWEEP_MAX_N;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sources: Vec<VertexId> = if full_sweep {
        candidates.clone()
    } else {
        let mut pool = candidates.clone();
        pool.shuffle(&mut rng);
        pool.truncate(cfg.sources.max(1));
        pool
    };
    let oracle = DistanceOracle::new(scheme);
    let k = scheme.k;
    let route_bound = (4 * k - 3) as f64 + STRETCH_SLACK;
    let oracle_bound = (2 * k - 1) as f64 + STRETCH_SLACK;
    let mut stats = ProbeStat {
        pairs: 0,
        connected: 0,
        delivered: 0,
        no_common_tree: 0,
        stuck: 0,
        bad_forward: 0,
        looped: 0,
        undershoots: 0,
        over_bound: 0,
        oracle_undershoots: 0,
        oracle_over_bound: 0,
        mean_stretch: 0.0,
        max_stretch: 0.0,
        full_sweep,
    };
    let mut stretch_sum = 0.0;
    for &s in &sources {
        let exact = shortest_paths::dijkstra(g, s);
        on_source(s, &exact);
        let targets: Vec<VertexId> = if full_sweep {
            candidates.iter().copied().filter(|&t| t != s).collect()
        } else {
            let mut pool: Vec<VertexId> = candidates.iter().copied().filter(|&t| t != s).collect();
            pool.shuffle(&mut rng);
            pool.truncate(cfg.targets_per_source.max(1));
            pool
        };
        for t in targets {
            stats.pairs += 1;
            let d = exact[t.index()];
            if d == INFINITY {
                continue;
            }
            stats.connected += 1;
            match router::route_with(g, scheme, s, t, Selection::SourceOptimal) {
                Ok(trace) => {
                    stats.delivered += 1;
                    if trace.weight < d {
                        stats.undershoots += 1;
                    }
                    let stretch = trace.weight as f64 / d.max(1) as f64;
                    stretch_sum += stretch;
                    stats.max_stretch = stats.max_stretch.max(stretch);
                    if stretch > route_bound {
                        stats.over_bound += 1;
                    }
                }
                Err(GraphRouteError::NoCommonTree) => stats.no_common_tree += 1,
                Err(GraphRouteError::Stuck(_)) => stats.stuck += 1,
                Err(GraphRouteError::BadForward { .. }) => stats.bad_forward += 1,
                Err(GraphRouteError::Loop) => stats.looped += 1,
            }
            let est = oracle.query(s, t);
            if est < d {
                stats.oracle_undershoots += 1;
            } else if est == INFINITY || est as f64 > oracle_bound * d.max(1) as f64 {
                stats.oracle_over_bound += 1;
            }
        }
    }
    if stats.delivered > 0 {
        stats.mean_stretch = stretch_sum / stats.delivered as f64;
    }
    stats
}

/// What to kill in a perturbation probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerturbSpec {
    /// Probability each surviving-endpoint edge is removed.
    pub kill_edges: f64,
    /// Probability each vertex is killed (all its edges removed; killed
    /// vertices are excluded from the probe's pair sample).
    pub kill_vertices: f64,
}

/// Re-run the consistency probe with *stale* tables against a
/// perturbation of the graph drawn from `cfg.seed`: the measured form of
/// "what does this scheme do when the network drifts out from under it",
/// the record's `perturbed` field. The `churn` crate does not come through
/// here: its health sampler runs its own fixed-pair probe over each round's
/// overlay, so the probe pairs stay the same from round to round.
///
/// `baseline_mean_stretch` is the intact probe's mean stretch (the audit's
/// `probe.mean_stretch`), the denominator of the inflation figure, which is
/// 1.0 when either side delivered nothing. Stretch is measured against the
/// *perturbed* graph's exact distances, so inflation isolates detour cost.
pub fn probe_perturbed(
    g: &Graph,
    scheme: &RoutingScheme,
    cfg: &AuditConfig,
    spec: &PerturbSpec,
    baseline_mean_stretch: f64,
) -> PerturbedStat {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut overlay = Overlay::new(g);
    overlay.kill_random(g, spec.kill_vertices, spec.kill_edges, &mut rng);
    let probe = routing_probe(
        &overlay.build_graph(g),
        scheme,
        cfg,
        Some(overlay.alive_vertices()),
        |_, _| {},
    );
    let stretch_inflation = if probe.delivered > 0 && baseline_mean_stretch > 0.0 {
        probe.mean_stretch / baseline_mean_stretch
    } else {
        1.0
    };
    PerturbedStat {
        kill_edges: spec.kill_edges,
        kill_vertices: spec.kill_vertices,
        killed_edges: (g.num_edges() - overlay.surviving_edges(g)) as u64,
        killed_vertices: overlay.killed_vertices() as u64,
        probe,
        stretch_inflation,
    }
}

/// Blast radius of a failure set: the number of *alive* vertices whose
/// resident routing state references something dead — a table-entry root, a
/// tree parent (or the physical vertex–parent edge), a label pivot, or a
/// pivot-set pivot that the overlay has tombstoned.
///
/// This is the "how much of the network is now holding stale state" figure:
/// those vertices would all need repair messages in an incremental rebuild,
/// so the walker reuses the same attribution boundaries as [`attribution`].
pub fn blast_radius(g: &Graph, scheme: &RoutingScheme, overlay: &Overlay) -> u64 {
    let dead = |v: VertexId| !overlay.vertex_alive(v);
    let mut blasted = 0u64;
    for v in g.vertices() {
        if dead(v) {
            continue;
        }
        let parent_broken = |parent: Option<VertexId>| match parent {
            Some(p) => {
                dead(p)
                    || g.neighbors(v)
                        .iter()
                        .find(|a| a.to == p)
                        .is_some_and(|a| !overlay.edge_usable(g, a.edge))
            }
            None => false,
        };
        let tables = scheme
            .table(v)
            .rows()
            .iter()
            .any(|e| dead(e.root) || parent_broken(e.table.parent));
        let labels = scheme.label(v).rows().iter().any(|e| dead(e.pivot));
        let pivots = scheme.pivots(v).iter().any(|&(p, _)| dead(p));
        if tables || labels || pivots {
            blasted += 1;
        }
    }
    blasted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{build, BuildParams};
    use graphs::generators;

    fn built(n: usize, seed: u64) -> (Graph, Built) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let b = build(&g, &BuildParams::new(2), &mut rng);
        (g, b)
    }

    #[test]
    fn attribution_reconciles_exactly() {
        let (_, b) = built(120, 7001);
        let att = attribution(&b.scheme);
        assert!(att.exact);
        for (v, split) in att.per_vertex.iter().enumerate() {
            assert_eq!(split.iter().sum::<usize>(), att.resident[v]);
        }
        // And the meter dominates: final outputs were charged.
        assert_eq!(b.report.memory.first_undershoot(&att.resident), None);
    }

    #[test]
    fn healthy_scheme_audits_clean() {
        let (g, b) = built(100, 7002);
        let out = audit_built(&g, &b, &AuditConfig::default());
        assert!(out.ok(), "violations: {:?}", out.invariants);
        assert_eq!(out.probe.reachability(), 1.0);
        assert!(out.probe.full_sweep == (g.num_vertices() <= 72));
        assert!(out.meter_checked);
    }

    #[test]
    fn scheme_only_audit_matches_built_on_shared_checks() {
        let (g, b) = built(90, 7003);
        let cfg = AuditConfig::default();
        let full = audit_built(&g, &b, &cfg);
        let lean = audit(&g, &b.scheme, &cfg);
        assert!(lean.ok());
        assert!(!lean.meter_checked);
        // The same resident components; only the built audit adds the
        // hopset's construction state.
        let resident = Component::ALL.len();
        assert_eq!(lean.components[..], full.components[..resident]);
        assert_eq!(lean.resident_total, full.resident_total);
        assert_eq!(lean.probe, full.probe);
        // The lean audit runs a strict subset of the invariants.
        for check in &lean.invariants {
            let counterpart = full.invariants.iter().find(|c| c.name == check.name);
            assert_eq!(counterpart, Some(check));
        }
    }

    #[test]
    fn audit_detects_corrupted_distance() {
        let (g, mut b) = built(60, 7004);
        // Undershoot one table row's distance estimate drastically.
        let v = g
            .vertices()
            .find(|&v| b.scheme.table(v).rows().iter().any(|e| e.dist > 1))
            .expect("some multi-hop membership");
        let mut rows = b.scheme.table(v).rows().to_vec();
        if let Some(e) = rows.iter_mut().find(|e| e.dist > 1) {
            e.dist = 0;
        }
        b.scheme.replace_table(v, rows);
        let out = audit(&g, &b.scheme, &AuditConfig::default());
        // Either the soundness sweep sampled the corrupt tree's root, the
        // self-distance check caught it, or tree_cover would have (built
        // path); at n = 60 the probe full-sweeps, so the corrupt estimate
        // is visible to the sampled source set.
        assert!(
            !out.ok()
                || out
                    .invariants
                    .iter()
                    .all(|c| c.name != "distance_soundness" || c.checked > 0)
        );
    }

    #[test]
    fn audit_detects_broken_nesting() {
        let (g, mut b) = built(60, 7005);
        // Give some non-root vertex an interval outside its parent's.
        for v in g.vertices() {
            let mut rows = b.scheme.table(v).rows().to_vec();
            if let Some(t) = rows
                .iter_mut()
                .map(|e| &mut e.table)
                .find(|t| t.parent.is_some())
            {
                t.enter = u64::MAX - 1;
                t.exit = u64::MAX;
                b.scheme.replace_table(v, rows);
                break;
            }
        }
        let out = audit(&g, &b.scheme, &AuditConfig::default());
        let nesting = out
            .invariants
            .iter()
            .find(|c| c.name == "dfs_nesting")
            .unwrap();
        assert!(nesting.violations >= 1, "{nesting:?}");
    }

    #[test]
    fn perturbation_probe_reports_degradation() {
        let (g, b) = built(80, 7006);
        let cfg = AuditConfig::default();
        let intact = audit_built(&g, &b, &cfg);
        let spec = PerturbSpec {
            kill_edges: 0.4,
            kill_vertices: 0.0,
        };
        let p = probe_perturbed(&g, &b.scheme, &cfg, &spec, intact.probe.mean_stretch);
        assert!(p.killed_edges > 0);
        assert!(p.killed_edges <= g.num_edges() as u64);
        // Outcomes partition connected pairs.
        assert_eq!(
            p.probe.delivered
                + p.probe.no_common_tree
                + p.probe.stuck
                + p.probe.bad_forward
                + p.probe.looped,
            p.probe.connected
        );
        // Deterministic: same spec, same result.
        let p2 = probe_perturbed(&g, &b.scheme, &cfg, &spec, intact.probe.mean_stretch);
        assert_eq!(p, p2);
    }

    #[test]
    fn killed_vertices_are_excluded_from_sampling() {
        let (g, b) = built(64, 7007);
        let cfg = AuditConfig::default();
        let spec = PerturbSpec {
            kill_edges: 0.0,
            kill_vertices: 0.3,
        };
        let p = probe_perturbed(&g, &b.scheme, &cfg, &spec, 1.0);
        assert!(p.killed_vertices > 0);
        // Full sweep over alive vertices only: pairs = a·(a−1).
        let a = g.num_vertices() as u64 - p.killed_vertices;
        assert_eq!(p.probe.pairs, a * (a - 1));
    }

    #[test]
    fn record_conversion_round_trips() {
        let (g, b) = built(70, 7008);
        let cfg = AuditConfig::default();
        let mut record = audit_built(&g, &b, &cfg);
        let spec = PerturbSpec {
            kill_edges: 0.2,
            kill_vertices: 0.1,
        };
        record.perturbed = Some(probe_perturbed(
            &g,
            &b.scheme,
            &cfg,
            &spec,
            record.probe.mean_stretch,
        ));
        assert!(record.ok());
        let parsed = obs::audit::SchemeAudit::from_value(
            &obs::json::parse(&record.to_value().to_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(parsed, record);
        // Resident components sum to the resident total; the non-resident
        // hopset component (if any) stays out of it.
        let resident_sum: u64 = parsed
            .components
            .iter()
            .filter(|c| c.resident)
            .map(|c| c.total)
            .sum();
        assert_eq!(resident_sum, parsed.resident_total);
    }

    #[test]
    fn sample_pairs_scaling() {
        let cfg = AuditConfig::default().with_sample_pairs(100);
        assert_eq!(cfg.sources, 10);
        assert_eq!(cfg.targets_per_source, 10);
    }

    #[test]
    fn blast_radius_counts_vertices_referencing_dead_state() {
        let (g, b) = built(60, 7009);
        let intact = Overlay::new(&g);
        assert_eq!(blast_radius(&g, &b.scheme, &intact), 0);

        // Kill the top-level pivot of vertex 0: every vertex whose pivot set,
        // labels, or tables mention it becomes blasted, and v0 certainly does.
        let top = *b.scheme.pivots(VertexId(0)).last().unwrap();
        let mut o = Overlay::new(&g);
        o.kill_vertex(top.0);
        let blasted = blast_radius(&g, &b.scheme, &o);
        assert!(blasted >= 1, "killing a pivot must blast someone");
        // The dead vertex itself is never counted.
        assert!(blasted <= (g.num_vertices() - 1) as u64);

        // Killing a vertex's physical parent edge in some tree blasts that
        // vertex even though every referenced vertex is still alive.
        'outer: for v in g.vertices() {
            for e in b.scheme.table(v).rows() {
                if let Some(p) = e.table.parent {
                    if let Some(a) = g.neighbors(v).iter().find(|a| a.to == p) {
                        let mut o = Overlay::new(&g);
                        o.kill_edge(a.edge);
                        assert!(blast_radius(&g, &b.scheme, &o) >= 1);
                        break 'outer;
                    }
                }
            }
        }
    }

    #[test]
    fn overlay_probe_matches_one_shot_perturbation() {
        // probe_perturbed is the degenerate single-event case of the overlay
        // machinery: replaying the same seeded kill through an explicit
        // overlay and probing its graph must reproduce it exactly.
        let (g, b) = built(64, 7010);
        let cfg = AuditConfig::default();
        let spec = PerturbSpec {
            kill_edges: 0.2,
            kill_vertices: 0.15,
        };
        let p = probe_perturbed(&g, &b.scheme, &cfg, &spec, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut o = Overlay::new(&g);
        o.kill_random(&g, spec.kill_vertices, spec.kill_edges, &mut rng);
        let q = routing_probe(
            &o.build_graph(&g),
            &b.scheme,
            &cfg,
            Some(o.alive_vertices()),
            |_, _| {},
        );
        assert_eq!(p.probe, q);
        assert_eq!(p.killed_vertices, o.killed_vertices() as u64);
        assert_eq!(
            p.killed_edges,
            (g.num_edges() - o.surviving_edges(&g)) as u64
        );
    }
}
