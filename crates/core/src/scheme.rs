//! Assembly of the full routing scheme (Theorem 3).
//!
//! A vertex's **table** holds, for every cluster tree containing it, the
//! tree's root, the distance estimate to that root, and its tree-routing
//! table — `Õ(n^{1/k})` entries by Claim 6. A vertex's **label** holds, for
//! every level `i` with a usable pivot, the pivot `p̂_i(v)`, the estimate
//! `d̂(p̂_i(v), v)`, and `v`'s tree-routing label inside the pivot's cluster
//! tree — `O(k)` entries of `O(log n)` words each.
//!
//! Three construction modes share the pipeline and differ in what the
//! experiment measures:
//!
//! * [`Mode::Centralized`] — the Thorup–Zwick reference row: exact clusters
//!   and pivots at every level, per-tree schemes computed centrally, zero
//!   rounds reported.
//! * [`Mode::DistributedLowMemory`] — **the paper**: hopset-powered pivots
//!   and approximate clusters above the virtual level, the Theorem-2 tree
//!   routing per cluster tree (all trees in parallel at `q = 1/√(sn)`),
//!   per-vertex memory `Õ(n^{1/k})`.
//! * [`Mode::DistributedPrior`] — the \[EN16b\]-style row: same clusters, but
//!   the virtual graph is materialized (`Ω̃(√n)` memory at virtual vertices)
//!   and trees use the prior two-level scheme (`O(log n)` tables,
//!   `O(log² n)` labels).

use congest::{bfs, CostLedger, MemoryMeter, Network, WordSized};
use graphs::{tree::rank_in, Graph, VertexId, Weight, INFINITY};
use hopset::construction::{build_observed as build_hopset_observed, HopsetParams};
use hopset::virtual_graph::default_b;
use hopset::VirtualGraph;
use rand::Rng;
use tree_routing::baseline::{BaselineLabel, BaselineTable};
use tree_routing::distributed as tree_distributed;
use tree_routing::types::{TreeLabel, TreeTable};
use tree_routing::tz;

use crate::clusters::{self, LevelStats};
use crate::hierarchy::Hierarchy;
use crate::pivots::{self, LevelPivots};
use crate::sparse::SparseTree;

/// Construction mode (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Centralized Thorup–Zwick (the "NA rounds" reference).
    Centralized,
    /// The paper's low-memory distributed construction.
    DistributedLowMemory,
    /// The prior-work distributed construction (\[EN16b\]-style).
    DistributedPrior,
}

/// Parameters of the construction.
#[derive(Clone, Debug)]
pub struct BuildParams {
    /// The stretch/size tradeoff parameter `k ≥ 2`.
    pub k: usize,
    /// Which construction to run.
    pub mode: Mode,
    /// The paper's `ε` (defaults to `max(1/(48k⁴), 10⁻⁶)`).
    pub epsilon: f64,
    /// Hop-budget for hopset Bellman–Ford; `0` → auto (`2·|V'| + 16`,
    /// enough for guaranteed convergence; the *used* β is reported).
    pub beta_budget: usize,
    /// Hierarchy depth of the hopset (see [`HopsetParams`]).
    pub hopset_levels: usize,
}

impl BuildParams {
    /// Defaults for a given `k`, in the paper's distributed low-memory mode.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "the scheme needs k >= 2");
        let kf = k as f64;
        BuildParams {
            k,
            mode: Mode::DistributedLowMemory,
            epsilon: (1.0 / (48.0 * kf.powi(4))).max(1e-6),
            beta_budget: 0,
            hopset_levels: 2,
        }
    }

    /// Accepted and ignored; the engine is serial.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Same parameters, different mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Override `ε`.
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.2, "paper requires 0 < ε < 1/5");
        self.epsilon = eps;
        self
    }
}

/// Which tree-scheme family a table/label entry carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeTableKind {
    /// Theorem-2 tables (`O(1)` words).
    Ours(TreeTable),
    /// Prior two-level tables (`O(log n)` words).
    Prior(BaselineTable),
}

impl WordSized for TreeTableKind {
    fn words(&self) -> usize {
        match self {
            TreeTableKind::Ours(t) => t.words(),
            TreeTableKind::Prior(t) => t.words(),
        }
    }
}

/// Tree labels, same split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeLabelKind {
    /// Theorem-2 labels (`O(log n)` words).
    Ours(TreeLabel),
    /// Prior two-level labels (`O(log² n)` words).
    Prior(BaselineLabel),
}

impl WordSized for TreeLabelKind {
    fn words(&self) -> usize {
        match self {
            TreeLabelKind::Ours(l) => l.words(),
            TreeLabelKind::Prior(l) => l.words(),
        }
    }
}

/// One table row: a cluster tree this vertex belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// The cluster center / tree root.
    pub root: VertexId,
    /// The root's hierarchy level.
    pub level: usize,
    /// The construction's distance estimate to the root (≥ true distance).
    pub dist: Weight,
    /// The tree-routing table inside this tree.
    pub table: TreeTableKind,
}

impl WordSized for TableEntry {
    fn words(&self) -> usize {
        3 + self.table.words()
    }
}

/// A vertex's routing table: entries sorted by root id.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    /// Rows, sorted by `root`.
    entries: Vec<TableEntry>,
}

impl RoutingTable {
    /// A table holding `rows`, which lookups expect sorted by `root`.
    pub fn from_rows(rows: Vec<TableEntry>) -> Self {
        RoutingTable { entries: rows }
    }

    /// Every row, ascending by root.
    pub fn rows(&self) -> &[TableEntry] {
        &self.entries
    }

    /// The row for tree `root`, if this vertex is in that tree.
    #[inline]
    pub fn entry(&self, root: VertexId) -> Option<&TableEntry> {
        self.entries
            .binary_search_by_key(&root, |e| e.root)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The rows, open to in-place corruption (fault injection only; to
    /// drop rows, replace the table with [`Self::from_rows`]).
    pub fn rows_mut(&mut self) -> &mut [TableEntry] {
        &mut self.entries
    }
}

impl WordSized for RoutingTable {
    fn words(&self) -> usize {
        self.entries.iter().map(WordSized::words).sum()
    }
}

/// One label row: a level whose pivot tree contains the labeled vertex.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelEntry {
    /// The hierarchy level `i`.
    pub level: usize,
    /// The (approximate) pivot `p̂_i(v)`.
    pub pivot: VertexId,
    /// Estimated distance from the pivot's tree root to `v`.
    pub dist: Weight,
    /// `v`'s tree-routing label inside the pivot's cluster tree.
    pub tree_label: TreeLabelKind,
}

impl WordSized for LabelEntry {
    fn words(&self) -> usize {
        3 + self.tree_label.words()
    }
}

/// A vertex's routing label: entries in increasing level order.
#[derive(Clone, Debug, Default)]
pub struct RoutingLabel {
    /// Rows, ascending by `level`.
    entries: Vec<LabelEntry>,
}

impl RoutingLabel {
    /// A label holding `rows`, ascending by level.
    pub fn from_rows(rows: Vec<LabelEntry>) -> Self {
        RoutingLabel { entries: rows }
    }

    /// Every row, ascending by level.
    pub fn rows(&self) -> &[LabelEntry] {
        &self.entries
    }

    /// The rows, open to in-place corruption (fault injection only; to
    /// drop rows, replace the label with [`Self::from_rows`]).
    pub fn rows_mut(&mut self) -> &mut [LabelEntry] {
        &mut self.entries
    }
}

impl WordSized for RoutingLabel {
    fn words(&self) -> usize {
        self.entries.iter().map(WordSized::words).sum()
    }
}

/// The assembled scheme.
///
/// How tables, labels and pivots are laid out in memory is this module's
/// business alone (plus [`crate::persist`], through [`Self::from_parts`] and
/// the read accessors): every other reader goes through the borrowed views
/// below, so the representation can change without touching them.
#[derive(Clone, Debug)]
pub struct RoutingScheme {
    /// The parameter `k`.
    pub k: usize,
    /// The construction mode that produced this scheme.
    pub mode: Mode,
    /// Per-vertex tables.
    tables: Vec<RoutingTable>,
    /// Per-vertex labels.
    labels: Vec<RoutingLabel>,
    /// Per vertex, per level `i`: the (approximate) pivot `p̂_i(v)` and the
    /// estimate `d̂(v, A_i)` — `O(k)` words each, the extra state the
    /// Thorup–Zwick *distance oracle* ([`crate::oracle`]) queries against.
    pivot_info: Vec<Vec<(VertexId, Weight)>>,
}

impl RoutingScheme {
    /// Assemble a scheme from per-vertex tables, labels and pivot lists.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors do not cover the same vertex set.
    pub fn from_parts(
        k: usize,
        mode: Mode,
        tables: Vec<RoutingTable>,
        labels: Vec<RoutingLabel>,
        pivot_info: Vec<Vec<(VertexId, Weight)>>,
    ) -> Self {
        assert_eq!(tables.len(), labels.len(), "one label per table");
        assert_eq!(tables.len(), pivot_info.len(), "one pivot list per table");
        RoutingScheme {
            k,
            mode,
            tables,
            labels,
            pivot_info,
        }
    }

    /// Number of vertices the scheme covers.
    pub fn num_vertices(&self) -> usize {
        self.tables.len()
    }

    /// The covered vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.tables.len() as u32).map(VertexId)
    }

    /// The routing table of `v`.
    #[inline]
    pub fn table(&self, v: VertexId) -> &RoutingTable {
        &self.tables[v.index()]
    }

    /// `v`'s row for the tree rooted at `root`, if `v` is in that tree.
    #[inline]
    pub fn entry(&self, v: VertexId, root: VertexId) -> Option<&TableEntry> {
        self.table(v).entry(root)
    }

    /// The routing label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> &RoutingLabel {
        &self.labels[v.index()]
    }

    /// Per level `i`, `v`'s (approximate) pivot `p̂_i(v)` and the estimate
    /// `d̂(v, A_i)`.
    #[inline]
    pub fn pivots(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.pivot_info[v.index()]
    }

    /// The table of `v`, open to corruption (fault injection only).
    pub fn table_mut(&mut self, v: VertexId) -> &mut RoutingTable {
        &mut self.tables[v.index()]
    }

    /// The label of `v`, open to corruption (fault injection only).
    pub fn label_mut(&mut self, v: VertexId) -> &mut RoutingLabel {
        &mut self.labels[v.index()]
    }

    /// Largest table, in words.
    pub fn max_table_words(&self) -> usize {
        self.tables.iter().map(WordSized::words).max().unwrap_or(0)
    }

    /// Largest label, in words.
    pub fn max_label_words(&self) -> usize {
        self.labels.iter().map(WordSized::words).max().unwrap_or(0)
    }

    /// Words of routing state vertex `v` holds once construction scratch is
    /// gone: its table, its label, and its `(pivot, distance)` pairs (two
    /// words each). This is exactly what the assembly phase charges to the
    /// [`MemoryMeter`], so audits can reconcile component-level attribution
    /// against the metered totals word for word.
    pub fn resident_words(&self, v: VertexId) -> usize {
        self.tables[v.index()].words()
            + self.labels[v.index()].words()
            + 2 * self.pivot_info[v.index()].len()
    }
}

/// Everything the construction measured about itself.
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// Total CONGEST rounds charged (0 in centralized mode).
    pub rounds: u64,
    /// Total logical messages.
    pub messages: u64,
    /// Per-vertex memory peaks.
    pub memory: MemoryMeter,
    /// Depth of the BFS broadcast backbone (≤ D).
    pub bfs_depth: usize,
    /// `|V'| = |A_{⌈k/2⌉}|` (0 when no approximate levels were needed).
    pub virtual_count: usize,
    /// Directed hopset records built.
    pub hopset_edges: usize,
    /// Hopset arboricity bound (max out-degree).
    pub hopset_arboricity: usize,
    /// Largest Bellman–Ford iteration count used anywhere (empirical β).
    pub beta_used: usize,
    /// Number of cluster trees (= n).
    pub cluster_count: usize,
    /// Total cluster memberships.
    pub total_membership: usize,
    /// Max memberships of a single vertex — the paper's `s ≤ 4n^{1/k}·ln n`.
    pub max_membership: usize,
    /// Per-level construction statistics.
    pub level_stats: Vec<LevelStats>,
    /// Largest table in words.
    pub max_table_words: usize,
    /// Largest label in words.
    pub max_label_words: usize,
    /// Rounds spent in the tree-routing stage (included in `rounds`).
    pub tree_stage_rounds: u64,
}

impl std::fmt::Display for BuildReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "rounds            : {}", self.rounds)?;
        writeln!(
            f,
            "peak memory       : {} words/vertex",
            self.memory.max_peak()
        )?;
        writeln!(
            f,
            "max table / label : {} / {} words",
            self.max_table_words, self.max_label_words
        )?;
        writeln!(
            f,
            "clusters          : {} ({} memberships, s = {})",
            self.cluster_count, self.total_membership, self.max_membership
        )?;
        writeln!(
            f,
            "hopset            : {} edges, arboricity {}, beta {}",
            self.hopset_edges, self.hopset_arboricity, self.beta_used
        )?;
        write!(
            f,
            "backbone depth    : {} (|V'| = {})",
            self.bfs_depth, self.virtual_count
        )
    }
}

/// The built scheme plus its cluster trees (kept for verification/benches).
#[derive(Clone, Debug)]
pub struct Built {
    /// The routing scheme.
    pub scheme: RoutingScheme,
    /// All cluster trees, in construction order.
    pub trees: Vec<SparseTree>,
    /// The hopset, when the construction needed one (`None` in centralized
    /// mode or when no approximate level existed). Retained so audits can
    /// spot-check hopset records against their realizing `G`-paths.
    pub hopset: Option<hopset::Hopset>,
    /// Construction measurements.
    pub report: BuildReport,
}

/// One cluster tree's finished tree-routing scheme in either family: the
/// members ascending by id, with their tables and labels by rank.
struct TreeRows {
    members: Vec<VertexId>,
    tables: Vec<TreeTableKind>,
    labels: Vec<TreeLabelKind>,
}

impl TreeRows {
    fn new<T, L>(
        (members, tables, labels): (Vec<VertexId>, Vec<T>, Vec<L>),
        table_kind: fn(T) -> TreeTableKind,
        label_kind: fn(L) -> TreeLabelKind,
    ) -> Self {
        TreeRows {
            members,
            tables: tables.into_iter().map(table_kind).collect(),
            labels: labels.into_iter().map(label_kind).collect(),
        }
    }
}

/// Build a routing scheme for `g`.
///
/// # Panics
///
/// Panics if `g` is empty. Disconnected graphs are allowed; routing between
/// components fails at the routing phase with `NoCommonTree`.
pub fn build<R: Rng>(g: &Graph, params: &BuildParams, rng: &mut R) -> Built {
    build_observed(g, params, rng, &mut obs::Recorder::disabled())
}

/// [`build`], attributing each pipeline phase to a span on `rec`:
/// `scheme/backbone`, `scheme/hierarchy`, `scheme/hopset` (with the hopset's
/// own per-level spans nested beneath it), `scheme/pivots`,
/// `scheme/clusters`, `scheme/tree-routing`, and `scheme/assembly`. Span
/// counter deltas partition the ledger totals exactly, and each span closes
/// with a per-vertex peak-memory distribution snapshot.
///
/// # Panics
///
/// Panics if `g` is empty (as [`build`]).
pub fn build_observed<R: Rng>(
    g: &Graph,
    params: &BuildParams,
    rng: &mut R,
    rec: &mut obs::Recorder,
) -> Built {
    let n = g.num_vertices();
    assert!(n > 0, "graph must be non-empty");
    let k = params.k;
    let mut ledger = CostLedger::new();
    let mut memory = MemoryMeter::new(n);
    let distributed = params.mode != Mode::Centralized;

    // Backbone.
    let backbone_span = rec.begin("scheme/backbone");
    let network = Network::new(g.clone());
    let d = if distributed {
        let out = bfs::build_bfs_tree(&network, VertexId(0));
        ledger.charge_rounds_span(out.stats.rounds, rec);
        for v in g.vertices() {
            memory.add(v, 3);
        }
        out.depth
    } else {
        0
    };
    rec.end_with_memory(backbone_span, memory.peaks());

    // Hierarchy (k coins per vertex, zero rounds).
    let hierarchy_span = rec.begin("scheme/hierarchy");
    let hier = Hierarchy::sample(n, k, rng);
    for v in g.vertices() {
        memory.add(v, k);
    }
    let realized = hier.realized_levels();
    let split = k.div_ceil(2).min(realized);
    rec.end_with_memory(hierarchy_span, memory.peaks());

    // Virtual machinery, when any level at or above `split` exists and we
    // are distributed. (Centralized mode computes everything exactly.)
    let needs_virtual = distributed && realized > split;
    let virt =
        needs_virtual.then(|| VirtualGraph::from_set(g, hier.set(split).to_vec(), default_b(n)));
    let mut hopset_edges = 0;
    let mut hopset_arboricity = 0;
    let mut beta_used = 0;
    let hopset_span = rec.begin("scheme/hopset");
    let hs = virt.as_ref().map(|virt| {
        let out = build_hopset_observed(
            g,
            virt,
            HopsetParams {
                levels: params.hopset_levels,
            },
            d as u64,
            &mut ledger,
            &mut memory,
            rng,
            rec,
        );
        hopset_edges = out.stats.edges;
        hopset_arboricity = out.stats.arboricity;
        out.hopset
    });
    if params.mode == Mode::DistributedPrior {
        if let Some(virt) = virt.as_ref() {
            // The prior construction materializes the virtual graph: every
            // virtual vertex stores its E' incident edges — the Ω̃(√n)
            // memory step the paper eliminates.
            let edges = virt.materialize(g);
            ledger.charge_broadcast_span(edges.len() as u64, d as u64, rec);
            for &(u, v, _) in &edges {
                memory.add(u, 2);
                memory.add(v, 2);
            }
        }
    }
    rec.end_with_memory(hopset_span, memory.peaks());
    let beta_budget = if params.beta_budget > 0 {
        params.beta_budget
    } else {
        2 * virt.as_ref().map_or(0, |v| v.virtual_vertices().len()) + 16
    };

    // Pivots per level 1..=realized (level 0 is trivially "self"; level
    // `realized` and beyond is unreachable = A_k). The pivot routines charge
    // the ledger directly, so the phase span syncs the counter delta.
    let pivots_span = rec.begin("scheme/pivots");
    let pivots_entry = ledger.counters();
    let mut pivot_levels: Vec<LevelPivots> = Vec::with_capacity(realized + 1);
    pivot_levels.push(LevelPivots {
        dist: vec![0; n],
        pivot: (0..n as u32).map(|v| Some(VertexId(v))).collect(),
        exact: true,
        beta_used: 0,
    });
    for j in 1..=realized {
        let set = hier.set(j).to_vec();
        let lp = if set.is_empty() {
            LevelPivots::unreachable(n)
        } else if !distributed {
            // Centralized: exact, zero rounds.
            let mut scratch = CostLedger::new();
            pivots::exact_pivots(g, &set, n, &mut scratch, &mut memory)
        } else if j <= split {
            pivots::exact_pivots(
                g,
                &set,
                pivots::exploration_depth(n, j, k),
                &mut ledger,
                &mut memory,
            )
        } else {
            let virt = virt.as_ref().expect("approx levels imply virtual set");
            let hs = hs.as_ref().expect("approx levels imply hopset");
            let lp = pivots::approx_pivots(
                g,
                virt,
                hs,
                &set,
                beta_budget,
                d as u64,
                &mut ledger,
                &mut memory,
            );
            beta_used = beta_used.max(lp.beta_used);
            lp
        };
        for v in g.vertices() {
            memory.add(v, 2); // stores (d̂, pivot) for this level
        }
        pivot_levels.push(lp);
    }
    while pivot_levels.len() <= realized + 1 {
        pivot_levels.push(LevelPivots::unreachable(n));
    }
    rec.charge(&ledger.counters().delta_since(&pivots_entry));
    rec.end_with_memory(pivots_span, memory.peaks());

    // Clusters per level.
    let clusters_span = rec.begin("scheme/clusters");
    let clusters_entry = ledger.counters();
    let mut trees: Vec<SparseTree> = Vec::new();
    let mut level_stats: Vec<LevelStats> = Vec::new();
    for i in 0..realized {
        let roots: Vec<VertexId> = hier.exactly(i).collect();
        if roots.is_empty() {
            level_stats.push(LevelStats::default());
            continue;
        }
        let next = &pivot_levels[i + 1];
        let approx = match (virt.as_ref(), hs.as_ref()) {
            (Some(virt), Some(hs)) if distributed && i >= split => Some((virt, hs)),
            _ => None,
        };
        let (mut lvl_trees, stats) = if let Some((virt, hs)) = approx {
            clusters::approx_clusters(
                g,
                virt,
                hs,
                &roots,
                i,
                &next.dist,
                params.epsilon,
                beta_budget,
                d as u64,
                &mut ledger,
                &mut memory,
            )
        } else {
            let mut scratch = CostLedger::new();
            let led = if distributed {
                &mut ledger
            } else {
                &mut scratch
            };
            clusters::exact_clusters(
                g,
                &roots,
                i,
                &next.dist,
                pivots::exploration_depth(n, i + 1, k),
                led,
                &mut memory,
            )
        };
        beta_used = beta_used.max(stats.beta_used);
        level_stats.push(stats);
        trees.append(&mut lvl_trees);
    }
    rec.charge(&ledger.counters().delta_since(&clusters_entry));
    rec.end_with_memory(clusters_span, memory.peaks());

    // Tree-routing stage: one exact tree scheme per cluster tree. In the
    // distributed modes all trees run in parallel with random start offsets
    // (Theorem 2's second assertion): q = 1/√(sn), window = √(sn)·log n.
    let tree_span = rec.begin("scheme/tree-routing");
    let tree_entry = ledger.counters();
    // Overlap s: memberships per vertex.
    let mut overlap = vec![0usize; n];
    for t in &trees {
        for &u in t.members.keys() {
            overlap[u.index()] += 1;
        }
    }
    let max_membership = overlap.iter().copied().max().unwrap_or(0);
    let total_membership: usize = trees.iter().map(SparseTree::len).sum();
    let s = max_membership.max(1);
    let q_tree = (1.0 / ((s * n) as f64).sqrt()).clamp(0.0, 1.0);
    let window = (((s * n) as f64).sqrt() as u64 + 1)
        * (tree_distributed::log2_ceil(n.max(2)) as u64).max(1);
    let mut tree_rows: Vec<TreeRows> = Vec::with_capacity(trees.len());
    let mut tree_stage_rounds = 0u64;
    let mut max_finish = 0u64;
    for t in &trees {
        let rooted = t.to_rooted(n);
        // Each distributed arm also returns what the tree's run cost.
        let (rows, cost) = match params.mode {
            Mode::Centralized => {
                let scheme = tz::build(&rooted);
                let rows = TreeRows::new(
                    scheme.into_parts(),
                    TreeTableKind::Ours,
                    TreeLabelKind::Ours,
                );
                (rows, None)
            }
            Mode::DistributedLowMemory => {
                let out = tree_distributed::build(
                    &network,
                    &rooted,
                    &tree_distributed::Config {
                        q: Some(q_tree),
                        backbone_depth: Some(d),
                    },
                    rng,
                );
                let rows = TreeRows::new(
                    out.scheme.into_parts(),
                    TreeTableKind::Ours,
                    TreeLabelKind::Ours,
                );
                (rows, Some((out.ledger, out.memory)))
            }
            Mode::DistributedPrior => {
                let out = tree_routing::baseline::build_with_backbone(
                    &network,
                    &rooted,
                    Some(q_tree),
                    Some(d),
                    rng,
                );
                let rows = TreeRows::new(
                    out.scheme.into_parts(),
                    TreeTableKind::Prior,
                    TreeLabelKind::Prior,
                );
                (rows, Some((out.ledger, out.memory)))
            }
        };
        if let Some((tree_ledger, tree_memory)) = cost {
            let offset = rng.gen_range(0..=window);
            max_finish = max_finish.max(offset + tree_ledger.rounds());
            ledger.charge_messages(tree_ledger.messages());
            memory.merge_concurrent(&rows.members, &tree_memory);
        }
        tree_rows.push(rows);
    }
    if distributed {
        tree_stage_rounds = window + max_finish;
        ledger.charge_rounds(tree_stage_rounds);
    }
    rec.charge(&ledger.counters().delta_since(&tree_entry));
    rec.end_with_memory(tree_span, memory.peaks());

    // Assemble per-vertex tables: every tree hands each member its row.
    // Visiting the trees by ascending root leaves every table sorted.
    let assembly_span = rec.begin("scheme/assembly");
    let mut tables: Vec<RoutingTable> = overlap
        .iter()
        .map(|&rows| RoutingTable {
            entries: Vec::with_capacity(rows),
        })
        .collect();
    let mut by_root: Vec<usize> = (0..trees.len()).collect();
    by_root.sort_by_key(|&idx| trees[idx].root);
    for idx in by_root {
        let (t, rows) = (&trees[idx], &mut tree_rows[idx]);
        for (u, table) in rows.members.iter().zip(std::mem::take(&mut rows.tables)) {
            tables[u.index()].entries.push(TableEntry {
                root: t.root,
                level: t.level,
                dist: t.members[u].dist,
                table,
            });
        }
    }

    // Assemble per-vertex labels.
    let mut tree_of_root = vec![usize::MAX; n];
    for (idx, t) in trees.iter().enumerate() {
        tree_of_root[t.root.index()] = idx;
    }
    let mut labels: Vec<RoutingLabel> = (0..n).map(|_| RoutingLabel::default()).collect();
    for v in g.vertices() {
        for (i, lvl) in pivot_levels.iter().enumerate().take(realized) {
            let (pivot, _pdist) = match (lvl.pivot[v.index()], lvl.dist[v.index()]) {
                (Some(p), pd) if pd != INFINITY => (p, pd),
                _ => continue,
            };
            let idx = tree_of_root[pivot.index()];
            if idx == usize::MAX {
                continue;
            }
            let Some(rank) = rank_in(&tree_rows[idx].members, v) else {
                continue; // v outside the pivot's tree: skip this level
            };
            labels[v.index()].entries.push(LabelEntry {
                level: i,
                pivot,
                dist: trees[idx].members[&v].dist,
                tree_label: tree_rows[idx].labels[rank].clone(),
            });
        }
    }
    drop(tree_rows);

    // Pivot info retained per vertex (O(k) words; powers the oracle).
    let pivot_info: Vec<Vec<(VertexId, Weight)>> = g
        .vertices()
        .map(|v| {
            (0..realized)
                .filter_map(|i| {
                    match (
                        pivot_levels[i].pivot[v.index()],
                        pivot_levels[i].dist[v.index()],
                    ) {
                        (Some(p), d) if d != INFINITY => Some((p, d)),
                        _ => None,
                    }
                })
                .collect()
        })
        .collect();

    let scheme = RoutingScheme::from_parts(k, params.mode, tables, labels, pivot_info);
    // Final outputs are part of the memory bound; charging through
    // `resident_words` keeps the meter and the audit attribution on the
    // same definition of "what a vertex holds".
    for v in g.vertices() {
        memory.add(v, scheme.resident_words(v));
    }
    let max_table_words = scheme.max_table_words();
    let max_label_words = scheme.max_label_words();
    rec.end_with_memory(assembly_span, memory.peaks());
    rec.set_run_memory(memory.peaks());
    let report = BuildReport {
        rounds: if distributed { ledger.rounds() } else { 0 },
        messages: ledger.messages(),
        memory,
        bfs_depth: d,
        virtual_count: virt.as_ref().map_or(0, |v| v.virtual_vertices().len()),
        hopset_edges,
        hopset_arboricity,
        beta_used,
        cluster_count: trees.len(),
        total_membership,
        max_membership,
        level_stats,
        max_table_words,
        max_label_words,
        tree_stage_rounds,
    };
    Built {
        scheme,
        trees,
        hopset: hs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn er(n: usize, seed: u64) -> (Graph, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        (g, rng)
    }

    #[test]
    fn every_vertex_roots_exactly_one_tree() {
        let (g, mut rng) = er(100, 301);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        assert_eq!(built.trees.len(), 100);
        let mut roots: Vec<VertexId> = built.trees.iter().map(|t| t.root).collect();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), 100);
    }

    #[test]
    fn every_vertex_has_a_top_level_label_entry() {
        let (g, mut rng) = er(100, 302);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        for v in g.vertices() {
            assert!(
                !built.scheme.labels[v.index()].entries.is_empty(),
                "{v} has an empty label"
            );
        }
    }

    #[test]
    fn tables_contain_own_cluster() {
        let (g, mut rng) = er(80, 303);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        for v in g.vertices() {
            let entry = built.scheme.tables[v.index()].entry(v);
            assert!(entry.is_some(), "{v} missing its own cluster");
            assert_eq!(entry.unwrap().dist, 0);
        }
    }

    #[test]
    fn centralized_mode_reports_zero_rounds() {
        let (g, mut rng) = er(60, 304);
        let built = build(
            &g,
            &BuildParams::new(2).with_mode(Mode::Centralized),
            &mut rng,
        );
        assert_eq!(built.report.rounds, 0);
        assert!(built.report.max_table_words > 0);
    }

    #[test]
    fn distributed_matches_structure_of_centralized() {
        // Same seeds → same hierarchy → same exact-level clusters; the
        // distributed low-memory run must produce tables/labels for the same
        // membership structure.
        let (g, _) = er(80, 305);
        let mut rng1 = ChaCha8Rng::seed_from_u64(999);
        let mut rng2 = ChaCha8Rng::seed_from_u64(999);
        let c = build(
            &g,
            &BuildParams::new(2).with_mode(Mode::Centralized),
            &mut rng1,
        );
        let d = build(&g, &BuildParams::new(2), &mut rng2);
        assert_eq!(c.trees.len(), d.trees.len());
        // Exact levels coincide exactly.
        for (tc, td) in c.trees.iter().zip(&d.trees) {
            if tc.level == 0 {
                assert_eq!(tc.root, td.root);
                let mc: std::collections::BTreeSet<_> = tc.members.keys().collect();
                let md: std::collections::BTreeSet<_> = td.members.keys().collect();
                assert_eq!(mc, md, "level-0 cluster of {} differs", tc.root);
            }
        }
    }

    #[test]
    fn membership_bound_claim6() {
        let (g, mut rng) = er(200, 306);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let n = 200f64;
        let bound = 4.0 * n.powf(0.5) * n.ln();
        assert!(
            (built.report.max_membership as f64) <= bound,
            "membership {} exceeds Claim 6 bound {}",
            built.report.max_membership,
            bound
        );
    }

    #[test]
    fn prior_mode_uses_more_memory() {
        let (g, _) = er(250, 307);
        let mut rng1 = ChaCha8Rng::seed_from_u64(7);
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let ours = build(&g, &BuildParams::new(2), &mut rng1);
        let prior = build(
            &g,
            &BuildParams::new(2).with_mode(Mode::DistributedPrior),
            &mut rng2,
        );
        assert!(
            prior.report.memory.max_peak() > ours.report.memory.max_peak(),
            "prior {} should exceed ours {}",
            prior.report.memory.max_peak(),
            ours.report.memory.max_peak()
        );
        // Prior labels carry the log² factor.
        assert!(prior.report.max_label_words >= ours.report.max_label_words);
    }

    #[test]
    fn larger_k_means_smaller_tables() {
        let (g, _) = er(300, 308);
        let mut rng1 = ChaCha8Rng::seed_from_u64(11);
        let mut rng2 = ChaCha8Rng::seed_from_u64(11);
        let k2 = build(&g, &BuildParams::new(2), &mut rng1);
        let k4 = build(&g, &BuildParams::new(4), &mut rng2);
        assert!(
            k4.report.total_membership < k2.report.total_membership,
            "k=4 memberships {} should be below k=2 {}",
            k4.report.total_membership,
            k2.report.total_membership
        );
    }

    #[test]
    fn observed_build_phases_partition_the_ledger() {
        let (g, mut rng) = er(120, 310);
        let mut rec = obs::Recorder::new();
        let built = build_observed(&g, &BuildParams::new(3), &mut rng, &mut rec);
        // Every ledger charge is attributed to exactly one top-level phase.
        assert_eq!(rec.totals().rounds, built.report.rounds);
        assert_eq!(rec.totals().messages, built.report.messages);
        let top: Vec<&str> = rec
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            top,
            [
                "scheme/backbone",
                "scheme/hierarchy",
                "scheme/hopset",
                "scheme/pivots",
                "scheme/clusters",
                "scheme/tree-routing",
                "scheme/assembly",
            ]
        );
        let sum: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.delta.rounds)
            .sum();
        assert_eq!(sum, rec.totals().rounds);
        // The hopset's own spans nest beneath scheme/hopset.
        let hopset_seq = rec
            .spans()
            .iter()
            .find(|s| s.name == "scheme/hopset")
            .unwrap()
            .seq;
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.parent == Some(hopset_seq) && s.name.starts_with("hopset/")));
        // The assembly span's memory snapshot is the final peak.
        assert_eq!(
            rec.spans().last().unwrap().peak_memory_words,
            built.report.memory.max_peak()
        );
    }

    #[test]
    fn observed_build_equals_plain_build() {
        // Same seed, recorder on vs. off: identical scheme and report.
        let (g, _) = er(90, 311);
        let mut rng1 = ChaCha8Rng::seed_from_u64(42);
        let mut rng2 = ChaCha8Rng::seed_from_u64(42);
        let plain = build(&g, &BuildParams::new(2), &mut rng1);
        let mut rec = obs::Recorder::new();
        let observed = build_observed(&g, &BuildParams::new(2), &mut rng2, &mut rec);
        assert_eq!(plain.report.rounds, observed.report.rounds);
        assert_eq!(plain.report.messages, observed.report.messages);
        assert_eq!(
            plain.report.memory.max_peak(),
            observed.report.memory.max_peak()
        );
        assert_eq!(plain.trees.len(), observed.trees.len());
        assert_eq!(
            plain.report.max_table_words,
            observed.report.max_table_words
        );
    }

    #[test]
    fn label_entries_are_sorted_and_bounded_by_k() {
        let (g, mut rng) = er(120, 309);
        let built = build(&g, &BuildParams::new(3), &mut rng);
        for v in g.vertices() {
            let entries = &built.scheme.labels[v.index()].entries;
            assert!(entries.len() <= 3);
            for w in entries.windows(2) {
                assert!(w[0].level < w[1].level);
            }
        }
    }
}
