//! Assembly of the full routing scheme (Theorem 3).
//!
//! A vertex's **table** holds, for every cluster tree containing it, the
//! tree's root, the distance estimate to that root, and its tree-routing
//! table — `Õ(n^{1/k})` entries by Claim 6. A vertex's **label** holds, for
//! every level `i` with a usable pivot, the pivot `p̂_i(v)`, the estimate
//! `d̂(p̂_i(v), v)`, and `v`'s tree-routing label inside the pivot's cluster
//! tree — `O(k)` entries of `O(log n)` words each.
//!
//! Two construction modes share the pipeline and differ in what the
//! experiment measures:
//!
//! * [`Mode::Centralized`] — the Thorup–Zwick reference row: exact clusters
//!   and pivots at every level, per-tree schemes computed centrally, zero
//!   rounds reported.
//! * [`Mode::DistributedLowMemory`] — **the paper**: hopset-powered pivots
//!   and approximate clusters above the virtual level, the Theorem-2 tree
//!   routing per cluster tree (all trees in parallel at `q = 1/√(sn)`),
//!   per-vertex memory `Õ(n^{1/k})`.
//!
//! The \[EN16b\]-style comparison row runs the same stages with its own tree
//! scheme and keeps its own rows; it lives in [`crate::prior`].

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;

use congest::{bfs, MemoryMeter, Network, WordSized};
use graphs::{tree::rank_in, Graph, RootedTree, VertexId, Weight, INFINITY};
use hopset::construction::{build as build_hopset, HopsetParams};
use hopset::virtual_graph::default_b;
use hopset::VirtualGraph;
use rand::Rng;
use tree_routing::distributed as tree_distributed;
use tree_routing::multi::Schedule;
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
}

/// Parameters of the construction.
#[derive(Clone, Debug)]
pub struct BuildParams {
    /// The stretch/size tradeoff parameter `k ≥ 2`.
    pub k: usize,
    /// Which construction to run.
    pub mode: Mode,
}

impl BuildParams {
    /// Defaults for a given `k`, in the paper's distributed low-memory mode.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "the scheme needs k >= 2");
        BuildParams {
            k,
            mode: Mode::DistributedLowMemory,
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
}

/// One table row: a cluster tree this vertex belongs to. The tree-routing
/// table `T` is the paper's Theorem-2 table; only the comparison row in
/// [`crate::prior`] names another. `root` and `level` share one 8-byte slot,
/// so a row holding a [`TreeTable`] is 48 B.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableEntry<T = TreeTable> {
    /// The cluster center / tree root.
    pub root: VertexId,
    /// The root's hierarchy level (below `k`).
    pub level: u32,
    /// The construction's distance estimate to the root (≥ true distance).
    pub dist: Weight,
    /// The tree-routing table inside this tree.
    pub table: T,
}

impl<T: WordSized> WordSized for TableEntry<T> {
    fn words(&self) -> usize {
        3 + self.table.words()
    }
}

/// A vertex's routing table: entries sorted by root id, with the roots
/// repeated in a key column of their own. A lookup binary-searches the
/// 4-byte keys and touches exactly one row, instead of pulling a cache line
/// of every row it compares. The key column duplicates `root`, so it is not
/// state the vertex holds: [`WordSized`] counts the rows alone.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    /// `entries[i].root`, for every `i`.
    roots: Vec<VertexId>,
    /// Rows, sorted by `root`.
    entries: Vec<TableEntry>,
}

impl RoutingTable {
    /// A table holding `rows`, which lookups expect sorted by `root`.
    pub fn from_rows(rows: Vec<TableEntry>) -> Self {
        RoutingTable {
            roots: rows.iter().map(|e| e.root).collect(),
            entries: rows,
        }
    }

    /// Every row, ascending by root.
    pub fn rows(&self) -> &[TableEntry] {
        &self.entries
    }

    /// The index in [`Self::rows`] of the row for tree `root`, if this
    /// vertex is in that tree: the one search of the key column.
    #[inline]
    pub fn position(&self, root: VertexId) -> Option<usize> {
        self.roots.binary_search(&root).ok()
    }

    /// The row for tree `root`, if this vertex is in that tree.
    #[inline]
    pub fn entry(&self, root: VertexId) -> Option<&TableEntry> {
        self.position(root).map(|i| &self.entries[i])
    }
}

impl WordSized for RoutingTable {
    fn words(&self) -> usize {
        row_words(&self.entries)
    }
}

/// One label row: a level whose pivot tree contains the labeled vertex,
/// with its tree-routing label `L` there (as [`TableEntry`]'s `T`).
#[derive(Clone, Debug, PartialEq)]
pub struct LabelEntry<L = TreeLabel> {
    /// The hierarchy level `i`.
    pub level: usize,
    /// The (approximate) pivot `p̂_i(v)`.
    pub pivot: VertexId,
    /// Estimated distance from the pivot's tree root to `v`.
    pub dist: Weight,
    /// `v`'s tree-routing label inside the pivot's cluster tree.
    pub tree_label: L,
}

impl<L: WordSized> WordSized for LabelEntry<L> {
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
}

impl WordSized for RoutingLabel {
    fn words(&self) -> usize {
        row_words(&self.entries)
    }
}

/// Which neighbour a row link leads to: the row's tree parent or its heavy
/// child, the two hops a walk takes without consulting the target's label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Link {
    /// The tree parent ([`TreeTable::parent`]).
    Up,
    /// The heavy child ([`TreeTable::heavy`]).
    Down,
}

/// Row links a walk has learned: for a row of `v`'s table, the index of the
/// same tree's row in the table of the row's parent and of its heavy child
/// (DESIGN.md §4g, "Row links"). They are hints about a neighbour's table,
/// never routing state: a walk checks the root of the row a link names
/// before it follows it, so a missing or stale link costs one search and
/// changes no answer. Nothing is allocated until a walk learns its first
/// link; a clone starts empty, and so does a scheme whose table was
/// replaced.
#[derive(Default)]
struct RowLinks(OnceLock<LinkArrays>);

/// Per vertex, the first of its rows' slots; per row, the learned link up
/// and down, each the target row's index plus one (0: not learned).
struct LinkArrays {
    offsets: Box<[usize]>,
    up: Box<[AtomicU16]>,
    down: Box<[AtomicU16]>,
}

impl LinkArrays {
    /// Empty links for `tables`.
    fn new(tables: &[RoutingTable]) -> Self {
        let mut offsets = Vec::with_capacity(tables.len() + 1);
        let mut total = 0;
        offsets.push(0);
        for t in tables {
            total += t.entries.len();
            offsets.push(total);
        }
        let empty = || (0..total).map(|_| AtomicU16::new(0)).collect();
        LinkArrays {
            offsets: offsets.into(),
            up: empty(),
            down: empty(),
        }
    }

    /// The slot of row `row` of `v`'s table toward `dir`.
    #[inline]
    fn slot(&self, v: VertexId, row: usize, dir: Link) -> &AtomicU16 {
        let slots = match dir {
            Link::Up => &self.up,
            Link::Down => &self.down,
        };
        &slots[self.offsets[v.index()] + row]
    }
}

impl Clone for RowLinks {
    /// Links are learned per scheme value: a clone learns its own.
    fn clone(&self) -> Self {
        RowLinks::default()
    }
}

impl std::fmt::Debug for RowLinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.0.get().map_or(0, |l| l.up.len());
        write!(f, "RowLinks({slots} rows)")
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
    /// What walks have learned about where each tree continues; not part
    /// of the scheme's state, its words or its file.
    links: RowLinks,
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
            links: RowLinks::default(),
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

    /// Replace `v`'s table with `rows` (fault injection only). Callers copy
    /// the rows with `to_vec()`, edit them and hand them back, so the key
    /// column is always derived from the rows it indexes.
    pub fn replace_table(&mut self, v: VertexId, rows: Vec<TableEntry>) {
        self.tables[v.index()] = RoutingTable::from_rows(rows);
        self.links = RowLinks::default();
    }

    /// Replace `v`'s label with `rows` (fault injection only).
    pub fn replace_label(&mut self, v: VertexId, rows: Vec<LabelEntry>) {
        self.labels[v.index()] = RoutingLabel::from_rows(rows);
    }

    /// The learned index of `dir`'s row for the same tree as row `row` of
    /// `v`'s table, if a walk recorded one. A hint: the caller checks the
    /// row's root before following it.
    #[inline]
    pub(crate) fn learned_link(&self, v: VertexId, row: usize, dir: Link) -> Option<usize> {
        // A link is checked before use and publishes nothing else.
        let to = self
            .links
            .0
            .get()?
            .slot(v, row, dir)
            .load(Ordering::Relaxed);
        (to != 0).then(|| usize::from(to) - 1)
    }

    /// Record that row `row` of `v`'s table continues in row `to` of the
    /// table of its `dir` neighbour; a row at or past index `u16::MAX` is
    /// never linked to. The first link learned allocates the links.
    pub(crate) fn learn_link(&self, v: VertexId, row: usize, dir: Link, to: usize) {
        let Ok(stored) = u16::try_from(to + 1) else {
            return;
        };
        let links = self.links.0.get_or_init(|| LinkArrays::new(&self.tables));
        links.slot(v, row, dir).store(stored, Ordering::Relaxed);
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
        resident_words_of(
            self.tables[v.index()].rows(),
            self.labels[v.index()].rows(),
            self.pivot_info[v.index()].len(),
        )
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

/// A built scheme plus its cluster trees (kept for verification/benches):
/// the paper's [`RoutingScheme`], or a comparison row's own rows
/// ([`crate::prior::PriorScheme`]).
#[derive(Clone, Debug)]
pub struct Built<S = RoutingScheme> {
    /// The routing scheme.
    pub scheme: S,
    /// All cluster trees, in construction order.
    pub trees: Vec<SparseTree>,
    /// The hopset, when the construction needed one (`None` in centralized
    /// mode or when no approximate level existed). Retained so audits can
    /// spot-check hopset records against their realizing `G`-paths.
    pub hopset: Option<hopset::Hopset>,
    /// Construction measurements.
    pub report: BuildReport,
}

/// One cluster tree's finished tree-routing rows: every member's table by
/// rank, and the labels asked for, in the order asked.
pub(crate) type TreeRows<T, L> = (Vec<T>, Vec<L>);

/// What one distributed tree run cost: what it charged and its members'
/// memory peaks (`None` for a centrally computed tree).
pub(crate) type TreeCost = Option<(obs::Counters, MemoryMeter)>;

/// The shared pipeline's rows, per vertex: table rows ascending by root,
/// label rows ascending by level, and `(p̂_i(v), d̂(v, A_i))` per level.
pub(crate) type Rows<T, L> = (
    Vec<Vec<TableEntry<T>>>,
    Vec<Vec<LabelEntry<L>>>,
    Vec<Vec<(VertexId, Weight)>>,
);

/// Words of a run of rows.
fn row_words<E: WordSized>(rows: &[E]) -> usize {
    rows.iter().map(WordSized::words).sum()
}

/// Words of routing state a vertex holds once construction scratch is gone:
/// its table rows, its label rows, and `pivots` `(pivot, distance)` pairs of
/// two words each.
fn resident_words_of<T: WordSized, L: WordSized>(
    table: &[TableEntry<T>],
    label: &[LabelEntry<L>],
    pivots: usize,
) -> usize {
    row_words(table) + row_words(label) + 2 * pivots
}

/// The largest per-vertex sum of row words.
pub(crate) fn max_row_words<E: WordSized>(per_vertex: &[Vec<E>]) -> usize {
    per_vertex
        .iter()
        .map(|rows| row_words(rows))
        .max()
        .unwrap_or(0)
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
/// `scheme/clusters`, `scheme/tree-routing`, and `scheme/assembly`. Every
/// charge of the build falls inside one of them, so their counter deltas
/// partition the build's cost, and each span closes with a per-vertex
/// peak-memory distribution snapshot.
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
    let mut scratch = tree_distributed::Scratch::default();
    build_staged(
        g,
        params,
        false,
        rng,
        rec,
        |net, tree, cfg, wanted, rng| match params.mode {
            Mode::Centralized => {
                let (_, tables, labels) = tz::build(tree).into_parts();
                ((tables, pick(&labels, wanted)), None)
            }
            Mode::DistributedLowMemory => {
                let disabled = &mut obs::Recorder::disabled();
                let run = scratch.run(net, tree, cfg, wanted, rng, disabled);
                ((run.tables, run.labels), Some((run.cost, run.memory)))
            }
        },
        |(tables, labels, pivot_info)| {
            let tables = tables.into_iter().map(RoutingTable::from_rows).collect();
            let labels = labels.into_iter().map(RoutingLabel::from_rows).collect();
            RoutingScheme::from_parts(params.k, params.mode, tables, labels, pivot_info)
        },
    )
}

/// A label row assembly keeps: `v`'s row at `level`, which lives in the
/// tree of its pivot (`trees[tree]`, where `v` has rank `rank`).
struct KeptLabel {
    v: VertexId,
    level: usize,
    pivot: VertexId,
    tree: usize,
    rank: usize,
}

/// The labels at `ranks` of a tree whose every label was computed.
pub(crate) fn pick<L: Clone>(labels: &[L], ranks: &[usize]) -> Vec<L> {
    ranks.iter().map(|&r| labels[r].clone()).collect()
}

/// The pipeline both tree-scheme families share: backbone, hierarchy,
/// hopset, pivots and clusters, then `tree_scheme` once per cluster tree (in
/// construction order, with the [`Schedule`]'s sampling rate and backbone,
/// asked for the ranks whose labels assembly keeps), then assembly into
/// per-vertex rows, charged to the meter as what each vertex keeps, which
/// `package` turns into the scheme. `materialize` adds the step
/// the paper eliminates: every virtual vertex storing its `E'` edges. A
/// distributed run is one whose `params.mode` is not [`Mode::Centralized`];
/// a centralized one charges `rec` nothing. The report's rounds and messages
/// are what the build charged to `rec`.
pub(crate) fn build_staged<R, T, L, S>(
    g: &Graph,
    params: &BuildParams,
    materialize: bool,
    rng: &mut R,
    rec: &mut obs::Recorder,
    mut tree_scheme: impl FnMut(
        &Network,
        &RootedTree,
        &tree_distributed::Config,
        &[usize],
        &mut R,
    ) -> (TreeRows<T, L>, TreeCost),
    package: impl FnOnce(Rows<T, L>) -> S,
) -> Built<S>
where
    R: Rng,
    T: WordSized + Clone + Default,
    L: WordSized + Clone,
{
    let n = g.num_vertices();
    assert!(n > 0, "graph must be non-empty");
    let k = params.k;
    // The paper's ε: 1/(48k⁴), floored at 10⁻⁶.
    let epsilon = (1.0 / (48.0 * (k as f64).powi(4))).max(1e-6);
    let entry = rec.totals();
    let mut memory = MemoryMeter::new(n);
    let distributed = params.mode != Mode::Centralized;

    // Backbone.
    let backbone_span = rec.begin("scheme/backbone");
    let network = Network::new(g.clone());
    let d = if distributed {
        let out = bfs::build_bfs_tree(&network, VertexId(0));
        rec.charge_rounds(out.stats.rounds);
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
        let out = build_hopset(
            g,
            virt,
            HopsetParams::default(),
            d as u64,
            rec,
            &mut memory,
            rng,
        );
        hopset_edges = out.stats.edges;
        hopset_arboricity = out.stats.arboricity;
        out.hopset
    });
    if materialize {
        if let Some(virt) = virt.as_ref() {
            // Every virtual vertex stores its E' incident edges — the Ω̃(√n)
            // memory step the paper eliminates.
            let edges = virt.materialize(g);
            rec.charge_broadcast(edges.len() as u64, d as u64);
            for &(u, v, _) in &edges {
                memory.add(u, 2);
                memory.add(v, 2);
            }
        }
    }
    rec.end_with_memory(hopset_span, memory.peaks());
    // Hop budget for hopset Bellman–Ford: `2·|V'| + 16`, enough for
    // guaranteed convergence (the *used* β is reported).
    let beta_budget = 2 * virt.as_ref().map_or(0, |v| v.virtual_vertices().len()) + 16;

    // Pivots per level 1..=realized (level 0 is trivially "self"; level
    // `realized` and beyond is unreachable = A_k).
    let pivots_span = rec.begin("scheme/pivots");
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
            let unpriced = &mut obs::Recorder::disabled();
            pivots::exact_pivots(g, &set, n, unpriced, &mut memory)
        } else if j <= split {
            pivots::exact_pivots(
                g,
                &set,
                pivots::exploration_depth(n, j, k),
                rec,
                &mut memory,
            )
        } else {
            let virt = virt.as_ref().expect("approx levels imply virtual set");
            let hs = hs.as_ref().expect("approx levels imply hopset");
            let lp =
                pivots::approx_pivots(g, virt, hs, &set, beta_budget, d as u64, rec, &mut memory);
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
    rec.end_with_memory(pivots_span, memory.peaks());

    // Clusters per level.
    let clusters_span = rec.begin("scheme/clusters");
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
                epsilon,
                beta_budget,
                d as u64,
                rec,
                &mut memory,
            )
        } else {
            // Centralized mode prices nothing.
            let unpriced = &mut obs::Recorder::disabled();
            clusters::exact_clusters(
                g,
                &roots,
                i,
                &next.dist,
                pivots::exploration_depth(n, i + 1, k),
                if distributed { &mut *rec } else { unpriced },
                &mut memory,
            )
        };
        beta_used = beta_used.max(stats.beta_used);
        level_stats.push(stats);
        trees.append(&mut lvl_trees);
    }
    rec.end_with_memory(clusters_span, memory.peaks());

    // Tree-routing stage: one exact tree scheme per cluster tree. In the
    // distributed modes all trees run concurrently on the Theorem-2 schedule
    // for overlap s (`multi::Schedule`: its q, window and start offsets).
    let tree_span = rec.begin("scheme/tree-routing");
    // Overlap s: memberships per vertex. Counted tree by tree in root order,
    // they also give each member's row in a tree its place in the member's
    // table, which lists the member's trees ascending by root:
    // `row_at[tree_start[idx] + r]` for the member of rank `r` in tree `idx`.
    let mut tree_start = vec![0usize; trees.len() + 1];
    for (idx, t) in trees.iter().enumerate() {
        tree_start[idx + 1] = tree_start[idx] + t.len();
    }
    let total_membership = tree_start[trees.len()];
    let mut by_root: Vec<usize> = (0..trees.len()).collect();
    by_root.sort_unstable_by_key(|&idx| trees[idx].root);
    let mut overlap = vec![0usize; n];
    let mut row_at = vec![0u32; total_membership];
    for idx in by_root {
        for (r, u) in trees[idx].members().iter().enumerate() {
            row_at[tree_start[idx] + r] = overlap[u.index()] as u32;
            overlap[u.index()] += 1;
        }
    }
    let max_membership = overlap.iter().copied().max().unwrap_or(0);
    let mut schedule = Schedule::new(n, max_membership, d);
    // The label rows assembly keeps: for each vertex v and level i, v's row
    // in the tree of its pivot p_i(v), when v is a member of that tree.
    let mut tree_of_root = vec![usize::MAX; n];
    for (idx, t) in trees.iter().enumerate() {
        tree_of_root[t.root.index()] = idx;
    }
    let mut kept: Vec<KeptLabel> = Vec::new();
    for v in g.vertices() {
        for (level, lvl) in pivot_levels.iter().enumerate().take(realized) {
            let pivot = match (lvl.pivot[v.index()], lvl.dist[v.index()]) {
                (Some(p), pd) if pd != INFINITY => p,
                _ => continue,
            };
            let tree = tree_of_root[pivot.index()];
            if tree == usize::MAX {
                continue;
            }
            // v outside the pivot's tree: skip this level.
            if let Some(rank) = rank_in(trees[tree].members(), v) {
                kept.push(KeptLabel {
                    v,
                    level,
                    pivot,
                    tree,
                    rank,
                });
            }
        }
    }
    // The kept labels grouped by tree, in construction order.
    let mut by_tree: Vec<usize> = (0..kept.len()).collect();
    by_tree.sort_by_key(|&i| kept[i].tree);
    let mut by_tree = by_tree.as_slice();
    let mut tree_labels: Vec<Option<L>> = (0..kept.len()).map(|_| None).collect();
    let mut ranks = Vec::new();
    // Every tree writes each member's table row in place as it finishes.
    let mut tables: Vec<Vec<TableEntry<T>>> = overlap
        .iter()
        .map(|&rows| vec![TableEntry::default(); rows])
        .collect();
    for (idx, t) in trees.iter().enumerate() {
        let (asked, rest) = by_tree.split_at(by_tree.partition_point(|&i| kept[i].tree == idx));
        by_tree = rest;
        ranks.clear();
        ranks.extend(asked.iter().map(|&i| kept[i].rank));
        let ((tree_tables, labels), cost) =
            tree_scheme(&network, &t.to_rooted(n), schedule.config(), &ranks, rng);
        if let Some((c, m)) = cost {
            schedule.charge_tree(rng, t.members(), &c, &m, rec, &mut memory);
        }
        let rows = t.members().iter().zip(t.info()).zip(tree_tables);
        for (((u, info), table), &at) in rows.zip(&row_at[tree_start[idx]..]) {
            tables[u.index()][at as usize] = TableEntry {
                root: t.root,
                level: t.level as u32,
                dist: info.dist,
                table,
            };
        }
        for (&i, label) in asked.iter().zip(labels) {
            tree_labels[i] = Some(label);
        }
    }
    let tree_stage_rounds = if distributed { schedule.close(rec) } else { 0 };
    rec.end_with_memory(tree_span, memory.peaks());

    // Assemble per-vertex labels, ascending by level.
    let assembly_span = rec.begin("scheme/assembly");
    let mut labels: Vec<Vec<LabelEntry<L>>> = (0..n).map(|_| Vec::new()).collect();
    for (keep, label) in kept.iter().zip(tree_labels) {
        labels[keep.v.index()].push(LabelEntry {
            level: keep.level,
            pivot: keep.pivot,
            dist: trees[keep.tree].info()[keep.rank].dist,
            tree_label: label.expect("every kept label was asked for"),
        });
    }

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

    // Final outputs are part of the memory bound; `RoutingScheme`'s
    // `resident_words` counts the same words, so the meter and the audit
    // attribution agree on "what a vertex holds".
    for v in g.vertices() {
        let i = v.index();
        memory.add(
            v,
            resident_words_of(&tables[i], &labels[i], pivot_info[i].len()),
        );
    }
    let max_table_words = max_row_words(&tables);
    let max_label_words = max_row_words(&labels);
    rec.end_with_memory(assembly_span, memory.peaks());
    rec.set_run_memory(memory.peaks());
    let cost = rec.charged_since(&entry);
    let report = BuildReport {
        rounds: cost.rounds,
        messages: cost.messages,
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
        scheme: package((tables, labels, pivot_info)),
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
                assert_eq!(
                    tc.members(),
                    td.members(),
                    "level-0 cluster of {} differs",
                    tc.root
                );
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
        let prior = crate::prior::build(&g, 2, &mut rng2);
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
        // Every charge is attributed to exactly one top-level phase.
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
    fn table_rows_are_48_bytes() {
        // `root` and `level` share one 8-byte slot beside `dist` and the
        // 32-byte tree table.
        assert_eq!(std::mem::size_of::<TableEntry>(), 48);
    }

    #[test]
    fn entry_agrees_with_a_row_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(312);
        let torus = generators::torus(8, 8, 1..=9, &mut rng);
        for (g, k) in [
            (er(90, 313).0, 2),
            (er(90, 314).0, 3),
            (torus.clone(), 2),
            (torus, 3),
        ] {
            let s = build(&g, &BuildParams::new(k), &mut rng).scheme;
            let back = crate::persist::decode_scheme(&crate::persist::encode_scheme(&s)).unwrap();
            for scheme in [&s, &back] {
                for v in g.vertices() {
                    let rows = scheme.table(v).rows();
                    for root in g.vertices() {
                        assert_eq!(
                            scheme.entry(v, root),
                            rows.iter().find(|e| e.root == root),
                            "k = {k}: {v}'s row for tree {root}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replace_table_rederives_the_key_column() {
        let (g, mut rng) = er(60, 315);
        let mut s = build(&g, &BuildParams::new(2), &mut rng).scheme;
        let v = g
            .vertices()
            .find(|&v| s.table(v).rows().len() >= 2)
            .expect("some vertex is in two trees");
        let mut rows = s.table(v).rows().to_vec();
        let dropped = rows.pop().unwrap().root;
        s.replace_table(v, rows.clone());
        assert_eq!(s.entry(v, dropped), None);
        assert!(rows.iter().all(|e| s.entry(v, e.root) == Some(e)));
        rows.reverse();
        s.replace_table(v, rows);
        assert!(crate::verify::verify(&g, &s)
            .iter()
            .any(|x| matches!(x, crate::verify::Violation::UnsortedTable(u) if *u == v)));
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
