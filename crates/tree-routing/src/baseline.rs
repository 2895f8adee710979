//! The prior distributed tree-routing approach (\[LP15\]/\[EN16b\]-style) — the
//! baseline row of the paper's Table 2.
//!
//! Like the paper's scheme, it cuts `T` into local trees at sampled vertices.
//! Unlike it, the *virtual tree* `T'` is **materialized**: every virtual
//! vertex receives a full copy of `T'` (Ω̃(√n) words of memory — the blowup
//! the paper eliminates) and a separate Thorup–Zwick scheme is built for `T'`
//! on top of per-local-tree schemes. Stitching the two levels inflates the
//! output sizes: tables carry the local gate toward the virtual heavy child
//! (`O(log n)` words) and labels carry a local gate label per virtual light
//! edge (`O(log² n)` words).
//!
//! Routing is memoryless two-level forwarding (exact, zero stretch): at each
//! hop the carrier compares local roots; same tree → local TZ rule; different
//! tree → a TZ step on the virtual tree decides ascend (go to parent) or
//! descend (locally route to the *gate* `p(c)` of the chosen virtual child
//! `c`, then cross).

use congest::{bfs, MemoryMeter, Network, WordSized};
use graphs::{tree::rank_in, RootedTree, VertexId};
use rand::Rng;

use crate::distributed::{log2_ceil, slot, wave_order, Config};
use crate::router::{walk, RouteError, RouteTrace};
use crate::types::{route_step, RouteAction, TreeLabel, TreeTable};
use crate::tz;

/// Virtual-level information replicated to every vertex of a local tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualEntry {
    /// DFS interval of the local root `w` in the virtual tree `T'`.
    pub enter: u64,
    /// End of `w`'s interval in `T'`.
    pub exit: u64,
    /// `w`'s parent in `T'`.
    pub parent: Option<VertexId>,
    /// `w`'s heavy child in `T'`.
    pub heavy: Option<VertexId>,
    /// Local label (within `T_w`) of the gate `p(heavy)` — the vertex whose
    /// tree child is the virtual heavy child.
    pub heavy_gate: Option<TreeLabel>,
}

impl WordSized for VirtualEntry {
    fn words(&self) -> usize {
        4 + self.heavy_gate.as_ref().map_or(1, WordSized::words)
    }
}

/// The baseline routing table: `O(log n)` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineTable {
    /// Table within the local tree; `parent` is the *global* tree parent, so
    /// ascending works across local-tree boundaries.
    pub local: TreeTable,
    /// Root of this vertex's local tree.
    pub local_root: VertexId,
    /// Virtual-level entry (replicated from the local root).
    pub virt: VirtualEntry,
}

impl WordSized for BaselineTable {
    fn words(&self) -> usize {
        self.local.words() + 1 + self.virt.words()
    }
}

/// One light virtual edge in a baseline label, with its local gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualLightEdge {
    /// The virtual parent `x`.
    pub parent: VertexId,
    /// The virtual child `y`.
    pub child: VertexId,
    /// Local label of `p(y)` within `T_x` — `O(log n)` words.
    pub gate: TreeLabel,
}

impl WordSized for VirtualLightEdge {
    fn words(&self) -> usize {
        2 + self.gate.words()
    }
}

/// The baseline label: `O(log² n)` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineLabel {
    /// Label within the target's local tree.
    pub local: TreeLabel,
    /// The target's local root `w*`.
    pub local_root: VertexId,
    /// `enter` time of `w*` in the virtual tree.
    pub virt_enter: u64,
    /// Light virtual edges on the `z' → w*` path, each with its local gate.
    pub virt_light: Vec<VirtualLightEdge>,
}

impl WordSized for BaselineLabel {
    fn words(&self) -> usize {
        self.local.words() + 2 + self.virt_light.iter().map(WordSized::words).sum::<usize>()
    }
}

/// A complete baseline scheme: one table and one label per tree member, in
/// ascending member-id order (as [`crate::TreeScheme`]).
#[derive(Clone, Debug, Default)]
pub struct BaselineScheme {
    members: Vec<VertexId>,
    tables: Vec<BaselineTable>,
    labels: Vec<BaselineLabel>,
}

impl BaselineScheme {
    /// Take the scheme apart: members (ascending) with their per-rank
    /// tables and labels.
    pub fn into_parts(self) -> (Vec<VertexId>, Vec<BaselineTable>, Vec<BaselineLabel>) {
        (self.members, self.tables, self.labels)
    }

    /// The tree's members, ascending by id.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The table of `v`, if `v` is in the tree.
    pub fn table(&self, v: VertexId) -> Option<&BaselineTable> {
        rank_in(&self.members, v).map(|r| &self.tables[r])
    }

    /// The label of `v`, if `v` is in the tree.
    pub fn label(&self, v: VertexId) -> Option<&BaselineLabel> {
        rank_in(&self.members, v).map(|r| &self.labels[r])
    }

    /// Largest table, in words.
    pub fn max_table_words(&self) -> usize {
        self.tables.iter().map(WordSized::words).max().unwrap_or(0)
    }

    /// Largest label, in words.
    pub fn max_label_words(&self) -> usize {
        self.labels.iter().map(WordSized::words).max().unwrap_or(0)
    }
}

/// Output of the baseline construction.
#[derive(Clone, Debug)]
pub struct BaselineOutput {
    /// The two-level scheme.
    pub scheme: BaselineScheme,
    /// What the construction charged.
    pub cost: obs::Counters,
    /// Per-member memory peaks — Ω̃(√n) at virtual vertices by design. One
    /// slot per tree member in ascending id order, as in
    /// [`crate::distributed::TreeRun::memory`].
    pub memory: MemoryMeter,
    /// `|U(T)|`.
    pub virtual_count: usize,
    /// Largest local-tree depth.
    pub max_local_depth: usize,
}

/// Build the baseline scheme for `tree` inside `network` with `config`'s
/// sampling probability (`None` → `1/√n`) and optional pre-built BFS
/// backbone depth (which skips the BFS protocol run and its metering), as in
/// [`crate::distributed::build`].
///
/// # Panics
///
/// Panics if the tree is empty or host sizes disagree.
pub fn build<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    config: &Config,
    rng: &mut R,
) -> BaselineOutput {
    assert_eq!(
        tree.host_len(),
        network.len(),
        "tree host must match network"
    );
    // All working state is indexed by member rank (see `crate::distributed`).
    let n = tree.num_vertices();
    let members = tree.members();
    let root = tree.root_rank();
    let q = config.q.unwrap_or(1.0 / (n as f64).sqrt()).clamp(0.0, 1.0);

    let mut rec = obs::Recorder::disabled();
    let mut memory = MemoryMeter::new(n);

    // BFS backbone for broadcasts (shared if the caller already has one).
    let d = match config.backbone_depth {
        Some(depth) => depth as u64,
        None => {
            let bfs_out = bfs::build_bfs_tree(network, tree.root());
            rec.charge_rounds(bfs_out.stats.rounds);
            for r in 0..n {
                memory.add(slot(r), 3);
            }
            bfs_out.depth as u64
        }
    };

    // Sample U(T) and partition into local trees (as in the main scheme).
    let sampled_flag: Vec<bool> = (0..n).map(|r| r == root || rng.gen_bool(q)).collect();
    let by_depth = wave_order(tree);
    let mut local_root = vec![0usize; n];
    let mut local_depth = vec![0usize; n];
    for &v in &by_depth {
        if sampled_flag[v] {
            local_root[v] = v;
        } else {
            let p = tree.parent_rank(v).expect("non-root member");
            local_root[v] = local_root[p];
            local_depth[v] = local_depth[p] + 1;
        }
    }
    let b = local_depth.iter().copied().max().unwrap_or(0) as u64;
    rec.charge_rounds(b + 1);
    let sampled: Vec<usize> = (0..n).filter(|&r| sampled_flag[r]).collect();
    let iters = log2_ceil(n.max(2)) as u64;

    // ---- Local schemes: a TZ scheme per local tree -------------------------
    // (Local waves, as in the main scheme: O(b + log n) rounds per stage.)
    // The members of each local tree, ascending — the rank order of its own
    // `RootedTree`, so per-rank outputs scatter back positionally.
    let mut local_members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        local_members[local_root[r]].push(r);
    }
    let mut local_table: Vec<Option<TreeTable>> = vec![None; n];
    let mut local_label: Vec<Option<TreeLabel>> = vec![None; n];
    for &w in &sampled {
        let edges = local_members[w].iter().filter(|&&v| v != w).map(|&v| {
            let p = tree.parent_rank(v).expect("non-root member");
            (members[v], members[p], tree.parent_weight(members[v]))
        });
        let t_w = RootedTree::from_edges(tree.host_len(), members[w], edges);
        let (_, tables, labels) = tz::build(&t_w).into_parts();
        for ((&v, table), label) in local_members[w].iter().zip(tables).zip(labels) {
            local_table[v] = Some(table);
            local_label[v] = Some(label);
        }
    }
    let local_table: Vec<TreeTable> = local_table.into_iter().flatten().collect();
    let local_label: Vec<TreeLabel> = local_label.into_iter().flatten().collect();
    rec.charge_rounds(3 * (b + iters + 1));
    for (r, l) in local_label.iter().enumerate() {
        memory.add(slot(r), 8 + l.words() + 4);
    }

    // ---- Materialize the virtual tree at every virtual vertex --------------
    // Convergecast + broadcast of |U| records of O(1) words; every virtual
    // vertex stores the whole of T' — the Ω̃(√n) memory step.
    rec.charge_broadcast(sampled.len() as u64, d);
    for &x in &sampled {
        memory.add(slot(x), 3 * sampled.len());
    }

    // The virtual tree T' (a sampled vertex hangs off its tree parent's
    // local root); each virtual vertex computes its scheme locally — zero
    // rounds. `sampled` ascends, so it is T''s rank order.
    let virt_tree = RootedTree::from_edges(
        tree.host_len(),
        tree.root(),
        sampled.iter().filter(|&&x| x != root).map(|&x| {
            let p = tree.parent_rank(x).expect("non-root member");
            (members[x], members[local_root[p]], 1)
        }),
    );
    let (_, virt_tables, virt_labels) = tz::build(&virt_tree).into_parts();

    // ---- Gates: local labels of virtual children's tree-parents ------------
    // Each virtual child y sends its gate (local label of p(y) within
    // T_{p'(y)}) alongside the virtual-label broadcast.
    let gate_of = |y: VertexId| -> TreeLabel {
        let y = tree.rank_of(y).expect("virtual vertices are members");
        match tree.parent_rank(y) {
            Some(p) => local_label[p].clone(),
            None => TreeLabel {
                enter: 0,
                light: Vec::new(),
            },
        }
    };
    let gate_words: u64 = sampled
        .iter()
        .map(|&y| gate_of(members[y]).words() as u64)
        .sum();
    rec.charge_broadcast(gate_words, d);

    // ---- Assemble per-vertex tables and labels -----------------------------
    let mut tables: Vec<Option<BaselineTable>> = vec![None; n];
    let mut labels: Vec<Option<BaselineLabel>> = vec![None; n];
    for ((&w, vt), vl) in sampled.iter().zip(virt_tables).zip(virt_labels) {
        let virt_entry = VirtualEntry {
            enter: vt.enter,
            exit: vt.exit,
            parent: vt.parent,
            heavy: vt.heavy,
            heavy_gate: vt.heavy.map(gate_of),
        };
        let virt_light: Vec<VirtualLightEdge> = vl
            .light
            .iter()
            .map(|&(x, y)| VirtualLightEdge {
                parent: x,
                child: y,
                gate: gate_of(y),
            })
            .collect();
        // Distribute the entry and label material down T_w (pipelined wave).
        for &v in &local_members[w] {
            let mut local = local_table[v].clone();
            local.parent = tree.parent_rank(v).map(|p| members[p]); // ascend across boundaries
            tables[v] = Some(BaselineTable {
                local,
                local_root: members[w],
                virt: virt_entry.clone(),
            });
            labels[v] = Some(BaselineLabel {
                local: local_label[v].clone(),
                local_root: members[w],
                virt_enter: vt.enter,
                virt_light: virt_light.clone(),
            });
        }
    }
    let scheme = BaselineScheme {
        members: members.to_vec(),
        tables: tables.into_iter().flatten().collect(),
        labels: labels.into_iter().flatten().collect(),
    };
    rec.charge_rounds(b + (iters * iters).max(1));
    for (r, (t, l)) in scheme.tables.iter().zip(&scheme.labels).enumerate() {
        memory.add(slot(r), t.words() + l.words());
    }

    BaselineOutput {
        scheme,
        cost: rec.totals(),
        memory,
        virtual_count: sampled.len(),
        max_local_depth: b as usize,
    }
}

/// Route `src → dst` with the baseline scheme; returns the visited path and
/// its weight. Exact (zero stretch) like every tree scheme.
///
/// # Errors
///
/// Mirrors [`crate::router::route`]'s failure modes.
pub fn route(
    tree: &RootedTree,
    scheme: &BaselineScheme,
    src: VertexId,
    dst: VertexId,
) -> Result<RouteTrace, RouteError> {
    let table = |v| scheme.table(v);
    walk(tree, (src, dst), table, scheme.label(dst), decide)
}

/// The two-level forwarding rule at vertex `me`: local TZ when the local
/// roots agree, otherwise a virtual-level TZ step resolved to ascend or to a
/// descent gate. Exposed so higher-level schemes (the general-graph prior
/// baseline) can drive it hop by hop.
pub fn decide(me: VertexId, table: &BaselineTable, label: &BaselineLabel) -> Option<RouteAction> {
    if table.local_root == label.local_root {
        // Same local tree: plain TZ on the local scheme.
        return route_step(me, &table.local, &label.local);
    }
    // Virtual-level TZ step at w = our local root.
    let vt = TreeTable {
        enter: table.virt.enter,
        exit: table.virt.exit,
        parent: table.virt.parent,
        heavy: table.virt.heavy,
    };
    let vl = TreeLabel {
        enter: label.virt_enter,
        light: label
            .virt_light
            .iter()
            .map(|e| (e.parent, e.child))
            .collect(),
    };
    match route_step(table.local_root, &vt, &vl)? {
        RouteAction::Deliver => None, // impossible: roots differ
        RouteAction::Forward(c) => {
            if Some(c) == table.virt.parent {
                // Ascend: toward our tree parent (crosses the boundary at w).
                return table.local.parent.map(RouteAction::Forward);
            }
            // Descend toward virtual child c: local-route to its gate p(c),
            // then cross the tree edge (p(c), c).
            let gate = if Some(c) == table.virt.heavy {
                table.virt.heavy_gate.as_ref()?
            } else {
                &label.virt_light.iter().find(|e| e.child == c)?.gate
            };
            if gate.enter == table.local.enter {
                // We are the gate: cross to the virtual child itself.
                return Some(RouteAction::Forward(c));
            }
            route_step(me, &table.local, gate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, tree::shortest_path_tree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, seed: u64) -> (Network, RootedTree, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 2.5 / n as f64, 1..=15, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        (Network::new(g), t, rng)
    }

    /// The baseline at sampling probability `q` (`None` → `1/√n`), with its
    /// own backbone.
    fn at_q(net: &Network, t: &RootedTree, q: Option<f64>, rng: &mut ChaCha8Rng) -> BaselineOutput {
        let config = Config {
            q,
            ..Config::default()
        };
        build(net, t, &config, rng)
    }

    fn verify_exact(tree: &RootedTree, scheme: &BaselineScheme) {
        let verts: Vec<VertexId> = tree.vertices().collect();
        for &u in &verts {
            for &v in &verts {
                let trace =
                    route(tree, scheme, u, v).unwrap_or_else(|e| panic!("routing {u} -> {v}: {e}"));
                assert_eq!(
                    Some(trace.weight),
                    tree.tree_distance(u, v),
                    "stretch violation {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn baseline_routes_exactly() {
        for seed in 0..4 {
            let (net, t, mut rng) = setup(70, seed);
            let out = at_q(&net, &t, None, &mut rng);
            verify_exact(&t, &out.scheme);
        }
    }

    #[test]
    fn baseline_routes_exactly_with_aggressive_sampling() {
        let (net, t, mut rng) = setup(60, 91);
        let out = at_q(&net, &t, Some(0.5), &mut rng);
        verify_exact(&t, &out.scheme);
    }

    #[test]
    fn baseline_single_local_tree() {
        let (net, t, mut rng) = setup(40, 92);
        let out = at_q(&net, &t, Some(0.0), &mut rng);
        assert_eq!(out.virtual_count, 1);
        verify_exact(&t, &out.scheme);
    }

    #[test]
    fn baseline_all_virtual() {
        let (net, t, mut rng) = setup(40, 93);
        let out = at_q(&net, &t, Some(1.0), &mut rng);
        assert_eq!(out.virtual_count, 40);
        verify_exact(&t, &out.scheme);
    }

    #[test]
    fn baseline_memory_scales_with_virtual_count() {
        let (net, t, mut rng) = setup(500, 94);
        let out = at_q(&net, &t, None, &mut rng);
        // Virtual vertices hold a full copy of T': ≥ 3·|U| words.
        assert!(
            out.memory.max_peak() >= 3 * out.virtual_count,
            "baseline memory {} should be at least 3·|U| = {}",
            out.memory.max_peak(),
            3 * out.virtual_count
        );
    }

    #[test]
    fn baseline_sizes_are_larger_than_ours() {
        let (net, t, mut rng) = setup(300, 95);
        let base = at_q(&net, &t, None, &mut rng);
        let disabled = &mut obs::Recorder::disabled();
        let ours = crate::distributed::build(&net, &t, &Config::default(), &mut rng, disabled);
        let ours = ours.scheme(&t);
        assert!(base.scheme.max_table_words() > ours.max_table_words());
        assert!(base.scheme.max_label_words() >= ours.max_label_words());
    }

    #[test]
    fn baseline_errors_on_foreign_endpoints() {
        let mut rng = ChaCha8Rng::seed_from_u64(96);
        let g = generators::path(5, 1..=1, &mut rng);
        // Tree spanning only part of the host: route from outside fails.
        let t = RootedTree::from_parents(
            VertexId(0),
            vec![None, Some(VertexId(0)), None, None, None],
            vec![0, 1, 0, 0, 0],
        );
        let net = Network::new(g);
        let out = at_q(&net, &t, None, &mut rng);
        assert_eq!(
            route(&t, &out.scheme, VertexId(3), VertexId(0)),
            Err(RouteError::SourceNotInTree(VertexId(3)))
        );
        assert_eq!(
            route(&t, &out.scheme, VertexId(0), VertexId(3)),
            Err(RouteError::TargetNotInTree(VertexId(3)))
        );
    }
}
