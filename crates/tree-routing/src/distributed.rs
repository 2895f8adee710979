//! The paper's distributed tree-routing construction (§3 + Appendix A).
//!
//! Given a tree `T` inside a network of hop-diameter `D`, the construction
//! samples `U(T)` (probability `q ≈ 1/√n` plus the root), which cuts `T`
//! into shallow *local trees* `T_w`, and runs three stages:
//!
//! 1. **Subtree sizes** — local convergecasts up each `T_w`, then Algorithm 1
//!    (pointer jumping over the *virtual tree* `T'` via network-wide
//!    broadcasts), then local redistribution; heavy children follow.
//! 2. **Light edges** — Algorithm 2 (local lists), Algorithm 3 (pointer
//!    jumping concatenation), local redistribution.
//! 3. **DFS ranges** — Algorithm 5 (logarithmic-round range partition among
//!    siblings), Algorithm 4 (local DFS waves), Algorithm 6 (pointer-jumped
//!    range shifts), local redistribution.
//!
//! The punchline (Theorem 2): `Õ(√n + D)` rounds, tables of `O(1)` words,
//! labels of `O(log n)` words, and — crucially — **`O(log n)` words of
//! memory per vertex**, because the virtual tree `T'` is never materialized
//! anywhere: each virtual vertex keeps only its `log n` pointer-jumping
//! ancestors and digests broadcast streams one message at a time.
//!
//! Every per-vertex quantity below lives in a struct-of-arrays `VertexState`
//! holding *only* what the model lets that vertex hold; rounds are charged to
//! a [`CostLedger`] per the schedule above, and memory is metered after every
//! stage (plus transient touches) by a [`MemoryMeter`].

use congest::{bfs, CostLedger, MemoryMeter, Network};
use graphs::{RootedTree, VertexId};
use rand::Rng;

use crate::types::{TreeLabel, TreeScheme, TreeTable};
use crate::tz::{self, concat};

/// Ceiling of log₂, with `log2_ceil(0) = log2_ceil(1) = 0`.
pub fn log2_ceil(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Tuning knobs for the construction.
#[derive(Clone, Debug)]
pub struct Config {
    /// Sampling probability for `U`; `None` selects the paper's `1/√n`.
    pub q: Option<f64>,
    /// Depth of an already-built BFS broadcast backbone. When set, the
    /// construction neither re-runs the BFS protocol nor re-meters its 3
    /// words per vertex — callers constructing many trees (the general-graph
    /// scheme, [`crate::multi`]) build the backbone once and share it.
    pub backbone_depth: Option<usize>,
    /// Worker threads for the engine-backed backbone BFS (`0` = all
    /// available cores). Thread count never changes the construction — the
    /// engine is deterministic — only wall-clock time.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            q: None,
            backbone_depth: None,
            threads: 1,
        }
    }
}

/// Per-vertex protocol state. One instance per tree *member*, indexed by the
/// member's rank in [`RootedTree::members`]; vertex references inside are
/// ranks too. Algorithms only ever read/write a vertex's own entry plus
/// messages charged to the ledger.
#[derive(Clone, Debug, Default)]
struct VertexState {
    sampled: bool,
    /// Root of the local tree containing this vertex.
    local_root: usize,
    /// For sampled vertices: the parent in the virtual tree `T'`.
    virt_parent: Option<usize>,
    /// Depth within the local tree.
    local_depth: usize,
    /// Subtree size within the local tree (Stage 1a).
    s_local: u64,
    /// Subtree size within the global tree (Stage 1b/1c).
    s_global: u64,
    /// Heavy child in `T` (Stage 1d).
    heavy: Option<usize>,
    /// Pointer-jumping ancestors `a_i` (sampled vertices only) — `O(log n)`.
    ancestors: Vec<Option<usize>>,
    /// Accumulated subtree size `s_i` during Algorithm 1.
    s_jump: u64,
    /// Light edges from the local root (non-sampled) or from the virtual
    /// parent (sampled) to this vertex — Algorithm 2's `L(u)`. Light edges
    /// name vertices by host id: they go into the labels verbatim.
    light_local: Vec<(VertexId, VertexId)>,
    /// Global light list (from the root of `T`) after Stages 2b/2c.
    light_global: Vec<(VertexId, VertexId)>,
    /// Local DFS range (Stage 3a), 1-based within the local frame.
    range: (u64, u64),
    /// Range offset `q_x` this vertex's range had inside its parent's frame.
    q_shift: u64,
    /// Total shift after Algorithm 6.
    shift: u64,
}

impl VertexState {
    /// Words of persistent state currently held — the quantity Theorem 2
    /// bounds by `O(log n)`.
    fn words(&self) -> usize {
        // Scalar fields: membership, roots, sizes, heavy child, range, shifts.
        let scalars = 12;
        scalars + self.ancestors.len() + 2 * self.light_local.len() + 2 * self.light_global.len()
    }
}

/// The meter slot of the member with rank `r` (see [`DistributedOutput::memory`]).
#[inline]
pub(crate) fn slot(r: usize) -> VertexId {
    VertexId(r as u32)
}

/// Deterministic wave order: member ranks by increasing depth in `tree`,
/// ties by id. (Scaffolding for the simulation loops only — no vertex
/// stores this.)
pub(crate) fn wave_order(tree: &RootedTree) -> Vec<usize> {
    let depth = tree.rank_depths();
    let mut order: Vec<usize> = (0..tree.num_vertices()).collect();
    order.sort_unstable_by_key(|&r| (depth[r], r));
    order
}

/// Output of the distributed construction.
#[derive(Clone, Debug)]
pub struct DistributedOutput {
    /// The routing scheme — identical to [`crate::tz::build`] on the same
    /// tree (same tie-breaking), as the tests assert.
    pub scheme: TreeScheme,
    /// Round/message accounting for the whole construction.
    pub ledger: CostLedger,
    /// Per-member memory high-water marks, one slot per tree member in
    /// ascending id order (slot `r` belongs to `scheme.members()[r]`; for a
    /// spanning tree slots are vertex ids). Vertices outside the tree hold
    /// no construction state and are not metered.
    pub memory: MemoryMeter,
    /// `|U(T)|` — number of sampled roots (including the tree root).
    pub virtual_count: usize,
    /// Depth of the (never materialized) virtual tree `T'` — the number of
    /// hops a naive per-virtual-edge convergecast would traverse.
    pub virtual_depth: usize,
    /// Largest local-tree depth `b` (the `Õ(1/q)` quantity).
    pub max_local_depth: usize,
    /// Hop depth of the BFS broadcast tree used (≤ D).
    pub bfs_depth: usize,
}

/// Run the paper's construction for `tree` inside `network`.
///
/// # Panics
///
/// Panics if the tree's host universe is not the network.
pub fn build<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    config: &Config,
    rng: &mut R,
) -> DistributedOutput {
    build_observed(network, tree, config, rng, &mut obs::Recorder::disabled())
}

/// [`build`], with per-stage span attribution on `rec`: `tree/partition`,
/// `tree/subtree-sizes` (§3 Stage 1), `tree/light-edges` (Stage 2),
/// `tree/dfs-ranges` (Stage 3), and `tree/finalize` (plus `tree/backbone`
/// when no shared BFS backbone is configured). Every ledger charge is
/// mirrored into the recorder, so span deltas partition the ledger totals.
///
/// All working state is indexed by member rank, so time and allocation are
/// `O(|T| log |T|)` whatever the size of the host network.
///
/// # Panics
///
/// Panics if the tree's host universe is not the network.
pub fn build_observed<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    config: &Config,
    rng: &mut R,
    rec: &mut obs::Recorder,
) -> DistributedOutput {
    assert_eq!(
        tree.host_len(),
        network.len(),
        "tree host must match network"
    );
    let n = tree.num_vertices();
    let members = tree.members();
    let root = tree.root_rank();

    let mut ledger = CostLedger::new();
    let mut memory = MemoryMeter::new(n);

    // The BFS broadcast backbone: built once by the real protocol (O(D)
    // rounds); its depth prices every Lemma-1 broadcast below. Callers that
    // already hold a backbone share it via the config.
    let d = match config.backbone_depth {
        Some(depth) => depth as u64,
        None => {
            let span = rec.begin("tree/backbone");
            let bfs_out = bfs::build_bfs_tree_with(network, tree.root(), config.threads);
            ledger.charge_rounds_span(bfs_out.stats.rounds, rec);
            ledger.charge_messages_span(bfs_out.stats.messages, rec);
            for r in 0..n {
                memory.add(slot(r), 3); // BFS parent/depth/flag, kept for broadcasts
            }
            rec.end_with_memory(span, memory.peaks());
            bfs_out.depth as u64
        }
    };

    // Sample U. Every vertex flips its own coin — zero rounds.
    let q = config.q.unwrap_or(1.0 / (n as f64).sqrt());
    let mut st: Vec<VertexState> = vec![VertexState::default(); n];
    for (r, s) in st.iter_mut().enumerate() {
        s.sampled = r == root || rng.gen_bool(q.clamp(0.0, 1.0));
    }

    let by_depth = wave_order(tree);

    // ---- Phase 0: partition into local trees -------------------------------
    // Each w ∈ U(T) floods "I am your local root" down, stopping at sampled
    // vertices; runs in max-local-depth rounds, all trees in parallel.
    let partition_span = rec.begin("tree/partition");
    for &v in &by_depth {
        if st[v].sampled {
            st[v].local_root = v;
            st[v].local_depth = 0;
            if let Some(p) = tree.parent_rank(v) {
                st[v].virt_parent = Some(st[p].local_root);
            }
        } else {
            let p = tree.parent_rank(v).expect("non-root member");
            st[v].local_root = st[p].local_root;
            st[v].local_depth = st[p].local_depth + 1;
        }
    }
    let b = st.iter().map(|s| s.local_depth).max().unwrap_or(0) as u64;
    ledger.charge_rounds_span(b + 1, rec);
    // U(T) in ascending id order, and each sampled vertex's position in it
    // (what a broadcast record is keyed by).
    let sampled: Vec<usize> = (0..n).filter(|&r| st[r].sampled).collect();
    let mut sampled_pos = vec![usize::MAX; n];
    for (k, &x) in sampled.iter().enumerate() {
        sampled_pos[x] = k;
    }
    let virtual_count = sampled.len();
    // Virtual-tree depth (simulation statistic only — no vertex stores it).
    let virtual_depth = {
        let mut vd = vec![0usize; sampled.len()];
        let mut deepest = 0;
        for &v in &by_depth {
            if let (true, Some(vp)) = (st[v].sampled, st[v].virt_parent) {
                let depth = vd[sampled_pos[vp]] + 1;
                vd[sampled_pos[v]] = depth;
                deepest = deepest.max(depth);
            }
        }
        deepest
    };
    let iters = log2_ceil(n.max(2));
    rec.end_with_memory(partition_span, memory.peaks());

    // ---- Stage 1a: local subtree sizes (convergecast, b rounds) ------------
    let sizes_span = rec.begin("tree/subtree-sizes");
    for &v in by_depth.iter().rev() {
        let mut s = 1u64;
        for &c in tree.child_ranks(v) {
            if !st[c as usize].sampled {
                s += st[c as usize].s_local;
            }
        }
        st[v].s_local = s;
    }
    ledger.charge_rounds_span(b + 1, rec);

    // ---- Stage 1b: Algorithm 1 (global subtree sizes by pointer jumping) ---
    for &x in &sampled {
        st[x].ancestors = vec![st[x].virt_parent];
        st[x].s_jump = st[x].s_local;
    }
    for it in 0..iters {
        // Broadcast (x, s_i(x), a_i(x)) for every sampled x: Lemma 1.
        ledger.charge_broadcast_span(sampled.len() as u64, d, rec);
        // Each x digests the stream message-by-message: O(1) transient words.
        let snapshot_a: Vec<Option<usize>> = sampled.iter().map(|&x| st[x].ancestors[it]).collect();
        let snapshot_s: Vec<u64> = sampled.iter().map(|&x| st[x].s_jump).collect();
        for (k, &x) in sampled.iter().enumerate() {
            memory.touch(slot(x), 3);
            // a_{i+1}(x) = a_i(a_i(x)).
            let next = snapshot_a[k].and_then(|a| snapshot_a[sampled_pos[a]]);
            st[x].ancestors.push(next);
        }
        for (k, _) in sampled.iter().enumerate() {
            if let Some(a) = snapshot_a[k] {
                st[a].s_jump += snapshot_s[k];
            }
        }
        for &x in &sampled {
            memory.set(slot(x), st[x].words());
        }
    }
    for &x in &sampled {
        st[x].s_global = st[x].s_jump;
    }

    // ---- Stage 1c: redistribute global sizes into local trees --------------
    // Leaves of each T_w re-converge sizes, with sampled children now
    // contributing their exact global size.
    for &v in by_depth.iter().rev() {
        if st[v].sampled {
            continue;
        }
        let mut s = 1u64;
        for &c in tree.child_ranks(v) {
            s += st[c as usize].s_global;
        }
        st[v].s_global = s;
    }
    ledger.charge_rounds_span(b + 1, rec);

    // ---- Stage 1d: heavy children (children report sizes; streaming max) ---
    for &v in &by_depth {
        let mut best: Option<(u64, usize)> = None;
        for &c in tree.child_ranks(v) {
            let c = c as usize;
            memory.touch(slot(v), 2);
            let s = st[c].s_global;
            // Larger subtree wins; ties go to the smaller id (= rank).
            if best.is_none_or(|(bs, bc)| s > bs || (s == bs && c < bc)) {
                best = Some((s, c));
            }
        }
        st[v].heavy = best.map(|(_, c)| c);
    }
    ledger.charge_rounds_span(1, rec);
    for (r, s) in st.iter().enumerate() {
        memory.set(slot(r), s.words());
    }
    rec.end_with_memory(sizes_span, memory.peaks());

    // ---- Stage 2a: Algorithm 2 (local light edges) --------------------------
    let light_span = rec.begin("tree/light-edges");
    // Top-down within each local tree; every vertex receives its parent's
    // list and appends its own edge if it is not the heavy child. The lists
    // are O(log n) words, so the pipelined wave costs b + O(log n) rounds.
    for &v in &by_depth {
        let Some(p) = tree.parent_rank(v) else {
            continue;
        };
        let inherited: &[(VertexId, VertexId)] = if st[p].sampled {
            &[]
        } else {
            &st[p].light_local
        };
        let own = (st[p].heavy != Some(v)).then_some((members[p], members[v]));
        st[v].light_local = concat(inherited, own.as_slice());
        memory.set(slot(v), st[v].words());
    }
    ledger.charge_rounds_span(b + iters as u64 + 1, rec);

    // ---- Stage 2b: Algorithm 3 (global light edges by pointer jumping) -----
    // L_0(x) is the just-computed local list (path from p'(x) to x); the root
    // has the empty list. L_{i+1}(x) = L_i(a_i(x)) ++ L_i(x).
    for &x in &sampled {
        st[x].light_global = st[x].light_local.clone();
        memory.set(slot(x), st[x].words());
    }
    for it in 0..iters {
        let words: u64 = sampled
            .iter()
            .map(|&x| 1 + 2 * st[x].light_global.len() as u64)
            .sum();
        ledger.charge_broadcast_span(words, d, rec);
        let snapshot: Vec<Vec<(VertexId, VertexId)>> = sampled
            .iter()
            .map(|&x| st[x].light_global.clone())
            .collect();
        for (k, &x) in sampled.iter().enumerate() {
            if let Some(a) = st[x].ancestors[it] {
                let merged = concat(&snapshot[sampled_pos[a]], &snapshot[k]);
                memory.touch(slot(x), 2 * merged.len());
                st[x].light_global = merged;
            }
            memory.set(slot(x), st[x].words());
        }
    }

    // ---- Stage 2c: distribute full lists into local trees ------------------
    // y's global list = (local root's global list) ++ (y's local list).
    for &v in &by_depth {
        if st[v].sampled {
            continue;
        }
        st[v].light_global = concat(&st[st[v].local_root].light_global, &st[v].light_local);
        memory.set(slot(v), st[v].words());
    }
    ledger.charge_rounds_span(b + iters as u64 + 1, rec);
    rec.end_with_memory(light_span, memory.peaks());

    // ---- Stage 3a: Algorithms 4 + 5 (local DFS with range partition) -------
    // Algorithm 5 runs once, in parallel for every internal vertex: each
    // child y_j learns the prefix sum S(y_j) of its elder siblings' global
    // sizes in 2·log n rounds with O(1) memory per vertex. The DFS wave then
    // needs only the parent's range start (1 word to all children).
    let ranges_span = rec.begin("tree/dfs-ranges");
    ledger.charge_rounds_span(2 * iters as u64, rec);
    // prefix[c] = sum of s_global over elder siblings of c (exclusive).
    let mut prefix = vec![0u64; n];
    for &v in &by_depth {
        let mut acc = 0u64;
        for &c in tree.child_ranks(v) {
            memory.touch(slot(c as usize), 2);
            prefix[c as usize] = acc;
            acc += st[c as usize].s_global;
        }
    }
    // The DFS wave: local roots own [1, s_global]; children compute their
    // range from the parent's start, their prefix sum, and their own size.
    for &v in &by_depth {
        if st[v].sampled {
            st[v].range = (1, st[v].s_global);
        }
        let start = st[v].range.0;
        for &c in tree.child_ranks(v) {
            let c = c as usize;
            let c_start = start + 1 + prefix[c];
            if st[c].sampled {
                // Virtual child: records its offset, does not forward.
                st[c].q_shift = c_start - 1;
            } else {
                st[c].range = (c_start, c_start + st[c].s_global - 1);
            }
        }
    }
    ledger.charge_rounds_span(b + 1, rec);

    // ---- Stage 3b: Algorithm 6 (global shifts by pointer jumping) ----------
    for &x in &sampled {
        st[x].shift = st[x].q_shift;
    }
    for it in 0..iters {
        ledger.charge_broadcast_span(sampled.len() as u64, d, rec);
        let snapshot: Vec<u64> = sampled.iter().map(|&x| st[x].shift).collect();
        for (k, &x) in sampled.iter().enumerate() {
            if let Some(a) = st[x].ancestors[it] {
                memory.touch(slot(x), 1);
                st[x].shift = snapshot[k] + snapshot[sampled_pos[a]];
            }
        }
    }

    // ---- Stage 3c: distribute shifts; finalize tables and labels -----------
    for &v in &by_depth {
        if !st[v].sampled {
            st[v].shift = st[st[v].local_root].shift;
        }
        memory.set(slot(v), st[v].words());
    }
    ledger.charge_rounds_span(b + 1, rec);
    rec.end_with_memory(ranges_span, memory.peaks());

    let finalize_span = rec.begin("tree/finalize");
    let (tables, labels) = st
        .into_iter()
        .enumerate()
        .map(|(r, s)| {
            let enter = s.range.0 + s.shift;
            let table = TreeTable {
                enter,
                exit: s.range.1 + s.shift,
                parent: tree.parent_rank(r).map(|p| members[p]),
                heavy: s.heavy.map(|h| members[h]),
            };
            let label = TreeLabel {
                enter,
                light: s.light_global,
            };
            (table, label)
        })
        .unzip();
    let scheme = TreeScheme::from_parts(members.to_vec(), tables, labels);
    rec.end_with_memory(finalize_span, memory.peaks());

    DistributedOutput {
        scheme,
        ledger,
        memory,
        virtual_count,
        virtual_depth,
        max_local_depth: b as usize,
        bfs_depth: d as usize,
    }
}

/// Convenience: build with the default `q = 1/√n` and compare-ready output.
pub fn build_default<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    rng: &mut R,
) -> DistributedOutput {
    build(network, tree, &Config::default(), rng)
}

/// Sanity helper used by tests and benches: assert the distributed scheme is
/// *identical* to the centralized Thorup–Zwick scheme for the same tree.
///
/// # Panics
///
/// Panics with a description of the first mismatch.
pub fn assert_matches_centralized(tree: &RootedTree, out: &DistributedOutput) {
    let want = tz::build(tree);
    for v in tree.vertices() {
        assert_eq!(out.scheme.table(v), want.table(v), "table mismatch at {v}");
        assert_eq!(out.scheme.label(v), want.label(v), "label mismatch at {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router;
    use graphs::{generators, tree::shortest_path_tree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, seed: u64) -> (Network, RootedTree, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 2.5 / n as f64, 1..=20, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        (Network::new(g), t, rng)
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn matches_centralized_on_random_networks() {
        for seed in 0..5 {
            let (net, t, mut rng) = setup(120, seed);
            let out = build_default(&net, &t, &mut rng);
            assert_matches_centralized(&t, &out);
        }
    }

    #[test]
    fn matches_centralized_on_geometric_networks() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_geometric_connected(150, 0.1, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(3));
        let net = Network::new(g);
        let out = build_default(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn routes_exactly() {
        let (net, t, mut rng) = setup(60, 9);
        let out = build_default(&net, &t, &mut rng);
        router::verify_exactness(&t, &out.scheme);
    }

    #[test]
    fn q_extremes_still_correct() {
        let (net, t, mut rng) = setup(60, 10);
        // q = 0: only the root is virtual (single local tree).
        let out0 = build(
            &net,
            &t,
            &Config {
                q: Some(0.0),
                ..Config::default()
            },
            &mut rng,
        );
        assert_matches_centralized(&t, &out0);
        assert_eq!(out0.virtual_count, 1);
        // q = 1: every vertex is virtual (local trees are single vertices).
        let out1 = build(
            &net,
            &t,
            &Config {
                q: Some(1.0),
                ..Config::default()
            },
            &mut rng,
        );
        assert_matches_centralized(&t, &out1);
        assert_eq!(out1.virtual_count, t.num_vertices());
        assert_eq!(out1.max_local_depth, 0);
    }

    #[test]
    fn memory_is_logarithmic_not_sqrt() {
        let (net, t, mut rng) = setup(400, 11);
        let out = build_default(&net, &t, &mut rng);
        let n = t.num_vertices();
        let bound = 15 + 7 * log2_ceil(n);
        assert!(
            out.memory.max_peak() <= bound,
            "peak memory {} exceeds O(log n) bound {}",
            out.memory.max_peak(),
            bound
        );
    }

    #[test]
    fn singleton_tree_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::star(1, 1..=1, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = build_default(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
        let table = out.scheme.table(VertexId(0)).unwrap();
        assert_eq!((table.enter, table.exit), (1, 1));
    }

    #[test]
    fn path_network_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::path(80, 1..=7, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = build_default(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn star_network_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = generators::star(50, 1..=7, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = build_default(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn rounds_scale_like_sqrt_n_plus_d() {
        // Crude shape check: rounds on n=900 should be far below n, and
        // roughly c·(√n·log n + D).
        let (net, t, mut rng) = setup(900, 15);
        let out = build_default(&net, &t, &mut rng);
        let n = t.num_vertices() as f64;
        let d = out.bfs_depth as f64;
        let budget = 60.0 * (n.sqrt() * n.log2() + d);
        assert!(
            (out.ledger.rounds() as f64) < budget,
            "rounds {} exceed Õ(√n + D) budget {}",
            out.ledger.rounds(),
            budget
        );
    }

    #[test]
    fn virtual_count_tracks_q() {
        let (net, t, mut rng) = setup(500, 16);
        let out = build(
            &net,
            &t,
            &Config {
                q: Some(0.1),
                ..Config::default()
            },
            &mut rng,
        );
        let expected = 0.1 * 500.0;
        assert!(
            (out.virtual_count as f64) > expected / 3.0
                && (out.virtual_count as f64) < expected * 3.0,
            "virtual count {} far from {}",
            out.virtual_count,
            expected
        );
    }

    #[test]
    fn observed_build_spans_partition_ledger() {
        let (net, t, mut rng) = setup(150, 18);
        let mut rec = obs::Recorder::new();
        let out = build_observed(&net, &t, &Config::default(), &mut rng, &mut rec);
        assert_matches_centralized(&t, &out);
        // Every charge happened inside a top-level stage span.
        assert_eq!(rec.totals(), out.ledger.counters());
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "tree/backbone",
                "tree/partition",
                "tree/subtree-sizes",
                "tree/light-edges",
                "tree/dfs-ranges",
                "tree/finalize",
            ]
        );
        let sum: u64 = rec.spans().iter().map(|s| s.delta.rounds).sum();
        assert_eq!(sum, out.ledger.rounds());
        assert_eq!(
            rec.spans().last().unwrap().peak_memory_words,
            out.memory.max_peak()
        );
    }

    #[test]
    fn table_and_label_sizes_match_theorem() {
        let (net, t, mut rng) = setup(300, 17);
        let out = build_default(&net, &t, &mut rng);
        assert_eq!(out.scheme.max_table_words(), 4);
        assert!(out.scheme.max_label_words() <= 1 + 2 * log2_ceil(t.num_vertices()));
    }
}
