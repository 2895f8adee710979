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
//! Every per-vertex quantity below lives in a rank-indexed [`Scratch`]
//! array holding *only* what the model lets that vertex hold; rounds are
//! charged to the caller's [`obs::Recorder`] per the schedule above, and
//! memory is metered after every stage (plus transient touches) by a
//! [`MemoryMeter`]. Light-edge lists are simulated by their lengths, which is
//! all the charges and the meter read; a label's list is written once, at the end, for the members a
//! caller asks for.

use congest::{bfs, MemoryMeter, Network};
use graphs::{RootedTree, VertexId};
use rand::Rng;

use crate::types::{TreeLabel, TreeScheme, TreeTable};
use crate::tz;

/// Ceiling of log₂, with `log2_ceil(0) = log2_ceil(1) = 0`.
pub fn log2_ceil(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Tuning knobs for a tree construction — this one's and
/// [`crate::baseline`]'s.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Sampling probability for `U`; `None` selects the paper's `1/√n`.
    pub q: Option<f64>,
    /// Depth of an already-built BFS broadcast backbone. When set, the
    /// construction neither re-runs the BFS protocol nor re-meters its 3
    /// words per vertex — callers constructing many trees (the general-graph
    /// scheme, through a [`crate::multi::Schedule`]) build the backbone once
    /// and share it.
    pub backbone_depth: Option<usize>,
}

/// The meter slot of the member with rank `r` (see [`TreeRun::memory`]).
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

/// "No rank" in the scratch's rank-valued arrays.
const NONE: u32 = u32::MAX;

/// Words of persistent state a member holds — the quantity Theorem 2 bounds
/// by `O(log n)`: twelve scalars (membership, roots, sizes, heavy child,
/// range, shifts), its pointer-jumping ancestors, and two words per light
/// edge in its local and global lists.
fn words(ancestors: usize, local: u32, global: u32) -> usize {
    12 + ancestors + 2 * local as usize + 2 * global as usize
}

/// The working state of one tree's simulation, one entry per member rank
/// (vertex references inside are ranks too), reused across trees: each run
/// clears every array and resizes it to `|T|`, so a caller simulating many
/// trees allocates for the largest one only.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Ranks breadth-first from the root (every parent before its children).
    order: Vec<u32>,
    sampled: Vec<bool>,
    /// Root of the local tree containing the member.
    local_root: Vec<u32>,
    /// Depth within the local tree.
    local_depth: Vec<u32>,
    /// For sampled members: the parent in the virtual tree `T'`.
    virt_parent: Vec<u32>,
    /// Subtree size within the local tree (Stage 1a).
    s_local: Vec<u64>,
    /// Subtree size within the global tree (Stages 1b/1c).
    s_global: Vec<u64>,
    /// Heavy child in `T` (Stage 1d).
    heavy: Vec<u32>,
    /// Top of the member's heavy path: the member itself unless it is its
    /// parent's heavy child. Its parent edge is the nearest light edge above.
    head: Vec<u32>,
    /// Length of Algorithm 2's list `L(u)`: light edges from the local root
    /// (non-sampled) or from the virtual parent (sampled) to the member.
    local_len: Vec<u32>,
    /// Length of the global list (from the root of `T`), Stages 2b/2c.
    global_len: Vec<u32>,
    /// Local DFS range (Stage 3a), 1-based within the local frame.
    range: Vec<(u64, u64)>,
    /// Range offset `q_x` a sampled member's range had in its parent's frame.
    q_shift: Vec<u64>,
    /// Total shift after Algorithm 6.
    shift: Vec<u64>,
    /// `U(T)` ascending, and each sampled member's position in it (what a
    /// broadcast record is keyed by).
    virtual_ranks: Vec<u32>,
    virtual_pos: Vec<u32>,
    /// Pointer-jumping ancestors `a_i(x)` as positions in `U(T)`, one row of
    /// `|U(T)|` per iteration.
    ancestors: Vec<u32>,
    /// Per position in `U(T)`: the value Algorithms 1, 3 and 6 jump, and the
    /// broadcast snapshot of it each iteration reads.
    jump: Vec<u64>,
    snapshot: Vec<u64>,
}

/// Clear `v` and refill it with `n` copies of `value`, keeping its capacity.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// One tree's construction: every member's table, the labels a caller asked
/// for, and what the run cost.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeRun {
    /// One table per member, by rank — identical to [`crate::tz::build`]'s
    /// on the same tree (same tie-breaking), as the tests assert.
    pub tables: Vec<TreeTable>,
    /// One label per rank asked for, in the order asked.
    pub labels: Vec<TreeLabel>,
    /// What the whole construction charged to its recorder.
    pub cost: obs::Counters,
    /// Per-member memory high-water marks, one slot per rank (slot `r`
    /// belongs to `tree.members()[r]`; for a spanning tree slots are vertex
    /// ids). Vertices outside the tree hold no construction state and are
    /// not metered.
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

impl TreeRun {
    /// The scheme of a run asked for every label in rank order (as [`build`]
    /// asks), over `tree`'s members.
    ///
    /// # Panics
    ///
    /// Panics if the run does not hold exactly one label per member.
    pub fn scheme(&self, tree: &RootedTree) -> TreeScheme {
        TreeScheme::from_parts(
            tree.members().to_vec(),
            self.tables.clone(),
            self.labels.clone(),
        )
    }
}

/// Run the paper's construction for `tree` inside `network`, writing every
/// member's label, with per-stage span attribution on `rec`:
/// `tree/partition`, `tree/subtree-sizes` (§3 Stage 1), `tree/light-edges`
/// (Stage 2), `tree/dfs-ranges` (Stage 3), and `tree/finalize` (plus
/// `tree/backbone` when no shared BFS backbone is configured). Every charge
/// falls inside one of them, so span deltas partition [`TreeRun::cost`].
///
/// This is [`Scratch::run`] on a fresh scratch, asked for every label.
///
/// # Panics
///
/// Panics if the tree's host universe is not the network.
pub fn build<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    config: &Config,
    rng: &mut R,
    rec: &mut obs::Recorder,
) -> TreeRun {
    let every: Vec<usize> = (0..tree.num_vertices()).collect();
    Scratch::default().run(network, tree, config, &every, rng, rec)
}

impl Scratch {
    /// Run the paper's construction for `tree` inside `network`, writing the
    /// label of every rank in `labels` (a rank may repeat). Spans, charges,
    /// meter calls and RNG draws are those of [`build`], whatever
    /// `labels` holds and whichever trees this scratch simulated before.
    ///
    /// Time is `O(|T| log |T|)` whatever the size of the host network, and
    /// nothing is allocated per member beyond the output.
    ///
    /// # Panics
    ///
    /// Panics if the tree's host universe is not the network, or if a rank
    /// in `labels` is not below `|T|`.
    pub fn run<R: Rng>(
        &mut self,
        network: &Network,
        tree: &RootedTree,
        config: &Config,
        labels: &[usize],
        rng: &mut R,
        rec: &mut obs::Recorder,
    ) -> TreeRun {
        assert_eq!(
            tree.host_len(),
            network.len(),
            "tree host must match network"
        );
        let n = tree.num_vertices();
        let members = tree.members();
        let root = tree.root_rank();

        let entry = rec.totals();
        let mut memory = MemoryMeter::new(n);

        // The BFS broadcast backbone: built once by the real protocol (O(D)
        // rounds); its depth prices every Lemma-1 broadcast below. Callers
        // that already hold a backbone share it via the config.
        let d = match config.backbone_depth {
            Some(depth) => depth as u64,
            None => {
                let span = rec.begin("tree/backbone");
                let bfs_out = bfs::build_bfs_tree(network, tree.root());
                rec.charge_rounds(bfs_out.stats.rounds);
                rec.charge_messages(bfs_out.stats.messages);
                for r in 0..n {
                    memory.add(slot(r), 3); // BFS parent/depth/flag, kept for broadcasts
                }
                rec.end_with_memory(span, memory.peaks());
                bfs_out.depth as u64
            }
        };

        // Sample U. Every vertex flips its own coin — zero rounds.
        let q = config.q.unwrap_or(1.0 / (n as f64).sqrt());
        self.sampled.clear();
        self.sampled
            .extend((0..n).map(|r| r == root || rng.gen_bool(q.clamp(0.0, 1.0))));
        reset(&mut self.local_root, n, NONE);
        reset(&mut self.local_depth, n, 0);
        reset(&mut self.virt_parent, n, NONE);
        reset(&mut self.s_local, n, 0);
        reset(&mut self.s_global, n, 0);
        reset(&mut self.heavy, n, NONE);
        reset(&mut self.head, n, NONE);
        reset(&mut self.local_len, n, 0);
        reset(&mut self.global_len, n, 0);
        reset(&mut self.range, n, (0, 0));
        reset(&mut self.q_shift, n, 0);
        reset(&mut self.shift, n, 0);
        // Every pass below needs only parents before children (or, run
        // backwards, children before parents), and no pass calls one meter
        // slot from two members' steps in an order that matters, so a
        // breadth-first order (no sort by depth) gives the same peaks.
        self.order.clear();
        self.order.push(root as u32);
        let mut next = 0;
        while next < self.order.len() {
            let v = self.order[next] as usize;
            self.order.extend_from_slice(tree.child_ranks(v));
            next += 1;
        }
        let Scratch {
            order,
            sampled,
            local_root,
            local_depth,
            virt_parent,
            s_local,
            s_global,
            heavy,
            head,
            local_len,
            global_len,
            range,
            q_shift,
            shift,
            virtual_ranks,
            virtual_pos,
            ancestors,
            jump,
            snapshot,
        } = self;
        let parent = |v: usize| tree.parent_rank(v);
        let children = |v: usize| tree.child_ranks(v).iter().map(|&c| c as usize);

        // ---- Phase 0: partition into local trees ---------------------------
        // Each w ∈ U(T) floods "I am your local root" down, stopping at
        // sampled vertices; runs in max-local-depth rounds, all trees in
        // parallel.
        let partition_span = rec.begin("tree/partition");
        for &v in order.iter() {
            let v = v as usize;
            if sampled[v] {
                local_root[v] = v as u32;
                if let Some(p) = parent(v) {
                    virt_parent[v] = local_root[p];
                }
            } else {
                let p = parent(v).expect("non-root member");
                local_root[v] = local_root[p];
                local_depth[v] = local_depth[p] + 1;
            }
        }
        let b = local_depth.iter().copied().max().unwrap_or(0) as u64;
        rec.charge_rounds(b + 1);
        virtual_ranks.clear();
        virtual_ranks.extend((0..n as u32).filter(|&r| sampled[r as usize]));
        reset(virtual_pos, n, NONE);
        for (k, &x) in virtual_ranks.iter().enumerate() {
            virtual_pos[x as usize] = k as u32;
        }
        let u = virtual_ranks.len();
        // Virtual-tree depth (simulation statistic only — no vertex stores
        // it), kept per position in `jump` for the moment.
        reset(jump, u, 0);
        let mut virtual_depth = 0;
        for &v in order.iter() {
            let v = v as usize;
            if sampled[v] && virt_parent[v] != NONE {
                let depth = jump[virtual_pos[virt_parent[v] as usize] as usize] + 1;
                jump[virtual_pos[v] as usize] = depth;
                virtual_depth = virtual_depth.max(depth as usize);
            }
        }
        let iters = log2_ceil(n.max(2));
        rec.end_with_memory(partition_span, memory.peaks());

        // ---- Stage 1a: local subtree sizes (convergecast, b rounds) --------
        let sizes_span = rec.begin("tree/subtree-sizes");
        for &v in order.iter().rev() {
            let v = v as usize;
            s_local[v] = 1 + children(v)
                .filter(|&c| !sampled[c])
                .map(|c| s_local[c])
                .sum::<u64>();
        }
        rec.charge_rounds(b + 1);

        // ---- Stage 1b: Algorithm 1 (global subtree sizes by pointer jumping)
        reset(ancestors, (iters + 1) * u, NONE);
        for (k, &x) in virtual_ranks.iter().enumerate() {
            let x = x as usize;
            if virt_parent[x] != NONE {
                ancestors[k] = virtual_pos[virt_parent[x] as usize];
            }
            jump[k] = s_local[x];
        }
        for it in 0..iters {
            // Broadcast (x, s_i(x), a_i(x)) for every sampled x: Lemma 1.
            rec.charge_broadcast(u as u64, d);
            // Each x digests the stream message-by-message: O(1) transient
            // words.
            let (done, rest) = ancestors.split_at_mut((it + 1) * u);
            let (a_i, a_next) = (&done[it * u..], &mut rest[..u]);
            for (k, &x) in virtual_ranks.iter().enumerate() {
                memory.touch(slot(x as usize), 3);
                // a_{i+1}(x) = a_i(a_i(x)).
                if a_i[k] != NONE {
                    a_next[k] = a_i[a_i[k] as usize];
                }
            }
            snapshot.clear();
            snapshot.extend_from_slice(jump);
            for (k, &a) in a_i.iter().enumerate() {
                if a != NONE {
                    jump[a as usize] += snapshot[k];
                }
            }
            for &x in virtual_ranks.iter() {
                memory.set(slot(x as usize), words(it + 2, 0, 0));
            }
        }
        for (k, &x) in virtual_ranks.iter().enumerate() {
            s_global[x as usize] = jump[k];
        }
        // What a member keeps of Algorithm 1: its `iters + 1` ancestors.
        let held = |v: usize| if sampled[v] { iters + 1 } else { 0 };

        // ---- Stage 1c: redistribute global sizes into local trees ----------
        // Leaves of each T_w re-converge sizes, with sampled children now
        // contributing their exact global size.
        for &v in order.iter().rev() {
            let v = v as usize;
            if !sampled[v] {
                s_global[v] = 1 + children(v).map(|c| s_global[c]).sum::<u64>();
            }
        }
        rec.charge_rounds(b + 1);

        // ---- Stage 1d: heavy children (children report sizes; streaming max)
        for &v in order.iter() {
            let v = v as usize;
            let mut best: Option<(u64, usize)> = None;
            for c in children(v) {
                memory.touch(slot(v), 2);
                let s = s_global[c];
                // Larger subtree wins; ties go to the smaller id (= rank).
                if best.is_none_or(|(bs, bc)| s > bs || (s == bs && c < bc)) {
                    best = Some((s, c));
                }
            }
            if let Some((_, c)) = best {
                heavy[v] = c as u32;
            }
        }
        rec.charge_rounds(1);
        for r in 0..n {
            memory.set(slot(r), words(held(r), 0, 0));
        }
        rec.end_with_memory(sizes_span, memory.peaks());

        // ---- Stage 2a: Algorithm 2 (local light edges) ---------------------
        let light_span = rec.begin("tree/light-edges");
        // Top-down within each local tree; every vertex receives its
        // parent's list and appends its own edge if it is not the heavy
        // child. The lists are O(log n) words, so the pipelined wave costs
        // b + O(log n) rounds.
        head[root] = root as u32;
        for &v in order.iter().skip(1) {
            let v = v as usize;
            let p = parent(v).expect("non-root member");
            let inherited = if sampled[p] { 0 } else { local_len[p] };
            let light = heavy[p] != v as u32;
            local_len[v] = inherited + light as u32;
            head[v] = if light { v as u32 } else { head[p] };
            memory.set(slot(v), words(held(v), local_len[v], 0));
        }
        rec.charge_rounds(b + iters as u64 + 1);

        // ---- Stage 2b: Algorithm 3 (global light edges by pointer jumping) -
        // L_0(x) is the just-computed local list (path from p'(x) to x); the
        // root has the empty list. L_{i+1}(x) = L_i(a_i(x)) ++ L_i(x), so
        // |L_{i+1}(x)| = |L_i(a_i(x))| + |L_i(x)|.
        for (k, &x) in virtual_ranks.iter().enumerate() {
            let x = x as usize;
            global_len[x] = local_len[x];
            jump[k] = global_len[x] as u64;
            memory.set(slot(x), words(held(x), local_len[x], global_len[x]));
        }
        for it in 0..iters {
            let sent: u64 = jump.iter().map(|&len| 1 + 2 * len).sum();
            rec.charge_broadcast(sent, d);
            snapshot.clear();
            snapshot.extend_from_slice(jump);
            let a_i = &ancestors[it * u..(it + 1) * u];
            for (k, &x) in virtual_ranks.iter().enumerate() {
                let x = x as usize;
                if a_i[k] != NONE {
                    let merged = snapshot[a_i[k] as usize] + snapshot[k];
                    memory.touch(slot(x), 2 * merged as usize);
                    jump[k] = merged;
                    global_len[x] = merged as u32;
                }
                memory.set(slot(x), words(held(x), local_len[x], global_len[x]));
            }
        }

        // ---- Stage 2c: distribute full lists into local trees --------------
        // y's global list = (local root's global list) ++ (y's local list).
        for &v in order.iter() {
            let v = v as usize;
            if !sampled[v] {
                global_len[v] = global_len[local_root[v] as usize] + local_len[v];
                memory.set(slot(v), words(held(v), local_len[v], global_len[v]));
            }
        }
        rec.charge_rounds(b + iters as u64 + 1);
        rec.end_with_memory(light_span, memory.peaks());

        // ---- Stage 3a: Algorithms 4 + 5 (local DFS with range partition) ---
        // Algorithm 5 runs once, in parallel for every internal vertex: each
        // child y_j learns the prefix sum S(y_j) of its elder siblings'
        // global sizes in 2·log n rounds with O(1) memory per vertex. The DFS
        // wave then needs only the parent's range start (1 word to all
        // children): local roots own [1, s_global], and children compute
        // their range from the parent's start, their prefix sum, and their
        // own size.
        let ranges_span = rec.begin("tree/dfs-ranges");
        rec.charge_rounds(2 * iters as u64);
        for &v in order.iter() {
            let v = v as usize;
            if sampled[v] {
                range[v] = (1, s_global[v]);
            }
            let mut c_start = range[v].0 + 1;
            for c in children(v) {
                memory.touch(slot(c), 2);
                if sampled[c] {
                    // Virtual child: records its offset, does not forward.
                    q_shift[c] = c_start - 1;
                } else {
                    range[c] = (c_start, c_start + s_global[c] - 1);
                }
                c_start += s_global[c];
            }
        }
        rec.charge_rounds(b + 1);

        // ---- Stage 3b: Algorithm 6 (global shifts by pointer jumping) ------
        for (k, &x) in virtual_ranks.iter().enumerate() {
            jump[k] = q_shift[x as usize];
        }
        for it in 0..iters {
            rec.charge_broadcast(u as u64, d);
            snapshot.clear();
            snapshot.extend_from_slice(jump);
            let a_i = &ancestors[it * u..(it + 1) * u];
            for (k, &x) in virtual_ranks.iter().enumerate() {
                if a_i[k] != NONE {
                    memory.touch(slot(x as usize), 1);
                    jump[k] = snapshot[k] + snapshot[a_i[k] as usize];
                }
            }
        }
        for (k, &x) in virtual_ranks.iter().enumerate() {
            shift[x as usize] = jump[k];
        }

        // ---- Stage 3c: distribute shifts; finalize tables and labels -------
        for &v in order.iter() {
            let v = v as usize;
            if !sampled[v] {
                shift[v] = shift[local_root[v] as usize];
            }
            memory.set(slot(v), words(held(v), local_len[v], global_len[v]));
        }
        rec.charge_rounds(b + 1);
        rec.end_with_memory(ranges_span, memory.peaks());

        let finalize_span = rec.begin("tree/finalize");
        let id = |r: u32| (r != NONE).then(|| members[r as usize]);
        let tables = (0..n)
            .map(|r| TreeTable {
                enter: range[r].0 + shift[r],
                exit: range[r].1 + shift[r],
                parent: parent(r).map(|p| members[p]),
                heavy: id(heavy[r]),
            })
            .collect();
        // A label's light edges are the parent edges of the heavy-path tops
        // on its root path, listed root-side first.
        let labels = labels
            .iter()
            .map(|&r| {
                let mut light = Vec::with_capacity(global_len[r] as usize);
                let mut at = r;
                while let Some(p) = parent(head[at] as usize) {
                    light.push((members[p], members[head[at] as usize]));
                    at = p;
                }
                light.reverse();
                assert_eq!(
                    light.len(),
                    global_len[r] as usize,
                    "Algorithm 3's list length"
                );
                TreeLabel {
                    enter: range[r].0 + shift[r],
                    light,
                }
            })
            .collect();
        rec.end_with_memory(finalize_span, memory.peaks());

        TreeRun {
            tables,
            labels,
            cost: rec.charged_since(&entry),
            memory,
            virtual_count: u,
            virtual_depth,
            max_local_depth: b as usize,
            bfs_depth: d as usize,
        }
    }
}

/// Sanity helper used by tests and benches: assert that `run`, asked for
/// every label in rank order, is *identical* to the centralized
/// Thorup–Zwick scheme for the same tree.
///
/// # Panics
///
/// Panics with a description of the first mismatch.
pub fn assert_matches_centralized(tree: &RootedTree, run: &TreeRun) {
    let (_, tables, labels) = tz::build(tree).into_parts();
    assert_eq!(run.labels.len(), labels.len(), "one label per member");
    for (r, v) in tree.members().iter().enumerate() {
        assert_eq!(run.tables[r], tables[r], "table mismatch at {v}");
        assert_eq!(run.labels[r], labels[r], "label mismatch at {v}");
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

    /// [`build`] at the paper's `q = 1/√n` with its own backbone, unobserved.
    fn plain(net: &Network, t: &RootedTree, rng: &mut ChaCha8Rng) -> TreeRun {
        let disabled = &mut obs::Recorder::disabled();
        build(net, t, &Config::default(), rng, disabled)
    }

    /// [`build`] at sampling probability `q`, unobserved.
    fn at_q(net: &Network, t: &RootedTree, q: f64, rng: &mut ChaCha8Rng) -> TreeRun {
        let config = Config {
            q: Some(q),
            ..Config::default()
        };
        build(net, t, &config, rng, &mut obs::Recorder::disabled())
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
            let out = plain(&net, &t, &mut rng);
            assert_matches_centralized(&t, &out);
        }
    }

    #[test]
    fn matches_centralized_on_geometric_networks() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_geometric_connected(150, 0.1, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(3));
        let net = Network::new(g);
        let out = plain(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn routes_exactly() {
        let (net, t, mut rng) = setup(60, 9);
        let out = plain(&net, &t, &mut rng);
        router::verify_exactness(&t, &out.scheme(&t));
    }

    #[test]
    fn q_extremes_still_correct() {
        let (net, t, mut rng) = setup(60, 10);
        // q = 0: only the root is virtual (single local tree).
        let out0 = at_q(&net, &t, 0.0, &mut rng);
        assert_matches_centralized(&t, &out0);
        assert_eq!(out0.virtual_count, 1);
        // q = 1: every vertex is virtual (local trees are single vertices).
        let out1 = at_q(&net, &t, 1.0, &mut rng);
        assert_matches_centralized(&t, &out1);
        assert_eq!(out1.virtual_count, t.num_vertices());
        assert_eq!(out1.max_local_depth, 0);
    }

    #[test]
    fn memory_is_logarithmic_not_sqrt() {
        let (net, t, mut rng) = setup(400, 11);
        let out = plain(&net, &t, &mut rng);
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
        let out = plain(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
        let table = &out.tables[0];
        assert_eq!((table.enter, table.exit), (1, 1));
    }

    #[test]
    fn path_network_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::path(80, 1..=7, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = plain(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn star_network_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = generators::star(50, 1..=7, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = plain(&net, &t, &mut rng);
        assert_matches_centralized(&t, &out);
    }

    #[test]
    fn rounds_scale_like_sqrt_n_plus_d() {
        // Crude shape check: rounds on n=900 should be far below n, and
        // roughly c·(√n·log n + D).
        let (net, t, mut rng) = setup(900, 15);
        let out = plain(&net, &t, &mut rng);
        let n = t.num_vertices() as f64;
        let d = out.bfs_depth as f64;
        let budget = 60.0 * (n.sqrt() * n.log2() + d);
        assert!(
            (out.cost.rounds as f64) < budget,
            "rounds {} exceed Õ(√n + D) budget {}",
            out.cost.rounds,
            budget
        );
    }

    #[test]
    fn virtual_count_tracks_q() {
        let (net, t, mut rng) = setup(500, 16);
        let out = at_q(&net, &t, 0.1, &mut rng);
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
        let out = build(&net, &t, &Config::default(), &mut rng, &mut rec);
        assert_matches_centralized(&t, &out);
        // Every charge happened inside a top-level stage span.
        assert_eq!(rec.totals(), out.cost);
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
        assert_eq!(sum, out.cost.rounds);
        assert_eq!(
            rec.spans().last().unwrap().peak_memory_words,
            out.memory.max_peak()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Big, then small, then big again: a reused scratch carries nothing
        /// from one tree into the next.
        #[test]
        fn a_reused_scratch_matches_a_fresh_one(
            sizes in (60usize..200, 1usize..12, 60usize..200),
            seed in 0u64..1_000_000,
            q in 0usize..3,
            shared_backbone in 0usize..2,
            asked in proptest::collection::vec(0usize..1000, 0..12),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let host = 200;
            let g = generators::erdos_renyi_connected(host, 0.03, 1..=20, &mut rng);
            let net = Network::new(g);
            let config = Config {
                q: [None, Some(0.0), Some(1.0)][q],
                backbone_depth: (shared_backbone == 1).then_some(4),
            };
            let mut reused = Scratch::default();
            for size in [sizes.0, sizes.1, sizes.2] {
                let mut ids: Vec<VertexId> = (0..host as u32).map(VertexId).collect();
                ids.rotate_left(rng.gen_range(0..host));
                let t = graphs::tree::random_recursive_tree(host, &ids[..size], 9, &mut rng);
                let ranks: Vec<usize> = asked.iter().map(|&r| r % size).collect();
                let mut fresh_rng = rng.clone();
                let disabled = &mut obs::Recorder::disabled();
                let got = reused.run(&net, &t, &config, &ranks, &mut rng, disabled);
                let want =
                    Scratch::default().run(&net, &t, &config, &ranks, &mut fresh_rng, disabled);
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(rng.gen::<u64>(), fresh_rng.gen::<u64>());
                let every = build(&net, &t, &config, &mut rng.clone(), disabled);
                for (&r, label) in ranks.iter().zip(&got.labels) {
                    proptest::prop_assert_eq!(&every.labels[r], label);
                }
            }
        }
    }

    #[test]
    fn table_and_label_sizes_match_theorem() {
        let (net, t, mut rng) = setup(300, 17);
        let out = plain(&net, &t, &mut rng);
        let scheme = out.scheme(&t);
        assert_eq!(scheme.max_table_words(), 4);
        assert!(scheme.max_label_words() <= 1 + 2 * log2_ceil(t.num_vertices()));
    }
}
