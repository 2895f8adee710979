//! Engine validation of the construction's cost model.
//!
//! The orchestrated construction in [`crate::distributed`] charges rounds by
//! the model's price list (tree waves = depth rounds, Lemma-1 broadcasts =
//! `M + D` rounds). This module re-runs its first stage — partition into
//! local trees, local subtree sizes, and Algorithm 1's pointer jumping — as
//! *real protocols* on the synchronous engine: partition and convergecast as
//! per-vertex state machines over tree edges, and every pointer-jumping
//! broadcast as the actual gossip flood of [`congest::broadcast`]. The
//! engine-measured round count then validates the charged one, and the
//! computed subtree sizes must equal the centralized ground truth.

use congest::broadcast::broadcast_all;
use congest::engine::{Ctx, Engine, Inbox, VertexProtocol};
use congest::Network;
use graphs::{RootedTree, VertexId};
use rand::Rng;

use crate::distributed::log2_ceil;

/// Per-vertex state for partition + local subtree sizes, as one protocol.
#[derive(Clone, Debug)]
struct Stage1Vertex {
    in_tree: bool,
    sampled: bool,
    parent: Option<VertexId>,
    children: Vec<VertexId>,
    /// Local root learned in the partition wave.
    local_root: Option<VertexId>,
    /// Children that count toward the local subtree (non-sampled ones);
    /// learned from "I am sampled" notices in round 0.
    pending_children: usize,
    acc: u64,
    sent_up: bool,
}

/// Messages: partition notice carrying the local root id, a sampled-child
/// notice, or an upward partial size.
#[derive(Clone, Debug)]
enum Stage1Msg {
    /// "Your local root is …" (flows root-ward to leaf-ward).
    Root(VertexId),
    /// "I am sampled — do not wait for my size" (child to parent).
    Cut,
    /// Partial subtree size (child to parent).
    Size(u64),
}

impl congest::WordSized for Stage1Msg {
    fn words(&self) -> usize {
        1
    }
}

impl VertexProtocol for Stage1Vertex {
    type Msg = Stage1Msg;

    fn init(&mut self, ctx: &mut Ctx<'_, Stage1Msg>) {
        if !self.in_tree {
            return;
        }
        if self.sampled {
            self.local_root = Some(ctx.me());
            for i in 0..self.children.len() {
                let c = self.children[i];
                ctx.send(c, Stage1Msg::Root(ctx.me()));
            }
            if let Some(p) = self.parent {
                ctx.send(p, Stage1Msg::Cut);
            }
        }
        if self.pending_children == self.children.len() {
            // Leaves can't know yet how many children are sampled; they wait
            // for round messages. True leaves start the size wave at once.
            if self.children.is_empty() && !self.sampled {
                // Wait until we know our local root before sending the size.
            }
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Stage1Msg>, inbox: &mut Inbox<'_, Stage1Msg>) {
        if !self.in_tree {
            return;
        }
        let had_root = self.local_root.is_some();
        for (from, msg) in inbox.iter() {
            match msg {
                Stage1Msg::Root(w) => {
                    if !self.sampled && self.local_root.is_none() {
                        self.local_root = Some(*w);
                    }
                    // Sampled vertices hear it too (their virtual parent).
                }
                Stage1Msg::Cut => {
                    self.pending_children -= 1;
                }
                Stage1Msg::Size(s) => {
                    self.acc += s;
                    self.pending_children -= 1;
                }
            }
            let _ = from;
        }
        // Freshly partitioned non-sampled vertices forward the root notice.
        if !self.sampled && !had_root {
            if let Some(w) = self.local_root {
                for i in 0..self.children.len() {
                    let c = self.children[i];
                    ctx.send(c, Stage1Msg::Root(w));
                }
            }
        }
        // Send the size up once everything below has reported and we know
        // our local tree.
        if !self.sent_up && self.local_root.is_some() && self.pending_children == 0 && !self.sampled
        {
            if let Some(p) = self.parent {
                ctx.send(p, Stage1Msg::Size(self.acc));
                self.sent_up = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        !self.in_tree || self.sampled || (self.sent_up || self.parent.is_none())
    }

    fn memory_words(&self) -> usize {
        if self.in_tree {
            6
        } else {
            0
        }
    }
}

/// The outcome of the engine-validated Stage 1.
#[derive(Clone, Debug)]
pub struct Stage1Validation {
    /// Global subtree size per sampled vertex (host-indexed, `None` off-`U`).
    pub s_global: Vec<Option<u64>>,
    /// Engine-measured rounds for the whole stage.
    pub engine_rounds: u64,
    /// What the orchestrated model would charge for the same schedule.
    pub charged_rounds: u64,
    /// Sampled-set size `|U(T)|`.
    pub sampled: usize,
}

/// Run partition + local sizes + Algorithm 1 as real protocols.
///
/// # Panics
///
/// Panics if the tree is empty or hosts disagree.
pub fn validate_stage1<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    q: f64,
    rng: &mut R,
) -> Stage1Validation {
    let n = network.len();
    assert_eq!(tree.host_len(), n, "tree host must match network");
    assert!(tree.num_vertices() > 0, "empty tree");
    let root = tree.root();

    // Sample U(T).
    let mut sampled_flag = vec![false; n];
    for v in tree.vertices() {
        sampled_flag[v.index()] = v == root || rng.gen_bool(q.clamp(0.0, 1.0));
    }

    // --- Partition + local sizes: one engine run -----------------------------
    let protos: Vec<Stage1Vertex> = (0..n)
        .map(|i| {
            let v = VertexId(i as u32);
            Stage1Vertex {
                in_tree: tree.contains(v),
                sampled: sampled_flag[i],
                parent: tree.parent(v),
                children: tree.children(v).to_vec(),
                local_root: None,
                pending_children: tree.children(v).len(),
                acc: 1,
                sent_up: false,
            }
        })
        .collect();
    let (protos, stats_local) = Engine::new().run(network, protos);
    let mut engine_rounds = stats_local.rounds;

    // Local sizes at sampled vertices (their acc after the convergecast).
    let mut s: Vec<Option<u64>> = (0..n)
        .map(|i| sampled_flag[i].then(|| protos[i].acc))
        .collect();

    // --- Algorithm 1: pointer jumping with *real* gossip broadcasts ---------
    let sampled: Vec<VertexId> = tree
        .vertices()
        .filter(|v| sampled_flag[v.index()])
        .collect();
    // Virtual parents from the partition protocol: the Root notice a sampled
    // vertex heard names its virtual parent's tree... it heard its *tree
    // parent's* local root; reconstruct from protos.
    let mut a: Vec<Option<VertexId>> = vec![None; n];
    for &x in &sampled {
        if x != root {
            let p = tree.parent(x).expect("non-root");
            a[x.index()] = protos[p.index()].local_root;
        }
    }
    let iters = log2_ceil(tree.num_vertices().max(2));
    let bfs_depth = congest::bfs::build_bfs_tree(network, root).depth as u64;
    let mut charged = 0u64;
    for _ in 0..iters {
        // Real broadcast: every sampled x floods (a_i(x), s_i(x)), packed
        // into one word each plus the origin id the gossip item carries.
        let mut items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for &x in &sampled {
            let packed = (a[x.index()].map_or(u64::MAX >> 32, |p| u64::from(p.0)) << 32)
                | (s[x.index()].expect("sampled") & 0xffff_ffff);
            items[x.index()].push((0, packed));
        }
        let out = broadcast_all(network, items);
        engine_rounds += out.stats.rounds;
        charged += sampled.len() as u64 + bfs_depth;
        // Everyone heard everything; sampled vertices update locally.
        let decode = |v: VertexId| -> (Option<VertexId>, u64) {
            let packed = out.received[0]
                .iter()
                .find(|&&(o, _, _)| o == v)
                .map(|&(_, _, p)| p)
                .expect("gossip delivered everywhere");
            let a_raw = packed >> 32;
            let a = (a_raw != (u64::MAX >> 32)).then_some(VertexId(a_raw as u32));
            (a, packed & 0xffff_ffff)
        };
        let snapshot_a = a.clone();
        let snapshot_s = s.clone();
        for &x in &sampled {
            // a_{i+1}(x) = a_i(a_i(x)).
            a[x.index()] = snapshot_a[x.index()].and_then(|p| decode(p).0);
        }
        for &x in &sampled {
            if let Some(p) = snapshot_a[x.index()] {
                let add = snapshot_s[x.index()].expect("sampled");
                *s[p.index()].as_mut().expect("sampled target") += add;
            }
        }
    }
    // Local stage charges: two waves of (max local depth + 1) each; measure
    // the depth from the partition result.
    let mut b = 0u64;
    for v in tree.vertices() {
        let mut depth = 0;
        let mut cur = v;
        while !sampled_flag[cur.index()] {
            cur = tree.parent(cur).expect("member");
            depth += 1;
        }
        b = b.max(depth);
    }
    charged += 2 * (b + 1);

    Stage1Validation {
        s_global: s,
        engine_rounds,
        charged_rounds: charged,
        sampled: sampled.len(),
    }
}

/// Result of the engine-run Algorithm 3 (global light edges).
#[derive(Clone, Debug)]
pub struct Stage2Validation {
    /// Per sampled vertex: the light edges on its root path (host-indexed).
    pub light: Vec<Option<Vec<(VertexId, VertexId)>>>,
    /// Engine rounds for the gossip phases.
    pub engine_rounds: u64,
}

/// Run Algorithm 3 — the pointer-jumped concatenation of light-edge lists —
/// with *real* gossip broadcasts, starting from centrally-computed local
/// lists (Algorithm 2's output, which the main construction already
/// validates against the centralized scheme).
///
/// # Panics
///
/// Panics if the tree is empty or hosts disagree.
pub fn validate_stage2<R: Rng>(
    network: &Network,
    tree: &RootedTree,
    q: f64,
    rng: &mut R,
) -> Stage2Validation {
    let n = network.len();
    assert_eq!(tree.host_len(), n, "tree host must match network");
    assert!(tree.num_vertices() > 0, "empty tree");
    let root = tree.root();
    let mut sampled_flag = vec![false; n];
    for v in tree.vertices() {
        sampled_flag[v.index()] = v == root || rng.gen_bool(q.clamp(0.0, 1.0));
    }
    // Scaffolding (already engine-validated elsewhere): partition, heavy
    // children, and the local light lists L_0(x) for sampled x.
    let centralized = crate::tz::build(tree);
    let mut order = tree.preorder();
    order.sort_by_key(|&v| {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = tree.parent(cur) {
            cur = p;
            d += 1;
        }
        (d, v)
    });
    let mut local_root: Vec<Option<VertexId>> = vec![None; n];
    let mut lists: Vec<Option<Vec<(VertexId, VertexId)>>> = vec![None; n];
    let mut path_list: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); n];
    for &v in &order {
        if sampled_flag[v.index()] {
            local_root[v.index()] = Some(v);
        } else {
            let p = tree.parent(v).expect("non-root member");
            local_root[v.index()] = local_root[p.index()];
        }
        if let Some(p) = tree.parent(v) {
            let mut list = if sampled_flag[p.index()] {
                Vec::new()
            } else {
                path_list[p.index()].clone()
            };
            let heavy = centralized.table(p).expect("parent is a member").heavy;
            if heavy != Some(v) {
                list.push((p, v));
            }
            path_list[v.index()] = list;
        }
        if sampled_flag[v.index()] {
            lists[v.index()] = Some(path_list[v.index()].clone());
        }
    }
    // Virtual parents.
    let sampled: Vec<VertexId> = order
        .iter()
        .copied()
        .filter(|v| sampled_flag[v.index()])
        .collect();
    let mut a: Vec<Option<VertexId>> = vec![None; n];
    for &x in &sampled {
        if x != root {
            let p = tree.parent(x).expect("non-root");
            a[x.index()] = local_root[p.index()];
        }
    }
    // Pointer jumping with real gossip: each iteration, every sampled x
    // broadcasts its ancestor pointer and its list (one gossip item per
    // list element plus one for the pointer).
    let mut engine_rounds = 0;
    let iters = log2_ceil(tree.num_vertices().max(2));
    for _ in 0..iters {
        let mut items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for &x in &sampled {
            let ptr = a[x.index()].map_or(u64::MAX, |p| u64::from(p.0));
            items[x.index()].push((0, ptr));
            for (j, &(p, c)) in lists[x.index()]
                .as_ref()
                .expect("sampled")
                .iter()
                .enumerate()
            {
                items[x.index()].push((j as u32 + 1, (u64::from(p.0) << 32) | u64::from(c.0)));
            }
        }
        let out = broadcast_all(network, items);
        engine_rounds += out.stats.rounds;
        // Digest: everyone heard everything; use vertex 0's view.
        let view = &out.received[0];
        let ptr_of = |v: VertexId| -> Option<VertexId> {
            view.iter()
                .find(|&&(o, seq, _)| o == v && seq == 0)
                .and_then(|&(_, _, p)| (p != u64::MAX).then_some(VertexId(p as u32)))
        };
        let list_of = |v: VertexId| -> Vec<(VertexId, VertexId)> {
            let mut es: Vec<(u32, u64)> = view
                .iter()
                .filter(|&&(o, seq, _)| o == v && seq > 0)
                .map(|&(_, seq, p)| (seq, p))
                .collect();
            es.sort_by_key(|&(seq, _)| seq);
            es.iter()
                .map(|&(_, p)| (VertexId((p >> 32) as u32), VertexId(p as u32)))
                .collect()
        };
        let snapshot_a = a.clone();
        for &x in &sampled {
            if let Some(anc) = snapshot_a[x.index()] {
                // L_{i+1}(x) = L_i(a_i(x)) ++ L_i(x); a_{i+1}(x) = a_i(a_i(x)).
                let mut merged = list_of(anc);
                merged.extend(lists[x.index()].as_ref().expect("sampled"));
                lists[x.index()] = Some(merged);
                a[x.index()] = ptr_of(anc);
            }
        }
    }
    Stage2Validation {
        light: lists,
        engine_rounds,
    }
}

// ---------------------------------------------------------------------------
// Algorithm 5 (Appendix A): the sibling range partition as a real protocol.
// ---------------------------------------------------------------------------

/// Messages of the range-partition protocol.
#[derive(Clone, Debug)]
enum RangeMsg {
    /// Child → parent: `(my 1-based index, my current prefix sum)`.
    Up(u32, u64),
    /// Parent → a specific child: the partial sum to fold in.
    Down(u64),
}

impl congest::WordSized for RangeMsg {
    fn words(&self) -> usize {
        2
    }
}

/// Per-vertex state: O(1) algorithmic words. The `children` list mirrors the
/// port numbering (the communication interface, not metered memory — see
/// Appendix A: "there is some order on these children (given by the port
/// numbers, say)").
#[derive(Clone, Debug)]
struct RangeVertex {
    parent: Option<VertexId>,
    children: Vec<VertexId>,
    /// 1-based index among the parent's children (port-derived).
    index: u32,
    /// Sibling count (how many children the parent has).
    siblings: u32,
    /// Running prefix sum, starts at the own subtree size.
    acc: u64,
}

impl RangeVertex {
    /// Whether this child sends its prefix to the parent at iteration `i`,
    /// i.e. it sits at position `(2t−1)·2^i` and has someone to its right.
    fn sends_at(&self, i: u32) -> bool {
        if self.parent.is_none() || self.index >= self.siblings {
            return false;
        }
        let j0 = self.index - 1; // 0-based
        let block = 1u32 << (i + 1);
        j0 % block == (1 << i) - 1
    }
}

impl VertexProtocol for RangeVertex {
    type Msg = RangeMsg;

    fn init(&mut self, ctx: &mut Ctx<'_, RangeMsg>) {
        if self.sends_at(0) {
            let p = self.parent.expect("sender has a parent");
            ctx.send(p, RangeMsg::Up(self.index, self.acc));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, RangeMsg>, inbox: &mut Inbox<'_, RangeMsg>) {
        // As a parent: relay Ups to the right-hand block, O(1) state.
        // As a child: fold any Down into the accumulator.
        let r = ctx.round();
        for (_, msg) in inbox.drain() {
            match msg {
                RangeMsg::Up(j, value) => {
                    let i = (r - 1) / 2; // the iteration this Up belongs to
                    let span = 1u64 << i;
                    let last = (u64::from(j) + span).min(self.children.len() as u64);
                    for tgt in (u64::from(j) + 1)..=last {
                        let c = self.children[(tgt - 1) as usize];
                        ctx.send(c, RangeMsg::Down(value));
                    }
                }
                RangeMsg::Down(value) => {
                    self.acc += value;
                }
            }
        }
        // Timed sends: iteration i fires at round 2i (init is round 0).
        if r % 2 == 0 {
            let i = (r / 2) as u32;
            if i < 32 && self.sends_at(i) {
                let p = self.parent.expect("sender has a parent");
                ctx.send(p, RangeMsg::Up(self.index, self.acc));
            }
        }
    }

    fn is_done(&self) -> bool {
        // Message-driven after the last possible send; quiescence ends it.
        true
    }

    fn memory_words(&self) -> usize {
        4 // index, sibling count, accumulator, parent
    }
}

/// Result of the engine-run Algorithm 5.
#[derive(Clone, Debug)]
pub struct RangePartitionValidation {
    /// Per host vertex, the computed prefix sum `S(y_j) = Σ_{h ≤ j} s_h`.
    pub prefix: Vec<u64>,
    /// Engine rounds (≈ 2·log₂ of the maximum degree).
    pub engine_rounds: u64,
}

/// Run Algorithm 5 on `tree` with the given per-vertex subtree `sizes`,
/// in parallel for every internal vertex, as a real protocol.
///
/// # Panics
///
/// Panics if hosts disagree or a vertex has more than 2³¹ children.
pub fn validate_range_partition(
    network: &Network,
    tree: &RootedTree,
    sizes: &[u64],
) -> RangePartitionValidation {
    let n = network.len();
    assert_eq!(tree.host_len(), n, "tree host must match network");
    assert_eq!(sizes.len(), n, "one size per vertex");
    let protos: Vec<RangeVertex> = (0..n)
        .map(|idx| {
            let v = VertexId(idx as u32);
            let parent = tree.parent(v);
            let (index, siblings) = match parent {
                Some(p) => {
                    let kids = tree.children(p);
                    let pos = kids.iter().position(|&c| c == v).expect("is a child") as u32;
                    (pos + 1, kids.len() as u32)
                }
                None => (0, 0),
            };
            RangeVertex {
                parent,
                children: tree.children(v).to_vec(),
                index,
                siblings,
                acc: sizes[idx],
            }
        })
        .collect();
    let (protos, stats) = Engine::new().run(network, protos);
    RangePartitionValidation {
        prefix: protos.into_iter().map(|p| p.acc).collect(),
        engine_rounds: stats.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, tree::shortest_path_tree};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(n: usize, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let q = 1.0 / (n as f64).sqrt();
        let out = validate_stage1(&net, &t, q, &mut rng);
        // Ground truth: subtree sizes from the centralized recursion.
        let sizes = t.subtree_sizes();
        for v in t.vertices() {
            if let Some(s) = out.s_global[v.index()] {
                assert_eq!(s, sizes[v.index()] as u64, "subtree size at {v}");
            }
        }
        assert_eq!(out.s_global[0], Some(n as u64));
    }

    #[test]
    fn real_protocols_compute_correct_sizes() {
        for (n, seed) in [(60, 1), (120, 2), (200, 3)] {
            check(n, seed);
        }
    }

    #[test]
    fn engine_rounds_validate_the_charge_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 150;
        let g = generators::erdos_renyi_connected(n, 0.04, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = validate_stage1(&net, &t, 1.0 / (n as f64).sqrt(), &mut rng);
        // The measured rounds and the model's charge agree within a small
        // constant factor in both directions.
        let (e, c) = (out.engine_rounds as f64, out.charged_rounds as f64);
        assert!(e <= 4.0 * c, "engine {e} far above charge {c}");
        assert!(c <= 6.0 * e, "charge {c} far above engine {e}");
    }

    #[test]
    fn works_on_deep_paths() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::path(100, 1..=3, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = validate_stage1(&net, &t, 0.15, &mut rng);
        assert_eq!(out.s_global[0], Some(100));
        let sizes = t.subtree_sizes();
        for v in t.vertices() {
            if let Some(s) = out.s_global[v.index()] {
                assert_eq!(s, sizes[v.index()] as u64);
            }
        }
    }

    #[test]
    fn stage2_light_lists_match_centralized_labels() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let g = generators::erdos_renyi_connected(120, 0.05, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = validate_stage2(&net, &t, 0.12, &mut rng);
        let want = crate::tz::build(&t);
        let mut checked = 0;
        for v in t.vertices() {
            if let Some(list) = &out.light[v.index()] {
                assert_eq!(
                    list,
                    &want.label(v).unwrap().light,
                    "global light list at {v}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 2, "need some sampled vertices to validate");
        assert!(out.engine_rounds > 0);
    }

    #[test]
    fn range_partition_computes_prefix_sums() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::star(40, 1..=5, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let sizes: Vec<u64> = (0..40).map(|i| (i as u64 % 7) + 1).collect();
        let out = validate_range_partition(&net, &t, &sizes);
        // Children of the star center are 1..39 in id order.
        let kids = t.children(VertexId(0)).to_vec();
        let mut prefix = 0;
        for &c in &kids {
            prefix += sizes[c.index()];
            assert_eq!(out.prefix[c.index()], prefix, "child {c}");
        }
        // 39 children: 2·⌈log2 39⌉ = 12 rounds, plus delivery slack.
        assert!(
            out.engine_rounds <= 2 * 6 + 3,
            "rounds {} above 2·log2(deg)",
            out.engine_rounds
        );
    }

    #[test]
    fn range_partition_runs_for_all_vertices_in_parallel() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::erdos_renyi_connected(120, 0.05, 1..=9, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let sizes: Vec<u64> = t.subtree_sizes().iter().map(|&s| s as u64).collect();
        let out = validate_range_partition(&net, &t, &sizes);
        for v in t.vertices() {
            let mut prefix = 0;
            for &c in t.children(v) {
                prefix += sizes[c.index()];
                assert_eq!(out.prefix[c.index()], prefix, "child {c} of {v}");
            }
        }
    }

    #[test]
    fn range_partition_on_single_child_is_trivial() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = generators::path(10, 1..=3, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let sizes = vec![2u64; 10];
        let out = validate_range_partition(&net, &t, &sizes);
        // Every vertex has one child: prefix = its own size, no messages.
        for v in t.vertices() {
            assert_eq!(out.prefix[v.index()], 2);
        }
        assert_eq!(out.engine_rounds, 0);
    }

    #[test]
    fn all_sampled_degenerates_to_direct_jumping() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::erdos_renyi_connected(50, 0.1, 1..=5, &mut rng);
        let t = shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = validate_stage1(&net, &t, 1.0, &mut rng);
        assert_eq!(out.sampled, 50);
        let sizes = t.subtree_sizes();
        for v in t.vertices() {
            assert_eq!(out.s_global[v.index()], Some(sizes[v.index()] as u64));
        }
    }
}
