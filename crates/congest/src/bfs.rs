//! Distributed BFS-tree construction — the backbone for Lemma-1 broadcasts.
//!
//! A BFS tree of the (unweighted) network rooted anywhere has depth at most
//! the hop diameter `D`; every broadcast/convergecast primitive in the paper
//! runs over such a tree.

use graphs::{RootedTree, VertexId};

use crate::engine::{Ctx, Engine, Inbox, RunStats, VertexProtocol};
use crate::network::Network;

/// Per-vertex state of the BFS protocol.
///
/// The root announces depth 0; every vertex adopts the first (hence
/// hop-minimal) announcement it hears, records the sender as its parent, and
/// re-announces. In the synchronous model the first announcement heard is
/// always at the true BFS depth.
#[derive(Clone, Debug)]
pub struct BfsVertex {
    is_root: bool,
    depth: Option<u64>,
    parent: Option<VertexId>,
}

impl BfsVertex {
    /// The initial state of one vertex; exactly one vertex of the network
    /// should be the root. [`build_bfs_tree`] is the usual entry point —
    /// this is for driving the protocol on an [`Engine`] directly.
    pub fn new(is_root: bool) -> Self {
        BfsVertex {
            is_root,
            depth: None,
            parent: None,
        }
    }

    /// The BFS depth this vertex settled on (`None` if unreachable).
    pub fn depth(&self) -> Option<u64> {
        self.depth
    }

    /// The BFS parent (`None` for the root / unreachable vertices).
    pub fn parent(&self) -> Option<VertexId> {
        self.parent
    }
}

impl VertexProtocol for BfsVertex {
    type Msg = u64; // announced depth

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.is_root {
            self.depth = Some(0);
            ctx.send_all(0);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<'_, u64>) {
        if self.depth.is_some() {
            return;
        }
        if let Some((from, &d)) = inbox.iter().min_by_key(|&(_, d)| *d) {
            self.depth = Some(d + 1);
            self.parent = Some(from);
            ctx.send_all(d + 1);
        }
    }

    fn is_done(&self) -> bool {
        self.depth.is_some()
    }

    fn memory_words(&self) -> usize {
        3 // depth, parent, root flag
    }
}

/// Result of a distributed BFS-tree construction.
#[derive(Clone, Debug)]
pub struct BfsOutput {
    /// The BFS tree (spans the root's connected component).
    pub tree: RootedTree,
    /// Depth of the tree = eccentricity of the root ≤ D.
    pub depth: usize,
    /// Engine measurements for the construction.
    pub stats: RunStats,
}

/// Build a BFS tree of `network` rooted at `root` by running the real
/// distributed protocol.
///
/// # Panics
///
/// Panics if `root` is out of range.
///
/// # Examples
///
/// ```
/// use congest::{bfs, Network};
/// use graphs::{GraphBuilder, VertexId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1), 5);
/// b.add_edge(VertexId(1), VertexId(2), 5);
/// let out = bfs::build_bfs_tree(&Network::new(b.build()), VertexId(0));
/// assert_eq!(out.depth, 2);
/// ```
pub fn build_bfs_tree(network: &Network, root: VertexId) -> BfsOutput {
    build_bfs_tree_with(network, root, 1)
}

/// [`build_bfs_tree`] on an engine with `threads` workers (`0` = available
/// parallelism). The tree and stats are identical for every thread count.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn build_bfs_tree_with(network: &Network, root: VertexId, threads: usize) -> BfsOutput {
    let n = network.len();
    assert!(root.index() < n, "root out of range");
    let protos: Vec<BfsVertex> = (0..n).map(|v| BfsVertex::new(v == root.index())).collect();
    let (protos, stats) = Engine::with_threads(threads).run(network, protos);
    let mut parent = vec![None; n];
    let mut weight = vec![0; n];
    let mut depth = 0usize;
    for (v, p) in protos.iter().enumerate() {
        parent[v] = p.parent();
        if let Some(par) = p.parent() {
            weight[v] = network
                .graph()
                .edge_weight(par, VertexId(v as u32))
                .expect("BFS parent must be a neighbor");
        }
        if let Some(d) = p.depth() {
            depth = depth.max(d as usize);
        }
    }
    BfsOutput {
        tree: RootedTree::from_parents(root, parent, weight),
        depth,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, properties, shortest_paths};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bfs_depths_match_centralized_bfs() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::erdos_renyi_connected(60, 0.06, 1..=9, &mut rng);
        let hops = shortest_paths::bfs_hops(&g, VertexId(0));
        let net = Network::new(g);
        let out = build_bfs_tree(&net, VertexId(0));
        for v in net.graph().vertices() {
            assert_eq!(out.tree.depth_of(v), Some(hops[v.index()] as usize));
        }
    }

    #[test]
    fn bfs_runs_in_about_depth_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::path(50, 1..=1, &mut rng);
        let net = Network::new(g);
        let out = build_bfs_tree(&net, VertexId(0));
        assert_eq!(out.depth, 49);
        assert!(out.stats.rounds <= 49 + 2, "rounds={}", out.stats.rounds);
    }

    #[test]
    fn bfs_depth_bounded_by_hop_diameter() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::random_geometric_connected(70, 0.18, 1..=5, &mut rng);
        let d = properties::hop_diameter(&g).unwrap();
        let net = Network::new(g);
        for root in [0u32, 7, 33] {
            let out = build_bfs_tree(&net, VertexId(root));
            assert!(out.depth <= d);
        }
    }

    #[test]
    fn bfs_respects_congestion_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = generators::erdos_renyi_connected(40, 0.2, 1..=3, &mut rng);
        let net = Network::new(g);
        let out = build_bfs_tree(&net, VertexId(0));
        assert_eq!(out.stats.congestion_violations, 0);
        assert_eq!(out.stats.max_edge_words, 1);
    }

    #[test]
    fn bfs_memory_is_constant() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let g = generators::erdos_renyi_connected(80, 0.05, 1..=3, &mut rng);
        let net = Network::new(g);
        let out = build_bfs_tree(&net, VertexId(3));
        assert_eq!(out.stats.memory.max_peak(), 3);
    }

    #[test]
    fn bfs_on_disconnected_graph_spans_component() {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let net = Network::new(b.build());
        let out = build_bfs_tree(&net, VertexId(0));
        assert!(out.tree.contains(VertexId(1)));
        assert!(!out.tree.contains(VertexId(2)));
    }
}
