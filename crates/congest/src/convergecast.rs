//! Convergecast: aggregating a value from every vertex of a tree to its
//! root — the upward half of every "local stage" in the paper (subtree
//! sizes, heavy-child maxima). Runs as a real protocol: a vertex waits for
//! all its children's partial aggregates, folds them into its own value with
//! O(1) memory, and sends one word to its parent. Rounds = tree height.

use graphs::{RootedTree, VertexId};

use crate::engine::{Ctx, Engine, Inbox, RunStats, VertexProtocol};
use crate::network::Network;

/// The associative fold applied up the tree (all fit in one-word messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of all values (e.g. subtree sizes with value 1 each).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl Aggregate {
    fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            Aggregate::Sum => a + b,
            Aggregate::Min => a.min(b),
            Aggregate::Max => a.max(b),
        }
    }
}

/// Per-vertex convergecast state.
#[derive(Clone, Debug)]
struct CastVertex {
    in_tree: bool,
    parent: Option<VertexId>,
    expected_children: usize,
    heard_children: usize,
    acc: u64,
    op: Aggregate,
    sent: bool,
    is_root: bool,
}

impl VertexProtocol for CastVertex {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.in_tree && self.expected_children == 0 && !self.is_root {
            let p = self.parent.expect("non-root leaf has a parent");
            ctx.send(p, self.acc);
            self.sent = true;
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<'_, u64>) {
        if !self.in_tree || self.sent {
            return;
        }
        for (_, v) in inbox.drain() {
            self.acc = self.op.fold(self.acc, v);
            self.heard_children += 1;
        }
        if self.heard_children == self.expected_children && !self.is_root {
            let p = self.parent.expect("non-root");
            ctx.send(p, self.acc);
            self.sent = true;
        }
    }

    fn is_done(&self) -> bool {
        !self.in_tree
            || self.sent
            || (self.is_root && self.heard_children == self.expected_children)
    }

    fn memory_words(&self) -> usize {
        if self.in_tree {
            5
        } else {
            0
        }
    }
}

/// Output of a convergecast run.
#[derive(Clone, Debug)]
pub struct ConvergecastOutput {
    /// The aggregate the root computed.
    pub result: u64,
    /// Engine measurements (rounds ≈ tree height).
    pub stats: RunStats,
}

/// Aggregate `values` (indexed by host vertex; non-members ignored) to the
/// root of `tree` with the fold `op`.
///
/// # Panics
///
/// Panics if the tree's host universe differs from the network.
pub fn converge(
    network: &Network,
    tree: &RootedTree,
    values: &[u64],
    op: Aggregate,
) -> ConvergecastOutput {
    let n = network.len();
    assert_eq!(tree.host_len(), n, "tree host must match network");
    assert_eq!(values.len(), n, "one value per vertex");
    let protos: Vec<CastVertex> = (0..n)
        .map(|i| {
            let v = VertexId(i as u32);
            CastVertex {
                in_tree: tree.contains(v),
                parent: tree.parent(v),
                expected_children: tree.children(v).len(),
                heard_children: 0,
                acc: values[i],
                op,
                sent: false,
                is_root: v == tree.root(),
            }
        })
        .collect();
    let (protos, stats) = Engine::new().run(network, protos);
    ConvergecastOutput {
        result: protos[tree.root().index()].acc,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, seed: u64) -> (Network, RootedTree) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.06, 1..=5, &mut rng);
        let net = Network::new(g);
        let tree = bfs::build_bfs_tree(&net, VertexId(0)).tree;
        (net, tree)
    }

    #[test]
    fn sum_counts_vertices() {
        let (net, tree) = setup(80, 701);
        let out = converge(&net, &tree, &vec![1; 80], Aggregate::Sum);
        assert!(out.stats.completed);
        assert_eq!(out.result, 80);
    }

    #[test]
    fn min_and_max_find_extremes() {
        let (net, tree) = setup(50, 702);
        let values: Vec<u64> = (0..50).map(|i| (i * 13 + 7) % 101).collect();
        let min = converge(&net, &tree, &values, Aggregate::Min);
        let max = converge(&net, &tree, &values, Aggregate::Max);
        assert_eq!(min.result, *values.iter().min().unwrap());
        assert_eq!(max.result, *values.iter().max().unwrap());
    }

    #[test]
    fn rounds_track_tree_height() {
        let mut rng = ChaCha8Rng::seed_from_u64(703);
        let g = generators::path(40, 1..=1, &mut rng);
        let net = Network::new(g);
        let tree = bfs::build_bfs_tree(&net, VertexId(0)).tree;
        let out = converge(&net, &tree, &vec![1; 40], Aggregate::Sum);
        assert_eq!(out.result, 40);
        assert!(
            out.stats.rounds >= 39 && out.stats.rounds <= 41,
            "{}",
            out.stats.rounds
        );
    }

    #[test]
    fn memory_is_constant_and_messages_one_per_edge() {
        let (net, tree) = setup(60, 704);
        let out = converge(&net, &tree, &vec![2; 60], Aggregate::Sum);
        assert_eq!(out.stats.memory.max_peak(), 5);
        // One upward message per non-root tree vertex.
        assert_eq!(out.stats.messages as usize, tree.num_vertices() - 1);
        assert_eq!(out.stats.congestion_violations, 0);
    }

    #[test]
    fn partial_tree_ignores_outsiders() {
        let mut rng = ChaCha8Rng::seed_from_u64(705);
        let g = generators::path(6, 1..=1, &mut rng);
        // Tree covering only vertices 0..3.
        let tree = graphs::RootedTree::from_parents(
            VertexId(0),
            vec![
                None,
                Some(VertexId(0)),
                Some(VertexId(1)),
                Some(VertexId(2)),
                None,
                None,
            ],
            vec![0, 1, 1, 1, 0, 0],
        );
        let net = Network::new(g);
        let out = converge(&net, &tree, &[1, 1, 1, 1, 100, 100], Aggregate::Sum);
        assert_eq!(out.result, 4);
    }
}
