//! Parallel construction for many trees (Theorem 2, second assertion).
//!
//! Given a collection of trees in which every vertex appears at most `s`
//! times — exactly the situation the general-graph scheme creates, where
//! cluster trees overlap by `s = Õ(n^{1/k})` — pick `q = 1/√(sn)` and give
//! each tree a random start time from a window of `O(√(sn)·log n)` rounds.
//! All constructions then run concurrently: whp the total time is
//! `Õ(√(sn) + D)` rather than the naive `Õ(s·√n + D)`, and each vertex's
//! memory is the sum over the (at most `s`) trees containing it —
//! `O(s log n)` words.

use congest::{CostLedger, MemoryMeter, Network};
use graphs::RootedTree;
use rand::Rng;

use crate::distributed::{self, Config};
use crate::types::TreeScheme;

/// Output of the multi-tree construction.
#[derive(Clone, Debug)]
pub struct MultiOutput {
    /// One scheme per input tree, in order.
    pub schemes: Vec<TreeScheme>,
    /// Combined accounting: `rounds = max_t (offset_t + rounds_t)`.
    pub ledger: CostLedger,
    /// Per-vertex memory: concurrent (additive) merge across trees.
    pub memory: MemoryMeter,
    /// The random-start window size used.
    pub window: u64,
    /// The observed maximum tree overlap at any vertex.
    pub observed_overlap: usize,
}

/// Build routing schemes for all `trees` in parallel.
///
/// `s` is the promised bound on how many trees any vertex belongs to (the
/// actual overlap is measured and returned). Sampling probability is
/// `q = 1/√(s·n)` with `n` the network size, per Theorem 2.
///
/// # Panics
///
/// Panics if `trees` is empty, `s == 0`, or any tree's host universe differs
/// from the network.
pub fn build_many<R: Rng>(
    network: &Network,
    trees: &[RootedTree],
    s: usize,
    rng: &mut R,
) -> MultiOutput {
    assert!(!trees.is_empty(), "need at least one tree");
    assert!(s > 0, "overlap bound must be positive");
    let n = network.len();
    for t in trees {
        assert_eq!(t.host_len(), n, "tree host must match network");
    }

    // Observed overlap (to validate the caller's promise in tests/benches).
    let mut count = vec![0usize; n];
    for t in trees {
        for v in t.vertices() {
            count[v.index()] += 1;
        }
    }
    let observed_overlap = count.iter().copied().max().unwrap_or(0);

    let q = 1.0 / ((s as f64) * (n as f64)).sqrt();
    let log_n = distributed::log2_ceil(n.max(2)) as u64;
    let window = (((s * n) as f64).sqrt() as u64 + 1) * log_n.max(1);

    // One shared BFS backbone for every tree's broadcasts.
    let bfs_out = congest::bfs::build_bfs_tree(network, trees[0].root());
    let mut memory = MemoryMeter::new(n);
    let mut ledger = CostLedger::new();
    ledger.charge_rounds(bfs_out.stats.rounds);
    for v in network.graph().vertices() {
        memory.add(v, 3);
    }
    let config = Config {
        q: Some(q.clamp(0.0, 1.0)),
        backbone_depth: Some(bfs_out.depth),
    };
    let mut schemes = Vec::with_capacity(trees.len());
    let mut max_finish = 0u64;
    for t in trees {
        let offset = rng.gen_range(0..=window);
        let out = distributed::build(network, t, &config, rng);
        max_finish = max_finish.max(offset + out.ledger.rounds());
        ledger.charge_messages(out.ledger.messages());
        memory.merge_concurrent(out.scheme.members(), &out.memory);
        schemes.push(out.scheme);
    }
    ledger.charge_rounds(max_finish);

    MultiOutput {
        schemes,
        ledger,
        memory,
        window,
        observed_overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{router, tz};
    use graphs::{generators, tree::shortest_path_tree, VertexId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// SPTs from several roots: every vertex is in every tree (overlap = s).
    fn spts(net: &Network, roots: &[u32]) -> Vec<RootedTree> {
        roots
            .iter()
            .map(|&r| shortest_path_tree(net.graph(), VertexId(r)))
            .collect()
    }

    #[test]
    fn all_schemes_match_centralized() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let g = generators::erdos_renyi_connected(90, 0.05, 1..=9, &mut rng);
        let net = Network::new(g);
        let trees = spts(&net, &[0, 17, 44]);
        let out = build_many(&net, &trees, 3, &mut rng);
        assert_eq!(out.observed_overlap, 3);
        for (t, s) in trees.iter().zip(&out.schemes) {
            let want = tz::build(t);
            for v in t.vertices() {
                assert_eq!(s.table(v), want.table(v));
                assert_eq!(s.label(v), want.label(v));
            }
        }
    }

    #[test]
    fn schemes_route_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let g = generators::erdos_renyi_connected(50, 0.08, 1..=9, &mut rng);
        let net = Network::new(g);
        let trees = spts(&net, &[0, 25]);
        let out = build_many(&net, &trees, 2, &mut rng);
        for (t, s) in trees.iter().zip(&out.schemes) {
            router::verify_exactness(t, s);
        }
    }

    #[test]
    fn memory_adds_across_trees() {
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let g = generators::erdos_renyi_connected(200, 0.03, 1..=9, &mut rng);
        let net = Network::new(g);
        let s = 4;
        let trees = spts(&net, &[0, 50, 100, 150]);
        let out = build_many(&net, &trees, s, &mut rng);
        let log_n = distributed::log2_ceil(200);
        let bound = s * (18 + 7 * log_n);
        assert!(
            out.memory.max_peak() <= bound,
            "memory {} exceeds O(s log n) bound {}",
            out.memory.max_peak(),
            bound
        );
    }

    #[test]
    fn parallel_rounds_beat_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(104);
        let g = generators::erdos_renyi_connected(300, 0.02, 1..=9, &mut rng);
        let net = Network::new(g);
        let roots: Vec<u32> = (0..8).map(|i| i * 37).collect();
        let trees = spts(&net, &roots);
        let par = build_many(&net, &trees, 8, &mut rng);
        // Sequential: sum of independent single-tree constructions at q=1/√n.
        let mut seq = 0u64;
        for t in &trees {
            let out = distributed::build_default(&net, t, &mut rng);
            seq += out.ledger.rounds();
        }
        assert!(
            par.ledger.rounds() < seq,
            "parallel {} should beat sequential {}",
            par.ledger.rounds(),
            seq
        );
    }

    #[test]
    #[should_panic(expected = "need at least one tree")]
    fn rejects_empty_tree_list() {
        let mut rng = ChaCha8Rng::seed_from_u64(105);
        let g = generators::path(4, 1..=1, &mut rng);
        let net = Network::new(g);
        build_many(&net, &[], 1, &mut rng);
    }
}
