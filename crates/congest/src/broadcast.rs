//! Network-wide broadcast of many messages — an executable Lemma 1.
//!
//! Lemma 1 (paper §2): if the vertices collectively hold `M` constant-size
//! messages, all vertices can receive all of them within `O(M + D)` rounds.
//! This module implements the pipelined flooding protocol realizing that
//! bound and tests it; ledger-style algorithms then *charge* broadcasts at
//! `M + D` rounds via [`crate::CostLedger::charge_broadcast`] instead of
//! re-running the flood.

use std::collections::{HashSet, VecDeque};

use graphs::VertexId;

use crate::engine::{Ctx, Engine, EngineConfig, Inbox, RunStats, VertexProtocol};
use crate::network::Network;

/// A broadcast item: `(origin, sequence number at origin, payload word)`.
pub type Item = (VertexId, u32, u64);

/// Pipelined flooding: every vertex forwards each item it learns exactly once
/// to all neighbors, at most one item per edge per round.
#[derive(Clone, Debug)]
pub struct GossipVertex {
    initial: Vec<(u32, u64)>,
    known: HashSet<(VertexId, u32)>,
    received: Vec<Item>,
    queue: VecDeque<Item>,
}

impl GossipVertex {
    /// A vertex initially holding `initial` `(seq, payload)` items.
    pub fn new(initial: Vec<(u32, u64)>) -> Self {
        GossipVertex {
            initial,
            known: HashSet::new(),
            received: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// All items this vertex has received (including its own).
    pub fn received(&self) -> &[Item] {
        &self.received
    }

    fn learn(&mut self, item: Item) {
        if self.known.insert((item.0, item.1)) {
            self.received.push(item);
            self.queue.push_back(item);
        }
    }
}

impl VertexProtocol for GossipVertex {
    type Msg = Item;

    fn init(&mut self, ctx: &mut Ctx<'_, Item>) {
        let me = ctx.me();
        // `take` instead of clone: the seed list is consumed exactly once.
        for (seq, payload) in std::mem::take(&mut self.initial) {
            self.learn((me, seq, payload));
        }
        if let Some(item) = self.queue.pop_front() {
            ctx.send_all(item);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Item>, inbox: &mut Inbox<'_, Item>) {
        for (_, item) in inbox.drain() {
            self.learn(item);
        }
        if let Some(item) = self.queue.pop_front() {
            ctx.send_all(item);
        }
    }

    fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    fn memory_words(&self) -> usize {
        3 * self.received.len() + 3 * self.queue.len()
    }
}

/// Result of flooding all items through the network.
#[derive(Debug)]
pub struct BroadcastOutput {
    /// Per-vertex received items (order of arrival).
    pub received: Vec<Vec<Item>>,
    /// Engine measurements.
    pub stats: RunStats,
}

/// Flood `items` (a list per vertex of `(seq, payload)` pairs) through the
/// whole network using the real protocol.
///
/// # Panics
///
/// Panics if `items.len()` differs from the network size.
pub fn broadcast_all(network: &Network, items: Vec<Vec<(u32, u64)>>) -> BroadcastOutput {
    assert_eq!(items.len(), network.len(), "one item list per vertex");
    let protos: Vec<GossipVertex> = items.into_iter().map(GossipVertex::new).collect();
    let engine = Engine::with_config(EngineConfig {
        // Items are 3 words; the gossip protocol sends one item per edge per
        // round, so 3 words is its natural cap.
        edge_words_per_round: 3,
        ..EngineConfig::default()
    });
    let (protos, stats) = engine.run(network, protos);
    BroadcastOutput {
        received: protos.into_iter().map(|p| p.received).collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, properties};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn scatter_items<R: Rng>(n: usize, m: usize, rng: &mut R) -> Vec<Vec<(u32, u64)>> {
        let mut items = vec![Vec::new(); n];
        for s in 0..m {
            let v = rng.gen_range(0..n);
            items[v].push((s as u32, (s * 10) as u64));
        }
        items
    }

    #[test]
    fn everyone_receives_everything() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::erdos_renyi_connected(40, 0.08, 1..=3, &mut rng);
        let net = Network::new(g);
        let items = scatter_items(40, 15, &mut rng);
        let out = broadcast_all(&net, items);
        assert!(out.stats.completed);
        for recvd in &out.received {
            assert_eq!(recvd.len(), 15, "every vertex hears all 15 items");
        }
    }

    #[test]
    fn rounds_scale_as_m_plus_d() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        // A path maximizes D; scatter few messages.
        let g = generators::path(60, 1..=1, &mut rng);
        let d = properties::hop_diameter(&g).unwrap() as u64;
        let net = Network::new(g);
        let m = 8u64;
        let items = scatter_items(60, m as usize, &mut rng);
        let out = broadcast_all(&net, items);
        assert!(out.stats.completed);
        assert!(
            out.stats.rounds <= 2 * (m + d) + 5,
            "rounds {} should be O(M + D) = O({})",
            out.stats.rounds,
            m + d
        );
    }

    #[test]
    fn single_item_takes_about_d_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::path(30, 1..=1, &mut rng);
        let net = Network::new(g);
        let mut items = vec![Vec::new(); 30];
        items[0].push((0, 42));
        let out = broadcast_all(&net, items);
        assert!(out.stats.rounds <= 31);
        for recvd in &out.received {
            assert_eq!(recvd[0], (VertexId(0), 0, 42));
        }
    }

    #[test]
    fn duplicate_suppression() {
        // Dense graph: many redundant deliveries, but each item recorded once.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let g = generators::erdos_renyi_connected(20, 0.5, 1..=1, &mut rng);
        let net = Network::new(g);
        let items = scatter_items(20, 10, &mut rng);
        let out = broadcast_all(&net, items);
        for recvd in &out.received {
            let mut ids: Vec<_> = recvd.iter().map(|&(o, s, _)| (o, s)).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 10);
        }
    }

    #[test]
    fn respects_edge_word_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let g = generators::erdos_renyi_connected(30, 0.15, 1..=1, &mut rng);
        let net = Network::new(g);
        let items = scatter_items(30, 20, &mut rng);
        let out = broadcast_all(&net, items);
        assert_eq!(out.stats.congestion_violations, 0);
        assert!(out.stats.max_edge_words <= 3);
    }

    #[test]
    fn no_items_is_a_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let g = generators::path(5, 1..=1, &mut rng);
        let net = Network::new(g);
        let out = broadcast_all(&net, vec![Vec::new(); 5]);
        assert_eq!(out.stats.rounds, 0);
        assert!(out.received.iter().all(|r| r.is_empty()));
    }
}
