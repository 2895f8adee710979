//! Congestion accounting under the engine's CONGEST RAM cap: exact violation
//! counts, per-edge word accumulation within a round and `max_edge_words`.

use congest::engine::Ctx;
use congest::{Engine, EngineConfig, Inbox, Network, VertexProtocol};
use graphs::{GraphBuilder, VertexId};

/// Sends scripted bursts: at round `r` (0 = init), one message of `w` words
/// to the first neighbor for every `w` in `schedule[r]`. An empty schedule is
/// a passive receiver.
struct Burst {
    schedule: Vec<Vec<usize>>,
    next: usize,
}

impl Burst {
    fn sender(schedule: Vec<Vec<usize>>) -> Self {
        Burst { schedule, next: 0 }
    }

    fn receiver() -> Self {
        Burst::sender(Vec::new())
    }

    fn fire(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, r: usize) {
        if let Some(sizes) = self.schedule.get(r) {
            let to = ctx.neighbors()[0].to;
            for &w in sizes {
                ctx.send(to, vec![1; w]);
            }
        }
        self.next = r + 1;
    }
}

impl VertexProtocol for Burst {
    type Msg = Vec<u64>;

    fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
        self.fire(ctx, 0);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _inbox: &mut Inbox<'_, Vec<u64>>) {
        let r = ctx.round() as usize;
        self.fire(ctx, r);
    }

    fn is_done(&self) -> bool {
        self.next >= self.schedule.len()
    }

    fn memory_words(&self) -> usize {
        0
    }
}

fn two_vertex_net() -> Network {
    let mut b = GraphBuilder::new(2);
    b.add_edge(VertexId(0), VertexId(1), 1);
    Network::new(b.build())
}

/// Default cap is 4 words per edge per round. The script exercises one burst
/// over the cap, two messages that only *together* exceed it, one exactly at
/// it, and one far over it.
fn script() -> Vec<Vec<usize>> {
    vec![vec![6], vec![2, 3], vec![4], vec![9]]
}

#[test]
fn violation_counts_and_max_edge_words_are_exact() {
    let net = two_vertex_net();
    let protocols = vec![Burst::sender(script()), Burst::receiver()];
    let (_, stats) = Engine::new().run(&net, protocols);

    // Rounds 0, 1, 3 violate (6 > 4; 2 + 3 = 5 > 4 accumulated on one edge;
    // 9 > 4); round 2 sits exactly at the cap and does not.
    assert_eq!(stats.congestion_violations, 3);
    assert_eq!(stats.max_edge_words, 9);
    assert_eq!(stats.messages, 5);
    assert_eq!(stats.words, 6 + 2 + 3 + 4 + 9);
    assert!(stats.completed);
}

#[test]
fn raising_the_cap_clears_all_violations() {
    let net = two_vertex_net();
    let protocols = vec![Burst::sender(script()), Burst::receiver()];
    let engine = Engine::with_config(EngineConfig {
        edge_words_per_round: 9,
        ..EngineConfig::default()
    });
    let (_, stats) = engine.run(&net, protocols);
    assert_eq!(stats.congestion_violations, 0);
    assert_eq!(stats.max_edge_words, 9);
}

#[test]
fn congestion_accounting_is_thread_count_independent() {
    // The engine is serial, so thread-count independence is run-to-run
    // independence.
    let net = two_vertex_net();
    let run = || Engine::new().run(&net, vec![Burst::sender(script()), Burst::receiver()]);
    assert!(run().1.same_simulation(&run().1));
}
