//! Verbatim copies of the round loop as it was before it went sparse, kept
//! to pin the current one execution for execution: the scan that checks
//! every vertex's inbox length and cached wake round each round, and the
//! CSR inbox arena that prefix-sums an `n + 1` offset table each round.

use graphs::VertexId;
use obs::metrics::Stopwatch;

use crate::engine::{account, Ctx, Engine, PhaseStats, RunStats, VertexProtocol, Wake};
use crate::memory::MemoryMeter;
use crate::message::WordSized;
use crate::network::Network;
use crate::plane::{Inbox, OutMsg};

/// The delivery-side arena for all `n` vertices: one flat slot buffer plus
/// CSR-style offsets, rebuilt (not reallocated) every round.
#[derive(Debug)]
struct CsrArena<M> {
    /// `n + 1` offsets into `slots`; vertex `v`'s inbox is
    /// `slots[starts[v]..starts[v + 1]]`.
    starts: Vec<usize>,
    /// Scatter cursors, one per vertex (scratch, reused).
    cursors: Vec<usize>,
    slots: Vec<(VertexId, Option<M>)>,
}

impl<M> CsrArena<M> {
    fn new(n: usize) -> Self {
        CsrArena {
            starts: vec![0; n + 1],
            cursors: vec![0; n],
            slots: Vec::new(),
        }
    }

    /// Total messages currently delivered.
    fn total(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    /// Number of messages delivered to vertex `v` this round.
    fn inbox_len(&self, v: usize) -> usize {
        self.starts[v + 1] - self.starts[v]
    }

    /// The inbox view for vertex `v`.
    fn inbox(&mut self, v: usize) -> Inbox<'_, M> {
        Inbox::over(&mut self.slots[self.starts[v]..self.starts[v + 1]])
    }

    /// Refill the arena from `outbox` by a stable counting sort on the
    /// destination, so each inbox keeps the outbox's (source, send) order.
    /// The outbox is drained (capacity retained) for reuse next round.
    fn fill(&mut self, outbox: &mut Vec<OutMsg<M>>) {
        self.starts.fill(0);
        for m in outbox.iter() {
            self.starts[m.to.index() + 1] += 1;
        }
        let n = self.cursors.len();
        for v in 0..n {
            self.starts[v + 1] += self.starts[v];
        }
        self.cursors.copy_from_slice(&self.starts[..n]);
        // Drop last round's leftovers and rebuild in place; `resize_with`
        // reuses the buffer's capacity, so steady state allocates nothing.
        self.slots.clear();
        self.slots.resize_with(self.total(), || (VertexId(0), None));
        for m in outbox.drain(..) {
            let c = &mut self.cursors[m.to.index()];
            self.slots[*c] = (m.from, Some(m.msg));
            *c += 1;
        }
    }
}

/// What each vertex reported right after it last executed, in flat arrays
/// indexed by vertex id, with running totals so the per-phase summary is
/// O(1). Refreshed only for vertices that execute: a vertex that does not
/// run cannot change state, so its entries stay exact.
struct Hints {
    /// First round in which the vertex must run even with an empty inbox
    /// (`u64::MAX`: only on a message).
    wake: Vec<u64>,
    /// Whether that round came from a [`Wake::At`].
    timed: Vec<bool>,
    done: Vec<bool>,
    not_done: usize,
    timed_count: usize,
}

impl Hints {
    fn new(n: usize) -> Hints {
        Hints {
            wake: vec![u64::MAX; n],
            timed: vec![false; n],
            done: vec![true; n],
            not_done: 0,
            timed_count: 0,
        }
    }

    /// Re-poll vertex `v` after it executed in round `round` (0 for init).
    fn refresh<P: VertexProtocol>(&mut self, v: usize, p: &P, round: u64) {
        let (wake, timed) = match p.wake() {
            Wake::OnMessage => (u64::MAX, false),
            Wake::At(at) if at > round => (at, true),
            Wake::NextRound | Wake::At(_) => (round + 1, false),
        };
        self.wake[v] = wake;
        self.timed_count = self.timed_count + usize::from(timed) - usize::from(self.timed[v]);
        self.timed[v] = timed;
        let done = p.is_done();
        self.not_done = self.not_done + usize::from(!done) - usize::from(!self.done[v]);
        self.done[v] = done;
    }
}

/// The round loop's reusable state: the delivery arena, the outbox, the
/// per-edge scratch and the hint cache, all allocated once per run.
struct Rounds<M> {
    delivery: CsrArena<M>,
    outbox: Vec<OutMsg<M>>,
    per_edge: Vec<(VertexId, usize)>,
    hints: Hints,
}

impl<M: WordSized> Rounds<M> {
    fn new(n: usize) -> Rounds<M> {
        Rounds {
            delivery: CsrArena::new(n),
            outbox: Vec::new(),
            per_edge: Vec::new(),
            hints: Hints::new(n),
        }
    }

    /// Execute one phase (init, or round `r` for `round = Some(r)`): run each
    /// protocol that can act, meter its memory, re-poll its hints, and
    /// account its sends. The one skip rule: a vertex sits a round out iff
    /// its inbox is empty and its cached wake round has not come.
    fn execute<P: VertexProtocol<Msg = M>>(
        &mut self,
        protocols: &mut [P],
        round: Option<u64>,
        network: &Network,
        meter: &mut MemoryMeter,
        cap: usize,
    ) -> PhaseStats {
        let init = round.is_none();
        let r = round.unwrap_or(0);
        let mut ps = PhaseStats::default();
        for (v, protocol) in protocols.iter_mut().enumerate() {
            if !init && self.delivery.inbox_len(v) == 0 && self.hints.wake[v] > r {
                continue;
            }
            let vid = VertexId(v as u32);
            let start = self.outbox.len();
            let mut ctx = Ctx {
                me: vid,
                arcs: network.ports(vid),
                round: r,
                outbox: &mut self.outbox,
            };
            if init {
                protocol.init(&mut ctx);
            } else {
                protocol.round(&mut ctx, &mut self.delivery.inbox(v));
            }
            ps.executions += 1;
            meter.set(vid, protocol.memory_words());
            self.hints.refresh(v, protocol, r);
            account(&self.outbox[start..], cap, &mut self.per_edge, &mut ps);
        }
        ps
    }
}

/// [`Engine::run`] on the dense loop, without profiling.
pub(crate) fn run<P: VertexProtocol>(
    engine: &Engine,
    network: &Network,
    mut protocols: Vec<P>,
) -> (Vec<P>, RunStats) {
    let n = network.len();
    assert_eq!(protocols.len(), n, "one protocol instance per vertex");
    let clock = Stopwatch::start();
    let mut stats = RunStats {
        memory: MemoryMeter::new(n),
        ..RunStats::default()
    };
    let mut rounds = Rounds::new(n);
    let mut round = None;
    loop {
        let ps = rounds.execute(
            &mut protocols,
            round,
            network,
            &mut stats.memory,
            engine.config().edge_words_per_round,
        );
        rounds.delivery.fill(&mut rounds.outbox);
        if !finish_phase(engine, &ps, &rounds, &mut stats) {
            break;
        }
        round = Some(stats.rounds);
    }
    stats.wall_ns = clock.elapsed_ns();
    (protocols, stats)
}

/// Fold one executed-and-scattered phase into the run's totals and
/// congestion count, and apply the termination test.
/// Returns whether another round runs (it is then already counted in
/// `stats.rounds`); otherwise `stats.completed` is settled.
fn finish_phase<M>(
    engine: &Engine,
    ps: &PhaseStats,
    rounds: &Rounds<M>,
    stats: &mut RunStats,
) -> bool {
    stats.messages += ps.messages;
    stats.words += ps.words;
    stats.max_edge_words = stats.max_edge_words.max(ps.max_edge_words);
    stats.congestion_violations += ps.violations;
    stats.executions += ps.executions;
    let all_done = rounds.hints.not_done == 0;
    let in_flight = rounds.delivery.total() > 0;
    if all_done && !in_flight {
        stats.completed = true;
        return false;
    }
    // Quiescence: once a phase passes with nothing sent and nothing in
    // flight, no message-driven state can change — unless a vertex holds
    // a pending `Wake::At`, in which case time must keep advancing.
    if !in_flight && ps.messages == 0 && rounds.hints.timed_count == 0 {
        stats.completed = all_done;
        return false;
    }
    if stats.rounds >= engine.config().max_rounds {
        return false;
    }
    stats.rounds += 1;
    true
}
