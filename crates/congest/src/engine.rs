//! The synchronous round engine: runs per-vertex state machines and measures
//! rounds, messages, congestion, and memory.
//!
//! # Execution model
//!
//! The engine owns one protocol instance per vertex and drives them through
//! synchronous rounds over the zero-allocation message plane in
//! [`crate::plane`]: vertices append sends to one flat outbox, and a stable
//! counting sort scatters it into one flat inbox arena for the next round.
//! No per-vertex `Vec`s are allocated on the hot path.
//!
//! A round executes only the vertices that can act in it: those with mail,
//! and those whose last-reported [`Wake`] hint has come due. What a vertex
//! reported after its last execution (`wake`, `is_done`, `queued_words`) is
//! cached in flat arrays and stays exact until it executes again, because a
//! vertex's state changes only inside `init` / `round`. The termination test
//! and the queue-occupancy sample read running totals over those arrays, so
//! nothing in the loop touches a protocol that is not executing.
//!
//! Vertices execute in ascending id order and the scatter is stable, so every
//! inbox holds its messages in (sender id, send order). Every measurement is
//! a deterministic function of the network and the protocols; only
//! [`RunStats::wall_ns`] and [`RunStats::profile`] — real time, not
//! simulated costs — differ between runs.

use graphs::graph::Arc;
use graphs::VertexId;
use obs::metrics::{Clock, Stopwatch};
use obs::profile::{EngineProfile, Phase};

use crate::memory::MemoryMeter;
use crate::message::WordSized;
use crate::network::Network;
use crate::plane::{InboxArena, OutMsg};

pub use crate::plane::Inbox;

/// A per-vertex protocol state machine.
///
/// One instance exists per vertex. A protocol may only read its own state,
/// the identity/ports of its neighbors (via [`Ctx`]), and the messages
/// delivered to it this round — this is what makes the simulation faithful to
/// the model.
pub trait VertexProtocol {
    /// The message type exchanged by this protocol.
    type Msg: Clone + WordSized;

    /// Called once before the first round; may send initial messages.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called every round with the messages delivered this round (sent by
    /// neighbors in the previous round). Take messages by value with
    /// [`Inbox::drain`] — it moves them out of the engine's arena without
    /// cloning — or inspect them with [`Inbox::iter`].
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &mut Inbox<'_, Self::Msg>);

    /// Vertex-local termination flag. The engine stops when every vertex is
    /// done and no messages are in flight.
    fn is_done(&self) -> bool;

    /// Words of memory this vertex currently holds; polled after every round
    /// to maintain the per-vertex peak.
    fn memory_words(&self) -> usize;

    /// Words currently parked in this vertex's outgoing forwarding queues.
    /// Store-and-forward protocols override this so a traced run can record
    /// queue occupancy per round; stateless protocols keep the default 0.
    fn queued_words(&self) -> usize {
        0
    }

    /// When this vertex next needs to run without having received a message.
    /// Polled right after each execution; the answer holds until the vertex
    /// executes again. The default — run every round until done, then only
    /// on a message — suits any protocol; store-and-forward protocols with
    /// scheduled work override it so idle rounds cost them nothing.
    fn wake(&self) -> Wake {
        if self.is_done() {
            Wake::OnMessage
        } else {
            Wake::NextRound
        }
    }
}

/// A vertex's answer to "when must you run next, mail aside?". A message
/// always runs its recipient in the round it is delivered, whatever the hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Only when a message arrives.
    OnMessage,
    /// In the next round.
    NextRound,
    /// In round `r`, with nothing to do before it. The engine's quiescence
    /// rule normally stops a run after a silent round — once nothing was
    /// sent and nothing is in flight, a message-driven protocol can never
    /// act again. A pending `At` suspends that rule, so time keeps advancing
    /// through idle gaps (e.g. an open-loop traffic source between
    /// arrivals). A round that is not in the future means [`Wake::NextRound`].
    At(u64),
}

/// The view a protocol instance has of its environment during a round.
pub struct Ctx<'a, M> {
    me: VertexId,
    arcs: &'a [Arc],
    round: u64,
    outbox: &'a mut Vec<OutMsg<M>>,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// This vertex's identity.
    pub fn me(&self) -> VertexId {
        self.me
    }

    /// Arcs to this vertex's neighbors (index = port number).
    pub fn neighbors(&self) -> &'a [Arc] {
        self.arcs
    }

    /// The current round number (0 during `init`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Queue a message to neighbor `to` for delivery next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor — CONGEST only has edge-local
    /// communication.
    pub fn send(&mut self, to: VertexId, msg: M) {
        debug_assert!(
            self.arcs.iter().any(|a| a.to == to),
            "{} attempted to message non-neighbor {}",
            self.me,
            to
        );
        self.outbox.push(OutMsg {
            to,
            from: self.me,
            msg,
        });
    }

    /// Queue the same message to every neighbor. The final recipient takes
    /// ownership of `msg`; only the first `deg - 1` copies are cloned.
    pub fn send_all(&mut self, msg: M) {
        if let Some((last, rest)) = self.arcs.split_last() {
            self.outbox.reserve(self.arcs.len());
            for arc in rest {
                self.outbox.push(OutMsg {
                    to: arc.to,
                    from: self.me,
                    msg: msg.clone(),
                });
            }
            self.outbox.push(OutMsg {
                to: last.to,
                from: self.me,
                msg,
            });
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Hard stop after this many rounds (protocol bugs shouldn't hang tests).
    pub max_rounds: u64,
    /// Maximum words a vertex may send over one edge in one round (the
    /// CONGEST RAM cap; messages above it are recorded as violations).
    pub edge_words_per_round: usize,
    /// Panic on congestion violations instead of recording them.
    pub strict_congestion: bool,
    /// Profile the round loop: per-round phase timings
    /// ([`obs::profile::EngineProfile`]) returned in
    /// [`RunStats::profile`]. Profiling also turns on when the recorder
    /// passed to [`Engine::run_traced`] has profiling enabled; either way
    /// it never changes simulated results, only adds clock reads.
    pub profile: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 1_000_000,
            edge_words_per_round: 4,
            strict_congestion: false,
            profile: false,
        }
    }
}

/// Measurements from one engine run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Rounds executed (init is not a round).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total words delivered.
    pub words: u64,
    /// The worst words-per-edge-per-round observed.
    pub max_edge_words: usize,
    /// Number of (edge, round) pairs exceeding the configured cap.
    pub congestion_violations: u64,
    /// Whether the run terminated before `max_rounds`.
    pub completed: bool,
    /// Vertex executions: one per `init` call plus one per `round` call.
    /// `executions / (rounds + 1)` against `n` says how sparse the run was.
    pub executions: u64,
    /// Per-vertex peak memory, polled after each execution.
    pub memory: MemoryMeter,
    /// Wall-clock nanoseconds the run took (monotonic; real time, not a
    /// simulated cost — the simulated currencies are the fields above).
    pub wall_ns: u64,
    /// Per-phase wall-time attribution, present when
    /// [`EngineConfig::profile`] was set. Like `wall_ns`, real time —
    /// never part of the simulated-equality contract.
    pub profile: Option<Box<EngineProfile>>,
}

impl RunStats {
    /// Whether two runs agree on every *simulated* measurement — everything
    /// except [`RunStats::wall_ns`] and [`RunStats::profile`]. This is the
    /// equality a profiled run guarantees against a plain one.
    pub fn same_simulation(&self, other: &RunStats) -> bool {
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.words == other.words
            && self.max_edge_words == other.max_edge_words
            && self.congestion_violations == other.congestion_violations
            && self.completed == other.completed
            && self.executions == other.executions
            && self.memory == other.memory
    }
}

/// Measurements of one phase (init or a round), folded into [`RunStats`].
#[derive(Clone, Debug, Default)]
struct PhaseStats {
    messages: u64,
    words: u64,
    max_edge_words: usize,
    violations: u64,
    /// First violation in (source, send) order.
    first_violation: Option<(VertexId, VertexId, usize)>,
    /// Vertices executed this phase.
    executions: u64,
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
    queued: Vec<usize>,
    not_done: usize,
    timed_count: usize,
    queued_words: usize,
}

impl Hints {
    fn new(n: usize) -> Hints {
        Hints {
            wake: vec![u64::MAX; n],
            timed: vec![false; n],
            done: vec![true; n],
            queued: vec![0; n],
            not_done: 0,
            timed_count: 0,
            queued_words: 0,
        }
    }

    /// Re-poll vertex `v` after it executed in round `round` (0 for init).
    fn refresh<P: VertexProtocol>(&mut self, v: usize, p: &P, round: u64, sample_queued: bool) {
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
        if sample_queued {
            let queued = p.queued_words();
            self.queued_words = self.queued_words + queued - self.queued[v];
            self.queued[v] = queued;
        }
    }
}

/// Profiling state: the accumulating [`EngineProfile`], the clock, and a
/// running mark so successive [`Prof::lap`] calls tile the run without gaps.
struct Prof<C> {
    prof: EngineProfile,
    epoch: C,
    mark: u64,
}

impl<C: Clock> Prof<C> {
    fn new(epoch: C) -> Prof<C> {
        let mark = epoch.elapsed_ns();
        Prof {
            prof: EngineProfile::new(1),
            epoch,
            mark,
        }
    }

    /// Close the interval since the previous lap as `phase` of `round` and
    /// start the next one.
    fn lap(&mut self, round: u64, phase: Phase) {
        let now = self.epoch.elapsed_ns();
        self.prof
            .record(round, 0, phase, self.mark, now.saturating_sub(self.mark));
        self.mark = now;
    }
}

/// The synchronous engine.
///
/// # Examples
///
/// See [`crate::bfs`] for a complete protocol.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with default configuration.
    pub fn new() -> Self {
        Engine {
            config: EngineConfig::default(),
        }
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Run `protocols` (one per vertex, indexed by vertex id) on `network`
    /// until quiescence or the round cap.
    ///
    /// Returns the final protocol states and the run statistics.
    ///
    /// # Panics
    ///
    /// Panics if `protocols.len()` differs from the network size, or on a
    /// congestion violation when `strict_congestion` is set.
    pub fn run<P: VertexProtocol>(
        &self,
        network: &Network,
        protocols: Vec<P>,
    ) -> (Vec<P>, RunStats) {
        self.run_traced(network, protocols, &mut obs::Recorder::disabled())
    }

    /// Like [`Engine::run`], but additionally appends one
    /// [`obs::RoundSample`] per executed round (including the init sends as
    /// round 0) to `recorder`'s time series. Recorder *totals* are untouched:
    /// the engine's costs reach run totals through whatever ledger charges
    /// the caller makes from the returned [`RunStats`], so the time series
    /// never double-counts.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Engine::run`].
    pub fn run_traced<P: VertexProtocol>(
        &self,
        network: &Network,
        protocols: Vec<P>,
        recorder: &mut obs::Recorder,
    ) -> (Vec<P>, RunStats) {
        // The recorder's start when it is accumulating a profile (one
        // timeline across runs), else this run's own start.
        let clock = recorder.profile_epoch().unwrap_or_else(Stopwatch::start);
        self.run_clocked(network, protocols, recorder, clock)
    }

    /// [`Engine::run_traced`] on a caller-supplied clock: the run's wall time
    /// and every profile sample are differences of `clock` readings, so a
    /// deterministic clock makes the profile a deterministic function of how
    /// often the engine reads it. The clock is read only to time the whole
    /// run, and around each phase when profiling is on.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Engine::run`].
    pub fn run_clocked<P: VertexProtocol, C: Clock>(
        &self,
        network: &Network,
        mut protocols: Vec<P>,
        recorder: &mut obs::Recorder,
        clock: C,
    ) -> (Vec<P>, RunStats) {
        let n = network.len();
        assert_eq!(protocols.len(), n, "one protocol instance per vertex");
        let started = clock.elapsed_ns();
        // `None` keeps the loop free of clock reads.
        let mut prof = (self.config.profile || recorder.profiling()).then(|| Prof::new(clock));
        let mut stats = RunStats {
            memory: MemoryMeter::new(n),
            ..RunStats::default()
        };
        let mut rounds = Rounds::new(n, recorder.is_enabled());
        if let Some(p) = prof.as_mut() {
            p.lap(0, Phase::Setup);
        }
        // One phase per iteration: execute, scatter, fold. `round` is `None`
        // for init.
        let mut round = None;
        loop {
            let r = round.unwrap_or(0);
            let ps = rounds.execute(
                &mut protocols,
                round,
                network,
                &mut stats.memory,
                self.config.edge_words_per_round,
            );
            if let Some(p) = prof.as_mut() {
                p.lap(r, Phase::Compute);
            }
            rounds.delivery.fill(&mut rounds.outbox);
            if let Some(p) = prof.as_mut() {
                p.lap(r, Phase::Scatter);
            }
            let more = self.finish_phase(round, &ps, &rounds, &mut stats, recorder);
            if let Some(p) = prof.as_mut() {
                p.lap(r, Phase::Merge);
            }
            if !more {
                break;
            }
            round = Some(stats.rounds);
        }
        stats.wall_ns = clock.elapsed_ns().saturating_sub(started);
        if let Some(mut p) = prof {
            p.prof.record_run(stats.wall_ns, stats.executions);
            recorder.absorb_profile(&p.prof);
            // A recorder-driven profile stays with the recorder only.
            if self.config.profile {
                stats.profile = Some(Box::new(p.prof));
            }
        }
        (protocols, stats)
    }

    /// Fold one executed-and-scattered phase into the run — totals, strict
    /// congestion enforcement, the traced round sample — and apply the
    /// termination test. Returns whether another round runs (it is then
    /// already counted in `stats.rounds`); otherwise `stats.completed` is
    /// settled.
    fn finish_phase<M>(
        &self,
        round: Option<u64>,
        ps: &PhaseStats,
        rounds: &Rounds<M>,
        stats: &mut RunStats,
        recorder: &mut obs::Recorder,
    ) -> bool {
        stats.messages += ps.messages;
        stats.words += ps.words;
        stats.max_edge_words = stats.max_edge_words.max(ps.max_edge_words);
        stats.congestion_violations += ps.violations;
        stats.executions += ps.executions;
        if let Some((from, to, w)) = ps.first_violation {
            assert!(
                !self.config.strict_congestion,
                "congestion violation: {from} sent {w} words to {to} in one round"
            );
        }
        // The init phase is sampled (as round 0) only if it sent anything.
        if recorder.is_enabled() && (round.is_some() || ps.messages > 0) {
            recorder.record_round(obs::RoundSample {
                round: round.unwrap_or(0),
                messages: ps.messages,
                words: ps.words,
                max_edge_words: stats.max_edge_words,
                congestion_violations: ps.violations,
                queued_words: rounds.hints.queued_words,
            });
        }

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
        if stats.rounds >= self.config.max_rounds {
            return false;
        }
        stats.rounds += 1;
        true
    }
}

/// The round loop's reusable state: the delivery arena, the outbox, the
/// per-edge scratch and the hint cache, all allocated once per run.
struct Rounds<M> {
    delivery: InboxArena<M>,
    outbox: Vec<OutMsg<M>>,
    per_edge: Vec<(VertexId, usize)>,
    hints: Hints,
    sample_queued: bool,
}

impl<M: WordSized> Rounds<M> {
    fn new(n: usize, sample_queued: bool) -> Rounds<M> {
        Rounds {
            delivery: InboxArena::new(n),
            outbox: Vec::new(),
            per_edge: Vec::new(),
            hints: Hints::new(n),
            sample_queued,
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
            self.hints.refresh(v, protocol, r, self.sample_queued);
            account(&self.outbox[start..], vid, cap, &mut self.per_edge, &mut ps);
        }
        ps
    }
}

/// Congestion/volume accounting for one vertex's sends this round.
fn account<M: WordSized>(
    sent: &[OutMsg<M>],
    from: VertexId,
    cap: usize,
    per_edge: &mut Vec<(VertexId, usize)>,
    ps: &mut PhaseStats,
) {
    if sent.is_empty() {
        return;
    }
    per_edge.clear();
    for m in sent {
        let w = m.msg.words();
        ps.messages += 1;
        ps.words += w as u64;
        match per_edge.iter_mut().find(|(t, _)| *t == m.to) {
            Some((_, acc)) => *acc += w,
            None => per_edge.push((m.to, w)),
        }
    }
    for &(to, w) in per_edge.iter() {
        ps.max_edge_words = ps.max_edge_words.max(w);
        if w > cap {
            ps.violations += 1;
            if ps.first_violation.is_none() {
                ps.first_violation = Some((from, to, w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{GraphBuilder, Weight};

    /// A toy protocol: the root floods a token; each vertex records the hop
    /// count at which it first heard it.
    struct Flood {
        is_root: bool,
        heard_at: Option<u64>,
    }

    impl VertexProtocol for Flood {
        type Msg = u64;

        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.is_root {
                self.heard_at = Some(0);
                ctx.send_all(0);
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<'_, u64>) {
            if self.heard_at.is_none() {
                if let Some((_, &h)) = inbox.first() {
                    self.heard_at = Some(h + 1);
                    ctx.send_all(h + 1);
                }
            }
        }

        fn is_done(&self) -> bool {
            self.heard_at.is_some()
        }

        fn memory_words(&self) -> usize {
            2
        }
    }

    fn path_network(n: usize) -> Network {
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(VertexId((v - 1) as u32), VertexId(v as u32), 1 as Weight);
        }
        Network::new(b.build())
    }

    fn flood(n: usize) -> Vec<Flood> {
        (0..n)
            .map(|v| Flood {
                is_root: v == 0,
                heard_at: None,
            })
            .collect()
    }

    #[test]
    fn flood_reaches_everyone_in_hop_rounds() {
        let net = path_network(6);
        let (protos, stats) = Engine::new().run(&net, flood(6));
        assert!(stats.completed);
        for (v, p) in protos.iter().enumerate() {
            assert_eq!(p.heard_at, Some(v as u64));
        }
        // Last vertex hears at round 5; one more round may drain its echo.
        assert!(
            stats.rounds >= 5 && stats.rounds <= 7,
            "rounds={}",
            stats.rounds
        );
    }

    #[test]
    fn stats_count_messages_and_words() {
        let net = path_network(3);
        let (_, stats) = Engine::new().run(&net, flood(3));
        assert!(stats.messages > 0);
        assert_eq!(stats.words, stats.messages); // 1-word messages
        assert_eq!(stats.max_edge_words, 1);
        assert_eq!(stats.congestion_violations, 0);
    }

    #[test]
    fn memory_meter_polled() {
        let net = path_network(3);
        let (_, stats) = Engine::new().run(&net, flood(3));
        assert_eq!(stats.memory.max_peak(), 2);
    }

    #[test]
    fn round_cap_stops_nonterminating_protocols() {
        /// Never done, ping-pongs forever.
        struct Chatter;
        impl VertexProtocol for Chatter {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send_all(0);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &mut Inbox<'_, u64>) {
                ctx.send_all(0);
            }
            fn is_done(&self) -> bool {
                false
            }
            fn memory_words(&self) -> usize {
                0
            }
        }
        let net = path_network(2);
        let engine = Engine::with_config(EngineConfig {
            max_rounds: 10,
            ..EngineConfig::default()
        });
        let (_, stats) = engine.run(&net, vec![Chatter, Chatter]);
        assert!(!stats.completed);
        assert_eq!(stats.rounds, 10);
    }

    #[test]
    fn quiescence_stops_stalled_protocols() {
        /// Never done, never sends — quiesces immediately, whatever it
        /// hints short of naming a future round.
        struct Stubborn(Wake);
        impl VertexProtocol for Stubborn {
            type Msg = u64;
            fn init(&mut self, _: &mut Ctx<'_, u64>) {}
            fn round(&mut self, _: &mut Ctx<'_, u64>, _: &mut Inbox<'_, u64>) {}
            fn is_done(&self) -> bool {
                false
            }
            fn memory_words(&self) -> usize {
                0
            }
            fn wake(&self) -> Wake {
                self.0
            }
        }
        let net = path_network(2);
        for hint in [Wake::NextRound, Wake::OnMessage, Wake::At(0)] {
            let (_, stats) = Engine::new().run(&net, vec![Stubborn(hint), Stubborn(hint)]);
            assert!(!stats.completed, "{hint:?}");
            assert_eq!(stats.rounds, 0, "{hint:?}");
            assert_eq!(stats.executions, 2, "{hint:?}: init only");
        }
    }

    /// An open-loop source with arrival gaps: sends one token in round
    /// `fire_at` and nothing before, and logs every round it was run in.
    struct Sleeper {
        fire_at: Option<u64>,
        ran_in: Vec<u64>,
        heard_in: Vec<u64>,
    }

    impl VertexProtocol for Sleeper {
        type Msg = u64;
        fn init(&mut self, _: &mut Ctx<'_, u64>) {}
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<'_, u64>) {
            self.ran_in.push(ctx.round());
            if !inbox.is_empty() {
                self.heard_in.push(ctx.round());
            }
            if self.fire_at == Some(ctx.round()) {
                ctx.send_all(7);
                self.fire_at = None;
            }
        }
        fn is_done(&self) -> bool {
            self.fire_at.is_none()
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn wake(&self) -> Wake {
            self.fire_at.map_or(Wake::OnMessage, Wake::At)
        }
    }

    fn sleepers(fire_at: &[Option<u64>]) -> Vec<Sleeper> {
        fire_at
            .iter()
            .map(|&fire_at| Sleeper {
                fire_at,
                ran_in: Vec::new(),
                heard_in: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn timed_wake_spans_idle_gaps() {
        // Vertex 0 fires in round 5, vertices 4 and 8 in round 12; between
        // the first token landing (round 6) and round 12 nothing is sent and
        // nothing is in flight. Without the pending `Wake::At`s the engine
        // would quiesce after the first silent round.
        let mut plan = [None; 9];
        plan[0] = Some(5);
        plan[4] = Some(12);
        plan[8] = Some(12);
        let net = path_network(9);
        let (protos, stats) = Engine::new().run(&net, sleepers(&plan));
        assert!(stats.completed);
        assert_eq!(stats.rounds, 13, "12 rounds to the last shot + 1 delivery");
        // Each source ran in exactly its round, each listener only when its
        // token landed, and nobody else at all.
        let ran: Vec<&[u64]> = protos.iter().map(|p| p.ran_in.as_slice()).collect();
        let none: &[u64] = &[];
        assert_eq!(
            ran,
            [
                &[5][..],
                &[6],
                none,
                &[13],
                &[12],
                &[13],
                none,
                &[13],
                &[12]
            ]
        );
        for (v, p) in protos.iter().enumerate() {
            let heard: &[u64] = if plan[v].is_some() { &[] } else { &p.ran_in };
            assert_eq!(p.heard_in, heard, "vertex {v}");
        }
        assert_eq!(stats.executions, 9 + 7, "init everywhere + the runs above");
    }

    /// Sends a token a phase for `left` phases (init included), hinting
    /// `hint` throughout.
    struct Countdown {
        left: u32,
        hint: Wake,
    }

    impl VertexProtocol for Countdown {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send_all(1);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &mut Inbox<'_, u64>) {
            self.init(ctx);
        }
        fn is_done(&self) -> bool {
            self.left == 0
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn wake(&self) -> Wake {
            self.hint
        }
    }

    #[test]
    fn a_wake_round_in_the_past_means_next_round() {
        let net = path_network(5);
        let run = |hint: Wake| {
            let protos = (0..5).map(|v| Countdown { left: v, hint }).collect();
            Engine::new().run(&net, protos).1
        };
        let next = run(Wake::NextRound);
        assert!(next.completed);
        assert_eq!(next.messages, 2 * (1 + 2 + 3) + 4);
        assert!(run(Wake::At(0)).same_simulation(&next));
    }

    #[test]
    fn congestion_violations_recorded() {
        /// Sends a fat message to its single neighbor once.
        struct Fat {
            sent: bool,
        }
        impl VertexProtocol for Fat {
            type Msg = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
                if !self.sent && ctx.me() == VertexId(0) {
                    ctx.send(VertexId(1), vec![0; 100]);
                }
                self.sent = true;
            }
            fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &mut Inbox<'_, Vec<u64>>) {}
            fn is_done(&self) -> bool {
                self.sent
            }
            fn memory_words(&self) -> usize {
                1
            }
        }
        let net = path_network(2);
        let (_, stats) = Engine::new().run(&net, vec![Fat { sent: false }, Fat { sent: false }]);
        assert_eq!(stats.congestion_violations, 1);
        assert_eq!(stats.max_edge_words, 100);
    }

    #[test]
    #[should_panic(expected = "congestion violation")]
    fn strict_congestion_panics() {
        struct Fat;
        impl VertexProtocol for Fat {
            type Msg = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
                if ctx.me() == VertexId(0) {
                    ctx.send(VertexId(1), vec![0; 100]);
                }
            }
            fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &mut Inbox<'_, Vec<u64>>) {}
            fn is_done(&self) -> bool {
                true
            }
            fn memory_words(&self) -> usize {
                0
            }
        }
        let net = path_network(2);
        let engine = Engine::with_config(EngineConfig {
            strict_congestion: true,
            ..EngineConfig::default()
        });
        engine.run(&net, vec![Fat, Fat]);
    }

    #[test]
    #[should_panic(expected = "one protocol instance per vertex")]
    fn protocol_count_must_match() {
        let net = path_network(3);
        Engine::new().run(&net, flood(2));
    }

    #[test]
    fn traced_run_samples_every_round() {
        let net = path_network(4);
        let mut rec = obs::Recorder::new();
        let (_, stats) = Engine::new().run_traced(&net, flood(4), &mut rec);
        assert!(stats.completed);
        // One sample for the init sends plus one per executed round.
        let series = rec.series();
        assert_eq!(series.len() as u64, stats.rounds + 1);
        assert_eq!(series[0].round, 0);
        assert_eq!(series.last().unwrap().round, stats.rounds);
        let messages: u64 = series.iter().map(|s| s.messages).sum();
        let words: u64 = series.iter().map(|s| s.words).sum();
        assert_eq!(messages, stats.messages);
        assert_eq!(words, stats.words);
        // The hook records the series without touching recorder totals.
        assert_eq!(rec.totals(), obs::Counters::ZERO);
        // Wall sampling: real elapsed time, present even at this tiny size.
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let net = path_network(4);
        let mut rec = obs::Recorder::disabled();
        let (_, stats) = Engine::new().run_traced(&net, flood(4), &mut rec);
        assert!(stats.completed);
        assert!(rec.series().is_empty());
    }

    #[test]
    fn profiled_serial_run_tiles_the_wall() {
        let net = path_network(8);
        let engine = Engine::with_config(EngineConfig {
            profile: true,
            ..EngineConfig::default()
        });
        let (_, stats) = engine.run(&net, flood(8));
        let (_, plain) = Engine::new().run(&net, flood(8));
        assert!(
            stats.same_simulation(&plain),
            "profiling must not change the simulation"
        );
        let p = stats.profile.as_deref().expect("profile requested");
        assert_eq!(p.runs, 1);
        assert_eq!(p.workers, 1);
        assert_eq!(p.rounds, stats.rounds);
        let coord: u64 = p.coord_ns.iter().sum();
        assert!(coord > 0);
        // The coordinator's phases tile the run: their sum cannot exceed
        // the measured wall and must cover the bulk of it.
        assert!(
            coord <= p.engine_wall_ns,
            "coord {coord} > wall {}",
            p.engine_wall_ns
        );
        let s = p.summary();
        assert!(s.coverage > 0.5, "coverage {}", s.coverage);
        assert!(plain.profile.is_none(), "no profile unless requested");
    }

    #[test]
    fn recorder_driven_profiling_accumulates_on_the_recorder() {
        let net = path_network(6);
        let mut rec = obs::Recorder::new();
        rec.enable_profiling();
        let (_, stats) = Engine::new().run_traced(&net, flood(6), &mut rec);
        // Config didn't ask for the profile, so the stats don't carry it...
        assert!(stats.profile.is_none());
        // ...but the recorder accumulated it.
        let p = rec.profile().expect("recorder accumulates the profile");
        assert_eq!(p.runs, 1);
        assert!(p.engine_wall_ns > 0);
        // A second run folds in.
        let (_, _) = Engine::new().run_traced(&net, flood(6), &mut rec);
        assert_eq!(rec.profile().unwrap().runs, 2);
    }
}
