//! The synchronous round engine: runs per-vertex state machines and measures
//! rounds, messages, congestion, and memory.
//!
//! # Execution model
//!
//! The engine owns one protocol instance per vertex and drives them through
//! synchronous rounds over the zero-allocation message plane in
//! [`crate::plane`]: vertices append sends to flat outbox arenas, and a
//! stable counting sort scatters them into flat per-range inbox arenas for
//! the next round. No per-vertex `Vec`s are allocated on the hot path.
//!
//! A round executes only the vertices that can act in it: those with mail,
//! and those whose last-reported [`Wake`] hint has come due. What a vertex
//! reported after its last execution (`wake`, `is_done`, `queued_words`) is
//! cached in flat per-chunk arrays and stays exact until it executes again,
//! because a vertex's state changes only inside `init` / `round`. The
//! termination test and the queue-occupancy sample read running totals over
//! those arrays, so nothing in the loop touches a protocol that is not
//! executing.
//!
//! # Parallelism and determinism
//!
//! With [`EngineConfig::threads`] > 1 the vertex set is partitioned into
//! contiguous chunks, one per worker, executed under [`std::thread::scope`].
//! Workers are persistent across rounds (spawned once per run) and
//! rendezvous with the coordinator through channels; each owns its protocol
//! chunk, its slice of the memory meter, and a reusable outbox arena.
//!
//! The simulated results are **bit-identical to the serial engine** for any
//! thread count:
//!
//! * Chunks are contiguous and outboxes are merged in worker order, so the
//!   global message stream is in (source ascending, send order) — exactly
//!   the order the serial loop produces.
//! * The inbox scatter is a stable counting sort by destination, so every
//!   vertex's inbox preserves that order.
//! * All statistics (messages, words, per-edge congestion, per-vertex
//!   memory) are computed per source vertex and folded in vertex order.
//! * Strict-congestion enforcement is deferred to the end-of-round merge in
//!   *both* paths and reports the first violation in (source, send) order,
//!   so the panic is thread-count independent too.
//!
//! Only [`RunStats::wall_ns`] — real time, not a simulated cost — may differ
//! between runs.

use std::sync::mpsc;

use graphs::graph::Arc;
use graphs::VertexId;
use obs::metrics::{Clock, Stopwatch};
use obs::profile::{EngineProfile, Phase};

use crate::memory::{MemoryMeter, MeterChunk};
use crate::message::WordSized;
use crate::network::Network;
use crate::plane::{fill_arenas, ChunkArena, OutMsg, Outbox};

pub use crate::plane::Inbox;

/// A per-vertex protocol state machine.
///
/// One instance exists per vertex. A protocol may only read its own state,
/// the identity/ports of its neighbors (via [`Ctx`]), and the messages
/// delivered to it this round — this is what makes the simulation faithful to
/// the model. `Send` bounds let the engine shard vertices across workers.
pub trait VertexProtocol {
    /// The message type exchanged by this protocol.
    type Msg: Clone + WordSized + Send;

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
    /// Worker threads for per-round vertex execution. `1` (the default) runs
    /// the serial path; `0` resolves to the machine's available parallelism.
    /// Simulated results are identical for every value — see the module docs.
    pub threads: usize,
    /// Profile the round loop: per-round, per-worker phase timings
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
            threads: 1,
            profile: false,
        }
    }
}

impl EngineConfig {
    /// The configured thread count with `0` resolved to the machine's
    /// available parallelism.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
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
    /// Per-phase, per-worker wall-time attribution, present when
    /// [`EngineConfig::profile`] was set. Like `wall_ns`, real time —
    /// never part of the simulated-equality contract.
    pub profile: Option<Box<EngineProfile>>,
}

impl RunStats {
    /// Whether two runs agree on every *simulated* measurement — everything
    /// except [`RunStats::wall_ns`] and [`RunStats::profile`]. This is the
    /// equality the parallel engine guarantees against the serial one.
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

/// Per-chunk measurements of one phase, folded into [`RunStats`] in worker
/// order.
#[derive(Clone, Debug, Default)]
struct ChunkStats {
    messages: u64,
    words: u64,
    max_edge_words: usize,
    violations: u64,
    /// First violation in (source, send) order within the chunk.
    first_violation: Option<(VertexId, VertexId, usize)>,
    /// Vertices executed this phase.
    executions: u64,
    /// Whether every protocol in the chunk reports done after this phase.
    chunk_done: bool,
    /// Whether any vertex in the chunk holds a pending [`Wake::At`]
    /// (suspends the quiescence rule).
    timed_wake: bool,
    queued_words: usize,
}

/// What each vertex of a chunk reported right after it last executed, in
/// flat arrays indexed by position in the chunk, with running totals so the
/// per-phase summary is O(1). Refreshed only for vertices that execute: a
/// vertex that does not run cannot change state, so its entries stay exact.
struct ChunkCache {
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

impl ChunkCache {
    fn new(len: usize) -> ChunkCache {
        ChunkCache {
            wake: vec![u64::MAX; len],
            timed: vec![false; len],
            done: vec![true; len],
            queued: vec![0; len],
            not_done: 0,
            timed_count: 0,
            queued_words: 0,
        }
    }

    /// Re-poll vertex `i` after it executed in round `round` (0 for init).
    fn refresh<P: VertexProtocol>(&mut self, i: usize, p: &P, round: u64, sample_queued: bool) {
        let (wake, timed) = match p.wake() {
            Wake::OnMessage => (u64::MAX, false),
            Wake::At(at) if at > round => (at, true),
            Wake::NextRound | Wake::At(_) => (round + 1, false),
        };
        self.wake[i] = wake;
        self.timed_count = self.timed_count + usize::from(timed) - usize::from(self.timed[i]);
        self.timed[i] = timed;
        let done = p.is_done();
        self.not_done = self.not_done + usize::from(!done) - usize::from(!self.done[i]);
        self.done[i] = done;
        if sample_queued {
            let queued = p.queued_words();
            self.queued_words = self.queued_words + queued - self.queued[i];
            self.queued[i] = queued;
        }
    }
}

/// One chunk's round-trip payload: its delivery arena, reusable outbox and
/// scratch, the vertex cache, and the phase result. The serial driver keeps
/// its single task in place; the parallel driver moves each one coordinator
/// → worker → coordinator through channels every phase, so ownership is
/// explicit and nothing is locked or copied.
struct Task<M> {
    /// `None` drives the init phase; `Some(r)` drives round `r`.
    round: Option<u64>,
    delivery: ChunkArena<M>,
    outbox: Outbox<M>,
    per_edge: Vec<(VertexId, usize)>,
    cache: ChunkCache,
    stats: ChunkStats,
    sample_queued: bool,
    /// The worker's phase timings for this phase, when profiling.
    prof: Option<TaskProf>,
}

impl<M> Task<M> {
    /// The task for vertices `[lo, lo + len)`.
    fn new(lo: usize, len: usize, sample_queued: bool) -> Task<M> {
        Task {
            round: None,
            delivery: ChunkArena::new(lo, len),
            outbox: Outbox::new(),
            per_edge: Vec::new(),
            cache: ChunkCache::new(len),
            stats: ChunkStats::default(),
            sample_queued,
            prof: None,
        }
    }
}

/// A worker's raw clock marks for one phase, recorded on the worker and
/// folded into the coordinator's [`Prof`] at collection time so workers
/// never share the profile itself.
#[derive(Clone, Copy, Debug, Default)]
struct TaskProf {
    /// Start of the channel wait preceding this phase (epoch-relative ns).
    idle_start: u64,
    /// Length of that wait.
    idle_ns: u64,
    /// Start of the chunk execution.
    compute_start: u64,
    /// Length of the chunk execution.
    compute_ns: u64,
}

/// Coordinator-side profiling state: the accumulating [`EngineProfile`],
/// the shared epoch clock, and a running mark so successive [`Prof::lap`]
/// calls tile the coordinator's track without gaps.
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

    /// Close the interval since the previous lap as `phase` on `worker`'s
    /// track and start the next one.
    fn lap(&mut self, round: u64, worker: u32, phase: Phase) {
        let now = self.epoch.elapsed_ns();
        self.prof.record(
            round,
            worker,
            phase,
            self.mark,
            now.saturating_sub(self.mark),
        );
        self.mark = now;
    }

    /// Fold a worker's raw marks for round `round` into the profile
    /// (independent samples; the coordinator's own mark is untouched).
    fn absorb_task(&mut self, round: u64, worker: u32, tp: &TaskProf) {
        self.prof
            .record(round, worker, Phase::Idle, tp.idle_start, tp.idle_ns);
        self.prof.record(
            round,
            worker,
            Phase::Compute,
            tp.compute_start,
            tp.compute_ns,
        );
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

    /// An engine with default configuration except the worker thread count
    /// (`0` = available parallelism).
    pub fn with_threads(threads: usize) -> Self {
        Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        })
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
    pub fn run<P: VertexProtocol + Send>(
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
    pub fn run_traced<P: VertexProtocol + Send>(
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
    pub fn run_clocked<P: VertexProtocol + Send, C: Clock>(
        &self,
        network: &Network,
        mut protocols: Vec<P>,
        recorder: &mut obs::Recorder,
        clock: C,
    ) -> (Vec<P>, RunStats) {
        let n = network.len();
        assert_eq!(protocols.len(), n, "one protocol instance per vertex");
        let started = clock.elapsed_ns();
        // `None` keeps both drivers free of clock reads.
        let profiling = self.config.profile || recorder.profiling();
        let epoch = profiling.then_some(clock);
        let threads = self.config.resolved_threads().clamp(1, n.max(1));
        let mut stats = if threads <= 1 {
            self.drive_serial(network, &mut protocols, recorder, epoch)
        } else {
            self.drive_parallel(network, &mut protocols, recorder, threads, epoch)
        };
        stats.wall_ns = clock.elapsed_ns().saturating_sub(started);
        if let Some(p) = stats.profile.as_deref_mut() {
            p.record_run(stats.wall_ns, stats.executions);
            recorder.absorb_profile(p);
        }
        if !self.config.profile {
            // Profiling was recorder-driven; the recorder keeps the copy.
            stats.profile = None;
        }
        (protocols, stats)
    }

    /// The single-threaded driver: one chunk covering every vertex, executed
    /// inline. Same plane, same merge, no channels.
    fn drive_serial<P: VertexProtocol, C: Clock>(
        &self,
        network: &Network,
        protocols: &mut [P],
        recorder: &mut obs::Recorder,
        epoch: Option<C>,
    ) -> RunStats {
        let n = protocols.len();
        let cap = self.config.edge_words_per_round;
        let sample = recorder.is_enabled();
        let mut prof = epoch.map(Prof::new);
        let mut stats = RunStats::default();
        let mut memory = MemoryMeter::new(n);
        let mut task: Task<P::Msg> = Task::new(0, n, sample);
        {
            let mut meter = memory
                .chunks_mut(n.max(1))
                .pop()
                .expect("one chunk covers all vertices");
            if let Some(p) = prof.as_mut() {
                p.lap(0, 0, Phase::Setup);
            }

            // One phase: execute, scatter, fold. `round` is `None` for init.
            let mut phase = |round: Option<u64>, stats: &mut RunStats| {
                let r = round.unwrap_or(0);
                task.round = round;
                execute_chunk(protocols, 0, network, &mut meter, cap, &mut task);
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Compute);
                }
                fill_arenas(
                    &mut [&mut task.delivery],
                    std::slice::from_mut(&mut task.outbox),
                    n.max(1),
                );
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Scatter);
                }
                let in_flight = task.delivery.total() > 0;
                let more = self.finish_phase(round, &task.stats, in_flight, stats, recorder);
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Merge);
                }
                more
            };

            let mut round = None;
            while phase(round, &mut stats) {
                round = Some(stats.rounds);
            }
        }
        stats.memory = memory;
        stats.profile = prof.map(|p| Box::new(p.prof));
        stats
    }

    /// The multi-threaded driver: contiguous vertex chunks on persistent
    /// scoped workers, rendezvousing with this (coordinator) thread through
    /// channels each phase. Chunk 0 executes inline on the coordinator.
    fn drive_parallel<P: VertexProtocol + Send, C: Clock>(
        &self,
        network: &Network,
        protocols: &mut [P],
        recorder: &mut obs::Recorder,
        threads: usize,
        epoch: Option<C>,
    ) -> RunStats {
        let n = protocols.len();
        let chunk = n.div_ceil(threads);
        let cap = self.config.edge_words_per_round;
        let sample = recorder.is_enabled();
        let mut prof = epoch.map(Prof::new);
        let mut stats = RunStats::default();
        let mut memory = MemoryMeter::new(n);

        let mut tasks: Vec<Option<Task<P::Msg>>> = (0..n)
            .step_by(chunk)
            .map(|lo| Some(Task::new(lo, chunk.min(n - lo), sample)))
            .collect();
        let t = tasks.len();

        let mut proto_chunks: Vec<&mut [P]> = protocols.chunks_mut(chunk).collect();
        let mut meter_chunks = memory.chunks_mut(chunk);
        debug_assert_eq!(proto_chunks.len(), t);
        debug_assert_eq!(meter_chunks.len(), t);

        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<(usize, Task<P::Msg>)>();
            let mut to_workers: Vec<mpsc::Sender<Task<P::Msg>>> = Vec::with_capacity(t - 1);
            let mut chunks = proto_chunks.drain(..).zip(meter_chunks.drain(..));
            let (protos0, mut meter0) = chunks.next().expect("at least one chunk");
            for (i, (protos, mut meter)) in chunks.enumerate() {
                let w = i + 1;
                let lo = w * chunk;
                let (task_tx, task_rx) = mpsc::channel::<Task<P::Msg>>();
                to_workers.push(task_tx);
                let done = done_tx.clone();
                scope.spawn(move || {
                    // Persistent worker: one phase per received task; exits
                    // when the coordinator drops its sender. When profiling,
                    // the worker stamps raw clock marks into the task (the
                    // recv wait is the worker's idle time) and the
                    // coordinator folds them into the profile at collection.
                    let mut idle_from = epoch.map_or(0, |e| e.elapsed_ns());
                    while let Ok(mut task) = task_rx.recv() {
                        if let Some(e) = epoch {
                            let now = e.elapsed_ns();
                            task.prof = Some(TaskProf {
                                idle_start: idle_from,
                                idle_ns: now.saturating_sub(idle_from),
                                compute_start: now,
                                compute_ns: 0,
                            });
                        }
                        execute_chunk(protos, lo, network, &mut meter, cap, &mut task);
                        if let Some(e) = epoch {
                            if let Some(tp) = task.prof.as_mut() {
                                tp.compute_ns = e.elapsed_ns().saturating_sub(tp.compute_start);
                            }
                        }
                        if done.send((w, task)).is_err() {
                            break;
                        }
                        if let Some(e) = epoch {
                            idle_from = e.elapsed_ns();
                        }
                    }
                });
            }
            drop(done_tx);

            if let Some(p) = prof.as_mut() {
                p.lap(0, 0, Phase::Setup);
            }

            // One phase: fan it out to every worker, run chunk 0 inline, park
            // the returned tasks back in worker-index order, scatter, fold.
            let mut phase = |round: Option<u64>, stats: &mut RunStats| {
                let r = round.unwrap_or(0);
                for (i, tx) in to_workers.iter().enumerate() {
                    let mut task = tasks[i + 1].take().expect("task parked");
                    task.round = round;
                    tx.send(task).expect("worker alive");
                }
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Dispatch);
                }
                let mut t0 = tasks[0].take().expect("task parked");
                t0.round = round;
                execute_chunk(protos0, 0, network, &mut meter0, cap, &mut t0);
                tasks[0] = Some(t0);
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Compute);
                }
                for _ in 0..to_workers.len() {
                    let (w, task) = done_rx.recv().expect("worker alive");
                    if let Some(p) = prof.as_mut() {
                        if let Some(tp) = &task.prof {
                            p.absorb_task(r, w as u32, tp);
                        }
                    }
                    tasks[w] = Some(task);
                }
                // Time since chunk 0 finished is the coordinator's barrier
                // wait on the slowest worker.
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Idle);
                }
                let (cs, in_flight) = merge_round(&mut tasks, chunk, r, &mut prof);
                let more = self.finish_phase(round, &cs, in_flight, stats, recorder);
                if let Some(p) = prof.as_mut() {
                    p.lap(r, 0, Phase::Merge);
                }
                more
            };

            let mut round = None;
            while phase(round, &mut stats) {
                round = Some(stats.rounds);
            }
            // Dropping `to_workers` (scope-local) ends every worker's recv
            // loop; the scope then joins them.
        });
        drop(meter_chunks);
        stats.memory = memory;
        stats.profile = prof.map(|p| Box::new(p.prof));
        stats
    }

    /// Fold one executed-and-scattered phase into the run — totals, deferred
    /// congestion enforcement, the traced round sample — and apply the
    /// termination test. Returns whether another round runs (it is then
    /// already counted in `stats.rounds`); otherwise `stats.completed` is
    /// settled.
    fn finish_phase(
        &self,
        round: Option<u64>,
        cs: &ChunkStats,
        in_flight: bool,
        stats: &mut RunStats,
        recorder: &mut obs::Recorder,
    ) -> bool {
        stats.messages += cs.messages;
        stats.words += cs.words;
        stats.max_edge_words = stats.max_edge_words.max(cs.max_edge_words);
        stats.congestion_violations += cs.violations;
        stats.executions += cs.executions;
        self.enforce_congestion(cs.first_violation);
        // The init phase is sampled (as round 0) only if it sent anything.
        if recorder.is_enabled() && (round.is_some() || cs.messages > 0) {
            recorder.record_round(obs::RoundSample {
                round: round.unwrap_or(0),
                messages: cs.messages,
                words: cs.words,
                max_edge_words: stats.max_edge_words,
                congestion_violations: cs.violations,
                queued_words: cs.queued_words,
            });
        }

        if cs.chunk_done && !in_flight {
            stats.completed = true;
            return false;
        }
        // Quiescence: once a phase passes with nothing sent and nothing in
        // flight, no message-driven state can change — unless a vertex holds
        // a pending `Wake::At`, in which case time must keep advancing.
        if !in_flight && cs.messages == 0 && !cs.timed_wake {
            stats.completed = cs.chunk_done;
            return false;
        }
        if stats.rounds >= self.config.max_rounds {
            return false;
        }
        stats.rounds += 1;
        true
    }

    /// Deferred strict-congestion enforcement: both drivers collect the first
    /// violation in (source, send) order during the round and report it here
    /// after the merge, so the panic site is identical for every thread
    /// count (and workers never panic while the coordinator waits on them).
    fn enforce_congestion(&self, first: Option<(VertexId, VertexId, usize)>) {
        if let Some((from, to, w)) = first {
            assert!(
                !self.config.strict_congestion,
                "congestion violation: {from} sent {w} words to {to} in one round"
            );
        }
    }
}

/// Drain every outbox into the delivery arenas (stable, worker order) and
/// fold the per-chunk stats in worker order; also reports whether anything
/// is now in flight. When profiling, the scatter is lapped on the
/// coordinator's track for round `round`.
fn merge_round<M, C: Clock>(
    tasks: &mut [Option<Task<M>>],
    chunk: usize,
    round: u64,
    prof: &mut Option<Prof<C>>,
) -> (ChunkStats, bool) {
    let mut outboxes: Vec<Outbox<M>> = tasks
        .iter_mut()
        .map(|t| std::mem::take(&mut t.as_mut().expect("task parked").outbox))
        .collect();
    {
        let mut arenas: Vec<&mut ChunkArena<M>> = tasks
            .iter_mut()
            .map(|t| &mut t.as_mut().expect("task parked").delivery)
            .collect();
        fill_arenas(&mut arenas, &mut outboxes, chunk);
    }
    for (t, outbox) in tasks.iter_mut().zip(outboxes) {
        t.as_mut().expect("task parked").outbox = outbox;
    }
    if let Some(p) = prof.as_mut() {
        p.lap(round, 0, Phase::Scatter);
    }
    let mut merged = ChunkStats {
        chunk_done: true,
        ..ChunkStats::default()
    };
    let mut in_flight = false;
    for t in tasks.iter() {
        let t = t.as_ref().expect("task parked");
        let cs = &t.stats;
        merged.messages += cs.messages;
        merged.words += cs.words;
        merged.max_edge_words = merged.max_edge_words.max(cs.max_edge_words);
        merged.violations += cs.violations;
        if merged.first_violation.is_none() {
            merged.first_violation = cs.first_violation;
        }
        merged.executions += cs.executions;
        merged.chunk_done &= cs.chunk_done;
        merged.timed_wake |= cs.timed_wake;
        merged.queued_words += cs.queued_words;
        in_flight |= t.delivery.total() > 0;
    }
    (merged, in_flight)
}

/// Execute one phase (init or the numbered round in `task.round`) for the
/// contiguous chunk of vertices `[lo, lo + protocols.len())`: run each
/// protocol that can act, meter its memory, re-poll its hints into the
/// task's cache, and account its sends; the phase result lands in
/// `task.stats`. Shared verbatim by the serial driver, the coordinator's
/// inline chunk 0, and every worker — there is exactly one execution
/// semantics, and one skip rule: a vertex sits a round out iff its inbox is
/// empty and its cached wake round has not come.
fn execute_chunk<P: VertexProtocol>(
    protocols: &mut [P],
    lo: usize,
    network: &Network,
    meter: &mut MeterChunk<'_>,
    cap: usize,
    task: &mut Task<P::Msg>,
) {
    let Task {
        round,
        delivery,
        outbox,
        per_edge,
        cache,
        sample_queued,
        ..
    } = task;
    let init = round.is_none();
    let r = round.unwrap_or(0);
    let mut cs = ChunkStats::default();
    for (i, protocol) in protocols.iter_mut().enumerate() {
        let v = lo + i;
        if !init && delivery.inbox_len(v) == 0 && cache.wake[i] > r {
            continue;
        }
        let vid = VertexId(v as u32);
        let start = outbox.msgs.len();
        let mut ctx = Ctx {
            me: vid,
            arcs: network.ports(vid),
            round: r,
            outbox: &mut outbox.msgs,
        };
        if init {
            protocol.init(&mut ctx);
        } else {
            protocol.round(&mut ctx, &mut delivery.inbox(v));
        }
        cs.executions += 1;
        meter.set(vid, protocol.memory_words());
        cache.refresh(i, protocol, r, *sample_queued);
        account(&outbox.msgs[start..], vid, cap, per_edge, &mut cs);
    }
    cs.chunk_done = cache.not_done == 0;
    cs.timed_wake = cache.timed_count > 0;
    cs.queued_words = cache.queued_words;
    task.stats = cs;
}

/// Congestion/volume accounting for one vertex's sends this round.
fn account<M: WordSized>(
    sent: &[OutMsg<M>],
    from: VertexId,
    cap: usize,
    per_edge: &mut Vec<(VertexId, usize)>,
    cs: &mut ChunkStats,
) {
    if sent.is_empty() {
        return;
    }
    per_edge.clear();
    for m in sent {
        let w = m.msg.words();
        cs.messages += 1;
        cs.words += w as u64;
        match per_edge.iter_mut().find(|(t, _)| *t == m.to) {
            Some((_, acc)) => *acc += w,
            None => per_edge.push((m.to, w)),
        }
    }
    for &(to, w) in per_edge.iter() {
        cs.max_edge_words = cs.max_edge_words.max(w);
        if w > cap {
            cs.violations += 1;
            if cs.first_violation.is_none() {
                cs.first_violation = Some((from, to, w));
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
        // Identical at higher thread counts.
        for threads in [2, 8] {
            let (protos_p, stats_p) = Engine::with_threads(threads).run(&net, sleepers(&plan));
            assert!(stats_p.same_simulation(&stats), "{threads} threads");
            for (a, b) in protos_p.iter().zip(&protos) {
                assert_eq!(a.ran_in, b.ran_in, "{threads} threads");
            }
        }
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
        let run = |hint: Wake, threads: usize| {
            let protos = (0..5).map(|v| Countdown { left: v, hint }).collect();
            Engine::with_threads(threads).run(&net, protos).1
        };
        let next = run(Wake::NextRound, 1);
        assert!(next.completed);
        assert_eq!(next.messages, 2 * (1 + 2 + 3) + 4);
        for threads in [1, 2, 8] {
            assert!(run(Wake::At(0), threads).same_simulation(&next));
        }
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
    #[should_panic(expected = "congestion violation")]
    fn strict_congestion_panics_in_parallel_too() {
        struct Fat;
        impl VertexProtocol for Fat {
            type Msg = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
                if ctx.me() == VertexId(3) {
                    ctx.send(VertexId(2), vec![0; 100]);
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
        let net = path_network(4);
        let engine = Engine::with_config(EngineConfig {
            strict_congestion: true,
            threads: 4,
            ..EngineConfig::default()
        });
        engine.run(&net, vec![Fat, Fat, Fat, Fat]);
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
    fn thread_count_does_not_change_the_simulation() {
        let net = path_network(13);
        let (serial_protos, serial) = Engine::new().run(&net, flood(13));
        for threads in [2usize, 3, 8, 64] {
            let (protos, stats) = Engine::with_threads(threads).run(&net, flood(13));
            assert!(
                stats.same_simulation(&serial),
                "threads={threads}: {stats:?} vs {serial:?}"
            );
            for (a, b) in protos.iter().zip(serial_protos.iter()) {
                assert_eq!(a.heard_at, b.heard_at, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_traced_series_matches_serial() {
        let net = path_network(9);
        let mut serial_rec = obs::Recorder::new();
        let (_, serial) = Engine::new().run_traced(&net, flood(9), &mut serial_rec);
        let mut par_rec = obs::Recorder::new();
        let (_, par) = Engine::with_threads(4).run_traced(&net, flood(9), &mut par_rec);
        assert!(par.same_simulation(&serial));
        assert_eq!(par_rec.series().len(), serial_rec.series().len());
        for (a, b) in par_rec.series().iter().zip(serial_rec.series()) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.words, b.words);
            assert_eq!(a.max_edge_words, b.max_edge_words);
            assert_eq!(a.congestion_violations, b.congestion_violations);
            assert_eq!(a.queued_words, b.queued_words);
        }
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
    fn profiled_parallel_run_tracks_every_worker() {
        let net = path_network(12);
        let engine = Engine::with_config(EngineConfig {
            profile: true,
            threads: 3,
            ..EngineConfig::default()
        });
        let (_, stats) = engine.run(&net, flood(12));
        let (_, serial) = Engine::new().run(&net, flood(12));
        assert!(stats.same_simulation(&serial));
        let p = stats.profile.as_deref().expect("profile requested");
        assert_eq!(p.workers, 3, "coordinator + 2 pool workers");
        // Every worker track saw compute and idle; the coordinator also
        // dispatched, scattered, and merged.
        for phase in [
            Phase::Setup,
            Phase::Dispatch,
            Phase::Compute,
            Phase::Scatter,
            Phase::Merge,
            Phase::Idle,
        ] {
            assert!(p.counts[phase.index()] > 0, "no {} samples", phase.name());
        }
        let busy_workers = p.busy_ns.len();
        assert_eq!(busy_workers, 3);
        let s = p.summary();
        assert!(s.imbalance >= 1.0);
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

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let net = path_network(2);
        let (_, stats) = Engine::with_threads(16).run(&net, flood(2));
        let (_, serial) = Engine::new().run(&net, flood(2));
        assert!(stats.same_simulation(&serial));
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(Engine::with_threads(0).config().resolved_threads() >= 1);
        let net = path_network(5);
        let (_, stats) = Engine::with_threads(0).run(&net, flood(5));
        let (_, serial) = Engine::new().run(&net, flood(5));
        assert!(stats.same_simulation(&serial));
    }
}
