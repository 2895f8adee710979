//! The steady-state forwarding plane: per-port finite FIFO queues driven by
//! the CONGEST engine, with open-loop injection from a precomputed schedule.
//!
//! Unlike the one-shot batches in `routing::packet` (everything injected at
//! round 0, unbounded queues), this plane injects packets *every round* from
//! a per-vertex schedule and bounds each outgoing queue at a configurable
//! capacity with an explicit drop policy. The whole schedule is computed
//! before the engine starts, so the simulation is a pure function of its
//! inputs, and each vertex keeps a sparse per-round log whose merge after
//! the run yields the dense conservation
//! series `injected = delivered + dropped + queued + on-wire` that
//! [`crate::scenario`] re-checks every round.

use std::collections::VecDeque;

use congest::engine::{Ctx, Engine, EngineConfig, Inbox, VertexProtocol, Wake};
use congest::{Network, RunStats, WordSized};
use graphs::{VertexId, Weight};
use obs::flight::{EdgeLoadMap, Load};
use routing::forward::{self, Step};
use routing::packet::PacketPlan;
use routing::{RoutingScheme, RoutingTable};
use tree_routing::types::TreeLabel;

/// What a vertex does with an arrival destined for a full queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Drop the incoming packet; the queue is untouched.
    TailDrop,
    /// Drop the queue's oldest packet and admit the newcomer.
    OldestDrop,
}

impl DropPolicy {
    /// The schema/CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            DropPolicy::TailDrop => "tail-drop",
            DropPolicy::OldestDrop => "oldest-drop",
        }
    }

    /// Parse a CLI name back into a policy.
    pub fn parse(name: &str) -> Option<DropPolicy> {
        match name {
            "tail-drop" => Some(DropPolicy::TailDrop),
            "oldest-drop" => Some(DropPolicy::OldestDrop),
            _ => None,
        }
    }
}

/// A steady-state packet: id, committed tree, accumulated weight and hop
/// count, and the target's tree label. Four header words plus the label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficPacket {
    /// Index into the scenario's injection order.
    pub id: u32,
    /// The committed tree.
    pub tree_root: VertexId,
    /// Accumulated routed weight.
    pub weight: Weight,
    /// Edges traversed so far.
    pub hops: u32,
    /// Target tree label.
    pub label: TreeLabel,
}

impl TrafficPacket {
    /// Build the packet a scenario injects for plan `plan`.
    pub fn from_plan(id: u32, plan: PacketPlan) -> TrafficPacket {
        TrafficPacket {
            id,
            tree_root: plan.tree_root,
            weight: 0,
            hops: 0,
            label: plan.label,
        }
    }
}

impl WordSized for TrafficPacket {
    fn words(&self) -> usize {
        4 + self.label.words()
    }
}

/// One scheduled injection: engine round, source vertex, packet.
pub type Injection = (u64, VertexId, TrafficPacket);

/// One delivered packet, as recorded by its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The packet's injection-order id.
    pub id: u32,
    /// Engine round of arrival.
    pub round: u64,
    /// Routed path weight.
    pub weight: Weight,
    /// Edges traversed.
    pub hops: u32,
}

/// One vertex's activity in one round; sparse (only logged when nonzero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RoundLog {
    round: u64,
    injected: u32,
    delivered: u32,
    dropped_capacity: u32,
    dropped_stuck: u32,
    sent: u32,
    queued_packets: u32,
    queued_words: u64,
}

/// Network-wide totals for one round, merged from the per-vertex logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTotals {
    /// The engine round (0 is the injection-only init round).
    pub round: u64,
    /// Packets injected this round.
    pub injected: u64,
    /// Packets delivered this round.
    pub delivered: u64,
    /// Packets dropped by a full queue this round.
    pub dropped_capacity: u64,
    /// Packets dropped by a stuck rule or missing port this round.
    pub dropped_stuck: u64,
    /// Packets put on the wire this round (arrive next round).
    pub sent: u64,
    /// Packets queued network-wide at the end of this round.
    pub queued_packets: u64,
    /// Words those queued packets occupy.
    pub queued_words: u64,
}

/// Simulation knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Per-port queue capacity in packets.
    pub queue_cap: usize,
    /// What to do with arrivals at a full queue.
    pub policy: DropPolicy,
    /// Engine round cap (must be at least the last injection round).
    pub max_rounds: u64,
    /// Accepted and ignored; the engine is serial.
    pub threads: usize,
    /// Profile the engine round loop; the phase attribution comes back in
    /// [`SimResult`]'s `stats.profile`. Never changes simulated results.
    pub profile: bool,
}

/// Everything one engine run produced.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Delivered packets, ordered by destination vertex then arrival.
    pub deliveries: Vec<Delivery>,
    /// Ids of packets dropped by a full queue.
    pub dropped_capacity: Vec<u32>,
    /// Ids of packets dropped by a stuck rule or missing port.
    pub dropped_stuck: Vec<u32>,
    /// Dense per-round totals (index = round).
    pub series: Vec<RoundTotals>,
    /// Words actually transmitted per edge (capacity drops never transmit).
    pub edge_load: EdgeLoadMap,
    /// Engine statistics.
    pub stats: RunStats,
}

impl SimResult {
    /// Largest number of packets queued network-wide at any round end.
    pub fn peak_queue_packets(&self) -> u64 {
        self.series
            .iter()
            .map(|t| t.queued_packets)
            .max()
            .unwrap_or(0)
    }

    /// Largest number of queued words network-wide at any round end.
    pub fn peak_queue_words(&self) -> u64 {
        self.series
            .iter()
            .map(|t| t.queued_words)
            .max()
            .unwrap_or(0)
    }
}

/// Run the steady-state plane: inject `injections` (sorted by round) into
/// finite per-port queues and forward by the Thorup–Zwick rule until the
/// network drains or `cfg.max_rounds` cuts the run off.
///
/// # Panics
///
/// Panics if `injections` is not sorted by round, or if a scheduled round
/// exceeds `cfg.max_rounds` (the packet could never inject, which would
/// silently break conservation).
pub fn simulate(
    network: &Network,
    scheme: &RoutingScheme,
    injections: &[Injection],
    cfg: &SimConfig,
) -> SimResult {
    assert!(
        injections.windows(2).all(|w| w[0].0 <= w[1].0),
        "injection schedule must be sorted by round"
    );
    if let Some(&(last, _, _)) = injections.last() {
        assert!(
            last <= cfg.max_rounds,
            "injection at round {last} lies beyond the {} round cap",
            cfg.max_rounds
        );
    }
    let max_words = injections.iter().map(|(_, _, p)| p.words()).max();
    let Some(edge_words_per_round) = max_words else {
        // Nothing to inject: skip the engine entirely.
        return SimResult {
            deliveries: Vec::new(),
            dropped_capacity: Vec::new(),
            dropped_stuck: Vec::new(),
            series: Vec::new(),
            edge_load: EdgeLoadMap::new(),
            stats: RunStats::default(),
        };
    };

    let n = network.graph().num_vertices();
    let mut schedules: Vec<VecDeque<(u64, TrafficPacket)>> = vec![VecDeque::new(); n];
    for (round, src, packet) in injections {
        schedules[src.index()].push_back((*round, packet.clone()));
    }
    let protos: Vec<TrafficVertex<'_>> = network
        .graph()
        .vertices()
        .zip(schedules)
        .map(|(v, schedule)| TrafficVertex {
            table: scheme.table(v),
            table_words: scheme.table(v).words(),
            ports: vec![Port::default(); network.graph().degree(v)],
            queued_packets: 0,
            queued_words: 0,
            queue_cap: cfg.queue_cap.max(1),
            policy: cfg.policy,
            schedule,
            deliveries: Vec::new(),
            dropped_capacity: Vec::new(),
            dropped_stuck: Vec::new(),
            logs: Vec::new(),
            scratch: RoundLog::default(),
        })
        .collect();
    let engine = Engine::with_config(EngineConfig {
        edge_words_per_round,
        max_rounds: cfg.max_rounds,
        profile: cfg.profile,
        ..EngineConfig::default()
    });
    let (protos, stats) = engine.run(network, protos);

    // Merge the sparse per-vertex logs into a dense series, in vertex order.
    let mut series = vec![RoundTotals::default(); stats.rounds as usize + 1];
    for (r, t) in series.iter_mut().enumerate() {
        t.round = r as u64;
    }
    let mut deliveries = Vec::new();
    let mut dropped_capacity = Vec::new();
    let mut dropped_stuck = Vec::new();
    let mut edge_load = EdgeLoadMap::new();
    for (v, p) in network.graph().vertices().zip(protos) {
        for log in &p.logs {
            let t = &mut series[log.round as usize];
            t.injected += u64::from(log.injected);
            t.delivered += u64::from(log.delivered);
            t.dropped_capacity += u64::from(log.dropped_capacity);
            t.dropped_stuck += u64::from(log.dropped_stuck);
            t.sent += u64::from(log.sent);
            t.queued_packets += u64::from(log.queued_packets);
            t.queued_words += log.queued_words;
        }
        deliveries.extend(p.deliveries);
        dropped_capacity.extend(p.dropped_capacity);
        dropped_stuck.extend(p.dropped_stuck);
        for (arc, port) in network.ports(v).iter().zip(&p.ports) {
            if port.sent.packets > 0 {
                edge_load.add(v.0, arc.to.0, port.sent);
            }
        }
    }
    // No occupancy carry-over is needed: a vertex with a non-empty queue
    // always sends (flush pops every non-empty port), so every occupied
    // round is logged by that vertex.
    SimResult {
        deliveries,
        dropped_capacity,
        dropped_stuck,
        series,
        edge_load,
        stats,
    }
}

/// One outgoing port: its FIFO and what it has transmitted so far.
#[derive(Clone, Debug, Default)]
struct Port {
    queue: VecDeque<TrafficPacket>,
    sent: Load,
}

/// Per-vertex protocol: finite FIFO queues per port, one packet per port per
/// round, open-loop injection from a precomputed schedule.
#[derive(Clone, Debug)]
struct TrafficVertex<'s> {
    table: &'s RoutingTable,
    /// `table.words()`, counted once: the table never changes.
    table_words: usize,
    /// Indexed by port (position in the neighbor list).
    ports: Vec<Port>,
    /// Packets and words across all queues, kept in step with every push
    /// and pop so no poll has to walk them.
    queued_packets: u32,
    queued_words: usize,
    queue_cap: usize,
    policy: DropPolicy,
    /// This vertex's pending injections, sorted by round.
    schedule: VecDeque<(u64, TrafficPacket)>,
    deliveries: Vec<Delivery>,
    dropped_capacity: Vec<u32>,
    dropped_stuck: Vec<u32>,
    logs: Vec<RoundLog>,
    scratch: RoundLog,
}

impl TrafficVertex<'_> {
    /// Classify one packet: deliver here, enqueue toward its next hop
    /// (applying the drop policy at a full queue), or drop it as stuck.
    fn classify(&mut self, ctx: &Ctx<'_, TrafficPacket>, mut packet: TrafficPacket, round: u64) {
        match forward::step(
            self.table,
            ctx.me(),
            packet.tree_root,
            &packet.label,
            ctx.neighbors(),
        ) {
            Ok(Step::Deliver) => {
                self.scratch.delivered += 1;
                self.deliveries.push(Delivery {
                    id: packet.id,
                    round,
                    weight: packet.weight,
                    hops: packet.hops,
                });
            }
            Ok(Step::Forward { port, .. }) => {
                packet.weight += ctx.neighbors()[port].weight;
                packet.hops += 1;
                let q = &mut self.ports[port].queue;
                if q.len() >= self.queue_cap {
                    let dropped = match self.policy {
                        DropPolicy::TailDrop => packet.id,
                        DropPolicy::OldestDrop => {
                            let oldest = q.pop_front().expect("full queue is non-empty");
                            self.queued_words = self.queued_words + packet.words() - oldest.words();
                            q.push_back(packet);
                            oldest.id
                        }
                    };
                    self.scratch.dropped_capacity += 1;
                    self.dropped_capacity.push(dropped);
                } else {
                    self.queued_packets += 1;
                    self.queued_words += packet.words();
                    q.push_back(packet);
                }
            }
            // Any walk error — stuck rule, missing row, missing port.
            Err(_) => {
                self.scratch.dropped_stuck += 1;
                self.dropped_stuck.push(packet.id);
            }
        }
    }

    /// Inject every packet scheduled for `round`.
    fn inject(&mut self, ctx: &Ctx<'_, TrafficPacket>, round: u64) {
        while self.schedule.front().is_some_and(|(due, _)| *due == round) {
            let (_, packet) = self.schedule.pop_front().expect("front was just seen");
            self.scratch.injected += 1;
            self.classify(ctx, packet, round);
        }
    }

    /// Send the head of every non-empty queue: one packet per port per round.
    fn flush(&mut self, ctx: &mut Ctx<'_, TrafficPacket>) {
        if self.queued_packets == 0 {
            return;
        }
        for (port, arc) in self.ports.iter_mut().zip(ctx.neighbors()) {
            if let Some(p) = port.queue.pop_front() {
                let words = p.words();
                self.queued_packets -= 1;
                self.queued_words -= words;
                port.sent.packets += 1;
                port.sent.words += words as u64;
                self.scratch.sent += 1;
                ctx.send(arc.to, p);
                if self.queued_packets == 0 {
                    break;
                }
            }
        }
    }

    /// Close the round: snapshot queue occupancy and flush the scratch log
    /// if this round did anything.
    fn close_round(&mut self, round: u64) {
        self.scratch.round = round;
        self.scratch.queued_packets = self.queued_packets;
        self.scratch.queued_words = self.queued_words as u64;
        let idle = RoundLog {
            round,
            ..RoundLog::default()
        };
        if self.scratch != idle {
            self.logs.push(self.scratch);
        }
        self.scratch = RoundLog::default();
    }
}

impl VertexProtocol for TrafficVertex<'_> {
    type Msg = TrafficPacket;

    fn init(&mut self, ctx: &mut Ctx<'_, TrafficPacket>) {
        self.inject(ctx, 0);
        self.flush(ctx);
        self.close_round(0);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, TrafficPacket>, inbox: &mut Inbox<'_, TrafficPacket>) {
        let round = ctx.round();
        self.inject(ctx, round);
        for (_, p) in inbox.drain() {
            self.classify(ctx, p, round);
        }
        self.flush(ctx);
        self.close_round(round);
    }

    fn is_done(&self) -> bool {
        self.schedule.is_empty() && self.queued_packets == 0
    }

    fn wake(&self) -> Wake {
        if self.queued_packets > 0 {
            Wake::NextRound
        } else {
            // A scheduled injection must keep the clock ticking even when no
            // messages are in flight.
            self.schedule
                .front()
                .map_or(Wake::OnMessage, |&(due, _)| Wake::At(due))
        }
    }

    fn memory_words(&self) -> usize {
        self.table_words + self.queued_words
    }

    fn queued_words(&self) -> usize {
        self.queued_words
    }
}
