//! The routing phase as a *real* CONGEST protocol.
//!
//! [`crate::router`] walks the forwarding rule centrally (fast, used for
//! stretch measurement). This module runs the same rule — the same
//! [`crate::forward`] kernel — as a genuine message-passing protocol on the
//! [`congest::Engine`]: each vertex's state
//! is exactly its routing table, and the packet on the wire carries exactly
//! `Header(M) = (tree root, accumulated weight)` plus the target's tree
//! label — `O(log n)` words, checked against the engine's congestion meter.
//! Delivery takes one round per hop, by construction.
//!
//! Every simulation has a *traced* twin ([`send_traced`],
//! [`send_many_traced`]) that additionally records one
//! [`obs::flight::HopRecord`] per edge traversal — round, chosen port,
//! forwarding-decision kind (ascent toward the committed pivot vs. descent
//! in its tree), queueing delay, accumulated weight — and aggregates
//! [`obs::flight::EdgeLoadMap`]/[`obs::flight::VertexLoadMap`] heatmaps.
//! Trace state rides *out of band*: it is never counted by [`WordSized`],
//! so congestion accounting, round counts, and memory meters are identical
//! between a traced run and its untraced twin.

use std::collections::VecDeque;

use congest::engine::{Ctx, Engine, EngineConfig, Inbox, VertexProtocol};
use congest::{Network, RunStats, WordSized};
use graphs::{VertexId, Weight};
use obs::flight::{EdgeLoadMap, HopRecord, PacketTrace, VertexLoadMap};
use tree_routing::types::TreeLabel;

use crate::forward::{self, GraphRouteError, Selection, Step};
use crate::scheme::{RoutingScheme, RoutingTable};

/// The source-side routing decision for one packet, fixed at injection
/// time: the tree the source commits to and the destination's label in it.
///
/// This is the incremental injection API used by open-loop traffic
/// generators (the `traffic` crate): plan once per flow, then stamp any
/// number of packets from the plan round by round, without re-deriving the
/// send variants' private decision rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketPlan {
    /// The pivot whose tree the source commits to.
    pub tree_root: VertexId,
    /// The destination's label in that tree (what the packet carries).
    pub label: TreeLabel,
    /// The source's estimate for the committed route,
    /// `d(src, pivot) + d(pivot, dst)` as priced by table and label — an
    /// upper bound on the routed weight.
    pub est_cost: Weight,
}

impl PacketPlan {
    /// Words a packet built from this plan occupies on the wire under the
    /// batched header layout (`id`, `tree_root`, `weight` + label).
    pub fn loaded_words(&self) -> usize {
        3 + self.label.words()
    }
}

/// Plan a packet from `src` to `dst`: the source-optimal tree choice every
/// send variant makes through this function, exposed for incremental
/// per-round injection.
/// Returns `None` when no label entry of `dst` names a tree containing
/// `src` (the pair is undeliverable).
pub fn plan(scheme: &RoutingScheme, src: VertexId, dst: VertexId) -> Option<PacketPlan> {
    let header = forward::select(scheme, src, dst, Selection::SourceOptimal)?;
    Some(PacketPlan {
        tree_root: header.entry.pivot,
        label: header.entry.tree_label.clone(),
        est_cost: header.cost,
    })
}

/// An empty flight record for a packet about to be sent under `plan`.
fn new_trace(src: VertexId, dst: VertexId, plan: &PacketPlan) -> Box<PacketTrace> {
    Box::new(PacketTrace {
        src: src.0,
        dst: dst.0,
        tree_root: plan.tree_root.0,
        delivered_round: None,
        hops: Vec::new(),
    })
}

/// The packet on the wire: header + target tree label.
///
/// The optional trace is out-of-band flight-recorder state and does not
/// count toward the packet's wire size.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Header: the tree the sender committed to.
    pub tree_root: VertexId,
    /// Header: weight accumulated so far (diagnostic, one word).
    pub weight: Weight,
    /// The target's label in that tree.
    pub label: TreeLabel,
    /// Flight-recorder journey, present only in traced sends.
    trace: Option<Box<PacketTrace>>,
}

impl WordSized for Packet {
    fn words(&self) -> usize {
        2 + self.label.words()
    }
}

/// The explicit outcome of a single-packet simulation.
///
/// Previously an undeliverable packet and a zero-hop self-delivery were both
/// reported as `delivered: false/true` with `rounds: 0, weight: 0`; the enum
/// keeps the cases apart for downstream statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketOutcome {
    /// The packet arrived: delivery round (= hop count) and routed weight.
    /// A self-addressed packet legitimately reports `rounds: 0, weight: 0`.
    Delivered {
        /// Round of delivery = number of hops.
        rounds: u64,
        /// Weight the header accumulated (equals the routed path weight).
        weight: Weight,
    },
    /// The walk failed exactly as the central router's would:
    /// [`GraphRouteError::NoCommonTree`] means nothing was injected, the
    /// other errors name a construction bug, not a traffic condition.
    Failed(GraphRouteError),
}

impl PacketOutcome {
    /// Whether the packet arrived.
    pub fn is_delivered(&self) -> bool {
        matches!(self, PacketOutcome::Delivered { .. })
    }

    /// Delivery round and weight, if the packet arrived.
    pub fn delivery(&self) -> Option<(u64, Weight)> {
        match self {
            PacketOutcome::Delivered { rounds, weight } => Some((*rounds, *weight)),
            _ => None,
        }
    }
}

/// Result of a packet simulation.
#[derive(Clone, Debug)]
pub struct PacketReport {
    /// What happened to the packet.
    pub outcome: PacketOutcome,
    /// Size of the packet in words (header + label; 0 when never injected).
    pub packet_words: usize,
    /// Engine statistics (congestion, messages, memory).
    pub stats: RunStats,
}

impl PacketReport {
    /// Whether the packet arrived.
    pub fn delivered(&self) -> bool {
        self.outcome.is_delivered()
    }
}

/// A single-packet simulation plus its flight recording.
#[derive(Clone, Debug)]
pub struct PacketFlight {
    /// The simulation result, identical to the untraced [`send`]'s.
    pub report: PacketReport,
    /// The hop-by-hop journey. Present whenever the packet came to rest
    /// (delivered *or* stuck); `None` when nothing was injected or the packet
    /// was still circling at the hop cap.
    pub trace: Option<PacketTrace>,
}

/// Per-vertex protocol state: the vertex's own routing table, nothing else.
#[derive(Clone, Debug)]
struct PacketVertex<'s> {
    table: &'s RoutingTable,
    /// `table.words()`, counted once: the engine meters every vertex every
    /// round and the table never changes.
    table_words: usize,
    /// Set when this vertex delivered the packet (round number).
    delivered: Option<(u64, Weight)>,
    /// The packet to inject at init (source only).
    inject: Option<Packet>,
    failed: Option<GraphRouteError>,
    /// The journey extracted at delivery or failure (traced runs only).
    trace_out: Option<PacketTrace>,
}

impl PacketVertex<'_> {
    fn handle(&mut self, ctx: &mut Ctx<'_, Packet>, mut packet: Packet) {
        let (me, label) = (ctx.me(), &packet.label);
        match forward::step(self.table, me, packet.tree_root, label, ctx.neighbors()) {
            Ok(Step::Deliver) => {
                self.delivered = Some((ctx.round(), packet.weight));
                if let Some(mut trace) = packet.trace.take() {
                    trace.delivered_round = Some(ctx.round());
                    self.trace_out = Some(*trace);
                }
            }
            Ok(Step::Forward { port, kind }) => {
                let arc = ctx.neighbors()[port];
                let header_words = packet.words();
                packet.weight += arc.weight;
                if let Some(trace) = packet.trace.as_mut() {
                    trace.hops.push(HopRecord {
                        round: ctx.round(),
                        vertex: me.0,
                        port,
                        next: arc.to.0,
                        kind: kind.expect("the paper's rule names its branch"),
                        queue_delay: 0,
                        weight: packet.weight,
                        header_words,
                    });
                }
                ctx.send(arc.to, packet);
            }
            Err(err) => {
                self.failed = Some(err);
                self.trace_out = packet.trace.take().map(|t| *t);
            }
        }
    }
}

impl VertexProtocol for PacketVertex<'_> {
    type Msg = Packet;

    fn init(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if let Some(p) = self.inject.take() {
            self.handle(ctx, p);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Packet>, inbox: &mut Inbox<'_, Packet>) {
        // Drain moves each packet (heap label + trace included) out of the
        // engine's arena — forwarding never clones.
        for (_, p) in inbox.drain() {
            self.handle(ctx, p);
        }
    }

    fn is_done(&self) -> bool {
        true // stateless forwarding; the engine drains in-flight packets
    }

    fn memory_words(&self) -> usize {
        self.table_words
    }
}

/// Send one packet from `src` to `dst` through the engine, using the
/// source-optimal tree choice.
pub fn send(
    network: &Network,
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
) -> PacketReport {
    send_inner(network, scheme, src, dst, false).report
}

/// Like [`send`], but flight-recorded: the returned trace holds one hop
/// record per edge traversal. The report is identical to the untraced
/// [`send`]'s — tracing never perturbs rounds, words, or memory.
pub fn send_traced(
    network: &Network,
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
) -> PacketFlight {
    send_inner(network, scheme, src, dst, true)
}

fn send_inner(
    network: &Network,
    scheme: &RoutingScheme,
    src: VertexId,
    dst: VertexId,
    traced: bool,
) -> PacketFlight {
    let Some(plan) = plan(scheme, src, dst) else {
        return PacketFlight {
            report: PacketReport {
                outcome: PacketOutcome::Failed(GraphRouteError::NoCommonTree),
                packet_words: 0,
                stats: RunStats::default(),
            },
            trace: None,
        };
    };
    let packet = Packet {
        tree_root: plan.tree_root,
        weight: 0,
        trace: traced.then(|| new_trace(src, dst, &plan)),
        label: plan.label,
    };
    let packet_words = packet.words();

    let protos: Vec<PacketVertex<'_>> = network
        .graph()
        .vertices()
        .map(|v| PacketVertex {
            table: scheme.table(v),
            table_words: scheme.table(v).words(),
            delivered: None,
            inject: (v == src).then(|| packet.clone()),
            failed: None,
            trace_out: None,
        })
        .collect();
    let engine = Engine::with_config(EngineConfig {
        // The packet is the message; its size is the legal per-edge budget.
        edge_words_per_round: packet_words,
        // One packet moves one hop per round, so the hop cap is a round cap.
        max_rounds: forward::hop_cap(network.len()) as u64,
        ..EngineConfig::default()
    });
    let (mut protos, stats) = engine.run(network, protos);
    let outcome = match protos.iter().find_map(|p| p.delivered) {
        Some((rounds, weight)) => PacketOutcome::Delivered { rounds, weight },
        // Neither delivered nor failed: still circling when the cap hit.
        None => PacketOutcome::Failed(
            protos
                .iter()
                .find_map(|p| p.failed)
                .unwrap_or(GraphRouteError::Loop),
        ),
    };
    let trace = protos.iter_mut().find_map(|p| p.trace_out.take());
    PacketFlight {
        report: PacketReport {
            outcome,
            packet_words,
            stats,
        },
        trace,
    }
}

/// A packet under load, with an id so deliveries can be matched up.
///
/// The optional trace is out-of-band flight-recorder state and does not
/// count toward the packet's wire size.
#[derive(Clone, Debug)]
pub struct LoadedPacket {
    /// Index into the submitted batch.
    pub id: u32,
    /// The committed tree.
    pub tree_root: VertexId,
    /// Accumulated weight.
    pub weight: Weight,
    /// Target tree label.
    pub label: TreeLabel,
    /// Flight-recorder journey, present only in traced sends.
    trace: Option<Box<PacketTrace>>,
}

impl WordSized for LoadedPacket {
    fn words(&self) -> usize {
        3 + self.label.words()
    }
}

/// Per-vertex protocol for batched traffic: FIFO queues per outgoing edge,
/// one packet per edge per round — real store-and-forward congestion.
/// Queue entries remember their enqueue round, so a traced run prices each
/// hop's queueing delay exactly.
#[derive(Clone, Debug)]
struct LoadedVertex<'s> {
    table: &'s RoutingTable,
    /// `table.words()`, counted once (as in [`PacketVertex`]).
    table_words: usize,
    /// One FIFO of `(packet, enqueue round)` per port (position in the
    /// neighbor list), flushed in ascending port order.
    queues: Vec<VecDeque<(LoadedPacket, u64)>>,
    /// Packets and words across all queues, kept in step with every push
    /// and pop.
    queued_packets: usize,
    queued_words: usize,
    delivered: Vec<(u32, u64, Weight)>,
    inject: Vec<LoadedPacket>,
    /// Ids of packets dropped here by a stuck rule or missing entry.
    dropped: Vec<u32>,
    /// Completed journeys by packet id (delivered or dropped here; traced
    /// runs only).
    traces_out: Vec<(u32, PacketTrace)>,
}

impl LoadedVertex<'_> {
    fn drop_packet(&mut self, packet: &mut LoadedPacket) {
        self.dropped.push(packet.id);
        if let Some(trace) = packet.trace.take() {
            self.traces_out.push((packet.id, *trace));
        }
    }

    fn classify(&mut self, ctx: &Ctx<'_, LoadedPacket>, mut packet: LoadedPacket, round: u64) {
        let (me, label) = (ctx.me(), &packet.label);
        match forward::step(self.table, me, packet.tree_root, label, ctx.neighbors()) {
            Ok(Step::Deliver) => {
                self.delivered.push((packet.id, round, packet.weight));
                if let Some(mut trace) = packet.trace.take() {
                    trace.delivered_round = Some(round);
                    self.traces_out.push((packet.id, *trace));
                }
            }
            Ok(Step::Forward { port, kind }) => {
                let arc = ctx.neighbors()[port];
                let header_words = packet.words();
                packet.weight += arc.weight;
                if let Some(trace) = packet.trace.as_mut() {
                    // Round and queue delay are finalized at flush, once
                    // the send round is known.
                    trace.hops.push(HopRecord {
                        round,
                        vertex: me.0,
                        port,
                        next: arc.to.0,
                        kind: kind.expect("the paper's rule names its branch"),
                        queue_delay: 0,
                        weight: packet.weight,
                        header_words,
                    });
                }
                self.queued_packets += 1;
                self.queued_words += packet.words();
                self.queues[port].push_back((packet, round));
            }
            Err(_) => self.drop_packet(&mut packet),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, LoadedPacket>) {
        if self.queued_packets == 0 {
            return;
        }
        let now = ctx.round();
        for (q, arc) in self.queues.iter_mut().zip(ctx.neighbors()) {
            if let Some((mut p, enqueued)) = q.pop_front() {
                self.queued_packets -= 1;
                self.queued_words -= p.words();
                if let Some(trace) = p.trace.as_mut() {
                    let hop = trace.hops.last_mut().expect("hop queued with a record");
                    hop.round = now;
                    hop.queue_delay = now - enqueued;
                }
                ctx.send(arc.to, p);
            }
        }
    }
}

impl VertexProtocol for LoadedVertex<'_> {
    type Msg = LoadedPacket;

    fn init(&mut self, ctx: &mut Ctx<'_, LoadedPacket>) {
        let injected = std::mem::take(&mut self.inject);
        for p in injected {
            self.classify(ctx, p, 0);
        }
        self.flush(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, LoadedPacket>, inbox: &mut Inbox<'_, LoadedPacket>) {
        let round = ctx.round();
        // Drain moves each packet out of the engine's arena — no clones on
        // the store-and-forward hot path.
        for (_, p) in inbox.drain() {
            self.classify(ctx, p, round);
        }
        self.flush(ctx);
    }

    fn is_done(&self) -> bool {
        self.queued_packets == 0
    }

    fn memory_words(&self) -> usize {
        self.table_words + self.queued_words
    }

    fn queued_words(&self) -> usize {
        self.queued_words
    }
}

/// Per-packet outcome in a batched simulation.
///
/// Splits the old `None` delivery into its two distinct causes: a source
/// that never committed to a tree versus a packet lost mid-route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Arrived: delivery round (hops + queueing) and routed weight.
    Delivered {
        /// Round of delivery.
        round: u64,
        /// Routed path weight.
        weight: Weight,
    },
    /// The source had no common tree with the target; never injected.
    Undeliverable,
    /// Dropped mid-route by a stuck rule or missing port.
    Dropped,
}

impl DeliveryStatus {
    /// Delivery round and weight, if the packet arrived.
    pub fn delivery(&self) -> Option<(u64, Weight)> {
        match self {
            DeliveryStatus::Delivered { round, weight } => Some((*round, *weight)),
            _ => None,
        }
    }
}

/// Result of a batched simulation.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Per packet (by submission index): what happened to it.
    pub outcomes: Vec<DeliveryStatus>,
    /// Packets whose source had no common tree (never injected).
    pub undeliverable: u32,
    /// Packets dropped mid-route by a stuck rule or missing entry —
    /// distinct from `undeliverable`: these consumed network resources.
    pub dropped: u32,
    /// Engine statistics (the memory meter includes queue occupancy).
    pub stats: RunStats,
}

impl LoadReport {
    /// Delivery round and weight of packet `id`, if it arrived.
    pub fn delivery(&self, id: usize) -> Option<(u64, Weight)> {
        self.outcomes[id].delivery()
    }

    /// Deliveries in submission order (`None` for undeliverable/dropped).
    pub fn deliveries(&self) -> impl Iterator<Item = Option<(u64, Weight)>> + '_ {
        self.outcomes.iter().map(DeliveryStatus::delivery)
    }

    /// Number of packets that arrived.
    pub fn delivered_count(&self) -> usize {
        self.deliveries().flatten().count()
    }
}

/// A batched simulation plus its flight recording.
#[derive(Clone, Debug)]
pub struct LoadFlight {
    /// The simulation result, identical to the untraced [`send_many`]'s.
    pub report: LoadReport,
    /// Per packet (by submission index): its journey. `None` only for
    /// [`DeliveryStatus::Undeliverable`] packets; dropped packets keep
    /// their partial journey.
    pub traces: Vec<Option<PacketTrace>>,
    /// Words and packets per edge, aggregated over every hop of every
    /// trace. Word totals equal the engine's delivered-words total.
    pub edge_load: EdgeLoadMap,
    /// Words and packets forwarded per vertex.
    pub vertex_load: VertexLoadMap,
}

/// Inject one packet per `(src, dst)` pair simultaneously and run the
/// network until all traffic drains. Store-and-forward with one packet per
/// edge per round, so the delivery time of a packet is its hop count plus
/// the queueing delay its path suffered — the congestion behavior of
/// compact routing under load.
pub fn send_many(
    network: &Network,
    scheme: &RoutingScheme,
    pairs: &[(VertexId, VertexId)],
) -> LoadReport {
    send_many_inner(network, scheme, pairs, false, false).report
}

/// [`send_many`], with the engine profiler on: the returned report's
/// `stats.profile` carries the per-phase attribution. Outcomes and
/// simulated stats are identical to the unprofiled run.
pub fn send_many_profiled(
    network: &Network,
    scheme: &RoutingScheme,
    pairs: &[(VertexId, VertexId)],
) -> LoadReport {
    send_many_inner(network, scheme, pairs, false, true).report
}

/// Like [`send_many`], but flight-recorded: per-packet hop traces plus
/// edge/vertex load heatmaps. The report is identical to the untraced
/// [`send_many`]'s — tracing never perturbs rounds, words, or memory.
pub fn send_many_traced(
    network: &Network,
    scheme: &RoutingScheme,
    pairs: &[(VertexId, VertexId)],
) -> LoadFlight {
    send_many_inner(network, scheme, pairs, true, false)
}

fn send_many_inner(
    network: &Network,
    scheme: &RoutingScheme,
    pairs: &[(VertexId, VertexId)],
    traced: bool,
    profile: bool,
) -> LoadFlight {
    // Source decisions, as in `send`.
    let mut inject: Vec<Vec<LoadedPacket>> = vec![Vec::new(); network.len()];
    let mut outcomes = vec![DeliveryStatus::Undeliverable; pairs.len()];
    let mut max_words: Option<usize> = None;
    for (id, &(src, dst)) in pairs.iter().enumerate() {
        let Some(plan) = plan(scheme, src, dst) else {
            continue; // stays Undeliverable
        };
        // Injected packets default to Dropped until a delivery proves
        // otherwise, keeping the two loss causes apart.
        outcomes[id] = DeliveryStatus::Dropped;
        let packet = LoadedPacket {
            id: id as u32,
            tree_root: plan.tree_root,
            weight: 0,
            trace: traced.then(|| new_trace(src, dst, &plan)),
            label: plan.label,
        };
        max_words = Some(max_words.unwrap_or(0).max(packet.words()));
        inject[src.index()].push(packet);
    }
    let undeliverable = outcomes
        .iter()
        .filter(|o| **o == DeliveryStatus::Undeliverable)
        .count() as u32;

    // With nothing injected there is no traffic to simulate and no honest
    // per-edge budget to configure — skip the engine instead of inventing
    // one (the old code silently fell back to 4 words).
    let Some(edge_words_per_round) = max_words else {
        return LoadFlight {
            report: LoadReport {
                outcomes,
                undeliverable,
                dropped: 0,
                stats: RunStats {
                    completed: true,
                    memory: congest::MemoryMeter::new(network.len()),
                    ..RunStats::default()
                },
            },
            traces: vec![None; pairs.len()],
            edge_load: EdgeLoadMap::new(),
            vertex_load: VertexLoadMap::new(),
        };
    };

    let protos: Vec<LoadedVertex<'_>> = network
        .graph()
        .vertices()
        .map(|v| LoadedVertex {
            table: scheme.table(v),
            table_words: scheme.table(v).words(),
            queues: vec![VecDeque::new(); network.graph().degree(v)],
            queued_packets: 0,
            queued_words: 0,
            delivered: Vec::new(),
            inject: std::mem::take(&mut inject[v.index()]),
            dropped: Vec::new(),
            traces_out: Vec::new(),
        })
        .collect();
    let engine = Engine::with_config(EngineConfig {
        edge_words_per_round,
        profile,
        ..EngineConfig::default()
    });
    let (protos, stats) = engine.run(network, protos);

    let mut dropped = 0;
    let mut traces: Vec<Option<PacketTrace>> = vec![None; pairs.len()];
    let mut edge_load = EdgeLoadMap::new();
    let mut vertex_load = VertexLoadMap::new();
    for p in protos {
        dropped += p.dropped.len() as u32;
        for &(id, round, weight) in &p.delivered {
            outcomes[id as usize] = DeliveryStatus::Delivered { round, weight };
        }
        for (id, trace) in p.traces_out {
            edge_load.record_trace(&trace);
            vertex_load.record_trace(&trace);
            traces[id as usize] = Some(trace);
        }
    }
    LoadFlight {
        report: LoadReport {
            outcomes,
            undeliverable,
            dropped,
            stats,
        },
        traces,
        edge_load,
        vertex_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router;
    use crate::scheme::{build, BuildParams};
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, seed: u64) -> (Network, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        (Network::new(g), built.scheme)
    }

    #[test]
    fn packet_matches_central_router() {
        let (net, scheme) = setup(60, 601);
        for (s, t) in [(0u32, 59u32), (5, 30), (42, 7)] {
            let report = send(&net, &scheme, VertexId(s), VertexId(t));
            let (rounds, weight) = report.outcome.delivery().expect("delivered");
            let central = router::route(net.graph(), &scheme, VertexId(s), VertexId(t)).unwrap();
            assert_eq!(weight, central.weight);
            assert_eq!(rounds as usize, central.hops());
        }
    }

    #[test]
    fn plan_matches_the_send_commitment() {
        let (net, scheme) = setup(60, 615);
        for (s, t) in [(0u32, 59u32), (5, 30), (42, 7)] {
            let p = plan(&scheme, VertexId(s), VertexId(t)).expect("connected pair");
            let flight = send_traced(&net, &scheme, VertexId(s), VertexId(t));
            let trace = flight.trace.expect("delivered");
            // The plan commits to exactly the tree the send variants choose.
            assert_eq!(p.tree_root.0, trace.tree_root);
            let (_, weight) = flight.report.outcome.delivery().expect("delivered");
            // The estimate prices the committed route: an upper bound on the
            // routed weight.
            assert!(p.est_cost >= weight, "est {} < routed {weight}", p.est_cost);
            assert_eq!(p.loaded_words(), 3 + p.label.words());
        }
    }

    #[test]
    fn plan_is_none_for_disconnected_pairs() {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(616);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        assert!(plan(&built.scheme, VertexId(0), VertexId(3)).is_none());
    }

    #[test]
    fn packet_to_self_delivers_in_zero_rounds() {
        let (net, scheme) = setup(30, 602);
        let report = send(&net, &scheme, VertexId(3), VertexId(3));
        // A legitimate zero-hop self-delivery is Delivered{0, 0} — now
        // distinguishable from an undeliverable packet's NoCommonTree.
        assert_eq!(
            report.outcome,
            PacketOutcome::Delivered {
                rounds: 0,
                weight: 0
            }
        );
    }

    #[test]
    fn packet_size_is_logarithmic() {
        let (net, scheme) = setup(100, 603);
        let report = send(&net, &scheme, VertexId(0), VertexId(99));
        assert!(report.delivered());
        // Header (2) + label (1 + 2·light); light ≤ log2(n).
        assert!(
            report.packet_words <= 2 + 1 + 2 * 7,
            "{}",
            report.packet_words
        );
        assert_eq!(report.stats.congestion_violations, 0);
    }

    #[test]
    fn undeliverable_packet_reports_no_common_tree() {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(604);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = Network::new(g);
        let report = send(&net, &built.scheme, VertexId(0), VertexId(3));
        assert_eq!(
            report.outcome,
            PacketOutcome::Failed(GraphRouteError::NoCommonTree)
        );
        assert_eq!(report.packet_words, 0);
        let flight = send_traced(&net, &built.scheme, VertexId(0), VertexId(3));
        assert!(flight.trace.is_none(), "nothing was injected");
    }

    #[test]
    fn traced_send_matches_untraced_send() {
        let (net, scheme) = setup(60, 609);
        for (s, t) in [(0u32, 59u32), (7, 23), (14, 14)] {
            let plain = send(&net, &scheme, VertexId(s), VertexId(t));
            let flight = send_traced(&net, &scheme, VertexId(s), VertexId(t));
            assert_eq!(plain.outcome, flight.report.outcome);
            assert_eq!(plain.packet_words, flight.report.packet_words);
            assert_eq!(plain.stats.rounds, flight.report.stats.rounds);
            assert_eq!(plain.stats.messages, flight.report.stats.messages);
            assert_eq!(plain.stats.words, flight.report.stats.words);
            assert_eq!(
                plain.stats.memory.max_peak(),
                flight.report.stats.memory.max_peak()
            );
        }
    }

    #[test]
    fn trace_reconstructs_the_journey() {
        let (net, scheme) = setup(60, 610);
        let flight = send_traced(&net, &scheme, VertexId(2), VertexId(55));
        let (rounds, weight) = flight.report.outcome.delivery().expect("delivered");
        let trace = flight.trace.expect("traced");
        assert_eq!(trace.src, 2);
        assert_eq!(trace.dst, 55);
        assert_eq!(trace.hop_count() as u64, rounds);
        assert_eq!(trace.total_weight(), weight);
        assert_eq!(trace.delivered_round, Some(rounds));
        // Stateless single-packet forwarding never queues.
        assert_eq!(trace.queueing_delay(), 0);
        // The decomposition partitions the routed weight.
        let d = trace.decomposition();
        assert_eq!(d.ascent_weight + d.descent_weight, weight);
        assert_eq!(d.ascent_hops + d.descent_hops, trace.hop_count());
        // Ascent happens before descent: once a packet turns downward in
        // the committed tree it never climbs again.
        let first_descent = trace
            .hops
            .iter()
            .position(|h| !h.kind.is_ascent())
            .unwrap_or(trace.hops.len());
        assert!(
            trace.hops[first_descent..]
                .iter()
                .all(|h| !h.kind.is_ascent()),
            "ascent after descent in {:?}",
            trace.hops
        );
    }

    #[test]
    fn batch_delivers_everything_with_queueing_delay() {
        let (net, scheme) = setup(80, 606);
        let g = net.graph();
        let pairs: Vec<(VertexId, VertexId)> = (0..40u32)
            .map(|i| (VertexId(i % 80), VertexId((i * 37 + 11) % 80)))
            .filter(|(a, b)| a != b)
            .collect();
        let report = send_many(&net, &scheme, &pairs);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.undeliverable, 0);
        for (id, &(s, t)) in pairs.iter().enumerate() {
            let (round, weight) = report.delivery(id).expect("delivered");
            let central = router::route(g, &scheme, s, t).unwrap();
            // Same path weight as the uncongested router; delivery no
            // earlier than the hop count (queueing only adds delay).
            assert_eq!(weight, central.weight, "packet {id}");
            assert!(round as usize >= central.hops(), "packet {id}");
        }
        assert_eq!(report.stats.congestion_violations, 0);
    }

    #[test]
    fn traced_batch_matches_untraced_and_decomposes_delay() {
        let (net, scheme) = setup(80, 611);
        let pairs: Vec<(VertexId, VertexId)> = (0..60u32)
            .map(|i| (VertexId(i % 80), VertexId((i * 13 + 7) % 80)))
            .filter(|(a, b)| a != b)
            .collect();
        let plain = send_many(&net, &scheme, &pairs);
        let flight = send_many_traced(&net, &scheme, &pairs);
        assert_eq!(plain.outcomes, flight.report.outcomes);
        assert_eq!(plain.stats.rounds, flight.report.stats.rounds);
        assert_eq!(plain.stats.messages, flight.report.stats.messages);
        assert_eq!(plain.stats.words, flight.report.stats.words);
        assert_eq!(
            plain.stats.memory.max_peak(),
            flight.report.stats.memory.max_peak()
        );
        // Delivery time decomposes into hops + queueing, per packet.
        for (id, trace) in flight.traces.iter().enumerate() {
            let trace = trace.as_ref().expect("all injected");
            let (round, weight) = flight.report.delivery(id).expect("delivered");
            assert_eq!(
                round,
                trace.hop_count() as u64 + trace.queueing_delay(),
                "packet {id}: delivery round must be hops + queueing"
            );
            assert_eq!(trace.total_weight(), weight, "packet {id}");
        }
        // The edge heatmap's words are exactly the engine's delivered words.
        assert_eq!(flight.edge_load.total_words(), flight.report.stats.words);
        assert_eq!(flight.vertex_load.total_words(), flight.report.stats.words);
        let hops: u64 = flight
            .traces
            .iter()
            .flatten()
            .map(|t| t.hop_count() as u64)
            .sum();
        assert_eq!(flight.edge_load.total_packets(), hops);
        assert_eq!(flight.report.stats.messages, hops);
    }

    #[test]
    fn hotspot_traffic_queues_but_drains() {
        // Everyone sends to one sink: heavy congestion near the sink, yet
        // every packet arrives.
        let (net, scheme) = setup(50, 607);
        let sink = VertexId(0);
        let pairs: Vec<(VertexId, VertexId)> = (1..50u32).map(|i| (VertexId(i), sink)).collect();
        let report = send_many(&net, &scheme, &pairs);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.delivered_count(), 49);
        // The last arrival is later than the distance-only bound would be —
        // serialization at the sink's incident edges forces it.
        let last = report.deliveries().flatten().map(|(r, _)| r).max().unwrap();
        let sink_degree = net.graph().degree(sink) as u64;
        assert!(
            last >= 49 / sink_degree.max(1),
            "last arrival {last} beats the sink-capacity bound"
        );
    }

    #[test]
    fn hotspot_heatmap_concentrates_at_the_sink() {
        let (net, scheme) = setup(50, 612);
        let sink = VertexId(0);
        let pairs: Vec<(VertexId, VertexId)> = (1..50u32).map(|i| (VertexId(i), sink)).collect();
        let flight = send_many_traced(&net, &scheme, &pairs);
        // Queueing must have happened somewhere.
        let queued: u64 = flight
            .traces
            .iter()
            .flatten()
            .map(PacketTrace::queueing_delay)
            .sum();
        assert!(queued > 0, "49-to-1 traffic cannot avoid queueing");
        // The sink's incident edges carry every packet's last hop: the
        // hottest edge should touch the sink's neighborhood, and p99 ≥ p50.
        let stats = flight.edge_load.stats();
        assert!(stats.max >= stats.p99);
        assert!(stats.p99 >= stats.p50);
        assert_eq!(flight.edge_load.total_words(), flight.report.stats.words);
    }

    #[test]
    fn empty_batch_skips_the_engine() {
        let (net, scheme) = setup(20, 608);
        let report = send_many(&net, &scheme, &[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.undeliverable, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.stats.rounds, 0);
        assert_eq!(report.stats.messages, 0);
        assert!(report.stats.completed);
    }

    #[test]
    fn all_undeliverable_batch_reports_distinctly() {
        // Two components: cross-component pairs are undeliverable at the
        // source — reported as such, not as engine drops.
        let mut b = graphs::GraphBuilder::new(6);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(3), VertexId(4), 1);
        b.add_edge(VertexId(4), VertexId(5), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(613);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = Network::new(g);
        let pairs = [(VertexId(0), VertexId(4)), (VertexId(3), VertexId(2))];
        let report = send_many(&net, &built.scheme, &pairs);
        assert_eq!(report.undeliverable, 2);
        assert_eq!(report.dropped, 0);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == DeliveryStatus::Undeliverable));
        // No packets → no engine run → no invented congestion budget.
        assert_eq!(report.stats.rounds, 0);
        assert_eq!(report.stats.messages, 0);
        let flight = send_many_traced(&net, &built.scheme, &pairs);
        assert!(flight.traces.iter().all(Option::is_none));
        assert!(flight.edge_load.is_empty());
    }

    #[test]
    fn mixed_batch_keeps_undeliverable_and_delivered_apart() {
        let mut b = graphs::GraphBuilder::new(5);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(1), VertexId(2), 3);
        // Vertices 3, 4 form a separate component.
        b.add_edge(VertexId(3), VertexId(4), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(614);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = Network::new(g);
        let pairs = [
            (VertexId(0), VertexId(2)), // routable
            (VertexId(0), VertexId(4)), // cross-component
            (VertexId(2), VertexId(2)), // self: zero-hop delivery
        ];
        let report = send_many(&net, &built.scheme, &pairs);
        assert!(report.delivery(0).is_some());
        assert_eq!(report.outcomes[1], DeliveryStatus::Undeliverable);
        assert_eq!(
            report.outcomes[2],
            DeliveryStatus::Delivered {
                round: 0,
                weight: 0
            }
        );
        assert_eq!(report.undeliverable, 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn vertex_memory_equals_its_table() {
        let (net, scheme) = setup(50, 605);
        let report = send(&net, &scheme, VertexId(1), VertexId(40));
        assert_eq!(report.stats.memory.max_peak(), scheme.max_table_words());
    }
}
