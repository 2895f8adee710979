//! The routing phase as a *real* CONGEST protocol: one store-and-forward
//! protocol at three settings.
//!
//! [`crate::router`] walks the forwarding rule centrally (fast, used for
//! stretch measurement). This module runs the same rule — the same
//! [`crate::forward`] kernel — as a genuine message-passing protocol on the
//! [`congest::Engine`]: each vertex's state is its routing table plus one
//! FIFO queue per port, and the packet on the wire carries exactly
//! `Header(M) = (id, tree root, accumulated weight, hops)` plus the target's
//! tree label — `O(log n)` words, checked against the engine's congestion
//! meter. Each port sends at most one packet per round.
//!
//! The settings are what tell the planes apart:
//!
//! * a single packet is a [`send`] of one pair: it never queues, so delivery
//!   takes one round per hop;
//! * a batch is a [`send`] of many pairs: everything injected at round 0 into
//!   unbounded queues, so a delivery round is the hop count plus the
//!   queueing delay the path suffered;
//! * the steady state is a [`run`] that `traffic::sim` configures: injections
//!   on a schedule, finite queues with a [`DropPolicy`], and a round cap.
//!
//! On every setting a vertex about to forward a packet that has already
//! taken [`forward::hop_cap`] hops drops it as [`GraphRouteError::Loop`] —
//! the test [`forward::drive`] makes — so a forged forwarding cycle ends the
//! run instead of circling until the round cap.
//!
//! A traced [`send`] additionally records one [`obs::flight::HopRecord`] per
//! edge traversal — round, chosen port, forwarding-decision kind (ascent
//! toward the committed pivot vs. descent in its tree), queueing delay,
//! accumulated weight. Trace state rides *out of band*: it is never counted
//! by [`WordSized`], so congestion accounting, round counts, and memory
//! meters are identical between a traced run and its untraced twin.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use congest::engine::{Ctx, Engine, EngineConfig, Inbox, VertexProtocol, Wake};
use congest::{MemoryMeter, Network, RunStats, WordSized};
use graphs::{VertexId, Weight};
use obs::flight::{self, EdgeLoadMap, HopRecord, Load, PacketTrace, VertexLoadMap};
use tree_routing::types::TreeLabel;

use crate::forward::{self, GraphRouteError, Selection, Step};
use crate::scheme::{RoutingScheme, RoutingTable};

/// Header words every packet carries: id, tree root, weight and hops.
const HEADER_WORDS: usize = 4;

/// The source-side routing decision for one packet, fixed at injection
/// time: the tree the source commits to and the destination's label in it.
///
/// Open-loop traffic generators (the `traffic` crate) plan once per flow
/// and stamp packets from the plan with [`Packet::from_plan`].
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
    /// Words a packet built from this plan occupies on the wire.
    pub fn words(&self) -> usize {
        HEADER_WORDS + self.label.words()
    }
}

/// Plan a packet from `src` to `dst`: the source-optimal tree choice, the
/// one source decision of the packet plane.
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

/// The packet on the wire: four header words plus the target's tree label.
///
/// The optional trace is out-of-band flight-recorder state and does not
/// count toward the packet's wire size.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Index into the injection order (a [`send`]'s pair index).
    pub id: u32,
    /// The committed tree.
    pub tree_root: VertexId,
    /// Accumulated routed weight.
    pub weight: Weight,
    /// Edges traversed so far; checked against [`forward::hop_cap`].
    pub hops: u32,
    /// Target tree label.
    pub label: TreeLabel,
    /// Flight-recorder journey, present only in traced sends.
    trace: Option<Box<PacketTrace>>,
}

impl Packet {
    /// The untraced packet `id` built from `plan`.
    pub fn from_plan(id: u32, plan: PacketPlan) -> Packet {
        Packet {
            id,
            tree_root: plan.tree_root,
            weight: 0,
            hops: 0,
            label: plan.label,
            trace: None,
        }
    }
}

impl WordSized for Packet {
    fn words(&self) -> usize {
        HEADER_WORDS + self.label.words()
    }
}

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

/// One scheduled injection: engine round, source vertex, packet.
pub type Injection = (u64, VertexId, Packet);

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

/// One vertex's activity in one round, added into the run's series when the
/// round closes.
#[derive(Clone, Copy, Debug, Default)]
struct RoundLog {
    injected: u32,
    delivered: u32,
    dropped_capacity: u32,
    dropped_stuck: u32,
    sent: u32,
}

/// Network-wide totals for one round, summed over the vertices that closed it.
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
    /// Packets dropped by the rule (stuck, bad port, hop cap) this round.
    pub dropped_stuck: u64,
    /// Packets put on the wire this round (arrive next round).
    pub sent: u64,
    /// Packets queued network-wide at the end of this round.
    pub queued_packets: u64,
    /// Words those queued packets occupy.
    pub queued_words: u64,
}

/// The protocol's settings: all that tells a batch from the steady state.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Per-port queue capacity in packets.
    pub queue_cap: usize,
    /// What to do with arrivals at a full queue.
    pub policy: DropPolicy,
    /// Engine round cap (must be at least the last injection round).
    pub max_rounds: u64,
    /// Profile the engine round loop; the phase attribution comes back in
    /// the result's `stats.profile`. Never changes simulated results.
    pub profile: bool,
}

/// Everything one engine run produced.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Delivered packets, ordered by destination vertex then arrival.
    pub deliveries: Vec<Delivery>,
    /// Ids of packets dropped by a full queue.
    pub dropped_capacity: Vec<u32>,
    /// Ids of packets dropped by the rule: stuck, bad port or hop cap.
    pub dropped_stuck: Vec<u32>,
    /// Why each packet of `dropped_stuck` was dropped, in the same order.
    pub stuck_errors: Vec<GraphRouteError>,
    /// Dense per-round totals (index = round).
    pub series: Vec<RoundTotals>,
    /// `(vertex, neighbor, load)` of every arc that transmitted: what
    /// [`SimResult::edge_load`] folds when asked.
    busy_arcs: Vec<BusyArc>,
    /// Journeys of the traced packets that were delivered or dropped by the
    /// rule, with their ids.
    pub traces: Vec<(u32, PacketTrace)>,
    /// Engine statistics (the memory meter includes queue occupancy).
    pub stats: RunStats,
}

impl SimResult {
    /// Words actually transmitted per edge (capacity drops never
    /// transmit), built from the run's per-arc counters on each call.
    pub fn edge_load(&self) -> EdgeLoadMap {
        edge_load(&self.busy_arcs)
    }

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

/// `(vertex, neighbor, load)` of one arc that transmitted in a run.
type BusyArc = (u32, u32, Load);

/// The link-load heatmap of a run's busy arcs.
fn edge_load(busy_arcs: &[BusyArc]) -> EdgeLoadMap {
    let cell = |&(v, to, load): &BusyArc| (flight::edge(v, to), load);
    busy_arcs.iter().map(cell).collect()
}

/// Run the protocol: inject `injections` (sorted by round) into per-port
/// queues and forward by the Thorup–Zwick rule until the network drains or
/// `settings.max_rounds` cuts the run off.
///
/// # Panics
///
/// Panics if `injections` is not sorted by round, if a scheduled round
/// exceeds `settings.max_rounds` (the packet could never inject, which would
/// silently break conservation), or if there are more than `u32::MAX`
/// injections (packet ids are `u32`).
pub fn run(
    network: &Network,
    scheme: &RoutingScheme,
    injections: impl IntoIterator<Item = Injection>,
    settings: &Settings,
) -> SimResult {
    let n = network.len();
    // `starts[v]..starts[v + 1]` will be v's stretch of the schedule.
    let mut starts = vec![0u32; n + 1];
    let mut packets = Vec::new();
    let mut sources = Vec::new();
    let (mut last, mut max_words) = (0, None);
    for (round, src, packet) in injections {
        assert!(round >= last, "injection schedule must be sorted by round");
        assert!(
            round <= settings.max_rounds,
            "injection at round {round} lies beyond the {} round cap",
            settings.max_rounds
        );
        last = round;
        max_words = max_words.max(Some(packet.words()));
        starts[src.index() + 1] += 1;
        sources.push((round, src));
        packets.push(Cell::new(Some(packet)));
    }
    assert!(
        u32::try_from(packets.len()).is_ok(),
        "packet ids are u32: a run injects at most u32::MAX packets"
    );
    let mut result = SimResult {
        deliveries: Vec::new(),
        dropped_capacity: Vec::new(),
        dropped_stuck: Vec::new(),
        stuck_errors: Vec::new(),
        series: Vec::new(),
        busy_arcs: Vec::new(),
        traces: Vec::new(),
        stats: RunStats {
            completed: true,
            memory: MemoryMeter::new(n),
            ..RunStats::default()
        },
    };
    // With nothing injected there is no traffic to simulate and no honest
    // per-edge budget to configure: skip the engine.
    let Some(edge_words_per_round) = max_words else {
        return result;
    };

    // Bucket the schedule by source, stably: each source's injections stay
    // in round order.
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut schedule = vec![(0, 0); sources.len()];
    let mut fill = starts.clone();
    for (id, (round, src)) in (0..).zip(sources) {
        let slot = &mut fill[src.index()];
        schedule[*slot as usize] = (round, id);
        *slot += 1;
    }
    let g = network.graph();
    let plane = Plane {
        queue_cap: settings.queue_cap,
        policy: settings.policy,
        hop_cap: forward::hop_cap(n) as u32,
        packets,
        schedule,
        queues: RefCell::default(),
        ledger: RefCell::default(),
        loads: vec![Cell::default(); 2 * g.num_edges()],
    };
    let mut first_arc = 0;
    let protos: Vec<Vertex<'_>> = g
        .vertices()
        .map(|v| {
            let vertex = Vertex {
                table: scheme.table(v),
                table_words: scheme.table(v).words(),
                busy: NIL,
                first_arc,
                queued_packets: 0,
                queued_words: 0,
                next: starts[v.index()],
                end: starts[v.index() + 1],
                log: RoundLog::default(),
                plane: &plane,
            };
            first_arc += g.degree(v) as u32;
            vertex
        })
        .collect();
    let engine = Engine::with_config(EngineConfig {
        edge_words_per_round,
        max_rounds: settings.max_rounds,
        profile: settings.profile,
    });
    let (_, stats) = engine.run(network, protos);

    let mut ledger = plane.ledger.take();
    let load = |&(v, to, arc): &(u32, u32, u32)| (v, to, plane.loads[arc as usize].get());
    result.busy_arcs = ledger.busy_arcs.iter().map(load).collect();
    // No occupancy carry-over is needed: a vertex that ends a round with a
    // packet queued wakes the next round, so it closes (and adds its
    // occupancy to) every round it holds packets in. Rounds no vertex closed
    // stay zero.
    debug_assert!(ledger.series.len() as u64 <= stats.rounds + 1);
    ledger
        .series
        .resize(stats.rounds as usize + 1, RoundTotals::default());
    for (round, t) in (0..).zip(&mut ledger.series) {
        t.round = round;
    }
    result.series = ledger.series;
    result.deliveries = by_vertex(ledger.deliveries).collect();
    result.dropped_capacity = by_vertex(ledger.dropped_capacity).collect();
    (result.dropped_stuck, result.stuck_errors) = by_vertex(ledger.dropped_stuck).unzip();
    result.traces = by_vertex(ledger.traces).collect();
    result.stats = stats;
    result
}

/// The ledger's `entries` in the order the result promises — by the vertex
/// that recorded them, then as recorded (the sort is stable) — without the
/// vertex.
fn by_vertex<T>(mut entries: Vec<(u32, T)>) -> impl Iterator<Item = T> {
    entries.sort_by_key(|&(v, _)| v);
    entries.into_iter().map(|(_, entry)| entry)
}

/// What every vertex of one run shares: the settings it forwards by, the
/// injections, the pool its busy queues live in, and the run's outputs —
/// the ledger and the per-arc loads.
struct Plane {
    queue_cap: usize,
    policy: DropPolicy,
    hop_cap: u32,
    /// Every injected packet, in the order given; each is taken once, by
    /// its source.
    packets: Vec<Cell<Option<Packet>>>,
    /// `(round, index into packets)` of every injection, bucketed by source
    /// and in round order within a source.
    schedule: Vec<(u64, u32)>,
    queues: RefCell<Queues>,
    ledger: RefCell<Ledger>,
    /// What each arc transmitted, indexed by its CSR position (the sending
    /// vertex's first arc plus the port). Output like the ledger: a counter
    /// is read only to add to it, never to decide how to forward.
    loads: Vec<Cell<Load>>,
}

/// The run's output, appended to by whichever vertex acts: per-round totals,
/// and every delivery, drop and finished journey tagged with the vertex that
/// recorded it. No vertex reads it back during the run, so like a packet's
/// trace it is output, not protocol state; the engine runs one vertex at a
/// time, so one `RefCell` serves them all.
#[derive(Debug, Default)]
struct Ledger {
    /// Totals per round, grown as rounds close.
    series: Vec<RoundTotals>,
    /// Each entry behind the id of the vertex that recorded it.
    deliveries: Vec<(u32, Delivery)>,
    dropped_capacity: Vec<(u32, u32)>,
    dropped_stuck: Vec<(u32, (u32, GraphRouteError))>,
    traces: Vec<(u32, (u32, PacketTrace))>,
    /// `(vertex, neighbor, arc)` of every arc that has transmitted, in the
    /// order each first did: the counters the result reads.
    busy_arcs: Vec<(u32, u32, u32)>,
}

impl Ledger {
    /// Add one vertex's round to `series[round]`: its activity and the
    /// packets and words it still holds.
    fn close_round(&mut self, round: u64, log: RoundLog, queued_packets: u32, queued_words: usize) {
        let round = round as usize;
        if self.series.len() <= round {
            self.series.resize(round + 1, RoundTotals::default());
        }
        let t = &mut self.series[round];
        t.injected += u64::from(log.injected);
        t.delivered += u64::from(log.delivered);
        t.dropped_capacity += u64::from(log.dropped_capacity);
        t.dropped_stuck += u64::from(log.dropped_stuck);
        t.sent += u64::from(log.sent);
        t.queued_packets += u64::from(queued_packets);
        t.queued_words += queued_words as u64;
    }
}

/// One port's FIFO. The oldest packet sits inline in `head`, so a packet
/// that reaches an idle port and leaves in the same round's flush moves in
/// and out of one slot and never through the backlog.
#[derive(Default)]
struct Port {
    /// The oldest queued packet; `None` only when the queue is empty.
    head: Option<Packet>,
    /// The packets behind `head`, oldest first.
    backlog: VecDeque<Packet>,
}

impl Port {
    /// Packets queued.
    fn len(&self) -> usize {
        self.backlog.len() + usize::from(self.head.is_some())
    }

    fn push(&mut self, packet: Packet) {
        if self.head.is_none() {
            self.head = Some(packet);
        } else {
            self.backlog.push_back(packet);
        }
    }

    /// Take the oldest packet.
    fn pop(&mut self) -> Option<Packet> {
        let oldest = self.head.take()?;
        self.head = self.backlog.pop_front();
        Some(oldest)
    }
}

/// The end of a list in [`Queues`].
const NIL: u32 = u32::MAX;

/// A busy port's queue in the pool, linked to its vertex's next busy port.
struct Slot {
    port: u32,
    next: u32,
    queue: Port,
}

/// Every busy port's queue, pooled for the run. A vertex's busy ports form
/// one list through `next`, ascending by port; a port that empties hands
/// its slot, backlog buffer included, back to `free`. So an idle port costs
/// nothing, and the pool holds no more queues than were ever busy at once.
#[derive(Default)]
struct Queues {
    slots: Vec<Slot>,
    /// Slots no list holds.
    free: Vec<u32>,
}

impl Queues {
    /// The slot of `port` in the list at `head`, linked in at its place
    /// (empty) if the port was idle.
    fn slot(&mut self, head: &mut u32, port: u32) -> usize {
        let (mut prev, mut at) = (NIL, *head);
        while at != NIL && self.slots[at as usize].port < port {
            (prev, at) = (at, self.slots[at as usize].next);
        }
        if at != NIL && self.slots[at as usize].port == port {
            return at as usize;
        }
        let new = match self.free.pop() {
            Some(new) => {
                let slot = &mut self.slots[new as usize];
                (slot.port, slot.next) = (port, at);
                new
            }
            None => {
                self.slots.push(Slot {
                    port,
                    next: at,
                    queue: Port::default(),
                });
                self.slots.len() as u32 - 1
            }
        };
        match prev {
            NIL => *head = new,
            prev => self.slots[prev as usize].next = new,
        }
        new as usize
    }
}

/// Per-vertex protocol: what the vertex forwards with — its routing table,
/// a FIFO queue for each port that holds packets, flushed one packet per
/// port per round, its queue counters and its cursor into the schedule.
struct Vertex<'r> {
    table: &'r RoutingTable,
    /// `table.words()`, counted once: the table never changes.
    table_words: usize,
    /// First slot of this vertex's busy-port list in `plane.queues`.
    busy: u32,
    /// CSR position of this vertex's port 0 in `plane.loads`.
    first_arc: u32,
    /// Packets and words across all queues, kept in step with every push
    /// and pop so no poll has to walk them.
    queued_packets: u32,
    queued_words: usize,
    /// This vertex's pending injections: `plane.schedule[next..end]`.
    next: u32,
    end: u32,
    /// This round's activity so far.
    log: RoundLog,
    plane: &'r Plane,
}

impl Vertex<'_> {
    /// Classify one packet: deliver here, enqueue toward its next hop
    /// (applying the drop policy at a full queue), or drop it as stuck.
    fn classify(&mut self, ctx: &Ctx<'_, Packet>, mut packet: Packet, round: u64) {
        let me = ctx.me();
        match forward::step(
            self.table,
            me,
            packet.tree_root,
            &packet.label,
            ctx.neighbors(),
        ) {
            Ok(Step::Deliver) => {
                self.log.delivered += 1;
                let mut ledger = self.plane.ledger.borrow_mut();
                ledger.deliveries.push((
                    me.0,
                    Delivery {
                        id: packet.id,
                        round,
                        weight: packet.weight,
                        hops: packet.hops,
                    },
                ));
                if let Some(mut trace) = packet.trace.take() {
                    trace.delivered_round = Some(round);
                    ledger.traces.push((me.0, (packet.id, *trace)));
                }
            }
            Ok(Step::Forward { .. }) if packet.hops == self.plane.hop_cap => {
                self.drop_stuck(me, packet, GraphRouteError::Loop);
            }
            Ok(Step::Forward { port, kind }) => {
                let arc = ctx.neighbors()[port];
                let words = packet.words();
                packet.weight += arc.weight;
                packet.hops += 1;
                if let Some(trace) = packet.trace.as_mut() {
                    // `round` holds the enqueue round until flush prices
                    // the wait.
                    trace.hops.push(HopRecord {
                        round,
                        vertex: me.0,
                        port,
                        next: arc.to.0,
                        kind: kind.expect("the paper's rule names its branch"),
                        queue_delay: 0,
                        weight: packet.weight,
                        header_words: words,
                    });
                }
                let mut queues = self.plane.queues.borrow_mut();
                let at = queues.slot(&mut self.busy, port as u32);
                let q = &mut queues.slots[at].queue;
                if q.len() >= self.plane.queue_cap {
                    let dropped = match self.plane.policy {
                        DropPolicy::TailDrop => packet.id,
                        DropPolicy::OldestDrop => {
                            let oldest = q.pop().expect("full queue is non-empty");
                            self.queued_words = self.queued_words + words - oldest.words();
                            q.push(packet);
                            oldest.id
                        }
                    };
                    self.log.dropped_capacity += 1;
                    let mut ledger = self.plane.ledger.borrow_mut();
                    ledger.dropped_capacity.push((me.0, dropped));
                } else {
                    self.queued_packets += 1;
                    self.queued_words += words;
                    q.push(packet);
                }
            }
            // Any walk error — stuck rule, missing row, missing port.
            Err(err) => self.drop_stuck(me, packet, err),
        }
    }

    fn drop_stuck(&mut self, me: VertexId, mut packet: Packet, err: GraphRouteError) {
        self.log.dropped_stuck += 1;
        let mut ledger = self.plane.ledger.borrow_mut();
        ledger.dropped_stuck.push((me.0, (packet.id, err)));
        if let Some(trace) = packet.trace.take() {
            ledger.traces.push((me.0, (packet.id, *trace)));
        }
    }

    /// The next pending injection: its round and its packet's index.
    fn next_injection(&self) -> Option<(u64, u32)> {
        (self.next < self.end).then(|| self.plane.schedule[self.next as usize])
    }

    /// Inject every packet scheduled for `round`.
    fn inject(&mut self, ctx: &Ctx<'_, Packet>, round: u64) {
        while let Some((due, id)) = self.next_injection() {
            if due != round {
                break;
            }
            self.next += 1;
            self.log.injected += 1;
            let packet = self.plane.packets[id as usize].take();
            self.classify(ctx, packet.expect("each injection is taken once"), round);
        }
    }

    /// Send the head of every busy queue, in port order: one packet per port
    /// per round. A queue that empties leaves the list.
    fn flush(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if self.queued_packets == 0 {
            return;
        }
        let (me, now) = (ctx.me(), ctx.round());
        let neighbors = ctx.neighbors();
        let plane = self.plane;
        let mut queues = plane.queues.borrow_mut();
        let (mut prev, mut at) = (NIL, self.busy);
        let mut last = None;
        while at != NIL {
            let slot = &mut queues.slots[at as usize];
            let (port, next) = (slot.port, slot.next);
            debug_assert!(last < Some(port), "busy ports out of port order");
            last = Some(port);
            let head = slot.queue.pop();
            if slot.queue.head.is_some() {
                prev = at;
            } else {
                match prev {
                    NIL => self.busy = next,
                    prev => queues.slots[prev as usize].next = next,
                }
                queues.free.push(at);
            }
            at = next;
            let Some(mut p) = head else {
                continue;
            };
            let words = p.words();
            self.queued_packets -= 1;
            self.queued_words -= words;
            self.log.sent += 1;
            let arc = self.first_arc + port;
            let to = neighbors[port as usize].to;
            let counter = &plane.loads[arc as usize];
            let mut load = counter.get();
            if load.packets == 0 {
                plane.ledger.borrow_mut().busy_arcs.push((me.0, to.0, arc));
            }
            load.packets += 1;
            load.words += words as u64;
            counter.set(load);
            if let Some(trace) = p.trace.as_mut() {
                let hop = trace.hops.last_mut().expect("hop queued with a record");
                hop.queue_delay = now - hop.round;
                hop.round = now;
            }
            ctx.send(to, p);
        }
    }

    /// Close the round: add this round's activity and the queue occupancy
    /// left at its end to the ledger's series.
    fn close_round(&mut self, round: u64) {
        let log = std::mem::take(&mut self.log);
        self.plane.ledger.borrow_mut().close_round(
            round,
            log,
            self.queued_packets,
            self.queued_words,
        );
    }
}

impl VertexProtocol for Vertex<'_> {
    type Msg = Packet;

    fn init(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.inject(ctx, 0);
        self.flush(ctx);
        self.close_round(0);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Packet>, inbox: &mut Inbox<'_, Packet>) {
        let round = ctx.round();
        self.inject(ctx, round);
        // Drain moves each packet (heap label + trace included) out of the
        // engine's arena — forwarding never clones.
        for (_, p) in inbox.drain() {
            self.classify(ctx, p, round);
        }
        self.flush(ctx);
        self.close_round(round);
    }

    fn is_done(&self) -> bool {
        self.next == self.end && self.queued_packets == 0
    }

    fn wake(&self) -> Wake {
        if self.queued_packets > 0 {
            Wake::NextRound
        } else {
            // A scheduled injection must keep the clock ticking even when no
            // messages are in flight.
            self.next_injection()
                .map_or(Wake::OnMessage, |(due, _)| Wake::At(due))
        }
    }

    fn memory_words(&self) -> usize {
        self.table_words + self.queued_words
    }
}

/// What happened to one packet of a [`send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Arrived: delivery round (hops plus queueing delay) and routed weight.
    /// A self-addressed packet legitimately reports round 0, weight 0.
    Delivered {
        /// Round of delivery.
        round: u64,
        /// Weight the header accumulated (equals the routed path weight).
        weight: Weight,
    },
    /// The walk failed exactly as the central router's would:
    /// [`GraphRouteError::NoCommonTree`] means the pair is undeliverable
    /// and nothing was injected; the other errors name a construction bug,
    /// not a traffic condition.
    Failed(GraphRouteError),
}

impl PacketOutcome {
    /// Delivery round and weight, if the packet arrived.
    pub fn delivery(&self) -> Option<(u64, Weight)> {
        match self {
            PacketOutcome::Delivered { round, weight } => Some((*round, *weight)),
            PacketOutcome::Failed(_) => None,
        }
    }
}

/// How to run a [`send`]. Neither option changes a simulated result.
#[derive(Clone, Copy, Debug, Default)]
pub struct SendOptions {
    /// Flight-record every packet ([`Sent::traces`]).
    pub trace: bool,
    /// Profile the engine round loop (`stats.profile`).
    pub profile: bool,
}

/// The result of a [`send`].
#[derive(Clone, Debug)]
pub struct Sent {
    /// Per pair (by submission index): what happened to its packet.
    pub outcomes: Vec<PacketOutcome>,
    /// Per pair: its journey in a traced send. `None` for undeliverable
    /// pairs and throughout an untraced send; a packet the rule dropped
    /// keeps its partial journey.
    pub traces: Vec<Option<PacketTrace>>,
    /// `(vertex, neighbor, load)` of every arc that transmitted: what
    /// [`Sent::edge_load`] folds when asked.
    busy_arcs: Vec<BusyArc>,
    /// Engine statistics (the memory meter includes queue occupancy).
    pub stats: RunStats,
}

impl Sent {
    /// Delivery round and weight of packet `id`, if it arrived.
    pub fn delivery(&self, id: usize) -> Option<(u64, Weight)> {
        self.outcomes[id].delivery()
    }

    /// Deliveries in submission order (`None` for packets that failed).
    pub fn deliveries(&self) -> impl Iterator<Item = Option<(u64, Weight)>> + '_ {
        self.outcomes.iter().map(PacketOutcome::delivery)
    }

    /// Number of packets that arrived.
    pub fn delivered_count(&self) -> usize {
        self.deliveries().flatten().count()
    }

    /// Pairs that share no tree: never injected.
    pub fn undeliverable(&self) -> usize {
        let never_injected = PacketOutcome::Failed(GraphRouteError::NoCommonTree);
        self.outcomes
            .iter()
            .filter(|&&o| o == never_injected)
            .count()
    }

    /// Injected packets the rule dropped mid-route — distinct from
    /// [`Sent::undeliverable`]: these consumed network resources.
    pub fn dropped(&self) -> usize {
        self.outcomes.len() - self.delivered_count() - self.undeliverable()
    }

    /// Words and packets per edge, built from the run's per-arc counters on
    /// each call; the words total equals the engine's.
    pub fn edge_load(&self) -> EdgeLoadMap {
        edge_load(&self.busy_arcs)
    }

    /// Words and packets forwarded per vertex, folded from the traces
    /// (empty for an untraced send).
    pub fn vertex_load(&self) -> VertexLoadMap {
        let hops = self.traces.iter().flatten().flat_map(|t| &t.hops);
        let cell = |h: &HopRecord| (h.vertex, Load::packet(h.header_words as u64));
        hops.map(cell).collect()
    }
}

/// Send one packet per `(src, dst)` pair: plan each at its source, inject
/// them all at round 0 into unbounded queues and run the protocol until the
/// network drains. A single packet is a batch of one.
pub fn send(
    network: &Network,
    scheme: &RoutingScheme,
    pairs: &[(VertexId, VertexId)],
    opts: SendOptions,
) -> Sent {
    let mut outcomes = vec![PacketOutcome::Failed(GraphRouteError::NoCommonTree); pairs.len()];
    let mut injections = Vec::new();
    for (id, &(src, dst)) in pairs.iter().enumerate() {
        let Some(plan) = plan(scheme, src, dst) else {
            continue;
        };
        // Until the run says otherwise: only a packet still moving at the
        // engine's round cap keeps this.
        outcomes[id] = PacketOutcome::Failed(GraphRouteError::Loop);
        let mut packet = Packet::from_plan(id as u32, plan);
        if opts.trace {
            packet.trace = Some(Box::new(PacketTrace {
                src: src.0,
                dst: dst.0,
                tree_root: packet.tree_root.0,
                delivered_round: None,
                hops: Vec::new(),
            }));
        }
        injections.push((0, src, packet));
    }
    let sim = run(
        network,
        scheme,
        injections,
        &Settings {
            queue_cap: usize::MAX,
            policy: DropPolicy::TailDrop,
            max_rounds: EngineConfig::default().max_rounds,
            profile: opts.profile,
        },
    );
    for d in &sim.deliveries {
        outcomes[d.id as usize] = PacketOutcome::Delivered {
            round: d.round,
            weight: d.weight,
        };
    }
    for (&id, &err) in sim.dropped_stuck.iter().zip(&sim.stuck_errors) {
        outcomes[id as usize] = PacketOutcome::Failed(err);
    }
    let mut traces = vec![None; pairs.len()];
    for (id, trace) in sim.traces {
        traces[id as usize] = Some(trace);
    }
    Sent {
        outcomes,
        traces,
        busy_arcs: sim.busy_arcs,
        stats: sim.stats,
    }
}

/// The protocol as it stood before the run ledger, the per-port head slot,
/// the pooled busy queues and the flat schedule, kept verbatim for the
/// differential proptest in `tests`: every vertex holds a queue for each of
/// its ports and a schedule of its own, logs its rounds and its outcomes in
/// its own vectors, and `run` merges them after the engine stops; every
/// packet passes through its port's `VecDeque`.
#[cfg(test)]
mod reference {
    use super::*;

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

    /// Run the protocol: inject `injections` (sorted by round) into per-port
    /// queues and forward by the Thorup–Zwick rule until the network drains or
    /// `settings.max_rounds` cuts the run off.
    ///
    /// # Panics
    ///
    /// Panics if `injections` is not sorted by round, or if a scheduled round
    /// exceeds `settings.max_rounds` (the packet could never inject, which would
    /// silently break conservation).
    pub fn run(
        network: &Network,
        scheme: &RoutingScheme,
        injections: impl IntoIterator<Item = Injection>,
        settings: &Settings,
    ) -> SimResult {
        let n = network.len();
        let mut schedules: Vec<VecDeque<(u64, Packet)>> = vec![VecDeque::new(); n];
        let (mut last, mut max_words) = (0, None);
        for (round, src, packet) in injections {
            assert!(round >= last, "injection schedule must be sorted by round");
            assert!(
                round <= settings.max_rounds,
                "injection at round {round} lies beyond the {} round cap",
                settings.max_rounds
            );
            last = round;
            max_words = max_words.max(Some(packet.words()));
            schedules[src.index()].push_back((round, packet));
        }
        let mut result = SimResult {
            deliveries: Vec::new(),
            dropped_capacity: Vec::new(),
            dropped_stuck: Vec::new(),
            stuck_errors: Vec::new(),
            series: Vec::new(),
            busy_arcs: Vec::new(),
            traces: Vec::new(),
            stats: RunStats {
                completed: true,
                memory: MemoryMeter::new(n),
                ..RunStats::default()
            },
        };
        // With nothing injected there is no traffic to simulate and no honest
        // per-edge budget to configure: skip the engine.
        let Some(edge_words_per_round) = max_words else {
            return result;
        };

        let hop_cap = forward::hop_cap(n) as u32;
        let protos: Vec<Vertex<'_>> = network
            .graph()
            .vertices()
            .zip(schedules)
            .map(|(v, schedule)| Vertex {
                table: scheme.table(v),
                table_words: scheme.table(v).words(),
                ports: vec![Port::default(); network.graph().degree(v)],
                queued_packets: 0,
                queued_words: 0,
                queue_cap: settings.queue_cap,
                policy: settings.policy,
                hop_cap,
                schedule,
                deliveries: Vec::new(),
                dropped_capacity: Vec::new(),
                dropped_stuck: Vec::new(),
                traces: Vec::new(),
                logs: Vec::new(),
                scratch: RoundLog::default(),
            })
            .collect();
        let engine = Engine::with_config(EngineConfig {
            edge_words_per_round,
            max_rounds: settings.max_rounds,
            profile: settings.profile,
        });
        let (protos, stats) = engine.run(network, protos);

        // Merge the sparse per-vertex logs into a dense series, in vertex order.
        result.series = (0..=stats.rounds)
            .map(|round| RoundTotals {
                round,
                ..RoundTotals::default()
            })
            .collect();
        for (v, p) in network.graph().vertices().zip(protos) {
            for log in &p.logs {
                let t = &mut result.series[log.round as usize];
                t.injected += u64::from(log.injected);
                t.delivered += u64::from(log.delivered);
                t.dropped_capacity += u64::from(log.dropped_capacity);
                t.dropped_stuck += u64::from(log.dropped_stuck);
                t.sent += u64::from(log.sent);
                t.queued_packets += u64::from(log.queued_packets);
                t.queued_words += log.queued_words;
            }
            result.deliveries.extend(p.deliveries);
            result.dropped_capacity.extend(p.dropped_capacity);
            for (id, err) in p.dropped_stuck {
                result.dropped_stuck.push(id);
                result.stuck_errors.push(err);
            }
            result.traces.extend(p.traces);
            for (arc, port) in network.ports(v).iter().zip(&p.ports) {
                if port.sent.packets > 0 {
                    result.busy_arcs.push((v.0, arc.to.0, port.sent));
                }
            }
        }
        // No occupancy carry-over is needed: a vertex with a non-empty queue
        // always sends (flush pops every non-empty port), so every occupied
        // round is logged by that vertex.
        result.stats = stats;
        result
    }

    /// One outgoing port: its FIFO and what it has transmitted so far.
    #[derive(Clone, Debug, Default)]
    struct Port {
        queue: VecDeque<Packet>,
        sent: Load,
    }

    /// Per-vertex protocol: the vertex's routing table, one FIFO queue per
    /// port flushed one packet per port per round, and its pending injections.
    #[derive(Clone, Debug)]
    struct Vertex<'s> {
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
        hop_cap: u32,
        /// This vertex's pending injections, sorted by round.
        schedule: VecDeque<(u64, Packet)>,
        deliveries: Vec<Delivery>,
        dropped_capacity: Vec<u32>,
        dropped_stuck: Vec<(u32, GraphRouteError)>,
        /// Journeys of traced packets that came to rest here.
        traces: Vec<(u32, PacketTrace)>,
        logs: Vec<RoundLog>,
        scratch: RoundLog,
    }

    impl Vertex<'_> {
        /// Classify one packet: deliver here, enqueue toward its next hop
        /// (applying the drop policy at a full queue), or drop it as stuck.
        fn classify(&mut self, ctx: &Ctx<'_, Packet>, mut packet: Packet, round: u64) {
            let me = ctx.me();
            match forward::step(
                self.table,
                me,
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
                    if let Some(mut trace) = packet.trace.take() {
                        trace.delivered_round = Some(round);
                        self.traces.push((packet.id, *trace));
                    }
                }
                Ok(Step::Forward { .. }) if packet.hops == self.hop_cap => {
                    self.drop_stuck(packet, GraphRouteError::Loop);
                }
                Ok(Step::Forward { port, kind }) => {
                    let arc = ctx.neighbors()[port];
                    let words = packet.words();
                    packet.weight += arc.weight;
                    packet.hops += 1;
                    if let Some(trace) = packet.trace.as_mut() {
                        // `round` holds the enqueue round until flush prices
                        // the wait.
                        trace.hops.push(HopRecord {
                            round,
                            vertex: me.0,
                            port,
                            next: arc.to.0,
                            kind: kind.expect("the paper's rule names its branch"),
                            queue_delay: 0,
                            weight: packet.weight,
                            header_words: words,
                        });
                    }
                    let q = &mut self.ports[port].queue;
                    if q.len() >= self.queue_cap {
                        let dropped = match self.policy {
                            DropPolicy::TailDrop => packet.id,
                            DropPolicy::OldestDrop => {
                                let oldest = q.pop_front().expect("full queue is non-empty");
                                self.queued_words = self.queued_words + words - oldest.words();
                                q.push_back(packet);
                                oldest.id
                            }
                        };
                        self.scratch.dropped_capacity += 1;
                        self.dropped_capacity.push(dropped);
                    } else {
                        self.queued_packets += 1;
                        self.queued_words += words;
                        q.push_back(packet);
                    }
                }
                // Any walk error — stuck rule, missing row, missing port.
                Err(err) => self.drop_stuck(packet, err),
            }
        }

        fn drop_stuck(&mut self, mut packet: Packet, err: GraphRouteError) {
            self.scratch.dropped_stuck += 1;
            self.dropped_stuck.push((packet.id, err));
            if let Some(trace) = packet.trace.take() {
                self.traces.push((packet.id, *trace));
            }
        }

        /// Inject every packet scheduled for `round`.
        fn inject(&mut self, ctx: &Ctx<'_, Packet>, round: u64) {
            while self.schedule.front().is_some_and(|(due, _)| *due == round) {
                let (_, packet) = self.schedule.pop_front().expect("front was just seen");
                self.scratch.injected += 1;
                self.classify(ctx, packet, round);
            }
        }

        /// Send the head of every non-empty queue: one packet per port per round.
        fn flush(&mut self, ctx: &mut Ctx<'_, Packet>) {
            if self.queued_packets == 0 {
                return;
            }
            let now = ctx.round();
            for (port, arc) in self.ports.iter_mut().zip(ctx.neighbors()) {
                if let Some(mut p) = port.queue.pop_front() {
                    let words = p.words();
                    self.queued_packets -= 1;
                    self.queued_words -= words;
                    port.sent.packets += 1;
                    port.sent.words += words as u64;
                    self.scratch.sent += 1;
                    if let Some(trace) = p.trace.as_mut() {
                        let hop = trace.hops.last_mut().expect("hop queued with a record");
                        hop.queue_delay = now - hop.round;
                        hop.round = now;
                    }
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

    impl VertexProtocol for Vertex<'_> {
        type Msg = Packet;

        fn init(&mut self, ctx: &mut Ctx<'_, Packet>) {
            self.inject(ctx, 0);
            self.flush(ctx);
            self.close_round(0);
        }

        fn round(&mut self, ctx: &mut Ctx<'_, Packet>, inbox: &mut Inbox<'_, Packet>) {
            let round = ctx.round();
            self.inject(ctx, round);
            // Drain moves each packet (heap label + trace included) out of the
            // engine's arena — forwarding never clones.
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

    const TRACED: SendOptions = SendOptions {
        trace: true,
        profile: false,
    };

    fn setup(n: usize, seed: u64) -> (Network, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        (Network::new(g), built.scheme)
    }

    /// A send of the single pair `s -> t`.
    fn one(net: &Network, scheme: &RoutingScheme, s: u32, t: u32, opts: SendOptions) -> Sent {
        send(net, scheme, &[(VertexId(s), VertexId(t))], opts)
    }

    /// Two components: `{0, 1}` and `{2, 3}`.
    fn split_network(seed: u64) -> (Network, RoutingScheme) {
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        (Network::new(g), built.scheme)
    }

    #[test]
    fn packet_matches_central_router() {
        let (net, scheme) = setup(60, 601);
        for (s, t) in [(0u32, 59u32), (5, 30), (42, 7)] {
            let sent = one(&net, &scheme, s, t, SendOptions::default());
            let (rounds, weight) = sent.delivery(0).expect("delivered");
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
            let sent = one(&net, &scheme, s, t, TRACED);
            let trace = sent.traces[0].as_ref().expect("delivered");
            // The plan commits to exactly the tree the send chooses.
            assert_eq!(p.tree_root.0, trace.tree_root);
            let (_, weight) = sent.delivery(0).expect("delivered");
            // The estimate prices the committed route: an upper bound on the
            // routed weight.
            assert!(p.est_cost >= weight, "est {} < routed {weight}", p.est_cost);
            assert_eq!(p.words(), 4 + p.label.words());
            assert!(trace.hops.iter().all(|h| h.header_words == p.words()));
        }
    }

    #[test]
    fn plan_is_none_for_disconnected_pairs() {
        let (_, scheme) = split_network(616);
        assert!(plan(&scheme, VertexId(0), VertexId(3)).is_none());
    }

    #[test]
    fn packet_to_self_delivers_in_zero_rounds() {
        let (net, scheme) = setup(30, 602);
        let sent = one(&net, &scheme, 3, 3, SendOptions::default());
        // A legitimate zero-hop self-delivery is Delivered{0, 0}, apart from
        // an undeliverable packet's NoCommonTree.
        assert_eq!(
            sent.outcomes,
            [PacketOutcome::Delivered {
                round: 0,
                weight: 0
            }]
        );
    }

    #[test]
    fn packet_size_is_logarithmic() {
        let (net, scheme) = setup(100, 603);
        let sent = one(&net, &scheme, 0, 99, SendOptions::default());
        assert!(sent.delivery(0).is_some());
        // Header (4) + label (1 + 2·light); light ≤ log2(n).
        let words = plan(&scheme, VertexId(0), VertexId(99)).unwrap().words();
        assert!(words <= 4 + 1 + 2 * 7, "{words}");
        assert_eq!(sent.stats.max_edge_words, words);
        assert_eq!(sent.stats.congestion_violations, 0);
    }

    #[test]
    fn undeliverable_packet_reports_no_common_tree() {
        let (net, scheme) = split_network(604);
        let sent = one(&net, &scheme, 0, 3, TRACED);
        assert_eq!(
            sent.outcomes,
            [PacketOutcome::Failed(GraphRouteError::NoCommonTree)]
        );
        assert_eq!((sent.undeliverable(), sent.dropped()), (1, 0));
        assert_eq!(sent.stats.messages, 0, "nothing was injected");
        assert!(sent.traces[0].is_none());
    }

    #[test]
    fn traced_send_matches_untraced_send() {
        let (net, scheme) = setup(60, 609);
        for (s, t) in [(0u32, 59u32), (7, 23), (14, 14)] {
            let plain = one(&net, &scheme, s, t, SendOptions::default());
            let traced = one(&net, &scheme, s, t, TRACED);
            assert_eq!(plain.outcomes, traced.outcomes);
            assert!(plain.stats.same_simulation(&traced.stats));
            assert!(plain.traces.iter().all(Option::is_none));
        }
    }

    #[test]
    fn trace_reconstructs_the_journey() {
        let (net, scheme) = setup(60, 610);
        let sent = one(&net, &scheme, 2, 55, TRACED);
        let (rounds, weight) = sent.delivery(0).expect("delivered");
        let trace = sent.traces[0].as_ref().expect("traced");
        assert_eq!(trace.src, 2);
        assert_eq!(trace.dst, 55);
        assert_eq!(trace.hop_count() as u64, rounds);
        assert_eq!(trace.total_weight(), weight);
        assert_eq!(trace.delivered_round, Some(rounds));
        // A lone packet never queues.
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
        let sent = send(&net, &scheme, &pairs, SendOptions::default());
        assert_eq!((sent.undeliverable(), sent.dropped()), (0, 0));
        for (id, &(s, t)) in pairs.iter().enumerate() {
            let (round, weight) = sent.delivery(id).expect("delivered");
            let central = router::route(g, &scheme, s, t).unwrap();
            // Same path weight as the uncongested router; delivery no
            // earlier than the hop count (queueing only adds delay).
            assert_eq!(weight, central.weight, "packet {id}");
            assert!(round as usize >= central.hops(), "packet {id}");
        }
        assert_eq!(sent.stats.congestion_violations, 0);
    }

    #[test]
    fn traced_batch_matches_untraced_and_decomposes_delay() {
        let (net, scheme) = setup(80, 611);
        let pairs: Vec<(VertexId, VertexId)> = (0..60u32)
            .map(|i| (VertexId(i % 80), VertexId((i * 13 + 7) % 80)))
            .filter(|(a, b)| a != b)
            .collect();
        let plain = send(&net, &scheme, &pairs, SendOptions::default());
        let traced = send(&net, &scheme, &pairs, TRACED);
        assert_eq!(plain.outcomes, traced.outcomes);
        assert!(plain.stats.same_simulation(&traced.stats));
        assert_eq!(plain.edge_load().stats(), traced.edge_load().stats());
        // Delivery time decomposes into hops + queueing, per packet.
        for (id, trace) in traced.traces.iter().enumerate() {
            let trace = trace.as_ref().expect("all injected");
            let (round, weight) = traced.delivery(id).expect("delivered");
            assert_eq!(
                round,
                trace.hop_count() as u64 + trace.queueing_delay(),
                "packet {id}: delivery round must be hops + queueing"
            );
            assert_eq!(trace.total_weight(), weight, "packet {id}");
        }
        // The heatmaps' words are exactly the engine's delivered words.
        assert_eq!(traced.edge_load().total_words(), traced.stats.words);
        assert_eq!(traced.vertex_load().total_words(), traced.stats.words);
        let hops: u64 = traced
            .traces
            .iter()
            .flatten()
            .map(|t| t.hop_count() as u64)
            .sum();
        assert_eq!(traced.edge_load().total_packets(), hops);
        assert_eq!(traced.stats.messages, hops);
    }

    #[test]
    fn hotspot_traffic_queues_but_drains() {
        // Everyone sends to one sink: heavy congestion near the sink, yet
        // every packet arrives.
        let (net, scheme) = setup(50, 607);
        let sink = VertexId(0);
        let pairs: Vec<(VertexId, VertexId)> = (1..50u32).map(|i| (VertexId(i), sink)).collect();
        let sent = send(&net, &scheme, &pairs, SendOptions::default());
        assert_eq!(sent.dropped(), 0);
        assert_eq!(sent.delivered_count(), 49);
        // The last arrival is later than the distance-only bound would be —
        // serialization at the sink's incident edges forces it.
        let last = sent.deliveries().flatten().map(|(r, _)| r).max().unwrap();
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
        let sent = send(&net, &scheme, &pairs, TRACED);
        // Queueing must have happened somewhere.
        let queued: u64 = sent
            .traces
            .iter()
            .flatten()
            .map(PacketTrace::queueing_delay)
            .sum();
        assert!(queued > 0, "49-to-1 traffic cannot avoid queueing");
        let stats = sent.edge_load().stats();
        assert!(stats.max >= stats.p99);
        assert!(stats.p99 >= stats.p50);
        assert_eq!(sent.edge_load().total_words(), sent.stats.words);
    }

    #[test]
    fn empty_batch_skips_the_engine() {
        let (net, scheme) = setup(20, 608);
        let sent = send(&net, &scheme, &[], SendOptions::default());
        assert!(sent.outcomes.is_empty());
        assert_eq!(sent.stats.rounds, 0);
        assert_eq!(sent.stats.messages, 0);
        assert!(sent.stats.completed);
    }

    #[test]
    fn all_undeliverable_batch_reports_distinctly() {
        // Cross-component pairs are undeliverable at the source — reported
        // as such, not as drops.
        let (net, scheme) = split_network(613);
        let pairs = [(VertexId(0), VertexId(3)), (VertexId(2), VertexId(1))];
        let sent = send(&net, &scheme, &pairs, TRACED);
        assert_eq!((sent.undeliverable(), sent.dropped()), (2, 0));
        // No packets → no engine run → no invented congestion budget.
        assert_eq!(sent.stats.rounds, 0);
        assert_eq!(sent.stats.messages, 0);
        assert!(sent.traces.iter().all(Option::is_none));
        assert!(sent.edge_load().is_empty());
    }

    #[test]
    fn mixed_batch_keeps_undeliverable_and_delivered_apart() {
        let (net, scheme) = split_network(614);
        let pairs = [
            (VertexId(0), VertexId(1)), // routable
            (VertexId(0), VertexId(3)), // cross-component
            (VertexId(2), VertexId(2)), // self: zero-hop delivery
        ];
        let sent = send(&net, &scheme, &pairs, SendOptions::default());
        assert_eq!(
            sent.outcomes,
            [
                PacketOutcome::Delivered {
                    round: 1,
                    weight: 1
                },
                PacketOutcome::Failed(GraphRouteError::NoCommonTree),
                PacketOutcome::Delivered {
                    round: 0,
                    weight: 0
                },
            ]
        );
        assert_eq!((sent.undeliverable(), sent.dropped()), (1, 0));
    }

    #[test]
    fn a_full_queue_applies_the_drop_policy() {
        // Three packets for one port in the same round, one slot: tail-drop
        // keeps the first, oldest-drop the last.
        let (net, scheme) = setup(40, 617);
        let (src, dst) = (VertexId(0), VertexId(39));
        let p = plan(&scheme, src, dst).unwrap();
        let injections = || (0..3).map(|id| (0, src, Packet::from_plan(id, p.clone())));
        for (policy, kept, dropped) in [
            (DropPolicy::TailDrop, 0, [1, 2]),
            (DropPolicy::OldestDrop, 2, [0, 1]),
        ] {
            let sim = run(
                &net,
                &scheme,
                injections(),
                &Settings {
                    queue_cap: 1,
                    policy,
                    max_rounds: 1024,
                    profile: false,
                },
            );
            let ids: Vec<u32> = sim.deliveries.iter().map(|d| d.id).collect();
            assert_eq!(ids, [kept], "{policy:?}");
            assert_eq!(sim.dropped_capacity, dropped, "{policy:?}");
            assert!(sim.stats.completed);
        }
    }

    #[test]
    fn vertex_memory_equals_its_table() {
        let (net, scheme) = setup(50, 605);
        let sent = one(&net, &scheme, 1, 40, SendOptions::default());
        assert_eq!(sent.stats.memory.max_peak(), scheme.max_table_words());
    }

    /// A graph of `shape` 0..4 — Erdős–Rényi, preferential attachment,
    /// torus, or two Erdős–Rényi components side by side — of about `size`
    /// vertices.
    fn shaped(shape: u8, size: usize, rng: &mut ChaCha8Rng) -> graphs::Graph {
        let er = |n: usize, rng: &mut ChaCha8Rng| {
            generators::erdos_renyi_connected(n, (2.5 / n as f64).min(1.0), 1..=9, rng)
        };
        match shape {
            0 => er(size, rng),
            1 => generators::preferential_attachment(size.max(3), 2, 1..=9, rng),
            2 => generators::torus(3 + size % 5, 3 + size / 12, 1..=9, rng),
            _ => {
                let (a, b) = (er(size.div_ceil(2), rng), er(size / 2, rng));
                let off = a.num_vertices() as u32;
                let mut g = graphs::GraphBuilder::new(a.num_vertices() + b.num_vertices());
                for (u, v, w) in a.edges() {
                    g.add_edge(u, v, w);
                }
                for (u, v, w) in b.edges() {
                    g.add_edge(VertexId(u.0 + off), VertexId(v.0 + off), w);
                }
                g.build()
            }
        }
    }

    /// Break `scheme` so the rule drops packets: every `v ≡ 1 (mod 6)`
    /// forgets its rows (`Stuck`), every `v ≡ 4 (mod 6)` names vertex
    /// `v + n/2` as each tree parent (`BadForward`, or a detour and perhaps a
    /// `Loop` where that is a neighbour).
    fn forge(scheme: &mut RoutingScheme, n: usize) {
        for v in (0..n as u32).map(VertexId) {
            let mut rows = scheme.table(v).rows().to_vec();
            match v.0 % 6 {
                1 => rows.clear(),
                4 => {
                    for e in rows.iter_mut().filter(|e| e.table.parent.is_some()) {
                        e.table.parent = Some(VertexId((v.0 + n as u32 / 2) % n as u32));
                    }
                }
                _ => continue,
            }
            scheme.replace_table(v, rows);
        }
    }

    /// Where a schedule's pairs lead.
    #[derive(Clone, Copy, Debug)]
    enum Focus {
        /// Random pairs.
        Anywhere,
        /// Every pair ends at this vertex: its neighbours' ports toward it
        /// back up.
        Into(VertexId),
        /// Every pair starts at this vertex: many of its ports back up at
        /// once.
        OutOf(VertexId),
    }

    /// The highest-degree vertex of `g` (the lowest id among ties).
    fn hub(g: &graphs::Graph) -> VertexId {
        g.vertices()
            .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0)))
            .expect("non-empty")
    }

    /// Up to `rate` pairs led by `focus` in each of rounds `0..horizon`,
    /// plus a burst of `burst` packets of one pair in one round, which
    /// overfills the port they leave by. Traced packets carry a trace as in
    /// a traced [`send`].
    fn schedule(
        scheme: &RoutingScheme,
        traced: bool,
        (horizon, rate, burst): (u64, usize, usize),
        focus: Focus,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Injection> {
        use rand::Rng;
        let n = scheme.num_vertices() as u32;
        let mut injections = Vec::new();
        let burst_round = rng.gen_range(0..horizon);
        for round in 0..horizon {
            let bursting = round == burst_round;
            let pairs = rng.gen_range(0..=rate) + usize::from(bursting);
            for i in 0..pairs {
                let (src, dst) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
                let (src, dst) = match focus {
                    Focus::Anywhere => (src, dst),
                    Focus::Into(hub) => (src, hub),
                    Focus::OutOf(hub) => (hub, dst),
                };
                let Some(p) = plan(scheme, src, dst) else {
                    continue;
                };
                let copies = if bursting && i == 0 { burst } else { 1 };
                for _ in 0..copies {
                    let mut packet = Packet::from_plan(injections.len() as u32, p.clone());
                    if traced {
                        packet.trace = Some(Box::new(PacketTrace {
                            src: src.0,
                            dst: dst.0,
                            tree_root: packet.tree_root.0,
                            delivered_round: None,
                            hops: Vec::new(),
                        }));
                    }
                    injections.push((round, src, packet));
                }
            }
        }
        injections
    }

    /// Run `injections` on the protocol and on [`reference`] and name the
    /// first result that differs, with both values.
    fn mismatch(
        net: &Network,
        scheme: &RoutingScheme,
        injections: Vec<Injection>,
        settings: &Settings,
    ) -> Option<String> {
        let got = run(net, scheme, injections.clone(), settings);
        let want = reference::run(net, scheme, injections, settings);
        let fields = [
            (
                "deliveries",
                format!("{:?}", got.deliveries),
                format!("{:?}", want.deliveries),
            ),
            (
                "dropped_capacity",
                format!("{:?}", got.dropped_capacity),
                format!("{:?}", want.dropped_capacity),
            ),
            (
                "dropped_stuck",
                format!("{:?}", got.dropped_stuck),
                format!("{:?}", want.dropped_stuck),
            ),
            (
                "stuck_errors",
                format!("{:?}", got.stuck_errors),
                format!("{:?}", want.stuck_errors),
            ),
            (
                "traces",
                format!("{:?}", got.traces),
                format!("{:?}", want.traces),
            ),
            (
                "series",
                format!("{:?}", got.series),
                format!("{:?}", want.series),
            ),
            (
                "edge_load",
                format!("{:?}", got.edge_load()),
                format!("{:?}", want.edge_load()),
            ),
        ];
        if let Some((name, a, b)) = fields.into_iter().find(|(_, a, b)| a != b) {
            return Some(format!("{name}: {a} vs {b}"));
        }
        (!got.stats.same_simulation(&want.stats))
            .then(|| format!("stats: {:?} vs {:?}", got.stats, want.stats))
    }

    #[test]
    fn degenerate_networks_match_the_reference_protocol() {
        // Two vertices, and two components with a cross-component pair that
        // never injects; a burst over the one edge at every capacity.
        let mut rng = ChaCha8Rng::seed_from_u64(618);
        let g = generators::path(2, 1..=9, &mut rng);
        let pair = Network::new(g.clone());
        let pair_scheme = build(&g, &BuildParams::new(2), &mut rng).scheme;
        let (split, split_scheme) = split_network(619);
        for (net, scheme) in [(&pair, &pair_scheme), (&split, &split_scheme)] {
            for (cap, policy, traced) in [
                (1, DropPolicy::TailDrop, false),
                (1, DropPolicy::OldestDrop, true),
                (2, DropPolicy::OldestDrop, false),
                (usize::MAX, DropPolicy::TailDrop, true),
            ] {
                let injections = schedule(scheme, traced, (6, 3, 5), Focus::Anywhere, &mut rng);
                let settings = Settings {
                    queue_cap: cap,
                    policy,
                    max_rounds: 1024,
                    profile: false,
                };
                let mismatch = mismatch(net, scheme, injections, &settings);
                assert!(mismatch.is_none(), "{mismatch:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn the_ledger_plane_matches_the_reference_protocol(
            shape in 0u8..4,
            size in 2usize..=48,
            k in 2usize..=3,
            seed in 0u64..1 << 32,
            forged in 0u8..2,
            cap in 0usize..4,
            oldest in 0usize..2,
            traced in 0u8..2,
            horizon in 1u64..24,
            rate in 0usize..6,
            burst in 0usize..10,
            slack in 0usize..3,
            focus in 0u8..3,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = shaped(shape, size, &mut rng);
            let n = g.num_vertices();
            let mut scheme = build(&g, &BuildParams::new(k), &mut rng).scheme;
            if forged == 1 {
                forge(&mut scheme, n);
            }
            let center = hub(&g);
            let focus =
                [Focus::Anywhere, Focus::Into(center), Focus::OutOf(center)][focus as usize];
            let net = Network::new(g);
            let load = (horizon, rate, burst);
            let injections = schedule(&scheme, traced == 1, load, focus, &mut rng);
            let settings = Settings {
                queue_cap: [1, 2, 8, usize::MAX][cap],
                policy: [DropPolicy::TailDrop, DropPolicy::OldestDrop][oldest],
                max_rounds: horizon + [0, 3, 4096][slack],
                profile: false,
            };
            let mismatch = mismatch(&net, &scheme, injections, &settings);
            proptest::prop_assert!(mismatch.is_none(), "{:?}", mismatch);
        }
    }
}
