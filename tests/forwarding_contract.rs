//! The forwarding planes' behavioural contract, pinned to the digit.
//!
//! The engine's round loop and the store-and-forward protocols may be
//! reorganised freely as long as every simulated quantity stays put: the
//! engine's counters, the per-vertex memory peaks, the per-round
//! conservation series, every delivery and drop, and the per-edge load. The
//! pins below were recorded on the commit before the round loop learned to
//! skip vertices that cannot act; a mismatch means a vertex executed (or
//! failed to execute) in a round where it used to do the opposite and it
//! mattered, a send changed order, or a meter read changed.

use congest::bfs::BfsVertex;
use congest::engine::{Ctx, Wake};
use congest::{Engine, Inbox, Network, RunStats, VertexProtocol};
use graphs::{generators, Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::persist::crc32;
use routing::{build, packet, BuildParams, RoutingScheme};
use traffic::sim::{simulate, DropPolicy, Injection, SimConfig};
use traffic::{Arrival, ArrivalKind, TrafficPacket, Workload, WorkloadKind};

/// The engine counters every plane is pinned on.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EnginePin {
    rounds: u64,
    messages: u64,
    words: u64,
    max_edge_words: usize,
    completed: bool,
    /// CRC32 over the per-vertex memory peaks.
    peaks_crc: u32,
}

/// CRC32 over a stream of numbers, each as a little-endian `u64`.
fn crc_of(values: impl IntoIterator<Item = u64>) -> u32 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    crc32(&bytes)
}

fn engine_pin(stats: &RunStats) -> EnginePin {
    EnginePin {
        rounds: stats.rounds,
        messages: stats.messages,
        words: stats.words,
        max_edge_words: stats.max_edge_words,
        completed: stats.completed,
        peaks_crc: crc_of(stats.memory.peaks().iter().map(|&p| p as u64)),
    }
}

/// What one steady-state run is pinned on.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TrafficPin {
    engine: EnginePin,
    series_crc: u32,
    deliveries_crc: u32,
    dropped_capacity_crc: u32,
    dropped_stuck_crc: u32,
    /// Per-edge `(u, v, packets, words)`, sorted by endpoints.
    edge_load_crc: u32,
}

/// `(rounds, messages, words, max_edge_words, completed, peaks_crc)`.
fn engine(p: (u64, u64, u64, usize, bool, u32)) -> EnginePin {
    EnginePin {
        rounds: p.0,
        messages: p.1,
        words: p.2,
        max_edge_words: p.3,
        completed: p.4,
        peaks_crc: p.5,
    }
}

/// An engine pin plus the CRCs of `[series, deliveries, dropped_capacity,
/// dropped_stuck, edge_load]`.
fn pin(e: (u64, u64, u64, usize, bool, u32), crc: [u32; 5]) -> TrafficPin {
    TrafficPin {
        engine: engine(e),
        series_crc: crc[0],
        deliveries_crc: crc[1],
        dropped_capacity_crc: crc[2],
        dropped_stuck_crc: crc[3],
        edge_load_crc: crc[4],
    }
}

fn network(g: Graph, k: usize) -> (Network, RoutingScheme) {
    let mut rng = ChaCha8Rng::seed_from_u64(2025);
    let scheme = build(&g, &BuildParams::new(k), &mut rng).scheme;
    (Network::new(g), scheme)
}

/// The scenario runner's schedule, planned here so the pins sit directly on
/// `sim::simulate`'s result.
fn schedule(
    net: &Network,
    scheme: &RoutingScheme,
    workload: WorkloadKind,
    arrival: ArrivalKind,
    rate: f64,
    rounds: u64,
) -> Vec<Injection> {
    let seed = 99;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut workload = Workload::prepare(workload, net.graph(), scheme, seed);
    let mut arrival = Arrival::new(arrival, rate);
    let mut injections = Vec::new();
    for round in 0..rounds {
        for _ in 0..arrival.count(&mut rng) {
            let (src, dst) = workload.draw(&mut rng);
            if let Some(plan) = packet::plan(scheme, src, dst) {
                let id = injections.len() as u32;
                injections.push((round, src, TrafficPacket::from_plan(id, plan)));
            }
        }
    }
    injections
}

fn traffic_pin(
    net: &Network,
    scheme: &RoutingScheme,
    injections: &[Injection],
    policy: DropPolicy,
    max_rounds: u64,
) -> TrafficPin {
    let sim = simulate(
        net,
        scheme,
        injections,
        &SimConfig {
            queue_cap: 2,
            policy,
            max_rounds,
            threads: 1,
            profile: false,
        },
    );
    let mut edges = sim.edge_load.hottest(usize::MAX);
    edges.sort_by_key(|&(e, _)| e);
    TrafficPin {
        engine: engine_pin(&sim.stats),
        series_crc: crc_of(sim.series.iter().flat_map(|t| {
            [
                t.round,
                t.injected,
                t.delivered,
                t.dropped_capacity,
                t.dropped_stuck,
                t.sent,
                t.queued_packets,
                t.queued_words,
            ]
        })),
        deliveries_crc: crc_of(
            sim.deliveries
                .iter()
                .flat_map(|d| [u64::from(d.id), d.round, d.weight, u64::from(d.hops)]),
        ),
        dropped_capacity_crc: crc_of(sim.dropped_capacity.iter().map(|&id| u64::from(id))),
        dropped_stuck_crc: crc_of(sim.dropped_stuck.iter().map(|&id| u64::from(id))),
        edge_load_crc: crc_of(
            edges
                .iter()
                .flat_map(|&((u, v), l)| [u64::from(u), u64::from(v), l.packets, l.words]),
        ),
    }
}

const CASES: [(DropPolicy, ArrivalKind); 4] = [
    (DropPolicy::TailDrop, ArrivalKind::Fixed),
    (DropPolicy::TailDrop, ArrivalKind::Bernoulli),
    (DropPolicy::OldestDrop, ArrivalKind::Fixed),
    (DropPolicy::OldestDrop, ArrivalKind::Bernoulli),
];

/// Run the four policy × arrival cases of one workload and compare each
/// against its pin.
fn check(
    net: &Network,
    scheme: &RoutingScheme,
    workload: WorkloadKind,
    rate: f64,
    rounds: u64,
    want: [TrafficPin; 4],
) {
    for ((policy, arrival), want) in CASES.into_iter().zip(want) {
        let injections = schedule(net, scheme, workload, arrival, rate, rounds);
        let got = traffic_pin(net, scheme, &injections, policy, rounds + 4096);
        assert_eq!(got, want, "{policy:?} {arrival:?}");
    }
}

fn er256() -> (Network, RoutingScheme) {
    let mut rng = ChaCha8Rng::seed_from_u64(7101);
    network(
        generators::erdos_renyi_connected(256, 4.0 / 256.0, 1..=100, &mut rng),
        2,
    )
}

fn pa256() -> (Network, RoutingScheme) {
    let mut rng = ChaCha8Rng::seed_from_u64(7103);
    network(
        generators::preferential_attachment(256, 2, 1..=100, &mut rng),
        3,
    )
}

#[test]
fn erdos_renyi_256_k2_sparse_uniform_is_pinned() {
    // One packet every fifth round: the network falls silent between
    // arrivals, so this is the case that leans on timed wake-ups.
    let (net, scheme) = er256();
    let fixed = pin(
        (102, 125, 941, 9, true, 2811166352),
        [136794743, 1188060468, 0, 0, 4282770582],
    );
    let bernoulli = pin(
        (93, 152, 1156, 9, true, 2811166352),
        [2284147729, 3013948639, 0, 0, 2825235607],
    );
    // Nothing is dropped at this rate, so the drop policy cannot matter.
    check(
        &net,
        &scheme,
        WorkloadKind::Uniform,
        0.2,
        96,
        [fixed.clone(), bernoulli.clone(), fixed, bernoulli],
    );
}

#[test]
fn torus_16x16_k3_uniform_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(7102);
    let (net, scheme) = network(generators::torus(16, 16, 1..=100, &mut rng), 3);
    check(
        &net,
        &scheme,
        WorkloadKind::Uniform,
        12.0,
        48,
        [
            pin(
                (73, 6082, 49176, 13, true, 754043300),
                [3359168468, 3550498916, 1186060969, 0, 1316519862],
            ),
            pin(
                (71, 6029, 48767, 13, true, 875891055),
                [1656925634, 322920184, 3922314468, 0, 4265932993],
            ),
            pin(
                (73, 6124, 49318, 13, true, 3295645004),
                [373175829, 105074342, 1268408341, 0, 1462629074],
            ),
            pin(
                (71, 5949, 48055, 13, true, 1403824494),
                [2826297450, 1414757168, 2357389476, 0, 1725972404],
            ),
        ],
    );
}

#[test]
fn preferential_attachment_256_k3_overloaded_hotspot_is_pinned() {
    let (net, scheme) = pa256();
    check(
        &net,
        &scheme,
        WorkloadKind::Hotspot,
        4.0,
        48,
        [
            pin(
                (50, 546, 2730, 5, true, 2549757025),
                [3203197091, 3161170784, 500837338, 0, 3921861972],
            ),
            pin(
                (51, 538, 2690, 5, true, 2085885338),
                [1616386957, 3512217768, 3872482040, 0, 2369874294],
            ),
            pin(
                (50, 546, 2730, 5, true, 2549757025),
                [3203197091, 2086661892, 2790539563, 0, 3921861972],
            ),
            pin(
                (51, 538, 2690, 5, true, 2085885338),
                [1616386957, 616316718, 952826912, 0, 2369874294],
            ),
        ],
    );
    // The round cap cutting the run off at the injection horizon, with
    // packets still queued and on the wire.
    let injections = schedule(
        &net,
        &scheme,
        WorkloadKind::Hotspot,
        ArrivalKind::Fixed,
        4.0,
        48,
    );
    assert_eq!(
        traffic_pin(&net, &scheme, &injections, DropPolicy::TailDrop, 48),
        pin(
            (48, 544, 2720, 5, false, 2549757025),
            [990937360, 1454828925, 500837338, 0, 2879618359],
        ),
    );
}

#[test]
fn send_many_batch_and_bfs_are_pinned() {
    let (net, scheme) = er256();
    let (report, outcomes_crc) = batch(&net, &scheme);
    assert_eq!(
        engine_pin(&report.stats),
        engine((38, 3294, 23082, 12, true, 1409730390))
    );
    assert_eq!(outcomes_crc, 1883254606);

    let out = congest::bfs::build_bfs_tree(&net, VertexId(17));
    assert_eq!(
        engine_pin(&out.stats),
        engine((6, 1538, 1538, 1, true, 3107504065))
    );
    let parents = net
        .graph()
        .vertices()
        .map(|v| out.tree.parent(v).map_or(0, |p| u64::from(p.0) + 1));
    assert_eq!(crc_of(parents), 3024161684);
}

/// One 512-packet `send_many` batch and the CRC of its per-packet outcomes
/// (`round + 1` and weight when delivered, zeros otherwise).
fn batch(net: &Network, scheme: &RoutingScheme) -> (packet::LoadReport, u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(512);
    let n = net.len() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..512)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let report = packet::send_many(net, scheme, &pairs);
    let crc = crc_of(
        report
            .deliveries()
            .flat_map(|d| d.map_or([0, 0], |(round, weight)| [round + 1, weight])),
    );
    (report, crc)
}

/// What one single-packet `send` / `send_traced` is pinned on: delivery
/// round, routed weight, wire size, the engine pin, and the CRC of the
/// flight recording (zero for the untraced twin).
fn single_send_pin(
    net: &Network,
    scheme: &RoutingScheme,
    src: u32,
    dst: u32,
    traced: bool,
) -> (u64, u64, usize, EnginePin, u32) {
    let (src, dst) = (VertexId(src), VertexId(dst));
    let (report, trace_crc) = if traced {
        let flight = packet::send_traced(net, scheme, src, dst);
        let trace = flight.trace.expect("delivered packets are traced");
        let head = [
            u64::from(trace.src),
            u64::from(trace.dst),
            u64::from(trace.tree_root),
            trace.delivered_round.map_or(0, |r| r + 1),
        ];
        let hops = trace.hops.iter().flat_map(|h| {
            [
                h.round,
                u64::from(h.vertex),
                h.port as u64,
                u64::from(h.next),
                h.kind as u64,
                h.queue_delay,
                h.weight,
                h.header_words as u64,
            ]
        });
        (flight.report, crc_of(head.into_iter().chain(hops)))
    } else {
        (packet::send(net, scheme, src, dst), 0)
    };
    let (rounds, weight) = report.outcome.delivery().expect("delivered");
    (
        rounds,
        weight,
        report.packet_words,
        engine_pin(&report.stats),
        trace_crc,
    )
}

#[test]
fn single_send_and_its_traced_twin_are_pinned() {
    // Recorded on the commit before the planes shared one forwarding kernel.
    let (net, scheme) = er256();
    let want = engine((4, 4, 36, 9, true, 2811166352));
    assert_eq!(
        single_send_pin(&net, &scheme, 3, 200, false),
        (4, 126, 9, want.clone(), 0)
    );
    assert_eq!(
        single_send_pin(&net, &scheme, 3, 200, true),
        (4, 126, 9, want, 2572313288)
    );

    // The farthest pair of a 16 x 16 torus: a long ascent and descent.
    let mut rng = ChaCha8Rng::seed_from_u64(7102);
    let (net, scheme) = network(generators::torus(16, 16, 1..=100, &mut rng), 3);
    let want = engine((22, 22, 110, 5, true, 510063165));
    assert_eq!(
        single_send_pin(&net, &scheme, 0, 136, false),
        (22, 461, 5, want.clone(), 0)
    );
    assert_eq!(
        single_send_pin(&net, &scheme, 0, 136, true),
        (22, 461, 5, want, 278275867)
    );
}

/// A path of `n` vertices with unit-ish weights.
fn path(n: usize) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(7104);
    generators::path(n, 1..=9, &mut rng)
}

#[test]
fn executions_track_packets_in_motion_not_network_size() {
    // One source at the far end of a 1024-vertex path, one packet every
    // 50th round: at any time at most one or two vertices have anything to
    // do, and the other thousand must cost nothing.
    let n = 1024;
    let (net, scheme) = network(path(n), 2);
    let (src, dst) = (VertexId(0), VertexId(n as u32 - 1));
    let plan = packet::plan(&scheme, src, dst).expect("a path is connected");
    let injections: Vec<Injection> = (0..8)
        .map(|i| {
            (
                50 * i,
                src,
                TrafficPacket::from_plan(i as u32, plan.clone()),
            )
        })
        .collect();
    let sim = simulate(
        &net,
        &scheme,
        &injections,
        &SimConfig {
            queue_cap: 2,
            policy: DropPolicy::TailDrop,
            max_rounds: 8192,
            threads: 1,
            profile: false,
        },
    );
    assert!(sim.stats.completed);
    assert_eq!(sim.deliveries.len(), injections.len());
    // Init runs everyone once. After that a vertex runs only because a
    // message reached it, an injection came due, or it ended the previous
    // round with a packet still queued.
    let queued: u64 = sim.series.iter().map(|t| t.queued_packets).sum();
    let bound = n as u64 + sim.stats.messages + injections.len() as u64 + queued;
    assert!(
        sim.stats.executions <= bound,
        "{} executions > {bound}",
        sim.stats.executions
    );
    // Sweeping all n vertices every round would have cost this much.
    assert!(sim.stats.executions * 50 < n as u64 * sim.stats.rounds);
}

/// Wraps a protocol and counts the `round` calls the engine had no reason
/// to make: the inbox was empty and the hint this vertex last gave had not
/// come due.
struct Counted<P> {
    inner: P,
    /// The hint given after the last execution.
    hinted: std::cell::Cell<Wake>,
    calls: u64,
    needless_calls: u64,
}

impl<P> Counted<P> {
    fn new(inner: P) -> Counted<P> {
        Counted {
            inner,
            hinted: std::cell::Cell::new(Wake::NextRound),
            calls: 0,
            needless_calls: 0,
        }
    }
}

impl<P: VertexProtocol> VertexProtocol for Counted<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.inner.init(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &mut Inbox<'_, P::Msg>) {
        let due = match self.hinted.get() {
            Wake::OnMessage => false,
            Wake::NextRound => true,
            Wake::At(r) => r <= ctx.round(),
        };
        self.calls += 1;
        self.needless_calls += u64::from(inbox.is_empty() && !due);
        self.inner.round(ctx, inbox);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }

    fn wake(&self) -> Wake {
        let hint = self.inner.wake();
        self.hinted.set(hint);
        hint
    }
}

/// Vertex 0 of a path emits a token in each round of `shots`; every vertex
/// passes tokens on to its higher-numbered neighbor.
struct Relay {
    shots: std::collections::VecDeque<u64>,
    passed: u64,
}

impl VertexProtocol for Relay {
    type Msg = u64;

    fn init(&mut self, _: &mut Ctx<'_, u64>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<'_, u64>) {
        let mut tokens = inbox.len() as u64;
        if self.shots.front() == Some(&ctx.round()) {
            self.shots.pop_front();
            tokens += 1;
        }
        let onward = ctx.neighbors().iter().find(|a| a.to > ctx.me());
        if let (Some(arc), true) = (onward, tokens > 0) {
            self.passed += tokens;
            ctx.send(arc.to, tokens);
        }
    }

    fn is_done(&self) -> bool {
        self.shots.is_empty()
    }

    fn memory_words(&self) -> usize {
        1
    }

    fn wake(&self) -> Wake {
        self.shots.front().map_or(Wake::OnMessage, |&r| Wake::At(r))
    }
}

#[test]
fn the_engine_never_runs_a_vertex_without_mail_or_a_due_wake() {
    let n = 1024;
    let net = Network::new(path(n));
    let shots: Vec<u64> = (1..=6).map(|i| 50 * i).collect();
    let protos = (0..n)
        .map(|v| {
            Counted::new(Relay {
                shots: if v == 0 {
                    shots.iter().copied().collect()
                } else {
                    Default::default()
                },
                passed: 0,
            })
        })
        .collect();
    let (protos, stats) = Engine::new().run(&net, protos);
    assert!(stats.completed);
    assert_eq!(stats.rounds, 300 + n as u64 - 1);
    assert_eq!(stats.messages, shots.len() as u64 * (n as u64 - 1));
    assert_eq!(protos.iter().map(|p| p.needless_calls).sum::<u64>(), 0);
    // Exactly: init everywhere, one run per shot at the source, one per
    // message at its recipient.
    let calls: u64 = protos.iter().map(|p| p.calls).sum();
    assert_eq!(calls, shots.len() as u64 + stats.messages);
    assert_eq!(stats.executions, n as u64 + calls);

    // The default hint — every round until done, then only on mail — is
    // honoured the same way: once the BFS wave has passed a vertex, only
    // its neighbors' echoes run it again.
    let waves = (0..n)
        .map(|v| Counted::new(BfsVertex::new(v == 0)))
        .collect();
    let (protos, stats) = Engine::new().run(&net, waves);
    assert!(stats.completed);
    // Until the wave arrives a vertex is not done, so by its own hint it is
    // due every round: those calls are asked for, not needless.
    assert_eq!(protos.iter().map(|p| p.needless_calls).sum::<u64>(), 0);
}
