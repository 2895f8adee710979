//! The forwarding planes' behavioural contract, pinned to the digit.
//!
//! The engine's round loop and the store-and-forward protocol may be
//! reorganised freely as long as every simulated quantity stays put: the
//! engine's counters, the per-vertex memory peaks, the per-round
//! conservation series, every delivery and drop, and the per-edge load. The
//! pins below were recorded on the commit before the round loop learned to
//! skip vertices that cannot act; a mismatch means a vertex executed (or
//! failed to execute) in a round where it used to do the opposite and it
//! mattered, a send changed order, or a meter read changed. `executions`
//! joined the engine pin later, recorded on the commit before the round loop
//! found its vertices in bitsets and a timer heap instead of a scan of all
//! `n`: it pins the executed set itself, whether or not a run mattered. The
//! rule's drops with their errors, and a traced many-pair `send`'s journeys,
//! joined on the commit before the packet plane wrote its outputs to one run
//! ledger instead of per-vertex vectors. Hub-sink traffic — every packet
//! bound for a scale-free graph's highest-degree vertex, at two queue
//! capacities and both drop policies, plus a traced batch into the hub —
//! joined on the commit before a vertex kept only its busy ports' queues
//! and a cursor into one flat injection schedule.

use congest::bfs::BfsVertex;
use congest::engine::{Ctx, Wake};
use congest::{Engine, Inbox, Network, RunStats, VertexProtocol};
use graphs::{generators, Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::forward::GraphRouteError;
use routing::persist::crc32;
use routing::{build, packet, BuildParams, RoutingScheme};
use traffic::sim::{simulate, DropPolicy, Injection, SimConfig, SimResult};
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
    /// Vertex executions: which vertices the round loop ran, counted.
    executions: u64,
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
        executions: stats.executions,
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

/// `(rounds, messages, words, max_edge_words, completed, peaks_crc,
/// executions)`.
fn engine(p: (u64, u64, u64, usize, bool, u32, u64)) -> EnginePin {
    EnginePin {
        rounds: p.0,
        messages: p.1,
        words: p.2,
        max_edge_words: p.3,
        completed: p.4,
        peaks_crc: p.5,
        executions: p.6,
    }
}

/// An engine pin plus the CRCs of `[series, deliveries, dropped_capacity,
/// dropped_stuck, edge_load]`.
fn pin(e: (u64, u64, u64, usize, bool, u32, u64), crc: [u32; 5]) -> TrafficPin {
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
    sim_pin(&sim)
}

/// What a steady-state result is pinned on.
fn sim_pin(sim: &SimResult) -> TrafficPin {
    let mut edges = sim.edge_load().hottest(usize::MAX);
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
        (102, 125, 941, 9, true, 2811166352, 400),
        [136794743, 1188060468, 0, 0, 4282770582],
    );
    let bernoulli = pin(
        (93, 152, 1156, 9, true, 2811166352, 429),
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
                (73, 6082, 49176, 13, true, 754043300, 5469),
                [3359168468, 3550498916, 1186060969, 0, 1316519862],
            ),
            pin(
                (71, 6029, 48767, 13, true, 875891055, 5396),
                [1656925634, 322920184, 3922314468, 0, 4265932993],
            ),
            pin(
                (73, 6124, 49318, 13, true, 3295645004, 5493),
                [373175829, 105074342, 1268408341, 0, 1462629074],
            ),
            pin(
                (71, 5949, 48055, 13, true, 1403824494, 5343),
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
                (50, 546, 2730, 5, true, 2549757025, 848),
                [3203197091, 3161170784, 500837338, 0, 3921861972],
            ),
            pin(
                (51, 538, 2690, 5, true, 2085885338, 841),
                [1616386957, 3512217768, 3872482040, 0, 2369874294],
            ),
            pin(
                (50, 546, 2730, 5, true, 2549757025, 848),
                [3203197091, 2086661892, 2790539563, 0, 3921861972],
            ),
            pin(
                (51, 538, 2690, 5, true, 2085885338, 841),
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
            (48, 544, 2720, 5, false, 2549757025, 844),
            [990937360, 1454828925, 500837338, 0, 2879618359],
        ),
    );
}

#[test]
fn preferential_attachment_256_k3_long_idle_gaps_are_pinned() {
    // Four hotspot packets at each of rounds 0, 500 and 5,000: between the
    // bursts the network is silent for hundreds, then thousands of rounds,
    // and only the sources' pending timed wakes keep the run going.
    let (net, scheme) = pa256();
    let seed = 99;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut workload = Workload::prepare(WorkloadKind::Hotspot, net.graph(), &scheme, seed);
    let mut injections = Vec::new();
    for round in [0, 500, 5_000] {
        for _ in 0..4 {
            let (src, dst) = workload.draw(&mut rng);
            if let Some(plan) = packet::plan(&scheme, src, dst) {
                let id = injections.len() as u32;
                injections.push((round, src, TrafficPacket::from_plan(id, plan)));
            }
        }
    }
    assert_eq!(
        traffic_pin(&net, &scheme, &injections, DropPolicy::TailDrop, 8192),
        pin(
            (5004, 35, 175, 5, true, 1692049195, 298),
            [2248206770, 2065423078, 0, 0, 532010636],
        ),
    );
}

#[test]
fn batch_send_and_bfs_are_pinned() {
    // Rounds, messages and outcomes were recorded when a batch had its own
    // protocol with a 3-word header; the one packet's 4-word header adds one
    // word to each of the 3294 messages, to the per-edge peak, and to every
    // queued packet's share of the memory peaks.
    let (net, scheme) = er256();
    let (report, outcomes_crc) = batch(&net, &scheme);
    assert_eq!(
        engine_pin(&report.stats),
        engine((38, 3294, 26376, 13, true, 435764564, 2577))
    );
    assert_eq!(outcomes_crc, 1883254606);

    let out = congest::bfs::build_bfs_tree(&net, VertexId(17));
    assert_eq!(
        engine_pin(&out.stats),
        engine((6, 1538, 1538, 1, true, 3107504065, 1457))
    );
    let parents = net
        .graph()
        .vertices()
        .map(|v| out.tree.parent(v).map_or(0, |p| u64::from(p.0) + 1));
    assert_eq!(crc_of(parents), 3024161684);
}

/// One 512-packet `send` batch and the CRC of its per-packet outcomes
/// (`round + 1` and weight when delivered, zeros otherwise).
fn batch(net: &Network, scheme: &RoutingScheme) -> (packet::Sent, u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(512);
    let n = net.len() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..512)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let report = packet::send(net, scheme, &pairs, packet::SendOptions::default());
    let crc = crc_of(
        report
            .deliveries()
            .flat_map(|d| d.map_or([0, 0], |(round, weight)| [round + 1, weight])),
    );
    (report, crc)
}

/// What a one-pair `send`, traced or not, is pinned on: delivery round,
/// routed weight, wire size, the engine pin, and the CRC of the flight
/// recording (zero for the untraced twin).
fn single_send_pin(
    net: &Network,
    scheme: &RoutingScheme,
    src: u32,
    dst: u32,
    traced: bool,
) -> (u64, u64, usize, EnginePin, u32) {
    let (src, dst) = (VertexId(src), VertexId(dst));
    let opts = packet::SendOptions {
        trace: traced,
        profile: false,
    };
    let sent = packet::send(net, scheme, &[(src, dst)], opts);
    let trace_crc = match &sent.traces[0] {
        Some(trace) => {
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
            crc_of(head.into_iter().chain(hops))
        }
        None => 0,
    };
    let (rounds, weight) = sent.delivery(0).expect("delivered");
    let words = packet::plan(scheme, src, dst).expect("delivered").words();
    (rounds, weight, words, engine_pin(&sent.stats), trace_crc)
}

#[test]
fn single_send_and_its_traced_twin_are_pinned() {
    // Recorded on the commit before the planes shared one forwarding kernel,
    // when a lone packet had its own protocol with a 2-word header. The one
    // packet's 4-word header adds two words per message, to the wire size
    // and to every hop record's `header_words`; nothing else moved.
    let (net, scheme) = er256();
    let want = engine((4, 4, 44, 11, true, 2811166352, 260));
    assert_eq!(
        single_send_pin(&net, &scheme, 3, 200, false),
        (4, 126, 11, want.clone(), 0)
    );
    assert_eq!(
        single_send_pin(&net, &scheme, 3, 200, true),
        (4, 126, 11, want, 1515736562)
    );

    // The farthest pair of a 16 x 16 torus: a long ascent and descent.
    let mut rng = ChaCha8Rng::seed_from_u64(7102);
    let (net, scheme) = network(generators::torus(16, 16, 1..=100, &mut rng), 3);
    let want = engine((22, 22, 154, 7, true, 510063165, 278));
    assert_eq!(
        single_send_pin(&net, &scheme, 0, 136, false),
        (22, 461, 7, want.clone(), 0)
    );
    assert_eq!(
        single_send_pin(&net, &scheme, 0, 136, true),
        (22, 461, 7, want, 2457063695)
    );
}

/// `er256`'s scheme with forged rows, so the rule drops packets three ways:
/// every vertex `v ≡ 5 (mod 32)` forgets its rows (a packet reaching it is
/// `Stuck` there), every `v ≡ 21 (mod 32)` names a non-neighbour as each
/// tree parent (`BadForward`), and every `v ≡ 13 (mod 32)` becomes its tree
/// parents' parent, so an ascent through it bounces until the hop cap
/// (`Loop`).
fn forged_er256() -> (Network, RoutingScheme) {
    let (net, mut scheme) = er256();
    let n = net.len() as u32;
    for v in net.graph().vertices() {
        let mut rows = scheme.table(v).rows().to_vec();
        match v.0 % 32 {
            5 => rows.clear(),
            21 => {
                for e in &mut rows {
                    if e.table.parent.is_some() {
                        e.table.parent = Some(VertexId((v.0 + n / 2) % n));
                    }
                }
            }
            13 => {
                for e in rows.iter().filter(|e| e.table.parent.is_some()) {
                    let up = e.table.parent.expect("filtered on a parent");
                    let mut above = scheme.table(up).rows().to_vec();
                    for a in above.iter_mut().filter(|a| a.root == e.root) {
                        a.table.parent = Some(v);
                    }
                    scheme.replace_table(up, above);
                }
                continue;
            }
            _ => continue,
        }
        scheme.replace_table(v, rows);
    }
    (net, scheme)
}

/// `GraphRouteError` as three numbers: kind tag and the vertices it names.
fn error_words(err: GraphRouteError) -> [u64; 3] {
    match err {
        GraphRouteError::NoCommonTree => [0, 0, 0],
        GraphRouteError::Stuck(v) => [1, u64::from(v.0), 0],
        GraphRouteError::BadForward { from, to } => [2, u64::from(from.0), u64::from(to.0)],
        GraphRouteError::Loop => [3, 0, 0],
    }
}

#[test]
fn rule_drops_and_their_errors_are_pinned() {
    // Recorded on the commit before the packet plane kept one run ledger in
    // place of per-vertex outputs: the ids the rule dropped were pinned, but
    // not why, and no pinned run dropped any.
    let (net, scheme) = forged_er256();
    let want = [
        (
            pin(
                (543, 8721, 64005, 11, true, 3609239655, 7540),
                [2904601571, 1555448979, 2416261710, 1046319981, 85595001],
            ),
            3885730464,
        ),
        (
            pin(
                (533, 8561, 63535, 11, true, 1378337678, 7497),
                [3937864092, 3525390062, 3897658864, 1556485701, 2884623241],
            ),
            1400774514,
        ),
    ];
    for (policy, want) in [DropPolicy::TailDrop, DropPolicy::OldestDrop]
        .into_iter()
        .zip(want)
    {
        let injections = schedule(
            &net,
            &scheme,
            WorkloadKind::Uniform,
            ArrivalKind::Bernoulli,
            3.0,
            48,
        );
        let sim = simulate(
            &net,
            &scheme,
            &injections,
            &SimConfig {
                queue_cap: 2,
                policy,
                max_rounds: 48 + 4096,
                threads: 1,
                profile: false,
            },
        );
        // Every way the rule can drop a packet happened.
        for kind in 1..=3 {
            assert!(
                sim.stuck_errors.iter().any(|&e| error_words(e)[0] == kind),
                "{policy:?}: no error of kind {kind}"
            );
        }
        let errors_crc = crc_of(sim.stuck_errors.iter().flat_map(|&e| error_words(e)));
        let got = traffic_pin(&net, &scheme, &injections, policy, 48 + 4096);
        assert_eq!((got, errors_crc), want, "{policy:?}");
    }
}

#[test]
fn traced_batch_journeys_are_pinned() {
    // Recorded on the commit before the packet plane kept one run ledger in
    // place of per-vertex outputs. A traced many-pair `send` over the forged
    // scheme: every journey, whole or cut short by the rule, and every
    // outcome with its error.
    let (net, scheme) = forged_er256();
    let mut rng = ChaCha8Rng::seed_from_u64(513);
    let n = net.len() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..256)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let opts = packet::SendOptions {
        trace: true,
        profile: false,
    };
    let sent = packet::send(&net, &scheme, &pairs, opts);
    let outcomes_crc = crc_of(sent.outcomes.iter().flat_map(|o| match *o {
        packet::PacketOutcome::Delivered { round, weight } => [4, round, weight],
        packet::PacketOutcome::Failed(err) => error_words(err),
    }));
    let traces_crc = crc_of(sent.traces.iter().flat_map(|t| {
        let Some(trace) = t else {
            return vec![0];
        };
        let head = [
            1,
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
        head.into_iter().chain(hops).collect()
    }));
    assert!(sent.dropped() > 0 && sent.delivered_count() > 0);
    assert_eq!(
        engine_pin(&sent.stats),
        engine((2029, 21753, 163651, 11, true, 1821098201, 18000))
    );
    assert_eq!((outcomes_crc, traces_crc), (3888986175, 3192304089));
}

/// A 384-vertex preferential-attachment graph and its highest-degree
/// vertex (the lowest id among ties), the hub.
fn pa384_hub() -> (Network, RoutingScheme, VertexId) {
    let mut rng = ChaCha8Rng::seed_from_u64(7105);
    let (net, scheme) = network(
        generators::preferential_attachment(384, 2, 1..=100, &mut rng),
        3,
    );
    let g = net.graph();
    let hub = g
        .vertices()
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0)))
        .expect("non-empty");
    (net, scheme, hub)
}

#[test]
fn hub_sink_traffic_is_pinned() {
    // Recorded on the commit before a packet-plane vertex kept only its busy
    // ports and a cursor into one flat injection schedule. Eight uniform
    // sources a round send to the hub for 64 rounds: its neighbours' ports
    // toward it back up, overflow at either capacity, and drain in port
    // order.
    let (net, scheme, hub) = pa384_hub();
    let n = net.len() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(7106);
    let mut injections: Vec<Injection> = Vec::new();
    for round in 0..64 {
        for _ in 0..8 {
            let src = VertexId(rng.gen_range(0..n));
            if let Some(plan) = packet::plan(&scheme, src, hub) {
                let id = injections.len() as u32;
                injections.push((round, src, TrafficPacket::from_plan(id, plan)));
            }
        }
    }
    let want = [
        (
            2,
            DropPolicy::TailDrop,
            pin(
                (70, 1642, 9410, 7, true, 3964750440, 2064),
                [80690315, 2396826388, 1271400772, 0, 3522479023],
            ),
        ),
        (
            2,
            DropPolicy::OldestDrop,
            pin(
                (70, 1642, 9404, 7, true, 3964750440, 2064),
                [1950480256, 3553320196, 913295595, 0, 3512375551],
            ),
        ),
        (
            8,
            DropPolicy::TailDrop,
            pin(
                (79, 1723, 9839, 7, true, 1956813067, 2150),
                [2875816983, 2040239340, 90906657, 0, 90470718],
            ),
        ),
        (
            8,
            DropPolicy::OldestDrop,
            pin(
                (79, 1723, 9839, 7, true, 1956813067, 2150),
                [2875816983, 1898637831, 3754016949, 0, 90470718],
            ),
        ),
    ];
    for (queue_cap, policy, want) in want {
        let sim = simulate(
            &net,
            &scheme,
            &injections,
            &SimConfig {
                queue_cap,
                policy,
                max_rounds: 64 + 4096,
                threads: 1,
                profile: false,
            },
        );
        assert!(!sim.dropped_capacity.is_empty(), "{queue_cap} {policy:?}");
        assert_eq!(sim_pin(&sim), want, "{queue_cap} {policy:?}");
    }

    // Every other vertex sends the hub one traced packet at round 0, into
    // unbounded queues.
    let pairs: Vec<(VertexId, VertexId)> = net
        .graph()
        .vertices()
        .filter(|&v| v != hub)
        .map(|v| (v, hub))
        .collect();
    let opts = packet::SendOptions {
        trace: true,
        profile: false,
    };
    let sent = packet::send(&net, &scheme, &pairs, opts);
    assert_eq!(sent.delivered_count(), pairs.len());
    let outcomes_crc = crc_of(sent.deliveries().flat_map(|d| {
        let (round, weight) = d.expect("delivered");
        [round, weight]
    }));
    let traces_crc = crc_of(sent.traces.iter().flatten().flat_map(|trace| {
        trace.hops.iter().flat_map(|h| {
            [
                h.round,
                u64::from(h.vertex),
                h.port as u64,
                u64::from(h.next),
                h.queue_delay,
                h.weight,
            ]
        })
    }));
    let mut edges = sent.edge_load().hottest(usize::MAX);
    edges.sort_by_key(|&(e, _)| e);
    let edge_load_crc = crc_of(
        edges
            .iter()
            .flat_map(|&((u, v), l)| [u64::from(u), u64::from(v), l.packets, l.words]),
    );
    assert_eq!(
        engine_pin(&sent.stats),
        engine((113, 1438, 8282, 7, true, 1462085047, 1529))
    );
    assert_eq!(
        (outcomes_crc, traces_crc, edge_load_crc),
        (4088131904, 3071313918, 4160824927)
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
