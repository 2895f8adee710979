//! End-to-end flight-recorder invariants, across `obs::flight`,
//! `core::packet`, and the congestion engine:
//!
//! * a traced send is observationally identical to its untraced twin —
//!   same outcome, rounds, words, and memory peaks;
//! * a delivered trace reconstructs the journey exactly: hop count equals
//!   the delivery round (minus queueing), accumulated weight equals the
//!   central router's answer, and the ascent/descent decomposition
//!   partitions both;
//! * the edge/vertex heatmaps account for every word the engine delivered,
//!   and a heatmap is the `BTreeMap` fold of the cells it was built from;
//! * the whole record set survives a JSONL write → read → parse round trip.

use std::collections::BTreeMap;

use graphs::{GraphBuilder, VertexId};
use obs::flight::{edge, EdgeLoadMap, Load, PacketTrace, VertexLoadMap};
use obs::json::Value;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::packet::{self, SendOptions};
use routing::{build, router, BuildParams};

const TRACED: SendOptions = SendOptions {
    trace: true,
    profile: false,
};

fn setup(n: usize, seed: u64) -> (congest::Network, routing::RoutingScheme) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = graphs::generators::erdos_renyi_connected(n, 3.5 / n as f64, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(3), &mut rng);
    (congest::Network::new(g), built.scheme)
}

#[test]
fn traced_send_agrees_with_untraced_and_central() {
    let (net, scheme) = setup(120, 41);
    for (s, t) in [(0u32, 119u32), (17, 64), (99, 3), (5, 5)] {
        let pair = [(VertexId(s), VertexId(t))];
        let plain = packet::send(&net, &scheme, &pair, SendOptions::default());
        let flight = packet::send(&net, &scheme, &pair, TRACED);
        assert_eq!(plain.outcomes, flight.outcomes);
        assert_eq!(plain.stats.rounds, flight.stats.rounds);
        assert_eq!(plain.stats.words, flight.stats.words);
        assert_eq!(
            plain.stats.memory.max_peak(),
            flight.stats.memory.max_peak()
        );
        let (rounds, weight) = plain.delivery(0).expect("connected");
        let trace = flight.traces[0]
            .as_ref()
            .expect("delivered packets are traced");
        assert_eq!(trace.hop_count() as u64, rounds);
        assert_eq!(trace.total_weight(), weight);
        let central = router::route(net.graph(), &scheme, VertexId(s), VertexId(t)).unwrap();
        assert_eq!(trace.total_weight(), central.weight);
        assert_eq!(trace.hop_count(), central.hops());
        // The recorded ports really are the edges of the walked path.
        for (hop, pair) in trace.hops.iter().zip(central.path.windows(2)) {
            assert_eq!(hop.vertex, pair[0].0);
            assert_eq!(hop.next, pair[1].0);
            assert_eq!(net.neighbor_at(pair[0], hop.port), pair[1]);
        }
    }
}

#[test]
fn batch_heatmaps_account_for_every_engine_word() {
    let (net, scheme) = setup(90, 42);
    let pairs: Vec<(VertexId, VertexId)> = (0..70u32)
        .map(|i| (VertexId(i % 90), VertexId((i * 31 + 17) % 90)))
        .filter(|(a, b)| a != b)
        .collect();
    let flight = packet::send(&net, &scheme, &pairs, TRACED);
    assert_eq!(flight.dropped(), 0);
    assert_eq!(flight.undeliverable(), 0);
    // Every word the engine's ledger saw is attributed to exactly one edge
    // and one forwarding vertex.
    assert_eq!(flight.edge_load().total_words(), flight.stats.words);
    assert_eq!(flight.vertex_load().total_words(), flight.stats.words);
    assert_eq!(flight.edge_load().total_packets(), flight.stats.messages);
    // And per packet, delivery time = hops + queueing.
    for (id, trace) in flight.traces.iter().enumerate() {
        let trace = trace.as_ref().expect("all pairs routable");
        let (round, weight) = flight.delivery(id).expect("delivered");
        assert_eq!(round, trace.hop_count() as u64 + trace.queueing_delay());
        let d = trace.decomposition();
        assert_eq!(d.ascent_weight + d.descent_weight, weight);
    }
}

#[test]
fn repeated_pairs_keep_their_own_traces() {
    // Three copies of one pair among other traffic: they share every edge,
    // so each queues behind the previous one and no two journeys are alike.
    // Every trace must sit at the submission index of the packet it follows.
    let (net, scheme) = setup(90, 43);
    let hot = (VertexId(4), VertexId(77));
    let pairs = [
        hot,
        (VertexId(9), VertexId(30)),
        hot,
        (VertexId(61), VertexId(4)),
        hot,
    ];
    let flight = packet::send(&net, &scheme, &pairs, TRACED);
    assert_eq!(
        flight.outcomes,
        packet::send(&net, &scheme, &pairs, SendOptions::default()).outcomes
    );
    let mut hot_rounds = Vec::new();
    for (id, &(src, dst)) in pairs.iter().enumerate() {
        let trace = flight.traces[id].as_ref().expect("injected");
        assert_eq!((trace.src, trace.dst), (src.0, dst.0), "packet {id}");
        let (round, weight) = flight.delivery(id).expect("connected");
        assert_eq!(trace.delivered_round, Some(round), "packet {id}");
        assert_eq!(trace.total_weight(), weight, "packet {id}");
        assert_eq!(
            round,
            trace.hop_count() as u64 + trace.queueing_delay(),
            "packet {id}"
        );
        if (src, dst) == hot {
            hot_rounds.push(round);
        }
    }
    // Same path, one packet per edge per round: strictly staggered arrivals.
    assert!(hot_rounds.windows(2).all(|w| w[0] < w[1]), "{hot_rounds:?}");
}

#[test]
fn flight_records_survive_a_report_round_trip() {
    let (net, scheme) = setup(60, 43);
    let pairs: Vec<(VertexId, VertexId)> = (1..30u32).map(|i| (VertexId(i), VertexId(0))).collect();
    let flight = packet::send(&net, &scheme, &pairs, TRACED);
    let vertex_load = flight.vertex_load();

    let mut rec = obs::Recorder::new();
    let span = rec.begin("flight-test/batch");
    rec.charge(&obs::Counters {
        rounds: flight.stats.rounds,
        messages: flight.stats.messages,
        words: flight.stats.words,
        broadcasts: 0,
    });
    rec.end(span);
    rec.add_record(flight.edge_load().to_value(&[]));
    rec.add_record(vertex_load.to_value(&[]));
    for trace in flight.traces.iter().flatten().take(3) {
        rec.add_record(trace.to_value());
    }

    let path = std::env::temp_dir().join(format!("drt-flight-test-{}.jsonl", std::process::id()));
    rec.write_report(&path, "flight-test", &[])
        .expect("written");
    let records = obs::read_report(&path).expect("parses");
    std::fs::remove_file(&path).ok();

    let of_type = |ty: &str| {
        records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some(ty))
            .collect::<Vec<_>>()
    };
    let edge_records = of_type("edge_load");
    assert_eq!(edge_records.len(), 1);
    let edges = EdgeLoadMap::from_value(edge_records[0]).expect("valid edge_load");
    assert_eq!(edges.total_words(), flight.edge_load().total_words());
    let vertex_records = of_type("vertex_load");
    assert_eq!(vertex_records.len(), 1);
    let verts = VertexLoadMap::from_value(vertex_records[0]).expect("valid vertex_load");
    assert_eq!(verts.total_words(), vertex_load.total_words());
    for (i, r) in of_type("packet_trace").iter().enumerate() {
        let parsed = PacketTrace::from_value(r).expect("valid packet_trace");
        assert_eq!(&parsed, flight.traces[i].as_ref().unwrap());
    }
    // The summary counts the extra records.
    let summary = records.last().unwrap();
    assert_eq!(
        summary.get("records").and_then(Value::as_u64),
        Some(2 + 3),
        "summary counts the flight records"
    );
}

/// A connected random weighted graph, as in `tests/properties.rs`.
fn arb_graph(max_n: usize) -> impl Strategy<Value = graphs::Graph> {
    (4..max_n)
        .prop_flat_map(|n| {
            let tree_parents = proptest::collection::vec(0..u32::MAX, n - 1);
            let tree_weights = proptest::collection::vec(1u64..50, n - 1);
            let extras = proptest::collection::vec((0..u32::MAX, 0..u32::MAX, 1u64..50), 0..n);
            (Just(n), tree_parents, tree_weights, extras)
        })
        .prop_map(|(n, parents, weights, extras)| {
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                let p = (parents[v - 1] as usize) % v;
                b.add_edge(VertexId(p as u32), VertexId(v as u32), weights[v - 1]);
            }
            for (x, y, w) in extras {
                let u = (x as usize) % n;
                let v = (y as usize) % n;
                if u != v && !b.has_edge(VertexId(u as u32), VertexId(v as u32)) {
                    b.add_edge(VertexId(u as u32), VertexId(v as u32), w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn traced_batches_reconstruct_deliveries_on_random_graphs(
        g in arb_graph(36),
        pair_sels in proptest::collection::vec((0..u32::MAX, 0..u32::MAX), 1..24),
        seed in 0..u64::MAX,
    ) {
        let n = g.num_vertices() as u32;
        let pairs: Vec<(VertexId, VertexId)> = pair_sels
            .into_iter()
            .map(|(a, b)| (VertexId(a % n), VertexId(b % n)))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = congest::Network::new(g);

        let plain = packet::send(&net, &built.scheme, &pairs, SendOptions::default());
        let flight = packet::send(&net, &built.scheme, &pairs, TRACED);

        // Tracing is invisible to the simulation.
        prop_assert_eq!(&plain.outcomes, &flight.outcomes);
        prop_assert_eq!(plain.stats.rounds, flight.stats.rounds);
        prop_assert_eq!(plain.stats.words, flight.stats.words);
        prop_assert_eq!(
            plain.stats.memory.max_peak(),
            flight.stats.memory.max_peak()
        );

        // Heatmaps account for every delivered word, drops included.
        prop_assert_eq!(flight.edge_load().total_words(), flight.stats.words);
        prop_assert_eq!(flight.vertex_load().total_words(), flight.stats.words);

        // Per packet: a trace exists iff the packet was injected, and a
        // delivered trace explains its delivery round and weight exactly.
        for (id, outcome) in flight.outcomes.iter().enumerate() {
            match outcome {
                packet::PacketOutcome::Failed(router::GraphRouteError::NoCommonTree) => {
                    prop_assert!(flight.traces[id].is_none());
                }
                packet::PacketOutcome::Failed(_) => {
                    let trace = flight.traces[id].as_ref().expect("partial trace kept");
                    prop_assert!(trace.delivered_round.is_none());
                }
                packet::PacketOutcome::Delivered { round, weight } => {
                    let trace = flight.traces[id].as_ref().expect("trace kept");
                    prop_assert_eq!(trace.delivered_round, Some(*round));
                    prop_assert_eq!(trace.total_weight(), *weight);
                    prop_assert_eq!(
                        *round,
                        trace.hop_count() as u64 + trace.queueing_delay()
                    );
                    let d = trace.decomposition();
                    prop_assert_eq!(d.ascent_weight + d.descent_weight, *weight);
                    prop_assert_eq!(d.ascent_hops + d.descent_hops, trace.hop_count());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A heatmap collected from any cell list — keys repeated and out of
    /// order, an edge in both orientations — is the `BTreeMap` fold of that
    /// list, and `hottest` ranks by words, ties going to the smaller key.
    #[test]
    fn load_maps_are_the_fold_of_their_cells(
        cells in proptest::collection::vec((0u32..6, 0u32..6, 0u64..4, 0u64..40), 0..40),
    ) {
        let load = |packets, words| Load { packets, words };
        let edges: EdgeLoadMap =
            cells.iter().map(|&(a, b, p, w)| (edge(a, b), load(p, w))).collect();
        let vertices: VertexLoadMap = cells.iter().map(|&(a, _, p, w)| (a, load(p, w))).collect();
        let mut edge_fold = BTreeMap::<(u32, u32), Load>::new();
        let mut vertex_fold = BTreeMap::<u32, Load>::new();
        for &(a, b, p, w) in &cells {
            for cell in [
                edge_fold.entry((a.min(b), a.max(b))).or_default(),
                vertex_fold.entry(a).or_default(),
            ] {
                cell.packets += p;
                cell.words += w;
            }
        }

        let folded: EdgeLoadMap = edge_fold.iter().map(|(&k, &l)| (k, l)).collect();
        prop_assert_eq!(&edges, &folded);
        prop_assert_eq!(edges.len(), edge_fold.len());
        prop_assert_eq!(edges.total_words(), edge_fold.values().map(|l| l.words).sum::<u64>());
        prop_assert_eq!(edges.total_packets(), edge_fold.values().map(|l| l.packets).sum::<u64>());
        for (&(a, b), &l) in &edge_fold {
            prop_assert_eq!(edges.load(edge(b, a)), Some(l));
        }
        let mut cells_by_key = edges.hottest(usize::MAX);
        cells_by_key.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(cells_by_key, edge_fold.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(&EdgeLoadMap::from_value(&edges.to_value(&[])).unwrap(), &edges);

        let folded: VertexLoadMap = vertex_fold.iter().map(|(&k, &l)| (k, l)).collect();
        prop_assert_eq!(&vertices, &folded);
        for (&v, &l) in &vertex_fold {
            prop_assert_eq!(vertices.load(v), Some(l));
        }
        prop_assert_eq!(&VertexLoadMap::from_value(&vertices.to_value(&[])).unwrap(), &vertices);

        let ranked = edges.hottest(usize::MAX);
        for pair in ranked.windows(2) {
            let ((ka, la), (kb, lb)) = (pair[0], pair[1]);
            prop_assert!(la.words > lb.words || (la.words == lb.words && ka < kb), "{:?}", ranked);
        }
        prop_assert_eq!(edges.hottest(3), ranked.iter().copied().take(3).collect::<Vec<_>>());
    }
}
