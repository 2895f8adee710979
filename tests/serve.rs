//! End-to-end contracts of the query-serving plane (`crates/serve`).
//!
//! The serving pool's answers are never trusted on their own: with the
//! cross-check rate pinned to 1.0 every served answer is held to the ground
//! truth of the graph and the tables (`serve::check_answer`), on random
//! graphs, at 1, 2, and 8 worker threads, and one sampled pair per case is
//! sent through all four planes, which must agree hop for hop. The simulated
//! summary columns must be invariant across thread counts and loop
//! disciplines; a snapshot loaded back from the checksummed persistence
//! container must serve the exact answer stream of the in-memory build; and
//! `serve_summary` records must survive the JSONL report channel with their
//! partition identities re-validated on parse.

use std::path::PathBuf;

use graphs::{generators, GraphBuilder, VertexId};
use obs::json::Value;
use obs::serve::ServeSummary;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::{build, packet, persist, router, BuildParams, Mode};
use serve::query::answer_query;
use serve::{
    generate_stream, run_closed, run_open, Answer, Query, QueryKind, ServeConfig, ServePool,
    ServeWorkload, Snapshot,
};
use traffic::sim::{simulate, DropPolicy, SimConfig};
use traffic::{TrafficPacket, Workload, WorkloadKind};

/// Thread counts checked against the serial run.
const THREADS: [usize; 2] = [2, 8];

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drt-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A connected random weighted graph from a compact description (same
/// idiom as `tests/traffic_steady.rs`).
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

fn workload_from(sel: u8) -> ServeWorkload {
    match sel % 3 {
        0 => ServeWorkload::Uniform,
        1 => ServeWorkload::Hotspot,
        _ => ServeWorkload::Adversarial,
    }
}

/// The thread-invariant simulated columns of a summary, as one tuple.
#[allow(clippy::type_complexity)]
fn sim_columns(s: &ServeSummary) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        s.route_queries,
        s.distance_queries,
        s.trace_queries,
        s.answered,
        s.unreachable,
        s.errors,
        s.checks,
        s.mismatches,
        s.total_weight,
        s.total_hops,
        s.answer_checksum,
    )
}

/// One pair through all four planes — the central router, the serve plane
/// (route and trace), a single `packet::send`, and a one-injection traffic
/// simulation — which must agree on tree, hops, weight and path, on a path
/// that is a walk in `G` no lighter than the true distance.
fn four_planes_agree(
    snap: &Snapshot,
    src: VertexId,
    dst: VertexId,
) -> Result<(), proptest::TestCaseError> {
    let (g, scheme) = (&snap.graph, &snap.scheme);
    let central = router::route(g, scheme, src, dst).expect("connected graph");
    prop_assert_eq!(central.path.first(), Some(&src));
    prop_assert_eq!(central.path.last(), Some(&dst));
    let edge_sum: Option<u64> = central
        .path
        .windows(2)
        .map(|e| g.edge_weight(e[0], e[1]))
        .sum();
    prop_assert_eq!(edge_sum, Some(central.weight));
    let exact = graphs::shortest_paths::dijkstra(g, src)[dst.index()];
    prop_assert!(central.weight >= exact, "{} < {exact}", central.weight);
    let (hops, level) = (central.hops() as u32, central.level as u32);

    let oracle = DistanceOracle::new(scheme);
    let mut paths = Vec::new();
    let ask = |kind, paths: &mut Vec<VertexId>| {
        answer_query(snap, &oracle, Query { kind, src, dst }, paths)
    };
    prop_assert_eq!(
        ask(QueryKind::Route, &mut paths),
        Answer::Route {
            weight: central.weight,
            hops,
            tree_root: central.tree_root,
            level,
        }
    );
    prop_assert_eq!(
        ask(QueryKind::Trace, &mut paths),
        Answer::Trace {
            weight: central.weight,
            hops,
            tree_root: central.tree_root,
            level,
            path_start: 0,
            path_len: hops + 1,
        }
    );
    prop_assert_eq!(&paths, &central.path);

    let net = congest::Network::new(g.clone());
    let sent = packet::send(&net, scheme, &[(src, dst)], Default::default());
    prop_assert_eq!(sent.delivery(0), Some((u64::from(hops), central.weight)));

    let plan = packet::plan(scheme, src, dst).expect("connected graph");
    if src != dst {
        // (The central router answers a self-route without choosing a tree.)
        prop_assert_eq!(plan.tree_root, central.tree_root);
    }
    let sim = simulate(
        &net,
        scheme,
        &[(0, src, TrafficPacket::from_plan(0, plan))],
        &SimConfig {
            queue_cap: 1,
            policy: DropPolicy::TailDrop,
            max_rounds: 1024,
            threads: 1,
            profile: false,
        },
    );
    prop_assert_eq!(sim.deliveries.len(), 1);
    let arrived = sim.deliveries[0];
    prop_assert_eq!(
        (arrived.hops, arrived.weight, arrived.round),
        (hops, central.weight, u64::from(hops))
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With every answer cross-checked, the pool never serves an answer the
    /// graph and the tables do not bear out — on random graphs, workloads,
    /// seeds, and at every thread count — and the four planes agree.
    #[test]
    fn served_answers_match_the_central_plane(
        g in arb_graph(28),
        seed in 0..u64::MAX,
        workload_sel in 0..3u8,
        k in 2..=3usize,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(k), &mut rng);
        let snap = Snapshot::share(g, built.scheme);
        let n = snap.graph.num_vertices() as u64;
        let pick = |salt: u64| VertexId((seed.rotate_left(17).wrapping_mul(salt) % n) as u32);
        four_planes_agree(&snap, pick(3), pick(5))?;
        let config = ServeConfig {
            workload: workload_from(workload_sel),
            queries: 192,
            batch: 17, // deliberately ragged: chunks must not align with batches
            seed,
            check_rate: 1.0,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&snap, &config);
        for threads in [1, 2, 8] {
            let cfg = ServeConfig { threads, ..config };
            let mut pool = ServePool::start(snap.clone(), threads);
            let summary = run_closed(&mut pool, &stream, &cfg);
            prop_assert!(summary.consistent());
            prop_assert_eq!(summary.queries, 192);
            // Rate 1.0 checks every answer; any divergence from the central
            // plane at this thread count lands in `mismatches`.
            prop_assert_eq!(summary.checks, 192);
            prop_assert_eq!(summary.mismatches, 0);
            prop_assert_eq!(summary.errors, 0);
        }
    }

    /// The simulated summary columns are a pure function of
    /// `(snapshot, stream, config)`: identical across worker-thread counts
    /// and across the closed/open loop disciplines.
    #[test]
    fn summaries_are_thread_count_and_mode_invariant(
        g in arb_graph(24),
        seed in 0..u64::MAX,
        workload_sel in 0..3u8,
        check_centi in 0u64..=100,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let snap = Snapshot::share(g, built.scheme);
        let config = ServeConfig {
            workload: workload_from(workload_sel),
            queries: 128,
            batch: 23,
            seed,
            check_rate: check_centi as f64 / 100.0,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&snap, &config);
        let mut pool = ServePool::start(snap.clone(), 1);
        let serial = run_closed(&mut pool, &stream, &config);
        // An open loop offered an absurd rate is a closed loop with pacing
        // arithmetic in the way: same stream, same sim columns.
        let open = run_open(&mut pool, &stream, &config, 1e12);
        prop_assert_eq!(sim_columns(&serial), sim_columns(&open));
        for threads in THREADS {
            let cfg = ServeConfig { threads, ..config };
            let mut pool = ServePool::start(snap.clone(), threads);
            let par = run_closed(&mut pool, &stream, &cfg);
            prop_assert_eq!(sim_columns(&serial), sim_columns(&par));
        }
    }
}

/// A snapshot rehydrated from the checksummed on-disk container serves the
/// byte-identical answer stream of the freshly built scheme.
#[test]
fn persisted_snapshot_serves_identical_answers() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E12_ED15);
    let g = generators::erdos_renyi_connected(72, 3.0 / 72.0, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);

    let path = temp_path("scheme.bin");
    persist::save_scheme_to(&path, &built.scheme).unwrap();
    let loaded = persist::load_scheme_from(&path).unwrap();

    let config = ServeConfig {
        queries: 512,
        batch: 64,
        threads: 2,
        check_rate: 1.0,
        ..ServeConfig::default()
    };
    let run = |scheme: routing::RoutingScheme| {
        let snap = Snapshot::share(g.clone(), scheme);
        let stream = generate_stream(&snap, &config);
        let mut pool = ServePool::start(snap, config.threads);
        run_closed(&mut pool, &stream, &config)
    };
    let fresh = run(built.scheme);
    let rehydrated = run(loaded);
    assert_eq!(sim_columns(&fresh), sim_columns(&rehydrated));
    assert_eq!(rehydrated.mismatches, 0);
    assert_eq!(rehydrated.errors, 0);
}

/// The pairs the distance oracle estimates worst, at every `k`, in both
/// modes, on three graph families: each is served as a route and as a trace
/// three times — on a scheme no walk has touched, again once its walks have
/// learned their row links, and on a clone, which learns its own — and must
/// answer the same each time, with a traced path that is a walk in `G` of
/// the served weight, within `4k − 3` of the Dijkstra distance.
#[test]
fn mined_worst_pairs_route_within_the_stretch_bound_cold_warm_and_cloned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E12_0054);
    let graphs = [
        generators::erdos_renyi_connected(300, 3.0 / 300.0, 1..=100, &mut rng),
        generators::torus(15, 20, 1..=100, &mut rng),
        generators::preferential_attachment(300, 2, 1..=100, &mut rng),
    ];
    for g in &graphs {
        for k in 2..=4usize {
            for mode in [Mode::Centralized, Mode::DistributedLowMemory] {
                let params = BuildParams::new(k).with_mode(mode);
                let scheme = build(g, &params, &mut rng).scheme;
                let seed = 0x5E12 + k as u64;
                let pairs = Workload::prepare(WorkloadKind::WorstPairs, g, &scheme, seed)
                    .pool()
                    .to_vec();
                assert!(!pairs.is_empty());
                let snap = Snapshot::share(g.clone(), scheme);
                let serve_all = |snap: &Snapshot| {
                    let oracle = DistanceOracle::new(&snap.scheme);
                    let mut paths = Vec::new();
                    let answers: Vec<_> = pairs
                        .iter()
                        .flat_map(|&(src, dst)| {
                            [QueryKind::Route, QueryKind::Trace].map(|kind| Query {
                                kind,
                                src,
                                dst,
                            })
                        })
                        .map(|q| answer_query(snap, &oracle, q, &mut paths))
                        .collect();
                    (answers, paths)
                };
                let cold = serve_all(&snap);
                assert_eq!(serve_all(&snap), cold, "warm, k = {k}, {mode:?}");
                let clone = Snapshot::share(snap.graph.clone(), snap.scheme.clone());
                assert_eq!(serve_all(&clone), cold, "clone, k = {k}, {mode:?}");
                let (answers, paths) = cold;
                for (&(src, dst), answer) in pairs.iter().zip(answers.chunks(2)) {
                    let Answer::Route { weight, hops, .. } = answer[0] else {
                        panic!("{src} → {dst}: {:?}", answer[0]);
                    };
                    let Answer::Trace {
                        weight: traced,
                        path_start,
                        path_len,
                        ..
                    } = answer[1]
                    else {
                        panic!("{src} → {dst}: {:?}", answer[1]);
                    };
                    assert_eq!((traced, path_len), (weight, hops + 1));
                    let path = &paths[path_start as usize..(path_start + path_len) as usize];
                    assert_eq!((path[0], path[path.len() - 1]), (src, dst));
                    let walked: Option<u64> =
                        path.windows(2).map(|e| g.edge_weight(e[0], e[1])).sum();
                    assert_eq!(walked, Some(weight), "{src} → {dst} is not a walk in G");
                    let exact = graphs::shortest_paths::dijkstra(g, src)[dst.index()];
                    let bound = (4 * k as u64 - 3) * exact;
                    assert!(
                        exact <= weight && weight <= bound,
                        "k = {k}, {mode:?}: {src} → {dst} routed {weight}, distance {exact}"
                    );
                }
            }
        }
    }
}

/// Degenerate networks past one vertex — two components, one edge, a
/// path, a star whose hub is every query's target — served in every query
/// kind with every answer cross-checked: no mismatch, `Unreachable`
/// exactly for the pairs in different components, and the same simulated
/// columns on one thread and on three.
#[test]
fn degenerate_networks_serve_every_query_kind() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E12_DE6E);
    let mut two = GraphBuilder::new(7);
    for (u, v, w) in [
        (0, 1, 3),
        (1, 2, 1),
        (2, 0, 5),
        (3, 4, 2),
        (4, 5, 2),
        (5, 6, 9),
    ] {
        two.add_edge(VertexId(u), VertexId(v), w);
    }
    let component = |v: VertexId| v.0 < 3;
    let star = generators::star(9, 1..=9, &mut rng);
    let cases = [
        (two.build(), false),
        (generators::path(2, 1..=9, &mut rng), false),
        (generators::path(9, 1..=9, &mut rng), false),
        (star, true),
    ];
    for (g, into_hub) in cases {
        let n = g.num_vertices() as u32;
        let scheme = build(&g, &BuildParams::new(2), &mut rng).scheme;
        let snap = Snapshot::share(g, scheme);
        let split = n == 7;
        let stream: Vec<Query> = (0..n)
            .flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t))))
            .filter(|&(_, dst)| !into_hub || dst == VertexId(0))
            .flat_map(|(src, dst)| {
                [QueryKind::Route, QueryKind::Distance, QueryKind::Trace].map(|kind| Query {
                    kind,
                    src,
                    dst,
                })
            })
            .collect();
        let oracle = DistanceOracle::new(&snap.scheme);
        let mut paths = Vec::new();
        for &q in &stream {
            let answer = answer_query(&snap, &oracle, q, &mut paths);
            let apart = split && component(q.src) != component(q.dst);
            assert_eq!(
                answer == Answer::Unreachable,
                apart,
                "n = {n}: {q:?} → {answer:?}"
            );
        }
        let config = ServeConfig {
            queries: stream.len(),
            batch: 5,
            check_rate: 1.0,
            ..ServeConfig::default()
        };
        let summaries: Vec<ServeSummary> = [1, 3]
            .map(|threads| {
                let cfg = ServeConfig { threads, ..config };
                run_closed(&mut ServePool::start(snap.clone(), threads), &stream, &cfg)
            })
            .into();
        for s in &summaries {
            assert_eq!(
                (s.checks, s.mismatches, s.errors),
                (stream.len() as u64, 0, 0),
                "n = {n}"
            );
        }
        assert_eq!(
            sim_columns(&summaries[0]),
            sim_columns(&summaries[1]),
            "n = {n}"
        );
    }
}

/// A `serve_summary` record written through a [`obs::Recorder`] report
/// survives the JSONL channel byte-exactly, and parsing re-validates it.
#[test]
fn serve_summary_round_trips_through_a_report() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E12_E0B5);
    let g = generators::erdos_renyi_connected(48, 3.0 / 48.0, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let snap = Snapshot::share(g, built.scheme);
    let config = ServeConfig {
        queries: 256,
        threads: 2,
        check_rate: 0.25,
        ..ServeConfig::default()
    };
    let stream = generate_stream(&snap, &config);
    let mut pool = ServePool::start(snap, config.threads);
    let summary = run_closed(&mut pool, &stream, &config);

    let path = temp_path("serve_report.jsonl");
    let mut rec = obs::Recorder::new();
    rec.add_record(summary.to_value(&[("sweep", Value::from(0u64))]));
    rec.write_report(
        &path,
        "serve",
        &[("queries", Value::from(config.queries as u64))],
    )
    .unwrap();

    let records = obs::read_report(&path).unwrap();
    let found: Vec<ServeSummary> = records
        .iter()
        .filter(|r| r.get("type").and_then(Value::as_str) == Some("serve_summary"))
        .map(|r| ServeSummary::from_value(r).unwrap())
        .collect();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0], summary, "JSONL channel must be lossless");
    // The trailing run_summary still parses and carries the extra field.
    let tail = records.last().unwrap();
    assert_eq!(
        tail.get("type").and_then(Value::as_str),
        Some("run_summary")
    );
    assert_eq!(tail.get("queries").and_then(Value::as_u64), Some(256));
}

/// Parsing re-validates the partition identities: a record whose outcome
/// counters were tampered with fails loudly even though every field is
/// present and well-typed.
#[test]
fn tampered_serve_summary_fails_revalidation() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E12_EBAD);
    let g = generators::erdos_renyi_connected(32, 3.0 / 32.0, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let snap = Snapshot::share(g, built.scheme);
    let config = ServeConfig {
        queries: 64,
        ..ServeConfig::default()
    };
    let stream = generate_stream(&snap, &config);
    let mut pool = ServePool::start(snap, 1);
    let summary = run_closed(&mut pool, &stream, &config);
    assert!(ServeSummary::from_value(&summary.to_value(&[])).is_ok());

    let mut tampered = summary.clone();
    tampered.answered += 1; // outcomes no longer partition the stream
    let err = ServeSummary::from_value(&tampered.to_value(&[])).unwrap_err();
    assert!(err.to_string().contains("partition"), "{err}");

    let mut overflow = summary;
    overflow.checks = overflow.queries + 1; // more checks than queries
    assert!(ServeSummary::from_value(&overflow.to_value(&[])).is_err());
}

/// `drt serve --threads` sizes the pool: a count that is not an integer is
/// an error with a nonzero exit, never a silent "all cores", while `0`
/// still asks for every core.
#[test]
fn drt_serve_rejects_a_bad_thread_count() {
    use std::process::Command;
    let drt = env!("CARGO_BIN_EXE_drt");
    let graph = temp_path("thread-count-graph.txt");
    let generated = Command::new(drt)
        .args(["generate", "er", "48", "3"])
        .output()
        .expect("drt generate runs");
    assert!(generated.status.success());
    std::fs::write(&graph, &generated.stdout).unwrap();
    let serve = |threads: &str| {
        Command::new(drt)
            .arg("serve")
            .arg(&graph)
            .args(["--queries", "64", "--threads", threads])
            .output()
            .expect("drt serve runs")
    };
    let bad = serve("abc");
    assert!(!bad.status.success(), "--threads abc must fail");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("bad thread count 'abc'"), "{stderr}");
    let all = serve("0");
    assert!(
        all.status.success(),
        "{}",
        String::from_utf8_lossy(&all.stderr)
    );
}
