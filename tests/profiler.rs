//! End-to-end engine-profiler tests: profiling never changes the simulation,
//! the `engine_profile` record survives a written JSONL report, the Chrome
//! trace export holds to the trace-event schema, the phase tiling covers the
//! engine wall (on an injected clock — nothing here reads real time), and
//! the typed `ParseError`s out of `obs` name the record and field that broke.

use std::sync::atomic::{AtomicU64, Ordering};

use congest::bfs::BfsVertex;
use congest::{Engine, EngineConfig};
use graphs::{GraphBuilder, VertexId};
use obs::json::Value;
use obs::metrics::Clock;
use obs::profile::{Phase, ProfileSummary};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::{build, packet, BuildParams};

/// A profiled store-and-forward batch on a seeded graph: the canonical
/// engine-driven workload.
fn profiled_batch() -> (packet::LoadReport, congest::Network) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = graphs::generators::erdos_renyi_connected(72, 0.08, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let net = congest::Network::new(g);
    let n = net.graph().num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..128)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            (VertexId(a), VertexId(b))
        })
        .collect();
    let report = packet::send_many_profiled(&net, &built.scheme, &pairs);
    (report, net)
}

/// A connected random weighted graph from a compact description: `n`,
/// extra-edge pairs, and weights — all driven by proptest (same idiom as
/// `tests/properties.rs`).
fn arb_graph(max_n: usize) -> impl Strategy<Value = graphs::Graph> {
    (3..max_n)
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
    fn profiler_is_simulation_neutral(g in arb_graph(36), seed in 0..u64::MAX) {
        // Profiling must never perturb the simulation: same outcomes, same
        // stats (minus wall/profile) — the profiler only reads clocks, and
        // `same_simulation` ignores real time.
        let n = g.num_vertices();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let pairs: Vec<(VertexId, VertexId)> = (0..n)
            .map(|i| (VertexId(i as u32), VertexId(((i * 5 + 1) % n) as u32)))
            .collect();
        let net = congest::Network::new(g);
        let plain = packet::send_many(&net, &built.scheme, &pairs);
        prop_assert!(plain.stats.profile.is_none());
        let prof = packet::send_many_profiled(&net, &built.scheme, &pairs);
        prop_assert!(
            plain.stats.same_simulation(&prof.stats),
            "profiling changed simulated stats:\n  off: {:?}\n  on: {:?}",
            plain.stats,
            prof.stats
        );
        prop_assert_eq!(&plain.outcomes, &prof.outcomes);
        prop_assert_eq!(plain.undeliverable, prof.undeliverable);
        prop_assert_eq!(plain.dropped, prof.dropped);
        // And the profile itself must be present and self-consistent.
        let p = prof.stats.profile.as_deref().expect("profiled run keeps its profile");
        let s = p.summary();
        prop_assert_eq!(s.runs, 1);
        prop_assert!(s.engine_wall_ns > 0);
        let coord_sum: u64 = s.phases.iter().map(|ph| ph.coord_ns).sum();
        prop_assert!(
            coord_sum <= s.engine_wall_ns,
            "phase tiling ({coord_sum} ns) exceeds the engine wall ({} ns)",
            s.engine_wall_ns
        );
    }
}

#[test]
fn engine_profile_record_round_trips_through_a_written_report() {
    let (report, _net) = profiled_batch();
    let profile = report.stats.profile.as_deref().expect("profile kept");

    // Accumulate onto a recorder and write the report the way the CLI does.
    let mut rec = obs::Recorder::new();
    rec.enable_profiling();
    rec.absorb_profile(profile);
    let path = std::env::temp_dir().join(format!("drt-profiler-test-{}.jsonl", std::process::id()));
    rec.write_report(&path, "profiler-test", &[])
        .expect("report written");
    let records = obs::read_report(&path).expect("report parses");
    std::fs::remove_file(&path).ok();

    // Exactly one engine_profile record, parsing back to the same summary.
    let profiles: Vec<ProfileSummary> = records
        .iter()
        .filter(|r| r.get("type").and_then(Value::as_str) == Some("engine_profile"))
        .map(|r| ProfileSummary::from_value(r).expect("engine_profile parses"))
        .collect();
    assert_eq!(profiles.len(), 1);
    let parsed = &profiles[0];
    let direct = profile.summary();
    assert_eq!(parsed.workers, direct.workers);
    assert_eq!(parsed.runs, direct.runs);
    assert_eq!(parsed.rounds, direct.rounds);
    assert_eq!(parsed.engine_wall_ns, direct.engine_wall_ns);
    assert_eq!(parsed.phases.len(), direct.phases.len());
    for (a, b) in parsed.phases.iter().zip(&direct.phases) {
        assert_eq!(a.phase, b.phase);
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.samples, b.samples);
    }
    assert_eq!(parsed.worker_stats.len(), direct.worker_stats.len());
    assert!((parsed.imbalance - direct.imbalance).abs() < 1e-9);
    assert!((parsed.coverage - direct.coverage).abs() < 1e-9);
}

/// A clock that advances one tick per reading, shared by every copy: time is
/// "how many times anyone has looked", so a reading is a deterministic
/// function of read order.
#[derive(Clone, Copy)]
struct TickClock<'a>(&'a AtomicU64);

impl Clock for TickClock<'_> {
    fn elapsed_ns(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }
}

#[test]
fn phase_tiling_covers_the_engine_wall() {
    // What the profiler guarantees is structural, so it is tested on a
    // clock that cannot flake: the laps abut (each starts where the previous
    // one ended), so between the first and the last lap no reading goes
    // unattributed; their sum never exceeds the engine wall; and the track
    // is busy for no longer than the wall. How close the sum comes to a
    // *real* wall (>= 95% on a release build) is shown by `drt profile`, not
    // asserted against a scheduler.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = graphs::generators::erdos_renyi_connected(72, 0.08, 1..=9, &mut rng);
    let net = congest::Network::new(g);
    let ticks = AtomicU64::new(0);
    let engine = Engine::with_config(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    // A BFS wave: enough traffic to give every phase of every round
    // something to time.
    let protos = (0..net.len()).map(|v| BfsVertex::new(v == 0)).collect();
    let (_, stats) = engine.run_clocked(
        &net,
        protos,
        &mut obs::Recorder::disabled(),
        TickClock(&ticks),
    );
    assert!(stats.completed);
    let profile = stats.profile.as_deref().expect("profile requested");
    assert_eq!(profile.dropped, 0, "every sample is still in the ring");

    let laps: Vec<_> = profile.samples().collect();
    assert!(laps.len() as u64 > 3 * stats.rounds);
    for pair in laps.windows(2) {
        assert_eq!(
            pair[1].start_ns,
            pair[0].start_ns + pair[0].dur_ns,
            "a gap or overlap between {:?} and {:?}",
            pair[0],
            pair[1]
        );
    }
    let s = profile.summary();
    let coord_sum: u64 = s.phases.iter().map(|p| p.coord_ns).sum();
    assert_eq!(coord_sum, laps.iter().map(|l| l.dur_ns).sum::<u64>());
    assert_eq!(s.engine_wall_ns, stats.wall_ns);
    assert!(coord_sum <= s.engine_wall_ns);
    // Outside the laps lie only the two readings that bracket the run.
    assert!(
        s.engine_wall_ns - coord_sum <= 2,
        "{} of {} ticks unattributed",
        s.engine_wall_ns - coord_sum,
        s.engine_wall_ns
    );
    assert_eq!(s.worker_stats.len(), 1);
    assert!(s.worker_stats[0].busy_ns <= s.engine_wall_ns);
}

#[test]
fn chrome_trace_export_holds_to_the_trace_event_schema() {
    let (report, _net) = profiled_batch();
    let profile = report.stats.profile.as_deref().unwrap();
    let trace = profile.chrome_trace();
    let v = obs::json::parse(&trace).expect("trace is valid JSON");
    let events = v.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());
    let mut tracks = std::collections::BTreeSet::new();
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("event has ph");
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        let tid = e.get("tid").and_then(Value::as_u64).expect("event has tid");
        match ph {
            "M" => {
                // Thread-name metadata names every track.
                assert_eq!(e.get("name").and_then(Value::as_str), Some("thread_name"));
            }
            "X" => {
                complete += 1;
                tracks.insert(tid);
                let name = e.get("name").and_then(Value::as_str).expect("phase name");
                assert!(Phase::from_name(name).is_some(), "unknown phase '{name}'");
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e.get("dur").and_then(Value::as_f64).is_some());
                assert!(e.get("args").and_then(|a| a.get("round")).is_some());
            }
            other => panic!("unexpected event kind '{other}'"),
        }
    }
    assert!(complete > 0);
    // One track per worker plus the coordinator at tid 0.
    assert!(tracks.contains(&0));
    assert_eq!(tracks.len(), profile.workers.max(1));
}

#[test]
fn report_parse_errors_name_the_record_and_field() {
    // A mistyped field inside a known record type must surface with the
    // record index, record type, and field name — not an unwrap panic.
    let path =
        std::env::temp_dir().join(format!("drt-parse-err-test-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"type\":\"run_summary\",\"name\":\"x\",\"wall_ns\":1}\n{\"type\":\"metrics\",\"name\":\"m\",\"counters\":{\"c\":-4},\"gauges\":{}}\n",
    )
    .unwrap();
    let records = obs::read_report(&path).expect("well-formed JSON lines still parse");
    std::fs::remove_file(&path).ok();
    let err = obs::metrics::MetricSet::from_value(&records[1])
        .map(|_| ())
        .unwrap_err()
        .in_record(1);
    let msg = err.to_string();
    assert!(msg.contains("record 1"), "{msg}");
    assert!(msg.contains("metrics"), "{msg}");
    assert!(msg.contains('c'), "{msg}");

    // Malformed JSON fails at read_report with the line tagged.
    std::fs::write(&path, "{\"type\":\"span\"}\nnot json\n").unwrap();
    let err = obs::read_report(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("record 1"), "{err}");
    assert!(err.to_string().contains("invalid JSON"), "{err}");
}

#[test]
fn profiling_is_off_by_default_everywhere() {
    // No profile on plain runs, no engine_profile record from a recorder
    // that never enabled profiling.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = graphs::generators::erdos_renyi_connected(40, 0.1, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let net = congest::Network::new(g);
    let report = packet::send_many(&net, &built.scheme, &[(VertexId(0), VertexId(1))]);
    assert!(report.stats.profile.is_none());

    let mut rec = obs::Recorder::new();
    assert!(!rec.profiling());
    rec.charge_rounds(1);
    let path = std::env::temp_dir().join(format!("drt-noprof-test-{}.jsonl", std::process::id()));
    rec.write_report(&path, "noprof", &[]).unwrap();
    let records = obs::read_report(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(records
        .iter()
        .all(|r| r.get("type").and_then(Value::as_str) != Some("engine_profile")));
}
