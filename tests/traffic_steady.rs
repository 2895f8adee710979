//! Determinism and conservation properties of the steady-state traffic
//! engine, driven end to end through random graphs.
//!
//! The traffic plane's contract extends the engine's determinism to the
//! statistics a rate sweep gates on: the `traffic_summary` (delivery/drop/
//! queue counters, latency distributions), the per-round series, the
//! per-flow outcomes, and the edge-load heatmap must be byte-identical
//! across same-seed runs. Separately, every run —
//! whatever the workload, rate, or queue capacity — must satisfy the
//! packet-conservation identity at *every* round, not just in aggregate.

use graphs::{GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, BuildParams};
use traffic::{ArrivalKind, DropPolicy, ScenarioConfig, TrafficScenario, WorkloadKind};

/// A connected random weighted graph from a compact description (same
/// idiom as `tests/profiler.rs`).
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

fn workload_from(sel: u8) -> WorkloadKind {
    let all = WorkloadKind::all();
    all[(sel as usize) % all.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full scenario — schedule planning, finite queues, drops,
    /// drain — produces byte-identical statistics on every run. The engine
    /// is serial, so thread-count invariance is run-to-run invariance.
    #[test]
    fn traffic_statistics_are_thread_count_invariant(
        g in arb_graph(32),
        seed in 0..u64::MAX,
        workload_sel in 0..4u8,
        rate_centi in 25u64..400,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = congest::Network::new(g);
        let run = || {
            let scenario = TrafficScenario {
                network: &net,
                scheme: &built.scheme,
                workload: workload_from(workload_sel),
                config: ScenarioConfig {
                    inject_rounds: 24,
                    queue_cap: 2,
                    seed,
                    ..ScenarioConfig::default()
                },
            };
            scenario.run(rate_centi as f64 / 100.0)
        };
        let (first, again) = (run(), run());
        prop_assert_eq!(&first.summary, &again.summary);
        prop_assert_eq!(&first.series, &again.series);
        prop_assert_eq!(&first.flows, &again.flows);
        prop_assert!(
            first.stats.same_simulation(&again.stats),
            "engine stats diverged between runs:\n  first: {:?}\n  again: {:?}",
            first.stats, again.stats
        );
        // EdgeLoadMap carries no PartialEq; its canonical JSONL
        // serialization (sorted edges) must match byte for byte.
        prop_assert_eq!(
            first.edge_load.to_value(&[]).to_string(),
            again.edge_load.to_value(&[]).to_string()
        );
    }

    /// Cumulative injected = delivered + dropped + queued + on-wire at
    /// every round boundary, for every workload/arrival/policy corner.
    #[test]
    fn conservation_holds_at_every_round(
        g in arb_graph(28),
        seed in 0..u64::MAX,
        workload_sel in 0..4u8,
        bernoulli_sel in 0..2u8,
        oldest_sel in 0..2u8,
        rate_centi in 25u64..600,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let net = congest::Network::new(g);
        let scenario = TrafficScenario {
            network: &net,
            scheme: &built.scheme,
            workload: workload_from(workload_sel),
            config: ScenarioConfig {
                arrival: if bernoulli_sel == 1 { ArrivalKind::Bernoulli } else { ArrivalKind::Fixed },
                policy: if oldest_sel == 1 { DropPolicy::OldestDrop } else { DropPolicy::TailDrop },
                inject_rounds: 24,
                queue_cap: 1, // tightest queues: maximize drops
                seed,
                ..ScenarioConfig::default()
            },
        };
        let run = scenario.run(rate_centi as f64 / 100.0);
        prop_assert_eq!(run.verify_conservation(), Ok(()));
        prop_assert!(run.summary.conserved(), "summary violates conservation");
        // A drained run accounts for every injected packet terminally.
        if run.summary.drained {
            prop_assert_eq!(
                run.summary.injected,
                run.summary.delivered + run.summary.dropped()
            );
        }
    }
}
