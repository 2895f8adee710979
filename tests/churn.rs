//! Churn-observatory integration tests: the full health series is a pure
//! function of the seed — byte-identical across repeated runs — the
//! acceptance scenario (targeted removal on a
//! scale-free graph) emits a validated `churn_timeline` record with
//! monotonically non-increasing reachability, and the `drt churn` SLO gate
//! exits nonzero on breach.

use churn::{ChurnConfig, ChurnScenario, ProcessKind};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, BuildParams};

/// Serialize the scenario's full timeline record: the byte-identical unit
/// the determinism properties compare.
fn record_bytes(g: &graphs::Graph, scheme: &routing::RoutingScheme, config: ChurnConfig) -> String {
    let scenario = ChurnScenario {
        graph: g,
        scheme,
        config,
    };
    scenario.run().timeline.to_value().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full `HealthSeries` — every row, every column, the degradation
    /// fit, the engine totals — is byte-identical across repeated same-seed
    /// runs, for every process kind.
    #[test]
    fn health_series_is_a_pure_function_of_the_seed(
        seed in 0u64..1_000_000,
        process_ix in 0usize..4,
        rounds in 1u64..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
        let g = graphs::generators::preferential_attachment(48, 3, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        let config = ChurnConfig {
            process: ProcessKind::all()[process_ix],
            rate: 0.05,
            rounds,
            seed,
            ..ChurnConfig::default()
        };
        let baseline = record_bytes(&g, &built.scheme, config);
        let again = record_bytes(&g, &built.scheme, config);
        prop_assert!(again == baseline, "series changed between same-seed runs");
    }
}

/// The ISSUE acceptance scenario: `--process targeted --rate 0.02
/// --rounds 20` on a seeded scale-free graph emits a record that validates
/// through the schema round trip, with monotonically non-increasing
/// reachability.
#[test]
fn targeted_acceptance_scenario_validates_and_decays_monotonically() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = graphs::generators::preferential_attachment(200, 3, 1..=100, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let scenario = ChurnScenario {
        graph: &g,
        scheme: &built.scheme,
        config: ChurnConfig {
            process: ProcessKind::Targeted,
            rate: 0.02,
            rounds: 20,
            ..ChurnConfig::default()
        },
    };
    let mut record = scenario.run().timeline;
    record.slo = Some(record.slo_verdict(0.99, 20));

    // The serialized record validates: parse re-checks the probe partition,
    // traffic conservation, round indexing, and no-revival monotonicity.
    let value = obs::json::parse(&record.to_value().to_string()).expect("record is valid JSON");
    let back = obs::churn::ChurnTimeline::from_value(&value).expect("record validates");
    assert_eq!(back.rounds.len(), 21, "intact baseline + 20 churn rounds");

    // Reachability is monotone non-increasing, starts intact, and targeted
    // hub removal at 2%/round collapses a scale-free graph hard.
    let reach = record.reachability_series();
    assert!(reach.windows(2).all(|w| w[1] <= w[0]), "{reach:?}");
    assert_eq!(reach[0], 1.0);
    assert!(
        reach[20] < 0.5,
        "targeted removal should collapse reachability, got {}",
        reach[20]
    );

    // A 99% floor cannot survive that collapse.
    let slo = record.slo.expect("slo verdict attached");
    assert!(!slo.ok());
    assert!(slo.breach_round.is_some());
}

/// `drt churn` end to end: the SLO gate exits nonzero on breach and zero
/// otherwise, and the emitted report validates under `drt report`.
#[test]
fn drt_churn_slo_gate_sets_the_exit_code() {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("drt-churn-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("graph.txt");
    let scheme = dir.join("scheme.bin");
    let drt = env!("CARGO_BIN_EXE_drt");

    let generated = Command::new(drt)
        .args(["generate", "scale-free", "120", "7"])
        .output()
        .expect("drt generate runs");
    assert!(generated.status.success());
    std::fs::write(&graph, &generated.stdout).unwrap();
    let built = Command::new(drt)
        .args([
            "build",
            graph.to_str().unwrap(),
            "2",
            scheme.to_str().unwrap(),
        ])
        .output()
        .expect("drt build runs");
    assert!(built.status.success());

    let churn = |extra: &[&str]| {
        Command::new(drt)
            .args([
                "churn",
                graph.to_str().unwrap(),
                scheme.to_str().unwrap(),
                "--process",
                "targeted",
                "--rate",
                "0.02",
                "--rounds",
                "10",
            ])
            .args(extra)
            .output()
            .expect("drt churn runs")
    };
    // A 99% floor breaks under targeted removal: nonzero exit, named round.
    let breached = churn(&["--slo", "0.99"]);
    assert!(!breached.status.success());
    assert!(String::from_utf8_lossy(&breached.stderr).contains("SLO breached"));
    // A 0% floor holds: zero exit, and the report it writes validates.
    let report = dir.join("churn.jsonl");
    let ok = churn(&["--slo", "0.0", "--report", report.to_str().unwrap()]);
    assert!(
        ok.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let validated = Command::new(drt)
        .args(["report", report.to_str().unwrap(), "--json"])
        .output()
        .expect("drt report runs");
    assert!(validated.status.success());
    let summary = String::from_utf8_lossy(&validated.stdout);
    assert!(summary.contains("\"churn_timeline\":1"), "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}
