//! Traffic surge scenario: a hotspot workload on an ISP-like backbone —
//! every flow converges on the best-connected router — swept across offered
//! rates to find the saturation knee, then a look at which links melt first.
//!
//! Run with: `cargo run --release --example traffic_surge`

use congest::Network;
use graphs::{generators, properties};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, BuildParams};
use traffic::{
    ScenarioConfig, TrafficScenario, WorkloadKind, MAX_DROP_FRACTION, MAX_P99_QUEUE_DELAY,
};

fn main() {
    let n = 400;
    let k = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    // Edge weights model link latencies in 1..=100 ms.
    let g = generators::preferential_attachment(n, 3, 1..=100, &mut rng);
    let (dmin, dmax, dmean) = properties::degree_stats(&g).expect("non-empty");
    println!(
        "ISP-like backbone: n = {n}, m = {}, degrees {dmin}..{dmax} (mean {dmean:.1})",
        g.num_edges()
    );
    let built = build(&g, &BuildParams::new(k), &mut rng);
    let net = Network::new(g);

    let scenario = TrafficScenario {
        network: &net,
        scheme: &built.scheme,
        workload: WorkloadKind::Hotspot,
        config: ScenarioConfig {
            inject_rounds: 256,
            queue_cap: 8,
            ..ScenarioConfig::default()
        },
    };
    let rates = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    println!(
        "\nhotspot surge, {} inject rounds, queue cap {} ({}), SLO: p99 queue delay <= {} \
         rounds, loss <= {:.1}%",
        scenario.config.inject_rounds,
        scenario.config.queue_cap,
        scenario.config.policy.name(),
        MAX_P99_QUEUE_DELAY,
        MAX_DROP_FRACTION * 100.0
    );
    println!(
        "\n{:>6} {:>9} {:>9} {:>8} {:>10} {:>11} {:>10}",
        "rate", "injected", "delivered", "dropped", "p99 delay", "peak queue", "meets SLO"
    );
    let report = scenario.sweep(&rates);
    for (rate, point) in rates.iter().zip(&report.points) {
        let s = &point.summary;
        println!(
            "{:>6.1} {:>9} {:>9} {:>8} {:>10} {:>11} {:>10}",
            rate,
            s.injected,
            s.delivered,
            s.dropped(),
            s.queue_delay.p99,
            s.peak_queue_packets,
            if point.sustainable() { "yes" } else { "no" }
        );
    }
    match report.knee {
        Some(knee) => println!("\nsaturation knee: {knee:.1} packets/round sustained"),
        None => println!("\nno swept rate met the SLO"),
    }

    // The links that melt first, at the highest swept rate.
    let sink = traffic::Workload::prepare(
        WorkloadKind::Hotspot,
        net.graph(),
        &built.scheme,
        scenario.config.seed,
    )
    .sink();
    let hottest = report.points.last().expect("non-empty sweep");
    println!(
        "\ntop 5 loaded links at rate {:.1} (sink = vertex {}):",
        rates[rates.len() - 1],
        sink.0
    );
    for ((u, v), load) in hottest.edge_load.hottest(5) {
        println!(
            "  {u:>4} -- {v:<4}  {:>8} packets  {:>10} words",
            load.packets, load.words
        );
    }
}
