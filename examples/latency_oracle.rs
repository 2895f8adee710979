//! CDN latency-map scenario: the same compact structure answers *distance
//! queries* (a Thorup–Zwick oracle, stretch ≤ 2k−1) and *routes packets*
//! (stretch ≤ 4k−3, or handshake-improved), on an expander overlay like a
//! CDN's peering mesh.
//!
//! Run with: `cargo run --release --example latency_oracle`

use graphs::{generators, shortest_paths, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::{build, packet, router, BuildParams};

fn main() {
    let n = 500;
    let k = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(314);
    // Overlay mesh: near-6-regular expander, weights = RTT in ms.
    let g = generators::random_regular_expander(n, 6, 5..=120, &mut rng);
    println!(
        "CDN overlay: n = {n}, m = {}, D = {:?}",
        g.num_edges(),
        graphs::properties::hop_diameter(&g)
    );

    let built = build(&g, &BuildParams::new(k), &mut rng);
    let oracle = DistanceOracle::new(&built.scheme);
    println!(
        "scheme built: tables ≤ {} words, labels ≤ {} words, oracle adds ≤ {} words\n",
        built.report.max_table_words,
        built.report.max_label_words,
        2 * k
    );

    // Compare the three access paths on sampled pairs.
    let pairs: Vec<(VertexId, VertexId)> = (0..12)
        .map(|i| {
            (
                VertexId(i * 41 % n as u32),
                VertexId((i * 97 + 13) % n as u32),
            )
        })
        .filter(|(a, b)| a != b)
        .collect();
    println!(
        "{:>6} {:>6} {:>7} {:>8} {:>8} {:>10}",
        "src", "dst", "exact", "oracle", "routed", "handshake"
    );
    let mut worst_oracle = 1.0f64;
    let mut worst_route = 1.0f64;
    for &(s, t) in &pairs {
        let exact = shortest_paths::dijkstra(&g, s)[t.index()];
        let est = oracle.query(s, t);
        let routed = router::route(&g, &built.scheme, s, t).expect("connected");
        let shake = router::route_with(&g, &built.scheme, s, t, router::Selection::Handshake)
            .expect("connected");
        worst_oracle = worst_oracle.max(est as f64 / exact as f64);
        worst_route = worst_route.max(routed.weight as f64 / exact as f64);
        println!(
            "{:>6} {:>6} {:>7} {:>8} {:>8} {:>10}",
            s.to_string(),
            t.to_string(),
            exact,
            est,
            routed.weight,
            shake.weight
        );
    }
    println!(
        "\nworst sampled stretch: oracle {:.2} (bound 2k-1 = {}), routing {:.2} (bound 4k-3 = {})",
        worst_oracle,
        2 * k - 1,
        worst_route,
        4 * k - 3
    );

    // One packet through the real CONGEST engine: one round per hop, and the
    // packet itself is O(log n) words.
    let net = congest::Network::new(g);
    let report = packet::send(
        &net,
        &built.scheme,
        &pairs[..1],
        packet::SendOptions::default(),
    );
    let (rounds, _) = report.delivery(0).expect("expander is connected");
    let words = packet::plan(&built.scheme, pairs[0].0, pairs[0].1).map_or(0, |p| p.words());
    println!(
        "\npacket simulation {} -> {}: delivered in {} rounds, packet = {} words, zero congestion violations: {}",
        pairs[0].0,
        pairs[0].1,
        rounds,
        words,
        report.stats.congestion_violations == 0
    );
}
