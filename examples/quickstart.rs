//! Quickstart: build the paper's routing scheme on a random network, route a
//! few messages, and print the headline numbers of Theorem 3.
//!
//! Run with: `cargo run --release --example quickstart`

use graphs::{generators, shortest_paths, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, router, BuildParams};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n = 400;
    let k = 3;
    let g = generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=50, &mut rng);
    println!(
        "network: n = {}, m = {}, D = {:?}",
        g.num_vertices(),
        g.num_edges(),
        graphs::properties::hop_diameter(&g)
    );

    // Preprocessing phase: the distributed low-memory construction.
    let built = build(&g, &BuildParams::new(k), &mut rng);
    let r = &built.report;
    println!("\npreprocessing (k = {k}):");
    println!("  simulated CONGEST rounds : {}", r.rounds);
    println!("  peak memory per vertex   : {} words", r.memory.max_peak());
    println!("  max table size           : {} words", r.max_table_words);
    println!("  max label size           : {} words", r.max_label_words);
    println!("  cluster memberships s    : {}", r.max_membership);
    println!(
        "  hopset edges / arboricity: {} / {}",
        r.hopset_edges, r.hopset_arboricity
    );
    println!("  empirical hop bound beta : {}", r.beta_used);

    // Routing phase: send a few messages and report their stretch.
    println!("\nrouting phase:");
    let pairs = [(0u32, 399u32), (10, 200), (7, 311), (123, 45)];
    for (s, t) in pairs {
        let (s, t) = (VertexId(s), VertexId(t));
        let exact = shortest_paths::dijkstra(&g, s)[t.index()];
        let trace = router::route(&g, &built.scheme, s, t).expect("connected");
        println!(
            "  {s} -> {t}: routed {} vs shortest {} (stretch {:.3}, {} hops, via tree of {})",
            trace.weight,
            exact,
            trace.weight as f64 / exact as f64,
            trace.hops(),
            trace.tree_root,
        );
    }

    // Aggregate stretch over a sample of sources.
    let srcs: Vec<VertexId> = (0..n as u32).step_by(40).map(VertexId).collect();
    let stats = router::measure_stretch(&g, &built.scheme, &srcs, router::Selection::SourceOptimal);
    println!(
        "\nstretch over {} pairs: mean {:.3}, max {:.3} (bound 4k-3 = {})",
        stats.pairs,
        stats.mean,
        stats.max,
        4 * k - 3
    );
}
