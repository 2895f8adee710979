//! Sensor-mesh scenario: exact tree routing on a random geometric network —
//! the regime where the paper's `Õ(√n + D)` tree construction shines,
//! because geometric meshes have large hop diameter and deep spanning trees.
//!
//! Builds a data-collection tree (shortest-path tree of a sink), constructs
//! the Theorem-2 scheme distributively, verifies zero stretch against the
//! prior construction, and contrasts their memory footprints.
//!
//! Run with: `cargo run --release --example sensor_mesh`

use congest::Network;
use graphs::{generators, properties, tree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_routing::distributed::{self, Config};
use tree_routing::{baseline, router};

fn main() {
    let n = 900;
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    // Unit-square mesh; weights model link energy costs.
    let g = generators::random_geometric_connected(n, 0.06, 1..=30, &mut rng);
    let d = properties::hop_diameter(&g).expect("connected");
    let sink = VertexId(0);
    let t = tree::shortest_path_tree(&g, sink);
    println!(
        "sensor mesh: n = {n}, m = {}, hop diameter D = {d}, tree height = {}",
        g.num_edges(),
        t.height()
    );

    let net = Network::new(g.clone());

    // The paper's low-memory construction (Theorem 2).
    let disabled = &mut obs::Recorder::disabled();
    let ours = distributed::build(&net, &t, &Config::default(), &mut rng, disabled);
    distributed::assert_matches_centralized(&t, &ours);
    let scheme = ours.scheme(&t);
    println!("\nthis paper (Theorem 2):");
    println!("  rounds           : {}", ours.cost.rounds);
    println!(
        "  memory per vertex: {} words (O(log n))",
        ours.memory.max_peak()
    );
    println!(
        "  table / label    : {} / {} words",
        scheme.max_table_words(),
        scheme.max_label_words()
    );
    println!(
        "  sampled |U(T)|   : {}, local depth b = {}",
        ours.virtual_count, ours.max_local_depth
    );

    // The prior construction ([LP15]/[EN16b]-style).
    let prior = baseline::build(&net, &t, &Config::default(), &mut rng);
    println!("\nprior approach:");
    println!("  rounds           : {}", prior.cost.rounds);
    println!(
        "  memory per vertex: {} words (Ω(√n) at virtual vertices)",
        prior.memory.max_peak()
    );
    println!(
        "  table / label    : {} / {} words",
        prior.scheme.max_table_words(),
        prior.scheme.max_label_words()
    );

    // Route sensor readings from a few motes to the sink and back.
    println!("\nrouting checks (exact by construction):");
    for &m in &[n as u32 - 1, 450, 123] {
        let mote = VertexId(m);
        let up = router::route(&t, &scheme, mote, sink).expect("in tree");
        let down = baseline::route(&t, &prior.scheme, sink, mote).expect("in tree");
        let want = t.tree_distance(mote, sink).unwrap();
        assert_eq!(up.weight, want);
        assert_eq!(down.weight, want);
        println!(
            "  {mote} <-> sink: cost {} over {} hops (both schemes exact)",
            up.weight,
            up.hops()
        );
    }
    println!(
        "\nmemory advantage: {}x smaller peak than the prior construction",
        prior.memory.max_peak() / ours.memory.max_peak().max(1)
    );
}
