//! Datacenter-fabric scenario: many overlapping trees at once.
//!
//! A torus fabric runs one aggregation tree per service (rooted at that
//! service's coordinator), and every switch participates in all of them —
//! exactly the multi-tree setting of Theorem 2's second assertion. With
//! `q = 1/√(sn)` and random start offsets, all trees are built in parallel
//! in `Õ(√(sn) + D)` rounds with `O(s log n)` memory, instead of the naive
//! `Õ(s·√n + D)`.
//!
//! Run with: `cargo run --release --example datacenter_fabric`

use congest::{bfs, MemoryMeter, Network};
use graphs::{generators, tree, RootedTree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_routing::distributed::{self, Config, Scratch};
use tree_routing::{multi::Schedule, router, tz};

fn main() {
    let (rows, cols) = (24, 24);
    let n = rows * cols;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = generators::torus(rows, cols, 1..=10, &mut rng);
    let net = Network::new(g.clone());

    // One aggregation tree per service coordinator.
    let coordinators: [u32; 6] = [0, 97, 215, 333, 451, 569];
    let trees: Vec<RootedTree> = coordinators
        .iter()
        .map(|&c| tree::shortest_path_tree(&g, VertexId(c)))
        .collect();
    let s = trees.len();
    println!("torus fabric {rows}x{cols} (n = {n}), {s} services, every switch in all {s} trees");

    // Parallel construction (Theorem 2, second assertion): one shared BFS
    // backbone (3 words per switch), then every tree on one schedule.
    let backbone = bfs::build_bfs_tree(&net, trees[0].root());
    let mut account = obs::Recorder::disabled();
    let mut memory = MemoryMeter::new(n);
    account.charge_rounds(backbone.stats.rounds);
    for v in g.vertices() {
        memory.add(v, 3);
    }
    let mut schedule = Schedule::new(n, s, backbone.depth);
    let window = schedule.window();
    let mut scratch = Scratch::default();
    let disabled = &mut obs::Recorder::disabled();
    let mut schemes = Vec::new();
    for t in &trees {
        let every: Vec<usize> = (0..t.num_vertices()).collect();
        let run = scratch.run(&net, t, schedule.config(), &every, &mut rng, disabled);
        let (c, m) = (&run.cost, &run.memory);
        schedule.charge_tree(&mut rng, t.members(), c, m, &mut account, &mut memory);
        schemes.push(run.scheme(t));
    }
    schedule.close(&mut account);
    println!("\nparallel construction (q = 1/sqrt(s*n), random offsets):");
    println!("  rounds            : {}", account.totals().rounds);
    println!("  offset window     : {window}");
    println!(
        "  memory per switch : {} words (O(s log n))",
        memory.max_peak()
    );

    // Naive alternative: build each tree independently, one after another.
    let mut seq_rounds = 0;
    for t in &trees {
        let out = distributed::build(&net, t, &Config::default(), &mut rng, disabled);
        seq_rounds += out.cost.rounds;
    }
    println!("\nsequential alternative: {seq_rounds} rounds");
    println!(
        "parallel speedup: {:.1}x",
        seq_rounds as f64 / account.totals().rounds as f64
    );

    // Every service's scheme is exact; verify against the centralized build
    // and route a flow on each tree.
    for (t, scheme) in trees.iter().zip(&schemes) {
        let want = tz::build(t);
        for v in t.vertices() {
            assert_eq!(scheme.table(v), want.table(v));
            assert_eq!(scheme.label(v), want.label(v));
        }
        let leaf = VertexId((n - 1) as u32);
        let trace = router::route(t, scheme, leaf, t.root()).expect("spanning tree");
        assert_eq!(Some(trace.weight), t.tree_distance(leaf, t.root()));
    }
    println!("\nall {s} schemes verified exact (identical to the centralized construction)");
}
