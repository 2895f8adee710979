//! Cross-crate integration for the tree-routing results (Theorem 2):
//! distributed ≡ centralized on trees embedded in every topology family,
//! exactness of both our scheme and the baseline, and the Table-2 orderings.

use congest::{bfs, MemoryMeter, Network};
use graphs::{generators, tree, Graph, RootedTree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_routing::distributed::{self, Config, TreeRun};
use tree_routing::{baseline, multi, router, tz};

/// The paper's construction at `q = 1/√n` with its own backbone, unobserved.
fn ours(net: &Network, t: &RootedTree, rng: &mut ChaCha8Rng) -> TreeRun {
    let disabled = &mut obs::Recorder::disabled();
    distributed::build(net, t, &Config::default(), rng, disabled)
}

fn check_tree(g: Graph, root: u32, seed: u64) {
    let t = tree::shortest_path_tree(&g, VertexId(root));
    let net = Network::new(g);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let run = ours(&net, &t, &mut rng);
    distributed::assert_matches_centralized(&t, &run);
    let scheme = run.scheme(&t);
    let prior = baseline::build(&net, &t, &Config::default(), &mut rng);
    // Exactness of both on sampled pairs.
    let verts: Vec<VertexId> = t.vertices().collect();
    for (i, &u) in verts.iter().enumerate().step_by(5) {
        for &v in verts.iter().skip(i % 3).step_by(7) {
            let want = t.tree_distance(u, v).unwrap();
            let a = router::route(&t, &scheme, u, v).unwrap();
            let b = baseline::route(&t, &prior.scheme, u, v).unwrap();
            assert_eq!(a.weight, want, "ours {u}->{v}");
            assert_eq!(b.weight, want, "prior {u}->{v}");
        }
    }
    // Table-2 orderings.
    assert_eq!(scheme.max_table_words(), 4, "tables are O(1)");
    assert!(scheme.max_label_words() <= prior.scheme.max_label_words().max(4));
    assert!(run.memory.max_peak() <= prior.memory.max_peak());
}

#[test]
fn tree_on_erdos_renyi() {
    let mut rng = ChaCha8Rng::seed_from_u64(2001);
    let g = generators::erdos_renyi_connected(300, 0.02, 1..=20, &mut rng);
    check_tree(g, 0, 1);
}

#[test]
fn tree_on_geometric() {
    let mut rng = ChaCha8Rng::seed_from_u64(2002);
    let g = generators::random_geometric_connected(250, 0.09, 1..=20, &mut rng);
    check_tree(g, 5, 2);
}

#[test]
fn tree_on_grid() {
    let mut rng = ChaCha8Rng::seed_from_u64(2003);
    let g = generators::grid(15, 16, 1..=5, &mut rng);
    check_tree(g, 7, 3);
}

#[test]
fn tree_on_path_deep() {
    // Depth-n tree: the regime where q-sampling matters most.
    let mut rng = ChaCha8Rng::seed_from_u64(2004);
    let g = generators::path(200, 1..=9, &mut rng);
    check_tree(g, 0, 4);
}

#[test]
fn tree_on_star_shallow() {
    let mut rng = ChaCha8Rng::seed_from_u64(2005);
    let g = generators::star(150, 1..=9, &mut rng);
    check_tree(g, 0, 5);
}

#[test]
fn tree_on_lollipop() {
    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    let g = generators::lollipop(30, 100, 1..=9, &mut rng);
    check_tree(g, 2, 6);
}

#[test]
fn spd_gap_network_tree() {
    // Small hop diameter, large shortest-path diameter: the case where the
    // D-dependence (not S-dependence) of the paper's bound matters.
    let mut rng = ChaCha8Rng::seed_from_u64(2007);
    let g = generators::small_hop_diameter_large_spd(180, 60, &mut rng);
    check_tree(g, 0, 7);
}

#[test]
fn partial_tree_inside_network() {
    // A tree spanning only half the network: non-members have no entries,
    // members route exactly.
    let mut rng = ChaCha8Rng::seed_from_u64(2008);
    let g = generators::erdos_renyi_connected(120, 0.05, 1..=9, &mut rng);
    let full = tree::shortest_path_tree(&g, VertexId(0));
    // Take the subtree induced by vertices within depth 3 of the root.
    let mut parent = vec![None; 120];
    let mut weight = vec![0; 120];
    for v in full.vertices() {
        if v != VertexId(0) && full.depth_of(v).unwrap() <= 3 {
            parent[v.index()] = full.parent(v);
            weight[v.index()] = full.parent_weight(v);
        }
    }
    let t = graphs::RootedTree::from_parents(VertexId(0), parent, weight);
    let net = Network::new(g);
    let mut rng2 = ChaCha8Rng::seed_from_u64(8);
    let run = ours(&net, &t, &mut rng2);
    distributed::assert_matches_centralized(&t, &run);
    router::verify_exactness(&t, &run.scheme(&t));
}

#[test]
fn multi_tree_memory_and_rounds_beat_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(2009);
    let g = generators::erdos_renyi_connected(220, 0.03, 1..=9, &mut rng);
    let net = Network::new(g);
    let roots = [0u32, 40, 80, 120, 160, 200];
    let trees: Vec<_> = roots
        .iter()
        .map(|&r| tree::shortest_path_tree(net.graph(), VertexId(r)))
        .collect();
    // Every tree on one schedule over one shared backbone, asked for no
    // labels (a table is all this test reads).
    let backbone = bfs::build_bfs_tree(&net, trees[0].root());
    let mut account = obs::Recorder::disabled();
    let mut memory = MemoryMeter::new(net.len());
    account.charge_rounds(backbone.stats.rounds);
    for v in net.graph().vertices() {
        memory.add(v, 3);
    }
    let mut schedule = multi::Schedule::new(net.len(), roots.len(), backbone.depth);
    let mut scratch = distributed::Scratch::default();
    let disabled = &mut obs::Recorder::disabled();
    for t in &trees {
        let run = scratch.run(&net, t, schedule.config(), &[], &mut rng, disabled);
        let (c, m) = (&run.cost, &run.memory);
        schedule.charge_tree(&mut rng, t.members(), c, m, &mut account, &mut memory);
        // Every tree's tables match the centralized construction.
        let want = tz::build(t);
        for (r, v) in t.members().iter().enumerate().step_by(3) {
            assert_eq!(Some(&run.tables[r]), want.table(*v));
        }
    }
    let window = schedule.window();
    assert!(schedule.close(&mut account) >= window);
    // Every switch is in every tree: the overlap the schedule was built for.
    let bound = roots.len() * (18 + 7 * distributed::log2_ceil(net.len()));
    assert!(
        memory.max_peak() <= bound,
        "{} > {bound}",
        memory.max_peak()
    );
    let mut seq = 0u64;
    for t in &trees {
        seq += ours(&net, t, &mut rng).cost.rounds;
    }
    assert!(account.totals().rounds < seq);
}

#[test]
fn weighted_trees_route_by_weight_not_hops() {
    // A heavy chord in the network must not confuse tree routing: the tree
    // path is followed exactly even when a shorter graph path exists.
    let mut rng = ChaCha8Rng::seed_from_u64(2010);
    let g = generators::small_hop_diameter_large_spd(100, 25, &mut rng);
    let t = tree::shortest_path_tree(&g, VertexId(0));
    let net = Network::new(g);
    let scheme = ours(&net, &t, &mut rng).scheme(&t);
    for v in [VertexId(50), VertexId(99), VertexId(25)] {
        let trace = router::route(&t, &scheme, v, VertexId(0)).unwrap();
        assert_eq!(Some(trace.weight), t.tree_distance(v, VertexId(0)));
        // Every hop is a tree edge.
        for pair in trace.path.windows(2) {
            assert!(
                t.parent(pair[0]) == Some(pair[1]) || t.parent(pair[1]) == Some(pair[0]),
                "hop {}-{} is not a tree edge",
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn degenerate_trees_route_exactly_at_both_sampling_extremes() {
    // Singleton, two-vertex, star and path trees — spanning a host of exactly
    // their size (n ∈ {1, 2} included) and scattered inside a larger one —
    // with nobody but the root sampled (q = 0) and with everybody (q = 1).
    let scattered: Vec<VertexId> = [41u32, 3, 58, 17, 29, 8, 50].map(VertexId).to_vec();
    let dense: Vec<VertexId> = (0..7).map(VertexId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    for (host, ids) in [(64, &scattered), (7, &dense)] {
        let mut trees = vec![
            tree::star_tree(host, &ids[..1], 1),
            tree::star_tree(host, &ids[..2], 4),
            tree::star_tree(host, ids, 2),
            tree::path_tree(host, ids, 3),
        ];
        if host == 7 {
            trees.push(tree::star_tree(1, &ids[..1], 1));
            trees.push(tree::path_tree(2, &ids[..2], 5));
        }
        for t in &trees {
            let net = Network::new(generators::star(t.host_len(), 1..=1, &mut rng));
            let want = tz::build(t);
            assert_eq!(want.members(), t.members());
            router::verify_exactness(t, &want);
            for q in [0.0, 1.0] {
                let config = Config {
                    q: Some(q),
                    ..Config::default()
                };
                let disabled = &mut obs::Recorder::disabled();
                let run = distributed::build(&net, t, &config, &mut rng, disabled);
                assert_eq!(run.scheme(t), want);
                let sampled = if q == 0.0 { 1 } else { t.num_vertices() };
                assert_eq!(run.virtual_count, sampled);
                assert_eq!(run.memory.len(), t.num_vertices());
                let prior = baseline::build(&net, t, &config, &mut rng);
                assert_eq!(prior.virtual_count, sampled);
                for u in t.vertices() {
                    for v in t.vertices() {
                        let trace = baseline::route(t, &prior.scheme, u, v).unwrap();
                        assert_eq!(Some(trace.weight), t.tree_distance(u, v));
                    }
                }
            }
        }
    }
}
