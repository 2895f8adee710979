//! Property-based tests (proptest) for the core invariants:
//!
//! * distributed tree routing ≡ centralized Thorup–Zwick, on arbitrary
//!   random trees in arbitrary random networks;
//! * the hopset sandwich `d ≤ d_{G∪H}^{(β)} ≤ (1+ε)·d` (here ε = 0 because
//!   edges carry exact distances; the slack enters only through limits);
//! * pruned-exploration clusters ≡ the set definition (Eq. 1);
//! * tree-routing exactness for every pair;
//! * general-scheme stretch ≤ 4k − 3 on random weighted graphs.

use graphs::{shortest_paths, tree, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A connected random weighted graph from a compact description: `n`,
/// extra-edge pairs, and weights — all driven by proptest.
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

/// The paper's tree construction at `q = 1/√n` with its own backbone,
/// unobserved.
fn default_tree_build(
    net: &congest::Network,
    t: &graphs::RootedTree,
    rng: &mut ChaCha8Rng,
) -> tree_routing::distributed::TreeRun {
    let config = tree_routing::distributed::Config::default();
    tree_routing::distributed::build(net, t, &config, rng, &mut obs::Recorder::disabled())
}

/// A random recursive tree on a sparse member subset of a host of
/// `SPARSE_HOST` vertices: distinct member ids in attachment order (the
/// first is the root) with their parent edges `(child, parent, weight)`.
const SPARSE_HOST: usize = 4096;

fn arb_sparse_tree(
    max_members: usize,
) -> impl Strategy<Value = (VertexId, Vec<(VertexId, VertexId, u64)>)> {
    (1..=max_members)
        .prop_flat_map(|m| {
            (
                proptest::collection::vec(0..SPARSE_HOST as u32, m),
                proptest::collection::vec((0..u32::MAX, 1u64..50), m),
            )
        })
        .prop_map(|(mut ids, attach)| {
            // Distinct ids, keeping first-seen (attachment) order.
            let mut seen = std::collections::HashSet::new();
            ids.retain(|&v| seen.insert(v));
            let edges = (1..ids.len())
                .map(|i| {
                    let (sel, w) = attach[i];
                    (VertexId(ids[i]), VertexId(ids[sel as usize % i]), w)
                })
                .collect();
            (VertexId(ids[0]), edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_tree_scheme_equals_centralized(
        g in arb_graph(60),
        root_sel in 0..u32::MAX,
        seed in 0..u64::MAX,
    ) {
        let n = g.num_vertices();
        let root = VertexId(root_sel % n as u32);
        let t = tree::shortest_path_tree(&g, root);
        let net = congest::Network::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = default_tree_build(&net, &t, &mut rng);
        tree_routing::distributed::assert_matches_centralized(&t, &out);
    }

    #[test]
    fn tree_routing_is_exact_on_all_pairs(
        g in arb_graph(40),
        seed in 0..u64::MAX,
    ) {
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = congest::Network::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = default_tree_build(&net, &t, &mut rng);
        tree_routing::router::verify_exactness(&t, &out.scheme(&t));
    }

    #[test]
    fn baseline_tree_routing_is_exact(
        g in arb_graph(36),
        seed in 0..u64::MAX,
    ) {
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = congest::Network::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = tree_routing::distributed::Config::default();
        let out = tree_routing::baseline::build(&net, &t, &config, &mut rng);
        let verts: Vec<VertexId> = t.vertices().collect();
        for &u in &verts {
            for &v in &verts {
                let trace = tree_routing::baseline::route(&t, &out.scheme, u, v).unwrap();
                prop_assert_eq!(Some(trace.weight), t.tree_distance(u, v));
            }
        }
    }

    #[test]
    fn tree_stage_depends_on_the_tree_not_the_host(
        sparse in arb_sparse_tree(64),
        q_sel in 0usize..4,
        seed in 0..u64::MAX,
    ) {
        use tree_routing::{baseline, distributed, multi, router};
        let (root, edges) = sparse;
        // The same tree twice: inside the sparse host, and relabelled by
        // rank onto a host of exactly its own size. The shared backbone
        // depth makes the two runs independent of the network around them.
        let t = graphs::RootedTree::from_edges(SPARSE_HOST, root, edges.iter().copied());
        let m = t.num_vertices();
        let rank = |v: VertexId| VertexId(t.rank_of(v).unwrap() as u32);
        let small = graphs::RootedTree::from_edges(
            m,
            rank(root),
            edges.iter().map(|&(c, p, w)| (rank(c), rank(p), w)),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let host = congest::Network::new(graphs::generators::star(SPARSE_HOST, 1..=1, &mut rng));
        let tight = congest::Network::new(graphs::generators::path(m, 1..=1, &mut rng));
        let q = [None, Some(0.0), Some(1.0), Some(0.3)][q_sel];
        let config = distributed::Config { q, backbone_depth: Some(9) };

        let disabled = &mut obs::Recorder::disabled();
        let big = distributed::build(&host, &t, &config, &mut ChaCha8Rng::seed_from_u64(seed), disabled);
        let lil =
            distributed::build(&tight, &small, &config, &mut ChaCha8Rng::seed_from_u64(seed), disabled);
        distributed::assert_matches_centralized(&t, &big);
        router::verify_exactness(&t, &big.scheme(&t));
        prop_assert_eq!(big.cost, lil.cost);
        // One meter slot per member — nothing outside the tree is metered —
        // and slot for slot the same peaks as on the tight host.
        prop_assert_eq!(big.memory.len(), m);
        prop_assert_eq!(big.memory.peaks(), lil.memory.peaks());
        let (big_scheme, lil_scheme) = (big.scheme(&t), lil.scheme(&small));
        prop_assert_eq!(big_scheme.members(), t.members());
        for v in t.vertices() {
            let (a, b) = (big_scheme.table(v).unwrap(), lil_scheme.table(rank(v)).unwrap());
            prop_assert_eq!((a.enter, a.exit), (b.enter, b.exit));
            prop_assert_eq!(a.parent.map(rank), b.parent);
            prop_assert_eq!(a.heavy.map(rank), b.heavy);
            let (a, b) = (big_scheme.label(v).unwrap(), lil_scheme.label(rank(v)).unwrap());
            let relabelled: Vec<_> = a.light.iter().map(|&(x, y)| (rank(x), rank(y))).collect();
            prop_assert_eq!(&relabelled, &b.light);
        }

        // The prior two-level scheme obeys the same contract.
        let big = baseline::build(&host, &t, &config, &mut ChaCha8Rng::seed_from_u64(seed));
        let lil = baseline::build(&tight, &small, &config, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(big.cost, lil.cost);
        prop_assert_eq!(big.memory.peaks(), lil.memory.peaks());
        prop_assert_eq!(big.virtual_count, lil.virtual_count);
        for &u in t.members() {
            for &v in t.members() {
                let trace = baseline::route(&t, &big.scheme, u, v).unwrap();
                prop_assert_eq!(Some(trace.weight), t.tree_distance(u, v));
            }
        }

        // Charged by the schedule to a host-wide meter, a non-member holds
        // the shared backbone's 3 words and nothing of the tree's.
        let mut account = obs::Recorder::disabled();
        let mut memory = congest::MemoryMeter::new(SPARSE_HOST);
        for v in host.graph().vertices() {
            memory.add(v, 3);
        }
        let mut schedule = multi::Schedule::new(SPARSE_HOST, 1, 9);
        let run = distributed::build(&host, &t, schedule.config(), &mut rng, disabled);
        let (c, m) = (&run.cost, &run.memory);
        schedule.charge_tree(&mut rng, t.members(), c, m, &mut account, &mut memory);
        for v in host.graph().vertices() {
            prop_assert_eq!(memory.peak(v) > 3, t.contains(v));
        }
    }

    #[test]
    fn hopset_estimates_sandwich_distances(
        g in arb_graph(50),
        seed in 0..u64::MAX,
    ) {
        let n = g.num_vertices();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let virt = hopset::VirtualGraph::sample(&g, 0.4, &mut rng);
        prop_assume!(!virt.virtual_vertices().is_empty());
        let mut rec = obs::Recorder::disabled();
        let mut mem = congest::MemoryMeter::new(n);
        let hs = hopset::construction::build(
            &g, &virt, hopset::HopsetParams::default(), 4, &mut rec, &mut mem, &mut rng,
        );
        let root = virt.virtual_vertices()[0];
        let bf = hopset::bellman_ford::LimitedBf { g: &g, virt: &virt, hopset: &hs.hopset };
        let out = bf.run(&[(root, 0)], &|_, _| true, 2 * n + 4, 4, &mut rec, &mut mem);
        let exact = shortest_paths::dijkstra(&g, root);
        for &x in virt.virtual_vertices() {
            // Lower bound always; equality once converged (B covers G here).
            prop_assert!(out.est[x.index()] >= exact[x.index()]);
            prop_assert_eq!(out.est[x.index()], exact[x.index()]);
        }
    }

    #[test]
    fn clusters_match_definition(
        g in arb_graph(40),
        mask in 1u32..15,
    ) {
        let n = g.num_vertices();
        // Deterministic pseudo-level set from the mask.
        let a1: Vec<VertexId> = (0..n as u32)
            .filter(|v| v % (mask + 1) == 0)
            .map(VertexId)
            .collect();
        prop_assume!(!a1.is_empty());
        let (next, _) = shortest_paths::multi_source_dijkstra(&g, &a1);
        let roots: Vec<VertexId> = (0..n as u32)
            .map(VertexId)
            .filter(|v| !a1.contains(v))
            .collect();
        let mut rec = obs::Recorder::disabled();
        let mut mem = congest::MemoryMeter::new(n);
        let (trees, _) = routing::clusters::exact_clusters(&g, &roots, 0, &next, n, &mut rec, &mut mem);
        for t in &trees {
            let dv = shortest_paths::dijkstra(&g, t.root);
            for u in g.vertices() {
                let in_def = u == t.root || dv[u.index()] < next[u.index()];
                prop_assert_eq!(t.contains(u), in_def);
            }
        }
    }

    #[test]
    fn general_scheme_stretch_bound(
        g in arb_graph(40),
        seed in 0..u64::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = routing::build(&g, &routing::BuildParams::new(2), &mut rng);
        let srcs: Vec<VertexId> = g.vertices().step_by(5).collect();
        let stats = routing::router::measure_stretch(
            &g, &built.scheme, &srcs, routing::router::Selection::SourceOptimal,
        );
        prop_assert!(stats.max <= 5.0 + 0.5, "stretch {} > 4k-3+o(1)", stats.max);
    }

    #[test]
    fn exploration_equals_hop_bounded_bellman_ford(
        g in arb_graph(40),
        hops in 1usize..12,
        src_sel in 0..u32::MAX,
    ) {
        let n = g.num_vertices();
        let src = VertexId(src_sel % n as u32);
        let virt = hopset::VirtualGraph::from_set(&g, vec![src], hops);
        let mut rec = obs::Recorder::disabled();
        let mut mem = congest::MemoryMeter::new(n);
        let out = virt.bounded_exploration(&g, &[(src, 0)], &|_, _| true, &mut rec, &mut mem);
        let want = shortest_paths::hop_bounded_distances(&g, src, hops);
        prop_assert_eq!(out.dist, want);
    }

    #[test]
    fn weight_rounding_dominates_and_bounds_inflation(
        g in arb_graph(40),
        eps_pct in 1u32..50,
    ) {
        let eps = eps_pct as f64 / 100.0;
        let r = graphs::rounding::round_weights(&g, eps);
        for ((_, _, w), (_, _, rw)) in g.edges().zip(r.graph.edges()) {
            prop_assert!(rw >= w);
            prop_assert!((rw as f64) <= (w as f64) * (1.0 + eps) * (1.0 + eps));
        }
    }

    #[test]
    fn oracle_never_undershoots(
        g in arb_graph(36),
        seed in 0..u64::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = routing::build(&g, &routing::BuildParams::new(2), &mut rng);
        let oracle = routing::oracle::DistanceOracle::new(&built.scheme);
        for u in g.vertices().step_by(3) {
            let exact = shortest_paths::dijkstra(&g, u);
            for v in g.vertices().step_by(2) {
                let est = oracle.query(u, v);
                prop_assert!(est >= exact[v.index()]);
                if u != v {
                    // 2k-1 bound with approximation slack.
                    prop_assert!((est as f64) <= 3.6 * exact[v.index()] as f64);
                }
            }
        }
    }

    #[test]
    fn scheme_verify_passes_on_all_builds(
        g in arb_graph(36),
        seed in 0..u64::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let built = routing::build(&g, &routing::BuildParams::new(2), &mut rng);
        prop_assert!(routing::verify::verify(&g, &built.scheme).is_empty());
    }

    #[test]
    fn sparse_cover_routing_is_complete_and_bounded(
        g in arb_graph(30),
    ) {
        let k = 2;
        let scheme = routing::covers::build_cover_scheme(&g, k);
        let bound = (8 * (k as u64 + 1)) as f64;
        for u in g.vertices().step_by(3) {
            let du = shortest_paths::dijkstra(&g, u);
            for v in g.vertices().step_by(2) {
                let trace = routing::covers::route_cover(&g, &scheme, u, v)
                    .expect("connected graph routes");
                prop_assert!(trace.weight >= du[v.index()].min(trace.weight));
                if u != v {
                    prop_assert!(trace.weight >= du[v.index()]);
                    prop_assert!((trace.weight as f64) <= bound * du[v.index()] as f64);
                }
            }
        }
    }

    #[test]
    fn sc_hopset_edges_are_exact_distances(
        g in arb_graph(40),
        seed in 0..u64::MAX,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let virt = hopset::VirtualGraph::sample(&g, 0.35, &mut rng);
        prop_assume!(virt.virtual_vertices().len() >= 2);
        let mut rec = obs::Recorder::disabled();
        let mut mem = congest::MemoryMeter::new(g.num_vertices());
        let out = hopset::superclustering::build_sc(
            &g, &virt, hopset::HopsetParams::default(), 0.25, 4, &mut rec, &mut mem, &mut rng,
        );
        for u in g.vertices() {
            if out.hopset.out_edges(u).is_empty() {
                continue;
            }
            let du = shortest_paths::dijkstra(&g, u);
            for e in out.hopset.out_edges(u) {
                prop_assert_eq!(e.weight, du[e.to.index()]);
            }
        }
    }

    #[test]
    fn range_partition_protocol_matches_prefix_sums(
        g in arb_graph(40),
        sizes_seed in 0..u64::MAX,
    ) {
        use rand::Rng as _;
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = congest::Network::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(sizes_seed);
        let sizes: Vec<u64> = (0..net.len()).map(|_| rng.gen_range(1..50)).collect();
        let out = tree_routing::engine_validation::validate_range_partition(&net, &t, &sizes);
        for v in t.vertices() {
            let mut prefix = 0;
            for &c in t.children(v) {
                prefix += sizes[c.index()];
                prop_assert_eq!(out.prefix[c.index()], prefix);
            }
        }
    }

    #[test]
    fn memory_meter_never_underflows_peak(
        ops in proptest::collection::vec((0usize..4, 0usize..3, 1usize..20), 1..60),
    ) {
        let mut m = congest::MemoryMeter::new(4);
        for (kind, v, w) in ops {
            let v = VertexId(v as u32);
            match kind {
                0 => m.add(v, w),
                1 => m.sub(v, w),
                2 => m.set(v, w),
                _ => m.touch(v, w),
            }
            prop_assert!(m.peak(v) >= m.current(v));
        }
    }
}
