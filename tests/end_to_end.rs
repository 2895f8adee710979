//! End-to-end integration: build the full general-graph scheme on every
//! topology family and verify Theorem 3's guarantees hold together —
//! stretch, sizes, memory ordering versus the baselines.

use graphs::{generators, properties, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, router, BuildParams, Mode};

fn sample_sources(n: usize, step: usize) -> Vec<VertexId> {
    (0..n as u32).step_by(step).map(VertexId).collect()
}

fn check_stretch(g: &graphs::Graph, k: usize, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let built = build(g, &BuildParams::new(k), &mut rng);
    let srcs = sample_sources(g.num_vertices(), 7);
    let stats = router::measure_stretch(g, &built.scheme, &srcs, router::Selection::SourceOptimal);
    assert!(
        stats.max <= (4 * k - 3) as f64 + 0.5,
        "stretch {} above 4k-3+o(1) for k={k}",
        stats.max
    );
    stats.max
}

#[test]
fn stretch_on_erdos_renyi() {
    let mut rng = ChaCha8Rng::seed_from_u64(1001);
    let g = generators::erdos_renyi_connected(150, 0.04, 1..=30, &mut rng);
    check_stretch(&g, 2, 1);
    check_stretch(&g, 3, 2);
}

#[test]
fn stretch_on_geometric() {
    let mut rng = ChaCha8Rng::seed_from_u64(1002);
    let g = generators::random_geometric_connected(120, 0.14, 1..=30, &mut rng);
    check_stretch(&g, 2, 3);
}

#[test]
fn stretch_on_torus() {
    let mut rng = ChaCha8Rng::seed_from_u64(1003);
    let g = generators::torus(10, 12, 1..=9, &mut rng);
    check_stretch(&g, 2, 4);
}

#[test]
fn stretch_on_preferential_attachment() {
    let mut rng = ChaCha8Rng::seed_from_u64(1004);
    let g = generators::preferential_attachment(130, 2, 1..=20, &mut rng);
    check_stretch(&g, 3, 5);
}

#[test]
fn stretch_on_path_worst_case_diameter() {
    let mut rng = ChaCha8Rng::seed_from_u64(1005);
    let g = generators::path(60, 1..=9, &mut rng);
    check_stretch(&g, 2, 6);
}

#[test]
fn stretch_on_lollipop() {
    let mut rng = ChaCha8Rng::seed_from_u64(1006);
    let g = generators::lollipop(15, 40, 1..=9, &mut rng);
    check_stretch(&g, 2, 7);
}

#[test]
fn stretch_with_heavy_aspect_ratio() {
    // Weights spanning 4 orders of magnitude: the construction time must not
    // depend on log Λ (no rounding machinery needed), and stretch holds.
    let mut rng = ChaCha8Rng::seed_from_u64(1007);
    let g = generators::erdos_renyi_connected(100, 0.05, 1..=10_000, &mut rng);
    assert!(g.aspect_ratio().unwrap() > 100.0);
    check_stretch(&g, 2, 8);
}

#[test]
fn memory_ordering_between_modes() {
    // The paper's Table 1 ordering: ours ≤ prior on memory; tables and
    // labels no larger than prior's.
    let mut rng = ChaCha8Rng::seed_from_u64(1008);
    let g = generators::erdos_renyi_connected(300, 0.02, 1..=9, &mut rng);
    let mut rng1 = ChaCha8Rng::seed_from_u64(5);
    let mut rng2 = ChaCha8Rng::seed_from_u64(5);
    let ours = build(&g, &BuildParams::new(2), &mut rng1);
    let prior = routing::prior::build(&g, 2, &mut rng2);
    assert!(ours.report.memory.max_peak() < prior.report.memory.max_peak());
    assert!(ours.report.max_table_words <= prior.report.max_table_words);
    assert!(ours.report.max_label_words <= prior.report.max_label_words);
}

#[test]
fn our_sizes_match_centralized_reference() {
    // Theorem 3: our distributed tables/labels match the centralized
    // Thorup–Zwick sizes (same tree-scheme family), given the same clusters.
    let mut rng = ChaCha8Rng::seed_from_u64(1009);
    let g = generators::erdos_renyi_connected(200, 0.03, 1..=9, &mut rng);
    let mut rng1 = ChaCha8Rng::seed_from_u64(13);
    let mut rng2 = ChaCha8Rng::seed_from_u64(13);
    let central = build(
        &g,
        &BuildParams::new(2).with_mode(Mode::Centralized),
        &mut rng1,
    );
    let ours = build(&g, &BuildParams::new(2), &mut rng2);
    // Exact levels coincide, so sizes should be very close; never larger by
    // more than the approximate-cluster slack.
    assert!(
        ours.report.max_label_words <= central.report.max_label_words + 8,
        "our labels {} vs centralized {}",
        ours.report.max_label_words,
        central.report.max_label_words
    );
}

#[test]
fn rounds_are_sublinear_in_n_squared() {
    // Coarse guard: simulated rounds stay within the Õ(n^{1/2+1/k} + D)
    // shape envelope (generous constant for small n).
    let mut rng = ChaCha8Rng::seed_from_u64(1010);
    let g = generators::erdos_renyi_connected(256, 0.025, 1..=9, &mut rng);
    let built = build(&g, &BuildParams::new(2), &mut rng);
    let n = 256f64;
    let d = properties::hop_diameter(&built_graph(&g)).unwrap_or(10) as f64;
    let envelope = 600.0 * (n.powf(1.0) + d) * n.ln(); // ~Õ(n) slack for ln² factors
    assert!(
        (built.report.rounds as f64) < envelope,
        "rounds {} outside envelope {}",
        built.report.rounds,
        envelope
    );
}

fn built_graph(g: &graphs::Graph) -> graphs::Graph {
    g.clone()
}

#[test]
fn labels_stay_o_k_log_n() {
    let mut rng = ChaCha8Rng::seed_from_u64(1011);
    let g = generators::erdos_renyi_connected(250, 0.025, 1..=9, &mut rng);
    for k in [2usize, 3, 4] {
        let built = build(&g, &BuildParams::new(k), &mut rng);
        let log_n = (250f64).log2();
        let bound = (3.0 * k as f64 * log_n).ceil() as usize + 3 * k;
        assert!(
            built.report.max_label_words <= bound,
            "k={k}: label {} exceeds O(k log n) bound {bound}",
            built.report.max_label_words
        );
    }
}

#[test]
fn stretch_on_hypercube() {
    let mut rng = ChaCha8Rng::seed_from_u64(1013);
    let g = generators::hypercube(7, 1..=9, &mut rng);
    check_stretch(&g, 2, 9);
}

#[test]
fn stretch_on_expander() {
    let mut rng = ChaCha8Rng::seed_from_u64(1014);
    let g = generators::random_regular_expander(140, 5, 1..=9, &mut rng);
    check_stretch(&g, 3, 10);
}

#[test]
fn stretch_on_barbell() {
    let mut rng = ChaCha8Rng::seed_from_u64(1015);
    let g = generators::barbell(25, 40, 1..=9, &mut rng);
    check_stretch(&g, 2, 11);
}

#[test]
fn standard_congest_rounding_preserves_stretch() {
    // §2's adaptation: run the whole scheme on the (1+ε)-rounded graph and
    // measure stretch against the ORIGINAL distances — the combined slack is
    // the scheme bound times the rounding inflation.
    let mut rng = ChaCha8Rng::seed_from_u64(1016);
    let g = generators::erdos_renyi_connected(120, 0.05, 1..=5_000, &mut rng);
    let eps = 0.05;
    let rounded = graphs::rounding::round_weights(&g, eps);
    let built = build(&rounded.graph, &BuildParams::new(2), &mut rng);
    let k = 2;
    let mut worst: f64 = 1.0;
    for s in (0..120u32).step_by(17).map(VertexId) {
        let exact = graphs::shortest_paths::dijkstra(&g, s);
        for t in g.vertices() {
            if t == s {
                continue;
            }
            let trace = router::route(&rounded.graph, &built.scheme, s, t).unwrap();
            // Price the routed path with the ORIGINAL weights.
            let mut orig = 0;
            for pair in trace.path.windows(2) {
                orig += g.edge_weight(pair[0], pair[1]).unwrap();
            }
            worst = worst.max(orig as f64 / exact[t.index()] as f64);
        }
    }
    let bound = ((4 * k - 3) as f64 + 0.5) * (1.0 + eps) * (1.0 + eps);
    assert!(
        worst <= bound,
        "rounded-graph stretch {worst} above {bound}"
    );
    // And the rounded instance's weights fit in few bits.
    assert!(rounded.bits_per_weight <= 9);
}

#[test]
fn oracle_and_persist_round_trip_through_full_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(1017);
    let g = generators::erdos_renyi_connected(100, 0.05, 1..=20, &mut rng);
    let built = build(&g, &BuildParams::new(3), &mut rng);
    let bytes = routing::persist::encode_scheme(&built.scheme);
    let reloaded = routing::persist::decode_scheme(&bytes).unwrap();
    let oracle = routing::oracle::DistanceOracle::new(&reloaded);
    for s in (0..100u32).step_by(13).map(VertexId) {
        let exact = graphs::shortest_paths::dijkstra(&g, s);
        for t in g.vertices() {
            if t == s {
                continue;
            }
            let est = oracle.query(s, t);
            assert!(est >= exact[t.index()]);
            assert!(est as f64 <= 5.5 * exact[t.index()] as f64); // 2k-1 + slack
        }
    }
}

#[test]
fn full_pipeline_is_deterministic_given_seed() {
    let mut rng_a = ChaCha8Rng::seed_from_u64(1012);
    let g = generators::erdos_renyi_connected(100, 0.05, 1..=9, &mut rng_a);
    let mut rng1 = ChaCha8Rng::seed_from_u64(3);
    let mut rng2 = ChaCha8Rng::seed_from_u64(3);
    let a = build(&g, &BuildParams::new(2), &mut rng1);
    let b = build(&g, &BuildParams::new(2), &mut rng2);
    assert_eq!(a.report.rounds, b.report.rounds);
    assert_eq!(a.report.max_table_words, b.report.max_table_words);
    assert_eq!(a.report.total_membership, b.report.total_membership);
    for v in g.vertices() {
        let ta = a.scheme.table(v).rows();
        let tb = b.scheme.table(v).rows();
        assert_eq!(ta.len(), tb.len());
    }
}
