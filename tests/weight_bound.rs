//! Edge weights up to the graph door's bound: the total edge weight of a
//! graph may reach `MAX_TOTAL_WEIGHT`, and then every build, round trip,
//! oracle query and route is still finite and correct. One unit more is a
//! typed error at the text door and a panic at the builder.

use graphs::{io, shortest_paths, Graph, GraphBuilder, VertexId, Weight, MAX_TOTAL_WEIGHT};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::{build, persist, router, verify, BuildParams, Mode};

/// A connected graph on `n` vertices (a random spanning tree plus up to `n`
/// extra edges) whose weights are drawn from a ladder reaching the bound:
/// 1, 2^40, and a third, a half and all of `MAX_TOTAL_WEIGHT / m` for `m`
/// edges, so the total never exceeds `MAX_TOTAL_WEIGHT`.
fn heavy_graph(n: usize, rng: &mut ChaCha8Rng) -> Graph {
    let mut pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v)).collect();
    for _ in 0..rng.gen_range(0..=n) {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        let key = (u.min(v), u.max(v));
        if u != v && !pairs.contains(&key) {
            pairs.push(key);
        }
    }
    let share = MAX_TOTAL_WEIGHT / pairs.len() as Weight;
    let ladder = [1, 1 << 40, share / 3, share / 2, share];
    let mut b = GraphBuilder::new(n);
    for (u, v) in pairs {
        b.add_edge(
            VertexId(u),
            VertexId(v),
            ladder[rng.gen_range(0..ladder.len())],
        );
    }
    b.build()
}

#[test]
fn weights_up_to_the_bound_build_and_route_everywhere() {
    let mut rng = ChaCha8Rng::seed_from_u64(7100);
    for case in 0..300 {
        let n = 2 + case % 8;
        let g = heavy_graph(n, &mut rng);
        assert!(g.total_weight() <= MAX_TOTAL_WEIGHT);
        for k in [2, 3] {
            for mode in [Mode::Centralized, Mode::DistributedLowMemory] {
                let what = format!("case {case} n={n} k={k} {mode:?}");
                let params = BuildParams::new(k).with_mode(mode);
                let scheme = build(&g, &params, &mut rng).scheme;
                assert!(verify::verify(&g, &scheme).is_empty(), "{what}");
                let bytes = persist::encode_scheme(&scheme);
                let back = persist::decode_scheme(&bytes).expect("round trip");
                assert_eq!(persist::encode_scheme(&back), bytes, "{what}");
                let oracle = DistanceOracle::new(&scheme);
                for s in g.vertices() {
                    let exact = shortest_paths::dijkstra(&g, s);
                    for t in g.vertices() {
                        let d = exact[t.index()];
                        let estimate = oracle.query(s, t);
                        assert!(
                            d <= estimate && estimate <= (2 * k as u64 - 1) * d,
                            "{what}"
                        );
                        let trace = router::route(&g, &scheme, s, t)
                            .unwrap_or_else(|e| panic!("{what}: {s} -> {t}: {e:?}"));
                        assert!(
                            d <= trace.weight && trace.weight <= (4 * k as u64 - 3) * d,
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_total_one_over_the_bound_is_a_typed_error_at_the_line_that_crosses_it() {
    let half = MAX_TOTAL_WEIGHT / 2;
    let text = format!("p 3\n0 1 {half}\n1 2 {}\n", MAX_TOTAL_WEIGHT - half + 1);
    let err = io::parse_edge_list(&text).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.message.contains("total edge weight exceeds"), "{err}");
    let at_bound = format!("p 3\n0 1 {half}\n1 2 {}\n", MAX_TOTAL_WEIGHT - half);
    assert_eq!(
        io::parse_edge_list(&at_bound).unwrap().total_weight(),
        MAX_TOTAL_WEIGHT
    );
}

#[test]
#[should_panic(expected = "total edge weight exceeds")]
fn the_builder_panics_on_a_total_over_the_bound() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(VertexId(0), VertexId(1), MAX_TOTAL_WEIGHT);
    b.add_edge(VertexId(1), VertexId(2), 1);
    b.build();
}
