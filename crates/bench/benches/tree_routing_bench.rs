//! Criterion micro-benchmarks for the tree-routing constructions
//! (wall-clock of the simulator, complementing the simulated-round tables).

use bench::Family;
use congest::{bfs, Network};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{tree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{BuildParams, Mode};
use tree_routing::{baseline, distributed, router, tz};

fn setup(n: usize) -> (Network, graphs::RootedTree) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let t = tree::shortest_path_tree(&g, VertexId(0));
    (Network::new(g), t)
}

fn bench_constructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_construction");
    for n in [256usize, 1024] {
        let (net, t) = setup(n);
        group.bench_with_input(BenchmarkId::new("centralized_tz", n), &n, |b, _| {
            b.iter(|| tz::build(&t));
        });
        group.bench_with_input(BenchmarkId::new("distributed_ours", n), &n, |b, _| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            b.iter(|| distributed::build_default(&net, &t, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("distributed_prior", n), &n, |b, _| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            b.iter(|| baseline::build(&net, &t, None, &mut rng));
        });
    }
    // The general-graph scheme's tree stage without the rest of the build:
    // every cluster tree of one ER n = 4096, k = 2 scheme, with the stage's
    // shared backbone and sampling rate q = 1/√(s·n) for overlap s.
    let n = 4096;
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let params = BuildParams::new(2).with_mode(Mode::DistributedLowMemory);
    let built = routing::build(&g, &params, &mut rng);
    let net = Network::new(g);
    let s = built.report.max_membership.max(1);
    let config = distributed::Config {
        q: Some((1.0 / ((s * n) as f64).sqrt()).clamp(0.0, 1.0)),
        backbone_depth: Some(bfs::build_bfs_tree(&net, VertexId(0)).depth),
    };
    let trees: Vec<graphs::RootedTree> = built.trees.iter().map(|t| t.to_rooted(n)).collect();
    group.bench_function("cluster_trees_er4096_k2", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| {
            trees
                .iter()
                .map(|t| {
                    distributed::build(&net, t, &config, &mut rng)
                        .ledger
                        .rounds()
                })
                .max()
        });
    });
    group.finish();
}

fn bench_routing_phase(c: &mut Criterion) {
    let (net, t) = setup(1024);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let scheme = distributed::build_default(&net, &t, &mut rng).scheme;
    c.bench_function("tree_route_1024", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let src = VertexId(i % 1024);
            let dst = VertexId((i * 7 + 13) % 1024);
            i = i.wrapping_add(1);
            router::route(&t, &scheme, src, dst).unwrap()
        });
    });
}

criterion_group!(benches, bench_constructions, bench_routing_phase);
criterion_main!(benches);
