//! Criterion micro-benchmarks for the full general-graph scheme: the two
//! construction modes beside the \[EN16b\]-style baseline, and the
//! routing-phase throughput.

use bench::Family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::VertexId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, prior, router, BuildParams, Mode};

fn bench_build_modes(c: &mut Criterion) {
    let n = 256;
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let mut group = c.benchmark_group("scheme_build_256_k2");
    group.sample_size(10);
    for (name, mode) in [
        ("centralized", Mode::Centralized),
        ("ours", Mode::DistributedLowMemory),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| build(&g, &BuildParams::new(2).with_mode(mode), &mut rng));
        });
    }
    group.bench_function(BenchmarkId::from_parameter("prior"), |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| prior::build(&g, 2, &mut rng));
    });
    group.finish();
}

fn bench_route_throughput(c: &mut Criterion) {
    let n = 512;
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let built = build(&g, &BuildParams::new(3), &mut rng);
    c.bench_function("graph_route_512_k3", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let src = VertexId(i % n as u32);
            let dst = VertexId((i * 31 + 7) % n as u32);
            i = i.wrapping_add(1);
            router::route(&g, &built.scheme, src, dst).unwrap()
        });
    });
}

fn bench_oracle_queries(c: &mut Criterion) {
    let n = 512;
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let built = build(&g, &BuildParams::new(3), &mut rng);
    let oracle = routing::oracle::DistanceOracle::new(&built.scheme);
    c.bench_function("oracle_query_512_k3", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let src = VertexId(i % n as u32);
            let dst = VertexId((i * 31 + 7) % n as u32);
            i = i.wrapping_add(1);
            oracle.query(src, dst)
        });
    });
}

criterion_group!(
    benches,
    bench_build_modes,
    bench_route_throughput,
    bench_oracle_queries
);
criterion_main!(benches);
