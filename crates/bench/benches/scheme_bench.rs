//! Criterion micro-benchmarks for the full general-graph scheme: the two
//! construction modes beside the \[EN16b\]-style baseline, the
//! routing-phase throughput, and the persistence codec.

use bench::Family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::VertexId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, persist, prior, router, BuildParams, Mode};

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

/// Saving and loading a scheme: the payload CRC, the container encode /
/// decode around it (decode = CRC + varint parse), and the whole save to a
/// file (encode + CRC + write).
fn bench_persist(c: &mut Criterion) {
    let n = 1024;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let scheme = build(&g, &BuildParams::new(2), &mut rng).scheme;
    let payload = persist::encode_scheme(&scheme);
    let container = persist::encode_container(&scheme).unwrap();
    let mut group = c.benchmark_group("persist_1024_k2");
    group.bench_function("crc32", |b| b.iter(|| persist::crc32(&payload)));
    group.bench_function("encode_container", |b| {
        b.iter(|| persist::encode_container(&scheme).unwrap())
    });
    group.bench_function("decode_container", |b| {
        b.iter(|| persist::decode_container(&container).unwrap())
    });
    let path = std::env::temp_dir().join(format!("scheme-bench-{}.drsc", std::process::id()));
    group.bench_function("save_scheme_to", |b| {
        b.iter(|| persist::save_scheme_to(&path, &scheme).unwrap())
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

criterion_group!(
    benches,
    bench_build_modes,
    bench_route_throughput,
    bench_oracle_queries,
    bench_persist
);
criterion_main!(benches);
