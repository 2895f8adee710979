//! Criterion micro-benchmarks for the full general-graph scheme: the two
//! construction modes beside the \[EN16b\]-style baseline, the
//! routing-phase throughput split into entry selection and hop walk, and
//! the persistence codec.

use bench::Family;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use graphs::VertexId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::forward::{self, Selection};
use routing::{build, persist, prior, router, BuildParams, Mode, RoutingScheme};

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

/// A served route's two layers on the lifecycle runner's torus (64 × 64,
/// weights 1..=100, k = 3), over one fixed list of 1,024 pairs: the entry
/// selection alone, then selection and hop walk on a fresh clone, whose
/// walks learn every row link as they go (`route_cold`), and on a scheme
/// whose links the previous passes learned (`route_warm`). Each sample is
/// one pass over the list; the walk is a route less its selection.
fn bench_serve_walk(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x70_4096);
    let g = graphs::generators::torus(64, 64, 1..=100, &mut rng);
    let scheme = build(&g, &BuildParams::new(3), &mut rng).scheme;
    let n = g.num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..1024)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect();
    let route_all = |scheme: &RoutingScheme| -> u64 {
        let mut weight = 0;
        for &(src, dst) in &pairs {
            let header = forward::select(scheme, src, dst, Selection::SourceOptimal)
                .expect("the torus is connected");
            weight += forward::walk(&g, scheme, src, &header, |_| {}).unwrap().0;
        }
        weight
    };
    let mut group = c.benchmark_group("serve_walk_torus4096_k3");
    group.bench_function("select", |b| {
        b.iter(|| {
            let mut cost = 0;
            for &(src, dst) in &pairs {
                cost += forward::select(&scheme, src, dst, Selection::SourceOptimal)
                    .expect("the torus is connected")
                    .cost;
            }
            cost
        })
    });
    group.bench_function("route_cold", |b| {
        b.iter_batched(
            || scheme.clone(),
            // The clone is returned, so it is dropped off the clock.
            |fresh| (route_all(&fresh), fresh),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("route_warm", |b| b.iter(|| route_all(&scheme)));
    group.finish();
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
/// decode around it (decode = CRC + varint parse), the whole save to a
/// file (encode + CRC + write) and the whole load from it (read + CRC +
/// decode), as a serving process starts.
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
    group.bench_function("load_scheme_from", |b| {
        b.iter(|| persist::load_scheme_from(&path).unwrap())
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

criterion_group!(
    benches,
    bench_build_modes,
    bench_route_throughput,
    bench_serve_walk,
    bench_oracle_queries,
    bench_persist
);
criterion_main!(benches);
