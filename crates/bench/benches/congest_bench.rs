//! Criterion micro-benchmarks for the CONGEST simulator primitives: engine
//! throughput via the BFS protocol and the Lemma-1 gossip broadcast.

use bench::Family;
use congest::{bfs, broadcast, Network};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::VertexId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs_protocol");
    for n in [512usize, 2048] {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let net = Network::new(Family::ErdosRenyi.generate(n, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| bfs::build_bfs_tree(&net, VertexId(0)));
        });
    }
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let n = 512;
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let net = Network::new(Family::ErdosRenyi.generate(n, &mut rng));
    let mut items = vec![Vec::new(); n];
    for s in 0..32u32 {
        items[(s as usize * 13) % n].push((s, s as u64));
    }
    c.bench_function("gossip_broadcast_512x32", |b| {
        b.iter(|| broadcast::broadcast_all(&net, items.clone()));
    });
}

criterion_group!(benches, bench_bfs, bench_broadcast);
criterion_main!(benches);
