//! Criterion micro-benchmarks for hopset construction and hopset-powered
//! Bellman–Ford.

use bench::Family;
use congest::MemoryMeter;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hopset::bellman_ford::LimitedBf;
use hopset::construction::{build as build_hopset, HopsetParams};
use hopset::{Hopset, VirtualGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("hopset_construction");
    for n in [256usize, 1024, 4096] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let virt = VirtualGraph::sample(&g, 1.5 / (n as f64).sqrt(), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            b.iter(|| {
                let mut rec = obs::Recorder::disabled();
                let mut mem = MemoryMeter::new(n);
                build_hopset(
                    &g,
                    &virt,
                    HopsetParams::default(),
                    8,
                    &mut rec,
                    &mut mem,
                    &mut rng,
                )
            });
        });
    }
    group.finish();
}

fn bench_bellman_ford(c: &mut Criterion) {
    let n = 1024;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = Family::Geometric.generate(n, &mut rng);
    let virt = VirtualGraph::sample(&g, 1.5 / (n as f64).sqrt(), &mut rng);
    let mut rec = obs::Recorder::disabled();
    let mut mem = MemoryMeter::new(n);
    let hs = build_hopset(
        &g,
        &virt,
        HopsetParams::default(),
        8,
        &mut rec,
        &mut mem,
        &mut rng,
    );
    let empty = Hopset::new(n);
    let root = virt.virtual_vertices()[0];
    let mut group = c.benchmark_group("bellman_ford_1024");
    group.bench_function("with_hopset", |b| {
        b.iter(|| {
            let mut rec = obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(n);
            LimitedBf {
                g: &g,
                virt: &virt,
                hopset: &hs.hopset,
            }
            .run(&[(root, 0)], &|_, _| true, 4 * n, 8, &mut rec, &mut mem)
        });
    });
    group.bench_function("plain_explorations", |b| {
        b.iter(|| {
            let mut rec = obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(n);
            LimitedBf {
                g: &g,
                virt: &virt,
                hopset: &empty,
            }
            .run(&[(root, 0)], &|_, _| true, 4 * n, 8, &mut rec, &mut mem)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_construction, bench_bellman_ford);
criterion_main!(benches);
