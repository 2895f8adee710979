//! Criterion micro-benchmarks for the CONGEST simulator primitives: engine
//! throughput via the BFS protocol (serial and at several worker-thread
//! counts, to expose the round loop's sharding overhead and speedup), the
//! same loop under sparse steady-state traffic, and the Lemma-1 gossip
//! broadcast.

use bench::Family;
use congest::{bfs, broadcast, Network};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{generators, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{packet, BuildParams};
use traffic::sim::{simulate, DropPolicy, Injection, SimConfig};
use traffic::{TrafficPacket, Workload, WorkloadKind};

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

/// The round loop at fixed `n` across worker-thread counts: the serial
/// baseline, a two-way shard, and a shard count above this machine's core
/// count. The simulation is identical at every count (the engine's
/// contract), so any wall-clock delta is pure engine overhead or speedup.
fn bench_round_loop_threads(c: &mut Criterion) {
    let n = 2048;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let net = Network::new(Family::ErdosRenyi.generate(n, &mut rng));
    let mut group = c.benchmark_group("round_loop_threads");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| bfs::build_bfs_tree_with(&net, VertexId(0), t));
        });
    }

    // The opposite regime from the BFS wave, where most vertices act in most
    // rounds: uniform traffic on a 64x64 torus at 8 injections per round
    // keeps a few hundred of the 4096 vertices busy, so this case is the
    // price of a round relative to what it executes.
    let mut rng = ChaCha8Rng::seed_from_u64(32);
    let torus = generators::torus(64, 64, 1..=20, &mut rng);
    let scheme = routing::build(&torus, &BuildParams::new(3), &mut rng).scheme;
    let net = Network::new(torus);
    let mut pairs = Workload::prepare(WorkloadKind::Uniform, net.graph(), &scheme, 32);
    let mut injections: Vec<Injection> = Vec::new();
    for round in 0..128 {
        for _ in 0..8 {
            let (src, dst) = pairs.draw(&mut rng);
            let plan = packet::plan(&scheme, src, dst).expect("a torus is connected");
            let id = injections.len() as u32;
            injections.push((round, src, TrafficPacket::from_plan(id, plan)));
        }
    }
    for threads in [1usize, 2] {
        let cfg = SimConfig {
            queue_cap: 8,
            policy: DropPolicy::TailDrop,
            max_rounds: 4096,
            threads,
            profile: false,
        };
        group.bench_with_input(
            BenchmarkId::new("sparse_torus4k", threads),
            &cfg,
            |b, cfg| b.iter(|| simulate(&net, &scheme, &injections, cfg)),
        );
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

criterion_group!(
    benches,
    bench_bfs,
    bench_round_loop_threads,
    bench_broadcast
);
criterion_main!(benches);
