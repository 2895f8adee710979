//! Criterion micro-benchmarks for the tree-routing constructions
//! (wall-clock of the simulator, complementing the simulated-round tables).

use bench::Family;
use congest::{bfs, CostLedger, MemoryMeter, Network};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphs::{tree, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{BuildParams, Mode};
use tree_routing::distributed::{self, Config};
use tree_routing::{baseline, multi, router, tz};

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
            let disabled = &mut obs::Recorder::disabled();
            b.iter(|| distributed::build(&net, &t, &Config::default(), &mut rng, disabled));
        });
        group.bench_with_input(BenchmarkId::new("distributed_prior", n), &n, |b, _| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            b.iter(|| baseline::build(&net, &t, &Config::default(), &mut rng));
        });
    }
    // The general-graph scheme's tree stage without the rest of the build:
    // every cluster tree of one ER n = 4096, k = 2 scheme on the stage's
    // schedule for overlap s (shared backbone, q = 1/√(s·n), offsets), on
    // one reused scratch asked only for the labels the scheme keeps.
    let n = 4096;
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let params = BuildParams::new(2).with_mode(Mode::DistributedLowMemory);
    let built = routing::build(&g, &params, &mut rng);
    let s = built.report.max_membership;
    // A kept label row of `v` lives in the tree rooted at the row's pivot,
    // at `v`'s rank among that tree's (sorted) members.
    let mut tree_of_root = vec![usize::MAX; n];
    for (idx, t) in built.trees.iter().enumerate() {
        tree_of_root[t.root.index()] = idx;
    }
    let mut ranks = vec![Vec::new(); built.trees.len()];
    for v in g.vertices() {
        for row in built.scheme.label(v).rows() {
            let idx = tree_of_root[row.pivot.index()];
            let rank = built.trees[idx].members().binary_search(&v);
            ranks[idx].push(rank.expect("a labeled vertex is a member of its pivot's tree"));
        }
    }
    let net = Network::new(g);
    let depth = bfs::build_bfs_tree(&net, VertexId(0)).depth;
    let trees: Vec<graphs::RootedTree> = built.trees.iter().map(|t| t.to_rooted(n)).collect();
    group.bench_function("cluster_trees_er4096_k2", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let disabled = &mut obs::Recorder::disabled();
        b.iter(|| {
            let mut scratch = distributed::Scratch::default();
            let mut schedule = multi::Schedule::new(n, s, depth);
            let (mut ledger, mut memory) = (CostLedger::new(), MemoryMeter::new(n));
            for (t, ranks) in trees.iter().zip(&ranks) {
                let run = scratch.run(&net, t, schedule.config(), ranks, &mut rng, disabled);
                let (l, m) = (&run.ledger, &run.memory);
                schedule.charge_tree(&mut rng, t.members(), l, m, &mut ledger, &mut memory);
            }
            schedule.close(&mut ledger)
        });
    });
    group.finish();
}

fn bench_routing_phase(c: &mut Criterion) {
    let (net, t) = setup(1024);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let disabled = &mut obs::Recorder::disabled();
    let scheme = distributed::build(&net, &t, &Config::default(), &mut rng, disabled).scheme(&t);
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
