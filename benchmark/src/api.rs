//! The one place this benchmark touches the system under test.
//!
//! Every call into `graphs`, `congest`, `tree-routing`, `routing`, `traffic`,
//! `serve` and `obs` goes through a function here, and the rest of the crate
//! names their types only through the aliases below. When an API of those
//! crates is collapsed or renamed (the `send*` / `_with` families,
//! `SimConfig`, `ServeConfig`), this file is the whole companion change.
//!
//! Nothing here reads a clock except [`kernel_ns`], [`open_loop`] and
//! [`tz_floor`], whose loops are the measurement; every other function is
//! timed from outside by a harness span.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;

use graphs::VertexId;
use routing::router::Selection;
use traffic::sim::{DropPolicy, SimConfig};

use crate::trace::Phase;

#[cfg(test)]
pub use obs::json::parse as parse_json;
pub use obs::json::Value as Json;

pub type Graph = graphs::Graph;
pub type Network = congest::Network;
pub type Built = routing::Built;
pub type Scheme = routing::RoutingScheme;
pub type Snapshot = serve::SharedSnapshot;
pub type Pool = serve::ServePool;
pub type Query = serve::Query;
pub type Injection = traffic::sim::Injection;

/// Closed-loop batch size (queries per dispatch).
const CLOSED_BATCH: usize = 256;
/// Per-port queue capacity of the forwarding plane, in packets.
const QUEUE_CAP: usize = 8;
/// Rounds allowed after the last injection for the network to drain.
const DRAIN_ROUNDS: u64 = 8192;

// ---------------------------------------------------------------- graphs

/// The graph families the workloads draw from; weights are `1..=100`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Connected Erdős–Rényi with edge probability `mean_degree / n`.
    ErdosRenyi { n: usize, mean_degree: f64 },
    /// `side × side` torus (hop diameter `side`).
    Torus { side: usize },
    /// Barabási–Albert preferential attachment, `attach` edges per vertex.
    ScaleFree { n: usize, attach: usize },
}

pub fn generate(topology: Topology, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = 1..=100;
    match topology {
        Topology::ErdosRenyi { n, mean_degree } => {
            graphs::generators::erdos_renyi_connected(n, mean_degree / n as f64, weights, &mut rng)
        }
        Topology::Torus { side } => graphs::generators::torus(side, side, weights, &mut rng),
        Topology::ScaleFree { n, attach } => {
            graphs::generators::preferential_attachment(n, attach, weights, &mut rng)
        }
    }
}

pub fn vertices(g: &Graph) -> usize {
    g.num_vertices()
}

pub fn edges(g: &Graph) -> usize {
    g.num_edges()
}

// --------------------------------------------------------------- congest

pub fn network(g: &Graph) -> Network {
    Network::new(g.clone())
}

/// The distributed BFS backbone on its own (the build's first phase).
pub fn bfs_depth(net: &Network) -> usize {
    congest::bfs::build_bfs_tree(net, VertexId(0)).depth
}

// --------------------------------------------------------------- routing

fn build_params(k: usize) -> routing::BuildParams {
    routing::BuildParams::new(k)
        .with_mode(routing::Mode::DistributedLowMemory)
        .with_threads(1)
}

/// `routing::build`, recorder disabled.
pub fn build(g: &Graph, k: usize, seed: u64) -> Built {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    routing::build(g, &build_params(k), &mut rng)
}

/// `routing::build_observed` with an enabled recorder; returns the
/// recorder's phase spans alongside the result.
pub fn build_traced(g: &Graph, k: usize, seed: u64) -> (Built, Vec<Phase>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rec = obs::Recorder::new();
    let built = routing::build_observed(g, &build_params(k), &mut rng, &mut rec);
    let phases = rec
        .spans()
        .iter()
        .map(|s| Phase {
            name: s.name.clone(),
            wall_ns: s.wall_ns,
            parent: s.parent,
        })
        .collect();
    (built, phases)
}

/// What `BuildReport` and the scheme say about a build — all exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Currencies {
    pub rounds: u64,
    pub mem_words_max: usize,
    pub table_words_max: usize,
    pub label_words_max: usize,
    pub tree_stage_rounds: u64,
    pub trees: usize,
    pub total_membership: usize,
    pub max_membership: usize,
    pub hopset_edges: usize,
    pub beta_used: usize,
}

pub fn currencies(built: &Built) -> Currencies {
    let r = &built.report;
    Currencies {
        rounds: r.rounds,
        mem_words_max: r.memory.max_peak(),
        table_words_max: r.max_table_words,
        label_words_max: r.max_label_words,
        tree_stage_rounds: r.tree_stage_rounds,
        trees: built.trees.len(),
        total_membership: r.total_membership,
        max_membership: r.max_membership,
        hopset_edges: r.hopset_edges,
        beta_used: r.beta_used,
    }
}

/// Structural violations `routing::verify` finds (0 = well formed).
pub fn verify(g: &Graph, scheme: &Scheme) -> usize {
    routing::verify::verify(g, scheme).len()
}

pub struct Stretch {
    pub pairs: usize,
    pub max: f64,
    pub mean: f64,
    /// Samples above the paper's `4k − 3`.
    pub over_bound: usize,
}

/// Routed/true distance over `sources` seeded sources × all targets, with
/// source-optimal selection.
pub fn stretch(g: &Graph, scheme: &Scheme, sources: usize, seed: u64) -> Stretch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    let srcs: Vec<VertexId> = (0..sources)
        .map(|_| VertexId(rng.gen_range(0..n)))
        .collect();
    let stats = routing::router::measure_stretch(g, scheme, &srcs, Selection::SourceOptimal);
    let bound = (4 * scheme.k - 3) as f64;
    Stretch {
        pairs: stats.pairs,
        max: stats.max,
        mean: stats.mean,
        over_bound: stats.values.iter().filter(|&&s| s > bound).count(),
    }
}

/// The cluster trees of `built` through the centralized Thorup–Zwick tree
/// scheme — the floor under the distributed tree-routing stage. Returns
/// `(to_rooted_s, tz_build_s)`, each summed over all trees; trees are
/// converted one at a time because the dense form is `Θ(n)` per tree.
pub fn tz_floor(built: &Built, n: usize) -> (f64, f64) {
    let (mut convert, mut tz) = (0.0, 0.0);
    for tree in &built.trees {
        let t0 = Instant::now();
        let rooted = tree.to_rooted(n);
        let t1 = Instant::now();
        black_box(tree_routing::tz::build(&rooted));
        let t2 = Instant::now();
        convert += (t1 - t0).as_secs_f64();
        tz += (t2 - t1).as_secs_f64();
    }
    (convert, tz)
}

/// `count` seeded uniform pairs with distinct endpoints.
pub fn pairs(g: &Graph, scheme: &Scheme, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut uniform = prepare_traffic(g, scheme, Pairs::Uniform, seed);
    (0..count).map(|_| uniform.draw(&mut rng)).collect()
}

/// The central router over `pairs`; returns how many failed to route.
pub fn route_all(g: &Graph, scheme: &Scheme, pairs: &[(VertexId, VertexId)]) -> usize {
    pairs
        .iter()
        .filter(|&&(s, t)| black_box(routing::router::route(g, scheme, s, t)).is_err())
        .count()
}

/// The distance oracle over `pairs`; returns how many were unreachable.
pub fn oracle_all(scheme: &Scheme, pairs: &[(VertexId, VertexId)]) -> usize {
    let oracle = routing::oracle::DistanceOracle::new(scheme);
    pairs
        .iter()
        .filter(|&&(s, t)| black_box(oracle.query(s, t)) == graphs::INFINITY)
        .count()
}

// --------------------------------------------------------------- persist

pub fn save(path: &Path, scheme: &Scheme) {
    routing::persist::save_scheme_to(path, scheme).expect("save scheme");
}

/// `load_scheme_from` + `Snapshot::share`: everything between a file on
/// disk and a process that can answer.
pub fn load(path: &Path, graph: Graph) -> Snapshot {
    let scheme = routing::persist::load_scheme_from(path).expect("load scheme");
    serve::Snapshot::share(graph, scheme)
}

pub fn encode(scheme: &Scheme) -> Vec<u8> {
    routing::persist::encode_container(scheme).expect("encode scheme")
}

pub fn decode(bytes: &[u8]) -> Scheme {
    routing::persist::decode_container(bytes).expect("decode scheme")
}

pub fn share(graph: Graph, scheme: Scheme) -> Snapshot {
    serve::Snapshot::share(graph, scheme)
}

pub fn snapshot_parts(snap: &Snapshot) -> (&Graph, &Scheme) {
    (&snap.graph, &snap.scheme)
}

// ----------------------------------------------------------------- serve

/// Where query and packet endpoints come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairs {
    /// Uniformly random distinct pairs.
    Uniform,
    /// Every destination is the highest-degree vertex.
    Hotspot,
}

fn serve_config(
    pairs: Pairs,
    queries: usize,
    threads: usize,
    check_rate: f64,
    seed: u64,
) -> serve::ServeConfig {
    serve::ServeConfig {
        workload: match pairs {
            Pairs::Uniform => serve::ServeWorkload::Uniform,
            Pairs::Hotspot => serve::ServeWorkload::Hotspot,
        },
        queries,
        batch: CLOSED_BATCH,
        threads,
        seed,
        check_rate,
    }
}

/// The seeded query stream (mix 60/25/15 route/distance/trace).
pub fn stream(snap: &Snapshot, pairs: Pairs, queries: usize, seed: u64) -> Vec<Query> {
    serve::generate_stream(snap, &serve_config(pairs, queries, 1, 0.0, seed))
}

pub fn start_pool(snap: &Snapshot, threads: usize) -> Pool {
    serve::ServePool::start(snap.clone(), threads)
}

/// One closed-loop segment as the pool reports it.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub queries: u64,
    /// Answered `Error` or `Unreachable`, or disagreeing with the central
    /// cross-check.
    pub failed: u64,
    pub qps: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Route and trace queries (the ones that walk hops).
    pub walks: u64,
    pub hops: u64,
    pub checksum: u64,
}

/// `run_closed` over `stream`: batches of 256 back to back.
pub fn serve_closed(pool: &mut Pool, stream: &[Query], check_rate: f64, seed: u64) -> Segment {
    // `run_closed` reads the pair model only to label its summary.
    let cfg = serve_config(
        Pairs::Uniform,
        stream.len(),
        pool.threads(),
        check_rate,
        seed,
    );
    let s = serve::run_closed(pool, stream, &cfg);
    Segment {
        queries: s.queries,
        failed: s.errors + s.unreachable + s.mismatches,
        qps: s.qps,
        p50_ns: s.p50_ns,
        p95_ns: s.p95_ns,
        p99_ns: s.p99_ns,
        walks: s.route_queries + s.trace_queries,
        hops: s.total_hops,
        checksum: s.answer_checksum,
    }
}

/// `answer_query` called inline (no pool, no per-query clock) over the
/// queries of `stream` whose kind is `kind` — `0` route, `1` distance, `2`
/// trace. Returns mean nanoseconds per query and how many there were.
pub fn kernel_ns(snap: &Snapshot, stream: &[Query], kind: usize) -> (f64, usize) {
    let want = [
        serve::QueryKind::Route,
        serve::QueryKind::Distance,
        serve::QueryKind::Trace,
    ][kind];
    let picked: Vec<Query> = stream.iter().copied().filter(|q| q.kind == want).collect();
    let oracle = routing::oracle::DistanceOracle::new(&snap.scheme);
    let mut paths = Vec::new();
    let started = Instant::now();
    for &q in &picked {
        paths.clear();
        black_box(serve::query::answer_query(snap, &oracle, q, &mut paths));
    }
    let ns = started.elapsed().as_nanos() as f64;
    (ns / picked.len().max(1) as f64, picked.len())
}

/// What an open-loop pass measured, per batch.
pub struct OpenLoop {
    /// Completion minus *due* time, nanoseconds.
    pub latency_ns: Vec<f64>,
    /// How far behind its due time each batch was dispatched, nanoseconds.
    pub late_ns: Vec<f64>,
}

/// Open loop around `ServePool::serve_batch`: batch `i` is due at
/// `i · batch / qps`, the generator spins (never sleeps) until then, and
/// each batch is timed from its due time, so a stall is charged to every
/// batch it delays.
pub fn open_loop(pool: &mut Pool, stream: &[Query], batch: usize, qps: f64) -> OpenLoop {
    let mut out = serve::BatchResult::default();
    let batches = stream.len() / batch;
    let mut result = OpenLoop {
        latency_ns: Vec::with_capacity(batches),
        late_ns: Vec::with_capacity(batches),
    };
    let started = Instant::now();
    for (i, chunk) in stream.chunks_exact(batch).enumerate() {
        let due = (i * batch) as f64 * 1e9 / qps;
        let mut now = started.elapsed().as_nanos() as f64;
        while now < due {
            std::hint::spin_loop();
            now = started.elapsed().as_nanos() as f64;
        }
        pool.serve_batch(chunk, (i * batch) as u64, 0.0, 0, &mut out);
        result.late_ns.push(now - due);
        result
            .latency_ns
            .push(started.elapsed().as_nanos() as f64 - due);
    }
    result
}

// --------------------------------------------------------------- traffic

fn traffic_kind(pairs: Pairs) -> traffic::WorkloadKind {
    match pairs {
        Pairs::Uniform => traffic::WorkloadKind::Uniform,
        Pairs::Hotspot => traffic::WorkloadKind::Hotspot,
    }
}

/// `Workload::prepare` for the forwarding plane.
pub fn prepare_traffic(g: &Graph, scheme: &Scheme, pairs: Pairs, seed: u64) -> traffic::Workload {
    traffic::Workload::prepare(traffic_kind(pairs), g, scheme, seed)
}

/// Plan the whole injection schedule coordinator-side: fixed arrivals at
/// `rate` packets per round for `rounds` rounds, one `packet::plan` per
/// packet. Returns the schedule and how many offered pairs had no route.
pub fn plan_injections(
    scheme: &Scheme,
    workload: &mut traffic::Workload,
    rate: f64,
    rounds: u64,
    seed: u64,
) -> (Vec<Injection>, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut arrival = traffic::Arrival::new(traffic::ArrivalKind::Fixed, rate);
    let mut injections = Vec::new();
    let mut undeliverable = 0;
    for round in 0..rounds {
        for _ in 0..arrival.count(&mut rng) {
            let (src, dst) = workload.draw(&mut rng);
            match routing::packet::plan(scheme, src, dst) {
                Some(plan) => {
                    let id = injections.len() as u32;
                    injections.push((round, src, traffic::TrafficPacket::from_plan(id, plan)));
                }
                None => undeliverable += 1,
            }
        }
    }
    (injections, undeliverable)
}

/// Rounds `0..rounds` of a schedule (a prefix, since schedules are sorted).
pub fn schedule_prefix(injections: &[Injection], rounds: u64) -> &[Injection] {
    &injections[..injections.partition_point(|inj| inj.0 < rounds)]
}

/// One `traffic::sim::simulate` run, reduced to what the benchmark reads.
pub struct Forwarded {
    pub injected: u64,
    pub delivered: u64,
    pub dropped_capacity: u64,
    pub dropped_stuck: u64,
    /// Packets neither delivered nor dropped when the run ended.
    pub in_flight: u64,
    /// Σ hops of delivered packets.
    pub hops: u64,
    pub rounds: u64,
    pub words: u64,
    pub peak_queue_packets: u64,
    pub p99_queue_delay_rounds: f64,
    /// First round at which `injected = delivered + dropped + queued +
    /// on-wire` fails, or a total that disagrees with the id lists.
    pub conservation_error: Option<String>,
    /// The engine profiler's split of the coordinator track over setup,
    /// dispatch, compute, scatter, merge and idle (summing to 1), when the
    /// run was profiled.
    pub phase_shares: Option<[f64; 6]>,
}

/// Tail-drop queues of 8 packets per port, fixed arrivals.
pub fn simulate(
    net: &Network,
    scheme: &Scheme,
    injections: &[Injection],
    threads: usize,
    profile: bool,
) -> traffic::sim::SimResult {
    let last = injections.last().map_or(0, |inj| inj.0);
    traffic::sim::simulate(
        net,
        scheme,
        injections,
        &SimConfig {
            queue_cap: QUEUE_CAP,
            policy: DropPolicy::TailDrop,
            max_rounds: last + DRAIN_ROUNDS,
            threads,
            profile,
        },
    )
}

/// Reduce a simulation result and re-check packet conservation round by
/// round. Kept apart from [`simulate`] so it stays outside the timed span.
pub fn account(sim: &traffic::sim::SimResult, injections: &[Injection]) -> Forwarded {
    let injected = injections.len() as u64;
    let delivered = sim.deliveries.len() as u64;
    let dropped_capacity = sim.dropped_capacity.len() as u64;
    let dropped_stuck = sim.dropped_stuck.len() as u64;

    let mut conservation_error = None;
    let (mut inj, mut del, mut drop) = (0u64, 0u64, 0u64);
    for t in &sim.series {
        inj += t.injected;
        del += t.delivered;
        drop += t.dropped_capacity + t.dropped_stuck;
        if inj != del + drop + t.queued_packets + t.sent && conservation_error.is_none() {
            conservation_error = Some(format!(
                "round {}: injected {inj} != delivered {del} + dropped {drop} + queued {} + on-wire {}",
                t.round, t.queued_packets, t.sent
            ));
        }
    }
    if (inj, del, drop) != (injected, delivered, dropped_capacity + dropped_stuck)
        && conservation_error.is_none()
    {
        conservation_error = Some(format!(
            "series totals ({inj}, {del}, {drop}) disagree with the packet lists \
             ({injected}, {delivered}, {})",
            dropped_capacity + dropped_stuck
        ));
    }

    let queue_delays: Vec<f64> = sim
        .deliveries
        .iter()
        .map(|d| (d.round - injections[d.id as usize].0 - u64::from(d.hops)) as f64)
        .collect();
    let phase_shares = sim.stats.profile.as_ref().map(|p| {
        let total: u64 = p.coord_ns.iter().sum();
        p.coord_ns.map(|ns| ns as f64 / total.max(1) as f64)
    });
    Forwarded {
        injected,
        delivered,
        dropped_capacity,
        dropped_stuck,
        in_flight: injected.saturating_sub(delivered + dropped_capacity + dropped_stuck),
        hops: sim.deliveries.iter().map(|d| u64::from(d.hops)).sum(),
        rounds: sim.stats.rounds,
        words: sim.stats.words,
        peak_queue_packets: sim.peak_queue_packets(),
        p99_queue_delay_rounds: if queue_delays.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&queue_delays, 0.99)
        },
        conservation_error,
        phase_shares,
    }
}
