//! One pass over the life of a scheme: generate → build → persist → load →
//! serve → forward, every call into a layer wrapped in a harness span.
//!
//! The untraced pass yields the end-to-end metrics. The traced pass runs the
//! same stages inside the same time shares but alternates each stage's
//! plain repeat with its instrumented variants (`build_observed` with an
//! enabled recorder, a profiled engine, a two-worker pool and engine) and
//! adds the per-layer probes; its end-to-end numbers are computed but only
//! shown for orientation, never reported.

use std::path::Path;
use std::time::Instant;

use crate::api::{self, Built, Forwarded, Graph, Injection, Network, Pool, Query, Snapshot};
use crate::spec::{Spec, Stage};
use crate::stats::{fast_rate, fast_time, median, percentile};
use crate::trace::Tracer;

/// Set-up is repeated — at least this often, and for about a second — so
/// that `setup_s` is an order statistic like the rest even where one
/// preparation takes 50 ms.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Queries served once at `check_rate 1.0` as the serve-plane gate.
const CHECK_SLICE: usize = 20_000;
/// Warm-up before the timed serve and forward stages, as part of set-up.
const WARMUP_QUERIES: usize = 20_000;
const WARMUP_ROUNDS: u64 = 64;
/// Sources of the stretch sample (× all targets).
const STRETCH_SOURCES: usize = 16;
/// Open-loop batch size and pass length.
const OPEN_BATCH: usize = 64;
const OPEN_SECONDS: f64 = 1.2;
/// Passes of each probe loop (router, oracle, the three query kernels).
const PROBE_REPS: usize = 3;
/// Pairs timed through the central router and the distance oracle.
const ROUTER_PAIRS: usize = 20_000;
const ORACLE_PAIRS: usize = 200_000;
/// Salts keeping the injection schedule and probe pairs off the query
/// stream's random sequence.
const INJECT_SALT: u64 = 0x1A7E_C7ED;
const PROBE_SALT: u64 = 0x9208_E5ED;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many repeats the value summarises (1 for a plain reading).
    pub samples: usize,
}

/// A duration (or anything else that contention only makes larger).
fn metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        value: fast_time(samples),
        samples: samples.len(),
    }
}

/// A throughput (contention only makes it smaller).
fn rate(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        value: fast_rate(samples),
        samples: samples.len(),
    }
}

fn reading(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: 1,
    }
}

/// Operations attempted and failed across every correctness gate.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per gate that saw a failure.
    pub failures: Vec<String>,
}

impl Ops {
    fn gate(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the tracer keeps spans.
    pub per_layer: Vec<Metric>,
    pub ops: Ops,
    /// The checksum every timed segment folded its answers into — differs
    /// between seeds, repeats exactly for one seed.
    pub answer_checksum: u64,
}

/// The four timed stages, in lifecycle order.
const BUILD: usize = 0;
const PERSIST: usize = 1;
const SERVE: usize = 2;
const FORWARD: usize = 3;

/// Proportional-share scheduling of the timed stages inside `--seconds`.
///
/// The stage furthest behind its share runs next, so every stage's repeats
/// are spread over the whole run instead of clustered: this host slows down
/// by 30–50 % for seconds at a time, and a stage squeezed into two seconds
/// would land wholly inside such a period every few runs.
struct Schedule {
    stages: [Stage; 4],
    spent: [f64; 4],
    reps: [usize; 4],
    seconds: f64,
}

impl Schedule {
    fn new(spec: &Spec, seconds: f64) -> Schedule {
        Schedule {
            stages: [spec.build, spec.persist, spec.serve, spec.forward],
            spent: [0.0; 4],
            reps: [0; 4],
            seconds,
        }
    }

    /// The next stage to repeat: while time remains, the one furthest behind
    /// its share (ties go to lifecycle order, so the first pass is build →
    /// persist → serve → forward); afterwards only stages still short of
    /// their minimum repeats. `None` when the run is over.
    fn next(&self) -> Option<usize> {
        let time_left = self.spent.iter().sum::<f64>() < self.seconds;
        (0..4)
            .filter(|&i| time_left || self.reps[i] < self.stages[i].min_reps)
            .min_by(|&a, &b| {
                let behind = |i: usize| self.spent[i] / self.stages[i].share;
                behind(a).total_cmp(&behind(b))
            })
    }

    fn charge(&mut self, stage: usize, secs: f64) {
        self.spent[stage] += secs;
        self.reps[stage] += 1;
    }
}

struct Inputs {
    net: Network,
    stream: Vec<Query>,
    pool: Pool,
    injections: Vec<Injection>,
}

#[derive(Default)]
struct SetupSamples {
    total: Vec<f64>,
    generate: Vec<f64>,
    stream_gen: Vec<f64>,
    pool_start: Vec<f64>,
    prepare: Vec<f64>,
    plan: Vec<f64>,
}

#[derive(Default)]
struct BuildSamples {
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Per entry of [`BUILD_PHASES`], one sample per traced build.
    phase_s: [Vec<f64>; BUILD_PHASES.len()],
    coverage_pct: Vec<f64>,
}

#[derive(Default)]
struct PersistSamples {
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    share_s: Vec<f64>,
}

#[derive(Default)]
struct ServeSamples {
    qps: Vec<f64>,
    p50_ns: Vec<f64>,
    p95_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    qps_two_workers: Vec<f64>,
    walks: u64,
    hops: u64,
    answer_checksum: Option<u64>,
}

#[derive(Default)]
struct ForwardSamples {
    hops_per_s: Vec<f64>,
    plain_s: Vec<f64>,
    two_workers_s: Vec<f64>,
    plain: Option<Forwarded>,
    profiled: Option<Forwarded>,
}

/// The recorder's top-level build phases and the layer metric each feeds.
const BUILD_PHASES: [(&str, &str); 7] = [
    ("scheme/backbone", "routing.backbone_s"),
    ("scheme/hierarchy", "routing.hierarchy_s"),
    ("scheme/hopset", "hopset.build_s"),
    ("scheme/pivots", "routing.pivots_s"),
    ("scheme/clusters", "routing.clusters_s"),
    ("scheme/tree-routing", "tree-routing.stage_s"),
    ("scheme/assembly", "routing.assembly_s"),
];

const PHASE_SHARE_NAMES: [&str; 6] = [
    "congest.phase_setup_share",
    "congest.phase_dispatch_share",
    "congest.phase_compute_share",
    "congest.phase_scatter_share",
    "congest.phase_merge_share",
    "congest.phase_idle_share",
];

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one pass carries from stage to stage.
struct Pass<'a> {
    spec: &'a Spec,
    seed: u64,
    tracer: &'a mut Tracer,
    scheme_file: &'a Path,
    ops: Ops,
    graph: Graph,
    build_cold_s: f64,
    build_warmup_s: f64,
    /// The scheme of the latest build (they are all the same scheme).
    built: Option<Built>,
    /// The latest snapshot loaded back from the scheme file.
    snap: Option<Snapshot>,
    inputs: Option<Inputs>,
    /// Two-worker pool of the traced run.
    pool2: Option<Pool>,
    setup: SetupSamples,
    build: BuildSamples,
    persist: PersistSamples,
    serve: ServeSamples,
    forward: ForwardSamples,
}

impl<'a> Pass<'a> {
    fn new(spec: &'a Spec, seed: u64, tracer: &'a mut Tracer, scheme_file: &'a Path) -> Pass<'a> {
        let graph = api::generate(spec.topology, spec.topology_seed);
        // A fresh process's first build runs up to 3× slower than its third
        // (page faults, allocator growth), so two builds go untimed.
        let (_, build_cold_s) = tracer.time("routing.build_cold", 0, || {
            api::build(&graph, spec.k, spec.topology_seed)
        });
        let (_, build_warmup_s) = tracer.time("routing.build_warmup", 0, || {
            api::build(&graph, spec.k, spec.topology_seed)
        });
        Pass {
            spec,
            seed,
            tracer,
            scheme_file,
            ops: Ops::default(),
            graph,
            build_cold_s,
            build_warmup_s,
            built: None,
            snap: None,
            inputs: None,
            pool2: None,
            setup: SetupSamples::default(),
            build: BuildSamples::default(),
            persist: PersistSamples::default(),
            serve: ServeSamples::default(),
            forward: ForwardSamples::default(),
        }
    }

    /// Repeat number `rep` of `stage`; the traced run cycles through the
    /// stage's instrumented variants.
    fn repeat(&mut self, stage: usize, rep: usize) {
        match stage {
            BUILD => self.build_rep(rep),
            PERSIST => self.persist_rep(rep),
            SERVE => self.serve_rep(rep),
            FORWARD => self.forward_rep(rep),
            _ => unreachable!("four stages"),
        }
    }

    fn build_rep(&mut self, rep: usize) {
        let (spec, graph) = (self.spec, &self.graph);
        // Every build yields the same scheme; holding the previous one
        // through the next build would only add to the resident peak.
        self.built = None;
        if self.tracer.keeps_spans() && rep % 2 == 1 {
            let open = self.tracer.begin("routing.build", rep);
            let (built, phases) = api::build_traced(graph, spec.k, spec.topology_seed);
            let secs = self.tracer.end(open);
            self.tracer.adopt(open, &phases);
            self.build.traced_s.push(secs);
            let mut covered = 0.0;
            for phase in phases.iter().filter(|p| p.parent.is_none()) {
                let phase_secs = phase.wall_ns as f64 / 1e9;
                covered += phase_secs;
                if let Some(i) = BUILD_PHASES
                    .iter()
                    .position(|&(name, _)| name == phase.name)
                {
                    self.build.phase_s[i].push(phase_secs);
                }
            }
            self.build.coverage_pct.push(covered / secs * 100.0);
            self.built = Some(built);
        } else {
            let (built, secs) = self.tracer.time("routing.build", rep, || {
                api::build(graph, spec.k, spec.topology_seed)
            });
            self.build.plain_s.push(secs);
            self.built = Some(built);
        }
    }

    fn persist_rep(&mut self, rep: usize) {
        let scheme = &self
            .built
            .as_ref()
            .expect("a build precedes persistence")
            .scheme;
        let (file, tracer, samples) = (self.scheme_file, &mut *self.tracer, &mut self.persist);
        let (_, secs) = tracer.time("routing.save", rep, || api::save(file, scheme));
        samples.save_s.push(secs);
        let copy = self.graph.clone();
        let (loaded, secs) = tracer.time("routing.load+serve.share", rep, || api::load(file, copy));
        samples.load_s.push(secs);
        self.snap = Some(loaded);
        if tracer.keeps_spans() {
            let (bytes, secs) = tracer.time("routing.encode", rep, || api::encode(scheme));
            samples.encode_s.push(secs);
            let (decoded, secs) = tracer.time("routing.decode", rep, || api::decode(&bytes));
            samples.decode_s.push(secs);
            let copy = self.graph.clone();
            let (_, secs) = tracer.time("serve.snapshot_share", rep, || api::share(copy, decoded));
            samples.share_s.push(secs);
        }
    }

    /// One complete input preparation: everything a serving and forwarding
    /// process does between having a loaded scheme and taking its first
    /// timed request, warm-up included so that lazily built state is
    /// charged here.
    fn set_up(&mut self) {
        let (spec, seed, tracer) = (self.spec, self.seed, &mut *self.tracer);
        let snap = self.snap.as_ref().expect("a load precedes set-up");
        let (graph, scheme) = api::snapshot_parts(snap);
        let started = Instant::now();
        let mut rep = 0;
        while rep < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
            let whole = tracer.begin("harness.setup", rep);
            let (fresh, generate) = tracer.time("graphs.generate", rep, || {
                api::generate(spec.topology, spec.topology_seed)
            });
            let (net, _) = tracer.time("congest.network", rep, || api::network(&fresh));
            let (stream, stream_gen) = tracer.time("serve.generate_stream", rep, || {
                api::stream(snap, spec.pairs, spec.segment_queries, seed)
            });
            let (mut pool, pool_start) =
                tracer.time("serve.pool_start", rep, || api::start_pool(snap, 1));
            let warm = &stream[..stream.len().min(WARMUP_QUERIES)];
            tracer.time("serve.warmup", rep, || {
                api::serve_closed(&mut pool, warm, 0.0, seed)
            });
            let (mut workload, prepare) = tracer.time("traffic.prepare", rep, || {
                api::prepare_traffic(graph, scheme, spec.pairs, seed)
            });
            let ((injections, undeliverable), plan) = tracer.time("traffic.plan", rep, || {
                api::plan_injections(
                    scheme,
                    &mut workload,
                    spec.rate,
                    spec.inject_rounds,
                    seed ^ INJECT_SALT,
                )
            });
            let prefix = api::schedule_prefix(&injections, WARMUP_ROUNDS);
            tracer.time("traffic.warmup", rep, || {
                api::simulate(&net, scheme, prefix, 1, false)
            });
            self.setup.total.push(tracer.end(whole));
            self.setup.generate.push(generate);
            self.setup.stream_gen.push(stream_gen);
            self.setup.pool_start.push(pool_start);
            self.setup.prepare.push(prepare);
            self.setup.plan.push(plan);
            if rep == 0 {
                let offered = (injections.len() + undeliverable) as u64;
                self.ops.gate(
                    "offered pairs without a route",
                    offered,
                    undeliverable as u64,
                );
            }
            self.inputs = Some(Inputs {
                net,
                stream,
                pool,
                injections,
            });
            rep += 1;
        }
        if self.tracer.keeps_spans() {
            self.pool2 = Some(api::start_pool(snap, 2));
        }
    }

    fn serve_rep(&mut self, rep: usize) {
        let inputs = self.inputs.as_mut().expect("set-up precedes serving");
        let (seed, samples) = (self.seed, &mut self.serve);
        let seg = match self.pool2.as_mut() {
            Some(two) if rep % 2 == 1 => {
                let (seg, _) = self.tracer.time("serve.run_closed_t2", rep, || {
                    api::serve_closed(two, &inputs.stream, 0.0, seed)
                });
                samples.qps_two_workers.push(seg.qps);
                seg
            }
            _ => {
                let (seg, _) = self.tracer.time("serve.run_closed", rep, || {
                    api::serve_closed(&mut inputs.pool, &inputs.stream, 0.0, seed)
                });
                samples.qps.push(seg.qps);
                samples.p50_ns.push(seg.p50_ns as f64);
                samples.p95_ns.push(seg.p95_ns as f64);
                samples.p99_ns.push(seg.p99_ns as f64);
                samples.walks = seg.walks;
                samples.hops = seg.hops;
                seg
            }
        };
        self.ops.gate("queries", seg.queries, seg.failed);
        // Every segment serves the same stream, with one worker or two.
        let first = *samples.answer_checksum.get_or_insert(seg.checksum);
        self.ops.gate(
            "segments disagree on the answer checksum",
            1,
            u64::from(first != seg.checksum),
        );
    }

    fn forward_rep(&mut self, rep: usize) {
        let inputs = self.inputs.as_ref().expect("set-up precedes forwarding");
        let (_, scheme) =
            api::snapshot_parts(self.snap.as_ref().expect("a load precedes forwarding"));
        let variant = if self.tracer.keeps_spans() {
            rep % 3
        } else {
            0
        };
        let (threads, profile, name) = match variant {
            0 => (1, false, "traffic.simulate"),
            1 => (1, true, "traffic.simulate_profiled"),
            _ => (2, false, "traffic.simulate_t2"),
        };
        let (sim, secs) = self.tracer.time(name, rep, || {
            api::simulate(&inputs.net, scheme, &inputs.injections, threads, profile)
        });
        let f = api::account(&sim, &inputs.injections);

        // Stuck packets and packets left in flight always fail; capacity
        // drops fail unless the workload overloads the queues on purpose.
        let unexpected_drops = if self.spec.overloaded {
            0
        } else {
            f.dropped_capacity
        };
        self.ops.gate(
            name,
            f.injected,
            f.dropped_stuck + f.in_flight + unexpected_drops,
        );
        if let Some(why) = &f.conservation_error {
            self.ops
                .gate(&format!("{name}: packet conservation, {why}"), 1, 1);
        }
        if let Some(first) = &self.forward.plain {
            let same = (first.delivered, first.dropped_capacity, first.hops)
                == (f.delivered, f.dropped_capacity, f.hops);
            self.ops
                .gate("forwarding repeats disagree", 1, u64::from(!same));
        }
        match variant {
            0 => {
                self.forward.hops_per_s.push(f.hops as f64 / secs);
                self.forward.plain_s.push(secs);
                self.forward.plain = Some(f);
            }
            1 => self.forward.profiled = Some(f),
            _ => self.forward.two_workers_s.push(secs),
        }
    }

    /// The gates that need no timing, the traced run's layer probes, and
    /// the metric tables.
    fn finish(mut self) -> Outcome {
        let (spec, seed, tracer) = (self.spec, self.seed, &mut *self.tracer);
        let built = self.built.as_ref().expect("the build stage ran");
        let snap = self.snap.as_ref().expect("the persist stage ran");
        let inputs = self.inputs.as_mut().expect("set-up ran");
        let forwarded = self.forward.plain.as_ref().expect("the forward stage ran");
        let (_, scheme) = api::snapshot_parts(snap);
        let ops = &mut self.ops;
        let cur = api::currencies(built);

        let (violations, verify_s) = tracer.time("routing.verify", 0, || {
            api::verify(&self.graph, &built.scheme)
        });
        ops.gate("routing::verify violations", 1, violations as u64);
        let (stretch, _) = tracer.time("routing.measure_stretch", 0, || {
            api::stretch(
                &self.graph,
                &built.scheme,
                STRETCH_SOURCES,
                spec.topology_seed,
            )
        });
        ops.gate(
            "stretch samples above 4k-3",
            stretch.pairs as u64,
            stretch.over_bound as u64,
        );

        let file_bytes = std::fs::read(self.scheme_file).expect("scheme file readable");
        let round_trip = api::encode(&api::decode(&file_bytes)) == file_bytes;
        ops.gate("persist round trip differs", 1, u64::from(!round_trip));
        let _ = std::fs::remove_file(self.scheme_file);

        let slice = &inputs.stream[..inputs.stream.len().min(CHECK_SLICE)];
        let (checked, checked_s) = tracer.time("serve.run_closed_checked", 0, || {
            api::serve_closed(&mut inputs.pool, slice, 1.0, seed)
        });
        ops.gate("cross-checked queries", checked.queries, checked.failed);

        let mut layers: Vec<Metric> = Vec::new();
        if tracer.keeps_spans() {
            let stream = &inputs.stream;
            let n = api::vertices(&self.graph);
            let profiled = self
                .forward
                .profiled
                .as_ref()
                .expect("the traced forward stage profiles a run");
            let (_, bfs_s) = tracer.time("congest.bfs", 0, || api::bfs_depth(&inputs.net));
            let ((to_rooted_s, tz_build_s), _) =
                tracer.time("tree-routing.tz_floor", 0, || api::tz_floor(built, n));
            let pairs = api::pairs(&self.graph, scheme, ORACLE_PAIRS, seed ^ PROBE_SALT);
            let routed = &pairs[..ROUTER_PAIRS];
            let (mut router_s, mut oracle_s) = (Vec::new(), Vec::new());
            let mut kernel_ns: [Vec<f64>; 3] = Default::default();
            let mut kind_share = [0.0; 3];
            for rep in 0..PROBE_REPS {
                let (unrouted, secs) = tracer.time("routing.router", rep, || {
                    api::route_all(&self.graph, scheme, routed)
                });
                ops.gate("central router", routed.len() as u64, unrouted as u64);
                router_s.push(secs);
                let (unreached, secs) =
                    tracer.time("routing.oracle", rep, || api::oracle_all(scheme, &pairs));
                ops.gate("distance oracle", pairs.len() as u64, unreached as u64);
                oracle_s.push(secs);
                for (kind, name) in [
                    "serve.kernel_route",
                    "serve.kernel_distance",
                    "serve.kernel_trace",
                ]
                .into_iter()
                .enumerate()
                {
                    let ((ns, count), _) =
                        tracer.time(name, rep, || api::kernel_ns(snap, stream, kind));
                    kernel_ns[kind].push(ns);
                    kind_share[kind] = count as f64 / stream.len() as f64;
                }
            }
            let (router_s, oracle_s) = (fast_time(&router_s), fast_time(&oracle_s));
            let kernel_ns = kernel_ns.map(|ns| fast_time(&ns));
            let mixed_ns: f64 = kernel_ns
                .iter()
                .zip(kind_share)
                .map(|(ns, share)| ns * share)
                .sum();
            let (_, unchecked_s) = tracer.time("serve.run_closed_unchecked", 0, || {
                api::serve_closed(&mut inputs.pool, slice, 0.0, seed)
            });
            let open_len = ((spec.open_qps * OPEN_SECONDS) as usize).min(stream.len()) / OPEN_BATCH
                * OPEN_BATCH;
            let (open, _) = tracer.time("serve.open_loop", 0, || {
                api::open_loop(
                    &mut inputs.pool,
                    &stream[..open_len],
                    OPEN_BATCH,
                    spec.open_qps,
                )
            });

            let phase = |metric_name: &'static str| -> Metric {
                let i = BUILD_PHASES
                    .iter()
                    .position(|&(_, m)| m == metric_name)
                    .expect("a build phase metric");
                metric(metric_name, "s", &self.build.phase_s[i])
            };
            let wall_t1 = fast_time(&self.forward.plain_s);
            let (setup, persist, serve) = (&self.setup, &self.persist, &self.serve);
            layers.extend([
                metric("graphs.generate_s", "s", &setup.generate),
                reading("graphs.edges", "count", api::edges(&self.graph) as f64),
                reading("congest.bfs_s", "s", bfs_s),
                reading("congest.sim_rounds", "count", forwarded.rounds as f64),
                reading(
                    "congest.round_us",
                    "us",
                    wall_t1 * 1e6 / forwarded.rounds as f64,
                ),
                reading(
                    "congest.words_per_s",
                    "1/s",
                    forwarded.words as f64 / wall_t1,
                ),
            ]);
            let shares = profiled
                .phase_shares
                .expect("a profiled run carries phase shares");
            for (name, share) in PHASE_SHARE_NAMES.into_iter().zip(shares) {
                layers.push(reading(name, "ratio", share));
            }
            layers.extend([
                reading(
                    "congest.t2_speedup",
                    "ratio",
                    wall_t1 / fast_time(&self.forward.two_workers_s),
                ),
                phase("hopset.build_s"),
                reading("hopset.edges", "count", cur.hopset_edges as f64),
                reading("hopset.beta_used", "count", cur.beta_used as f64),
                phase("tree-routing.stage_s"),
                reading("tree-routing.trees", "count", cur.trees as f64),
                reading(
                    "tree-routing.per_tree_us",
                    "us",
                    phase("tree-routing.stage_s").value * 1e6 / cur.trees as f64,
                ),
                reading(
                    "tree-routing.stage_rounds",
                    "count",
                    cur.tree_stage_rounds as f64,
                ),
                reading("tree-routing.tz_build_s", "s", tz_build_s),
                phase("routing.backbone_s"),
                phase("routing.hierarchy_s"),
                phase("routing.pivots_s"),
                phase("routing.clusters_s"),
                phase("routing.assembly_s"),
                reading("routing.to_rooted_s", "s", to_rooted_s),
                reading(
                    "routing.total_membership",
                    "count",
                    cur.total_membership as f64,
                ),
                reading("routing.max_membership", "count", cur.max_membership as f64),
                reading("routing.build_cold_s", "s", self.build_cold_s),
                reading("routing.build_warmup_s", "s", self.build_warmup_s),
                reading("routing.verify_s", "s", verify_s),
                metric("routing.encode_s", "s", &persist.encode_s),
                metric("routing.decode_s", "s", &persist.decode_s),
                reading(
                    "routing.router_route_ns",
                    "ns",
                    router_s * 1e9 / routed.len() as f64,
                ),
                reading(
                    "routing.oracle_query_ns",
                    "ns",
                    oracle_s * 1e9 / pairs.len() as f64,
                ),
                reading(
                    "routing.packet_plan_ns",
                    "ns",
                    fast_time(&setup.plan) * 1e9 / inputs.injections.len() as f64,
                ),
                reading("routing.stretch_mean", "ratio", stretch.mean),
                reading(
                    "routing.label_words_max",
                    "count",
                    cur.label_words_max as f64,
                ),
                metric("serve.snapshot_share_s", "s", &persist.share_s),
                reading("serve.kernel_route_ns", "ns", kernel_ns[0]),
                reading("serve.kernel_distance_ns", "ns", kernel_ns[1]),
                reading("serve.kernel_trace_ns", "ns", kernel_ns[2]),
                reading(
                    "serve.pool_overhead_ns",
                    "ns",
                    1e9 / fast_rate(&serve.qps) - mixed_ns,
                ),
                metric("serve.p99_ns", "ns", &serve.p99_ns),
                reading(
                    "serve.hops_per_query",
                    "count",
                    serve.hops as f64 / serve.walks as f64,
                ),
                reading(
                    "serve.check_ns",
                    "ns",
                    (checked_s - unchecked_s) * 1e9 / slice.len() as f64,
                ),
                metric("serve.stream_gen_s", "s", &setup.stream_gen),
                reading(
                    "serve.pool_start_us",
                    "us",
                    fast_time(&setup.pool_start) * 1e6,
                ),
                reading(
                    "serve.t2_qps_ratio",
                    "ratio",
                    fast_rate(&serve.qps_two_workers) / fast_rate(&serve.qps),
                ),
                reading(
                    "serve.open_p95_us",
                    "us",
                    percentile(&open.latency_ns, 0.95) / 1e3,
                ),
                reading(
                    "serve.open_late_p95_us",
                    "us",
                    percentile(&open.late_ns, 0.95) / 1e3,
                ),
                metric("traffic.prepare_s", "s", &setup.prepare),
                metric("traffic.plan_s", "s", &setup.plan),
                metric("traffic.simulate_s", "s", &self.forward.plain_s),
                reading("traffic.delivered", "count", forwarded.delivered as f64),
                reading(
                    "traffic.drop_share",
                    "ratio",
                    forwarded.dropped_capacity as f64 / forwarded.injected as f64,
                ),
                reading(
                    "traffic.peak_queue_packets",
                    "count",
                    forwarded.peak_queue_packets as f64,
                ),
                reading(
                    "traffic.p99_queue_delay_rounds",
                    "count",
                    forwarded.p99_queue_delay_rounds,
                ),
                reading(
                    "obs.trace_overhead_pct",
                    "%",
                    (fast_time(&self.build.traced_s) / fast_time(&self.build.plain_s) - 1.0)
                        * 100.0,
                ),
                reading(
                    "obs.build_span_coverage_pct",
                    "%",
                    median(&self.build.coverage_pct),
                ),
            ]);
        }

        let end_to_end = vec![
            metric("setup_s", "s", &self.setup.total),
            metric("build_s", "s", &self.build.plain_s),
            metric("save_s", "s", &self.persist.save_s),
            metric("load_s", "s", &self.persist.load_s),
            rate("serve_qps", "queries/s", &self.serve.qps),
            metric("serve_p50_ns", "ns", &self.serve.p50_ns),
            metric("serve_p95_ns", "ns", &self.serve.p95_ns),
            rate("forward_pkt_hops_per_s", "hops/s", &self.forward.hops_per_s),
            reading("rss_peak_mb", "MB", rss_peak_mb()),
            reading("scheme_bytes", "B", file_bytes.len() as f64),
            reading("build_rounds", "count", cur.rounds as f64),
            reading("mem_words_max", "count", cur.mem_words_max as f64),
            reading("table_words_max", "count", cur.table_words_max as f64),
            reading("stretch_max", "ratio", stretch.max),
        ];
        Outcome {
            end_to_end,
            per_layer: layers,
            answer_checksum: self.serve.answer_checksum.expect("the serve stage ran"),
            ops: self.ops,
        }
    }
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    scheme_file: &Path,
) -> Outcome {
    let mut pass = Pass::new(spec, seed, tracer, scheme_file);
    let mut schedule = Schedule::new(spec, seconds);
    while let Some(stage) = schedule.next() {
        if stage >= SERVE && pass.inputs.is_none() {
            pass.set_up(); // outside `--seconds`, like the untimed builds
        }
        let started = Instant::now();
        pass.repeat(stage, schedule.reps[stage]);
        schedule.charge(stage, started.elapsed().as_secs_f64());
    }
    pass.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Json, Pairs, Topology};
    use crate::spec::WORKLOADS;

    /// The end-to-end metrics that are pure functions of the workload.
    const EXACT: [&str; 5] = [
        "scheme_bytes",
        "build_rounds",
        "mem_words_max",
        "table_words_max",
        "stretch_max",
    ];

    /// A workload small enough to run in a debug build; `seconds = 0` makes
    /// every stage run exactly its minimum repeats.
    fn tiny() -> Spec {
        let stage = |min_reps| Stage {
            share: 0.25,
            min_reps,
        };
        Spec {
            name: "tiny",
            topology: Topology::ErdosRenyi {
                n: 96,
                mean_degree: 4.0,
            },
            topology_seed: 7,
            k: 2,
            pairs: Pairs::Uniform,
            segment_queries: 2_000,
            open_qps: 50_000.0,
            rate: 2.0,
            inject_rounds: 32,
            overloaded: false,
            build: stage(3),
            persist: stage(2),
            serve: stage(3),
            forward: stage(3),
        }
    }

    fn pass(spec: &Spec, seed: u64, traced: bool, tag: &str) -> Outcome {
        let file =
            std::env::temp_dir().join(format!("lifecycle-bench-{}-{tag}.drsc", std::process::id()));
        let outcome = run(spec, seed, 0.0, &mut Tracer::new(traced), &file);
        assert!(
            outcome.ops.failures.is_empty(),
            "{:?}",
            outcome.ops.failures
        );
        assert_eq!(outcome.ops.failed, 0);
        assert!(outcome.ops.attempted > 0);
        outcome
    }

    fn exact(outcome: &Outcome) -> Vec<f64> {
        EXACT
            .iter()
            .map(|name| {
                outcome
                    .end_to_end
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("exact metric reported")
                    .value
            })
            .collect()
    }

    #[test]
    fn exact_metrics_repeat_and_the_seed_moves_only_the_traffic() {
        let spec = tiny();
        let first = pass(&spec, 5, false, "a");
        let again = pass(&spec, 5, false, "b");
        assert_eq!(exact(&first), exact(&again));
        assert_eq!(first.answer_checksum, again.answer_checksum);

        let other_seed = pass(&spec, 6, false, "c");
        assert_eq!(exact(&first), exact(&other_seed));
        assert_ne!(first.answer_checksum, other_seed.answer_checksum);

        let other_network = pass(
            &Spec {
                topology_seed: 8,
                ..spec
            },
            5,
            false,
            "d",
        );
        assert_ne!(
            exact(&first)[0],
            exact(&other_network)[0],
            "scheme_bytes ignores the topology seed"
        );
    }

    fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runner_reports() {
        let bench =
            api::parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let traced = pass(&tiny(), 5, true, "e");
        assert_eq!(declared(&bench, "end_to_end"), reported(&traced.end_to_end));
        assert_eq!(declared(&bench, "per_layer"), reported(&traced.per_layer));
        assert!(
            traced.per_layer.iter().all(|m| m.value.is_finite()),
            "{:?}",
            traced.per_layer
        );
        assert!(pass(&tiny(), 5, false, "f").per_layer.is_empty());

        let names: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        for metric in bench
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("metric list")
        {
            let name = metric.get("name").and_then(Json::as_str).expect("name");
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(
                EXACT.contains(&name),
                bound < 0.01,
                "{name}: exact metrics carry the tiny bound"
            );
        }
    }

    #[test]
    fn schedule_follows_lifecycle_order_then_shares_then_minimum_repeats() {
        let mut schedule = Schedule::new(&tiny(), 16.0);
        let mut order = Vec::new();
        while let Some(stage) = schedule.next() {
            order.push(stage);
            schedule.charge(stage, 1.0);
        }
        assert_eq!(order[..4], [BUILD, PERSIST, SERVE, FORWARD]);
        // Equal shares, equal repeat lengths: an even split of the budget.
        assert_eq!(schedule.spent, [4.0; 4]);

        let mut unbudgeted = Schedule::new(&tiny(), 0.0);
        while let Some(stage) = unbudgeted.next() {
            unbudgeted.charge(stage, 1.0);
        }
        assert_eq!(unbudgeted.reps, [3, 2, 3, 3], "exactly the minimum repeats");
    }
}
