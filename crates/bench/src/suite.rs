//! The standardized benchmark suite behind `drt bench`: fixed-seed sweeps, a
//! schema'd `BENCH_*.json` trajectory document, and an automated
//! scaling-law checker. [`crate::compare`] diffs two such documents.
//!
//! The suite sweeps the six groups of `GROUPS`, in order:
//!
//! * `tree_build` — the Theorem-2 distributed tree-routing construction on
//!   Erdős–Rényi shortest-path trees, across `n`;
//! * `scheme_build` — the Theorem-3 general-graph scheme at `k = 2`, across
//!   `n`;
//! * `route_batch` — store-and-forward routing batches through the CONGEST
//!   engine on a fixed prebuilt scheme, across the number of packets;
//! * `traffic_steady` — open-loop steady-state traffic (finite queues,
//!   per-round injection) on a fixed prebuilt scheme, across the offered
//!   rate — the delivered-throughput determinism gate for `drt traffic`;
//! * `churn_degrade` — the churn observatory's targeted-removal timeline on
//!   a fixed scale-free scheme, across the number of churn rounds — the
//!   determinism gate for `drt churn`'s health telemetry;
//! * `serve_qps` — the query-serving plane's closed-loop batches against a
//!   fixed immutable snapshot, across the stream length — the determinism
//!   gate for `drt serve`'s answer checksum, with achieved QPS carried in
//!   the advisory wall column.
//!
//! Each group is one row of `GROUPS`: its sweep per tier, the exponents
//! the paper predicts over it, and a fixture that builds the group's fixed
//! inputs once and returns the measurement of one case. [`run_suite`] is the
//! one case loop every group goes through.
//!
//! Every case records two kinds of numbers with different trust levels. The
//! **simulated** columns (rounds, messages, words, peak memory, table/label
//! words) are model costs: at a fixed seed they are byte-stable across
//! repeats, machines, and build profiles, so regression gates compare them
//! *exactly* by default. The **wall-clock** column is real time: noisy and
//! machine-bound, so it is summarized as p50/p95 over repeats and gated only
//! by loose thresholds (or kept advisory).
//!
//! A run serializes as a single-document `BENCH_<label>.json` (schema
//! [`SCHEMA`]) carrying an environment stamp, the per-case results, and the
//! [`obs::scaling::ScalingCheck`] verdicts fitted over each group's sweep —
//! the executable form of EXPERIMENTS.md's "shape verdict".

use churn::{ChurnConfig, ChurnScenario, ProcessKind};
use congest::Network;
use graphs::{tree, VertexId};
use obs::churn::HealthRow;
use obs::json::Value;
use obs::metrics::{quantile_ns, Stopwatch};
use obs::record;
use obs::record::Field;
use obs::scaling::{fit_power_law, ExponentRange, ScalingCheck};
use routing::audit::Component;
use routing::{build_observed, packet, BuildParams};
use serve::{generate_stream, run_closed, ServeConfig, ServePool, ServeWorkload, Snapshot};
use traffic::{ScenarioConfig, TrafficScenario, Workload, WorkloadKind};
use tree_routing::distributed;

use crate::sweep::Sweep;
use crate::Family;

/// The BENCH document schema identifier.
pub const SCHEMA: &str = "drt-bench/v1";

/// Seed base for `tree_build` cases (salted with `n`).
const TREE_SEED: u64 = 0xB3A5;
/// Seed base for `scheme_build` cases (salted with `n`).
const SCHEME_SEED: u64 = 0x5C4E;
/// Seed for the `route_batch` group's fixed graph and scheme.
const BATCH_SEED: u64 = 0x0BA7;
/// Graph size and stretch parameter for the `route_batch` group.
const BATCH_N: usize = 256;
const BATCH_K: usize = 2;
/// Seed for the `traffic_steady` group's fixed graph, scheme, and schedules.
const TRAFFIC_SEED: u64 = 0x7AF1;
/// Graph size for the `traffic_steady` group.
const TRAFFIC_N: usize = 160;
/// Injection horizon for every `traffic_steady` case.
const TRAFFIC_INJECT_ROUNDS: u64 = 96;
/// Per-port queue capacity for every `traffic_steady` case.
const TRAFFIC_QUEUE_CAP: usize = 4;
/// Seed for the `churn_degrade` group's fixed graph, scheme, and schedules.
const CHURN_SEED: u64 = 0xC4AB;
/// Graph size for the `churn_degrade` group. Scale-free, because targeted
/// hub removal collapsing a heavy-tailed graph is the shape the sweep
/// prices.
const CHURN_N: usize = 128;
/// Per-round targeted failure rate for every `churn_degrade` case.
const CHURN_RATE: f64 = 0.02;
/// Seed for the `serve_qps` group's fixed graph, scheme, and query streams.
const SERVE_SEED: u64 = 0x5EBE;
/// Graph size for the `serve_qps` group.
const SERVE_N: usize = 192;
/// Queries per dispatched batch for every `serve_qps` case.
const SERVE_BATCH: usize = 64;
/// Fraction of served answers re-derived through the central router/oracle
/// in every `serve_qps` case; the mismatch count is an exactly-gated column.
const SERVE_CHECK_RATE: f64 = 0.05;

/// Suite size tiers. `Quick` cases are a strict subset of `Full` cases with
/// identical ids, seeds, and therefore identical simulated columns, so a
/// quick run diffs cleanly against a full baseline. A tier indexes each
/// group's `Group::sweep` (`tier as usize`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Tiny sizes for tests: runs in well under a second, too few points
    /// for scaling fits.
    Smoke,
    /// CI-sized: a few seconds in release builds.
    Quick,
    /// The committed-baseline tier: adds the larger sizes the exponent fits
    /// are most stable on.
    Full,
}

impl Tier {
    /// Schema name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }

    /// Parse a schema name back into a tier.
    pub fn from_name(name: &str) -> Option<Tier> {
        match name {
            "smoke" => Some(Tier::Smoke),
            "quick" => Some(Tier::Quick),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// Wall-clock repeats per case.
    fn repeats(self) -> usize {
        match self {
            Tier::Smoke => 2,
            Tier::Quick => 3,
            Tier::Full => 5,
        }
    }
}

record! {
    /// Wall-clock summary over a case's repeats, in nanoseconds.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct WallStats {
        /// Median repeat.
        pub p50_ns: u64 => "p50",
        /// 95th-percentile repeat.
        pub p95_ns: u64 => "p95",
        /// Fastest repeat.
        pub min_ns: u64 => "min",
        /// Slowest repeat.
        pub max_ns: u64 => "max",
        /// Number of repeats summarized.
        pub repeats: u64,
    }
}

impl WallStats {
    /// Summarize raw per-repeat samples.
    pub fn from_samples(samples: &[u64]) -> WallStats {
        WallStats {
            p50_ns: quantile_ns(samples, 0.5),
            p95_ns: quantile_ns(samples, 0.95),
            min_ns: samples.iter().min().copied().unwrap_or(0),
            max_ns: samples.iter().max().copied().unwrap_or(0),
            repeats: samples.len() as u64,
        }
    }
}

record! {
    /// One benchmark case: a sweep point with its simulated columns and
    /// wall-clock summary.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CaseResult {
        /// Stable case identifier, e.g. `tree_build/er/n1024`.
        pub id: String,
        /// The sweep group (`tree_build`, `scheme_build`, `route_batch`).
        pub group: String,
        /// The sweep coordinate: `n` for builds, packets for batches.
        pub x: u64,
        /// Simulated-cost columns in schema order; deterministic at fixed seed.
        pub sim: Vec<(String, u64)>,
        /// Wall-clock summary over the repeats.
        pub wall: WallStats => "wall_ns",
    }
}

impl CaseResult {
    /// Look up a simulated column by name.
    pub fn sim(&self, key: &str) -> Option<u64> {
        self.sim.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

record! {
    /// Where a BENCH document was produced.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct EnvStamp {
        /// `std::env::consts::OS`.
        pub os: String,
        /// `std::env::consts::ARCH`.
        pub arch: String,
        /// `debug` or `release` — wall-clock numbers are incomparable across
        /// profiles; simulated columns are identical.
        pub profile: String,
        /// The workspace version the suite was built from.
        pub version: String,
    }
}

impl EnvStamp {
    /// Stamp for the running binary.
    pub fn current() -> EnvStamp {
        EnvStamp {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

/// A complete benchmark trajectory point: one suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// Human-chosen label (`baseline`, a branch name, ...).
    pub label: String,
    /// Tier the suite ran at.
    pub tier: String,
    /// Environment stamp.
    pub env: EnvStamp,
    /// All case results, in suite order.
    pub cases: Vec<CaseResult>,
    /// Scaling-law verdicts fitted over the sweeps (empty below 3 points
    /// per group).
    pub checks: Vec<ScalingCheck>,
}

impl BenchDoc {
    /// Look up a case by id.
    pub fn case(&self, id: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// Whether every scaling check passed.
    pub fn scaling_ok(&self) -> bool {
        self.checks.iter().all(ScalingCheck::ok)
    }

    /// Serialize as the single-document BENCH JSON.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("schema", Value::from(SCHEMA)),
            ("label", self.label.to_json()),
            ("tier", self.tier.to_json()),
            ("env", self.env.to_json()),
            ("cases", self.cases.to_json()),
            ("scaling", self.checks.to_json()),
        ])
    }

    /// Parse a BENCH document, rejecting unknown schemas. Fields this
    /// version no longer writes (`env.threads`, `speedup`, `efficiency`) are
    /// ignored, so older documents still load.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_value(v: &Value) -> Result<BenchDoc, String> {
        match record::field::<Option<String>>(v, "schema")?.as_deref() {
            Some(SCHEMA) => {}
            Some(s) => return Err(format!("unsupported schema '{s}' (expected '{SCHEMA}')")),
            None => return Err("missing 'schema' field".to_string()),
        }
        Ok(BenchDoc {
            label: record::field(v, "label")?,
            tier: record::field(v, "tier")?,
            env: record::field(v, "env")?,
            cases: record::field(v, "cases")?,
            checks: record::field(v, "scaling")?,
        })
    }

    /// Write the document to `path` (compact JSON plus a trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_value()))
    }

    /// Read a document back from `path`.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, JSON, or schema failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<BenchDoc, String> {
        let path = path.as_ref();
        let textual = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let value = obs::json::parse(textual.trim())
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        BenchDoc::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A case's measurement: its simulated columns in schema order and one
/// wall-clock sample in nanoseconds.
type Measure = Box<dyn FnMut(u64) -> (Vec<(&'static str, u64)>, u64)>;

/// One swept group of the suite.
struct Group {
    /// The group name every case and scaling check carries.
    name: &'static str,
    /// Case-id prefix; the case's `x` completes it.
    id: &'static str,
    /// The sweep coordinates `x` per tier, indexed by `tier as usize`.
    sweep: [&'static [u64]; 3],
    /// The paper-predicted exponent ranges fitted over the sweep: column,
    /// range, and the claim it operationalizes.
    predicted: &'static [(&'static str, f64, f64, &'static str)],
    /// Builds the group's fixed inputs once and returns the measurement of
    /// the case at `x`, which must give the same simulated columns on every
    /// call with the same `x`.
    fixture: fn() -> Measure,
}

/// Every group, in suite order. Log-like growth is asserted as a small
/// positive exponent band (see [`obs::scaling`]); polylog slack widens every
/// band beyond the bare exponent.
const GROUPS: &[Group] = &[
    Group {
        name: "tree_build",
        id: "tree_build/er/n",
        sweep: [
            &[64, 128],
            &[256, 512, 1024, 2048],
            &[256, 512, 1024, 2048, 4096, 8192],
        ],
        predicted: &[
            (
                "rounds",
                0.35,
                0.95,
                "Õ(√n + D) construction rounds (Theorem 2)",
            ),
            (
                "peak_memory_words",
                -0.05,
                0.30,
                "O(log n) memory per vertex (Theorem 2); prior work's √n would fit ≈ 0.4+",
            ),
            (
                "table_words",
                -0.05,
                0.05,
                "O(1) routing tables (Theorem 2)",
            ),
            ("label_words", 0.0, 0.30, "O(log n) labels (Theorem 2)"),
        ],
        fixture: || {
            Box::new(|n| {
                let mut rng = Sweep::rng(TREE_SEED, n);
                let g = Family::ErdosRenyi.generate(n as usize, &mut rng);
                let t = tree::shortest_path_tree(&g, VertexId(0));
                let net = Network::new(g);
                let config = distributed::Config::default();
                let rec = &mut obs::Recorder::disabled();
                let sw = Stopwatch::start();
                let out = distributed::build(&net, &t, &config, &mut rng, rec);
                let wall_ns = sw.elapsed_ns();
                let scheme = out.scheme(&t);
                let sim = vec![
                    ("rounds", out.ledger.rounds()),
                    ("messages", out.ledger.messages()),
                    ("words", out.ledger.words()),
                    ("peak_memory_words", out.memory.max_peak() as u64),
                    ("table_words", scheme.max_table_words() as u64),
                    ("label_words", scheme.max_label_words() as u64),
                ];
                (sim, wall_ns)
            })
        },
    },
    Group {
        name: "scheme_build",
        id: "scheme_build/er/k2/n",
        sweep: [&[48, 96], &[128, 256, 512], &[128, 256, 512, 1024]],
        predicted: &[
            (
                "rounds",
                0.80,
                1.80,
                "(n^{1/2+1/k} + D)·polylog construction rounds at k = 2 (Theorem 3)",
            ),
            (
                "peak_memory_words",
                0.25,
                0.80,
                "Õ(n^{1/k}) memory per vertex at k = 2 (Theorem 3)",
            ),
            (
                "aud_membership_words",
                0.20,
                0.85,
                "Õ(n^{1/k}) cluster memberships per vertex at k = 2 (Claim 6)",
            ),
            (
                "aud_tree_table_words",
                0.20,
                0.85,
                "O(1)-word tree tables × Õ(n^{1/k}) memberships at k = 2 (Theorems 2–3)",
            ),
            (
                "aud_tree_label_words",
                0.0,
                0.40,
                "O(log n) tree-label words per vertex (Theorem 2)",
            ),
            (
                "aud_pivot_words",
                -0.05,
                0.20,
                "O(k) pivot words per vertex — constant at fixed k = 2",
            ),
        ],
        fixture: || {
            Box::new(|n| {
                let mut rng = Sweep::rng(SCHEME_SEED, n);
                let g = Family::ErdosRenyi.generate(n as usize, &mut rng);
                // An enabled recorder because `BuildReport` has no words
                // column; the recorder totals mirror the ledger exactly.
                let mut rec = obs::Recorder::new();
                let sw = Stopwatch::start();
                let built = build_observed(&g, &BuildParams::new(BATCH_K), &mut rng, &mut rec);
                let wall_ns = sw.elapsed_ns();
                // Per-component attribution maxima from the scheme
                // observatory (`routing::audit`): a pure post-build read that
                // consumes no RNG. Its reconciliation identity is asserted
                // on every benchmarked scheme, not just in the audit's tests.
                let att = routing::audit::attribution(&built.scheme);
                assert!(att.exact, "component attribution must reconcile exactly");
                let max = |c| att.component_max(c) as u64;
                let report = &built.report;
                let sim = vec![
                    ("rounds", report.rounds),
                    ("messages", report.messages),
                    ("words", rec.totals().words),
                    ("peak_memory_words", report.memory.max_peak() as u64),
                    ("table_words", report.max_table_words as u64),
                    ("label_words", report.max_label_words as u64),
                    ("aud_membership_words", max(Component::ClusterMembership)),
                    ("aud_tree_table_words", max(Component::TreeTables)),
                    ("aud_tree_label_words", max(Component::TreeLabels)),
                    ("aud_pivot_words", max(Component::PivotSets)),
                ];
                (sim, wall_ns)
            })
        },
    },
    Group {
        name: "route_batch",
        id: "route_batch/er/p",
        sweep: [&[8, 16], &[16, 64, 256], &[16, 64, 256, 1024, 4096]],
        predicted: &[(
            "words",
            0.70,
            1.30,
            "Θ(P) total words for a P-packet batch (loop-free per-tree forwarding)",
        )],
        // One fixed graph and scheme for the whole group: the sweep varies
        // the offered load, not the network.
        fixture: || {
            let mut rng = Sweep::rng(BATCH_SEED, 0);
            let g = Family::ErdosRenyi.generate(BATCH_N, &mut rng);
            let built = routing::build(&g, &BuildParams::new(BATCH_K), &mut rng);
            let mut uniform = Workload::prepare(WorkloadKind::Uniform, &g, &built.scheme, 0);
            let net = Network::new(g);
            Box::new(move |load| {
                // The pairs are deterministic per offered load.
                let mut rng = Sweep::rng(BATCH_SEED, load);
                let pairs: Vec<_> = (0..load).map(|_| uniform.draw(&mut rng)).collect();
                let options = packet::SendOptions::default();
                let report = packet::send(&net, &built.scheme, &pairs, options);
                let sim = vec![
                    ("rounds", report.stats.rounds),
                    ("messages", report.stats.messages),
                    ("words", report.stats.words),
                    ("peak_memory_words", report.stats.memory.max_peak() as u64),
                    ("delivered", report.delivered_count() as u64),
                    ("dropped", report.dropped() as u64),
                ];
                // The engine samples its own wall clock; use it so the
                // number prices the routing rounds, not the pair generation.
                (sim, report.stats.wall_ns)
            })
        },
    },
    Group {
        name: "traffic_steady",
        id: "traffic_steady/er/uniform/r",
        // Offered rates (packets per round, network-wide) in hundredths, so
        // `x` stays integral (a power-law fit is scale-invariant in x) and
        // `x / 100` gives back 0.5, 1, 2, 4 and 8 exactly.
        sweep: [&[50, 200], &[50, 100, 200], &[50, 100, 200, 400, 800]],
        predicted: &[(
            "delivered",
            0.70,
            1.30,
            "delivered throughput tracks the offered rate below saturation",
        )],
        // One fixed graph and scheme for the whole group: the sweep varies
        // the offered rate, not the network.
        fixture: || {
            let mut rng = Sweep::rng(TRAFFIC_SEED, 0);
            let g = Family::ErdosRenyi.generate(TRAFFIC_N, &mut rng);
            let built = routing::build(&g, &BuildParams::new(BATCH_K), &mut rng);
            let net = Network::new(g);
            Box::new(move |centi| {
                let scenario = TrafficScenario {
                    network: &net,
                    scheme: &built.scheme,
                    workload: WorkloadKind::Uniform,
                    config: ScenarioConfig {
                        inject_rounds: TRAFFIC_INJECT_ROUNDS,
                        queue_cap: TRAFFIC_QUEUE_CAP,
                        seed: TRAFFIC_SEED,
                        ..ScenarioConfig::default()
                    },
                };
                let run = scenario.run(centi as f64 / 100.0);
                let s = &run.summary;
                let sim = vec![
                    ("rounds", run.stats.rounds),
                    ("messages", run.stats.messages),
                    ("words", run.stats.words),
                    ("peak_memory_words", run.stats.memory.max_peak() as u64),
                    ("injected", s.injected),
                    ("delivered", s.delivered),
                    ("dropped", s.dropped()),
                    ("peak_queue_packets", s.peak_queue_packets),
                ];
                // The engine samples its own wall clock; use it so the
                // number prices the forwarding rounds, not the schedule
                // planning.
                (sim, run.stats.wall_ns)
            })
        },
    },
    Group {
        name: "churn_degrade",
        id: "churn_degrade/sf/targeted/r",
        sweep: [&[2, 4], &[4, 8, 16], &[4, 8, 16, 32]],
        predicted: &[],
        // One fixed scale-free graph and scheme for the whole group: the
        // sweep varies how long the targeted-removal process runs, not the
        // network.
        fixture: || {
            let mut rng = Sweep::rng(CHURN_SEED, 0);
            let g = Family::ScaleFree.generate(CHURN_N, &mut rng);
            let built = routing::build(&g, &BuildParams::new(BATCH_K), &mut rng);
            Box::new(move |rounds| {
                let scenario = ChurnScenario {
                    graph: &g,
                    scheme: &built.scheme,
                    config: ChurnConfig {
                        process: ProcessKind::Targeted,
                        rate: CHURN_RATE,
                        rounds,
                        seed: CHURN_SEED,
                        ..ChurnConfig::default()
                    },
                };
                let sw = Stopwatch::start();
                let run = scenario.run();
                let wall_ns = sw.elapsed_ns();
                let last = run.rows.last().expect("timeline has a baseline row");
                // Reachability is a ratio; sweep it in parts-per-million so
                // the column stays an exactly-gateable integer.
                let reach_ppm = (last.reachability(run.baseline_connected) * 1e6).round() as u64;
                let total = |f: fn(&HealthRow) -> u64| run.rows.iter().map(f).sum();
                let sim = vec![
                    ("rounds", run.engine.rounds),
                    ("messages", run.engine.messages),
                    ("words", run.engine.words),
                    ("dead_vertices", last.dead_vertices),
                    ("dead_edges", last.dead_edges),
                    ("blast_radius", last.blast_radius),
                    ("final_reach_ppm", reach_ppm),
                    ("delivered", total(|r| r.flow_delivered)),
                    ("dropped_stuck", total(|r| r.dropped_stuck)),
                    ("undeliverable", total(|r| r.undeliverable)),
                    ("peak_queue_packets", run.peak_queue_packets),
                ];
                (sim, wall_ns)
            })
        },
    },
    Group {
        name: "serve_qps",
        id: "serve_qps/er/uniform/q",
        sweep: [&[64, 128], &[256, 1024, 4096], &[256, 1024, 4096, 16384]],
        predicted: &[(
            "answered",
            0.85,
            1.15,
            "answered queries scale linearly with the stream — O(1) table/label reads per \
             query at a fixed scheme",
        )],
        // One fixed graph, scheme, and shared snapshot for the whole group:
        // the sweep varies the stream length, not the network.
        fixture: || {
            let mut rng = Sweep::rng(SERVE_SEED, 0);
            let g = Family::ErdosRenyi.generate(SERVE_N, &mut rng);
            let built = routing::build(&g, &BuildParams::new(BATCH_K), &mut rng);
            let snap = Snapshot::share(g, built.scheme);
            Box::new(move |queries| {
                let config = ServeConfig {
                    workload: ServeWorkload::Uniform,
                    queries: queries as usize,
                    batch: SERVE_BATCH,
                    threads: 1,
                    seed: SERVE_SEED,
                    check_rate: SERVE_CHECK_RATE,
                };
                let stream = generate_stream(&snap, &config);
                let mut pool = ServePool::start(snap.clone(), 1);
                let summary = run_closed(&mut pool, &stream, &config);
                let sim = vec![
                    ("answered", summary.answered),
                    ("unreachable", summary.unreachable),
                    ("errors", summary.errors),
                    ("checks", summary.checks),
                    ("mismatches", summary.mismatches),
                    ("total_weight", summary.total_weight),
                    ("total_hops", summary.total_hops),
                    ("answer_checksum", summary.answer_checksum),
                ];
                // The run times its own serving loop; use it so the number
                // prices the answered batches, not the stream generation or
                // pool spin-up, and QPS can be read straight off the case.
                (sim, summary.wall_ns)
            })
        },
    },
];

/// Run the standardized suite at `tier`, labeling the document `label`.
/// `repeats` overrides the tier's wall-clock repeat count; `progress` is
/// called with each finished case id.
///
/// # Errors
///
/// Returns a message if a case's simulated columns differ across repeats —
/// that would mean the fixed-seed pipeline went nondeterministic.
pub fn run_suite(
    tier: Tier,
    label: &str,
    repeats: Option<usize>,
    mut progress: impl FnMut(&str),
) -> Result<BenchDoc, String> {
    let repeats = repeats.unwrap_or_else(|| tier.repeats()).max(1);
    let mut cases = Vec::new();
    for group in GROUPS {
        let mut measure = (group.fixture)();
        for &x in group.sweep[tier as usize] {
            let id = format!("{}{x}", group.id);
            let (sim, wall_ns) = measure(x);
            let mut walls = vec![wall_ns];
            while walls.len() < repeats {
                let (again, wall_ns) = measure(x);
                if again != sim {
                    return Err(format!(
                        "case {id}: simulated columns changed across repeats at a fixed seed \
                         ({sim:?} vs {again:?}) — the pipeline is nondeterministic"
                    ));
                }
                walls.push(wall_ns);
            }
            progress(&id);
            cases.push(CaseResult {
                id,
                group: group.name.to_string(),
                x,
                sim: sim.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                wall: WallStats::from_samples(&walls),
            });
        }
    }
    let checks = scaling_checks(&cases);
    Ok(BenchDoc {
        label: label.to_string(),
        tier: tier.name().to_string(),
        env: EnvStamp::current(),
        cases,
        checks,
    })
}

/// Fit each predicted column over its group's sweep. Groups with fewer than
/// three points are skipped (a two-point "fit" is just a ratio).
pub fn scaling_checks(cases: &[CaseResult]) -> Vec<ScalingCheck> {
    let mut checks = Vec::new();
    for group in GROUPS {
        for &(column, lo, hi, claim) in group.predicted {
            let points: Vec<(f64, f64)> = cases
                .iter()
                .filter(|c| c.group == group.name)
                .filter_map(|c| c.sim(column).map(|y| (c.x as f64, y.max(1) as f64)))
                .collect();
            if points.len() < 3 {
                continue;
            }
            if let Some(fit) = fit_power_law(&points) {
                checks.push(ScalingCheck {
                    metric: format!("{}/{column}", group.name),
                    fit,
                    predicted: ExponentRange::new(lo, hi),
                    claim: claim.to_string(),
                });
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare, CompareConfig};

    fn tiny_doc(scale: u64) -> BenchDoc {
        let case = |id: &str, group: &str, x: u64, rounds: u64| CaseResult {
            id: id.to_string(),
            group: group.to_string(),
            x,
            sim: vec![
                ("rounds".to_string(), rounds),
                ("words".to_string(), rounds * 3),
            ],
            wall: WallStats {
                p50_ns: 1000 * scale,
                p95_ns: 1500 * scale,
                min_ns: 900 * scale,
                max_ns: 1600 * scale,
                repeats: 3,
            },
        };
        BenchDoc {
            label: format!("doc{scale}"),
            tier: "smoke".to_string(),
            env: EnvStamp::current(),
            cases: vec![
                case("tree_build/er/n64", "tree_build", 64, 100 * scale),
                case("tree_build/er/n128", "tree_build", 128, 160 * scale),
            ],
            checks: Vec::new(),
        }
    }

    #[test]
    fn bytes_are_pinned() {
        // A document with one entry of every kind and a literal environment
        // stamp, so the bytes do not depend on the machine or the profile.
        let mut doc = tiny_doc(1);
        doc.env = EnvStamp {
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            profile: "release".to_string(),
            version: "0.1.0".to_string(),
        };
        doc.checks.push(ScalingCheck {
            metric: "tree_build/rounds".to_string(),
            fit: obs::scaling::PowerLawFit {
                exponent: 0.62,
                intercept_ln: -1.25,
                r2: 0.998,
                points: 5,
            },
            predicted: ExponentRange::new(0.35, 0.95),
            claim: "Õ(√n + D)".to_string(),
        });
        let pinned = r#"{"schema":"drt-bench/v1","label":"doc1","tier":"smoke","env":{"os":"linux","arch":"x86_64","profile":"release","version":"0.1.0"},"cases":[{"id":"tree_build/er/n64","group":"tree_build","x":64,"sim":{"rounds":100,"words":300},"wall_ns":{"p50":1000,"p95":1500,"min":900,"max":1600,"repeats":3}},{"id":"tree_build/er/n128","group":"tree_build","x":128,"sim":{"rounds":160,"words":480},"wall_ns":{"p50":1000,"p95":1500,"min":900,"max":1600,"repeats":3}}],"scaling":[{"type":"scaling_check","metric":"tree_build/rounds","exponent":0.62,"intercept_ln":-1.25,"r2":0.998,"points":5,"predicted_lo":0.35,"predicted_hi":0.95,"claim":"Õ(√n + D)","ok":true}]}"#;
        assert_eq!(doc.to_value().to_string(), pinned);
        let parsed = BenchDoc::from_value(&obs::json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn doc_round_trips_through_json() {
        let doc = tiny_doc(1);
        let text = doc.to_value().to_string();
        let back = BenchDoc::from_value(&obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn from_value_rejects_wrong_schema() {
        let mut v = tiny_doc(1).to_value();
        if let Value::Object(fields) = &mut v {
            fields[0].1 = Value::from("drt-bench/v0");
        }
        assert!(BenchDoc::from_value(&v).unwrap_err().contains("schema"));
    }

    #[test]
    fn identical_docs_compare_clean() {
        let doc = tiny_doc(1);
        let cmp = compare(&doc, &doc, &CompareConfig::default());
        assert!(cmp.passed());
        assert_eq!(cmp.matched, 2);
        assert!(cmp.advisories.is_empty());
        assert!(cmp.rows.iter().all(|r| r.status == "ok"));
    }

    #[test]
    fn exact_gate_flags_any_sim_drift() {
        let old = tiny_doc(1);
        let mut new = tiny_doc(1);
        new.cases[0].sim[0].1 += 1;
        let cmp = compare(&old, &new, &CompareConfig::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 1);
        // A loose tolerance lets the same drift through.
        let loose = CompareConfig {
            sim_tol: 0.10,
            ..CompareConfig::default()
        };
        assert!(compare(&old, &new, &loose).passed());
    }

    #[test]
    fn wall_regressions_stay_advisory_unless_gated() {
        let old = tiny_doc(1);
        let new = tiny_doc(3); // 3x slower wall, same sims? no — sims scale too
        let mut new = new;
        for (c_old, c_new) in old.cases.iter().zip(new.cases.iter_mut()) {
            c_new.sim = c_old.sim.clone();
        }
        let cmp = compare(&old, &new, &CompareConfig::default());
        assert!(cmp.passed(), "wall is advisory by default");
        assert_eq!(cmp.advisories.len(), 2);
        let gated = CompareConfig {
            wall_gate: true,
            ..CompareConfig::default()
        };
        assert!(!compare(&old, &new, &gated).passed());
    }

    #[test]
    fn unmatched_cases_are_advisory() {
        let old = tiny_doc(1);
        let mut new = tiny_doc(1);
        new.cases.pop();
        let cmp = compare(&old, &new, &CompareConfig::default());
        assert!(cmp.passed());
        assert_eq!(cmp.matched, 1);
        assert_eq!(cmp.advisories.len(), 1);
    }

    #[test]
    fn markdown_lists_regressions() {
        let old = tiny_doc(1);
        let mut new = tiny_doc(1);
        new.cases[1].sim[1].1 *= 2;
        let cmp = compare(&old, &new, &CompareConfig::default());
        let md = cmp.markdown("old", "new");
        assert!(md.contains("| tree_build/er/n128 | sim/words |"));
        assert!(md.contains("REGRESSION"));
        assert!(md.contains("2 cases matched, 1 regression(s)"));
    }

    #[test]
    fn docs_without_speedup_or_threads_still_parse() {
        // Today's documents carry no `env.threads`, `speedup` or
        // `efficiency`; documents written while the suite had a parallel
        // engine carry all three, and load to the same value.
        let doc = tiny_doc(1);
        assert_eq!(BenchDoc::from_value(&doc.to_value()).unwrap(), doc);
        let mut v = doc.to_value();
        if let Value::Object(fields) = &mut v {
            fields.push(("speedup".to_string(), Value::Array(Vec::new())));
            fields.push(("efficiency".to_string(), Value::Array(Vec::new())));
            for (k, val) in fields.iter_mut() {
                if k == "env" {
                    if let Value::Object(env_fields) = val {
                        env_fields.push(("threads".to_string(), Value::from(4u64)));
                    }
                }
            }
        }
        assert_eq!(BenchDoc::from_value(&v).unwrap(), doc);
    }

    #[test]
    fn smoke_suite_runs_and_round_trips() {
        let doc = run_suite(Tier::Smoke, "unit", Some(1), |_| {}).unwrap();
        assert_eq!(doc.tier, "smoke");
        assert_eq!(
            doc.cases.len(),
            GROUPS
                .iter()
                .map(|g| g.sweep[Tier::Smoke as usize].len())
                .sum::<usize>()
        );
        // Two points per group: no scaling fits at smoke size.
        assert!(doc.checks.is_empty());
        for case in &doc.cases {
            // Serving cases have no engine rounds; their activity witness is
            // the answered count (and an always-clean mismatch column).
            if case.group == "serve_qps" {
                assert!(case.sim("answered").unwrap() > 0, "{}", case.id);
                assert_eq!(case.sim("mismatches"), Some(0), "{}", case.id);
            } else {
                assert!(case.sim("rounds").unwrap() > 0, "{}", case.id);
            }
            assert!(case.wall.repeats == 1);
        }
        let text = doc.to_value().to_string();
        let back = BenchDoc::from_value(&obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
    }
}
