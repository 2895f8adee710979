//! Seeded load generation and the closed/open-loop serving scenarios.
//!
//! The query stream is a pure function of `(snapshot, seed, config)`: pairs
//! come from the traffic plane's seeded [`traffic::workload::Workload`]
//! models (uniform / hotspot / adversarial worst-pairs), the query-kind mix
//! from an independent seeded stream. Both loop disciplines serve the *same*
//! stream, so their simulated columns are identical — only the pacing (and
//! therefore the wall columns) differs. Either way the stream is cut once
//! per run into one contiguous share per pool thread: the caller serves
//! share 0, scoped helper threads the others, and the shares are absorbed
//! in share order.
//!
//! * **closed loop** ([`run_closed`]) dispatches every share's batches back
//!   to back; its achieved QPS is the pool's saturation throughput;
//! * **open loop** ([`run_open`]) dispatches batches on a timed schedule,
//!   pacing each share at `offered / threads` so the pool as a whole is
//!   offered the given QPS; [`sweep_open`] walks a rate ladder and reports
//!   the *knee* — the largest offered rate the pool still absorbs (achieved
//!   ≥ 95% of offered, p99 under the SLO), the serving-side analog of the
//!   traffic plane's saturation-rate search.

use std::any::Any;
use std::time::Duration;

use graphs::INFINITY;
use obs::metrics::{nearest_rank, Stopwatch};
use obs::serve::ServeSummary;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use traffic::workload::{Workload, WorkloadKind};

use crate::pool::{check_threshold, serve_into, BatchResult, ServePool};
use crate::query::{Answer, Query, QueryKind};
use crate::snapshot::Snapshot;

/// Salt separating the query-kind mix stream from the pair stream.
const KIND_SALT: u64 = 0x5E12_E5A1_7000;
/// Salt keying the cross-check sampling hash.
const CHECK_SALT: u64 = 0xC4EC_4C4E_C4EC;

/// Query-kind mix, in percent: route / distance / trace.
const MIX_ROUTE_PCT: u64 = 60;
const MIX_DISTANCE_PCT: u64 = 25;

/// The serving workload models (a subset of the traffic matrices, plus the
/// adversarial worst-pair miner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeWorkload {
    /// Uniformly random distinct pairs.
    Uniform,
    /// All queries target the highest-degree vertex.
    Hotspot,
    /// Worst-estimated-stretch pairs mined from the oracle.
    Adversarial,
}

impl ServeWorkload {
    /// CLI / record name.
    pub fn name(self) -> &'static str {
        match self {
            ServeWorkload::Uniform => "uniform",
            ServeWorkload::Hotspot => "hotspot",
            ServeWorkload::Adversarial => "adversarial",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<ServeWorkload> {
        match name {
            "uniform" => Some(ServeWorkload::Uniform),
            "hotspot" => Some(ServeWorkload::Hotspot),
            "adversarial" => Some(ServeWorkload::Adversarial),
            _ => None,
        }
    }

    /// The traffic-plane workload backing this serving workload.
    fn traffic_kind(self) -> WorkloadKind {
        match self {
            ServeWorkload::Uniform => WorkloadKind::Uniform,
            ServeWorkload::Hotspot => WorkloadKind::Hotspot,
            ServeWorkload::Adversarial => WorkloadKind::WorstPairs,
        }
    }
}

/// One serving run's configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Pair distribution.
    pub workload: ServeWorkload,
    /// Total queries in the stream.
    pub queries: usize,
    /// Queries per dispatched batch.
    pub batch: usize,
    /// Worker threads.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// Fraction of answers cross-checked centrally, in `[0, 1]`.
    pub check_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workload: ServeWorkload::Uniform,
            queries: 4096,
            batch: 64,
            threads: 1,
            seed: 0x5E12E,
            check_rate: 0.05,
        }
    }
}

/// The saturation criteria for the open-loop knee.
#[derive(Clone, Copy, Debug)]
pub struct ServeSlo {
    /// Minimum achieved/offered QPS ratio.
    pub min_delivered: f64,
    /// p99 per-query latency ceiling in nanoseconds.
    pub max_p99_ns: u64,
}

impl Default for ServeSlo {
    fn default() -> ServeSlo {
        ServeSlo {
            min_delivered: 0.95,
            max_p99_ns: 5_000_000,
        }
    }
}

impl ServeSlo {
    /// Achieved over `offered` queries per second; 1 when nothing was
    /// offered.
    pub fn delivered(offered: f64, summary: &ServeSummary) -> f64 {
        if offered > 0.0 {
            summary.qps / offered
        } else {
            1.0
        }
    }

    /// Whether a run offered `offered` queries per second meets the SLO:
    /// achieved ≥ `min_delivered` × offered and p99 ≤ `max_p99_ns`.
    pub fn met(&self, offered: f64, summary: &ServeSummary) -> bool {
        ServeSlo::delivered(offered, summary) >= self.min_delivered
            && summary.p99_ns <= self.max_p99_ns
    }
}

/// One rung of an open-loop rate ladder.
#[derive(Clone, Debug)]
pub struct KneePoint {
    /// Offered rate in queries per second.
    pub offered: f64,
    /// The run at that rate.
    pub summary: ServeSummary,
}

/// Generate the seeded query stream for `config` over `snap`.
///
/// # Panics
///
/// Panics if the graph has fewer than two vertices (no pairs to draw).
pub fn generate_stream(snap: &Snapshot, config: &ServeConfig) -> Vec<Query> {
    let mut workload = Workload::prepare(
        config.workload.traffic_kind(),
        &snap.graph,
        &snap.scheme,
        config.seed,
    );
    let mut pair_rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut kind_rng = ChaCha8Rng::seed_from_u64(config.seed ^ KIND_SALT);
    (0..config.queries)
        .map(|_| {
            let (src, dst) = workload.draw(&mut pair_rng);
            let roll = kind_rng.gen_range(0..100u64);
            let kind = if roll < MIX_ROUTE_PCT {
                QueryKind::Route
            } else if roll < MIX_ROUTE_PCT + MIX_DISTANCE_PCT {
                QueryKind::Distance
            } else {
                QueryKind::Trace
            };
            Query { kind, src, dst }
        })
        .collect()
}

/// FNV-1a 64-bit fold of one `u64` into a running checksum.
fn fnv_fold(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Per-run aggregation state, folded batch by batch.
struct Tally {
    route_queries: u64,
    distance_queries: u64,
    trace_queries: u64,
    answered: u64,
    unreachable: u64,
    errors: u64,
    checks: u64,
    mismatches: u64,
    total_weight: u64,
    total_hops: u64,
    checksum: u64,
    latencies: Vec<u64>,
}

impl Tally {
    fn new(capacity: usize) -> Tally {
        Tally {
            route_queries: 0,
            distance_queries: 0,
            trace_queries: 0,
            answered: 0,
            unreachable: 0,
            errors: 0,
            checks: 0,
            mismatches: 0,
            total_weight: 0,
            total_hops: 0,
            checksum: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            latencies: Vec::with_capacity(capacity),
        }
    }

    fn absorb(&mut self, chunk: &[Query], out: &BatchResult) {
        for q in chunk {
            match q.kind {
                QueryKind::Route => self.route_queries += 1,
                QueryKind::Distance => self.distance_queries += 1,
                QueryKind::Trace => self.trace_queries += 1,
            }
        }
        for &a in &out.answers {
            match a {
                Answer::Route {
                    weight,
                    hops,
                    tree_root,
                    level,
                } => {
                    self.answered += 1;
                    self.total_weight += weight;
                    self.total_hops += u64::from(hops);
                    for w in [
                        1u64,
                        weight,
                        u64::from(hops),
                        u64::from(tree_root.0),
                        u64::from(level),
                    ] {
                        self.checksum = fnv_fold(self.checksum, w);
                    }
                }
                Answer::Distance { estimate } => {
                    debug_assert_ne!(estimate, INFINITY, "infinite estimates are Unreachable");
                    self.answered += 1;
                    self.total_weight += estimate;
                    for w in [2u64, estimate] {
                        self.checksum = fnv_fold(self.checksum, w);
                    }
                }
                Answer::Trace {
                    weight,
                    hops,
                    tree_root,
                    level,
                    path_start,
                    path_len,
                } => {
                    self.answered += 1;
                    self.total_weight += weight;
                    self.total_hops += u64::from(hops);
                    for w in [
                        3u64,
                        weight,
                        u64::from(hops),
                        u64::from(tree_root.0),
                        u64::from(level),
                    ] {
                        self.checksum = fnv_fold(self.checksum, w);
                    }
                    let path = &out.paths[path_start as usize..(path_start + path_len) as usize];
                    for v in path {
                        self.checksum = fnv_fold(self.checksum, u64::from(v.0));
                    }
                }
                Answer::Unreachable => {
                    self.unreachable += 1;
                    self.checksum = fnv_fold(self.checksum, 4);
                }
                Answer::Error => {
                    self.errors += 1;
                    self.checksum = fnv_fold(self.checksum, 5);
                }
            }
        }
        self.checks += out.checks;
        self.mismatches += out.mismatches;
        self.latencies.extend_from_slice(&out.latencies);
    }

    fn into_summary(
        mut self,
        config: &ServeConfig,
        mode: &str,
        offered_qps: f64,
        wall_ns: u64,
    ) -> ServeSummary {
        let queries = self.latencies.len() as u64;
        // One in-place sort serves all three quantiles.
        self.latencies.sort_unstable();
        let qps = if wall_ns == 0 {
            0.0
        } else {
            queries as f64 * 1e9 / wall_ns as f64
        };
        ServeSummary {
            workload: config.workload.name().to_string(),
            mode: mode.to_string(),
            threads: config.threads as u64,
            batch: config.batch as u64,
            queries,
            seed: config.seed,
            check_rate: config.check_rate,
            route_queries: self.route_queries,
            distance_queries: self.distance_queries,
            trace_queries: self.trace_queries,
            answered: self.answered,
            unreachable: self.unreachable,
            errors: self.errors,
            checks: self.checks,
            mismatches: self.mismatches,
            total_weight: self.total_weight,
            total_hops: self.total_hops,
            // Xor-fold the 64-bit FNV state to 32 bits: the JSON channel
            // stores numbers as f64, which only round-trips integers up to
            // 2^53 exactly, and a lossy checksum would defeat the exact gate.
            answer_checksum: (self.checksum >> 32) ^ (self.checksum & 0xFFFF_FFFF),
            offered_qps,
            wall_ns,
            qps,
            p50_ns: nearest_rank(&self.latencies, 0.50),
            p95_ns: nearest_rank(&self.latencies, 0.95),
            p99_ns: nearest_rank(&self.latencies, 0.99),
        }
    }
}

/// The shared serving run. `pace` is `None` for closed loop, `Some(qps)`
/// for an open loop offering `qps` queries/s in total.
///
/// The stream is cut into `pool.threads()` contiguous shares. The calling
/// thread serves share 0 batch by batch into one reused [`BatchResult`],
/// absorbing each batch as it goes; every other share is served on a scoped
/// helper thread into a [`BatchResult`] of its own, returned through
/// `join` and absorbed after share 0 in share order, so the tally folds
/// answers in query order at any thread count. Under a pace, each share is
/// paced at `qps / threads`: share `j`'s batch `i` is due `i·batch·threads /
/// qps` after the run's one start instant.
///
/// # Panics
///
/// A helper's panic re-raises here as `serve worker j panicked: …`; a panic
/// in the caller's share propagates once the helpers have been joined.
fn run(
    pool: &mut ServePool,
    stream: &[Query],
    config: &ServeConfig,
    pace: Option<f64>,
) -> ServeSummary {
    let threads = pool.threads();
    let snap: &Snapshot = pool.snapshot();
    let oracle = DistanceOracle::new(&snap.scheme);
    let threshold = check_threshold(config.check_rate);
    let salt = config.seed ^ CHECK_SALT;
    let batch = config.batch.max(1);
    let share_pace = pace.map(|qps| qps / threads as f64);
    let mut tally = Tally::new(stream.len());
    let sw = Stopwatch::start();
    // Serve `share` (stream indices from `base`) into `out`: batch by batch
    // into a cleared `out` when there is a tally to absorb into, else all
    // of it appended into `out`.
    let serve_share =
        |share: &[Query], base: usize, out: &mut BatchResult, mut tally: Option<&mut Tally>| {
            for (bi, chunk) in share.chunks(batch).enumerate() {
                if let Some(qps) = share_pace {
                    let target_ns = (bi * batch) as f64 * 1e9 / qps;
                    let now = sw.elapsed_ns() as f64;
                    if now < target_ns {
                        std::thread::sleep(Duration::from_nanos((target_ns - now) as u64));
                    }
                }
                let index = (base + bi * batch) as u64;
                serve_into(snap, &oracle, chunk, index, threshold, salt, out);
                if let Some(tally) = tally.as_deref_mut() {
                    tally.absorb(chunk, out);
                    out.clear();
                }
            }
        };
    let serve_share = &serve_share;
    // At least 1: an empty stream still has to be cut, and `chunks(0)`
    // panics.
    let share_len = stream.len().div_ceil(threads).max(1);
    let mut shares = stream.chunks(share_len);
    let own = shares.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = shares
            .enumerate()
            .map(|(h, share)| {
                let base = (h + 1) * share_len;
                let helper = scope.spawn(move || {
                    let mut out = BatchResult::default();
                    serve_share(share, base, &mut out, None);
                    out
                });
                (share, helper)
            })
            .collect();
        let mut out = BatchResult::default();
        serve_share(own, 0, &mut out, Some(&mut tally));
        for (h, (share, helper)) in helpers.into_iter().enumerate() {
            match helper.join() {
                Ok(out) => tally.absorb(share, &out),
                Err(payload) => panic!(
                    "serve worker {} panicked: {}",
                    h + 1,
                    panic_message(payload.as_ref())
                ),
            }
        }
    });
    let wall_ns = sw.elapsed_ns();
    let (mode, offered) = match pace {
        None => ("closed", 0.0),
        Some(qps) => ("open", qps),
    };
    tally.into_summary(config, mode, offered, wall_ns)
}

/// The text of a panic payload (`panic!` with a format or a literal).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(s) => s,
        None => payload
            .downcast_ref::<&str>()
            .map_or("non-string panic payload", |s| s),
    }
}

/// Closed loop: batches back to back; achieved QPS is the saturation
/// throughput of the pool.
pub fn run_closed(pool: &mut ServePool, stream: &[Query], config: &ServeConfig) -> ServeSummary {
    run(pool, stream, config, None)
}

/// Open loop: batches on a timed schedule offering `offered_qps` queries/s
/// in total, each of the pool's shares paced at `offered_qps / threads`.
pub fn run_open(
    pool: &mut ServePool,
    stream: &[Query],
    config: &ServeConfig,
    offered_qps: f64,
) -> ServeSummary {
    run(pool, stream, config, Some(offered_qps.max(1.0)))
}

/// Walk an offered-rate ladder open-loop and find the knee: the index of
/// the largest rate still meeting `slo` ([`ServeSlo::met`]).
pub fn sweep_open(
    pool: &mut ServePool,
    stream: &[Query],
    config: &ServeConfig,
    rates: &[f64],
    slo: &ServeSlo,
) -> (Vec<KneePoint>, Option<usize>) {
    let mut points = Vec::with_capacity(rates.len());
    let mut knee = None;
    for (i, &rate) in rates.iter().enumerate() {
        let summary = run_open(pool, stream, config, rate);
        if slo.met(rate, &summary) {
            knee = Some(i);
        }
        points.push(KneePoint {
            offered: rate,
            summary,
        });
    }
    (points, knee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SharedSnapshot, Snapshot};
    use graphs::generators;
    use routing::scheme::{build, BuildParams};

    fn snap(n: usize, seed: u64) -> SharedSnapshot {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        Snapshot::share(g, built.scheme)
    }

    #[test]
    fn summary_quantiles_match_quantile_ns() {
        use obs::metrics::quantile_ns;
        let mut rng = ChaCha8Rng::seed_from_u64(0xA06);
        for len in [0usize, 1, 2, 7, 100, 1001] {
            let sample: Vec<u64> = (0..len).map(|_| rng.gen_range(0..5_000u64)).collect();
            let mut tally = Tally::new(len);
            tally.latencies.extend_from_slice(&sample);
            let s = tally.into_summary(&ServeConfig::default(), "closed", 0.0, 1);
            assert_eq!(s.queries, len as u64);
            assert_eq!(s.p50_ns, quantile_ns(&sample, 0.50), "p50 of {len}");
            assert_eq!(s.p95_ns, quantile_ns(&sample, 0.95), "p95 of {len}");
            assert_eq!(s.p99_ns, quantile_ns(&sample, 0.99), "p99 of {len}");
        }
    }

    #[test]
    fn stream_is_seed_deterministic_and_mixed() {
        let s = snap(60, 0xA01);
        let cfg = ServeConfig {
            queries: 500,
            ..ServeConfig::default()
        };
        let a = generate_stream(&s, &cfg);
        let b = generate_stream(&s, &cfg);
        assert_eq!(a, b);
        assert!(a.iter().any(|q| q.kind == QueryKind::Route));
        assert!(a.iter().any(|q| q.kind == QueryKind::Distance));
        assert!(a.iter().any(|q| q.kind == QueryKind::Trace));
        let other = generate_stream(
            &s,
            &ServeConfig {
                seed: 0xBEEF,
                queries: 500,
                ..ServeConfig::default()
            },
        );
        assert_ne!(a, other, "different seeds must give different streams");
    }

    #[test]
    fn closed_loop_summary_is_consistent_and_clean() {
        let s = snap(60, 0xA02);
        let cfg = ServeConfig {
            queries: 512,
            batch: 32,
            threads: 2,
            check_rate: 1.0,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&s, &cfg);
        let mut pool = ServePool::start(s, cfg.threads);
        let summary = run_closed(&mut pool, &stream, &cfg);
        assert!(summary.consistent());
        assert_eq!(summary.queries, 512);
        assert_eq!(summary.checks, 512);
        assert_eq!(summary.mismatches, 0);
        assert_eq!(summary.errors, 0);
        assert!(summary.qps > 0.0);
        assert!(summary.p50_ns <= summary.p95_ns && summary.p95_ns <= summary.p99_ns);
    }

    #[test]
    fn sim_columns_are_identical_across_modes_and_threads() {
        let s = snap(50, 0xA03);
        let base = ServeConfig {
            queries: 384,
            batch: 48,
            check_rate: 0.25,
            workload: ServeWorkload::Hotspot,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&s, &base);
        let mut sims = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = ServeConfig { threads, ..base };
            let mut pool = ServePool::start(s.clone(), threads);
            let closed = run_closed(&mut pool, &stream, &cfg);
            let open = run_open(&mut pool, &stream, &cfg, 1e9);
            let sim = |s: &ServeSummary| {
                (
                    s.route_queries,
                    s.distance_queries,
                    s.trace_queries,
                    s.answered,
                    s.unreachable,
                    s.errors,
                    s.checks,
                    s.mismatches,
                    s.total_weight,
                    s.total_hops,
                    s.answer_checksum,
                )
            };
            assert_eq!(sim(&closed), sim(&open), "mode changed sim columns");
            sims.push(sim(&closed));
        }
        assert_eq!(sims[0], sims[1], "2 threads diverged from 1");
        assert_eq!(sims[0], sims[2], "8 threads diverged from 1");
    }

    #[test]
    fn adversarial_workload_serves_cleanly() {
        let s = snap(64, 0xA04);
        let cfg = ServeConfig {
            workload: ServeWorkload::Adversarial,
            queries: 256,
            threads: 2,
            check_rate: 1.0,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&s, &cfg);
        let mut pool = ServePool::start(s, cfg.threads);
        let summary = run_closed(&mut pool, &stream, &cfg);
        assert_eq!(summary.mismatches, 0);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.workload, "adversarial");
    }

    #[test]
    fn open_sweep_reports_a_knee_on_generous_rates() {
        let s = snap(40, 0xA05);
        let cfg = ServeConfig {
            queries: 128,
            batch: 32,
            ..ServeConfig::default()
        };
        let stream = generate_stream(&s, &cfg);
        let mut pool = ServePool::start(s, 1);
        // Rates far below saturation: every rung meets the SLO, so the knee
        // is the last rung.
        let slo = ServeSlo {
            min_delivered: 0.5,
            max_p99_ns: u64::MAX,
        };
        let (points, knee) = sweep_open(&mut pool, &stream, &cfg, &[1000.0, 2000.0], &slo);
        assert_eq!(points.len(), 2);
        assert_eq!(knee, Some(1));
        assert!(points.iter().all(|p| p.summary.mismatches == 0));
    }

    #[test]
    fn slo_bounds_are_inclusive() {
        let slo = ServeSlo {
            min_delivered: 0.5,
            max_p99_ns: 1000,
        };
        let run = |qps: f64, p99_ns: u64| ServeSummary {
            qps,
            p99_ns,
            ..ServeSummary::default()
        };
        // Exactly at both bounds.
        assert!(slo.met(200.0, &run(100.0, 1000)));
        // Just over either bound.
        assert!(!slo.met(200.0, &run(99.9, 1000)));
        assert!(!slo.met(200.0, &run(100.0, 1001)));
        // Nothing offered counts as fully delivered; the p99 bound still holds.
        assert_eq!(ServeSlo::delivered(0.0, &run(0.0, 0)), 1.0);
        assert!(slo.met(0.0, &run(0.0, 1000)));
        assert!(!slo.met(0.0, &run(0.0, 1001)));
    }
}
