//! The serving pool and the one serving loop.
//!
//! A pool is a shared snapshot and a thread count; it holds no thread.
//! Threads exist only for the length of a run: [`crate::scenario`] cuts the
//! query stream into `threads` *contiguous* shares, the calling thread
//! serves share 0 batch by batch, and `threads − 1` scoped helper threads
//! each serve one of the other shares into their own [`BatchResult`]. A
//! one-thread pool spawns nothing, so its batches cross no thread boundary
//! at all, and the caller's reused [`BatchResult`] allocates nothing once
//! the first batches have sized it.
//!
//! Determinism: the shares are absorbed in share order, so the answer
//! sequence is exactly the query sequence regardless of which thread
//! finishes first or how many threads exist. Cross-check sampling is keyed
//! on the global query index (a seeded hash against the configured rate),
//! never on the wall clock, so `checks` and `mismatches` are sim columns
//! too.

use graphs::VertexId;
use obs::metrics::Stopwatch;
use routing::oracle::DistanceOracle;

use crate::query::{answer_query, check_answer, Answer, Query};
use crate::snapshot::{SharedSnapshot, Snapshot};

/// SplitMix64 — the check-sampling hash (stateless, index-keyed).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convert a check rate in `[0, 1]` to a `u64` sampling threshold.
pub(crate) fn check_threshold(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else if rate <= 0.0 {
        0
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

/// The answers to a run of queries — one batch, or a helper's whole share —
/// owned by the thread that serves them and reused (cleared, never shrunk).
#[derive(Default)]
pub struct BatchResult {
    /// One answer per query, in query order.
    pub answers: Vec<Answer>,
    /// Trace-path arena; `Answer::Trace` offsets index into it.
    pub paths: Vec<VertexId>,
    /// Per-query latency in nanoseconds, in query order.
    pub latencies: Vec<u64>,
    /// Answers cross-checked.
    pub checks: u64,
    /// Cross-checks that disagreed.
    pub mismatches: u64,
}

impl BatchResult {
    pub(crate) fn clear(&mut self) {
        self.answers.clear();
        self.paths.clear();
        self.latencies.clear();
        self.checks = 0;
        self.mismatches = 0;
    }
}

/// The serving threads of one process: a snapshot shared by `Arc` and how
/// many threads a run splits its stream across, the caller included.
pub struct ServePool {
    snapshot: SharedSnapshot,
    threads: usize,
}

impl ServePool {
    /// A pool of `threads` serving threads over `snapshot` (at least one):
    /// the caller of a run and `threads − 1` helpers spawned for its length.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn start(snapshot: SharedSnapshot, threads: usize) -> ServePool {
        assert!(threads > 0, "a serving pool needs at least one worker");
        ServePool { snapshot, threads }
    }

    /// Serving thread count, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The snapshot every thread serves from.
    pub fn snapshot(&self) -> &SharedSnapshot {
        &self.snapshot
    }

    /// Serve one batch on the calling thread into `out`, which is cleared
    /// first. `base_index` is the global stream index of `queries[0]`;
    /// `check_rate` is the sampled cross-check fraction and `check_salt` its
    /// hash seed.
    pub fn serve_batch(
        &mut self,
        queries: &[Query],
        base_index: u64,
        check_rate: f64,
        check_salt: u64,
        out: &mut BatchResult,
    ) {
        out.clear();
        let oracle = DistanceOracle::new(&self.snapshot.scheme);
        let threshold = check_threshold(check_rate);
        serve_into(
            &self.snapshot,
            &oracle,
            queries,
            base_index,
            threshold,
            check_salt,
            out,
        );
    }
}

/// The one serving loop: answer (and sample-check) every query, appending
/// to `out`, so the trace offsets it writes stay valid across calls.
/// `base_index` is the stream index of `queries[0]`; query `i` is checked
/// iff `threshold == u64::MAX` or `splitmix64(salt ^ i) < threshold`.
pub(crate) fn serve_into(
    snap: &Snapshot,
    oracle: &DistanceOracle,
    queries: &[Query],
    base_index: u64,
    threshold: u64,
    salt: u64,
    out: &mut BatchResult,
) {
    for (i, &q) in queries.iter().enumerate() {
        let sw = Stopwatch::start();
        let answer = answer_query(snap, oracle, q, &mut out.paths);
        out.latencies.push(sw.elapsed_ns());
        out.answers.push(answer);
        let index = base_index + i as u64;
        // threshold == MAX means rate 1.0: check unconditionally so
        // "check everything" is exact, not probabilistic.
        if threshold == u64::MAX || (threshold > 0 && splitmix64(salt ^ index) < threshold) {
            out.checks += 1;
            if !check_answer(snap, oracle, q, answer, &out.paths) {
                out.mismatches += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use crate::scenario::{run_closed, run_open, ServeConfig};
    use crate::snapshot::Snapshot;
    use graphs::generators;
    use obs::serve::ServeSummary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing::scheme::{build, BuildParams};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn snap(n: usize, seed: u64) -> SharedSnapshot {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let built = build(&g, &BuildParams::new(2), &mut rng);
        Snapshot::share(g, built.scheme)
    }

    fn stream(n: u32, count: usize) -> Vec<Query> {
        (0..count)
            .map(|i| {
                let kind = match i % 3 {
                    0 => QueryKind::Route,
                    1 => QueryKind::Distance,
                    _ => QueryKind::Trace,
                };
                Query {
                    kind,
                    src: VertexId(i as u32 * 7 % n),
                    dst: VertexId((i as u32 * 13 + 1) % n),
                }
            })
            .collect()
    }

    /// A summary's simulated columns: everything but its walls and labels.
    fn sim(s: &ServeSummary) -> [u64; 11] {
        [
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
        ]
    }

    #[test]
    fn merge_preserves_query_order_at_any_thread_count() {
        let s = snap(50, 0x900);
        // Streams of 0, 1 and 5 queries leave some threads without a share;
        // batches of 16 do not align with the shares of 200.
        for len in [0usize, 1, 5, 200] {
            let queries = stream(50, len);
            for check_rate in [0.5, 1.0] {
                let mut reference = None;
                for threads in [1usize, 2, 3, 8] {
                    let cfg = ServeConfig {
                        queries: len,
                        batch: 16,
                        threads,
                        check_rate,
                        ..ServeConfig::default()
                    };
                    let mut pool = ServePool::start(s.clone(), threads);
                    let closed = run_closed(&mut pool, &queries, &cfg);
                    // An absurd offered rate: pacing arithmetic, no waiting.
                    let open = run_open(&mut pool, &queries, &cfg, 1e12);
                    for summary in [&closed, &open] {
                        assert_eq!(summary.queries, len as u64);
                        assert_eq!(summary.mismatches, 0);
                        if check_rate == 1.0 {
                            assert_eq!(summary.checks, len as u64, "rate 1.0 checks all");
                        }
                    }
                    assert_eq!(sim(&closed), sim(&open), "the loop mode moved sim columns");
                    match &reference {
                        None => reference = Some(sim(&closed)),
                        Some(r) => assert_eq!(
                            r,
                            &sim(&closed),
                            "{threads} threads changed a {len}-query stream at rate {check_rate}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn buffers_are_recycled_across_batches() {
        let s = snap(40, 0x901);
        let queries = stream(40, 64);
        let mut pool = ServePool::start(s, 2);
        let mut out = BatchResult::default();
        pool.serve_batch(&queries, 0, 0.0, 0, &mut out);
        let first = out.answers.clone();
        for round in 1..5u64 {
            pool.serve_batch(&queries, round * 64, 0.0, 0, &mut out);
            assert_eq!(out.answers, first, "recycled buffers changed answers");
        }
    }

    /// Serve an 8-query stream closed-loop on two threads with query `bad`
    /// out of range; returns the run's panic message. Fails if the run
    /// hangs.
    fn fail_batch_at(bad: usize) -> String {
        let s = snap(40, 0x902);
        let mut queries = stream(40, 8);
        queries[bad] = Query {
            kind: QueryKind::Route,
            src: VertexId(0),
            dst: VertexId(40),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose: a hang must fail the timeout below, not
        // block the test on a join.
        std::thread::spawn(move || {
            let cfg = ServeConfig {
                queries: 8,
                threads: 2,
                check_rate: 0.0,
                ..ServeConfig::default()
            };
            let mut pool = ServePool::start(s, 2);
            let served = catch_unwind(AssertUnwindSafe(|| run_closed(&mut pool, &queries, &cfg)));
            // Both panics are formatted, so their payloads are `String`s.
            let _ = tx.send(
                served
                    .map(|_| ())
                    .map_err(|p| *p.downcast::<String>().expect("a formatted panic message")),
            );
        });
        let served = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_closed hung on a panicked serving thread");
        served.expect_err("a bad query must fail its run")
    }

    #[test]
    fn a_panicking_worker_fails_the_batch_instead_of_hanging() {
        // The helper serves share 1, queries 4..8.
        let msg = fail_batch_at(7);
        assert!(msg.starts_with("serve worker 1 panicked: "), "{msg}");
    }

    #[test]
    fn a_panic_in_the_callers_chunk_fails_the_batch_instead_of_hanging() {
        // The caller serves share 0, queries 0..4, while the helper serves
        // 4..8; its panic is the kernel's own.
        let msg = fail_batch_at(0);
        assert!(msg.starts_with("index out of bounds"), "{msg}");
    }

    #[test]
    fn check_threshold_covers_the_extremes() {
        assert_eq!(check_threshold(0.0), 0);
        assert_eq!(check_threshold(-1.0), 0);
        assert_eq!(check_threshold(1.0), u64::MAX);
        assert_eq!(check_threshold(2.0), u64::MAX);
        let half = check_threshold(0.5);
        assert!(half > u64::MAX / 3 && half < u64::MAX / 3 * 2);
    }
}
