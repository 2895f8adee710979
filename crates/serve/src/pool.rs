//! The long-lived worker pool and its zero-steady-state-allocation batches.
//!
//! One pool is started per serving process. The calling thread is worker
//! 0: it answers the first chunk of every batch itself, straight into the
//! caller's [`BatchResult`], while `threads − 1` helper threads answer the
//! rest. Each helper owns a recycled [`Task`] — input queries plus a
//! response arena (answers, trace paths, per-query latencies) — that
//! shuttles between caller and helper over ownership-passing channels, the
//! same discipline as `congest::plane`: after the first few batches size
//! the buffers, a batch allocates nothing. A one-thread pool spawns no
//! thread, so its batches cross no thread boundary at all.
//!
//! Determinism: every batch is split into *contiguous* per-worker chunks
//! and the helpers' arenas are merged after the caller's *in worker order*,
//! so the merged answer sequence is exactly the query sequence regardless
//! of which worker finishes first or how many workers exist. Cross-check
//! sampling is keyed on the global query index (a seeded hash against the
//! configured rate), never on the wall clock, so `checks` and `mismatches`
//! are sim columns too.
//!
//! A helper that panics replies with the panic message instead of its task,
//! and [`ServePool::serve_batch`] re-raises it on the calling thread, so a
//! bad query fails its batch instead of leaving the caller waiting forever;
//! a panic in the caller's own chunk is caught and re-raised the same way.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use graphs::VertexId;
use obs::metrics::Stopwatch;
use routing::oracle::DistanceOracle;

use crate::query::{answer_query, check_answer, Answer, Query};
use crate::snapshot::SharedSnapshot;

/// A helper's unit of work: owned input plus the response arena, recycled
/// batch after batch.
#[derive(Default)]
struct Task {
    /// Queries to answer, copied from the caller's batch slice.
    queries: Vec<Query>,
    /// Global index of `queries[0]` in the run's stream (drives check
    /// sampling).
    base_index: u64,
    /// Sampling threshold: check query `i` iff `splitmix64(salt ^ i) <
    /// threshold`.
    threshold: u64,
    /// Seed salt for the sampling hash.
    salt: u64,
    /// The answers to `queries`.
    arena: BatchResult,
}

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

/// The merged result of one batch, owned by the caller and reused across
/// batches (cleared, never shrunk).
#[derive(Default)]
pub struct BatchResult {
    /// One answer per query, in query order.
    pub answers: Vec<Answer>,
    /// Trace-path arena for this batch; `Answer::Trace` offsets are
    /// rebased into it during the merge.
    pub paths: Vec<VertexId>,
    /// Per-query latency in nanoseconds, in query order.
    pub latencies: Vec<u64>,
    /// Answers cross-checked.
    pub checks: u64,
    /// Cross-checks that disagreed.
    pub mismatches: u64,
}

impl BatchResult {
    fn clear(&mut self) {
        self.answers.clear();
        self.paths.clear();
        self.latencies.clear();
        self.checks = 0;
        self.mismatches = 0;
    }
}

/// A helper's answer to one task: the task back, or its panic message.
type Reply = Result<Task, String>;

/// A long-lived pool of serving workers over one shared snapshot: the
/// calling thread plus `threads − 1` helpers.
pub struct ServePool {
    snapshot: SharedSnapshot,
    /// One task channel per helper; helper `h` is worker `h + 1`.
    task_txs: Vec<Sender<Task>>,
    done_rx: Receiver<(usize, Reply)>,
    handles: Vec<JoinHandle<()>>,
    /// Recycled task buffers, one slot per helper.
    parked: Vec<Option<Task>>,
}

impl ServePool {
    /// A pool of `threads` serving threads over `snapshot` (at least one):
    /// the caller of [`ServePool::serve_batch`] and `threads − 1` spawned
    /// helpers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a helper thread cannot be spawned.
    pub fn start(snapshot: SharedSnapshot, threads: usize) -> ServePool {
        assert!(threads > 0, "a serving pool needs at least one worker");
        let (done_tx, done_rx) = channel::<(usize, Reply)>();
        let mut task_txs = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for worker in 1..threads {
            let (task_tx, task_rx) = channel::<Task>();
            task_txs.push(task_tx);
            let done = done_tx.clone();
            let snap = snapshot.clone();
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || helper_loop(worker, &snap, &task_rx, &done))
                .expect("spawn serving worker");
            handles.push(handle);
        }
        ServePool {
            snapshot,
            task_txs,
            done_rx,
            handles,
            parked: (1..threads).map(|_| Some(Task::default())).collect(),
        }
    }

    /// Serving thread count, the caller included.
    pub fn threads(&self) -> usize {
        self.task_txs.len() + 1
    }

    /// The snapshot every worker serves from.
    pub fn snapshot(&self) -> &SharedSnapshot {
        &self.snapshot
    }

    /// Serve one batch: split `queries` into contiguous per-worker chunks,
    /// hand chunks `1..` to the helpers, answer chunk 0 on the calling
    /// thread straight into `out`, and append the helpers' arenas in worker
    /// order (= query order). `base_index` is the global stream index of
    /// `queries[0]`; `check_rate` is the sampled cross-check fraction and
    /// `check_salt` its hash seed.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic (naming the worker; the caller's own
    /// chunk is worker 0) on the calling thread; the pool is unusable
    /// afterwards, but dropping it does not block.
    pub fn serve_batch(
        &mut self,
        queries: &[Query],
        base_index: u64,
        check_rate: f64,
        check_salt: u64,
        out: &mut BatchResult,
    ) {
        out.clear();
        if queries.is_empty() {
            return;
        }
        let chunk = queries.len().div_ceil(self.threads());
        let threshold = check_threshold(check_rate);
        let mut parts = queries.chunks(chunk);
        let own = parts.next().expect("a non-empty batch has a first chunk");
        let mut sent = 0usize;
        for (helper, part) in parts.enumerate() {
            let mut task = self.parked[helper].take().expect("parked task present");
            task.queries.clear();
            task.queries.extend_from_slice(part);
            task.base_index = base_index + ((helper + 1) * chunk) as u64;
            task.threshold = threshold;
            task.salt = check_salt;
            self.task_txs[helper].send(task).expect("helper alive");
            sent += 1;
        }
        let snap = &self.snapshot;
        let oracle = DistanceOracle::new(&snap.scheme);
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_into(snap, &oracle, own, base_index, threshold, check_salt, out)
        }));
        if let Err(payload) = served {
            panic!(
                "serve worker 0 panicked: {}",
                panic_message(payload.as_ref())
            );
        }
        for _ in 0..sent {
            // Every helper that was sent a task replies, even by panicking.
            match self.done_rx.recv().expect("helper replies") {
                (worker, Ok(task)) => self.parked[worker - 1] = Some(task),
                (worker, Err(msg)) => panic!("serve worker {worker} panicked: {msg}"),
            }
        }
        // Merge in worker order: chunks were contiguous, so this is query
        // order no matter the completion order above.
        for slot in self.parked.iter().take(sent) {
            let arena = &slot.as_ref().expect("task returned").arena;
            let path_base = out.paths.len() as u32;
            for &a in &arena.answers {
                out.answers.push(match a {
                    Answer::Trace {
                        weight,
                        hops,
                        tree_root,
                        level,
                        path_start,
                        path_len,
                    } => Answer::Trace {
                        weight,
                        hops,
                        tree_root,
                        level,
                        path_start: path_base + path_start,
                        path_len,
                    },
                    other => other,
                });
            }
            out.paths.extend_from_slice(&arena.paths);
            out.latencies.extend_from_slice(&arena.latencies);
            out.checks += arena.checks;
            out.mismatches += arena.mismatches;
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.task_txs.clear(); // disconnect: helpers exit their recv loop
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn helper_loop(
    worker: usize,
    snap: &SharedSnapshot,
    tasks: &Receiver<Task>,
    done: &Sender<(usize, Reply)>,
) {
    let oracle = DistanceOracle::new(&snap.scheme);
    while let Ok(mut task) = tasks.recv() {
        let Task {
            queries,
            base_index,
            threshold,
            salt,
            arena,
        } = &mut task;
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_into(
                snap,
                &oracle,
                queries,
                *base_index,
                *threshold,
                *salt,
                arena,
            )
        }));
        let reply = match served {
            Ok(()) => Ok(task),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        let failed = reply.is_err();
        if done.send((worker, reply)).is_err() || failed {
            return; // pool dropped mid-flight, or this helper is poisoned
        }
    }
}

/// The one serving loop: answer (and sample-check) every query into `out`,
/// which is cleared first. `base_index` is the stream index of
/// `queries[0]`; query `i` is checked iff `threshold == u64::MAX` or
/// `splitmix64(salt ^ i) < threshold`.
fn serve_into(
    snap: &SharedSnapshot,
    oracle: &DistanceOracle,
    queries: &[Query],
    base_index: u64,
    threshold: u64,
    salt: u64,
    out: &mut BatchResult,
) {
    out.clear();
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

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use crate::snapshot::Snapshot;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing::scheme::{build, BuildParams};

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

    /// Everything a batch reports but its walls.
    fn sim(out: &BatchResult) -> (Vec<Answer>, Vec<VertexId>, usize, u64, u64) {
        (
            out.answers.clone(),
            out.paths.clone(),
            out.latencies.len(),
            out.checks,
            out.mismatches,
        )
    }

    #[test]
    fn merge_preserves_query_order_at_any_thread_count() {
        let s = snap(50, 0x900);
        let oracle = DistanceOracle::new(&s.scheme);
        // Batches of 1 and 5 queries leave some workers without a chunk;
        // a 1-query batch is the caller's alone.
        for len in [1usize, 5, 200] {
            let queries = stream(50, len);
            for rate in [0.5, 1.0] {
                let mut reference = None;
                for threads in [1usize, 2, 3, 8] {
                    let mut pool = ServePool::start(s.clone(), threads);
                    let mut out = BatchResult::default();
                    pool.serve_batch(&queries, 7, rate, 0xABC, &mut out);
                    assert_eq!(out.answers.len(), len);
                    assert_eq!(out.latencies.len(), len);
                    assert_eq!(out.mismatches, 0);
                    if rate == 1.0 {
                        assert_eq!(out.checks, len as u64, "rate 1.0 checks all");
                    }
                    // Rebased trace paths must still verify against the
                    // graph and the tables after the merge.
                    for (q, &a) in queries.iter().zip(&out.answers) {
                        assert!(check_answer(&s, &oracle, *q, a, &out.paths));
                    }
                    let got = sim(&out);
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => assert_eq!(
                            r, &got,
                            "{threads} threads changed a {len}-query batch at rate {rate}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn a_one_thread_pool_spawns_no_helper() {
        let s = snap(40, 0x903);
        let queries = stream(40, 30);
        let mut pool = ServePool::start(s.clone(), 1);
        assert!(pool.handles.is_empty(), "the caller is the only worker");
        assert_eq!(pool.threads(), 1);
        let mut out = BatchResult::default();
        pool.serve_batch(&queries, 0, 1.0, 0, &mut out);
        assert_eq!(out.checks, 30);
        assert_eq!(out.mismatches, 0);
        assert_eq!(ServePool::start(s, 3).handles.len(), 2);
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

    /// Serve an 8-query batch on two threads with query `bad` out of range,
    /// then drop the pool; returns the batch's panic message. Fails if the
    /// batch or the drop hangs.
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
            let mut pool = ServePool::start(s, 2);
            let mut out = BatchResult::default();
            let served = catch_unwind(AssertUnwindSafe(|| {
                pool.serve_batch(&queries, 0, 0.0, 0, &mut out)
            }));
            drop(pool);
            let _ = tx.send(served.map_err(|p| panic_message(p.as_ref())));
        });
        let served = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("serve_batch or the pool's drop hung on a panicked worker");
        served.expect_err("a bad query must fail its batch")
    }

    #[test]
    fn a_panicking_worker_fails_the_batch_instead_of_hanging() {
        // Worker 1 serves queries 4..8.
        let msg = fail_batch_at(7);
        assert!(msg.starts_with("serve worker 1 panicked: "), "{msg}");
    }

    #[test]
    fn a_panic_in_the_callers_chunk_fails_the_batch_instead_of_hanging() {
        // The caller serves queries 0..4 while the helper holds 4..8.
        let msg = fail_batch_at(0);
        assert!(msg.starts_with("serve worker 0 panicked: "), "{msg}");
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
