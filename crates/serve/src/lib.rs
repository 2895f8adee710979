//! The query-serving plane: a persisted scheme answered at memory speed.
//!
//! The paper's scheme is built once and then queried forever; every other
//! crate in this workspace prices the *build* (rounds, words, memory) or
//! simulates the forwarding fabric round by round. This crate measures the
//! *serving lifetime*: a [`Snapshot`] — graph plus routing scheme, loaded
//! from the checksummed [`routing::persist`] container — is shared immutably
//! (`Arc`) by the threads of a [`pool::ServePool`], which answer **route**,
//! **distance-estimate**, and **trace** queries ([`query::Query`]). A run
//! cuts its stream into one contiguous share per thread, once: the calling
//! thread serves share 0 batch by batch into one reused response arena
//! (after the first batches size it, the steady state allocates nothing),
//! while `threads − 1` scoped helper threads each serve one of the other
//! shares, and an open loop paces every share at `offered / threads`. The
//! threads share nothing but the snapshot.
//!
//! Determinism splits the way the bench suite splits it. The *simulated*
//! side — query stream, query-kind mix, answered/unreachable partition,
//! aggregate weight and hops, cross-check sampling, and an order-sensitive
//! FNV answer checksum — is a pure function of `(snapshot, seed, config)`
//! and is byte-identical at any thread count: the shares are contiguous and
//! absorbed in share order, so global query order never depends on
//! scheduling. The *wall* side — QPS, nearest-rank p50/p95/p99 per-query
//! latency via [`obs::metrics`] — is machine truth, reported but never
//! gated.
//!
//! Correctness is not assumed: a rate-configurable sample of served answers
//! is held to the ground truth ([`query::check_answer`]) — routes and traces
//! to facts read directly off the graph and the tables (the path is a walk
//! in `G` of the answered weight and length, inside the committed tree,
//! which is the cheapest one the endpoints share), estimates to the central
//! [`routing::oracle::DistanceOracle`]; any disagreement is a counted
//! `mismatch` (expected 0, gated by tests and the CLI exit code).
//!
//! [`scenario`] supplies the seeded load generators: a *closed loop*
//! (back-to-back batches — the maximum-throughput measurement) and an *open
//! loop* (batches dispatched on a timed schedule at an offered QPS), plus a
//! saturation sweep that finds the QPS knee the same way the traffic plane
//! finds its rate knee. Results flow out as
//! [`obs::serve::ServeSummary`] records.

pub mod pool;
pub mod query;
pub mod scenario;
pub mod snapshot;

pub use pool::{BatchResult, ServePool};
pub use query::{check_answer, Answer, Query, QueryKind};
pub use scenario::{
    generate_stream, run_closed, run_open, sweep_open, KneePoint, ServeConfig, ServeSlo,
    ServeWorkload,
};
pub use snapshot::{SharedSnapshot, Snapshot};
