//! Steady-state traffic engine over the compact-routing scheme.
//!
//! The routing crate's packet plane answers "does a batch get where it is
//! going, and at what stretch?" — everything injected at round 0, queues
//! unbounded. This crate asks the *sustained* question instead: at what
//! offered load does a network running the Thorup–Zwick forwarding rule
//! keep up, and how does it fail when it no longer does?
//!
//! Three layers:
//!
//! * [`workload`] — seeded traffic matrices (uniform, degree-weighted
//!   gravity, single-sink hotspot, and adversarial worst-stretch pairs mined
//!   from the distance oracle) plus deterministic arrival processes. A
//!   schedule is a pure function of `(graph, scheme, seed, rate)`.
//! * [`sim`] — the forwarding plane: `routing::packet`'s one
//!   store-and-forward protocol, configured with per-port finite FIFO
//!   queues (tail-drop or oldest-drop), one packet per edge per round,
//!   driven by the CONGEST engine. A vertex tells the engine when it next
//!   has work (a queued packet: next round; a scheduled injection: that
//!   round), so idle vertices cost nothing and arrival gaps do not end the
//!   run. Per-round logs support the packet-conservation identity
//!   `injected = delivered + dropped + queued + on-wire` at every round.
//! * [`scenario`] — the runner: plan a schedule, simulate, summarize into an
//!   `obs` [`traffic_summary`](obs::traffic::TrafficSummary) record, and
//!   sweep rates to find the saturation knee (the largest rate whose p99
//!   queueing delay and loss stay within
//!   [`MAX_P99_QUEUE_DELAY`](scenario::MAX_P99_QUEUE_DELAY) and
//!   [`MAX_DROP_FRACTION`](scenario::MAX_DROP_FRACTION)).
//!
//! Everything is deterministic: repeated runs produce byte-identical
//! summaries, series, and edge loads.

pub mod scenario;
pub mod sim;
pub mod workload;

pub use scenario::{
    FlowOutcome, FlowRecord, KneeReport, ScenarioConfig, TrafficRun, TrafficScenario,
    MAX_DROP_FRACTION, MAX_OFFERED_PACKETS, MAX_P99_QUEUE_DELAY,
};
pub use sim::{DropPolicy, RoundTotals, TrafficPacket};
pub use workload::{Arrival, ArrivalKind, Workload, WorkloadKind};
