//! The steady-state forwarding plane: `routing::packet`'s store-and-forward
//! protocol at its steady-state setting.
//!
//! Unlike a `routing::packet::send` batch (everything injected at round 0,
//! unbounded queues), this plane injects packets *every round* and bounds
//! each outgoing queue at a configurable capacity with an explicit drop
//! policy. The whole schedule is computed before the engine starts, so the
//! simulation is a pure function of its inputs; the protocol keeps it as
//! one flat array bucketed by source (each source's injections in round
//! order, each vertex a cursor into its bucket) and gives a port a queue
//! only while it holds packets, so a run costs what its traffic touches,
//! not the size of the network. Every vertex adds each round it closes into
//! the run's dense conservation series `injected = delivered + dropped +
//! queued + on-wire` that [`crate::scenario`] re-checks every round. The
//! protocol, its packet and its result live in `routing::packet`; this
//! module maps a [`SimConfig`] onto the protocol's settings.

use congest::Network;
use routing::packet::{self, Settings};
use routing::RoutingScheme;

pub use routing::packet::{
    Delivery, DropPolicy, Injection, Packet as TrafficPacket, RoundTotals, SimResult,
};

/// Simulation knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Per-port queue capacity in packets.
    pub queue_cap: usize,
    /// What to do with arrivals at a full queue.
    pub policy: DropPolicy,
    /// Engine round cap (must be at least the last injection round).
    pub max_rounds: u64,
    /// Accepted and ignored; the engine is serial.
    pub threads: usize,
    /// Profile the engine round loop; the phase attribution comes back in
    /// [`SimResult`]'s `stats.profile`. Never changes simulated results.
    pub profile: bool,
}

/// Run the steady-state plane: inject `injections` (sorted by round) into
/// finite per-port queues and forward by the Thorup–Zwick rule until the
/// network drains or `cfg.max_rounds` cuts the run off.
///
/// # Panics
///
/// Panics if `injections` is not sorted by round, or if a scheduled round
/// exceeds `cfg.max_rounds` (the packet could never inject, which would
/// silently break conservation).
pub fn simulate(
    network: &Network,
    scheme: &RoutingScheme,
    injections: &[Injection],
    cfg: &SimConfig,
) -> SimResult {
    packet::run(
        network,
        scheme,
        injections.iter().cloned(),
        &Settings {
            queue_cap: cfg.queue_cap.max(1),
            policy: cfg.policy,
            max_rounds: cfg.max_rounds,
            profile: cfg.profile,
        },
    )
}
