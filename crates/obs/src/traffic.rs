//! The steady-state traffic record: one `traffic_summary` JSONL line per
//! scenario run.
//!
//! The flight recorder ([`crate::flight`]) prices individual journeys; this
//! record summarizes an *open-loop* run — packets injected every round at a
//! configured rate into finite per-vertex queues — by the quantities a
//! traffic plane is judged on: delivered throughput, drop/loss split,
//! end-to-end latency and pure queueing-delay distributions, peak queue
//! occupancy, and stretch. `TrafficSummary::from_value` re-validates the
//! packet-conservation identity (`injected = delivered + dropped +
//! in_flight`) on parse, so a tampered or truncated report fails loudly.

use crate::error::ParseError;
use crate::flight::LoadStats;
use crate::json::Value;
use crate::record;

record! {
    /// Summary of one steady-state traffic run at one offered rate,
    /// serialized as a `traffic_summary` JSONL record; `extra` fields (e.g.
    /// a sweep index) are appended to the top-level object.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TrafficSummary(extra: &[(&str, Value)]): "traffic_summary" {
        /// Workload model name (e.g. `uniform`, `gravity`, `hotspot`, `worst`).
        pub workload: String,
        /// Arrival process name (e.g. `fixed`, `bernoulli`).
        pub arrival: String,
        /// Offered rate in packets per round (network-wide).
        pub rate: f64,
        /// Rounds during which the sources injected.
        pub inject_rounds: u64,
        /// Engine rounds actually executed (injection plus drain).
        pub sim_rounds: u64,
        /// Per-port queue capacity in packets.
        pub queue_cap: u64,
        /// Drop policy name (`tail-drop` or `oldest-drop`).
        pub drop_policy: String,
        /// Pairs the workload offered, including undeliverable ones.
        pub offered: u64,
        /// Packets actually injected (offered minus undeliverable).
        pub injected: u64,
        /// Offered pairs with no common tree; never injected.
        pub undeliverable: u64,
        /// Packets that reached their destination.
        pub delivered: u64,
        /// Packets dropped by a full queue.
        pub dropped_capacity: u64,
        /// Packets dropped by the rule: stuck, missing port or hop cap.
        pub dropped_stuck: u64,
        /// Packets still queued or on the wire when the run was cut off
        /// (0 whenever the run drained).
        pub in_flight: u64,
        /// Whether the run drained before the round cap.
        pub drained: bool,
        /// Delivered packets per executed round.
        pub throughput: f64,
        /// Distribution of per-packet delivery latency in rounds
        /// (injection to delivery: hops plus queueing).
        pub latency: LoadStats,
        /// Distribution of per-packet pure queueing delay in rounds
        /// (latency minus hop count).
        pub queue_delay: LoadStats,
        /// Largest number of packets queued network-wide at any round end.
        pub peak_queue_packets: u64,
        /// Largest number of queued words network-wide at any round end.
        pub peak_queue_words: u64,
        /// Mean routed-weight / true-distance over delivered packets.
        pub stretch_mean: f64,
        /// Worst routed-weight / true-distance over delivered packets.
        pub stretch_max: f64,
        ..extra
    }
    validate
}

impl TrafficSummary {
    /// Total packets lost after injection, either cause.
    pub fn dropped(&self) -> u64 {
        self.dropped_capacity + self.dropped_stuck
    }

    /// The packet-conservation identity every run must satisfy.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped() + self.in_flight
            && self.offered == self.injected + self.undeliverable
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.conserved() {
            return Ok(());
        }
        Err(ParseError::new(format!(
            "violates conservation: injected {} != \
             delivered {} + dropped {} + in_flight {} (offered {}, undeliverable {})",
            self.injected,
            self.delivered,
            self.dropped(),
            self.in_flight,
            self.offered,
            self.undeliverable,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> TrafficSummary {
        TrafficSummary {
            workload: "hotspot".to_string(),
            arrival: "fixed".to_string(),
            rate: 2.5,
            inject_rounds: 64,
            sim_rounds: 80,
            queue_cap: 8,
            drop_policy: "tail-drop".to_string(),
            offered: 160,
            injected: 158,
            undeliverable: 2,
            delivered: 150,
            dropped_capacity: 5,
            dropped_stuck: 3,
            in_flight: 0,
            drained: true,
            throughput: 150.0 / 80.0,
            latency: LoadStats::from_loads(&[3, 4, 5, 9]),
            queue_delay: LoadStats::from_loads(&[0, 1, 2, 6]),
            peak_queue_packets: 12,
            peak_queue_words: 96,
            stretch_mean: 1.2,
            stretch_max: 2.8,
        }
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"traffic_summary","workload":"hotspot","arrival":"fixed","rate":2.5,"inject_rounds":64,"sim_rounds":80,"queue_cap":8,"drop_policy":"tail-drop","offered":160,"injected":158,"undeliverable":2,"delivered":150,"dropped_capacity":5,"dropped_stuck":3,"in_flight":0,"drained":true,"throughput":1.875,"latency":{"min":3,"p50":5,"p95":9,"p99":9,"max":9,"mean":5.25},"queue_delay":{"min":0,"p50":2,"p95":6,"p99":6,"max":6,"mean":2.25},"peak_queue_packets":12,"peak_queue_words":96,"stretch_mean":1.2,"stretch_max":2.8,"sweep":3}"#;
        let extra = [("sweep", Value::from(3u64))];
        assert_eq!(sample().to_value(&extra).to_string(), pinned);
        let parsed = TrafficSummary::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = sample();
        assert!(s.conserved());
        let text = s.to_value(&[("sweep", Value::from(3u64))]).to_string();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("sweep").unwrap().as_u64(), Some(3));
        let back = TrafficSummary::from_value(&v).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_rejects_conservation_violation() {
        let mut s = sample();
        s.delivered += 1; // injected no longer balances
        assert!(!s.conserved());
        let v = s.to_value(&[]);
        let err = TrafficSummary::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("conservation"), "{err}");
    }

    #[test]
    fn parse_rejects_wrong_type() {
        let v = Value::object(vec![("type", Value::from("span"))]);
        assert!(TrafficSummary::from_value(&v).is_err());
    }
}
