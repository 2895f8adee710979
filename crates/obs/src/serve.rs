//! The query-serving record: one `serve_summary` JSONL line per serving run.
//!
//! The build-side records price construction; this record prices the
//! *serving lifetime* — a persisted scheme answering route / distance /
//! trace queries from a worker pool. Columns split the same way the bench
//! suite does: the simulated side (query mix, answered/unreachable split,
//! aggregate weight and hops, cross-check verdicts, an order-sensitive
//! answer checksum) is seed-pinned and must be byte-identical at any thread
//! count; the wall side (QPS, nearest-rank latency quantiles) is
//! machine-dependent and advisory. `ServeSummary::from_value` re-validates
//! the partition identities (`queries = route + distance + trace`,
//! `queries = answered + unreachable + errors`, `mismatches ≤ checks ≤
//! queries`) on parse, so a tampered or truncated report fails loudly.

use crate::error::ParseError;
use crate::json::Value;
use crate::record;

record! {
    /// Summary of one serving run: a fixed query stream answered by a pool,
    /// serialized as a `serve_summary` JSONL record; `extra` fields (e.g. a
    /// sweep index) are appended to the top-level object.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct ServeSummary(extra: &[(&str, Value)]): "serve_summary" {
        /// Workload model name (`uniform`, `hotspot`, `adversarial`).
        pub workload: String,
        /// Loop discipline: `closed` (back-to-back batches) or `open`
        /// (batches dispatched on a timed schedule at an offered rate).
        pub mode: String,
        /// Worker threads serving the stream.
        pub threads: u64,
        /// Queries per dispatched batch.
        pub batch: u64,
        /// Total queries served.
        pub queries: u64,
        /// Stream seed (workload pairs, query-kind mix, cross-check sampling).
        pub seed: u64,
        /// Configured fraction of answers cross-checked centrally.
        pub check_rate: f64,
        /// Queries asking for a route summary.
        pub route_queries: u64,
        /// Queries asking for a distance estimate.
        pub distance_queries: u64,
        /// Queries asking for a full path trace.
        pub trace_queries: u64,
        /// Queries answered with a finite route/estimate.
        pub answered: u64,
        /// Queries whose endpoints share no tree (infinite estimate).
        pub unreachable: u64,
        /// Queries the server failed internally (must be 0; counted, not thrown).
        pub errors: u64,
        /// Answers cross-checked against the central router/oracle.
        pub checks: u64,
        /// Cross-checks that disagreed with the central answer (must be 0).
        pub mismatches: u64,
        /// Sum of routed weights / finite distance estimates over answers.
        pub total_weight: u64,
        /// Sum of hop counts over route/trace answers.
        pub total_hops: u64,
        /// FNV-1a checksum over every answer in query order, xor-folded to 32
        /// bits so the f64-backed JSON channel carries it exactly — the
        /// strongest thread-invariance witness.
        pub answer_checksum: u64,
        /// Offered rate in queries/s for open-loop runs (0 for closed loop).
        pub offered_qps: f64,
        /// Serving wall time (advisory, machine-dependent).
        pub wall_ns: u64,
        /// Achieved queries per second (advisory).
        pub qps: f64,
        /// Nearest-rank median per-query latency in ns (advisory).
        pub p50_ns: u64,
        /// Nearest-rank 95th-percentile per-query latency in ns (advisory).
        pub p95_ns: u64,
        /// Nearest-rank 99th-percentile per-query latency in ns (advisory).
        pub p99_ns: u64,
        ..extra
    }
    validate
}

impl ServeSummary {
    /// The partition identities every serving run must satisfy.
    pub fn consistent(&self) -> bool {
        self.queries == self.route_queries + self.distance_queries + self.trace_queries
            && self.queries == self.answered + self.unreachable + self.errors
            && self.mismatches <= self.checks
            && self.checks <= self.queries
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.consistent() {
            return Ok(());
        }
        Err(ParseError::new(format!(
            "violates partition identities: queries {} vs kinds {}+{}+{}, \
             outcomes {}+{}+{}, mismatches {} ≤ checks {} ≤ queries {}",
            self.queries,
            self.route_queries,
            self.distance_queries,
            self.trace_queries,
            self.answered,
            self.unreachable,
            self.errors,
            self.mismatches,
            self.checks,
            self.queries,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> ServeSummary {
        ServeSummary {
            workload: "hotspot".to_string(),
            mode: "closed".to_string(),
            threads: 4,
            batch: 64,
            queries: 4096,
            seed: 0x5E12E,
            check_rate: 0.05,
            route_queries: 2458,
            distance_queries: 1024,
            trace_queries: 614,
            answered: 4090,
            unreachable: 6,
            errors: 0,
            checks: 201,
            mismatches: 0,
            total_weight: 123_456,
            total_hops: 9_876,
            answer_checksum: 0xDEAD_BEEF_CAFE,
            offered_qps: 0.0,
            wall_ns: 5_000_000,
            qps: 819_200.0,
            p50_ns: 700,
            p95_ns: 1_900,
            p99_ns: 4_200,
        }
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"serve_summary","workload":"hotspot","mode":"closed","threads":4,"batch":64,"queries":4096,"seed":385326,"check_rate":0.05,"route_queries":2458,"distance_queries":1024,"trace_queries":614,"answered":4090,"unreachable":6,"errors":0,"checks":201,"mismatches":0,"total_weight":123456,"total_hops":9876,"answer_checksum":244837814094590,"offered_qps":0,"wall_ns":5000000,"qps":819200,"p50_ns":700,"p95_ns":1900,"p99_ns":4200,"sweep":2}"#;
        let extra = [("sweep", Value::from(2u64))];
        assert_eq!(sample().to_value(&extra).to_string(), pinned);
        let parsed = ServeSummary::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = sample();
        assert!(s.consistent());
        let text = s.to_value(&[("sweep", Value::from(2u64))]).to_string();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("sweep").unwrap().as_u64(), Some(2));
        let back = ServeSummary::from_value(&v).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_rejects_partition_violation() {
        let mut s = sample();
        s.answered += 1; // outcomes no longer partition the stream
        assert!(!s.consistent());
        let v = s.to_value(&[]);
        let err = ServeSummary::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("partition"), "{err}");
    }

    #[test]
    fn parse_rejects_check_overflow() {
        let mut s = sample();
        s.mismatches = s.checks + 1; // more mismatches than checks
        let v = s.to_value(&[]);
        assert!(ServeSummary::from_value(&v).is_err());
    }

    #[test]
    fn parse_rejects_wrong_type() {
        let v = Value::object(vec![("type", Value::from("span"))]);
        assert!(ServeSummary::from_value(&v).is_err());
    }
}
