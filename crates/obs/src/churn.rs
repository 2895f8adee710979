//! The `churn_timeline` record: per-round health telemetry for a routing
//! scheme forwarding on a graph that is failing out from under it.
//!
//! Each row samples one churn round: cumulative dead vertices/edges, the
//! blast radius of the accumulated failures (alive vertices whose resident
//! tables reference something dead), a fixed-pair routing probe decomposed
//! with the same outcome taxonomy as the audit probe, and a traffic burst
//! decomposed with the same conservation law as the traffic summary. A
//! `DegradationStat` summarizes the reachability series (knee, half-life)
//! and an optional `SloStat` records the operator-declared floor and where
//! it was first breached.
//!
//! The producing machinery lives in the `churn` crate, whose run returns
//! this record; this module owns the serialized shape, declared once per
//! record through [`record!`](crate::record!), and the one reading of its
//! series: [`ChurnTimeline::reachability_series`], the knee/half-life fold
//! and the SLO verdict. As with the other records, the counting
//! identities are *re-checked on parse* (each record's `validate`): probe outcomes must partition the fixed pair sample, traffic
//! counts must conserve, and — when the process has no revival — the
//! delivered series must be monotonically non-increasing, because a fixed
//! pair sample routed by fixed stale tables can only lose pairs as failures
//! accumulate.

use crate::error::ParseError;
use crate::json::Value;
use crate::record;

record! {
    /// One churn round's health sample. The writer takes the timeline's
    /// `baseline_connected`, the denominator of the derived `reachability`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct HealthRow(baseline_connected: u64) {
        /// Round index (0 = intact baseline, before any event fires).
        pub round: u64,
        /// Churn events applied in this round.
        pub events: u64,
        /// Cumulative dead vertices after this round.
        pub dead_vertices: u64,
        /// Cumulative unusable edges (own tombstone or dead endpoint).
        pub dead_edges: u64,
        /// Alive vertices whose resident routing state references something dead.
        pub blast_radius: u64,
        /// Fixed-sample pairs delivered by the stale tables this round.
        pub delivered: u64,
        /// Pairs with a dead endpoint (never routed).
        pub endpoint_dead: u64,
        /// Routed pairs that failed: endpoints share no routing tree.
        pub no_common_tree: u64,
        /// Routed pairs that failed: forwarding rule stuck mid-route.
        pub stuck: u64,
        /// Routed pairs that failed: forwarded over a now-missing edge.
        pub bad_forward: u64,
        /// Routed pairs that failed: hop cap exceeded.
        pub looped: u64,
        + "reachability" = |row| row.reachability(baseline_connected),
        /// Mean delivered stretch vs the *current* perturbed graph's Dijkstra.
        pub mean_stretch: f64,
        /// `mean_stretch` over the round-0 mean stretch (1.0 when either side
        /// delivered nothing).
        pub stretch_inflation: f64,
        /// Traffic-burst flows offered this round.
        pub offered: u64,
        /// Flows actually injected into the engine.
        pub injected: u64,
        /// Flows refused at injection (no plan, or dead endpoint).
        pub undeliverable: u64,
        /// Injected flows delivered by the burst.
        pub flow_delivered: u64,
        /// Injected flows dropped to finite queues.
        pub dropped_capacity: u64,
        /// Injected flows dropped because forwarding had no usable port.
        pub dropped_stuck: u64,
        /// Injected flows still queued when the burst window closed.
        pub in_flight: u64,
    }
    validate
}

impl HealthRow {
    /// Fraction of the baseline-connected pairs still delivered this round.
    pub fn reachability(&self, baseline_connected: u64) -> f64 {
        if baseline_connected == 0 {
            1.0
        } else {
            self.delivered as f64 / baseline_connected as f64
        }
    }

    /// Traffic conservation, same law as the traffic summary.
    fn validate(&self) -> Result<(), ParseError> {
        if self.offered != self.injected + self.undeliverable {
            return Err(ParseError::bad(
                "offered",
                format!(
                    "offered {} != injected {} + undeliverable {}",
                    self.offered, self.injected, self.undeliverable
                ),
            ));
        }
        let resolved =
            self.flow_delivered + self.dropped_capacity + self.dropped_stuck + self.in_flight;
        if self.injected != resolved {
            return Err(ParseError::bad(
                "injected",
                format!(
                    "injected {} but flow fates sum to {resolved}",
                    self.injected
                ),
            ));
        }
        Ok(())
    }
}

record! {
    /// Knee/half-life summary of the reachability series
    /// ([`ChurnTimeline::fold_degradation`]).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct DegradationStat {
        /// Reachability at round 0 (intact graph, stale-table routing losses
        /// only).
        pub initial_reachability: f64,
        /// Reachability at the final round.
        pub final_reachability: f64,
        /// Round of the steepest single-round reachability drop, if any round
        /// dropped at all.
        pub knee_round: Option<u64>,
        /// Size of that steepest drop (absolute reachability lost).
        pub knee_drop: f64,
        /// First round with reachability ≤ half the initial value, if reached.
        pub half_life_round: Option<u64>,
    }
}

record! {
    /// An operator-declared SLO ("reachability ≥ floor through round R") and
    /// its verdict ([`ChurnTimeline::slo_verdict`]).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SloStat {
        /// The reachability floor.
        pub floor: f64,
        /// The last round the floor must hold through.
        pub through_round: u64,
        /// First round ≤ `through_round` that went below the floor, if any.
        pub breach_round: Option<u64>,
        + "ok" = |slo| slo.ok(),
    }
}

impl SloStat {
    /// Whether the SLO held.
    pub fn ok(&self) -> bool {
        self.breach_round.is_none()
    }
}

record! {
    /// One full churn run: configuration echo, per-round health series, and the
    /// degradation summary.
    ///
    /// `from_value` rejects a row violating probe partition or traffic
    /// conservation and — for revival-free processes — a delivered series
    /// that is not monotonically non-increasing.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ChurnTimeline: "churn_timeline" {
        /// Vertices in the base graph.
        pub n: u64,
        /// Edges in the base graph.
        pub m: u64,
        /// The scheme's `k`.
        pub k: u64,
        /// Churn process name (`random`, `random-edges`, `targeted`, `regional`).
        pub process: String,
        /// Per-round failure rate (fraction of the original element count).
        pub rate: f64,
        /// Per-round revival probability for dead vertices (0 = monotone decay).
        pub revive: f64,
        /// Master seed.
        pub seed: u64,
        /// Traffic workload name.
        pub workload: String,
        /// Traffic injection rate (flows per engine round during each burst).
        pub traffic_rate: f64,
        /// Size of the fixed probe pair sample.
        pub probe_pairs: u64,
        /// Pairs of the sample connected on the intact graph — the fixed
        /// reachability denominator for every round.
        pub baseline_connected: u64,
        /// Round-0 mean delivered stretch (the inflation denominator).
        pub baseline_mean_stretch: f64,
        /// Per-round samples, ascending by round from 0.
        pub rounds: Vec<HealthRow> => [
            |t: &ChurnTimeline| record::array(&t.rounds, |r| r.to_value(t.baseline_connected)),
            |v: &Value| record::list(v, HealthRow::from_value)
        ],
        /// Reachability-series summary.
        pub degradation: DegradationStat,
        /// SLO verdict, when one was declared.
        pub slo: Option<SloStat>,
    }
    validate
}

impl ChurnTimeline {
    /// Whether the declared SLO (if any) held.
    pub fn ok(&self) -> bool {
        self.slo.as_ref().is_none_or(SloStat::ok)
    }

    /// The reachability series, one value per round.
    pub fn reachability_series(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.reachability(self.baseline_connected))
            .collect()
    }

    /// Knee/half-life summary of the reachability series: what the churn
    /// run writes into `degradation`.
    pub fn fold_degradation(&self) -> DegradationStat {
        let series = self.reachability_series();
        let initial = series.first().copied().unwrap_or(1.0);
        let mut knee_round = None;
        let mut knee_drop = 0.0f64;
        for (i, w) in series.windows(2).enumerate() {
            let drop = w[0] - w[1];
            if drop > knee_drop {
                knee_drop = drop;
                knee_round = Some((i + 1) as u64);
            }
        }
        DegradationStat {
            initial_reachability: initial,
            final_reachability: series.last().copied().unwrap_or(1.0),
            knee_round,
            knee_drop,
            half_life_round: series
                .iter()
                .position(|&r| r <= initial / 2.0)
                .map(|i| i as u64),
        }
    }

    /// The verdict for the SLO "reachability ≥ `floor` through round
    /// `through_round`": the first round up to it below the floor, if any.
    pub fn slo_verdict(&self, floor: f64, through_round: u64) -> SloStat {
        let breach_round = (0..)
            .zip(self.reachability_series())
            .take_while(|&(i, _)| i <= through_round)
            .find(|&(_, r)| r < floor)
            .map(|(i, _)| i);
        SloStat {
            floor,
            through_round,
            breach_round,
        }
    }

    fn validate(&self) -> Result<(), ParseError> {
        if self.rounds.is_empty() {
            return Err(ParseError::bad("rounds", "empty series"));
        }
        for (i, row) in self.rounds.iter().enumerate() {
            if row.round != i as u64 {
                return Err(ParseError::bad(
                    "round",
                    format!("row {i} carries round {}", row.round),
                ));
            }
            // Probe outcomes partition the fixed pair sample.
            let resolved = row.delivered
                + row.endpoint_dead
                + row.no_common_tree
                + row.stuck
                + row.bad_forward
                + row.looped;
            if resolved != self.probe_pairs {
                return Err(ParseError::bad(
                    "delivered",
                    format!(
                        "round {i} outcomes sum to {resolved} but the sample has {} pairs",
                        self.probe_pairs
                    ),
                ));
            }
            // Delivery can never exceed the intact graph's connectivity.
            if row.delivered > self.baseline_connected {
                return Err(ParseError::bad(
                    "delivered",
                    format!(
                        "round {i} delivered {} of {} baseline-connected pairs",
                        row.delivered, self.baseline_connected
                    ),
                ));
            }
        }
        if self.baseline_connected > self.probe_pairs {
            return Err(ParseError::bad(
                "baseline_connected",
                "exceeds sampled pairs",
            ));
        }
        // Without revival the failure set only grows, the pair sample and
        // tables are fixed, so the delivered series must be monotone.
        if self.revive == 0.0 {
            for w in self.rounds.windows(2) {
                if w[1].delivered > w[0].delivered {
                    return Err(ParseError::bad(
                        "delivered",
                        format!(
                            "round {} delivers {} > {} of round {} with no revival",
                            w[1].round, w[1].delivered, w[0].delivered, w[0].round
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(round: u64, delivered: u64) -> HealthRow {
        HealthRow {
            round,
            events: if round == 0 { 0 } else { 2 },
            dead_vertices: 2 * round,
            dead_edges: 5 * round,
            blast_radius: 8 * round,
            delivered,
            endpoint_dead: 90 - delivered.min(90),
            no_common_tree: 4,
            stuck: 3,
            bad_forward: 2,
            looped: 1,
            mean_stretch: 1.2,
            stretch_inflation: 1.0,
            offered: 64,
            injected: 60,
            undeliverable: 4,
            flow_delivered: 50,
            dropped_capacity: 4,
            dropped_stuck: 5,
            in_flight: 1,
        }
    }

    fn sample() -> ChurnTimeline {
        ChurnTimeline {
            n: 128,
            m: 400,
            k: 2,
            process: "targeted".to_string(),
            rate: 0.02,
            revive: 0.0,
            seed: 7,
            workload: "uniform".to_string(),
            traffic_rate: 2.0,
            probe_pairs: 100,
            baseline_connected: 95,
            baseline_mean_stretch: 1.2,
            rounds: vec![row(0, 90), row(1, 80), row(2, 40)],
            degradation: DegradationStat {
                initial_reachability: 90.0 / 95.0,
                final_reachability: 40.0 / 95.0,
                knee_round: Some(2),
                knee_drop: 40.0 / 95.0,
                half_life_round: Some(2),
            },
            slo: Some(SloStat {
                floor: 0.9,
                through_round: 2,
                breach_round: Some(1),
            }),
        }
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"churn_timeline","n":128,"m":400,"k":2,"process":"targeted","rate":0.02,"revive":0,"seed":7,"workload":"uniform","traffic_rate":2,"probe_pairs":100,"baseline_connected":95,"baseline_mean_stretch":1.2,"rounds":[{"round":0,"events":0,"dead_vertices":0,"dead_edges":0,"blast_radius":0,"delivered":90,"endpoint_dead":0,"no_common_tree":4,"stuck":3,"bad_forward":2,"looped":1,"reachability":0.9473684210526315,"mean_stretch":1.2,"stretch_inflation":1,"offered":64,"injected":60,"undeliverable":4,"flow_delivered":50,"dropped_capacity":4,"dropped_stuck":5,"in_flight":1},{"round":1,"events":2,"dead_vertices":2,"dead_edges":5,"blast_radius":8,"delivered":80,"endpoint_dead":10,"no_common_tree":4,"stuck":3,"bad_forward":2,"looped":1,"reachability":0.8421052631578947,"mean_stretch":1.2,"stretch_inflation":1,"offered":64,"injected":60,"undeliverable":4,"flow_delivered":50,"dropped_capacity":4,"dropped_stuck":5,"in_flight":1},{"round":2,"events":2,"dead_vertices":4,"dead_edges":10,"blast_radius":16,"delivered":40,"endpoint_dead":50,"no_common_tree":4,"stuck":3,"bad_forward":2,"looped":1,"reachability":0.42105263157894735,"mean_stretch":1.2,"stretch_inflation":1,"offered":64,"injected":60,"undeliverable":4,"flow_delivered":50,"dropped_capacity":4,"dropped_stuck":5,"in_flight":1}],"degradation":{"initial_reachability":0.9473684210526315,"final_reachability":0.42105263157894735,"knee_round":2,"knee_drop":0.42105263157894735,"half_life_round":2},"slo":{"floor":0.9,"through_round":2,"breach_round":1,"ok":false}}"#;
        assert_eq!(sample().to_value().to_string(), pinned);
        let parsed = ChurnTimeline::from_value(&crate::json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn round_trips() {
        let t = sample();
        let parsed =
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed, t);
        assert!(!parsed.ok(), "breached SLO");
        let series = parsed.reachability_series();
        assert_eq!(series.len(), 3);
        assert!((series[0] - 90.0 / 95.0).abs() < 1e-12);
    }

    #[test]
    fn folds_and_verdicts_read_the_series() {
        let t = sample();
        assert_eq!(t.fold_degradation(), t.degradation);
        // Series 90/95, 80/95, 40/95: round 1 is the first below 0.9.
        assert_eq!(t.slo_verdict(0.9, 2), t.slo.clone().unwrap());
        assert_eq!(t.slo_verdict(0.9, 0).breach_round, None);
        // A deadline past the last round reads every round.
        assert_eq!(t.slo_verdict(0.9, u64::MAX).breach_round, Some(1));
    }

    #[test]
    fn none_slo_round_trips_as_null_and_is_ok() {
        let mut t = sample();
        t.slo = None;
        let parsed =
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed.slo, None);
        assert!(parsed.ok());
    }

    #[test]
    fn rejects_wrong_type_and_missing_fields() {
        let not = Value::object(vec![("type", Value::from("metrics"))]);
        assert!(ChurnTimeline::from_value(&not).is_err());
        let mut fields = match sample().to_value() {
            Value::Object(fields) => fields,
            _ => unreachable!(),
        };
        fields.retain(|(k, _)| k != "baseline_connected");
        let err = ChurnTimeline::from_value(&Value::Object(fields)).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("baseline_connected"));
        assert_eq!(err.record_type.as_deref(), Some("churn_timeline"));
    }

    #[test]
    fn rejects_non_monotone_delivery_without_revival() {
        let mut t = sample();
        t.rounds[2].delivered = 85; // recovers without revival: impossible
        t.rounds[2].endpoint_dead = 5;
        let err =
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("delivered"));

        // The same series is legal when the process revives vertices.
        t.revive = 0.1;
        assert!(
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .is_ok()
        );
    }

    #[test]
    fn rejects_unbalanced_probe_partition() {
        let mut t = sample();
        t.rounds[1].stuck += 1; // outcomes no longer partition the sample
        let err =
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("delivered"));
    }

    #[test]
    fn rejects_broken_traffic_conservation() {
        let mut t = sample();
        t.rounds[0].injected = 59; // offered != injected + undeliverable
        let err =
            ChurnTimeline::from_value(&crate::json::parse(&t.to_value().to_string()).unwrap())
                .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("offered"));
    }
}
