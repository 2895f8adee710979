//! The `scheme_audit` record: per-component memory attribution, structural
//! invariant verdicts, and routing-consistency probe results for one built
//! routing scheme.
//!
//! The paper's headline claim is *low memory*, stated per component: Õ(1)
//! tree tables, O(log n) tree labels, Õ(n^{1/k}) cluster memberships, O(k)
//! pivot words. This record is the executable form of that breakdown — each
//! component carries its own total and p50/p95/p99/max over vertices, the
//! component sums are asserted to reconcile exactly with the resident words
//! the construction charged to its `MemoryMeter`, and the structural and
//! sampled-routing audits ride along so one JSONL line answers both "where
//! do the words live" and "does the scheme actually hold together".
//!
//! The producing walker lives in the `routing` crate (`routing::audit`) and
//! returns this record itself, counting each invariant straight into its
//! [`InvariantStat`]; this module owns the serialized shape — declared once
//! per record through [`record!`](crate::record!) — like the other report
//! records.

use crate::error::ParseError;
use crate::metrics::nearest_rank;
use crate::record;

record! {
    /// Distribution summary of one memory component over all vertices.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ComponentStat {
        /// Component name (e.g. `cluster_membership`, `tree_labels`).
        pub name: String,
        /// Whether the component is part of the post-build resident words (the
        /// sum the meter cross-check reconciles). Construction-only state such
        /// as hopset out-edges is reported with `resident: false`.
        pub resident: bool,
        /// Total words across all vertices.
        pub total: u64,
        /// Largest per-vertex value.
        pub max: u64,
        /// Mean per-vertex value.
        pub mean: f64,
        /// Median per-vertex value.
        pub p50: u64,
        /// 95th-percentile per-vertex value.
        pub p95: u64,
        /// 99th-percentile per-vertex value.
        pub p99: u64,
    }
}

impl ComponentStat {
    /// Summarize one per-vertex word series.
    pub fn from_words(name: &str, resident: bool, words: &[u64]) -> ComponentStat {
        let mut sorted = words.to_vec();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        ComponentStat {
            name: name.to_string(),
            resident,
            total,
            max: sorted.last().copied().unwrap_or(0),
            mean: if sorted.is_empty() {
                0.0
            } else {
                total as f64 / sorted.len() as f64
            },
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
            p99: nearest_rank(&sorted, 0.99),
        }
    }
}

record! {
    /// One structural invariant's verdict.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct InvariantStat {
        /// Invariant name (e.g. `dfs_nesting`, `label_coverage`).
        pub name: String,
        /// How many facts the invariant examined.
        pub checked: u64,
        /// How many failed.
        pub violations: u64,
    }
}

impl InvariantStat {
    /// A verdict that has examined nothing yet.
    pub fn new(name: &str) -> InvariantStat {
        InvariantStat {
            name: name.to_string(),
            checked: 0,
            violations: 0,
        }
    }

    /// Count one examined fact, a violation unless `ok`.
    pub fn note(&mut self, ok: bool) {
        self.checked += 1;
        self.violations += u64::from(!ok);
    }
}

record! {
    /// Sampled routing-consistency results against the central oracle and exact
    /// Dijkstra distances, on the intact or a perturbed graph.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProbeStat {
        /// Source–target pairs examined.
        pub pairs: u64,
        /// Pairs connected in the probed graph (the reachability denominator).
        pub connected: u64,
        /// Connected pairs the forwarding rule delivered.
        pub delivered: u64,
        /// Failures: endpoints share no routing tree.
        pub no_common_tree: u64,
        /// Failures: rule stuck mid-route.
        pub stuck: u64,
        /// Failures: forwarded over a missing edge or to a tableless vertex.
        pub bad_forward: u64,
        /// Failures: hop cap exceeded (forwarding loop).
        pub looped: u64,
        /// Delivered routes whose weight undershot the exact distance
        /// (impossible for a correct scheme — always a violation).
        pub undershoots: u64,
        /// Delivered routes whose stretch exceeded the `4k − 3 (+slack)` bound.
        pub over_bound: u64,
        /// Oracle estimates below the exact distance.
        pub oracle_undershoots: u64,
        /// Oracle estimates above the `2k − 1 (+slack)` bound.
        pub oracle_over_bound: u64,
        /// Mean stretch over delivered pairs.
        pub mean_stretch: f64,
        /// Worst stretch over delivered pairs.
        pub max_stretch: f64,
        /// Whether every pair was swept (small n) rather than sampled.
        pub full_sweep: bool,
        + "reachability" = |p| p.reachability(),
    }
    validate
}

impl ProbeStat {
    /// Fraction of connected pairs that delivered (1.0 when none were
    /// connected — an empty probe is vacuously healthy).
    pub fn reachability(&self) -> f64 {
        if self.connected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.connected as f64
        }
    }

    /// The probe's counting identities, like the traffic summary's
    /// conservation law: outcomes partition the connected pairs, and
    /// connected pairs are a subset of sampled.
    fn validate(&self) -> Result<(), ParseError> {
        if self.connected > self.pairs {
            return Err(ParseError::bad("connected", "exceeds sampled pairs"));
        }
        let resolved =
            self.delivered + self.no_common_tree + self.stuck + self.bad_forward + self.looped;
        if resolved != self.connected {
            return Err(ParseError::bad(
                "delivered",
                format!(
                    "outcomes sum to {resolved} but {} pairs are connected",
                    self.connected
                ),
            ));
        }
        Ok(())
    }
}

record! {
    /// Results of re-probing the stale scheme against a perturbed graph.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PerturbedStat {
        /// Requested edge-kill probability.
        pub kill_edges: f64,
        /// Requested vertex-kill probability.
        pub kill_vertices: f64,
        /// Edges actually removed (including those incident to killed vertices).
        pub killed_edges: u64,
        /// Vertices actually killed.
        pub killed_vertices: u64,
        /// The probe against the perturbed graph with the stale tables.
        pub probe: ProbeStat,
        /// Perturbed mean stretch over the intact mean stretch (1.0 when either
        /// probe delivered nothing).
        pub stretch_inflation: f64,
    }
}

record! {
    /// One full scheme audit: attribution + invariants + probes.
    ///
    /// `from_value` rejects an internally inconsistent probe (outcome counts
    /// that do not partition the connected pairs).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SchemeAudit: "scheme_audit" {
        /// Vertices in the audited scheme.
        pub n: u64,
        /// The scheme's `k`.
        pub k: u64,
        /// Construction mode name.
        pub mode: String,
        /// Per-component memory attribution.
        pub components: Vec<ComponentStat>,
        /// Whether every vertex's resident components summed exactly to its
        /// independently computed resident word count.
        pub attribution_exact: bool,
        /// Total resident words across all vertices.
        pub resident_total: u64,
        /// Largest per-vertex resident word count.
        pub resident_max: u64,
        /// Whether a build-time `MemoryMeter` was available to cross-check.
        pub meter_checked: bool,
        /// Whether the metered peaks dominated the resident attribution at
        /// every vertex (vacuously true when `meter_checked` is false).
        pub meter_ok: bool,
        /// Structural invariant verdicts.
        pub invariants: Vec<InvariantStat>,
        /// The intact-graph consistency probe.
        pub probe: ProbeStat,
        /// The perturbed-graph health probe, when one was requested.
        pub perturbed: Option<PerturbedStat>,
        /// Total violations across attribution, meter, invariants, and the
        /// intact probe (perturbed-probe failures are measurements, not
        /// violations).
        pub violations: u64,
    }
}

impl SchemeAudit {
    /// Whether the audit found the scheme healthy.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample_probe() -> ProbeStat {
        ProbeStat {
            pairs: 120,
            connected: 100,
            delivered: 97,
            no_common_tree: 1,
            stuck: 1,
            bad_forward: 1,
            looped: 0,
            undershoots: 0,
            over_bound: 0,
            oracle_undershoots: 0,
            oracle_over_bound: 0,
            mean_stretch: 1.21,
            max_stretch: 3.0,
            full_sweep: false,
        }
    }

    fn sample_audit() -> SchemeAudit {
        SchemeAudit {
            n: 64,
            k: 2,
            mode: "distributed-low-memory".to_string(),
            components: vec![
                ComponentStat::from_words("cluster_membership", true, &[6, 9, 12, 30]),
                ComponentStat::from_words("hopset_edges", false, &[0, 2, 0, 4]),
            ],
            attribution_exact: true,
            resident_total: 4096,
            resident_max: 120,
            meter_checked: true,
            meter_ok: true,
            invariants: vec![InvariantStat {
                name: "dfs_nesting".to_string(),
                checked: 500,
                violations: 0,
            }],
            probe: sample_probe(),
            perturbed: Some(PerturbedStat {
                kill_edges: 0.1,
                kill_vertices: 0.0,
                killed_edges: 13,
                killed_vertices: 0,
                probe: sample_probe(),
                stretch_inflation: 1.08,
            }),
            violations: 3,
        }
    }

    #[test]
    fn component_stat_quantiles() {
        let words: Vec<u64> = (1..=100).collect();
        let s = ComponentStat::from_words("x", true, &words);
        assert_eq!(s.total, 5050);
        assert_eq!(s.max, 100);
        // Nearest rank: round(0.5 · 99) = 50 is the 51st value.
        assert_eq!(s.p50, 51);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"scheme_audit","n":64,"k":2,"mode":"distributed-low-memory","components":[{"name":"cluster_membership","resident":true,"total":57,"max":30,"mean":14.25,"p50":12,"p95":30,"p99":30},{"name":"hopset_edges","resident":false,"total":6,"max":4,"mean":1.5,"p50":2,"p95":4,"p99":4}],"attribution_exact":true,"resident_total":4096,"resident_max":120,"meter_checked":true,"meter_ok":true,"invariants":[{"name":"dfs_nesting","checked":500,"violations":0}],"probe":{"pairs":120,"connected":100,"delivered":97,"no_common_tree":1,"stuck":1,"bad_forward":1,"looped":0,"undershoots":0,"over_bound":0,"oracle_undershoots":0,"oracle_over_bound":0,"mean_stretch":1.21,"max_stretch":3,"full_sweep":false,"reachability":0.97},"perturbed":{"kill_edges":0.1,"kill_vertices":0,"killed_edges":13,"killed_vertices":0,"probe":{"pairs":120,"connected":100,"delivered":97,"no_common_tree":1,"stuck":1,"bad_forward":1,"looped":0,"undershoots":0,"over_bound":0,"oracle_undershoots":0,"oracle_over_bound":0,"mean_stretch":1.21,"max_stretch":3,"full_sweep":false,"reachability":0.97},"stretch_inflation":1.08},"violations":3}"#;
        assert_eq!(sample_audit().to_value().to_string(), pinned);
        let parsed = SchemeAudit::from_value(&crate::json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, sample_audit());
    }

    #[test]
    fn round_trips() {
        let audit = sample_audit();
        let parsed =
            SchemeAudit::from_value(&crate::json::parse(&audit.to_value().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed, audit);
        assert!(!parsed.ok());
        assert!((parsed.probe.reachability() - 0.97).abs() < 1e-9);
    }

    #[test]
    fn none_perturbed_round_trips_as_null() {
        let mut audit = sample_audit();
        audit.perturbed = None;
        let parsed =
            SchemeAudit::from_value(&crate::json::parse(&audit.to_value().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed.perturbed, None);
    }

    #[test]
    fn rejects_wrong_type_and_missing_fields() {
        let not = Value::object(vec![("type", Value::from("metrics"))]);
        assert!(SchemeAudit::from_value(&not).is_err());
        let mut fields = match sample_audit().to_value() {
            Value::Object(fields) => fields,
            _ => unreachable!(),
        };
        fields.retain(|(k, _)| k != "resident_total");
        let err = SchemeAudit::from_value(&Value::Object(fields)).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("resident_total"));
        assert_eq!(err.record_type.as_deref(), Some("scheme_audit"));
    }

    #[test]
    fn rejects_unbalanced_probe_counts() {
        let mut audit = sample_audit();
        audit.probe.delivered = 50; // outcomes no longer partition `connected`
        let err =
            SchemeAudit::from_value(&crate::json::parse(&audit.to_value().to_string()).unwrap())
                .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("delivered"));
    }
}
