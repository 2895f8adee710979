//! Engine profiler: per-round phase attribution.
//!
//! The CONGEST engine's serial round loop tiles into phases — setup,
//! vertex compute, outbox scatter and the fold into the run's totals — and
//! [`EngineProfile`] accumulates how long each takes, using the clock an
//! engine run already holds. Storage is a fixed-capacity ring of
//! [`PhaseSample`]s plus flat per-phase counters, so steady-state profiling
//! allocates nothing per round.
//!
//! Two export views:
//!
//! * [`EngineProfile::chrome_trace`] — a Chrome trace-event JSON array (one
//!   track) loadable in Perfetto / `chrome://tracing`.
//! * [`EngineProfile::summary`] → `ProfileSummary::to_value` — the
//!   `engine_profile` JSONL record with per-phase wall totals and p50/p95.

use crate::json::Value;
use crate::metrics::quantile_ns;
use crate::record;

/// One attributable slice of the round loop.
///
/// `Setup` covers everything before the first round executes, so the
/// phases tile the whole engine wall and per-phase totals sum to the run's
/// wall time. The loop laps `Setup`, `Compute`, `Scatter` and `Merge`;
/// `Dispatch` and `Idle` are never recorded and read 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Pre-round work: arenas and hint caches.
    Setup,
    /// Never recorded (reads 0).
    Dispatch,
    /// Vertex protocol execution.
    Compute,
    /// Counting-sort scatter of the outbox into the delivery arena.
    Scatter,
    /// Fold of the phase's stats, congestion accounting and termination.
    Merge,
    /// Never recorded (reads 0).
    Idle,
}

/// Number of [`Phase`] variants (array sizing).
pub const PHASES: usize = 6;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Setup,
        Phase::Dispatch,
        Phase::Compute,
        Phase::Scatter,
        Phase::Merge,
        Phase::Idle,
    ];

    /// Stable dense index, `0..PHASES`.
    pub fn index(self) -> usize {
        match self {
            Phase::Setup => 0,
            Phase::Dispatch => 1,
            Phase::Compute => 2,
            Phase::Scatter => 3,
            Phase::Merge => 4,
            Phase::Idle => 5,
        }
    }

    /// Stable name used in trace events and JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Dispatch => "dispatch",
            Phase::Compute => "compute",
            Phase::Scatter => "scatter",
            Phase::Merge => "merge",
            Phase::Idle => "idle",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// One timed interval of the round loop.
///
/// `start_ns` is relative to the run's clock, so samples from one run share
/// a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    /// Round the interval belongs to (`0` = the init phase).
    pub round: u64,
    /// What the time was spent on.
    pub phase: Phase,
    /// Interval start, nanoseconds since the profile epoch.
    pub start_ns: u64,
    /// Interval length in nanoseconds.
    pub dur_ns: u64,
}

/// Fixed sample-ring capacity; beyond it the oldest samples are
/// overwritten (counted in [`EngineProfile::dropped`]) while the flat
/// per-phase totals stay exact.
pub const RING_CAP: usize = 32_768;

/// Accumulated phase timings for one or more engine runs.
///
/// Flat totals (`coord_ns`, `counts`) are exact over every recorded sample;
/// the ring keeps the most recent [`RING_CAP`] samples for quantiles and
/// trace export.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Highest round index recorded.
    pub rounds: u64,
    /// Engine runs folded into this profile.
    pub runs: u64,
    /// Summed engine wall time across runs, nanoseconds.
    pub engine_wall_ns: u64,
    /// Vertex executions (`init` and `round` calls) across runs — what the
    /// compute phase's time was spent on. A simulated count, not a timing.
    pub executions: u64,
    /// Exact per-phase wall totals, by `Phase::index`. The phases tile the
    /// run, so these sum to ~wall time.
    pub coord_ns: [u64; PHASES],
    /// Exact per-phase sample counts, by `Phase::index`.
    pub counts: [u64; PHASES],
    /// Most recent samples, oldest first once wrapped (see `head`).
    ring: Vec<PhaseSample>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Samples evicted from the ring (totals still include them).
    pub dropped: u64,
}

impl EngineProfile {
    /// Record one interval. Zero-length intervals still count (they
    /// mark that the phase ran) but add nothing to the totals.
    pub fn record(&mut self, round: u64, phase: Phase, start_ns: u64, dur_ns: u64) {
        let i = phase.index();
        self.coord_ns[i] += dur_ns;
        self.counts[i] += 1;
        self.rounds = self.rounds.max(round);
        self.push_sample(PhaseSample {
            round,
            phase,
            start_ns,
            dur_ns,
        });
    }

    fn push_sample(&mut self, s: PhaseSample) {
        if self.ring.len() < RING_CAP {
            self.ring.push(s);
        } else {
            self.ring[self.head] = s;
            self.head = (self.head + 1) % RING_CAP;
            self.dropped += 1;
        }
    }

    /// Close out one engine run of `wall_ns` nanoseconds that executed
    /// `executions` vertices.
    pub fn record_run(&mut self, wall_ns: u64, executions: u64) {
        self.runs += 1;
        self.engine_wall_ns += wall_ns;
        self.executions += executions;
    }

    /// Fold another profile (e.g. from a later run) into this one.
    pub fn absorb(&mut self, other: &EngineProfile) {
        self.rounds = self.rounds.max(other.rounds);
        self.runs += other.runs;
        self.engine_wall_ns += other.engine_wall_ns;
        self.executions += other.executions;
        for i in 0..PHASES {
            self.coord_ns[i] += other.coord_ns[i];
            self.counts[i] += other.counts[i];
        }
        self.dropped += other.dropped;
        for s in other.samples() {
            self.push_sample(*s);
        }
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &PhaseSample> {
        let (tail, head) = self.ring.split_at(self.head.min(self.ring.len()));
        head.iter().chain(tail.iter())
    }

    /// Number of retained samples.
    pub fn sample_count(&self) -> usize {
        self.ring.len()
    }

    /// Chrome trace-event JSON: one `ph:"M"` thread-name metadata event
    /// followed by `ph:"X"` complete events with microsecond `ts`/`dur`,
    /// all on `pid` 0, `tid` 0. Loadable in Perfetto / `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from(
            "[\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"round loop\"}}",
        );
        for s in self.samples() {
            let ts = s.start_ns as f64 / 1000.0;
            let dur = s.dur_ns as f64 / 1000.0;
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"round\":{}}}}}",
                s.phase.name(),
                Value::Num(ts),
                Value::Num(dur),
                s.round
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// Aggregate view for the `engine_profile` record and CLI tables.
    pub fn summary(&self) -> ProfileSummary {
        let mut phases = Vec::new();
        let mut window: Vec<u64> = Vec::new();
        for phase in Phase::ALL {
            let i = phase.index();
            if self.counts[i] == 0 {
                continue;
            }
            window.clear();
            window.extend(
                self.samples()
                    .filter(|s| s.phase == phase)
                    .map(|s| s.dur_ns),
            );
            phases.push(PhaseStat {
                phase,
                coord_ns: self.coord_ns[i],
                p50_ns: quantile_ns(&window, 0.50),
                p95_ns: quantile_ns(&window, 0.95),
                samples: self.counts[i],
            });
        }
        let coord_total: u64 = self.coord_ns.iter().sum();
        let coverage = if self.engine_wall_ns > 0 {
            coord_total as f64 / self.engine_wall_ns as f64
        } else {
            0.0
        };
        ProfileSummary {
            runs: self.runs,
            rounds: self.rounds,
            engine_wall_ns: self.engine_wall_ns,
            executions: self.executions,
            phases,
            coverage,
            dropped_samples: self.dropped,
        }
    }
}

record! {
    /// Aggregate stats for one phase.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PhaseStat {
        /// Which phase.
        pub phase: Phase,
        /// Exact wall total, nanoseconds.
        pub coord_ns: u64,
        /// Median interval length over the retained sample window.
        pub p50_ns: u64,
        /// 95th-percentile interval length over the retained window.
        pub p95_ns: u64,
        /// Exact number of recorded intervals.
        pub samples: u64,
    }
}

record! {
    /// The `engine_profile` JSONL record.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProfileSummary: "engine_profile" {
        /// Engine runs folded into the profile.
        pub runs: u64,
        /// Highest round index recorded.
        pub rounds: u64,
        /// Summed engine wall time across runs, nanoseconds.
        pub engine_wall_ns: u64,
        /// Vertex executions across runs (0 in records written before the
        /// field existed).
        pub executions: u64 = 0,
        /// Phase totals over engine wall (how much of the run the phase
        /// tiling explains; ~1.0 when attribution is complete).
        pub coverage: f64,
        /// Samples evicted from the quantile window (totals stay exact).
        pub dropped_samples: u64,
        /// Per-phase aggregates, in [`Phase::ALL`] order (present phases only).
        pub phases: Vec<PhaseStat>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_profile() -> EngineProfile {
        let mut p = EngineProfile::default();
        p.record(0, Phase::Setup, 0, 500);
        p.record(1, Phase::Compute, 500, 1_000);
        p.record(1, Phase::Scatter, 1_500, 300);
        p.record(1, Phase::Merge, 1_800, 200);
        p.record(2, Phase::Compute, 2_000, 1_400);
        p.record(2, Phase::Scatter, 3_400, 100);
        p.record(2, Phase::Merge, 3_500, 0);
        p.record_run(3_500, 7);
        p
    }

    #[test]
    fn phase_totals_accumulate_exactly() {
        let p = sample_profile();
        assert_eq!(p.coord_ns[Phase::Compute.index()], 2_400);
        assert_eq!(p.counts[Phase::Merge.index()], 2);
        assert_eq!(p.coord_ns[Phase::Merge.index()], 200);
        assert_eq!(p.rounds, 2);
        assert_eq!(p.sample_count(), 7);
    }

    #[test]
    fn coordinator_phases_tile_the_wall() {
        let p = sample_profile();
        let coord: u64 = p.coord_ns.iter().sum();
        assert_eq!(coord, 3_500);
        let s = p.summary();
        assert!((s.coverage - 1.0).abs() < 1e-9, "coverage {}", s.coverage);
    }

    #[test]
    fn ring_wraps_and_counts_drops_without_losing_totals() {
        let mut p = EngineProfile::default();
        let n = RING_CAP as u64 + 10;
        for i in 0..n {
            p.record(i, Phase::Compute, i * 10, 10);
        }
        assert_eq!(p.sample_count(), RING_CAP);
        assert_eq!(p.dropped, 10);
        assert_eq!(p.coord_ns[Phase::Compute.index()], n * 10);
        // Oldest-first iteration: the first retained sample is #10.
        assert_eq!(p.samples().next().unwrap().round, 10);
        let last = p.samples().last().unwrap();
        assert_eq!(last.round, n - 1);
    }

    #[test]
    fn absorb_folds_runs() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.absorb(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.engine_wall_ns, 7_000);
        assert_eq!(a.coord_ns[Phase::Compute.index()], 4_800);
        assert_eq!(a.executions, 14);
        assert_eq!(a.sample_count(), 14);
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"engine_profile","runs":1,"rounds":2,"engine_wall_ns":3500,"executions":7,"coverage":1,"dropped_samples":0,"phases":[{"phase":"setup","coord_ns":500,"p50_ns":500,"p95_ns":500,"samples":1},{"phase":"compute","coord_ns":2400,"p50_ns":1400,"p95_ns":1400,"samples":2},{"phase":"scatter","coord_ns":400,"p50_ns":300,"p95_ns":300,"samples":2},{"phase":"merge","coord_ns":200,"p50_ns":200,"p95_ns":200,"samples":2}]}"#;
        let s = sample_profile().summary();
        assert_eq!(s.to_value().to_string(), pinned);
        let parsed = ProfileSummary::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn engine_profile_record_round_trips() {
        let s = sample_profile().summary();
        let v = s.to_value();
        let text = v.to_string();
        let parsed = json::parse(&text).expect("record must be valid JSON");
        let back = ProfileSummary::from_value(&parsed).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn a_record_without_executions_parses_as_zero() {
        let s = sample_profile().summary();
        assert_eq!(s.executions, 7);
        let Value::Object(fields) = s.to_value() else {
            panic!("record is an object");
        };
        let older = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "executions")
                .collect(),
        );
        let back = ProfileSummary::from_value(&older).expect("older record parses");
        assert_eq!(back.executions, 0);
        assert_eq!(back.engine_wall_ns, s.engine_wall_ns);
    }

    #[test]
    fn from_value_names_a_count_that_is_not_an_integer() {
        // A fraction inside a phase row is named by its innermost field and
        // tagged with the record.
        let text = sample_profile().summary().to_value().to_string();
        let bad = text.replacen(r#""samples":2"#, r#""samples":1.5"#, 1);
        let e = ProfileSummary::from_value(&json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("samples"));
        assert_eq!(e.record_type.as_deref(), Some("engine_profile"));
    }

    #[test]
    fn from_value_rejects_wrong_type_with_context() {
        let v = Value::object(vec![("type", Value::Str("span".to_string()))]);
        let e = ProfileSummary::from_value(&v).unwrap_err();
        assert_eq!(e.record_type.as_deref(), Some("engine_profile"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_required_keys() {
        let p = sample_profile();
        let trace = p.chrome_trace();
        let v = json::parse(&trace).expect("trace must be valid JSON");
        let events = v.as_array().expect("trace is an array");
        // 1 metadata event + 7 samples, all on one track.
        assert_eq!(events.len(), 8);
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert_eq!(e.get("pid").and_then(Value::as_u64), Some(0));
            assert_eq!(e.get("tid").and_then(Value::as_u64), Some(0));
            if ph == "X" {
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e.get("dur").and_then(Value::as_f64).is_some());
                let name = e.get("name").and_then(Value::as_str).unwrap();
                assert!(Phase::from_name(name).is_some());
            } else {
                assert_eq!(ph, "M");
            }
        }
    }
}
