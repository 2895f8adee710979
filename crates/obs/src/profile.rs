//! Engine profiler: per-round, per-worker phase attribution.
//!
//! The CONGEST engine's round loop tiles into phases — task dispatch,
//! vertex compute, outbox scatter/sort, coordinator merge, and barrier
//! idle — and [`EngineProfile`] accumulates how long each worker spends
//! in each, using the monotonic [`Stopwatch`](crate::metrics::Stopwatch)
//! an engine run already holds. Storage is a fixed-capacity ring of
//! [`PhaseSample`]s plus flat per-phase counters, so steady-state
//! profiling allocates nothing per round.
//!
//! Two export views:
//!
//! * [`EngineProfile::chrome_trace`] — a Chrome trace-event JSON array
//!   (one track per worker) loadable in Perfetto / `chrome://tracing`.
//! * [`EngineProfile::summary`] → `ProfileSummary::to_value` — the
//!   `engine_profile` JSONL record with per-phase wall totals, p50/p95,
//!   per-worker utilization, and the imbalance ratio.

use crate::json::Value;
use crate::metrics::quantile_ns;
use crate::record;

/// One attributable slice of the round loop.
///
/// `Setup` covers everything before the first round executes (task
/// construction, worker spawn, initial-message injection) so the
/// coordinator track tiles the whole engine wall and per-phase totals
/// sum to the run's wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Pre-round work: arenas, task construction, worker spawn, init.
    Setup,
    /// Coordinator fan-out: sending tasks to worker channels.
    Dispatch,
    /// Vertex protocol execution over a chunk.
    Compute,
    /// Counting-sort scatter of outboxes into delivery arenas.
    Scatter,
    /// Coordinator fold of per-chunk stats and congestion accounting.
    Merge,
    /// Barrier / channel wait with no work to do.
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

/// One timed interval on one worker's track.
///
/// `start_ns` is relative to the profile's epoch (the recorder's or the
/// run's start stopwatch), so samples from one run share a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSample {
    /// Round the interval belongs to (`0` = the init phase).
    pub round: u64,
    /// Track: `0` is the coordinator, `1..` are pool workers.
    pub worker: u32,
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
/// Flat totals (`totals_ns`, `coord_ns`, `counts`, `busy_ns`) are exact
/// over every recorded sample; the ring keeps the most recent
/// [`RING_CAP`] samples for quantiles and trace export.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Distinct worker tracks seen (coordinator included).
    pub workers: usize,
    /// Highest round index recorded.
    pub rounds: u64,
    /// Engine runs folded into this profile.
    pub runs: u64,
    /// Summed engine wall time across runs, nanoseconds.
    pub engine_wall_ns: u64,
    /// Vertex executions (`init` and `round` calls) across runs — what the
    /// compute phase's time was spent on. A simulated count, not a timing.
    pub executions: u64,
    /// Exact per-phase wall totals over all workers, by `Phase::index`.
    pub totals_ns: [u64; PHASES],
    /// Exact per-phase totals on the coordinator track only. The
    /// coordinator's phases tile the run, so these sum to ~wall time.
    pub coord_ns: [u64; PHASES],
    /// Exact per-phase sample counts, by `Phase::index`.
    pub counts: [u64; PHASES],
    /// Per-worker non-idle time, index = worker track.
    pub busy_ns: Vec<u64>,
    /// Most recent samples, oldest first once wrapped (see `head`).
    ring: Vec<PhaseSample>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Samples evicted from the ring (totals still include them).
    pub dropped: u64,
}

impl EngineProfile {
    /// An empty profile expecting `workers` tracks (grown on demand).
    pub fn new(workers: usize) -> EngineProfile {
        EngineProfile {
            workers,
            busy_ns: vec![0; workers],
            ring: Vec::new(),
            ..EngineProfile::default()
        }
    }

    /// Record one interval. Zero-length intervals still count (they
    /// mark that the phase ran) but add nothing to the totals.
    pub fn record(&mut self, round: u64, worker: u32, phase: Phase, start_ns: u64, dur_ns: u64) {
        let i = phase.index();
        self.totals_ns[i] += dur_ns;
        self.counts[i] += 1;
        if worker == 0 {
            self.coord_ns[i] += dur_ns;
        }
        let w = worker as usize;
        if w >= self.busy_ns.len() {
            self.busy_ns.resize(w + 1, 0);
        }
        self.workers = self.workers.max(w + 1);
        if phase != Phase::Idle {
            self.busy_ns[w] += dur_ns;
        }
        self.rounds = self.rounds.max(round);
        self.push_sample(PhaseSample {
            round,
            worker,
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
        self.workers = self.workers.max(other.workers);
        self.rounds = self.rounds.max(other.rounds);
        self.runs += other.runs;
        self.engine_wall_ns += other.engine_wall_ns;
        self.executions += other.executions;
        for i in 0..PHASES {
            self.totals_ns[i] += other.totals_ns[i];
            self.coord_ns[i] += other.coord_ns[i];
            self.counts[i] += other.counts[i];
        }
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        for (w, ns) in other.busy_ns.iter().enumerate() {
            self.busy_ns[w] += ns;
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

    /// Chrome trace-event JSON: an array of `ph:"M"` thread-name
    /// metadata events (one per worker track) followed by `ph:"X"`
    /// complete events with microsecond `ts`/`dur`, `pid` 0, and
    /// `tid` = worker track. Loadable in Perfetto / `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |out: &mut String, event: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(event);
        };
        for w in 0..self.workers {
            let name = if w == 0 {
                "coordinator".to_string()
            } else {
                format!("worker {w}")
            };
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }
        for s in self.samples() {
            let ts = s.start_ns as f64 / 1000.0;
            let dur = s.dur_ns as f64 / 1000.0;
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{},\"args\":{{\"round\":{}}}}}",
                    s.phase.name(),
                    Value::Num(ts),
                    Value::Num(dur),
                    s.worker,
                    s.round
                ),
            );
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
                total_ns: self.totals_ns[i],
                coord_ns: self.coord_ns[i],
                p50_ns: quantile_ns(&window, 0.50),
                p95_ns: quantile_ns(&window, 0.95),
                samples: self.counts[i],
            });
        }
        let worker_stats: Vec<WorkerStat> = self
            .busy_ns
            .iter()
            .enumerate()
            .map(|(w, &busy)| WorkerStat {
                worker: w,
                busy_ns: busy,
                utilization: if self.engine_wall_ns > 0 {
                    busy as f64 / self.engine_wall_ns as f64
                } else {
                    0.0
                },
            })
            .collect();
        let max_busy = self.busy_ns.iter().copied().max().unwrap_or(0);
        let mean_busy = if self.busy_ns.is_empty() {
            0.0
        } else {
            self.busy_ns.iter().sum::<u64>() as f64 / self.busy_ns.len() as f64
        };
        let imbalance = if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            1.0
        };
        let coord_total: u64 = self.coord_ns.iter().sum();
        let coverage = if self.engine_wall_ns > 0 {
            coord_total as f64 / self.engine_wall_ns as f64
        } else {
            0.0
        };
        ProfileSummary {
            workers: self.workers,
            runs: self.runs,
            rounds: self.rounds,
            engine_wall_ns: self.engine_wall_ns,
            executions: self.executions,
            phases,
            worker_stats,
            imbalance,
            coverage,
            dropped_samples: self.dropped,
        }
    }
}

record! {
    /// Aggregate stats for one phase across all workers.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PhaseStat {
        /// Which phase.
        pub phase: Phase,
        /// Exact wall total over all workers, nanoseconds.
        pub total_ns: u64,
        /// Exact wall total on the coordinator track, nanoseconds.
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
    /// One worker track's share of the run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WorkerStat {
        /// Worker track (`0` = coordinator).
        pub worker: usize,
        /// Non-idle nanoseconds on this track.
        pub busy_ns: u64,
        /// `busy_ns / engine_wall_ns`.
        pub utilization: f64,
    }
}

record! {
    /// The `engine_profile` JSONL record.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProfileSummary: "engine_profile" {
        /// Worker tracks (coordinator included).
        pub workers: usize,
        /// Engine runs folded into the profile.
        pub runs: u64,
        /// Highest round index recorded.
        pub rounds: u64,
        /// Summed engine wall time across runs, nanoseconds.
        pub engine_wall_ns: u64,
        /// Vertex executions across runs (0 in records written before the
        /// field existed).
        pub executions: u64 = 0,
        /// Max worker busy time over mean worker busy time (`1.0` = balanced).
        pub imbalance: f64,
        /// Coordinator phase totals over engine wall (how much of the run
        /// the phase tiling explains; ~1.0 when attribution is complete).
        pub coverage: f64,
        /// Samples evicted from the quantile window (totals stay exact).
        pub dropped_samples: u64,
        /// Per-phase aggregates, in [`Phase::ALL`] order (present phases only).
        pub phases: Vec<PhaseStat>,
        /// Per-worker busy time and utilization.
        pub worker_stats: Vec<WorkerStat>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_profile() -> EngineProfile {
        let mut p = EngineProfile::new(2);
        p.record(0, 0, Phase::Setup, 0, 500);
        p.record(1, 0, Phase::Dispatch, 500, 100);
        p.record(1, 0, Phase::Compute, 600, 1_000);
        p.record(1, 1, Phase::Compute, 600, 1_400);
        p.record(1, 0, Phase::Idle, 1_600, 400);
        p.record(1, 1, Phase::Idle, 2_000, 50);
        p.record(1, 0, Phase::Scatter, 2_000, 300);
        p.record(1, 0, Phase::Merge, 2_300, 200);
        p.record_run(2_500, 7);
        p
    }

    #[test]
    fn totals_and_busy_accumulate_exactly() {
        let p = sample_profile();
        assert_eq!(p.totals_ns[Phase::Compute.index()], 2_400);
        assert_eq!(p.coord_ns[Phase::Compute.index()], 1_000);
        assert_eq!(p.busy_ns[0], 500 + 100 + 1_000 + 300 + 200);
        assert_eq!(p.busy_ns[1], 1_400);
        assert_eq!(p.rounds, 1);
        assert_eq!(p.sample_count(), 8);
    }

    #[test]
    fn coordinator_phases_tile_the_wall() {
        let p = sample_profile();
        let coord: u64 = p.coord_ns.iter().sum();
        assert_eq!(coord, 2_500);
        let s = p.summary();
        assert!((s.coverage - 1.0).abs() < 1e-9, "coverage {}", s.coverage);
    }

    #[test]
    fn imbalance_is_max_over_mean_busy() {
        let p = sample_profile();
        let s = p.summary();
        let mean = (2_100.0 + 1_400.0) / 2.0;
        assert!((s.imbalance - 2_100.0 / mean).abs() < 1e-9);
        assert!((s.worker_stats[0].utilization - 2_100.0 / 2_500.0).abs() < 1e-9);
    }

    #[test]
    fn ring_wraps_and_counts_drops_without_losing_totals() {
        let mut p = EngineProfile::new(1);
        let n = RING_CAP as u64 + 10;
        for i in 0..n {
            p.record(i, 0, Phase::Compute, i * 10, 10);
        }
        assert_eq!(p.sample_count(), RING_CAP);
        assert_eq!(p.dropped, 10);
        assert_eq!(p.totals_ns[Phase::Compute.index()], n * 10);
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
        assert_eq!(a.engine_wall_ns, 5_000);
        assert_eq!(a.totals_ns[Phase::Compute.index()], 4_800);
        assert_eq!(a.busy_ns[1], 2_800);
        assert_eq!(a.executions, 14);
        assert_eq!(a.sample_count(), 16);
    }

    #[test]
    fn bytes_are_pinned() {
        let pinned = r#"{"type":"engine_profile","workers":2,"runs":1,"rounds":1,"engine_wall_ns":2500,"executions":7,"imbalance":1.2,"coverage":1,"dropped_samples":0,"phases":[{"phase":"setup","total_ns":500,"coord_ns":500,"p50_ns":500,"p95_ns":500,"samples":1},{"phase":"dispatch","total_ns":100,"coord_ns":100,"p50_ns":100,"p95_ns":100,"samples":1},{"phase":"compute","total_ns":2400,"coord_ns":1000,"p50_ns":1400,"p95_ns":1400,"samples":2},{"phase":"scatter","total_ns":300,"coord_ns":300,"p50_ns":300,"p95_ns":300,"samples":1},{"phase":"merge","total_ns":200,"coord_ns":200,"p50_ns":200,"p95_ns":200,"samples":1},{"phase":"idle","total_ns":450,"coord_ns":400,"p50_ns":400,"p95_ns":400,"samples":2}],"worker_stats":[{"worker":0,"busy_ns":2100,"utilization":0.84},{"worker":1,"busy_ns":1400,"utilization":0.56}]}"#;
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
    fn from_value_names_a_worker_index_that_is_not_an_index() {
        // `worker` / `workers` are `usize`: every `u64` fits on a 64-bit
        // host, so what the shared range-checked impl can reject here is a
        // fraction — named by its innermost field, tagged with the record.
        let text = sample_profile().summary().to_value().to_string();
        let bad = text.replacen(r#""worker":1"#, r#""worker":1.5"#, 1);
        let e = ProfileSummary::from_value(&json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("worker"));
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
        // 2 metadata events + 8 samples.
        assert_eq!(events.len(), 10);
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert!(e.get("pid").and_then(Value::as_u64).is_some());
            assert!(e.get("tid").and_then(Value::as_u64).is_some());
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
