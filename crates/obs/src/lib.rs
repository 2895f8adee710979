//! Phase-scoped run tracing for the distributed-routing stack.
//!
//! The paper's entire evaluation is measurement — rounds, words, per-vertex
//! memory — and its analysis attributes those costs to *phases*
//! (superclustering vs. interconnection, tree-cover build vs. label
//! dissemination). This crate makes that attribution empirical:
//!
//! * [`Recorder`] collects named, nestable [`SpanRecord`]s, each capturing
//!   the *delta* of [`Counters`] (rounds, messages, words, broadcasts)
//!   accrued while the span was open, plus a per-vertex peak-memory
//!   distribution snapshot ([`MemoryDist`]) at the span boundary;
//! * [`Recorder::write_report`] serializes everything as JSONL — one record
//!   per span, the records appended via [`Recorder::add_record`], and a
//!   trailing `run_summary` record — to a path chosen by `--report <path>`
//!   or the `DRT_REPORT` environment variable (see [`cli`]);
//! * [`json`] is a dependency-free JSON writer *and* parser, so generated
//!   reports can be read back and checked (span deltas must sum to the run
//!   totals) and the bench binaries can emit their tables as JSON;
//! * [`flight`] is the forwarding-plane flight recorder: hop-by-hop
//!   [`flight::PacketTrace`]s, [`flight::LoadMap`] heatmaps, and stretch
//!   histograms, emitted into the same JSONL reports via
//!   [`Recorder::add_record`];
//! * [`metrics`] adds the wall-clock axis: monotonic [`metrics::Stopwatch`]
//!   timers (every span carries a `wall_ns` next to its simulated deltas)
//!   and the quantiles the bench suite summarizes repeats with;
//! * [`scaling`] fits log-log growth exponents and checks them against
//!   paper-predicted ranges, turning "the shape matches the theorem" into an
//!   executable assertion;
//! * [`profile`] attributes engine wall time to round-loop phases (setup,
//!   compute, scatter, merge), exported as an `engine_profile` record and a
//!   Chrome trace-event file;
//! * [`mod@record`] is the one record schema: every record type declares its
//!   fields once through [`record!`], which generates the struct, the writer
//!   and the parser, and [`REGISTRY`] lists every `type` tag with the parser
//!   `drt report` validates it with (DESIGN.md §4d);
//! * [`error::ParseError`] gives every report parser typed failures
//!   carrying the record index and field name.
//!
//! The recorder is also the run's one cost account: stage-structured
//! protocols priced by the model's rules (a Lemma-1 broadcast of `M`
//! messages over a depth-`D` tree costs `M + D` rounds) charge it directly
//! through [`Recorder::charge_rounds`], [`Recorder::charge_messages`] and
//! [`Recorder::charge_broadcast`], so span deltas partition the totals by
//! construction. A disabled recorder ([`Recorder::disabled`]) still counts
//! every charge, but keeps no span, clock, memory snapshot or record, so
//! instrumented code paths pay one addition per charge when reporting is off.

use std::io::{self, Write as _};
use std::path::Path;

pub mod audit;
pub mod churn;
pub mod cli;
pub mod error;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod scaling;
pub mod serve;
pub mod traffic;

pub use error::ParseError;

use json::Value;

record! {
    /// The additive cost counters every span attributes.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Simulated CONGEST rounds.
        pub rounds: u64,
        /// Point-to-point messages.
        pub messages: u64,
        /// Words carried by those messages (where measured).
        pub words: u64,
        /// Lemma-1 broadcast phases.
        pub broadcasts: u64,
    }
}

impl Counters {
    /// All-zero counters.
    pub const ZERO: Counters = Counters {
        rounds: 0,
        messages: 0,
        words: 0,
        broadcasts: 0,
    };

    /// Component-wise `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        Counters {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            messages: self.messages.saturating_sub(earlier.messages),
            words: self.words.saturating_sub(earlier.words),
            broadcasts: self.broadcasts.saturating_sub(earlier.broadcasts),
        }
    }

    /// Component-wise accumulate.
    pub fn add(&mut self, other: &Counters) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.broadcasts += other.broadcasts;
    }
}

record! {
    /// Summary statistics of the per-vertex peak-memory distribution, in words.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct MemoryDist {
        /// Smallest per-vertex peak.
        pub min: usize,
        /// Median per-vertex peak.
        pub median: usize,
        /// 99th-percentile per-vertex peak.
        pub p99: usize,
        /// Largest per-vertex peak — the paper's "memory per vertex".
        pub max: usize,
        /// Mean per-vertex peak.
        pub mean: f64,
    }
}

impl MemoryDist {
    /// Distribution summary of `peaks` (one entry per vertex).
    pub fn from_peaks(peaks: &[usize]) -> MemoryDist {
        if peaks.is_empty() {
            return MemoryDist::default();
        }
        let mut sorted = peaks.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        MemoryDist {
            min: sorted[0],
            median: sorted[n / 2],
            p99: sorted[((n * 99) / 100).min(n - 1)],
            max: sorted[n - 1],
            mean: sorted.iter().sum::<usize>() as f64 / n as f64,
        }
    }
}

record! {
    /// The `span` line of a report: one closed [`SpanRecord`].
    struct SpanLine: "span" {
        seq: usize,
        name: String,
        depth: usize,
        parent: Option<usize>,
        delta: Counters => ..,
        peak_memory_words: usize,
        wall_ns: u64,
        memory: Option<MemoryDist> => ?,
    }
}

record! {
    /// The trailing `run_summary` line of a report.
    struct RunSummary(extra: &[(&str, Value)]): "run_summary" {
        name: String,
        totals: Counters => ..,
        peak_memory_words: usize,
        spans: usize,
        records: usize,
        wall_ns: u64,
        memory: Option<MemoryDist> => ?,
        ..extra
    }
}

/// A registered record type's check: parse the line, re-check its identities.
pub type Validate = fn(&Value) -> Result<(), ParseError>;

macro_rules! registry {
    ($($tag:literal => $record:ty,)*) => {
        &[$(($tag, |v| <$record>::from_value(v).map(drop)),)*]
    };
}

/// Every record type this crate writes — its `type` tag and the parser that
/// validates a line carrying it. `drt report` walks this table, and the
/// DESIGN.md §4d inventory is tested against it.
pub const REGISTRY: &[(&str, Validate)] = registry! {
    "span" => SpanLine,
    "run_summary" => RunSummary,
    "packet_trace" => flight::PacketTrace,
    "edge_load" => flight::EdgeLoadMap,
    "vertex_load" => flight::VertexLoadMap,
    "stretch_histogram" => flight::Histogram,
    "scaling_check" => scaling::ScalingCheck,
    "traffic_summary" => traffic::TrafficSummary,
    "engine_profile" => profile::ProfileSummary,
    "scheme_audit" => audit::SchemeAudit,
    "churn_timeline" => churn::ChurnTimeline,
    "serve_summary" => serve::ServeSummary,
};

/// Identifies an open span; returned by [`Recorder::begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const DISABLED: SpanId = SpanId(usize::MAX);
}

/// A completed named phase with its attributed cost deltas.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The phase name (slash-separated by convention, e.g. `hopset/L0/superclustering`).
    pub name: String,
    /// Position in begin order (also the JSONL `seq` field).
    pub seq: usize,
    /// `seq` of the enclosing span, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Counter deltas accrued while the span was open (children included).
    pub delta: Counters,
    /// Max per-vertex peak memory at span end (0 if never snapshotted).
    pub peak_memory_words: usize,
    /// Peak-memory distribution snapshot at span end, when provided.
    pub memory: Option<MemoryDist>,
    /// Wall-clock nanoseconds the span was open (monotonic; 0 until closed).
    pub wall_ns: u64,
    entry: Counters,
    entry_wall: Option<metrics::Stopwatch>,
    closed: bool,
}

/// Collects spans, counters, and appended records for one run.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    enabled: bool,
    totals: Counters,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    run_memory: Option<MemoryDist>,
    records: Vec<Value>,
    started: Option<metrics::Stopwatch>,
}

impl Recorder {
    /// An enabled recorder. Its wall clock starts now; the run summary's
    /// `wall_ns` covers creation to [`Recorder::write_report`].
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            started: Some(metrics::Stopwatch::start()),
            ..Recorder::default()
        }
    }

    /// A recorder that counts charges and keeps nothing else: no span,
    /// clock, memory snapshot or record.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// An enabled recorder if `on`, else a disabled one.
    pub fn when(on: bool) -> Recorder {
        if on {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// Open a named span nested under the currently open span (if any).
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let seq = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            seq,
            parent: self.open.last().copied(),
            depth: self.open.len(),
            delta: Counters::ZERO,
            peak_memory_words: 0,
            memory: None,
            wall_ns: 0,
            entry: self.totals,
            entry_wall: Some(metrics::Stopwatch::start()),
            closed: false,
        });
        self.open.push(seq);
        SpanId(seq)
    }

    /// Close `id` without a memory snapshot.
    pub fn end(&mut self, id: SpanId) {
        self.end_span(id, None);
    }

    /// Close `id`, snapshotting the per-vertex peak-memory distribution.
    pub fn end_with_memory(&mut self, id: SpanId, peaks: &[usize]) {
        // A disabled recorder must not pay for the distribution (a sort).
        let memory = self.enabled.then(|| MemoryDist::from_peaks(peaks));
        self.end_span(id, memory);
    }

    fn end_span(&mut self, id: SpanId, memory: Option<MemoryDist>) {
        if !self.enabled || id == SpanId::DISABLED {
            return;
        }
        debug_assert_eq!(
            self.open.last().copied(),
            Some(id.0),
            "spans must close innermost-first"
        );
        self.open.retain(|&s| s != id.0);
        let totals = self.totals;
        let span = &mut self.spans[id.0];
        span.delta = totals.delta_since(&span.entry);
        span.memory = memory;
        span.peak_memory_words = memory.map_or(0, |m| m.max);
        span.wall_ns = span.entry_wall.map_or(0, |sw| sw.elapsed_ns());
        span.closed = true;
    }

    /// Attribute `delta` to the currently open span(s) and the run totals.
    pub fn charge(&mut self, delta: &Counters) {
        self.totals.add(delta);
    }

    /// Charge `r` synchronous rounds.
    pub fn charge_rounds(&mut self, r: u64) {
        self.totals.rounds += r;
    }

    /// Charge `m` point-to-point messages of one word each (their rounds are
    /// charged separately, per the caller's schedule).
    pub fn charge_messages(&mut self, m: u64) {
        self.totals.messages += m;
        self.totals.words += m;
    }

    /// Charge a Lemma-1 broadcast/convergecast of `m` one-word messages over
    /// a BFS tree of depth ≤ `d`: `m + d` rounds (the pipelined bound,
    /// constants elided exactly as the paper's Õ does) and one broadcast.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut rec = obs::Recorder::disabled();
    /// rec.charge_rounds(10);
    /// rec.charge_broadcast(100, 8); // Lemma 1: M + D rounds
    /// assert_eq!(rec.totals().rounds, 118);
    /// ```
    pub fn charge_broadcast(&mut self, m: u64, d: u64) {
        self.charge(&Counters {
            rounds: m + d,
            messages: m,
            words: m,
            broadcasts: 1,
        });
    }

    /// Record the end-of-run peak-memory distribution.
    pub fn set_run_memory(&mut self, peaks: &[usize]) {
        if self.enabled {
            self.run_memory = Some(MemoryDist::from_peaks(peaks));
        }
    }

    /// Append a free-form record (e.g. a [`flight::PacketTrace`] or
    /// [`flight::EdgeLoadMap`] serialization) to the report. Records are
    /// written after the spans, before the summary.
    pub fn add_record(&mut self, record: Value) {
        if self.enabled {
            self.records.push(record);
        }
    }

    /// Records appended via [`Recorder::add_record`], in order.
    pub fn records(&self) -> &[Value] {
        &self.records
    }

    /// Cumulative counters charged so far.
    pub fn totals(&self) -> Counters {
        self.totals
    }

    /// What was charged since `entry`, an earlier [`Recorder::totals`].
    pub fn charged_since(&self, entry: &Counters) -> Counters {
        self.totals.delta_since(entry)
    }

    /// All spans in begin order (open spans have zero deltas until closed).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Serialize the run as JSONL: one `span` record per closed span (begin
    /// order), the records appended via [`Recorder::add_record`] (packet
    /// traces, load heatmaps, histograms, engine profiles), and a trailing
    /// `run_summary` carrying the totals plus `extra` fields.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing `path`.
    pub fn write_report(
        &self,
        path: impl AsRef<Path>,
        run_name: &str,
        extra: &[(&str, Value)],
    ) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let closed = || self.spans.iter().filter(|s| s.closed);
        for span in closed() {
            let line = SpanLine {
                seq: span.seq,
                name: span.name.clone(),
                depth: span.depth,
                parent: span.parent,
                delta: span.delta,
                peak_memory_words: span.peak_memory_words,
                wall_ns: span.wall_ns,
                memory: span.memory,
            };
            writeln!(out, "{}", line.to_value())?;
        }
        for record in &self.records {
            writeln!(out, "{record}")?;
        }
        let peak = self
            .run_memory
            .map(|m| m.max)
            .or_else(|| self.spans.iter().map(|s| s.peak_memory_words).max())
            .unwrap_or(0);
        let summary = RunSummary {
            name: run_name.to_string(),
            totals: self.totals,
            peak_memory_words: peak,
            spans: closed().count(),
            records: self.records.len(),
            wall_ns: self.started.map_or(0, |sw| sw.elapsed_ns()),
            memory: self.run_memory,
        };
        writeln!(out, "{}", summary.to_value(extra))?;
        out.flush()
    }
}

/// Parse a JSONL report back into one [`json::Value`] per line.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the zero-based record index of the
/// first I/O or parse failure.
pub fn read_report(path: impl AsRef<Path>) -> Result<Vec<Value>, ParseError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| ParseError::new(format!("reading {}: {e}", path.as_ref().display())))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            json::parse(line)
                .map_err(|e| ParseError::new(format!("invalid JSON: {e}")).in_record(i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_capture_deltas_and_nesting() {
        let mut rec = Recorder::new();
        let outer = rec.begin("outer");
        rec.charge_rounds(5);
        let inner = rec.begin("inner");
        rec.charge(&Counters {
            messages: 3,
            words: 9,
            ..Counters::ZERO
        });
        rec.end_with_memory(inner, &[1, 2, 10]);
        rec.charge_rounds(2);
        rec.end(outer);

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].delta.rounds, 7);
        assert_eq!(spans[0].delta.messages, 3);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].delta.rounds, 0);
        assert_eq!(spans[1].delta.words, 9);
        assert_eq!(spans[1].peak_memory_words, 10);
        assert_eq!(spans[1].memory.unwrap().median, 2);
        // The outer span was open at least as long as the inner one.
        assert!(spans[0].wall_ns >= spans[1].wall_ns);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        // A disabled recorder is still the run's cost account: it counts
        // every charge, and keeps no span, record, memory snapshot or clock.
        let mut rec = Recorder::disabled();
        let id = rec.begin("phase");
        rec.charge_rounds(100);
        rec.charge_messages(3);
        rec.charge_broadcast(10, 2);
        rec.add_record(Value::from("ignored"));
        rec.set_run_memory(&[1, 2]);
        rec.end_with_memory(id, &[5]);
        let counted = Counters {
            rounds: 112,
            messages: 13,
            words: 13,
            broadcasts: 1,
        };
        assert_eq!(rec.totals(), counted);
        assert!(rec.spans().is_empty());
        assert!(rec.records().is_empty());
        assert!(rec.run_memory.is_none());
        assert!(rec.started.is_none());
    }

    #[test]
    fn charges_accumulate() {
        let mut rec = Recorder::new();
        rec.charge_rounds(5);
        rec.charge_messages(3);
        rec.charge_broadcast(10, 2);
        let c = rec.totals();
        assert_eq!((c.rounds, c.messages, c.broadcasts), (17, 13, 1));
    }

    #[test]
    fn default_is_zero() {
        for rec in [Recorder::new(), Recorder::disabled(), Recorder::default()] {
            assert_eq!(rec.totals(), Counters::ZERO);
        }
    }

    #[test]
    fn words_track_messages_plus_payload() {
        // One word per message, point-to-point or broadcast.
        let mut rec = Recorder::disabled();
        rec.charge_messages(4);
        let entry = rec.totals();
        rec.charge_broadcast(10, 1);
        assert_eq!(rec.totals().words, 14);
        assert_eq!(rec.charged_since(&entry).words, 10);
        assert_eq!(rec.charged_since(&entry).rounds, 11);
    }

    #[test]
    fn memory_dist_percentiles() {
        let peaks: Vec<usize> = (1..=100).collect();
        let d = MemoryDist::from_peaks(&peaks);
        assert_eq!(d.min, 1);
        assert_eq!(d.median, 51);
        assert_eq!(d.p99, 100);
        assert_eq!(d.max, 100);
        assert!((d.mean - 50.5).abs() < 1e-9);
        assert_eq!(MemoryDist::from_peaks(&[]), MemoryDist::default());
    }

    /// `line` with every `"wall_ns":<digits>` value replaced by 0 — the one
    /// field of a report that is a clock reading.
    fn without_wall(line: &str) -> String {
        let mut out = String::new();
        let mut rest = line;
        while let Some(at) = rest.find("\"wall_ns\":") {
            let value = at + "\"wall_ns\":".len();
            out.push_str(&rest[..value]);
            out.push('0');
            rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out + rest
    }

    #[test]
    fn report_bytes_are_pinned() {
        let mut rec = Recorder::new();
        let outer = rec.begin("outer");
        rec.charge_rounds(5);
        let inner = rec.begin("outer/inner");
        rec.charge(&Counters {
            rounds: 0,
            messages: 3,
            words: 9,
            broadcasts: 1,
        });
        rec.end_with_memory(inner, &[1, 2, 10]);
        rec.end(outer);
        rec.set_run_memory(&[4, 10, 6]);
        rec.add_record(Value::object(vec![("type", Value::from("note"))]));
        let path = std::env::temp_dir().join(format!("obs-pin-{}.jsonl", std::process::id()));
        rec.write_report(&path, "pin", &[("k", Value::from(2u64))])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<String> = text.lines().map(without_wall).collect();
        let pinned = [
            r#"{"type":"span","seq":0,"name":"outer","depth":0,"parent":null,"rounds":5,"messages":3,"words":9,"broadcasts":1,"peak_memory_words":0,"wall_ns":0}"#,
            r#"{"type":"span","seq":1,"name":"outer/inner","depth":1,"parent":0,"rounds":0,"messages":3,"words":9,"broadcasts":1,"peak_memory_words":10,"wall_ns":0,"memory":{"min":1,"median":2,"p99":10,"max":10,"mean":4.333333333333333}}"#,
            r#"{"type":"note"}"#,
            r#"{"type":"run_summary","name":"pin","rounds":5,"messages":3,"words":9,"broadcasts":1,"peak_memory_words":10,"spans":2,"records":1,"wall_ns":0,"memory":{"min":4,"median":6,"p99":10,"max":10,"mean":6.666666666666667},"k":2}"#,
        ];
        assert_eq!(lines, pinned);
    }

    fn validate(line: &str) -> Result<(), ParseError> {
        let v = json::parse(line).unwrap();
        let ty = record::tag(&v).expect("tagged");
        let (_, check) = REGISTRY.iter().find(|(t, _)| *t == ty).expect("registered");
        check(&v)
    }

    #[test]
    fn registry_parses_the_framing_lines_by_their_declared_fields() {
        let span = r#"{"type":"span","seq":1,"name":"a","depth":1,"parent":0,"rounds":0,"messages":3,"words":9,"broadcasts":1,"peak_memory_words":10,"wall_ns":5,"memory":{"min":1,"median":2,"p99":10,"max":10,"mean":4.5}}"#;
        assert_eq!(validate(span), Ok(()));
        // `memory` is optional, `parent` may be null; a counter may not be absent.
        let root = span.replace(r#""parent":0"#, r#""parent":null"#).replace(
            r#","memory":{"min":1,"median":2,"p99":10,"max":10,"mean":4.5}"#,
            "",
        );
        assert_eq!(validate(&root), Ok(()));
        let err = validate(&span.replace(r#""words":9,"#, "")).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("words"));
        assert_eq!(err.record_type.as_deref(), Some("span"));

        let summary = r#"{"type":"run_summary","name":"pin","rounds":5,"messages":3,"words":9,"broadcasts":1,"peak_memory_words":10,"spans":2,"records":1,"wall_ns":0,"k":2}"#;
        assert_eq!(validate(summary), Ok(()));
        let err = validate(&summary.replace(r#""spans":2,"#, "")).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("spans"));
    }

    #[test]
    fn report_round_trips_and_sums() {
        let mut rec = Recorder::new();
        for (name, rounds) in [("a", 3u64), ("b", 4), ("c", 5)] {
            let id = rec.begin(name);
            rec.charge_rounds(rounds);
            rec.charge(&Counters {
                messages: rounds * 2,
                words: rounds * 6,
                ..Counters::ZERO
            });
            rec.end_with_memory(id, &[rounds as usize, 2 * rounds as usize]);
        }
        rec.set_run_memory(&[4, 10, 6]);
        let edges: flight::EdgeLoadMap = [((0, 1), flight::Load::packet(7))].into_iter().collect();
        rec.add_record(edges.to_value(&[]));

        let dir = std::env::temp_dir().join("obs-unit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.jsonl");
        rec.write_report(&path, "unit", &[("k", Value::from(2u64))])
            .unwrap();

        let records = read_report(&path).unwrap();
        assert_eq!(records.len(), 5); // 3 spans + edge_load + summary
        let summary = records.last().unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("run_summary"));
        assert_eq!(summary.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("peak_memory_words").unwrap().as_u64(), Some(10));
        assert_eq!(summary.get("records").unwrap().as_u64(), Some(1));
        assert!(summary.get("wall_ns").unwrap().as_u64().is_some());
        let edge_record = records
            .iter()
            .find(|r| r.get("type").and_then(Value::as_str) == Some("edge_load"))
            .expect("edge_load record written");
        let parsed = flight::EdgeLoadMap::from_value(edge_record).unwrap();
        assert_eq!(parsed.total_words(), 7);
        let top_spans: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("type").and_then(Value::as_str) == Some("span"))
            .filter(|r| r.get("depth").and_then(Value::as_u64) == Some(0))
            .collect();
        assert_eq!(top_spans.len(), 3);
        let sum: u64 = top_spans
            .iter()
            .map(|s| s.get("rounds").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(sum, summary.get("rounds").unwrap().as_u64().unwrap());
    }
}
