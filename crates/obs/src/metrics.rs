//! Zero-dependency wall-clock metrics: monotonic timers, counters, and
//! gauges.
//!
//! The simulator's native currencies — rounds, words, memory — are *model*
//! costs: deterministic at a fixed seed and byte-stable across machines.
//! This module adds the other axis the ROADMAP's "as fast as the hardware
//! allows" goal is priced in: real elapsed time. A [`Stopwatch`] wraps
//! [`std::time::Instant`] (monotonic, immune to wall-clock adjustments); a
//! [`MetricSet`] is an ordered bag of named counters (`u64`) and gauges
//! (`f64`) that serializes as a `metrics` JSONL record, declared through
//! [`record!`](crate::record!) like [`crate::flight`]'s records, so run
//! reports can carry wall-clock observations next to the simulated spans.
//!
//! Wall-clock numbers are inherently noisy, so everything downstream treats
//! them statistically: [`quantile_ns`] summarizes repeated samples as the
//! p50/p95 the bench suite records, and regression gates keep wall-clock
//! advisory while gating exactly on the simulated columns.

use crate::json::Value;
use crate::record;

/// A monotonic wall-clock timer.
///
/// # Examples
///
/// ```
/// let sw = obs::metrics::Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// assert!(sw.elapsed_ns() >= ns);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating at
    /// `u64::MAX`, ~584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed nanoseconds, restarting the timer — successive laps tile the
    /// total elapsed time.
    pub fn lap_ns(&mut self) -> u64 {
        let now = std::time::Instant::now();
        let ns = u64::try_from((now - self.start).as_nanos()).unwrap_or(u64::MAX);
        self.start = now;
        ns
    }
}

/// A monotonic nanosecond clock. [`Stopwatch`] is the production clock; code
/// that is generic over `Clock` lets a test substitute a deterministic one
/// and assert on timing structure without reading real time.
pub trait Clock: Copy {
    /// Nanoseconds since this clock's origin; never decreases.
    fn elapsed_ns(&self) -> u64;
}

impl Clock for Stopwatch {
    fn elapsed_ns(&self) -> u64 {
        Stopwatch::elapsed_ns(self)
    }
}

/// The `q`-quantile (0.0 ≤ q ≤ 1.0) of a sample of durations, by the
/// nearest-rank method. Returns 0 for an empty sample. The input need not be
/// sorted.
pub fn quantile_ns(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

record! {
    /// An ordered set of named counters and gauges, serializable as a `metrics`
    /// record (`to_value` appends the given extra fields).
    ///
    /// Insertion order is preserved so records are diffable; re-recording a name
    /// overwrites (gauges) or accumulates (counters) in place.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricSet(extra: &[(&str, Value)]): "metrics" {
        name: String,
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, f64)>,
        ..extra
    }
}

impl MetricSet {
    /// An empty set labeled `name` (the record's `name` field).
    pub fn new(name: &str) -> MetricSet {
        MetricSet {
            name: name.to_string(),
            counters: Vec::new(),
            gauges: Vec::new(),
        }
    }

    /// The set's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add `by` to counter `key` (creating it at zero first).
    pub fn incr(&mut self, key: &str, by: u64) {
        match self.counters.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += by,
            None => self.counters.push((key.to_string(), by)),
        }
    }

    /// Set gauge `key` to `value` (overwriting any previous value).
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        match self.gauges.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((key.to_string(), value)),
        }
    }

    /// The value of counter `key`, if recorded.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `key`, if recorded.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// All counters in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges in insertion order.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let mut sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        let lap = sw.lap_ns();
        assert!(lap >= b);
        // After a lap the clock restarts near zero.
        assert!(sw.elapsed_ns() < lap.max(1_000_000_000));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&samples, 0.0), 1);
        assert_eq!(quantile_ns(&samples, 0.5), 51);
        assert_eq!(quantile_ns(&samples, 0.95), 95);
        assert_eq!(quantile_ns(&samples, 1.0), 100);
        assert_eq!(quantile_ns(&[], 0.5), 0);
        assert_eq!(quantile_ns(&[7], 0.95), 7);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut m = MetricSet::new("case");
        m.incr("hits", 2);
        m.incr("hits", 3);
        m.set_gauge("ratio", 0.5);
        m.set_gauge("ratio", 0.75);
        assert_eq!(m.counter("hits"), Some(5));
        assert_eq!(m.gauge("ratio"), Some(0.75));
        assert_eq!(m.counter("absent"), None);
    }

    #[test]
    fn bytes_are_pinned() {
        let mut m = MetricSet::new("bench/tree/n256");
        m.incr("wall_ns_p50", 1234);
        m.incr("repeats", 3);
        m.set_gauge("rounds_per_ms", 88.25);
        let pinned = r#"{"type":"metrics","name":"bench/tree/n256","counters":{"wall_ns_p50":1234,"repeats":3},"gauges":{"rounds_per_ms":88.25},"tier":"quick"}"#;
        let extra = [("tier", Value::from("quick"))];
        assert_eq!(m.to_value(&extra).to_string(), pinned);
        let parsed = MetricSet::from_value(&crate::json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn metrics_record_round_trips() {
        let mut m = MetricSet::new("bench/tree/n256");
        m.incr("wall_ns_p50", 1234);
        m.incr("repeats", 3);
        m.set_gauge("rounds_per_ms", 88.25);
        let v = m.to_value(&[("tier", Value::from("quick"))]);
        assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
        assert_eq!(v.get("tier").and_then(Value::as_str), Some("quick"));
        let text = v.to_string();
        let parsed = MetricSet::from_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn from_value_rejects_malformed_records() {
        assert!(MetricSet::from_value(&Value::from("x")).is_err());
        let no_name = Value::object(vec![("type", Value::from("metrics"))]);
        assert!(MetricSet::from_value(&no_name).is_err());
        let bad_counter = Value::object(vec![
            ("type", Value::from("metrics")),
            ("name", Value::from("m")),
            ("counters", Value::object(vec![("c", Value::from(-1i64))])),
            ("gauges", Value::object(Vec::<(&str, Value)>::new())),
        ]);
        assert!(MetricSet::from_value(&bad_counter).is_err());
    }
}
