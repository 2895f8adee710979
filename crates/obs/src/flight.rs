//! The forwarding-plane flight recorder: hop-by-hop packet traces and
//! link-load heatmaps.
//!
//! The construction plane reports *phase* costs ([`crate::Recorder`]); this
//! module records what the *routing* plane actually does once tables and
//! labels exist. A traced packet accumulates one [`HopRecord`] per edge
//! traversal — the round it was forwarded, the chosen port, the
//! forwarding-decision kind (ascent toward the committed tree's root, or
//! descent along a light/heavy edge), the rounds it sat queued, and the
//! weight accumulated so far. A completed [`PacketTrace`] decomposes the
//! packet's journey into the quantities the compact-routing literature
//! evaluates schemes by: ascent weight vs. descent weight (where the stretch
//! came from) and hop rounds vs. queueing rounds (where the delivery time
//! went).
//!
//! [`EdgeLoadMap`] and [`VertexLoadMap`] aggregate many traces into heatmaps
//! whose word totals are checkable against the engine's congestion ledger,
//! and [`Histogram`] buckets per-pair stretch for the figure reports.
//!
//! Everything serializes to (and parses back from) the crate's JSONL record
//! schema: `packet_trace`, `edge_load`, `vertex_load`, and
//! `stretch_histogram` records ride in the same run reports as the
//! construction spans. Vertices are named by raw `u32` ids so this crate
//! stays dependency-free.

use std::collections::HashMap;

use crate::error::ParseError;
use crate::json::Value;

/// The kind of forwarding decision behind one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// Toward the committed tree's root (the target is not below us).
    Ascent,
    /// Down a light edge listed in the target's label.
    DescentLight,
    /// Down the heavy-child edge.
    DescentHeavy,
}

impl HopKind {
    /// The schema name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            HopKind::Ascent => "ascent",
            HopKind::DescentLight => "descent-light",
            HopKind::DescentHeavy => "descent-heavy",
        }
    }

    /// Parse a schema name back into a kind.
    pub fn from_name(name: &str) -> Option<HopKind> {
        match name {
            "ascent" => Some(HopKind::Ascent),
            "descent-light" => Some(HopKind::DescentLight),
            "descent-heavy" => Some(HopKind::DescentHeavy),
            _ => None,
        }
    }

    /// Whether this hop moves toward the tree root.
    pub fn is_ascent(self) -> bool {
        self == HopKind::Ascent
    }
}

/// One edge traversal of a traced packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Round in which the packet left `vertex` (after any queueing).
    pub round: u64,
    /// The forwarding vertex.
    pub vertex: u32,
    /// The port (index into the vertex's neighbor list) the packet took.
    pub port: usize,
    /// The neighbor behind that port.
    pub next: u32,
    /// What the forwarding rule decided.
    pub kind: HopKind,
    /// Rounds the packet waited in `vertex`'s outgoing queue before this hop.
    pub queue_delay: u64,
    /// Weight accumulated *after* traversing this edge.
    pub weight: u64,
    /// Words the packet occupies on the wire (header + label).
    pub header_words: usize,
}

impl HopRecord {
    fn to_value(self) -> Value {
        Value::object(vec![
            ("round", Value::from(self.round)),
            ("vertex", Value::from(u64::from(self.vertex))),
            ("port", Value::from(self.port)),
            ("next", Value::from(u64::from(self.next))),
            ("kind", Value::from(self.kind.name())),
            ("queue_delay", Value::from(self.queue_delay)),
            ("weight", Value::from(self.weight)),
            ("header_words", Value::from(self.header_words)),
        ])
    }

    fn from_value(v: &Value) -> Result<HopRecord, ParseError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ParseError::missing(key).for_type("packet_trace"))
        };
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(HopKind::from_name)
            .ok_or_else(|| {
                ParseError::bad("kind", "missing or invalid hop kind").for_type("packet_trace")
            })?;
        Ok(HopRecord {
            round: field("round")?,
            vertex: field("vertex")? as u32,
            port: field("port")? as usize,
            next: field("next")? as u32,
            kind,
            queue_delay: field("queue_delay")?,
            weight: field("weight")?,
            header_words: field("header_words")? as usize,
        })
    }
}

/// The stretch/delay decomposition of one delivered packet.
///
/// `ascent_weight + descent_weight` equals the routed path weight, and
/// `hops + queue_rounds` equals the delivery round — the two identities the
/// flight recorder's tests pin down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightDecomposition {
    /// Weight accumulated on ascent (toward-root) hops.
    pub ascent_weight: u64,
    /// Weight accumulated on descent (light or heavy) hops.
    pub descent_weight: u64,
    /// Edges traversed on ascent.
    pub ascent_hops: usize,
    /// Edges traversed on descent.
    pub descent_hops: usize,
    /// Total rounds spent queued behind other traffic.
    pub queue_rounds: u64,
}

/// The complete journey of one traced packet.
#[derive(Clone, Debug, PartialEq)]
pub struct PacketTrace {
    /// Source vertex.
    pub src: u32,
    /// Destination vertex.
    pub dst: u32,
    /// Root of the tree the source committed to.
    pub tree_root: u32,
    /// Round of delivery (`None` if the packet was dropped mid-route).
    pub delivered_round: Option<u64>,
    /// One record per edge traversal, in order.
    pub hops: Vec<HopRecord>,
}

impl PacketTrace {
    /// Number of edges traversed.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Weight accumulated over the whole journey.
    pub fn total_weight(&self) -> u64 {
        self.hops.last().map_or(0, |h| h.weight)
    }

    /// Total rounds spent queued.
    pub fn queueing_delay(&self) -> u64 {
        self.hops.iter().map(|h| h.queue_delay).sum()
    }

    /// Split the journey into ascent/descent weight and hop/queue rounds.
    pub fn decomposition(&self) -> FlightDecomposition {
        let mut d = FlightDecomposition::default();
        let mut prev_weight = 0u64;
        for hop in &self.hops {
            let edge = hop.weight.saturating_sub(prev_weight);
            prev_weight = hop.weight;
            if hop.kind.is_ascent() {
                d.ascent_weight += edge;
                d.ascent_hops += 1;
            } else {
                d.descent_weight += edge;
                d.descent_hops += 1;
            }
            d.queue_rounds += hop.queue_delay;
        }
        d
    }

    /// Serialize as a `packet_trace` JSONL record.
    pub fn to_value(&self) -> Value {
        let d = self.decomposition();
        Value::object(vec![
            ("type", Value::from("packet_trace")),
            ("src", Value::from(u64::from(self.src))),
            ("dst", Value::from(u64::from(self.dst))),
            ("tree_root", Value::from(u64::from(self.tree_root))),
            ("delivered", Value::from(self.delivered_round.is_some())),
            (
                "delivered_round",
                self.delivered_round.map_or(Value::Null, Value::from),
            ),
            ("weight", Value::from(self.total_weight())),
            ("hops", Value::from(self.hop_count())),
            ("ascent_weight", Value::from(d.ascent_weight)),
            ("descent_weight", Value::from(d.descent_weight)),
            ("queue_rounds", Value::from(d.queue_rounds)),
            (
                "path",
                Value::Array(self.hops.iter().map(|h| h.to_value()).collect()),
            ),
        ])
    }

    /// Parse a `packet_trace` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing or ill-typed field.
    pub fn from_value(v: &Value) -> Result<PacketTrace, ParseError> {
        if v.get("type").and_then(Value::as_str) != Some("packet_trace") {
            return Err(ParseError::not_record("packet_trace"));
        }
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ParseError::missing(key).for_type("packet_trace"))
        };
        let hops = v
            .get("path")
            .and_then(Value::as_array)
            .ok_or_else(|| ParseError::missing("path").for_type("packet_trace"))?
            .iter()
            .map(HopRecord::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PacketTrace {
            src: field("src")? as u32,
            dst: field("dst")? as u32,
            tree_root: field("tree_root")? as u32,
            delivered_round: v.get("delivered_round").and_then(Value::as_u64),
            hops,
        })
    }
}

/// Distribution summary of a set of per-edge (or per-vertex) loads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadStats {
    /// Smallest load.
    pub min: u64,
    /// Median load.
    pub p50: u64,
    /// 95th-percentile load.
    pub p95: u64,
    /// 99th-percentile load.
    pub p99: u64,
    /// Largest load — the saturation hotspot.
    pub max: u64,
    /// Mean load.
    pub mean: f64,
}

impl LoadStats {
    /// Summarize `loads` (order irrelevant; empty input yields zeros).
    pub fn from_loads(loads: &[u64]) -> LoadStats {
        if loads.is_empty() {
            return LoadStats::default();
        }
        let mut sorted = loads.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let pct = |q: usize| sorted[((n * q) / 100).min(n - 1)];
        LoadStats {
            min: sorted[0],
            p50: sorted[n / 2],
            p95: pct(95),
            p99: pct(99),
            max: sorted[n - 1],
            mean: sorted.iter().sum::<u64>() as f64 / n as f64,
        }
    }

    pub(crate) fn to_value(self) -> Value {
        Value::object(vec![
            ("min", Value::from(self.min)),
            ("p50", Value::from(self.p50)),
            ("p95", Value::from(self.p95)),
            ("p99", Value::from(self.p99)),
            ("max", Value::from(self.max)),
            ("mean", Value::from(self.mean)),
        ])
    }

    pub(crate) fn from_value(v: &Value) -> Result<LoadStats, ParseError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ParseError::bad(key, "load stats missing numeric field"))
        };
        Ok(LoadStats {
            min: field("min")?,
            p50: field("p50")?,
            p95: field("p95")?,
            p99: field("p99")?,
            max: field("max")?,
            mean: v
                .get("mean")
                .and_then(Value::as_f64)
                .ok_or_else(|| ParseError::bad("mean", "load stats missing numeric field"))?,
        })
    }
}

/// Traffic observed on one edge (or through one vertex).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Load {
    /// Packets that traversed it.
    pub packets: u64,
    /// Words those packets carried.
    pub words: u64,
}

/// Per-edge traffic heatmap aggregated from hop records.
///
/// Edges are undirected: `(u, v)` and `(v, u)` accumulate into one cell.
/// The words total equals the engine ledger's delivered-words total when
/// every message of the run was a traced packet — the invariant the flight
/// recorder's accounting tests check.
#[derive(Clone, Debug, Default)]
pub struct EdgeLoadMap {
    loads: HashMap<(u32, u32), Load>,
}

impl EdgeLoadMap {
    /// An empty map.
    pub fn new() -> EdgeLoadMap {
        EdgeLoadMap::default()
    }

    /// Record one packet of `words` words crossing `a — b`.
    pub fn record(&mut self, a: u32, b: u32, words: u64) {
        self.add(a, b, Load { packets: 1, words });
    }

    /// Add an already-aggregated `load` to the cell of `a — b`.
    pub fn add(&mut self, a: u32, b: u32, load: Load) {
        let cell = self.loads.entry((a.min(b), a.max(b))).or_default();
        cell.packets += load.packets;
        cell.words += load.words;
    }

    /// Fold every hop of `trace` into the map.
    pub fn record_trace(&mut self, trace: &PacketTrace) {
        for hop in &trace.hops {
            self.record(hop.vertex, hop.next, hop.header_words as u64);
        }
    }

    /// Number of distinct edges that saw traffic.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether no traffic was recorded.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Total words over all edges.
    pub fn total_words(&self) -> u64 {
        self.loads.values().map(|l| l.words).sum()
    }

    /// Total packet traversals over all edges.
    pub fn total_packets(&self) -> u64 {
        self.loads.values().map(|l| l.packets).sum()
    }

    /// The load on `a — b`, if any.
    pub fn load(&self, a: u32, b: u32) -> Option<Load> {
        self.loads.get(&(a.min(b), a.max(b))).copied()
    }

    /// Distribution of per-edge word loads.
    pub fn stats(&self) -> LoadStats {
        let loads: Vec<u64> = self.loads.values().map(|l| l.words).collect();
        LoadStats::from_loads(&loads)
    }

    /// The `k` hottest edges by word load, descending; ties break toward
    /// the smaller endpoint pair so the ranking is deterministic.
    pub fn hottest(&self, k: usize) -> Vec<((u32, u32), Load)> {
        let mut entries: Vec<((u32, u32), Load)> =
            self.loads.iter().map(|(&e, &l)| (e, l)).collect();
        entries.sort_by(|(ea, la), (eb, lb)| lb.words.cmp(&la.words).then(ea.cmp(eb)));
        entries.truncate(k);
        entries
    }

    /// Fold every cell of `other` into this map.
    pub fn merge(&mut self, other: &EdgeLoadMap) {
        for (&(u, v), &load) in &other.loads {
            self.add(u, v, load);
        }
    }

    /// Serialize as an `edge_load` JSONL record; `extra` fields (e.g. the
    /// offered load level) are appended to the top-level object. Entries are
    /// sorted by endpoint ids so records are deterministic and diffable.
    pub fn to_value(&self, extra: &[(&str, Value)]) -> Value {
        let mut entries: Vec<(&(u32, u32), &Load)> = self.loads.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        let edges: Vec<Value> = entries
            .into_iter()
            .map(|(&(u, v), load)| {
                Value::object(vec![
                    ("u", Value::from(u64::from(u))),
                    ("v", Value::from(u64::from(v))),
                    ("packets", Value::from(load.packets)),
                    ("words", Value::from(load.words)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("type", Value::from("edge_load")),
            ("edges", Value::from(self.len())),
            ("total_packets", Value::from(self.total_packets())),
            ("total_words", Value::from(self.total_words())),
            ("load", self.stats().to_value()),
            ("heatmap", Value::Array(edges)),
        ];
        for (k, v) in extra {
            fields.push((k, v.clone()));
        }
        Value::object(fields)
    }

    /// Parse an `edge_load` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing or ill-typed
    /// field, or a mismatch between the heatmap entries and the recorded
    /// totals.
    pub fn from_value(v: &Value) -> Result<EdgeLoadMap, ParseError> {
        if v.get("type").and_then(Value::as_str) != Some("edge_load") {
            return Err(ParseError::not_record("edge_load"));
        }
        let mut map = EdgeLoadMap::new();
        let entries = v
            .get("heatmap")
            .and_then(Value::as_array)
            .ok_or_else(|| ParseError::missing("heatmap").for_type("edge_load"))?;
        for e in entries {
            let field = |key: &str| {
                e.get(key).and_then(Value::as_u64).ok_or_else(|| {
                    ParseError::bad(key, "heatmap entry missing field").for_type("edge_load")
                })
            };
            let key = (field("u")? as u32, field("v")? as u32);
            let load = map.loads.entry(key).or_default();
            load.packets += field("packets")?;
            load.words += field("words")?;
        }
        let total = v
            .get("total_words")
            .and_then(Value::as_u64)
            .ok_or_else(|| ParseError::missing("total_words").for_type("edge_load"))?;
        if total != map.total_words() {
            return Err(ParseError::bad(
                "total_words",
                format!(
                    "edge_load total_words {total} != heatmap sum {}",
                    map.total_words()
                ),
            )
            .for_type("edge_load"));
        }
        Ok(map)
    }
}

/// Per-vertex forwarding heatmap: traffic each vertex pushed downstream.
#[derive(Clone, Debug, Default)]
pub struct VertexLoadMap {
    loads: HashMap<u32, Load>,
}

impl VertexLoadMap {
    /// An empty map.
    pub fn new() -> VertexLoadMap {
        VertexLoadMap::default()
    }

    /// Record one packet of `words` words forwarded by `v`.
    pub fn record(&mut self, v: u32, words: u64) {
        let load = self.loads.entry(v).or_default();
        load.packets += 1;
        load.words += words;
    }

    /// Fold every hop of `trace` into the map (charged to the forwarder).
    pub fn record_trace(&mut self, trace: &PacketTrace) {
        for hop in &trace.hops {
            self.record(hop.vertex, hop.header_words as u64);
        }
    }

    /// Number of vertices that forwarded traffic.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether no traffic was recorded.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Total words forwarded.
    pub fn total_words(&self) -> u64 {
        self.loads.values().map(|l| l.words).sum()
    }

    /// The load forwarded by `v`, if any.
    pub fn load(&self, v: u32) -> Option<Load> {
        self.loads.get(&v).copied()
    }

    /// Distribution of per-vertex word loads.
    pub fn stats(&self) -> LoadStats {
        let loads: Vec<u64> = self.loads.values().map(|l| l.words).collect();
        LoadStats::from_loads(&loads)
    }

    /// Serialize as a `vertex_load` JSONL record (entries sorted by id).
    pub fn to_value(&self, extra: &[(&str, Value)]) -> Value {
        let mut entries: Vec<(&u32, &Load)> = self.loads.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        let vertices: Vec<Value> = entries
            .into_iter()
            .map(|(&v, load)| {
                Value::object(vec![
                    ("v", Value::from(u64::from(v))),
                    ("packets", Value::from(load.packets)),
                    ("words", Value::from(load.words)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("type", Value::from("vertex_load")),
            ("vertices", Value::from(self.len())),
            ("total_words", Value::from(self.total_words())),
            ("load", self.stats().to_value()),
            ("heatmap", Value::Array(vertices)),
        ];
        for (k, v) in extra {
            fields.push((k, v.clone()));
        }
        Value::object(fields)
    }

    /// Parse a `vertex_load` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing or ill-typed
    /// field, or a mismatch between the heatmap entries and the recorded
    /// totals.
    pub fn from_value(v: &Value) -> Result<VertexLoadMap, ParseError> {
        if v.get("type").and_then(Value::as_str) != Some("vertex_load") {
            return Err(ParseError::not_record("vertex_load"));
        }
        let mut map = VertexLoadMap::new();
        let entries = v
            .get("heatmap")
            .and_then(Value::as_array)
            .ok_or_else(|| ParseError::missing("heatmap").for_type("vertex_load"))?;
        for e in entries {
            let field = |key: &str| {
                e.get(key).and_then(Value::as_u64).ok_or_else(|| {
                    ParseError::bad(key, "heatmap entry missing field").for_type("vertex_load")
                })
            };
            let load = map.loads.entry(field("v")? as u32).or_default();
            load.packets += field("packets")?;
            load.words += field("words")?;
        }
        let total = v
            .get("total_words")
            .and_then(Value::as_u64)
            .ok_or_else(|| ParseError::missing("total_words").for_type("vertex_load"))?;
        if total != map.total_words() {
            return Err(ParseError::bad(
                "total_words",
                format!(
                    "vertex_load total_words {total} != heatmap sum {}",
                    map.total_words()
                ),
            )
            .for_type("vertex_load"));
        }
        Ok(map)
    }
}

/// A fixed-width histogram for per-pair stretch (or any non-negative reals).
///
/// Buckets are `[lo + i·width, lo + (i+1)·width)`; values at or above the
/// top edge land in the last (overflow) bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    total: u64,
    max: f64,
}

impl Histogram {
    /// A histogram of `buckets` cells of `width` starting at `lo`.
    ///
    /// # Panics
    ///
    /// Panics when `buckets` is zero or `width` is not positive.
    pub fn uniform(lo: f64, width: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(width > 0.0, "bucket width must be positive");
        Histogram {
            lo,
            width,
            counts: vec![0; buckets],
            total: 0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket all of `values`. Stretch histograms start at 1.0 (a routed
    /// path is never shorter than the distance) with bucket width 0.25.
    pub fn of_stretch(values: &[f64], buckets: usize) -> Histogram {
        let mut h = Histogram::uniform(1.0, 0.25, buckets.max(1));
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Count one value.
    pub fn add(&mut self, value: f64) {
        let idx = if value < self.lo {
            0
        } else {
            (((value - self.lo) / self.width) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Number of values counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Serialize as a `stretch_histogram` JSONL record.
    pub fn to_value(&self, extra: &[(&str, Value)]) -> Value {
        let buckets: Vec<Value> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                Value::object(vec![
                    ("lo", Value::from(self.lo + i as f64 * self.width)),
                    ("hi", Value::from(self.lo + (i + 1) as f64 * self.width)),
                    ("count", Value::from(count)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("type", Value::from("stretch_histogram")),
            ("total", Value::from(self.total)),
            (
                "max",
                if self.total == 0 {
                    Value::Null
                } else {
                    Value::from(self.max)
                },
            ),
            ("buckets", Value::Array(buckets)),
        ];
        for (k, v) in extra {
            fields.push((k, v.clone()));
        }
        Value::object(fields)
    }

    /// Parse a `stretch_histogram` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing or ill-typed
    /// field, or a total that disagrees with the bucket counts.
    pub fn from_value(v: &Value) -> Result<Histogram, ParseError> {
        if v.get("type").and_then(Value::as_str) != Some("stretch_histogram") {
            return Err(ParseError::not_record("stretch_histogram"));
        }
        let buckets = v
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| ParseError::missing("buckets").for_type("stretch_histogram"))?;
        if buckets.is_empty() {
            return Err(ParseError::bad("buckets", "histogram has no buckets")
                .for_type("stretch_histogram"));
        }
        let edge = |b: &Value, key: &str| {
            b.get(key).and_then(Value::as_f64).ok_or_else(|| {
                ParseError::bad(key, "histogram bucket missing field").for_type("stretch_histogram")
            })
        };
        let lo = edge(&buckets[0], "lo")?;
        let width = edge(&buckets[0], "hi")? - lo;
        if width <= 0.0 {
            return Err(
                ParseError::bad("hi", "histogram bucket width must be positive")
                    .for_type("stretch_histogram"),
            );
        }
        let counts = buckets
            .iter()
            .map(|b| {
                b.get("count").and_then(Value::as_u64).ok_or_else(|| {
                    ParseError::bad("count", "histogram bucket missing field")
                        .for_type("stretch_histogram")
                })
            })
            .collect::<Result<Vec<u64>, ParseError>>()?;
        let total = v
            .get("total")
            .and_then(Value::as_u64)
            .ok_or_else(|| ParseError::missing("total").for_type("stretch_histogram"))?;
        if total != counts.iter().sum::<u64>() {
            return Err(ParseError::bad(
                "total",
                format!(
                    "stretch_histogram total {total} != bucket sum {}",
                    counts.iter().sum::<u64>()
                ),
            )
            .for_type("stretch_histogram"));
        }
        let max = v
            .get("max")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NEG_INFINITY);
        Ok(Histogram {
            lo,
            width,
            counts,
            total,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn hop(
        round: u64,
        vertex: u32,
        next: u32,
        kind: HopKind,
        delay: u64,
        weight: u64,
    ) -> HopRecord {
        HopRecord {
            round,
            vertex,
            port: 0,
            next,
            kind,
            queue_delay: delay,
            weight,
            header_words: 5,
        }
    }

    #[test]
    fn decomposition_splits_ascent_and_descent() {
        let trace = PacketTrace {
            src: 0,
            dst: 3,
            tree_root: 2,
            delivered_round: Some(5),
            hops: vec![
                hop(0, 0, 1, HopKind::Ascent, 0, 4),
                hop(2, 1, 2, HopKind::Ascent, 1, 9),
                hop(4, 2, 3, HopKind::DescentHeavy, 1, 11),
            ],
        };
        let d = trace.decomposition();
        assert_eq!(d.ascent_weight, 9);
        assert_eq!(d.descent_weight, 2);
        assert_eq!(d.ascent_hops, 2);
        assert_eq!(d.descent_hops, 1);
        assert_eq!(d.queue_rounds, 2);
        assert_eq!(trace.total_weight(), 11);
        assert_eq!(trace.queueing_delay(), 2);
        // Delivery round = hops + queueing.
        assert_eq!(
            trace.delivered_round.unwrap(),
            trace.hop_count() as u64 + d.queue_rounds
        );
    }

    #[test]
    fn packet_trace_round_trips_through_json() {
        let trace = PacketTrace {
            src: 7,
            dst: 8,
            tree_root: 1,
            delivered_round: Some(3),
            hops: vec![
                hop(0, 7, 1, HopKind::Ascent, 0, 2),
                hop(1, 1, 9, HopKind::DescentLight, 0, 5),
                hop(2, 9, 8, HopKind::DescentHeavy, 0, 6),
            ],
        };
        let text = trace.to_value().to_string();
        let back = PacketTrace::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn undelivered_trace_serializes_null_round() {
        let trace = PacketTrace {
            src: 0,
            dst: 1,
            tree_root: 0,
            delivered_round: None,
            hops: vec![hop(0, 0, 2, HopKind::Ascent, 0, 1)],
        };
        let v = trace.to_value();
        assert_eq!(v.get("delivered"), Some(&Value::Bool(false)));
        assert_eq!(v.get("delivered_round"), Some(&Value::Null));
        let back = PacketTrace::from_value(&v).unwrap();
        assert_eq!(back.delivered_round, None);
    }

    #[test]
    fn edge_load_map_normalizes_direction_and_sums() {
        let mut map = EdgeLoadMap::new();
        map.record(3, 1, 10);
        map.record(1, 3, 5);
        map.record(0, 1, 7);
        assert_eq!(map.len(), 2);
        assert_eq!(map.load(1, 3).unwrap().packets, 2);
        assert_eq!(map.load(1, 3).unwrap().words, 15);
        assert_eq!(map.total_words(), 22);
        assert_eq!(map.total_packets(), 3);
        let stats = map.stats();
        assert_eq!(stats.max, 15);
        assert_eq!(stats.min, 7);
    }

    #[test]
    fn edge_load_round_trips_through_json() {
        let mut map = EdgeLoadMap::new();
        map.record(0, 1, 4);
        map.record(1, 2, 9);
        map.record(2, 1, 9);
        let text = map.to_value(&[("packets", Value::from(3u64))]).to_string();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("packets").unwrap().as_u64(), Some(3));
        let back = EdgeLoadMap::from_value(&v).unwrap();
        assert_eq!(back.total_words(), map.total_words());
        assert_eq!(back.load(1, 2), map.load(1, 2));
    }

    #[test]
    fn hottest_ranks_by_words_with_deterministic_ties() {
        let mut map = EdgeLoadMap::new();
        map.record(0, 1, 5);
        map.record(2, 3, 9);
        map.record(4, 5, 9);
        map.record(6, 7, 1);
        let top = map.hottest(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, (2, 3)); // ties break toward smaller endpoints
        assert_eq!(top[1].0, (4, 5));
        assert_eq!(top[2].0, (0, 1));
        assert!(map.hottest(10).len() == 4);
    }

    #[test]
    fn merge_folds_cells() {
        let mut a = EdgeLoadMap::new();
        a.record(0, 1, 5);
        let mut b = EdgeLoadMap::new();
        b.record(1, 0, 3);
        b.record(2, 3, 2);
        a.merge(&b);
        assert_eq!(a.load(0, 1).unwrap().words, 8);
        assert_eq!(a.load(0, 1).unwrap().packets, 2);
        assert_eq!(a.total_words(), 10);
    }

    #[test]
    fn edge_load_rejects_total_mismatch() {
        let mut map = EdgeLoadMap::new();
        map.record(0, 1, 4);
        let mut v = map.to_value(&[]);
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "total_words" {
                    *val = Value::from(999u64);
                }
            }
        }
        assert!(EdgeLoadMap::from_value(&v).is_err());
    }

    #[test]
    fn vertex_load_tracks_forwarders() {
        let trace = PacketTrace {
            src: 0,
            dst: 2,
            tree_root: 1,
            delivered_round: Some(2),
            hops: vec![
                hop(0, 0, 1, HopKind::Ascent, 0, 1),
                hop(1, 1, 2, HopKind::DescentHeavy, 0, 2),
            ],
        };
        let mut map = VertexLoadMap::new();
        map.record_trace(&trace);
        assert_eq!(map.len(), 2);
        assert_eq!(map.load(0).unwrap().words, 5);
        assert_eq!(map.total_words(), 10);
        assert!(map.load(2).is_none(), "the target forwarded nothing");
    }

    #[test]
    fn load_stats_percentiles() {
        let loads: Vec<u64> = (1..=100).collect();
        let s = LoadStats::from_loads(&loads);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 51);
        assert_eq!(s.p95, 96);
        assert_eq!(s.p99, 100);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(LoadStats::from_loads(&[]), LoadStats::default());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::uniform(1.0, 0.5, 4);
        for v in [1.0, 1.2, 1.6, 2.9, 10.0, 0.5] {
            h.add(v);
        }
        // [1.0,1.5): 1.0, 1.2, and the clamped-under 0.5.
        assert_eq!(h.counts(), &[3, 1, 0, 2]);
        assert_eq!(h.total(), 6);
        let v = h.to_value(&[("k", Value::from(3u64))]);
        assert_eq!(v.get("type").unwrap().as_str(), Some("stretch_histogram"));
        assert_eq!(v.get("total").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        let buckets = v.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 4);
        let sum: u64 = buckets
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn stretch_histogram_of_values() {
        let h = Histogram::of_stretch(&[1.0, 1.1, 1.3, 2.0], 8);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 2); // [1.0, 1.25)
        let v = h.to_value(&[]);
        assert!((v.get("max").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-12);
    }
}
