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
//! [`LoadMap`]s, per edge or per vertex, are heatmaps whose word totals are
//! checkable against the engine's congestion ledger, and [`Histogram`]
//! buckets per-pair stretch for the figure reports.
//!
//! Everything serializes to (and parses back from) the crate's JSONL record
//! schema, each shape declared once through [`record!`](crate::record!): `packet_trace`, `edge_load`, `vertex_load`, and
//! `stretch_histogram` records ride in the same run reports as the
//! construction spans. Vertices are named by raw `u32` ids so this crate
//! stays dependency-free.

use crate::error::ParseError;
use crate::json::Value;
use crate::record;

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

record! {
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

record! {
    /// The complete journey of one traced packet, serialized as a
    /// `packet_trace` JSONL record.
    #[derive(Clone, Debug, PartialEq)]
    pub struct PacketTrace: "packet_trace" {
        /// Source vertex.
        pub src: u32,
        /// Destination vertex.
        pub dst: u32,
        /// Root of the tree the source committed to.
        pub tree_root: u32,
        + "delivered" = |t| t.delivered_round.is_some(),
        /// Round of delivery (`None` if the packet was dropped mid-route).
        pub delivered_round: Option<u64>,
        + "weight" = |t| t.total_weight(),
        + "hops" = |t| t.hop_count(),
        + "ascent_weight" = |t| t.decomposition().ascent_weight,
        + "descent_weight" = |t| t.decomposition().descent_weight,
        + "queue_rounds" = |t| t.decomposition().queue_rounds,
        /// One record per edge traversal, in order.
        pub hops: Vec<HopRecord> => "path",
    }
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
}

record! {
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
}

/// Traffic observed on one edge (or through one vertex).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Load {
    /// Packets that traversed it.
    pub packets: u64,
    /// Words those packets carried.
    pub words: u64,
}

impl Load {
    /// One packet of `words` words.
    pub fn packet(words: u64) -> Load {
        Load { packets: 1, words }
    }
}

/// A load heatmap: the cells that saw traffic, each with its [`Load`],
/// sorted by key with equal keys merged.
///
/// A map is built once, from `(key, load)` pairs in any order
/// ([`FromIterator`]), when a report or a test reads it: a run keeps
/// per-arc counters, not a map. [`EdgeLoadMap`] and [`VertexLoadMap`] are
/// its two shapes, each with its own JSONL record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadMap<K> {
    cells: Vec<(K, Load)>,
}

/// Per-edge traffic heatmap. Edges are undirected: key both orientations
/// by [`edge`], so `a — b` and `b — a` share one cell. The words total
/// equals the engine ledger's delivered-words total when every message of
/// the run was a packet — the invariant the flight recorder's accounting
/// tests check.
pub type EdgeLoadMap = LoadMap<(u32, u32)>;

/// Per-vertex forwarding heatmap: traffic each vertex pushed downstream.
pub type VertexLoadMap = LoadMap<u32>;

/// The [`EdgeLoadMap`] key of the undirected edge `a — b`: its endpoints,
/// smaller first.
pub fn edge(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl<K: Ord> FromIterator<(K, Load)> for LoadMap<K> {
    fn from_iter<I: IntoIterator<Item = (K, Load)>>(iter: I) -> LoadMap<K> {
        let mut cells: Vec<(K, Load)> = iter.into_iter().collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        cells.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1.packets += next.1.packets;
                kept.1.words += next.1.words;
            }
            same
        });
        LoadMap { cells }
    }
}

impl<K: Ord + Copy> LoadMap<K> {
    /// Number of cells that saw traffic.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no traffic was recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total words over all cells.
    pub fn total_words(&self) -> u64 {
        self.cells.iter().map(|(_, l)| l.words).sum()
    }

    /// Total packets over all cells.
    pub fn total_packets(&self) -> u64 {
        self.cells.iter().map(|(_, l)| l.packets).sum()
    }

    /// The load on `key`, if any.
    pub fn load(&self, key: K) -> Option<Load> {
        let at = self.cells.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
        Some(self.cells[at].1)
    }

    /// Distribution of per-cell word loads.
    pub fn stats(&self) -> LoadStats {
        let loads: Vec<u64> = self.cells.iter().map(|(_, l)| l.words).collect();
        LoadStats::from_loads(&loads)
    }

    /// The `k` hottest cells by word load, descending; ties break toward
    /// the smaller key (a stable sort of key-sorted cells).
    pub fn hottest(&self, k: usize) -> Vec<(K, Load)> {
        let mut top = self.cells.clone();
        top.sort_by_key(|(_, l)| std::cmp::Reverse(l.words));
        top.truncate(k);
        top
    }
}

record! {
    /// One `edge_load` heatmap cell.
    struct EdgeCell {
        u: u32,
        v: u32,
        packets: u64,
        words: u64,
    }
}

record! {
    /// The `edge_load` line an [`EdgeLoadMap`] is written as.
    struct EdgeLoadRecord(extra: &[(&str, Value)]): "edge_load" {
        edges: usize,
        total_packets: u64,
        total_words: u64,
        load: LoadStats,
        heatmap: Vec<EdgeCell>,
        ..extra
    }
    validate
}

impl EdgeLoadRecord {
    fn validate(&self) -> Result<(), ParseError> {
        let sum: u64 = self.heatmap.iter().map(|c| c.words).sum();
        heatmap_total("edge_load", self.total_words, sum)
    }
}

/// A heatmap's recorded word total must equal the sum over its cells.
fn heatmap_total(ty: &str, total: u64, sum: u64) -> Result<(), ParseError> {
    if total == sum {
        return Ok(());
    }
    Err(ParseError::bad(
        "total_words",
        format!("{ty} total_words {total} != heatmap sum {sum}"),
    ))
}

impl EdgeLoadMap {
    /// Serialize as an `edge_load` JSONL record; `extra` fields (e.g. the
    /// offered load level) are appended to the top-level object. Cells are
    /// written in key order, so records are deterministic and diffable.
    pub fn to_value(&self, extra: &[(&str, Value)]) -> Value {
        let heatmap = self.cells.iter().map(|&((u, v), load)| EdgeCell {
            u,
            v,
            packets: load.packets,
            words: load.words,
        });
        let record = EdgeLoadRecord {
            edges: self.len(),
            total_packets: self.total_packets(),
            total_words: self.total_words(),
            load: self.stats(),
            heatmap: heatmap.collect(),
        };
        record.to_value(extra)
    }

    /// Parse an `edge_load` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing, ill-typed or
    /// out-of-range field, or a mismatch between the heatmap entries and
    /// the recorded totals.
    pub fn from_value(v: &Value) -> Result<EdgeLoadMap, ParseError> {
        let cells = EdgeLoadRecord::from_value(v)?.heatmap.into_iter();
        let load = |packets, words| Load { packets, words };
        Ok(cells
            .map(|c| (edge(c.u, c.v), load(c.packets, c.words)))
            .collect())
    }
}

record! {
    /// One `vertex_load` heatmap cell.
    struct VertexCell {
        v: u32,
        packets: u64,
        words: u64,
    }
}

record! {
    /// The `vertex_load` line a [`VertexLoadMap`] is written as.
    struct VertexLoadRecord(extra: &[(&str, Value)]): "vertex_load" {
        vertices: usize,
        total_words: u64,
        load: LoadStats,
        heatmap: Vec<VertexCell>,
        ..extra
    }
    validate
}

impl VertexLoadRecord {
    fn validate(&self) -> Result<(), ParseError> {
        let sum: u64 = self.heatmap.iter().map(|c| c.words).sum();
        heatmap_total("vertex_load", self.total_words, sum)
    }
}

impl VertexLoadMap {
    /// Serialize as a `vertex_load` JSONL record (cells in id order).
    pub fn to_value(&self, extra: &[(&str, Value)]) -> Value {
        let heatmap = self.cells.iter().map(|&(v, load)| VertexCell {
            v,
            packets: load.packets,
            words: load.words,
        });
        let record = VertexLoadRecord {
            vertices: self.len(),
            total_words: self.total_words(),
            load: self.stats(),
            heatmap: heatmap.collect(),
        };
        record.to_value(extra)
    }

    /// Parse a `vertex_load` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing, ill-typed or
    /// out-of-range field, or a mismatch between the heatmap entries and
    /// the recorded totals.
    pub fn from_value(v: &Value) -> Result<VertexLoadMap, ParseError> {
        let cells = VertexLoadRecord::from_value(v)?.heatmap.into_iter();
        let load = |packets, words| Load { packets, words };
        Ok(cells.map(|c| (c.v, load(c.packets, c.words))).collect())
    }
}

record! {
    /// One `stretch_histogram` bucket, `[lo, hi)`.
    struct Bucket {
        lo: f64,
        hi: f64,
        count: u64,
    }
}

record! {
    /// The `stretch_histogram` line a [`Histogram`] is written as. `max` is
    /// `null` for an empty histogram.
    struct HistogramRecord(extra: &[(&str, Value)]): "stretch_histogram" {
        total: u64,
        max: Option<f64>,
        buckets: Vec<Bucket>,
        ..extra
    }
    validate
}

impl HistogramRecord {
    fn validate(&self) -> Result<(), ParseError> {
        let Some(first) = self.buckets.first() else {
            return Err(ParseError::bad("buckets", "histogram has no buckets"));
        };
        if first.hi - first.lo <= 0.0 {
            return Err(ParseError::bad(
                "hi",
                "histogram bucket width must be positive",
            ));
        }
        let sum: u64 = self.buckets.iter().map(|b| b.count).sum();
        if self.total != sum {
            return Err(ParseError::bad(
                "total",
                format!("stretch_histogram total {} != bucket sum {sum}", self.total),
            ));
        }
        Ok(())
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
    fn uniform(lo: f64, width: f64, buckets: usize) -> Histogram {
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
        let edge = |i: usize| self.lo + i as f64 * self.width;
        let buckets = self.counts.iter().enumerate().map(|(i, &count)| Bucket {
            lo: edge(i),
            hi: edge(i + 1),
            count,
        });
        let record = HistogramRecord {
            total: self.total,
            max: (self.total > 0).then_some(self.max),
            buckets: buckets.collect(),
        };
        record.to_value(extra)
    }

    /// Parse a `stretch_histogram` record back.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first missing or ill-typed
    /// field, or a total that disagrees with the bucket counts.
    pub fn from_value(v: &Value) -> Result<Histogram, ParseError> {
        let record = HistogramRecord::from_value(v)?;
        let first = &record.buckets[0]; // `validate` rejected an empty list
        Ok(Histogram {
            lo: first.lo,
            width: first.hi - first.lo,
            counts: record.buckets.iter().map(|b| b.count).collect(),
            total: record.total,
            max: record.max.unwrap_or(f64::NEG_INFINITY),
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

    fn sample_trace() -> PacketTrace {
        PacketTrace {
            src: 7,
            dst: 8,
            tree_root: 1,
            delivered_round: Some(4),
            hops: vec![
                hop(0, 7, 1, HopKind::Ascent, 0, 2),
                hop(2, 1, 9, HopKind::DescentLight, 1, 5),
                hop(3, 9, 8, HopKind::DescentHeavy, 0, 6),
            ],
        }
    }

    #[test]
    fn packet_trace_bytes_are_pinned() {
        let pinned = r#"{"type":"packet_trace","src":7,"dst":8,"tree_root":1,"delivered":true,"delivered_round":4,"weight":6,"hops":3,"ascent_weight":2,"descent_weight":4,"queue_rounds":1,"path":[{"round":0,"vertex":7,"port":0,"next":1,"kind":"ascent","queue_delay":0,"weight":2,"header_words":5},{"round":2,"vertex":1,"port":0,"next":9,"kind":"descent-light","queue_delay":1,"weight":5,"header_words":5},{"round":3,"vertex":9,"port":0,"next":8,"kind":"descent-heavy","queue_delay":0,"weight":6,"header_words":5}]}"#;
        assert_eq!(sample_trace().to_value().to_string(), pinned);
        let parsed = PacketTrace::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, sample_trace());
    }

    /// One packet of `words` words per `(a, b, words)` crossing.
    fn edges_of(crossings: &[(u32, u32, u64)]) -> EdgeLoadMap {
        let cells = crossings
            .iter()
            .map(|&(a, b, words)| (edge(a, b), Load::packet(words)));
        cells.collect()
    }

    /// Every hop of `trace` as an `(a, b, words)` crossing.
    fn crossings(trace: &PacketTrace) -> Vec<(u32, u32, u64)> {
        let hops = trace.hops.iter();
        hops.map(|h| (h.vertex, h.next, h.header_words as u64))
            .collect()
    }

    /// Every hop of `trace`, charged to its forwarder.
    fn forwarders(trace: &PacketTrace) -> VertexLoadMap {
        let hops = trace.hops.iter();
        hops.map(|h| (h.vertex, Load::packet(h.header_words as u64)))
            .collect()
    }

    #[test]
    fn load_map_bytes_are_pinned() {
        let extra = [("rate", Value::from(0.5))];
        let mut hops = crossings(&sample_trace());
        hops.push((9, 1, 3));
        let edges = edges_of(&hops);
        let pinned = r#"{"type":"edge_load","edges":3,"total_packets":4,"total_words":18,"load":{"min":5,"p50":5,"p95":8,"p99":8,"max":8,"mean":6},"heatmap":[{"u":1,"v":7,"packets":1,"words":5},{"u":1,"v":9,"packets":2,"words":8},{"u":8,"v":9,"packets":1,"words":5}],"rate":0.5}"#;
        assert_eq!(edges.to_value(&extra).to_string(), pinned);
        let parsed = EdgeLoadMap::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, edges);

        let vertices = forwarders(&sample_trace());
        let pinned = r#"{"type":"vertex_load","vertices":3,"total_words":15,"load":{"min":5,"p50":5,"p95":5,"p99":5,"max":5,"mean":5},"heatmap":[{"v":1,"packets":1,"words":5},{"v":7,"packets":1,"words":5},{"v":9,"packets":1,"words":5}],"rate":0.5}"#;
        assert_eq!(vertices.to_value(&extra).to_string(), pinned);
        let parsed = VertexLoadMap::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, vertices);
    }

    #[test]
    fn histogram_bytes_are_pinned() {
        let h = Histogram::of_stretch(&[1.0, 1.1, 1.3, 2.0, 9.5], 4);
        let pinned = r#"{"type":"stretch_histogram","total":5,"max":9.5,"buckets":[{"lo":1,"hi":1.25,"count":2},{"lo":1.25,"hi":1.5,"count":1},{"lo":1.5,"hi":1.75,"count":0},{"lo":1.75,"hi":2,"count":2}],"k":3}"#;
        let extra = [("k", Value::from(3u64))];
        assert_eq!(h.to_value(&extra).to_string(), pinned);
        let parsed = Histogram::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, h);
        // An empty histogram writes `max` as null and reads it back.
        let empty = Histogram::uniform(1.0, 0.25, 2);
        let pinned = r#"{"type":"stretch_histogram","total":0,"max":null,"buckets":[{"lo":1,"hi":1.25,"count":0},{"lo":1.25,"hi":1.5,"count":0}]}"#;
        assert_eq!(empty.to_value(&[]).to_string(), pinned);
        let parsed = Histogram::from_value(&json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, empty);
    }

    /// `record` with the first `"key":<old>` replaced by `"key":<new>`.
    fn tampered(record: &Value, old: &str, new: &str) -> Value {
        let text = record.to_string();
        assert!(text.contains(old), "{old} not in {text}");
        json::parse(&text.replacen(old, new, 1)).unwrap()
    }

    #[test]
    fn packet_trace_rejects_ids_that_do_not_fit() {
        // 2^32 + 1 is not vertex 1.
        let trace = sample_trace().to_value();
        let err = PacketTrace::from_value(&tampered(&trace, r#""src":7"#, r#""src":4294967297"#))
            .unwrap_err();
        assert_eq!(err.field.as_deref(), Some("src"));
        assert_eq!(err.record_type.as_deref(), Some("packet_trace"));
        assert_eq!(err.message, "out of range");
        let hop = tampered(&trace, r#""next":9"#, r#""next":4294967305"#);
        let err = PacketTrace::from_value(&hop).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("next"));
    }

    #[test]
    fn load_maps_reject_heatmap_keys_that_do_not_fit() {
        let edges = edges_of(&[(1, 7, 5)]);
        let bad = tampered(&edges.to_value(&[]), r#""v":7"#, r#""v":4294967303"#);
        let err = EdgeLoadMap::from_value(&bad).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("v"));
        assert_eq!(err.record_type.as_deref(), Some("edge_load"));

        let vertices: VertexLoadMap = [(7, Load::packet(5))].into_iter().collect();
        let bad = tampered(&vertices.to_value(&[]), r#""v":7"#, r#""v":4294967303"#);
        let err = VertexLoadMap::from_value(&bad).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("v"));
        assert_eq!(err.record_type.as_deref(), Some("vertex_load"));
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
        let map = edges_of(&[(3, 1, 10), (1, 3, 5), (0, 1, 7)]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.load(edge(3, 1)).unwrap().packets, 2);
        assert_eq!(map.load((1, 3)).unwrap().words, 15);
        assert_eq!(map.total_words(), 22);
        assert_eq!(map.total_packets(), 3);
        let stats = map.stats();
        assert_eq!(stats.max, 15);
        assert_eq!(stats.min, 7);
    }

    #[test]
    fn edge_load_round_trips_through_json() {
        let map = edges_of(&[(0, 1, 4), (1, 2, 9), (2, 1, 9)]);
        let text = map.to_value(&[("packets", Value::from(3u64))]).to_string();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("packets").unwrap().as_u64(), Some(3));
        let back = EdgeLoadMap::from_value(&v).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.load((1, 2)).unwrap().words, 18);
    }

    #[test]
    fn hottest_ranks_by_words_with_deterministic_ties() {
        let map = edges_of(&[(0, 1, 5), (5, 4, 9), (2, 3, 9), (6, 7, 1)]);
        let top = map.hottest(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, (2, 3)); // ties break toward smaller endpoints
        assert_eq!(top[1].0, (4, 5));
        assert_eq!(top[2].0, (0, 1));
        assert!(map.hottest(10).len() == 4);
    }

    #[test]
    fn edge_load_rejects_total_mismatch() {
        let mut v = edges_of(&[(0, 1, 4)]).to_value(&[]);
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
        let map = forwarders(&trace);
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
