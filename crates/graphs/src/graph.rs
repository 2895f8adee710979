//! The weighted undirected graph representation used throughout the workspace.

use std::fmt;

/// Edge weights and distances. Weights are strictly positive integers; using
/// integers (rather than floats) keeps every algorithm deterministic and makes
/// equality assertions in tests exact.
pub type Weight = u64;

/// The distance sentinel for "unreachable". Use [`crate::dist_add`] to add
/// distances so that `INFINITY` is absorbing.
pub const INFINITY: Weight = u64::MAX;

/// The largest total edge weight a graph may have, `Weight::MAX >> 8`. Every
/// path weighs at most the total, so under this bound every distance, every
/// oracle sum of two distances and every route of stretch at most 255 (which
/// covers `4k − 3` for `k ≤ 64`) stays finite, well below [`INFINITY`].
pub const MAX_TOTAL_WEIGHT: Weight = Weight::MAX >> 8;

/// Identifier of a vertex: a dense index in `0..n`.
///
/// # Examples
///
/// ```
/// use graphs::VertexId;
/// let v = VertexId(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index into per-vertex arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

/// Identifier of an undirected edge: a dense index in `0..m`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index into per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One directed half of an undirected edge, as seen from its source vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// The other endpoint.
    pub to: VertexId,
    /// The weight of the underlying undirected edge.
    pub weight: Weight,
    /// The id of the underlying undirected edge (shared by both directions).
    pub edge: EdgeId,
}

/// A weighted undirected graph in compressed adjacency (CSR) form.
///
/// Vertices are `0..n`; parallel edges and self-loops are rejected at build
/// time. The representation is immutable once built — construct one through
/// [`GraphBuilder`].
///
/// # Examples
///
/// ```
/// use graphs::{Graph, GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1), 5);
/// b.add_edge(VertexId(1), VertexId(2), 7);
/// let g: Graph = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(VertexId(1)), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: arcs of vertex `v` are `arcs[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    arcs: Vec<Arc>,
    /// Endpoints of each undirected edge, `u < v`.
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.num_vertices())
            .field("m", &self.num_edges())
            .finish()
    }
}

impl Graph {
    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// The arcs (directed halves of undirected edges) leaving `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Arc] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// The degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Endpoints and weight of undirected edge `e`, with the smaller endpoint
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId, Weight) {
        self.edges[e.index()]
    }

    /// Iterator over all undirected edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.edges.iter().copied()
    }

    /// The weight of the edge between `u` and `v`, if one exists.
    ///
    /// Linear in `deg(u)`; intended for tests and assertions, not hot loops.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.neighbors(u)
            .iter()
            .find(|a| a.to == v)
            .map(|a| a.weight)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Maximum vertex degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The ratio Λ between the largest and smallest edge weight, or `None`
    /// for edgeless graphs. The paper's prior work has `log Λ` factors in its
    /// round complexity; benches report this to contextualize round counts.
    pub fn aspect_ratio(&self) -> Option<f64> {
        let min = self.edges.iter().map(|&(_, _, w)| w).min()?;
        let max = self.edges.iter().map(|&(_, _, w)| w).max()?;
        Some(max as f64 / min as f64)
    }
}

/// Incremental builder for [`Graph`].
///
/// Deduplicates nothing: adding the same unordered pair twice is a logic error
/// and is rejected in [`GraphBuilder::build`] (debug) to keep simulations
/// well-defined.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop), if either endpoint is out of range, or
    /// if `w == 0` (the schemes require strictly positive weights).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        assert!(u != v, "self-loop {u} rejected");
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge {u}-{v} out of range for n={}",
            self.n
        );
        assert!(w > 0, "edge weights must be strictly positive");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
        self
    }

    /// Whether the unordered pair `{u, v}` has already been added.
    ///
    /// Linear in the number of edges added so far; generators that need fast
    /// membership keep their own hash set.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.iter().any(|&(x, y, _)| (x, y) == (a, b))
    }

    /// Finalize into an immutable [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if the same unordered pair was added twice, or if the edge
    /// weights sum to more than [`MAX_TOTAL_WEIGHT`].
    pub fn build(&self) -> Graph {
        let total = self.edges.iter().try_fold(0 as Weight, |sum, &(_, _, w)| {
            sum.checked_add(w).filter(|&s| s <= MAX_TOTAL_WEIGHT)
        });
        assert!(
            total.is_some(),
            "total edge weight exceeds {MAX_TOTAL_WEIGHT}"
        );
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        for pair in edges.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) != (pair[1].0, pair[1].1),
                "parallel edge {}-{}",
                pair[0].0,
                pair[0].1
            );
        }
        let mut deg = vec![0u32; self.n];
        for &(u, v, _) in &edges {
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut arcs = vec![
            Arc {
                to: VertexId(0),
                weight: 0,
                edge: EdgeId(0)
            };
            2 * edges.len()
        ];
        for (i, &(u, v, w)) in edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            arcs[cursor[u.index()] as usize] = Arc {
                to: v,
                weight: w,
                edge: e,
            };
            cursor[u.index()] += 1;
            arcs[cursor[v.index()] as usize] = Arc {
                to: u,
                weight: w,
                edge: e,
            };
            cursor[v.index()] += 1;
        }
        Graph {
            offsets,
            arcs,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 2);
        b.add_edge(VertexId(2), VertexId(0), 3);
        b.build()
    }

    #[test]
    fn builds_csr_adjacency() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(1));
        assert_eq!(g.edge_weight(VertexId(1), VertexId(0)), Some(1));
        assert_eq!(g.edge_weight(VertexId(0), VertexId(2)), Some(3));
    }

    #[test]
    fn edge_ids_are_shared_between_directions() {
        let g = triangle();
        for (u, v, w) in g.edges() {
            let a = g.neighbors(u).iter().find(|a| a.to == v).unwrap();
            let b = g.neighbors(v).iter().find(|a| a.to == u).unwrap();
            assert_eq!(a.edge, b.edge);
            assert_eq!(a.weight, w);
            assert_eq!(b.weight, w);
        }
    }

    #[test]
    fn edge_lookup_by_id_matches_iteration() {
        let g = triangle();
        for (i, (u, v, w)) in g.edges().enumerate() {
            assert_eq!(g.edge(EdgeId(i as u32)), (u, v, w));
            assert!(u < v);
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.aspect_ratio(), None);
    }

    #[test]
    fn isolated_vertices_have_degree_zero() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(VertexId(0), VertexId(4), 9);
        let g = b.build();
        assert_eq!(g.degree(VertexId(2)), 0);
        assert_eq!(g.degree(VertexId(0)), 1);
        assert_eq!(g.degree(VertexId(4)), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId(1), VertexId(1), 1);
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn rejects_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(0), 2);
        b.build();
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId(0), VertexId(1), 0);
    }

    #[test]
    fn has_edge_is_orientation_insensitive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(2), VertexId(0), 4);
        assert!(b.has_edge(VertexId(0), VertexId(2)));
        assert!(b.has_edge(VertexId(2), VertexId(0)));
        assert!(!b.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn aspect_ratio_and_total_weight() {
        let g = triangle();
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.aspect_ratio(), Some(3.0));
    }
}
