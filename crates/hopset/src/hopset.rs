//! The hopset data structure: out-edge oriented, arboricity-bounded.
//!
//! Each virtual vertex stores only its *outgoing* hopset edges. The paper's
//! low-memory results hinge on this orientation having small out-degree
//! (which bounds the arboricity): a vertex never stores the `Ω(√n)` edges
//! that might point *at* it — Bellman–Ford over incoming edges works because
//! senders broadcast their out-edges along with their estimates (Lemma 2).

use graphs::{VertexId, Weight};

/// One directed hopset record held by its source vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopsetEdge {
    /// The other endpoint.
    pub to: VertexId,
    /// The edge weight = length of the `G`-path realizing it.
    pub weight: Weight,
}

/// A hopset over a host universe, stored as per-vertex out-edge lists plus,
/// for path recovery, the `G`-path realizing each edge.
#[derive(Clone, Debug, Default)]
pub struct Hopset {
    out: Vec<Vec<HopsetEdge>>,
    /// `paths[v][j]` = host path realizing `out[v][j]`, from `v` to `to`
    /// inclusive. Held by the *simulation* for the path-recovery protocol;
    /// no vertex stores whole paths (each path vertex knows only its own
    /// predecessor, which is what recovery distributes).
    paths: Vec<Vec<Vec<VertexId>>>,
}

impl Hopset {
    /// An empty hopset over `n` host vertices.
    pub fn new(n: usize) -> Self {
        Hopset {
            out: vec![Vec::new(); n],
            paths: vec![Vec::new(); n],
        }
    }

    /// Host universe size.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Add a directed record `from → to` with the realizing path.
    ///
    /// # Panics
    ///
    /// Panics if the path does not start at `from` and end at `to`.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, weight: Weight, path: Vec<VertexId>) {
        assert_eq!(path.first(), Some(&from), "path must start at source");
        assert_eq!(path.last(), Some(&to), "path must end at target");
        self.out[from.index()].push(HopsetEdge { to, weight });
        self.paths[from.index()].push(path);
    }

    /// The out-edges stored at `v`.
    pub fn out_edges(&self, v: VertexId) -> &[HopsetEdge] {
        &self.out[v.index()]
    }

    /// The `G`-path realizing the `j`-th out-edge of `v`.
    pub fn path(&self, v: VertexId, j: usize) -> &[VertexId] {
        &self.paths[v.index()][j]
    }

    /// Total number of directed records.
    pub fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Maximum out-degree — the arboricity bound `α`: the out-edge lists are
    /// an orientation with out-degree ≤ α, so the edges decompose into α
    /// pseudoforests (the `f`-th out-edge of every vertex forms forest `f`;
    /// see [`Hopset::out_edges`]).
    pub fn max_out_degree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Words of memory vertex `v` devotes to its hopset edges (2 per record).
    pub fn memory_words(&self, v: VertexId) -> usize {
        2 * self.out[v.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hopset {
        let mut h = Hopset::new(5);
        h.add_edge(
            VertexId(0),
            VertexId(2),
            7,
            vec![VertexId(0), VertexId(1), VertexId(2)],
        );
        h.add_edge(VertexId(0), VertexId(3), 4, vec![VertexId(0), VertexId(3)]);
        h.add_edge(VertexId(2), VertexId(4), 2, vec![VertexId(2), VertexId(4)]);
        h
    }

    #[test]
    fn counts_and_degrees() {
        let h = sample();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.max_out_degree(), 2);
        assert_eq!(h.out_edges(VertexId(0)).len(), 2);
        assert_eq!(h.out_edges(VertexId(1)).len(), 0);
        assert_eq!(h.memory_words(VertexId(0)), 4);
    }

    #[test]
    fn paths_align_with_edges() {
        let h = sample();
        assert_eq!(
            h.path(VertexId(0), 0),
            &[VertexId(0), VertexId(1), VertexId(2)]
        );
        assert_eq!(h.path(VertexId(0), 1), &[VertexId(0), VertexId(3)]);
    }

    #[test]
    #[should_panic(expected = "path must start at source")]
    fn rejects_misaligned_path() {
        let mut h = Hopset::new(3);
        h.add_edge(VertexId(0), VertexId(2), 1, vec![VertexId(1), VertexId(2)]);
    }
}
