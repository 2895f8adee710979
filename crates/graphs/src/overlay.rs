//! Tombstone overlay: a mutable alive/dead view over an immutable [`Graph`].
//!
//! The CSR [`Graph`] is deliberately immutable — schemes, simulators, and
//! shortest-path oracles all assume stable vertex and edge ids. Failure
//! processes (one-shot perturbation in `routing::audit`, multi-round churn in
//! the `churn` crate) therefore never mutate the graph; they maintain an
//! [`Overlay`] of per-vertex and per-edge tombstones on top of it and
//! materialize the surviving subgraph with [`Overlay::build_graph`] when a
//! simulator needs a concrete `Graph` again.
//!
//! An edge is *usable* iff it is not tombstoned itself **and** both endpoints
//! are alive; killing a vertex implicitly disables its incident edges without
//! touching their own tombstones, so reviving the vertex restores them.

use crate::graph::{EdgeId, Graph, GraphBuilder, VertexId};
use rand::Rng;

/// Alive/dead masks over a fixed base graph. Vertex and edge ids of the base
/// graph remain valid throughout; the overlay only reinterprets them.
#[derive(Clone, Debug)]
pub struct Overlay {
    alive_vertex: Vec<bool>,
    alive_edge: Vec<bool>,
}

impl Overlay {
    /// A fresh overlay over `g` with every vertex and edge alive.
    pub fn new(g: &Graph) -> Self {
        Overlay {
            alive_vertex: vec![true; g.num_vertices()],
            alive_edge: vec![true; g.num_edges()],
        }
    }

    /// Whether vertex `v` is alive.
    #[inline]
    pub fn vertex_alive(&self, v: VertexId) -> bool {
        self.alive_vertex[v.index()]
    }

    /// Whether edge `e` of `g` can carry traffic: not tombstoned and both
    /// endpoints alive.
    #[inline]
    pub fn edge_usable(&self, g: &Graph, e: EdgeId) -> bool {
        let (u, v, _) = g.edge(e);
        self.alive_edge[e.index()] && self.alive_vertex[u.index()] && self.alive_vertex[v.index()]
    }

    /// Tombstone vertex `v`. Returns `true` if it was alive.
    pub fn kill_vertex(&mut self, v: VertexId) -> bool {
        std::mem::replace(&mut self.alive_vertex[v.index()], false)
    }

    /// Clear the tombstone on vertex `v`. Returns `true` if it was dead.
    pub fn revive_vertex(&mut self, v: VertexId) -> bool {
        !std::mem::replace(&mut self.alive_vertex[v.index()], true)
    }

    /// Tombstone edge `e`. Returns `true` if it was alive.
    pub fn kill_edge(&mut self, e: EdgeId) -> bool {
        std::mem::replace(&mut self.alive_edge[e.index()], false)
    }

    /// The per-vertex alive mask, indexed by `VertexId`.
    pub fn alive_vertices(&self) -> &[bool] {
        &self.alive_vertex
    }

    /// Number of tombstoned vertices.
    pub fn killed_vertices(&self) -> usize {
        self.alive_vertex.iter().filter(|&&a| !a).count()
    }

    /// Number of usable edges of `g` under this overlay.
    pub fn surviving_edges(&self, g: &Graph) -> usize {
        (0..g.num_edges())
            .filter(|&i| self.edge_usable(g, EdgeId(i as u32)))
            .count()
    }

    /// Degree of `v` counting only usable edges (0 if `v` itself is dead).
    pub fn alive_degree(&self, g: &Graph, v: VertexId) -> usize {
        if !self.vertex_alive(v) {
            return 0;
        }
        g.neighbors(v)
            .iter()
            .filter(|a| self.edge_usable(g, a.edge))
            .count()
    }

    /// Independent seeded tombstoning: each vertex dies with probability
    /// `vertex_p`, then each edge whose endpoints both survived dies with
    /// probability `edge_p`.
    ///
    /// The draw order is part of the audit record format and must not change:
    /// one `f64` per vertex in id order, then one `f64` per edge in edge-id
    /// order **skipping** edges already disabled by a dead endpoint (the
    /// short-circuit means those edges consume no randomness).
    pub fn kill_random<R: Rng>(&mut self, g: &Graph, vertex_p: f64, edge_p: f64, rng: &mut R) {
        for v in 0..g.num_vertices() {
            if rng.gen::<f64>() < vertex_p {
                self.alive_vertex[v] = false;
            }
        }
        for (i, (u, v, _)) in g.edges().enumerate() {
            let vertex_killed = !self.alive_vertex[u.index()] || !self.alive_vertex[v.index()];
            if !vertex_killed && rng.gen::<f64>() < edge_p {
                self.alive_edge[i] = false;
            }
        }
    }

    /// Materialize the surviving subgraph as a fresh [`Graph`] on the same
    /// vertex set (dead vertices remain present but isolated, so every
    /// `VertexId` stays valid).
    pub fn build_graph(&self, g: &Graph) -> Graph {
        let mut b = GraphBuilder::new(g.num_vertices());
        for (i, (u, v, w)) in g.edges().enumerate() {
            if self.edge_usable(g, EdgeId(i as u32)) {
                b.add_edge(u, v, w);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 2);
        b.add_edge(VertexId(2), VertexId(3), 3);
        b.build()
    }

    #[test]
    fn fresh_overlay_is_identity() {
        let g = path4();
        let o = Overlay::new(&g);
        assert_eq!(o.killed_vertices(), 0);
        assert_eq!(o.surviving_edges(&g), 3);
        assert_eq!(o.build_graph(&g), g);
    }

    #[test]
    fn killing_a_vertex_disables_incident_edges_without_tombstoning_them() {
        let g = path4();
        let mut o = Overlay::new(&g);
        assert!(o.kill_vertex(VertexId(1)));
        assert!(!o.kill_vertex(VertexId(1)), "second kill is a no-op");
        assert!(!o.edge_usable(&g, EdgeId(0)));
        assert!(!o.edge_usable(&g, EdgeId(1)));
        assert!(o.edge_usable(&g, EdgeId(2)));
        assert_eq!(o.surviving_edges(&g), 1);
        assert_eq!(o.alive_degree(&g, VertexId(1)), 0);
        assert_eq!(o.alive_degree(&g, VertexId(2)), 1);

        let sub = o.build_graph(&g);
        assert_eq!(sub.num_vertices(), 4, "vertex ids stay stable");
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.edge_weight(VertexId(2), VertexId(3)), Some(3));

        assert!(o.revive_vertex(VertexId(1)));
        assert_eq!(o.build_graph(&g), g, "revival restores incident edges");
    }

    #[test]
    fn edge_tombstones_survive_vertex_revival() {
        let g = path4();
        let mut o = Overlay::new(&g);
        o.kill_edge(EdgeId(1));
        o.kill_vertex(VertexId(2));
        o.revive_vertex(VertexId(2));
        assert!(!o.edge_usable(&g, EdgeId(1)));
        assert_eq!(o.surviving_edges(&g), 2);
    }

    #[test]
    fn kill_random_draw_order_is_stable() {
        // One draw per vertex, then one per edge with both endpoints alive:
        // the sequence of survivors is pinned for a fixed seed, and two
        // overlays built from the same seed agree exactly.
        let g = path4();
        let mut a = Overlay::new(&g);
        let mut b = Overlay::new(&g);
        let mut rng_a = ChaCha8Rng::seed_from_u64(99);
        let mut rng_b = ChaCha8Rng::seed_from_u64(99);
        a.kill_random(&g, 0.3, 0.4, &mut rng_a);
        b.kill_random(&g, 0.3, 0.4, &mut rng_b);
        assert_eq!(a.alive_vertices(), b.alive_vertices());
        assert_eq!(a.surviving_edges(&g), b.surviving_edges(&g));
        assert_eq!(a.build_graph(&g), b.build_graph(&g));
    }
}
