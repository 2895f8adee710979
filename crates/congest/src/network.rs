//! The simulated network: a wrapper around a connected weighted graph with
//! port numbering.
//!
//! In the CONGEST model a vertex does not a priori know its neighbors'
//! identities — it has numbered *ports*. Protocols in this workspace learn
//! identities in round one (a standard assumption), but the port indirection
//! is kept so routing tables can store a port number (one word) instead of a
//! neighbor id where the scheme wants it.

use graphs::graph::Arc;
use graphs::{Graph, VertexId};

/// A simulated CONGEST network over an undirected weighted graph.
///
/// # Examples
///
/// ```
/// use congest::Network;
/// use graphs::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(VertexId(0), VertexId(1), 3);
/// let net = Network::new(b.build());
/// assert_eq!(net.len(), 2);
/// assert_eq!(net.neighbor_at(VertexId(0), 0), VertexId(1));
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    graph: Graph,
}

impl Network {
    /// Wrap a graph as a network.
    pub fn new(graph: Graph) -> Self {
        Network { graph }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Whether the network has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arcs leaving `v`; the position of an arc in this slice is `v`'s
    /// port number for that neighbor.
    #[inline]
    pub fn ports(&self, v: VertexId) -> &[Arc] {
        self.graph.neighbors(v)
    }

    /// The neighbor reached from `v` through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for `v`.
    pub fn neighbor_at(&self, v: VertexId, port: usize) -> VertexId {
        self.ports(v)[port].to
    }
}

impl From<Graph> for Network {
    fn from(g: Graph) -> Self {
        Network::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::GraphBuilder;

    fn net() -> Network {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(0), VertexId(2), 2);
        Network::new(b.build())
    }

    #[test]
    fn ports_round_trip() {
        let n = net();
        for v in n.graph().vertices() {
            for (p, arc) in n.ports(v).iter().enumerate() {
                assert_eq!(n.neighbor_at(v, p), arc.to);
            }
        }
    }

    #[test]
    fn is_empty_on_empty_graph() {
        let n = Network::new(GraphBuilder::new(0).build());
        assert!(n.is_empty());
    }
}
