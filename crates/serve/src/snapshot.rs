//! The immutable serving snapshot: one graph, one scheme, shared by `Arc`.
//!
//! A serving process loads the persisted scheme once and never mutates it;
//! a pool holds an `Arc` clone that its serving threads borrow, so there is
//! no locking on the query path and a snapshot swap (e.g. after a rebuild)
//! is a single pointer exchange in the owner.

use std::sync::Arc;

use graphs::Graph;
use routing::RoutingScheme;

/// An immutable pairing of a graph with a routing scheme built on it.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The network the scheme routes on.
    pub graph: Graph,
    /// The scheme being served.
    pub scheme: RoutingScheme,
}

/// How every consumer holds a [`Snapshot`]: reference-counted, immutable.
pub type SharedSnapshot = Arc<Snapshot>;

impl Snapshot {
    /// Pair `graph` with `scheme` and freeze them behind an `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme does not cover the graph's vertex set — serving
    /// such a pair would index out of bounds on the first query.
    pub fn share(graph: Graph, scheme: RoutingScheme) -> SharedSnapshot {
        let n = graph.num_vertices();
        assert_eq!(
            scheme.num_vertices(),
            n,
            "scheme covers {} vertices but the graph has {n}",
            scheme.num_vertices()
        );
        Arc::new(Snapshot { graph, scheme })
    }
}
