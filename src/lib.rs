//! Near-optimal distributed routing with low memory — umbrella crate.
//!
//! A full Rust implementation of Elkin & Neiman's PODC 2018 routing scheme
//! and every substrate it stands on:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graphs`] | weighted graphs, generators, exact shortest paths, trees |
//! | [`congest`] | the CONGEST-model simulator (rounds, words, memory) |
//! | [`tree_routing`] | exact compact tree routing (§3 + App. A, Theorem 2) |
//! | [`hopset`] | `(β, ε)`-hopsets with bounded arboricity and path recovery |
//! | [`routing`] | the general-graph compact routing scheme (App. B, Theorem 3) |
//!
//! # Quickstart
//!
//! ```
//! use distributed_routing::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let g = graphs::generators::erdos_renyi_connected(100, 0.05, 1..=20, &mut rng);
//!
//! // Build the paper's distributed low-memory scheme for k = 2.
//! let built = routing::build(&g, &routing::BuildParams::new(2), &mut rng);
//!
//! // Route a message and check the stretch.
//! let trace = routing::router::route(&g, &built.scheme, VertexId(0), VertexId(99)).unwrap();
//! let exact = graphs::shortest_paths::dijkstra(&g, VertexId(0))[99];
//! assert!(trace.weight as f64 <= 5.0 * exact as f64); // ≤ 4k − 3
//! ```

pub use congest;
pub use graphs;
pub use hopset;
pub use routing;
pub use tree_routing;

/// The most common imports in one place.
pub mod prelude {
    pub use congest::{MemoryMeter, Network, WordSized};
    pub use graphs::{Graph, GraphBuilder, RootedTree, VertexId, Weight, INFINITY};
    pub use routing::{BuildParams, Mode, RoutingScheme};
    pub use tree_routing::{TreeLabel, TreeScheme, TreeTable};
}
