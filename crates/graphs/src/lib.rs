//! Weighted undirected graphs, generators, and exact shortest-path ground truth.
//!
//! This crate is the substrate beneath the CONGEST simulator and the routing
//! schemes: it provides the [`Graph`] representation (compressed adjacency),
//! synthetic network [`generators`], exact [`shortest_paths`] (Dijkstra,
//! hop-bounded Bellman–Ford, BFS), rooted [`tree`] utilities, and structural
//! [`properties`] (hop diameter, shortest-path diameter, connectivity).
//!
//! # Examples
//!
//! ```
//! use graphs::{generators, shortest_paths, VertexId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let g = generators::erdos_renyi_connected(64, 0.1, 1..=20, &mut rng);
//! let dist = shortest_paths::dijkstra(&g, VertexId(0));
//! assert_eq!(dist[0], 0);
//! ```

pub mod generators;
pub mod graph;
pub mod io;
pub mod overlay;
pub mod properties;
pub mod rounding;
pub mod shortest_paths;
pub mod tree;

pub use graph::{EdgeId, Graph, GraphBuilder, VertexId, Weight, INFINITY, MAX_TOTAL_WEIGHT};
pub use overlay::Overlay;
pub use tree::RootedTree;

/// Saturating addition for distances: anything plus [`INFINITY`] stays infinite.
///
/// # Examples
///
/// ```
/// use graphs::{dist_add, INFINITY};
/// assert_eq!(dist_add(3, 4), 7);
/// assert_eq!(dist_add(INFINITY, 4), INFINITY);
/// ```
#[inline]
pub fn dist_add(a: Weight, b: Weight) -> Weight {
    a.saturating_add(b)
}
