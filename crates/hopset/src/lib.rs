//! Hopsets with bounded arboricity and a path-recovery mechanism — the
//! \[EN17a/EN17b\] machinery the paper's general-graph routing scheme runs on.
//!
//! A `(β, ε)`-**hopset** `H` for a graph `G'` is a set of weighted edges such
//! that every pair has a `(1+ε)`-approximate shortest path using at most `β`
//! hops in `G' ∪ H`. The paper's Appendix B applies hopsets to the *virtual
//! graph* `G'` on `Θ(√n)` sampled vertices whose edges encode `B`-bounded
//! distances in the underlying network `G` — crucially **without ever
//! materializing `G'`** (that alone would cost `Ω(√n)` memory at some
//! vertices): every Bellman–Ford iteration over `E'` is realized as a
//! `B`-bounded exploration in `G` itself.
//!
//! Modules:
//!
//! * [`virtual_graph`] — sampling `V'`, `B`-bounded multi-source explorations
//!   in `G` (the on-the-fly edges), and a test-only materialization.
//! * [`construction`] — the Thorup–Zwick-bunch hopset of \[EN17b\]: a sampled
//!   hierarchy on `V'` with bunch and pivot edges, giving size
//!   `O(m^{1+1/κ})`, out-degree (hence arboricity) `Õ(m^{1/ℓ})`, and the
//!   hop-reduction the routing scheme needs.
//! * [`bellman_ford`] — Lemma 2: low-memory `β`-iteration Bellman–Ford in
//!   `G' ∪ H`, with optional per-vertex *limits* (for the approximate-cluster
//!   explorations) and extension of virtual estimates to all of `G`.
//! * [`path_recovery`] — every hopset edge remembers the `G`-path realizing
//!   its weight; the recovery protocol pushes root-distances onto those
//!   paths so cluster trees become genuine trees of `G`.
//!
//! # Examples
//!
//! ```
//! use graphs::{generators, VertexId};
//! use hopset::virtual_graph::VirtualGraph;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let g = generators::erdos_renyi_connected(100, 0.06, 1..=9, &mut rng);
//! let virt = VirtualGraph::sample(&g, 0.2, &mut rng);
//! assert!(virt.virtual_vertices().len() > 5);
//! ```

pub mod bellman_ford;
pub mod construction;
pub mod hopset;
pub mod path_recovery;
#[cfg(test)]
mod reference;
pub mod superclustering;
pub mod virtual_graph;

pub use construction::{build as build_hopset, HopsetParams};
pub use hopset::{Hopset, HopsetEdge};
pub use virtual_graph::VirtualGraph;
