//! Near-optimal distributed compact routing with low memory — the paper's
//! primary contribution (Appendix B / Theorem 3).
//!
//! For a weighted `n`-vertex network of hop-diameter `D` and a parameter
//! `k > 1`, the scheme produces
//!
//! * routing **tables** of `Õ(n^{1/k})` words,
//! * **labels** of `O(k log n)` words,
//! * **stretch** at most `4k − 3 + o(1)` (the paper's final refinement to
//!   `4k − 5 + o(1)` is not implemented),
//!
//! constructible in a distributed manner in `(n^{1/2+1/k} + D) · poly(log n)`
//! rounds with only `Õ(n^{1/k})` words of memory per vertex — versus the
//! `Ω̃(√n)` memory of all prior near-optimal-time constructions.
//!
//! The pipeline (one module each):
//!
//! 1. [`hierarchy`] — sample `V = A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅`.
//! 2. [`pivots`] — per level, (approximate) distances `d̂(·, A_i)` and pivot
//!    identities: exact bounded explorations for low levels, hopset-powered
//!    Bellman–Ford (via the [`hopset`] crate) above the virtual level.
//! 3. [`clusters`] — cluster trees: exact limited explorations for levels
//!    `i < k/2` (Claims 6–8), limited hopset explorations plus path recovery
//!    for `i ≥ k/2` (approximate clusters, Claims 9–10) — all as genuine
//!    trees of `G`.
//! 4. [`scheme`] — per-tree exact routing (the Theorem-2 tree scheme from
//!    the [`tree_routing`] crate), assembled into per-vertex
//!    [`RoutingTable`]s and [`RoutingLabel`]s.
//! 5. [`forward`] — the routing phase's one rule: pick a tree from the
//!    target's label, then step hop by hop; [`router`] runs it in a loop
//!    and measures stretch.
//!
//! Table 1's comparison rows sit beside the pipeline, each with its own
//! rows: [`covers`] (\[ABNLP90\]-style sparse covers) and [`prior`]
//! (\[EN16b\]-style, the same stages with the prior two-level tree scheme).
//!
//! # Examples
//!
//! ```
//! use routing::{build, BuildParams, Mode};
//! use graphs::{generators, VertexId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::erdos_renyi_connected(80, 0.06, 1..=9, &mut rng);
//! let built = build(&g, &BuildParams::new(2), &mut rng);
//! let trace = routing::router::route(&g, &built.scheme, VertexId(3), VertexId(70)).unwrap();
//! assert!(trace.weight >= graphs::shortest_paths::dijkstra(&g, VertexId(3))[70]);
//! # let _ = Mode::DistributedLowMemory;
//! ```

pub mod audit;
pub mod clusters;
pub mod covers;
pub mod forward;
pub mod hierarchy;
pub mod oracle;
pub mod packet;
pub mod persist;
pub mod pivots;
pub mod prior;
pub mod router;
pub mod scheme;
pub mod sparse;
pub mod verify;

pub use scheme::{
    build, build_observed, BuildParams, BuildReport, Built, LabelEntry, Mode, RoutingLabel,
    RoutingScheme, RoutingTable, TableEntry,
};
