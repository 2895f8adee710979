//! Exact compact routing on trees (paper §3 + Appendix A).
//!
//! Given a tree `T` embedded in a network `G` with hop-diameter `D`, a *tree
//! routing scheme* assigns each tree vertex a small routing **table** and a
//! short **label** such that a message carrying only the target's label is
//! forwarded along the unique tree path — with **zero stretch**.
//!
//! This crate provides:
//!
//! * [`tz`] — the centralized Thorup–Zwick scheme: tables of `O(1)` words,
//!   labels of `O(log n)` words (heavy-child decomposition + DFS intervals).
//! * [`distributed`] — **the paper's contribution**: a CONGEST construction
//!   of *the same* tables and labels in `Õ(√n + D)` rounds using only
//!   `O(log n)` words of memory per vertex (Theorem 2), built from local-tree
//!   waves and pointer jumping (Algorithms 1–6).
//! * [`baseline`] — the prior approach (\[LP15\]/\[EN16b\]-style): materializes
//!   the virtual tree at the virtual vertices, paying `Ω̃(√n)` memory and
//!   producing `O(log n)` tables / `O(log² n)` labels.
//! * [`router`] — the routing phase: hop-by-hop forwarding driven purely by
//!   `(table, label)`, used to verify exactness.
//! * [`multi`] — Theorem 2's second assertion: the one [`multi::Schedule`]
//!   that runs many trees concurrently (`q = 1/√(sn)`, random start offsets
//!   in a `√(sn)·log n` window) with `O(s log n)` memory when every vertex
//!   lies in at most `s` trees.
//!
//! # Examples
//!
//! ```
//! use graphs::{generators, tree, VertexId};
//! use tree_routing::{tz, router};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let g = generators::erdos_renyi_connected(50, 0.1, 1..=9, &mut rng);
//! let t = tree::shortest_path_tree(&g, VertexId(0));
//! let scheme = tz::build(&t);
//! let trace = router::route(&t, &scheme, VertexId(4), VertexId(37)).unwrap();
//! assert_eq!(Some(trace.weight), t.tree_distance(VertexId(4), VertexId(37)));
//! ```

pub mod baseline;
pub mod distributed;
pub mod encode;
pub mod engine_validation;
pub mod multi;
pub mod router;
pub mod types;
pub mod tz;

pub use router::{route, RouteError, RouteTrace};
pub use types::{ForwardingDecision, RouteAction, TreeLabel, TreeScheme, TreeTable};
