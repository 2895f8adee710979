//! A synchronous CONGEST-model network simulator.
//!
//! The paper's results are stated in the CONGEST RAM model: each vertex hosts
//! a processor, computation proceeds in discrete rounds, and in each round a
//! vertex may send one short message — O(1) *words*, where a word holds a
//! vertex id, an edge weight, or a distance — across each incident edge.
//! The complexity measures are
//!
//! 1. the number of **rounds**,
//! 2. the peak number of **words of memory** any vertex uses, and
//! 3. the sizes of the routing **tables** and **labels** produced.
//!
//! This crate measures all three. It offers two complementary execution
//! styles:
//!
//! * **Engine style** ([`engine`]): algorithms are per-vertex state machines
//!   ([`engine::VertexProtocol`]) driven round-by-round by
//!   [`engine::Engine`]; rounds, messages, per-edge congestion and per-vertex
//!   memory are measured by running them.
//! * **Ledger style** ([`ledger`]): orchestrated implementations of protocols
//!   whose round structure is known (level-by-level tree waves, Lemma-1
//!   broadcasts) keep genuine per-vertex state but charge rounds to a
//!   [`ledger::CostLedger`] using the model's cost rules. Memory is still
//!   metered exactly via [`memory::MemoryMeter`].
//!
//! [`bfs`] builds distributed BFS trees (the backbone used for broadcast) and
//! [`broadcast`] implements and validates Lemma 1 (M messages broadcast in
//! O(M + D) rounds).
//!
//! # Examples
//!
//! Build a BFS tree distributively and inspect the cost:
//!
//! ```
//! use congest::{bfs, Network};
//! use graphs::{generators, VertexId};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::erdos_renyi_connected(64, 0.08, 1..=5, &mut rng);
//! let net = Network::new(g);
//! let out = bfs::build_bfs_tree(&net, VertexId(0));
//! assert!(out.tree.contains(VertexId(63)));
//! assert!(out.stats.rounds as usize >= out.depth);
//! ```

pub mod bfs;
pub mod broadcast;
pub mod convergecast;
pub mod engine;
pub mod ledger;
pub mod memory;
pub mod message;
pub mod network;
mod plane;

pub use engine::{Engine, EngineConfig, Inbox, RunStats, VertexProtocol};
pub use ledger::CostLedger;
pub use memory::MemoryMeter;
pub use message::WordSized;
pub use network::Network;
