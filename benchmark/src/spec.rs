//! The four workloads.
//!
//! `BENCHMARK.json` at the repository root repeats their names (a test
//! keeps the two in step); every *parameter* lives here.
//!
//! The network and the scheme's own coin flips are part of the workload
//! (`topology_seed`), not of `--seed`. The scheme samples its hierarchy with
//! `n^{-1/k}` coins, so across build seeds `build_rounds`, `mem_words_max`
//! and `scheme_bytes` swing by 15–100 % and build wall by ±20 % — far more
//! than any regression this benchmark is meant to resolve. `--seed` drives
//! the traffic instead: the query stream, the cross-check slice and the
//! packet injection schedule.

use crate::api::{Pairs, Topology};

/// Share of `--seconds` each timed stage may use, and the repeats it makes
/// even when that share is already spent.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    pub share: f64,
    pub min_reps: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    pub topology_seed: u64,
    pub k: usize,
    /// Endpoints of queries and packets.
    pub pairs: Pairs,
    /// Queries per closed-loop segment.
    pub segment_queries: usize,
    /// Offered rate of the traced run's open-loop pass, about a third of
    /// the closed-loop capacity measured when the workload was defined.
    pub open_qps: f64,
    /// Packets offered per round, network-wide.
    pub rate: f64,
    pub inject_rounds: u64,
    /// Whether the forwarding stage is overloaded on purpose. Elsewhere a
    /// single capacity drop is a failed operation.
    pub overloaded: bool,
    pub build: Stage,
    pub persist: Stage,
    pub serve: Stage,
    pub forward: Stage,
}

const fn stage(share: f64, min_reps: usize) -> Stage {
    Stage { share, min_reps }
}

pub const WORKLOADS: [Spec; 4] = [
    // Construction dominates; the 5 MB scheme is far larger than cache, so
    // the serve stage here is the cache-miss-bound case.
    Spec {
        name: "build_er4k_k2",
        topology: Topology::ErdosRenyi {
            n: 4096,
            mean_degree: 4.0,
        },
        topology_seed: 0xE4_4096,
        k: 2,
        pairs: Pairs::Uniform,
        segment_queries: 100_000,
        open_qps: 70_000.0,
        rate: 8.0,
        inject_rounds: 256,
        overloaded: false,
        build: stage(0.55, 3),
        persist: stage(0.10, 9),
        serve: stage(0.20, 3),
        forward: stage(0.15, 3),
    },
    // The query plane dominates; the 0.6 MB scheme is cache-resident, so
    // per-query instruction cost and pool dispatch are what move.
    Spec {
        name: "serve_er1k_k2",
        topology: Topology::ErdosRenyi {
            n: 1024,
            mean_degree: 4.0,
        },
        topology_seed: 0xE4_1024,
        k: 2,
        pairs: Pairs::Uniform,
        segment_queries: 200_000,
        open_qps: 200_000.0,
        rate: 8.0,
        inject_rounds: 1024,
        overloaded: false,
        build: stage(0.10, 3),
        persist: stage(0.05, 9),
        serve: stage(0.65, 3),
        forward: stage(0.20, 3),
    },
    // The CONGEST engine dominates: hop diameter 64 means ~40 hops per
    // packet, and the same long walks make this the hop-walk-bound serve.
    Spec {
        name: "forward_torus4k_k3",
        topology: Topology::Torus { side: 64 },
        topology_seed: 0x70_4096,
        k: 3,
        pairs: Pairs::Uniform,
        segment_queries: 50_000,
        open_qps: 35_000.0,
        rate: 8.0,
        inject_rounds: 512,
        overloaded: false,
        build: stage(0.20, 3),
        persist: stage(0.05, 9),
        serve: stage(0.20, 3),
        forward: stage(0.55, 3),
    },
    // The same layers used the other way: one hot label instead of uniform
    // pairs, the queue-full drop path instead of the drained path, a
    // hub-skewed graph for the build.
    Spec {
        name: "hotspot_sf4k_k3",
        topology: Topology::ScaleFree { n: 4096, attach: 3 },
        topology_seed: 0x5F_4096,
        k: 3,
        pairs: Pairs::Hotspot,
        segment_queries: 200_000,
        open_qps: 200_000.0,
        rate: 4.0,
        inject_rounds: 512,
        overloaded: true,
        build: stage(0.20, 3),
        persist: stage(0.05, 9),
        serve: stage(0.50, 3),
        forward: stage(0.25, 3),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
