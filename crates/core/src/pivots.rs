//! Per-level pivot distances `d̂(·, A_i)` and pivot identities.
//!
//! For low levels (`i ≤ ⌈k/2⌉`) the distances are exact: a hop-bounded
//! multi-source exploration from `A_i` suffices whp (the number of vertices
//! closer to `u` than its pivot is `Õ(n^{i/k})`, so the exploration depth
//! `R_i = 4·n^{i/k}·ln n` covers the path — the same argument as Claim 8).
//!
//! For high levels the sets live inside the virtual set `V' = A_{⌈k/2⌉}`,
//! and the scheme runs `β` iterations of hopset-accelerated Bellman–Ford
//! rooted at `A_i` (Lemma 2) followed by a final `B`-bounded exploration, so
//! every `u ∈ V` obtains `d̂(u, A_i) ≤ (1+ε)·d(u, A_i)` — Eq. (5) — plus an
//! approximate pivot identity.

use congest::MemoryMeter;
use graphs::{Graph, VertexId, Weight, INFINITY};
use hopset::bellman_ford::LimitedBf;
use hopset::{Hopset, VirtualGraph};

/// Distances and identities toward one hierarchy set.
#[derive(Clone, Debug)]
pub struct LevelPivots {
    /// `d̂(u, A_i)` per host vertex ([`INFINITY`] when `A_i` is empty or out
    /// of reach).
    pub dist: Vec<Weight>,
    /// The (approximate) pivot realizing `dist` (`None` when infinite).
    pub pivot: Vec<Option<VertexId>>,
    /// Whether these values are exact or `(1+ε)`-approximate.
    pub exact: bool,
    /// Iterations the hopset Bellman–Ford used (0 for exact levels).
    pub beta_used: usize,
}

impl LevelPivots {
    /// Pivots toward the empty set: everything infinite. Used for `A_k`.
    pub fn unreachable(n: usize) -> Self {
        LevelPivots {
            dist: vec![INFINITY; n],
            pivot: vec![None; n],
            exact: true,
            beta_used: 0,
        }
    }
}

/// The paper's exploration depth for level `i`: `min(n, ⌈4·n^{i/k}·ln n⌉)`.
pub fn exploration_depth(n: usize, i: usize, k: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let r = 4.0 * (n as f64).powf(i as f64 / k as f64) * (n as f64).ln();
    (r.ceil() as usize).clamp(1, n)
}

/// Exact pivots toward `set` via a hop-bounded multi-source exploration of
/// depth `depth`. Charges `depth` rounds.
pub fn exact_pivots(
    g: &Graph,
    set: &[VertexId],
    depth: usize,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> LevelPivots {
    let n = g.num_vertices();
    if set.is_empty() {
        return LevelPivots::unreachable(n);
    }
    let probe = VirtualGraph::from_set(g, set.to_vec(), depth);
    let seeds: Vec<(VertexId, Weight)> = set.iter().map(|&v| (v, 0)).collect();
    let explo = probe.bounded_exploration(g, &seeds, &|_, _| true, rec, memory);
    for v in g.vertices() {
        memory.touch(v, 2);
    }
    LevelPivots {
        dist: explo.dist,
        pivot: explo.origin,
        exact: true,
        beta_used: 0,
    }
}

/// Approximate pivots toward `set ⊆ V'` via hopset Bellman–Ford (β capped at
/// `beta_budget`) plus the built-in final `B`-bounded extension.
#[allow(clippy::too_many_arguments)]
pub fn approx_pivots(
    g: &Graph,
    virt: &VirtualGraph,
    hopset: &Hopset,
    set: &[VertexId],
    beta_budget: usize,
    d: u64,
    rec: &mut obs::Recorder,
    memory: &mut MemoryMeter,
) -> LevelPivots {
    let n = g.num_vertices();
    if set.is_empty() {
        return LevelPivots::unreachable(n);
    }
    let bf = LimitedBf { g, virt, hopset };
    let roots: Vec<(VertexId, Weight)> = set.iter().map(|&v| (v, 0)).collect();
    let out = bf.run(&roots, &|_, _| true, beta_budget, d, rec, memory);
    // Host-level values come from the final exploration; roots keep 0.
    let mut dist = out.last_exploration.dist.clone();
    let mut pivot: Vec<Option<VertexId>> = (0..n as u32)
        .map(|v| out.host_origin(VertexId(v)))
        .collect();
    for &r in set {
        dist[r.index()] = 0;
        pivot[r.index()] = Some(r);
    }
    // Virtual vertices may hold better estimates than the final wave gave
    // non-virtual hosts around them.
    for &x in virt.virtual_vertices() {
        if out.est[x.index()] < dist[x.index()] {
            dist[x.index()] = out.est[x.index()];
            pivot[x.index()] = out.origin[x.index()];
        }
    }
    for v in g.vertices() {
        memory.touch(v, 2);
    }
    LevelPivots {
        dist,
        pivot,
        exact: false,
        beta_used: out.beta_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, shortest_paths};
    use hopset::construction::{build as build_hopset, HopsetParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exploration_depth_grows_with_level() {
        let n = 1 << 12;
        let k = 4;
        let mut prev = 0;
        for i in 1..=k {
            let r = exploration_depth(n, i, k);
            assert!(r >= prev);
            prev = r;
        }
        assert_eq!(exploration_depth(n, k, k), n);
        assert_eq!(exploration_depth(1, 1, 2), 1);
    }

    #[test]
    fn exact_pivots_match_dijkstra() {
        let mut rng = ChaCha8Rng::seed_from_u64(211);
        let g = generators::erdos_renyi_connected(80, 0.08, 1..=9, &mut rng);
        let set: Vec<VertexId> = (0..80u32)
            .filter(|_| rng.gen_bool(0.1))
            .map(VertexId)
            .collect();
        let set = if set.is_empty() {
            vec![VertexId(0)]
        } else {
            set
        };
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(80);
        let got = exact_pivots(&g, &set, 80, &mut rec, &mut mem);
        let (want, _) = shortest_paths::multi_source_dijkstra(&g, &set);
        assert_eq!(got.dist, want);
        assert!(got.exact);
        // Pivots genuinely realize the distances.
        for v in g.vertices() {
            let p = got.pivot[v.index()].unwrap();
            let dv = shortest_paths::dijkstra(&g, p)[v.index()];
            assert_eq!(dv, got.dist[v.index()]);
        }
    }

    #[test]
    fn empty_set_is_unreachable() {
        let mut rng = ChaCha8Rng::seed_from_u64(212);
        let g = generators::path(5, 1..=1, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(5);
        let got = exact_pivots(&g, &[], 5, &mut rec, &mut mem);
        assert!(got.dist.iter().all(|&d| d == INFINITY));
        assert!(got.pivot.iter().all(Option::is_none));
    }

    #[test]
    fn approx_pivots_sandwich_exact_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(213);
        let g = generators::erdos_renyi_connected(150, 0.05, 1..=9, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.25, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(150);
        let hs = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        // Target set: a subset of the virtual vertices.
        let set: Vec<VertexId> = virt
            .virtual_vertices()
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        let set = if set.is_empty() {
            vec![virt.virtual_vertices()[0]]
        } else {
            set
        };
        let got = approx_pivots(&g, &virt, &hs.hopset, &set, 200, 8, &mut rec, &mut mem);
        let (want, _) = shortest_paths::multi_source_dijkstra(&g, &set);
        for v in g.vertices() {
            assert!(
                got.dist[v.index()] >= want[v.index()],
                "approximate pivots must never undershoot at {v}"
            );
            if want[v.index()] != INFINITY && got.dist[v.index()] != INFINITY {
                // With full convergence (budget >> needed) the slack is tiny:
                // allow a generous 2x envelope, typically it is exact.
                assert!(
                    got.dist[v.index()] <= want[v.index()].saturating_mul(2),
                    "pivot distance {} far above exact {} at {v}",
                    got.dist[v.index()],
                    want[v.index()]
                );
            }
        }
        // Roots are their own pivots.
        for &r in &set {
            assert_eq!(got.dist[r.index()], 0);
            assert_eq!(got.pivot[r.index()], Some(r));
        }
        assert!(!got.exact);
        assert!(got.beta_used >= 1);
    }

    #[test]
    fn approx_pivot_identities_are_set_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(214);
        let g = generators::erdos_renyi_connected(100, 0.06, 1..=5, &mut rng);
        let virt = VirtualGraph::sample(&g, 0.3, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(100);
        let hs = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            6,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        let set = vec![virt.virtual_vertices()[0], virt.virtual_vertices()[1]];
        let got = approx_pivots(&g, &virt, &hs.hopset, &set, 200, 6, &mut rec, &mut mem);
        for v in g.vertices() {
            if let Some(p) = got.pivot[v.index()] {
                assert!(set.contains(&p), "pivot {p} of {v} not in the target set");
            }
        }
    }
}
