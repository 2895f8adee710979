//! Lemma 2: low-memory Bellman–Ford over `G'' = E' ∪ H`.
//!
//! One iteration has two halves:
//!
//! 1. **`E'`-step** — every virtual vertex holding a finite estimate (and
//!    passing its limit) seeds a `B`-bounded exploration of `G`; a virtual
//!    vertex hearing a smaller value adopts it. This realizes all `E'` edges
//!    without storing any.
//! 2. **`H`-step** — every virtual vertex passing its limit broadcasts its
//!    estimate together with its `O(α)` *outgoing* hopset records; both
//!    endpoints of every announced record relax. No vertex ever stores
//!    incoming hopset edges, so memory stays `O(α + log n)`.
//!
//! Iterations run until the estimates stabilize or the `β` budget is
//! exhausted; the number actually used is reported (the empirical hop bound
//! the benches compare against the paper's `β` formula).
//!
//! The *limits* implement Appendix B's limited explorations: a vertex only
//! propagates while its current estimate is below its clip threshold, which
//! is what keeps per-vertex congestion at `Õ(n^{1/k})` across all clusters.

use congest::MemoryMeter;
use graphs::{dist_add, Graph, VertexId, Weight, INFINITY};

use crate::hopset::Hopset;
use crate::virtual_graph::{Exploration, VirtualGraph};

/// How a virtual vertex obtained its final estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// It was a root (seed) of the computation.
    Seed,
    /// Heard through a `B`-bounded exploration (an `E'` edge).
    Bounded,
    /// Relaxed along a hopset record; `owner`/`index` locate the record in
    /// the [`Hopset`], `reversed` says the message flowed `to → owner`.
    Hopset {
        /// The vertex storing the record.
        owner: VertexId,
        /// Position within `owner`'s out-edge list.
        index: usize,
        /// Whether the relaxation ran against the stored direction.
        reversed: bool,
    },
}

/// Result of a limited Bellman–Ford run.
#[derive(Clone, Debug)]
pub struct BfOutput {
    /// Final estimates (finite only at reached virtual vertices and seeds).
    pub est: Vec<Weight>,
    /// Provenance of each virtual vertex's estimate.
    pub via: Vec<Via>,
    /// Which *root* each estimate descends from (`None` if unreached) — the
    /// pivot identity when the roots are a hierarchy set `A_i`.
    pub origin: Vec<Option<VertexId>>,
    /// Iterations actually executed (the empirical `β`).
    pub beta_used: usize,
    /// The last `E'` exploration (host-level distances and parents), usable
    /// as the final "extend to all of `G`" pass.
    pub last_exploration: Exploration,
}

impl BfOutput {
    /// Root provenance for every *host* vertex: the origin of the seed whose
    /// wave won the final exploration (the host's approximate pivot).
    pub fn host_origin(&self, v: VertexId) -> Option<VertexId> {
        self.last_exploration.origin[v.index()].and_then(|seed| self.origin[seed.index()])
    }
}

/// The Bellman–Ford driver, borrowing the graph, virtual set and hopset.
#[derive(Clone, Copy, Debug)]
pub struct LimitedBf<'a> {
    /// Host graph.
    pub g: &'a Graph,
    /// Virtual vertex set with its hop bound `B`.
    pub virt: &'a VirtualGraph,
    /// Hopset over the virtual vertices.
    pub hopset: &'a Hopset,
}

impl<'a> LimitedBf<'a> {
    /// Run up to `max_iters` iterations from `roots` (`(vertex, initial
    /// estimate)` pairs; roots need not be virtual — a non-virtual root
    /// participates through the explorations only).
    ///
    /// `limit(v, est)` gates propagation *out of* `v` — return `true` to let
    /// `v` keep relaying. `d` prices the per-iteration broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `max_iters == 0`.
    pub fn run<L>(
        &self,
        roots: &[(VertexId, Weight)],
        limit: &L,
        max_iters: usize,
        d: u64,
        rec: &mut obs::Recorder,
        memory: &mut MemoryMeter,
    ) -> BfOutput
    where
        L: Fn(VertexId, Weight) -> bool + ?Sized,
    {
        assert!(max_iters > 0, "need at least one iteration");
        let n = self.g.num_vertices();
        let mut est = vec![INFINITY; n];
        let mut via = vec![Via::Seed; n];
        let mut origin: Vec<Option<VertexId>> = vec![None; n];
        let mut is_root = vec![false; n];
        // The vertices holding a finite estimate: the only possible seeds.
        let mut finite: Vec<VertexId> = Vec::new();
        for &(r, v0) in roots {
            is_root[r.index()] = true;
            if v0 < est[r.index()] {
                if est[r.index()] == INFINITY {
                    finite.push(r);
                }
                est[r.index()] = v0;
                origin[r.index()] = Some(r);
            }
        }

        // Each half reads only round-start values: it lists its offers
        // first and folds them in, in order, after.
        let mut offers: Vec<Offer> = Vec::new();
        let mut seeds: Vec<(VertexId, Weight)> = Vec::new();
        let mut beta_used = 0;
        let mut last_exploration = None;
        for _ in 0..max_iters {
            beta_used += 1;

            // ---- E'-step: one B-bounded exploration seeded by all finite,
            // unclipped estimates (roots always speak), in id order.
            finite.sort_unstable();
            seeds.clear();
            seeds.extend(
                finite
                    .iter()
                    .filter(|&&v| is_root[v.index()] || limit(v, est[v.index()]))
                    .map(|&v| (v, est[v.index()])),
            );
            let explo = self
                .virt
                .bounded_exploration(self.g, &seeds, limit, rec, memory);
            for &x in self.virt.virtual_vertices() {
                let heard = explo.dist[x.index()];
                if heard < est[x.index()] {
                    let from = explo.origin[x.index()].and_then(|seed| origin[seed.index()]);
                    offers.push((x, heard, Via::Bounded, from));
                }
            }
            let mut changed = fold(&mut offers, &mut est, &mut via, &mut origin, &mut finite);
            last_exploration = Some(explo);

            // ---- H-step: broadcast estimates + out-records; relax both ways.
            let mut msgs = 0u64;
            for &u in self.virt.virtual_vertices() {
                let eu = est[u.index()];
                if eu == INFINITY || !limit(u, eu) {
                    continue;
                }
                msgs += 1 + self.hopset.out_edges(u).len() as u64;
                for (j, e) in self.hopset.out_edges(u).iter().enumerate() {
                    memory.touch(e.to, 2);
                    // Forward: u's estimate reaches e.to.
                    let fwd = Via::Hopset {
                        owner: u,
                        index: j,
                        reversed: false,
                    };
                    offers.push((e.to, dist_add(eu, e.weight), fwd, origin[u.index()]));
                    // Reverse: e.to's estimate reaches u, provided e.to may
                    // speak (it hears its own edge in u's announcement).
                    let et = est[e.to.index()];
                    if et != INFINITY && limit(e.to, et) {
                        let rev = Via::Hopset {
                            owner: u,
                            index: j,
                            reversed: true,
                        };
                        offers.push((u, dist_add(et, e.weight), rev, origin[e.to.index()]));
                    }
                }
            }
            changed |= fold(&mut offers, &mut est, &mut via, &mut origin, &mut finite);
            rec.charge_broadcast(msgs, d);

            if !changed {
                break;
            }
        }

        BfOutput {
            est,
            via,
            origin,
            beta_used,
            last_exploration: last_exploration.expect("at least one iteration"),
        }
    }
}

/// A relaxation to apply: target, value, provenance and origin.
type Offer = (VertexId, Weight, Via, Option<VertexId>);

/// Fold `offers` into the estimates in order, each taken only if it beats
/// what its vertex holds by then; drains `offers` and says whether any was
/// taken. A vertex's first finite estimate lists it in `finite`.
fn fold(
    offers: &mut Vec<Offer>,
    est: &mut [Weight],
    via: &mut [Via],
    origin: &mut [Option<VertexId>],
    finite: &mut Vec<VertexId>,
) -> bool {
    let mut changed = false;
    for (x, value, how, from) in offers.drain(..) {
        if value < est[x.index()] {
            if est[x.index()] == INFINITY {
                finite.push(x);
            }
            est[x.index()] = value;
            via[x.index()] = how;
            origin[x.index()] = from;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{build, HopsetParams};
    use graphs::{generators, shortest_paths};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct Fixture {
        g: Graph,
        virt: VirtualGraph,
        hopset: Hopset,
    }

    fn fixture(n: usize, p: f64, seed: u64) -> Fixture {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 3.0 / n as f64, 1..=9, &mut rng);
        let virt = VirtualGraph::sample(&g, p, &mut rng);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(n);
        let out = build(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        Fixture {
            g,
            virt,
            hopset: out.hopset,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The driver matches its pre-offer-list form: estimates, provenance,
        /// origins, β, the last exploration, the cost totals and every meter
        /// peak, from one root or a whole set, with and without clipping.
        #[test]
        fn run_matches_reference(
            n in 4usize..140,
            wide in 0u8..2,
            many in 0u8..2,
            clip in 0u8..2,
            max_iters in 1usize..6,
            seed in 0u64..1_000_000,
        ) {
            use rand::Rng;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let weights = if wide == 1 { 1..=100 } else { 1..=3 };
            let p = (3.0 / n as f64).min(1.0);
            let g = generators::erdos_renyi_connected(n, p, weights, &mut rng);
            let virt = VirtualGraph::from_set(
                &g,
                g.vertices().filter(|_| rng.gen_range(0..4) == 0).collect(),
                rng.gen_range(1..12),
            );
            let hopset = if virt.virtual_vertices().is_empty() {
                Hopset::new(n)
            } else {
                let (mut rec, mut mem) = (obs::Recorder::disabled(), MemoryMeter::new(n));
                let params = HopsetParams::default();
                build(&g, &virt, params, 8, &mut rec, &mut mem, &mut rng).hopset
            };
            let bf = LimitedBf { g: &g, virt: &virt, hopset: &hopset };
            let roots: Vec<(VertexId, Weight)> = if many == 1 {
                g.vertices().filter(|_| rng.gen_range(0..5) == 0).map(|v| (v, 0)).collect()
            } else {
                vec![(VertexId(rng.gen_range(0..n as u32)), 0)]
            };
            let threshold: Vec<Weight> = (0..n).map(|_| rng.gen_range(1..80)).collect();
            let limit = |v: VertexId, est: Weight| clip == 0 || est < threshold[v.index()];
            let mut start = MemoryMeter::new(n);
            for v in g.vertices() {
                start.set(v, rng.gen_range(0..4));
            }
            let (mut rec, mut mem) = (obs::Recorder::disabled(), start.clone());
            let got = bf.run(&roots, &limit, max_iters, 3, &mut rec, &mut mem);
            let (mut ref_rec, mut ref_mem) = (obs::Recorder::disabled(), start);
            let want =
                crate::reference::run(&bf, &roots, &limit, max_iters, 3, &mut ref_rec, &mut ref_mem);
            proptest::prop_assert_eq!(&got.est, &want.est);
            proptest::prop_assert_eq!(&got.via, &want.via);
            proptest::prop_assert_eq!(&got.origin, &want.origin);
            proptest::prop_assert_eq!(got.beta_used, want.beta_used);
            let (x, y) = (&got.last_exploration, &want.last_exploration);
            proptest::prop_assert_eq!(&x.dist, &y.dist);
            proptest::prop_assert_eq!(&x.parent, &y.parent);
            proptest::prop_assert_eq!(&x.origin, &y.origin);
            proptest::prop_assert_eq!(rec.totals(), ref_rec.totals());
            proptest::prop_assert_eq!(&mem, &ref_mem);
        }
    }

    #[test]
    fn converges_to_exact_distances_without_limits() {
        let f = fixture(150, 0.25, 71);
        let bf = LimitedBf {
            g: &f.g,
            virt: &f.virt,
            hopset: &f.hopset,
        };
        let root = f.virt.virtual_vertices()[0];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let out = bf.run(&[(root, 0)], &|_, _| true, 200, 8, &mut rec, &mut mem);
        let exact = shortest_paths::dijkstra(&f.g, root);
        for &x in f.virt.virtual_vertices() {
            // Estimates never undershoot, and with full convergence and a
            // B that covers the graph they match exactly.
            assert!(out.est[x.index()] >= exact[x.index()]);
            assert_eq!(out.est[x.index()], exact[x.index()], "vertex {x}");
        }
    }

    #[test]
    fn hopset_cuts_iterations_versus_plain_exploration() {
        // On a long path with sparse virtual vertices, plain E'-steps need
        // many iterations; hopset edges collapse that.
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let g = generators::path(400, 1..=1, &mut rng);
        let verts: Vec<VertexId> = (0..400).step_by(10).map(|i| VertexId(i as u32)).collect();
        let virt = VirtualGraph::from_set(&g, verts, 15);
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(400);
        let built = build(
            &g,
            &virt,
            HopsetParams { levels: 2 },
            5,
            &mut rec,
            &mut mem,
            &mut rng,
        );
        let empty = Hopset::new(400);
        let root = VertexId(0);
        let with = LimitedBf {
            g: &g,
            virt: &virt,
            hopset: &built.hopset,
        }
        .run(&[(root, 0)], &|_, _| true, 500, 5, &mut rec, &mut mem);
        let without = LimitedBf {
            g: &g,
            virt: &virt,
            hopset: &empty,
        }
        .run(&[(root, 0)], &|_, _| true, 500, 5, &mut rec, &mut mem);
        assert!(
            with.beta_used < without.beta_used,
            "hopset β {} should beat plain β {}",
            with.beta_used,
            without.beta_used
        );
        // Both converge to the same (exact) distances on a path.
        assert_eq!(with.est, without.est);
    }

    #[test]
    fn estimates_never_undershoot_true_distance() {
        let f = fixture(120, 0.3, 73);
        let bf = LimitedBf {
            g: &f.g,
            virt: &f.virt,
            hopset: &f.hopset,
        };
        let root = f.virt.virtual_vertices()[1];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        // A tight limit clips propagation — estimates stay safe (≥ d).
        let exact = shortest_paths::dijkstra(&f.g, root);
        let out = bf.run(&[(root, 0)], &|_, est| est < 30, 50, 8, &mut rec, &mut mem);
        for v in f.g.vertices() {
            assert!(out.est[v.index()] >= exact[v.index()]);
        }
    }

    #[test]
    fn limits_confine_the_wave() {
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        let g = generators::path(50, 1..=1, &mut rng);
        let verts: Vec<VertexId> = (0..50).map(|i| VertexId(i as u32)).collect();
        let virt = VirtualGraph::from_set(&g, verts, 50);
        let hopset = Hopset::new(50);
        let bf = LimitedBf {
            g: &g,
            virt: &virt,
            hopset: &hopset,
        };
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(50);
        let out = bf.run(
            &[(VertexId(0), 0)],
            &|_, est| est < 10,
            100,
            5,
            &mut rec,
            &mut mem,
        );
        // Vertices at distance ≤ 10 hear the wave; vertex 10 records its
        // value but is clipped (est < 10 fails), so nothing reaches 11.
        assert_eq!(out.est[9], 9);
        assert_eq!(out.est[10], 10);
        assert_eq!(out.est[11], INFINITY);
    }

    #[test]
    fn via_records_provenance() {
        let f = fixture(100, 0.3, 75);
        let bf = LimitedBf {
            g: &f.g,
            virt: &f.virt,
            hopset: &f.hopset,
        };
        let root = f.virt.virtual_vertices()[0];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let out = bf.run(&[(root, 0)], &|_, _| true, 200, 8, &mut rec, &mut mem);
        assert_eq!(out.via[root.index()], Via::Seed);
        for &x in f.virt.virtual_vertices() {
            if x == root || out.est[x.index()] == INFINITY {
                continue;
            }
            match out.via[x.index()] {
                Via::Seed => panic!("non-root {x} marked as seed"),
                Via::Bounded => {}
                Via::Hopset {
                    owner,
                    index,
                    reversed,
                } => {
                    let e = f.hopset.out_edges(owner)[index];
                    // The recorded edge must connect x consistently.
                    if reversed {
                        assert_eq!(owner, x);
                    } else {
                        assert_eq!(e.to, x);
                    }
                }
            }
        }
    }

    #[test]
    fn beta_budget_is_respected() {
        let f = fixture(200, 0.2, 76);
        let bf = LimitedBf {
            g: &f.g,
            virt: &f.virt,
            hopset: &f.hopset,
        };
        let root = f.virt.virtual_vertices()[0];
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(f.g.num_vertices());
        let out = bf.run(&[(root, 0)], &|_, _| true, 3, 8, &mut rec, &mut mem);
        assert!(out.beta_used <= 3);
    }

    #[test]
    fn non_virtual_roots_seed_explorations() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::path(20, 1..=1, &mut rng);
        let virt = VirtualGraph::from_set(&g, vec![VertexId(10)], 20);
        let hopset = Hopset::new(20);
        let bf = LimitedBf {
            g: &g,
            virt: &virt,
            hopset: &hopset,
        };
        let mut rec = obs::Recorder::disabled();
        let mut mem = MemoryMeter::new(20);
        let out = bf.run(&[(VertexId(0), 0)], &|_, _| true, 10, 5, &mut rec, &mut mem);
        assert_eq!(out.est[10], 10);
    }
}
