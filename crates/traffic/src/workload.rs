//! Seeded workload models and arrival processes.
//!
//! A [`Workload`] is a prepared distribution over source–destination pairs;
//! an [`Arrival`] turns a real-valued offered rate (packets per round,
//! network-wide) into a deterministic per-round injection count. Both draw
//! exclusively from a caller-supplied [`ChaCha8Rng`], so a scenario's entire
//! injection schedule is a pure function of `(graph, scheme, seed, rate)` —
//! never of the wall clock.

use graphs::shortest_paths::dijkstra;
use graphs::{Graph, VertexId, Weight};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::RoutingScheme;

/// Salt mixed into the scenario seed for the worst-pair mining RNG, so the
/// mining draws never overlap the injection-schedule draws.
const MINE_SALT: u64 = 0x57A7_0F57_E7C4;

/// Sources sampled when mining worst-stretch pairs.
const MINE_SOURCES: usize = 32;
/// Candidate destinations examined per mined source.
const MINE_CANDIDATES: usize = 64;
/// Size of the retained worst-stretch pool.
const MINE_POOL: usize = 64;

/// The built-in traffic matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniformly random distinct pairs.
    Uniform,
    /// Gravity model: both endpoints drawn with probability proportional to
    /// degree, so hubs originate and attract proportionally more traffic.
    Gravity,
    /// All traffic converges on a single sink (the highest-degree vertex);
    /// sources are uniform over the rest.
    Hotspot,
    /// Adversarial pairs mined from the distance oracle: the pool of pairs
    /// with the worst estimated stretch, cycled round-robin.
    WorstPairs,
}

impl WorkloadKind {
    /// The schema/CLI name of this workload.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Gravity => "gravity",
            WorkloadKind::Hotspot => "hotspot",
            WorkloadKind::WorstPairs => "worst",
        }
    }

    /// Parse a CLI name back into a kind.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        match name {
            "uniform" => Some(WorkloadKind::Uniform),
            "gravity" => Some(WorkloadKind::Gravity),
            "hotspot" => Some(WorkloadKind::Hotspot),
            "worst" => Some(WorkloadKind::WorstPairs),
            _ => None,
        }
    }

    /// All built-in kinds, for help text and exhaustive tests.
    pub fn all() -> &'static [WorkloadKind] {
        &[
            WorkloadKind::Uniform,
            WorkloadKind::Gravity,
            WorkloadKind::Hotspot,
            WorkloadKind::WorstPairs,
        ]
    }
}

/// A prepared pair distribution over one graph.
#[derive(Clone, Debug)]
pub struct Workload {
    kind: WorkloadKind,
    n: u32,
    /// Gravity: cumulative degree prefix sums, one slot per vertex.
    cum_degree: Vec<u64>,
    /// Hotspot: the sink every flow targets.
    sink: VertexId,
    /// WorstPairs: the mined pool, worst stretch first.
    pool: Vec<(VertexId, VertexId)>,
    /// WorstPairs: round-robin cursor into `pool`.
    cursor: usize,
}

impl Workload {
    /// Prepare `kind` over `g`. The scheme is only consulted by
    /// [`WorkloadKind::WorstPairs`] (its oracle estimates rank candidate
    /// pairs); `seed` only feeds the mining RNG, which is salted so its
    /// draws are independent of the injection schedule's.
    ///
    /// # Panics
    ///
    /// Panics if the graph has fewer than two vertices — no workload can
    /// offer a distinct pair on a smaller graph.
    pub fn prepare(kind: WorkloadKind, g: &Graph, scheme: &RoutingScheme, seed: u64) -> Workload {
        let n = g.num_vertices();
        assert!(n >= 2, "traffic workloads need at least two vertices");
        let mut w = Workload {
            kind,
            n: n as u32,
            cum_degree: Vec::new(),
            sink: VertexId(0),
            pool: Vec::new(),
            cursor: 0,
        };
        match kind {
            WorkloadKind::Uniform => {}
            WorkloadKind::Gravity => {
                let mut acc = 0u64;
                w.cum_degree = g
                    .vertices()
                    .map(|v| {
                        // A +1 floor keeps isolated vertices drawable, so the
                        // prefix sums stay strictly increasing.
                        acc += g.degree(v) as u64 + 1;
                        acc
                    })
                    .collect();
            }
            WorkloadKind::Hotspot => {
                // Max degree, ties to the smallest id: deterministic.
                w.sink = g
                    .vertices()
                    .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0)))
                    .expect("non-empty graph");
            }
            WorkloadKind::WorstPairs => {
                use rand::SeedableRng;
                let mut mine_rng = ChaCha8Rng::seed_from_u64(seed ^ MINE_SALT);
                w.pool = mine_worst_pairs(g, scheme, &mut mine_rng);
            }
        }
        w
    }

    /// The kind this workload was prepared as.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The hotspot sink (only meaningful for [`WorkloadKind::Hotspot`]).
    pub fn sink(&self) -> VertexId {
        self.sink
    }

    /// The mined worst-stretch pool (only meaningful for
    /// [`WorkloadKind::WorstPairs`]).
    pub fn pool(&self) -> &[(VertexId, VertexId)] {
        &self.pool
    }

    /// Draw one source–destination pair (always distinct endpoints).
    pub fn draw(&mut self, rng: &mut ChaCha8Rng) -> (VertexId, VertexId) {
        match self.kind {
            WorkloadKind::Uniform => {
                let src = rng.gen_range(0..self.n);
                let mut dst = rng.gen_range(0..self.n);
                while dst == src {
                    dst = rng.gen_range(0..self.n);
                }
                (VertexId(src), VertexId(dst))
            }
            WorkloadKind::Gravity => {
                let src = self.draw_by_degree(rng);
                let mut dst = self.draw_by_degree(rng);
                while dst == src {
                    dst = self.draw_by_degree(rng);
                }
                (src, dst)
            }
            WorkloadKind::Hotspot => {
                let mut src = VertexId(rng.gen_range(0..self.n));
                while src == self.sink {
                    src = VertexId(rng.gen_range(0..self.n));
                }
                (src, self.sink)
            }
            WorkloadKind::WorstPairs => {
                // The pool is never empty (mining falls back to a uniform
                // pair on degenerate graphs), so the cycle is total.
                let pair = self.pool[self.cursor % self.pool.len()];
                self.cursor = (self.cursor + 1) % self.pool.len();
                pair
            }
        }
    }

    fn draw_by_degree(&self, rng: &mut ChaCha8Rng) -> VertexId {
        let total = *self.cum_degree.last().expect("non-empty graph");
        let r = rng.gen_range(0..total);
        let i = self.cum_degree.partition_point(|&c| c <= r);
        VertexId(i as u32)
    }
}

/// Mine the pairs the scheme routes worst: sample sources, compare the
/// distance oracle's estimate against the true (Dijkstra) distance for a
/// batch of candidate destinations, and keep the pairs with the largest
/// estimated stretch. Ties and ordering are broken by vertex ids, so the
/// pool is a pure function of `(graph, scheme, rng stream)`.
fn mine_worst_pairs(
    g: &Graph,
    scheme: &RoutingScheme,
    rng: &mut ChaCha8Rng,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices() as u32;
    let oracle = DistanceOracle::new(scheme);
    // (scaled stretch, src, dst): stretch quantized to 1/1024ths so the sort
    // key is integral and exactly reproducible.
    let mut ranked: Vec<(u64, u32, u32)> = Vec::new();
    let sources: usize = MINE_SOURCES.min(n as usize);
    let mut seen_src = std::collections::HashSet::new();
    while seen_src.len() < sources {
        seen_src.insert(rng.gen_range(0..n));
    }
    let mut sorted_src: Vec<u32> = seen_src.into_iter().collect();
    sorted_src.sort_unstable();
    for src in sorted_src {
        let exact = dijkstra(g, VertexId(src));
        for _ in 0..MINE_CANDIDATES {
            let dst = rng.gen_range(0..n);
            if dst == src {
                continue;
            }
            let true_dist = exact[dst as usize];
            if true_dist == 0 || true_dist == Weight::MAX {
                continue;
            }
            let est = oracle.query(VertexId(src), VertexId(dst));
            if est == Weight::MAX {
                continue;
            }
            let scaled = est.saturating_mul(1024) / true_dist;
            ranked.push((scaled, src, dst));
        }
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    ranked.dedup_by_key(|&mut (_, s, d)| (s, d));
    ranked.truncate(MINE_POOL);
    let mut pool: Vec<(VertexId, VertexId)> = ranked
        .into_iter()
        .map(|(_, s, d)| (VertexId(s), VertexId(d)))
        .collect();
    if pool.is_empty() {
        // Degenerate graph (e.g. fully disconnected under the oracle): fall
        // back to the first distinct pair so draws stay total.
        pool.push((VertexId(0), VertexId(1 % n.max(2))));
    }
    pool
}

/// The built-in arrival processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Deterministic fluid arrivals: a fractional-rate accumulator injects
    /// `⌊carry⌋` packets per round, carrying the remainder forward.
    Fixed,
    /// Seeded stochastic arrivals: `⌊rate⌋` packets plus one Bernoulli draw
    /// on the fractional part — a coarse Poisson stand-in with bounded
    /// per-round burst.
    Bernoulli,
}

impl ArrivalKind {
    /// The schema/CLI name of this process.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Fixed => "fixed",
            ArrivalKind::Bernoulli => "bernoulli",
        }
    }

    /// Parse a CLI name back into a kind.
    pub fn parse(name: &str) -> Option<ArrivalKind> {
        match name {
            "fixed" => Some(ArrivalKind::Fixed),
            "bernoulli" => Some(ArrivalKind::Bernoulli),
            _ => None,
        }
    }
}

/// A stateful arrival process at a fixed offered rate.
#[derive(Clone, Debug)]
pub struct Arrival {
    kind: ArrivalKind,
    rate: f64,
    carry: f64,
}

impl Arrival {
    /// An arrival process offering `rate` packets per round. Negative or
    /// non-finite rates are clamped to zero.
    pub fn new(kind: ArrivalKind, rate: f64) -> Arrival {
        let rate = if rate.is_finite() { rate.max(0.0) } else { 0.0 };
        Arrival {
            kind,
            rate,
            carry: 0.0,
        }
    }

    /// The packets to inject this round.
    pub fn count(&mut self, rng: &mut ChaCha8Rng) -> usize {
        match self.kind {
            ArrivalKind::Fixed => {
                self.carry += self.rate;
                let k = self.carry.floor();
                self.carry -= k;
                k as usize
            }
            ArrivalKind::Bernoulli => {
                let base = self.rate.floor();
                let frac = self.rate - base;
                // Always burn exactly one draw per round, so the stream
                // position is independent of the fractional part.
                let extra = rng.gen::<f64>() < frac;
                base as usize + usize::from(extra)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::SeedableRng;
    use routing::BuildParams;

    fn setup(n: usize, seed: u64) -> (Graph, RoutingScheme) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.05, 1..=20, &mut rng);
        let scheme = routing::build(&g, &BuildParams::new(2), &mut rng).scheme;
        (g, scheme)
    }

    #[test]
    fn draws_are_seed_deterministic_and_distinct() {
        let (g, scheme) = setup(48, 21);
        for &kind in WorkloadKind::all() {
            let mut a = Workload::prepare(kind, &g, &scheme, 7);
            let mut b = Workload::prepare(kind, &g, &scheme, 7);
            let mut rng_a = ChaCha8Rng::seed_from_u64(99);
            let mut rng_b = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..200 {
                let (s, d) = a.draw(&mut rng_a);
                assert_eq!((s, d), b.draw(&mut rng_b), "{}", kind.name());
                assert_ne!(s, d, "{}", kind.name());
                assert!(s.index() < 48 && d.index() < 48);
            }
        }
    }

    #[test]
    fn hotspot_targets_the_max_degree_vertex() {
        let (g, scheme) = setup(48, 22);
        let mut w = Workload::prepare(WorkloadKind::Hotspot, &g, &scheme, 7);
        let sink = w.sink();
        assert_eq!(g.degree(sink), g.max_degree());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(w.draw(&mut rng).1, sink);
        }
    }

    #[test]
    fn worst_pairs_cycle_a_nonempty_mined_pool() {
        let (g, scheme) = setup(48, 23);
        let mut w = Workload::prepare(WorkloadKind::WorstPairs, &g, &scheme, 7);
        let pool = w.pool().to_vec();
        assert!(!pool.is_empty());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..pool.len() * 2 {
            assert_eq!(w.draw(&mut rng), pool[i % pool.len()]);
        }
    }

    #[test]
    fn gravity_prefers_high_degree_endpoints() {
        let (g, scheme) = setup(64, 24);
        let mut w = Workload::prepare(WorkloadKind::Gravity, &g, &scheme, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut hits = vec![0u32; 64];
        for _ in 0..4000 {
            let (s, d) = w.draw(&mut rng);
            hits[s.index()] += 1;
            hits[d.index()] += 1;
        }
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let leaf = g.vertices().min_by_key(|&v| g.degree(v)).unwrap();
        assert!(
            hits[hub.index()] > hits[leaf.index()],
            "hub {} drawn {} times vs leaf {} drawn {}",
            hub.0,
            hits[hub.index()],
            leaf.0,
            hits[leaf.index()]
        );
    }

    #[test]
    fn fixed_arrivals_integrate_the_rate_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut a = Arrival::new(ArrivalKind::Fixed, 0.75);
        let total: usize = (0..400).map(|_| a.count(&mut rng)).sum();
        assert_eq!(total, 300);
        // A fixed process never consults the RNG: the stream is untouched.
        let mut fresh = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn bernoulli_arrivals_average_near_the_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut a = Arrival::new(ArrivalKind::Bernoulli, 1.5);
        let total: usize = (0..2000).map(|_| a.count(&mut rng)).sum();
        assert!((2500..=3500).contains(&total), "total {total}");
    }
}
