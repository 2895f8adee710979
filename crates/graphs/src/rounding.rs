//! Weight rounding for the standard CONGEST model (paper §2, last
//! paragraph).
//!
//! The CONGEST RAM model lets one message carry a whole edge weight. To run
//! in standard CONGEST (messages of `O(log n)` **bits**), the paper rounds
//! every weight up to the next power of `1 + ε`: a rounded weight is then
//! described by its exponent, `O(log log Λ + log 1/ε)` bits, so the
//! simulation overhead is `O((log log Λ + log 1/ε) / log n)` — *doubly*
//! logarithmic in the aspect ratio Λ, versus the `Ω(log Λ)` factors in prior
//! work. Rounding rescales ε by a constant: distances inflate by at most
//! `1 + ε` per edge, uniformly.

use crate::graph::{Graph, GraphBuilder, Weight};

/// Result of rounding a graph's weights to powers of `1 + ε`.
#[derive(Clone, Debug)]
pub struct RoundedGraph {
    /// The graph with rounded weights.
    pub graph: Graph,
    /// Number of distinct rounded weights (= alphabet of exponents).
    pub distinct_weights: usize,
    /// Bits needed to transmit one rounded weight (exponent encoding).
    pub bits_per_weight: u32,
    /// The worst multiplicative inflation over all edges (≤ 1 + ε).
    pub max_inflation: f64,
}

/// Round every weight of `g` up to the next integer power of `1 + eps`.
///
/// Weight 1 stays 1 (exponent 0); every rounded weight is at least the
/// original, at most `(1 + eps)` times it.
///
/// # Panics
///
/// Panics if `eps <= 0`, or if the rounded weights sum to more than
/// [`crate::MAX_TOTAL_WEIGHT`] (as [`GraphBuilder::build`]).
///
/// # Examples
///
/// ```
/// use graphs::{GraphBuilder, VertexId, rounding::round_weights};
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(VertexId(0), VertexId(1), 100);
/// let r = round_weights(&b.build(), 0.25);
/// let w = r.graph.edge_weight(VertexId(0), VertexId(1)).unwrap();
/// assert!(w >= 100 && (w as f64) <= 100.0 * 1.25);
/// ```
pub fn round_weights(g: &Graph, eps: f64) -> RoundedGraph {
    assert!(eps > 0.0, "eps must be positive");
    let base = 1.0 + eps;
    let mut b = GraphBuilder::new(g.num_vertices());
    let mut exponents = std::collections::BTreeSet::new();
    let mut max_inflation = 1.0f64;
    for (u, v, w) in g.edges() {
        let exp = (w as f64).ln() / base.ln();
        let e = exp.ceil().max(0.0) as u32;
        let mut rounded = base.powi(e as i32).round() as Weight;
        if rounded < w {
            // Guard against floating-point undershoot.
            rounded = base.powi(e as i32 + 1).round() as Weight;
        }
        let rounded = rounded.max(w).max(1);
        exponents.insert(e);
        max_inflation = max_inflation.max(rounded as f64 / w as f64);
        b.add_edge(u, v, rounded);
    }
    let max_exp = exponents.iter().next_back().copied().unwrap_or(0);
    let bits_per_weight = (u32::BITS - max_exp.leading_zeros()).max(1);
    RoundedGraph {
        graph: b.build(),
        distinct_weights: exponents.len(),
        bits_per_weight,
        max_inflation,
    }
}

/// The paper's standard-CONGEST overhead factor for a rounded instance:
/// `max(1, bits_per_weight / log2(n))` — the number of `O(log n)`-bit
/// messages needed to ship one rounded weight.
pub fn congest_overhead(n: usize, rounded: &RoundedGraph) -> f64 {
    let log_n = (n.max(2) as f64).log2();
    (rounded.bits_per_weight as f64 / log_n).max(1.0)
}

/// The naive overhead prior solutions pay: `log2(Λ)` messages-worth of work
/// per distance (their running times are at least linear in `log Λ`).
pub fn prior_overhead(g: &Graph) -> f64 {
    g.aspect_ratio().map_or(1.0, |l| l.log2().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::VertexId;
    use crate::shortest_paths::dijkstra;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rounded_weights_dominate_and_bound_inflation() {
        let mut rng = ChaCha8Rng::seed_from_u64(401);
        let g = generators::erdos_renyi_connected(60, 0.1, 1..=10_000, &mut rng);
        let eps = 0.1;
        let r = round_weights(&g, eps);
        for ((u, v, w), (ru, rv, rw)) in g.edges().zip(r.graph.edges()) {
            assert_eq!((u, v), (ru, rv));
            assert!(rw >= w, "rounded weight must dominate");
            assert!(
                (rw as f64) <= (w as f64) * (1.0 + eps) * (1.0 + eps),
                "inflation of {w} -> {rw} too large"
            );
        }
        assert!(r.max_inflation <= (1.0 + eps) * (1.0 + eps));
    }

    #[test]
    fn distances_inflate_by_at_most_one_plus_eps_squared() {
        let mut rng = ChaCha8Rng::seed_from_u64(402);
        let g = generators::erdos_renyi_connected(50, 0.1, 1..=500, &mut rng);
        let eps = 0.2;
        let r = round_weights(&g, eps);
        let d0 = dijkstra(&g, VertexId(0));
        let d1 = dijkstra(&r.graph, VertexId(0));
        for v in g.vertices() {
            assert!(d1[v.index()] >= d0[v.index()]);
            assert!(
                (d1[v.index()] as f64) <= (d0[v.index()] as f64) * (1.0 + eps) * (1.0 + eps) + 1.0,
                "distance to {v} inflated beyond (1+eps)^2"
            );
        }
    }

    #[test]
    fn alphabet_is_logarithmic_in_aspect_ratio() {
        let mut rng = ChaCha8Rng::seed_from_u64(403);
        let g = generators::erdos_renyi_connected(60, 0.1, 1..=1_000_000, &mut rng);
        let r = round_weights(&g, 0.1);
        // log_{1.1}(10^6) ≈ 145 exponents at most.
        assert!(r.distinct_weights <= 150);
        // Exponents of ~145 fit in 8 bits.
        assert!(r.bits_per_weight <= 8);
    }

    #[test]
    fn unit_weights_are_untouched() {
        let mut rng = ChaCha8Rng::seed_from_u64(404);
        let g = generators::path(10, 1..=1, &mut rng);
        let r = round_weights(&g, 0.5);
        for (_, _, w) in r.graph.edges() {
            assert_eq!(w, 1);
        }
        assert_eq!(r.distinct_weights, 1);
        assert!((r.max_inflation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_doubly_logarithmic_not_logarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(405);
        let g = generators::erdos_renyi_connected(1000, 0.01, 1..=1_000_000, &mut rng);
        let r = round_weights(&g, 0.05);
        let ours = congest_overhead(1000, &r);
        let prior = prior_overhead(&g);
        assert!(
            ours < prior / 2.0,
            "ours {ours} should be far below prior {prior}"
        );
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_nonpositive_eps() {
        let mut rng = ChaCha8Rng::seed_from_u64(406);
        let g = generators::path(3, 1..=1, &mut rng);
        round_weights(&g, 0.0);
    }
}
