//! The Thorup–Zwick sampling hierarchy `V = A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅`.
//!
//! Each vertex of `A_{i-1}` survives into `A_i` independently with
//! probability `n^{-1/k}`; every vertex flips its own coins, so sampling
//! costs zero rounds and `O(k)` memory. The *level* of a vertex is the
//! largest `i` with `v ∈ A_i` — every vertex roots exactly one cluster, at
//! its level.

use graphs::VertexId;
use rand::Rng;

/// The sampled hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// `sets[i]` = `A_i`, for `i = 0..k` (`A_k` is conceptually empty and
    /// not stored).
    sets: Vec<Vec<VertexId>>,
    /// `level_of[v]` = largest `i` with `v ∈ A_i`.
    level_of: Vec<usize>,
    k: usize,
}

impl Hierarchy {
    /// Sample a `k`-level hierarchy over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `n == 0`.
    pub fn sample<R: Rng>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k >= 2, "the scheme needs k >= 2");
        assert!(n > 0, "need at least one vertex");
        let p = (n as f64).powf(-1.0 / k as f64);
        let mut level_of = vec![0usize; n];
        let mut sets: Vec<Vec<VertexId>> = vec![(0..n as u32).map(VertexId).collect()];
        for i in 1..k {
            let prev = &sets[i - 1];
            let next: Vec<VertexId> = prev.iter().copied().filter(|_| rng.gen_bool(p)).collect();
            for &v in &next {
                level_of[v.index()] = i;
            }
            if next.is_empty() {
                break;
            }
            sets.push(next);
        }
        Hierarchy { sets, level_of, k }
    }

    /// The requested number of levels `k` (`A_k = ∅`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// `A_i`, empty for `i` at or beyond the deepest sampled set.
    pub fn set(&self, i: usize) -> &[VertexId] {
        if i < self.sets.len() {
            &self.sets[i]
        } else {
            &[]
        }
    }

    /// Number of non-empty levels actually realized (≤ k).
    pub fn realized_levels(&self) -> usize {
        self.sets.len()
    }

    /// The largest `i` with `v ∈ A_i`.
    pub fn level_of(&self, v: VertexId) -> usize {
        self.level_of[v.index()]
    }

    /// Vertices whose level is exactly `i` (they root level-`i` clusters).
    pub fn exactly(&self, i: usize) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.level_of.len() as u32)
            .map(VertexId)
            .filter(move |&v| self.level_of[v.index()] == i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sets_are_nested_and_start_full() {
        let mut rng = ChaCha8Rng::seed_from_u64(201);
        let h = Hierarchy::sample(500, 3, &mut rng);
        assert_eq!(h.set(0).len(), 500);
        for i in 1..h.realized_levels() {
            let upper: std::collections::HashSet<_> = h.set(i).iter().collect();
            assert!(upper.len() <= h.set(i - 1).len());
            for v in h.set(i) {
                assert!(h.set(i - 1).contains(v));
            }
        }
        // A_k is empty.
        assert!(h.set(h.k()).is_empty());
    }

    #[test]
    fn level_sizes_track_sampling_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(202);
        let n = 4000;
        let h = Hierarchy::sample(n, 2, &mut rng);
        let expect = (n as f64).sqrt();
        let got = h.set(1).len() as f64;
        assert!(got > expect / 2.0 && got < expect * 2.0, "|A_1| = {got}");
    }

    #[test]
    fn level_of_matches_sets() {
        let mut rng = ChaCha8Rng::seed_from_u64(203);
        let h = Hierarchy::sample(300, 4, &mut rng);
        for i in 0..h.realized_levels() {
            for &v in h.set(i) {
                assert!(h.level_of(v) >= i);
            }
        }
        for v in 0..300u32 {
            let l = h.level_of(VertexId(v));
            assert!(h.set(l).contains(&VertexId(v)));
            assert!(!h.set(l + 1).contains(&VertexId(v)));
            // `v ∈ A_i` exactly for the levels `i ≤ level_of(v)`.
            for i in 0..=h.k() {
                assert_eq!(h.set(i).contains(&VertexId(v)), i <= l);
            }
        }
    }

    #[test]
    fn exactly_partitions_vertices() {
        let mut rng = ChaCha8Rng::seed_from_u64(204);
        let h = Hierarchy::sample(200, 3, &mut rng);
        let total: usize = (0..h.k()).map(|i| h.exactly(i).count()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(205);
        Hierarchy::sample(10, 1, &mut rng);
    }
}
