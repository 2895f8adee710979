//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` §3 and `EXPERIMENTS.md`): it sweeps the
//! relevant parameters, prints an aligned table to stdout, and — where a
//! scaling exponent is the claim — a log-log slope estimate. The shared
//! skeleton (option parsing, recorder setup, per-case seeding, span
//! bookkeeping) lives in [`sweep`]; the standardized benchmark suite behind
//! `drt bench` lives in [`suite`], and `drt compare`'s diff of two suite
//! documents in [`compare`].

pub mod compare;
pub mod suite;
pub mod sweep;

use graphs::{generators, Graph};
use rand_chacha::ChaCha8Rng;

/// The topology families experiments run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Erdős–Rényi with mean degree ≈ 4 (small diameter).
    ErdosRenyi,
    /// Random geometric with radius tuned for connectivity (large diameter).
    Geometric,
    /// Preferential attachment, 3 links per newcomer (heavy-tailed).
    ScaleFree,
}

impl Family {
    /// All families, in display order.
    pub const ALL: [Family; 3] = [Family::ErdosRenyi, Family::Geometric, Family::ScaleFree];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::ErdosRenyi => "erdos-renyi",
            Family::Geometric => "geometric",
            Family::ScaleFree => "scale-free",
        }
    }

    /// Generate an `n`-vertex connected instance with weights `1..=20`.
    pub fn generate(self, n: usize, rng: &mut ChaCha8Rng) -> Graph {
        match self {
            Family::ErdosRenyi => generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=20, rng),
            Family::Geometric => {
                let r = (3.0 * (n as f64).ln() / n as f64).sqrt();
                generators::random_geometric_connected(n, r, 1..=20, rng)
            }
            Family::ScaleFree => generators::preferential_attachment(n, 3, 1..=20, rng),
        }
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical growth
/// exponent for scaling figures. Delegates to [`obs::scaling::fit_power_law`].
///
/// # Panics
///
/// Panics if fewer than two points or any non-positive value is given, or if
/// all `x` coincide.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "log-log needs positive data"
    );
    obs::scaling::fit_power_law(points)
        .expect("log-log slope needs at least two distinct x")
        .exponent
}

/// Print a row of right-aligned cells under the given widths.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$} ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Print a header row plus a dashed rule.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().map(|w| w + 1).sum();
    println!("{}", "-".repeat(total.saturating_sub(1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn families_generate_connected_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for f in Family::ALL {
            let g = f.generate(120, &mut rng);
            assert_eq!(g.num_vertices(), 120);
            assert!(graphs::properties::is_connected(&g), "{}", f.name());
        }
    }

    #[test]
    fn slope_of_square_law_is_two() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let s = log_log_slope(&pts);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_of_sqrt_law_is_half() {
        let pts: Vec<(f64, f64)> = (1..=10)
            .map(|i| (i as f64 * 100.0, (i as f64 * 100.0).sqrt()))
            .collect();
        let s = log_log_slope(&pts);
        assert!((s - 0.5).abs() < 1e-9, "slope {s}");
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn slope_needs_points() {
        log_log_slope(&[(1.0, 1.0)]);
    }
}
