//! Zero-dependency wall-clock metrics: monotonic timers and quantiles.
//!
//! The simulator's native currencies — rounds, words, memory — are *model*
//! costs: deterministic at a fixed seed and byte-stable across machines.
//! This module adds the other axis the ROADMAP's "as fast as the hardware
//! allows" goal is priced in: real elapsed time. A [`Stopwatch`] wraps
//! [`std::time::Instant`] (monotonic, immune to wall-clock adjustments), and
//! every span a run report carries holds its `wall_ns` next to its simulated
//! deltas.
//!
//! Wall-clock numbers are inherently noisy, so everything downstream treats
//! them statistically: [`quantile_ns`] summarizes repeated samples as the
//! p50/p95 the bench suite records, and regression gates keep wall-clock
//! advisory while gating exactly on the simulated columns.

/// A monotonic wall-clock timer.
///
/// # Examples
///
/// ```
/// let sw = obs::metrics::Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// assert!(sw.elapsed_ns() >= ns);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating at
    /// `u64::MAX`, ~584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A monotonic nanosecond clock. [`Stopwatch`] is the production clock; code
/// that is generic over `Clock` lets a test substitute a deterministic one
/// and assert on timing structure without reading real time.
pub trait Clock: Copy {
    /// Nanoseconds since this clock's origin; never decreases.
    fn elapsed_ns(&self) -> u64;
}

impl Clock for Stopwatch {
    fn elapsed_ns(&self) -> u64 {
        Stopwatch::elapsed_ns(self)
    }
}

/// The `q`-quantile (0.0 ≤ q ≤ 1.0) of a sample of durations, by
/// [`nearest_rank`]. Returns 0 for an empty sample. The input need not be
/// sorted.
pub fn quantile_ns(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q)
}

/// The `q`-quantile of an ascending slice by the nearest-rank rule: the
/// element at rank `round(q · (len − 1))`, with `q` clamped to `[0, 1]`.
/// `T::default()` for an empty slice.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    match sorted.len().checked_sub(1) {
        None => T::default(),
        Some(last) => sorted[((q.clamp(0.0, 1.0) * last as f64).round() as usize).min(last)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&samples, 0.0), 1);
        assert_eq!(quantile_ns(&samples, 0.5), 51);
        assert_eq!(quantile_ns(&samples, 0.95), 95);
        assert_eq!(quantile_ns(&samples, 1.0), 100);
        assert_eq!(quantile_ns(&[], 0.5), 0);
        assert_eq!(quantile_ns(&[7], 0.95), 7);
        assert_eq!(nearest_rank(&[0.5, 1.0, 2.0, 4.0], 0.5), 2.0);
        assert_eq!(nearest_rank::<f64>(&[], 0.99), 0.0);
    }
}
