//! Scaling-law estimation: log-log least squares and predicted-exponent
//! checks.
//!
//! The paper's evaluation is asymptotic shape — Õ(D+√n) rounds, O(log n)
//! memory, O(1) tables — so the executable form of "does the implementation
//! match the paper" is: sweep `n`, fit `y ≈ c·n^α` by least squares on
//! `(ln n, ln y)`, and assert the fitted `α` lands in the range the theorem
//! predicts once polylog factors are absorbed. [`fit_power_law`] produces the
//! fit, [`ExponentRange`] encodes a prediction, and [`ScalingCheck`] packages
//! one asserted comparison as a `scaling_check` record (declared through
//! [`record!`](crate::record!) like the other report records), so
//! `BENCH_*.json` trajectories carry their own shape verdicts.
//!
//! Log-like growth (`y ≈ c·log n`) has no exact power-law exponent; over any
//! finite range its log-log slope is small and positive (`d ln ln n / d ln n
//! = 1/ln n`, ≈ 0.13 at n = 2048), so "memory is logarithmic" is asserted as
//! an exponent range like `[0, 0.3]` — clearly separated from the √n
//! alternative's 0.5.

use crate::error::ParseError;
use crate::record;

record! {
    /// A least-squares fit of `ln y = exponent·ln x + intercept_ln`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct PowerLawFit {
        /// The growth exponent (log-log slope).
        pub exponent: f64,
        /// `ln c` for the fitted `y = c·x^exponent`.
        pub intercept_ln: f64,
        /// Coefficient of determination in log space (1.0 for an exact fit; by
        /// convention also 1.0 for a constant series, which the line matches
        /// exactly).
        pub r2: f64,
        /// Number of points fitted.
        pub points: usize,
    }
}

/// Fit `y ≈ c·x^α` over `points` by least squares in log-log space.
///
/// Returns `None` when fewer than two points are given or any coordinate is
/// non-positive (log-log needs positive data; callers with zero-valued
/// series should clamp to 1, which is what "constant, O(1)" means in words).
pub fn fit_power_law(points: &[(f64, f64)]) -> Option<PowerLawFit> {
    if points.len() < 2 || points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None; // all x equal: slope undefined
    }
    let exponent = (n * sxy - sx * sy) / denom;
    let intercept_ln = (sy - exponent * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|p| (p.1 - (exponent * p.0 + intercept_ln)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(PowerLawFit {
        exponent,
        intercept_ln,
        r2,
        points: points.len(),
    })
}

record! {
    /// An inclusive range of acceptable growth exponents.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ExponentRange {
        /// Smallest acceptable exponent.
        pub lo: f64 => "predicted_lo",
        /// Largest acceptable exponent.
        pub hi: f64 => "predicted_hi",
    }
    validate
}

impl ExponentRange {
    /// The range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> ExponentRange {
        assert!(lo <= hi, "empty exponent range [{lo}, {hi}]");
        ExponentRange { lo, hi }
    }

    /// Whether `exponent` falls inside the range.
    pub fn contains(&self, exponent: f64) -> bool {
        self.lo <= exponent && exponent <= self.hi
    }

    /// A parsed range must satisfy what [`ExponentRange::new`] asserts.
    fn validate(&self) -> Result<(), ParseError> {
        if self.lo <= self.hi {
            return Ok(());
        }
        Err(ParseError::bad("predicted_lo", "empty exponent range"))
    }
}

record! {
    /// One fitted exponent compared against its paper-predicted range, as a
    /// `scaling_check` object/record.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ScalingCheck: "scaling_check" {
        /// What grows (e.g. `tree_build/rounds`).
        pub metric: String,
        /// The measured fit.
        pub fit: PowerLawFit => ..,
        /// The predicted exponent range.
        pub predicted: ExponentRange => ..,
        /// Human-readable statement of the prediction (e.g. `Õ(√n + D)`).
        pub claim: String,
        + "ok" = |c| c.ok(),
    }
}

impl ScalingCheck {
    /// Whether the fitted exponent lands inside the predicted range.
    pub fn ok(&self) -> bool {
        self.predicted.contains(self.fit.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn series(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        [256.0, 512.0, 1024.0, 2048.0, 4096.0]
            .iter()
            .map(|&n| (n, f(n)))
            .collect()
    }

    #[test]
    fn recovers_sqrt_exponent() {
        let fit = fit_power_law(&series(|n| 3.0 * n.sqrt())).unwrap();
        assert!((fit.exponent - 0.5).abs() < 1e-9, "{fit:?}");
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.intercept_ln - 3.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn log_series_fits_near_zero_exponent() {
        let fit = fit_power_law(&series(|n| n.ln())).unwrap();
        assert!(fit.exponent > 0.0 && fit.exponent < 0.2, "{fit:?}");
    }

    #[test]
    fn constant_series_fits_zero_with_full_r2() {
        let fit = fit_power_law(&series(|_| 4.0)).unwrap();
        assert!(fit.exponent.abs() < 1e-12);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(fit_power_law(&[(2.0, 4.0)]).is_none());
        assert!(fit_power_law(&[(2.0, 4.0), (2.0, 8.0)]).is_none());
        assert!(fit_power_law(&[(1.0, 0.0), (2.0, 1.0)]).is_none());
        assert!(fit_power_law(&[(-1.0, 1.0), (2.0, 1.0)]).is_none());
    }

    #[test]
    fn bytes_are_pinned() {
        // Literal fit values: `ln`/`powf` may differ in the last ulp between
        // platforms, and the pin is about the codec, not the fitter.
        let check = ScalingCheck {
            metric: "tree_build/rounds".to_string(),
            fit: PowerLawFit {
                exponent: 0.62,
                intercept_ln: -1.25,
                r2: 0.998,
                points: 5,
            },
            predicted: ExponentRange::new(0.35, 0.95),
            claim: "Õ(√n + D)".to_string(),
        };
        let pinned = r#"{"type":"scaling_check","metric":"tree_build/rounds","exponent":0.62,"intercept_ln":-1.25,"r2":0.998,"points":5,"predicted_lo":0.35,"predicted_hi":0.95,"claim":"Õ(√n + D)","ok":true}"#;
        assert_eq!(check.to_value().to_string(), pinned);
        let parsed = ScalingCheck::from_value(&crate::json::parse(pinned).unwrap()).unwrap();
        assert_eq!(parsed, check);
    }

    #[test]
    fn rejects_a_point_count_that_is_not_an_index_and_an_empty_range() {
        let check = ScalingCheck {
            metric: "m".to_string(),
            fit: fit_power_law(&series(|n| n)).unwrap(),
            predicted: ExponentRange::new(0.5, 1.5),
            claim: "O(n)".to_string(),
        };
        let text = check.to_value().to_string();
        for bad in ["2.5", "-3"] {
            let v =
                crate::json::parse(&text.replace(r#""points":5"#, &format!(r#""points":{bad}"#)));
            let err = ScalingCheck::from_value(&v.unwrap()).unwrap_err();
            assert_eq!(err.field.as_deref(), Some("points"), "{bad}");
        }
        // A reversed range is an error, not the panic `ExponentRange::new` raises.
        let v = crate::json::parse(&text.replace(r#""predicted_lo":0.5"#, r#""predicted_lo":2.5"#));
        let err = ScalingCheck::from_value(&v.unwrap()).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("predicted_lo"));
        assert_eq!(err.record_type.as_deref(), Some("scaling_check"));
    }

    #[test]
    fn check_round_trips_and_judges() {
        let fit = fit_power_law(&series(|n| n.powf(0.62))).unwrap();
        let check = ScalingCheck {
            metric: "tree_build/rounds".to_string(),
            fit,
            predicted: ExponentRange::new(0.35, 0.95),
            claim: "Õ(√n + D)".to_string(),
        };
        assert!(check.ok());
        let parsed =
            ScalingCheck::from_value(&crate::json::parse(&check.to_value().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed.metric, check.metric);
        assert!((parsed.fit.exponent - check.fit.exponent).abs() < 1e-12);
        assert!(parsed.ok());

        let bad = ScalingCheck {
            predicted: ExponentRange::new(0.0, 0.1),
            ..check
        };
        assert!(!bad.ok());
        assert_eq!(
            bad.to_value().get("ok").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(false)
        );
    }
}
