//! `drt compare`: threshold-based regression diffing of two [`BenchDoc`]s.
//! Simulated columns gate exactly by default, wall-clock is advisory within
//! a tolerance, and a scaling check that held in the old document and fails
//! in the new one is a regression.

use crate::suite::BenchDoc;

/// Thresholds for [`compare`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompareConfig {
    /// Fractional tolerance on simulated columns. `0.0` (the default) gates
    /// on *exact equality* — simulated costs are deterministic, so any drift
    /// is a real behavior change. A positive value gates only increases
    /// beyond `old · (1 + sim_tol)`.
    pub sim_tol: f64,
    /// Fractional tolerance on wall-clock p50 before a case counts as a
    /// wall regression.
    pub wall_tol: f64,
    /// Whether wall regressions fail the comparison (default: advisory
    /// only — wall clocks are machine- and load-dependent).
    pub wall_gate: bool,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            sim_tol: 0.0,
            wall_tol: 0.5,
            wall_gate: false,
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Case id.
    pub case: String,
    /// Metric name (`sim/<column>` or `wall_ns/p50`).
    pub metric: String,
    /// Old value.
    pub old: u64,
    /// New value.
    pub new: u64,
    /// Signed relative change in percent (`new` vs `old`; 0 when both 0).
    pub delta_pct: f64,
    /// `ok`, `changed`, `regressed`, `improved`, `wall-regressed`, or
    /// `wall-improved`.
    pub status: &'static str,
}

/// The outcome of diffing two BENCH documents.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Every compared metric, in document order.
    pub rows: Vec<DiffRow>,
    /// Gated failures (nonzero exit).
    pub regressions: Vec<String>,
    /// Non-gated findings: wall advisories and unmatched cases.
    pub advisories: Vec<String>,
    /// Number of case ids present in both documents.
    pub matched: usize,
}

impl Comparison {
    /// Whether the new document passes the gates.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A markdown summary: a table of every non-`ok` metric plus each
    /// case's wall p50, then the verdict lines.
    pub fn markdown(&self, old_label: &str, new_label: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## drt compare: {old_label} → {new_label}\n");
        let _ = writeln!(out, "| case | metric | old | new | Δ% | status |");
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|");
        for row in &self.rows {
            if row.status == "ok" && !row.metric.starts_with("wall_ns/") {
                continue;
            }
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:+.1} | {} |",
                row.case, row.metric, row.old, row.new, row.delta_pct, row.status
            );
        }
        let _ = writeln!(
            out,
            "\n{} cases matched, {} regression(s), {} advisory note(s).",
            self.matched,
            self.regressions.len(),
            self.advisories.len()
        );
        for r in &self.regressions {
            let _ = writeln!(out, "- REGRESSION: {r}");
        }
        for a in &self.advisories {
            let _ = writeln!(out, "- advisory: {a}");
        }
        out
    }
}

fn pct(old: u64, new: u64) -> f64 {
    if old == 0 && new == 0 {
        0.0
    } else if old == 0 {
        f64::INFINITY
    } else {
        (new as f64 - old as f64) / old as f64 * 100.0
    }
}

/// Diff `new` against `old` under `cfg`'s thresholds.
pub fn compare(old: &BenchDoc, new: &BenchDoc, cfg: &CompareConfig) -> Comparison {
    let mut cmp = Comparison::default();
    for old_case in &old.cases {
        let Some(new_case) = new.case(&old_case.id) else {
            cmp.advisories
                .push(format!("case {} missing from new run", old_case.id));
            continue;
        };
        cmp.matched += 1;
        for (key, old_v) in &old_case.sim {
            let Some(new_v) = new_case.sim(key) else {
                cmp.advisories
                    .push(format!("case {}: sim column '{key}' missing", old_case.id));
                continue;
            };
            let delta_pct = pct(*old_v, new_v);
            let status = if new_v == *old_v {
                "ok"
            } else if cfg.sim_tol == 0.0 {
                // Exact gate: simulated costs are deterministic, so any
                // difference — in either direction — is a behavior change.
                cmp.regressions.push(format!(
                    "{}/{key}: {old_v} → {new_v} ({delta_pct:+.1}%) with exact gating",
                    old_case.id
                ));
                "changed"
            } else if (new_v as f64) > *old_v as f64 * (1.0 + cfg.sim_tol) {
                cmp.regressions.push(format!(
                    "{}/{key}: {old_v} → {new_v} ({delta_pct:+.1}%) exceeds +{:.0}%",
                    old_case.id,
                    cfg.sim_tol * 100.0
                ));
                "regressed"
            } else if (new_v as f64) < *old_v as f64 * (1.0 - cfg.sim_tol) {
                "improved"
            } else {
                "ok"
            };
            cmp.rows.push(DiffRow {
                case: old_case.id.clone(),
                metric: format!("sim/{key}"),
                old: *old_v,
                new: new_v,
                delta_pct,
                status,
            });
        }
        let (old_w, new_w) = (old_case.wall.p50_ns, new_case.wall.p50_ns);
        let delta_pct = pct(old_w, new_w);
        let status = if (new_w as f64) > old_w as f64 * (1.0 + cfg.wall_tol) {
            let msg = format!(
                "{}: wall p50 {:.2}ms → {:.2}ms ({delta_pct:+.1}%) exceeds +{:.0}%",
                old_case.id,
                old_w as f64 / 1e6,
                new_w as f64 / 1e6,
                cfg.wall_tol * 100.0
            );
            if cfg.wall_gate {
                cmp.regressions.push(msg);
            } else {
                cmp.advisories.push(msg);
            }
            "wall-regressed"
        } else if (new_w as f64) < old_w as f64 * (1.0 - cfg.wall_tol) {
            "wall-improved"
        } else {
            "ok"
        };
        cmp.rows.push(DiffRow {
            case: old_case.id.clone(),
            metric: "wall_ns/p50".to_string(),
            old: old_w,
            new: new_w,
            delta_pct,
            status,
        });
    }
    for new_case in &new.cases {
        if old.case(&new_case.id).is_none() {
            cmp.advisories
                .push(format!("case {} is new (no old value)", new_case.id));
        }
    }
    // Scaling-law verdicts: a check that held in the old document and fails
    // in the new one is a gated regression — the asymptotic claim itself
    // broke, which exact per-case gating can miss when both documents were
    // run at different tiers. New checks and newly-passing checks are
    // advisory.
    for check in &new.checks {
        let old_check = old.checks.iter().find(|o| o.metric == check.metric);
        match old_check {
            Some(o) if o.ok() && !check.ok() => {
                cmp.regressions.push(format!(
                    "scaling {}: exponent {:.3} left predicted [{:.2}, {:.2}] (was {:.3}) — {}",
                    check.metric,
                    check.fit.exponent,
                    check.predicted.lo,
                    check.predicted.hi,
                    o.fit.exponent,
                    check.claim
                ));
            }
            Some(o) if !o.ok() && check.ok() => {
                cmp.advisories.push(format!(
                    "scaling {}: now fits predicted [{:.2}, {:.2}] (exponent {:.3}, was {:.3})",
                    check.metric,
                    check.predicted.lo,
                    check.predicted.hi,
                    check.fit.exponent,
                    o.fit.exponent
                ));
            }
            None => {
                cmp.advisories.push(format!(
                    "scaling {} is new: exponent {:.3}, predicted [{:.2}, {:.2}], {}",
                    check.metric,
                    check.fit.exponent,
                    check.predicted.lo,
                    check.predicted.hi,
                    if check.ok() { "fits" } else { "DOES NOT fit" }
                ));
            }
            _ => {}
        }
    }
    cmp
}
