//! `drt audit`: the scheme observatory (`routing::audit`) over a saved
//! scheme.
//!
//! Per-vertex memory attribution split into named components (cluster
//! memberships, tree tables, TZ labels, tree labels, pivot sets) reconciled
//! word-for-word against [`routing::RoutingScheme::resident_words`],
//! structural invariant audits (the `verify` checks, cover coverage, the
//! Claim-6 membership bound, DFS-interval nesting, distance-estimate
//! soundness on sampled sources), and a seeded routing-consistency probe
//! against exact distances and the central oracle — a full pair sweep at
//! small `n`, sampled above. `--kill-edges p` / `--kill-vertices p` re-run
//! the probe with the *stale* tables against a seeded perturbation of the
//! graph, reporting reachability, stretch inflation, and misroute counts.
//! The command exits nonzero if the intact audit finds any violation;
//! `--report` writes the `scheme_audit` record plus one `vertex_load`
//! heatmap per memory component, and `--json` prints the record.

use obs::json::Value;
use routing::audit::{self, AuditConfig, Component, PerturbSpec};

use crate::cli::{prob, val, Args};

pub fn audit(a: &Args) -> Result<(), String> {
    let mut cfg = AuditConfig::default();
    let (mut pairs, mut kill_edges, mut kill_vertices) = (None::<usize>, 0.0, 0.0);
    let mut scheme_flag = None::<String>;
    let pos = a.parse(&mut [
        val("--sample", "pair count", &mut pairs),
        val("--seed", "seed", &mut cfg.seed),
        prob("--kill-edges", "probability", &mut kill_edges),
        prob("--kill-vertices", "probability", &mut kill_vertices),
        val("--scheme", "file path", &mut scheme_flag),
    ])?;
    if let Some(pairs) = pairs {
        cfg = cfg.with_sample_pairs(pairs.max(1));
    }
    let (graph_path, scheme_path) = match pos.as_slice() {
        [g, s] if scheme_flag.is_none() => (g, Some(s.as_str())),
        [g] => (g, scheme_flag.as_deref()),
        _ => return Err(a.usage()),
    };
    let g = crate::load_graph(graph_path)?;
    let (scheme, scheme_name) = crate::resolve_scheme(&g, scheme_path)?;

    let mut record = audit::audit(&g, &scheme, &cfg);
    if kill_edges > 0.0 || kill_vertices > 0.0 {
        let spec = PerturbSpec {
            kill_edges,
            kill_vertices,
        };
        let baseline = record.probe.mean_stretch;
        record.perturbed = Some(audit::probe_perturbed(&g, &scheme, &cfg, &spec, baseline));
    }

    // One scheme_audit record plus a vertex_load heatmap per memory
    // component, so the same tooling that maps traffic hot spots maps
    // memory hot spots. The record keeps each component's distribution;
    // the heatmaps need its per-vertex words.
    let mut sweep = a.sweep();
    sweep.add_record(record.to_value());
    let attribution = audit::attribution(&scheme);
    for &c in &Component::ALL {
        let words = attribution.component_words(c).into_iter();
        let heat: obs::flight::VertexLoadMap = (0..)
            .zip(words)
            .filter(|&(_, w)| w > 0)
            .map(|(v, w)| (v, obs::flight::Load::packet(w)))
            .collect();
        sweep.add_record(heat.to_value(&[("component", Value::from(c.name()))]));
    }
    let extra = [
        ("n", Value::from(g.num_vertices())),
        ("k", Value::from(scheme.k)),
        ("graph", Value::from(graph_path.as_str())),
        ("scheme", Value::from(scheme_name.as_str())),
    ];
    crate::write_report(&sweep, &extra, false)?;
    if a.opts.json {
        println!("{}", record.to_value());
    } else {
        print_audit(&record);
    }
    if record.violations > 0 {
        return Err(format!(
            "audit found {} violation(s) on the intact graph",
            record.violations
        ));
    }
    Ok(())
}

fn print_audit(a: &obs::audit::SchemeAudit) {
    println!(
        "audit of k = {} scheme on n = {} graph ({} mode):",
        a.k, a.n, a.mode
    );
    println!(
        "  memory attribution ({}, resident {} words total, max {}/vertex):",
        if a.attribution_exact {
            "reconciled exactly"
        } else {
            "RECONCILIATION FAILED"
        },
        a.resident_total,
        a.resident_max
    );
    for c in &a.components {
        println!(
            "    {:<20} total {:>8}  max {:>5}  p50 {:>4}  p95 {:>4}  p99 {:>4}{}",
            c.name,
            c.total,
            c.max,
            c.p50,
            c.p95,
            c.p99,
            if c.resident { "" } else { "  (non-resident)" }
        );
    }
    println!(
        "  meter cross-check   : {}",
        match (a.meter_checked, a.meter_ok) {
            (false, _) => "skipped (no build-time meter for a loaded scheme)",
            (true, true) => "ok (metered peaks dominate resident words)",
            (true, false) => "FAILED (resident words exceed a metered peak)",
        }
    );
    println!("  invariants:");
    for inv in &a.invariants {
        println!(
            "    {:<20} {:>7} checked, {} violation(s)",
            inv.name, inv.checked, inv.violations
        );
    }
    let p = &a.probe;
    println!(
        "  routing probe ({}): {} pairs, {} connected",
        if p.full_sweep {
            "full sweep"
        } else {
            "sampled"
        },
        p.pairs,
        p.connected
    );
    println!(
        "    delivered {} ({:.1}%), mean stretch {:.3}, max {:.3}",
        p.delivered,
        100.0 * p.reachability(),
        p.mean_stretch,
        p.max_stretch
    );
    println!(
        "    failures: no_common_tree {}, stuck {}, bad_forward {}, loop {}",
        p.no_common_tree, p.stuck, p.bad_forward, p.looped
    );
    println!(
        "    bounds: undershoots {}, over_bound {}, oracle undershoots {}, oracle over {}",
        p.undershoots, p.over_bound, p.oracle_undershoots, p.oracle_over_bound
    );
    if let Some(pp) = &a.perturbed {
        let q = &pp.probe;
        println!(
            "  perturbation probe (kill edges p = {}, vertices p = {}):",
            pp.kill_edges, pp.kill_vertices
        );
        println!(
            "    killed {} edge(s), {} vertex(es); {} of {} still-connected pairs delivered ({:.1}%)",
            pp.killed_edges,
            pp.killed_vertices,
            q.delivered,
            q.connected,
            100.0 * q.reachability()
        );
        println!(
            "    stretch: mean {:.3} (inflation {:.2}x), max {:.3}",
            q.mean_stretch, pp.stretch_inflation, q.max_stretch
        );
        println!(
            "    misroutes: bad_forward {}, stuck {}, loop {}, no_common_tree {}",
            q.bad_forward, q.stuck, q.looped, q.no_common_tree
        );
    }
    println!(
        "  verdict: {}",
        if a.violations == 0 {
            "ok (0 violations)".to_string()
        } else {
            format!("FAILED ({} violation(s))", a.violations)
        }
    );
}
