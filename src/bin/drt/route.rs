//! `drt route`, `drt query`, `drt trace` and `drt stretch`: one pair, or a
//! sample of pairs, through a saved scheme.
//!
//! `drt route` walks the forwarding rule centrally and reports the pair's
//! engine *delivery status* — delivered vs dropped mid-route vs
//! undeliverable (no common tree) — distinctly; with `--load <p>` it also
//! pushes a seeded batch of `p` uniform packets through the
//! store-and-forward engine and prints the delivered/dropped/undeliverable
//! counts. `drt query` prints the distance oracle's estimate instead. `drt
//! trace` sends a real packet through the CONGEST engine with the flight
//! recorder on and prints the hop-by-hop journey — round, port,
//! forwarding-decision kind, queueing delay, accumulated weight — plus the
//! ascent/descent decomposition, and cross-checks the accumulated weight
//! against the central router.

use graphs::{shortest_paths, Graph, VertexId};
use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::{packet, router, RoutingScheme};
use traffic::{Workload, WorkloadKind};

use crate::cli::{self, val, Args};

/// What a single-pair subcommand runs on, loaded from its positionals: the
/// graph (and its file), the scheme (a positional file unless `--scheme`
/// gave one, else built), the source and the target.
fn pair(
    a: &Args,
    pos: &[String],
    scheme_flag: Option<&str>,
) -> Result<(String, Graph, RoutingScheme, VertexId, VertexId), String> {
    let (graph_path, scheme_path, src, dst) = match pos {
        [g, s, src, dst] if scheme_flag.is_none() => (g, Some(s.as_str()), src, dst),
        [g, src, dst] => (g, scheme_flag, src, dst),
        _ => return Err(a.usage()),
    };
    let g = crate::load_graph(graph_path)?;
    let (scheme, _) = crate::resolve_scheme(&g, scheme_path)?;
    let n = g.num_vertices();
    let vertex = |tok: &str| match cli::value::<u32>("vertex id", tok)? {
        v if (v as usize) < n => Ok(VertexId(v)),
        v => Err(format!("vertex {v} out of range (n = {n})")),
    };
    let (s, t) = (vertex(src)?, vertex(dst)?);
    Ok((graph_path.clone(), g, scheme, s, t))
}

/// `drt route` and `drt query`.
pub fn route(a: &Args) -> Result<(), String> {
    let (mut load, mut seed, mut scheme_flag) = (None::<usize>, 42u64, None::<String>);
    let pos = a.parse(&mut [
        val("--load", "packet count", &mut load),
        val("--seed", "seed", &mut seed),
        val("--scheme", "file path", &mut scheme_flag),
    ])?;
    let (_, g, scheme, s, t) = pair(a, &pos, scheme_flag.as_deref())?;
    let exact = shortest_paths::dijkstra(&g, s)[t.index()];
    if a.name == "query" {
        let est = DistanceOracle::new(&scheme).query(s, t);
        println!("oracle estimate {s} -> {t}: {est} (exact {exact})");
        return Ok(());
    }
    if load.is_some() {
        crate::need_pairs(&g, "--load")?;
    }
    // Walk the rule centrally for the path, then push the same packet
    // through the store-and-forward engine so the user sees its delivery
    // status — delivered, dropped mid-route, and undeliverable are three
    // different failures with three different remedies.
    let central = router::route(&g, &scheme, s, t);
    let net = congest::Network::new(g);
    let sent = packet::send(&net, &scheme, &[(s, t)], packet::SendOptions::default());
    match sent.outcomes[0] {
        packet::PacketOutcome::Delivered { round, .. } => {
            let trace = central.map_err(|e| e.to_string())?;
            println!(
                "routed {s} -> {t}: weight {} over {} hops via tree of {} (exact {}, stretch {:.3})",
                trace.weight,
                trace.hops(),
                trace.tree_root,
                exact,
                trace.weight as f64 / exact.max(1) as f64
            );
            let path: Vec<String> = trace.path.iter().map(ToString::to_string).collect();
            println!("path: {}", path.join(" -> "));
            println!("status: delivered at engine round {round}");
        }
        packet::PacketOutcome::Failed(router::GraphRouteError::NoCommonTree) => {
            println!("status: undeliverable — {s} and {t} share no routing tree; never injected");
            return Err(format!("{s} -> {t}: undeliverable"));
        }
        packet::PacketOutcome::Failed(err) => {
            println!("status: dropped mid-route — {err} (scheme/graph mismatch?)");
            return Err(format!("{s} -> {t}: dropped mid-route ({err})"));
        }
    }
    if let Some(p) = load {
        let mut uniform = Workload::prepare(WorkloadKind::Uniform, net.graph(), &scheme, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pairs: Vec<_> = (0..p).map(|_| uniform.draw(&mut rng)).collect();
        let batch = packet::send(&net, &scheme, &pairs, packet::SendOptions::default());
        println!(
            "load {p} (seed {seed}): {} delivered, {} dropped mid-route, {} undeliverable \
             over {} rounds",
            batch.delivered_count(),
            batch.dropped(),
            batch.undeliverable(),
            batch.stats.rounds
        );
    }
    Ok(())
}

pub fn trace(a: &Args) -> Result<(), String> {
    let mut scheme_flag = None::<String>;
    let pos = a.parse(&mut [val("--scheme", "file path", &mut scheme_flag)])?;
    let (graph_path, g, scheme, s, t) = pair(a, &pos, scheme_flag.as_deref())?;
    let central = router::route(&g, &scheme, s, t);
    let net = congest::Network::new(g);
    let traced = packet::SendOptions {
        trace: true,
        profile: false,
    };
    let sent = packet::send(&net, &scheme, &[(s, t)], traced);
    match sent.outcomes[0] {
        packet::PacketOutcome::Failed(router::GraphRouteError::NoCommonTree) => {
            return Err(format!(
                "{s} -> {t}: no common tree (disconnected pair); nothing to trace"
            ));
        }
        packet::PacketOutcome::Failed(err) => {
            return Err(format!(
                "{s} -> {t}: packet lost mid-route ({err}) — scheme/graph mismatch?"
            ));
        }
        packet::PacketOutcome::Delivered { .. } => {}
    }
    let trace = sent.traces[0]
        .as_ref()
        .expect("delivered packets are traced");
    let words = packet::plan(&scheme, s, t).map_or(0, |plan| plan.words());
    println!(
        "trace {s} -> {t} via tree of {} ({words} words on the wire):",
        trace.tree_root
    );
    println!(" hop  round  vertex  port    next kind            queue  weight");
    for (i, h) in trace.hops.iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>7} {:>5} {:>7} {:<14} {:>6} {:>7}",
            i + 1,
            h.round,
            h.vertex,
            h.port,
            h.next,
            h.kind.name(),
            h.queue_delay,
            h.weight
        );
    }
    let d = trace.decomposition();
    let delivered = trace.delivered_round.expect("delivered");
    println!(
        "delivered at round {delivered}: {} hops + {} queueing rounds",
        trace.hop_count(),
        d.queue_rounds
    );
    println!(
        "weight {} = ascent {} ({} hops) + descent {} ({} hops)",
        trace.total_weight(),
        d.ascent_weight,
        d.ascent_hops,
        d.descent_weight,
        d.descent_hops
    );
    // The engine-routed packet and the central walker must agree exactly —
    // they execute the same forwarding rule.
    let central = central.map_err(|e| format!("central router disagrees: {e}"))?;
    if central.weight != trace.total_weight() || central.hops() != trace.hop_count() {
        return Err(format!(
            "flight recorder ({} over {} hops) disagrees with central router ({} over {} hops)",
            trace.total_weight(),
            trace.hop_count(),
            central.weight,
            central.hops()
        ));
    }
    println!(
        "cross-check: central router agrees (weight {})",
        central.weight
    );
    let mut sweep = a.sweep();
    sweep.charged("drt/trace", [sent.stats.counters()]);
    sweep.add_record(trace.to_value());
    let extra = [
        ("graph", Value::from(graph_path.as_str())),
        ("src", Value::from(u64::from(s.0))),
        ("dst", Value::from(u64::from(t.0))),
    ];
    crate::write_report(&sweep, &extra, true)
}

pub fn stretch(a: &Args) -> Result<(), String> {
    let pos = a.parse(&mut [])?;
    let [graph_path, scheme_path, rest @ ..] = pos.as_slice() else {
        return Err(a.usage());
    };
    let g = crate::load_graph(graph_path)?;
    let (scheme, _) = crate::resolve_scheme(&g, Some(scheme_path.as_str()))?;
    let sources: usize = rest
        .first()
        .map_or(Ok(8), |s| cli::value("source count", s))?;
    let step = (g.num_vertices() / sources.max(1)).max(1);
    let srcs: Vec<VertexId> = g.vertices().step_by(step).collect();
    let stats = router::measure_stretch(&g, &scheme, &srcs, router::Selection::SourceOptimal);
    println!("stretch over {} pairs:", stats.pairs);
    println!(
        "  mean {:.4}  p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
        stats.mean, stats.p50, stats.p95, stats.p99, stats.max
    );
    println!("  mean hops {:.1}", stats.mean_hops);
    Ok(())
}
