//! `drt` — the distributed-routing tool.
//!
//! A thin CLI over the library for users who want to try the scheme on
//! their own networks without writing Rust:
//!
//! ```text
//! drt generate <family> <n> [seed]          # emit an edge list to stdout
//! drt info     <graph-file>                 # n, m, D, S, degrees, aspect ratio
//! drt build    <graph-file> <k> [<out>|--out <file>]  # preprocess; save checksummed scheme
//! drt route    <graph-file> [<scheme>|--scheme <f>] <src> <dst> [--load <p>] [--seed <s>]
//! drt query    <graph-file> [<scheme>|--scheme <f>] <src> <dst>  # oracle distance
//! drt trace    <graph-file> [<scheme>|--scheme <f>] <src> <dst>  # flight-recorded send
//! drt stretch  <graph-file> <scheme-file> [sources]     # stretch statistics
//! drt audit    <graph-file> [<scheme>|--scheme <f>] [--sample <pairs>] [--seed <s>]
//!              [--kill-edges <p>] [--kill-vertices <p>] [--report <path>] [--json]
//! drt traffic  <graph-file> <scheme-file> [--workload <w>] [--rate <r,...>] ...
//! drt churn    <graph-file> <scheme-file> [--process <p>] [--rate <f>] [--rounds <n>] ...
//! drt serve    <graph-file> [--scheme <f>] [--queries <q>] [--batch <b>] [--workload <w>]
//!              [--seed <s>] [--check-rate <f>] [--open <qps,...>] [--threads <t>] [--json]
//! drt report   <report-file> [--json]                   # validate a JSONL report
//! drt bench    [--smoke|--quick|--full] [--label <l>] [--out <path>] [--repeats <r>]
//! drt compare  <old.json> <new.json> [--sim-tol <f>] [--wall-tol <f>] [--wall-gate]
//! drt profile  [--n <n>] [--packets <p>] [--trace-out <path>] [--report <path>]
//! ```
//!
//! Graph files use the [`graphs::io`] edge-list format.
//!
//! `drt route` walks the forwarding rule centrally and reports the pair's
//! engine *delivery status* — delivered vs dropped mid-route vs
//! undeliverable (no common tree) — distinctly; with `--load <p>` it also
//! pushes a seeded batch of `p` packets through the store-and-forward
//! engine and prints the delivered/dropped/undeliverable counts. `drt
//! trace` sends a real packet through the CONGEST engine with the flight
//! recorder on and prints the hop-by-hop journey — round, port,
//! forwarding-decision kind, queueing delay, accumulated weight — plus the
//! ascent/descent decomposition, and cross-checks the accumulated weight
//! against the central router.
//!
//! `drt audit` runs the scheme observatory (`routing::audit`) over a saved
//! scheme: per-vertex memory attribution split into named components
//! (cluster memberships, tree tables, TZ labels, tree labels, pivot sets)
//! reconciled word-for-word against [`routing::RoutingScheme::resident_words`],
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
//!
//! `drt traffic` runs the steady-state traffic engine (crate `traffic`):
//! seeded workloads (`uniform`, `gravity`, `hotspot`, `worst`) injected
//! every round into finite per-port queues, swept across offered rates
//! (`--rate 0.5,1,2,4`) to locate the saturation knee — the largest rate
//! meeting the SLO (bounded p99 queueing delay, negligible loss). The run
//! is seed-deterministic; `--report` writes one `traffic_summary` plus one
//! `edge_load` record per rate.
//!
//! `drt churn` runs the churn observatory (crate `churn`): a seeded failure
//! process (`random`, `random-edges`, `targeted`, `regional`, optionally
//! with `--revive`) kills part of the network every round while the saved
//! scheme keeps forwarding with its stale tables. Each round samples a
//! fixed seeded probe (reachability over the intact-graph denominator —
//! monotone for revival-free processes), delivered-stretch inflation
//! against the perturbed graph's Dijkstra, a traffic burst (misroutes
//! surface as stuck drops), and the blast radius — alive vertices whose
//! tables reference something dead. It prints the timeline plus a knee /
//! half-life degradation summary; `--slo <floor> --slo-round <r>` declares
//! "reachability ≥ floor through round r" and the command exits nonzero on
//! breach. `--report` writes a `churn_timeline` record; `--json` prints it.
//! One-shot `drt audit --kill-edges/--kill-vertices` is the single-event
//! case of the same overlay machinery.
//!
//! `drt serve` runs the query-serving plane (crate `serve`): the persisted
//! scheme is loaded into an immutable shared snapshot and a long-lived
//! worker pool answers a seeded stream of route / distance-estimate / trace
//! queries, each answer sampled (`--check-rate`) for a byte-identical
//! cross-check against the central router and distance oracle. The default
//! closed loop dispatches batches back to back and reports the saturation
//! QPS with nearest-rank p50/p95/p99 per-query latency; `--open
//! <qps,...>` instead walks an offered-rate ladder on a timed schedule and
//! reports the knee — the largest rate still absorbed within the SLO — the
//! serving-side analog of `drt traffic`'s saturation search. Simulated
//! columns (query mix, outcome split, aggregate weight/hops, checks,
//! mismatches, answer checksum) are byte-identical at any `--threads`
//! pool size (`0`, the default, means all cores) and in both loop modes;
//! `--threads` is a serve-only flag. QPS and latency are wall-clock and
//! advisory. `--report` writes one `serve_summary` record per run (one per
//! rung under `--open`); the command exits nonzero on any cross-check
//! mismatch or internal serving error. Without `--scheme` it builds a
//! `k = 2` scheme on the fly, matching `drt build`'s fixed seed.
//!
//! `drt build` and `drt trace` additionally accept `--report <path>` (or the
//! `DRT_REPORT` environment variable) to write a JSONL run report: phase
//! spans for `build`, a `packet_trace` record for `trace`. `drt report`
//! reads such a file back, validates every record whose type is in
//! `obs::REGISTRY` (the table in DESIGN.md §4d says what each type's parser
//! re-checks), and prints per-type counts plus the run's total wall-clock
//! time.
//!
//! `drt profile` turns on the engine profiler (`obs::profile`) over a
//! self-contained store-and-forward workload: it generates a seeded graph,
//! builds a `k = 2` scheme, and pushes a packet batch through the CONGEST
//! engine twice — once unprofiled (the overhead baseline), once profiled. It
//! prints the profiler's overhead and the per-phase wall breakdown (setup,
//! compute, scatter, merge) with the vertices executed per round.
//! `--trace-out <path>` additionally writes the retained phase intervals as
//! a Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`);
//! `--report <path>` writes a JSONL report carrying the `engine_profile`
//! record. The engine-driven commands accept `--profile` (or
//! `DRT_PROFILE=1`): `drt traffic --profile` attributes the sweep's rounds
//! and stamps the phase summary into its report. Profiling never changes
//! simulated results — rounds, words, outcomes, and memory are
//! byte-identical with the profiler on or off.
//!
//! `drt bench` runs the standardized benchmark suite (fixed seeds; see
//! [`bench::suite`]) and writes a `BENCH_<label>.json` trajectory point:
//! per-case wall-clock p50/p95 over repeats, byte-stable simulated
//! rounds/words/memory, an environment stamp, and fitted scaling-law
//! verdicts against the paper's predicted exponents (nonzero exit if a fit
//! falls outside its predicted range). `drt compare old.json new.json`
//! diffs two such documents — simulated columns gate exactly by default,
//! wall-clock is advisory within `--wall-tol` — and prints a markdown
//! summary, exiting nonzero on any gated regression.

use std::process::ExitCode;

use graphs::{generators, io, properties, shortest_paths, Graph, VertexId};
use obs::json::Value;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing::oracle::DistanceOracle;
use routing::{build_observed, packet, persist, router, BuildParams};

fn main() -> ExitCode {
    let (opts, args) = obs::cli::ReportOptions::from_env();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("build") => cmd_build(&args[1..], &opts),
        Some("route") => cmd_route(&args[1..], false),
        Some("query") => cmd_route(&args[1..], true),
        Some("trace") => cmd_trace(&args[1..], &opts),
        Some("stretch") => cmd_stretch(&args[1..]),
        Some("audit") => cmd_audit(&args[1..], &opts),
        Some("traffic") => cmd_traffic(&args[1..], &opts),
        Some("churn") => cmd_churn(&args[1..], &opts),
        Some("serve") => cmd_serve(&args[1..], &opts),
        Some("report") => cmd_report(&args[1..], &opts),
        Some("bench") => cmd_bench(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("profile") => cmd_profile(&args[1..], &opts),
        _ => {
            eprintln!(
                "usage: drt <generate|info|build|route|query|trace|stretch|audit|traffic|churn|serve|report|bench|compare|profile> ... (see crate docs)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    io::parse_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn parse_vertex(g: &Graph, tok: &str) -> Result<VertexId, String> {
    let raw: u32 = tok.parse().map_err(|_| format!("bad vertex id '{tok}'"))?;
    if (raw as usize) < g.num_vertices() {
        Ok(VertexId(raw))
    } else {
        Err(format!(
            "vertex {raw} out of range (n = {})",
            g.num_vertices()
        ))
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let [family, n, rest @ ..] = args else {
        return Err("generate <er|geometric|torus|scale-free|expander> <n> [seed]".into());
    };
    let n: usize = n.parse().map_err(|_| format!("bad n '{n}'"))?;
    let seed: u64 = rest
        .first()
        .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
        .transpose()?
        .unwrap_or(42);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = match family.as_str() {
        "er" => generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=100, &mut rng),
        "geometric" => {
            let r = (3.0 * (n as f64).ln() / n as f64).sqrt();
            generators::random_geometric_connected(n, r, 1..=100, &mut rng)
        }
        "torus" => {
            let side = (n as f64).sqrt().ceil() as usize;
            generators::torus(side.max(3), side.max(3), 1..=100, &mut rng)
        }
        "scale-free" => generators::preferential_attachment(n.max(5), 3, 1..=100, &mut rng),
        "expander" => generators::random_regular_expander(n.max(4), 6, 1..=100, &mut rng),
        other => return Err(format!("unknown family '{other}'")),
    };
    print!("{}", io::to_edge_list(&g));
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info <graph-file>".into());
    };
    let g = load_graph(path)?;
    println!("vertices           : {}", g.num_vertices());
    println!("edges              : {}", g.num_edges());
    println!("connected          : {}", properties::is_connected(&g));
    if let Some((dmin, dmax, dmean)) = properties::degree_stats(&g) {
        println!("degrees            : {dmin}..{dmax} (mean {dmean:.2})");
    }
    if let Some(d) = properties::hop_diameter(&g) {
        println!("hop diameter D     : {d}");
    }
    if let Some(s) = properties::shortest_path_diameter(&g) {
        println!("SP diameter S      : {s}");
    }
    if let Some(l) = g.aspect_ratio() {
        println!("aspect ratio       : {l:.1}");
    }
    Ok(())
}

fn cmd_build(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut out_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_flag = Some(it.next().ok_or("--out needs a file path")?.clone()),
            other => positional.push(other.to_string()),
        }
    }
    let usage = "build <graph-file> <k> [<out-file>|--out <file>] [--report <path>]";
    let (graph_path, k, out_path) = match positional.as_slice() {
        [g, k, out] if out_flag.is_none() => (g.clone(), k.clone(), out.clone()),
        [g, k] => match out_flag {
            Some(out) => (g.clone(), k.clone(), out),
            None => return Err(usage.into()),
        },
        _ => return Err(usage.into()),
    };
    let (graph_path, k, out_path) = (&graph_path, &k, &out_path);
    let g = load_graph(graph_path)?;
    let k: usize = k.parse().map_err(|_| format!("bad k '{k}'"))?;
    if k < 2 {
        return Err("k must be at least 2".into());
    }
    let mut rec = obs::Recorder::when(opts.reporting());
    if opts.profile {
        // The scheme build charges the cost ledger rather than the engine
        // round loop, so today this records nothing; the hook is here so an
        // engine-backed build phase picks it up automatically.
        rec.enable_profiling();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xD27);
    let span = rec.begin("drt/build");
    let built = build_observed(&g, &BuildParams::new(k), &mut rng, &mut rec);
    rec.end_with_memory(span, built.report.memory.peaks());
    // The checksummed container (magic + version + length + CRC32 over the
    // payload), so downstream subcommands detect truncation and bit rot.
    let bytes = persist::encode_container(&built.scheme).map_err(|e| e.to_string())?;
    std::fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    let r = &built.report;
    println!("built k = {k} scheme for n = {}:", g.num_vertices());
    println!("  simulated rounds  : {}", r.rounds);
    println!("  peak memory       : {} words/vertex", r.memory.max_peak());
    println!(
        "  max table / label : {} / {} words",
        r.max_table_words, r.max_label_words
    );
    println!("  saved             : {} bytes -> {out_path}", bytes.len());
    if let Some(path) = &opts.report {
        rec.write_report(
            path,
            "drt-build",
            &[
                ("n", Value::from(g.num_vertices())),
                ("k", Value::from(k)),
                ("graph", Value::from(graph_path.as_str())),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
    }
    Ok(())
}

fn load_scheme(path: &str) -> Result<routing::RoutingScheme, String> {
    persist::load_scheme_from(path).map_err(|e| format!("loading {path}: {e}"))
}

/// Resolve the scheme a subcommand routes with: an explicit `--scheme <file>`
/// wins, else a positional scheme path, else build a `k = 2` scheme on the
/// fly with the same fixed seed `drt build` uses.
fn resolve_scheme(
    g: &Graph,
    flag: Option<&str>,
    positional: Option<&str>,
) -> Result<routing::RoutingScheme, String> {
    if let Some(path) = flag.or(positional) {
        let scheme = load_scheme(path)?;
        if scheme.num_vertices() != g.num_vertices() {
            return Err(format!(
                "scheme covers {} vertices but the graph has {}",
                scheme.num_vertices(),
                g.num_vertices()
            ));
        }
        Ok(scheme)
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD27);
        Ok(routing::scheme::build(g, &BuildParams::new(2), &mut rng).scheme)
    }
}

fn cmd_route(args: &[String], oracle_only: bool) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut load: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut scheme_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--load" => {
                let v = it.next().ok_or("--load needs a packet count")?;
                load = Some(v.parse().map_err(|_| format!("bad packet count '{v}'"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--scheme" => {
                scheme_flag = Some(it.next().ok_or("--scheme needs a file path")?.clone());
            }
            other => positional.push(other.to_string()),
        }
    }
    let (graph_path, scheme_pos, src, dst) = match positional.as_slice() {
        [g, s, a, b] if scheme_flag.is_none() => (g, Some(s.as_str()), a, b),
        [g, a, b] => (g, None, a, b),
        _ => {
            return Err(
                "route|query <graph-file> [<scheme-file>|--scheme <file>] <src> <dst> \
                 [--load <packets>] [--seed <s>]"
                    .into(),
            )
        }
    };
    let g = load_graph(graph_path)?;
    let scheme = resolve_scheme(&g, scheme_flag.as_deref(), scheme_pos)?;
    let s = parse_vertex(&g, src)?;
    let t = parse_vertex(&g, dst)?;
    let exact = shortest_paths::dijkstra(&g, s)[t.index()];
    if oracle_only {
        let est = DistanceOracle::new(&scheme).query(s, t);
        println!("oracle estimate {s} -> {t}: {est} (exact {exact})");
        return Ok(());
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
            println!(
                "path: {}",
                trace
                    .path
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
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
        let n = net.graph().num_vertices() as u32;
        if n < 2 {
            return Err("--load needs a graph with at least 2 vertices".into());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pairs: Vec<(VertexId, VertexId)> = (0..p)
            .map(|_| {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                (VertexId(a), VertexId(b))
            })
            .collect();
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

fn cmd_trace(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut scheme_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => {
                scheme_flag = Some(it.next().ok_or("--scheme needs a file path")?.clone());
            }
            other => positional.push(other.to_string()),
        }
    }
    let (graph_path, scheme_pos, src, dst) =
        match positional.as_slice() {
            [g, s, a, b] if scheme_flag.is_none() => (g, Some(s.as_str()), a, b),
            [g, a, b] => (g, None, a, b),
            _ => return Err(
                "trace <graph-file> [<scheme-file>|--scheme <file>] <src> <dst> [--report <path>]"
                    .into(),
            ),
        };
    let g = load_graph(graph_path)?;
    let scheme = resolve_scheme(&g, scheme_flag.as_deref(), scheme_pos)?;
    let s = parse_vertex(&g, src)?;
    let t = parse_vertex(&g, dst)?;
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
    println!(
        "{:>4} {:>6} {:>7} {:>5} {:>7} {:<14} {:>6} {:>7}",
        "hop", "round", "vertex", "port", "next", "kind", "queue", "weight"
    );
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
    if let Some(path) = &opts.report {
        let mut rec = obs::Recorder::when(true);
        let span = rec.begin("drt/trace");
        rec.charge(&obs::Counters {
            rounds: sent.stats.rounds,
            messages: sent.stats.messages,
            words: sent.stats.words,
            broadcasts: 0,
        });
        rec.end(span);
        rec.add_record(trace.to_value());
        rec.write_report(
            path,
            "drt-trace",
            &[
                ("graph", Value::from(graph_path.as_str())),
                ("src", Value::from(u64::from(s.0))),
                ("dst", Value::from(u64::from(t.0))),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    Ok(())
}

fn cmd_audit(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    use routing::audit::{self, AuditConfig, Component, PerturbSpec};

    let mut positional = Vec::new();
    let mut cfg = AuditConfig::default();
    let mut kill_edges = 0.0f64;
    let mut kill_vertices = 0.0f64;
    let mut scheme_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut prob = |name: &str| -> Result<f64, String> {
            let v = it.next().ok_or(format!("{name} needs a probability"))?;
            let p: f64 = v.parse().map_err(|_| format!("bad probability '{v}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
            Ok(p)
        };
        match arg.as_str() {
            "--sample" => {
                let v = it.next().ok_or("--sample needs a pair count")?;
                let pairs: usize = v.parse().map_err(|_| format!("bad pair count '{v}'"))?;
                cfg = cfg.with_sample_pairs(pairs.max(1));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--kill-edges" => kill_edges = prob("--kill-edges")?,
            "--kill-vertices" => kill_vertices = prob("--kill-vertices")?,
            "--scheme" => {
                scheme_flag = Some(it.next().ok_or("--scheme needs a file path")?.clone());
            }
            other => positional.push(other.to_string()),
        }
    }
    let (graph_path, scheme_pos) = match positional.as_slice() {
        [g, s] if scheme_flag.is_none() => (g, Some(s.as_str())),
        [g] => (g, None),
        _ => {
            return Err(
                "audit <graph-file> [<scheme-file>|--scheme <file>] [--sample <pairs>] \
                 [--seed <s>] [--kill-edges <p>] [--kill-vertices <p>] [--report <path>] [--json]"
                    .into(),
            )
        }
    };
    let scheme_path = scheme_flag.as_deref().or(scheme_pos).unwrap_or("(built)");
    let scheme_path = scheme_path.to_string();
    let g = load_graph(graph_path)?;
    let scheme = resolve_scheme(&g, scheme_flag.as_deref(), scheme_pos)?;

    let out = audit::audit(&g, &scheme, &cfg);
    let perturbed = if kill_edges > 0.0 || kill_vertices > 0.0 {
        let spec = PerturbSpec {
            kill_edges,
            kill_vertices,
            seed: cfg.seed,
        };
        Some(audit::probe_perturbed(
            &g,
            &scheme,
            &cfg,
            &spec,
            out.probe.mean_stretch,
        ))
    } else {
        None
    };
    let record = out.to_record(perturbed.as_ref());

    if let Some(path) = &opts.report {
        // One scheme_audit record plus a vertex_load heatmap per memory
        // component, so the same tooling that maps traffic hot spots maps
        // memory hot spots.
        let mut rec = obs::Recorder::when(true);
        rec.add_record(record.to_value());
        for &c in &Component::ALL {
            let mut heat = obs::flight::VertexLoadMap::new();
            for (v, words) in out.attribution.component_words(c).iter().enumerate() {
                if *words > 0 {
                    heat.record(v as u32, *words);
                }
            }
            rec.add_record(heat.to_value(&[("component", Value::from(c.name()))]));
        }
        rec.write_report(
            path,
            "drt-audit",
            &[
                ("n", Value::from(g.num_vertices())),
                ("k", Value::from(scheme.k)),
                ("graph", Value::from(graph_path.as_str())),
                ("scheme", Value::from(scheme_path.as_str())),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
    }
    if opts.json {
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

fn cmd_report(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let [path] = args else {
        return Err("report <report-file> [--json]".into());
    };
    let records = obs::read_report(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut counts: Vec<(String, usize)> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let ty = obs::record::tag(record)
            .ok_or_else(|| format!("record {i}: missing 'type'"))?
            .to_string();
        // Every type in the registry is parsed by its declared schema and
        // re-checked against its identities (DESIGN.md §4d); the error
        // already names the field, the index makes the bad line findable.
        // A type the registry does not know is counted, not validated.
        if let Some((_, validate)) = obs::REGISTRY.iter().find(|(t, _)| *t == ty) {
            validate(record).map_err(|e| e.in_record(i).to_string())?;
        }
        match counts.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, c)) => *c += 1,
            None => counts.push((ty, 1)),
        }
    }
    // Surface the run's real time alongside the simulated costs: the summary
    // line carries the recorder's total wall clock, each span its own.
    let total_wall = records
        .iter()
        .find(|r| obs::record::tag(r) == Some("run_summary"))
        .and_then(|r| r.get("wall_ns"))
        .and_then(Value::as_u64);
    let mut spans: Vec<(&str, u64)> = records
        .iter()
        .filter(|r| obs::record::tag(r) == Some("span"))
        .filter_map(|r| {
            Some((
                r.get("name").and_then(Value::as_str)?,
                r.get("wall_ns").and_then(Value::as_u64)?,
            ))
        })
        .collect();
    spans.sort_by_key(|&(_, wall)| std::cmp::Reverse(wall));
    if opts.json {
        // Machine-readable summary: per-type counts, total and top-3 span
        // walls, and the conservation verdict across traffic summaries.
        let summary = Value::object(vec![
            ("file", Value::from(path.as_str())),
            ("records", Value::from(records.len())),
            ("valid", Value::from(true)),
            (
                "counts",
                Value::Object(
                    counts
                        .iter()
                        .map(|(t, c)| (t.clone(), Value::from(*c)))
                        .collect(),
                ),
            ),
            ("total_wall_ns", total_wall.map_or(Value::Null, Value::from)),
            (
                "top_spans",
                Value::Array(
                    spans
                        .iter()
                        .take(3)
                        .map(|&(name, wall)| {
                            Value::object(vec![
                                ("name", Value::from(name)),
                                ("wall_ns", Value::from(wall)),
                            ])
                        })
                        .collect(),
                ),
            ),
            // Traffic summaries re-check conservation on parse, so reaching
            // this point means every one of them balanced.
            ("conserved", Value::from(true)),
        ]);
        println!("{summary}");
        return Ok(());
    }
    println!("{path}: {} records, all valid", records.len());
    for (ty, c) in counts {
        println!("  {ty:<18} {c}");
    }
    if let Some(total) = total_wall {
        println!("  total wall         {:.2} ms", total as f64 / 1e6);
        for (name, wall) in spans.iter().take(3) {
            println!("    {name:<20} {:.2} ms", *wall as f64 / 1e6);
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut tier = bench::suite::Tier::Quick;
    let mut label = String::from("dev");
    let mut out: Option<String> = None;
    let mut repeats: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => tier = bench::suite::Tier::Smoke,
            "--quick" => tier = bench::suite::Tier::Quick,
            "--full" => tier = bench::suite::Tier::Full,
            "--label" => {
                label = it.next().ok_or("--label needs a value")?.clone();
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--repeats" => {
                let r = it.next().ok_or("--repeats needs a value")?;
                repeats = Some(r.parse().map_err(|_| format!("bad repeat count '{r}'"))?);
            }
            other => return Err(format!("unknown bench option '{other}'")),
        }
    }
    let out = out.unwrap_or_else(|| format!("BENCH_{label}.json"));
    println!(
        "running {} suite (label '{label}') — simulated columns are seed-pinned, wall is this \
         machine",
        tier.name()
    );
    let doc = bench::suite::run_suite(tier, &label, repeats, |case| {
        println!("  done {case}");
    })?;
    for case in &doc.cases {
        println!(
            "{:<28} rounds {:>9}  words {:>11}  wall p50 {:>9.2} ms",
            case.id,
            case.sim("rounds").unwrap_or(0),
            case.sim("words").unwrap_or(0),
            case.wall.p50_ns as f64 / 1e6
        );
    }
    for check in &doc.checks {
        println!(
            "scaling {:<28} exponent {:+.3} in [{:+.2}, {:+.2}]  r2 {:.3}  {}  ({})",
            check.metric,
            check.fit.exponent,
            check.predicted.lo,
            check.predicted.hi,
            check.fit.r2,
            if check.ok() { "OK" } else { "FAIL" },
            check.claim
        );
    }
    doc.save(&out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if doc.scaling_ok() {
        Ok(())
    } else {
        Err("scaling check(s) outside the paper-predicted exponent range".into())
    }
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let mut cfg = bench::suite::CompareConfig::default();
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sim-tol" => {
                let v = it.next().ok_or("--sim-tol needs a value")?;
                cfg.sim_tol = v.parse().map_err(|_| format!("bad tolerance '{v}'"))?;
            }
            "--wall-tol" => {
                let v = it.next().ok_or("--wall-tol needs a value")?;
                cfg.wall_tol = v.parse().map_err(|_| format!("bad tolerance '{v}'"))?;
            }
            "--wall-gate" => cfg.wall_gate = true,
            other => paths.push(other.to_string()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(
            "compare <old.json> <new.json> [--sim-tol <f>] [--wall-tol <f>] [--wall-gate]".into(),
        );
    };
    let old = bench::suite::BenchDoc::load(old_path)?;
    let new = bench::suite::BenchDoc::load(new_path)?;
    let cmp = bench::suite::compare(&old, &new, &cfg);
    print!("{}", cmp.markdown(&old.label, &new.label));
    if cmp.passed() {
        Ok(())
    } else {
        Err(format!("{} regression(s) detected", cmp.regressions.len()))
    }
}

/// Print one profile's phase-breakdown table and coverage. `label` names
/// the run (`profiled` / `sweep`).
fn print_profile(label: &str, s: &obs::profile::ProfileSummary) {
    let wall = s.engine_wall_ns.max(1) as f64;
    println!(
        "{label} attribution ({} rounds, engine wall {:.2} ms):",
        s.rounds + 1,
        s.engine_wall_ns as f64 / 1e6
    );
    println!(
        "  {:<10} {:>10} {:>8} {:>9} {:>9} {:>8}",
        "phase", "total ms", "% wall", "p50 us", "p95 us", "samples"
    );
    for p in &s.phases {
        println!(
            "  {:<10} {:>10.3} {:>7.1}% {:>9.1} {:>9.1} {:>8}",
            p.phase.name(),
            p.total_ns as f64 / 1e6,
            p.coord_ns as f64 / wall * 100.0,
            p.p50_ns as f64 / 1e3,
            p.p95_ns as f64 / 1e3,
            p.samples
        );
    }
    println!(
        "  coverage {:.1}% (phase tiling over engine wall)",
        s.coverage * 100.0
    );
    // `s.rounds` is the highest round index of any run folded in, so the
    // per-round average is only meaningful for a single run.
    if s.runs == 1 {
        println!(
            "  executed {} vertices, {:.1} per round (a round costs what it executes; compare with n)",
            s.executions,
            s.executions as f64 / (s.rounds + 1) as f64
        );
    } else {
        println!("  executed {} vertices over {} runs", s.executions, s.runs);
    }
    if s.dropped_samples > 0 {
        println!(
            "  note: {} samples evicted from the quantile window (totals stay exact)",
            s.dropped_samples
        );
    }
}

fn cmd_profile(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let usage = "profile [--n <vertices>] [--packets <p>] [--seed <s>] [--trace-out <path>] \
                 [--report <path>]";
    let mut n: usize = 256;
    let mut packets: usize = 2048;
    let mut seed: u64 = 42;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => {
                let v = it.next().ok_or("--n needs a vertex count")?;
                n = v.parse().map_err(|_| format!("bad vertex count '{v}'"))?;
            }
            "--packets" => {
                let v = it.next().ok_or("--packets needs a count")?;
                packets = v.parse().map_err(|_| format!("bad packet count '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            _ => return Err(usage.into()),
        }
    }
    if n < 2 {
        return Err("--n needs at least 2 vertices".into());
    }
    if packets == 0 {
        return Err("--packets needs at least 1 packet".into());
    }

    // A self-contained engine-heavy workload: a seeded batch of packets
    // store-and-forwarded through a k = 2 scheme. The builds never enter
    // the engine round loop (they charge the cost ledger directly), so a
    // batch send is the representative thing to attribute.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=100, &mut rng);
    let built = routing::build(&g, &BuildParams::new(2), &mut rng);
    let net = congest::Network::new(g);
    let nv = net.graph().num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = (0..packets)
        .map(|_| {
            let a = rng.gen_range(0..nv);
            let mut b = rng.gen_range(0..nv);
            while b == a {
                b = rng.gen_range(0..nv);
            }
            (VertexId(a), VertexId(b))
        })
        .collect();
    println!("profiling a {packets}-packet batch on er n = {n} (k = 2 scheme, seed {seed})");

    // Overhead baseline: the same run with the profiler off.
    let baseline = packet::send(&net, &built.scheme, &pairs, packet::SendOptions::default());
    let profiled = packet::send(
        &net,
        &built.scheme,
        &pairs,
        packet::SendOptions {
            trace: false,
            profile: true,
        },
    );
    let profile = profiled
        .stats
        .profile
        .as_deref()
        .ok_or("profiled run returned no profile")?;

    // Profiling must never perturb the simulation itself.
    if !profiled.stats.same_simulation(&baseline.stats) {
        return Err("profiler changed simulated results — this is a bug".into());
    }
    let base_ns = baseline.stats.wall_ns.max(1);
    let overhead = (profiled.stats.wall_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0;
    println!(
        "baseline (profiler off): {:.2} ms; profiled: {:.2} ms ({overhead:+.1}% overhead)",
        baseline.stats.wall_ns as f64 / 1e6,
        profiled.stats.wall_ns as f64 / 1e6
    );
    println!();

    print_profile("profiled", &profile.summary());

    if let Some(path) = &trace_out {
        std::fs::write(path, profile.chrome_trace())
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        println!(
            "chrome trace written to {path} ({} events) — load in Perfetto or chrome://tracing",
            profile.sample_count()
        );
    }
    if let Some(path) = &opts.report {
        let mut rec = obs::Recorder::when(true);
        rec.enable_profiling();
        let span = rec.begin("drt/profile");
        rec.charge(&obs::Counters {
            rounds: profiled.stats.rounds,
            messages: profiled.stats.messages,
            words: profiled.stats.words,
            broadcasts: 0,
        });
        rec.end(span);
        rec.absorb_profile(profile);
        rec.write_report(
            path,
            "drt-profile",
            &[("n", Value::from(n)), ("packets", Value::from(packets))],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    Ok(())
}

fn cmd_stretch(args: &[String]) -> Result<(), String> {
    let [graph_path, scheme_path, rest @ ..] = args else {
        return Err("stretch <graph-file> <scheme-file> [num-sources]".into());
    };
    let g = load_graph(graph_path)?;
    let scheme = load_scheme(scheme_path)?;
    let sources: usize = rest
        .first()
        .map(|s| s.parse().map_err(|_| format!("bad source count '{s}'")))
        .transpose()?
        .unwrap_or(8);
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

fn cmd_traffic(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let usage = "traffic <graph-file> <scheme-file> [--workload <uniform|gravity|hotspot|worst>] \
                 [--rate <r[,r...]>] [--rounds <n>] [--queue-cap <c>] \
                 [--policy <tail-drop|oldest-drop>] [--arrival <fixed|bernoulli>] [--seed <s>] \
                 [--report <path>]";
    let mut positional = Vec::new();
    let mut workload = traffic::WorkloadKind::Uniform;
    let mut rates: Vec<f64> = vec![0.5, 1.0, 2.0, 4.0];
    let mut config = traffic::ScenarioConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let v = it.next().ok_or("--workload needs a value")?;
                workload = traffic::WorkloadKind::parse(v).ok_or_else(|| {
                    format!("unknown workload '{v}' (uniform|gravity|hotspot|worst)")
                })?;
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                rates = v
                    .split(',')
                    .map(|tok| {
                        tok.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad rate '{tok}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                config.inject_rounds = v.parse().map_err(|_| format!("bad round count '{v}'"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                config.queue_cap = v.parse().map_err(|_| format!("bad queue capacity '{v}'"))?;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                config.policy = traffic::DropPolicy::parse(v)
                    .ok_or_else(|| format!("unknown drop policy '{v}' (tail-drop|oldest-drop)"))?;
            }
            "--arrival" => {
                let v = it.next().ok_or("--arrival needs a value")?;
                config.arrival = traffic::ArrivalKind::parse(v)
                    .ok_or_else(|| format!("unknown arrival process '{v}' (fixed|bernoulli)"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                config.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            other => positional.push(other.to_string()),
        }
    }
    if rates.is_empty() {
        return Err("--rate needs at least one rate".into());
    }
    let [graph_path, scheme_path] = positional.as_slice() else {
        return Err(usage.into());
    };
    let g = load_graph(graph_path)?;
    let scheme = load_scheme(scheme_path)?;
    config.profile = opts.profile;
    let net = congest::Network::new(g);
    let scenario = traffic::TrafficScenario {
        network: &net,
        scheme: &scheme,
        workload,
        config,
    };
    let slo = traffic::Slo::default();
    let cfg = &scenario.config;
    println!(
        "steady-state {} traffic on {graph_path} (n = {}): {} arrivals over {} rounds, \
         queue cap {} ({}), seed {}",
        workload.name(),
        net.graph().num_vertices(),
        cfg.arrival.name(),
        cfg.inject_rounds,
        cfg.queue_cap,
        cfg.policy.name(),
        cfg.seed
    );
    println!(
        "SLO: p99 queue delay <= {} rounds, loss <= {:.1}%",
        slo.max_p99_queue_delay,
        slo.max_drop_fraction * 100.0
    );
    let report = scenario.sweep(&rates, &slo);
    println!(
        "{:>8} {:>9} {:>9} {:>8} {:>7} {:>10} {:>11} {:>8} {:>5}",
        "rate",
        "injected",
        "delivered",
        "dropped",
        "undlv",
        "p99 delay",
        "peak queue",
        "drained",
        "SLO"
    );
    for point in &report.points {
        let s = &point.summary;
        println!(
            "{:>8.2} {:>9} {:>9} {:>8} {:>7} {:>10} {:>11} {:>8} {:>5}",
            s.rate,
            s.injected,
            s.delivered,
            s.dropped(),
            s.undeliverable,
            s.queue_delay.p99,
            s.peak_queue_packets,
            if s.drained { "yes" } else { "no" },
            if point.sustainable(&slo) {
                "ok"
            } else {
                "MISS"
            }
        );
    }
    match report.knee {
        Some(knee) => {
            println!("saturation knee: {knee} packets/round (largest swept rate meeting the SLO)");
        }
        None => println!("saturation knee: none — no swept rate met the SLO"),
    }
    // With `--profile`, every rate's engine run carried the profiler; fold
    // the per-point profiles into one sweep-wide attribution.
    let mut sweep_profile: Option<obs::profile::EngineProfile> = None;
    if opts.profile {
        for point in &report.points {
            if let Some(p) = point.stats.profile.as_deref() {
                match &mut sweep_profile {
                    Some(acc) => acc.absorb(p),
                    None => sweep_profile = Some(p.clone()),
                }
            }
        }
        if let Some(p) = &sweep_profile {
            println!();
            print_profile("sweep", &p.summary());
        }
    }
    if let Some(path) = &opts.report {
        let mut rec = obs::Recorder::when(true);
        if let Some(p) = &sweep_profile {
            rec.enable_profiling();
            rec.absorb_profile(p);
        }
        let span = rec.begin("drt/traffic");
        for point in &report.points {
            rec.charge(&obs::Counters {
                rounds: point.stats.rounds,
                messages: point.stats.messages,
                words: point.stats.words,
                broadcasts: 0,
            });
        }
        rec.end(span);
        for (i, point) in report.points.iter().enumerate() {
            rec.add_record(point.summary.to_value(&[("sweep_index", Value::from(i))]));
            rec.add_record(
                point
                    .edge_load
                    .to_value(&[("rate", Value::from(point.summary.rate))]),
            );
        }
        rec.write_report(
            path,
            "drt-traffic",
            &[
                ("graph", Value::from(graph_path.as_str())),
                ("workload", Value::from(workload.name())),
                ("rates", Value::from(rates.len())),
                ("knee", report.knee.map_or(Value::Null, Value::from)),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    Ok(())
}

fn cmd_churn(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let usage = "churn <graph-file> <scheme-file> \
                 [--process <random|random-edges|targeted|regional>] [--rate <f>] \
                 [--rounds <n>] [--revive <p>] [--workload <uniform|gravity|hotspot|worst>] \
                 [--traffic-rate <f>] [--burst-rounds <n>] [--queue-cap <c>] [--pairs <n>] \
                 [--seed <s>] [--slo <floor>] [--slo-round <r>] [--report <path>] [--json]";
    let prob = |flag: &str, v: &str| -> Result<f64, String> {
        let p: f64 = v.parse().map_err(|_| format!("bad {flag} '{v}'"))?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("{flag} must be in [0, 1], got {p}"))
        }
    };
    let mut positional = Vec::new();
    let mut config = churn::ChurnConfig::default();
    let mut slo_floor: Option<f64> = None;
    let mut slo_round: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--process" => {
                let v = it.next().ok_or("--process needs a value")?;
                config.process = churn::ProcessKind::parse(v).ok_or_else(|| {
                    format!("unknown process '{v}' (random|random-edges|targeted|regional)")
                })?;
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                config.rate = prob("--rate", v)?;
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                config.rounds = v.parse().map_err(|_| format!("bad round count '{v}'"))?;
            }
            "--revive" => {
                let v = it.next().ok_or("--revive needs a value")?;
                config.revive = prob("--revive", v)?;
            }
            "--workload" => {
                let v = it.next().ok_or("--workload needs a value")?;
                config.workload = traffic::WorkloadKind::parse(v).ok_or_else(|| {
                    format!("unknown workload '{v}' (uniform|gravity|hotspot|worst)")
                })?;
            }
            "--traffic-rate" => {
                let v = it.next().ok_or("--traffic-rate needs a value")?;
                config.traffic_rate = v.parse().map_err(|_| format!("bad traffic rate '{v}'"))?;
            }
            "--burst-rounds" => {
                let v = it.next().ok_or("--burst-rounds needs a value")?;
                config.burst_rounds = v.parse().map_err(|_| format!("bad burst rounds '{v}'"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                config.queue_cap = v.parse().map_err(|_| format!("bad queue capacity '{v}'"))?;
            }
            "--pairs" => {
                let v = it.next().ok_or("--pairs needs a value")?;
                config.probe_pairs = v.parse().map_err(|_| format!("bad pair count '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                config.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--slo" => {
                let v = it.next().ok_or("--slo needs a value")?;
                slo_floor = Some(prob("--slo", v)?);
            }
            "--slo-round" => {
                let v = it.next().ok_or("--slo-round needs a value")?;
                slo_round = Some(v.parse().map_err(|_| format!("bad SLO round '{v}'"))?);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [graph_path, scheme_path] = positional.as_slice() else {
        return Err(usage.into());
    };
    if config.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let g = load_graph(graph_path)?;
    let scheme = load_scheme(scheme_path)?;
    let slo = slo_floor.map(|floor| churn::ChurnSlo {
        floor,
        through_round: slo_round.unwrap_or(config.rounds),
    });
    let scenario = churn::ChurnScenario {
        graph: &g,
        scheme: &scheme,
        config,
    };
    let run = scenario.run();
    let record = run.to_record(&g, scheme.k, slo.as_ref());

    if opts.json {
        println!("{}", record.to_value());
    } else {
        println!(
            "{} churn on {graph_path} (n = {}, m = {}): rate {:.3}/round for {} rounds, \
             revive {:.3}, {} workload at {:.2}/round, seed {}",
            config.process.name(),
            g.num_vertices(),
            g.num_edges(),
            config.rate,
            config.rounds,
            config.revive,
            config.workload.name(),
            config.traffic_rate,
            config.seed
        );
        println!(
            "probe: {} fixed pairs, {} connected intact (reachability denominator)",
            run.probe_pairs, run.baseline_connected
        );
        println!(
            "{:>5} {:>6} {:>6} {:>6} {:>6} {:>7} {:>8} {:>7} {:>8} {:>7} {:>6}",
            "round",
            "events",
            "deadV",
            "deadE",
            "blast",
            "reach%",
            "stretch",
            "burst",
            "delivrd",
            "stuck",
            "undlv"
        );
        for row in &run.rows {
            println!(
                "{:>5} {:>6} {:>6} {:>6} {:>6} {:>6.1}% {:>7.3}x {:>7} {:>8} {:>7} {:>6}",
                row.round,
                row.events,
                row.dead_vertices,
                row.dead_edges,
                row.blast_radius,
                row.reachability(run.baseline_connected) * 100.0,
                row.stretch_inflation,
                row.offered,
                row.flow_delivered,
                row.dropped_stuck,
                row.undeliverable
            );
        }
        let d = &record.degradation;
        println!(
            "degradation: reachability {:.1}% -> {:.1}%; knee {}; half-life {}",
            d.initial_reachability * 100.0,
            d.final_reachability * 100.0,
            match d.knee_round {
                Some(r) => format!("round {r} (-{:.1}%)", d.knee_drop * 100.0),
                None => "none".to_string(),
            },
            match d.half_life_round {
                Some(r) => format!("round {r}"),
                None => "not reached".to_string(),
            }
        );
    }
    if let Some(path) = &opts.report {
        let mut rec = obs::Recorder::when(true);
        let span = rec.begin("drt/churn");
        rec.charge(&obs::Counters {
            rounds: run.engine_rounds,
            messages: run.engine_messages,
            words: run.engine_words,
            broadcasts: 0,
        });
        rec.end(span);
        rec.add_record(record.to_value());
        rec.write_report(
            path,
            "drt-churn",
            &[
                ("graph", Value::from(graph_path.as_str())),
                ("scheme", Value::from(scheme_path.as_str())),
                ("process", Value::from(config.process.name())),
                ("churn_rounds", Value::from(config.rounds)),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        if !opts.json {
            println!("report written to {}", path.display());
        }
    }
    if let Some(verdict) = &record.slo {
        match verdict.breach_round {
            Some(r) => {
                return Err(format!(
                    "SLO breached: reachability fell below {:.1}% at round {r} \
                     (declared floor through round {})",
                    verdict.floor * 100.0,
                    verdict.through_round
                ));
            }
            None => {
                if !opts.json {
                    println!(
                        "SLO ok: reachability stayed >= {:.1}% through round {}",
                        verdict.floor * 100.0,
                        verdict.through_round
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String], opts: &obs::cli::ReportOptions) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut scheme_flag: Option<String> = None;
    let mut cfg = serve::ServeConfig::default();
    let mut open_rates: Option<Vec<f64>> = None;
    let mut threads = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => {
                scheme_flag = Some(it.next().ok_or("--scheme needs a file path")?.clone());
            }
            "--queries" => {
                let v = it.next().ok_or("--queries needs a count")?;
                cfg.queries = v.parse().map_err(|_| format!("bad query count '{v}'"))?;
            }
            "--batch" => {
                let v = it.next().ok_or("--batch needs a size")?;
                let b: usize = v.parse().map_err(|_| format!("bad batch size '{v}'"))?;
                if b == 0 {
                    return Err("--batch must be at least 1".into());
                }
                cfg.batch = b;
            }
            "--workload" => {
                let v = it.next().ok_or("--workload needs a name")?;
                cfg.workload = serve::ServeWorkload::parse(v).ok_or(format!(
                    "unknown workload '{v}' (uniform|hotspot|adversarial)"
                ))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--check-rate" => {
                let v = it.next().ok_or("--check-rate needs a fraction")?;
                let r: f64 = v.parse().map_err(|_| format!("bad check rate '{v}'"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--check-rate must be in [0, 1], got {r}"));
                }
                cfg.check_rate = r;
            }
            "--open" => {
                let v = it
                    .next()
                    .ok_or("--open needs a qps list (e.g. 1e5,5e5,1e6)")?;
                let rates: Result<Vec<f64>, String> = v
                    .split(',')
                    .map(|r| r.parse::<f64>().map_err(|_| format!("bad qps '{r}'")))
                    .collect();
                open_rates = Some(rates?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            other => positional.push(other.to_string()),
        }
    }
    let [graph_path] = positional.as_slice() else {
        return Err(
            "serve <graph-file> [--scheme <file>] [--queries <q>] [--batch <b>] \
             [--workload uniform|hotspot|adversarial] [--seed <s>] [--check-rate <f>] \
             [--open <qps,...>] [--threads <t>] [--report <path>] [--json]"
                .into(),
        );
    };
    let g = load_graph(graph_path)?;
    if g.num_vertices() < 2 {
        return Err("serving needs a graph with at least 2 vertices".into());
    }
    let scheme = resolve_scheme(&g, scheme_flag.as_deref(), None)?;
    // `0` (the default) sizes the pool to every available core.
    cfg.threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    let scheme_name = scheme_flag.as_deref().unwrap_or("(built)").to_string();
    let snapshot = serve::Snapshot::share(g, scheme);
    let stream = serve::generate_stream(&snapshot, &cfg);
    let mut pool = serve::ServePool::start(snapshot.clone(), cfg.threads);

    let summaries: Vec<serve::KneePoint> = match &open_rates {
        None => {
            let summary = serve::run_closed(&mut pool, &stream, &cfg);
            vec![serve::KneePoint {
                offered: 0.0,
                summary,
            }]
        }
        Some(rates) => {
            let slo = serve::ServeSlo::default();
            let (points, knee) = serve::sweep_open(&mut pool, &stream, &cfg, rates, &slo);
            if !opts.json {
                print_serve_sweep(&points, knee, &slo);
            }
            points
        }
    };

    if opts.json {
        for (i, p) in summaries.iter().enumerate() {
            println!("{}", p.summary.to_value(&[("sweep", Value::from(i))]));
        }
    } else if open_rates.is_none() {
        print_serve_summary(&summaries[0].summary, graph_path, &scheme_name, &snapshot);
    }

    if let Some(path) = &opts.report {
        let mut rec = obs::Recorder::when(true);
        for (i, p) in summaries.iter().enumerate() {
            rec.add_record(p.summary.to_value(&[("sweep", Value::from(i))]));
        }
        rec.write_report(
            path,
            "drt-serve",
            &[
                ("graph", Value::from(graph_path.as_str())),
                ("scheme", Value::from(scheme_name.as_str())),
                ("n", Value::from(snapshot.graph.num_vertices())),
                ("k", Value::from(snapshot.scheme.k)),
            ],
        )
        .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        if !opts.json {
            println!("report written to {}", path.display());
        }
    }

    let mismatches: u64 = summaries.iter().map(|p| p.summary.mismatches).sum();
    let errors: u64 = summaries.iter().map(|p| p.summary.errors).sum();
    if mismatches > 0 || errors > 0 {
        return Err(format!(
            "serving diverged from the central router: {mismatches} cross-check mismatch(es), \
             {errors} internal error(s)"
        ));
    }
    Ok(())
}

fn print_serve_summary(
    s: &obs::serve::ServeSummary,
    graph_path: &str,
    scheme_name: &str,
    snapshot: &serve::Snapshot,
) {
    println!(
        "served {} queries on {graph_path} (n = {}, k = {}, scheme {scheme_name}): \
         {} workload, {} loop, {} thread{}, batch {}",
        s.queries,
        snapshot.graph.num_vertices(),
        snapshot.scheme.k,
        s.workload,
        s.mode,
        s.threads,
        if s.threads == 1 { "" } else { "s" },
        s.batch
    );
    println!(
        "  mix          : {} route / {} distance / {} trace",
        s.route_queries, s.distance_queries, s.trace_queries
    );
    println!(
        "  outcomes     : {} answered, {} unreachable, {} errors",
        s.answered, s.unreachable, s.errors
    );
    println!(
        "  cross-checks : {} sampled (rate {:.2}), {} mismatches",
        s.checks, s.check_rate, s.mismatches
    );
    println!(
        "  throughput   : {:.3} Mqps ({} queries in {:.2} ms)",
        s.qps / 1e6,
        s.queries,
        s.wall_ns as f64 / 1e6
    );
    println!(
        "  latency ns   : p50 {}  p95 {}  p99 {}",
        s.p50_ns, s.p95_ns, s.p99_ns
    );
    println!(
        "  aggregates   : total weight {}, total hops {}, checksum {:#018x}",
        s.total_weight, s.total_hops, s.answer_checksum
    );
}

fn print_serve_sweep(points: &[serve::KneePoint], knee: Option<usize>, slo: &serve::ServeSlo) {
    println!(
        "open-loop sweep ({} rung{}, SLO: achieved >= {:.0}% of offered, p99 <= {:.2} ms):",
        points.len(),
        if points.len() == 1 { "" } else { "s" },
        slo.min_delivered * 100.0,
        slo.max_p99_ns as f64 / 1e6
    );
    println!(
        "{:>12} {:>12} {:>9} {:>9} {:>9} {:>9}  verdict",
        "offered", "achieved", "del%", "p50 ns", "p99 ns", "misses"
    );
    for p in points {
        let s = &p.summary;
        let delivered = if p.offered > 0.0 {
            s.qps / p.offered
        } else {
            1.0
        };
        let ok = delivered >= slo.min_delivered && s.p99_ns <= slo.max_p99_ns;
        println!(
            "{:>12.0} {:>12.0} {:>8.1}% {:>9} {:>9} {:>9}  {}",
            p.offered,
            s.qps,
            delivered * 100.0,
            s.p50_ns,
            s.p99_ns,
            s.mismatches,
            if ok { "ok" } else { "over the knee" }
        );
    }
    match knee {
        Some(i) => println!(
            "knee: {:.0} offered qps (achieved {:.0})",
            points[i].offered, points[i].summary.qps
        ),
        None => println!("knee: none — every rung violated the SLO"),
    }
}
