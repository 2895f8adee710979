//! `drt traffic`, `drt churn` and `drt profile`: the CONGEST engine under
//! load.
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
//! `drt profile` turns on the engine profiler (`obs::profile`) over a
//! self-contained store-and-forward workload: it generates a seeded graph,
//! builds a `k = 2` scheme, and pushes a packet batch through the CONGEST
//! engine twice — once unprofiled (the overhead baseline), once profiled. It
//! prints the profiler's overhead and the per-phase wall breakdown (setup,
//! compute, scatter, merge) with the vertices executed per round.
//! `--trace-out <path>` additionally writes the retained phase intervals as
//! a Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`);
//! `--report <path>` writes a JSONL report carrying the `engine_profile`
//! record. `drt traffic --profile` attributes the sweep's rounds and
//! appends the phase summary to its report. Profiling never changes
//! simulated results — rounds, words, outcomes, and memory are
//! byte-identical with the profiler on or off.

use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{packet, BuildParams};
use traffic::{Workload, WorkloadKind};

use crate::cli::{prob, switch, val, Args};

pub fn traffic(a: &Args) -> Result<(), String> {
    let mut workload = WorkloadKind::Uniform;
    let mut rates: Vec<f64> = vec![0.5, 1.0, 2.0, 4.0];
    let mut config = traffic::ScenarioConfig::default();
    let [graph_path, scheme_path] = a.exactly(&mut [
        val("--workload", "workload", &mut workload),
        val("--rate", "rate", &mut rates),
        val("--rounds", "round count", &mut config.inject_rounds),
        val("--queue-cap", "queue capacity", &mut config.queue_cap),
        val("--policy", "drop policy", &mut config.policy),
        val("--arrival", "arrival process", &mut config.arrival),
        val("--seed", "seed", &mut config.seed),
        switch("--profile", &mut config.profile),
    ])?;
    check_traffic(
        ("--rate", &rates),
        ("--rounds", config.inject_rounds),
        None,
        config.queue_cap,
    )?;
    let g = crate::load_graph(&graph_path)?;
    crate::need_pairs(&g, "traffic")?;
    let (scheme, _) = crate::resolve_scheme(&g, Some(&scheme_path))?;
    let net = congest::Network::new(g);
    let scenario = traffic::TrafficScenario {
        network: &net,
        scheme: &scheme,
        workload,
        config,
    };
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
        traffic::MAX_P99_QUEUE_DELAY,
        traffic::MAX_DROP_FRACTION * 100.0
    );
    let report = scenario.sweep(&rates);
    println!("    rate  injected delivered  dropped   undlv  p99 delay  peak queue  drained   SLO");
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
            if point.sustainable() { "ok" } else { "MISS" }
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
    let mut profiles = report
        .points
        .iter()
        .filter_map(|p| p.stats.profile.as_deref());
    let profile = profiles.next().map(|first| {
        let mut acc = first.clone();
        profiles.for_each(|p| acc.absorb(p));
        acc.summary()
    });
    if let Some(summary) = &profile {
        println!();
        print_profile("sweep", summary);
    }
    let mut sweep = a.sweep();
    sweep.charged(
        "drt/traffic",
        report.points.iter().map(|p| p.stats.counters()),
    );
    for (i, point) in report.points.iter().enumerate() {
        let rate = point.summary.rate;
        sweep.add_record(point.summary.to_value(&[("sweep_index", Value::from(i))]));
        sweep.add_record(point.edge_load.to_value(&[("rate", Value::from(rate))]));
    }
    if let Some(summary) = profile {
        sweep.add_record(summary.to_value());
    }
    let extra = [
        ("graph", Value::from(graph_path.as_str())),
        ("workload", Value::from(workload.name())),
        ("rates", Value::from(rates.len())),
        ("knee", report.knee.map_or(Value::Null, Value::from)),
    ];
    crate::write_report(&sweep, &extra, true)
}

pub fn churn(a: &Args) -> Result<(), String> {
    let mut config = churn::ChurnConfig::default();
    let (mut slo_floor, mut slo_round) = (None::<f64>, None::<u64>);
    let [graph_path, scheme_path] = a.exactly(&mut [
        val("--process", "process", &mut config.process),
        prob("--rate", "--rate", &mut config.rate),
        val("--rounds", "round count", &mut config.rounds),
        prob("--revive", "--revive", &mut config.revive),
        val("--workload", "workload", &mut config.workload),
        val("--traffic-rate", "traffic rate", &mut config.traffic_rate),
        val("--burst-rounds", "burst rounds", &mut config.burst_rounds),
        val("--queue-cap", "queue capacity", &mut config.queue_cap),
        val("--pairs", "pair count", &mut config.probe_pairs),
        val("--seed", "seed", &mut config.seed),
        prob("--slo", "--slo", &mut slo_floor),
        val("--slo-round", "SLO round", &mut slo_round),
    ])?;
    if config.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    if config.rounds > churn::MAX_ROUNDS {
        return Err(format!(
            "--rounds must be at most {}, got {}",
            churn::MAX_ROUNDS,
            config.rounds
        ));
    }
    check_traffic(
        ("--traffic-rate", &[config.traffic_rate]),
        ("--burst-rounds", config.burst_rounds),
        Some(("--rounds", config.rounds)),
        config.queue_cap,
    )?;
    let g = crate::load_graph(&graph_path)?;
    crate::need_pairs(&g, "churn")?;
    let (scheme, _) = crate::resolve_scheme(&g, Some(&scheme_path))?;
    let scenario = churn::ChurnScenario {
        graph: &g,
        scheme: &scheme,
        config,
    };
    let run = scenario.run();
    let mut record = run.timeline;
    let slo_round = slo_round.unwrap_or(config.rounds);
    record.slo = slo_floor.map(|floor| record.slo_verdict(floor, slo_round));

    if a.opts.json {
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
            record.probe_pairs, record.baseline_connected
        );
        println!(
            "round events  deadV  deadE  blast  reach%  stretch   burst  delivrd   stuck  undlv"
        );
        for row in &record.rounds {
            println!(
                "{:>5} {:>6} {:>6} {:>6} {:>6} {:>6.1}% {:>7.3}x {:>7} {:>8} {:>7} {:>6}",
                row.round,
                row.events,
                row.dead_vertices,
                row.dead_edges,
                row.blast_radius,
                row.reachability(record.baseline_connected) * 100.0,
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
    let mut sweep = a.sweep();
    sweep.charged("drt/churn", [run.engine]);
    sweep.add_record(record.to_value());
    let extra = [
        ("graph", Value::from(graph_path.as_str())),
        ("scheme", Value::from(scheme_path.as_str())),
        ("process", Value::from(config.process.name())),
        ("churn_rounds", Value::from(config.rounds)),
    ];
    crate::write_report(&sweep, &extra, !a.opts.json)?;
    let Some(verdict) = &record.slo else {
        return Ok(());
    };
    if let Some(r) = verdict.breach_round {
        return Err(format!(
            "SLO breached: reachability fell below {:.1}% at round {r} \
             (declared floor through round {})",
            verdict.floor * 100.0,
            verdict.through_round
        ));
    }
    if !a.opts.json {
        println!(
            "SLO ok: reachability stayed >= {:.1}% through round {}",
            verdict.floor * 100.0,
            verdict.through_round
        );
    }
    Ok(())
}

pub fn profile(a: &Args) -> Result<(), String> {
    let (mut n, mut packets, mut seed) = (256usize, 2048usize, 42u64);
    let mut trace_out = None::<String>;
    let [] = a.exactly(&mut [
        val("--n", "vertex count", &mut n),
        val("--packets", "packet count", &mut packets),
        val("--seed", "seed", &mut seed),
        val("--trace-out", "path", &mut trace_out),
    ])?;
    if n < 2 {
        return Err("--n needs at least 2 vertices".into());
    }
    if packets == 0 {
        return Err("--packets needs at least 1 packet".into());
    }

    // A self-contained engine-heavy workload: a seeded batch of packets
    // store-and-forwarded through a k = 2 scheme. The builds never enter
    // the engine round loop (their stages are charged by formula), so a
    // batch send is the representative thing to attribute.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = crate::er_graph(n, &mut rng);
    let built = routing::build(&g, &BuildParams::new(2), &mut rng);
    let mut uniform = Workload::prepare(WorkloadKind::Uniform, &g, &built.scheme, seed);
    let pairs: Vec<_> = (0..packets).map(|_| uniform.draw(&mut rng)).collect();
    let net = congest::Network::new(g);
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
    let mut sweep = a.sweep();
    sweep.charged("drt/profile", [profiled.stats.counters()]);
    sweep.add_record(profile.summary().to_value());
    let extra = [("n", Value::from(n)), ("packets", Value::from(packets))];
    crate::write_report(&sweep, &extra, true)
}

/// Refuse traffic settings a run would not honour as given, before a
/// packet is planned: the arrival process reads a negative or non-finite
/// rate as 0, the plane a zero cap as 1, a run's round loop and series must
/// end within their budget, packet ids are `u32`, and a run's plan must fit
/// in memory. `rates` and `rounds` carry the flags they came from: `drt
/// traffic` checks its sweep, `drt churn` its per-round burst. A burst
/// planned once per churn round is `repeats`, with its flag: all of them
/// together must stay within the injection rounds and the offered packets
/// one run may take, so that the bursts' planning loops end in the time
/// one run's would.
fn check_traffic(
    (rate_flag, rates): (&str, &[f64]),
    (rounds_flag, rounds): (&str, u64),
    repeats: Option<(&str, u64)>,
    queue_cap: usize,
) -> Result<(), String> {
    if let Some(r) = rates.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
        return Err(format!(
            "{rate_flag} must be finite and at least 0, got {r}"
        ));
    }
    if queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if rounds > traffic::MAX_INJECT_ROUNDS {
        return Err(format!(
            "{rounds_flag} must be at most {}, got {rounds}",
            traffic::MAX_INJECT_ROUNDS
        ));
    }
    let peak = rates.iter().fold(0.0, |a: f64, &r| a.max(r.ceil()));
    let offered = peak * rounds as f64;
    if offered > f64::from(u32::MAX) {
        return Err(format!(
            "{rate_flag} {peak} over {rounds_flag} {rounds} offers more than {} packets",
            u32::MAX
        ));
    }
    if offered > traffic::MAX_OFFERED_PACKETS as f64 {
        return Err(format!(
            "{rate_flag} {peak} over {rounds_flag} {rounds} offers more than {} packets, \
             the most one run plans in 4 GiB",
            traffic::MAX_OFFERED_PACKETS
        ));
    }
    let Some((repeat_flag, repeats)) = repeats else {
        return Ok(());
    };
    if u128::from(repeats) * u128::from(rounds) > u128::from(traffic::MAX_INJECT_ROUNDS) {
        return Err(format!(
            "{repeat_flag} {repeats} bursts of {rounds_flag} {rounds} run more than {} \
             injection rounds in all",
            traffic::MAX_INJECT_ROUNDS
        ));
    }
    if offered * repeats as f64 > traffic::MAX_OFFERED_PACKETS as f64 {
        return Err(format!(
            "{repeat_flag} {repeats} bursts of {rate_flag} {peak} over {rounds_flag} {rounds} \
             offer more than {} packets in all",
            traffic::MAX_OFFERED_PACKETS
        ));
    }
    Ok(())
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
    println!("  phase        total ms   % wall    p50 us    p95 us  samples");
    for p in &s.phases {
        println!(
            "  {:<10} {:>10.3} {:>7.1}% {:>9.1} {:>9.1} {:>8}",
            p.phase.name(),
            p.coord_ns as f64 / 1e6,
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
