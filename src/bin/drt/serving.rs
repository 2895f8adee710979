//! `drt serve`: the query-serving plane (crate `serve`).
//!
//! The persisted scheme is loaded into an immutable shared snapshot and
//! `--threads` threads answer a seeded stream of route / distance-estimate /
//! trace queries, each answer sampled (`--check-rate`) for a byte-identical
//! cross-check against the central router and distance oracle. Each run
//! cuts the stream once into one contiguous share per thread; the calling
//! thread serves the first share, helper threads the others. The default
//! closed loop dispatches batches back to back and reports the saturation
//! QPS with nearest-rank p50/p95/p99 per-query latency; `--open <qps,...>`
//! instead walks an offered-rate ladder on a timed schedule, pacing each
//! share at `offered / threads`, and reports the knee — the largest rate
//! still absorbed within the SLO — the serving-side analog of `drt
//! traffic`'s saturation search. Simulated columns (query mix, outcome split, aggregate
//! weight/hops, checks, mismatches, answer checksum) are byte-identical at
//! any `--threads` count (`0`, the default, means all cores) and in both
//! loop modes; `--threads` is a serve-only flag. QPS and latency are
//! wall-clock and advisory. `--report` writes one `serve_summary` record per
//! run (one per rung under `--open`); the command exits nonzero on any
//! cross-check mismatch or internal serving error. Without `--scheme` it
//! builds a `k = 2` scheme on the fly, matching `drt build`'s fixed seed.

use obs::json::Value;

use crate::cli::{prob, val, Args};

pub fn serve(a: &Args) -> Result<(), String> {
    let mut cfg = serve::ServeConfig::default();
    let (mut scheme_flag, mut open_rates) = (None::<String>, None::<Vec<f64>>);
    let mut threads = 0usize;
    let [graph_path] = a.exactly(&mut [
        val("--scheme", "file path", &mut scheme_flag),
        val("--queries", "query count", &mut cfg.queries),
        val("--batch", "batch size", &mut cfg.batch),
        val("--workload", "workload", &mut cfg.workload),
        val("--seed", "seed", &mut cfg.seed),
        prob("--check-rate", "check rate", &mut cfg.check_rate),
        val("--open", "qps", &mut open_rates),
        val("--threads", "thread count", &mut threads),
    ])?;
    if cfg.batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let g = crate::load_graph(&graph_path)?;
    crate::need_pairs(&g, "serving")?;
    let (scheme, scheme_name) = crate::resolve_scheme(&g, scheme_flag.as_deref())?;
    // `0` (the default) sizes the pool to every available core.
    cfg.threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
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
            if !a.opts.json {
                print_serve_sweep(&points, knee, &slo);
            }
            points
        }
    };

    let mut sweep = a.sweep();
    for (i, p) in summaries.iter().enumerate() {
        let record = p.summary.to_value(&[("sweep", Value::from(i))]);
        if a.opts.json {
            println!("{record}");
        }
        sweep.add_record(record);
    }
    if !a.opts.json && open_rates.is_none() {
        print_serve_summary(&summaries[0].summary, &graph_path, &scheme_name, &snapshot);
    }
    let extra = [
        ("graph", Value::from(graph_path.as_str())),
        ("scheme", Value::from(scheme_name.as_str())),
        ("n", Value::from(snapshot.graph.num_vertices())),
        ("k", Value::from(snapshot.scheme.k)),
    ];
    crate::write_report(&sweep, &extra, !a.opts.json)?;

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
    println!("     offered     achieved      del%    p50 ns    p99 ns    misses  verdict");
    for p in points {
        let s = &p.summary;
        println!(
            "{:>12.0} {:>12.0} {:>8.1}% {:>9} {:>9} {:>9}  {}",
            p.offered,
            s.qps,
            serve::ServeSlo::delivered(p.offered, s) * 100.0,
            s.p50_ns,
            s.p99_ns,
            s.mismatches,
            if slo.met(p.offered, s) {
                "ok"
            } else {
                "over the knee"
            }
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
