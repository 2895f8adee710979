//! `drt` — the distributed-routing tool.
//!
//! A thin CLI over the library for users who want to try the scheme on
//! their own networks without writing Rust. Every subcommand is one row of
//! the dispatch table [`COMMANDS`], its usage is its entry in [`SYNOPSIS`]
//! right above it, and it parses its arguments through the one parser in
//! [`cli`].
//!
//! Graph files use the [`graphs::io`] edge-list format. Every subcommand
//! that routes over a saved scheme loads it through [`resolve_scheme`],
//! which rejects a scheme built for a graph of another size. Every error —
//! a bad flag, an unreadable file, a mismatched or degenerate input — is one
//! `error:` line on stderr and exit status 1.
//!
//! `drt build` and `drt trace` additionally accept `--report <path>` (or the
//! `DRT_REPORT` environment variable) to write a JSONL run report: phase
//! spans for `build`, a `packet_trace` record for `trace`; `audit`,
//! `traffic`, `churn`, `serve` and `profile` write their own records the
//! same way (see each module). The report options (`--report`, `--json`)
//! are stripped by [`obs::cli::ReportOptions`] before a subcommand parses
//! the rest.
//!
//! The subcommand families, one module each:
//!
//! * [`build`] — `generate`, `info`, `build`;
//! * [`route`] — `route`, `query`, `trace`, `stretch`;
//! * [`audit`] — the scheme observatory;
//! * [`load`] — `traffic`, `churn` and `profile`, the engine under load;
//! * [`serving`] — the query-serving plane;
//! * [`suite`] — `report`, `bench`, `compare`.

mod audit;
mod build;
mod cli;
mod load;
mod route;
mod serving;
mod suite;

use std::process::ExitCode;

use cli::Args;
use graphs::{generators, io, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{persist, BuildParams, RoutingScheme};

/// The usage of every subcommand, one entry each (continued on indented
/// lines), in dispatch-table order. A usage error prints the subcommand's
/// entry on one line.
const SYNOPSIS: &str = "\
drt generate <er|geometric|torus|scale-free|expander> <n> [seed]
drt info <graph-file>
drt build <graph-file> <k> [<out-file>|--out <file>] [--report <path>]
drt route <graph-file> [<scheme-file>|--scheme <file>] <src> <dst> [--load <packets>] [--seed <s>]
drt query <graph-file> [<scheme-file>|--scheme <file>] <src> <dst>
drt trace <graph-file> [<scheme-file>|--scheme <file>] <src> <dst> [--report <path>]
drt stretch <graph-file> <scheme-file> [num-sources]
drt audit <graph-file> [<scheme-file>|--scheme <file>] [--sample <pairs>] [--seed <s>]
    [--kill-edges <p>] [--kill-vertices <p>] [--report <path>] [--json]
drt traffic <graph-file> <scheme-file> [--workload <uniform|gravity|hotspot|worst>]
    [--rate <r[,r...]>] [--rounds <n>] [--queue-cap <c>] [--policy <tail-drop|oldest-drop>]
    [--arrival <fixed|bernoulli>] [--seed <s>] [--profile] [--report <path>]
drt churn <graph-file> <scheme-file> [--process <random|random-edges|targeted|regional>]
    [--rate <f>] [--rounds <n>] [--revive <p>] [--workload <uniform|gravity|hotspot|worst>]
    [--traffic-rate <f>] [--burst-rounds <n>] [--queue-cap <c>] [--pairs <n>] [--seed <s>]
    [--slo <floor>] [--slo-round <r>] [--report <path>] [--json]
drt serve <graph-file> [--scheme <file>] [--queries <q>] [--batch <b>]
    [--workload uniform|hotspot|adversarial] [--seed <s>] [--check-rate <f>]
    [--open <qps,...>] [--threads <t>] [--report <path>] [--json]
drt report <report-file> [--json]
drt bench [--smoke|--quick|--full] [--label <l>] [--out <path>] [--repeats <r>]
drt compare <old.json> <new.json> [--sim-tol <f>] [--wall-tol <f>] [--wall-gate]
drt profile [--n <vertices>] [--packets <p>] [--seed <s>] [--trace-out <path>] [--report <path>]
";

/// The dispatch table: every subcommand and the function that runs it.
const COMMANDS: &[(&str, cli::Run)] = &[
    ("generate", build::generate),
    ("info", build::info),
    ("build", build::build),
    ("route", route::route),
    ("query", route::route),
    ("trace", route::trace),
    ("stretch", route::stretch),
    ("audit", audit::audit),
    ("traffic", load::traffic),
    ("churn", load::churn),
    ("serve", serving::serve),
    ("report", suite::report),
    ("bench", suite::bench),
    ("compare", suite::compare),
    ("profile", load::profile),
];

fn main() -> ExitCode {
    let (opts, argv) = obs::cli::ReportOptions::from_env();
    let Some(&(name, run)) = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|(n, _)| n == name))
    else {
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: drt <{}> ... (see crate docs)", names.join("|"));
        return ExitCode::FAILURE;
    };
    let args = Args {
        name,
        argv: &argv[1..],
        opts: &opts,
    };
    bench::sweep::exit_code(run(&args))
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    io::parse_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Refuse a graph with fewer than two vertices: `what` draws
/// source–destination pairs, and such a graph has none.
fn need_pairs(g: &Graph, what: &str) -> Result<(), String> {
    if g.num_vertices() < 2 {
        return Err(format!("{what} needs a graph with at least 2 vertices"));
    }
    Ok(())
}

/// A connected Erdős–Rényi graph of mean degree about 4 (every pair when
/// `n ≤ 4`).
fn er_graph(n: usize, rng: &mut ChaCha8Rng) -> Graph {
    let p = (4.0 / n as f64).min(1.0);
    generators::erdos_renyi_connected(n, p, 1..=100, rng)
}

/// Build a `k`-scheme over `g` with `drt`'s fixed seed, phases recorded on
/// `rec`.
fn build_scheme(g: &Graph, k: usize, rec: &mut obs::Recorder) -> Result<routing::Built, String> {
    if g.num_vertices() == 0 {
        return Err("the graph has no vertices".into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xD27);
    let params = BuildParams::new(k);
    Ok(routing::build_observed(g, &params, &mut rng, rec))
}

/// The scheme a subcommand routes with, and its name for reports: the
/// scheme file at `path` — which must cover exactly `g`'s vertices — else a
/// `k = 2` scheme built on the fly as `drt build` would, named `(built)`.
fn resolve_scheme(g: &Graph, path: Option<&str>) -> Result<(RoutingScheme, String), String> {
    let Some(path) = path else {
        let built = build_scheme(g, 2, &mut obs::Recorder::disabled())?;
        return Ok((built.scheme, "(built)".into()));
    };
    let scheme = persist::load_scheme_from(path).map_err(|e| format!("loading {path}: {e}"))?;
    if scheme.num_vertices() != g.num_vertices() {
        return Err(format!(
            "scheme covers {} vertices but the graph has {}",
            scheme.num_vertices(),
            g.num_vertices()
        ));
    }
    Ok((scheme, path.to_string()))
}

/// Write the report `sweep` was asked for, if any, saying where when
/// `announce` is set.
fn write_report(
    sweep: &bench::sweep::Sweep,
    extra: &[(&str, obs::json::Value)],
    announce: bool,
) -> Result<(), String> {
    match sweep.write(extra)? {
        Some(path) if announce => println!("report written to {}", path.display()),
        _ => {}
    }
    Ok(())
}
