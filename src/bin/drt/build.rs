//! `drt generate`, `drt info` and `drt build`: make a graph, describe it,
//! and preprocess it into a checksummed scheme file.

use graphs::{generators, io, properties};
use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::persist;

use crate::cli::{self, val, Args};

pub fn generate(a: &Args) -> Result<(), String> {
    let pos = a.parse(&mut [])?;
    let [family, n, rest @ ..] = pos.as_slice() else {
        return Err(a.usage());
    };
    let n: usize = cli::value("n", n)?;
    let seed: u64 = rest.first().map_or(Ok(42), |s| cli::value("seed", s))?;
    if n < 2 && (family == "er" || family == "geometric") {
        return Err(format!("{family} needs at least 2 vertices, got {n}"));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = match family.as_str() {
        "er" => crate::er_graph(n, &mut rng),
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

pub fn info(a: &Args) -> Result<(), String> {
    let [path] = a.exactly(&mut [])?;
    let g = crate::load_graph(&path)?;
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

pub fn build(a: &Args) -> Result<(), String> {
    let mut out = None;
    let pos = a.parse(&mut [val("--out", "file path", &mut out)])?;
    let (graph_path, k, out_path) = match (pos.as_slice(), out) {
        ([g, k, out], None) => (g, k, out.clone()),
        ([g, k], Some(out)) => (g, k, out),
        _ => return Err(a.usage()),
    };
    let g = crate::load_graph(graph_path)?;
    let k: usize = cli::value("k", k)?;
    if k < 2 {
        return Err("k must be at least 2".into());
    }
    let mut sweep = a.sweep();
    let span = sweep.rec.begin("drt/build");
    let built = crate::build_scheme(&g, k, &mut sweep.rec)?;
    sweep.rec.end_with_memory(span, built.report.memory.peaks());
    // The checksummed container (magic + version + length + CRC32 over the
    // payload), so downstream subcommands detect truncation and bit rot.
    let saved = persist::save_scheme_to(&out_path, &built.scheme).map_err(|e| match e {
        persist::PersistError::Io(msg) => format!("writing {out_path}: {msg}"),
        e => e.to_string(),
    })?;
    let r = &built.report;
    println!("built k = {k} scheme for n = {}:", g.num_vertices());
    println!("  simulated rounds  : {}", r.rounds);
    println!("  peak memory       : {} words/vertex", r.memory.max_peak());
    println!(
        "  max table / label : {} / {} words",
        r.max_table_words, r.max_label_words
    );
    println!("  saved             : {saved} bytes -> {out_path}");
    let extra = [
        ("n", Value::from(g.num_vertices())),
        ("k", Value::from(k)),
        ("graph", Value::from(graph_path.as_str())),
    ];
    crate::write_report(&sweep, &extra, false)
}
