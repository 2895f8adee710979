//! ISP backbone scenario: compact routing on a preferential-attachment
//! topology (heavy-tailed degrees, small diameter — the shape of
//! router-level internet graphs), comparing the paper's scheme against the
//! prior distributed construction and the centralized reference.
//!
//! This is Table 1 in miniature: same network, three schemes, the columns
//! that matter (table/label size, stretch, memory, rounds).
//!
//! Run with: `cargo run --release --example isp_backbone`

use graphs::{generators, properties, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, prior, router, BuildParams, BuildReport, Mode};

fn main() {
    let n = 600;
    let k = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    // Edge weights model link latencies in 1..=100 ms.
    let g = generators::preferential_attachment(n, 3, 1..=100, &mut rng);
    let (dmin, dmax, dmean) = properties::degree_stats(&g).expect("non-empty");
    println!(
        "ISP-like backbone: n = {n}, m = {}, degrees {dmin}..{dmax} (mean {dmean:.1}), D = {:?}",
        g.num_edges(),
        properties::hop_diameter(&g)
    );
    println!(
        "\n{:<28} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "scheme", "table", "label", "memory", "rounds", "stretch"
    );

    let srcs: Vec<VertexId> = (0..n as u32).step_by(60).map(VertexId).collect();
    let row = |name: &str, report: &BuildReport, stretch: f64| {
        println!(
            "{:<28} {:>8} {:>8} {:>8} {:>9} {:>10.3}",
            name,
            report.max_table_words,
            report.max_label_words,
            report.memory.max_peak(),
            report.rounds,
            stretch,
        );
    };
    let seed = || ChaCha8Rng::seed_from_u64(7); // same hierarchy per scheme
    let central = build(
        &g,
        &BuildParams::new(k).with_mode(Mode::Centralized),
        &mut seed(),
    );
    let stretch =
        router::measure_stretch(&g, &central.scheme, &srcs, router::Selection::SourceOptimal);
    row("Thorup-Zwick (centralized)", &central.report, stretch.max);
    let baseline = prior::build(&g, k, &mut seed());
    let stretch = prior::measure_stretch(&g, &baseline.scheme, &srcs);
    row("prior distributed [EN16b]", &baseline.report, stretch.max);
    let ours = build(&g, &BuildParams::new(k), &mut seed());
    let stretch =
        router::measure_stretch(&g, &ours.scheme, &srcs, router::Selection::SourceOptimal);
    row("this paper (low memory)", &ours.report, stretch.max);
    println!(
        "\n(table/label/memory in words; stretch is the max over {} routed pairs;",
        srcs.len() * (n - 1)
    );
    println!(" the centralized row reports 0 rounds — it is the reference, not a protocol)");
}
