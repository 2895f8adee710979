//! Figure S3 (derived): measured stretch versus `k`.
//!
//! The guarantee is `4k − 5 + o(1)` (with the source-optimal selection;
//! `4k − 3` for first-valid). Worst-case stretch should stay below the bound
//! and typical stretch far below it; table size shrinks as `k` grows — the
//! tradeoff the whole line of work is about.
//!
//! Run with: `cargo run --release -p bench --bin fig_stretch_vs_k`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! `fig_stretch_vs_k/<family>/k<k>` span per build, plus one
//! `stretch_histogram` record per `(family, k, selection)` holding the full
//! sampled stretch distribution (not just the printed percentiles).

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use graphs::VertexId;
use routing::{build_observed, router, BuildParams};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("fig_stretch_vs_k");
    let n = 512;
    let widths = [4, 10, 10, 8, 8, 9, 11, 10, 10];
    println!("== Fig S3: stretch vs k (n = {n}, this paper's scheme) ==\n");
    for family in [Family::ErdosRenyi, Family::Geometric] {
        println!("--- family: {} ---", family.name());
        print_header(
            &[
                "k",
                "max",
                "mean",
                "p95",
                "p99",
                "4k-3",
                "handshake",
                "table",
                "label",
            ],
            &widths,
        );
        for k in [2usize, 3, 4, 5] {
            let mut rng = Sweep::rng(0x71, k as u64);
            let g = family.generate(n, &mut rng);
            let built =
                sweep.observed(&format!("fig_stretch_vs_k/{}/k{k}", family.name()), |rec| {
                    let built = build_observed(&g, &BuildParams::new(k), &mut rng, rec);
                    let peaks = built.report.memory.peaks().to_vec();
                    (built, peaks)
                });
            let srcs: Vec<VertexId> = (0..n as u32).step_by(32).map(VertexId).collect();
            let stats =
                router::measure_stretch(&g, &built.scheme, &srcs, router::Selection::SourceOptimal);
            let shake =
                router::measure_stretch(&g, &built.scheme, &srcs, router::Selection::Handshake);
            for (selection, s) in [("source-optimal", &stats), ("handshake", &shake)] {
                let hist = obs::flight::Histogram::of_stretch(&s.values, 32);
                sweep.add_record(hist.to_value(&[
                    ("figure", obs::json::Value::from("fig_stretch_vs_k")),
                    ("family", obs::json::Value::from(family.name())),
                    ("k", obs::json::Value::from(k)),
                    ("selection", obs::json::Value::from(selection)),
                ]));
            }
            print_row(
                &[
                    k.to_string(),
                    format!("{:.3}", stats.max),
                    format!("{:.3}", stats.mean),
                    format!("{:.2}", stats.p95),
                    format!("{:.2}", stats.p99),
                    (4 * k - 3).to_string(),
                    format!("{:.3}", shake.max),
                    built.report.max_table_words.to_string(),
                    built.report.max_label_words.to_string(),
                ],
                &widths,
            );
        }
        println!();
    }
    println!("expected shape: max stretch stays below the implemented guarantee 4k-3");
    println!("everywhere (and below 4k-5 for k >= 3), mean stretch far below; table");
    println!("size falls with k while labels grow mildly (O(k log n)).");
    exit_code(sweep.finish())
}
