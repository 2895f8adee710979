//! Regenerates the paper's **Table 1**: distributed compact routing schemes
//! for general graphs — rounds, table size, label size, stretch, and memory
//! per vertex, for the centralized Thorup–Zwick reference, the prior
//! distributed construction, and this paper's low-memory construction.
//!
//! Run with: `cargo run --release -p bench --bin table1`
//!
//! Flags: `--json` prints the rows as a JSON array instead of aligned text;
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! `table1/<family>/n<n>/k<k>/<scheme>` span per scheme build, the
//! construction's phase spans nested beneath it.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use graphs::VertexId;
use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build_observed, prior, router, BuildParams, Mode};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("table1");
    let json = sweep.opts.json;
    let mut json_rows: Vec<Value> = Vec::new();

    let configs: &[(usize, usize)] = &[(256, 2), (512, 2), (1024, 2), (256, 3), (512, 3), (512, 4)];
    let widths = [14, 6, 3, 9, 7, 7, 8, 9, 8];
    if !json {
        println!("== Table 1: distributed compact routing for general graphs ==\n");
    }
    for family in [Family::ErdosRenyi, Family::Geometric] {
        if !json {
            println!("--- family: {} ---", family.name());
            print_header(
                &[
                    "scheme", "n", "k", "rounds", "table", "label", "stretch", "memory", "4k-5",
                ],
                &widths,
            );
        }
        for &(n, k) in configs {
            let mut rng = ChaCha8Rng::seed_from_u64(0xFEED + (n * 31 + k) as u64);
            let g = family.generate(n, &mut rng);
            let srcs: Vec<VertexId> = (0..n as u32)
                .step_by((n / 8).max(1))
                .map(VertexId)
                .collect();
            // The [ABNLP90]-style sparse-cover row: O(k) stretch bought with
            // much larger (log Λ-factor) tables/labels and sequential
            // ball-growing construction (~n^{1+1/k} rounds, modelled).
            {
                let cover = routing::covers::build_cover_scheme(&g, k);
                let worst = router::measure_stretch_by(&g, &srcs, |s, t| {
                    let trace = routing::covers::route_cover(&g, &cover, s, t)
                        .ok_or(router::GraphRouteError::NoCommonTree)?;
                    Ok((trace.weight, trace.path.len() - 1))
                })
                .max;
                let rounds: usize = cover
                    .scales
                    .iter()
                    .map(|sc| sc.clusters.iter().map(|c| c.len()).sum::<usize>())
                    .sum();
                if json {
                    json_rows.push(Value::object(vec![
                        ("family", Value::from(family.name())),
                        ("scheme", Value::from("ABNLP90-style")),
                        ("n", Value::from(n)),
                        ("k", Value::from(k)),
                        ("rounds", Value::from(rounds)),
                        ("table_words", Value::from(cover.max_table_words())),
                        ("label_words", Value::from(cover.max_label_words())),
                        ("stretch", Value::from((worst * 100.0).round() / 100.0)),
                        ("memory_words", Value::Null),
                        ("stretch_bound", Value::from(4 * k - 5)),
                    ]));
                } else {
                    print_row(
                        &[
                            "ABNLP90-style".into(),
                            n.to_string(),
                            k.to_string(),
                            rounds.to_string(),
                            cover.max_table_words().to_string(),
                            cover.max_label_words().to_string(),
                            format!("{worst:.2}"),
                            "~table".into(),
                            (4 * k - 5).to_string(),
                        ],
                        &widths,
                    );
                }
            }
            // `None` is the [EN16b]-style baseline, built beside the modes.
            for (name, mode) in [
                ("TZ01b", Some(Mode::Centralized)),
                ("EN16b-style", None),
                ("this paper", Some(Mode::DistributedLowMemory)),
            ] {
                let mut mode_rng = ChaCha8Rng::seed_from_u64(0xABCD + (n + k) as u64);
                let span = sweep
                    .rec
                    .begin(&format!("table1/{}/n{n}/k{k}/{name}", family.name()));
                let (report, stats) = match mode {
                    Some(mode) => {
                        let params = BuildParams::new(k).with_mode(mode);
                        let built = build_observed(&g, &params, &mut mode_rng, &mut sweep.rec);
                        let stats = router::measure_stretch(
                            &g,
                            &built.scheme,
                            &srcs,
                            router::Selection::SourceOptimal,
                        );
                        (built.report, stats)
                    }
                    None => {
                        let built = prior::build_observed(&g, k, &mut mode_rng, &mut sweep.rec);
                        let stats = prior::measure_stretch(&g, &built.scheme, &srcs);
                        (built.report, stats)
                    }
                };
                sweep.rec.end_with_memory(span, report.memory.peaks());
                let central = mode == Some(Mode::Centralized);
                if json {
                    json_rows.push(Value::object(vec![
                        ("family", Value::from(family.name())),
                        ("scheme", Value::from(name)),
                        ("n", Value::from(n)),
                        ("k", Value::from(k)),
                        (
                            "rounds",
                            if central {
                                Value::Null
                            } else {
                                Value::from(report.rounds)
                            },
                        ),
                        ("table_words", Value::from(report.max_table_words)),
                        ("label_words", Value::from(report.max_label_words)),
                        ("stretch", Value::from((stats.max * 100.0).round() / 100.0)),
                        (
                            "memory_words",
                            if central {
                                Value::Null
                            } else {
                                Value::from(report.memory.max_peak())
                            },
                        ),
                        ("stretch_bound", Value::from(4 * k - 5)),
                    ]));
                } else {
                    print_row(
                        &[
                            name.into(),
                            n.to_string(),
                            k.to_string(),
                            if central {
                                "NA".into()
                            } else {
                                report.rounds.to_string()
                            },
                            report.max_table_words.to_string(),
                            report.max_label_words.to_string(),
                            format!("{:.2}", stats.max),
                            if central {
                                "NA".into()
                            } else {
                                report.memory.max_peak().to_string()
                            },
                            (4 * k - 5).to_string(),
                        ],
                        &widths,
                    );
                }
            }
            if !json {
                println!();
            }
        }
    }
    if json {
        println!("{}", Value::Array(json_rows));
    } else {
        println!("expected shape: this paper's table/label sizes match the centralized");
        println!("reference (tables ~n^(1/k), labels O(k log n)) while the prior row pays");
        println!("a log factor on labels and extra memory; every measured stretch is at");
        println!("most the implemented guarantee 4k-3 (below 4k-5 for k >= 3 in practice;");
        println!("see EXPERIMENTS.md on the 4k-5 refinement); rounds for both distributed");
        println!("rows are ~n^(1/2+1/k)+D up to polylog factors.");
    }
    exit_code(sweep.finish())
}
