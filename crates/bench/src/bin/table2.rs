//! Regenerates the paper's **Table 2**: distributed compact exact
//! tree-routing schemes, compared on rounds, table size, label size, and
//! memory per vertex.
//!
//! | row | paper's bound | what we measure |
//! |---|---|---|
//! | [LP15, EN16b] | Õ(D+√n) rounds, O(log n) tables, O(log² n) labels, Õ(√n) memory | the `baseline` construction |
//! | \[TZ01b\] | NA rounds, O(1) tables, O(log n) labels | centralized `tz` |
//! | This paper | Õ(D+√n) rounds, O(1) tables, O(log n) labels, O(log n) memory | the `distributed` construction |
//!
//! Run with: `cargo run --release -p bench --bin table2`
//!
//! Flags: `--json` prints the rows as a JSON array instead of aligned text;
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! `table2/<family>/n<n>` span per our-scheme build, the construction's
//! stage spans nested beneath it.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use congest::Network;
use graphs::{properties, tree, VertexId};
use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_routing::{baseline, distributed, tz};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("table2");
    let json = sweep.opts.json;
    let mut json_rows: Vec<Value> = Vec::new();

    let sizes = [256usize, 512, 1024, 2048, 4096];
    let widths = [12, 6, 5, 9, 7, 7, 8];
    if !json {
        println!("== Table 2: distributed exact tree routing (SPT of each network) ==\n");
    }
    for family in [Family::ErdosRenyi, Family::Geometric] {
        if !json {
            println!("--- family: {} ---", family.name());
            print_header(
                &["scheme", "n", "D", "rounds", "table", "label", "memory"],
                &widths,
            );
        }
        for &n in &sizes {
            let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF + n as u64);
            let g = family.generate(n, &mut rng);
            let d = properties::hop_diameter(&g).expect("connected");
            let t = tree::shortest_path_tree(&g, VertexId(0));
            let net = Network::new(g);
            let mut emit = |scheme: &str,
                            rounds: Option<u64>,
                            table: usize,
                            label: usize,
                            memory: Option<usize>| {
                if json {
                    json_rows.push(Value::object(vec![
                        ("family", Value::from(family.name())),
                        ("scheme", Value::from(scheme)),
                        ("n", Value::from(n)),
                        ("hop_diameter", Value::from(d)),
                        ("rounds", rounds.map_or(Value::Null, Value::from)),
                        ("table_words", Value::from(table)),
                        ("label_words", Value::from(label)),
                        ("memory_words", memory.map_or(Value::Null, Value::from)),
                    ]));
                } else {
                    print_row(
                        &[
                            scheme.into(),
                            n.to_string(),
                            d.to_string(),
                            rounds.map_or("NA".into(), |r| r.to_string()),
                            table.to_string(),
                            label.to_string(),
                            memory.map_or("NA".into(), |m| m.to_string()),
                        ],
                        &widths,
                    );
                }
            };

            // [TZ01b] centralized reference.
            let central = tz::build(&t);
            emit(
                "TZ01b",
                None,
                central.max_table_words(),
                central.max_label_words(),
                None,
            );

            // Prior distributed ([LP15]/[EN16b]-style).
            let prior = baseline::build(&net, &t, &distributed::Config::default(), &mut rng);
            emit(
                "LP15/EN16b",
                Some(prior.cost.rounds),
                prior.scheme.max_table_words(),
                prior.scheme.max_label_words(),
                Some(prior.memory.max_peak()),
            );

            // This paper.
            let span = sweep.rec.begin(&format!("table2/{}/n{n}", family.name()));
            let ours = distributed::build(
                &net,
                &t,
                &distributed::Config::default(),
                &mut rng,
                &mut sweep.rec,
            );
            sweep.rec.end_with_memory(span, ours.memory.peaks());
            distributed::assert_matches_centralized(&t, &ours);
            let scheme = ours.scheme(&t);
            emit(
                "this paper",
                Some(ours.cost.rounds),
                scheme.max_table_words(),
                scheme.max_label_words(),
                Some(ours.memory.max_peak()),
            );
            if !json {
                println!();
            }
        }
    }
    if json {
        println!("{}", Value::Array(json_rows));
    } else {
        println!("expected shape: our tables stay at 4 words (O(1)) and labels/memory");
        println!("grow ~log n, while the prior row's labels carry an extra log factor and");
        println!("its memory grows ~sqrt(n); rounds are ~sqrt(n)+D for both distributed rows.");
    }
    exit_code(sweep.finish())
}
