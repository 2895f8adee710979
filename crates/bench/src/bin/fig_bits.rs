//! Figure S4 (derived): bit-level complexity.
//!
//! Two claims from §2's CONGEST-RAM → standard-CONGEST discussion:
//!
//! 1. **Labels in bits** — a tree label of `O(log n)` words serializes to
//!    few bytes under the canonical varint encoding (the quantity a packet
//!    header actually pays). The bytes are the ones a scheme file holds for
//!    the row, written by `routing::persist`'s row codec.
//! 2. **Weight rounding** — rounding weights to powers of `1+ε` makes one
//!    weight cost `O(log log Λ + log 1/ε)` bits, so the standard-CONGEST
//!    overhead is doubly logarithmic in the aspect ratio Λ, versus the
//!    `Ω(log Λ)` factors of prior constructions.
//!
//! Run with: `cargo run --release -p bench --bin fig_bits`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! `fig_bits/encode/n<n>` span per size; the builds here are centralized
//! (no simulated rounds), so the spans carry the per-vertex encoded-table
//! word distribution in their `memory` field and zero cost deltas.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use congest::WordSized;
use graphs::rounding::{congest_overhead, prior_overhead, round_weights};
use graphs::{generators, tree, VertexId};
use routing::persist::{write_tree_label, write_tree_table};
use tree_routing::tz;

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("fig_bits");
    println!("== Fig S4a: tree label/table sizes — words vs encoded bits ==");
    let widths = [8, 12, 12, 12, 12];
    print_header(
        &[
            "n",
            "label words",
            "label bits",
            "table words",
            "table bits",
        ],
        &widths,
    );
    for n in [256usize, 1024, 4096, 16384] {
        let mut rng = Sweep::rng(0xB1, n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let row = sweep.observed(&format!("fig_bits/encode/n{n}"), |_rec| {
            let scheme = tz::build(&t);
            let mut max_label_words = 0;
            let mut max_label_bits = 0;
            let mut max_table_words = 0;
            let mut max_table_bits = 0;
            let mut per_vertex_words = Vec::with_capacity(n);
            let mut bytes = Vec::new();
            for v in t.vertices() {
                let l = scheme.label(v).unwrap();
                let tb = scheme.table(v).unwrap();
                max_label_words = max_label_words.max(l.words());
                bytes.clear();
                write_tree_label(&mut bytes, l);
                max_label_bits = max_label_bits.max(8 * bytes.len());
                max_table_words = max_table_words.max(tb.words());
                bytes.clear();
                write_tree_table(&mut bytes, tb);
                max_table_bits = max_table_bits.max(8 * bytes.len());
                per_vertex_words.push(l.words() + tb.words());
            }
            (
                [
                    max_label_words,
                    max_label_bits,
                    max_table_words,
                    max_table_bits,
                ],
                per_vertex_words,
            )
        });
        print_row(
            &[
                n.to_string(),
                row[0].to_string(),
                row[1].to_string(),
                row[2].to_string(),
                row[3].to_string(),
            ],
            &widths,
        );
    }
    println!("(bits grow like log² n but with byte-level constants far below 64·words)\n");

    println!("== Fig S4b: standard-CONGEST overhead — rounding vs prior log Λ ==");
    let widths = [12, 10, 12, 14, 12];
    print_header(
        &[
            "max weight",
            "log2(Λ)",
            "weight bits",
            "our overhead",
            "prior",
        ],
        &widths,
    );
    let n = 1024;
    for max_w in [10u64, 1_000, 100_000, 10_000_000] {
        let mut rng = Sweep::rng(0xB2, max_w);
        let g = generators::erdos_renyi_connected(n, 4.0 / n as f64, 1..=max_w, &mut rng);
        let r = round_weights(&g, 0.05);
        print_row(
            &[
                max_w.to_string(),
                format!("{:.1}", g.aspect_ratio().unwrap().log2()),
                r.bits_per_weight.to_string(),
                format!("{:.2}", congest_overhead(n, &r)),
                format!("{:.1}", prior_overhead(&g)),
            ],
            &widths,
        );
    }
    println!("(our overhead column stays at 1.0 — one O(log n)-bit message per rounded");
    println!(" weight — while the prior column grows with log Λ)");
    exit_code(sweep.finish())
}
