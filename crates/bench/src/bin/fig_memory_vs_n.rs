//! Figure S2 (derived): peak per-vertex memory versus `n` — the paper's
//! headline. Our tree construction stays `O(log n)` while the prior one
//! grows like `√n`; our graph scheme stays `Õ(n^{1/k})` while the prior
//! stays `Ω̃(√n)`.
//!
//! Run with: `cargo run --release -p bench --bin fig_memory_vs_n`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! span per our-scheme build (`fig_memory_vs_n/tree/n<n>`,
//! `fig_memory_vs_n/scheme/n<n>`); each span's `memory` field carries the
//! per-vertex peak distribution the figure summarizes.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{log_log_slope, print_header, print_row, Family};
use congest::Network;
use graphs::{tree, VertexId};
use routing::{build_observed, prior, BuildParams};
use tree_routing::{baseline, distributed};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("fig_memory_vs_n");
    let widths = [8, 12, 12, 8];

    println!("== Fig S2a: tree-routing memory vs n (Theorem 2) ==");
    print_header(&["n", "ours", "prior", "ratio"], &widths);
    let mut ours_pts = Vec::new();
    let mut prior_pts = Vec::new();
    for n in [256usize, 512, 1024, 2048, 4096, 8192] {
        let mut rng = Sweep::rng(0x61, n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let ours = sweep.observed(&format!("fig_memory_vs_n/tree/n{n}"), |rec| {
            let ours = distributed::build(&net, &t, &distributed::Config::default(), &mut rng, rec);
            let peaks = ours.memory.peaks().to_vec();
            (ours, peaks)
        });
        let prior = baseline::build(&net, &t, &distributed::Config::default(), &mut rng);
        let (a, b) = (ours.memory.max_peak(), prior.memory.max_peak());
        print_row(
            &[
                n.to_string(),
                a.to_string(),
                b.to_string(),
                format!("{:.1}", b as f64 / a as f64),
            ],
            &widths,
        );
        ours_pts.push((n as f64, a as f64));
        prior_pts.push((n as f64, b as f64));
    }
    println!(
        "empirical exponents: ours {:.3} (O(log n) ⇒ ≈ 0), prior {:.3} (Õ(√n) ⇒ ≈ 0.5)\n",
        log_log_slope(&ours_pts),
        log_log_slope(&prior_pts)
    );

    println!("== Fig S2b: general-scheme memory vs n (Theorem 3, k = 2) ==");
    print_header(&["n", "ours", "prior", "ratio"], &widths);
    let mut ours_pts = Vec::new();
    let mut prior_pts = Vec::new();
    for n in [128usize, 256, 512, 1024] {
        let mut rng = Sweep::rng(0x62, n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let mut rng1 = Sweep::rng(1, 0);
        let mut rng2 = Sweep::rng(1, 0);
        let ours = sweep.observed(&format!("fig_memory_vs_n/scheme/n{n}"), |rec| {
            let ours = build_observed(&g, &BuildParams::new(2), &mut rng1, rec);
            let peaks = ours.report.memory.peaks().to_vec();
            (ours, peaks)
        });
        let prior = prior::build(&g, 2, &mut rng2);
        let (a, b) = (
            ours.report.memory.max_peak(),
            prior.report.memory.max_peak(),
        );
        print_row(
            &[
                n.to_string(),
                a.to_string(),
                b.to_string(),
                format!("{:.1}", b as f64 / a as f64),
            ],
            &widths,
        );
        ours_pts.push((n as f64, a as f64));
        prior_pts.push((n as f64, b as f64));
    }
    println!(
        "empirical exponents: ours {:.3} (Õ(n^(1/k)) ⇒ ≈ 0.5 for k=2), prior {:.3} (⪆ ours; extra √n terms)",
        log_log_slope(&ours_pts),
        log_log_slope(&prior_pts)
    );
    println!("note: at k=2 both exponents are ≈ 0.5 — the separation at fixed k=2 is the");
    println!("constant-factor E'/T' materialization; the asymptotic gap opens with k (see fig_memory_vs_k).");
    exit_code(sweep.finish())
}
