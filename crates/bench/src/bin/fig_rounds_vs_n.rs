//! Figure S1 (derived): construction rounds versus `n`.
//!
//! The paper's bounds say tree-routing construction takes `Õ(√n + D)` rounds
//! (Theorem 2) and the general scheme `(n^{1/2+1/k} + D)·polylog` (Theorem
//! 3). This sweep measures simulated rounds across `n` and reports the
//! empirical log-log growth exponent, which should sit near `0.5` (tree) and
//! `0.5 + 1/k` (graph) once polylog factors are absorbed.
//!
//! Run with: `cargo run --release -p bench --bin fig_rounds_vs_n`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! span per build (`fig_rounds_vs_n/tree/n<n>`, `fig_rounds_vs_n/scheme/n<n>`),
//! the construction's stage spans nested beneath each.

use bench::sweep::Sweep;
use bench::{log_log_slope, print_header, print_row, Family};
use congest::Network;
use graphs::{tree, VertexId};
use routing::{build_observed, BuildParams};
use tree_routing::distributed;

fn main() -> Result<(), String> {
    let mut sweep = Sweep::from_env("fig_rounds_vs_n");
    let widths = [8, 10, 12];

    println!("== Fig S1a: tree-routing construction rounds vs n (Theorem 2) ==");
    print_header(&["n", "D", "rounds"], &widths);
    let mut pts = Vec::new();
    for n in [256usize, 512, 1024, 2048, 4096, 8192] {
        let mut rng = Sweep::rng(0x51, n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let out = sweep.observed(&format!("fig_rounds_vs_n/tree/n{n}"), |rec| {
            let out = distributed::build(&net, &t, &distributed::Config::default(), &mut rng, rec);
            let peaks = out.memory.peaks().to_vec();
            (out, peaks)
        });
        print_row(
            &[
                n.to_string(),
                out.bfs_depth.to_string(),
                out.ledger.rounds().to_string(),
            ],
            &widths,
        );
        pts.push((n as f64, out.ledger.rounds() as f64));
    }
    println!(
        "empirical exponent: {:.3}  (Õ(√n + D) predicts ≈ 0.5 + o(1) from log factors)\n",
        log_log_slope(&pts)
    );

    println!("== Fig S1b: general-scheme construction rounds vs n (Theorem 3, k = 2) ==");
    print_header(&["n", "D", "rounds"], &widths);
    let mut pts = Vec::new();
    for n in [128usize, 256, 512, 1024] {
        let mut rng = Sweep::rng(0x52, n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let built = sweep.observed(&format!("fig_rounds_vs_n/scheme/n{n}"), |rec| {
            let built = build_observed(&g, &BuildParams::new(2), &mut rng, rec);
            let peaks = built.report.memory.peaks().to_vec();
            (built, peaks)
        });
        print_row(
            &[
                n.to_string(),
                built.report.bfs_depth.to_string(),
                built.report.rounds.to_string(),
            ],
            &widths,
        );
        pts.push((n as f64, built.report.rounds as f64));
    }
    println!(
        "empirical exponent: {:.3}  ((n^(1/2+1/k)+D)·polylog predicts ≈ 1.0 for k=2 plus log slack)",
        log_log_slope(&pts)
    );
    sweep.finish()
}
