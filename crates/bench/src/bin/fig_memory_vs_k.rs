//! Figure S2c (derived): peak per-vertex memory versus `k` at fixed `n` —
//! the axis along which the paper separates from prior work. Our memory
//! tracks `Õ(n^{1/k})` (falling in `k`); the prior construction's `Ω̃(√n)`
//! floor (materialized `E'`, per-virtual-vertex copies of `T'`) does not
//! fall.
//!
//! Run with: `cargo run --release -p bench --bin fig_memory_vs_k`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with
//! `fig_memory_vs_k/k<k>/{ours,prior}` spans per build.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use routing::{build_observed, prior, BuildParams};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("fig_memory_vs_k");
    let n = 1024;
    let widths = [4, 12, 12, 12, 10];
    println!("== Fig S2c: memory vs k (n = {n}) ==\n");
    print_header(&["k", "ours", "prior", "n^(1/k)", "sqrt(n)"], &widths);
    let mut rng0 = Sweep::rng(0x81, 0);
    let g = Family::ErdosRenyi.generate(n, &mut rng0);
    for k in [2usize, 3, 4, 5, 6] {
        let mut rng1 = Sweep::rng(0, k as u64);
        let mut rng2 = Sweep::rng(0, k as u64);
        let ours = sweep.observed(&format!("fig_memory_vs_k/k{k}/ours"), |rec| {
            let ours = build_observed(&g, &BuildParams::new(k), &mut rng1, rec);
            let peaks = ours.report.memory.peaks().to_vec();
            (ours, peaks)
        });
        let prior = sweep.observed(&format!("fig_memory_vs_k/k{k}/prior"), |rec| {
            let prior = prior::build_observed(&g, k, &mut rng2, rec);
            let peaks = prior.report.memory.peaks().to_vec();
            (prior, peaks)
        });
        print_row(
            &[
                k.to_string(),
                ours.report.memory.max_peak().to_string(),
                prior.report.memory.max_peak().to_string(),
                format!("{:.0}", (n as f64).powf(1.0 / k as f64)),
                format!("{:.0}", (n as f64).sqrt()),
            ],
            &widths,
        );
    }
    println!("\nexpected shape: our column falls with k, tracking the n^(1/k)·polylog");
    println!("membership term; the prior column keeps a uniform ~1.8x overhead (its");
    println!("materialized-E'/T' terms). The asymptotic √n floor of the prior scheme");
    println!("binds only once n^(1/k)·polylog < √n, beyond laptop-scale n for small k —");
    println!("a finite-size effect EXPERIMENTS.md discusses.");
    exit_code(sweep.finish())
}
