//! Figure S5 (derived): routing-phase behavior under load.
//!
//! The tables measure the *preprocessing* phase; this figure exercises the
//! *routing* phase as real store-and-forward traffic: `P` packets injected
//! simultaneously, one packet per edge per round. Delivery time = hop count +
//! queueing delay; as the offered load grows, the delay distribution
//! spreads while every packet still arrives (the scheme's trees are loop
//! free, so traffic always drains).
//!
//! Run with: `cargo run --release -p bench --bin fig_load`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report: a
//! `fig_load/build` span for the preprocessing phase and one
//! `fig_load/p<packets>` span per load level, charged with the routing
//! phase's engine-measured rounds/messages/words.

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use congest::Network;
use routing::{build_observed, packet, BuildParams};
use traffic::{Workload, WorkloadKind};

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("fig_load");
    let reporting = sweep.reporting();
    let n = 400;
    let mut rng = Sweep::rng(0xC1, 0);
    let g = Family::ErdosRenyi.generate(n, &mut rng);
    let built = sweep.observed("fig_load/build", |rec| {
        let built = build_observed(&g, &BuildParams::new(3), &mut rng, rec);
        let peaks = built.report.memory.peaks().to_vec();
        (built, peaks)
    });
    let mut uniform = Workload::prepare(WorkloadKind::Uniform, &g, &built.scheme, 0);
    let net = Network::new(g);
    println!("== Fig S5: batched routing under load (n = {n}, k = 3) ==\n");
    let widths = [10, 10, 10, 12, 12, 10];
    print_header(
        &[
            "packets",
            "delivered",
            "dropped",
            "mean delay",
            "max delay",
            "rounds",
        ],
        &widths,
    );
    for load in [16usize, 64, 256, 1024, 4096] {
        let pairs: Vec<_> = (0..load).map(|_| uniform.draw(&mut rng)).collect();
        let report = sweep.observed(&format!("fig_load/p{load}"), |rec| {
            // When reporting, flight-record the send: the simulation is
            // identical to the untraced run's (pinned by core's tests), so
            // stdout stays byte-for-byte the same, and the heatmaps become
            // `edge_load`/`vertex_load` records in the JSONL report.
            let opts = packet::SendOptions {
                trace: reporting,
                profile: false,
            };
            let report = packet::send(&net, &built.scheme, &pairs, opts);
            if reporting {
                let extra = [
                    ("figure", obs::json::Value::from("fig_load")),
                    ("packets", obs::json::Value::from(load)),
                ];
                rec.add_record(report.edge_load().to_value(&extra));
                rec.add_record(report.vertex_load().to_value(&extra));
            }
            rec.charge(&report.stats.counters());
            let peaks = report.stats.memory.peaks().to_vec();
            (report, peaks)
        });
        let delays: Vec<u64> = report.deliveries().flatten().map(|(r, _)| r).collect();
        let delivered = delays.len();
        let mean = delays.iter().sum::<u64>() as f64 / delivered.max(1) as f64;
        let max = delays.iter().max().copied().unwrap_or(0);
        print_row(
            &[
                load.to_string(),
                delivered.to_string(),
                report.dropped().to_string(),
                format!("{mean:.1}"),
                max.to_string(),
                report.stats.rounds.to_string(),
            ],
            &widths,
        );
    }
    println!("\n(delays are rounds from injection to delivery; all packets drain because");
    println!(" per-tree forwarding is loop-free — growth in max delay is pure queueing)");
    exit_code(sweep.finish())
}
