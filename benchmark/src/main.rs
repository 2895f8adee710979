//! Scheme-lifecycle benchmark runner.
//!
//! `lifecycle-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero when a correctness gate fails.

mod api;
mod pipeline;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use api::Json;
use pipeline::Metric;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("lifecycle-bench: {why}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "lifecycle-bench: unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    // Scratch files stay inside the benchmark's own directory.
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("lifecycle-bench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let scheme_file = out_dir.join(format!("scheme-{}-{}.drsc", spec.name, std::process::id()));

    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = pipeline::run(spec, args.seed, args.seconds, &mut tracer, &scheme_file);

    println!(
        "workload {}  seed {}  seconds {}  trace {}  cores {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    if args.trace {
        print_table(
            "end to end (traced run — for orientation, not reported)",
            &outcome.end_to_end,
        );
        print_table("per layer", &outcome.per_layer);
        let path = out_dir.join(format!("trace-{}.json", spec.name));
        match tracer.write_json(&path, spec.name) {
            Ok(()) => println!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("lifecycle-bench: cannot write {}: {e}", path.display()),
        }
    } else {
        print_table("end to end", &outcome.end_to_end);
    }
    println!(
        "ops_attempted {}  ops_failed {}  answer_checksum {:#x}",
        outcome.ops.attempted, outcome.ops.failed, outcome.answer_checksum
    );
    for line in &outcome.ops.failures {
        println!("GATE FAILED  {line}");
    }

    let reported = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.ops.failed == 0 && outcome.ops.failures.is_empty();
    let metrics: Vec<(&str, Json)> = reported
        .iter()
        .map(|m| {
            let fields = vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
            (m.name, Json::object(fields))
        })
        .collect();
    let line = Json::object(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.ops.attempted)),
        ("failed", Json::from(outcome.ops.failed)),
        ("metrics", Json::object(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
