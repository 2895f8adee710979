//! End-to-end observability: build a scheme under a live recorder, write the
//! JSONL run report, parse it back, and check the accounting invariants the
//! report format promises — every record well-formed, depth-0 span deltas
//! partitioning the run totals, and the summary matching the build's report —
//! and check that a build charges the same whatever recorder it runs on.

use graphs::Graph;
use obs::json::Value;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, build_observed, prior, BuildParams, Mode};

fn generated_report() -> (Vec<Value>, routing::Built) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = graphs::generators::erdos_renyi_connected(96, 0.07, 1..=9, &mut rng);
    let mut rec = obs::Recorder::new();
    let span = rec.begin("test/build");
    let built = build_observed(&g, &BuildParams::new(2), &mut rng, &mut rec);
    rec.end_with_memory(span, built.report.memory.peaks());

    // Tests run concurrently in one process: one file per call.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("drt-obs-test-{}-{call}.jsonl", std::process::id()));
    rec.write_report(&path, "observability-test", &[("n", Value::from(96usize))])
        .expect("report written");
    let records = obs::read_report(&path).expect("report parses as JSONL");
    std::fs::remove_file(&path).ok();
    (records, built)
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field '{key}' in {v}"))
}

#[test]
fn report_spans_partition_run_totals() {
    let (records, built) = generated_report();
    assert!(records.len() >= 2, "at least one span and a summary");

    let summary = records.last().unwrap();
    assert_eq!(
        summary.get("type").and_then(Value::as_str),
        Some("run_summary")
    );
    assert_eq!(
        summary.get("name").and_then(Value::as_str),
        Some("observability-test")
    );
    assert_eq!(get_u64(summary, "n"), 96, "extra fields pass through");

    // The summary's totals are the build's: it charges the recorder once per
    // charge.
    assert_eq!(get_u64(summary, "rounds"), built.report.rounds);
    assert_eq!(
        get_u64(summary, "peak_memory_words") as usize,
        built.report.memory.max_peak()
    );

    let spans: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("type").and_then(Value::as_str) == Some("span"))
        .collect();
    assert_eq!(get_u64(summary, "spans") as usize, spans.len());

    // Every span record carries the full delta set.
    for s in &spans {
        for key in ["seq", "depth", "rounds", "messages", "words", "broadcasts"] {
            let _ = get_u64(s, key);
        }
        assert!(s.get("name").and_then(Value::as_str).is_some());
    }

    // Depth-0 spans partition the run totals (here: the single wrapper span).
    for key in ["rounds", "messages", "words", "broadcasts"] {
        let sum: u64 = spans
            .iter()
            .filter(|s| get_u64(s, "depth") == 0)
            .map(|s| get_u64(s, key))
            .sum();
        assert_eq!(
            sum,
            get_u64(summary, key),
            "depth-0 '{key}' must sum to total"
        );
    }

    // The construction's phase spans arrived nested under the wrapper.
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names[0], "test/build");
    assert!(names.iter().filter(|n| n.starts_with("scheme/")).count() >= 3);
    assert!(spans[1..].iter().all(|s| get_u64(s, "depth") >= 1));
}

#[test]
fn report_counts_records() {
    let (records, _) = generated_report();
    let summary = records.last().unwrap();
    // A plain build appends no flight records, and the summary says so.
    assert_eq!(get_u64(summary, "records"), 0);
}

#[test]
fn observed_build_matches_plain_build() {
    let mut rng1 = ChaCha8Rng::seed_from_u64(11);
    let mut rng2 = ChaCha8Rng::seed_from_u64(11);
    let g = {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        graphs::generators::erdos_renyi_connected(80, 0.08, 1..=9, &mut rng)
    };
    let plain = build(&g, &BuildParams::new(2), &mut rng1);
    let mut rec = obs::Recorder::new();
    let observed = build_observed(&g, &BuildParams::new(2), &mut rng2, &mut rec);
    assert_eq!(plain.report.rounds, observed.report.rounds);
    assert_eq!(
        plain.report.memory.max_peak(),
        observed.report.memory.max_peak()
    );
    assert_eq!(
        plain.report.max_table_words,
        observed.report.max_table_words
    );
    assert_eq!(
        plain.report.max_label_words,
        observed.report.max_label_words
    );
}

#[test]
fn design_inventory_lists_exactly_the_registered_record_types() {
    // DESIGN.md §4d is the human-readable face of `obs::REGISTRY`: a tag in
    // one and not the other is either an undocumented record or a promise
    // `drt report` does not keep.
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let section = design
        .split("## 4d. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a §4d");
    let mut documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let mut registered: Vec<&str> = obs::REGISTRY.iter().map(|(tag, _)| *tag).collect();
    documented.sort_unstable();
    registered.sort_unstable();
    assert_eq!(documented, registered);
}

/// One build of `g` from a fixed seed on `rec`: the scheme in `mode`, or the
/// \[EN16b\]-style baseline when `mode` is `None`. Returns the report's
/// rounds and messages.
fn build_on(g: &Graph, k: usize, mode: Option<Mode>, rec: &mut obs::Recorder) -> (u64, u64) {
    let rng = &mut ChaCha8Rng::seed_from_u64(5);
    let report = match mode {
        Some(mode) => build_observed(g, &BuildParams::new(k).with_mode(mode), rng, rec).report,
        None => prior::build_observed(g, k, rng, rec).report,
    };
    (report.rounds, report.messages)
}

/// `rec`'s spans from the `from`-th on: name, depth below `depth`, counter
/// delta and peak memory.
fn spans_from(
    rec: &obs::Recorder,
    from: usize,
    depth: usize,
) -> Vec<(String, usize, obs::Counters, usize)> {
    rec.spans()[from..]
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.depth - depth,
                s.delta,
                s.peak_memory_words,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The recorder is the build's one cost account: a build reports the
    /// same rounds and messages, and attributes the same deltas to the same
    /// spans, on a disabled recorder, on a fresh one, and on one that already
    /// holds an earlier build's charges inside an open span.
    #[test]
    fn a_build_charges_the_same_on_any_recorder(
        n in 2usize..=200,
        k in 2usize..=3,
        kind in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = (4.0 / n as f64).min(1.0);
        let g = graphs::generators::erdos_renyi_connected(n, p, 1..=100, &mut rng);
        let mode = [Some(Mode::Centralized), Some(Mode::DistributedLowMemory), None][kind];

        let mut disabled = obs::Recorder::disabled();
        let plain = build_on(&g, k, mode, &mut disabled);
        let mut fresh = obs::Recorder::new();
        let observed = build_on(&g, k, mode, &mut fresh);
        let mut busy = obs::Recorder::new();
        let outer = busy.begin("earlier");
        build_on(&g, 2, Some(Mode::DistributedLowMemory), &mut busy);
        let first = busy.spans().len();
        let nested = build_on(&g, k, mode, &mut busy);
        busy.end(outer);

        prop_assert_eq!(plain, observed);
        prop_assert_eq!(plain, nested);
        prop_assert_eq!(disabled.totals(), fresh.totals());
        prop_assert_eq!((fresh.totals().rounds, fresh.totals().messages), observed);
        prop_assert!(disabled.spans().is_empty());
        prop_assert_eq!(spans_from(&fresh, 0, 0), spans_from(&busy, first, 1));
    }
}
