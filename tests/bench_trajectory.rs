//! End-to-end tests for the benchmark-trajectory layer: the `BENCH_*.json`
//! schema, `drt bench` / `drt compare`, and the scaling-law checker.
//!
//! The simulated columns are seed-pinned, so everything except wall-clock
//! noise is asserted exactly; wall-clock only needs to exist and be positive.

use std::path::PathBuf;
use std::process::Command;

use bench::suite::{compare, run_suite, BenchDoc, CompareConfig, Tier, SCHEMA};
use obs::json::Value;
use obs::scaling::fit_power_law;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drt-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn smoke_suite_is_deterministic_and_round_trips() {
    let a = run_suite(Tier::Smoke, "a", Some(1), |_| {}).expect("suite runs");
    let b = run_suite(Tier::Smoke, "a", Some(1), |_| {}).expect("suite runs");
    // Simulated columns are byte-stable across whole suite re-runs; only
    // wall-clock may differ.
    assert_eq!(a.cases.len(), b.cases.len());
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.id, cb.id);
        assert_eq!(ca.sim, cb.sim, "sim drift in {}", ca.id);
        assert!(ca.wall.p50_ns > 0, "no wall sample in {}", ca.id);
    }

    // Full schema round-trip through the single-document JSON form.
    let path = temp_path("roundtrip.json");
    a.save(&path).expect("save");
    let back = BenchDoc::load(&path).expect("load");
    assert_eq!(back, a);
    assert_eq!(
        back.to_value().get("schema").and_then(|v| v.as_str()),
        Some(SCHEMA)
    );
}

#[test]
fn quick_tier_exponents_match_the_paper() {
    // The executable form of EXPERIMENTS.md's Table-2 "shape verdict": fit
    // each swept metric and assert the exponent lands in the range the
    // theorems predict. Simulated costs are deterministic, so this cannot
    // flake on machine speed.
    let doc = run_suite(Tier::Quick, "test", Some(1), |_| {}).expect("suite runs");
    assert!(!doc.checks.is_empty(), "quick tier must fit scaling laws");
    for check in &doc.checks {
        assert!(
            check.ok(),
            "{}: exponent {:.3} outside [{}, {}] — {}",
            check.metric,
            check.fit.exponent,
            check.predicted.lo,
            check.predicted.hi,
            check.claim
        );
    }
    // The Table-2 rows specifically: rounds ≈ √n-ish, memory/label log-like,
    // tables flat.
    for metric in [
        "tree_build/rounds",
        "tree_build/peak_memory_words",
        "tree_build/table_words",
        "tree_build/label_words",
        "scheme_build/rounds",
        "scheme_build/peak_memory_words",
    ] {
        assert!(
            doc.checks.iter().any(|c| c.metric == metric),
            "missing scaling check for {metric}"
        );
    }
    let exponent = |metric: &str| {
        doc.checks
            .iter()
            .find(|c| c.metric == metric)
            .unwrap()
            .fit
            .exponent
    };
    // Tables are pinned at O(1): exactly flat, not merely "small".
    assert!(exponent("tree_build/table_words").abs() < 1e-9);
    // Memory must stay clearly below the prior construction's √n shape.
    assert!(exponent("tree_build/peak_memory_words") < 0.35);
}

#[test]
fn fitter_recovers_known_exponents() {
    let xs = [256.0, 512.0, 1024.0, 2048.0, 4096.0];
    let series = |f: &dyn Fn(f64) -> f64| xs.iter().map(|&x| (x, f(x))).collect::<Vec<_>>();

    let sqrt = fit_power_law(&series(&|n| 7.0 * n.sqrt())).unwrap();
    assert!((sqrt.exponent - 0.5).abs() < 1e-9, "{sqrt:?}");

    let log = fit_power_law(&series(&|n| n.ln())).unwrap();
    assert!(
        log.exponent > 0.0 && log.exponent < 0.2,
        "log-like series must fit a small positive exponent: {log:?}"
    );

    let constant = fit_power_law(&series(&|_| 4.0)).unwrap();
    assert!(constant.exponent.abs() < 1e-12, "{constant:?}");
    assert_eq!(constant.r2, 1.0);
}

#[test]
fn compare_gates_injected_regression_but_passes_within_threshold() {
    let old = run_suite(Tier::Smoke, "old", Some(1), |_| {}).expect("suite runs");

    // Injected 2x simulated regression: gated under exact comparison and
    // under any sane tolerance.
    let mut bad = old.clone();
    bad.label = "bad".into();
    bad.cases[0].sim[0].1 *= 2;
    let cmp = compare(&old, &bad, &CompareConfig::default());
    assert!(!cmp.passed());
    assert_eq!(cmp.regressions.len(), 1);
    let cmp = compare(
        &old,
        &bad,
        &CompareConfig {
            sim_tol: 0.25,
            ..CompareConfig::default()
        },
    );
    assert!(!cmp.passed(), "a 2x regression must exceed a 25% tolerance");

    // A within-threshold delta passes once a tolerance is configured (and
    // still fails the default exact gate).
    let mut drift = old.clone();
    drift.label = "drift".into();
    let base = drift.cases[0].sim[0].1;
    drift.cases[0].sim[0].1 = base + base / 10; // +10%
    assert!(!compare(&old, &drift, &CompareConfig::default()).passed());
    let cmp = compare(
        &old,
        &drift,
        &CompareConfig {
            sim_tol: 0.25,
            ..CompareConfig::default()
        },
    );
    assert!(cmp.passed(), "{:?}", cmp.regressions);

    // Wall-clock changes alone never gate unless asked to.
    let mut slow = old.clone();
    slow.label = "slow".into();
    for case in &mut slow.cases {
        case.wall.p50_ns *= 10;
    }
    assert!(compare(&old, &slow, &CompareConfig::default()).passed());
    assert!(!compare(
        &old,
        &slow,
        &CompareConfig {
            wall_gate: true,
            ..CompareConfig::default()
        }
    )
    .passed());
}

#[test]
fn drt_bench_binary_emits_schema_valid_doc_and_compare_gates() {
    let drt = env!("CARGO_BIN_EXE_drt");
    let out = temp_path("BENCH_cli.json");

    let run = Command::new(drt)
        .args([
            "bench",
            "--smoke",
            "--label",
            "cli",
            "--repeats",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("drt bench runs");
    assert!(
        run.status.success(),
        "drt bench failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = BenchDoc::load(&out).expect("schema-valid BENCH json");
    assert_eq!(doc.label, "cli");
    assert_eq!(doc.tier, "smoke");
    assert!(!doc.cases.is_empty());

    // Self-compare: exit 0.
    let ok = Command::new(drt)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("drt compare runs");
    assert!(
        ok.status.success(),
        "self-compare must pass: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let table = String::from_utf8_lossy(&ok.stdout).to_string();
    assert!(
        table.contains("| case | metric |"),
        "markdown table: {table}"
    );
    assert!(table.contains("0 regression(s)"));

    // Inject a 2x regression into a copy: exit nonzero and the offending
    // case named in the summary.
    let mut bad = doc.clone();
    bad.label = "bad".into();
    bad.cases[0].sim[0].1 *= 2;
    let bad_path = temp_path("BENCH_cli_bad.json");
    bad.save(&bad_path).expect("save bad doc");
    let fail = Command::new(drt)
        .arg("compare")
        .arg(&out)
        .arg(&bad_path)
        .output()
        .expect("drt compare runs");
    assert!(!fail.status.success(), "injected regression must gate");
    let table = String::from_utf8_lossy(&fail.stdout).to_string();
    assert!(table.contains("REGRESSION"), "{table}");
    assert!(table.contains(&doc.cases[0].id), "{table}");
}

#[test]
fn committed_bench_documents_round_trip_byte_for_byte() {
    // `load` then `to_value` must reproduce each committed trajectory point
    // exactly — same keys, same order, same number formatting — except for
    // the three fields of the retired parallel engine, which are dropped and
    // nothing else is.
    for name in ["BENCH_baseline.json", "BENCH_pr14.json", "BENCH_pr17.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let bytes = std::fs::read_to_string(&path).expect("committed document");
        let mut want = obs::json::parse(bytes.trim()).expect("committed document is JSON");
        assert_eq!(
            format!("{want}\n"),
            bytes,
            "{name}: the printer reproduces the file"
        );
        let Value::Object(fields) = &mut want else {
            panic!("{name}: not an object");
        };
        for (key, within) in [
            ("speedup", None),
            ("efficiency", None),
            ("threads", Some("env")),
        ] {
            let fields = match within {
                None => &mut *fields,
                Some(parent) => match fields.iter_mut().find(|(k, _)| k == parent) {
                    Some((_, Value::Object(inner))) => inner,
                    _ => panic!("{name}: no '{parent}' object"),
                },
            };
            let before = fields.len();
            fields.retain(|(k, _)| k != key);
            assert_eq!(fields.len() + 1, before, "{name}: '{key}' present once");
        }
        let doc = BenchDoc::load(&path).expect("committed document loads");
        assert_eq!(doc.to_value().to_string(), want.to_string(), "{name}");
    }
    // Points written after the parallel engine's retirement round-trip as
    // they are.
    for name in ["BENCH_pr29.json", "BENCH_pr30.json", "BENCH_pr34.json"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let bytes = std::fs::read_to_string(&path).expect("committed document");
        let doc = BenchDoc::load(&path).expect("committed document loads");
        assert_eq!(format!("{}\n", doc.to_value()), bytes, "{name}");
    }
}

#[test]
fn bench_report_carries_wall_clock() {
    // The satellite wiring: spans carry wall_ns alongside simulated deltas,
    // and the engine stamps wall time onto run stats.
    let mut rec = obs::Recorder::new();
    let span = rec.begin("outer");
    std::hint::black_box((0..10_000).sum::<u64>());
    rec.end(span);
    assert_eq!(rec.spans().len(), 1);
    // Wall time is monotone non-negative; the span must have sampled it.
    let report = temp_path("wall.jsonl");
    rec.write_report(&report, "wall-test", &[]).unwrap();
    let records = obs::read_report(&report).unwrap();
    let summary = records
        .iter()
        .find(|r| r.get("type").and_then(|v| v.as_str()) == Some("run_summary"))
        .expect("summary present");
    assert!(summary.get("wall_ns").and_then(|v| v.as_u64()).is_some());
    let span = records
        .iter()
        .find(|r| r.get("type").and_then(|v| v.as_str()) == Some("span"))
        .expect("span present");
    assert!(span.get("wall_ns").and_then(|v| v.as_u64()).is_some());
}

/// The key skeleton of one JSON value: every key path in writer order, no
/// values. Array elements contribute each distinct element shape once, so a
/// heatmap's length (data) never enters the golden file but a hop with a
/// missing field would.
fn key_paths(prefix: &str, v: &Value, out: &mut Vec<String>) {
    match v {
        Value::Object(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                match child {
                    Value::Object(_) | Value::Array(_) => key_paths(&path, child, out),
                    _ => out.push(path),
                }
            }
        }
        Value::Array(items) => {
            let mut shapes: Vec<Vec<String>> = Vec::new();
            for item in items {
                let mut shape = Vec::new();
                key_paths(&format!("{prefix}[]"), item, &mut shape);
                if shape.is_empty() {
                    shape.push(format!("{prefix}[]"));
                }
                if !shapes.contains(&shape) {
                    shapes.push(shape);
                }
            }
            if shapes.is_empty() {
                out.push(format!("{prefix}[]"));
            }
            out.extend(shapes.into_iter().flatten());
        }
        _ => out.push(prefix.to_string()),
    }
}

#[test]
fn drt_report_key_skeletons_match_the_golden_file() {
    // Every report-writing subcommand, end to end through the binary: the
    // `type` tag and the ordered key paths of each line must equal the
    // recorded skeleton. Values — wall clocks above all — never enter the
    // golden file; an `Option` written as `null` and one written as a number
    // have the same path. Every `run_summary` counts the appended records:
    // the lines that are neither spans nor the summary itself.
    let drt = env!("CARGO_BIN_EXE_drt");
    let graph = temp_path("skeleton-graph.txt");
    let scheme = temp_path("skeleton-scheme.bin");
    let run = |args: &[&str]| {
        let out = Command::new(drt).args(args).output().expect("drt runs");
        assert!(
            out.status.success(),
            "drt {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    std::fs::write(&graph, run(&["generate", "er", "64", "7"])).expect("graph written");
    let (g, s) = (graph.to_str().unwrap(), scheme.to_str().unwrap());
    let commands: [(&str, Vec<&str>); 8] = [
        ("build", vec!["build", g, "2", s]),
        ("trace", vec!["trace", g, s, "1", "60"]),
        ("audit", vec!["audit", g, s, "--kill-edges", "0.15"]),
        ("traffic", vec!["traffic", g, s, "--rounds", "64"]),
        ("churn", vec!["churn", g, s, "--rounds", "5"]),
        ("serve", vec!["serve", g, "--scheme", s, "--queries", "512"]),
        ("profile", vec!["profile", "--n", "64", "--packets", "256"]),
        (
            "traffic --profile",
            vec!["traffic", g, s, "--rounds", "64", "--profile"],
        ),
    ];
    let mut skeleton = String::new();
    for (name, mut args) in commands {
        let report = temp_path(&format!("skeleton-{name}.jsonl"));
        args.extend(["--report", report.to_str().unwrap()]);
        run(&args);
        // Every report the binary writes must also validate.
        run(&["report", report.to_str().unwrap()]);
        skeleton.push_str(&format!("# drt {name}\n"));
        let mut last: Option<(String, usize)> = None;
        let flush = |last: &mut Option<(String, usize)>, skeleton: &mut String| {
            if let Some((line, times)) = last.take() {
                skeleton.push_str(&format!("{times}x {line}\n"));
            }
        };
        let records = obs::read_report(&report).expect("report parses");
        let appended = records
            .iter()
            .filter(|r| !matches!(obs::record::tag(r), Some("span" | "run_summary")))
            .count();
        let summary = records.last().expect("report has a summary");
        assert_eq!(obs::record::tag(summary), Some("run_summary"), "drt {name}");
        assert_eq!(
            summary.get("records").and_then(|v| v.as_u64()),
            Some(appended as u64),
            "drt {name}: run_summary.records miscounts the appended lines"
        );
        for record in records {
            let mut paths = Vec::new();
            key_paths("", &record, &mut paths);
            let ty = record.get("type").and_then(|t| t.as_str()).expect("tagged");
            let line = format!("{ty}: {}", paths.join(" "));
            match &mut last {
                Some((prev, times)) if *prev == line => *times += 1,
                _ => {
                    flush(&mut last, &mut skeleton);
                    last = Some((line, 1));
                }
            }
        }
        flush(&mut last, &mut skeleton);
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report_skeletons.txt"
    );
    let actual = temp_path("report_skeletons.actual.txt");
    std::fs::write(&actual, &skeleton).expect("actual skeleton written");
    let expected = std::fs::read_to_string(golden).expect("tests/golden/report_skeletons.txt");
    assert_eq!(
        skeleton,
        expected,
        "report key skeleton drifted; this run's is in {}",
        actual.display()
    );
}
