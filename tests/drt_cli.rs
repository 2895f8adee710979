//! The `drt` command line, end to end through the binary.
//!
//! Two contracts: the stdout of every deterministic subcommand on one small
//! graph is pinned byte for byte in `tests/golden/drt_stdout.txt`, and every
//! bad input — a scheme built for another graph, a degenerate generator or
//! build input, an unknown flag, a missing or malformed value — exits 1 with
//! a single `error:` line on stderr instead of panicking (exit 101) or
//! running on regardless.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DRT: &str = env!("CARGO_BIN_EXE_drt");

/// A fresh per-process scratch directory for one test.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drt-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn drt(args: &[&str]) -> Output {
    Command::new(DRT).args(args).output().expect("drt runs")
}

/// Run `drt args`, demand success, and return its stdout.
fn ok(args: &[&str]) -> String {
    let out = drt(args);
    assert!(
        out.status.success(),
        "drt {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Write `drt generate <family> <n> <seed>` to `dir/name`.
fn generate(dir: &Path, name: &str, spec: &[&str]) -> String {
    let path = dir.join(name);
    let mut args = vec!["generate"];
    args.extend(spec);
    std::fs::write(&path, ok(&args)).expect("graph written");
    path.to_str().unwrap().to_string()
}

/// A scheme container (magic, version, length, CRC32, payload) whose
/// payload declares `k` and `n` vertices with no table, label or pivot rows.
fn rowless_container(k: u8, n: u8) -> Vec<u8> {
    let mut payload = b"DRS1".to_vec();
    payload.extend([k, 1, n]); // k, low-memory mode, n: one-byte varints
    payload.resize(payload.len() + 3 * usize::from(n), 0);
    assert!(
        payload.len() < 0x80,
        "the length must stay a one-byte varint"
    );
    let mut container = b"DRSC".to_vec();
    container.extend([1, payload.len() as u8]); // version, payload length
    container.extend(routing::persist::crc32(&payload).to_le_bytes());
    container.extend(payload);
    container
}

#[test]
fn drt_stdout_matches_the_golden_file() {
    // The sizes are `bench_trajectory`'s report-skeleton run, so the whole
    // sweep stays quick in a debug build.
    let dir = temp_dir("golden");
    let g = generate(&dir, "graph.txt", &["er", "64", "7"]);
    let s = dir.join("scheme.bin").to_str().unwrap().to_string();
    let (g, s) = (g.as_str(), s.as_str());
    let commands: [Vec<&str>; 10] = [
        vec!["generate", "er", "64", "7"],
        vec!["info", g],
        vec!["build", g, "2", s],
        vec!["route", g, s, "1", "60", "--load", "64"],
        vec!["query", g, s, "1", "60"],
        vec!["trace", g, s, "1", "60"],
        vec!["stretch", g, s],
        vec!["audit", g, s, "--kill-edges", "0.15"],
        vec!["traffic", g, s, "--rounds", "64"],
        vec!["churn", g, s, "--rounds", "5"],
    ];
    let placeholder = dir.to_str().unwrap();
    let mut actual = String::new();
    for args in commands {
        actual.push_str(&format!("# drt {}\n", args.join(" ")));
        actual.push_str(&ok(&args));
    }
    let actual = actual.replace(placeholder, "<tmp>");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/drt_stdout.txt");
    let expected = std::fs::read_to_string(golden).expect("tests/golden/drt_stdout.txt");
    let dump = dir.join("drt_stdout.actual.txt");
    std::fs::write(&dump, &actual).expect("actual stdout written");
    assert!(
        actual == expected,
        "drt stdout drifted; this run's is in {}",
        dump.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_exit_1_with_one_error_line() {
    let dir = temp_dir("errors");
    let g64 = generate(&dir, "g64.txt", &["er", "64", "7"]);
    let g32 = generate(&dir, "g32.txt", &["er", "32", "7"]);
    let s64 = dir.join("s64.bin").to_str().unwrap().to_string();
    ok(&["build", &g64, "2", &s64]);
    let empty = dir.join("empty.txt");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    // A CRC-valid container for 32 vertices, no rows, and k = 0: the
    // checksum holds, the scheme does not.
    let k0 = dir.join("k0.drsc");
    std::fs::write(&k0, rowless_container(0, 32)).unwrap();
    let k0 = k0.to_str().unwrap();
    // Two edges whose weights sum past the graph door's bound.
    let heavy = dir.join("heavy.txt");
    let max = graphs::MAX_TOTAL_WEIGHT;
    std::fs::write(&heavy, format!("p 3\n0 1 {max}\n1 2 1\n")).unwrap();
    let heavy = heavy.to_str().unwrap();
    // A header declaring more vertices than `u32` ids can name.
    let huge = dir.join("huge.txt");
    std::fs::write(&huge, "p 18446744073709551615\n").unwrap();
    let huge = huge.to_str().unwrap();
    // One vertex and its scheme: a graph with no pair to draw.
    let g1 = dir.join("g1.txt");
    std::fs::write(&g1, "p 1\n").unwrap();
    let g1 = g1.to_str().unwrap();
    let s1 = dir.join("s1.bin").to_str().unwrap().to_string();
    ok(&["build", g1, "2", &s1]);
    let s1 = s1.as_str();
    let (g64, g32, s64) = (g64.as_str(), g32.as_str(), s64.as_str());

    let mismatch = "scheme covers 64 vertices but the graph has 32";
    let cases: &[(&[&str], &str)] = &[
        // A scheme built for another graph.
        (&["route", g32, s64, "1", "2"], mismatch),
        (&["stretch", g32, s64], mismatch),
        (&["traffic", g32, s64, "--rounds", "8"], mismatch),
        (&["churn", g32, s64, "--rounds", "2"], mismatch),
        // A scheme file whose payload checksums but is not a scheme.
        (&["audit", g32, k0], "malformed scheme bytes"),
        // Degenerate generator and build inputs.
        (&["generate", "er", "0"], "at least 2 vertices"),
        (&["generate", "er", "1"], "at least 2 vertices"),
        (&["generate", "geometric", "1"], "at least 2 vertices"),
        (&["build", empty, "2", "/dev/null"], "no vertices"),
        // Pair-drawing planes on a graph with no pair.
        (
            &["traffic", g1, s1],
            "traffic needs a graph with at least 2",
        ),
        (&["churn", g1, s1], "churn needs a graph with at least 2"),
        (
            &["serve", g1, "--scheme", s1],
            "serving needs a graph with at least 2",
        ),
        (
            &["route", g1, s1, "0", "0", "--load", "4"],
            "--load needs a graph with at least 2",
        ),
        (
            &["build", heavy, "2", "/dev/null"],
            "line 3: total edge weight exceeds",
        ),
        (
            &["info", huge],
            "line 1: vertex count 18446744073709551615 exceeds",
        ),
        // The flag table's own errors.
        (&["route", g64, s64, "1", "2", "--bogus"], "--bogus"),
        (
            &["route", g64, s64, "1", "2", "--seed"],
            "--seed needs a value",
        ),
        (
            &["route", g64, s64, "1", "2", "--seed", "x"],
            "bad seed 'x'",
        ),
        (
            &["audit", g64, s64, "--kill-edges", "2"],
            "--kill-edges must be in [0, 1], got 2",
        ),
        // Traffic settings the sweep would not run as given.
        (
            &["traffic", g64, s64, "--rate", "-1"],
            "--rate must be finite and at least 0, got -1",
        ),
        (
            &["traffic", g64, s64, "--rate", "nan"],
            "--rate must be finite and at least 0, got NaN",
        ),
        (
            &["traffic", g64, s64, "--rate", "0.5,inf"],
            "--rate must be finite and at least 0, got inf",
        ),
        (
            &["traffic", g64, s64, "--queue-cap", "0"],
            "--queue-cap must be at least 1",
        ),
        (
            &["traffic", g64, s64, "--rate", "1e9", "--rounds", "5"],
            "--rate 1000000000 over --rounds 5 offers more than 4294967295 packets",
        ),
        (
            &["traffic", g64, s64, "--rate", "1e9", "--rounds", "2"],
            "--rate 1000000000 over --rounds 2 offers more than 8388608 packets, \
             the most one run plans in 4 GiB",
        ),
        (
            &[
                "traffic",
                g64,
                s64,
                "--rate",
                "0",
                "--rounds",
                "18446744073709551615",
            ],
            "--rounds must be at most 3947580, got 18446744073709551615",
        ),
        // Churn bursts go through the same check, and a churn run's round
        // count has its own bound.
        (
            &["churn", g64, s64, "--rounds", "1", "--traffic-rate", "-1"],
            "--traffic-rate must be finite and at least 0, got -1",
        ),
        (
            &["churn", g64, s64, "--rounds", "1", "--traffic-rate", "nan"],
            "--traffic-rate must be finite and at least 0, got NaN",
        ),
        (
            &["churn", g64, s64, "--rounds", "1", "--queue-cap", "0"],
            "--queue-cap must be at least 1",
        ),
        (
            &[
                "churn",
                g64,
                s64,
                "--rounds",
                "1",
                "--traffic-rate",
                "0",
                "--burst-rounds",
                "18446744073709551615",
            ],
            "--burst-rounds must be at most 3947580, got 18446744073709551615",
        ),
        (
            &[
                "churn",
                g64,
                s64,
                "--rounds",
                "1",
                "--traffic-rate",
                "1e9",
                "--burst-rounds",
                "5",
            ],
            "--traffic-rate 1000000000 over --burst-rounds 5 offers more than 4294967295 packets",
        ),
        (
            &[
                "churn",
                g64,
                s64,
                "--rounds",
                "1",
                "--traffic-rate",
                "1e9",
                "--burst-rounds",
                "2",
            ],
            "--traffic-rate 1000000000 over --burst-rounds 2 offers more than 8388608 packets, \
             the most one run plans in 4 GiB",
        ),
        // Every churn round plans a whole burst, so the bursts together
        // are held to one run's budgets.
        (
            &[
                "churn",
                g64,
                s64,
                "--rounds",
                "2",
                "--traffic-rate",
                "0",
                "--burst-rounds",
                "3947580",
            ],
            "--rounds 2 bursts of --burst-rounds 3947580 run more than 3947580 \
             injection rounds in all",
        ),
        (
            &[
                "churn",
                g64,
                s64,
                "--rounds",
                "2",
                "--traffic-rate",
                "5",
                "--burst-rounds",
                "1000000",
            ],
            "--rounds 2 bursts of --traffic-rate 5 over --burst-rounds 1000000 \
             offer more than 8388608 packets in all",
        ),
        (
            &["churn", g64, s64, "--rounds", "100000000000"],
            "--rounds must be at most 262144, got 100000000000",
        ),
        (
            &["churn", g64, s64, "--rounds", "18446744073709551615"],
            "--rounds must be at most 262144, got 18446744073709551615",
        ),
        // `--profile` is `drt traffic`'s flag alone.
        (
            &["churn", g64, s64, "--rounds", "2", "--profile"],
            "unknown flag '--profile' for drt churn",
        ),
        (
            &["build", g64, "2", s64, "--profile"],
            "unknown flag '--profile' for drt build",
        ),
    ];
    for (args, needle) in cases {
        let out = drt(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "drt {args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "drt {args:?}: {stderr}");
        assert!(lines[0].starts_with("error: "), "drt {args:?}: {stderr}");
        assert!(lines[0].contains(needle), "drt {args:?}: {stderr}");
    }
    let unknown = drt(&["route", g64, s64, "1", "2", "--bogus"]);
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("route"));

    // Small but valid inputs run: the edge probability is clamped at 1.
    ok(&["generate", "er", "2"]);
    ok(&["generate", "er", "3"]);
    ok(&["profile", "--n", "3", "--packets", "8"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_on_two_components_answers_the_cross_pairs_unreachable() {
    let dir = temp_dir("split");
    let g = dir.join("split.txt");
    std::fs::write(&g, "p 6\n0 1 2\n1 2 3\n3 4 1\n4 5 7\n").unwrap();
    let out = ok(&["serve", g.to_str().unwrap(), "--queries", "256"]);
    let outcomes = out
        .lines()
        .find_map(|l| l.trim().strip_prefix("outcomes     : "))
        .unwrap_or_else(|| panic!("no outcomes line in:\n{out}"));
    let unreachable: u64 = outcomes
        .split(", ")
        .find_map(|part| part.strip_suffix(" unreachable"))
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no unreachable count in '{outcomes}'"));
    assert!(unreachable > 0, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}
