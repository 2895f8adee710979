//! The stdout of every table and figure binary, byte for byte.
//!
//! Those tables are part of the behavioural contract: a refactor may not
//! move a digit of them. The files under `golden/` were recorded on the
//! commit before the planes shared one forwarding kernel. Only a declared
//! behaviour change re-records one, with
//! `cargo run --release --bin <name> > crates/bench/tests/golden/<name>.txt`.
//!
//! Each binary takes a second or two in release and far longer unoptimised,
//! so the tests are ignored in debug builds; CI's `cargo test --release`
//! runs them.

use std::process::Command;

fn check(exe: &str, want: &str) {
    let out = Command::new(exe).output().expect("binary runs");
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        got == want,
        "{exe}: stdout moved\n--- recorded\n{want}\n--- now\n{got}"
    );
}

macro_rules! golden {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "slow unoptimised; run with --release")]
        fn $name() {
            check(
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("golden/", stringify!($name), ".txt")),
            );
        }
    )+};
}

golden!(
    table1,
    table2,
    fig_stretch_vs_k,
    fig_load,
    fig_bits,
    fig_memory_vs_k,
    fig_memory_vs_n,
    fig_rounds_vs_n,
    ablations,
);

/// A binary that cannot write its report fails the way `drt` does: exit
/// status 1 and exactly one `error: …` line on stderr.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimised; run with --release")]
fn report_write_failure_is_one_error_line() {
    let missing = std::env::temp_dir()
        .join(format!("golden-missing-{}", std::process::id()))
        .join("x.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fig_memory_vs_k"))
        .arg("--report")
        .arg(&missing)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "{err}");
    assert!(lines[0].starts_with("error: writing report "), "{err}");
}
