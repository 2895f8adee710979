//! Shared command-line conventions for report-capable binaries.
//!
//! Every table/figure binary and the `drt` CLI accept:
//!
//! * `--report <path>` or `--report=<path>` — write a JSONL run report;
//! * the `DRT_REPORT` environment variable as a fallback path;
//! * `--json` (where meaningful) — print the primary output as JSON.
//!
//! [`ReportOptions::parse`] strips these from an argument list and hands the
//! remaining arguments back, so binaries keep their existing positional
//! parsing untouched.

use std::path::PathBuf;

/// Reporting-related options extracted from the command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReportOptions {
    /// Destination for the JSONL run report, when requested.
    pub report: Option<PathBuf>,
    /// Whether `--json` output was requested.
    pub json: bool,
}

impl ReportOptions {
    /// Extract `--report`/`--json` from `args`; returns the options plus the
    /// arguments that remain. Falls back to the `DRT_REPORT` environment
    /// variable when no `--report` flag is present.
    pub fn parse(args: impl IntoIterator<Item = String>) -> (ReportOptions, Vec<String>) {
        let mut opts = ReportOptions::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--report" {
                opts.report = args.next().map(PathBuf::from);
            } else if let Some(path) = arg.strip_prefix("--report=") {
                opts.report = Some(PathBuf::from(path));
            } else if arg == "--json" {
                opts.json = true;
            } else {
                rest.push(arg);
            }
        }
        if opts.report.is_none() {
            if let Ok(path) = std::env::var("DRT_REPORT") {
                if !path.is_empty() {
                    opts.report = Some(PathBuf::from(path));
                }
            }
        }
        (opts, rest)
    }

    /// Extract options from [`std::env::args`], skipping the program name.
    pub fn from_env() -> (ReportOptions, Vec<String>) {
        ReportOptions::parse(std::env::args().skip(1))
    }

    /// Whether a report should be written.
    pub fn reporting(&self) -> bool {
        self.report.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_separate_and_equals_forms() {
        let (opts, rest) = ReportOptions::parse(strings(&[
            "--report",
            "/tmp/r.jsonl",
            "generate",
            "--n",
            "64",
        ]));
        assert_eq!(opts.report.as_deref(), Some("/tmp/r.jsonl".as_ref()));
        assert!(!opts.json);
        assert_eq!(rest, strings(&["generate", "--n", "64"]));

        let (opts, rest) = ReportOptions::parse(strings(&["--report=/tmp/x.jsonl"]));
        assert_eq!(opts.report.as_deref(), Some("/tmp/x.jsonl".as_ref()));
        assert!(rest.is_empty());
    }

    #[test]
    fn parses_json_flag() {
        let (opts, rest) = ReportOptions::parse(strings(&["--json", "foo"]));
        assert!(opts.json);
        assert_eq!(rest, strings(&["foo"]));
    }

    #[test]
    fn leaves_threads_flag_to_the_caller() {
        // `--threads` sizes the serve pool only; `drt serve` parses it.
        let args = strings(&["serve", "--threads", "4", "--threads=2"]);
        let (opts, rest) = ReportOptions::parse(args.clone());
        assert_eq!(opts, ReportOptions::default());
        assert_eq!(rest, args);
    }

    #[test]
    fn parses_profile_flag() {
        // `--profile` belongs to `drt traffic` alone: the shared options
        // leave it, in place, for the subcommand to parse.
        let args = strings(&["traffic", "--profile", "bench"]);
        let (opts, rest) = ReportOptions::parse(args.clone());
        assert_eq!(opts, ReportOptions::default());
        assert_eq!(rest, args);
    }

    #[test]
    fn no_flags_no_report() {
        // NB: assumes DRT_REPORT is unset in the test environment; other
        // tests must not set it process-wide.
        let (opts, rest) = ReportOptions::parse(strings(&["a", "b"]));
        assert_eq!(opts.report, None);
        assert!(!opts.reporting());
        assert_eq!(rest, strings(&["a", "b"]));
    }
}
