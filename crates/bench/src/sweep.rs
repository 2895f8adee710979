//! Shared sweep harness for the table/figure binaries.
//!
//! Every regeneration binary follows the same skeleton: parse the report
//! options, spin up a recorder, seed a `ChaCha8Rng` per case from a
//! binary-specific base, wrap each observed build in a span closed with a
//! peak-memory snapshot, and finally write the JSONL report if one was
//! requested. [`Sweep`] owns that skeleton so the binaries keep only their
//! measurement logic; the recorder stays public for binaries that also
//! attach flight records or charge engine costs directly. The `drt` CLI's
//! report-writing subcommands use the same type over the options its
//! dispatcher already parsed ([`Sweep::new`], [`Sweep::write`]).

use std::path::Path;

use obs::json::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The per-binary sweep context: parsed report options plus the recorder.
#[derive(Debug)]
pub struct Sweep {
    /// Options extracted from the command line / `DRT_REPORT`.
    pub opts: obs::cli::ReportOptions,
    /// The run recorder (enabled iff a report was requested).
    pub rec: obs::Recorder,
    name: String,
}

impl Sweep {
    /// Parse [`std::env::args`] and set up the recorder. `name` is the run
    /// name the report is written under.
    pub fn from_env(name: &str) -> Sweep {
        Sweep::new(name, obs::cli::ReportOptions::from_env().0)
    }

    /// A sweep over options already parsed, with a recorder enabled iff a
    /// report was requested.
    pub fn new(name: &str, opts: obs::cli::ReportOptions) -> Sweep {
        Sweep {
            rec: obs::Recorder::when(opts.reporting()),
            opts,
            name: name.to_string(),
        }
    }

    /// Whether a report will be written at [`Sweep::finish`].
    pub fn reporting(&self) -> bool {
        self.opts.reporting()
    }

    /// The deterministic per-case RNG every sweep uses: seeded from a
    /// binary-specific `base` plus a case-specific `salt` (usually `n`).
    pub fn rng(base: u64, salt: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(base.wrapping_add(salt))
    }

    /// Run `f` under a named span, closing it with the peak-memory snapshot
    /// `f` returns alongside its result.
    pub fn observed<T>(
        &mut self,
        span: &str,
        f: impl FnOnce(&mut obs::Recorder) -> (T, Vec<usize>),
    ) -> T {
        let id = self.rec.begin(span);
        let (out, peaks) = f(&mut self.rec);
        self.rec.end_with_memory(id, &peaks);
        out
    }

    /// Charge `costs` (one entry per engine run) to one span named `span`.
    pub fn charged(&mut self, span: &str, costs: impl IntoIterator<Item = obs::Counters>) {
        let id = self.rec.begin(span);
        for c in costs {
            self.rec.charge(&c);
        }
        self.rec.end(id);
    }

    /// Append a free-form record (flight heatmap, histogram, metrics) to the
    /// report.
    pub fn add_record(&mut self, record: Value) {
        self.rec.add_record(record);
    }

    /// Write the report if one was requested (with `extra` summary fields)
    /// and return its path.
    ///
    /// # Errors
    ///
    /// Names the path and the I/O error when the report cannot be written.
    pub fn write(&self, extra: &[(&str, Value)]) -> Result<Option<&Path>, String> {
        let Some(path) = &self.opts.report else {
            return Ok(None);
        };
        self.rec
            .write_report(path, &self.name, extra)
            .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        Ok(Some(path))
    }

    /// Write the report if one was requested, without extra summary fields:
    /// the last step of a binary's `main`, whose exit status it becomes.
    ///
    /// # Errors
    ///
    /// As [`Sweep::write`].
    pub fn finish(self) -> Result<(), String> {
        self.write(&[]).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        use rand::Rng;
        let a: u64 = Sweep::rng(0x51, 256).gen();
        let b: u64 = Sweep::rng(0x51, 256).gen();
        let c: u64 = Sweep::rng(0x51, 512).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn observed_wraps_a_span_with_memory() {
        let mut sweep = Sweep {
            opts: obs::cli::ReportOptions::default(),
            rec: obs::Recorder::new(),
            name: "test".to_string(),
        };
        let out = sweep.observed("case/n8", |rec| {
            rec.charge_rounds(5);
            (42u32, vec![1, 2, 9])
        });
        assert_eq!(out, 42);
        let spans = sweep.rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "case/n8");
        assert_eq!(spans[0].delta.rounds, 5);
        assert_eq!(spans[0].peak_memory_words, 9);
    }

    #[test]
    fn charged_spans_sum_their_runs_and_write_returns_the_path() {
        let opts = obs::cli::ReportOptions {
            report: Some(
                std::env::temp_dir().join(format!("sweep-charged-{}.jsonl", std::process::id())),
            ),
            ..obs::cli::ReportOptions::default()
        };
        let mut sweep = Sweep::new("test", opts);
        let run = |rounds| obs::Counters {
            rounds,
            messages: 2,
            words: 3,
            broadcasts: 0,
        };
        sweep.charged("case/engine", [run(4), run(5)]);
        let span = &sweep.rec.spans()[0];
        assert_eq!((span.delta.rounds, span.delta.messages), (9, 4));
        let path = sweep
            .write(&[])
            .expect("report written")
            .expect("requested");
        assert_eq!(obs::read_report(path).expect("parses").len(), 2);
        std::fs::remove_file(path).ok();

        let off = Sweep::new("test", obs::cli::ReportOptions::default());
        assert_eq!(off.write(&[]), Ok(None));

        // A report under a missing directory cannot be written: `finish`
        // says so instead of swallowing it.
        let missing = std::env::temp_dir()
            .join(format!("sweep-missing-{}", std::process::id()))
            .join("report.jsonl");
        let opts = obs::cli::ReportOptions {
            report: Some(missing),
            ..obs::cli::ReportOptions::default()
        };
        let err = Sweep::new("test", opts).finish().unwrap_err();
        assert!(err.starts_with("writing report "), "{err}");
    }
}
