//! Harness-side spans: one per call into a layer, kept in memory and written
//! out once when the run ends.
//!
//! The tracer always reads the clock (the harness needs the duration of
//! every stage it times); it only *keeps* spans in a traced run, so the
//! untraced run that yields the end-to-end metrics stores nothing.

use std::path::Path;
use std::time::Instant;

use crate::api::Json;

/// One completed (or still open) interval on the harness timeline.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<operation>` for harness spans, the recorder's own
    /// `scheme/...` names for adopted build phases.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which repeat of its stage this span belongs to.
    pub rep: usize,
}

/// A phase measured inside the program (an `obs::Recorder` span): duration
/// and nesting only — the recorder keeps no start times.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: String,
    pub wall_ns: u64,
    /// Index into the same phase list.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; stays valid after [`Tracer::end`]
/// so phases can be adopted under the closed span.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(keep: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn keeps_spans(&self) -> bool {
        self.keep
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &str, rep: usize) -> Open {
        let index = self.keep.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep,
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.stack.push(i);
        }
        // The clock is read last so bookkeeping stays outside the interval.
        let started = Instant::now();
        if let Some(i) = index {
            let start = self.now_ns(started);
            self.spans[i].start_ns = start;
            self.spans[i].end_ns = start;
        }
        Open { started, index }
    }

    /// Close `open` (innermost first) and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(i), "spans must close innermost-first");
            self.spans[i].end_ns = self.now_ns(ended);
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Time one call into a layer.
    pub fn time<T>(&mut self, name: &str, rep: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, rep);
        let out = f();
        (out, self.end(open))
    }

    /// Re-parent `phases` under the closed span `under`. The recorder keeps
    /// durations but no start times, so siblings are packed back to back
    /// from their parent's start; whatever the parent spent outside its
    /// phases shows up as its self time.
    pub fn adopt(&mut self, under: Open, phases: &[Phase]) {
        let Some(root) = under.index else {
            return;
        };
        let rep = self.spans[root].rep;
        let base = self.spans.len();
        // Next free start offset inside each parent: `cursor[0]` for the
        // harness span, `cursor[i + 1]` for phase `i`.
        let mut cursor = vec![self.spans[root].start_ns];
        for phase in phases {
            let slot = phase.parent.map_or(0, |p| p + 1);
            let start_ns = cursor[slot];
            cursor[slot] = start_ns + phase.wall_ns;
            cursor.push(start_ns);
            self.spans.push(Span {
                name: phase.name.clone(),
                start_ns,
                end_ns: start_ns + phase.wall_ns,
                parent: Some(phase.parent.map_or(root, |p| base + p)),
                rep,
            });
        }
    }

    /// Per span, its duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every kept span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let own = self.self_ns();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &self_ns)| {
                Json::object(vec![
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("workload", Json::from(workload)),
                    ("rep", Json::from(s.rep)),
                    ("self_ns", Json::from(self_ns)),
                ])
            })
            .collect();
        let doc = Json::object(vec![
            ("workload", Json::from(workload)),
            ("spans", Json::Array(spans)),
        ]);
        std::fs::write(path, format!("{doc}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_runs_time_but_keep_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x.y", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 2);
        t.time("inner", 2, || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = t.self_ns();
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - inner);
        assert_eq!(own[1], inner);
    }

    #[test]
    fn adopted_phases_pack_from_their_parents_start() {
        let mut t = Tracer::new(true);
        let build = t.begin("routing.build", 1);
        t.end(build);
        let phases = [
            Phase {
                name: "a".into(),
                wall_ns: 10,
                parent: None,
            },
            Phase {
                name: "b".into(),
                wall_ns: 30,
                parent: None,
            },
            Phase {
                name: "b/x".into(),
                wall_ns: 5,
                parent: Some(1),
            },
            Phase {
                name: "b/y".into(),
                wall_ns: 7,
                parent: Some(1),
            },
        ];
        t.adopt(build, &phases);
        let s = t.spans();
        let t0 = s[0].start_ns;
        assert_eq!(
            (s[1].start_ns, s[1].end_ns, s[1].parent),
            (t0, t0 + 10, Some(0))
        );
        assert_eq!(
            (s[2].start_ns, s[2].end_ns, s[2].parent),
            (t0 + 10, t0 + 40, Some(0))
        );
        assert_eq!(
            (s[3].start_ns, s[3].end_ns, s[3].parent),
            (t0 + 10, t0 + 15, Some(2))
        );
        assert_eq!(
            (s[4].start_ns, s[4].end_ns, s[4].parent),
            (t0 + 15, t0 + 22, Some(2))
        );
        assert!(s.iter().all(|x| x.rep == 1));
        assert_eq!(t.self_ns()[2], 30 - 5 - 7);
    }
}
