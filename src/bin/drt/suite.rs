//! `drt report`, `drt bench` and `drt compare`: read run reports back, and
//! write and diff benchmark trajectory points.
//!
//! `drt report` reads a JSONL run report back, validates every record whose
//! type is in `obs::REGISTRY` (the table in DESIGN.md §4d says what each
//! type's parser re-checks), and prints per-type counts plus the run's total
//! wall-clock time.
//!
//! `drt bench` runs the standardized benchmark suite (fixed seeds; see
//! [`bench::suite`]) and writes a `BENCH_<label>.json` trajectory point:
//! per-case wall-clock p50/p95 over repeats, byte-stable simulated
//! rounds/words/memory, an environment stamp, and fitted scaling-law
//! verdicts against the paper's predicted exponents (nonzero exit if a fit
//! falls outside its predicted range). `drt compare old.json new.json`
//! diffs two such documents — simulated columns gate exactly by default,
//! wall-clock is advisory within `--wall-tol` — and prints a markdown
//! summary, exiting nonzero on any gated regression.

use bench::compare::CompareConfig;
use bench::suite::{BenchDoc, Tier};
use obs::json::Value;

use crate::cli::{switch, val, Args};

pub fn report(a: &Args) -> Result<(), String> {
    let [path] = a.exactly(&mut [])?;
    let records = obs::read_report(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut counts: Vec<(String, usize)> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let ty = obs::record::tag(record)
            .ok_or_else(|| format!("record {i}: missing 'type'"))?
            .to_string();
        // Every type in the registry is parsed by its declared schema and
        // re-checked against its identities (DESIGN.md §4d); the error
        // already names the field, the index makes the bad line findable.
        // A type the registry does not know is counted, not validated.
        if let Some((_, validate)) = obs::REGISTRY.iter().find(|(t, _)| *t == ty) {
            validate(record).map_err(|e| e.in_record(i).to_string())?;
        }
        match counts.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, c)) => *c += 1,
            None => counts.push((ty, 1)),
        }
    }
    // Surface the run's real time alongside the simulated costs: the summary
    // line carries the recorder's total wall clock, each span its own.
    let total_wall = records
        .iter()
        .find(|r| obs::record::tag(r) == Some("run_summary"))
        .and_then(|r| r.get("wall_ns"))
        .and_then(Value::as_u64);
    let mut spans: Vec<(&str, u64)> = records
        .iter()
        .filter(|r| obs::record::tag(r) == Some("span"))
        .filter_map(|r| {
            Some((
                r.get("name").and_then(Value::as_str)?,
                r.get("wall_ns").and_then(Value::as_u64)?,
            ))
        })
        .collect();
    spans.sort_by_key(|&(_, wall)| std::cmp::Reverse(wall));
    if a.opts.json {
        // Machine-readable summary: per-type counts, total and top-3 span
        // walls, and the conservation verdict across traffic summaries.
        let summary = Value::object(vec![
            ("file", Value::from(path.as_str())),
            ("records", Value::from(records.len())),
            ("valid", Value::from(true)),
            (
                "counts",
                Value::Object(
                    counts
                        .iter()
                        .map(|(t, c)| (t.clone(), Value::from(*c)))
                        .collect(),
                ),
            ),
            ("total_wall_ns", total_wall.map_or(Value::Null, Value::from)),
            (
                "top_spans",
                Value::Array(
                    spans
                        .iter()
                        .take(3)
                        .map(|&(name, wall)| {
                            Value::object(vec![
                                ("name", Value::from(name)),
                                ("wall_ns", Value::from(wall)),
                            ])
                        })
                        .collect(),
                ),
            ),
            // Traffic summaries re-check conservation on parse, so reaching
            // this point means every one of them balanced.
            ("conserved", Value::from(true)),
        ]);
        println!("{summary}");
        return Ok(());
    }
    println!("{path}: {} records, all valid", records.len());
    for (ty, c) in counts {
        println!("  {ty:<18} {c}");
    }
    if let Some(total) = total_wall {
        println!("  total wall         {:.2} ms", total as f64 / 1e6);
        for (name, wall) in spans.iter().take(3) {
            println!("    {name:<20} {:.2} ms", *wall as f64 / 1e6);
        }
    }
    Ok(())
}

pub fn bench(a: &Args) -> Result<(), String> {
    let (mut tier, mut label) = (Tier::Quick, String::from("dev"));
    let (mut out, mut repeats) = (None::<String>, None::<usize>);
    let [] = a.exactly(&mut [
        switch("--smoke|--quick|--full", &mut tier),
        val("--label", "label", &mut label),
        val("--out", "path", &mut out),
        val("--repeats", "repeat count", &mut repeats),
    ])?;
    let out = out.unwrap_or_else(|| format!("BENCH_{label}.json"));
    println!(
        "running {} suite (label '{label}') — simulated columns are seed-pinned, wall is this \
         machine",
        tier.name()
    );
    let doc = bench::suite::run_suite(tier, &label, repeats, |case| {
        println!("  done {case}");
    })?;
    // A case without a column (`serve_qps` counts no rounds) prints `-`.
    let column = |case: &bench::suite::CaseResult, name: &str| {
        case.sim(name).map_or("-".to_string(), |v| v.to_string())
    };
    for case in &doc.cases {
        println!(
            "{:<28} rounds {:>9}  words {:>11}  wall p50 {:>9.2} ms",
            case.id,
            column(case, "rounds"),
            column(case, "words"),
            case.wall.p50_ns as f64 / 1e6
        );
    }
    for check in &doc.checks {
        println!(
            "scaling {:<28} exponent {:+.3} in [{:+.2}, {:+.2}]  r2 {:.3}  {}  ({})",
            check.metric,
            check.fit.exponent,
            check.predicted.lo,
            check.predicted.hi,
            check.fit.r2,
            if check.ok() { "OK" } else { "FAIL" },
            check.claim
        );
    }
    doc.save(&out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if !doc.scaling_ok() {
        return Err("scaling check(s) outside the paper-predicted exponent range".into());
    }
    Ok(())
}

pub fn compare(a: &Args) -> Result<(), String> {
    let mut cfg = CompareConfig::default();
    let [old_path, new_path] = a.exactly(&mut [
        val("--sim-tol", "tolerance", &mut cfg.sim_tol),
        val("--wall-tol", "tolerance", &mut cfg.wall_tol),
        switch("--wall-gate", &mut cfg.wall_gate),
    ])?;
    let old = BenchDoc::load(&old_path)?;
    let new = BenchDoc::load(&new_path)?;
    let cmp = bench::compare::compare(&old, &new, &cfg);
    print!("{}", cmp.markdown(&old.label, &new.label));
    if !cmp.passed() {
        return Err(format!("{} regression(s) detected", cmp.regressions.len()));
    }
    Ok(())
}
