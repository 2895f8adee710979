//! The one argument parser every `drt` subcommand goes through.
//!
//! A subcommand is a row of the dispatch table (`crate::COMMANDS`): its
//! name and the function that runs it; its usage is its entry in
//! [`SYNOPSIS`]. That function declares its flags once, in the
//! [`Args::parse`] (or [`Args::exactly`]) call at its top, each bound to
//! the variable it fills; everything that is not a flag comes back as a
//! positional. Five kinds of flag cover every option `drt` takes:
//!
//! * typed values — integers, reals, paths ([`val`]);
//! * probabilities, reals in `[0, 1]` ([`prob`]);
//! * comma lists, `--rate 0.5,1,2` (a `Vec<f64>` slot);
//! * name-parsed enums, `--workload hotspot` (the enum's own `parse`);
//! * bare switches, `--wall-gate` ([`switch`]); a switch may list
//!   alternatives, `--smoke|--quick|--full`, and then fills its slot with
//!   the name given.
//!
//! The errors are the same everywhere: `<flag> needs a value`,
//! `bad <noun> '<value>'`, `<flag> must be in [0, 1], got <p>`, and an
//! unknown `--flag` names the subcommand it was given to.

use bench::sweep::Sweep;
use obs::cli::ReportOptions;

use crate::SYNOPSIS;

/// Runs one subcommand; an `Err` is printed as one `error:` line.
pub type Run = fn(&Args) -> Result<(), String>;

/// What a subcommand runs on: its name, its arguments with the global
/// report options already stripped, and those options.
pub struct Args<'a> {
    pub name: &'a str,
    pub argv: &'a [String],
    pub opts: &'a ReportOptions,
}

impl Args<'_> {
    /// Fill `flags` from the arguments and return the positionals, in order.
    /// A flag's value is the next argument, whatever it looks like.
    pub fn parse(&self, flags: &mut [Flag]) -> Result<Vec<String>, String> {
        let mut positional = Vec::new();
        let mut it = self.argv.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let flag = flags
                .iter_mut()
                .find(|f| f.name.split('|').any(|n| n == arg.as_str()))
                .ok_or_else(|| format!("unknown flag '{arg}' for drt {}", self.name))?;
            let (noun, v) = match flag.kind {
                Kind::Switch => ("switch", name),
                Kind::Value(noun) | Kind::Prob(noun) => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    (noun, v.as_str())
                }
            };
            if let Kind::Prob(_) = flag.kind {
                let p: f64 = value(noun, v)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{arg} must be in [0, 1], got {p}"));
                }
            }
            if !flag.slot.fill(v) {
                return Err(bad(noun, v));
            }
        }
        Ok(positional)
    }

    /// [`Args::parse`] for a subcommand that takes exactly `N` positionals;
    /// any other count is a usage error.
    pub fn exactly<const N: usize>(&self, flags: &mut [Flag]) -> Result<[String; N], String> {
        self.parse(flags)?.try_into().map_err(|_| self.usage())
    }

    /// The usage error: the subcommand's [`SYNOPSIS`] entry on one line.
    pub fn usage(&self) -> String {
        let head = format!("drt {} ", self.name);
        let mut lines = SYNOPSIS.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next().into_iter();
        let entry = first.chain(lines.take_while(|l| l.starts_with(' ')));
        let words: Vec<&str> = entry.flat_map(str::split_whitespace).skip(1).collect();
        words.join(" ")
    }

    /// The run report this subcommand writes under `drt-<name>`, when one
    /// was asked for.
    pub fn sweep(&self) -> Sweep {
        Sweep::new(&format!("drt-{}", self.name), self.opts.clone())
    }
}

/// Parse a positional argument; the error names it by `noun`.
pub fn value<T: Slot + Default>(noun: &str, v: &str) -> Result<T, String> {
    let mut out = T::default();
    if out.fill(v) {
        Ok(out)
    } else {
        Err(bad(noun, v))
    }
}

fn bad(noun: &str, v: &str) -> String {
    format!("bad {noun} '{v}'")
}

/// One flag: its name(s), its kind and the slot its value fills.
pub struct Flag<'a> {
    name: &'static str,
    kind: Kind,
    slot: &'a mut dyn Slot,
}

#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Value(&'static str),
    Prob(&'static str),
}

/// `name <v>`: `v` parsed into `slot`; a bad value reads `bad <noun> 'v'`.
pub fn val<'a>(name: &'static str, noun: &'static str, slot: &'a mut dyn Slot) -> Flag<'a> {
    let kind = Kind::Value(noun);
    Flag { name, kind, slot }
}

/// `name <p>`: a probability, rejected outside `[0, 1]`.
pub fn prob<'a>(name: &'static str, noun: &'static str, slot: &'a mut dyn Slot) -> Flag<'a> {
    let kind = Kind::Prob(noun);
    Flag { name, kind, slot }
}

/// `name`: a bare switch. The slot is filled with the name given, less its
/// `--`, so one switch can stand for several (`--smoke|--quick|--full`).
pub fn switch<'a>(name: &'static str, slot: &'a mut dyn Slot) -> Flag<'a> {
    let kind = Kind::Switch;
    Flag { name, kind, slot }
}

/// A flag's destination: parses one value in place, `false` if it does not.
pub trait Slot {
    fn fill(&mut self, v: &str) -> bool;
}

macro_rules! from_str_slots {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            fn fill(&mut self, v: &str) -> bool {
                v.parse().map(|x| *self = x).is_ok()
            }
        }
    )*};
}
from_str_slots!(u32, u64, usize, f64, String);

macro_rules! named_slots {
    ($($t:ty: $parse:ident),*) => {$(
        impl Slot for $t {
            fn fill(&mut self, v: &str) -> bool {
                <$t>::$parse(v).map(|x| *self = x).is_some()
            }
        }
    )*};
}
named_slots!(
    traffic::WorkloadKind: parse,
    traffic::DropPolicy: parse,
    traffic::ArrivalKind: parse,
    churn::ProcessKind: parse,
    serve::ServeWorkload: parse,
    bench::suite::Tier: from_name
);

/// A bare switch: present means on.
impl Slot for bool {
    fn fill(&mut self, _: &str) -> bool {
        *self = true;
        true
    }
}

/// A comma list, `0.5,1,2`.
impl Slot for Vec<f64> {
    fn fill(&mut self, v: &str) -> bool {
        let list: Result<Vec<f64>, _> = v.split(',').map(|t| t.trim().parse()).collect();
        list.map(|x| *self = x).is_ok()
    }
}

/// An optional value: `Some` once given.
impl<T: Slot + Default> Slot for Option<T> {
    fn fill(&mut self, v: &str) -> bool {
        *self = value::<T>("", v).ok();
        self.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(name: &'a str, argv: &'a [String], opts: &'a ReportOptions) -> Args<'a> {
        Args { name, argv, opts }
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_flag_kind_fills_its_slot() {
        let opts = ReportOptions::default();
        let argv = strings(&[
            "g.txt",
            "--seed",
            "7",
            "--rate",
            "0.5, 2",
            "--p",
            "0.25",
            "--full",
            "--gate",
            "--load",
            "9",
            "--workload",
            "hotspot",
            "s.bin",
        ]);
        let (mut seed, mut rates, mut p) = (0u64, Vec::<f64>::new(), 0.0);
        let (mut tier, mut gate, mut load) = (bench::suite::Tier::Quick, false, None::<usize>);
        let mut workload = traffic::WorkloadKind::Uniform;
        let pos = args("x", &argv, &opts)
            .parse(&mut [
                val("--seed", "seed", &mut seed),
                val("--rate", "rate", &mut rates),
                prob("--p", "probability", &mut p),
                switch("--smoke|--quick|--full", &mut tier),
                switch("--gate", &mut gate),
                val("--load", "packet count", &mut load),
                val("--workload", "workload", &mut workload),
            ])
            .unwrap();
        assert_eq!(pos, strings(&["g.txt", "s.bin"]));
        assert_eq!((seed, rates, p), (7, vec![0.5, 2.0], 0.25));
        assert_eq!(
            (tier, gate, load),
            (bench::suite::Tier::Full, true, Some(9))
        );
        assert_eq!(workload, traffic::WorkloadKind::Hotspot);
    }

    #[test]
    fn errors_name_the_flag_or_the_subcommand() {
        let opts = ReportOptions::default();
        let run = |argv: &[&str]| {
            let (mut seed, mut p) = (0u64, 0.0);
            let argv = strings(argv);
            args("route", &argv, &opts)
                .parse(&mut [
                    val("--seed", "seed", &mut seed),
                    prob("--p", "probability", &mut p),
                ])
                .unwrap_err()
        };
        assert_eq!(run(&["--bogus"]), "unknown flag '--bogus' for drt route");
        assert_eq!(run(&["--seed"]), "--seed needs a value");
        assert_eq!(run(&["--seed", "x"]), "bad seed 'x'");
        assert_eq!(run(&["--p", "x"]), "bad probability 'x'");
        assert_eq!(run(&["--p", "1.5"]), "--p must be in [0, 1], got 1.5");
    }

    #[test]
    fn usage_is_the_synopsis_entry_on_one_line() {
        let opts = ReportOptions::default();
        let argv = strings(&["a", "b", "c"]);
        let a = args("report", &argv, &opts);
        assert_eq!(a.usage(), "report <report-file> [--json]");
        assert_eq!(a.exactly::<2>(&mut []), Err(a.usage()));
        let audit = args("audit", &argv, &opts).usage();
        assert!(audit.starts_with("audit <graph-file> ["), "{audit}");
        assert!(audit.ends_with("[--report <path>] [--json]"), "{audit}");
        assert!(!audit.contains("  "), "{audit}");
    }

    /// Tokens the soup is made of: the bound flags, unknown and malformed
    /// flags, a lone `--`, and values at every edge a slot parses.
    const SOUP: &[&str] = &[
        "--seed",
        "--p",
        "--rate",
        "--workload",
        "--gate",
        "--bogus",
        "--seed=7",
        "--",
        "-",
        "---p",
        "--Seed",
        "--p\u{e9}",
        "7",
        "0",
        "-0",
        "-1",
        "0.5",
        "1",
        "1.5",
        "NaN",
        "nan",
        "inf",
        "-inf",
        "1e400",
        "-1e400",
        "18446744073709551615",
        "18446744073709551616",
        "0.5,2",
        "0.5,,2",
        ",",
        "hotspot",
        "Hotspot",
        "worst",
        "",
        " ",
        "\u{e9}t\u{e9}",
        "\u{1F600}",
        "g.txt",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Token soup never panics the parser, and every refusal is one of
        /// the four documented message forms, naming what it was given.
        #[test]
        fn token_soup_parses_or_fails_in_a_documented_form(
            picks in proptest::collection::vec(0..SOUP.len(), 0..12),
        ) {
            let opts = ReportOptions::default();
            let argv: Vec<String> = picks.iter().map(|&i| SOUP[i].to_string()).collect();
            let (mut seed, mut p, mut rates) = (0u64, 0.0, Vec::<f64>::new());
            let (mut workload, mut gate) = (traffic::WorkloadKind::Uniform, false);
            let parsed = args("soup", &argv, &opts).parse(&mut [
                val("--seed", "seed", &mut seed),
                prob("--p", "probability", &mut p),
                val("--rate", "rate", &mut rates),
                val("--workload", "workload", &mut workload),
                switch("--gate", &mut gate),
            ]);
            let given = |t: &str| argv.iter().any(|a| a == t);
            let flags = ["--seed", "--p", "--rate", "--workload"];
            let Err(e) = parsed else {
                return Ok(());
            };
            let documented = if let Some(flag) = e.strip_prefix("unknown flag '") {
                flag.strip_suffix("' for drt soup").is_some_and(|f| given(f) && f.starts_with("--"))
            } else if let Some(flag) = e.strip_suffix(" needs a value") {
                flags.contains(&flag) && argv.last().is_some_and(|a| a == flag)
            } else if let Some(rest) = e.strip_prefix("bad ") {
                let nouns = ["seed", "probability", "rate", "workload"];
                nouns.iter().any(|noun| {
                    rest.strip_prefix(noun)
                        .and_then(|r| r.strip_prefix(" '"))
                        .and_then(|r| r.strip_suffix('\''))
                        .is_some_and(given)
                })
            } else if let Some(got) = e.strip_prefix("--p must be in [0, 1], got ") {
                got.parse::<f64>().is_ok_and(|x| !(0.0..=1.0).contains(&x))
            } else {
                false
            };
            proptest::prop_assert!(documented, "undocumented error {:?} for {:?}", e, argv);
        }
    }
}
