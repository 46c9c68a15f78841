//! The one flag parser every verb shares.
//!
//! A verb declares its grammar once, as its usage line: `<name>` is a
//! required positional, `[<name>]` an optional one, `<name>...` takes any
//! number more; `[--flag VALUE]` is a value flag, `[--flag]` and
//! `[--a|--b]` are switches. Required positionals lead the line: a flag
//! where one is due is a missing positional, never the positional
//! itself. Flags and optional positionals follow in any order. Anything
//! else is a usage error: an unknown or repeated flag, a value flag with
//! no value, a missing or extra positional, and (at lookup, through
//! [`number`]) a number that does not fit the field it sets.

use std::str::FromStr;

/// A parsed line: positionals in order, flags as given.
#[derive(Debug)]
pub struct Args {
    pub positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Parses one verb's arguments (everything after the verb name)
/// against its usage line.
pub fn parse(usage: &str, args: &[String]) -> Result<Args, String> {
    let (mut required, mut optional) = (Vec::new(), 0usize);
    let (mut values, mut switches) = (Vec::new(), Vec::new());
    let mut words = usage.split_whitespace();
    while let Some(word) = words.next() {
        if let Some(flag) = word.strip_prefix('[').filter(|w| w.starts_with("--")) {
            match flag.strip_suffix(']') {
                Some(names) => switches.extend(names.split('|')),
                None => {
                    words.next(); // the value's placeholder, `N]`
                    values.push(flag);
                }
            }
        } else if word.starts_with('[') {
            optional += 1;
        } else {
            required.push(word.trim_end_matches("..."));
            if word.ends_with("...") {
                optional = usize::MAX;
            }
        }
    }

    let mut parsed = Args {
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let due = required.get(parsed.positionals.len());
        if !arg.starts_with('-') {
            if parsed.positionals.len() >= required.len().saturating_add(optional) {
                return Err(format!("unexpected argument '{arg}'"));
            }
            parsed.positionals.push(arg.clone());
        } else if let Some(name) = due {
            return Err(format!("missing {name} before '{arg}'"));
        } else if parsed.flags.iter().any(|(f, _)| f == arg) {
            return Err(format!("{arg} given twice"));
        } else if switches.contains(&arg.as_str()) {
            parsed.flags.push((arg.clone(), None));
        } else if values.contains(&arg.as_str()) {
            let value = rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
            parsed.flags.push((arg.clone(), Some(value.clone())));
        } else {
            return Err(format!("unknown flag '{arg}'"));
        }
    }
    match required.get(parsed.positionals.len()) {
        Some(name) => Err(format!("missing {name}")),
        None => Ok(parsed),
    }
}

impl Args {
    /// Whether a switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == switch)
    }

    /// A value flag's value, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let found = self.flags.iter().find(|(f, _)| f == flag);
        found.and_then(|(_, v)| v.as_deref())
    }

    /// A numeric value flag, if given.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| number(v, flag)).transpose()
    }
}

/// Parses `text` as the integer type of the field it sets, so an
/// out-of-range value is an error instead of a silent truncation.
pub fn number<T: FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad {what}: {text:?} does not fit its field"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::{Rng, SmallRng};

    const FIGURES: &str = "[<target>] [--full|--tiny] [--json]";
    const RECORD: &str = "<dir> [--seed N] [--windows N] [--quiet]";
    const VERIFY: &str = "<file>...";

    fn parse_line(usage: &str, line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(usage, &args)
    }

    #[test]
    fn well_formed_lines_parse() {
        let figures = |line| parse_line(FIGURES, line).expect(line);
        assert!(figures("").positionals.is_empty());
        let a = figures("fig10 --tiny");
        assert_eq!(a.positionals, ["fig10"]);
        assert!(a.has("--tiny") && !a.has("--full") && !a.has("--json"));
        let a = figures("--json --full overheads");
        assert_eq!(a.positionals, ["overheads"]);
        assert!(a.has("--full") && a.has("--json") && !a.has("--tiny"));

        let a = parse_line(RECORD, "run --windows 3 --quiet --seed 9").expect("record");
        assert_eq!(a.positionals, ["run"]);
        assert_eq!(a.number::<u64>("--seed"), Ok(Some(9)));
        assert_eq!(a.number::<u32>("--windows"), Ok(Some(3)));
        assert!(a.has("--quiet"));
        let a = parse_line(RECORD, "run").expect("defaults");
        assert_eq!(a.number::<u64>("--seed"), Ok(None));
        assert!(!a.has("--quiet"));

        let a = parse_line(VERIFY, "a b c").expect("variadic");
        assert_eq!(a.positionals, ["a", "b", "c"]);
    }

    #[test]
    fn garbage_is_rejected() {
        for line in ["all --ful", "fig10 fig12", "--tiny --tiny", "fig6 -x"] {
            assert!(
                parse_line(FIGURES, line).is_err(),
                "{line:?} must not parse"
            );
        }
        for line in [
            "",
            "--seed 4 run",
            "run --sed 7",
            "run --seed",
            "run --seed 1 --seed 2",
            "run --quiet --quiet",
            "run --quiet 3",
            "run extra",
        ] {
            assert!(parse_line(RECORD, line).is_err(), "{line:?} must not parse");
        }
        assert!(parse_line(VERIFY, "").is_err());
        let a = parse_line(RECORD, "run --windows 4294967297").expect("parses");
        assert!(a.number::<u32>("--windows").is_err());
        assert!(a.number::<u64>("--windows").is_ok());
    }

    /// A line `usage` accepts: every required positional, and each
    /// optional positional, switch and value flag with probability ½.
    fn well_formed(usage: &str, rng: &mut SmallRng) -> Vec<String> {
        let mut line = Vec::new();
        let mut words = usage.split_whitespace();
        while let Some(word) = words.next() {
            let Some(inner) = word.strip_prefix('[') else {
                line.push(word.trim_end_matches("...").to_string());
                continue;
            };
            let keep = rng.gen_bool(0.5);
            match inner.strip_suffix(']') {
                Some(switches) if switches.starts_with("--") => {
                    let names: Vec<&str> = switches.split('|').collect();
                    let name = names[rng.gen_range(0..names.len())];
                    line.extend(keep.then(|| name.to_string()));
                }
                Some(_) => line.extend(keep.then(|| "pos".to_string())),
                None => {
                    words.next(); // the value's placeholder
                    if keep {
                        line.extend([inner.to_string(), rng.gen_range(0..99u64).to_string()]);
                    }
                }
            }
        }
        line
    }

    /// Every verb's usage line, fed seeded random vectors (of its own
    /// words and hostile ones) and mutated well-formed lines. `parse`
    /// must never panic, must accept every well-formed line, and must
    /// answer everything else with `Ok` or `Err`. Every refused line also
    /// goes through `run`, the whole CLI short of writing its output:
    /// it must exit 2 with nothing on stdout and a reason on stderr.
    #[test]
    fn fuzzed_lines_never_panic() {
        let verbs = crate::figures::VERBS.iter().chain(&crate::store::VERBS);
        let verbs = verbs.chain(&crate::obs::VERBS).chain(&crate::model::VERBS);
        let hostile = [
            "",
            "-",
            "--",
            "---",
            "-1",
            "--seed=4",
            "4294967296",
            "1e3",
            "\u{fc}",
        ];
        let mut rng = SmallRng::seed_from_u64(0xf1a9);
        let (mut accepted, mut refused) = (0, 0);
        for verb in verbs {
            let mut vocab: Vec<String> = hostile.iter().map(|w| w.to_string()).collect();
            let usage_words = verb.usage.split(['[', ']', '|', ' ']);
            vocab.extend(usage_words.filter(|w| !w.is_empty()).map(str::to_string));
            let values: Vec<&str> = vocab
                .iter()
                .filter(|w| w.starts_with("--"))
                .map(String::as_str)
                .collect();
            for _ in 0..500 {
                let mut line = well_formed(verb.usage, &mut rng);
                assert!(parse(verb.usage, &line).is_ok(), "{line:?} must parse");
                if rng.gen_bool(0.3) {
                    line.clear();
                }
                for _ in 0..rng.gen_range(1..4usize) {
                    let word = vocab[rng.gen_range(0..vocab.len())].clone();
                    let at = rng.gen_range(0..line.len() + 1);
                    match rng.gen_range(0..4u32) {
                        0 => line.insert(at, word),
                        1 if at < line.len() => drop(line.remove(at)),
                        2 if at < line.len() => line[at] = word,
                        _ if !line.is_empty() => {
                            let from = rng.gen_range(0..line.len());
                            line.insert(at, line[from].clone());
                        }
                        _ => line.push(word),
                    }
                }
                match parse(verb.usage, &line) {
                    Ok(args) => {
                        accepted += 1;
                        for flag in &values {
                            let _ = (args.has(flag), args.number::<u32>(flag));
                        }
                    }
                    Err(message) => {
                        refused += 1;
                        assert!(!message.is_empty(), "{line:?}: empty refusal");
                        let head = [verb.tool, verb.name].into_iter().filter(|w| !w.is_empty());
                        let argv: Vec<String> = head.map(str::to_string).chain(line).collect();
                        let out = crate::run(&argv);
                        assert_eq!(out.code, 2, "{argv:?} must be a usage error");
                        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
                        assert!(out.stderr.contains(&message), "{argv:?}: {}", out.stderr);
                    }
                }
            }
        }
        assert!(
            accepted > 500 && refused > 2_000,
            "{accepted} accepted, {refused} refused"
        );
    }
}
