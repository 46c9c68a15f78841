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
}
