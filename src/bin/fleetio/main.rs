//! `fleetio`: the one command-line tool of the FleetIO reproduction.
//!
//! ```text
//! fleetio figures [<target>] [--full|--tiny] [--json]
//! fleetio store   record|info|query|diff|replay|verify ...
//! fleetio obs     summarize|report ...
//! fleetio model   inspect|verify|ls ...
//! ```
//!
//! Every verb's usage line is also its grammar for the shared parser
//! ([`args::parse`]). A verb renders its report into strings and hands
//! them back with its exit code; `main` writes stdout and stderr once.
//! `store query` alone streams its matches to stdout as it finds them.
//! Exit codes: 0 = OK; 1 = a *finding* (streams diverge, replay
//! mismatch, store or checkpoint damage); 2 = usage or I/O error.

#![forbid(unsafe_code)]

mod args;
mod figures;
mod model;
mod obs;
mod store;

use std::io::Write as _;
use std::process::ExitCode;

use args::Args;

/// What a verb prints, and how the process exits.
pub struct Output {
    pub code: u8,
    pub stdout: String,
    pub stderr: String,
}

impl Output {
    /// Exit `code` with `stdout`.
    pub fn exit(code: u8, stdout: String) -> Self {
        Output {
            code,
            stdout,
            stderr: String::new(),
        }
    }

    /// Exit 0 with `stdout`.
    pub fn ok(stdout: String) -> Self {
        Output::exit(0, stdout)
    }
}

/// Why a verb stopped before its report; both exit 2.
pub enum Failure {
    /// A bad command line: the message, then the verb's usage.
    Usage(String),
    /// Unreadable input or a failed run: the message alone.
    Io(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

/// Wraps an I/O or input error for `?`.
pub fn io(error: impl std::fmt::Display) -> Failure {
    Failure::Io(error.to_string())
}

pub type VerbResult = Result<Output, Failure>;

/// One `fleetio <tool> [<verb>]` entry.
pub struct Verb {
    pub tool: &'static str,
    /// Empty for a tool without verbs (`figures`).
    pub name: &'static str,
    /// The usage after `fleetio <tool> <verb>`, which is also the grammar.
    pub usage: &'static str,
    pub run: fn(&Args) -> VerbResult,
}

impl Verb {
    pub const fn new(
        tool: &'static str,
        name: &'static str,
        usage: &'static str,
        run: fn(&Args) -> VerbResult,
    ) -> Self {
        Verb {
            tool,
            name,
            usage,
            run,
        }
    }

    fn usage_line(&self) -> String {
        let head = [self.tool, self.name].join(" ");
        format!("fleetio {} {}", head.trim_end(), self.usage)
    }
}

fn run(args: &[String]) -> Output {
    let tool = args.first().map_or("", String::as_str);
    let name = args.get(1).map_or("", String::as_str);
    let verbs = [
        &figures::VERBS[..],
        &store::VERBS,
        &obs::VERBS,
        &model::VERBS,
    ];
    let verbs = verbs.into_iter().flatten();
    let Some(verb) = verbs
        .clone()
        .find(|v| v.tool == tool && (v.name.is_empty() || v.name == name))
    else {
        let lines: Vec<String> = verbs.map(Verb::usage_line).collect();
        return Output {
            code: 2,
            stdout: String::new(),
            stderr: format!("usage: {}\n", lines.join("\n       ")),
        };
    };
    let rest = &args[if verb.name.is_empty() { 1 } else { 2 }..];
    let failure = match args::parse(verb.usage, rest) {
        Ok(parsed) => match (verb.run)(&parsed) {
            Ok(out) => return out,
            Err(failure) => failure,
        },
        Err(message) => Failure::Usage(message),
    };
    let stderr = match failure {
        Failure::Io(e) => format!("fleetio: {e}\n"),
        Failure::Usage(e) => format!("fleetio: {e}\nusage: {}\n", verb.usage_line()),
    };
    Output {
        code: 2,
        stdout: String::new(),
        stderr,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = run(&args);
    // A closed pipe (`fleetio store query ... | head`) is not an error.
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(out.stdout.as_bytes());
    let _ = stdout.flush();
    let _ = std::io::stderr().write_all(out.stderr.as_bytes());
    ExitCode::from(out.code)
}
