//! CLI entry point:
//! `fleetio-audit check [--root DIR] [--json FILE]` runs the full rule
//! set.
//!
//! Exit codes: 0 clean, 1 any violation, 2 usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fleetio_audit::{default_root, report, run_check};

const USAGE: &str = "usage: fleetio-audit check [--root DIR] [--json FILE]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("unknown command `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut root = default_root();
    let mut json_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage_error("--json needs a value"),
            },
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let outcome = match run_check(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fleetio-audit: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::render_text(&outcome));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report::render_json(&outcome)) {
            eprintln!("fleetio-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}
