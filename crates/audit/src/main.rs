//! CLI entry point:
//! `fleetio-audit check [--root DIR] [--json FILE]` runs the full rule
//! set; `fleetio-audit taint [--root DIR]` prints the
//! call-graph/taint-analysis summary (the golden-test format).
//!
//! Exit codes: 0 clean, 1 any violation, 2 usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fleetio_audit::{default_root, graph, report, run_check};

const USAGE: &str = "usage: fleetio-audit check [--root DIR] [--json FILE]\n       \
                     fleetio-audit taint [--root DIR]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "taint" {
        return taint_summary_cmd(args);
    }
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

fn taint_summary_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = default_root();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }
    let scanned = match fleetio_audit::scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fleetio-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let deps = match fleetio_audit::parse_dep_graph(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fleetio-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let ws = fleetio_audit::build_workspace(&scanned, &deps);
    print!("{}", graph::taint_summary(&ws));
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}
