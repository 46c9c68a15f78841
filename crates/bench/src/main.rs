//! `fleetio-bench`: the continuous perf-regression CLI.
//!
//! - `fleetio-bench perf [--scale ci|smoke] [--out PATH] [--folded PATH]`
//!   runs the perf suite and writes the schema-versioned BENCH JSON
//!   (default `BENCH_fleetio.json`); `--folded` also writes folded stacks
//!   for flamegraph tooling.
//! - `fleetio-bench compare <old.json> <new.json> [--allow-new]` diffs two
//!   reports and exits 1 when any metric regresses past the fail threshold,
//!   goes missing, or (without `--allow-new`) appears without a baseline;
//!   0 otherwise (warnings print but stay green). CI passes `--allow-new`
//!   so intentionally added metrics land without a chicken-and-egg dance.

use std::process::ExitCode;

use fleetio_bench::perf::{self, PerfOptions, PerfReport};

/// Attribute heap traffic to profiler spans when built with
/// `--features prof-alloc`.
#[cfg(feature = "prof-alloc")]
#[global_allocator]
static ALLOC: fleetio_obs::prof::alloc::CountingAllocator =
    fleetio_obs::prof::alloc::CountingAllocator;

const USAGE: &str = "usage:
  fleetio-bench perf [--scale ci|smoke] [--out PATH] [--folded PATH]
  fleetio-bench compare <old.json> <new.json> [--allow-new]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => cmd_perf(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_perf(args: &[String]) -> ExitCode {
    let mut opts = PerfOptions::ci();
    let mut out_path = "BENCH_fleetio.json".to_string();
    let mut folded_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().ok_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                ExitCode::from(2)
            })
        };
        match arg.as_str() {
            "--scale" => {
                opts = match value("--scale") {
                    Ok(s) if s == "ci" => PerfOptions::ci(),
                    Ok(s) if s == "smoke" => PerfOptions::smoke(),
                    Ok(s) => {
                        eprintln!("unknown scale {s:?} (ci|smoke)");
                        return ExitCode::from(2);
                    }
                    Err(code) => return code,
                };
            }
            "--out" => match value("--out") {
                Ok(p) => out_path = p,
                Err(code) => return code,
            },
            "--folded" => match value("--folded") {
                Ok(p) => folded_path = Some(p),
                Err(code) => return code,
            },
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let (report, tree) = perf::run_perf(&opts);
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = folded_path {
        if let Err(e) = std::fs::write(&path, tree.folded()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, value) in &report.metrics {
        let unit = if perf::lower_is_better(name) {
            ""
        } else {
            "/s"
        };
        println!("{name:>24}: {value:.1}{unit}");
    }
    println!("\nprofiled pass (span tree):\n{}", tree.to_text());
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut allow_new = false;
    for arg in args {
        match arg.as_str() {
            "--allow-new" => allow_new = true,
            _ => paths.push(arg.as_str()),
        }
    }
    let [old_path, new_path] = paths[..] else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    ExitCode::from(compare_paths(old_path, new_path, allow_new))
}

/// The CI gate: 0 = within thresholds (warnings allowed), 1 = fail
/// breach, missing metric, or (strict mode) unbaselined metric,
/// 2 = unreadable/invalid report.
fn compare_paths(old_path: &str, new_path: &str, allow_new: bool) -> u8 {
    let load = |path: &str| -> Result<PerfReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        PerfReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let result = perf::compare(
        &old,
        &new,
        perf::WARN_THRESHOLD,
        perf::FAIL_THRESHOLD,
        allow_new,
    );
    print!(
        "{}",
        result.render_text(perf::WARN_THRESHOLD, perf::FAIL_THRESHOLD)
    );
    u8::from(result.failed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn write_report(name: &str, rate: f64) -> std::path::PathBuf {
        let mut metrics = BTreeMap::new();
        metrics.insert("sim_events_per_sec".to_string(), rate);
        let report = PerfReport {
            schema: perf::SCHEMA.to_string(),
            metrics,
            spans: Vec::new(),
        };
        let path = std::env::temp_dir().join(format!("fleetio-bench-test-{name}.json"));
        std::fs::write(&path, report.to_json()).expect("write temp report");
        path
    }

    #[test]
    fn compare_exit_codes_cover_pass_warn_fail_and_invalid() {
        let old = write_report("old", 1000.0);
        for (name, rate, expect) in [("pass", 990.0, 0u8), ("warn", 850.0, 0), ("fail", 700.0, 1)] {
            let new = write_report(name, rate);
            assert_eq!(
                compare_paths(old.to_str().unwrap(), new.to_str().unwrap(), false),
                expect,
                "{name}"
            );
        }
        assert_eq!(
            compare_paths(old.to_str().unwrap(), "/nonexistent.json", false),
            2
        );
    }

    #[test]
    fn compare_gates_unbaselined_metrics_unless_allowed() {
        let old = write_report("strict-old", 1000.0);
        let extra = {
            let mut metrics = BTreeMap::new();
            metrics.insert("sim_events_per_sec".to_string(), 1000.0);
            metrics.insert("brand_new_metric".to_string(), 5.0);
            let report = PerfReport {
                schema: perf::SCHEMA.to_string(),
                metrics,
                spans: Vec::new(),
            };
            let path = std::env::temp_dir().join("fleetio-bench-test-strict-new.json");
            std::fs::write(&path, report.to_json()).expect("write temp report");
            path
        };
        assert_eq!(
            compare_paths(old.to_str().unwrap(), extra.to_str().unwrap(), false),
            1,
            "strict mode must fail on an unbaselined metric"
        );
        assert_eq!(
            compare_paths(old.to_str().unwrap(), extra.to_str().unwrap(), true),
            0,
            "--allow-new accepts it"
        );
    }
}
