//! `fleetio-benchmark run | compare` — see `benchmark/README.md`.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use fleetio_benchmark::alloc::CountingAlloc;
use fleetio_benchmark::metrics::WORKLOADS;
use fleetio_benchmark::runner::{self, RunOptions, Size};
use fleetio_benchmark::{compare, trace, workloads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  fleetio-benchmark run --workload <coloc-eval|pretrain|fleet-hotspot|store-record|all>
                        [--seed 17] [--seconds 25] [--trace 0|1] [--out <file.jsonl>]
  fleetio-benchmark compare <a.jsonl> <b.jsonl>
Run from the repository root. `--out` appends one JSON record per run and, traced,
writes <file>.<workload>.spans.json and <file>.<workload>.folded beside it.";

const RUN_FLAGS: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// The value following `flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: cannot parse {v:?}\n{USAGE}")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    for pair in args.chunks(2) {
        if pair.len() != 2 || !RUN_FLAGS.contains(&pair[0].as_str()) {
            return Err(format!("unexpected argument {:?}\n{USAGE}", pair[0]));
        }
    }
    let workload =
        flag(args, "--workload")?.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let opts = RunOptions {
        workload: workload.to_string(),
        seed: parsed(args, "--seed", 17)?,
        seconds: parsed(args, "--seconds", 25.0)?,
        trace: match flag(args, "--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}\n{USAGE}")),
        },
        size: Size::Full,
    };
    let out = flag(args, "--out")?;
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
    }
    if workload == "all" {
        return run_all(args);
    }
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    if !(opts.seconds >= 1.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds must be within 1..=600\n{USAGE}"));
    }

    let res = runner::run(&opts, &mut || {
        workloads::setup(&opts.workload, opts.seed, opts.size).expect("workload name was checked")
    });
    print!("{}", runner::render(&res));
    if let Some(out) = out {
        let io = |e: std::io::Error| format!("{out}: {e}");
        if let Some(dir) = Path::new(out)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(io)?;
        writeln!(file, "{}", runner::json_record(&res)).map_err(io)?;
        if opts.trace {
            let reports: Vec<_> = res.spans.iter().collect();
            std::fs::write(
                format!("{out}.{workload}.spans.json"),
                trace::spans_json(&reports),
            )
            .map_err(io)?;
            let folded: String = reports.iter().map(|r| r.folded()).collect();
            std::fs::write(format!("{out}.{workload}.folded"), folded).map_err(io)?;
        }
    }
    println!("{}", runner::contract_line(&res));
    Ok(res.correct())
}

/// `--workload all`: each workload in its own process, same arguments.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let at = args
        .iter()
        .position(|a| a == "--workload")
        .expect("--workload was parsed")
        + 1;
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        child_args[at] = workload.to_string();
        let status = Command::new(&exe)
            .arg("run")
            .args(&child_args)
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::load_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = compare::compare(&load(a)?, &load(b)?);
    print!("{text}");
    println!(
        "{}",
        if regressed {
            "FAIL: at least one end-to-end metric regressed beyond its bound"
        } else {
            "OK: no end-to-end metric regressed beyond its bound"
        }
    );
    Ok(!regressed)
}
