//! `fleetio figures`: regenerates the FleetIO paper's tables and figures.
//!
//! Default scale is `quick` (minutes, preserves orderings/crossovers);
//! `--full` runs paper-length spans and a larger training budget. Every
//! report is collected first and printed at the end of the run, as text
//! tables or, with `--json`, as JSONL (one compact object per report per
//! line); stderr gets one line with the total wall-clock time. The run is not profiled
//! (host time is the `benchmark/` workspace's job).

use fleetio_bench::figures;
use fleetio_bench::report::FigureReport;
use std::time::Instant;

use fleetio_bench::{Scale, SharedContext};
use fleetio_obs::prof;

use crate::args::Args;
use crate::{Failure, Output, Verb, VerbResult};

const TARGETS: &str =
    "fig2 fig3 fig6 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 overheads tables";

pub static VERBS: [Verb; 1] = [Verb::new(
    "figures",
    "",
    "[<target>] [--full|--tiny] [--json]",
    run,
)];

fn run(args: &Args) -> VerbResult {
    let target = args.positionals.first().map_or("all", String::as_str);
    if target != "all" && !TARGETS.split(' ').any(|t| t == target) {
        let e = format!("unknown target '{target}'; targets: {TARGETS} all (default)");
        return Err(Failure::Usage(e));
    }
    let scale = match (args.has("--full"), args.has("--tiny")) {
        (true, true) => {
            return Err(Failure::Usage(
                "give at most one of --full and --tiny".into(),
            ))
        }
        (true, false) => Scale::Full,
        (false, true) => Scale::Tiny,
        (false, false) => Scale::Quick,
    };
    let mut ctx = SharedContext::new(scale, 0xF1EE710);

    let t0 = Instant::now();
    let reports: Vec<FigureReport> = match target {
        "fig2" | "fig3" => figures::fig2_3(&mut ctx),
        "fig6" => vec![figures::fig6(&mut ctx)],
        "fig10" | "fig11" | "fig12" | "fig13" => figures::fig10_13(&mut ctx),
        "fig14" => figures::fig14(&mut ctx),
        "fig15" => figures::fig15(&mut ctx),
        "fig16" => vec![figures::fig16(&mut ctx)],
        "fig17" => vec![figures::fig17(&mut ctx)],
        "overheads" => vec![figures::overheads(&mut ctx)],
        "tables" => vec![figures::tables(&mut ctx)],
        _ => {
            let mut all = vec![figures::tables(&mut ctx)];
            all.extend(figures::fig2_3(&mut ctx));
            all.push(figures::fig6(&mut ctx));
            all.extend(figures::fig10_13(&mut ctx));
            all.extend(figures::fig14(&mut ctx));
            all.extend(figures::fig15(&mut ctx));
            all.push(figures::fig16(&mut ctx));
            all.push(figures::fig17(&mut ctx));
            all.push(figures::overheads(&mut ctx));
            all
        }
    };
    let total = prof::format_ns(t0.elapsed().as_nanos() as f64);
    let mut stdout = String::new();
    for r in &reports {
        stdout += &if args.has("--json") {
            r.to_json()
        } else {
            r.to_text()
        };
        stdout.push('\n');
    }
    Ok(Output {
        code: 0,
        stdout,
        stderr: format!(
            "[{} report(s) at {scale:?} scale in {total}]\n",
            reports.len()
        ),
    })
}
