//! Regenerates the FleetIO paper's tables and figures.
//!
//! ```text
//! figures [<target>] [--full|--tiny] [--json]
//!   target: fig2 fig3 fig6 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//!           fig17 overheads tables all (default)
//! ```
//!
//! Default scale is `quick` (minutes, preserves orderings/crossovers);
//! `--full` runs paper-length spans and a larger training budget.

use fleetio_bench::figures;
use fleetio_bench::report::FigureReport;
use fleetio_bench::{Scale, SharedContext};
use fleetio_obs::prof;

const USAGE: &str = "usage: figures [<target>] [--full|--tiny] [--json]
  target: fig2 fig3 fig6 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
          overheads tables all (default)";

/// What one invocation asks for.
#[derive(Debug, PartialEq, Eq)]
struct Invocation {
    target: String,
    scale: Scale,
    json: bool,
}

/// Parses the command line; anything it does not understand is an error,
/// so a typo can never fall back to a 17-minute default run.
fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut target: Option<&str> = None;
    let mut scale: Option<Scale> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--full" | "--tiny" if scale.is_some() => {
                return Err("give at most one of --full and --tiny".to_string());
            }
            "--full" => scale = Some(Scale::Full),
            "--tiny" => scale = Some(Scale::Tiny),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => {
                if let Some(first) = target {
                    return Err(format!("two targets given: '{first}' and '{name}'"));
                }
                target = Some(name);
            }
        }
    }
    Ok(Invocation {
        target: target.unwrap_or("all").to_string(),
        scale: scale.unwrap_or(Scale::Quick),
        json,
    })
}

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        target,
        scale,
        json,
    } = parse_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let mut ctx = SharedContext::new(scale, 0xF1EE710);

    prof::enable();
    let run = prof::span(&format!("figures.{target}"));
    let reports: Vec<FigureReport> = match target.as_str() {
        "fig2" | "fig3" => figures::fig2_3(&mut ctx),
        "fig6" => vec![figures::fig6(&mut ctx)],
        "fig10" | "fig11" | "fig12" | "fig13" => figures::fig10_13(&mut ctx),
        "fig14" => figures::fig14(&mut ctx),
        "fig15" => figures::fig15(&mut ctx),
        "fig16" => vec![figures::fig16(&mut ctx)],
        "fig17" => vec![figures::fig17(&mut ctx)],
        "overheads" => vec![figures::overheads(&mut ctx)],
        "tables" => vec![figures::tables(&mut ctx)],
        "all" => {
            let mut all = Vec::new();
            all.push(figures::tables(&mut ctx));
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
        other => usage_exit(&format!("unknown target '{other}'")),
    };
    drop(run);
    for r in &reports {
        if json {
            println!("{}", r.to_json());
        } else {
            println!("{}", r.to_text());
        }
    }
    let timing = prof::take_report();
    let run_key = format!("figures.{target}");
    let total = timing
        .find(&[run_key.as_str()])
        .map(|s| prof::format_ns(s.stats.total_ns as f64))
        .unwrap_or_else(|| "?".to_string());
    eprintln!(
        "[{} report(s) at {:?} scale in {total}]\n{}",
        reports.len(),
        scale,
        timing.to_text()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn well_formed_lines_parse() {
        let invocation = |target: &str, scale, json| Invocation {
            target: target.to_string(),
            scale,
            json,
        };
        assert_eq!(parse(""), Ok(invocation("all", Scale::Quick, false)));
        assert_eq!(
            parse("fig10 --tiny"),
            Ok(invocation("fig10", Scale::Tiny, false))
        );
        assert_eq!(
            parse("--json --full overheads"),
            Ok(invocation("overheads", Scale::Full, true))
        );
    }

    #[test]
    fn garbage_is_rejected() {
        for line in [
            "all --ful",
            "fig10 fig12",
            "--full --tiny",
            "--tiny --tiny",
            "fig6 -x",
        ] {
            assert!(parse(line).is_err(), "{line:?} must not parse");
        }
    }
}
