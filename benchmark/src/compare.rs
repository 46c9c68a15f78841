//! `compare <a.jsonl> <b.jsonl>`: applies each end-to-end metric's bound
//! to two sets of runs, workload by workload.
//!
//! A set is every record of one `--out` file. With several runs of a
//! workload (the ten-seed procedure) the set's value is the median of
//! the runs' values and its spread their inter-quartile range; with one
//! run, the spread is that run's own quartiles over repetitions. Where
//! either set's spread is wider than the bound the verdict is
//! `unresolved`, never `ok`. Per-layer metrics are listed without a
//! verdict: they explain a change, they do not gate it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fleetio_obs::json::{self, Value};

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Stat;

/// One metric of one workload in one set.
type SetMetrics = BTreeMap<(String, String), Stat>;

/// Parses an `--out` file into `(workload, metric) → Stat`, pooling runs.
pub fn load_set(text: &str) -> Result<SetMetrics, String> {
    let mut runs: BTreeMap<(String, String), Vec<Stat>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
            v.as_object().and_then(|o| o.get(key))
        }
        let workload = field(&record, "workload")
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or_else(|| format!("line {}: no \"workload\"", i + 1))?;
        // Untraced records carry the end-to-end numbers, traced ones the per-layer numbers.
        let traced = field(&record, "trace")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            != 0.0;
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics =
            field(&record, "metrics").ok_or_else(|| format!("line {}: no \"metrics\"", i + 1))?;
        for (name, m) in metrics
            .as_object()
            .ok_or_else(|| format!("line {}: \"metrics\" is not an object", i + 1))?
        {
            let num = |key: &str| field(m, key).and_then(|v| v.as_f64());
            let (Some(value), Some(n)) = (num("value"), num("n")) else {
                return Err(format!("line {}: metric {name} lacks value / n", i + 1));
            };
            if n > 0.0 && table.iter().any(|def| def.name == name) {
                let stat = Stat {
                    value,
                    q1: num("q1").unwrap_or(value),
                    q3: num("q3").unwrap_or(value),
                    n: n as usize,
                };
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(stat);
            }
        }
    }
    Ok(runs
        .into_iter()
        .filter_map(|(key, stats)| {
            let pooled = match stats.as_slice() {
                [one] => *one,
                many => Stat::of(&many.iter().map(|s| s.value).collect::<Vec<_>>())?,
            };
            Some((key, pooled))
        })
        .collect())
}

/// The verdict on one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, both spreads narrower than it.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// Applies `bound` to baseline `a` and candidate `b`.
pub fn verdict(a: &Stat, b: &Stat, better: Better, bound: f64) -> Verdict {
    if worsening(a.value, b.value, better) > bound {
        Verdict::Regression
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison; the flag says whether any metric regressed.
pub fn compare(a: &SetMetrics, b: &SetMetrics) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for workload in WORKLOADS {
        let _ = writeln!(out, "== {workload}");
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "a", "b", "worse by", "bound"
        );
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let worse = worsening(sa.value, sb.value, def.better) * 100.0;
            let _ = write!(
                out,
                "{:<36} {:>14.6} {:>14.6} {:>+8.2}%",
                def.name, sa.value, sb.value, worse
            );
            if def.bound > 0.0 {
                let v = verdict(sa, sb, def.better, def.bound);
                regressed |= v == Verdict::Regression;
                let label = match v {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                };
                let _ = write!(out, " {:>6.0}%  {label}", def.bound * 100.0);
            }
            out.push('\n');
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(value: f64, q1: f64, q3: f64) -> Stat {
        Stat {
            value,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdicts_apply_bound_then_spread() {
        let a = stat(10.0, 9.9, 10.1);
        assert_eq!(
            verdict(&a, &stat(10.5, 10.4, 10.6), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &stat(11.5, 11.4, 11.6), Better::Lower, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&a, &stat(8.0, 7.9, 8.1), Better::Higher, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&a, &stat(10.5, 9.0, 12.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                &stat(10.0, 8.0, 12.0),
                &stat(9.0, 8.9, 9.1),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn sets_pool_runs_and_skip_unmeasured_metrics() {
        let line = |wall: f64| {
            format!(
                "{{\"workload\": \"pretrain\", \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"n\": 3, \"q1\": {wall}, \"q3\": {wall}}}, \
                 \"util_gain_x\": {{\"value\": 1, \"n\": 0, \"q1\": 1, \"q3\": 1}}}}}}"
            )
        };
        let one = load_set(&line(3.0)).unwrap();
        assert_eq!(one.len(), 1);
        let traced = line(4.0).replace("{\"workload\"", "{\"trace\": 1, \"workload\"");
        assert!(
            load_set(&traced).unwrap().is_empty(),
            "a traced record's wall_s is not an end-to-end sample"
        );
        let three = load_set(&[line(4.0), line(5.0), line(6.0)].join("\n")).unwrap();
        let wall = three[&("pretrain".to_string(), "wall_s".to_string())];
        assert_eq!((wall.value, wall.q1, wall.q3, wall.n), (5.0, 4.0, 6.0, 3));
        let (text, regressed) = compare(&one, &three);
        assert!(regressed, "{text}");
        assert!(text.contains("REGRESSION"));
        assert!(load_set("{\"workload\": 3}").is_err());
    }
}
