//! Reading the traced repetition: span totals by name, the per-layer
//! metrics they yield, and the `spans.json` / folded-stacks files.
//!
//! The benchmark opens its own `prof::span`s around every public call
//! (`bench.rep`, `coloc.run_window`, `fleet.run_window`, …); the spans
//! already inside the crates (`engine.*`, `flash.*`, `ppo.*`, `fleet.*`,
//! `rollout.*`) nest under them. Worker threads (`rollout.worker`,
//! `fleet.shard`) root their own trees, so shares are taken against the
//! summed self time of *all* spans — thread-time, not wall time.

use std::fmt::Write as _;

use fleetio_obs::prof::ProfReport;

/// Calls, inclusive and self nanoseconds of every span with one name,
/// summed over all the paths it appears under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Completed calls.
    pub calls: u64,
    /// Inclusive nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds not covered by child spans.
    pub self_ns: u64,
}

impl NameTotals {
    /// Inclusive nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        per(self.total_ns as f64, self.calls as f64)
    }

    /// Self nanoseconds per call (0 without calls).
    pub fn self_ns_per_call(&self) -> f64 {
        per(self.self_ns as f64, self.calls as f64)
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Totals of the spans whose own name satisfies `pred`.
pub fn totals_where(report: &ProfReport, pred: impl Fn(&str) -> bool) -> NameTotals {
    let mut t = NameTotals::default();
    for s in report.spans.iter().filter(|s| pred(s.name())) {
        t.calls += s.stats.calls;
        t.total_ns += s.stats.total_ns;
        t.self_ns += s.stats.self_ns();
    }
    t
}

/// Totals of the spans named exactly `name`.
pub fn totals(report: &ProfReport, name: &str) -> NameTotals {
    totals_where(report, |n| n == name)
}

/// The per-layer metrics a traced repetition yields, by catalogue name;
/// a metric whose spans never ran is left out. `engine_windows` and
/// `fleet_windows` are the windows the traced repetitions simulated.
pub fn layer_metrics(
    report: &ProfReport,
    engine_windows: u64,
    fleet_windows: u64,
) -> Vec<(&'static str, f64)> {
    let t = |name: &str| totals(report, name);
    let thread_ns = totals_where(report, |_| true).self_ns as f64;
    let share = |ns: u64| 100.0 * per(ns as f64, thread_ns);
    let mut out = Vec::new();
    let mut put = |name: &'static str, spans: NameTotals, value: f64| {
        if spans.calls > 0 {
            out.push((name, value));
        }
    };

    // Inclusive time per call, in the metric's unit.
    for (name, span, ns_per_unit) in [
        ("flash.read_page_ns", "flash.read_page", 1.0),
        ("flash.write_page_ns", "flash.write_page", 1.0),
        ("flash.bus_grant_ns", "flash.bus_grant", 1.0),
        ("vssd.warm_up_ms", "coloc.warm_up", 1e6),
        ("vssd.finish_window_us", "engine.finish_window", 1e3),
        ("policy.on_window_us", "policy.on_window", 1e3),
        ("rl.ppo_update_ms", "ppo.update", 1e6),
        ("rl.ppo_minibatch_us", "ppo.minibatch", 1e3),
        ("rl.gae_us", "ppo.gae", 1e3),
        ("fleet.merge_us_per_window", "fleet.merge", 1e3),
    ] {
        let spans = t(span);
        put(name, spans, spans.ns_per_call() / ns_per_unit);
    }
    // Self time per dispatched event.
    for (name, span) in [
        ("vssd.ev_arrival_ns", "engine.ev.arrival"),
        ("vssd.ev_grant_ns", "engine.ev.grant"),
        ("vssd.ev_page_done_ns", "engine.ev.page_done"),
        ("vssd.ev_admission_tick_ns", "engine.ev.admission_tick"),
    ] {
        let spans = t(span);
        put(name, spans, spans.self_ns_per_call());
    }

    let run_until = t("engine.run_until");
    put(
        "vssd.run_until_calls_per_window",
        run_until,
        per(run_until.calls as f64, engine_windows as f64),
    );
    put(
        "vssd.run_until_self_share_pct",
        run_until,
        share(run_until.self_ns),
    );
    let flash = totals_where(report, |n| n.starts_with("flash."));
    put("flash.share_pct", flash, share(flash.self_ns));
    // `Colocation::run_window` minus its `engine.*` children.
    let run_window = t("coloc.run_window");
    put(
        "driver.self_ms_per_window",
        run_window,
        run_window.self_ns_per_call() / 1e6,
    );
    put(
        "driver.self_share_pct",
        run_window,
        share(run_window.self_ns),
    );
    let rollout = totals_where(report, |n| n == "rollout.collect" || n == "rollout.worker");
    put("rl.rollout_share_pct", rollout, share(rollout.total_ns));
    let update = t("ppo.update");
    put("rl.update_share_pct", update, share(update.total_ns));
    // `fleet.window` is the crate's span inside `FleetRuntime::run_window`;
    // what is not the serial `fleet.merge` is advancing the shards.
    let (window, merge) = (t("fleet.window"), t("fleet.merge"));
    let of_window = |ns: u64| 100.0 * per(ns as f64, window.total_ns as f64);
    put(
        "fleet.advance_share_pct",
        window,
        of_window(window.total_ns.saturating_sub(merge.total_ns)),
    );
    put("fleet.merge_share_pct", merge, of_window(merge.total_ns));
    put(
        "fleet.run_until_calls_per_window",
        window,
        per(run_until.calls as f64, fleet_windows as f64),
    );
    out
}

/// Share of `bench.rep`'s time covered by the benchmark's own spans
/// below it (1 − self/total). 0 when no repetition was traced.
pub fn rep_coverage(report: &ProfReport) -> f64 {
    let rep = totals(report, "bench.rep");
    if rep.total_ns == 0 {
        return 0.0;
    }
    1.0 - rep.self_ns as f64 / rep.total_ns as f64
}

/// Renders spans as a JSON array of
/// `{path, parent, calls, total_ns, self_ns}` objects, one per line.
pub fn spans_json(reports: &[&ProfReport]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for s in reports.iter().flat_map(|r| &r.spans) {
        let parent = s.path[..s.path.len().saturating_sub(1)].join(";");
        let _ = write!(
            out,
            "{}\n  {{\"path\": \"{}\", \"parent\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if first { "" } else { "," },
            s.folded_key(),
            parent,
            s.stats.calls,
            s.stats.total_ns,
            s.stats.self_ns()
        );
        first = false;
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_obs::prof::{ProfSpan, SpanStats};

    fn span(path: &[&str], calls: u64, total_ns: u64, child_ns: u64) -> ProfSpan {
        ProfSpan {
            path: path.iter().map(|s| s.to_string()).collect(),
            stats: SpanStats {
                calls,
                total_ns,
                child_ns,
                ..SpanStats::default()
            },
        }
    }

    #[test]
    fn totals_sum_over_paths_and_coverage_is_one_minus_self() {
        let report = ProfReport {
            spans: vec![
                span(&["bench.rep"], 1, 1_000, 960),
                span(&["bench.rep", "coloc.run_window"], 4, 960, 800),
                span(
                    &["bench.rep", "coloc.run_window", "engine.run_until"],
                    8_000,
                    800,
                    0,
                ),
                span(&["fleet.shard", "engine.run_until"], 2_000, 200, 0),
            ],
        };
        let ru = totals(&report, "engine.run_until");
        assert_eq!((ru.calls, ru.total_ns, ru.self_ns), (10_000, 1_000, 1_000));
        assert!((rep_coverage(&report) - 0.96).abs() < 1e-9);
        assert_eq!(rep_coverage(&ProfReport::default()), 0.0);
        let m = layer_metrics(&report, 4, 0);
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("vssd.run_until_calls_per_window"), 2_500.0);
        assert_eq!(get("driver.self_ms_per_window"), 40.0 / 1e6);
        assert!(
            m.iter()
                .all(|(k, _)| !k.starts_with("fleet.") && !k.starts_with("rl.")),
            "spans that never ran yield no metric"
        );
        let json = spans_json(&[&report]);
        let parsed = fleetio_obs::json::parse(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 4);
    }
}
