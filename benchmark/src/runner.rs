//! The run loop: set-up, timed repetitions under `catch_unwind`, the
//! traced repetition, and the assembly of every catalogue metric.
//!
//! End-to-end numbers always come from repetitions run with
//! `fleetio_obs::prof` disabled. A `--trace 1` run spends the first part
//! of its budget on such untraced repetitions (the denominator of
//! `obs.prof_overhead_pct` and the source of every untraced per-layer
//! timing), then repeats the same work with the profiler on.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fleetio_des::summary::percentile;
use fleetio_obs::prof::{self, ProfReport};

use crate::metrics::{self, MetricDef, END_TO_END, NOT_MEASURED, PER_LAYER};
use crate::stats::Stat;
use crate::{alloc, procfs, trace};

/// How big one repetition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real sizes (README "Workloads").
    Full,
    /// Seconds-long miniature for `cargo test`; numbers are not comparable.
    Smoke,
}

/// What one repetition hands back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOutput {
    /// FNV-1a digest of the repetition's simulated outputs.
    pub digest: u64,
    /// Engine events the repetition processed (all engines).
    pub events: u64,
    /// Simulated metrics and counts under their catalogue names; they
    /// repeat bit-for-bit, so the first repetition's values are reported.
    pub exact: Vec<(&'static str, f64)>,
    /// Host-time samples under catalogue names (names may repeat; all
    /// untraced repetitions pool). A name `x` also feeds `x_p50`/`x_p95`.
    pub timings: Vec<(&'static str, f64)>,
}

/// One benchmark workload, built by its set-up.
pub trait Workload {
    /// Engine-windows one repetition simulates (the unit of
    /// `attempted` / `failed`).
    fn engine_windows(&self) -> u64;

    /// `FleetRuntime::run_window` calls per repetition.
    fn fleet_windows(&self) -> u64 {
        0
    }

    /// One repetition. With `traced`, every public call is wrapped in
    /// the benchmark's own `prof::span` (driving hidden calls directly
    /// where the plain entry point hides them); the digest must not
    /// depend on it.
    fn rep(&mut self, traced: bool) -> RepOutput;

    /// Untimed: output checks on the last repetition and clean-up of
    /// what it left behind. Returns one line per failed check.
    fn check(&mut self) -> Vec<String>;

    /// Fixed-input probes of this workload's layers (traced runs only).
    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Root seed every tenant / model / spec seed derives from.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Repetition size.
    pub size: Size,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options the run used.
    pub opts: RunOptions,
    /// Every metric measured, by catalogue name.
    pub measured: BTreeMap<&'static str, Stat>,
    /// Digest of the first good repetition.
    pub digest: u64,
    /// Engine-windows attempted.
    pub attempted: u64,
    /// Engine-windows failed (panicked or digest-mismatched repetitions).
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Untraced and traced repetitions completed.
    pub reps: (usize, usize),
    /// Voluntary / involuntary context switches over the run.
    pub ctxt: (u64, u64),
    /// Spans of set-up and of the traced repetitions (traced runs).
    pub spans: Vec<ProfReport>,
}

impl RunResult {
    /// Whether every output check passed and no window failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The metrics the benchmark contract wants from this run, in
    /// catalogue order: every end-to-end metric untraced, every
    /// per-layer metric traced. Metrics the workload does not measure
    /// read [`NOT_MEASURED`] (end-to-end) or 0 (per-layer) with `n = 0`.
    pub fn contract_metrics(&self) -> Vec<(&'static MetricDef, Stat)> {
        let (table, fill) = if self.opts.trace {
            (PER_LAYER, 0.0)
        } else {
            (END_TO_END, NOT_MEASURED)
        };
        table
            .iter()
            .map(|m| {
                (
                    m,
                    self.measured
                        .get(m.name)
                        .copied()
                        .unwrap_or(Stat::not_measured(fill)),
                )
            })
            .collect()
    }
}

/// Samples of one group of repetitions (untraced or traced).
#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    allocs: Vec<(u64, u64)>,
    /// Host-time samples the repetitions reported, pooled by name.
    timings: BTreeMap<&'static str, Vec<f64>>,
}

/// Runs `opts.workload` once: set-up (three times when untraced; the
/// median is `setup_s`), repetitions until the budget is spent, output
/// checks after each. `build` is the workload's set-up.
pub fn run(opts: &RunOptions, build: &mut dyn FnMut() -> Box<dyn Workload>) -> RunResult {
    let ctxt0 = procfs::status();
    prof::disable();
    prof::reset();
    if opts.trace {
        prof::enable();
    }
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if opts.trace { 1 } else { 3 } {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(prof::time("bench.setup", &mut *build));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set-up ran at least once");
    prof::disable();
    let setup_spans = prof::take_report();

    let mut res = RunResult {
        opts: opts.clone(),
        measured: BTreeMap::new(),
        digest: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        reps: (0, 0),
        ctxt: (0, 0),
        spans: Vec::new(),
    };
    let mut first: Option<RepOutput> = None;
    let origin = Instant::now();

    // Untraced repetitions: the whole budget, or its first part when a
    // traced part follows.
    let (budget, min_reps) = if opts.trace {
        (0.4 * opts.seconds, 1)
    } else {
        (opts.seconds, 3)
    };
    let plain = phase(
        &mut *workload,
        false,
        origin,
        budget,
        min_reps,
        &mut res,
        &mut first,
    );
    res.reps.0 = plain.walls.len();
    let wall = Stat::of(&plain.walls);
    let put = |res: &mut RunResult, name: &'static str, stat: Option<Stat>| {
        if let Some(stat) = stat {
            res.measured.insert(name, stat);
        }
    };

    if opts.trace {
        let traced = phase(
            &mut *workload,
            true,
            origin,
            0.85 * opts.seconds,
            1,
            &mut res,
            &mut first,
        );
        let report = prof::take_report();
        let reps = traced.walls.len() as u64;
        res.reps.1 = traced.walls.len();
        for (name, v) in trace::layer_metrics(
            &report,
            workload.engine_windows() * reps,
            workload.fleet_windows() * reps,
        ) {
            put(&mut res, name, Some(Stat::exact(v)));
        }
        let coverage = trace::rep_coverage(&report);
        if reps > 0 && coverage < 0.95 {
            res.failures.push(format!(
                "benchmark spans cover only {:.1} % of the traced repetition",
                coverage * 100.0
            ));
        }
        if let (Some(t), Some(w)) = (Stat::of(&traced.walls), wall) {
            put(
                &mut res,
                "obs.prof_overhead_pct",
                Some(Stat::point((t.value / w.value - 1.0) * 100.0, t.n)),
            );
        }
        res.spans = vec![setup_spans, report];
        match catch_unwind(AssertUnwindSafe(|| workload.probes())) {
            Ok(probes) => probes
                .into_iter()
                .for_each(|(name, v)| put(&mut res, name, Some(Stat::exact(v)))),
            Err(_) => res.failures.push("a probe panicked".into()),
        }
    }

    match &first {
        Some(out) => {
            res.digest = out.digest;
            for &(name, v) in &out.exact {
                put(&mut res, name, Some(Stat::exact(v)));
            }
            if let (Some(w), true) = (wall, out.events > 0) {
                let events = out.events as f64;
                put(
                    &mut res,
                    "vssd.host_ns_per_sim_event",
                    Some(Stat::point(w.value * 1e9 / events, w.n)),
                );
                let per_event: Vec<f64> =
                    plain.allocs.iter().map(|a| a.0 as f64 / events).collect();
                let windows = workload.engine_windows() as f64;
                let per_window: Vec<f64> =
                    plain.allocs.iter().map(|a| a.1 as f64 / windows).collect();
                put(&mut res, "vssd.allocs_per_sim_event", Stat::of(&per_event));
                put(
                    &mut res,
                    "vssd.alloc_bytes_per_window",
                    Stat::of(&per_window),
                );
            }
        }
        None => res.failures.push("no repetition completed".into()),
    }
    for (name, samples) in &plain.timings {
        put(&mut res, name, Stat::of(samples));
        for (suffix, pct) in [("_p50", 50.0), ("_p95", 95.0)] {
            if let Some(def) = PER_LAYER
                .iter()
                .find(|m| m.name.strip_suffix(suffix) == Some(name))
            {
                put(
                    &mut res,
                    def.name,
                    percentile(samples, pct).map(|v| Stat::point(v, samples.len())),
                );
            }
        }
    }
    put(&mut res, "wall_s", wall);
    put(&mut res, "cpu_s", Stat::of(&plain.cpus));
    put(&mut res, "setup_s", Stat::of(&setup_s));
    put(
        &mut res,
        "peak_rss_mb",
        Some(Stat::exact(procfs::status().peak_rss_mb)),
    );

    for (def, stat) in res.contract_metrics() {
        if !stat.value.is_finite() {
            res.failures.push(format!("{} is not finite", def.name));
            res.measured.insert(def.name, Stat::not_measured(0.0));
        }
    }
    let ctxt1 = procfs::status();
    res.ctxt = (
        ctxt1.voluntary_ctxt - ctxt0.voluntary_ctxt,
        ctxt1.involuntary_ctxt - ctxt0.involuntary_ctxt,
    );
    res
}

/// Repeats `workload.rep(traced)` until `budget` seconds after `origin`
/// — never starting a repetition expected to end more than half of
/// itself past the budget — and at least `min_reps` times. A repetition
/// that panics, or whose digest differs from the first good one's, fails
/// all its windows and contributes no sample; five of them end the phase.
fn phase(
    workload: &mut dyn Workload,
    traced: bool,
    origin: Instant,
    budget: f64,
    min_reps: usize,
    res: &mut RunResult,
    first: &mut Option<RepOutput>,
) -> Phase {
    let mut p = Phase::default();
    let mut bad = 0;
    while bad < 5 {
        let typical = Stat::of(&p.walls).map_or(0.0, |s| s.value);
        if p.walls.len() >= min_reps && origin.elapsed().as_secs_f64() + 0.5 * typical >= budget {
            break;
        }
        let rep = p.walls.len() + bad + 1;
        let windows = workload.engine_windows();
        res.attempted += windows;
        if traced {
            prof::enable();
        }
        let (cpu0, alloc0, t) = (procfs::cpu_s(), alloc::counters(), Instant::now());
        let out = catch_unwind(AssertUnwindSafe(|| {
            let _span = prof::span("bench.rep");
            workload.rep(traced)
        }));
        let wall = t.elapsed().as_secs_f64();
        let (cpu1, alloc1) = (procfs::cpu_s(), alloc::counters());
        // Checks are untimed and untraced.
        prof::disable();
        let Ok(out) = out else {
            bad += 1;
            res.failed += windows;
            res.failures.push(format!(
                "{} repetition {rep} panicked",
                if traced { "traced" } else { "untraced" }
            ));
            continue;
        };
        let reference = first.get_or_insert_with(|| out.clone());
        if out.digest != reference.digest {
            bad += 1;
            res.failed += windows;
            res.failures.push(format!(
                "{} repetition {rep}: digest {:016x} differs from the first repetition's {:016x}",
                if traced { "traced" } else { "untraced" },
                out.digest,
                reference.digest
            ));
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| workload.check())) {
            // The same check fails the same way on every repetition: report it once.
            Ok(failures) => failures.into_iter().for_each(|f| {
                if !res.failures.contains(&f) {
                    res.failures.push(f);
                }
            }),
            Err(_) => res
                .failures
                .push(format!("output check of repetition {rep} panicked")),
        }
        p.walls.push(wall);
        p.cpus.push(cpu1 - cpu0);
        p.allocs.push((alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));
        for (name, v) in out.timings {
            p.timings.entry(name).or_default().push(v);
        }
    }
    p
}

/// The record appended to `--out`: one JSON object on one line.
pub fn json_record(res: &RunResult) -> String {
    let mut out = format!(
        "{{\"schema\": \"fleetio-benchmark/1\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"threads\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"reps\": {}, \"traced_reps\": {}, \
         \"digest\": \"{:016x}\", \"metrics\": {{",
        res.opts.workload,
        res.opts.seed,
        u8::from(res.opts.trace),
        res.opts.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        res.correct(),
        res.attempted,
        res.failed,
        res.reps.0,
        res.reps.1,
        res.digest,
    );
    let mut first = true;
    for (name, stat) in &res.measured {
        let Some(def) = metrics::find(name) else {
            continue;
        };
        out.push_str(&format!(
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}}}",
            if first { "" } else { ", " },
            name,
            stat.value,
            def.unit,
            def.better.as_str(),
            stat.n,
            stat.q1,
            stat.q3
        ));
        first = false;
    }
    out.push_str("}}");
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end (untraced) or
/// every per-layer (traced) metric.
pub fn contract_line(res: &RunResult) -> String {
    let metrics: Vec<String> = res
        .contract_metrics()
        .iter()
        .map(|(def, stat)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, stat.value, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.correct(),
        res.attempted.max(1),
        res.failed,
        metrics.join(", ")
    )
}

/// The human-readable report: every measured metric by name with unit,
/// direction, sample count and quartiles, then the failed checks.
pub fn render(res: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} {} — {} untraced + {} traced reps, {} threads, ctx switches {} voluntary / {} involuntary",
        res.opts.workload,
        res.opts.seed,
        if res.opts.trace { "traced" } else { "untraced" },
        res.reps.0,
        res.reps.1,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        res.ctxt.0,
        res.ctxt.1
    );
    let _ = writeln!(
        out,
        "{:<36} {:>16} {:<7} {:<7} {:>4} {:>14} {:>14}",
        "metric", "value", "unit", "better", "n", "q1", "q3"
    );
    let mut line = |def: &MetricDef, stat: &Stat| {
        let _ = if stat.n == 0 {
            writeln!(
                out,
                "{:<36} {:>16} {:<7} {:<7} {:>4}",
                def.name,
                "n/a",
                def.unit,
                def.better.as_str(),
                0
            )
        } else {
            writeln!(
                out,
                "{:<36} {:>16.6} {:<7} {:<7} {:>4} {:>14.6} {:>14.6}",
                def.name,
                stat.value,
                def.unit,
                def.better.as_str(),
                stat.n,
                stat.q1,
                stat.q3
            )
        };
    };
    // Everything measured, plus `n/a` for the rest of this run's contract table.
    for (table, in_contract) in [(END_TO_END, !res.opts.trace), (PER_LAYER, res.opts.trace)] {
        for def in table {
            match res.measured.get(def.name) {
                Some(stat) => line(def, stat),
                None if in_contract => line(def, &Stat::not_measured(0.0)),
                None => {}
            }
        }
    }
    let _ = writeln!(
        out,
        "digest {:016x}  attempted {} failed {} (fail_share {:.4})  correct {}",
        res.digest,
        res.attempted,
        res.failed,
        res.failed as f64 / res.attempted.max(1) as f64,
        res.correct()
    );
    for f in &res.failures {
        let _ = writeln!(out, "FAILED CHECK: {f}");
    }
    out
}
