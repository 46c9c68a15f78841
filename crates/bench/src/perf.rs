//! Continuous perf-regression baseline: fixed-scale throughput scenarios,
//! a schema-versioned `BENCH_fleetio.json` report, and a thresholded
//! comparator for CI gating.
//!
//! [`run_perf`] measures its scenarios — a two-tenant colocation run, a
//! fleet run, a parallel rollout collection, a PPO update microbench, an
//! event-queue microbench, a run-store ingest + read-back microbench, and
//! an engine build + warm-up — in two passes: a **timing pass** with the
//! profiler disabled (so the throughput numbers carry no instrumentation
//! overhead)
//! and a **profiling pass** with `obs::prof` enabled that yields the span
//! tree embedded in the report and the folded stacks for flamegraphs.
//! [`compare`] diffs two reports metric by metric: metrics are
//! higher-is-better rates unless [`lower_is_better`] says otherwise, a
//! regression past [`WARN_THRESHOLD`] warns and past [`FAIL_THRESHOLD`]
//! fails (nonzero CI exit).

use std::collections::BTreeMap;
use std::time::Instant;

use fleetio::agent::ppo_config;
use fleetio::baselines::StaticPolicy;
use fleetio::experiment::{hardware_layout, run_collocation, ExperimentOptions};
use fleetio::{Colocation, FleetIoConfig, FleetIoEnv};
use fleetio_des::rng::{Rng, SmallRng};
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_obs::prof;
use fleetio_obs::prof::ProfReport;
use fleetio_rl::parallel::collect_parallel_envs;
use fleetio_rl::{ObsNormalizer, PpoPolicy, PpoTrainer, RolloutBuffer, Transition};
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::WorkloadKind;

use crate::report::{json_num, json_str};

/// Report format version; bump on any field change.
pub const SCHEMA: &str = "fleetio-bench-perf/1";

/// Regression fraction past which a metric warns (CI stays green).
pub const WARN_THRESHOLD: f64 = 0.10;

/// Regression fraction past which a metric fails (nonzero CI exit).
pub const FAIL_THRESHOLD: f64 = 0.25;

/// Spans kept in the report (top by self time).
const TOP_SPANS: usize = 12;

/// Scale knobs for the perf scenarios. All metrics are rates, so the
/// absolute scale only needs to be large enough for stable numbers —
/// comparisons must use reports produced at the *same* scale.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Measured colocation windows (after the ramp).
    pub measure_windows: usize,
    /// Unmeasured ramp-up windows.
    pub ramp_windows: usize,
    /// Parallel rollout worker environments.
    pub rollout_envs: usize,
    /// Environment steps collected per rollout worker.
    pub rollout_steps: usize,
    /// Synthetic transitions per PPO update.
    pub ppo_transitions: usize,
    /// PPO updates timed.
    pub ppo_updates: usize,
    /// Push/pop pairs timed by the event-queue microbench.
    pub queue_ops: usize,
    /// Events streamed through the run-store ingest microbench.
    pub store_events: usize,
    /// Fleet shards (one vSSD engine each).
    pub fleet_shards: u32,
    /// vSSD slots per fleet shard.
    pub fleet_slots: u32,
    /// Tenants placed across the fleet.
    pub fleet_tenants: u32,
    /// Fleet decision windows run.
    pub fleet_windows: u32,
    /// Worker threads advancing fleet shards.
    pub fleet_workers: usize,
    /// Root random seed.
    pub seed: u64,
}

impl PerfOptions {
    /// The committed-baseline / CI scale: a couple of seconds per scenario.
    pub fn ci() -> Self {
        PerfOptions {
            measure_windows: 6,
            ramp_windows: 1,
            rollout_envs: 4,
            rollout_steps: 16,
            ppo_transitions: 512,
            ppo_updates: 6,
            queue_ops: 2_000_000,
            store_events: 400_000,
            fleet_shards: 16,
            fleet_slots: 4,
            fleet_tenants: 56,
            fleet_windows: 6,
            fleet_workers: 4,
            seed: 42,
        }
    }

    /// A minimal scale for tests: exercises every code path in well under
    /// a second. Not comparable with `ci()` reports.
    pub fn smoke() -> Self {
        PerfOptions {
            measure_windows: 2,
            ramp_windows: 1,
            rollout_envs: 2,
            rollout_steps: 4,
            ppo_transitions: 64,
            ppo_updates: 1,
            queue_ops: 20_000,
            store_events: 5_000,
            fleet_shards: 2,
            fleet_slots: 2,
            fleet_tenants: 3,
            fleet_windows: 2,
            fleet_workers: 2,
            seed: 42,
        }
    }
}

/// One aggregated span kept in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Root-to-span path joined with `;` (the folded-stacks key).
    pub path: String,
    /// Completed calls.
    pub calls: u64,
    /// Total wall time, nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Wall time not attributed to any child span.
    pub self_ns: u64,
}

/// A schema-versioned perf report: throughput metrics plus the hottest
/// spans from the profiled pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Format version ([`SCHEMA`]).
    pub schema: String,
    /// Metric name → value (a higher-is-better rate in units/second
    /// unless [`lower_is_better`]).
    pub metrics: BTreeMap<String, f64>,
    /// Top spans by self time from the profiled pass.
    pub spans: Vec<SpanSummary>,
}

impl PerfReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(&self.schema)));
        out.push_str("  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(name), json_num(*value)));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(&s.path),
                s.calls,
                s.total_ns,
                s.self_ns
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a report back from JSON, validating the schema version.
    pub fn from_json(input: &str) -> Result<PerfReport, String> {
        let value = fleetio_obs::json::parse(input)?;
        let obj = value.as_object().ok_or("report must be a JSON object")?;
        let schema = obj
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("missing \"schema\" field")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file has {schema:?}, this binary expects {SCHEMA:?}"
            ));
        }
        let mut metrics = BTreeMap::new();
        let metric_obj = obj
            .get("metrics")
            .and_then(|v| v.as_object())
            .ok_or("missing \"metrics\" object")?;
        for (name, v) in metric_obj {
            let rate = v
                .as_f64()
                .ok_or_else(|| format!("metric {name:?} is not a number"))?;
            metrics.insert(name.clone(), rate);
        }
        let mut spans = Vec::new();
        for (i, s) in obj
            .get("spans")
            .and_then(|v| v.as_array())
            .ok_or("missing \"spans\" array")?
            .iter()
            .enumerate()
        {
            let span = s
                .as_object()
                .ok_or_else(|| format!("span {i} is not an object"))?;
            let field = |key: &str| {
                span.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("span {i} missing integer {key:?}"))
            };
            spans.push(SpanSummary {
                path: span
                    .get("path")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("span {i} missing \"path\""))?
                    .to_string(),
                calls: field("calls")?,
                total_ns: field("total_ns")?,
                self_ns: field("self_ns")?,
            });
        }
        Ok(PerfReport {
            schema: schema.to_string(),
            metrics,
            spans,
        })
    }
}

/// How far one metric moved between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Within the warn threshold (or improved).
    Ok,
    /// Regression past [`WARN_THRESHOLD`]; CI stays green.
    Warn,
    /// Regression past [`FAIL_THRESHOLD`] (or the metric vanished);
    /// CI exits nonzero.
    Fail,
}

/// One metric's movement between the old and new report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline rate.
    pub old: f64,
    /// New rate.
    pub new: f64,
    /// Fractional regression `(old - new) / old`; negative = improvement.
    pub regression: f64,
    /// Threshold classification.
    pub severity: Severity,
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResult {
    /// Per-metric deltas for metrics present in both reports.
    pub deltas: Vec<MetricDelta>,
    /// Metrics in the baseline but missing from the new report (a fail:
    /// a silently dropped metric must not pass the gate).
    pub missing: Vec<String>,
    /// Metrics only in the new report. A fail in strict mode (a metric
    /// nobody baselined must not silently skip the gate); informational
    /// under `allow_new` (how new metrics are introduced intentionally).
    pub added: Vec<String>,
    /// Whether `added` metrics are tolerated (the `--allow-new` mode).
    pub allow_new: bool,
}

impl CompareResult {
    /// Whether any metric breached the fail threshold, went missing, or
    /// (in strict mode) appeared without a baseline.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty()
            || (!self.allow_new && !self.added.is_empty())
            || self.deltas.iter().any(|d| d.severity == Severity::Fail)
    }

    /// Whether any metric breached the warn threshold (without failing).
    pub fn warned(&self) -> bool {
        self.deltas.iter().any(|d| d.severity == Severity::Warn)
    }

    /// Renders the comparison as an aligned table plus a verdict line.
    pub fn render_text(&self, warn: f64, fail: f64) -> String {
        let mut out = String::new();
        let name_w = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .chain(std::iter::once(6))
            .max()
            .unwrap_or(6);
        out.push_str(&format!(
            "{:<name_w$} {:>14} {:>14} {:>9}  status\n",
            "metric", "old", "new", "change"
        ));
        for d in &self.deltas {
            let status = match d.severity {
                Severity::Ok => "ok",
                Severity::Warn => "WARN",
                Severity::Fail => "FAIL",
            };
            out.push_str(&format!(
                "{:<name_w$} {:>14.1} {:>14.1} {:>+8.1}%  {status}\n",
                d.name,
                d.old,
                d.new,
                -d.regression * 100.0
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<name_w$} missing from new report  FAIL\n"));
        }
        for name in &self.added {
            if self.allow_new {
                out.push_str(&format!("{name:<name_w$} new metric (no baseline)\n"));
            } else {
                out.push_str(&format!(
                    "{name:<name_w$} new metric without a baseline  FAIL (re-run with --allow-new to accept)\n"
                ));
            }
        }
        if self.failed() {
            out.push_str(&format!(
                "FAIL: regression beyond {:.0}% (or missing/unbaselined metric)\n",
                fail * 100.0
            ));
        } else if self.warned() {
            out.push_str(&format!(
                "WARN: regression beyond {:.0}% (gate stays green below {:.0}%)\n",
                warn * 100.0,
                fail * 100.0
            ));
        } else {
            out.push_str("OK: all metrics within thresholds\n");
        }
        out
    }
}

/// Whether `metric` is a cost (heap traffic, any `*allocs*`, or a host
/// time per unit `*_ns_per_*`) rather than a rate: more is worse, so
/// [`compare`] inverts it.
pub fn lower_is_better(metric: &str) -> bool {
    metric.contains("allocs") || metric.contains("_ns_per_")
}

/// Compares two reports. Metrics are higher-is-better rates, except the
/// [`lower_is_better`] costs, which are compared inverted. The regression
/// fraction is
/// `(old - new) / old` (or its negation for inverted metrics). Metrics
/// present in the baseline but absent from the new report fail outright;
/// metrics present only in the new report fail unless `allow_new` is set.
pub fn compare(
    old: &PerfReport,
    new: &PerfReport,
    warn: f64,
    fail: f64,
    allow_new: bool,
) -> CompareResult {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (name, &old_rate) in &old.metrics {
        match new.metrics.get(name) {
            None => missing.push(name.clone()),
            Some(&new_rate) => {
                let regression = if old_rate > 0.0 {
                    let drop = (old_rate - new_rate) / old_rate;
                    if lower_is_better(name) {
                        -drop
                    } else {
                        drop
                    }
                } else {
                    0.0
                };
                let severity = if regression > fail {
                    Severity::Fail
                } else if regression > warn {
                    Severity::Warn
                } else {
                    Severity::Ok
                };
                deltas.push(MetricDelta {
                    name: name.clone(),
                    old: old_rate,
                    new: new_rate,
                    regression,
                    severity,
                });
            }
        }
    }
    let added = new
        .metrics
        .keys()
        .filter(|k| !old.metrics.contains_key(*k))
        .cloned()
        .collect();
    CompareResult {
        deltas,
        missing,
        added,
        allow_new,
    }
}

/// The perf scenarios' shared configuration: the RL training device (big
/// enough for closed-loop tenants, small enough for CI).
fn perf_config() -> FleetIoConfig {
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    cfg
}

/// Colocation scenario: hardware-isolated VDI + TeraSort under a static
/// policy. Fills `sim_events_per_sec`, `nand_ops_per_sec` and
/// `windows_per_sec` from the engine's lifetime counters over the
/// measured wall time.
fn colocation_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    let _prof = prof::span("perf.colocation");
    let cfg = perf_config();
    let run_opts = ExperimentOptions {
        cfg: cfg.clone(),
        measure_windows: opts.measure_windows,
        ramp_windows: opts.ramp_windows,
        warm_fraction: 0.3,
        seed: opts.seed,
    };
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::VdiWeb, WorkloadKind::TeraSort],
        &[None, None],
        opts.seed,
    );
    // The theoretical peak suffices: utilization numbers are not a perf
    // metric, and skipping calibration keeps the scenario cheap.
    let peak = cfg.engine.flash.device_peak_bytes_per_sec();
    let mut events = 0u64;
    let mut nand_ops = 0u64;
    let mut hook = |_w: usize, c: &mut Colocation| {
        events = c.engine().events_processed();
        nand_ops = c.engine().device().stats().nand_ops;
    };
    #[cfg(feature = "prof-alloc")]
    let allocs0 = prof::alloc::counters().0;
    let t0 = Instant::now();
    let _ = run_collocation(
        &mut StaticPolicy::hardware(),
        tenants,
        &run_opts,
        peak,
        Some(&mut hook),
    );
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let windows = (opts.measure_windows + opts.ramp_windows) as f64;
    metrics.insert("sim_events_per_sec".to_string(), events as f64 / secs);
    metrics.insert("nand_ops_per_sec".to_string(), nand_ops as f64 / secs);
    metrics.insert("windows_per_sec".to_string(), windows / secs);
    // Heap traffic per simulated event — only meaningful (and only
    // counted) when the counting global allocator is installed, i.e. the
    // binary was built with `--features prof-alloc`. Wall-clock-free, so
    // it is the one metric immune to machine noise.
    #[cfg(feature = "prof-alloc")]
    {
        let allocs = prof::alloc::counters().0.saturating_sub(allocs0);
        if events > 0 {
            metrics.insert(
                "allocs_per_sim_event".to_string(),
                allocs as f64 / events as f64,
            );
        }
    }
}

/// Parallel rollout scenario: frozen-policy collection from persistent
/// FleetIO environments on scoped worker threads. Fills
/// `rollout_steps_per_sec` (agent-steps; environment setup and warm-up
/// are excluded from the timed region).
fn rollout_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    let _prof = prof::span("perf.rollout");
    let cfg = perf_config();
    // The pre-training pair (§3.8): long persistent rollouts must not
    // outgrow the small training device, so avoid write-flood workloads.
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::Tpce, WorkloadKind::BatchAnalytics],
        &[None, None],
        opts.seed,
    );
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let policy = PpoPolicy::new(
        cfg.obs_dim(),
        &cfg.action_dims(),
        &cfg.hidden_layers,
        &mut rng,
    );
    let mut normalizer = ObsNormalizer::new(cfg.obs_dim(), 10.0);
    normalizer.freeze();
    let mut envs: Vec<FleetIoEnv> = (0..opts.rollout_envs)
        .map(|i| {
            let rewards = FleetIoEnv::default_rewards(&cfg, &tenants);
            FleetIoEnv::new(
                cfg.clone(),
                tenants.clone(),
                rewards,
                0.3,
                opts.rollout_steps.max(1),
                opts.seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let gamma = ppo_config(&cfg).gamma;
    let t0 = Instant::now();
    let buf = collect_parallel_envs(
        &mut envs,
        &policy,
        &normalizer,
        opts.rollout_steps,
        gamma,
        opts.seed,
    );
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    metrics.insert("rollout_steps_per_sec".to_string(), buf.len() as f64 / secs);
}

/// Builds a deterministic synthetic rollout for the PPO microbench:
/// plausible observations/advantage inputs without paying for a simulator.
fn synthetic_buffer(n: usize, obs_dim: usize, action_dims: &[usize], seed: u64) -> RolloutBuffer {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = RolloutBuffer::new();
    for i in 0..n {
        let obs: Vec<f32> = (0..obs_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let action: Vec<usize> = action_dims
            .iter()
            .map(|&d| (rng.next_u64() % d as u64) as usize)
            .collect();
        buf.push(Transition {
            obs,
            action,
            logp: -1.5 + rng.gen_f64() * 0.5,
            reward: rng.gen_f64() * 2.0 - 1.0,
            value: rng.gen_f64(),
            done: (i + 1) % 32 == 0,
            advantage: 0.0,
            ret: 0.0,
        });
    }
    buf
}

/// PPO update microbench: repeated `PpoTrainer::update` over a cloned
/// synthetic rollout. Fills `ppo_updates_per_sec`.
fn ppo_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    let _prof = prof::span("perf.ppo");
    let cfg = perf_config();
    let obs_dim = cfg.obs_dim();
    let action_dims = cfg.action_dims();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x9d07);
    let policy = PpoPolicy::new(obs_dim, &action_dims, &cfg.hidden_layers, &mut rng);
    let mut trainer = PpoTrainer::new(policy, obs_dim, ppo_config(&cfg), opts.seed);
    let buf = synthetic_buffer(opts.ppo_transitions, obs_dim, &action_dims, opts.seed);
    let t0 = Instant::now();
    for _ in 0..opts.ppo_updates {
        let _ = trainer.update(buf.clone());
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    metrics.insert(
        "ppo_updates_per_sec".to_string(),
        opts.ppo_updates as f64 / secs,
    );
}

/// Engine build + warm-up scenario, at one fixed scale: `Engine::new` on
/// the experiment device with two 8-channel vSSDs, each pre-filled to
/// half its logical space — what every figure run, SLO calibration and RL
/// environment does before its first window. Fills `warm_up_ns_per_page`
/// (host time per pre-filled page; warm-up is bookkeeping only) and, under
/// `prof-alloc`, the wall-clock-free `engine_build_allocs` (allocations of
/// the build plus the warm-up).
fn warm_up_scenario(metrics: &mut BTreeMap<String, f64>) {
    let _prof = prof::span("perf.warm_up");
    let cfg = EngineConfig {
        flash: FlashConfig::experiment_default(),
        ..Default::default()
    };
    let vssds: Vec<VssdConfig> = (0..2u16)
        .map(|v| {
            let channels = (v * 8..v * 8 + 8).map(ChannelId).collect();
            VssdConfig::hardware(VssdId(u32::from(v)), channels)
        })
        .collect();
    #[cfg(feature = "prof-alloc")]
    let allocs0 = prof::alloc::counters().0;
    let mut engine = Engine::new(cfg, vssds);
    let t0 = Instant::now();
    for id in engine.vssd_ids() {
        engine.warm_up(id, 0.5);
    }
    let nanos = t0.elapsed().as_nanos() as f64;
    #[cfg(feature = "prof-alloc")]
    metrics.insert(
        "engine_build_allocs".to_string(),
        prof::alloc::counters().0.saturating_sub(allocs0) as f64,
    );
    // Half of each vSSD's logical pages were written.
    let pages: u64 = engine
        .vssd_ids()
        .into_iter()
        .map(|id| engine.logical_capacity_pages(id) / 2)
        .sum();
    metrics.insert("warm_up_ns_per_page".to_string(), nanos / pages as f64);
}

fn run_scenarios(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    warm_up_scenario(metrics);
    colocation_scenario(opts, metrics);
    fleet_scenario(opts, metrics);
    rollout_scenario(opts, metrics);
    ppo_scenario(opts, metrics);
    queue_scenario(opts, metrics);
    store_scenario(opts, metrics);
}

/// Fleet scenario: many independent vSSD engines advanced as shards on
/// a scoped worker pool, with batched policy inference and the
/// hotspot-consolidation control plane at every window merge. Fills
/// `fleet_windows_per_sec` and `fleet_events_per_sec` (fleet decision
/// windows and summed engine events over the measured wall time; the
/// build/warm-up phase is excluded).
fn fleet_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    use fleetio_fleet::{default_model, FleetRuntime, FleetSpec};
    let _prof = prof::span("perf.fleet");
    let mut spec = FleetSpec::sized(
        opts.seed,
        opts.fleet_shards,
        opts.fleet_slots,
        opts.fleet_tenants,
    );
    spec.windows = opts.fleet_windows;
    let mut rt = FleetRuntime::new(&spec, default_model(opts.seed), opts.fleet_workers);
    let t0 = Instant::now();
    let report = rt.run();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    metrics.insert(
        "fleet_windows_per_sec".to_string(),
        f64::from(spec.windows) / secs,
    );
    metrics.insert(
        "fleet_events_per_sec".to_string(),
        report.events_processed as f64 / secs,
    );
}

/// Run-store microbench. Ingest half: a representative event mix
/// streamed through a `StoreSink` (encode + CRC framing + fingerprint +
/// segment seals with fsync) into a throwaway directory, filling
/// `store_ingest_events_per_sec` so recording overhead regressions are
/// caught even though the simulator never waits on the store. Read-back
/// half, over the store just written: `store_verify_events_per_sec`
/// (`RunStore::verify`), `store_diff_events_per_sec` (`diff_stores` of the
/// store against itself — two independent cursors, the cost of diffing two
/// identical runs), under `prof-alloc` the wall-clock-free
/// `store_diff_allocs_per_event`, and the integrity kernel alone as
/// `crc32_ns_per_byte` over 34-byte records (the mean event payload).
fn store_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    use fleetio_des::hash::crc32;
    use fleetio_des::SimTime;
    use fleetio_obs::{ObsEvent, ObsSink};
    use fleetio_store::{diff_stores, DiffOutcome, RunStore, StoreSink};
    use std::hint::black_box;

    let _prof = prof::span("perf.store");
    let dir = std::env::temp_dir().join(format!(
        "fleetio-bench-store-{}-{}",
        std::process::id(),
        opts.seed
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut sink = StoreSink::create(
        &dir,
        vec![0; 64],
        0x5707_e9e9,
        opts.seed,
        500_000_000,
        fleetio_store::DEFAULT_SEGMENT_BYTES,
    )
    .expect("create bench store");
    let t0 = Instant::now();
    for i in 0..opts.store_events as u64 {
        let at = SimTime::from_nanos(i * 1_000);
        // Deterministic mix weighted toward the hot event kinds.
        let ev = match i % 8 {
            0 => ObsEvent::RequestSubmit {
                at,
                req: i,
                vssd: (i % 4) as u32,
                read: i % 3 != 0,
                bytes: 4096,
            },
            1 => ObsEvent::RequestAdmit {
                at,
                req: i,
                vssd: (i % 4) as u32,
                pages: 1,
            },
            2 | 3 => ObsEvent::ChipIssue {
                at,
                req: i,
                vssd: (i % 4) as u32,
                channel: (i % 8) as u16,
                chip: (i % 4) as u16,
                read: i % 3 != 0,
            },
            4 | 5 => ObsEvent::NandOp {
                start: at,
                end: SimTime::from_nanos(i * 1_000 + 40_000),
                vssd: (i % 4) as u32,
                channel: (i % 8) as u16,
                chip: (i % 4) as u16,
                kind: fleetio_obs::NandKind::Read,
                gc: false,
                bytes: 4096,
            },
            _ => ObsEvent::RequestComplete {
                at,
                req: i,
                vssd: (i % 4) as u32,
                read: i % 3 != 0,
                bytes: 4096,
                arrival: SimTime::from_nanos(i.saturating_sub(50) * 1_000),
                service_start: at,
            },
        };
        sink.record(ev);
    }
    let manifest = sink.finish().expect("seal bench store");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(manifest.total_events, opts.store_events as u64);
    metrics.insert(
        "store_ingest_events_per_sec".to_string(),
        opts.store_events as f64 / secs,
    );

    let store = RunStore::open(&dir).expect("open bench store");
    let t0 = Instant::now();
    let report = store.verify();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(report.clean(), "bench store must verify clean");
    metrics.insert(
        "store_verify_events_per_sec".to_string(),
        opts.store_events as f64 / secs,
    );

    #[cfg(feature = "prof-alloc")]
    let allocs0 = prof::alloc::counters().0;
    let t0 = Instant::now();
    let outcome = diff_stores(&store, &store).expect("diff bench store");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    #[cfg(feature = "prof-alloc")]
    metrics.insert(
        "store_diff_allocs_per_event".to_string(),
        prof::alloc::counters().0.saturating_sub(allocs0) as f64 / opts.store_events as f64,
    );
    assert!(
        matches!(outcome, DiffOutcome::Identical { events } if events == manifest.total_events)
    );
    metrics.insert(
        "store_diff_events_per_sec".to_string(),
        opts.store_events as f64 / secs,
    );
    std::fs::remove_dir_all(&dir).ok();

    const RECORD_LEN: usize = 34;
    let records: Vec<u8> = (0..RECORD_LEN * 4096)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let passes = opts.store_events.div_ceil(4096);
    let t0 = Instant::now();
    let mut acc = 0u32;
    for _ in 0..passes {
        for record in records.chunks_exact(RECORD_LEN) {
            acc ^= crc32(black_box(record));
        }
    }
    black_box(acc);
    let nanos = t0.elapsed().as_nanos() as f64;
    metrics.insert(
        "crc32_ns_per_byte".to_string(),
        nanos / (passes * records.len()) as f64,
    );
}

/// Event-queue microbench: steady-state push/pop pairs over an
/// engine-like arrival-time distribution (most completions land within a
/// bucket width of `now`, a tail spans the ring, admission-tick-style
/// events overflow the horizon). Fills `queue_ops_per_sec` so a queue
/// regression is visible even when engine-level metrics move for other
/// reasons.
fn queue_scenario(opts: &PerfOptions, metrics: &mut BTreeMap<String, f64>) {
    use fleetio_des::{EventQueue, SimTime};
    let _prof = prof::span("perf.queue");
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x0005_eed9_0e0e);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut now = 0u64;
    // Steady-state population comparable to a busy engine.
    const PENDING: usize = 4_096;
    let deltas: Vec<u64> = (0..opts.queue_ops + PENDING)
        .map(|_| match rng.gen_range(0u64..100) {
            // Same-bucket completion (reads, bus grants).
            0..=59 => rng.gen_range(0u64..16_384),
            // Ring-resident (programs, erases, GC busy times).
            60..=94 => rng.gen_range(16_384u64..2_000_000),
            // Same-instant cascade.
            95..=97 => 0,
            // Beyond the ring horizon (pre-submitted arrivals).
            _ => rng.gen_range(70_000_000u64..200_000_000),
        })
        .collect();
    let mut di = deltas.iter();
    for _ in 0..PENDING {
        q.push(
            SimTime::from_nanos(now + di.next().expect("prefill delta")),
            0,
        );
    }
    let t0 = Instant::now();
    for _ in 0..opts.queue_ops {
        let ev = q.pop().expect("queue holds PENDING events");
        now = ev.at.as_nanos();
        q.push(
            SimTime::from_nanos(now + di.next().expect("steady delta")),
            0,
        );
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    // One op = one push + one pop.
    metrics.insert(
        "queue_ops_per_sec".to_string(),
        (opts.queue_ops * 2) as f64 / secs,
    );
}

/// Runs the perf suite: a timing pass with the profiler **disabled**
/// (throughput metrics carry no instrumentation cost), then a profiling
/// pass with it enabled. Returns the report plus the profiled pass's full
/// span tree (for folded-stacks / flamegraph output).
///
/// Toggles the process-global profiler; do not run concurrently with
/// other profiled work.
pub fn run_perf(opts: &PerfOptions) -> (PerfReport, ProfReport) {
    prof::disable();
    prof::reset();
    let mut metrics = BTreeMap::new();
    run_scenarios(opts, &mut metrics);

    prof::enable();
    let mut shadow = BTreeMap::new();
    run_scenarios(opts, &mut shadow);
    prof::disable();
    let tree = prof::take_report();

    let spans = tree
        .top_by_self(TOP_SPANS)
        .into_iter()
        .map(|s| SpanSummary {
            path: s.folded_key(),
            calls: s.stats.calls,
            total_ns: s.stats.total_ns,
            self_ns: s.stats.self_ns(),
        })
        .collect();
    (
        PerfReport {
            schema: SCHEMA.to_string(),
            metrics,
            spans,
        },
        tree,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("sim_events_per_sec".to_string(), 1_000_000.0);
        metrics.insert("ppo_updates_per_sec".to_string(), 12.5);
        PerfReport {
            schema: SCHEMA.to_string(),
            metrics,
            spans: vec![SpanSummary {
                path: "engine.run_until;engine.ev.arrival".to_string(),
                calls: 42,
                total_ns: 9_000,
                self_ns: 7_500,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let decoded = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shape() {
        assert!(PerfReport::from_json("[]").is_err());
        assert!(PerfReport::from_json(r#"{"metrics":{},"spans":[]}"#).is_err());
        let wrong = r#"{"schema":"fleetio-bench-perf/999","metrics":{},"spans":[]}"#;
        assert!(PerfReport::from_json(wrong).unwrap_err().contains("schema"));
    }

    #[test]
    fn compare_classifies_by_threshold() {
        let old = sample_report();
        let mut new = old.clone();
        // 5% down: ok. 20% down: warn. 30% down: fail.
        for (drop, expect) in [
            (0.05, Severity::Ok),
            (0.20, Severity::Warn),
            (0.30, Severity::Fail),
        ] {
            new.metrics
                .insert("sim_events_per_sec".to_string(), 1_000_000.0 * (1.0 - drop));
            let result = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
            let delta = result
                .deltas
                .iter()
                .find(|d| d.name == "sim_events_per_sec")
                .unwrap();
            assert_eq!(delta.severity, expect, "drop {drop}");
            assert_eq!(result.failed(), expect == Severity::Fail);
        }
    }

    #[test]
    fn improvements_never_warn() {
        let old = sample_report();
        let mut new = old.clone();
        new.metrics.insert("sim_events_per_sec".to_string(), 2e6);
        let result = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
        assert!(!result.failed() && !result.warned());
    }

    #[test]
    fn missing_metric_fails_and_added_is_informational() {
        let old = sample_report();
        let mut new = old.clone();
        new.metrics.remove("ppo_updates_per_sec");
        new.metrics.insert("new_metric".to_string(), 1.0);
        let result = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
        assert_eq!(result.missing, vec!["ppo_updates_per_sec".to_string()]);
        assert_eq!(result.added, vec!["new_metric".to_string()]);
        assert!(result.failed());
        assert!(result
            .render_text(WARN_THRESHOLD, FAIL_THRESHOLD)
            .contains("missing from new report"));
    }

    /// Strict mode (the default CLI behaviour) fails on a metric the
    /// baseline lacks; `--allow-new` reports it informationally.
    #[test]
    fn unbaselined_metric_fails_strict_and_passes_allow_new() {
        let old = sample_report();
        let mut new = old.clone();
        new.metrics.insert("queue_ops_per_sec".to_string(), 1e7);
        let strict = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, false);
        assert_eq!(strict.added, vec!["queue_ops_per_sec".to_string()]);
        assert!(strict.failed(), "strict mode must gate unbaselined metrics");
        assert!(strict
            .render_text(WARN_THRESHOLD, FAIL_THRESHOLD)
            .contains("--allow-new"));
        let lenient = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
        assert!(!lenient.failed());
        assert!(lenient
            .render_text(WARN_THRESHOLD, FAIL_THRESHOLD)
            .contains("new metric (no baseline)"));
    }

    /// Cost metrics are lower-is-better: an increase regresses, a
    /// decrease improves, and the thresholds gate in that direction.
    #[test]
    fn cost_metrics_compare_inverted() {
        for name in [
            "allocs_per_sim_event",
            "engine_build_allocs",
            "warm_up_ns_per_page",
            "store_diff_allocs_per_event",
            "crc32_ns_per_byte",
        ] {
            assert!(lower_is_better(name));
            let mut old = sample_report();
            old.metrics.insert(name.to_string(), 10.0);
            let mut new = old.clone();

            new.metrics.insert(name.to_string(), 5.0);
            let result = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
            assert!(
                !result.failed() && !result.warned(),
                "halving {name} is an improvement"
            );

            new.metrics.insert(name.to_string(), 14.0);
            let result = compare(&old, &new, WARN_THRESHOLD, FAIL_THRESHOLD, true);
            let delta = result.deltas.iter().find(|d| d.name == name).unwrap();
            assert_eq!(delta.severity, Severity::Fail, "+40% {name} fails");
            assert!(result.failed());
        }
        assert!(!lower_is_better("sim_events_per_sec"));
        assert!(!lower_is_better("fleet_windows_per_sec"));
        assert!(!lower_is_better("store_diff_events_per_sec"));
    }

    #[test]
    fn perf_suite_smoke_produces_all_metrics_and_spans() {
        let (report, tree) = run_perf(&PerfOptions::smoke());
        assert_eq!(report.schema, SCHEMA);
        for metric in [
            "sim_events_per_sec",
            "nand_ops_per_sec",
            "windows_per_sec",
            "fleet_windows_per_sec",
            "fleet_events_per_sec",
            "rollout_steps_per_sec",
            "ppo_updates_per_sec",
            "queue_ops_per_sec",
            "store_ingest_events_per_sec",
            "store_verify_events_per_sec",
            "store_diff_events_per_sec",
            "crc32_ns_per_byte",
            "warm_up_ns_per_page",
        ] {
            let rate = report.metrics.get(metric).copied().unwrap_or(0.0);
            assert!(rate > 0.0, "{metric} should be positive, got {rate}");
        }
        assert!(!report.spans.is_empty(), "profiled pass found no spans");
        assert!(tree.find(&["perf.colocation"]).is_some());
        assert!(tree
            .spans
            .iter()
            .any(|s| s.name() == "ppo.update" || s.name() == "rollout.worker"));
        // The report survives a round trip at real scale too.
        let decoded = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(decoded, report);
    }
}
