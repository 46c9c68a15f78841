//! `coloc-eval`: Figures 10–13 in miniature. The six evaluation pairs,
//! each under hardware isolation, FleetIO (behaviour-cloned model built
//! in set-up) and software isolation, through
//! `experiment::run_collocation` with the default `NullSink`, on Table 3
//! defaults over `FlashConfig::experiment_default` (16 channels).
//!
//! One thread. Engine + flash + driver tick do nearly all the work;
//! policy inference is < 1 %; obs and store do nothing.

use std::time::Instant;

use fleetio::agent::{pretrain, PretrainOptions, PretrainedModel};
use fleetio::baselines::{FleetIoPolicy, StaticPolicy, WindowPolicy};
use fleetio::experiment::{
    calibrate_slo, hardware_layout, measure_device_peak, run_collocation, software_layout,
    ExperimentOptions,
};
use fleetio::mixes::evaluation_pairs;
use fleetio::{Colocation, FleetIoConfig, TenantSpec};
use fleetio_des::summary::geo_mean;
use fleetio_des::window::WindowSummary;
use fleetio_des::SimDuration;
use fleetio_flash::stats::DeviceStats;
use fleetio_obs::prof;
use fleetio_vssd::vssd::VssdId;
use fleetio_workloads::WorkloadKind;

use super::{pretrain_scenarios, Digest, MODEL_SEED};
use crate::probes;
use crate::runner::{RepOutput, Size, Workload};

const POLICIES: [&str; 3] = ["hw", "fleetio", "sw"];

/// One tenant over a run's measured windows.
#[derive(Debug, Clone, PartialEq)]
struct TenantOutcome {
    /// Mean bandwidth, bytes/second.
    bandwidth: f64,
    requests: u64,
    p99_ns: u64,
}

/// What one collocation run measured (simulated quantities only).
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    avg_utilization: f64,
    /// Tenant 0 is the latency-sensitive one, tenant 1 the
    /// bandwidth-intensive one.
    tenants: Vec<TenantOutcome>,
    events: u64,
    device: DeviceStats,
}

/// The workload: calibrated inputs plus the last repetition's outcomes
/// for the output check.
pub struct ColocEval {
    cfg: FleetIoConfig,
    opts: ExperimentOptions,
    peak: f64,
    pairs: Vec<(WorkloadKind, WorkloadKind, SimDuration)>,
    model: PretrainedModel,
    last: Vec<[Outcome; 3]>,
}

/// Forwards to the real policy and records the host time between
/// successive `on_window` calls — one `Colocation::run_window` each,
/// which `run_collocation` otherwise hides.
#[derive(Debug)]
struct TimedPolicy<'a> {
    inner: &'a mut dyn WindowPolicy,
    last: Option<Instant>,
    window_ms: Vec<f64>,
}

impl WindowPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_window(&mut self, coloc: &mut Colocation, summaries: &[(VssdId, WindowSummary)]) {
        // The first call's gap would include device build and warm-up.
        if let Some(prev) = self.last {
            self.window_ms.push(prev.elapsed().as_secs_f64() * 1e3);
        }
        self.inner.on_window(coloc, summaries);
        self.last = Some(Instant::now());
    }
}

impl ColocEval {
    /// Set-up: device peak, the two latency-sensitive SLOs, and the
    /// behaviour-cloned model (BC only, no PPO iterations).
    pub fn setup(seed: u64, size: Size) -> Self {
        let cfg = FleetIoConfig::default();
        let half = usize::from(cfg.engine.flash.channels) / 2;
        let peak = measure_device_peak(&cfg, seed ^ 0x9e37);
        let mut pairs: Vec<_> = evaluation_pairs()
            .into_iter()
            .map(|(lc, bi)| (lc, bi, SimDuration::ZERO))
            .collect();
        let (ramp, measure) = match size {
            Size::Full => (2, 6),
            Size::Smoke => {
                pairs.truncate(1);
                (2, 3)
            }
        };
        for i in 0..pairs.len() {
            let lc = pairs[i].0;
            pairs[i].2 = match pairs[..i].iter().find(|p| p.0 == lc) {
                Some(p) => p.2,
                None => calibrate_slo(&cfg, lc, half, 3, seed ^ 0x510),
            };
        }
        let model = pretrain(
            &cfg,
            &pretrain_scenarios(&cfg, seed),
            0.5,
            PretrainOptions {
                iterations: 0,
                warmup_iterations: 0,
                windows_per_rollout: 8,
                bc_rounds: 2,
                parallel: false,
                ..PretrainOptions::default()
            },
            MODEL_SEED,
        );
        let opts = ExperimentOptions {
            cfg: cfg.clone(),
            measure_windows: measure,
            ramp_windows: ramp,
            warm_fraction: 0.5,
            seed,
        };
        ColocEval {
            cfg,
            opts,
            peak,
            pairs,
            model,
            last: Vec::new(),
        }
    }

    fn windows_per_run(&self) -> usize {
        self.opts.ramp_windows + self.opts.measure_windows
    }

    fn tenants(&self, policy: &str, pair: usize) -> Vec<TenantSpec> {
        let (lc, bi, slo) = self.pairs[pair];
        let seed = self.opts.seed.wrapping_add(pair as u64 * 17);
        let layout = if policy == "sw" {
            software_layout
        } else {
            hardware_layout
        };
        layout(&self.cfg, &[lc, bi], &[Some(slo), None], seed)
    }

    /// The plain path: `run_collocation`, as `figures` calls it.
    fn run_plain(
        &self,
        policy: &mut dyn WindowPolicy,
        tenants: Vec<TenantSpec>,
        window_ms: &mut Vec<f64>,
    ) -> Outcome {
        let mut timed = TimedPolicy {
            inner: policy,
            last: None,
            window_ms: Vec::new(),
        };
        let (mut events, mut device) = (0, DeviceStats::default());
        let mut hook = |_w: usize, c: &mut Colocation| {
            events = c.engine().events_processed();
            device = c.engine().device().stats();
        };
        let m = run_collocation(&mut timed, tenants, &self.opts, self.peak, Some(&mut hook));
        window_ms.append(&mut timed.window_ms);
        Outcome {
            avg_utilization: m.avg_utilization,
            tenants: m
                .tenants
                .iter()
                .map(|t| TenantOutcome {
                    bandwidth: t.avg_bandwidth,
                    requests: t.requests,
                    p99_ns: t.p99.as_nanos(),
                })
                .collect(),
            events,
            device,
        }
    }

    /// The traced path: the same loop as `run_collocation`, driven through
    /// `Colocation`'s public `new` / `warm_up` / `run_window` so each call
    /// gets its own span. Must produce the plain path's [`Outcome`].
    fn run_direct(&self, policy: &mut dyn WindowPolicy, tenants: Vec<TenantSpec>) -> Outcome {
        let o = &self.opts;
        let mut coloc = prof::time("coloc.new", || {
            Colocation::new(o.cfg.engine.clone(), tenants, o.cfg.decision_interval)
        });
        prof::time("coloc.warm_up", || coloc.warm_up(o.warm_fraction));
        let ids = coloc.tenant_ids();
        let window_secs = o.cfg.decision_interval.as_secs_f64();
        let mut utilizations = Vec::with_capacity(o.measure_windows);
        for w in 0..self.windows_per_run() {
            if w == o.ramp_windows {
                for id in &ids {
                    coloc.engine_mut().reset_cumulative(*id);
                }
            }
            let summaries = prof::time("coloc.run_window", || coloc.run_window());
            if w >= o.ramp_windows {
                let bytes: u64 = summaries.iter().map(|(_, s)| s.total_bytes).sum();
                utilizations.push(bytes as f64 / (window_secs * self.peak));
            }
            // Static policies' `on_window` is empty; only FleetIO's is a layer.
            let _span = (policy.name() == "fleetio").then(|| prof::span("policy.on_window"));
            policy.on_window(&mut coloc, &summaries);
        }
        let measured_secs = o.measure_windows as f64 * window_secs;
        Outcome {
            avg_utilization: utilizations.iter().sum::<f64>() / utilizations.len().max(1) as f64,
            tenants: ids
                .iter()
                .map(|id| {
                    let cum = coloc.engine().cumulative(*id);
                    let p99 = cum.latency.percentile(99.0).unwrap_or(SimDuration::ZERO);
                    TenantOutcome {
                        bandwidth: cum.bytes as f64 / measured_secs,
                        requests: cum.requests,
                        p99_ns: p99.as_nanos(),
                    }
                })
                .collect(),
            events: coloc.engine().events_processed(),
            device: coloc.engine().device().stats(),
        }
    }
}

impl Workload for ColocEval {
    fn engine_windows(&self) -> u64 {
        (self.pairs.len() * POLICIES.len() * self.windows_per_run()) as u64
    }

    fn rep(&mut self, traced: bool) -> RepOutput {
        let mut window_ms = Vec::new();
        let mut all = Vec::with_capacity(self.pairs.len());
        for pair in 0..self.pairs.len() {
            let outcomes = POLICIES.map(|name| {
                let mut policy: Box<dyn WindowPolicy> = match name {
                    "fleetio" => Box::new(FleetIoPolicy::new(self.cfg.clone(), &self.model, 2)),
                    "hw" => Box::new(StaticPolicy::hardware()),
                    _ => Box::new(StaticPolicy::software()),
                };
                let tenants = self.tenants(name, pair);
                if traced {
                    self.run_direct(policy.as_mut(), tenants)
                } else {
                    self.run_plain(policy.as_mut(), tenants, &mut window_ms)
                }
            });
            all.push(outcomes);
        }

        let mut digest = Digest::default();
        for o in all.iter().flatten() {
            digest
                .f64(o.avg_utilization)
                .u64(o.events)
                .u64(o.device.nand_ops);
            for t in &o.tenants {
                digest.f64(t.bandwidth).u64(t.requests).u64(t.p99_ns);
            }
        }
        // Geomean over the pairs of FleetIO over hardware isolation.
        let ratio = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
            let ratios: Vec<f64> = all.iter().map(|[hw, fl, _]| f(fl) / f(hw)).collect();
            geo_mean(&ratios).unwrap_or(0.0)
        };
        let run_sim_s = self.windows_per_run() as f64 * self.cfg.decision_interval.as_secs_f64();
        let sim_s = run_sim_s * (all.len() * POLICIES.len()) as f64;
        let measured_s = sim_s * self.opts.measure_windows as f64 / self.windows_per_run() as f64;
        let sum = |f: &dyn Fn(&Outcome) -> u64| -> f64 {
            all.iter().flatten().map(f).sum::<u64>() as f64
        };
        let events_of = |p: usize| {
            all.iter().map(|o| o[p].events).sum::<u64>() as f64 / (run_sim_s * all.len() as f64)
        };
        let host_writes = sum(&|o| o.device.host_write_bytes);
        let out = RepOutput {
            digest: digest.finish(),
            events: sum(&|o| o.events) as u64,
            exact: vec![
                ("util_gain_x", ratio(&|o| o.avg_utilization)),
                ("bi_bw_gain_x", ratio(&|o| o.tenants[1].bandwidth)),
                ("lc_p99_norm_x", ratio(&|o| o.tenants[0].p99_ns as f64)),
                ("vssd.events_per_sim_s.hw", events_of(0)),
                ("vssd.events_per_sim_s.fleetio", events_of(1)),
                ("vssd.events_per_sim_s.sw", events_of(2)),
                ("vssd.events_per_sim_s", sum(&|o| o.events) / sim_s),
                (
                    "workloads.reqs_per_sim_s",
                    sum(&|o| o.tenants.iter().map(|t| t.requests).sum()) / measured_s,
                ),
                (
                    "flash.nand_ops_per_sim_s",
                    sum(&|o| o.device.nand_ops) / sim_s,
                ),
                (
                    "flash.waf",
                    if host_writes > 0.0 {
                        sum(&|o| o.device.flash_write_bytes) / host_writes
                    } else {
                        0.0
                    },
                ),
                ("flash.gc_runs", sum(&|o| o.device.gc_runs)),
                ("flash.erases", sum(&|o| o.device.erases)),
            ],
            timings: window_ms
                .into_iter()
                .map(|ms| ("driver.window_ms", ms))
                .collect(),
        };
        self.last = all;
        out
    }

    /// The paper's ordering on every pair: utilization HW < FleetIO < SW,
    /// and FleetIO's latency-sensitive P99 below software isolation's.
    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for ([hw, fl, sw], (lc, bi, _)) in self.last.iter().zip(&self.pairs) {
            if !(hw.avg_utilization < fl.avg_utilization && fl.avg_utilization < sw.avg_utilization)
            {
                failures.push(format!(
                    "{lc}+{bi}: utilization not HW < FleetIO < SW ({:.3} / {:.3} / {:.3})",
                    hw.avg_utilization, fl.avg_utilization, sw.avg_utilization
                ));
            }
            if fl.tenants[0].p99_ns >= sw.tenants[0].p99_ns {
                failures.push(format!(
                    "{lc}+{bi}: FleetIO P99 {} ns not below software isolation's {} ns",
                    fl.tenants[0].p99_ns, sw.tenants[0].p99_ns
                ));
            }
        }
        failures
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        vec![
            ("des.queue_ns_per_op", probes::queue_ns_per_op()),
            ("des.hist_record_ns", probes::hist_record_ns()),
            (
                "policy.decide_ns_per_agent",
                probes::decide_ns_per_agent(&self.model),
            ),
        ]
    }
}
