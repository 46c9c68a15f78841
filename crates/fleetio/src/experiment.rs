//! The evaluation harness (§4 of the paper).
//!
//! Provides the building blocks every figure uses: device-peak
//! calibration, per-workload SLO calibration (P99 under hardware
//! isolation, §3.3.1), tenant layouts per policy, solo-run workload
//! profiling (for SSDKeeper and Figure 6), and the measured collocation
//! runner with per-window policy hooks.

use fleetio_des::summary::percentile;
use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::features::windowed_features;
use fleetio_workloads::{
    AddrPattern, PhaseSpec, SizeDist, WindowFeatures, WorkloadCategory, WorkloadKind, WorkloadSpec,
};

use crate::baselines::WindowPolicy;
use crate::config::FleetIoConfig;
use crate::driver::{Colocation, TenantSpec};

/// Options shared by experiment runs.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// FleetIO/engine configuration.
    pub cfg: FleetIoConfig,
    /// Windows measured after the ramp.
    pub measure_windows: usize,
    /// Unmeasured ramp-up windows at the start.
    pub ramp_windows: usize,
    /// Pre-fill fraction before the run (§4.1: ≥ 50 %).
    pub warm_fraction: f64,
    /// Root random seed.
    pub seed: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            cfg: FleetIoConfig::default(),
            measure_windows: 15,
            ramp_windows: 3,
            warm_fraction: 0.5,
            seed: 0xF1EE7,
        }
    }
}

/// Measured quality of one tenant over a run.
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    /// The vSSD.
    pub id: VssdId,
    /// The workload it ran.
    pub kind: WorkloadKind,
    /// Mean achieved bandwidth over the measured span, bytes/second.
    pub avg_bandwidth: f64,
    /// P95 request latency.
    pub p95: SimDuration,
    /// P99 request latency (the paper's headline tail metric).
    pub p99: SimDuration,
    /// P99.9 request latency.
    pub p999: SimDuration,
    /// Fraction of requests violating the SLO.
    pub slo_violation_rate: f64,
    /// Requests completed.
    pub requests: u64,
}

/// Measured outcome of one collocation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// The policy that drove the run.
    pub policy: String,
    /// Per-tenant quality.
    pub tenants: Vec<TenantMetrics>,
    /// Mean device bandwidth utilization over measured windows, `[0, 1]`
    /// against the calibrated peak.
    pub avg_utilization: f64,
    /// P95 of the per-window utilization series.
    pub p95_utilization: f64,
    /// Sum of tenant bandwidths, bytes/second.
    pub total_bandwidth: f64,
}

impl RunMetrics {
    /// The bandwidth-intensive tenants' mean bandwidth (Figure 13's
    /// numerator); `None` if no BI tenant ran.
    pub fn bi_bandwidth(&self) -> Option<f64> {
        let bi: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.kind.category() == WorkloadCategory::BandwidthIntensive)
            .map(|t| t.avg_bandwidth)
            .collect();
        (!bi.is_empty()).then(|| bi.iter().sum::<f64>() / bi.len() as f64)
    }

    /// Mean P99 across latency-sensitive tenants (Figure 12's numerator).
    pub fn lc_p99(&self) -> Option<SimDuration> {
        let lc: Vec<u64> = self
            .tenants
            .iter()
            .filter(|t| t.kind.category() == WorkloadCategory::LatencySensitive)
            .map(|t| t.p99.as_nanos())
            .collect();
        (!lc.is_empty()).then(|| SimDuration::from_nanos(lc.iter().sum::<u64>() / lc.len() as u64))
    }
}

/// Builds a hardware-isolated layout: `workloads[i]` gets an equal share
/// of the device's channels (FleetIO's default starting point, §4.1).
///
/// # Panics
///
/// Panics if there are more workloads than channels.
pub fn hardware_layout(
    cfg: &FleetIoConfig,
    workloads: &[WorkloadKind],
    slos: &[Option<SimDuration>],
    seed: u64,
) -> Vec<TenantSpec> {
    let channels = usize::from(cfg.engine.flash.channels);
    assert!(workloads.len() <= channels, "more tenants than channels");
    let alloc = crate::baselines::proportional_split(&vec![1.0; workloads.len()], channels);
    planned_layout(cfg, workloads, &alloc, slos, seed)
}

/// Builds a hardware-isolated layout with an explicit per-tenant channel
/// allocation (SSDKeeper's planned partition).
///
/// # Panics
///
/// Panics if the allocation does not cover exactly the device's channels
/// or the slices disagree in length.
pub fn planned_layout(
    cfg: &FleetIoConfig,
    workloads: &[WorkloadKind],
    allocation: &[usize],
    slos: &[Option<SimDuration>],
    seed: u64,
) -> Vec<TenantSpec> {
    assert_eq!(
        workloads.len(),
        allocation.len(),
        "one allocation per workload"
    );
    assert_eq!(workloads.len(), slos.len(), "one SLO slot per workload");
    let total: usize = allocation.iter().sum();
    assert_eq!(
        total,
        usize::from(cfg.engine.flash.channels),
        "allocation must cover device"
    );
    let mut next = 0u16;
    workloads
        .iter()
        .zip(allocation.iter().zip(slos))
        .enumerate()
        .map(|(i, (kind, (n, slo)))| {
            let chans: Vec<ChannelId> = (next..next + *n as u16).map(ChannelId).collect();
            next += *n as u16;
            let mut vc = VssdConfig::hardware(VssdId(i as u32), chans);
            vc.slo = *slo;
            TenantSpec::new(vc, *kind, seed.wrapping_add(i as u64 * 31))
        })
        .collect()
}

/// Builds a software-isolated layout: every tenant shares all channels
/// (token-bucket/stride machinery engaged, no hard caps by default).
pub fn software_layout(
    cfg: &FleetIoConfig,
    workloads: &[WorkloadKind],
    slos: &[Option<SimDuration>],
    seed: u64,
) -> Vec<TenantSpec> {
    assert_eq!(workloads.len(), slos.len(), "one SLO slot per workload");
    let all: Vec<ChannelId> = (0..cfg.engine.flash.channels).map(ChannelId).collect();
    let share = 1.0 / workloads.len() as f64;
    workloads
        .iter()
        .zip(slos)
        .enumerate()
        .map(|(i, (kind, slo))| {
            let mut vc =
                VssdConfig::software(VssdId(i as u32), all.clone()).with_capacity_share(share);
            vc.slo = *slo;
            TenantSpec::new(vc, *kind, seed.wrapping_add(i as u64 * 31))
        })
        .collect()
}

/// Figure 16's mixed layout: `hw` tenants each hardware-isolated on
/// `hw_channels` own channels; `sw` tenants software-share the remainder.
///
/// # Panics
///
/// Panics if the channel arithmetic does not fit the device.
pub fn mixed_layout(
    cfg: &FleetIoConfig,
    hw: &[WorkloadKind],
    hw_channels: usize,
    sw: &[WorkloadKind],
    slos_hw: &[Option<SimDuration>],
    seed: u64,
) -> Vec<TenantSpec> {
    let total = usize::from(cfg.engine.flash.channels);
    let hw_total = hw.len() * hw_channels;
    assert!(hw_total < total, "hardware share exceeds device");
    assert_eq!(hw.len(), slos_hw.len(), "one SLO per hardware tenant");
    let mut tenants = Vec::new();
    let mut next = 0u16;
    for (i, (kind, slo)) in hw.iter().zip(slos_hw).enumerate() {
        let chans: Vec<ChannelId> = (next..next + hw_channels as u16).map(ChannelId).collect();
        next += hw_channels as u16;
        let mut vc = VssdConfig::hardware(VssdId(i as u32), chans);
        vc.slo = *slo;
        tenants.push(TenantSpec::new(vc, *kind, seed.wrapping_add(i as u64 * 31)));
    }
    let shared: Vec<ChannelId> = (next..total as u16).map(ChannelId).collect();
    let share = 1.0 / sw.len().max(1) as f64;
    for (j, kind) in sw.iter().enumerate() {
        let id = VssdId((hw.len() + j) as u32);
        let vc = VssdConfig::software(id, shared.clone()).with_capacity_share(share);
        tenants.push(TenantSpec::new(
            vc,
            *kind,
            seed.wrapping_add((hw.len() + j) as u64 * 31),
        ));
    }
    tenants
}

/// A saturating read workload used only for device-peak calibration.
fn saturating_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "calibration-saturate",
        phases: vec![PhaseSpec {
            duration: SimDuration::from_secs(10),
            arrival_rate: 0.0,
            read_fraction: 1.0,
            size: SizeDist::Fixed(1 << 20),
            addr: AddrPattern::Sequential { region: 0 },
            concurrency: 128,
        }],
        footprint: 0.6,
        regions: 1,
    }
}

/// `kind` running alone as vSSD 0 on the device's first `n_channels`
/// channels, hardware-isolated and pre-filled to `warm_fraction`.
fn solo_colocation(
    cfg: &FleetIoConfig,
    kind: WorkloadKind,
    n_channels: usize,
    seed: u64,
    warm_fraction: f64,
) -> Colocation {
    let chans = (0..n_channels as u16).map(ChannelId).collect();
    let vc = VssdConfig::hardware(VssdId(0), chans);
    let tenant = TenantSpec::new(vc, kind, seed);
    let mut coloc = Colocation::new(cfg.engine.clone(), vec![tenant], cfg.decision_interval);
    coloc.warm_up(warm_fraction);
    coloc
}

/// Measures the device's peak deliverable bandwidth (bytes/second) with a
/// saturating sequential-read run over all channels. Utilization numbers
/// are reported against this, as on real hardware.
pub fn measure_device_peak(cfg: &FleetIoConfig, seed: u64) -> f64 {
    // The saturating spec is outside the named catalogue: register the
    // tenant as TeraSort, then replace its generator.
    let all = usize::from(cfg.engine.flash.channels);
    let mut coloc = solo_colocation(cfg, WorkloadKind::TeraSort, all, seed, 0.3);
    coloc.override_spec(VssdId(0), saturating_spec(), seed);
    let mut best: f64 = 0.0;
    for _ in 0..4 {
        let out = coloc.run_window();
        best = best.max(out[0].1.avg_bandwidth);
    }
    best.max(1.0)
}

/// Calibrates a workload's SLO: its P99 latency running alone on
/// `n_channels` hardware-isolated channels (§3.3.1's default SLO).
pub fn calibrate_slo(
    cfg: &FleetIoConfig,
    kind: WorkloadKind,
    n_channels: usize,
    windows: usize,
    seed: u64,
) -> SimDuration {
    let mut coloc = solo_colocation(cfg, kind, n_channels, seed, 0.5);
    for _ in 0..windows {
        let _ = coloc.run_window();
    }
    coloc
        .engine()
        .cumulative(VssdId(0))
        .latency
        .percentile(99.0)
        .unwrap_or(SimDuration::from_millis(1))
}

/// Profiles a workload's I/O features from a solo run (used by SSDKeeper
/// training and the Figure 6 clustering). Runs the workload until its
/// trace holds `feature_windows` windows of `window_requests` requests
/// each and returns exactly that many per-window feature vectors, so every
/// workload contributes a balanced sample to clustering regardless of its
/// request rate.
pub fn workload_feature_windows(
    cfg: &FleetIoConfig,
    kind: WorkloadKind,
    n_channels: usize,
    feature_windows: usize,
    window_requests: usize,
    seed: u64,
) -> Vec<WindowFeatures> {
    let mut coloc = solo_colocation(cfg, kind, n_channels, seed, 0.3);
    let needed = feature_windows * window_requests;
    let _ = trace_requests(&mut coloc, needed);
    let space = coloc.engine().logical_capacity_bytes(VssdId(0));
    let mut feats = windowed_features(coloc.trace_of(VssdId(0)), space, window_requests);
    feats.truncate(feature_windows);
    feats
}

/// Keeps the solo tenant's trace and runs windows until it holds `needed`
/// requests, returning how many windows that took. Generous bound: after
/// 4 096 windows a pathologically slow stream stops short.
fn trace_requests(coloc: &mut Colocation, needed: usize) -> usize {
    coloc.keep_trace(VssdId(0), needed);
    for windows in 0..4096 {
        if coloc.trace_of(VssdId(0)).len() >= needed {
            return windows;
        }
        let _ = coloc.run_window();
    }
    4096
}

/// Profiles a workload's channel demand for SSDKeeper: the smallest
/// allocation (from `candidates`) whose solo bandwidth reaches 90 % of the
/// largest allocation's (BI) or whose P99 is within 20 % of the best (LC).
pub fn profile_channel_demand(
    cfg: &FleetIoConfig,
    kind: WorkloadKind,
    candidates: &[usize],
    windows: usize,
    seed: u64,
) -> usize {
    assert!(!candidates.is_empty(), "need candidate channel counts");
    let mut results: Vec<(usize, f64, SimDuration)> = Vec::new();
    for &n in candidates {
        let mut coloc = solo_colocation(cfg, kind, n, seed, 0.3);
        let mut bw = 0.0;
        for _ in 0..windows {
            let out = coloc.run_window();
            bw += out[0].1.avg_bandwidth;
        }
        bw /= windows as f64;
        let p99 = coloc
            .engine()
            .cumulative(VssdId(0))
            .latency
            .percentile(99.0)
            .unwrap_or(SimDuration::from_millis(1));
        results.push((n, bw, p99));
    }
    let best_bw = results.iter().map(|(_, b, _)| *b).fold(0.0f64, f64::max);
    let best_p99 = results
        .iter()
        .map(|(_, _, p)| p.as_nanos())
        .min()
        .unwrap_or(1);
    let ok = |r: &(usize, f64, SimDuration)| match kind.category() {
        WorkloadCategory::BandwidthIntensive => r.1 >= 0.9 * best_bw,
        WorkloadCategory::LatencySensitive => r.2.as_nanos() as f64 <= 1.2 * best_p99 as f64,
    };
    results
        .iter()
        .filter(|r| ok(r))
        .map(|(n, _, _)| *n)
        .min()
        .unwrap_or_else(|| *candidates.last().expect("non-empty"))
}

/// Runs one measured collocation under `policy`. `window_hook` fires after
/// every window (measured windows are indexed from 0 after the ramp;
/// negative indices would be the ramp, which the hook does not see).
/// A per-window callback given the measured-window index and the running
/// collocation (used by the Figure 17 swap experiments).
pub type WindowHook<'a> = &'a mut dyn FnMut(usize, &mut Colocation);

pub fn run_collocation(
    policy: &mut dyn WindowPolicy,
    tenants: Vec<TenantSpec>,
    opts: &ExperimentOptions,
    device_peak: f64,
    mut window_hook: Option<WindowHook<'_>>,
) -> RunMetrics {
    assert!(device_peak > 0.0, "device peak must be calibrated");
    let kinds: Vec<WorkloadKind> = tenants.iter().map(|t| t.kind).collect();
    let mut coloc = Colocation::new(opts.cfg.engine.clone(), tenants, opts.cfg.decision_interval);
    coloc.warm_up(opts.warm_fraction);

    let window_secs = opts.cfg.decision_interval.as_secs_f64();
    let mut utilizations: Vec<f64> = Vec::with_capacity(opts.measure_windows);
    for w in 0..opts.ramp_windows + opts.measure_windows {
        if w == opts.ramp_windows {
            let ids = coloc.tenant_ids();
            for id in ids {
                coloc.engine_mut().reset_cumulative(id);
            }
        }
        let summaries = coloc.run_window();
        if w >= opts.ramp_windows {
            let bytes: u64 = summaries.iter().map(|(_, s)| s.total_bytes).sum();
            utilizations.push(bytes as f64 / (window_secs * device_peak));
            policy.on_window(&mut coloc, &summaries);
            if let Some(hook) = window_hook.as_mut() {
                hook(w - opts.ramp_windows, &mut coloc);
            }
        } else {
            policy.on_window(&mut coloc, &summaries);
        }
    }

    let measured_secs = opts.measure_windows as f64 * window_secs;
    let ids = coloc.tenant_ids();
    let tenants_out: Vec<TenantMetrics> = ids
        .iter()
        .zip(kinds)
        .map(|(id, kind)| {
            let cum = coloc.engine().cumulative(*id);
            let pct = |p: f64| cum.latency.percentile(p).unwrap_or(SimDuration::ZERO);
            TenantMetrics {
                id: *id,
                kind,
                avg_bandwidth: cum.bytes as f64 / measured_secs,
                p95: pct(95.0),
                p99: pct(99.0),
                p999: pct(99.9),
                slo_violation_rate: if cum.requests == 0 {
                    0.0
                } else {
                    cum.slo_violations as f64 / cum.requests as f64
                },
                requests: cum.requests,
            }
        })
        .collect();
    let total_bandwidth: f64 = tenants_out.iter().map(|t| t.avg_bandwidth).sum();
    let avg_utilization = utilizations.iter().sum::<f64>() / utilizations.len().max(1) as f64;
    let p95_utilization = percentile(&utilizations, 95.0).unwrap_or(avg_utilization);
    RunMetrics {
        policy: policy.name().to_string(),
        tenants: tenants_out,
        avg_utilization,
        p95_utilization,
        total_bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TRACE_CAP;
    use fleetio_des::SimTime;
    use fleetio_flash::config::FlashConfig;
    use fleetio_vssd::vssd::IsolationMode;

    fn tiny_opts() -> ExperimentOptions {
        let mut cfg = FleetIoConfig::default();
        cfg.engine.flash = FlashConfig::training_test();
        cfg.decision_interval = SimDuration::from_millis(500);
        ExperimentOptions {
            cfg,
            measure_windows: 3,
            ramp_windows: 1,
            warm_fraction: 0.3,
            seed: 1,
        }
    }

    #[test]
    fn hardware_layout_splits_equally() {
        let opts = tiny_opts();
        let t = hardware_layout(
            &opts.cfg,
            &[WorkloadKind::Ycsb, WorkloadKind::TeraSort],
            &[None, None],
            1,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].config.channels.len(), 2);
        assert_eq!(t[1].config.channels.len(), 2);
        assert_eq!(t[0].config.isolation, IsolationMode::Hardware);
        // Disjoint channels.
        assert!(t[0]
            .config
            .channels
            .iter()
            .all(|c| !t[1].config.channels.contains(c)));
    }

    #[test]
    fn software_layout_shares_everything() {
        let opts = tiny_opts();
        let t = software_layout(
            &opts.cfg,
            &[WorkloadKind::Ycsb, WorkloadKind::TeraSort],
            &[None, None],
            1,
        );
        assert_eq!(t[0].config.channels.len(), 4);
        assert_eq!(t[0].config.channels, t[1].config.channels);
        assert_eq!(t[0].config.isolation, IsolationMode::Software);
    }

    #[test]
    fn mixed_layout_partitions_correctly() {
        let opts = tiny_opts();
        let t = mixed_layout(
            &opts.cfg,
            &[WorkloadKind::VdiWeb],
            2,
            &[WorkloadKind::TeraSort],
            &[None],
            1,
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].config.channels.len(), 2);
        assert_eq!(t[1].config.channels.len(), 2);
        assert_eq!(t[1].config.isolation, IsolationMode::Software);
    }

    #[test]
    fn device_peak_is_positive_and_sane() {
        let opts = tiny_opts();
        let peak = measure_device_peak(&opts.cfg, 3);
        // 4 channels × 64 MiB/s = 268 MB/s theoretical; measured peak must
        // land within (50 %, 105 %] of that.
        let theory = opts.cfg.engine.flash.device_peak_bytes_per_sec();
        assert!(peak > 0.5 * theory, "peak {peak} vs theory {theory}");
        assert!(peak <= 1.05 * theory, "peak {peak} vs theory {theory}");
    }

    #[test]
    fn calibrated_slo_is_reasonable() {
        let opts = tiny_opts();
        let slo = calibrate_slo(&opts.cfg, WorkloadKind::Ycsb, 2, 3, 4);
        // YCSB 4 KiB reads: base ~110 µs, P99 under queueing somewhere
        // below 50 ms on two channels.
        assert!(slo > SimDuration::from_micros(100), "slo {slo}");
        assert!(slo < SimDuration::from_millis(50), "slo {slo}");
    }

    #[test]
    fn run_collocation_produces_metrics() {
        let opts = tiny_opts();
        let peak = measure_device_peak(&opts.cfg, 3);
        let tenants = hardware_layout(
            &opts.cfg,
            &[WorkloadKind::Ycsb, WorkloadKind::TeraSort],
            &[Some(SimDuration::from_millis(2)), None],
            opts.seed,
        );
        let mut policy = crate::baselines::StaticPolicy::hardware();
        let m = run_collocation(&mut policy, tenants, &opts, peak, None);
        assert_eq!(m.tenants.len(), 2);
        assert!(
            m.avg_utilization > 0.0 && m.avg_utilization <= 1.2,
            "{}",
            m.avg_utilization
        );
        assert!(m.bi_bandwidth().unwrap() > 0.0);
        assert!(m.lc_p99().unwrap() > SimDuration::ZERO);
        assert_eq!(m.policy, "hardware-isolation");
    }

    #[test]
    fn window_hook_fires_each_measured_window() {
        let opts = tiny_opts();
        let tenants = hardware_layout(&opts.cfg, &[WorkloadKind::Ycsb], &[None], opts.seed);
        let mut policy = crate::baselines::StaticPolicy::hardware();
        let mut seen = Vec::new();
        let mut hook = |w: usize, _c: &mut Colocation| seen.push(w);
        let _ = run_collocation(&mut policy, tenants, &opts, 1e9, Some(&mut hook));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn run_metrics_helpers_pick_categories() {
        let t = |kind: WorkloadKind, bw: f64, p99_us: u64| TenantMetrics {
            id: VssdId(0),
            kind,
            avg_bandwidth: bw,
            p95: SimDuration::from_micros(p99_us / 2),
            p99: SimDuration::from_micros(p99_us),
            p999: SimDuration::from_micros(p99_us * 2),
            slo_violation_rate: 0.0,
            requests: 100,
        };
        let m = RunMetrics {
            policy: "x".into(),
            tenants: vec![
                t(WorkloadKind::Ycsb, 1e7, 800),
                t(WorkloadKind::TeraSort, 4e8, 5_000),
                t(WorkloadKind::PageRank, 6e8, 6_000),
            ],
            avg_utilization: 0.5,
            p95_utilization: 0.6,
            total_bandwidth: 1.01e9,
        };
        // BI mean over the two analytics tenants only.
        assert!((m.bi_bandwidth().unwrap() - 5e8).abs() < 1.0);
        // LC P99 over the single latency tenant.
        assert_eq!(m.lc_p99().unwrap(), SimDuration::from_micros(800));
    }

    #[test]
    fn feature_windows_capture_workload_character() {
        let opts = tiny_opts();
        let f = workload_feature_windows(&opts.cfg, WorkloadKind::Ycsb, 2, 4, 1000, 5);
        assert!(!f.is_empty());
        // YCSB: small requests.
        assert!(
            f[0].avg_io_size < 32.0 * 1024.0,
            "size {}",
            f[0].avg_io_size
        );
    }

    /// More requests than [`TRACE_CAP`]: the collecting tenant's ring
    /// must not halve itself before it holds them, or the loop never
    /// sees enough and runs all 4 096 windows to return too few. 100-ms
    /// windows of YCSB stop within a few hundred requests of the goal.
    #[test]
    fn feature_collection_past_the_default_cap_stops_once_it_has_enough() {
        let mut cfg = tiny_opts().cfg;
        cfg.decision_interval = SimDuration::from_millis(100);
        let (windows, reqs) = (11, 10_000);
        let needed = windows * reqs;
        assert!(needed > TRACE_CAP);
        let mut coloc = solo_colocation(&cfg, WorkloadKind::Ycsb, 2, 5, 0.3);
        let ran = trace_requests(&mut coloc, needed);
        let trace = coloc.trace_of(VssdId(0));
        assert!(trace.len() >= needed, "{} of {needed}", trace.len());
        // Nothing was dropped, and one window fewer had not been enough.
        assert!(trace[0].at < SimTime::ZERO + cfg.decision_interval);
        let last = SimTime::from_nanos(cfg.decision_interval.as_nanos() * (ran as u64 - 1));
        assert!(trace.iter().filter(|r| r.at < last).count() < needed);
        let f = workload_feature_windows(&cfg, WorkloadKind::Ycsb, 2, windows, reqs, 5);
        assert_eq!(f.len(), windows);
    }
}
