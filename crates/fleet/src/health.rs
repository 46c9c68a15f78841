//! Fleet-wide SLO accounting and windowed time-series.
//!
//! [`FleetObs`] is the measurement side of the control plane: it owns
//! one [`SloTracker`] per SLO-carrying tenant, the fixed-capacity
//! windowed time-series ([`fleetio_obs::SeriesSet`]) and the fleet-wide
//! merged latency histogram. The runtime feeds it once per window from
//! the **serial** merge — inputs arrive in shard-index order and every
//! fold below preserves that order, so a same-seed run produces
//! byte-identical verdicts and series export for any worker count. The
//! health report is not kept here: it is
//! [`fleetio_obs::slo::health_report`] over the rows the runtime emits.
//!
//! Overhead envelope: one histogram clone per slot per window (done in
//! the parallel shard phase), one `merge` + two percentile scans per
//! slot at the serial merge, and one ring write per registered series.
//! Past the returned outcome list, nothing here allocates in the steady
//! state.

use fleetio_des::{LatencyHistogram, SimDuration};
use fleetio_obs::{SeriesId, SeriesSet, SloTracker, WindowVerdict};

use crate::shard::ShardWindowReport;
use crate::spec::FleetSpec;

/// One tenant's SLO outcome for one window, produced at the merge.
/// `shard`/`slot` locate the tenant's residence (where its obs events
/// are emitted); `burn` is the tracker's rolling violation fraction
/// *after* this window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloOutcome {
    /// The tenant.
    pub tenant: u32,
    /// Resident shard this window.
    pub shard: u32,
    /// Resident slot this window.
    pub slot: u32,
    /// The window's verdict.
    pub verdict: WindowVerdict,
    /// Rolling violation fraction after this window.
    pub burn: f64,
}

/// Fleet observability state: per-tenant SLO trackers and windowed
/// series. See the module docs.
#[derive(Debug)]
pub struct FleetObs {
    window_len: SimDuration,
    /// One tracker per tenant; `None` = tenant has no SLO.
    trackers: Vec<Option<SloTracker>>,
    series: SeriesSet,
    tenant_p95: Vec<SeriesId>,
    tenant_p99: Vec<SeriesId>,
    shard_util: Vec<SeriesId>,
    shard_queue: Vec<SeriesId>,
    fleet_p95: SeriesId,
    fleet_p99: SeriesId,
    fleet_gc_events: SeriesId,
    fleet_harvested: SeriesId,
    fleet_migrations: SeriesId,
    /// Scratch for the cross-shard histogram merge (cleared per window).
    fleet_hist: LatencyHistogram,
}

impl FleetObs {
    /// Builds the observability state for `spec`: registers every
    /// series with capacity for the spec's window count and installs a
    /// tracker for each tenant that carries an [`fleetio_obs::SloSpec`].
    pub fn new(spec: &FleetSpec) -> Self {
        let cap = spec.windows.max(1) as usize;
        let mut series = SeriesSet::new();
        let tenant_p95 = (0..spec.tenants.len())
            .map(|t| series.register(&format!("tenant{t}.p95_ns"), cap))
            .collect();
        let tenant_p99 = (0..spec.tenants.len())
            .map(|t| series.register(&format!("tenant{t}.p99_ns"), cap))
            .collect();
        let shard_util = (0..spec.shards)
            .map(|s| series.register(&format!("shard{s}.util"), cap))
            .collect();
        let shard_queue = (0..spec.shards)
            .map(|s| series.register(&format!("shard{s}.queue_depth"), cap))
            .collect();
        let fleet_p95 = series.register("fleet.p95_ns", cap);
        let fleet_p99 = series.register("fleet.p99_ns", cap);
        let fleet_gc_events = series.register("fleet.gc_events", cap);
        let fleet_harvested = series.register("fleet.harvested_channels", cap);
        let fleet_migrations = series.register("fleet.migrations", cap);
        FleetObs {
            window_len: spec.window,
            trackers: spec
                .tenants
                .iter()
                .map(|t| t.slo.map(SloTracker::new))
                .collect(),
            series,
            tenant_p95,
            tenant_p99,
            shard_util,
            shard_queue,
            fleet_p95,
            fleet_p99,
            fleet_gc_events,
            fleet_harvested,
            fleet_migrations,
            fleet_hist: LatencyHistogram::new(),
        }
    }

    /// Folds one window's shard reports into trackers and series.
    /// `reports` and `utils` arrive in shard-index order from the
    /// serial merge; the returned outcomes follow (shard, slot) order.
    pub fn record_window(
        &mut self,
        window: u32,
        reports: &[ShardWindowReport],
        utils: &[f64],
        executed_migrations: usize,
    ) -> Vec<SloOutcome> {
        let mut outcomes = Vec::new();
        let mut gc_events = 0u64;
        let mut harvested = 0u64;
        self.fleet_hist.clear();
        for (s, report) in reports.iter().enumerate() {
            self.series.push(self.shard_util[s], window, utils[s]);
            self.series
                .push(self.shard_queue[s], window, report.queue_depth as f64);
            for (slot, hist) in report.latencies.iter().enumerate() {
                // Per-shard partial histograms merge in shard-index
                // (then slot) order — the fleet-wide percentile is a
                // pure fold over the ordered reports.
                self.fleet_hist.merge(hist);
                let Some(tenant) = report.tenants[slot] else {
                    continue;
                };
                let Some(tracker) = &mut self.trackers[tenant as usize] else {
                    continue;
                };
                let bytes = report.summaries[slot].1.total_bytes;
                let verdict = tracker.observe(window, hist, bytes, self.window_len);
                self.series.push(
                    self.tenant_p95[tenant as usize],
                    window,
                    verdict.p95.as_nanos() as f64,
                );
                self.series.push(
                    self.tenant_p99[tenant as usize],
                    window,
                    verdict.p99.as_nanos() as f64,
                );
                outcomes.push(SloOutcome {
                    tenant,
                    shard: report.shard,
                    slot: slot as u32,
                    verdict,
                    burn: tracker.burn_rate(),
                });
            }
            for (_, w) in &report.summaries {
                gc_events += w.gc_events;
            }
            for snap in &report.snapshots {
                harvested += snap.harvested_channels as u64;
            }
        }
        let p95 = self
            .fleet_hist
            .percentile(95.0)
            .unwrap_or(SimDuration::ZERO);
        let p99 = self
            .fleet_hist
            .percentile(99.0)
            .unwrap_or(SimDuration::ZERO);
        self.series
            .push(self.fleet_p95, window, p95.as_nanos() as f64);
        self.series
            .push(self.fleet_p99, window, p99.as_nanos() as f64);
        self.series
            .push(self.fleet_gc_events, window, gc_events as f64);
        self.series
            .push(self.fleet_harvested, window, harvested as f64);
        self.series
            .push(self.fleet_migrations, window, executed_migrations as f64);
        outcomes
    }

    /// The recorded time-series.
    pub fn series(&self) -> &SeriesSet {
        &self.series
    }
}
