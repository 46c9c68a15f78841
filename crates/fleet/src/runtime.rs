//! The fleet runtime: shards on the shared work queue, one deterministic
//! control plane at every window boundary.
//!
//! # Determinism argument
//!
//! Shards share no state while a window runs — each engine advances its
//! own simulated clock against its own slots, so a shard's window
//! report (and its obs stream) is a pure function of the spec, the
//! seed, and the control-plane inputs applied at the boundary. The queue
//! ([`fleetio_des::par`]) returns reports by shard index whichever
//! worker ran them and in whatever order they were claimed; the merge
//! then reads them **in shard-index order**. No host time, no
//! channel-recv ordering, no thread identity ever feeds a decision, so
//! the worker count can only change wall-clock time, never results —
//! which the determinism test matrix (1/2/3/8/32 workers) pins.

use fleetio::actions::AgentAction;
use fleetio::agent::PretrainedModel;
use fleetio::bank::PolicyBank;
use fleetio::config::FleetIoConfig;
use fleetio::states::StateVector;
use fleetio::warmstart::warm_start_model;
use fleetio_des::par;
use fleetio_des::rng::{derive_seed_indexed, SmallRng};
use fleetio_flash::addr::ChannelId;
use fleetio_model::ModelRegistry;
use fleetio_obs::slo::health_report;
use fleetio_obs::{FleetMigration, ObsEvent, ObsSink, SeriesSet, SloWindow};
use fleetio_rl::{ObsNormalizer, PpoPolicy};
use fleetio_vssd::engine::EngineConfig;
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::features::windowed_features;
use fleetio_workloads::{TraceRecord, WorkloadKind};

use crate::control::{plan_migrations, ControlConfig, MigrationDecision, SlotAddr, SlotLoad};
use crate::health::FleetObs;
use crate::shard::{Shard, ShardWindowReport};
use crate::sink::FingerprintSink;
use crate::spec::FleetSpec;

/// Trace records per feature window when classifying a migrating
/// tenant for model warm-start.
const TYPING_WINDOW: usize = 64;

#[derive(Debug, Clone, Copy)]
struct TenantMeta {
    kind: WorkloadKind,
    seed: u64,
    location: SlotAddr,
    /// Phase rotation applied at every attach (the tenant starts
    /// mid-job; see [`crate::FleetTenantSpec::phase_rotation`]).
    phase_rotation: u32,
    /// Attach count; generator streams derive from it so a tenant's
    /// traffic after its n-th move is independent of where it ran
    /// before.
    epoch: u32,
    /// Windows left before the tenant may migrate again.
    cooldown: u32,
}

/// One window's merged fleet view.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWindowReport {
    /// Window index (0-based).
    pub window: u32,
    /// Per-shard utilization (fraction of shard peak bandwidth).
    pub shard_utils: Vec<f64>,
    /// Migrations executed at the boundary *entering* this window.
    pub executed: Vec<MigrationDecision>,
    /// Migrations planned from this window's statistics (they execute
    /// at the next boundary).
    pub planned: Vec<MigrationDecision>,
    /// Operations completed fleet-wide this window.
    pub total_ops: u64,
    /// Bytes moved fleet-wide this window.
    pub total_bytes: u64,
    /// Cumulative engine events processed across all shards.
    pub events_processed: u64,
}

impl FleetWindowReport {
    /// Max − min shard utilization: the load spread the consolidation
    /// loop tries to shrink.
    pub fn util_spread(&self) -> f64 {
        let max = self.shard_utils.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min = self.shard_utils.iter().fold(f64::MAX, |a, &b| a.min(b));
        max - min
    }
}

/// A whole run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Every window's merged view, in order.
    pub windows: Vec<FleetWindowReport>,
    /// Every executed migration, in execution order.
    pub migrations: Vec<MigrationDecision>,
    /// Cumulative engine events processed across all shards.
    pub events_processed: u64,
    /// Operations completed fleet-wide over the run.
    pub total_ops: u64,
}

/// A frozen fallback model with FleetIO's deployment dimensions and a
/// passthrough normalizer — a fleet's model zero when no pre-trained
/// checkpoint is supplied. Seeded, so fleets are reproducible without a
/// registry on disk.
pub fn default_model(seed: u64) -> PretrainedModel {
    let cfg = FleetIoConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PpoPolicy::new(
        cfg.obs_dim(),
        &cfg.action_dims(),
        &cfg.hidden_layers,
        &mut rng,
    );
    let mut normalizer = ObsNormalizer::new(cfg.obs_dim(), 10.0);
    normalizer.freeze();
    PretrainedModel { policy, normalizer }
}

/// Many shards + control plane. See the module docs.
#[derive(Debug)]
pub struct FleetRuntime {
    spec: FleetSpec,
    shards: Vec<Shard>,
    tenants: Vec<TenantMeta>,
    bank: PolicyBank,
    registry: Option<ModelRegistry>,
    workers: usize,
    /// Engine events each shard processed in its previous window: the
    /// claim-order key of [`FleetRuntime::advance_shards`]. Host-only —
    /// it schedules threads and feeds nothing simulated.
    shard_cost: Vec<u64>,
    window_idx: u32,
    pending_actions: Vec<(u32, AgentAction)>,
    pending_migrations: Vec<MigrationDecision>,
    /// Windows each slot still drains a detached tenant's in-flight
    /// requests before it may host again.
    slot_hold: Vec<Vec<u32>>,
    migration_log: Vec<MigrationDecision>,
    obs: FleetObs,
    /// Every `slo_window` and `fleet_migration` row emitted into the
    /// shard sinks so far, in emission order: the input of
    /// [`FleetRuntime::health_report`] and [`FleetRuntime::slo_verdicts`].
    slo_rows: Vec<SloWindow>,
    migration_rows: Vec<FleetMigration>,
}

impl FleetRuntime {
    /// Builds the fleet: shards with hardware-isolated slots, warmed to
    /// the spec's fill fraction, tenants attached per the spec's
    /// placement at epoch 0, all running `model` until a migration
    /// warm-starts something better.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails [`FleetSpec::validate`].
    pub fn new(spec: &FleetSpec, model: PretrainedModel, workers: usize) -> Self {
        if let Err(msg) = spec.validate() {
            panic!("invalid fleet spec: {msg}");
        }
        let cps = spec.channels_per_slot();
        let mut shards: Vec<Shard> = (0..spec.shards)
            .map(|s| {
                let slots = (0..spec.slots_per_shard)
                    .map(|l| {
                        let channels = (l as u16 * cps..(l as u16 + 1) * cps)
                            .map(ChannelId)
                            .collect();
                        let mut cfg = VssdConfig::hardware(VssdId(l), channels);
                        if let Some(slo) = spec.slot_slo {
                            cfg = cfg.with_slo(slo);
                        }
                        cfg
                    })
                    .collect();
                let engine_cfg = EngineConfig {
                    flash: spec.flash.config(),
                    ..EngineConfig::default()
                };
                Shard::new(s, engine_cfg, slots, spec.window)
            })
            .collect();
        let workers = workers.max(1);
        // Warm-ups touch one shard each; attaching below stays serial.
        par::map_mut(&mut shards, workers, 0..spec.shards as usize, |_, shard| {
            shard.warm_up_all(spec.warm_fraction);
        });
        let placement = spec.initial_placement();
        let tenants: Vec<TenantMeta> = spec
            .tenants
            .iter()
            .zip(&placement)
            .map(|(t, &location)| TenantMeta {
                kind: t.kind,
                seed: t.seed,
                location,
                phase_rotation: t.phase_rotation,
                epoch: 0,
                cooldown: 0,
            })
            .collect();
        for (i, meta) in tenants.iter().enumerate() {
            let seed = derive_seed_indexed(meta.seed, "fleet-attach", 0);
            shards[meta.location.shard as usize].attach(
                meta.location.slot as usize,
                i as u32,
                meta.kind,
                seed,
                meta.phase_rotation,
            );
        }
        let history = FleetIoConfig::default().history_windows;
        FleetRuntime {
            shards,
            bank: PolicyBank::new(model, tenants.len(), history),
            tenants,
            registry: None,
            workers,
            shard_cost: vec![0; spec.shards as usize],
            window_idx: 0,
            pending_actions: Vec::new(),
            pending_migrations: Vec::new(),
            slot_hold: vec![vec![0; spec.slots_per_shard as usize]; spec.shards as usize],
            migration_log: Vec::new(),
            obs: FleetObs::new(spec),
            slo_rows: Vec::new(),
            migration_rows: Vec::new(),
            spec: spec.clone(),
        }
    }

    /// Attaches a model registry: migrating tenants are then classified
    /// from their trace and warm-started from the matching checkpoint
    /// (`fleetio::warmstart`). Every slot keeps its trace from here on,
    /// the only reader being that classification. Without a registry no
    /// trace is kept, and migration keeps the tenant's current model and
    /// just resets its history.
    pub fn set_registry(&mut self, registry: ModelRegistry) {
        for shard in &mut self.shards {
            shard.keep_traces(TYPING_WINDOW);
        }
        self.registry = Some(registry);
    }

    /// The spec this fleet was built from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Worker threads used to advance shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executed migrations so far, in execution order.
    pub fn migration_log(&self) -> &[MigrationDecision] {
        &self.migration_log
    }

    /// The fleet's SLO + time-series observability state.
    pub fn obs(&self) -> &FleetObs {
        &self.obs
    }

    /// Renders the fleet health report for the run so far from the
    /// rows emitted into the shard sinks: byte-identical to
    /// `fleetio obs report` over the per-shard stores, and for same-seed
    /// runs at any worker count.
    pub fn health_report(&self) -> String {
        health_report(
            self.slo_rows.iter().cloned(),
            self.migration_rows.iter().cloned(),
        )
    }

    /// The recorded windowed time-series (util, queue depth, latency
    /// percentiles, GC/harvest rates, migrations per window).
    pub fn series(&self) -> &SeriesSet {
        self.obs.series()
    }

    /// All of `tenant`'s SLO window rows so far, window order.
    pub fn slo_verdicts(&self, tenant: u32) -> impl Iterator<Item = &SloWindow> {
        self.slo_rows.iter().filter(move |row| row.tenant == tenant)
    }

    /// The slot `tenant` currently occupies.
    pub fn tenant_location(&self, tenant: u32) -> SlotAddr {
        self.tenants[tenant as usize].location
    }

    /// Installs a [`FingerprintSink`] on every shard.
    pub fn install_fingerprint_sinks(&mut self) {
        for shard in &mut self.shards {
            let _ = shard
                .engine_mut()
                .set_obs_sink(Box::new(FingerprintSink::new()));
        }
    }

    /// Removes the per-shard fingerprint sinks, returning each shard's
    /// `(fingerprint, event_count)` in shard order.
    ///
    /// # Panics
    ///
    /// Panics if a shard's sink is not a [`FingerprintSink`].
    pub fn take_fingerprints(&mut self) -> Vec<(u64, u64)> {
        self.shards
            .iter_mut()
            .map(|s| {
                let sink = s
                    .engine_mut()
                    .take_obs_sink()
                    .into_any()
                    .downcast::<FingerprintSink>()
                    .expect("shard sink is a FingerprintSink");
                (sink.fingerprint(), sink.event_count())
            })
            .collect()
    }

    /// Installs `sink` on shard `shard`, returning the previous one
    /// (store wiring: one `StoreSink` per shard).
    pub fn set_shard_sink(&mut self, shard: usize, sink: Box<dyn ObsSink>) -> Box<dyn ObsSink> {
        self.shards[shard].engine_mut().set_obs_sink(sink)
    }

    /// Removes shard `shard`'s sink for export.
    pub fn take_shard_sink(&mut self, shard: usize) -> Box<dyn ObsSink> {
        self.shards[shard].engine_mut().take_obs_sink()
    }

    /// Runs the spec's full window count.
    pub fn run(&mut self) -> FleetReport {
        let mut windows = Vec::with_capacity(self.spec.windows as usize);
        for _ in 0..self.spec.windows {
            windows.push(self.run_window());
        }
        let events_processed = windows.last().map_or(0, |w| w.events_processed);
        let total_ops = windows.iter().map(|w| w.total_ops).sum();
        FleetReport {
            windows,
            migrations: self.migration_log.clone(),
            events_processed,
            total_ops,
        }
    }

    /// One decision window: execute the previous merge's migrations,
    /// apply its actions, advance every shard in parallel, then merge
    /// serially in shard-index order.
    pub fn run_window(&mut self) -> FleetWindowReport {
        let _prof = fleetio_obs::prof::span("fleet.window");
        let executed = self.execute_pending_migrations();
        self.apply_pending_actions();
        let reports = self.advance_shards();
        let report = self.merge(executed, &reports);
        self.window_idx += 1;
        report
    }

    /// Executes the migrations planned at the previous merge: detach at
    /// the source (in-flight requests drain over the coming window),
    /// classify the tenant's trace for a warm-started model, re-attach
    /// at the destination under a fresh epoch-derived seed.
    fn execute_pending_migrations(&mut self) -> Vec<MigrationDecision> {
        let pending = std::mem::take(&mut self.pending_migrations);
        let mut executed = Vec::with_capacity(pending.len());
        for m in pending {
            let (tenant, trace) = self.shards[m.from.shard as usize].detach(m.from.slot as usize);
            debug_assert_eq!(tenant, m.tenant, "planned tenant occupies the source slot");
            self.slot_hold[m.from.shard as usize][m.from.slot as usize] = 1;
            let (kind, attach_seed, rotation) = {
                let meta = &mut self.tenants[tenant as usize];
                meta.epoch += 1;
                meta.location = m.to;
                meta.cooldown = self.spec.migration_cooldown;
                (
                    meta.kind,
                    derive_seed_indexed(meta.seed, "fleet-attach", u64::from(meta.epoch)),
                    meta.phase_rotation,
                )
            };
            self.warm_start_tenant(tenant, &trace, m.from);
            self.shards[m.to.shard as usize].attach(
                m.to.slot as usize,
                tenant,
                kind,
                attach_seed,
                rotation,
            );
            // Annotated migration event into the *source* shard's obs
            // stream — this phase is serial, so the stream stays
            // deterministic across worker counts.
            let engine = self.shards[m.from.shard as usize].engine_mut();
            let row = FleetMigration {
                at: engine.now(),
                window: m.window,
                tenant: m.tenant,
                from_shard: m.from.shard,
                from_slot: m.from.slot,
                to_shard: m.to.shard,
                to_slot: m.to.slot,
                cause: m.cause,
                mean_util: m.mean_util,
                src_util: m.src_util,
                dst_util: m.dst_util,
                src_util_after: m.src_util_after,
                dst_util_after: m.dst_util_after,
            };
            engine.emit_obs(ObsEvent::FleetMigration(Box::new(row.clone())));
            self.migration_rows.push(row);
            self.migration_log.push(m);
            executed.push(m);
        }
        executed
    }

    /// The §3.7 attach path for a migrating tenant: windowed features
    /// from its collected trace → typing index → tagged checkpoint. Any
    /// miss (no registry, short trace, unknown type, missing
    /// checkpoint) keeps the current model; the history resets either
    /// way because the stacked windows describe the old placement.
    fn warm_start_tenant(&mut self, tenant: u32, trace: &[TraceRecord], from: SlotAddr) {
        if let Some(registry) = &self.registry {
            let capacity = self.shards[from.shard as usize].slot_capacity_bytes(from.slot as usize);
            let features = windowed_features(trace, capacity, TYPING_WINDOW);
            if let Some(last) = features.last() {
                if let Ok(Some((tag, model, _fell_back))) = warm_start_model(registry, last) {
                    self.bank.assign(tenant, &tag, model);
                    return;
                }
            }
        }
        self.bank.reset_history(tenant);
    }

    /// Applies the previous window's RL decisions at each tenant's
    /// current slot. Tenants that just migrated were re-attached with a
    /// reset history; their stale action (decided against the old
    /// placement) is dropped.
    fn apply_pending_actions(&mut self) {
        let actions = std::mem::take(&mut self.pending_actions);
        for (tenant, action) in actions {
            if self.tenants[tenant as usize].epoch > 0
                && self
                    .migration_log
                    .last()
                    .is_some_and(|m| m.tenant == tenant && m.window + 1 == self.window_idx)
            {
                continue;
            }
            let at = self.tenants[tenant as usize].location;
            self.shards[at.shard as usize].apply_action(at.slot as usize, action);
        }
    }

    /// Advances every shard one window on the shared work queue
    /// ([`par::map_mut`]), heaviest first: shards are claimed by
    /// descending event count of their previous window (index order in
    /// window 0), so packed load at low indices spreads over all workers
    /// instead of landing on the first contiguous chunk. The order only
    /// decides which thread runs what; reports come back in shard-index
    /// order. Deliberately free of float arithmetic — all merging math
    /// runs serially afterwards.
    fn advance_shards(&mut self) -> Vec<ShardWindowReport> {
        let order = par::heavy_first(&self.shard_cost);
        let reports = par::map_mut(&mut self.shards, self.workers, order, |_, shard| {
            let _prof = fleetio_obs::prof::span("fleet.shard");
            let before = shard.engine().events_processed();
            let report = shard.run_window();
            (report.events_processed - before, report)
        });
        let (costs, reports) = reports.into_iter().unzip();
        self.shard_cost = costs;
        reports
    }

    /// The serial window merge, shard-index order throughout: extract
    /// per-tenant states (shared terms sum over each shard's resident
    /// tenants, as in `fleetio::states::extract_states`), batch-infer
    /// next-window actions, compute utilizations, plan next-boundary
    /// migrations.
    fn merge(
        &mut self,
        executed: Vec<MigrationDecision>,
        reports: &[ShardWindowReport],
    ) -> FleetWindowReport {
        let _prof = fleetio_obs::prof::span("fleet.merge");
        // Expire slot drains and tenant cooldowns that covered this
        // window.
        for holds in &mut self.slot_hold {
            for h in holds.iter_mut() {
                *h = h.saturating_sub(1);
            }
        }
        for meta in &mut self.tenants {
            meta.cooldown = meta.cooldown.saturating_sub(1);
        }

        let mut states: Vec<(u32, StateVector)> = Vec::new();
        let mut utils = Vec::with_capacity(reports.len());
        let mut loads: Vec<Vec<Option<SlotLoad>>> = Vec::with_capacity(reports.len());
        let mut usable: Vec<Vec<bool>> = Vec::with_capacity(reports.len());
        let mut total_ops = 0u64;
        let mut total_bytes = 0u64;
        let mut events_processed = 0u64;
        let shard_peak = self.spec.shard_peak_bytes_per_sec();
        for (s, report) in reports.iter().enumerate() {
            debug_assert_eq!(report.shard as usize, s, "reports in shard order");
            let resident: Vec<(usize, u32)> = report
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(slot, t)| t.map(|t| (slot, t)))
                .collect();
            let total_iops: f64 = resident
                .iter()
                .map(|&(slot, _)| report.summaries[slot].1.avg_iops)
                .sum();
            let total_vio: f64 = resident
                .iter()
                .map(|&(slot, _)| report.summaries[slot].1.slo_violation_rate)
                .sum();
            for &(slot, tenant) in &resident {
                let w = &report.summaries[slot].1;
                states.push((
                    tenant,
                    StateVector::from_window(
                        w,
                        &report.snapshots[slot],
                        total_iops - w.avg_iops,
                        total_vio - w.slo_violation_rate,
                    ),
                ));
            }
            let bw: f64 = report.summaries.iter().map(|(_, w)| w.avg_bandwidth).sum();
            utils.push(bw / shard_peak);
            loads.push(
                report
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(slot, t)| {
                        t.map(|tenant| SlotLoad {
                            tenant,
                            bytes_per_sec: report.summaries[slot].1.avg_bandwidth,
                            movable: self.tenants[tenant as usize].cooldown == 0,
                        })
                    })
                    .collect(),
            );
            usable.push(
                report
                    .tenants
                    .iter()
                    .enumerate()
                    .map(|(slot, t)| t.is_none() && self.slot_hold[s][slot] == 0)
                    .collect(),
            );
            for (_, w) in &report.summaries {
                total_ops += w.total_ops;
                total_bytes += w.total_bytes;
            }
            events_processed += report.events_processed;
        }

        // States arrive in (shard, slot) order; the bank sorts its
        // output by tenant, so action order is placement-independent.
        self.pending_actions = self.bank.decide_all(&states);

        let control = ControlConfig {
            hot_util: self.spec.hot_util,
            spread_factor: self.spec.spread_factor,
            max_migrations: self.spec.max_migrations_per_window,
            shard_peak,
        };
        // The control plane holds fire through the spec's burn-in
        // windows; the start-up transient (cold caches, first RL
        // actions) should not drive placement.
        let planned = if self.window_idx < self.spec.migration_warmup {
            Vec::new()
        } else {
            plan_migrations(&control, self.window_idx, &utils, &loads, &usable)
        };
        self.pending_migrations = planned.clone();

        // SLO accounting + time-series, then per-tenant verdict events
        // into each tenant's resident shard. Still inside the serial
        // merge: stream content is worker-count independent.
        let outcomes = self
            .obs
            .record_window(self.window_idx, reports, &utils, executed.len());
        for o in outcomes {
            let engine = self.shards[o.shard as usize].engine_mut();
            let row = SloWindow {
                at: engine.now(),
                tenant: o.tenant,
                window: o.verdict.window,
                ops: o.verdict.ops,
                p95: o.verdict.p95,
                p99: o.verdict.p99,
                throughput: o.verdict.throughput,
                p95_ok: o.verdict.p95_ok,
                p99_ok: o.verdict.p99_ok,
                throughput_ok: o.verdict.throughput_ok,
                burn: o.burn,
            };
            engine.emit_obs(ObsEvent::SloWindow(Box::new(row.clone())));
            self.slo_rows.push(row);
        }

        FleetWindowReport {
            window: self.window_idx,
            shard_utils: utils,
            executed,
            planned,
            total_ops,
            total_bytes,
            events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetSpec, FleetTenantSpec, Placement};

    /// A 2-shard × 2-slot miniature with an engineered hot shard: two
    /// closed-loop heavies packed on shard 0, one light tenant on
    /// shard 1, one free slot as headroom.
    fn mini_hotspot(seed: u64) -> FleetSpec {
        let mut spec = FleetSpec::sized(seed, 2, 2, 3);
        spec.tenants = vec![
            FleetTenantSpec {
                kind: WorkloadKind::TeraSort,
                seed: 101,
                slo: Some(FleetSpec::default_tenant_slo()),
                phase_rotation: 0,
            },
            FleetTenantSpec {
                kind: WorkloadKind::MlPrep,
                seed: 102,
                slo: Some(FleetSpec::default_tenant_slo()),
                phase_rotation: 0,
            },
            FleetTenantSpec {
                kind: WorkloadKind::Ycsb,
                seed: 103,
                slo: Some(FleetSpec::default_tenant_slo()),
                phase_rotation: 0,
            },
        ];
        spec.placement = Placement::Packed;
        spec.windows = 4;
        spec.hot_util = 0.3;
        spec.spread_factor = 1.2;
        spec.migration_cooldown = 2;
        spec
    }

    #[test]
    fn fleet_runs_and_reports_every_window() {
        let spec = FleetSpec::sized(5, 2, 2, 3);
        let mut rt = FleetRuntime::new(&spec, default_model(1), 2);
        let report = rt.run();
        assert_eq!(report.windows.len(), spec.windows as usize);
        assert!(report.total_ops > 0);
        assert!(report.events_processed > 0);
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(w.window as usize, i);
            assert_eq!(w.shard_utils.len(), 2);
        }
    }

    #[test]
    fn hotspot_triggers_migration_and_shrinks_spread() {
        let spec = mini_hotspot(9);
        let mut rt = FleetRuntime::new(&spec, default_model(1), 2);
        let report = rt.run();
        assert!(
            !report.migrations.is_empty(),
            "hot shard must shed a tenant: {:?}",
            report.windows
        );
        let first = report.windows.first().expect("windows").util_spread();
        let last = report.windows.last().expect("windows").util_spread();
        assert!(
            last < first,
            "load spread must shrink: first {first:.3} last {last:.3}"
        );
        // The migrated tenant restarted in a usable slot and the log
        // agrees with the runtime's placement map.
        let m = report.migrations[0];
        assert_eq!(rt.tenant_location(m.tenant), m.to);
    }

    #[test]
    fn shards_are_claimed_by_their_previous_window_events() {
        // One slot per shard: the light tenant on shard 0, the busier
        // one on shard 1.
        let mut spec = FleetSpec::sized(17, 2, 1, 2);
        spec.tenants[0].kind = WorkloadKind::VdiWeb;
        spec.tenants[1].kind = WorkloadKind::Ycsb;
        spec.placement = Placement::Packed;
        let mut rt = FleetRuntime::new(&spec, default_model(1), 2);
        assert_eq!(par::heavy_first(&rt.shard_cost), vec![0, 1], "window 0");
        let first = rt.run_window();
        assert_eq!(rt.shard_cost.iter().sum::<u64>(), first.events_processed);
        assert_eq!(
            par::heavy_first(&rt.shard_cost),
            vec![1, 0],
            "window 1 claims the busier shard first: {:?}",
            rt.shard_cost
        );
        // The key is the last window's events, not the cumulative count.
        let second = rt.run_window();
        assert_eq!(
            rt.shard_cost.iter().sum::<u64>(),
            second.events_processed - first.events_processed
        );
    }

    #[test]
    fn only_a_registry_keeps_traces() {
        let spec = mini_hotspot(11);
        let traced = |registry: bool| {
            let mut rt = FleetRuntime::new(&spec, default_model(1), 1);
            let dir = std::env::temp_dir()
                .join(format!("fleetio-runtime-registry-{}", std::process::id()));
            if registry {
                rt.set_registry(ModelRegistry::open(&dir));
            }
            rt.run_window();
            let _ = std::fs::remove_dir_all(&dir);
            let at = rt.tenant_location(2);
            !rt.shards[at.shard as usize]
                .trace_at(at.slot as usize)
                .is_empty()
        };
        assert!(traced(true));
        assert!(!traced(false));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = mini_hotspot(13);
        let run = |workers: usize| {
            let mut rt = FleetRuntime::new(&spec, default_model(1), workers);
            rt.install_fingerprint_sinks();
            let report = rt.run();
            (report, rt.take_fingerprints())
        };
        let (r1, f1) = run(1);
        let (r2, f2) = run(2);
        assert_eq!(r1, r2, "window reports differ across worker counts");
        assert_eq!(f1, f2, "obs fingerprints differ across worker counts");
        assert!(f1.iter().all(|&(_, events)| events > 0));
    }
}
