//! The collocation driver: workloads × vSSDs × engine, window by window.
//!
//! Latency-sensitive workloads replay open-loop (timed Poisson arrivals);
//! bandwidth-intensive workloads run closed-loop (a target number of
//! outstanding requests, §see `fleetio-workloads`). The driver advances
//! the engine in small ticks so closed-loop sources are topped up promptly
//! after completions, and freezes per-vSSD window summaries at each
//! decision boundary.

use fleetio_des::window::WindowSummary;
use fleetio_des::{SimDuration, SimTime};
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::request::{CompletedRequest, IoOp, IoRequest};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::gen::ClosedLoopWorkload;
use fleetio_workloads::{SyntheticWorkload, TraceRecord, WorkloadKind, WorkloadSpec};

/// One tenant of a collocation: a vSSD plus the workload running on it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The vSSD configuration (channels, isolation, SLO, throttling).
    pub config: VssdConfig,
    /// The workload to run.
    pub kind: WorkloadKind,
    /// Seed for the workload's random stream.
    pub seed: u64,
    /// The tenant's service-level objective (p95/p99 latency targets
    /// plus an optional throughput floor), evaluated per decision
    /// window by the fleet's SLO accounting. `None` exempts the tenant.
    /// Distinct from `config.slo`, the engine's per-request scheduling
    /// deadline.
    pub slo_spec: Option<fleetio_obs::SloSpec>,
}

impl TenantSpec {
    /// Convenience constructor (no window-level SLO).
    pub fn new(config: VssdConfig, kind: WorkloadKind, seed: u64) -> Self {
        TenantSpec {
            config,
            kind,
            seed,
            slo_spec: None,
        }
    }
}

/// The polling step of the window loop: sources are fed and topped up
/// once per tick.
const TICK: SimDuration = SimDuration::from_millis(1);
/// Requests a kept trace holds (see [`Colocation::keep_trace`]); the
/// oldest half is dropped when the ring fills.
pub const TRACE_CAP: usize = 100_000;

#[derive(Debug)]
enum Source {
    Open(SyntheticWorkload),
    Closed {
        gen: ClosedLoopWorkload,
        outstanding: u32,
    },
}

impl Source {
    /// The one place a spec becomes a request source. `start`
    /// fast-forwards an open-loop clock so no arrival predates it;
    /// `outstanding` is a closed loop's initial in-flight count.
    fn new(
        spec: WorkloadSpec,
        capacity: u64,
        seed: u64,
        outstanding: u32,
        start: Option<SimTime>,
    ) -> Self {
        if spec.is_closed_loop() {
            Source::Closed {
                gen: ClosedLoopWorkload::new(spec, capacity, seed),
                outstanding,
            }
        } else {
            let mut gen = SyntheticWorkload::new(spec, capacity, seed);
            if let Some(now) = start {
                while gen.next_until(now).is_some() {}
            }
            Source::Open(gen)
        }
    }
}

#[derive(Debug)]
struct Workload {
    kind: WorkloadKind,
    source: Source,
    /// The kept trace; stays empty (and unallocated) unless the vSSD
    /// keeps one.
    trace: Vec<TraceRecord>,
}

/// One registered vSSD. Without a workload it stays provisioned: its
/// windows flush as idle, and completions still arriving for it are a
/// detached workload's drain.
#[derive(Debug)]
struct Tenant {
    id: VssdId,
    /// The kept trace's ring size; zero, the default, keeps none.
    trace_cap: usize,
    workload: Option<Workload>,
}

/// A running collocation experiment.
#[derive(Debug)]
pub struct Colocation {
    engine: Engine,
    tenants: Vec<Tenant>,
    window: SimDuration,
    /// Reused per-tick buffer for the engine's completions.
    completed: Vec<CompletedRequest>,
}

impl Colocation {
    /// Builds a collocation on an engine described by `engine_cfg`, every
    /// tenant's workload attached at time zero.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (see [`Engine::new`]).
    pub fn new(engine_cfg: EngineConfig, tenants: Vec<TenantSpec>, window: SimDuration) -> Self {
        let configs = tenants.iter().map(|t| t.config.clone()).collect();
        let mut coloc = Colocation::vacant(engine_cfg, configs, window);
        for t in tenants {
            // Not fast-forwarded: an arrival at exactly 0 ns is served.
            coloc.install(t.config.id, t.kind, t.kind.spec(), t.seed, None);
        }
        coloc
    }

    /// Builds a collocation whose vSSDs all start without a workload
    /// (see [`Colocation::attach`]).
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (see [`Engine::new`]).
    pub fn vacant(engine_cfg: EngineConfig, configs: Vec<VssdConfig>, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let tenants = configs
            .iter()
            .map(|c| Tenant {
                id: c.id,
                trace_cap: 0,
                workload: None,
            })
            .collect();
        Colocation {
            engine: Engine::new(engine_cfg, configs),
            tenants,
            window,
            completed: Vec::new(),
        }
    }

    /// The engine, for policies that act on it.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The engine, read-only.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs an observability sink on the engine, returning the previous
    /// one. Every [`Colocation::run_window`] then streams the request
    /// lifecycle, NAND spans, GC/gSB activity and per-tenant window flushes
    /// into it; sinks never change simulation results.
    pub fn set_obs_sink(
        &mut self,
        sink: Box<dyn fleetio_obs::ObsSink>,
    ) -> Box<dyn fleetio_obs::ObsSink> {
        self.engine.set_obs_sink(sink)
    }

    /// Removes the engine's sink (restoring the no-op default) so its
    /// captured trace can be exported.
    pub fn take_obs_sink(&mut self) -> Box<dyn fleetio_obs::ObsSink> {
        self.engine.take_obs_sink()
    }

    /// Tenant ids in registration order.
    pub fn tenant_ids(&self) -> Vec<VssdId> {
        self.tenants.iter().map(|t| t.id).collect()
    }

    fn tenant_mut(&mut self, id: VssdId) -> &mut Tenant {
        let tenant = self.tenants.iter_mut().find(|t| t.id == id);
        tenant.unwrap_or_else(|| panic!("unknown tenant {id}"))
    }

    fn slot_mut(&mut self, id: VssdId) -> &mut Option<Workload> {
        &mut self.tenant_mut(id).workload
    }

    fn workload_mut(&mut self, id: VssdId) -> &mut Workload {
        self.slot_mut(id)
            .as_mut()
            .unwrap_or_else(|| panic!("tenant {id} is vacant"))
    }

    fn workload(&self, id: VssdId) -> &Workload {
        let tenant = self.tenants.iter().find(|t| t.id == id);
        tenant
            .unwrap_or_else(|| panic!("unknown tenant {id}"))
            .workload
            .as_ref()
            .unwrap_or_else(|| panic!("tenant {id} is vacant"))
    }

    fn install(
        &mut self,
        id: VssdId,
        kind: WorkloadKind,
        spec: WorkloadSpec,
        seed: u64,
        start: Option<SimTime>,
    ) {
        let capacity = self.engine.logical_capacity_bytes(id);
        let slot = self.slot_mut(id);
        assert!(slot.is_none(), "tenant {id} is occupied");
        *slot = Some(Workload {
            kind,
            source: Source::new(spec, capacity, seed, 0, start),
            trace: Vec::new(),
        });
    }

    /// Starts `spec`, reported as `kind`, on the vacant tenant `id` at a
    /// window boundary. The stream starts at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant, already runs a workload, or the
    /// spec is invalid.
    pub fn attach(&mut self, id: VssdId, kind: WorkloadKind, spec: WorkloadSpec, seed: u64) {
        self.install(id, kind, spec, seed, Some(self.engine.now()));
    }

    /// Stops tenant `id`'s workload at a window boundary and returns its
    /// kept trace, empty unless [`Colocation::keep_trace`] was called for
    /// `id`. In-flight requests drain over the following window; the vSSD
    /// stays registered and can be attached again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant or is vacant.
    pub fn detach(&mut self, id: VssdId) -> Vec<TraceRecord> {
        let workload = self.slot_mut(id).take();
        workload
            .unwrap_or_else(|| panic!("tenant {id} is vacant"))
            .trace
    }

    /// The workload kind running on `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant or is vacant.
    pub fn kind_of(&self, id: VssdId) -> WorkloadKind {
        self.workload(id).kind
    }

    /// Swaps the workload on tenant `id` (used by the Figure 17 robustness
    /// experiment). The new stream starts at the current simulated time;
    /// the collected trace continues.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant or is vacant.
    pub fn swap_workload(&mut self, id: VssdId, kind: WorkloadKind, seed: u64) {
        let capacity = self.engine.logical_capacity_bytes(id);
        let now = self.engine.now();
        let workload = self.workload_mut(id);
        // Carry over the outstanding count so in-flight requests drain
        // naturally under the new source.
        let outstanding = match workload.source {
            Source::Closed { outstanding, .. } => outstanding,
            Source::Open(_) => 0,
        };
        workload.kind = kind;
        workload.source = Source::new(kind.spec(), capacity, seed, outstanding, Some(now));
    }

    /// Replaces tenant `id`'s generator with an arbitrary spec (used by
    /// calibration runs that need synthetic load shapes outside the named
    /// workload catalogue). The tenant keeps its reported kind.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant, is vacant, or the spec is invalid.
    pub fn override_spec(&mut self, id: VssdId, spec: WorkloadSpec, seed: u64) {
        let capacity = self.engine.logical_capacity_bytes(id);
        self.workload_mut(id).source = Source::new(spec, capacity, seed, 0, None);
    }

    /// The decision-window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Pre-fills every tenant's vSSD to `fraction` of its logical space
    /// (§4.1 warm-up).
    pub fn warm_up(&mut self, fraction: f64) {
        for t in &self.tenants {
            self.engine.warm_up(t.id, fraction);
        }
    }

    /// Keeps tenant `id`'s I/O trace for workload typing, from its next
    /// request on and for every workload attached to it later. Nothing
    /// is recorded for a tenant nobody asked about. The kept trace is a
    /// ring of the newest requests: it holds [`TRACE_CAP`] of them, or
    /// `2 × min_len` if that is more, and drops its oldest half when
    /// full, so it never drops a record before it holds `min_len`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant.
    pub fn keep_trace(&mut self, id: VssdId, min_len: usize) {
        let tenant = self.tenant_mut(id);
        tenant.trace_cap = tenant.trace_cap.max(TRACE_CAP.max(2 * min_len));
    }

    /// The I/O trace kept for tenant `id` (most recent requests; see
    /// [`Colocation::keep_trace`]), for workload typing. Empty unless
    /// the trace of `id` is kept.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant or is vacant.
    pub fn trace_of(&self, id: VssdId) -> &[TraceRecord] {
        &self.workload(id).trace
    }

    /// Advances one decision window, feeding workloads and returning the
    /// per-tenant window summaries in tenant order.
    pub fn run_window(&mut self) -> Vec<(VssdId, WindowSummary)> {
        self.advance();
        self.flush()
    }

    /// The window loop: feeds every workload across one decision window
    /// in 1 ms ticks, leaving the engine's per-window accumulators
    /// (`window_latency`, `queued_ops`) readable until
    /// [`Colocation::flush`]. Every driven run (figures, rollouts, store
    /// records and replays) steps through this loop.
    pub fn advance(&mut self) {
        let end = self.engine.now() + self.window;
        while self.engine.now() < end {
            let t = (self.engine.now() + TICK).min(end);
            // Open-loop arrivals up to t.
            for tenant in &mut self.tenants {
                if let Some(Workload {
                    source: Source::Open(gen),
                    trace,
                    ..
                }) = &mut tenant.workload
                {
                    while let Some(rec) = gen.next_until(t) {
                        keep(trace, tenant.trace_cap, rec);
                        submit(&mut self.engine, tenant.id, rec);
                    }
                }
            }
            self.engine.run_until(t);
            // Account completions against closed-loop windows; one for a
            // vacant tenant is a detached workload draining.
            self.engine.drain_completed_into(&mut self.completed);
            for c in self.completed.drain(..) {
                if let Some(tenant) = self.tenants.iter_mut().find(|x| x.id == c.vssd) {
                    if let Some(Workload {
                        source: Source::Closed { outstanding, .. },
                        ..
                    }) = &mut tenant.workload
                    {
                        *outstanding = outstanding.saturating_sub(1);
                    }
                }
            }
            // Top closed-loop sources up to their phase concurrency.
            let now = self.engine.now();
            for tenant in &mut self.tenants {
                if let Some(Workload {
                    source: Source::Closed { gen, outstanding },
                    trace,
                    ..
                }) = &mut tenant.workload
                {
                    let target = gen.concurrency_at(now);
                    while *outstanding < target {
                        let rec = gen.make_request(now);
                        keep(trace, tenant.trace_cap, rec);
                        submit(&mut self.engine, tenant.id, rec);
                        *outstanding += 1;
                    }
                }
            }
        }
    }

    /// Freezes every tenant's window summary (vacant ones flush as
    /// idle), in registration order.
    pub fn flush(&mut self) -> Vec<(VssdId, WindowSummary)> {
        let engine = &mut self.engine;
        self.tenants
            .iter()
            .map(|t| (t.id, engine.finish_window(t.id)))
            .collect()
    }

    /// Runs `n` windows, discarding summaries (warm-up / fast-forward).
    pub fn run_windows(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.run_window();
        }
    }
}

/// Records `rec` in a trace ring of `cap` records; a zero `cap` keeps
/// nothing.
fn keep(trace: &mut Vec<TraceRecord>, cap: usize, rec: TraceRecord) {
    if cap == 0 {
        return;
    }
    if trace.len() >= cap {
        // Keep the newest half when full.
        trace.drain(..cap / 2);
    }
    trace.push(rec);
}

/// Submits `rec` on `vssd`.
fn submit(engine: &mut Engine, vssd: VssdId, rec: TraceRecord) {
    engine.submit(IoRequest {
        vssd,
        op: if rec.is_read { IoOp::Read } else { IoOp::Write },
        offset: rec.offset,
        len: rec.len,
        arrival: rec.at,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            flash: FlashConfig::training_test(),
            ..Default::default()
        }
    }

    fn chans(range: std::ops::Range<u16>) -> Vec<ChannelId> {
        range.map(ChannelId).collect()
    }

    #[test]
    fn open_loop_tenant_produces_window_traffic() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            1,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        c.keep_trace(VssdId(0), 0);
        let out = c.run_window();
        assert_eq!(out.len(), 1);
        let (id, w) = &out[0];
        assert_eq!(*id, VssdId(0));
        // YCSB at ~4000 req/s → thousands of ops in 2 s.
        assert!(w.total_ops > 4000, "ops {}", w.total_ops);
        assert!(w.read_ratio > 0.9, "read ratio {}", w.read_ratio);
        assert!(!c.trace_of(VssdId(0)).is_empty());
    }

    #[test]
    fn closed_loop_tenant_saturates_its_channels() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::TeraSort,
            2,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        // Skip into the read phase.
        let out = c.run_window();
        let (_, w) = &out[0];
        // 2 channels × 64 MiB/s peak ≈ 134 MB/s; a concurrency-24 closed
        // loop should land well above half of that during its phases.
        assert!(w.avg_bandwidth > 4.0e7, "bandwidth {}", w.avg_bandwidth);
    }

    #[test]
    fn closed_loop_bandwidth_scales_with_channels() {
        let run = |n_ch: u16| {
            let spec = TenantSpec::new(
                VssdConfig::hardware(VssdId(0), chans(0..n_ch)),
                WorkloadKind::MlPrep,
                3,
            );
            let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
            let mut bw = 0.0;
            for _ in 0..3 {
                let out = c.run_window();
                bw += out[0].1.avg_bandwidth;
            }
            bw / 3.0
        };
        let two = run(2);
        let four = run(4);
        assert!(four > two * 1.5, "no scaling: 2ch {two}, 4ch {four}");
    }

    #[test]
    fn two_tenants_are_isolated_on_hardware() {
        let tenants = vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), chans(0..2)),
                WorkloadKind::Ycsb,
                4,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), chans(2..4)),
                WorkloadKind::TeraSort,
                5,
            ),
        ];
        let mut c = Colocation::new(small_cfg(), tenants, SimDuration::from_secs(2));
        let out = c.run_window();
        assert_eq!(out.len(), 2);
        assert!(out[0].1.total_ops > 0);
        assert!(out[1].1.total_ops > 0);
    }

    #[test]
    fn swap_workload_changes_stream() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            6,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(1));
        c.run_window();
        assert_eq!(c.kind_of(VssdId(0)), WorkloadKind::Ycsb);
        c.swap_workload(VssdId(0), WorkloadKind::VdiWeb, 7);
        assert_eq!(c.kind_of(VssdId(0)), WorkloadKind::VdiWeb);
        let out = c.run_window();
        assert!(out[0].1.total_ops > 0);
    }

    /// Four single-channel vSSDs, none running a workload.
    fn vacant() -> Colocation {
        let configs = (0..4u16)
            .map(|i| {
                VssdConfig::hardware(VssdId(u32::from(i)), vec![ChannelId(i)])
                    .with_slo(SimDuration::from_millis(2))
            })
            .collect();
        Colocation::vacant(small_cfg(), configs, SimDuration::from_millis(500))
    }

    #[test]
    fn vacant_tenants_flush_idle_windows() {
        let mut c = vacant();
        let out = c.run_window();
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, w)| w.total_ops == 0));
        assert_eq!(c.engine().now(), SimTime::from_nanos(500_000_000));
    }

    #[test]
    fn attached_workload_runs_beside_vacant_tenants() {
        let mut c = vacant();
        c.keep_trace(VssdId(1), 0);
        c.attach(VssdId(1), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 99);
        let out = c.run_window();
        assert!(out[1].1.total_ops > 0);
        assert_eq!(out[0].1.total_ops, 0);
        assert_eq!(c.kind_of(VssdId(1)), WorkloadKind::Ycsb);
        assert!(!c.trace_of(VssdId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "is occupied")]
    fn attach_on_an_occupied_tenant_panics() {
        let mut c = vacant();
        c.attach(VssdId(0), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 1);
        c.attach(VssdId(0), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 2);
    }

    #[test]
    #[should_panic(expected = "is vacant")]
    fn detach_of_a_vacant_tenant_panics() {
        let _ = vacant().detach(VssdId(0));
    }

    #[test]
    fn detach_drains_and_tenant_reattaches() {
        let mut c = vacant();
        c.keep_trace(VssdId(0), 0);
        c.attach(
            VssdId(0),
            WorkloadKind::TeraSort,
            WorkloadKind::TeraSort.spec(),
            5,
        );
        c.run_window();
        let trace = c.detach(VssdId(0));
        assert!(!trace.is_empty());
        // Drain window: in-flight requests finish, no new arrivals.
        c.run_window();
        let quiet = c.run_window();
        assert_eq!(quiet[0].1.total_ops, 0, "tenant fully drained");
        // The vSSD is reusable; the open-loop clock starts at now.
        c.attach(VssdId(0), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 6);
        let busy = c.run_window();
        assert!(busy[0].1.total_ops > 0);
        let now = c.engine().now();
        let window = c.window();
        assert!(c.trace_of(VssdId(0)).iter().all(|r| r.at + window > now));
    }

    #[test]
    fn untraced_tenants_keep_nothing() {
        let mut c = vacant();
        c.attach(VssdId(0), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 3);
        c.attach(VssdId(1), WorkloadKind::Ycsb, WorkloadKind::Ycsb.spec(), 4);
        c.keep_trace(VssdId(1), 0);
        let out = c.run_window();
        assert!(out[0].1.total_ops > 0);
        assert!(c.trace_of(VssdId(0)).is_empty());
        assert!(!c.trace_of(VssdId(1)).is_empty());
        assert_eq!(c.detach(VssdId(0)), Vec::new());
        // The kept trace belongs to the vSSD: a later attach keeps one.
        let kept = c.detach(VssdId(1));
        assert!(!kept.is_empty());
        c.attach(VssdId(1), WorkloadKind::Tpce, WorkloadKind::Tpce.spec(), 5);
        c.run_window();
        assert!(!c.trace_of(VssdId(1)).is_empty());
    }

    #[test]
    fn kept_trace_drops_its_oldest_half_when_full() {
        let rec = |i: usize| TraceRecord {
            at: SimTime::from_nanos(i as u64),
            is_read: true,
            offset: 0,
            len: 4096,
        };
        let mut trace = Vec::new();
        for i in 0..=TRACE_CAP {
            keep(&mut trace, TRACE_CAP, rec(i));
        }
        assert_eq!(trace.len(), TRACE_CAP / 2 + 1);
        let newest = (TRACE_CAP / 2..=TRACE_CAP).map(rec);
        assert!(trace.iter().copied().eq(newest));
        let mut untraced = Vec::new();
        keep(&mut untraced, 0, rec(0));
        assert!(untraced.is_empty());
    }

    #[test]
    fn keep_trace_sizes_the_ring_for_its_reader() {
        let mut c = vacant();
        c.keep_trace(VssdId(0), 64);
        c.keep_trace(VssdId(1), 3 * TRACE_CAP);
        let caps: Vec<usize> = c.tenants.iter().map(|t| t.trace_cap).collect();
        assert_eq!(caps, vec![TRACE_CAP, 6 * TRACE_CAP, 0, 0]);
    }

    #[test]
    fn advance_then_flush_is_run_window() {
        let tenants = || {
            vec![
                TenantSpec::new(
                    VssdConfig::hardware(VssdId(0), chans(0..2)),
                    WorkloadKind::Ycsb,
                    4,
                ),
                TenantSpec::new(
                    VssdConfig::hardware(VssdId(1), chans(2..4)),
                    WorkloadKind::TeraSort,
                    5,
                ),
            ]
        };
        let mut whole = Colocation::new(small_cfg(), tenants(), SimDuration::from_secs(1));
        let mut split = Colocation::new(small_cfg(), tenants(), SimDuration::from_secs(1));
        for _ in 0..2 {
            split.advance();
            // Between the two halves the window accumulators are live.
            assert!(split.engine().window_latency(VssdId(0)).count() > 0);
            assert_eq!(split.flush(), whole.run_window());
        }
    }

    #[test]
    fn override_spec_keeps_kind_and_swap_keeps_trace() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::TeraSort,
            6,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(1));
        c.keep_trace(VssdId(0), 0);
        c.run_window();
        let collected = c.trace_of(VssdId(0)).len();
        c.override_spec(VssdId(0), WorkloadKind::MlPrep.spec(), 7);
        assert_eq!(c.kind_of(VssdId(0)), WorkloadKind::TeraSort);
        c.swap_workload(VssdId(0), WorkloadKind::PageRank, 8);
        assert_eq!(c.trace_of(VssdId(0)).len(), collected);
        c.run_window();
        assert!(c.trace_of(VssdId(0)).len() > collected);
    }

    #[test]
    fn warm_up_runs_without_time_passing() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            8,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(1));
        c.warm_up(0.5);
        assert_eq!(c.engine().now(), SimTime::ZERO);
    }

    #[test]
    fn windows_partition_time() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Tpce,
            9,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        c.run_windows(3);
        assert_eq!(c.engine().now(), SimTime::from_secs(6));
    }
}
