//! One fleet shard: an SSD with fixed vSSD slots that tenants attach to
//! and detach from at window boundaries.
//!
//! A shard *is* a [`fleetio::Colocation`] plus tenancy: the driver owns
//! the engine, the workload sources and the window loop; the shard owns
//! which fleet tenant sits in which slot, the phase rotation a tenant
//! starts with, and the fixed-shape per-window report the fleet's merge
//! reads. Empty slots stay provisioned (their window summaries flush as
//! idle), and a freshly detached slot keeps completing in-flight
//! requests — the drain the control plane waits out before reusing the
//! slot. Migration is control-plane only: no engine state moves, the
//! tenant's generator restarts at the destination from an epoch-derived
//! seed, fast-forwarded to the shard's current simulated time.

use fleetio_des::window::WindowSummary;
use fleetio_des::{LatencyHistogram, SimDuration};
use fleetio_vssd::engine::{Engine, EngineConfig, VssdSnapshot};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::{TraceRecord, WorkloadKind};

use fleetio::actions::AgentAction;
use fleetio::Colocation;

#[derive(Debug)]
struct Slot {
    vssd: VssdId,
    tenant: Option<u32>,
}

/// One shard's per-window report: all slots in slot order, occupied or
/// not, plus the engine's cumulative event counter.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWindowReport {
    /// The shard index.
    pub shard: u32,
    /// Resident tenant per slot at window end (`None` = empty).
    pub tenants: Vec<Option<u32>>,
    /// Per-slot window summaries, slot order.
    pub summaries: Vec<(VssdId, WindowSummary)>,
    /// Per-slot engine snapshots at window end, slot order.
    pub snapshots: Vec<VssdSnapshot>,
    /// Per-slot exact-bucket request-latency histograms for the window,
    /// slot order — the fleet's SLO substrate, captured just before the
    /// window flush resets the accumulator.
    pub latencies: Vec<LatencyHistogram>,
    /// Queued page operations across all slots at window end (the
    /// shard's backlog gauge).
    pub queue_depth: u64,
    /// Cumulative engine events processed (monotone across windows).
    pub events_processed: u64,
}

/// One SSD of the fleet.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    coloc: Colocation,
    slots: Vec<Slot>,
}

impl Shard {
    /// Builds a shard whose engine carves its channels into
    /// `slot_configs` hardware-isolated vSSD slots.
    ///
    /// # Panics
    ///
    /// Panics on configurations the engine rejects and on a zero
    /// window.
    pub fn new(
        id: u32,
        engine_cfg: EngineConfig,
        slot_configs: Vec<VssdConfig>,
        window: SimDuration,
    ) -> Self {
        let slots = slot_configs
            .iter()
            .map(|c| Slot {
                vssd: c.id,
                tenant: None,
            })
            .collect();
        Shard {
            id,
            coloc: Colocation::vacant(engine_cfg, slot_configs, window),
            slots,
        }
    }

    /// The shard index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's engine: clock, event counter, capacities.
    pub fn engine(&self) -> &Engine {
        self.coloc.engine()
    }

    /// The shard's engine, for sink installation and control-plane obs
    /// events (SLO verdicts, migrations). Emit only from the fleet's
    /// serial phases, so per-shard streams stay deterministic across
    /// worker counts.
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.coloc.engine_mut()
    }

    /// The resident tenant of `slot`, if any.
    pub fn tenant_at(&self, slot: usize) -> Option<u32> {
        self.slots[slot].tenant
    }

    /// The I/O trace kept for the resident of `slot` (newest requests up
    /// to the ring's cap), for workload typing at migration time. Empty
    /// unless [`Shard::keep_traces`] was called.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn trace_at(&self, slot: usize) -> &[TraceRecord] {
        self.coloc.trace_of(self.slots[slot].vssd)
    }

    /// Keeps every slot's trace from now on, for this resident and every
    /// later one, in rings that never drop a record before they hold
    /// `min_len` (see [`Colocation::keep_trace`]).
    pub fn keep_traces(&mut self, min_len: usize) {
        for slot in &self.slots {
            self.coloc.keep_trace(slot.vssd, min_len);
        }
    }

    /// The logical capacity of `slot`'s vSSD in bytes.
    pub fn slot_capacity_bytes(&self, slot: usize) -> u64 {
        self.engine().logical_capacity_bytes(self.slots[slot].vssd)
    }

    /// Pre-fills every slot to `fraction` of its logical space.
    pub fn warm_up_all(&mut self, fraction: f64) {
        self.coloc.warm_up(fraction);
    }

    /// Attaches `tenant` running `kind` to `slot`, its generator seeded
    /// with `seed` and fast-forwarded to the shard's current time (the
    /// open-loop clock starts *now*, not at zero). `phase_rotation`
    /// rotates the kind's phase cycle left so the tenant starts mid-job
    /// (see [`fleetio_workloads::WorkloadSpec::rotate_phases`]).
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied.
    pub fn attach(
        &mut self,
        slot: usize,
        tenant: u32,
        kind: WorkloadKind,
        seed: u64,
        phase_rotation: u32,
    ) {
        let mut spec = kind.spec();
        spec.rotate_phases(phase_rotation as usize);
        self.coloc.attach(self.slots[slot].vssd, kind, spec, seed);
        self.slots[slot].tenant = Some(tenant);
    }

    /// Detaches the resident of `slot`, returning the tenant index and
    /// its kept trace (empty unless [`Shard::keep_traces`] was called).
    /// In-flight requests drain naturally over the following window; the
    /// control plane holds the slot out of service until then.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn detach(&mut self, slot: usize) -> (u32, Vec<TraceRecord>) {
        let tenant = self.slots[slot]
            .tenant
            .take()
            .expect("detach of an empty slot");
        (tenant, self.coloc.detach(self.slots[slot].vssd))
    }

    /// Applies one tenant's RL decision to `slot`.
    pub fn apply_action(&mut self, slot: usize, action: AgentAction) {
        action.apply(self.coloc.engine_mut(), self.slots[slot].vssd);
    }

    /// Advances one decision window and freezes every slot's summary
    /// (idle slots flush as idle — the fleet's merge sees a fixed-shape
    /// report every window).
    pub fn run_window(&mut self) -> ShardWindowReport {
        self.coloc.advance();
        // Latency histograms and queue depths are read before the flush
        // resets the per-window accumulators.
        let engine = self.coloc.engine();
        let latencies = self
            .slots
            .iter()
            .map(|s| engine.window_latency(s.vssd).clone())
            .collect();
        let queue_depth = self
            .slots
            .iter()
            .map(|s| engine.queued_ops(s.vssd) as u64)
            .sum();
        let summaries = self.coloc.flush();
        let engine = self.coloc.engine();
        ShardWindowReport {
            shard: self.id,
            tenants: self.slots.iter().map(|s| s.tenant).collect(),
            summaries,
            snapshots: self.slots.iter().map(|s| engine.snapshot(s.vssd)).collect(),
            latencies,
            queue_depth,
            events_processed: engine.events_processed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;

    fn shard() -> Shard {
        let cfg = EngineConfig {
            flash: FlashConfig::training_test(),
            ..Default::default()
        };
        let slots = (0..4u16)
            .map(|i| {
                VssdConfig::hardware(VssdId(u32::from(i)), vec![ChannelId(i)])
                    .with_slo(SimDuration::from_millis(2))
            })
            .collect();
        Shard::new(0, cfg, slots, SimDuration::from_millis(500))
    }

    #[test]
    fn empty_slots_report_idle_windows() {
        let mut s = shard();
        let report = s.run_window();
        assert_eq!(report.summaries.len(), 4);
        assert_eq!(report.tenants, vec![None; 4]);
        assert!(report.summaries.iter().all(|(_, w)| w.total_ops == 0));
    }

    #[test]
    fn attached_tenant_produces_traffic_and_trace() {
        let mut s = shard();
        s.keep_traces(0);
        s.attach(1, 7, WorkloadKind::Ycsb, 99, 0);
        assert_eq!(s.tenant_at(1), Some(7));
        let report = s.run_window();
        assert!(report.summaries[1].1.total_ops > 0);
        assert_eq!(report.summaries[0].1.total_ops, 0);
        assert!(!s.trace_at(1).is_empty());
        assert_eq!(report.tenants[1], Some(7));
    }

    #[test]
    fn detach_frees_the_slot_and_returns_its_tenant() {
        let mut s = shard();
        s.keep_traces(0);
        s.attach(0, 3, WorkloadKind::TeraSort, 5, 0);
        s.run_window();
        let (tenant, trace) = s.detach(0);
        assert_eq!(tenant, 3);
        assert!(!trace.is_empty());
        assert_eq!(s.tenant_at(0), None);
        assert_eq!(s.run_window().tenants[0], None);
        // The slot hosts again (drain and clock restart: driver tests).
        s.attach(0, 9, WorkloadKind::Ycsb, 6, 0);
        assert_eq!(s.run_window().tenants[0], Some(9));
    }

    #[test]
    fn untraced_slots_keep_nothing() {
        let mut s = shard();
        s.attach(1, 7, WorkloadKind::Ycsb, 99, 0);
        assert!(s.run_window().summaries[1].1.total_ops > 0);
        assert!(s.trace_at(1).is_empty());
        assert_eq!(s.detach(1), (7, Vec::new()));
    }

    #[test]
    fn phase_rotation_starts_the_tenant_mid_job() {
        let first_window = |rotation| {
            let mut s = shard();
            s.attach(0, 0, WorkloadKind::TeraSort, 5, rotation);
            s.run_window().summaries[0].1.clone()
        };
        assert_ne!(first_window(0), first_window(1));
    }

    #[test]
    fn report_reads_latencies_before_the_flush() {
        let mut s = shard();
        s.attach(2, 4, WorkloadKind::Ycsb, 7, 0);
        let report = s.run_window();
        assert_eq!(report.latencies.len(), 4);
        assert_eq!(
            report.latencies[2].count(),
            report.summaries[2].1.total_ops,
            "histogram holds the window's requests"
        );
        assert_eq!(report.latencies[0].count(), 0);
        assert_eq!(report.events_processed, s.engine().events_processed());
    }

    #[test]
    fn same_seed_shards_report_identically() {
        let run = || {
            let mut s = shard();
            s.attach(0, 0, WorkloadKind::Ycsb, 11, 0);
            s.attach(2, 1, WorkloadKind::TeraSort, 12, 0);
            (0..3).map(|_| s.run_window()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
