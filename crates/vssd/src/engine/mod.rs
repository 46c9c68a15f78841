//! The multi-tenant vSSD simulation engine.
//!
//! [`Engine`] composes the flash device, per-channel dispatchers, per-vSSD
//! FTL state, the gSB pool, the Harvested Block Table, and admission
//! control into one discrete-event simulation. Drivers (baseline policies or
//! FleetIO's RL agents) interact with it through four surfaces:
//!
//! 1. **I/O**: [`Engine::submit`] requests, [`Engine::run_until`] advances
//!    simulated time, [`Engine::drain_completed_into`] collects results.
//! 2. **Scheduling**: [`Engine::set_priority`] (the `Set_Priority` action).
//! 3. **Harvesting**: [`Engine::submit_action`] routes `Harvest` /
//!    `Make_Harvestable` actions through admission control;
//!    [`Engine::set_harvest_target`] / [`Engine::set_harvestable_target`]
//!    are the direct (post-admission) forms.
//! 4. **Observation**: [`Engine::finish_window`] freezes per-vSSD window
//!    statistics; [`Engine::snapshot`] exposes the remaining RL states.

mod arbiter;
mod arrival;
#[cfg(feature = "audit")]
pub mod audit;
mod dispatch;
mod gc;
mod harvest;
#[cfg(test)]
mod lockstep;
mod vstate;
mod warm;

pub use arbiter::GRANT_BYTES;
pub use vstate::VssdCumulative;

use fleetio_des::window::WindowSummary;
use fleetio_des::{EventQueue, Handle, SimDuration, SimTime, Slab};
use fleetio_flash::addr::{BlockAddr, ChannelId};
use fleetio_flash::config::FlashConfig;
use fleetio_flash::device::FlashDevice;
use fleetio_obs::{NullSink, ObsEvent, ObsSink, WindowFlush};

use crate::admission::{AdmissionControl, HarvestAction, BATCH_INTERVAL};
use crate::gsb::GsbPool;
use crate::hbt::HarvestedBlockTable;
use crate::request::{CompletedRequest, IoOp, IoRequest, Priority, RequestId};
use crate::stride::DenseStride;
use crate::vssd::{VssdConfig, VssdId};

use self::arbiter::Sliced;
use self::vstate::{BlockMeta, PageMap, VssdState};

/// Engine-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Flash device configuration.
    pub flash: FlashConfig,
    /// Maximum page operations in flight per channel. Small values keep
    /// priority scheduling responsive; large values maximize pipelining.
    pub dispatch_ahead: u32,
    /// GC triggers when a chip's free-block fraction falls below this
    /// (the paper's lazy GC with a 20 % threshold, §4.1).
    pub gc_free_threshold: f64,
    /// No gSB is created on a channel whose least-free chip is below this
    /// free fraction (§3.6: 25 %).
    pub gsb_min_free_fraction: f64,
    /// Blocks harvested per channel per gSB (§3.6: minimum superblock of
    /// 16 blocks per channel).
    pub gsb_blocks_per_channel: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            flash: FlashConfig::default(),
            dispatch_ahead: 3,
            gc_free_threshold: 0.20,
            gsb_min_free_fraction: 0.25,
            gsb_blocks_per_channel: 16,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is out of range, including everything
    /// [`FlashConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), String> {
        self.flash.validate()?;
        if self.dispatch_ahead == 0 {
            return Err("dispatch_ahead must be positive".into());
        }
        if !(0.0..1.0).contains(&self.gc_free_threshold) {
            return Err("gc_free_threshold must be in [0, 1)".into());
        }
        if !(0.0..1.0).contains(&self.gsb_min_free_fraction) {
            return Err("gsb_min_free_fraction must be in [0, 1)".into());
        }
        if self.gsb_blocks_per_channel == 0 {
            return Err("gsb_blocks_per_channel must be positive".into());
        }
        Ok(())
    }

    /// Checks the vSSDs an engine on this device would host: at most
    /// 65 536 of them (in-flight requests index them with a `u16`), each
    /// configuration valid, every channel on the device and no id twice.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offence.
    pub fn validate_vssds(&self, vssds: &[VssdConfig]) -> Result<(), String> {
        if vssds.len() > usize::from(u16::MAX) + 1 {
            return Err(format!(
                "{} vSSDs on one engine; in-flight requests index at most 65 536",
                vssds.len()
            ));
        }
        for vc in vssds {
            vc.validate()?;
            if let Some(ch) = vc.channels.iter().find(|c| c.0 >= self.flash.channels) {
                return Err(format!("{} references {ch} outside the device", vc.id));
            }
        }
        let mut ids: Vec<VssdId> = vssds.iter().map(|v| v.id).collect();
        ids.sort_unstable();
        match ids.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(format!("duplicate vssd id {}", pair[0])),
            None => Ok(()),
        }
    }
}

/// Logical capacity in pages of a vSSD with configuration `v` on a device
/// `f`: its share of its channels' blocks after over-provisioning.
fn logical_pages(f: &FlashConfig, v: &VssdConfig) -> u64 {
    let full = v.channels.len() as u64
        * u64::from(f.chips_per_channel)
        * u64::from(f.logical_blocks_per_chip())
        * u64::from(f.pages_per_block);
    (full as f64 * v.capacity_share) as u64
}

/// A page-granularity operation queued on a channel: one per page of
/// every admitted request and GC copy still waiting for its channel, so
/// a backlog costs this size per queued page (24 bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageOp {
    /// Dense index of the vSSD whose queue holds the op.
    pub vssd: u32,
    pub chip: u16,
    pub read: bool,
    /// Bytes moved: at most one page.
    pub bytes: u32,
    /// Who the op belongs to, packed as the `PageDone` tag that carries
    /// it back: a host request's slab handle, or a GC job's with
    /// [`GC_OP_BIT`] set.
    pub owner: u64,
}

/// High bit of a page op's owner marks a GC job (low bits = its handle).
/// A slab handle sets it only once its slot's generation reaches 2^31,
/// which debug builds check.
pub(crate) const GC_OP_BIT: u64 = 1 << 63;

impl PageOp {
    /// The owner word of host request `h`'s ops.
    pub fn request_owner(h: Handle) -> u64 {
        let bits = h.to_bits();
        debug_assert!(bits & GC_OP_BIT == 0, "request handle collides with GC bit");
        bits
    }

    /// The owner word of GC job `job`'s ops.
    pub fn gc_owner(job: Handle) -> u64 {
        let bits = job.to_bits();
        debug_assert!(bits & GC_OP_BIT == 0, "gc handle collides with GC bit");
        GC_OP_BIT | bits
    }

    /// Whether the op is GC traffic.
    pub fn is_gc(&self) -> bool {
        self.owner & GC_OP_BIT != 0
    }

    /// The host request the op belongs to, if it is not GC traffic.
    pub fn request(&self) -> Option<Handle> {
        (!self.is_gc()).then(|| Handle::from_bits(self.owner))
    }
}

/// Per-channel dispatcher state.
#[derive(Debug)]
pub(crate) struct ChanState {
    /// `queues[vssd_idx][priority_rank]`.
    pub queues: Vec<[std::collections::VecDeque<PageOp>; 3]>,
    /// Total queued ops per priority rank.
    pub pending: [u32; 3],
    pub in_flight: u32,
    pub stride: DenseStride,
    pub retry_pending: bool,
    /// vSSD indices that have ever used this channel.
    pub members: Vec<usize>,
}

impl ChanState {
    /// Iterates the vSSDs registered on this channel.
    pub(crate) fn stride_members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().copied()
    }
}

/// Engine events.
///
/// Payloads are small `Copy` values — state that used to ride inside the
/// event (the full `IoRequest`) lives in engine slabs, referenced by
/// generation-checked handles. That keeps queue buckets compact and makes
/// a stale reference a loud panic instead of silent aliasing.
///
/// The steps of a time-sliced transfer are not events: the bus arbiter
/// ([`arbiter`]) keeps them, under keys from this queue's own counter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A submitted request reaches its arrival time; `h` is its
    /// [`InflightReq`] slab handle.
    Arrival {
        h: Handle,
    },
    /// A page op completed on channel `ch`; `tag` is its
    /// [`PageOp::owner`].
    PageDone {
        ch: u16,
        tag: u64,
    },
    /// A GC job's erase finished; `job` is its [`GcJob`] slab handle
    /// (owner/channel/chip are read from the job at completion time).
    GcDone {
        job: Handle,
        busy: SimDuration,
    },
    AdmissionTick,
    TokenRetry {
        ch: u16,
    },
    /// Reference model only: one step of a time-sliced transfer as a
    /// queue event of its own; `h` indexes [`Engine::grants`].
    #[cfg(test)]
    Grant {
        h: Handle,
    },
}

/// One in-flight garbage-collection job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GcJob {
    /// Sequential external job id, used only for observability events (so
    /// traced runs are independent of slab slot recycling).
    pub ext_id: u64,
    pub owner: VssdId,
    pub ch: u16,
    pub chip: u16,
    pub victim: BlockAddr,
    pub remaining: u32,
    pub started: SimTime,
    /// Whether this job holds the per-chip GC-in-progress slot (erase-only
    /// reclaims of dead harvested blocks run outside it).
    pub owns_chip_slot: bool,
}

/// An in-flight request's progress: one per request between submission
/// and completion, so a backlog costs this size per request (48 bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightReq {
    /// Sequential external request id ([`RequestId`]), carried on the
    /// completion record and observability events.
    pub ext_id: u64,
    pub offset: u64,
    pub len: u64,
    pub arrival: SimTime,
    /// When the first of its ops touched hardware: [`SimTime::MAX`] until
    /// one is issued, then the minimum over its ops' starts.
    pub first_start: SimTime,
    pub remaining: u32,
    /// Index of the owning vSSD in `Engine::vssds` (its [`VssdId`] is
    /// `vssds[idx].cfg.id`); [`Engine::new`] bounds the vSSD count so it
    /// fits.
    pub vssd_idx: u16,
    pub op: IoOp,
}

/// RL-facing snapshot of a vSSD's non-window states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VssdSnapshot {
    /// Free logical capacity in bytes (the paper's `Avail_Capacity`).
    pub free_capacity_bytes: u64,
    /// Whether any GC job is running on the vSSD's blocks (`In_GC`).
    pub in_gc: bool,
    /// Current request priority (`Cur_Priority`).
    pub priority: Priority,
    /// Channels currently harvested *by* this vSSD (sum of gSB `n_chls`).
    pub harvested_channels: usize,
    /// This vSSD's gSB channels sitting unharvested in the pool.
    pub harvestable_channels: usize,
}

/// The multi-tenant vSSD engine. See the module docs for the API surface.
#[derive(Debug)]
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) device: FlashDevice,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) vssds: Vec<VssdState>,
    /// Dense vSSD index by id, sorted by id for binary search. Fixed at
    /// construction; the engine never adds or removes vSSDs.
    pub(crate) id_to_idx: Vec<(VssdId, usize)>,
    pub(crate) chans: Vec<ChanState>,
    pub(crate) pool: GsbPool,
    pub(crate) hbt: HarvestedBlockTable,
    pub(crate) admission: AdmissionControl,
    /// Per-block metadata, dense over the device geometry (indexed by
    /// [`Engine::bidx`]); `None` for unallocated blocks.
    pub(crate) block_meta: Vec<Option<BlockMeta>>,
    /// Number of `Some` entries in `block_meta`.
    pub(crate) n_block_meta: usize,
    /// Allocated blocks per chip slot ([`Engine::chip_slot`]) for victim
    /// scans.
    pub(crate) chip_blocks: Vec<Vec<BlockAddr>>,
    pub(crate) reqs: Slab<InflightReq>,
    pub(crate) next_req: u64,
    pub(crate) completed: Vec<CompletedRequest>,
    /// Per chip slot: whether a slot-owning GC job is running there.
    pub(crate) gc_running: Vec<bool>,
    pub(crate) gc_jobs: Slab<GcJob>,
    pub(crate) next_gc_job: u64,
    /// The bus arbiter: the next step of every time-sliced transfer in
    /// flight, in `(at, seq)` order (see [`arbiter`]). At most
    /// `dispatch_ahead` per channel, so a few dozen entries.
    pub(crate) sliced: std::collections::VecDeque<Sliced>,
    /// Persistent per-vSSD (harvest, make-harvestable) channel targets,
    /// reconciled at every admission tick. Dense over the vSSD index;
    /// `None` until the first admission decision touches a vSSD (untouched
    /// vSSDs are skipped by reconciliation entirely).
    pub(crate) harvest_targets: Vec<Option<(usize, usize)>>,
    pub(crate) window_start: Vec<SimTime>,
    /// Suppresses GC and timing during warm-up pre-fill.
    pub(crate) warming: bool,
    /// Reentrancy guard for emergency synchronous GC.
    pub(crate) in_emergency: bool,
    /// Per-channel page ops planned during the current arrival's
    /// bookkeeping (they have not reached the queues yet, but write
    /// placement must see them to spread a multi-page request).
    pub(crate) planned: Vec<u32>,
    /// Scratch buffers for the per-event hot paths. All are drained before
    /// their owning call returns; keeping them on the engine makes the
    /// steady-state event loop allocation-free.
    pub(crate) arrival_ops: Vec<(u16, PageOp)>,
    pub(crate) arrival_touched: Vec<u16>,
    pub(crate) gc_op_buf: Vec<(u16, PageOp)>,
    pub(crate) gc_touched: Vec<u16>,
    pub(crate) home_candidates: Vec<(ChannelId, u16)>,
    pub(crate) runnable_buf: Vec<usize>,
    /// Observability sink. [`NullSink`] by default; every emission site
    /// checks [`Engine::obs_on`] first, and sinks never influence
    /// simulation state (same-seed runs are identical traced or not).
    pub(crate) obs: Box<dyn ObsSink>,
    /// Cached [`ObsSink::enabled`] of `obs`, so per-event guards are a
    /// plain bool test instead of a virtual call.
    pub(crate) obs_on: bool,
    /// Runtime invariant auditor (see [`audit`]).
    #[cfg(feature = "audit")]
    pub(crate) auditor: fleetio_des::audit::SimAuditor,
    /// The periodic sweep's free-list census scratch, kept so that a
    /// sweep allocates nothing.
    #[cfg(feature = "audit")]
    pub(crate) audit_marks: Vec<bool>,
    /// Bytes ever handed to the arbiter, and bytes it has booked grant by
    /// grant, for the conservation check.
    #[cfg(feature = "audit")]
    pub(crate) sliced_joined: u64,
    #[cfg(feature = "audit")]
    pub(crate) sliced_booked: u64,
    /// Makes this engine pick stripe targets with the per-page reference
    /// walk, for the differential striping test.
    #[cfg(test)]
    pub(crate) stripe_oracle: bool,
    /// Makes this engine warm up with the page-by-page walk even where
    /// the stream plan applies, for the differential warm-up test.
    #[cfg(test)]
    pub(crate) walk_oracle: bool,
    /// Warm-ups that took the page walk because the stream plan did not
    /// apply (a [`warm::WalkReason`]); `walk_oracle` warm-ups not counted.
    #[cfg(test)]
    pub(crate) warm_fallbacks: u32,
    /// Makes this engine run every step of a time-sliced transfer as an
    /// [`Ev::Grant`] through the event queue, the way it was done before
    /// the arbiter: the reference the lockstep tests hold the arbiter to.
    #[cfg(test)]
    pub(crate) eager_oracle: bool,
    /// The eager reference's transfers in flight.
    #[cfg(test)]
    pub(crate) grants: Slab<Sliced>,
    /// How many of the eager reference's [`Ev::Grant`]s fired in the same
    /// nanosecond as the event dispatched just before them.
    #[cfg(test)]
    pub(crate) same_instant_grants: u64,
}

impl Engine {
    /// Builds an engine hosting `vssds` on a device described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the engine configuration is invalid or
    /// [`EngineConfig::validate_vssds`] refuses `vssds`.
    pub fn new(cfg: EngineConfig, vssds: Vec<VssdConfig>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid engine config: {e}");
        }
        if let Err(e) = cfg.validate_vssds(&vssds) {
            panic!("invalid vssd config: {e}");
        }
        let device = FlashDevice::new(cfg.flash.clone());
        let n_channels = usize::from(cfg.flash.channels);
        let chip_slots = n_channels * usize::from(cfg.flash.chips_per_channel);
        let total_blocks = chip_slots * cfg.flash.blocks_per_chip as usize;
        let layout = cfg
            .flash
            .ppa_layout()
            .expect("validate checked the packed address width");
        let mut states = Vec::with_capacity(vssds.len());
        let mut id_to_idx = Vec::with_capacity(vssds.len());
        for (idx, vc) in vssds.into_iter().enumerate() {
            id_to_idx.push((vc.id, idx));
            let map = PageMap::new(layout, logical_pages(&cfg.flash, &vc));
            states.push(VssdState::new(vc, chip_slots, map));
        }
        id_to_idx.sort_unstable_by_key(|(id, _)| *id);
        let chans = (0..n_channels)
            .map(|_| ChanState {
                queues: (0..states.len()).map(|_| Default::default()).collect(),
                pending: [0; 3],
                in_flight: 0,
                stride: DenseStride::new(),
                retry_pending: false,
                members: Vec::new(),
            })
            .collect();
        let mut events = EventQueue::new();
        events.push(SimTime::ZERO + BATCH_INTERVAL, Ev::AdmissionTick);
        let n_vssds = states.len();
        let hbt = HarvestedBlockTable::new(
            cfg.flash.channels,
            cfg.flash.chips_per_channel,
            cfg.flash.blocks_per_chip,
        );
        Engine {
            cfg,
            device,
            now: SimTime::ZERO,
            events,
            vssds: states,
            id_to_idx,
            chans,
            pool: GsbPool::new(n_channels),
            hbt,
            admission: AdmissionControl::new(),
            block_meta: vec![None; total_blocks],
            n_block_meta: 0,
            chip_blocks: (0..chip_slots).map(|_| Vec::new()).collect(),
            reqs: Slab::new(),
            next_req: 0,
            completed: Vec::new(),
            gc_running: vec![false; chip_slots],
            gc_jobs: Slab::new(),
            next_gc_job: 0,
            sliced: std::collections::VecDeque::new(),
            harvest_targets: vec![None; n_vssds],
            window_start: vec![SimTime::ZERO; n_vssds],
            warming: false,
            in_emergency: false,
            planned: vec![0; n_channels],
            arrival_ops: Vec::new(),
            arrival_touched: Vec::new(),
            gc_op_buf: Vec::new(),
            gc_touched: Vec::new(),
            home_candidates: Vec::new(),
            runnable_buf: Vec::new(),
            obs: Box::new(NullSink),
            obs_on: false,
            #[cfg(feature = "audit")]
            auditor: fleetio_des::audit::SimAuditor::new(),
            #[cfg(feature = "audit")]
            audit_marks: Vec::new(),
            #[cfg(feature = "audit")]
            sliced_joined: 0,
            #[cfg(feature = "audit")]
            sliced_booked: 0,
            #[cfg(test)]
            stripe_oracle: false,
            #[cfg(test)]
            walk_oracle: false,
            #[cfg(test)]
            warm_fallbacks: 0,
            #[cfg(test)]
            eager_oracle: false,
            #[cfg(test)]
            grants: Slab::new(),
            #[cfg(test)]
            same_instant_grants: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The underlying flash device (read-only).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Installs an observability sink, returning the previous one.
    ///
    /// Sinks only observe: installing or removing one never changes the
    /// simulation's behavior or results.
    pub fn set_obs_sink(&mut self, sink: Box<dyn ObsSink>) -> Box<dyn ObsSink> {
        self.obs_on = sink.enabled();
        std::mem::replace(&mut self.obs, sink)
    }

    /// Removes the current sink (restoring the no-op default) so its
    /// captured events and metrics can be exported.
    pub fn take_obs_sink(&mut self) -> Box<dyn ObsSink> {
        self.obs_on = false;
        std::mem::replace(&mut self.obs, Box::new(NullSink))
    }

    /// Records an externally-produced event (e.g. the fleet control
    /// plane's SLO verdicts and migrations) into the installed sink, so
    /// one per-engine stream carries both device and control-plane
    /// facts. Like every sink interaction this only observes: it never
    /// changes simulation behavior.
    pub fn emit_obs(&mut self, ev: ObsEvent) {
        if self.obs_on {
            self.obs.record(ev);
        }
    }

    /// The live request-latency histogram of `id`'s current statistics
    /// window (exact buckets, completion-path attribution; reset by
    /// [`Engine::finish_window`]). Callers that need the window's
    /// percentiles must clone before finishing the window.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn window_latency(&self, id: VssdId) -> &fleetio_des::LatencyHistogram {
        self.vssds[self.idx(id)].window.latency()
    }

    pub(crate) fn idx(&self, id: VssdId) -> usize {
        match self.id_to_idx.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(pos) => self.id_to_idx[pos].1,
            Err(_) => panic!("unknown vssd {id}"),
        }
    }

    /// Dense index of a `(channel, chip)` pair into the per-chip tables
    /// (`chip_blocks`, `gc_running`, per-vSSD `open_blocks`).
    #[inline]
    pub(crate) fn chip_slot(&self, ch: u16, chip: u16) -> usize {
        usize::from(ch) * usize::from(self.cfg.flash.chips_per_channel) + usize::from(chip)
    }

    /// Dense index of a block into `block_meta`.
    #[inline]
    pub(crate) fn bidx(&self, blk: BlockAddr) -> usize {
        self.chip_slot(blk.channel.0, blk.chip) * self.cfg.flash.blocks_per_chip as usize
            + blk.block as usize
    }

    #[inline]
    pub(crate) fn block_meta_get(&self, blk: BlockAddr) -> Option<&BlockMeta> {
        self.block_meta[self.bidx(blk)].as_ref()
    }

    #[inline]
    pub(crate) fn block_meta_get_mut(&mut self, blk: BlockAddr) -> Option<&mut BlockMeta> {
        let i = self.bidx(blk);
        self.block_meta[i].as_mut()
    }

    pub(crate) fn block_meta_insert(&mut self, blk: BlockAddr, meta: BlockMeta) {
        let i = self.bidx(blk);
        if self.block_meta[i].replace(meta).is_none() {
            self.n_block_meta += 1;
        }
    }

    pub(crate) fn block_meta_remove(&mut self, blk: BlockAddr) -> Option<BlockMeta> {
        let i = self.bidx(blk);
        let meta = self.block_meta[i].take();
        if meta.is_some() {
            self.n_block_meta -= 1;
        }
        meta
    }

    /// Ids of all hosted vSSDs in registration order.
    pub fn vssd_ids(&self) -> Vec<VssdId> {
        self.vssds.iter().map(|v| v.cfg.id).collect()
    }

    /// Logical capacity of a vSSD in pages, derived from its channel share
    /// after over-provisioning: the LPAs its map covers.
    pub fn logical_capacity_pages(&self, id: VssdId) -> u64 {
        self.vssds[self.idx(id)].map.len()
    }

    /// Logical capacity of a vSSD in bytes.
    pub fn logical_capacity_bytes(&self, id: VssdId) -> u64 {
        self.logical_capacity_pages(id) * u64::from(self.cfg.flash.page_bytes)
    }

    /// Converts a bandwidth to whole gSB channels (rounding down), per §3.6.
    pub fn channels_for_bandwidth(&self, bytes_per_sec: f64) -> usize {
        if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return 0;
        }
        (bytes_per_sec / self.cfg.flash.channel_peak_bytes_per_sec()).floor() as usize
    }

    /// Submits one I/O request. Returns the id its completion will carry.
    ///
    /// # Panics
    ///
    /// Panics if the request's arrival is in the simulated past, its vSSD
    /// is unknown, its length is zero, or it ends past the vSSD's logical
    /// capacity.
    pub fn submit(&mut self, req: IoRequest) -> RequestId {
        assert!(
            req.arrival >= self.now,
            "arrival {} is before now {}",
            req.arrival,
            self.now
        );
        let idx = self.idx(req.vssd);
        let (_, last) = req.page_span(u64::from(self.cfg.flash.page_bytes));
        let pages = self.vssds[idx].map.len();
        assert!(
            last < pages,
            "request ends at lpa {last}, past {}'s {pages} logical pages",
            req.vssd
        );
        let id = self.next_req;
        self.next_req += 1;
        if self.obs_on {
            self.obs.record(ObsEvent::RequestSubmit {
                at: req.arrival,
                req: id,
                vssd: req.vssd.0,
                read: req.op.is_read(),
                bytes: req.len,
            });
        }
        let h = self.reqs.insert(InflightReq {
            ext_id: id,
            offset: req.offset,
            len: req.len,
            arrival: req.arrival,
            first_start: SimTime::MAX,
            remaining: 0,
            vssd_idx: idx as u16,
            op: req.op,
        });
        self.events.push(req.arrival, Ev::Arrival { h });
        RequestId(id)
    }

    /// Advances simulated time to `t`, processing every event in order.
    ///
    /// Two sources share one `(at, seq)` order: the event queue and the
    /// bus arbiter's steps, whose seqs come from the queue's own counter.
    /// Each iteration runs whichever holds the smaller key, as long as it
    /// is due by `t` — so everything runs where one queue holding both
    /// would have popped it.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current time.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot run backwards");
        let _prof = fleetio_obs::prof::span("engine.run_until");
        loop {
            let step = self.sliced.front().map(Sliced::key).filter(|k| k.0 <= t);
            let ev = match step {
                Some(key) => self.events.pop_if_before(key),
                None => self.events.pop_before(t),
            };
            match (ev, step) {
                (Some(ev), _) => self.dispatch_event(ev.at, ev.payload),
                (None, Some(_)) => self.step_sliced(),
                (None, None) => break,
            }
        }
        self.now = t;
    }

    /// Dispatches one event at its timestamp.
    fn dispatch_event(&mut self, at: SimTime, ev: Ev) {
        #[cfg(test)]
        if matches!(ev, Ev::Grant { .. }) && self.now == at {
            self.same_instant_grants += 1;
        }
        self.now = at;
        // One host-time span per event kind: the DES dispatch loop is
        // the simulator's hottest path, and the per-kind breakdown is
        // what the perf baseline tracks.
        let _ev_prof = fleetio_obs::prof::span(match ev {
            Ev::Arrival { .. } => "engine.ev.arrival",
            Ev::PageDone { .. } => "engine.ev.page_done",
            Ev::GcDone { .. } => "engine.ev.gc_done",
            Ev::AdmissionTick => "engine.ev.admission_tick",
            Ev::TokenRetry { .. } => "engine.ev.token_retry",
            #[cfg(test)]
            Ev::Grant { .. } => "engine.ev.grant",
        });
        match ev {
            Ev::Arrival { h } => self.process_arrival(h),
            Ev::PageDone { ch, tag } => self.process_page_done(ch, tag),
            Ev::GcDone { job, busy } => self.process_gc_done(job, busy),
            Ev::AdmissionTick => self.process_admission_tick(),
            Ev::TokenRetry { ch } => {
                self.chans[usize::from(ch)].retry_pending = false;
                self.try_dispatch(ch);
            }
            #[cfg(test)]
            Ev::Grant { h } => self.process_grant(h),
        }
        #[cfg(feature = "audit")]
        self.audit_event();
    }

    /// Lifetime count of DES events processed by this engine (the
    /// sim-events/sec numerator for throughput reporting). The bus
    /// arbiter's steps — the grants of time-sliced transfers — are not
    /// queue events and are not counted.
    pub fn events_processed(&self) -> u64 {
        self.events.popped()
    }

    /// Moves all requests completed since the last call onto the end of
    /// `out`. Both vectors keep their capacity, so a caller draining every
    /// tick into one reused buffer costs no allocation at steady state.
    pub fn drain_completed_into(&mut self, out: &mut Vec<CompletedRequest>) {
        out.append(&mut self.completed);
    }

    /// Drains all requests completed since the last call into a fresh
    /// vector.
    pub fn drain_completed(&mut self) -> Vec<CompletedRequest> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// Sets a vSSD's I/O priority (the RL `Set_Priority(level)` action).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn set_priority(&mut self, id: VssdId, priority: Priority) {
        let idx = self.idx(id);
        self.vssds[idx].priority = priority;
    }

    /// Re-weights a vSSD's stride-scheduling tickets on every channel it
    /// uses (the Adaptive baseline's proportional-share reallocation).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or `tickets` is zero.
    pub fn set_tickets(&mut self, id: VssdId, tickets: u32) {
        assert!(tickets > 0, "tickets must be positive");
        let idx = self.idx(id);
        self.vssds[idx].cfg.tickets = tickets;
        for chan in &mut self.chans {
            chan.stride.set_tickets(idx, tickets);
        }
    }

    /// Installs or replaces a vSSD's token-bucket rate limit (bytes/second;
    /// `None` removes throttling). Used by the Adaptive baseline to
    /// re-provision shares every window.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the rate is not positive.
    pub fn set_rate_limit(&mut self, id: VssdId, bytes_per_sec: Option<f64>) {
        let idx = self.idx(id);
        self.vssds[idx].cfg.rate_limit = bytes_per_sec;
        self.vssds[idx].bucket =
            bytes_per_sec.map(|rate| crate::token_bucket::TokenBucket::new(rate, rate * 0.05));
    }

    /// Routes a harvest action through admission control. It executes at
    /// the next 50 ms admission batch.
    pub fn submit_action(&mut self, action: HarvestAction) {
        self.admission.submit(action);
    }

    /// Freezes and returns the vSSD's statistics window covering
    /// `[last call, now]`, and starts a new window.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or no time has passed since the last call.
    pub fn finish_window(&mut self, id: VssdId) -> WindowSummary {
        let _prof = fleetio_obs::prof::span("engine.finish_window");
        let idx = self.idx(id);
        let start = self.window_start[idx];
        let len = self.now.saturating_since(start);
        self.window_start[idx] = self.now;
        let summary = self.vssds[idx].window.finish(start, len);
        if self.obs_on {
            self.obs.record(ObsEvent::WindowFlush(Box::new(WindowFlush {
                at: self.now,
                vssd: id.0,
                avg_bandwidth: summary.avg_bandwidth,
                avg_iops: summary.avg_iops,
                p99_latency: summary.p99_latency,
                slo_violation_rate: summary.slo_violation_rate,
                gc_busy_frac: summary.gc_busy_frac,
                total_bytes: summary.total_bytes,
                total_ops: summary.total_ops,
            })));
        }
        summary
    }

    /// RL-facing snapshot of a vSSD's non-window states.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn snapshot(&self, id: VssdId) -> VssdSnapshot {
        let v = &self.vssds[self.idx(id)];
        let mapped = v.mapped_pages * u64::from(self.cfg.flash.page_bytes);
        let harvested_channels = v
            .harvested
            .iter()
            .filter_map(|g| self.pool.get(*g))
            .map(|g| g.n_chls())
            .sum();
        let harvestable_channels = self
            .pool
            .of_home(id)
            .iter()
            .filter_map(|g| self.pool.get(*g))
            .filter(|g| !g.in_use())
            .map(|g| g.n_chls())
            .sum();
        VssdSnapshot {
            free_capacity_bytes: self.logical_capacity_bytes(id).saturating_sub(mapped),
            in_gc: v.in_gc(),
            priority: v.priority,
            harvested_channels,
            harvestable_channels,
        }
    }

    /// Clears a vSSD's lifetime-cumulative statistics (used to exclude
    /// ramp-up windows from measured runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn reset_cumulative(&mut self, id: VssdId) {
        let idx = self.idx(id);
        self.vssds[idx].cumulative = vstate::VssdCumulative::default();
    }

    /// Lifetime-cumulative statistics of a vSSD.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn cumulative(&self, id: VssdId) -> &VssdCumulative {
        &self.vssds[self.idx(id)].cumulative
    }

    /// The per-channel peak bandwidth used for bandwidth↔channel
    /// conversions, bytes/second.
    pub fn channel_peak_bytes_per_sec(&self) -> f64 {
        self.cfg.flash.channel_peak_bytes_per_sec()
    }

    /// Requests submitted and not yet completed, across all vSSDs.
    pub fn requests_in_flight(&self) -> usize {
        self.reqs.len()
    }

    /// Total queued page operations for a vSSD across all channels
    /// (an instantaneous queue-depth signal).
    pub fn queued_ops(&self, id: VssdId) -> usize {
        let idx = self.idx(id);
        self.chans
            .iter()
            .map(|c| c.queues[idx].iter().map(|q| q.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;

    fn engine_2vssd() -> Engine {
        let cfg = EngineConfig {
            flash: FlashConfig::small_test(),
            ..Default::default()
        };
        let v0 = VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)]);
        let v1 = VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]);
        Engine::new(cfg, vec![v0, v1])
    }

    #[test]
    fn construction_and_accessors() {
        let e = engine_2vssd();
        assert_eq!(e.vssd_ids(), vec![VssdId(0), VssdId(1)]);
        assert_eq!(e.now(), SimTime::ZERO);
        // 2 channels × 2 chips × logical blocks (80% of 16 = 12) × 32 pages.
        assert_eq!(e.logical_capacity_pages(VssdId(0)), 2 * 2 * 12 * 32);
    }

    #[test]
    fn channels_for_bandwidth_rounds_down() {
        let e = engine_2vssd();
        let ch_bw = e.channel_peak_bytes_per_sec();
        assert_eq!(e.channels_for_bandwidth(0.0), 0);
        assert_eq!(e.channels_for_bandwidth(ch_bw * 0.9), 0);
        assert_eq!(e.channels_for_bandwidth(ch_bw * 1.5), 1);
        assert_eq!(e.channels_for_bandwidth(ch_bw * 3.0), 3);
        assert_eq!(e.channels_for_bandwidth(f64::NAN), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate vssd id")]
    fn duplicate_ids_panic() {
        let cfg = EngineConfig {
            flash: FlashConfig::small_test(),
            ..Default::default()
        };
        let v = VssdConfig::hardware(VssdId(0), vec![ChannelId(0)]);
        let _ = Engine::new(cfg, vec![v.clone(), v]);
    }

    #[test]
    #[should_panic(expected = "in-flight requests index at most 65 536")]
    fn more_vssds_than_a_u16_index_panic() {
        let cfg = EngineConfig {
            flash: FlashConfig::small_test(),
            ..Default::default()
        };
        let v = VssdConfig::hardware(VssdId(0), vec![ChannelId(0)]);
        let _ = Engine::new(cfg, vec![v; 65_537]);
    }

    #[test]
    #[should_panic(expected = "outside the device")]
    fn out_of_range_channel_panics() {
        let cfg = EngineConfig {
            flash: FlashConfig::small_test(),
            ..Default::default()
        };
        let v = VssdConfig::hardware(VssdId(0), vec![ChannelId(99)]);
        let _ = Engine::new(cfg, vec![v]);
    }

    /// The L2P map covers exactly the logical capacity: the last page is a
    /// valid target, one byte past it is refused at submission.
    #[test]
    #[should_panic(expected = "past vssd0's 1536 logical pages")]
    fn request_past_the_logical_capacity_panics() {
        let mut e = engine_2vssd();
        let page = u64::from(e.cfg.flash.page_bytes);
        let mut req = IoRequest {
            vssd: VssdId(0),
            op: IoOp::Write,
            offset: 1535 * page,
            len: page,
            arrival: SimTime::ZERO,
        };
        e.submit(req);
        req.len += 1;
        e.submit(req);
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn run_backwards_panics() {
        let mut e = engine_2vssd();
        e.run_until(SimTime::from_secs(1));
        e.run_until(SimTime::from_millis(1));
    }

    #[test]
    fn warm_up_consumes_capacity() {
        let mut e = engine_2vssd();
        let before = e.snapshot(VssdId(0)).free_capacity_bytes;
        e.warm_up(VssdId(0), 0.5);
        let after = e.snapshot(VssdId(0)).free_capacity_bytes;
        assert!(after < before);
        assert!((before - after) as f64 / before as f64 > 0.45);
        // Warm-up must not advance time or consume device bus accounting.
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.device().stats().host_write_bytes, 0);
    }

    #[test]
    fn warm_up_of_nothing_is_a_no_op() {
        let mut e = engine_2vssd();
        e.warm_up(VssdId(0), 0.0);
        assert_eq!(e.vssds[0].mapped_pages, 0);
        assert!(e.vssds[0].map.get(0).is_none());
        assert_eq!(e.vssds[0].stripe_pos, 0);
        assert_eq!(e.n_block_meta, 0, "no block may be opened");
        assert_eq!(e.device().chip(ChannelId(0), 0).free_count(), 16);
    }

    /// Warming twice rewrites the same LPAs: the mapped count stays, and
    /// exactly the first pass's physical pages are invalidated.
    #[test]
    fn second_warm_up_invalidates_exactly_the_first_pass() {
        let mut e = engine_2vssd();
        e.warm_up(VssdId(0), 0.4);
        let pages = e.vssds[0].mapped_pages;
        assert_eq!(pages, (2 * 2 * 12 * 32) * 2 / 5);
        let first: Vec<_> = (0..pages)
            .map(|l| e.vssds[0].map.get(l).expect("warmed"))
            .collect();
        let live = |e: &Engine, p: &fleetio_flash::addr::Ppa| {
            e.device()
                .chip(p.channel(), p.chip())
                .is_valid(p.block.block, p.page)
        };
        assert!(first.iter().all(|p| live(&e, p)));
        e.warm_up(VssdId(0), 0.4);
        assert_eq!(e.vssds[0].mapped_pages, pages);
        assert!(e.vssds[0].map.get(pages).is_none());
        assert!(first.iter().all(|p| !live(&e, p)));
        let second: Vec<_> = (0..pages)
            .map(|l| e.vssds[0].map.get(l).expect("still mapped"))
            .collect();
        assert!(second.iter().all(|p| live(&e, p)));
        // Every page written is one pass's or the other's, nothing else
        // was invalidated and nothing was collected.
        let (mut written, mut valid) = (0u64, 0u64);
        for ch in 0..2 {
            for chip in 0..2 {
                let c = e.device().chip(ChannelId(ch), chip);
                for b in 0..c.len() as u32 {
                    written += u64::from(c.block(b).written_count());
                    valid += u64::from(c.block(b).valid_count());
                }
            }
        }
        assert_eq!((written, valid), (2 * pages, pages));
        assert_eq!(e.device().stats().gc_runs, 0);
    }

    /// Warm-up is the foreground striping walk with the GC triggers off:
    /// with a gSB harvested it stripes over the loaned channels too, and
    /// the per-page reference walk places every page identically.
    #[test]
    fn warm_up_stripes_over_a_harvested_gsb_like_any_write() {
        let mut placed = Vec::new();
        for oracle in [false, true] {
            let mut e = engine_2vssd();
            e.stripe_oracle = oracle;
            e.set_harvestable_target(VssdId(0), 2);
            e.set_harvest_target(VssdId(1), 2);
            assert_eq!(e.vssds[1].stripe.len(), 4);
            e.warm_up(VssdId(1), 0.25);
            let pages = e.vssds[1].mapped_pages;
            assert_eq!(pages, 2 * 2 * 12 * 32 / 4);
            let ppas: Vec<_> = (0..pages).map(|l| e.vssds[1].map.get(l)).collect();
            let loaned = ppas.iter().flatten().filter(|p| p.channel().0 < 2).count();
            assert!(loaned > 0, "warm-up never used the harvested channels");
            placed.push(ppas);
        }
        assert_eq!(placed[0], placed[1]);
    }

    #[test]
    fn drain_completed_into_appends_and_keeps_capacity() {
        let mut e = engine_2vssd();
        let write = |e: &mut Engine, n: u64| {
            for i in 0..n {
                e.submit(IoRequest {
                    vssd: VssdId(0),
                    op: IoOp::Write,
                    offset: i * 16 * 1024,
                    len: 16 * 1024,
                    arrival: e.now(),
                });
            }
            e.run_until(e.now() + SimDuration::from_millis(20));
        };
        write(&mut e, 5);
        let mut out = Vec::new();
        e.drain_completed_into(&mut out);
        assert_eq!(out.len(), 5);
        assert!(e.completed.is_empty() && e.completed.capacity() >= 5);
        write(&mut e, 3);
        e.drain_completed_into(&mut out);
        assert_eq!(out.len(), 8, "draining appends");
        assert!(e.drain_completed().is_empty());
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "cached write stripe")]
    fn audit_sweep_catches_a_stale_stripe() {
        let mut e = engine_2vssd();
        e.set_harvestable_target(VssdId(0), 2);
        e.set_harvest_target(VssdId(1), 2);
        e.audit_sweep();
        // Drop the gSB from the list without rebuilding the stripe.
        e.vssds[1].harvested.clear();
        e.audit_sweep();
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "was due at")]
    fn audit_sweep_catches_an_overdue_arbiter_step() {
        let mut e = engine_2vssd();
        e.run_until(SimTime::from_millis(1));
        e.chans[0].in_flight = 1;
        e.sliced.push_back(Sliced {
            at: SimTime::from_micros(999),
            seq: 0,
            ch: 0,
            chip: 0,
            vssd: 0,
            read: true,
            gc: false,
            tag: 0,
            remaining: 0,
        });
        e.audit_sweep();
    }

    /// One queued page op and one in-flight request exist per queued page
    /// and per request in flight, so under overload these sizes are the
    /// engine's memory per unit of backlog.
    #[test]
    fn backlog_records_stay_small() {
        let op = std::mem::size_of::<PageOp>();
        assert!(op <= 24, "PageOp is {op} B; a queued page op must fit 24 B");
        let slot = Slab::<InflightReq>::SLOT_BYTES;
        assert!(
            slot <= 56,
            "an in-flight request's slab slot is {slot} B; it must fit 56 B"
        );
    }

    #[test]
    fn snapshot_defaults() {
        let e = engine_2vssd();
        let s = e.snapshot(VssdId(0));
        assert!(!s.in_gc);
        assert_eq!(s.priority, Priority::Medium);
        assert_eq!(s.harvested_channels, 0);
        assert_eq!(s.harvestable_channels, 0);
    }

    #[test]
    fn config_validation() {
        let mut c = EngineConfig::default();
        assert!(c.validate().is_ok());
        c.dispatch_ahead = 0;
        assert!(c.validate().is_err());
        c = EngineConfig::default();
        c.gc_free_threshold = 1.5;
        assert!(c.validate().is_err());
    }
}
