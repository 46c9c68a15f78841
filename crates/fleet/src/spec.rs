//! Serializable fleet specifications.
//!
//! A [`FleetSpec`] is everything needed to re-create a fleet run
//! bit-identically: the per-shard flash preset and slot carving, every
//! tenant's workload + root seed, the decision window, the placement
//! policy and the control-plane thresholds. Like `fleetio::RunSpec` it
//! binary-encodes via the `FIOM` payload codec and pins a CRC-32
//! [`FleetSpec::fingerprint`]; per-shard `StoreSink` manifests embed the
//! encoding so stored fleet shards are diffable and attributable.

use fleetio::runspec::FlashPreset;
use fleetio_des::codec::{Dec, DecodeError, Enc};
use fleetio_des::rng::{derive_seed_indexed, stream, Rng};
use fleetio_des::SimDuration;
use fleetio_obs::SloSpec;
use fleetio_workloads::WorkloadKind;

use crate::control::SlotAddr;

/// One fleet tenant: a workload stream that can move between slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTenantSpec {
    /// The workload to run.
    pub kind: WorkloadKind,
    /// The tenant's root seed. Each (re-)attach derives its generator
    /// stream as `derive_seed_indexed(seed, "fleet-attach", epoch)`, so
    /// a migrated tenant's traffic stays deterministic without replaying
    /// the source shard's consumed stream.
    pub seed: u64,
    /// The tenant's service-level objective, evaluated every decision
    /// window at the fleet merge. `None` exempts the tenant from SLO
    /// accounting: it emits no `slo_window` rows, so the health report
    /// leaves it out.
    pub slo: Option<SloSpec>,
    /// Phases to rotate the workload's cycle left at attach: the tenant
    /// starts mid-job instead of at its first phase, so a fleet of
    /// batch tenants need not all begin with the same scan. Taken
    /// modulo the kind's phase count; `0` starts at the natural first
    /// phase. Preserved across migrations.
    pub phase_rotation: u32,
}

/// How tenants map to slots at fleet start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Tenant `i` fills shard `i / slots_per_shard`, slot
    /// `i % slots_per_shard` — adjacent tenants share an SSD. Used by
    /// the hotspot demo to engineer an overloaded shard.
    Packed,
    /// A seeded Fisher–Yates shuffle of all slots (stream label
    /// `"fleet-placement"` off the fleet seed) — the deterministic
    /// stand-in for a fleet scheduler's initial spread.
    Shuffled,
}

impl Placement {
    fn tag(self) -> u8 {
        match self {
            Placement::Packed => 0,
            Placement::Shuffled => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(Placement::Packed),
            1 => Ok(Placement::Shuffled),
            other => Err(DecodeError::Malformed(format!("placement tag {other}"))),
        }
    }
}

/// A self-contained, serializable description of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Per-shard flash geometry preset (each shard is one such SSD).
    pub flash: FlashPreset,
    /// Number of shards (independent SSD engines).
    pub shards: u32,
    /// Fixed vSSD slots per shard. Must divide the preset's channel
    /// count; slot `i` owns the `i`-th contiguous channel group,
    /// hardware-isolated.
    pub slots_per_shard: u32,
    /// SLO applied to every slot (tenants inherit the slot's SLO while
    /// resident; slots are provisioned identically so tenants can move).
    pub slot_slo: Option<SimDuration>,
    /// The tenants. At most `shards × slots_per_shard`; fewer leaves
    /// free slots as migration headroom.
    pub tenants: Vec<FleetTenantSpec>,
    /// Decision-window length.
    pub window: SimDuration,
    /// Pre-fill fraction for every slot before the run starts.
    pub warm_fraction: f64,
    /// Decision windows to run.
    pub windows: u32,
    /// Initial tenant→slot placement policy.
    pub placement: Placement,
    /// Fleet seed: placement shuffle and any fleet-level derived streams.
    pub seed: u64,
    /// Shard utilization (fraction of its peak bandwidth) above which it
    /// is hotspot-eligible.
    pub hot_util: f64,
    /// A hot shard must also exceed `spread_factor ×` the fleet-mean
    /// utilization (guards against "everything is busy" churn).
    pub spread_factor: f64,
    /// Migration budget per window boundary.
    pub max_migrations_per_window: u32,
    /// Windows a migrated tenant stays put before it may move again.
    pub migration_cooldown: u32,
    /// Decision windows the control plane observes before it plans its
    /// first migration — a burn-in so placement reacts to steady-state
    /// statistics rather than the start-up transient. `0` plans from
    /// the first boundary.
    pub migration_warmup: u32,
}

impl FleetSpec {
    /// A parameterized mixed-fleet scenario: `shards × slots_per_shard`
    /// vSSDs with `n_tenants` tenants cycling through a catalogue biased
    /// to open-loop (latency-sensitive) workloads, shuffled placement.
    ///
    /// # Panics
    ///
    /// Panics if `n_tenants` exceeds the slot count (see
    /// [`FleetSpec::validate`], checked on build).
    pub fn sized(seed: u64, shards: u32, slots_per_shard: u32, n_tenants: u32) -> Self {
        // One bandwidth-intensive closed loop per eight tenants keeps
        // runtime CI-friendly while exercising both source kinds.
        let kinds = [
            WorkloadKind::Ycsb,
            WorkloadKind::Tpce,
            WorkloadKind::VdiWeb,
            WorkloadKind::LiveMaps,
            WorkloadKind::SearchEngine,
            WorkloadKind::Ycsb,
            WorkloadKind::Tpce,
            WorkloadKind::TeraSort,
        ];
        let tenants = (0..n_tenants)
            .map(|i| {
                let kind = kinds[i as usize % kinds.len()];
                FleetTenantSpec {
                    kind,
                    seed: derive_seed_indexed(seed, "fleet-tenant", u64::from(i)),
                    slo: Some(Self::slo_for(kind)),
                    phase_rotation: 0,
                }
            })
            .collect();
        FleetSpec {
            flash: FlashPreset::TrainingTest,
            shards,
            slots_per_shard,
            slot_slo: Some(SimDuration::from_millis(2)),
            tenants,
            window: SimDuration::from_millis(500),
            warm_fraction: 0.4,
            windows: 6,
            placement: Placement::Shuffled,
            seed,
            hot_util: 0.5,
            spread_factor: 1.5,
            max_migrations_per_window: 2,
            migration_cooldown: 2,
            migration_warmup: 0,
        }
    }

    /// The SLO the sized presets give latency-sensitive (open-loop)
    /// tenants: p95/p99 window targets sized to the TrainingTest
    /// preset's quiet-shard latency envelope — attained on a calm
    /// shard, violated under a noisy neighbor.
    pub fn default_tenant_slo() -> SloSpec {
        SloSpec::latency(SimDuration::from_millis(25), SimDuration::from_millis(100))
    }

    /// The SLO the sized presets give bandwidth-intensive (closed-loop)
    /// tenants: a throughput floor with latency targets loose enough
    /// that a batch tenant is judged on bytes moved, not tail latency.
    pub fn batch_tenant_slo() -> SloSpec {
        SloSpec::latency(SimDuration::from_secs(10), SimDuration::from_secs(30))
            .with_throughput_floor(1_000_000.0)
    }

    /// The preset SLO for `kind` (see [`FleetSpec::default_tenant_slo`]
    /// and [`FleetSpec::batch_tenant_slo`]).
    pub fn slo_for(kind: WorkloadKind) -> SloSpec {
        if kind.spec().is_closed_loop() {
            Self::batch_tenant_slo()
        } else {
            Self::default_tenant_slo()
        }
    }

    /// The CI fleet: 16 shards × 4 single-channel slots = 64 vSSDs, with
    /// 56 tenants leaving 8 free slots as migration headroom.
    pub fn ci(seed: u64) -> Self {
        Self::sized(seed, 16, 4, 56)
    }

    /// The hotspot-consolidation demo: 64 vSSDs, packed placement with
    /// three heavy closed-loop tenants listed first so they pile onto
    /// the first shard alongside one latency-sensitive victim (tenant 3,
    /// slot 0/3) — an engineered overload the control plane must spread
    /// out, and the SLO story the health report tells: the victim
    /// violates its latency SLO while the heavies crush the shard and
    /// recovers once they migrate away.
    ///
    /// The heavies are rotated to start mid-job, in their write phases
    /// (every batch kind opens with a read scan, so a pack that all
    /// starts at phase zero would not pressure its neighbor until after
    /// the control plane had already reacted to the read burst). The
    /// rest of the fleet runs light interactive kinds only, so the
    /// packed shard stays the hottest until it has shed every heavy.
    pub fn hotspot(seed: u64) -> Self {
        let mut spec = Self::sized(seed, 16, 4, 48);
        // TeraSort rotated into its shuffle spill, MlPrep into its
        // tensor write, PageRank into its shard rewrite: all three are
        // writing from the first window.
        let heavy = [
            (WorkloadKind::TeraSort, 1),
            (WorkloadKind::MlPrep, 2),
            (WorkloadKind::PageRank, 2),
        ];
        for (i, (kind, rot)) in heavy.into_iter().enumerate() {
            spec.tenants[i].kind = kind;
            spec.tenants[i].phase_rotation = rot;
        }
        // The victim: a genuinely light interactive tenant in the last
        // hot-shard slot (the sized catalogue would put bandwidth-heavy
        // LiveMaps there, which would drown the interference signal in
        // its own queueing).
        spec.tenants[3].kind = WorkloadKind::VdiWeb;
        // Everything after the hot pack is light and interactive, so
        // the migration budget is never spent elsewhere.
        for t in spec.tenants.iter_mut().skip(4) {
            t.kind = match t.kind {
                WorkloadKind::TeraSort | WorkloadKind::LiveMaps => WorkloadKind::VdiWeb,
                WorkloadKind::SearchEngine => WorkloadKind::Tpce,
                other => other,
            };
        }
        // Kinds changed above; re-derive the preset SLOs to match.
        for t in spec.tenants.iter_mut() {
            t.slo = Some(Self::slo_for(t.kind));
        }
        spec.placement = Placement::Packed;
        spec.windows = 8;
        // Observe four windows before migrating — long enough for the
        // victim's violations to be on the books — then drain the hot
        // shard over the following boundaries: even one resident heavy
        // keeps harvesting the victim's channel, so the story needs all
        // three gone. The packed shard stays above 0.35 utilization
        // until then; the light shards never reach it.
        spec.migration_warmup = 4;
        spec.hot_util = 0.35;
        // The interactive fleet idles near 0.4 mean utilization; the
        // stock 1.5× spread guard would mask the packed shard once its
        // first heavy left.
        spec.spread_factor = 1.25;
        spec
    }

    /// Total provisioned vSSD slots.
    pub fn total_slots(&self) -> u32 {
        self.shards * self.slots_per_shard
    }

    /// Channels each slot owns under the preset geometry.
    pub fn channels_per_slot(&self) -> u16 {
        self.flash.config().channels / self.slots_per_shard as u16
    }

    /// One shard's peak bandwidth in bytes/second (all channels).
    pub fn shard_peak_bytes_per_sec(&self) -> f64 {
        let flash = self.flash.config();
        flash.channel_peak_bytes_per_sec() * f64::from(flash.channels)
    }

    /// Structural validation; [`crate::FleetRuntime::new`] and
    /// [`FleetSpec::decode`] both go through here.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || self.slots_per_shard == 0 {
            return Err("need at least one shard and one slot".to_string());
        }
        if self.shards > 4096 {
            return Err(format!("implausible shard count {}", self.shards));
        }
        let channels = self.flash.config().channels;
        if self.slots_per_shard > u32::from(channels)
            || u32::from(channels) % self.slots_per_shard != 0
        {
            return Err(format!(
                "{} slots cannot evenly carve {channels} channels",
                self.slots_per_shard
            ));
        }
        if self.tenants.is_empty() {
            return Err("need at least one tenant".to_string());
        }
        if self.tenants.len() as u32 > self.total_slots() {
            return Err(format!(
                "{} tenants exceed {} slots",
                self.tenants.len(),
                self.total_slots()
            ));
        }
        if self.window.is_zero() {
            return Err("window must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.warm_fraction) {
            return Err(format!("warm fraction {}", self.warm_fraction));
        }
        if self.windows == 0 {
            return Err("need at least one window".to_string());
        }
        if !(self.hot_util > 0.0 && self.hot_util.is_finite()) {
            return Err(format!("hot_util {}", self.hot_util));
        }
        if !(self.spread_factor >= 1.0 && self.spread_factor.is_finite()) {
            return Err(format!("spread_factor {}", self.spread_factor));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if let Some(slo) = &t.slo {
                slo.validate().map_err(|e| format!("tenant {i} SLO: {e}"))?;
            }
        }
        Ok(())
    }

    /// The initial tenant→slot placement, tenant-index order.
    pub fn initial_placement(&self) -> Vec<SlotAddr> {
        let mut slots: Vec<SlotAddr> = (0..self.shards)
            .flat_map(|s| (0..self.slots_per_shard).map(move |l| SlotAddr { shard: s, slot: l }))
            .collect();
        if self.placement == Placement::Shuffled {
            stream(self.seed, "fleet-placement").shuffle(&mut slots);
        }
        slots.truncate(self.tenants.len());
        slots
    }

    /// Encodes the spec as a flat `FIOM`-style payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Enc::new(&mut out);
        enc.u8(self.flash.tag());
        enc.u32(self.shards);
        enc.u32(self.slots_per_shard);
        match self.slot_slo {
            Some(slo) => {
                enc.bool(true);
                enc.u64(slo.as_nanos());
            }
            None => enc.bool(false),
        }
        enc.u64(self.window.as_nanos());
        enc.f64(self.warm_fraction);
        enc.u32(self.windows);
        enc.u8(self.placement.tag());
        enc.u64(self.seed);
        enc.f64(self.hot_util);
        enc.f64(self.spread_factor);
        enc.u32(self.max_migrations_per_window);
        enc.u32(self.migration_cooldown);
        enc.u32(self.migration_warmup);
        enc.usize(self.tenants.len());
        for t in &self.tenants {
            enc.str(t.kind.name());
            enc.u64(t.seed);
            match &t.slo {
                Some(slo) => {
                    enc.bool(true);
                    enc.u64(slo.p95_target.as_nanos());
                    enc.u64(slo.p99_target.as_nanos());
                    enc.f64(slo.throughput_floor);
                }
                None => enc.bool(false),
            }
            enc.u32(t.phase_rotation);
        }
        out
    }

    /// Decodes a spec written by [`FleetSpec::encode`].
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes, unknown preset/workload/placement
    /// tags, or a spec failing [`FleetSpec::validate`].
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Dec::new(payload);
        let flash = FlashPreset::from_tag(dec.u8()?)?;
        let shards = dec.u32()?;
        let slots_per_shard = dec.u32()?;
        let slot_slo = if dec.bool()? {
            Some(SimDuration::from_nanos(dec.u64()?))
        } else {
            None
        };
        let window = SimDuration::from_nanos(dec.u64()?);
        let warm_fraction = dec.f64()?;
        let windows = dec.u32()?;
        let placement = Placement::from_tag(dec.u8()?)?;
        let seed = dec.u64()?;
        let hot_util = dec.f64()?;
        let spread_factor = dec.f64()?;
        let max_migrations_per_window = dec.u32()?;
        let migration_cooldown = dec.u32()?;
        let migration_warmup = dec.u32()?;
        let n_tenants = dec.usize()?;
        if n_tenants > 65_536 {
            return Err(DecodeError::Malformed(format!(
                "implausible tenant count {n_tenants}"
            )));
        }
        let mut tenants = Vec::with_capacity(n_tenants);
        for _ in 0..n_tenants {
            let kind_name = dec.str()?;
            let kind = WorkloadKind::from_name(&kind_name)
                .ok_or_else(|| DecodeError::Malformed(format!("unknown workload {kind_name}")))?;
            let t_seed = dec.u64()?;
            let slo = if dec.bool()? {
                Some(SloSpec {
                    p95_target: SimDuration::from_nanos(dec.u64()?),
                    p99_target: SimDuration::from_nanos(dec.u64()?),
                    throughput_floor: dec.f64()?,
                })
            } else {
                None
            };
            let phase_rotation = dec.u32()?;
            tenants.push(FleetTenantSpec {
                kind,
                seed: t_seed,
                slo,
                phase_rotation,
            });
        }
        dec.finish()?;
        let spec = FleetSpec {
            flash,
            shards,
            slots_per_shard,
            slot_slo,
            tenants,
            window,
            warm_fraction,
            windows,
            placement,
            seed,
            hot_util,
            spread_factor,
            max_migrations_per_window,
            migration_cooldown,
            migration_warmup,
        };
        spec.validate().map_err(DecodeError::Malformed)?;
        Ok(spec)
    }

    /// CRC-32 of the spec's encoding — pinned in per-shard store
    /// manifests.
    pub fn fingerprint(&self) -> u32 {
        fleetio_des::hash::crc32(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_spec_round_trips() {
        let spec = FleetSpec::ci(42);
        assert_eq!(spec.total_slots(), 64);
        assert!(spec.validate().is_ok());
        let back = FleetSpec::decode(&spec.encode()).expect("fresh spec decodes");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn hotspot_spec_packs_heavies_first() {
        let spec = FleetSpec::hotspot(7);
        assert_eq!(spec.placement, Placement::Packed);
        assert!(spec.tenants[0].kind.spec().is_closed_loop());
        let placement = spec.initial_placement();
        assert_eq!(placement[0], SlotAddr { shard: 0, slot: 0 });
        assert_eq!(placement[3], SlotAddr { shard: 0, slot: 3 });
        assert!(spec.validate().is_ok());
        // The hotspot preset exercises the fields the ci() preset leaves
        // at zero: phase rotations on the heavies and a planner burn-in.
        assert!(spec.tenants.iter().any(|t| t.phase_rotation > 0));
        assert!(spec.migration_warmup > 0);
        let back = FleetSpec::decode(&spec.encode()).expect("hotspot spec decodes");
        assert_eq!(back, spec);
    }

    #[test]
    fn shuffled_placement_is_deterministic_and_injective() {
        let spec = FleetSpec::ci(11);
        let a = spec.initial_placement();
        let b = spec.initial_placement();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.tenants.len());
        let mut seen = a.clone();
        seen.sort_by_key(|s| (s.shard, s.slot));
        seen.dedup();
        assert_eq!(seen.len(), a.len(), "placement assigned a slot twice");
        // A different seed shuffles differently.
        assert_ne!(FleetSpec::ci(12).initial_placement(), a);
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut spec = FleetSpec::ci(1);
        spec.slots_per_shard = 3; // does not divide 4 channels
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::ci(1);
        spec.tenants = (0..65)
            .map(|i| FleetTenantSpec {
                kind: WorkloadKind::Ycsb,
                seed: i,
                slo: None,
                phase_rotation: 0,
            })
            .collect();
        assert!(spec.validate().is_err(), "65 tenants into 64 slots");
        let mut spec = FleetSpec::ci(1);
        spec.windows = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn corruption_never_panics() {
        let bytes = FleetSpec::hotspot(3).encode();
        for cut in 0..bytes.len() {
            assert!(FleetSpec::decode(&bytes[..cut]).is_err());
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x11;
            let _ = FleetSpec::decode(&bad); // must not panic
        }
    }
}
