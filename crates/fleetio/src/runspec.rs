//! Serializable run specifications for the deterministic run store.
//!
//! A [`RunSpec`] is everything the run store needs to *re-create* a
//! recorded collocation run bit-identically: the flash preset, every
//! tenant's vSSD configuration + workload + seed, the decision window,
//! warm-up fraction, window count and checkpoint cadence. The spec is
//! embedded (binary-encoded via the `FIOM` payload codec) in the run
//! manifest beside its CRC-32 [`RunSpec::fingerprint`] — so a store
//! whose spec blob disagrees with its fingerprint is refused before
//! `replay` rebuilds a run from it.
//!
//! Only *presets* of the engine configuration are serialized (the flash
//! geometry enum plus engine defaults), not arbitrary `EngineConfig`
//! values: the spec must stay honest about what it can rebuild. Runs
//! driven by hand-tuned engine knobs are out of the store's replay scope
//! (see DESIGN.md "Run store" caveats).

use fleetio_des::codec::{Dec, DecodeError, Enc};
use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_vssd::engine::EngineConfig;
use fleetio_vssd::vssd::{IsolationMode, VssdConfig, VssdId};
use fleetio_workloads::WorkloadKind;

use crate::driver::{Colocation, TenantSpec};

/// Named flash geometries a stored run can be rebuilt from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashPreset {
    /// [`FlashConfig::paper_default`] (the crate default).
    Default,
    /// [`FlashConfig::experiment_default`].
    Experiment,
    /// [`FlashConfig::training_test`] (4 channels, CI scale).
    TrainingTest,
    /// [`FlashConfig::small_test`].
    SmallTest,
}

impl FlashPreset {
    /// The preset's stable byte in an encoded spec ([`RunSpec::encode`]
    /// and the fleet spec share it). Never renumber released values.
    pub fn tag(self) -> u8 {
        match self {
            FlashPreset::Default => 0,
            FlashPreset::Experiment => 1,
            FlashPreset::TrainingTest => 2,
            FlashPreset::SmallTest => 3,
        }
    }

    /// Inverse of [`FlashPreset::tag`].
    ///
    /// # Errors
    ///
    /// An unknown tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(FlashPreset::Default),
            1 => Ok(FlashPreset::Experiment),
            2 => Ok(FlashPreset::TrainingTest),
            3 => Ok(FlashPreset::SmallTest),
            other => Err(DecodeError::Malformed(format!("flash preset tag {other}"))),
        }
    }

    /// The geometry this preset names.
    pub fn config(self) -> FlashConfig {
        match self {
            FlashPreset::Default => FlashConfig::paper_default(),
            FlashPreset::Experiment => FlashConfig::experiment_default(),
            FlashPreset::TrainingTest => FlashConfig::training_test(),
            FlashPreset::SmallTest => FlashConfig::small_test(),
        }
    }
}

/// A self-contained, serializable description of one recordable run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Flash geometry preset (engine knobs ride their defaults).
    pub flash: FlashPreset,
    /// Tenants: vSSD configuration + workload + per-tenant seed.
    pub tenants: Vec<TenantSpec>,
    /// Decision-window length.
    pub window: SimDuration,
    /// Pre-fill fraction before recording starts.
    pub warm_fraction: f64,
    /// Decision windows to run.
    pub windows: u32,
    /// Write a replay anchor every this many windows (0 = no anchors).
    pub checkpoint_every: u32,
    /// Top-level seed the tenant seeds were derived from (provenance;
    /// the per-tenant seeds are what actually drive the workloads).
    pub seed: u64,
}

impl RunSpec {
    /// A small four-tenant mixed scenario at CI scale (training-test
    /// flash, 500 ms windows) — the default subject for `fleetio store
    /// record` and the ingest benchmark. Same shape as
    /// `examples/trace_colocation.rs`: two latency-sensitive and two
    /// bandwidth-intensive tenants, one hardware-isolated channel each.
    pub fn demo(seed: u64, windows: u32, checkpoint_every: u32) -> Self {
        let kinds = [
            WorkloadKind::Ycsb,
            WorkloadKind::Tpce,
            WorkloadKind::TeraSort,
            WorkloadKind::MlPrep,
        ];
        let slo = SimDuration::from_millis(2);
        let tenants = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let mut vc = VssdConfig::hardware(VssdId(i as u32), vec![ChannelId(i as u16)]);
                if i < 2 {
                    vc.slo = Some(slo);
                }
                let mut t = TenantSpec::new(vc, kind, seed.wrapping_add(i as u64 * 31));
                if i < 2 {
                    // Latency-sensitive tenants also carry a window-level
                    // SLO (p95 at the scheduling deadline, p99 relaxed).
                    t.slo_spec = Some(fleetio_obs::SloSpec::latency(
                        slo,
                        SimDuration::from_millis(5),
                    ));
                }
                t
            })
            .collect();
        RunSpec {
            flash: FlashPreset::TrainingTest,
            tenants,
            window: SimDuration::from_millis(500),
            warm_fraction: 0.9,
            windows,
            checkpoint_every,
            seed,
        }
    }

    /// Encodes the spec as a flat `FIOM`-style payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Enc::new(&mut out);
        enc.u8(self.flash.tag());
        enc.u64(self.window.as_nanos());
        enc.f64(self.warm_fraction);
        enc.u32(self.windows);
        enc.u32(self.checkpoint_every);
        enc.u64(self.seed);
        enc.usize(self.tenants.len());
        for t in &self.tenants {
            enc.str(t.kind.name());
            enc.u64(t.seed);
            enc.u32(t.config.id.0);
            enc.usize(t.config.channels.len());
            for c in &t.config.channels {
                enc.u32(u32::from(c.0));
            }
            enc.u8(match t.config.isolation {
                IsolationMode::Hardware => 0,
                IsolationMode::Software => 1,
            });
            match t.config.slo {
                Some(slo) => {
                    enc.bool(true);
                    enc.u64(slo.as_nanos());
                }
                None => enc.bool(false),
            }
            match t.config.rate_limit {
                Some(r) => {
                    enc.bool(true);
                    enc.f64(r);
                }
                None => enc.bool(false),
            }
            enc.u32(t.config.tickets);
            enc.f64(t.config.capacity_share);
            match &t.slo_spec {
                Some(s) => {
                    enc.bool(true);
                    enc.u64(s.p95_target.as_nanos());
                    enc.u64(s.p99_target.as_nanos());
                    enc.f64(s.throughput_floor);
                }
                None => enc.bool(false),
            }
        }
        out
    }

    /// Decodes a spec written by [`RunSpec::encode`].
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes, unknown preset/workload names, or
    /// out-of-range field values.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Dec::new(payload);
        let flash = FlashPreset::from_tag(dec.u8()?)?;
        let window = SimDuration::from_nanos(dec.u64()?);
        let warm_fraction = dec.f64()?;
        let windows = dec.u32()?;
        let checkpoint_every = dec.u32()?;
        let seed = dec.u64()?;
        let n_tenants = dec.usize()?;
        if n_tenants > 4096 {
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
            let id = VssdId(dec.u32()?);
            let n_channels = dec.usize()?;
            if n_channels > u16::MAX as usize {
                return Err(DecodeError::Malformed(format!(
                    "implausible channel count {n_channels}"
                )));
            }
            let mut channels = Vec::with_capacity(n_channels);
            for _ in 0..n_channels {
                let c = dec.u32()?;
                if c > u32::from(u16::MAX) {
                    return Err(DecodeError::Malformed(format!("channel id {c}")));
                }
                channels.push(ChannelId(c as u16));
            }
            let isolation = match dec.u8()? {
                0 => IsolationMode::Hardware,
                1 => IsolationMode::Software,
                other => {
                    return Err(DecodeError::Malformed(format!("isolation tag {other}")));
                }
            };
            let slo = if dec.bool()? {
                Some(SimDuration::from_nanos(dec.u64()?))
            } else {
                None
            };
            let rate_limit = if dec.bool()? { Some(dec.f64()?) } else { None };
            let tickets = dec.u32()?;
            let capacity_share = dec.f64()?;
            let slo_spec = if dec.bool()? {
                let s = fleetio_obs::SloSpec {
                    p95_target: SimDuration::from_nanos(dec.u64()?),
                    p99_target: SimDuration::from_nanos(dec.u64()?),
                    throughput_floor: dec.f64()?,
                };
                s.validate().map_err(DecodeError::Malformed)?;
                Some(s)
            } else {
                None
            };
            let mut tenant = TenantSpec::new(
                VssdConfig {
                    id,
                    channels,
                    isolation,
                    slo,
                    rate_limit,
                    tickets,
                    capacity_share,
                },
                kind,
                t_seed,
            );
            tenant.slo_spec = slo_spec;
            tenants.push(tenant);
        }
        dec.finish()?;
        let spec = RunSpec {
            flash,
            tenants,
            window,
            warm_fraction,
            windows,
            checkpoint_every,
            seed,
        };
        spec.validate().map_err(DecodeError::Malformed)?;
        Ok(spec)
    }

    /// Whether [`RunSpec::build`] can build this spec: a positive window,
    /// a warm-up fraction in `[0, 1]`, and tenants the engine accepts
    /// ([`EngineConfig::validate_vssds`]). [`RunSpec::decode`] goes
    /// through here, so replay refuses a spec it could not rebuild.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window.is_zero() {
            return Err("window must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.warm_fraction) {
            return Err(format!("warm fraction {}", self.warm_fraction));
        }
        let configs: Vec<VssdConfig> = self.tenants.iter().map(|t| t.config.clone()).collect();
        self.engine_config().validate_vssds(&configs)
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            flash: self.flash.config(),
            ..EngineConfig::default()
        }
    }

    /// CRC-32 of the spec's encoding — the config fingerprint stored in
    /// the run manifest.
    pub fn fingerprint(&self) -> u32 {
        fleetio_des::hash::crc32(&self.encode())
    }

    /// Builds the collocation this spec describes. The caller installs
    /// an obs sink, runs `warm_up(self.warm_fraction)` and drives
    /// `self.windows` windows — `fleetio-store`'s record and replay
    /// paths both go through here, which is what makes them comparable.
    ///
    /// # Panics
    ///
    /// Panics on a spec [`RunSpec::validate`] refuses.
    pub fn build(&self) -> Colocation {
        Colocation::new(self.engine_config(), self.tenants.clone(), self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_spec_round_trips() {
        let spec = RunSpec::demo(42, 6, 2);
        let bytes = spec.encode();
        let back = RunSpec::decode(&bytes).expect("fresh spec decodes");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_changes_with_seed() {
        let a = RunSpec::demo(42, 6, 2);
        let b = RunSpec::demo(43, 6, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn corruption_never_panics() {
        let bytes = RunSpec::demo(7, 4, 1).encode();
        for cut in 0..bytes.len() {
            assert!(RunSpec::decode(&bytes[..cut]).is_err());
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x04;
            let _ = RunSpec::decode(&bad); // must not panic
        }
    }

    #[test]
    fn software_tenant_round_trips() {
        let mut spec = RunSpec::demo(1, 2, 0);
        let mut vc = VssdConfig::software(VssdId(9), vec![ChannelId(0), ChannelId(1)])
            .with_rate_limit(1.5e8)
            .with_capacity_share(0.5);
        vc.tickets = 250;
        spec.tenants
            .push(TenantSpec::new(vc, WorkloadKind::PageRank, 77));
        let back = RunSpec::decode(&spec.encode()).expect("decodes");
        assert_eq!(back, spec);
    }
}
