//! The four workloads. Each module's `setup` is the workload's set-up
//! (`setup_s`); the returned value runs repetitions.

use fleetio::experiment::{calibrate_slo, hardware_layout};
use fleetio::{FleetIoConfig, TenantSpec};
use fleetio_des::hash::Fnv64;
use fleetio_workloads::WorkloadKind;

use crate::runner::{Size, Workload};

pub mod coloc_eval;
pub mod fleet_hotspot;
pub mod pretrain;
pub mod store_record;

/// Runs the set-up of workload `name`; `None` for an unknown name.
pub fn setup(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "coloc-eval" => Box::new(coloc_eval::ColocEval::setup(seed, size)),
        "pretrain" => Box::new(pretrain::Pretrain::setup(seed, size)),
        "fleet-hotspot" => Box::new(fleet_hotspot::FleetHotspot::setup(seed, size)),
        "store-record" => Box::new(store_record::StoreRecord::setup(seed, size)),
        _ => return None,
    })
}

/// Seed of every policy initialisation and exploration stream. `--seed`
/// drives the inputs — each tenant's I/O stream, placement, SLO
/// calibration — but not the models: a randomly initialised policy's
/// appetite for harvesting moves the simulated load by tens of percent
/// (one hotspot fleet processes 1.35–3.7 M events depending on its model
/// seed alone, ±1.5 % depending on its spec seed), which would make host
/// times incomparable from one `--seed` to the next.
pub(crate) const MODEL_SEED: u64 = 0xF1EE;

/// Streaming FNV-1a digest over little-endian words.
#[derive(Debug, Default)]
pub(crate) struct Digest(Fnv64);

impl Digest {
    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_le_bytes());
        self
    }

    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The two §3.8 pre-training scenarios (tpce and livemaps, each beside
/// batch-analytics) on an equal hardware-isolated split, the
/// latency-sensitive tenant carrying its calibrated SLO — without it the
/// cloned policy never sees a violation and learns no back-off.
pub(crate) fn pretrain_scenarios(cfg: &FleetIoConfig, seed: u64) -> Vec<Vec<TenantSpec>> {
    let half = usize::from(cfg.engine.flash.channels) / 2;
    [WorkloadKind::Tpce, WorkloadKind::LiveMaps]
        .into_iter()
        .enumerate()
        .map(|(i, lc)| {
            let slo = calibrate_slo(cfg, lc, half, 3, seed ^ 0x510);
            hardware_layout(
                cfg,
                &[lc, WorkloadKind::BatchAnalytics],
                &[Some(slo), None],
                seed.wrapping_add(100 + i as u64),
            )
        })
        .collect()
}
