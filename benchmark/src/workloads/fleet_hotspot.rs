//! `fleet-hotspot`: fresh 64-vSSD hotspot fleets (16 shards, 8 windows,
//! 6 migrations each) on two shard workers.
//!
//! The *second* copy of the window loop (`Shard::run_window`) over many
//! lightly loaded single-channel engines, plus what only the fleet has:
//! serial merge, `PolicyBank` batched inference, SLO accounting, series,
//! migration. Many short fleets because `FleetSpec::hotspot` runs out of
//! flash space by 24 windows.

use std::time::Instant;

use fleetio::agent::PretrainedModel;
use fleetio_fleet::{default_model, FleetRuntime, FleetSpec};
use fleetio_obs::prof;

use super::Digest;
use crate::probes;
use crate::runner::{RepOutput, Size, Workload};
use crate::stats::Stat;

const WORKERS: usize = 2;

/// One fleet run's simulated outcome.
#[derive(Debug, Clone, PartialEq)]
struct FleetOutcome {
    digest: u64,
    events: u64,
    ops: u64,
    migrations: usize,
    /// SLO window verdicts attained / observed, over all tenants.
    attained: (u64, u64),
}

/// The workload: one spec and fallback model per fleet.
pub struct FleetHotspot {
    fleets: Vec<(FleetSpec, PretrainedModel)>,
    last: Vec<FleetOutcome>,
    walls: Vec<f64>,
    checked_workers: bool,
}

/// Builds and runs one fleet window by window, pushing build and window
/// host times (ms) onto `timings`.
fn run_fleet(
    spec: &FleetSpec,
    model: &PretrainedModel,
    workers: usize,
    timings: &mut Vec<(&'static str, f64)>,
) -> FleetOutcome {
    let t = Instant::now();
    let mut rt = prof::time("fleet.new", || {
        FleetRuntime::new(spec, model.clone(), workers)
    });
    timings.push(("fleet.build_ms", t.elapsed().as_secs_f64() * 1e3));
    let mut digest = Digest::default();
    let (mut events, mut ops) = (0, 0);
    for _ in 0..spec.windows {
        let t = Instant::now();
        let w = prof::time("fleet.run_window", || rt.run_window());
        timings.push(("fleet.window_ms", t.elapsed().as_secs_f64() * 1e3));
        digest
            .u64(w.total_ops)
            .u64(w.total_bytes)
            .u64(w.events_processed);
        events = w.events_processed;
        ops += w.total_ops;
    }
    for m in rt.migration_log() {
        digest.u64(u64::from(m.window)).u64(u64::from(m.tenant));
        digest.u64(u64::from(m.from.shard) << 32 | u64::from(m.from.slot));
        digest.u64(u64::from(m.to.shard) << 32 | u64::from(m.to.slot));
    }
    let mut attained = (0, 0);
    for tenant in 0..spec.tenants.len() as u32 {
        for v in rt.slo_verdicts(tenant) {
            attained.0 += u64::from(v.attained());
            attained.1 += 1;
            digest.u64(v.p95.as_nanos()).u64(v.p99.as_nanos());
        }
    }
    FleetOutcome {
        digest: digest.finish(),
        events,
        ops,
        migrations: rt.migration_log().len(),
        attained,
    }
}

impl FleetHotspot {
    /// Set-up: specs for seeds `seed..seed+n`, each with its own fallback
    /// model — differently initialised policies, from harvest-shy to
    /// harvest-happy, the same `n` (model seeds `1..=n`) for every
    /// `--seed`, for the reason given at `MODEL_SEED` — then one untimed
    /// warm-up fleet.
    pub fn setup(seed: u64, size: Size) -> Self {
        let n = match size {
            Size::Full => 12,
            Size::Smoke => 1,
        };
        let fleets: Vec<_> = (0..n)
            .map(|i| {
                (
                    FleetSpec::hotspot(seed.wrapping_add(i)),
                    default_model(1 + i),
                )
            })
            .collect();
        run_fleet(&fleets[0].0, &fleets[0].1, WORKERS, &mut Vec::new());
        FleetHotspot {
            fleets,
            last: Vec::new(),
            walls: Vec::new(),
            checked_workers: false,
        }
    }

    fn run_all(&self, workers: usize, timings: &mut Vec<(&'static str, f64)>) -> Vec<FleetOutcome> {
        self.fleets
            .iter()
            .map(|(spec, model)| run_fleet(spec, model, workers, timings))
            .collect()
    }
}

impl Workload for FleetHotspot {
    fn engine_windows(&self) -> u64 {
        self.fleets
            .iter()
            .map(|(s, _)| u64::from(s.windows * s.shards))
            .sum()
    }

    fn fleet_windows(&self) -> u64 {
        self.fleets.iter().map(|(s, _)| u64::from(s.windows)).sum()
    }

    fn rep(&mut self, traced: bool) -> RepOutput {
        let mut timings = Vec::new();
        let t = Instant::now();
        let outcomes = self.run_all(WORKERS, &mut timings);
        if !traced {
            self.walls.push(t.elapsed().as_secs_f64());
        }
        let mut digest = Digest::default();
        for o in &outcomes {
            digest.u64(o.digest);
        }
        let total = |f: &dyn Fn(&FleetOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
        let sim_s: f64 = self
            .fleets
            .iter()
            .map(|(s, _)| f64::from(s.windows) * s.window.as_secs_f64())
            .sum();
        let out = RepOutput {
            digest: digest.finish(),
            events: total(&|o| o.events) as u64,
            exact: vec![
                (
                    "slo_attainment_pct",
                    100.0 * total(&|o| o.attained.0) / total(&|o| o.attained.1).max(1.0),
                ),
                (
                    "fleet.events_per_window",
                    total(&|o| o.events) / self.fleet_windows() as f64,
                ),
                ("fleet.migrations", total(&|o| o.migrations as u64)),
                ("vssd.events_per_sim_s", total(&|o| o.events) / sim_s),
                ("workloads.reqs_per_sim_s", total(&|o| o.ops) / sim_s),
            ],
            timings,
        };
        self.last = outcomes;
        out
    }

    /// Every fleet migrates at least once, and (checked once per run, on
    /// the first fleet) one shard worker reproduces two workers' digest.
    fn check(&mut self) -> Vec<String> {
        let mut failures: Vec<String> = self
            .last
            .iter()
            .enumerate()
            .filter(|(_, o)| o.migrations == 0)
            .map(|(i, _)| format!("fleet {i} never migrated"))
            .collect();
        if !self.checked_workers {
            self.checked_workers = true;
            let (spec, model) = &self.fleets[0];
            if run_fleet(spec, model, 1, &mut Vec::new()) != self.last[0] {
                failures.push("1-worker and 2-worker fleets differ".into());
            }
        }
        failures
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        let model = &self.fleets[0].1;
        let t = Instant::now();
        self.run_all(1, &mut Vec::new());
        let wall_w1 = t.elapsed().as_secs_f64();
        let speedup = Stat::of(&self.walls).map_or(0.0, |w2| wall_w1 / w2.value);
        vec![
            (
                "workloads.open_gen_ns_per_req",
                probes::open_gen_ns_per_req(),
            ),
            (
                "workloads.closed_gen_ns_per_req",
                probes::closed_gen_ns_per_req(),
            ),
            (
                "ml.act_batch_ns_per_row",
                probes::act_batch_ns_per_row(model),
            ),
            ("obs.slo_observe_ns", probes::slo_observe_ns()),
            ("obs.series_push_ns", probes::series_push_ns()),
            ("fleet.bank_decide_us", probes::bank_decide_us(model)),
            ("fleet.plan_migrations_us", probes::plan_migrations_us()),
            ("fleet.wall_w1_s", wall_w1),
            ("fleet.speedup_w2", speedup),
            (
                "fleet.parallel_efficiency_pct",
                100.0 * speedup / WORKERS as f64,
            ),
        ]
    }
}
