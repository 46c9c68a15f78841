//! Probes: fixed-input timing loops on one layer's public functions.
//!
//! Each probe runs its loop [`ROUNDS`] times and reports the median, so
//! one scheduler hiccup does not decide the number. Inputs are fixed (not
//! derived from `--seed`): a probe compares two commits, not two seeds.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fleetio::agent::{ppo_config, FleetIoAgent, PretrainedModel};
use fleetio::states::StateVector;
use fleetio::{FleetIoConfig, FleetIoEnv, TenantSpec};
use fleetio_des::hist::LatencyHistogram;
use fleetio_des::rng::{Rng, SmallRng};
use fleetio_des::{EventQueue, SimDuration, SimTime};
use fleetio_fleet::{plan_migrations, ControlConfig, PolicyBank, SlotLoad};
use fleetio_obs::{
    wire, NandKind, ObsEvent, ObsSink, RecordingSink, SeriesSet, SloSpec, SloTracker,
};
use fleetio_rl::parallel::{collect_frozen, collect_parallel_envs};
use fleetio_store::StoreSink;
use fleetio_workloads::gen::ClosedLoopWorkload;
use fleetio_workloads::{SyntheticWorkload, WorkloadKind};

use crate::stats::Stat;

const ROUNDS: usize = 5;

/// Median wall seconds of `f` over [`ROUNDS`] calls.
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    Stat::of(&samples).map_or(0.0, |s| s.value)
}

/// `des.queue_ns_per_op`: `EventQueue` push + pop at 4096 pending, over
/// an engine-like delay mix (same-bucket, ring-resident, beyond-horizon).
pub fn queue_ns_per_op() -> f64 {
    const PENDING: usize = 4096;
    const OPS: usize = 400_000;
    let mut rng = SmallRng::seed_from_u64(0x0005_eed9);
    let deltas: Vec<u64> = (0..OPS + PENDING)
        .map(|_| match rng.gen_range(0u64..100) {
            0..=59 => rng.gen_range(0u64..16_384),
            60..=94 => rng.gen_range(16_384u64..2_000_000),
            95..=97 => 0,
            _ => rng.gen_range(70_000_000u64..200_000_000),
        })
        .collect();
    let secs = median_secs(|| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut di = deltas.iter();
        for d in di.by_ref().take(PENDING) {
            q.push(SimTime::from_nanos(*d), 0);
        }
        for d in di {
            let ev = q.pop().expect("queue holds PENDING events");
            q.push(SimTime::from_nanos(ev.at.as_nanos() + d), 0);
        }
        black_box(q.len());
    });
    // One op = one push + one pop; the prefill is PENDING of OPS + PENDING pushes.
    secs * 1e9 / (2 * OPS + PENDING) as f64
}

/// `des.hist_record_ns`: `LatencyHistogram::record` over a log-uniform
/// latency mix.
pub fn hist_record_ns() -> f64 {
    const N: usize = 1_000_000;
    let mut rng = SmallRng::seed_from_u64(0x4157);
    let lat: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_nanos(1u64 << rng.gen_range(10u32..30)))
        .collect();
    let secs = median_secs(|| {
        let mut h = LatencyHistogram::new();
        for i in 0..N {
            h.record(lat[i & 4095]);
        }
        black_box(h.count());
    });
    secs * 1e9 / N as f64
}

/// `workloads.open_gen_ns_per_req`: `SyntheticWorkload::requests_until`
/// in 1-ms steps over 20 simulated seconds of YCSB.
pub fn open_gen_ns_per_req() -> f64 {
    let mut reqs = 0usize;
    let secs = median_secs(|| {
        let mut gen = SyntheticWorkload::new(WorkloadKind::Ycsb.spec(), 1 << 32, 7);
        reqs = (1..=20_000u64)
            .map(|ms| {
                gen.requests_until(SimTime::from_nanos(ms * 1_000_000))
                    .len()
            })
            .sum();
    });
    secs * 1e9 / reqs.max(1) as f64
}

/// `workloads.closed_gen_ns_per_req`: `ClosedLoopWorkload::make_request`.
pub fn closed_gen_ns_per_req() -> f64 {
    const N: u64 = 200_000;
    let secs = median_secs(|| {
        let mut gen = ClosedLoopWorkload::new(WorkloadKind::TeraSort.spec(), 1 << 32, 7);
        for i in 0..N {
            black_box(gen.make_request(SimTime::from_nanos(i * 10_000)));
        }
    });
    secs * 1e9 / N as f64
}

fn state(i: u64) -> StateVector {
    let mut s = StateVector::zero();
    s.avg_bw = 1e6 * (1 + i % 97) as f64;
    s.avg_iops = 10.0 * (1 + i % 89) as f64;
    s
}

/// `policy.decide_ns_per_agent`: `FleetIoAgent::decide` on one agent.
pub fn decide_ns_per_agent(model: &PretrainedModel) -> f64 {
    const N: u64 = 20_000;
    let mut agent = FleetIoAgent::new(model, FleetIoConfig::default().history_windows);
    let secs = median_secs(|| {
        for i in 0..N {
            black_box(agent.decide(state(i)));
        }
    });
    secs * 1e9 / N as f64
}

/// `ml.act_batch_ns_per_row`: `PpoPolicy::act_greedy_batch`, 64 rows.
pub fn act_batch_ns_per_row(model: &PretrainedModel) -> f64 {
    const ROWS: usize = 64;
    const N: usize = 400;
    let dim = model.normalizer.dim();
    let mut rng = SmallRng::seed_from_u64(0xAC7);
    let obs: Vec<f32> = (0..ROWS * dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let secs = median_secs(|| {
        for _ in 0..N {
            black_box(model.policy.act_greedy_batch(&obs, ROWS));
        }
    });
    secs * 1e9 / (N * ROWS) as f64
}

/// `fleet.bank_decide_us`: `PolicyBank::decide_all`, 48 tenants.
pub fn bank_decide_us(model: &PretrainedModel) -> f64 {
    const TENANTS: u32 = 48;
    const N: u64 = 200;
    let mut bank = PolicyBank::new(
        model.clone(),
        TENANTS as usize,
        FleetIoConfig::default().history_windows,
    );
    let states: Vec<(u32, StateVector)> = (0..TENANTS).map(|t| (t, state(u64::from(t)))).collect();
    let secs = median_secs(|| {
        for _ in 0..N {
            black_box(bank.decide_all(&states));
        }
    });
    secs * 1e6 / N as f64
}

/// `fleet.plan_migrations_us`: `plan_migrations` over 16 shards × 4
/// slots with one hot shard and free slots elsewhere.
pub fn plan_migrations_us() -> f64 {
    const N: u32 = 2_000;
    let cfg = ControlConfig {
        hot_util: 0.35,
        spread_factor: 1.25,
        max_migrations: 1,
        shard_peak: 1e8,
    };
    let utils: Vec<f64> = (0..16)
        .map(|s| {
            if s == 0 {
                0.9
            } else {
                0.2 + 0.01 * f64::from(s)
            }
        })
        .collect();
    let loads: Vec<Vec<Option<SlotLoad>>> = (0..16u32)
        .map(|s| {
            (0..4u32)
                .map(|l| {
                    (l < 3).then(|| SlotLoad {
                        tenant: s * 4 + l,
                        bytes_per_sec: utils[s as usize] * 1e8 / 3.0,
                        movable: true,
                    })
                })
                .collect()
        })
        .collect();
    let usable: Vec<Vec<bool>> = loads
        .iter()
        .map(|s| s.iter().map(Option::is_none).collect())
        .collect();
    let secs = median_secs(|| {
        for w in 0..N {
            black_box(plan_migrations(&cfg, w, &utils, &loads, &usable));
        }
    });
    secs * 1e6 / f64::from(N)
}

/// The fixed event mix of the obs / store probes: eight slots over the
/// five hot event kinds, weighted as a read-heavy run emits them.
pub fn event_mix(i: u64) -> ObsEvent {
    let at = SimTime::from_nanos(i * 1_000);
    let (vssd, read) = ((i % 4) as u32, !i.is_multiple_of(3));
    match i % 8 {
        0 => ObsEvent::RequestSubmit {
            at,
            req: i,
            vssd,
            read,
            bytes: 4096,
        },
        1 => ObsEvent::RequestAdmit {
            at,
            req: i,
            vssd,
            pages: 1,
        },
        2 | 3 => ObsEvent::ChipIssue {
            at,
            req: i,
            vssd,
            channel: (i % 8) as u16,
            chip: (i % 4) as u16,
            read,
        },
        4 | 5 => ObsEvent::NandOp {
            start: at,
            end: SimTime::from_nanos(i * 1_000 + 40_000),
            vssd,
            channel: (i % 8) as u16,
            chip: (i % 4) as u16,
            kind: NandKind::Read,
            gc: false,
            bytes: 4096,
        },
        _ => ObsEvent::RequestComplete {
            at,
            req: i,
            vssd,
            read,
            bytes: 4096,
            arrival: SimTime::from_nanos(i.saturating_sub(50) * 1_000),
            service_start: at,
        },
    }
}

const MIX_EVENTS: u64 = 200_000;

/// `obs.recording_sink_ns_per_event`: `RecordingSink::record` on the mix.
pub fn recording_sink_ns_per_event() -> f64 {
    let secs = median_secs(|| {
        let mut sink = RecordingSink::with_capacity(1 << 16);
        for i in 0..MIX_EVENTS {
            sink.record(event_mix(i));
        }
        black_box(sink.events().len());
    });
    secs * 1e9 / MIX_EVENTS as f64
}

/// `obs.wire_encode_ns_per_event` and `obs.wire_bytes_per_event`:
/// `wire::encode_event` on the mix into a reused buffer.
pub fn wire_encode() -> (f64, f64) {
    let mut bytes = 0usize;
    let secs = median_secs(|| {
        let mut buf = Vec::with_capacity(128);
        bytes = 0;
        for i in 0..MIX_EVENTS {
            buf.clear();
            wire::encode_event(&event_mix(i), &mut buf);
            bytes += buf.len();
        }
    });
    (
        secs * 1e9 / MIX_EVENTS as f64,
        bytes as f64 / MIX_EVENTS as f64,
    )
}

/// `store.sink_ns_per_event`: `StoreSink::record` + `finish` on the mix
/// into a throwaway store under `dir`.
pub fn store_sink_ns_per_event(dir: &Path) -> f64 {
    let secs = median_secs(|| {
        let _ = std::fs::remove_dir_all(dir);
        let mut sink = StoreSink::create(
            dir,
            vec![0; 64],
            0x5707_e9e9,
            0,
            500_000_000,
            fleetio_store::DEFAULT_SEGMENT_BYTES,
        )
        .expect("create probe store");
        for i in 0..MIX_EVENTS {
            sink.record(event_mix(i));
        }
        black_box(sink.finish().expect("seal probe store").total_events);
    });
    let _ = std::fs::remove_dir_all(dir);
    secs * 1e9 / MIX_EVENTS as f64
}

/// `obs.slo_observe_ns`: `SloTracker::observe` on a 1000-sample window
/// histogram.
pub fn slo_observe_ns() -> f64 {
    const N: u32 = 100_000;
    let mut hist = LatencyHistogram::new();
    for i in 0..1_000u64 {
        hist.record(SimDuration::from_micros(100 + i * 3));
    }
    let spec = SloSpec::latency(SimDuration::from_millis(2), SimDuration::from_millis(5));
    let secs = median_secs(|| {
        let mut tracker = SloTracker::new(spec);
        for w in 0..N {
            black_box(tracker.observe(w, &hist, 1 << 20, SimDuration::from_secs(2)));
        }
    });
    secs * 1e9 / f64::from(N)
}

/// `obs.series_push_ns`: `SeriesSet::push` round-robin over 133 series
/// (the hotspot fleet's count), wrapping their rings.
pub fn series_push_ns() -> f64 {
    const N: u32 = 1_000_000;
    let mut set = SeriesSet::new();
    let ids: Vec<_> = (0..133)
        .map(|i| set.register(&format!("probe.{i}"), 64))
        .collect();
    let secs = median_secs(|| {
        for i in 0..N {
            set.push(ids[i as usize % ids.len()], i, f64::from(i));
        }
    });
    secs * 1e9 / f64::from(N)
}

fn env(cfg: &FleetIoConfig, tenants: &[TenantSpec], horizon: usize, seed: u64) -> FleetIoEnv {
    let rewards = FleetIoEnv::default_rewards(cfg, tenants);
    FleetIoEnv::new(cfg.clone(), tenants.to_vec(), rewards, 0.5, horizon, seed)
}

/// `rl.env_step_ms`: `FleetIoEnv::step_decoded` with idle actions.
pub fn env_step_ms(cfg: &FleetIoConfig, tenants: &[TenantSpec]) -> f64 {
    use fleetio::AgentAction;
    const STEPS: usize = 4;
    let mut e = env(cfg, tenants, STEPS * ROUNDS + 1, 1);
    let idle: Vec<AgentAction> = tenants.iter().map(|_| AgentAction::idle()).collect();
    let secs = median_secs(|| {
        for _ in 0..STEPS {
            black_box(e.step_decoded(&idle));
        }
    });
    secs * 1e3 / STEPS as f64
}

/// `rl.imitate_ms`: `PpoPolicy::imitate`, 512 samples × 10 epochs.
pub fn imitate_ms(cfg: &FleetIoConfig, model: &PretrainedModel) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0x1417);
    let dims = cfg.action_dims();
    let samples: Vec<(Vec<f32>, Vec<usize>)> = (0..512)
        .map(|_| {
            let obs = (0..cfg.obs_dim())
                .map(|_| rng.gen_f32() * 2.0 - 1.0)
                .collect();
            let act = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
            (obs, act)
        })
        .collect();
    let secs = median_secs(|| {
        let mut policy = model.policy.clone();
        black_box(policy.imitate(&samples, 10, cfg.batch_size, 3e-3, 5));
    });
    secs * 1e3
}

/// `rl.parallel_speedup_w2`: serial `collect_frozen` over two
/// environments divided by `collect_parallel_envs` over two like them.
pub fn parallel_speedup_w2(
    cfg: &FleetIoConfig,
    scenarios: &[Vec<TenantSpec>],
    model: &PretrainedModel,
    steps: usize,
) -> f64 {
    let gamma = ppo_config(cfg).gamma;
    let build = || -> Vec<FleetIoEnv> {
        scenarios
            .iter()
            .take(2)
            .enumerate()
            .map(|(i, t)| env(cfg, t, steps * ROUNDS + 1, 40 + i as u64))
            .collect()
    };
    let (mut serial_envs, mut parallel_envs) = (build(), build());
    let serial = median_secs(|| {
        for (i, e) in serial_envs.iter_mut().enumerate() {
            black_box(
                collect_frozen(e, &model.policy, &model.normalizer, steps, gamma, i as u64).len(),
            );
        }
    });
    let parallel = median_secs(|| {
        black_box(
            collect_parallel_envs(
                &mut parallel_envs,
                &model.policy,
                &model.normalizer,
                steps,
                gamma,
                0,
            )
            .len(),
        );
    });
    serial / parallel.max(1e-9)
}
