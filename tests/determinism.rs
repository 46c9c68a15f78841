//! Same-seed determinism regression tests.
//!
//! The simulator's claim is bit-for-bit reproducibility: two runs from the
//! same seed must produce *identical* results — not statistically similar
//! ones — including through the parallel rollout path, where thread timing
//! must not leak into the merged buffer. These tests compare full `Debug`
//! renderings, so any drifting counter, timestamp, or float fails loudly.
//!
//! Run them with `--features audit` to additionally route every simulated
//! event through the runtime invariant auditor (event-time monotonicity,
//! free-block accounting, gSB conservation, token-bucket bounds).

use fleetio_suite::des::rng::SmallRng;
use fleetio_suite::des::SimDuration;
use fleetio_suite::flash::addr::ChannelId;
use fleetio_suite::flash::config::FlashConfig;
use fleetio_suite::fleetio::agent::{pretrain_trainer, PretrainOptions};
use fleetio_suite::fleetio::baselines::HeuristicPolicy;
use fleetio_suite::fleetio::driver::{Colocation, TenantSpec};
use fleetio_suite::fleetio::env::FleetIoEnv;
use fleetio_suite::fleetio::experiment::{
    hardware_layout, measure_device_peak, run_collocation, ExperimentOptions,
};
use fleetio_suite::fleetio::FleetIoConfig;
use fleetio_suite::rl::normalize::ObsNormalizer;
use fleetio_suite::rl::parallel::collect_parallel_envs;
use fleetio_suite::rl::policy::PpoPolicy;
use fleetio_suite::rl::ppo::{PpoConfig, PpoTrainer};
use fleetio_suite::vssd::vssd::{VssdConfig, VssdId};
use fleetio_suite::workloads::WorkloadKind;

fn small_cfg() -> FleetIoConfig {
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    cfg.decision_interval = SimDuration::from_millis(500);
    cfg
}

/// One full heuristic collocation run (two mixed tenants, harvesting, GC,
/// admission control), rendered to a string. Any nondeterminism anywhere in
/// the stack shows up as a difference between two calls.
fn heuristic_run_fingerprint(seed: u64) -> String {
    let cfg = small_cfg();
    let opts = ExperimentOptions {
        cfg: cfg.clone(),
        measure_windows: 4,
        ramp_windows: 1,
        warm_fraction: 0.4,
        seed,
    };
    let peak = measure_device_peak(&cfg, 5);
    let pair = [WorkloadKind::Tpce, WorkloadKind::TeraSort];
    let tenants = hardware_layout(&cfg, &pair, &[None, None], seed);
    let mut policy = HeuristicPolicy::new(
        cfg.clone(),
        &[(2, WorkloadKind::Tpce), (2, WorkloadKind::TeraSort)],
    );
    let metrics = run_collocation(&mut policy, tenants, &opts, peak, None);
    format!("peak={peak:?} metrics={metrics:?}")
}

#[test]
fn serial_runs_are_bit_identical() {
    let a = heuristic_run_fingerprint(11);
    let b = heuristic_run_fingerprint(11);
    assert!(a == b, "same-seed runs diverged:\n{a}\nvs\n{b}");
    // Different seeds must actually change the simulation, or the
    // fingerprint is vacuous.
    let c = heuristic_run_fingerprint(12);
    assert!(a != c, "seed change did not affect the run fingerprint");
}

/// One parallel rollout collection (two worker envs on their own threads),
/// rendered to a string.
fn parallel_rollout_fingerprint(seed: u64) -> String {
    let cfg = small_cfg();
    let pair = [WorkloadKind::Ycsb, WorkloadKind::TeraSort];
    let mut envs: Vec<FleetIoEnv> = (0..2u64)
        .map(|worker| {
            let tenants = hardware_layout(&cfg, &pair, &[None, None], seed ^ worker);
            let rewards = FleetIoEnv::default_rewards(&cfg, &tenants);
            FleetIoEnv::new(cfg.clone(), tenants, rewards, 0.3, 4, seed ^ worker)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PpoPolicy::new(cfg.obs_dim(), &cfg.action_dims(), &[16, 16], &mut rng);
    let mut normalizer = ObsNormalizer::new(cfg.obs_dim(), 5.0);
    normalizer.freeze();
    let buffer = collect_parallel_envs(&mut envs, &policy, &normalizer, 3, 0.99, seed);
    assert!(
        !buffer.is_empty(),
        "parallel collection produced no transitions"
    );
    format!("{:?}", buffer.transitions())
}

#[test]
fn parallel_rollouts_are_bit_identical() {
    let a = parallel_rollout_fingerprint(23);
    let b = parallel_rollout_fingerprint(23);
    assert!(a == b, "same-seed parallel rollouts diverged");
    let c = parallel_rollout_fingerprint(24);
    assert!(a != c, "seed change did not affect the parallel rollout");
}

/// One traced colocation run, returned as its full JSONL event stream.
/// Every simulated timestamp, request id, GC job, and byte count appears
/// in the stream, so it is a much finer-grained fingerprint than the
/// summary metrics above.
fn traced_run_jsonl(seed: u64) -> String {
    use fleetio_suite::obs::RecordingSink;

    let cfg = small_cfg();
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::Tpce, WorkloadKind::TeraSort],
        &[None, None],
        seed,
    );
    let mut coloc = Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval);
    coloc.set_obs_sink(Box::new(RecordingSink::with_capacity(1 << 21)));
    coloc.warm_up(0.4);
    coloc.run_windows(3);
    let sink = coloc
        .take_obs_sink()
        .into_any()
        .downcast::<RecordingSink>()
        .expect("a RecordingSink was installed above");
    assert_eq!(sink.dropped(), 0, "trace ring evicted events");
    sink.to_jsonl()
}

/// The observability layer's determinism claim: same seed → byte-identical
/// JSONL event stream, not just identical summary metrics.
#[test]
fn traced_event_streams_are_byte_identical() {
    let a = traced_run_jsonl(41);
    let b = traced_run_jsonl(41);
    assert!(!a.is_empty(), "traced run produced no events");
    assert!(
        a.len() > 10_000,
        "suspiciously small trace ({} bytes)",
        a.len()
    );
    assert!(a == b, "same-seed traced runs diverged");
    let c = traced_run_jsonl(42);
    assert!(a != c, "seed change did not affect the event stream");
}

/// FNV-1a 64-bit, the golden-fingerprint hash (stable, dependency-free).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden fingerprints captured from the pre-calendar-queue, pre-slab
/// engine (BinaryHeap event queue, BTreeMap request/block state). The DES
/// hot-path overhaul claims *byte identity*, not statistical equivalence:
/// every request id, timestamp, and GC decision must land exactly where
/// the reference implementation put it. If an intentional behavior change
/// ever breaks these, recapture the hashes in the same commit and say so.
#[test]
fn engine_runs_match_pre_overhaul_goldens() {
    let a = heuristic_run_fingerprint(11);
    assert_eq!(a.len(), 573, "seed-11 fingerprint length drifted");
    assert_eq!(
        fnv64(a.as_bytes()),
        0x941f_0994_2085_8eb8,
        "seed-11 heuristic run diverged from the pre-overhaul engine"
    );
    let b = heuristic_run_fingerprint(12);
    assert_eq!(b.len(), 572, "seed-12 fingerprint length drifted");
    assert_eq!(
        fnv64(b.as_bytes()),
        0xddd8_3ace_35d0_669e,
        "seed-12 heuristic run diverged from the pre-overhaul engine"
    );
    let t = traced_run_jsonl(41);
    assert_eq!(t.len(), 5_218_495, "seed-41 trace length drifted");
    assert_eq!(
        fnv64(t.as_bytes()),
        0xfdeb_2b2b_6e9a_4df3,
        "seed-41 traced event stream diverged from the pre-overhaul engine"
    );
}

/// A small FleetIO training environment for checkpoint-resume tests.
fn training_env(seed: u64) -> FleetIoEnv {
    let cfg = small_cfg();
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::Tpce, WorkloadKind::TeraSort],
        &[None, None],
        seed,
    );
    let rewards = FleetIoEnv::default_rewards(&cfg, &tenants);
    // Fresh device per episode: the training-test device is far too small
    // to absorb many windows of sustained writes on one instance.
    FleetIoEnv::new(cfg.clone(), tenants, rewards, 0.3, 4, seed).with_fresh_episodes()
}

fn fresh_trainer(seed: u64) -> PpoTrainer {
    let cfg = small_cfg();
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PpoPolicy::new(cfg.obs_dim(), &cfg.action_dims(), &[16, 16], &mut rng);
    let ppo = PpoConfig {
        epochs: 2,
        minibatch: 8,
        ..PpoConfig::default()
    };
    PpoTrainer::new(policy, cfg.obs_dim(), ppo, seed)
}

/// The checkpoint format's determinism claim: interrupting training with a
/// full serialize → container-encode → decode → restore round trip, then
/// continuing, is bit-identical to never having stopped. The trainer state
/// crosses the *wire format* (the same bytes `fleetio-model` writes to
/// disk), so any lossy field — a truncated float, a skipped RNG word, a
/// re-derived optimizer moment — diverges the resumed run.
#[test]
fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
    use fleetio_suite::des::codec::{decode_container, encode_container, PayloadKind};
    use fleetio_suite::model::ModelCheckpoint;

    const TOTAL_ITERS: usize = 4;
    const SPLIT: usize = 2;
    const STEPS: usize = 4; // one horizon per iteration
    let seed = 71;

    // Run A: uninterrupted.
    let mut env = training_env(seed);
    let mut trainer = fresh_trainer(seed);
    for _ in 0..TOTAL_ITERS {
        trainer.train_iteration(&mut env, STEPS);
    }
    let uninterrupted = format!("{:?}", trainer.export_state());

    // Run B: same seed, but serialized through the on-disk container
    // format at the split point and resumed from the decoded bytes.
    let mut env = training_env(seed);
    let mut trainer = fresh_trainer(seed);
    for _ in 0..SPLIT {
        trainer.train_iteration(&mut env, STEPS);
    }
    let ckpt = fleetio_suite::fleetio::warmstart::checkpoint_from_trainer(&trainer, seed, "lc1");
    let bytes = encode_container(PayloadKind::ModelCheckpoint, &ckpt.encode());
    let (kind, payload) = decode_container(&bytes).expect("freshly encoded container decodes");
    assert_eq!(kind, PayloadKind::ModelCheckpoint);
    let restored = ModelCheckpoint::decode(payload).expect("freshly encoded payload decodes");
    assert_eq!(restored.meta.tag, "lc1");
    let mut trainer = PpoTrainer::from_state(restored.trainer)
        .expect("round-tripped trainer state is internally consistent");
    for _ in 0..TOTAL_ITERS - SPLIT {
        trainer.train_iteration(&mut env, STEPS);
    }
    let resumed = format!("{:?}", trainer.export_state());

    assert!(
        uninterrupted == resumed,
        "resume from checkpoint diverged from the uninterrupted run"
    );

    // Control: a trainer that skips the first SPLIT iterations must differ,
    // or the fingerprint is vacuous.
    let mut env = training_env(seed);
    let mut trainer = fresh_trainer(seed);
    for _ in 0..TOTAL_ITERS - SPLIT {
        trainer.train_iteration(&mut env, STEPS);
    }
    let shorter = format!("{:?}", trainer.export_state());
    assert!(
        uninterrupted != shorter,
        "fingerprint insensitive to training length"
    );
}

/// The device and decision window of `fleetio::agent`'s unit tests.
fn tiny_cfg() -> FleetIoConfig {
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    cfg.decision_interval = SimDuration::from_millis(250);
    cfg
}

/// A two-tenant hardware-isolated collocation: `lc` (with a 2 ms SLO) on
/// channels 0–1 and `bi` on channels 2–3, seeded `seed` and `seed + 1`.
fn two_tenants(lc: WorkloadKind, bi: WorkloadKind, seed: u64) -> Vec<TenantSpec> {
    let half =
        |id, first| VssdConfig::hardware(VssdId(id), vec![ChannelId(first), ChannelId(first + 1)]);
    vec![
        TenantSpec::new(half(0, 0).with_slo(SimDuration::from_millis(2)), lc, seed),
        TenantSpec::new(half(1, 2), bi, seed + 1),
    ]
}

/// FNV-1a goldens of the whole trainer state (policy, optimizers, RNG,
/// normalizer) after BC and PPO on two unlike scenarios, captured before
/// the PPO collectors shared one rollout loop. (warm-up, iterations) =
/// (1, 3), (0, 2) and (2, 2) cover a warm-up followed by frozen rounds,
/// frozen rounds only, and a warm-up only.
#[test]
fn pretrained_trainers_match_goldens() {
    let cfg = tiny_cfg();
    let scenarios = [
        two_tenants(WorkloadKind::Tpce, WorkloadKind::BatchAnalytics, 1),
        two_tenants(WorkloadKind::VdiWeb, WorkloadKind::TeraSort, 3),
    ];
    for (warmup_iterations, iterations, golden) in [
        (1, 3, 0x9e7e_df9e_6d7d_ec8f_u64),
        (0, 2, 0x0c85_f26b_75fe_8ee3),
        (2, 2, 0xc8d7_f0ed_0e0f_e6a6),
    ] {
        let opts = PretrainOptions {
            iterations,
            windows_per_rollout: 3,
            warmup_iterations,
            parallel: true,
            lr_override: Some(1e-3),
            bc_rounds: 1,
            bc_epsilon: 0.3,
            progress: None,
        };
        let state = format!(
            "{:?}",
            pretrain_trainer(&cfg, &scenarios, 0.0, opts, 15).export_state()
        );
        assert_eq!(
            fnv64(state.as_bytes()),
            golden,
            "pre-training with {warmup_iterations} warm-up of {iterations} iterations drifted"
        );
    }
}

/// With `--features audit`, every event of these runs flows through the
/// runtime auditor; this test pins that the hooks are actually live (a
/// feature wired up but never called would silently audit nothing).
#[cfg(feature = "audit")]
#[test]
fn audit_hooks_observe_the_simulation() {
    let cfg = small_cfg();
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::Tpce, WorkloadKind::TeraSort],
        &[None, None],
        31,
    );
    let mut coloc = Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval);
    coloc.warm_up(0.3);
    coloc.run_windows(4);
    let (events, sweeps) = coloc.engine().audit_counts();
    assert!(events > 1_000, "auditor saw only {events} events over 2 s");
    assert!(sweeps > 0, "no structural sweep ran in {events} events");
    // A quiescent full sweep must also hold at the end of the run.
    coloc.engine().audit_sweep();
}
