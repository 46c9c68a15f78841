//! Model lifecycle (§3.7): pre-train → registry → warm-start → guarded
//! online fine-tuning, all through the on-disk checkpoint format.
//!
//! ```sh
//! # Build target/model-registry/: typing index + one checkpoint per
//! # workload type, then demo warm-start, fine-tuning, and corruption
//! # fallback in-process.
//! cargo run --release --example model_lifecycle
//!
//! # Reopen the registry and load the `bi` model through the last-good
//! # fallback path (CI corrupts the primary between the two runs).
//! cargo run --release --example model_lifecycle resume
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fleetio_suite::des::codec::{decode_container, DecodeError};
use fleetio_suite::des::{SimDuration, SimTime};
use fleetio_suite::flash::addr::ChannelId;
use fleetio_suite::flash::config::FlashConfig;
use fleetio_suite::fleetio::agent::{pretrain_trainer, FleetIoAgent, PretrainOptions};
use fleetio_suite::fleetio::driver::TenantSpec;
use fleetio_suite::fleetio::env::FleetIoEnv;
use fleetio_suite::fleetio::experiment::{hardware_layout, workload_feature_windows};
use fleetio_suite::fleetio::typing::TypingModel;
use fleetio_suite::fleetio::warmstart::{checkpoint_from_trainer, typing_index, warm_start_model};
use fleetio_suite::fleetio::FleetIoConfig;
use fleetio_suite::model::{FineTuneConfig, FineTuneManager, ModelRegistry};
use fleetio_suite::obs::{ObsEvent, RecordingSink};
use fleetio_suite::vssd::vssd::{VssdConfig, VssdId};
use fleetio_suite::workloads::WorkloadKind;

const REGISTRY_DIR: &str = "target/model-registry";
const SEED: u64 = 31;

fn small_cfg() -> FleetIoConfig {
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    cfg.decision_interval = SimDuration::from_millis(250);
    cfg
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        None => build(),
        Some("resume") => resume(),
        Some(other) => {
            eprintln!("usage: model_lifecycle [resume]  (got {other:?})");
            ExitCode::from(2)
        }
    }
}

/// Builds the registry from scratch and demos the full lifecycle.
fn build() -> ExitCode {
    let dir = PathBuf::from(REGISTRY_DIR);
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open(&dir);

    // 1. Typing index: per-window I/O features from solo runs of one
    //    workload per Figure-6 type, clustered with k-means.
    println!("collecting solo-run feature windows (3 workloads x 3 windows)…");
    let feat_cfg = FleetIoConfig::default();
    let kinds = [
        WorkloadKind::Tpce,
        WorkloadKind::Ycsb,
        WorkloadKind::TeraSort,
    ];
    let mut samples = Vec::new();
    let mut probe_windows = Vec::new();
    for kind in kinds {
        let feats = workload_feature_windows(&feat_cfg, kind, 8, 3, 1500, 99);
        println!(
            "  {:10} read {:6.1} MB/s  write {:6.1} MB/s  LPA entropy {:4.2}",
            kind.name(),
            feats[0].read_bw / 1e6,
            feats[0].write_bw / 1e6,
            feats[0].lpa_entropy,
        );
        probe_windows.push((kind, feats[0]));
        samples.extend(feats.into_iter().map(|f| (kind, f)));
    }
    let typing = TypingModel::fit(&samples, 6);
    registry
        .save_typing(&typing_index(&typing))
        .expect("typing index saves");
    println!(
        "typing index saved (held-out accuracy {:.1}%)",
        typing.test_accuracy() * 100.0
    );

    // 2. Pre-train one small agent and file it under every type tag with a
    //    last-good copy (a fresh fleet starts from the unified model).
    println!("\npre-training a small shared policy…");
    let cfg = small_cfg();
    let scenario = vec![
        TenantSpec::new(
            VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
                .with_slo(SimDuration::from_millis(2)),
            WorkloadKind::Tpce,
            1,
        ),
        TenantSpec::new(
            VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
            WorkloadKind::BatchAnalytics,
            2,
        ),
    ];
    let opts = PretrainOptions {
        iterations: 3,
        windows_per_rollout: 4,
        warmup_iterations: 1,
        parallel: false,
        lr_override: None,
        bc_rounds: 0,
        bc_epsilon: 0.0,
        progress: None,
    };
    let trainer = pretrain_trainer(&cfg, &[scenario], 0.0, opts, SEED);
    for tag in ["lc1", "lc2", "bi"] {
        registry
            .save_model(&checkpoint_from_trainer(&trainer, SEED, tag))
            .expect("checkpoint saves");
        registry.promote_last_good(tag).expect("last-good promotes");
    }
    println!("registry files:");
    for p in registry.ls().expect("registry listable") {
        println!("  {}", p.display());
    }

    // 3. Warm-start: classify a fresh window of each probe workload and
    //    load the matching checkpoint as a frozen deployment agent.
    println!("\nwarm-start at vSSD attach:");
    for (kind, f) in &probe_windows {
        match warm_start_model(&registry, f).expect("warm start runs") {
            Some((tag, model, fell_back)) => {
                let _agent = FleetIoAgent::new(&model, cfg.history_windows);
                println!(
                    "  {:10} -> model {tag:4} (fell back: {fell_back})",
                    kind.name()
                );
            }
            None => println!("  {:10} -> unknown type, no warm start", kind.name()),
        }
    }

    // 4. Guarded online fine-tuning: resume PPO on a live environment,
    //    routing every lifecycle decision through the manager.
    println!("\nguarded fine-tuning (3 updates):");
    let ft_cfg = FineTuneConfig {
        autosave_interval: SimDuration::from_secs(2),
        reward_window: 2,
        regression_threshold: 0.2,
    };
    let (mut mgr, fell_back) = FineTuneManager::resume(
        ModelRegistry::open(&dir),
        "bi",
        ft_cfg,
        SimTime::ZERO,
        Box::new(RecordingSink::with_capacity(64)),
    )
    .expect("resume from registry");
    assert!(!fell_back, "pristine registry must not fall back");
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::Tpce, WorkloadKind::TeraSort],
        &[None, None],
        SEED,
    );
    let rewards = FleetIoEnv::default_rewards(&cfg, &tenants);
    let mut env =
        FleetIoEnv::new(cfg.clone(), tenants, rewards, 0.3, 4, SEED).with_fresh_episodes();
    let mut now = SimTime::ZERO;
    for i in 0..3 {
        let stats = mgr.trainer_mut().train_iteration(&mut env, 4);
        now += SimDuration::from_secs(1);
        let action = mgr.observe(now, &stats).expect("lifecycle action applies");
        println!(
            "  update {i}: mean reward {:8.4} -> {action:?} (baseline {:?})",
            stats.mean_reward,
            mgr.baseline()
        );
    }
    let sink = mgr
        .take_sink()
        .into_any()
        .downcast::<RecordingSink>()
        .expect("a RecordingSink was installed above");
    println!("  lifecycle events emitted: {}", sink.events().len());

    // 5. Corruption is detected and falls back to last-good — proven here
    //    in-process against a scratch registry (CI repeats it against the
    //    real one via `fleetio model verify` + the `resume` mode).
    println!("\ncorruption drill (scratch registry):");
    let scratch = PathBuf::from("target/model-registry-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let sreg = ModelRegistry::open(&scratch);
    sreg.save_model(&checkpoint_from_trainer(&trainer, SEED, "bi"))
        .expect("checkpoint saves");
    sreg.promote_last_good("bi").expect("last-good promotes");
    let path = sreg.model_path("bi");
    let mut bytes = std::fs::read(&path).expect("checkpoint readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert!(
        matches!(
            decode_container(&bytes),
            Err(DecodeError::CrcMismatch { .. })
        ),
        "bit flip must trip the checksum"
    );
    std::fs::write(&path, &bytes).expect("corrupt checkpoint writable");
    let (_ckpt, fell_back) = sreg
        .load_model_or_last_good("bi")
        .expect("last-good fallback");
    assert!(fell_back, "corrupt primary must fall back to last-good");
    println!("  flipped bit 6 of byte {mid}: CRC caught it, last-good served the load");

    println!("\nregistry ready at {REGISTRY_DIR}/");
    ExitCode::SUCCESS
}

/// Reopens the registry and loads the `bi` model through the fallback
/// path, reporting (for CI to grep) whether the fallback fired.
fn resume() -> ExitCode {
    let registry = ModelRegistry::open(REGISTRY_DIR);
    let (mgr, fell_back) = match FineTuneManager::resume(
        registry,
        "bi",
        FineTuneConfig::default(),
        SimTime::ZERO,
        Box::new(RecordingSink::with_capacity(16)),
    ) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("model_lifecycle resume: no usable checkpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut mgr = mgr;
    println!(
        "resumed tag {:?} at update {} (seed {})",
        mgr.meta().tag,
        mgr.trainer().updates(),
        mgr.meta().seed,
    );
    let sink = mgr
        .take_sink()
        .into_any()
        .downcast::<RecordingSink>()
        .expect("a RecordingSink was installed above");
    for ev in sink.events() {
        if let ObsEvent::ModelLifecycle { kind, tag, .. } = ev {
            println!("  event: {} ({tag})", kind.tag());
        }
    }
    println!("fell back to last-good: {fell_back}");
    ExitCode::SUCCESS
}
