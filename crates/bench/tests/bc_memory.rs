//! Resident-memory guard for behaviour-cloning-only pre-training: the
//! set-up model of `coloc-eval`, every `--tiny` figure's model, the
//! `iterations: 0` fallback. Serial BC runs one scenario's rounds after
//! another, so it needs one warmed device at a time, and so does a
//! fresh-episode `reset`, which replaces one device with another. A
//! change that builds every scenario's environment up front, or builds a
//! new device while the old one is alive, holds two warmed devices
//! (≈ 14 MiB of warm-up L2P and page state each) and shows up here.
//!
//! Linux only (`VmHWM` from `/proc/self/status`); elsewhere the test is
//! compiled out. It is its own test binary with one `#[test]`, so no other
//! test's allocations share the process while it measures. The peak is
//! the process's high-water mark, which only rises, so both parts are
//! measured from the same starting mark: each holds the process under
//! that mark plus the ceiling.

#![cfg(target_os = "linux")]

use fleetio::agent::{pretrain, PretrainOptions};
use fleetio::experiment::hardware_layout;
use fleetio::{FleetIoConfig, FleetIoEnv, TenantSpec};
use fleetio_des::SimDuration;
use fleetio_rl::MultiAgentEnv;
use fleetio_workloads::WorkloadKind;

/// Ceiling on the high-water mark's growth, MiB: the measured 17.1 (debug
/// and release), about one warmed hardware-isolated pair (≈ 15,
/// `memory_budget.rs`), plus under 20 %. When pre-training built both
/// scenarios' environments before BC began, BC alone grew it by 32.2;
/// when a fresh-episode reset built its new device before dropping the
/// old one, the reset grew it by 31.1.
const HWM_GROWTH_MAX_MIB: f64 = 20.0;

/// A field of this process's `/proc/self/status`, MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kib / 1024.0
}

/// A latency-sensitive tenant beside batch analytics, hardware-isolated
/// on `experiment_default` with a fixed SLO (no calibration runs), as in
/// the two §3.8 pre-training scenarios.
fn scenario(cfg: &FleetIoConfig, lc: WorkloadKind, seed: u64) -> Vec<TenantSpec> {
    hardware_layout(
        cfg,
        &[lc, WorkloadKind::BatchAnalytics],
        &[Some(SimDuration::from_millis(2)), None],
        seed,
    )
}

/// Asserts the high-water mark grew at most the ceiling past `start`,
/// after printing the growth.
fn hold(what: &str, start: f64) {
    let growth = status_mib("VmHWM:") - start;
    println!("{what} = {growth:.1} MiB");
    assert!(
        growth <= HWM_GROWTH_MAX_MIB,
        "{what}: the resident high-water mark grew {growth:.1} MiB, ceiling \
         {HWM_GROWTH_MAX_MIB} MiB — two warmed devices alive at once?"
    );
}

#[test]
fn bc_only_pretraining_holds_one_warmed_device() {
    let cfg = FleetIoConfig::default();
    let start = status_mib("VmHWM:");

    // Serial BC alone over two scenarios, two rounds each.
    let scenarios = [
        scenario(&cfg, WorkloadKind::Tpce, 100),
        scenario(&cfg, WorkloadKind::LiveMaps, 101),
    ];
    let opts = PretrainOptions {
        iterations: 0,
        warmup_iterations: 0,
        windows_per_rollout: 2,
        bc_rounds: 2,
        parallel: false,
        ..PretrainOptions::default()
    };
    let model = pretrain(&cfg, &scenarios, 0.5, opts, 7);
    assert!(model.normalizer.is_frozen());
    hold("BC-only pretrain high-water growth", start);

    // A fresh-episode environment: the second reset replaces a used
    // device.
    let tenants = scenarios[0].clone();
    let rewards = FleetIoEnv::default_rewards(&cfg, &tenants);
    let mut env = FleetIoEnv::new(cfg.clone(), tenants, rewards, 0.5, 2, 7).with_fresh_episodes();
    env.reset();
    env.step(&[vec![0, 0, 1], vec![0, 0, 1]]);
    env.reset();
    hold("fresh-episode reset high-water growth", start);
}
