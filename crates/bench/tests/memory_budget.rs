//! Resident-memory guard: how much the process's resident set grows while
//! one hardware-isolated pair on the experiment device is built, warmed
//! and run. Almost all of it is per-page simulator state — the chips'
//! page-state arenas and the vSSDs' L2P maps — so a change that widens a
//! per-page word, or touches pages a run never writes, shows up here.
//!
//! Linux only (`VmRSS` from `/proc/self/status`); elsewhere the test is
//! compiled out. It is its own test binary with one `#[test]`, so no other
//! test's allocations share the process while it measures.

#![cfg(target_os = "linux")]

use fleetio::experiment::hardware_layout;
use fleetio::{Colocation, FleetIoConfig};
use fleetio_workloads::WorkloadKind;

/// Ceiling on the resident-set growth, MiB: the measured 15.1 MiB (15.0 in
/// the release profile) plus under 15 %. With a trace record kept for
/// every request of both tenants it grew 15.9; with 8-byte page-state
/// slots and 12-byte L2P entries, sentinel-filled for the warmed prefix
/// and doubled when writes passed it, 44.8.
const RSS_GROWTH_MAX_MIB: f64 = 17.3;

/// Resident set size of this process, MiB.
fn vm_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kib / 1024.0
}

/// VDI + TeraSort, hardware-isolated on `experiment_default`: built,
/// warmed to half their logical space as every experiment does, then four
/// 2-second windows — long enough for TeraSort's writes to pass the warm
/// prefix.
#[test]
fn hardware_pair_resident_growth() {
    let cfg = FleetIoConfig::default();
    let tenants = hardware_layout(
        &cfg,
        &[WorkloadKind::VdiWeb, WorkloadKind::TeraSort],
        &[None, None],
        42,
    );
    let before = vm_rss_mib();
    let mut coloc = Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval);
    coloc.warm_up(0.5);
    coloc.run_windows(4);
    let growth = vm_rss_mib() - before;
    println!("resident growth = {growth:.1} MiB");
    assert!(
        growth <= RSS_GROWTH_MAX_MIB,
        "resident set grew {growth:.1} MiB, ceiling {RSS_GROWTH_MAX_MIB} MiB"
    );
}
