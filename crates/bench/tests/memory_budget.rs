//! Resident-memory guard: how much the process's resident set grows while
//! a hardware-isolated pair on the experiment device is built, warmed and
//! run — first in a fresh process, then again after that pair was dropped.
//! Almost all of it is per-page simulator state — the chips' page-state
//! arenas and the vSSDs' L2P maps — so a change that widens a per-page
//! word, or touches pages a run never writes, shows up in the first gate;
//! per-page tables that only stay unresident while the allocator hands out
//! fresh memory (a flat zeroed `Vec`, cleared in full once it is served
//! from the first pair's freed heap) show up in the second.
//!
//! Linux only (`VmRSS` from `/proc/self/status`); elsewhere the test is
//! compiled out. It is its own test binary with one `#[test]`, so no other
//! test's allocations share the process while it measures.

#![cfg(target_os = "linux")]

use fleetio::experiment::hardware_layout;
use fleetio::{Colocation, FleetIoConfig};
use fleetio_workloads::WorkloadKind;

/// Ceiling on the first pair's resident-set growth, MiB: the measured
/// 15.1 MiB (15.0 in the release profile) plus under 15 %. With a trace
/// record kept for every request of both tenants it grew 15.9; with 8-byte
/// page-state slots and 12-byte L2P entries, sentinel-filled for the
/// warmed prefix and doubled when writes passed it, 44.8.
const RSS_GROWTH_MAX_MIB: f64 = 17.3;

/// Ceiling on the second pair's resident-set growth since the first was
/// dropped, MiB (measured 0.1: it reuses the first pair's freed chunks).
/// With flat zeroed page-state and L2P tables, served from that freed heap
/// and so cleared in full, it grew 13.5.
const RECYCLED_RSS_GROWTH_MAX_MIB: f64 = 3.0;

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
fn warmed_pair(cfg: &FleetIoConfig) -> Colocation {
    let tenants = hardware_layout(
        cfg,
        &[WorkloadKind::VdiWeb, WorkloadKind::TeraSort],
        &[None, None],
        42,
    );
    let mut coloc = Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval);
    coloc.warm_up(0.5);
    coloc.run_windows(4);
    coloc
}

/// Asserts `growth` is within `ceiling`, after printing it.
fn hold(what: &str, growth: f64, ceiling: f64) {
    println!("{what} = {growth:.1} MiB");
    assert!(
        growth <= ceiling,
        "{what}: resident set grew {growth:.1} MiB, ceiling {ceiling} MiB"
    );
}

/// The first pair in a fresh process, then a second one built after the
/// first was dropped — what every process that builds more than one
/// engine (a figure's collocations, pre-training's rollout workers) does.
#[test]
fn hardware_pair_resident_growth() {
    let cfg = FleetIoConfig::default();
    let before = vm_rss_mib();
    let first = warmed_pair(&cfg);
    hold("resident growth", vm_rss_mib() - before, RSS_GROWTH_MAX_MIB);
    drop(first);
    let dropped = vm_rss_mib();
    let second = warmed_pair(&cfg);
    hold(
        "second pair resident growth",
        vm_rss_mib() - dropped,
        RECYCLED_RSS_GROWTH_MAX_MIB,
    );
    drop(second);
}
