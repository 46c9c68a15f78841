//! Resident-memory guard for what grows with load: the seed-17 demo run
//! (`RunSpec::demo(17, 40, 10)`, the run `fleetio store record` and the
//! `store-record` benchmark record) is overloaded from its first windows,
//! so over its 40 windows tens of thousands of requests pile up in flight
//! and tens of thousands of page ops in the channel queues. The resident
//! set it gains after warm-up is mostly those two records — one in-flight
//! slab slot per request, one queued op per page — so a change that
//! widens either shows up here.
//!
//! Linux only (`VmRSS` from `/proc/self/status`); elsewhere the test is
//! compiled out. It is its own test binary with one `#[test]`, so no other
//! test's allocations share the process while it measures.

#![cfg(target_os = "linux")]

use fleetio::RunSpec;

/// Ceiling on the resident-set growth from the end of warm-up to the end
/// of window 40, MiB: the measured 4.3 (debug and release) plus under
/// 15 %. With 56-byte queued page ops and 64-byte in-flight requests
/// (slab slots) it grew 7.1.
const BACKLOG_RSS_GROWTH_MAX_MIB: f64 = 4.9;

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

/// The demo from the end of warm-up to the end of its 40 windows under
/// the default `NullSink`, so no recorder or event buffer grows with it.
#[test]
fn demo_backlog_resident_growth() {
    let spec = RunSpec::demo(17, 40, 10);
    let mut coloc = spec.build();
    coloc.warm_up(spec.warm_fraction);
    let before = vm_rss_mib();
    coloc.run_windows(spec.windows as usize);
    let growth = vm_rss_mib() - before;
    let engine = coloc.engine();
    let queued: usize = coloc
        .tenant_ids()
        .iter()
        .map(|id| engine.queued_ops(*id))
        .sum();
    let in_flight = engine.requests_in_flight();
    println!("backlog at window 40: {in_flight} requests in flight, {queued} page ops queued");
    println!("resident growth = {growth:.1} MiB");
    assert!(
        in_flight > 10_000 && queued > 10_000,
        "the demo no longer builds a backlog, so this gate measures nothing"
    );
    assert!(
        growth <= BACKLOG_RSS_GROWTH_MAX_MIB,
        "resident set grew {growth:.1} MiB over the demo's 40 windows, ceiling \
         {BACKLOG_RSS_GROWTH_MAX_MIB} MiB"
    );
}
