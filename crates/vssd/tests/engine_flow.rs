//! End-to-end engine tests: I/O flow, priorities, GC, harvesting.

use fleetio_des::{SimDuration, SimTime};
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_vssd::admission::HarvestAction;
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::request::{IoOp, IoRequest, Priority};
use fleetio_vssd::vssd::{VssdConfig, VssdId};

const PAGE: u64 = 16 * 1024;

fn small_engine(vssds: Vec<VssdConfig>) -> Engine {
    let cfg = EngineConfig {
        flash: FlashConfig::small_test(),
        ..Default::default()
    };
    Engine::new(cfg, vssds)
}

fn two_tenant_engine() -> Engine {
    small_engine(vec![
        VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)]),
        VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
    ])
}

fn req(vssd: u32, op: IoOp, offset: u64, len: u64, at_us: u64) -> IoRequest {
    IoRequest {
        vssd: VssdId(vssd),
        op,
        offset,
        len,
        arrival: SimTime::from_micros(at_us),
    }
}

#[test]
fn single_write_completes_with_program_latency() {
    let mut e = two_tenant_engine();
    e.submit(req(0, IoOp::Write, 0, PAGE, 0));
    e.run_until(SimTime::from_millis(10));
    let done = e.drain_completed();
    assert_eq!(done.len(), 1);
    let lat = done[0].latency().as_micros();
    // Transfer (~244 µs) + program (400 µs).
    assert!((600..=700).contains(&lat), "write latency {lat}us");
}

#[test]
fn single_read_completes_with_read_latency() {
    let mut e = two_tenant_engine();
    e.submit(req(0, IoOp::Write, 0, PAGE, 0));
    e.run_until(SimTime::from_millis(10));
    e.drain_completed();
    e.submit(req(0, IoOp::Read, 0, 4096, 10_000));
    e.run_until(SimTime::from_millis(20));
    let done = e.drain_completed();
    assert_eq!(done.len(), 1);
    let lat = done[0].latency().as_micros();
    // 50 µs cell read + ~61 µs transfer of 4 KiB.
    assert!((100..=130).contains(&lat), "read latency {lat}us");
}

#[test]
fn large_write_stripes_across_home_channels() {
    let mut e = two_tenant_engine();
    // 8 pages: with 2 home channels, both should see traffic.
    e.submit(req(0, IoOp::Write, 0, 8 * PAGE, 0));
    e.run_until(SimTime::from_millis(50));
    let done = e.drain_completed();
    assert_eq!(done.len(), 1);
    let moved0 = e.device().channel(ChannelId(0)).bytes_moved();
    let moved1 = e.device().channel(ChannelId(1)).bytes_moved();
    assert_eq!(moved0, 4 * PAGE);
    assert_eq!(moved1, 4 * PAGE);
    // Hardware isolation: the other tenant's channels stay silent.
    assert_eq!(e.device().channel(ChannelId(2)).bytes_moved(), 0);
}

#[test]
fn striped_write_is_faster_than_serial() {
    let mut e = two_tenant_engine();
    e.submit(req(0, IoOp::Write, 0, 8 * PAGE, 0));
    e.run_until(SimTime::from_millis(50));
    let done = e.drain_completed();
    let lat = done[0].latency();
    // Serial on one channel would take ≥ 8 × 244 µs ≈ 1.95 ms of transfers.
    // Two channels + pipelining must beat that comfortably.
    assert!(
        lat < SimDuration::from_micros(1600),
        "striped latency {lat} not faster than serial"
    );
}

#[test]
fn reads_of_written_data_go_to_mapped_channels() {
    let mut e = two_tenant_engine();
    e.submit(req(0, IoOp::Write, 0, 4 * PAGE, 0));
    e.run_until(SimTime::from_millis(10));
    e.drain_completed();
    let before0 = e.device().channel(ChannelId(0)).bytes_moved();
    e.submit(req(0, IoOp::Read, 0, 4 * PAGE, 10_000));
    e.run_until(SimTime::from_millis(30));
    assert_eq!(e.drain_completed().len(), 1);
    assert!(e.device().channel(ChannelId(0)).bytes_moved() > before0);
}

#[test]
fn high_priority_jumps_queue() {
    // One channel, two tenants sharing it (software isolation layout).
    let mut e = small_engine(vec![
        VssdConfig::software(VssdId(0), vec![ChannelId(0)]),
        VssdConfig::software(VssdId(1), vec![ChannelId(0)]),
    ]);
    e.set_priority(VssdId(1), Priority::High);
    // Flood from tenant 0 (low), then a single read from tenant 1 (high).
    e.set_priority(VssdId(0), Priority::Low);
    for i in 0..40 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, 0));
    }
    // Write something for tenant 1 to read first.
    e.submit(req(1, IoOp::Write, 0, PAGE, 0));
    e.run_until(SimTime::from_micros(1));
    e.submit(req(1, IoOp::Read, 0, 4096, 100));
    e.run_until(SimTime::from_secs(1));
    let done = e.drain_completed();
    let read = done
        .iter()
        .find(|c| c.vssd == VssdId(1) && c.op == IoOp::Read)
        .expect("read completed");
    // The read overtakes the ~40-deep write backlog: its latency must be far
    // below the full drain time (40 × 644 µs ≈ 26 ms).
    assert!(
        read.latency() < SimDuration::from_millis(5),
        "high-priority read waited {}",
        read.latency()
    );
}

#[test]
fn low_priority_still_progresses() {
    let mut e = small_engine(vec![
        VssdConfig::software(VssdId(0), vec![ChannelId(0)]),
        VssdConfig::software(VssdId(1), vec![ChannelId(0)]),
    ]);
    e.set_priority(VssdId(0), Priority::Low);
    for i in 0..10 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, 0));
        e.submit(req(1, IoOp::Write, i * PAGE, PAGE, 0));
    }
    e.run_until(SimTime::from_secs(1));
    let done = e.drain_completed();
    assert_eq!(done.iter().filter(|c| c.vssd == VssdId(0)).count(), 10);
    assert_eq!(done.iter().filter(|c| c.vssd == VssdId(1)).count(), 10);
}

#[test]
fn token_bucket_throttles_software_isolated_tenant() {
    // Tenant 0 limited to ~1 page per 10 ms.
    let rate = PAGE as f64 * 100.0;
    let mut e = small_engine(vec![
        VssdConfig::software(VssdId(0), vec![ChannelId(0)]).with_rate_limit(rate)
    ]);
    for i in 0..50 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, 0));
    }
    e.run_until(SimTime::from_millis(200));
    let done = e.drain_completed();
    // Unthrottled, 50 pages need ~50 × 244 µs ≈ 12 ms of bus time. With the
    // limiter, ~100 pages/s → about 20 ± burst in 200 ms.
    let n = done.len();
    assert!((15..=30).contains(&n), "throttled completions: {n}");
}

#[test]
fn slo_violations_are_counted() {
    let mut e =
        small_engine(vec![VssdConfig::hardware(VssdId(0), vec![ChannelId(0)])
            .with_slo(SimDuration::from_micros(10))]);
    e.submit(req(0, IoOp::Write, 0, PAGE, 0));
    e.run_until(SimTime::from_millis(5));
    e.drain_completed();
    let w = e.finish_window(VssdId(0));
    assert_eq!(w.total_ops, 1);
    assert!((w.slo_violation_rate - 1.0).abs() < 1e-9);
    assert_eq!(e.cumulative(VssdId(0)).slo_violations, 1);
}

#[test]
fn window_summary_reports_bandwidth() {
    let mut e = two_tenant_engine();
    for i in 0..16 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, i * 100));
    }
    e.run_until(SimTime::from_secs(1));
    e.drain_completed();
    let w = e.finish_window(VssdId(0));
    assert_eq!(w.total_ops, 16);
    let expect = 16.0 * PAGE as f64; // over 1 s
    assert!((w.avg_bandwidth - expect).abs() / expect < 1e-9);
    assert!(w.read_ratio < 1e-12);
}

#[test]
fn gc_triggers_under_pressure_and_frees_blocks() {
    // Single channel, small chip: fill far past the logical share with
    // overwrites to force GC.
    let mut e = small_engine(vec![VssdConfig::hardware(VssdId(0), vec![ChannelId(0)])]);
    // Logical space of 1 channel × 2 chips × 12 blocks × 32 pages = 768
    // pages. First fill a 400-page working set, then overwrite it in a
    // scattered order so GC victims retain some live pages (forcing
    // migrations rather than pure erases).
    let mut t = 0u64;
    for i in 0..400u64 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, t));
        t += 300;
    }
    // LCG-scrambled overwrites spread invalidations thinly across blocks.
    let mut x: u64 = 12345;
    for _ in 0..1200u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lpa = (x >> 33) % 400;
        e.submit(req(0, IoOp::Write, lpa * PAGE, PAGE, t));
        t += 300;
    }
    e.run_until(SimTime::from_micros(t + 3_000_000));
    let stats = e.device().stats();
    assert!(stats.gc_runs > 0, "GC never ran");
    assert!(stats.erases > 0, "no erases");
    assert!(stats.gc_migrated_bytes > 0, "no migrations");
    // WAF must be sane: > 1 because of migrations, < 3 for this pattern.
    let waf = stats.waf().unwrap();
    assert!(waf > 1.0 && waf < 3.0, "waf {waf}");
    // All requests still completed.
    assert_eq!(e.drain_completed().len(), 400 + 1200);
}

#[test]
fn make_harvestable_creates_pool_supply() {
    let mut e = two_tenant_engine();
    e.set_harvestable_target(VssdId(0), 2);
    let snap = e.snapshot(VssdId(0));
    assert_eq!(snap.harvestable_channels, 2);
    // Harvested blocks marked in HBT but not yet harvested by anyone.
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 0);
}

#[test]
fn harvest_extends_writer_striping() {
    let mut e = two_tenant_engine();
    e.set_harvestable_target(VssdId(0), 2);
    e.set_harvest_target(VssdId(1), 2);
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 2);
    // Tenant 1 writes now land on tenant 0's channels too.
    for i in 0..32 {
        e.submit(req(1, IoOp::Write, i * PAGE, PAGE, i * 10));
    }
    e.run_until(SimTime::from_millis(100));
    assert_eq!(e.drain_completed().len(), 32);
    let outside = e.device().channel(ChannelId(0)).bytes_moved()
        + e.device().channel(ChannelId(1)).bytes_moved();
    assert!(outside > 0, "harvester never used harvested channels");
}

#[test]
fn harvested_bandwidth_increases_throughput() {
    // Tenant 1 has one home channel; harvesting two more should speed a
    // large burst up substantially.
    let run = |harvest: bool| -> SimTime {
        let mut e = small_engine(vec![
            VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1), ChannelId(2)]),
            VssdConfig::hardware(VssdId(1), vec![ChannelId(3)]),
        ]);
        if harvest {
            e.set_harvestable_target(VssdId(0), 2);
            e.set_harvest_target(VssdId(1), 2);
        }
        for i in 0..64 {
            e.submit(req(1, IoOp::Write, i * PAGE, PAGE, 0));
        }
        e.run_until(SimTime::from_secs(2));
        let done = e.drain_completed();
        assert_eq!(done.len(), 64);
        done.iter().map(|c| c.completion).max().unwrap()
    };
    let slow = run(false);
    let fast = run(true);
    assert!(
        fast.as_micros() * 3 < slow.as_micros() * 2,
        "harvesting too weak: {} vs {}",
        fast.as_micros(),
        slow.as_micros()
    );
}

#[test]
fn harvest_target_release_returns_unused_gsb() {
    let mut e = two_tenant_engine();
    e.set_harvestable_target(VssdId(0), 2);
    e.set_harvest_target(VssdId(1), 2);
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 2);
    // Release without ever writing: gSB returns to home cleanly.
    e.set_harvest_target(VssdId(1), 0);
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 0);
    // Supply is gone too (blocks returned to the home vSSD, not the pool).
    assert_eq!(e.snapshot(VssdId(0)).harvestable_channels, 0);
}

#[test]
fn shrinking_harvestable_target_reclaims_available_gsbs() {
    let mut e = two_tenant_engine();
    e.set_harvestable_target(VssdId(0), 2);
    assert_eq!(e.snapshot(VssdId(0)).harvestable_channels, 2);
    e.set_harvestable_target(VssdId(0), 0);
    assert_eq!(e.snapshot(VssdId(0)).harvestable_channels, 0);
}

#[test]
fn admission_actions_execute_on_batch_tick() {
    let mut e = two_tenant_engine();
    let ch_bw = e.channel_peak_bytes_per_sec();
    e.submit_action(HarvestAction::MakeHarvestable {
        vssd: VssdId(0),
        bytes_per_sec: 2.0 * ch_bw,
    });
    e.submit_action(HarvestAction::Harvest {
        vssd: VssdId(1),
        bytes_per_sec: 2.0 * ch_bw,
    });
    // Before the 50 ms tick nothing happened.
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 0);
    e.run_until(SimTime::from_millis(60));
    // Batch ran: make-harvestable first, then harvest succeeded.
    assert_eq!(e.snapshot(VssdId(1)).harvested_channels, 2);
}

#[test]
fn gc_reclaims_harvested_gsb_blocks() {
    // Harvester fills a gSB, then the home shrinks its offer; GC must
    // migrate the data to the harvester's own channels and destroy the gSB.
    let mut e = small_engine(vec![
        VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)]),
        VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
    ]);
    e.set_harvestable_target(VssdId(0), 2);
    e.set_harvest_target(VssdId(1), 2);
    // Fill the harvester's space (gSB blocks absorb half the stripe),
    // scrambling the order so blocks keep live pages.
    let mut t = 0u64;
    let mut x: u64 = 99;
    for i in 0..400u64 {
        e.submit(req(1, IoOp::Write, i * PAGE, PAGE, t));
        t += 250;
    }
    for _ in 0..800u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lpa = (x >> 33) % 400;
        e.submit(req(1, IoOp::Write, lpa * PAGE, PAGE, t));
        t += 250;
    }
    e.run_until(SimTime::from_micros(t + 5_000_000));
    e.drain_completed();
    // Home vSSD reclaims: in-use gSB goes zombie, GC migrates lazily as
    // pressure builds. Force pressure with more scrambled overwrites.
    e.set_harvestable_target(VssdId(0), 0);
    let base = e.now().as_micros();
    let mut t2 = 0u64;
    for _ in 0..2600u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lpa = (x >> 33) % 400;
        e.submit(req(1, IoOp::Write, lpa * PAGE, PAGE, base + t2));
        t2 += 250;
    }
    e.run_until(SimTime::from_micros(base + t2 + 10_000_000));
    assert!(
        e.device().stats().gc_migrated_bytes > 0,
        "no GC migration happened"
    );
}

#[test]
fn queued_ops_visibility() {
    let mut e = two_tenant_engine();
    for i in 0..32 {
        e.submit(req(0, IoOp::Write, i * PAGE, PAGE, 0));
    }
    // Arrivals have not fired yet.
    assert_eq!(e.queued_ops(VssdId(0)), 0);
    e.run_until(SimTime::from_nanos(1));
    assert!(e.queued_ops(VssdId(0)) > 0);
    e.run_until(SimTime::from_secs(1));
    assert_eq!(e.queued_ops(VssdId(0)), 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut e = two_tenant_engine();
        for i in 0..64u64 {
            e.submit(req(
                (i % 2) as u32,
                IoOp::Write,
                (i / 2) * PAGE,
                PAGE,
                i * 37,
            ));
        }
        e.run_until(SimTime::from_secs(1));
        e.drain_completed()
            .iter()
            .map(|c| (c.id.0, c.completion.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
