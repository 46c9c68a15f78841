//! Fleet-level determinism acceptance tests:
//!
//! * a 64-vSSD fleet produces byte-identical per-shard observability
//!   streams and identical migration logs for 1, 2, 3, 8 and 32 worker
//!   threads (the CI determinism matrix), on an evenly loaded spec and
//!   on a skewed one whose heavy-first claim order changes between
//!   windows;
//! * two same-seed fleet runs recorded through per-shard `StoreSink`s
//!   diff as `Identical` — the fleet layer composes with the run store
//!   without disturbing its byte-exactness guarantee;
//! * a fully attached shard is a `Colocation` of the same tenants: equal
//!   window summaries and equal obs stream hashes.

use std::path::PathBuf;

use fleetio::{Colocation, TenantSpec};
use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_fleet::{default_model, FingerprintSink, FleetReport, FleetRuntime, FleetSpec, Shard};
use fleetio_store::{diff_stores, DiffOutcome, RunStore, StoreSink};
use fleetio_vssd::engine::EngineConfig;
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::WorkloadKind;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-fleet-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The CI fleet (16 shards × 4 slots = 64 vSSDs, 56 tenants) trimmed
/// to two windows so the debug-build matrix stays fast.
fn matrix_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::ci(seed);
    spec.windows = 2;
    spec
}

/// The hotspot fleet (three heavies packed on shard 0, light tenants on
/// shards 1–11, shards 12–15 empty until migrations land) trimmed to
/// the six windows it takes for the first migrations to execute: shard
/// event counts are unequal and shift as tenants move, so the claim
/// order is not index order and not the same every window.
fn skewed_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::hotspot(seed);
    spec.windows = 6;
    spec
}

#[test]
fn worker_thread_count_never_changes_a_64_vssd_fleet() {
    assert_matrix_is_byte_identical(&matrix_spec(41));
}

#[test]
fn worker_thread_count_never_changes_a_skewed_migrating_fleet() {
    let report = assert_matrix_is_byte_identical(&skewed_spec(41));
    assert!(!report.migrations.is_empty(), "migrations must fire");
    assert!(
        report.windows[0].util_spread() > 0.2,
        "load must be skewed: {:?}",
        report.windows[0].shard_utils
    );
}

/// Runs `spec` at 1, 2, 3 (does not divide 16 shards), 8 and 32 (more
/// workers than shards) workers, plus a same-seed rerun at 2: every run
/// must be byte-identical, including the SLO time-series and the
/// rendered health report. Returns the common report.
fn assert_matrix_is_byte_identical(spec: &FleetSpec) -> FleetReport {
    assert_eq!(spec.total_slots(), 64);
    let mut baseline = None;
    for workers in [1usize, 2, 3, 8, 32, 2] {
        let mut rt = FleetRuntime::new(spec, default_model(7), workers);
        rt.install_fingerprint_sinks();
        let report = rt.run();
        let fingerprints = rt.take_fingerprints();
        let health = rt.health_report();
        let series_csv = rt.series().to_csv();
        let series_jsonl = rt.series().to_jsonl();
        assert!(
            fingerprints.iter().all(|&(_, events)| events > 0),
            "every shard must emit events"
        );
        assert!(
            health.contains("FLEET HEALTH REPORT"),
            "health report renders"
        );
        assert!(!series_csv.is_empty(), "series recorded");
        match &baseline {
            None => baseline = Some((report, fingerprints, health, series_csv, series_jsonl)),
            Some((r0, f0, h0, c0, j0)) => {
                assert_eq!(
                    &report.migrations, &r0.migrations,
                    "{workers} workers changed the migration log"
                );
                assert_eq!(
                    &report, r0,
                    "{workers} workers changed the merged window reports"
                );
                assert_eq!(
                    &fingerprints, f0,
                    "{workers} workers changed a per-shard obs stream"
                );
                assert_eq!(
                    &health, h0,
                    "{workers} workers changed the rendered health report"
                );
                assert_eq!(
                    &series_csv, c0,
                    "{workers} workers changed the SLO time-series (CSV)"
                );
                assert_eq!(
                    &series_jsonl, j0,
                    "{workers} workers changed the SLO time-series (JSONL)"
                );
            }
        }
    }
    baseline.expect("the matrix ran").0
}

#[test]
fn same_seed_fleet_stores_diff_as_identical() {
    let spec = FleetSpec::sized(23, 2, 2, 3);
    let record = |tag: &str| -> Vec<PathBuf> {
        let dirs: Vec<PathBuf> = (0..spec.shards)
            .map(|s| tmp(&format!("{tag}-shard{s}")))
            .collect();
        let mut rt = FleetRuntime::new(&spec, default_model(7), 2);
        for (s, dir) in dirs.iter().enumerate() {
            let sink = StoreSink::create(
                dir,
                spec.encode(),
                spec.fingerprint(),
                spec.seed,
                spec.window.as_nanos(),
                32 * 1024,
            )
            .expect("create store");
            rt.set_shard_sink(s, Box::new(sink));
        }
        rt.run();
        for s in 0..spec.shards as usize {
            let sink = rt
                .take_shard_sink(s)
                .into_any()
                .downcast::<StoreSink>()
                .expect("shard sink is a StoreSink");
            let manifest = sink.finish().expect("seal store");
            assert!(manifest.sealed);
            assert!(manifest.total_events > 0);
        }
        dirs
    };
    let a = record("a");
    let b = record("b");
    for (da, db) in a.iter().zip(&b) {
        let sa = RunStore::open(da).expect("open a");
        let sb = RunStore::open(db).expect("open b");
        match diff_stores(&sa, &sb).expect("diff") {
            DiffOutcome::Identical { events } => {
                assert_eq!(events, sa.manifest().total_events);
            }
            DiffOutcome::Diverged(d) => {
                panic!("same-seed fleet stores diverged at event {}", d.index)
            }
        }
    }
    for dir in a.iter().chain(&b) {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn fully_attached_shard_equals_a_colocation_of_the_same_tenants() {
    let engine_cfg = || EngineConfig {
        flash: FlashConfig::training_test(),
        ..EngineConfig::default()
    };
    let window = SimDuration::from_millis(500);
    // Two open-loop and two closed-loop tenants, one channel each.
    let kinds = [
        WorkloadKind::Ycsb,
        WorkloadKind::TeraSort,
        WorkloadKind::VdiWeb,
        WorkloadKind::MlPrep,
    ];
    let configs: Vec<VssdConfig> = (0..kinds.len() as u16)
        .map(|i| {
            VssdConfig::hardware(VssdId(u32::from(i)), vec![ChannelId(i)])
                .with_slo(SimDuration::from_millis(2))
        })
        .collect();
    let seed = |i: usize| 100 + i as u64;

    let mut shard = Shard::new(0, engine_cfg(), configs.clone(), window);
    for (i, kind) in kinds.iter().enumerate() {
        shard.attach(i, i as u32, *kind, seed(i), 0);
    }
    let tenants = configs
        .into_iter()
        .zip(kinds)
        .enumerate()
        .map(|(i, (config, kind))| TenantSpec::new(config, kind, seed(i)))
        .collect();
    let mut coloc = Colocation::new(engine_cfg(), tenants, window);

    let _ = shard
        .engine_mut()
        .set_obs_sink(Box::new(FingerprintSink::new()));
    let _ = coloc.set_obs_sink(Box::new(FingerprintSink::new()));
    for w in 0..4 {
        let report = shard.run_window();
        assert_eq!(report.summaries, coloc.run_window(), "window {w}");
        assert!(report.summaries.iter().all(|(_, s)| s.total_ops > 0));
    }
    let hash = |sink: Box<dyn fleetio_obs::ObsSink>| {
        let sink = sink
            .into_any()
            .downcast::<FingerprintSink>()
            .expect("a FingerprintSink was installed");
        (sink.fingerprint(), sink.event_count())
    };
    let shard_hash = hash(shard.engine_mut().take_obs_sink());
    assert!(shard_hash.1 > 0, "the stream is not empty");
    assert_eq!(shard_hash, hash(coloc.take_obs_sink()));
}
