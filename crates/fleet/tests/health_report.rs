//! The live fleet health report and the one `fleetio obs report` renders
//! from the run's per-shard stores are one fold over the same
//! `slo_window` / `fleet_migration` rows, so they are byte-identical.

use std::path::PathBuf;

use fleetio_fleet::{default_model, FleetRuntime, FleetSpec};
use fleetio_obs::slo::health_report;
use fleetio_obs::ObsEvent;
use fleetio_store::{query_each, EventFilter, RunStore, StoreSink};

#[test]
fn live_health_report_equals_the_fold_over_its_stores() {
    // The hotspot fleet through its first migrations: the packed victim
    // violates, and the two moves planned at window 4 execute in the
    // opposite order to the one the report lists them in.
    let mut spec = FleetSpec::hotspot(17);
    spec.windows = 6;
    let root = std::env::temp_dir().join(format!("fleetio-health-report-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dirs: Vec<PathBuf> = (0..spec.shards)
        .map(|s| root.join(format!("shard-{s:02}")))
        .collect();

    let mut rt = FleetRuntime::new(&spec, default_model(1), 2);
    for (s, dir) in dirs.iter().enumerate() {
        let sink = StoreSink::create(
            dir,
            spec.encode(),
            spec.fingerprint(),
            spec.seed,
            spec.window.as_nanos(),
            64 * 1024,
        )
        .expect("create store");
        rt.set_shard_sink(s, Box::new(sink));
    }
    let report = rt.run();
    for s in 0..dirs.len() {
        let sink = rt
            .take_shard_sink(s)
            .into_any()
            .downcast::<StoreSink>()
            .expect("shard sink is a StoreSink");
        assert!(sink.finish().expect("seal store").sealed);
    }
    assert!(
        report
            .migrations
            .windows(2)
            .any(|m| m[0].tenant > m[1].tenant),
        "execution order differs from the report's: {:?}",
        report.migrations
    );

    // Shards read last to first: the fold must not care.
    let (mut slo_rows, mut migrations) = (Vec::new(), Vec::new());
    for dir in dirs.iter().rev() {
        let store = RunStore::open(dir).expect("open store");
        query_each(&store, &EventFilter::default(), |ev| match ev {
            ObsEvent::SloWindow(row) => slo_rows.push(*row),
            ObsEvent::FleetMigration(m) => migrations.push(*m),
            _ => {}
        })
        .expect("read store");
    }
    let offline = health_report(slo_rows, migrations);
    let live = rt.health_report();
    assert!(
        live.contains(&format!("migrations: {}\n", report.migrations.len())),
        "{live}"
    );
    assert!(!live.contains("(no violations)"), "{live}");
    assert_eq!(live, offline);
    std::fs::remove_dir_all(&root).ok();
}
