//! Fleet-scale hotspot consolidation, window by window.
//!
//! A 64-vSSD fleet (16 shard engines × 4 slots) starts with three
//! heavy batch tenants — rotated into their write phases, mid-job —
//! packed onto shard 0 next to one latency-sensitive victim, while the
//! rest of the fleet idles along on interactive workloads. The control
//! plane observes through its burn-in windows, then migrates the hot
//! shard's heavies to the coolest shards with free slots; the demo
//! prints the shard utilization spread and every migration as it
//! happens, checks the load spread actually shrank, then renders the
//! fleet-health report and checks the SLO story it tells: violations
//! on the packed hot shard before the first migration boundary,
//! attainment recovery after the heavies are gone. The report and the
//! windowed time-series are also written to `target/fleet/` for CI
//! artifact upload.
//!
//! ```sh
//! cargo run --release --example fleet_demo
//! ```

use fleetio_suite::fleet::{default_model, FleetRuntime, FleetSpec};
use fleetio_suite::store::StoreSink;

fn main() {
    let spec = FleetSpec::hotspot(17);
    println!(
        "fleet: {} shards x {} slots = {} vSSDs, {} tenants, {} windows of {}",
        spec.shards,
        spec.slots_per_shard,
        spec.total_slots(),
        spec.tenants.len(),
        spec.windows,
        spec.window,
    );
    let mut rt = FleetRuntime::new(&spec, default_model(1), 4);

    // Record every shard's obs stream into a run store so the offline
    // dashboard (`fleetio obs report target/fleet/store/shard-*`)
    // reproduces the live health report from stored bytes alone.
    let store_root = std::path::Path::new("target/fleet/store");
    for s in 0..spec.shards as usize {
        let dir = store_root.join(format!("shard-{s:02}"));
        std::fs::remove_dir_all(&dir).ok();
        let sink = StoreSink::create(
            &dir,
            spec.encode(),
            spec.fingerprint(),
            spec.seed,
            spec.window.as_nanos(),
            64 * 1024,
        )
        .expect("create shard store");
        rt.set_shard_sink(s, Box::new(sink));
    }

    let report = rt.run();

    for s in 0..spec.shards as usize {
        let sink = rt
            .take_shard_sink(s)
            .into_any()
            .downcast::<StoreSink>()
            .expect("shard sink is a StoreSink");
        let manifest = sink.finish().expect("seal shard store");
        assert!(manifest.sealed && manifest.total_events > 0);
    }

    println!();
    println!("window  min util  mean util  max util  spread  migrations");
    for w in &report.windows {
        let min = w.shard_utils.iter().fold(f64::MAX, |a, &b| a.min(b));
        let max = w.shard_utils.iter().fold(f64::MIN, |a, &b| a.max(b));
        let mean = w.shard_utils.iter().sum::<f64>() / w.shard_utils.len() as f64;
        println!(
            "{:>6}  {:>8.3}  {:>9.3}  {:>8.3}  {:>6.3}  {:>10}",
            w.window,
            min,
            mean,
            max,
            w.util_spread(),
            w.executed.len(),
        );
        for m in &w.executed {
            println!(
                "        tenant {:>2}: {} -> {}  (src util {:.2}, dst util {:.2})",
                m.tenant, m.from, m.to, m.src_util, m.dst_util,
            );
        }
    }

    let first = report.windows.first().expect("windows ran").util_spread();
    let last = report.windows.last().expect("windows ran").util_spread();
    println!();
    println!(
        "migrations: {}   load spread: {:.3} -> {:.3}   events: {}   ops: {}",
        report.migrations.len(),
        first,
        last,
        report.events_processed,
        report.total_ops,
    );
    assert!(
        !report.migrations.is_empty(),
        "the packed hot shard must shed at least one tenant"
    );
    assert!(
        last < first,
        "consolidation must shrink the load spread ({first:.3} -> {last:.3})"
    );

    // The fleet-health surface: SLO attainment per tenant, worst
    // windows, and the annotated migration timeline.
    let health = rt.health_report();
    println!();
    println!("{health}");

    // CI artifacts first — the health report plus the windowed
    // time-series stay inspectable even when an assertion below trips.
    std::fs::create_dir_all("target/fleet").expect("create target/fleet");
    std::fs::write("target/fleet/health.txt", &health).expect("write health report");
    std::fs::write("target/fleet/series.csv", rt.series().to_csv()).expect("write series CSV");
    std::fs::write("target/fleet/series.jsonl", rt.series().to_jsonl()).expect("write series");
    println!(
        "series: {} registered, {} points dropped",
        rt.series().n_series(),
        rt.series().total_dropped()
    );

    // The story the report must tell: tenant 3, the latency-sensitive
    // victim packed onto shard 0 with the three heavies, violates its
    // SLO while they crush the shard and recovers once they migrate
    // away.
    let victim = 3u32;
    let first_boundary = report.migrations[0].window;
    let verdicts: Vec<_> = rt.slo_verdicts(victim).collect();
    let pre_violations = verdicts
        .iter()
        .filter(|v| v.window <= first_boundary && !v.attained())
        .count();
    assert!(
        pre_violations > 0,
        "the victim must violate its SLO before the first migration: {verdicts:?}"
    );
    let last = verdicts.last().expect("victim observed every window");
    assert!(
        last.attained(),
        "the victim must attain its SLO in the final window: {last:?}"
    );

    println!("OK: hotspot consolidated deterministically; SLO attainment recovered");
    println!("artifacts: target/fleet/health.txt, series.csv, series.jsonl, store/shard-*/");
}
