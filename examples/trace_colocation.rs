//! Traced colocation: run four tenants on a small device with a recording
//! observability sink, then write the run as JSONL events.
//!
//! ```sh
//! cargo run --release --example trace_colocation
//! ```
//!
//! The output is `target/obs/events.jsonl`, one structured event per line
//! (see `fleetio obs summarize target/obs/events.jsonl`).
//!
//! The example double-checks the trace against the engine: the number of
//! `request_complete` events must equal the engine's own cumulative
//! completed-request count across all tenants.

use fleetio_suite::des::SimDuration;
use fleetio_suite::flash::config::FlashConfig;
use fleetio_suite::fleetio::driver::Colocation;
use fleetio_suite::fleetio::experiment::hardware_layout;
use fleetio_suite::fleetio::FleetIoConfig;
use fleetio_suite::obs::RecordingSink;
use fleetio_suite::workloads::WorkloadKind;

fn main() {
    let mut cfg = FleetIoConfig::default();
    cfg.engine.flash = FlashConfig::training_test();
    cfg.decision_interval = SimDuration::from_millis(500);

    // Four tenants, one channel each on the 4-channel test device: two
    // latency-sensitive services and two bandwidth-intensive batch jobs.
    let kinds = [
        WorkloadKind::Ycsb,
        WorkloadKind::Tpce,
        WorkloadKind::TeraSort,
        WorkloadKind::MlPrep,
    ];
    let tenants = hardware_layout(&cfg, &kinds, &[None, None, None, None], 7);

    let mut coloc = Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval);
    // Recording sink sized to keep the full run (no ring eviction).
    coloc.set_obs_sink(Box::new(RecordingSink::with_capacity(1 << 22)));
    // Warm the flash well past the GC threshold so the trace shows GC
    // activity alongside foreground I/O.
    coloc.warm_up(0.9);
    coloc.run_windows(6);

    let sink = coloc
        .take_obs_sink()
        .into_any()
        .downcast::<RecordingSink>()
        .expect("the sink installed above is a RecordingSink");

    // Cross-check: the trace must account for every completed request.
    let completed_in_engine: u64 = coloc
        .engine()
        .vssd_ids()
        .iter()
        .map(|&id| coloc.engine().cumulative(id).requests)
        .sum();
    assert_eq!(sink.dropped(), 0, "ring evicted events; raise the capacity");
    assert_eq!(
        sink.completed_requests(),
        completed_in_engine,
        "trace disagrees with the engine's completed-request count"
    );

    let dir = std::path::Path::new("target/obs");
    std::fs::create_dir_all(dir).expect("create target/obs");
    std::fs::write(dir.join("events.jsonl"), sink.to_jsonl()).expect("write events.jsonl");

    println!(
        "traced {} events ({} request completions, engine agrees)",
        sink.events().len(),
        sink.completed_requests()
    );
    println!("  target/obs/events.jsonl — fleetio obs summarize target/obs/events.jsonl");
}
