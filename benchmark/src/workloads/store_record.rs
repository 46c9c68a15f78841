//! `store-record`: record the GC-active demo run into two fresh stores,
//! read them back (`verify`, an indexed tenant + time-range `query`, a
//! tenant-only `query`, `diff_stores`), and run the same spec once under
//! the default `NullSink`.
//!
//! The workload where `obs` emission + `obs::wire` + `store` are most of
//! the wall and the engine runs write/GC-heavy. One thread; writes go to
//! `benchmark/out/tmp-<pid>/` and are removed after every repetition.

use std::path::PathBuf;
use std::time::Instant;

use fleetio::RunSpec;
use fleetio_flash::stats::DeviceStats;
use fleetio_obs::{prof, ObsEvent};
use fleetio_store::{
    diff_stores, query, record_run, DiffOutcome, EventFilter, RunStore, DEFAULT_SEGMENT_BYTES,
};

use super::Digest;
use crate::probes;
use crate::runner::{RepOutput, Size, Workload};

/// What the output check needs from the last repetition.
struct Last {
    verify_clean: bool,
    identical: bool,
    range: Vec<ObsEvent>,
    segments: (usize, usize),
}

/// The workload: the run spec, the range query, and the scratch root.
pub struct StoreRecord {
    spec: RunSpec,
    range: EventFilter,
    root: PathBuf,
    last: Option<Last>,
    checked_scan: bool,
}

/// Times `f` under span `name`, returning its result and milliseconds.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = prof::time(name, f);
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// What the spec does under `NullSink`.
struct NullRun {
    events: u64,
    device: DeviceStats,
    /// Per tenant: bytes, requests, P99 nanoseconds.
    tenants: Vec<(u64, u64, u64)>,
    /// Host milliseconds of each `Colocation::run_window`.
    window_ms: Vec<f64>,
}

/// The spec under `NullSink`, window by window: what the engine costs
/// with nobody listening.
fn null_run(spec: &RunSpec) -> NullRun {
    let mut coloc = prof::time("coloc.new", || spec.build());
    prof::time("coloc.warm_up", || coloc.warm_up(spec.warm_fraction));
    let window_ms = (0..spec.windows)
        .map(|_| timed("coloc.run_window", || coloc.run_window()).1)
        .collect();
    let engine = coloc.engine();
    let tenants = coloc
        .tenant_ids()
        .iter()
        .map(|id| {
            let cum = engine.cumulative(*id);
            (
                cum.bytes,
                cum.requests,
                cum.latency.percentile(99.0).map_or(0, |p| p.as_nanos()),
            )
        })
        .collect();
    NullRun {
        events: engine.events_processed(),
        device: engine.device().stats(),
        tenants,
        window_ms,
    }
}

impl StoreRecord {
    /// Set-up: the spec, the range filter, and an untimed warm-up of both
    /// paths — the spec once under `NullSink`, once recorded to disk.
    pub fn setup(seed: u64, size: Size) -> Self {
        let (windows, every) = match size {
            Size::Full => (40, 10),
            Size::Smoke => (6, 2),
        };
        let spec = RunSpec::demo(seed, windows, every);
        // Tenant 2 over the run's third fifth: a minority of the segments.
        let span = spec.window.as_nanos() * u64::from(windows);
        let range = EventFilter {
            tenant: Some(2),
            from_ns: Some(span * 2 / 5),
            to_ns: Some(span * 3 / 5),
            kind: None,
        };
        let root = PathBuf::from(format!("benchmark/out/tmp-{}", std::process::id()));
        null_run(&spec);
        record_run(&spec, &root.join("warm-up"), DEFAULT_SEGMENT_BYTES)
            .expect("record_run into a fresh directory");
        let _ = std::fs::remove_dir_all(&root);
        StoreRecord {
            spec,
            range,
            root,
            last: None,
            checked_scan: false,
        }
    }
}

impl Drop for StoreRecord {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Workload for StoreRecord {
    /// Two recorded runs and the `NullSink` run.
    fn engine_windows(&self) -> u64 {
        3 * u64::from(self.spec.windows)
    }

    fn rep(&mut self, _traced: bool) -> RepOutput {
        // A repetition that panicked skipped its check's clean-up.
        let _ = std::fs::remove_dir_all(&self.root);
        let dirs = [self.root.join("a"), self.root.join("b")];
        let mut timings: Vec<(&'static str, f64)> = Vec::new();
        let manifests = dirs.each_ref().map(|dir| {
            let (report, ms) = timed("store.record_run", || {
                record_run(&self.spec, dir, DEFAULT_SEGMENT_BYTES)
            });
            timings.push(("store.record_ms", ms));
            report.expect("record_run into a fresh directory").manifest
        });

        let readback = Instant::now();
        let [a, b] = dirs.each_ref().map(|dir| {
            prof::time("store.open", || RunStore::open(dir)).expect("open recorded store")
        });
        let (verify, verify_ms) = timed("store.verify", || a.verify());
        let (range, range_ms) = timed("store.query", || {
            query(&a, &self.range).expect("range query")
        });
        let tenant_only = EventFilter {
            tenant: self.range.tenant,
            ..EventFilter::default()
        };
        let (tenant, tenant_ms) = timed("store.query", || {
            query(&a, &tenant_only).expect("tenant query")
        });
        let (diff, diff_ms) = timed("store.diff", || {
            diff_stores(&a, &b).expect("diff of two clean stores")
        });
        let readback_ms = readback.elapsed().as_secs_f64() * 1e3;

        let (
            NullRun {
                events,
                device,
                tenants,
                window_ms,
            },
            null_ms,
        ) = timed("store.null_run", || null_run(&self.spec));

        let record_ms = timings.iter().map(|t| t.1).sum::<f64>() / timings.len() as f64;
        timings.extend([
            ("store.readback_ms", readback_ms),
            ("store.verify_ms", verify_ms),
            ("store.query_range_ms", range_ms),
            ("store.query_tenant_ms", tenant_ms),
            ("store.diff_ms", diff_ms),
            ("store.record_overhead_x", record_ms / null_ms),
        ]);
        timings.extend(window_ms.into_iter().map(|ms| ("driver.window_ms", ms)));

        let mut digest = Digest::default();
        for m in &manifests {
            digest
                .u64(m.stream_fingerprint)
                .u64(m.total_events)
                .u64(u64::from(m.spec_fingerprint));
        }
        digest
            .u64(events)
            .u64(device.nand_ops)
            .u64(tenant.events.len() as u64);
        for &(bytes, requests, p99) in &tenants {
            digest.u64(bytes).u64(requests).u64(p99);
        }
        let sim_s = self.spec.window.as_secs_f64() * f64::from(self.spec.windows);
        let store_bytes: u64 = manifests[0].segments.iter().map(|s| s.bytes).sum();
        let out = RepOutput {
            digest: digest.finish(),
            events: 3 * events,
            exact: vec![
                ("store_mb_per_sim_s", store_bytes as f64 / 1e6 / sim_s),
                (
                    "obs.events_per_sim_s",
                    manifests[0].total_events as f64 / sim_s,
                ),
                (
                    "store.query_segments_read_pct",
                    100.0 * range.segments_scanned as f64 / range.segments_total.max(1) as f64,
                ),
                ("vssd.events_per_sim_s", events as f64 / sim_s),
                (
                    "workloads.reqs_per_sim_s",
                    tenants.iter().map(|t| t.1).sum::<u64>() as f64 / sim_s,
                ),
                ("flash.nand_ops_per_sim_s", device.nand_ops as f64 / sim_s),
                ("flash.waf", device.waf().unwrap_or(0.0)),
                ("flash.gc_runs", device.gc_runs as f64),
                ("flash.erases", device.erases as f64),
            ],
            timings,
        };
        self.last = Some(Last {
            verify_clean: verify.clean(),
            identical: matches!(diff, DiffOutcome::Identical { .. }),
            segments: (range.segments_scanned, range.segments_total),
            range: range.events,
        });
        out
    }

    /// The store verifies clean, the two recordings diff `Identical`,
    /// and (checked once per run) the indexed range query returns exactly
    /// the linear scan's events while reading fewer segments. Removes the
    /// repetition's stores.
    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(last) = self.last.take() {
            if !last.verify_clean {
                failures.push("store does not verify clean".into());
            }
            if !last.identical {
                failures.push("same-seed recordings do not diff Identical".into());
            }
            if last.segments.0 >= last.segments.1 {
                failures.push(format!(
                    "range query read {} of {} segments",
                    last.segments.0, last.segments.1
                ));
            }
            if !self.checked_scan {
                self.checked_scan = true;
                // Segment by segment, so the check never holds the whole run in memory.
                let linear = RunStore::open(&self.root.join("a")).and_then(|store| {
                    let mut hits = Vec::new();
                    for meta in &store.manifest().segments {
                        hits.extend(
                            store
                                .segment_events(meta)?
                                .into_iter()
                                .filter(|ev| self.range.matches(ev)),
                        );
                    }
                    Ok(hits)
                });
                if linear.ok() != Some(last.range) {
                    failures.push("indexed range query differs from the linear scan".into());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
        failures
    }

    fn probes(&mut self) -> Vec<(&'static str, f64)> {
        let (encode_ns, bytes) = probes::wire_encode();
        vec![
            (
                "obs.recording_sink_ns_per_event",
                probes::recording_sink_ns_per_event(),
            ),
            ("obs.wire_encode_ns_per_event", encode_ns),
            ("obs.wire_bytes_per_event", bytes),
            (
                "store.sink_ns_per_event",
                probes::store_sink_ns_per_event(&self.root.join("probe")),
            ),
        ]
    }
}
