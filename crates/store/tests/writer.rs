//! The sink's writer thread over its whole life:
//!
//! * a sink dropped without `finish` (a panicking recorder) leaves exactly
//!   the segments it sealed, an unsealed manifest listing exactly those,
//!   and no temp files;
//! * a write that fails mid-run — the store directory moved away, or
//!   replaced by a file, or a segment's temp name blocked — comes back as
//!   an `Err` naming the segment from `finish` and from `record_run`, and
//!   the manifest on disk stays unsealed;
//! * a write failing in the middle of a group leaves a manifest listing
//!   exactly the files written before it;
//! * many seals and anchors interleaved on one queue run to completion,
//!   each anchor a manifest entry and no file.

use std::path::{Path, PathBuf};

use fleetio::RunSpec;
use fleetio_des::SimTime;
use fleetio_model::atomic::tmp_path;
use fleetio_obs::{ObsEvent, ObsSink};
use fleetio_store::{record_run, segment_file_name, Manifest, RunStore, StoreSink};

/// A 2 KiB target: a few dozen events per segment.
const SEG_BYTES: usize = 2 * 1024;

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fleetio-store-writer-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&dir).ok();
    dir
}

fn sink(dir: &Path) -> StoreSink {
    StoreSink::create(dir, vec![3, 1, 4], 0x51, 99, 1_000, SEG_BYTES).expect("create sink")
}

fn throttle(i: u64) -> ObsEvent {
    ObsEvent::Throttle {
        at: SimTime::from_nanos(i * 100),
        channel: (i % 8) as u16,
        until: SimTime::from_nanos(i * 100 + 40),
    }
}

fn record(sink: &mut StoreSink, events: std::ops::Range<u64>) {
    for i in events {
        sink.record(throttle(i));
    }
}

/// The segment layout of `events` throttle events, from a finished store.
fn reference(tag: &str, events: u64) -> Manifest {
    let dir = tmp(&format!("reference-{tag}"));
    let mut s = sink(&dir);
    record(&mut s, 0..events);
    let manifest = s.finish().expect("finish the reference");
    std::fs::remove_dir_all(&dir).ok();
    manifest
}

fn file_names(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("list the store")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

fn temp_files(dir: &Path) -> Vec<String> {
    let mut names = file_names(dir);
    names.retain(|name| name.ends_with(".tmp"));
    names
}

#[test]
fn a_dropped_sink_leaves_exactly_its_sealed_segments() {
    let full = reference("drop", 4_000);
    assert!(full.segments.len() > 12, "the target must roll often");
    for n in [1usize, 3, 10] {
        let dir = tmp(&format!("drop-{n}"));
        let mut s = sink(&dir);
        // One event past the n-th seal: n segments sealed, a 1-event tail.
        record(&mut s, 0..full.segments[n].first_event + 1);
        drop(s);

        let on_disk = Manifest::load(&dir).expect("the manifest survives the drop");
        assert!(!on_disk.sealed, "a dropped sink never seals");
        assert_eq!(on_disk.segments, full.segments[..n], "n = {n}");
        let segment_files = std::fs::read_dir(&dir)
            .expect("list the store")
            .filter(|e| {
                let name = e.as_ref().expect("dir entry").file_name();
                name.to_string_lossy().starts_with("seg-")
            })
            .count();
        assert_eq!(segment_files, n, "exactly the sealed segments are on disk");
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        let report = RunStore::open(&dir).expect("open").verify();
        assert!(!report.sealed);
        assert!(report.segments.iter().all(|s| s.ok()));
        assert_eq!(report.fingerprint_ok, Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_failed_write_is_an_error_from_finish_and_leaves_the_store_unsealed() {
    let full = reference("moved", 4_000);
    for replace_with_file in [false, true] {
        let dir = tmp(&format!("moved-{replace_with_file}"));
        let moved = dir.with_extension("moved");
        std::fs::remove_dir_all(&moved).ok();
        let mut s = sink(&dir);
        record(&mut s, 0..full.segments[2].first_event + 1);
        std::fs::rename(&dir, &moved).expect("move the store away mid-run");
        if replace_with_file {
            std::fs::write(&dir, b"not a directory").expect("put a file in its place");
        }
        // Five more segments: the writer fails on the first of them, and
        // the sink sees it at a seal after that.
        record(
            &mut s,
            full.segments[2].first_event + 1..full.segments[8].first_event,
        );
        assert!(s.error().is_some(), "the failure is latched before finish");
        let err = s.finish().expect_err("finish reports the failed write");
        assert!(
            err.to_string().contains("sealing segment"),
            "the error names the segment: {err}"
        );
        let left = Manifest::load(&moved).expect("the moved store keeps its manifest");
        assert!(!left.sealed, "a failed run never seals");
        assert!(left.segments.len() <= 3, "{} segments", left.segments.len());
        std::fs::remove_dir_all(&moved).ok();
        std::fs::remove_file(&dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn record_run_surfaces_a_failed_segment_write() {
    let dir = tmp("record-fails");
    // A directory squatting on segment 2's temp name fails its write.
    let blocked = tmp_path(&dir.join(segment_file_name(2)));
    std::fs::create_dir_all(&blocked).expect("block segment 2");
    let spec = RunSpec::demo(5, 2, 1);
    let err = record_run(&spec, &dir, SEG_BYTES).expect_err("segment 2 cannot be written");
    assert!(
        err.to_string().contains("sealing segment 2"),
        "the error names the segment: {err}"
    );
    let left = Manifest::load(&dir).expect("the manifest is readable");
    assert!(!left.sealed);
    assert_eq!(left.segments.len(), 2, "segments 0 and 1 are durable");
    assert!(!dir.join(segment_file_name(2)).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failure_mid_group_commits_exactly_the_files_before_it() {
    let full = reference("mid-group", 4_000);
    let dir = tmp("mid-group");
    // Segments 0, 1 and 2 are queued in one group; a directory squatting
    // on the middle one's temp name fails its write.
    let blocked = tmp_path(&dir.join(segment_file_name(1)));
    std::fs::create_dir_all(&blocked).expect("block segment 1");
    let mut s = sink(&dir);
    record(&mut s, 0..full.segments[3].first_event + 1);
    let err = s.finish().expect_err("segment 1 cannot be written");
    assert!(
        err.to_string().contains("sealing segment 1"),
        "the error names the segment: {err}"
    );

    let left = Manifest::load(&dir).expect("the manifest is readable");
    assert!(!left.sealed, "a failed run never seals");
    assert_eq!(
        left.segments,
        full.segments[..1],
        "exactly the files before it"
    );
    for meta in &left.segments {
        assert!(!meta.file_name().ends_with(".tmp"));
        assert!(dir.join(meta.file_name()).is_file());
    }
    let squatter = blocked.file_name().expect("a file name");
    assert_eq!(temp_files(&dir), [squatter.to_string_lossy()]);
    assert!(!dir.join(segment_file_name(1)).exists());
    assert!(!dir.join(segment_file_name(2)).exists());
    let report = RunStore::open(&dir).expect("open").verify();
    assert!(!report.sealed);
    assert!(report.segments.iter().all(|s| s.ok()));
    assert_eq!(report.fingerprint_ok, Some(true));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anchors_every_window_interleave_with_many_seals() {
    let spec = RunSpec::demo(5, 4, 1);
    let dir = tmp("interleave");
    let report = record_run(&spec, &dir, SEG_BYTES).expect("record at 2 KiB");
    assert_eq!(report.anchors, 3);
    let manifest = &report.manifest;
    assert!(manifest.sealed);
    assert!(
        manifest.segments.len() > 100,
        "{} segments",
        manifest.segments.len()
    );
    let windows: Vec<u64> = manifest.anchors.iter().map(|a| a.window).collect();
    assert_eq!(windows, [1, 2, 3]);
    let mut last = (0, 0);
    for a in &manifest.anchors {
        assert!(
            a.at_ns > last.0 && a.event_count > last.1,
            "{a:?} after {last:?}"
        );
        last = (a.at_ns, a.event_count);
    }
    assert!(last.1 < manifest.total_events);
    // An anchor is a manifest entry only.
    let names = file_names(&dir);
    assert!(names.iter().all(|n| !n.starts_with("anchor-")), "{names:?}");
    let on_disk = Manifest::load(&dir).expect("manifest");
    assert_eq!(&on_disk, manifest);
    assert!(temp_files(&dir).is_empty());
    assert!(RunStore::open(&dir).expect("open").verify().clean());
    std::fs::remove_dir_all(&dir).ok();
}
