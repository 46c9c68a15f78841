//! On-disk format compatibility against bytes older builds wrote.
//!
//! `fixtures/recorded-by-pr13/` is a tiny sealed store (four 1 ms
//! windows of `RunSpec::demo(7, 4, 2)` filled to 0.9, 4 KiB segments:
//! 299 events in three segments, one anchor) recorded by the commit
//! before the table-driven CRC-32 and the in-place record framing
//! landed. Reading it back proves the new kernels against frames the
//! bit-at-a-time kernel checksummed, not only against themselves.
//!
//! `fixtures/recorded-by-pr20/` is the same spec on a *full* device (fill
//! 1.0: 337 events in four segments, one anchor), recorded by the commit
//! before the bus arbiter took time-sliced transfers' grants off the event
//! queue. GC runs from the first write there, and GC migrations are
//! time-sliced, so 75 of its events are `bus_grant` records — the one kind
//! no other golden in the repository contains.
//!
//! Both are segment format 1 (fixed-width integers). `fixtures/
//! recorded-by-pr37/` is the PR 20 spec recorded in format 2 (LEB128
//! integers) by the commit that introduced it: the same 337 events in
//! fewer bytes.
//!
//! These three also hold an `anchor-00002.fiom` beside the manifest,
//! which nothing reads. `fixtures/recorded-by-pr44/` is the same run
//! recorded once anchors became manifest entries only: the manifest and
//! segments of `recorded-by-pr37`, byte for byte, and no anchor file.
//!
//! Every fixture must open, verify, diff `Identical` against a fresh
//! recording of its spec and replay with every event compared for as
//! long as this build reads its format. A fresh recording must equal the
//! newest fixture file by file, which also pins simulated behaviour, like
//! every other golden: a PR that intentionally re-baselines the goldens,
//! or changes the files writers write, keeps the old fixtures and adds a
//! new one.

use std::path::{Path, PathBuf};

use fleetio_des::hash::Fnv64;
use fleetio_obs::wire::WireFormat;
use fleetio_store::{diff_stores, record_run, replay_run, DiffOutcome, RunStore};

const STREAM_FINGERPRINT: u64 = 0x335d_5c9d_0b2a_dea9;
/// FNV-1a over `seg-00000.seg ‖ seg-00001.seg ‖ seg-00002.seg`.
const SEGMENT_FILES_FNV: u64 = 0x2350_8136_7412_3880;
const SEGMENT_BYTES: usize = 4096;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// File names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list store directory")
        .map(|e| {
            let name = e.expect("directory entry").file_name();
            name.to_string_lossy().into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn parent_recorded_fixture_verifies_and_fingerprints() {
    let dir = fixture("recorded-by-pr13");
    let store = RunStore::open(&dir).expect("open fixture");
    let manifest = store.manifest();
    assert!(manifest.sealed);
    assert_eq!(manifest.total_events, 299);
    assert_eq!(manifest.segments.len(), 3);
    assert_eq!(manifest.anchors.len(), 1);
    assert_eq!(manifest.stream_fingerprint, STREAM_FINGERPRINT);

    let report = store.verify();
    assert!(report.clean(), "fixture must verify clean: {report:?}");

    // The strict streaming view recomputes the manifest's fingerprint.
    let mut cursor = store.payload_cursor();
    let mut fp = Fnv64::new();
    while let Some((format, payload)) = cursor.next_payload().expect("intact fixture") {
        assert_eq!(format, WireFormat::V1);
        fp.update(payload);
    }
    assert_eq!(fp.finish(), STREAM_FINGERPRINT);
    assert_eq!(cursor.drain().expect("intact fixture"), 299);

    let mut files = Fnv64::new();
    for meta in &manifest.segments {
        files.update(&std::fs::read(manifest.segment_path(&dir, meta.seq)).expect("read segment"));
    }
    assert_eq!(files.finish(), SEGMENT_FILES_FNV);
}

/// A fresh recording in the current format, in a scratch directory.
fn record_fresh(spec: &fleetio::RunSpec, name: &str) -> PathBuf {
    let fresh = std::env::temp_dir().join(format!(
        "fleetio-store-fixture-fresh-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&fresh).ok();
    record_run(spec, &fresh, SEGMENT_BYTES).expect("record the fixture's spec");
    fresh
}

#[test]
fn fresh_recording_equals_parent_recorded_fixture_file_by_file() {
    for (name, events) in [
        ("recorded-by-pr13", 299),
        ("recorded-by-pr20", 337),
        ("recorded-by-pr37", 337),
        ("recorded-by-pr44", 337),
    ] {
        let fixture = fixture(name);
        let old = RunStore::open(&fixture).expect("open fixture");
        assert!(old.verify().clean(), "{name} verifies clean");
        let spec = old.spec().expect("embedded spec decodes");
        let fresh = record_fresh(&spec, name);
        let new = RunStore::open(&fresh).expect("open fresh recording");

        match diff_stores(&old, &new).expect("diff") {
            DiffOutcome::Identical { events: n } => assert_eq!(n, events, "{name}"),
            DiffOutcome::Diverged(d) => panic!("{name}: fresh recording diverged at {}", d.index),
        }
        // And this build regenerates the recorded stream past its anchor,
        // every event compared in the fixture's own format.
        let anchor_ns = old.manifest().anchors[0].at_ns;
        let replay = replay_run(&fixture, anchor_ns + 1).expect("replay fixture");
        assert!(replay.ok(), "{name}: {replay:?}");
        assert_eq!(replay.compared, replay.events_replayed, "{name}");
        assert!(replay.events_replayed > old.manifest().anchors[0].event_count);
        std::fs::remove_dir_all(&fresh).ok();
    }

    // Segments and manifest of the newest fixture: the same files with
    // the same bytes.
    let fixture = fixture("recorded-by-pr44");
    let spec = RunStore::open(&fixture)
        .and_then(|s| s.spec())
        .expect("fixture spec");
    let fresh = record_fresh(&spec, "file-by-file");
    let names = file_names(&fixture);
    assert_eq!(file_names(&fresh), names);
    for file in &names {
        assert_eq!(
            std::fs::read(fresh.join(file)).expect("read fresh file"),
            std::fs::read(fixture.join(file)).expect("read fixture file"),
            "recorded-by-pr44/{file} differs from the recorded bytes"
        );
    }
    std::fs::remove_dir_all(&fresh).ok();
}

/// Dropping the anchor files changed no other byte: the newest fixture
/// is `recorded-by-pr37` without its anchor file.
#[test]
fn pr44_fixture_is_pr37_without_its_anchor_file() {
    let (pr37, pr44) = (fixture("recorded-by-pr37"), fixture("recorded-by-pr44"));
    let mut names = file_names(&pr37);
    names.retain(|n| !n.starts_with("anchor-"));
    assert_eq!(file_names(&pr44), names);
    for file in &names {
        assert_eq!(
            std::fs::read(pr44.join(file)).expect("read pr44 file"),
            std::fs::read(pr37.join(file)).expect("read pr37 file"),
            "{file}"
        );
    }
}

/// One run in both formats: the same spec, the same events, and format 2
/// in fewer bytes.
#[test]
fn format_2_fixture_is_the_format_1_run_in_fewer_bytes() {
    let v1 = RunStore::open(&fixture("recorded-by-pr20")).expect("open the format-1 fixture");
    let v2 = RunStore::open(&fixture("recorded-by-pr37")).expect("open the format-2 fixture");
    let (m1, m2) = (v1.manifest(), v2.manifest());
    assert_eq!(m1.spec, m2.spec);
    assert_eq!(m1.total_events, m2.total_events);
    let bytes = |m: &fleetio_store::Manifest| m.segments.iter().map(|s| s.bytes).sum::<u64>();
    assert!(
        2 * bytes(m2) < bytes(m1) + bytes(m1) / 5,
        "format 2 holds the run in {} bytes, format 1 in {}",
        bytes(m2),
        bytes(m1)
    );
    let mut cursor = v2.payload_cursor();
    while let Some((format, _)) = cursor.next_payload().expect("intact fixture") {
        assert_eq!(format, WireFormat::V2);
    }
    assert!(matches!(
        diff_stores(&v1, &v2).expect("diff"),
        DiffOutcome::Identical { events: 337 }
    ));
}

/// The PR 20 fixture is only worth having for its time-sliced transfers.
#[test]
fn pr20_fixture_holds_bus_grants() {
    use fleetio_obs::{NandKind, ObsEvent};

    let store = RunStore::open(&fixture("recorded-by-pr20")).expect("open fixture");
    let mut cursor = store.payload_cursor();
    let mut grants = 0;
    while let Some((format, payload)) = cursor.next_payload().expect("intact fixture") {
        let ev = format.decode(payload).expect("fixture event decodes");
        let is_grant = matches!(
            ev,
            ObsEvent::NandOp {
                kind: NandKind::BusGrant,
                ..
            }
        );
        grants += u32::from(is_grant);
    }
    assert_eq!(grants, 75);
}
