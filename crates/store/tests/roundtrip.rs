//! End-to-end determinism acceptance tests for the run store:
//!
//! * same-seed record twice → `diff` byte-identical (and the on-disk
//!   manifests agree on totals and fingerprints);
//! * perturbed seed → `diff` reports the first divergent event;
//! * indexed `query` returns exactly what a full linear scan returns,
//!   while reading strictly fewer segments;
//! * `replay` regenerates the stored stream exactly, byte-comparing
//!   every event from stream index 0, and names the index of a record
//!   forged before the first anchor, or where the shorter stream ends
//!   when the run and its spec differ in length;
//! * the streaming diff's edges: differently segmented stores, a
//!   one-event-shorter stream, and damage in the last segment (an error
//!   from `diff` and `replay`, never a partial answer).

use std::path::PathBuf;

use fleetio::RunSpec;
use fleetio_des::SimTime;
use fleetio_obs::wire::WireFormat;
use fleetio_obs::{ObsEvent, ObsSink};
use fleetio_store::diff::CONTEXT_EVENTS;
use fleetio_store::{
    diff_stores, query, record_run, replay_run, DiffOutcome, EventFilter, Manifest, RunStore,
    StoreSink, DEFAULT_SEGMENT_BYTES,
};

/// Small segments force a multi-segment store quickly.
const SEG_BYTES: usize = 32 * 1024;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-store-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn record(tag: &str, seed: u64, windows: u32, every: u32) -> PathBuf {
    let dir = tmp(tag);
    let spec = RunSpec::demo(seed, windows, every);
    let report = record_run(&spec, &dir, SEG_BYTES).expect("record");
    assert!(report.manifest.sealed);
    assert!(report.manifest.total_events > 0);
    dir
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = record("same-a", 11, 2, 1);
    let b = record("same-b", 11, 2, 1);
    let sa = RunStore::open(&a).expect("open a");
    let sb = RunStore::open(&b).expect("open b");
    assert_eq!(
        sa.manifest().stream_fingerprint,
        sb.manifest().stream_fingerprint
    );
    assert_eq!(sa.manifest().total_events, sb.manifest().total_events);
    match diff_stores(&sa, &sb).expect("diff") {
        DiffOutcome::Identical { events } => {
            assert_eq!(events, sa.manifest().total_events);
        }
        DiffOutcome::Diverged(d) => panic!("same-seed runs diverged at {}", d.index),
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn perturbed_seed_reports_first_divergence() {
    let a = record("perturb-a", 11, 2, 0);
    let b = record("perturb-b", 12, 2, 0);
    let sa = RunStore::open(&a).expect("open a");
    let sb = RunStore::open(&b).expect("open b");
    match diff_stores(&sa, &sb).expect("diff") {
        DiffOutcome::Identical { .. } => panic!("different seeds produced identical streams"),
        DiffOutcome::Diverged(d) => {
            assert!(d.index < sa.manifest().total_events.max(sb.manifest().total_events));
            // The first divergent event is decoded and rendered on at
            // least one side.
            assert!(d.a_event.is_some() || d.b_event.is_some());
            assert_eq!(d.a_total, sa.manifest().total_events);
            assert_eq!(d.b_total, sb.manifest().total_events);
        }
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn query_matches_linear_scan_and_skips_segments() {
    let dir = record("query", 21, 2, 0);
    let store = RunStore::open(&dir).expect("open");
    assert!(
        store.manifest().segments.len() >= 4,
        "need a multi-segment store to prove skipping"
    );
    let linear = store.events().expect("linear scan");

    let mid_ns = store.manifest().segments[store.manifest().segments.len() / 2].min_at_ns;
    let filters = [
        EventFilter::default(),
        EventFilter {
            tenant: Some(2),
            ..Default::default()
        },
        EventFilter {
            kind: ObsEvent::kind_index_of_tag("request_complete"),
            ..Default::default()
        },
        EventFilter {
            from_ns: Some(mid_ns),
            to_ns: Some(mid_ns + 10_000_000),
            ..Default::default()
        },
        EventFilter {
            tenant: Some(1),
            kind: ObsEvent::kind_index_of_tag("window_flush"),
            from_ns: Some(mid_ns),
            ..Default::default()
        },
    ];
    let mut some_filter_skipped = false;
    for filter in &filters {
        let result = query(&store, filter).expect("query");
        let expect: Vec<&ObsEvent> = linear.iter().filter(|e| filter.matches(e)).collect();
        assert_eq!(
            result.events.len(),
            expect.len(),
            "query != linear scan for {filter:?}"
        );
        for (got, want) in result.events.iter().zip(&expect) {
            assert_eq!(got, *want, "query event mismatch for {filter:?}");
        }
        assert_eq!(result.segments_total, store.manifest().segments.len());
        if result.segments_scanned < result.segments_total {
            some_filter_skipped = true;
        }
    }
    assert!(
        some_filter_skipped,
        "no filter skipped any segment — index is useless"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_compares_every_event_with_the_stored_stream() {
    let dir = record("replay", 31, 4, 2);
    let store = RunStore::open(&dir).expect("open");
    let total = store.manifest().total_events;
    let anchor = store.manifest().anchors.last().expect("an anchor").clone();
    assert!(anchor.window > 0);

    // At the start, just past the last anchor and past the end: every
    // regenerated event is byte-compared, the prefix included.
    let mut replayed = Vec::new();
    for target in [0, anchor.at_ns + 1, u64::MAX] {
        let report = replay_run(&dir, target).expect("replay");
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.compared, report.events_replayed, "{report:?}");
        replayed.push(report.events_replayed);
    }
    assert!(replayed[0] > 0);
    assert!(replayed[1] > anchor.event_count.max(replayed[0]));
    assert_eq!(replayed[2], total);
    std::fs::remove_dir_all(&dir).ok();
}

/// A record before the first anchor, changed and re-framed with a valid
/// CRC, so that only the byte comparison can find it: replay names its
/// stream index.
#[test]
fn replay_names_a_forged_record_before_the_first_anchor() {
    let dir = record("forged", 31, 4, 2);
    let store = RunStore::open(&dir).expect("open");
    let manifest = store.manifest().clone();
    let anchor = manifest.anchors[0].clone();
    let mut events = Vec::new();
    let mut cursor = store.payload_cursor();
    while let Some((format, payload)) = cursor.next_payload().expect("intact store") {
        assert_eq!(format, WireFormat::CURRENT);
        events.push(format.decode(payload).expect("a stored event decodes"));
    }
    // The last completion before the anchor, deep inside the prefix.
    let forged = (0..anchor.event_count as usize)
        .rev()
        .find(|&i| matches!(events[i], ObsEvent::RequestComplete { .. }))
        .expect("a completion before the first anchor");
    assert!(forged > 0);
    if let ObsEvent::RequestComplete { read, .. } = &mut events[forged] {
        *read = !*read;
    }
    let seg = manifest
        .segments
        .iter()
        .find(|s| s.first_event + s.events > forged as u64)
        .expect("the segment holding it");
    let mut bytes = Vec::new();
    WireFormat::CURRENT.push_segment_header(&mut bytes, seg.seq);
    let first = seg.first_event as usize;
    for ev in &events[first..first + seg.events as usize] {
        WireFormat::CURRENT.push_event_record(&mut bytes, ev);
    }
    std::fs::write(manifest.segment_path(&dir, seg.seq), bytes).expect("write the forged segment");

    let report = replay_run(&dir, anchor.at_ns + 1).expect("a forged store reads clean");
    assert_eq!(report.mismatch, Some(forged as u64), "{report:?}");
    assert!(!report.ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// A store whose embedded spec runs one window more, or one fewer, than
/// the run it holds: replaying the whole spec names the index where the
/// shorter of the two streams ends.
#[test]
fn replay_names_where_the_shorter_stream_ends() {
    for (tag, recorded, claimed) in [("spec-longer", 2, 3), ("spec-shorter", 3, 2)] {
        let dir = record(tag, 31, recorded, 0);
        let spec = RunSpec::demo(31, claimed, 0);
        let mut manifest = Manifest::load(&dir).expect("manifest");
        manifest.spec = spec.encode();
        manifest.spec_fingerprint = spec.fingerprint();
        manifest.save(&dir).expect("rewrite the manifest");
        let report = replay_run(&dir, u64::MAX).expect("replay the whole spec");
        assert_eq!(report.windows_replayed, claimed, "{tag}");
        let shorter = report.events_replayed.min(manifest.total_events);
        assert!(shorter < report.events_replayed.max(manifest.total_events));
        assert_eq!(report.mismatch, Some(shorter), "{tag}: {report:?}");
        assert_eq!(report.compared, shorter, "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn differently_segmented_recordings_diff_identical() {
    let spec = RunSpec::demo(11, 2, 1);
    let small = tmp("seg-small");
    let large = tmp("seg-large");
    let a = record_run(&spec, &small, 4 * 1024).expect("record at 4 KiB");
    let b = record_run(&spec, &large, DEFAULT_SEGMENT_BYTES).expect("record at 256 KiB");
    assert!(
        a.manifest.segments.len() > 8 * b.manifest.segments.len(),
        "the two stores must be segmented very differently"
    );
    let sa = RunStore::open(&small).expect("open small");
    let sb = RunStore::open(&large).expect("open large");
    for (x, y) in [(&sa, &sb), (&sb, &sa)] {
        match diff_stores(x, y).expect("diff") {
            DiffOutcome::Identical { events } => assert_eq!(events, a.manifest.total_events),
            DiffOutcome::Diverged(d) => panic!("segmenting changed the stream at {}", d.index),
        }
    }
    std::fs::remove_dir_all(&small).ok();
    std::fs::remove_dir_all(&large).ok();
}

fn throttle(i: u64) -> ObsEvent {
    ObsEvent::Throttle {
        at: SimTime::from_nanos(i * 100),
        channel: (i % 8) as u16,
        until: SimTime::from_nanos(i * 100 + 40),
    }
}

/// A synthetic sealed store of `throttle(0..events)`.
fn throttle_store(tag: &str, events: u64, segment_bytes: usize) -> RunStore {
    let dir = tmp(tag);
    let mut sink = StoreSink::create(&dir, vec![1], 0x51, 5, 1_000, segment_bytes).expect("create");
    for i in 0..events {
        sink.record(throttle(i));
    }
    let manifest = sink.finish().expect("finish");
    assert!(manifest.segments.len() >= 3);
    RunStore::open(&dir).expect("open")
}

#[test]
fn one_event_shorter_store_diverges_at_its_end_with_context() {
    const EVENTS: u64 = 200;
    // Different segment sizes: the last shared events straddle a segment
    // boundary on at least one side.
    let full = throttle_store("short-full", EVENTS, 256);
    let short = throttle_store("short-short", EVENTS - 1, 300);
    let shared = EVENTS - 1;
    let context: Vec<String> = (shared - CONTEXT_EVENTS as u64..shared)
        .map(|i| format!("{:?}", throttle(i)))
        .collect();
    for (a, b, a_total, b_total) in [
        (&full, &short, EVENTS, shared),
        (&short, &full, shared, EVENTS),
    ] {
        let DiffOutcome::Diverged(d) = diff_stores(a, b).expect("diff") else {
            panic!("a shorter stream must diverge");
        };
        assert_eq!(d.index, shared);
        assert_eq!((d.a_total, d.b_total), (a_total, b_total));
        let last = Some(format!("{:?}", throttle(shared)));
        let (longer, shorter) = if a_total > b_total {
            (&d.a_event, &d.b_event)
        } else {
            (&d.b_event, &d.a_event)
        };
        assert_eq!(longer, &last);
        assert_eq!(shorter, &None);
        assert_eq!(d.context, context, "last five shared events, oldest first");
    }
    std::fs::remove_dir_all(full.dir()).ok();
    std::fs::remove_dir_all(short.dir()).ok();
}

#[test]
fn damage_in_the_last_segment_fails_diff_and_replay() {
    let a = record("tail-a", 31, 2, 1);
    let same = record("tail-same", 31, 2, 1);
    let other = record("tail-other", 32, 2, 1);
    let sa = RunStore::open(&a).expect("open a");
    let last = sa.manifest().segments.last().expect("segments");
    let victim = sa.manifest().segment_path(&a, last.seq);
    let mut bytes = std::fs::read(&victim).expect("read last segment");
    let at = bytes.len() - 3;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, bytes).expect("write damaged segment");

    // The cursor refuses to step past the damaged segment.
    let mut cursor = sa.payload_cursor();
    assert!(cursor.drain().is_err());
    assert!(cursor.next_payload().is_err());

    // Equal up to the damage, and diverging long before it: both sides
    // of the streaming diff must still read every segment strictly.
    for b in [&same, &other] {
        let sb = RunStore::open(b).expect("open b");
        for (x, y) in [(&sa, &sb), (&sb, &sa)] {
            let err = diff_stores(x, y).expect_err("damaged input must fail the diff");
            assert!(err.to_string().contains("CRC"), "{err}");
        }
    }
    // Replay to a target the first window covers never reaches the last
    // segment while comparing; the damage is an error all the same.
    let err = replay_run(&a, 0).expect_err("damaged store must fail replay");
    assert!(err.to_string().contains("CRC"), "{err}");
    let err = replay_run(&a, u64::MAX).expect_err("damaged store must fail replay");
    assert!(err.to_string().contains("CRC"), "{err}");
    for dir in [&a, &same, &other] {
        std::fs::remove_dir_all(dir).ok();
    }
}
