//! Corruption robustness: a damaged store must never panic, must
//! isolate the damage to the touched segment, and must report the
//! sim-time ranges that remain recoverable. (`fleetio store verify`
//! exiting 1 on damage is checked in the root `tests/cli.rs`.)
//!
//! The property test drives a deterministic LCG over two mutation
//! families — truncation at an arbitrary byte and single-bit flips at
//! an arbitrary offset — applied to an arbitrary segment file.

use std::path::{Path, PathBuf};

use fleetio::RunSpec;
use fleetio_des::{SimDuration, SimTime};
use fleetio_obs::{ObsEvent, ObsSink};
use fleetio_store::{
    replay_run, segment_file_name, RunStore, StoreError, StoreSink, MANIFEST_FILE,
};

/// Deterministic pseudo-random stream (no external crates, no host
/// entropy — failures reproduce exactly).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Builds a small synthetic store (no simulation needed: corruption
/// handling is purely a format property) with several segments.
fn build_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-store-cor-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut sink = StoreSink::create(&dir, vec![7, 7, 7], 0x51, 99, 1_000, 2_048).expect("create");
    for i in 0..600u64 {
        sink.record(ObsEvent::Throttle {
            at: SimTime::from_nanos(i * 100),
            channel: (i % 8) as u16,
            until: SimTime::from_nanos(i * 100 + 40),
        });
    }
    let manifest = sink.finish().expect("finish");
    assert!(
        manifest.segments.len() >= 3,
        "need several segments to show isolation"
    );
    dir
}

fn seg_paths(dir: &Path) -> Vec<PathBuf> {
    let store = RunStore::open(dir).expect("open clean store");
    store
        .manifest()
        .segments
        .iter()
        .map(|s| dir.join(segment_file_name(s.seq)))
        .collect()
}

#[test]
fn damaged_segments_are_isolated_never_panic() {
    let dir = build_store("prop");
    let segs = seg_paths(&dir);
    let originals: Vec<Vec<u8>> = segs
        .iter()
        .map(|p| std::fs::read(p).expect("read segment"))
        .collect();
    let clean = RunStore::open(&dir).expect("open").verify();
    assert!(clean.clean(), "freshly written store must verify clean");
    let total_range = (
        clean.recoverable_ns.first().expect("range").0,
        clean.recoverable_ns.last().expect("range").1,
    );

    let mut rng = Lcg(0xF1EE7);
    for round in 0..120 {
        let victim = rng.below(segs.len() as u64) as usize;
        let bytes = &originals[victim];
        let corrupted: Vec<u8> = if rng.below(2) == 0 {
            // Truncate to an arbitrary prefix (possibly empty).
            let cut = rng.below(bytes.len() as u64) as usize;
            bytes[..cut].to_vec()
        } else {
            // Flip one bit anywhere in the file.
            let mut b = bytes.clone();
            let at = rng.below(b.len() as u64) as usize;
            b[at] ^= 1 << rng.below(8);
            b
        };
        std::fs::write(&segs[victim], &corrupted).expect("write corruption");

        let store = RunStore::open(&dir).expect("manifest untouched");
        let report = store.verify();
        assert!(
            !report.clean(),
            "round {round}: corruption of segment {victim} went undetected"
        );
        // Damage is isolated: only the touched segment fails.
        for (i, sv) in report.segments.iter().enumerate() {
            if i != victim {
                assert!(sv.ok(), "round {round}: intact segment {i} misreported");
            }
        }
        assert!(
            !report.segments[victim].ok(),
            "round {round}: victim segment reported intact"
        );
        // With ≥3 segments and one victim, something stays recoverable,
        // and reported ranges never exceed the clean run's span.
        assert!(!report.recoverable_ns.is_empty());
        for &(lo, hi) in &report.recoverable_ns {
            assert!(lo <= hi);
            assert!(lo >= total_range.0 && hi <= total_range.1);
        }
        // Strict readers refuse the damaged store; intact segments
        // still decode individually.
        assert!(store.events().is_err());
        for (i, meta) in store.manifest().segments.iter().enumerate() {
            if i != victim {
                let events = store.segment_events(meta).expect("intact segment decodes");
                assert_eq!(events.len() as u64, meta.events);
            }
        }

        std::fs::write(&segs[victim], bytes).expect("restore segment");
    }
    let healed = RunStore::open(&dir).expect("open").verify();
    assert!(healed.clean(), "restoration must verify clean again");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifest_is_a_graceful_error() {
    let dir = build_store("manifest");
    let path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&path).expect("read manifest");
    let mut rng = Lcg(0xBADC0DE);
    for _ in 0..40 {
        let corrupted: Vec<u8> = if rng.below(2) == 0 {
            bytes[..rng.below(bytes.len() as u64) as usize].to_vec()
        } else {
            let mut b = bytes.clone();
            let at = rng.below(b.len() as u64) as usize;
            b[at] ^= 1 << rng.below(8);
            b
        };
        std::fs::write(&path, &corrupted).expect("write corruption");
        match RunStore::open(&dir) {
            // Corruption rejected with an error: the common case.
            Err(_) => {}
            // A kind-byte flip can re-tag the container to another
            // valid payload kind; the typed manifest reader still
            // refuses it, so reaching Ok requires the payload intact.
            Ok(store) => assert_eq!(store.manifest().seed, 99),
        }
    }
    std::fs::write(&path, &bytes).expect("restore manifest");
    assert!(RunStore::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory without a manifest is not a store: opening it is an I/O
/// error naming the file, never a corrupt store.
#[test]
fn a_missing_manifest_is_an_io_error() {
    let dir = std::env::temp_dir().join(format!("fleetio-store-none-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    match RunStore::open(&dir) {
        Err(StoreError::Io(msg)) => {
            assert!(
                msg.contains(&dir.join(MANIFEST_FILE).display().to_string()),
                "{msg}"
            )
        }
        other => panic!("expected an i/o error, got {other:?}"),
    }
    assert!(!dir.exists(), "opening creates nothing");
}

/// A manifest that reads but fails its container check stays corrupt.
#[test]
fn an_unreadable_container_is_corrupt() {
    let dir = build_store("truncated-manifest");
    let path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&path).expect("read manifest");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate manifest");
    match RunStore::open(&dir) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains(&path.display().to_string()), "{msg}")
        }
        other => panic!("expected a corrupt store, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sealed store whose spec blob is intact (its CRC-32 is the manifest's
/// fingerprint) but not a `RunSpec` — a fleet shard store holds its
/// `FleetSpec` — cannot be replayed, and says so; one whose blob disagrees
/// with the fingerprint is corrupt.
#[test]
fn a_foreign_spec_is_unusable_and_a_wrong_fingerprint_corrupt() {
    let blob = vec![7, 7, 7];
    let intact = fleetio_des::hash::crc32(&blob);
    for (tag, fingerprint) in [("foreign-spec", intact), ("wrong-fingerprint", intact ^ 1)] {
        let dir = std::env::temp_dir().join(format!("fleetio-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink =
            StoreSink::create(&dir, blob.clone(), fingerprint, 99, 1_000, 2_048).expect("create");
        sink.record(ObsEvent::Throttle {
            at: SimTime::from_nanos(5),
            channel: 0,
            until: SimTime::from_nanos(9),
        });
        sink.finish().expect("finish");
        let store = RunStore::open(&dir).expect("a sealed store opens");
        assert!(store.verify().clean(), "{tag}: the segments are undamaged");
        for err in [
            store.spec().map(|_| ()),
            replay_run(&dir, 1_000).map(|_| ()),
        ] {
            match (tag, err) {
                ("foreign-spec", Err(StoreError::Unusable(msg))) => {
                    assert!(msg.contains("not a run spec"), "{msg}");
                    assert!(msg.contains("fleetio store record"), "{msg}");
                }
                ("wrong-fingerprint", Err(StoreError::Corrupt(msg))) => {
                    assert!(msg.contains("fingerprint mismatch"), "{msg}");
                }
                (_, other) => panic!("{tag}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A sealed one-event store whose manifest holds `spec` under its true
/// fingerprint.
fn store_with_spec(tag: &str, spec: &RunSpec) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleetio-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let blob = spec.encode();
    let fingerprint = fleetio_des::hash::crc32(&blob);
    let mut sink = StoreSink::create(&dir, blob, fingerprint, 99, 1_000, 2_048).expect("create");
    sink.record(ObsEvent::Throttle {
        at: SimTime::from_nanos(5),
        channel: 0,
        until: SimTime::from_nanos(9),
    });
    sink.finish().expect("finish");
    dir
}

/// Stores the demo spec as `break_spec` leaves it: intact (its
/// fingerprint matches) and decodable field by field, but not buildable.
/// Opening its spec and replaying it must both be unusable, with `why`
/// in the message, never a panic inside the build.
fn assert_unusable(tag: &str, break_spec: impl FnOnce(&mut RunSpec), why: &str) {
    let mut spec = RunSpec::demo(3, 2, 0);
    break_spec(&mut spec);
    let dir = store_with_spec(tag, &spec);
    let store = RunStore::open(&dir).expect("a sealed store opens");
    assert!(store.verify().clean(), "{tag}: the segments are undamaged");
    for err in [
        store.spec().map(|_| ()),
        replay_run(&dir, 1_000).map(|_| ()),
    ] {
        match err {
            Err(StoreError::Unusable(msg)) => assert!(msg.contains(why), "{tag}: {msg}"),
            other => panic!("{tag}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_window_spec_is_unusable() {
    assert_unusable(
        "zero-window",
        |s| s.window = SimDuration::ZERO,
        "window must be positive",
    );
}

#[test]
fn a_tenant_without_tickets_is_unusable() {
    assert_unusable(
        "zero-tickets",
        |s| s.tenants[1].config.tickets = 0,
        "no stride tickets",
    );
}

#[test]
fn a_tenant_without_channels_is_unusable() {
    assert_unusable(
        "no-channels",
        |s| s.tenants[2].config.channels.clear(),
        "has no channels",
    );
}

#[test]
fn a_channel_beyond_the_preset_is_unusable() {
    // The demo's training-test preset has channels 0..4.
    assert_unusable(
        "channel-off-device",
        |s| s.tenants[3].config.channels[0].0 = 4,
        "outside the device",
    );
}

#[test]
fn a_duplicate_vssd_id_is_unusable() {
    assert_unusable(
        "duplicate-id",
        |s| s.tenants[1].config.id = s.tenants[0].config.id,
        "duplicate vssd id",
    );
}
