//! Seeded fuzzing of the store read path on real segments.
//!
//! A short real recording (segment format 2) and a copy of the committed
//! format-1 fixture are damaged one segment at a time — bit flips,
//! truncations, record frames whose length field lies (with and without
//! a CRC recomputed to match the lie; in format 2 also a non-canonical or
//! over-wide LEB128 length), a rewritten header and a missing file — and
//! every reader is run on the result: `wire::scan_segment` and the
//! format's decoder directly, then `RunStore::verify`, `query` and the
//! `PayloadCursor` (pulled to the end and drained), all of which read
//! ahead on a helper thread. Oracles:
//!
//! * nothing panics;
//! * every verdict — per-segment damage and counts, the fingerprint
//!   check, recoverable ranges, query results, the first error and the
//!   cursor's failing again on a retry — equals a plain sequential pass
//!   written out here;
//! * an untouched segment decodes and re-encodes to its exact bytes.
//!
//! The seed is fixed and the iteration count bounded, so a failure
//! reproduces exactly and the test stays in tier 1.

use std::path::{Path, PathBuf};

use fleetio::RunSpec;
use fleetio_des::hash::{crc32, Fnv64};
use fleetio_des::SimDuration;
use fleetio_obs::wire::{self, WireFormat, MAX_RECORD_LEN};
use fleetio_obs::ObsEvent;
use fleetio_store::{
    query, record_run, EventFilter, RunStore, SegmentMeta, StoreError, VerifyReport,
};

/// Iterations on the format-2 recording: each damages one segment and
/// runs every reader.
const ROUNDS: u64 = 160;

/// Iterations on the four-segment format-1 fixture.
const V1_ROUNDS: u64 = 40;

/// Small segments: a few dozen records each, a couple of dozen files.
const SEG_BYTES: usize = 4 * 1024;

/// Deterministic pseudo-random stream (no host entropy).
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

/// Two 20 ms windows of the demo spec, recorded for real.
fn recording(dir: &Path) -> RunStore {
    let mut spec = RunSpec::demo(3, 2, 1);
    spec.window = SimDuration::from_millis(20);
    let report = record_run(&spec, dir, SEG_BYTES).expect("record the fuzz corpus");
    assert!(report.manifest.segments.len() >= 8, "corpus shrank");
    RunStore::open(dir).expect("open the corpus")
}

fn segment_path(store: &RunStore, meta: &SegmentMeta) -> PathBuf {
    store.dir().join(meta.file_name())
}

/// One segment file read on the calling thread, as a reader reports it.
fn read(store: &RunStore, meta: &SegmentMeta) -> Result<Vec<u8>, StoreError> {
    let path = segment_path(store, meta);
    std::fs::read(&path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))
}

fn encodings(events: &[ObsEvent]) -> Vec<Vec<u8>> {
    events
        .iter()
        .map(|ev| {
            let mut out = Vec::new();
            wire::encode_event(ev, &mut out);
            out
        })
        .collect()
}

/// `RunStore::verify`, as a sequential pass.
fn verify_sequentially(store: &RunStore) -> VerifyReport {
    let manifest = store.manifest();
    let mut fp = Fnv64::new();
    let mut all_intact = true;
    let mut segments = Vec::new();
    for meta in &manifest.segments {
        let (events_read, damage) = match read(store, meta) {
            Ok(bytes) => {
                let scan = wire::scan_segment(&bytes);
                let mut damage = scan.damage.map(|d| d.to_string());
                if damage.is_none() && scan.seq != Some(meta.seq) {
                    damage = Some(format!(
                        "header sequence {:?} != manifest {}",
                        scan.seq, meta.seq
                    ));
                }
                if damage.is_none() {
                    for r in &scan.records {
                        fp.update(&bytes[r.clone()]);
                    }
                }
                (scan.records.len() as u64, damage)
            }
            Err(e) => (0, Some(e.to_string())),
        };
        let ok = damage.is_none() && events_read == meta.events;
        all_intact &= ok;
        segments.push(fleetio_store::SegmentVerify {
            seq: meta.seq,
            events_read,
            events_expected: meta.events,
            damage,
        });
    }
    let mut recoverable_ns = Vec::new();
    let mut open: Option<(u64, u64)> = None;
    for (sv, meta) in segments.iter().zip(&manifest.segments) {
        if sv.ok() && meta.events > 0 {
            let lo = open.map_or(meta.min_at_ns, |(lo, _)| lo);
            open = Some((lo, meta.max_at_ns));
        } else if let Some(range) = open.take() {
            recoverable_ns.push(range);
        }
    }
    recoverable_ns.extend(open);
    VerifyReport {
        segments,
        recoverable_ns,
        sealed: manifest.sealed,
        fingerprint_ok: all_intact.then(|| fp.finish() == manifest.stream_fingerprint),
    }
}

/// `query`, as a sequential pass: (matching events, segments read).
fn query_sequentially(
    store: &RunStore,
    filter: &EventFilter,
) -> Result<(Vec<ObsEvent>, usize), StoreError> {
    let mut events = Vec::new();
    let mut scanned = 0;
    for meta in &store.manifest().segments {
        if !filter.may_match_segment(meta) {
            continue;
        }
        scanned += 1;
        let bytes = read(store, meta)?;
        let (decoded, damage) = wire::events_in_segment(&bytes);
        if let Some(d) = damage {
            return Err(StoreError::Corrupt(format!("{}: {d}", meta.file_name())));
        }
        if decoded.len() as u64 != meta.events {
            return Err(StoreError::Corrupt(format!(
                "{}: {} events on disk, manifest says {}",
                meta.file_name(),
                decoded.len(),
                meta.events
            )));
        }
        events.extend(decoded.into_iter().filter(|ev| filter.matches(ev)));
    }
    Ok((events, scanned))
}

/// A payload and the format of its segment.
type Payload = (WireFormat, Vec<u8>);

/// The cursor's stream, as a sequential pass: every payload before the
/// first failing segment, and that failure.
fn payloads_sequentially(store: &RunStore) -> (Vec<Payload>, Option<StoreError>) {
    let mut out = Vec::new();
    for meta in &store.manifest().segments {
        let bytes = match read(store, meta) {
            Ok(bytes) => bytes,
            Err(e) => return (out, Some(e)),
        };
        let scan = wire::scan_segment(&bytes);
        if let Some(d) = scan.damage {
            let e = StoreError::Corrupt(format!("{}: {d}", meta.file_name()));
            return (out, Some(e));
        }
        if scan.records.len() as u64 != meta.events {
            let e = StoreError::Corrupt(format!(
                "{}: {} records on disk, manifest says {}",
                meta.file_name(),
                scan.records.len(),
                meta.events
            ));
            return (out, Some(e));
        }
        out.extend(
            scan.records
                .iter()
                .map(|r| (scan.format, bytes[r.clone()].to_vec())),
        );
    }
    (out, None)
}

/// The cursor pulled until it ends or fails; a failure must repeat.
fn payloads_through_cursor(store: &RunStore) -> (Vec<Payload>, Option<StoreError>) {
    let mut cursor = store.payload_cursor();
    let mut out = Vec::new();
    loop {
        match cursor.next_payload() {
            Ok(Some((format, payload))) => out.push((format, payload.to_vec())),
            Ok(None) => return (out, None),
            Err(e) => {
                let again = cursor.next_payload().err();
                assert_eq!(again.as_ref(), Some(&e), "a retry fails the same way");
                return (out, Some(e));
            }
        }
    }
}

fn assert_same_report(round: u64, got: &VerifyReport, want: &VerifyReport) {
    assert_eq!(got.segments.len(), want.segments.len(), "round {round}");
    for (g, w) in got.segments.iter().zip(&want.segments) {
        assert_eq!(
            (g.seq, g.events_read, g.events_expected, &g.damage),
            (w.seq, w.events_read, w.events_expected, &w.damage),
            "round {round}"
        );
    }
    assert_eq!(got.recoverable_ns, want.recoverable_ns, "round {round}");
    assert_eq!(got.sealed, want.sealed, "round {round}");
    assert_eq!(got.fingerprint_ok, want.fingerprint_ok, "round {round}");
}

/// The length field of a `len`-byte record in `format`, spelled canonically.
fn length_field(format: WireFormat, len: u32) -> Vec<u8> {
    match format {
        WireFormat::V1 => len.to_le_bytes().to_vec(),
        WireFormat::V2 => {
            let mut out = Vec::new();
            let mut v = len;
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
            out
        }
    }
}

/// One damaged copy of `bytes`, described for failure messages.
fn damage(rng: &mut Lcg, bytes: &[u8], seq: u32) -> (Option<Vec<u8>>, String) {
    let scan = wire::scan_segment(bytes);
    let (format, records) = (scan.format, scan.records);
    let mut b = bytes.to_vec();
    match rng.below(6) {
        0 => {
            let at = rng.below(b.len() as u64) as usize;
            let bit = rng.below(8);
            b[at] ^= 1 << bit;
            (Some(b), format!("bit {bit} of byte {at} flipped"))
        }
        1 => {
            let cut = rng.below(b.len() as u64) as usize;
            b.truncate(cut);
            (Some(b), format!("truncated to {cut} bytes"))
        }
        2 | 3 => {
            let r = &records[rng.below(records.len() as u64) as usize];
            let len = r.len() as u32;
            let crc_at = r.start - 4;
            let head = crc_at - length_field(format, len).len();
            let (lie, field) = match rng.below(8) {
                6 if format == WireFormat::V2 => {
                    // The true length with a redundant zero group.
                    let mut field = length_field(format, len);
                    *field.last_mut().expect("a length byte") |= 0x80;
                    field.push(0);
                    (len, field)
                }
                7 if format == WireFormat::V2 => {
                    (u32::MAX, vec![0xff, 0xff, 0xff, 0xff, 0xff, 0x01])
                }
                pick => {
                    let lie = match pick {
                        0 => 0,
                        1 => len - 1,
                        2 => len + 1 + rng.below(64) as u32,
                        3 => MAX_RECORD_LEN + 1,
                        4 => u32::MAX,
                        _ => (b.len() - r.start) as u32 + 1,
                    };
                    (lie, length_field(format, lie))
                }
            };
            let described = format!("{field:02x?}");
            b.splice(head..crc_at, field.iter().copied());
            let start = head + field.len() + 4;
            // Half the time the CRC is made to agree with the lie, so the
            // frame passes and the reader meets what follows it.
            let fix_crc = rng.below(2) == 0;
            let end = start.checked_add(lie as usize);
            if let Some(end) = end.filter(|&e| fix_crc && e <= b.len()) {
                let crc = crc32(&b[start..end]);
                b[start - 4..start].copy_from_slice(&crc.to_le_bytes());
            }
            (
                Some(b),
                format!(
                    "record at {head} claims {lie} bytes as {described}, not {len} \
                     (crc fixed: {fix_crc})"
                ),
            )
        }
        4 => {
            let other = seq ^ (1 + rng.below(7) as u32);
            b[8..12].copy_from_slice(&other.to_le_bytes());
            (Some(b), format!("header names segment {other}"))
        }
        _ => (None, "file missing".to_string()),
    }
}

/// Damages `store` one segment at a time for `rounds` rounds, checks
/// every reader against its sequential pass, and restores it.
fn fuzz(store: &RunStore, rounds: u64, seed: u64) {
    let metas = store.manifest().segments.clone();
    let originals: Vec<Vec<u8>> = metas
        .iter()
        .map(|meta| read(store, meta).expect("read a clean segment"))
        .collect();
    assert!(store.verify().clean(), "the corpus verifies clean");
    let span = metas.last().expect("segments").max_at_ns;

    let mut rng = Lcg(seed);
    for round in 0..rounds {
        let victim = rng.below(metas.len() as u64) as usize;
        let path = segment_path(store, &metas[victim]);
        let (damaged, what) = damage(&mut rng, &originals[victim], metas[victim].seq);
        let ctx = format!("round {round}: segment {victim} {what}");

        // The wire layer on the damaged bytes directly.
        match &damaged {
            Some(bytes) => {
                let scan = wire::scan_segment(bytes);
                for r in &scan.records {
                    assert!(r.end <= bytes.len(), "{ctx}");
                    let _ = scan.format.decode(&bytes[r.clone()]);
                }
                if let Some(d) = &scan.damage {
                    let last = scan.records.last().map_or(0, |r| r.end);
                    assert!(d.offset >= last.min(bytes.len()), "{ctx}");
                }
                for _ in 0..8 {
                    let from = rng.below(bytes.len() as u64 + 1) as usize;
                    let to = from + rng.below((bytes.len() - from) as u64 + 1) as usize;
                    for format in [WireFormat::V1, WireFormat::V2] {
                        let _ = format.decode(&bytes[from..to]);
                    }
                }
                std::fs::write(&path, bytes).expect("write the damage");
            }
            None => std::fs::remove_file(&path).expect("remove the segment"),
        }

        // Every store reader against its sequential pass.
        assert_same_report(round, &store.verify(), &verify_sequentially(store));
        let filter = match rng.below(3) {
            0 => EventFilter::default(),
            1 => EventFilter {
                tenant: Some(rng.below(4) as u32),
                ..EventFilter::default()
            },
            _ => EventFilter {
                from_ns: Some(rng.below(span)),
                to_ns: Some(span / 2 + rng.below(span)),
                ..EventFilter::default()
            },
        };
        let got = query(store, &filter).map(|r| (encodings(&r.events), r.segments_scanned));
        let want = query_sequentially(store, &filter).map(|(evs, n)| (encodings(&evs), n));
        assert_eq!(got, want, "{ctx}: query {filter:?}");
        let (payloads, failure) = payloads_through_cursor(store);
        let (want_payloads, want_failure) = payloads_sequentially(store);
        assert_eq!(failure, want_failure, "{ctx}");
        assert!(payloads == want_payloads, "{ctx}: cursor payloads differ");
        let drained = store.payload_cursor().drain();
        match want_failure {
            Some(e) => assert_eq!(drained, Err(e), "{ctx}"),
            None => assert_eq!(drained, Ok(want_payloads.len() as u64), "{ctx}"),
        }

        // An untouched segment decodes and re-encodes to its exact bytes.
        let kept = (victim + 1 + rng.below(metas.len() as u64 - 1) as usize) % metas.len();
        let meta = &metas[kept];
        let events = store
            .segment_events(meta)
            .expect("an untouched segment decodes");
        let format = wire::scan_segment(&originals[kept]).format;
        let mut rebuilt = Vec::new();
        format.push_segment_header(&mut rebuilt, meta.seq);
        for ev in &events {
            format.push_event_record(&mut rebuilt, ev);
        }
        assert!(
            rebuilt == originals[kept],
            "{ctx}: segment {kept} round trip"
        );

        std::fs::write(&path, &originals[victim]).expect("restore the segment");
    }
    assert!(store.verify().clean(), "the restored corpus verifies clean");
}

#[test]
fn damaged_real_segments_read_as_a_sequential_pass_reads_them() {
    let dir = std::env::temp_dir().join(format!("fleetio-store-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = recording(&dir);
    fuzz(&store, ROUNDS, 0x5eed_f1ee_7105);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_format_1_segments_read_as_a_sequential_pass_reads_them() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/recorded-by-pr20");
    let dir = std::env::temp_dir().join(format!("fleetio-store-fuzz-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the copy");
    for entry in std::fs::read_dir(&fixture).expect("list the fixture") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy the fixture");
    }
    let store = RunStore::open(&dir).expect("open the copy");
    fuzz(&store, V1_ROUNDS, 0x0f1e_e7f1);
    std::fs::remove_dir_all(&dir).ok();
}
