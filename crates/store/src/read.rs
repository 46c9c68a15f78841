//! Reading a run store: open, linear scan, damage-isolating verify.
//!
//! The reader trusts nothing: the manifest container is CRC-verified on
//! open, every segment record is CRC-verified on scan, and damage is
//! *isolated* — a truncated or bit-flipped segment yields its intact
//! prefix plus a damage report, and never hides the other segments or
//! panics. [`RunStore::verify`] cross-checks the scanned reality
//! against the manifest index (event counts, stream fingerprint) and
//! reports the sim-time ranges that remain recoverable.
//!
//! Every pass over many segments — `verify`, `query`, `events` and the
//! [`PayloadCursor`] under `diff` and `replay` — reads through a
//! `ReadAhead`: a helper thread reads and CRC-scans segment k+1 while
//! the caller fingerprints, compares or decodes segment k. The caller
//! still takes the segments one at a time in list order and makes every
//! check itself, so reports, skipping and the first error are those of a
//! sequential pass.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::mem;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::{self, JoinHandle};

use fleetio::RunSpec;
use fleetio_des::hash::Fnv64;
use fleetio_obs::wire::{self, SegmentDamage, SegmentScan, WireFormat};
use fleetio_obs::ObsEvent;

use crate::manifest::{Manifest, SegmentMeta};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Host I/O failed.
    Io(String),
    /// A manifest/spec/segment failed validation.
    Corrupt(String),
    /// The operation needs an undamaged (or sealed) store and this one
    /// is not.
    Unusable(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "corrupt store: {e}"),
            StoreError::Unusable(e) => write!(f, "unusable store: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An opened run store.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
    manifest: Manifest,
}

/// Scan outcome of one segment during [`RunStore::verify`].
#[derive(Debug, Clone)]
pub struct SegmentVerify {
    /// Segment sequence number (from the manifest).
    pub seq: u32,
    /// Events recovered from the file.
    pub events_read: u64,
    /// Events the manifest says the segment holds.
    pub events_expected: u64,
    /// Damage found in the file, if any.
    pub damage: Option<String>,
}

impl SegmentVerify {
    /// Whether the segment is fully intact.
    pub fn ok(&self) -> bool {
        self.damage.is_none() && self.events_read == self.events_expected
    }
}

/// Result of [`RunStore::verify`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-segment outcomes, in sequence order.
    pub segments: Vec<SegmentVerify>,
    /// Sim-time ranges `[min_ns, max_ns]` still fully readable, merged
    /// across runs of consecutive intact segments.
    pub recoverable_ns: Vec<(u64, u64)>,
    /// Whether the manifest says the run finished cleanly.
    pub sealed: bool,
    /// Whole-stream fingerprint check: `Some(true)` when every segment
    /// is intact and the recomputed FNV-1a matches the manifest,
    /// `Some(false)` on mismatch, `None` when damage made the check
    /// impossible.
    pub fingerprint_ok: Option<bool>,
}

impl VerifyReport {
    /// Whether the store is fully intact.
    pub fn clean(&self) -> bool {
        self.sealed && self.fingerprint_ok == Some(true) && self.segments.iter().all(|s| s.ok())
    }
}

impl RunStore {
    /// Opens the store at `dir`, verifying the manifest container.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for a missing or unreadable manifest,
    /// [`StoreError::Corrupt`] for one that fails its container check.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let manifest = Manifest::load(dir)?;
        Ok(RunStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Decodes the embedded run spec.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the spec blob's CRC-32 disagrees with
    /// the manifest's fingerprint; [`StoreError::Unusable`] when the blob
    /// is intact but not a [`RunSpec`] (a fleet shard store holds its
    /// `FleetSpec`), since only `fleetio store record` runs can be rebuilt.
    pub fn spec(&self) -> Result<RunSpec, StoreError> {
        let blob = &self.manifest.spec;
        let fingerprint = fleetio_des::hash::crc32(blob);
        if fingerprint != self.manifest.spec_fingerprint {
            return Err(StoreError::Corrupt(format!(
                "spec fingerprint mismatch: manifest {:#010x}, spec {fingerprint:#010x}",
                self.manifest.spec_fingerprint,
            )));
        }
        RunSpec::decode(blob).map_err(|e| {
            StoreError::Unusable(format!(
                "the store holds a spec that is not a run spec replay can build ({e}); fleet \
                 shard stores hold their FleetSpec, and replay rebuilds `fleetio store record` \
                 runs only"
            ))
        })
    }

    /// A read-ahead pass over the segments `metas`, in order.
    pub(crate) fn read_ahead<'m>(
        &self,
        metas: impl IntoIterator<Item = &'m SegmentMeta>,
    ) -> ReadAhead {
        ReadAhead::spawn(
            metas
                .into_iter()
                .map(|m| self.manifest.segment_path(&self.dir, m.seq))
                .collect(),
        )
    }

    /// Decodes one segment strictly: any damage is an error.
    pub fn segment_events(&self, meta: &SegmentMeta) -> Result<Vec<ObsEvent>, StoreError> {
        let mut buf = Vec::new();
        read_file(&self.manifest.segment_path(&self.dir, meta.seq), &mut buf)?;
        let mut events = Vec::with_capacity(meta.events as usize);
        decode_segment(meta, &buf, wire::scan_segment(&buf), |ev| events.push(ev))?;
        Ok(events)
    }

    /// A cursor over every encoded event payload of the whole run, in
    /// stream order — the byte-exact view `diff` and `replay` compare
    /// against, one segment in memory at a time.
    pub fn payload_cursor(&self) -> PayloadCursor {
        PayloadCursor {
            store: self.clone(),
            next_segment: 0,
            source: None,
            bytes: Vec::new(),
            format: WireFormat::CURRENT,
            records: Vec::new(),
            next_record: 0,
            yielded: 0,
        }
    }

    /// Every event of the whole run, decoded, in stream order. Strict.
    ///
    /// # Errors
    ///
    /// I/O failure, damage, undecodable records, or a segment
    /// disagreeing with its index entry.
    pub fn events(&self) -> Result<Vec<ObsEvent>, StoreError> {
        let mut out = Vec::with_capacity(self.manifest.total_events as usize);
        self.decode_each(&self.manifest.segments, |ev| out.push(ev))?;
        Ok(out)
    }

    /// Hands every event of the segments `metas` to `visit`, in stream
    /// order, as it decodes, while the next segment is read ahead.
    ///
    /// # Errors
    ///
    /// As [`RunStore::events`], for the segments in `metas`; the events
    /// before the failing record or segment have been visited by then.
    pub(crate) fn decode_each<'m>(
        &self,
        metas: impl IntoIterator<Item = &'m SegmentMeta> + Clone,
        mut visit: impl FnMut(ObsEvent),
    ) -> Result<(), StoreError> {
        let mut source = self.read_ahead(metas.clone());
        let mut bytes = Vec::new();
        for meta in metas {
            let scan = source.next(&mut bytes)?;
            decode_segment(meta, &bytes, scan, &mut visit)?;
        }
        Ok(())
    }

    /// Scans every segment tolerantly, cross-checking the manifest:
    /// never fails on damage, reports it instead.
    pub fn verify(&self) -> VerifyReport {
        let mut segments = Vec::with_capacity(self.manifest.segments.len());
        let mut fp = Fnv64::new();
        let mut all_intact = true;
        let mut source = self.read_ahead(&self.manifest.segments);
        let mut bytes = Vec::new();
        for meta in &self.manifest.segments {
            let (events_read, damage) = match source.next(&mut bytes) {
                Ok(scan) => {
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
            let sv = SegmentVerify {
                seq: meta.seq,
                events_read,
                events_expected: meta.events,
                damage,
            };
            all_intact &= sv.ok();
            segments.push(sv);
        }
        let fingerprint_ok = if all_intact {
            Some(fp.finish() == self.manifest.stream_fingerprint)
        } else {
            None
        };
        // Merge consecutive intact segments into recoverable ranges.
        let mut recoverable_ns = Vec::new();
        let mut open: Option<(u64, u64)> = None;
        for (sv, meta) in segments.iter().zip(&self.manifest.segments) {
            if sv.ok() && meta.events > 0 {
                open = Some(match open {
                    Some((lo, _)) => (lo, meta.max_at_ns),
                    None => (meta.min_at_ns, meta.max_at_ns),
                });
            } else if let Some(range) = open.take() {
                recoverable_ns.push(range);
            }
        }
        if let Some(range) = open {
            recoverable_ns.push(range);
        }
        VerifyReport {
            segments,
            recoverable_ns,
            sealed: self.manifest.sealed,
            fingerprint_ok,
        }
    }
}

/// An owning, strict, segment-at-a-time cursor over a store's encoded
/// event payloads (see [`RunStore::payload_cursor`]). It holds one
/// segment's bytes and record ranges while a read-ahead helper reads and
/// scans the next. Strict: frame or CRC damage anywhere, or a segment
/// whose record count disagrees with its index entry, is an error — and a
/// caller that stops early must [`drain`](PayloadCursor::drain) before
/// trusting what it saw, so damage past its stopping point still counts.
#[derive(Debug)]
pub struct PayloadCursor {
    store: RunStore,
    /// Index into the manifest's segment list of the next file to load.
    next_segment: usize,
    /// Reads on from `next_segment`. Started at the first load, and
    /// dropped at a failure, so that a retry reads the failing segment
    /// again.
    source: Option<ReadAhead>,
    /// The loaded segment's bytes.
    bytes: Vec<u8>,
    /// The loaded segment's format.
    format: WireFormat,
    /// Payload ranges into `bytes`, in file order.
    records: Vec<Range<usize>>,
    next_record: usize,
    yielded: u64,
}

impl PayloadCursor {
    /// Loads the next segment; `false` once the manifest is exhausted.
    fn load_next_segment(&mut self) -> Result<bool, StoreError> {
        let segments = &self.store.manifest.segments;
        let Some(meta) = segments.get(self.next_segment) else {
            return Ok(false);
        };
        let source = self
            .source
            .get_or_insert_with(|| self.store.read_ahead(&segments[self.next_segment..]));
        let scan = source.next(&mut self.bytes).and_then(|scan| {
            if let Some(d) = scan.damage {
                return Err(StoreError::Corrupt(format!("{}: {d}", meta.file_name())));
            }
            if scan.records.len() as u64 != meta.events {
                return Err(StoreError::Corrupt(format!(
                    "{}: {} records on disk, manifest says {}",
                    meta.file_name(),
                    scan.records.len(),
                    meta.events
                )));
            }
            Ok(scan)
        });
        match scan {
            Ok(scan) => {
                self.format = scan.format;
                self.records = scan.records;
                self.next_record = 0;
                self.next_segment += 1;
                Ok(true)
            }
            Err(e) => {
                self.source = None;
                Err(e)
            }
        }
    }

    /// The next payload in stream order with the format of the segment
    /// holding it, `None` at the end of the run. The slice is valid until
    /// the next call.
    ///
    /// # Errors
    ///
    /// I/O failure, damage, or a segment disagreeing with its index
    /// entry. The cursor does not move past a failing segment: every
    /// later call re-reads it and fails again.
    pub fn next_payload(&mut self) -> Result<Option<(WireFormat, &[u8])>, StoreError> {
        while self.next_record == self.records.len() {
            if !self.load_next_segment()? {
                return Ok(None);
            }
        }
        let range = self.records[self.next_record].clone();
        self.next_record += 1;
        self.yielded += 1;
        Ok(Some((self.format, &self.bytes[range])))
    }

    /// Checks every remaining segment and returns the run's total
    /// record count (yielded plus drained).
    ///
    /// # Errors
    ///
    /// As [`PayloadCursor::next_payload`].
    pub fn drain(&mut self) -> Result<u64, StoreError> {
        loop {
            self.yielded += (self.records.len() - self.next_record) as u64;
            self.next_record = self.records.len();
            if !self.load_next_segment()? {
                return Ok(self.yielded);
            }
        }
    }
}

/// Reads the file at `path` into `buf`, replacing its contents and
/// keeping its capacity, so a pass over the store reuses its buffers
/// instead of allocating a segment-sized `Vec` per file.
fn read_file(path: &Path, buf: &mut Vec<u8>) -> Result<(), StoreError> {
    buf.clear();
    File::open(path)
        .and_then(|mut f| f.read_to_end(buf))
        .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
    Ok(())
}

/// Hands each record of a scanned segment to `visit` as it decodes, in
/// file order, then checks the segment whole. An undecodable record, then
/// damage, then an event count other than the index entry's, is an error
/// — after the records before it have been visited.
fn decode_segment(
    meta: &SegmentMeta,
    bytes: &[u8],
    scan: SegmentScan,
    mut visit: impl FnMut(ObsEvent),
) -> Result<(), StoreError> {
    let corrupt = |d: SegmentDamage| StoreError::Corrupt(format!("{}: {d}", meta.file_name()));
    for r in &scan.records {
        match scan.format.decode(&bytes[r.clone()]) {
            Ok(ev) => visit(ev),
            Err(e) => {
                return Err(corrupt(SegmentDamage {
                    offset: r.start,
                    reason: format!("undecodable record: {e}"),
                }))
            }
        }
    }
    if let Some(d) = scan.damage {
        return Err(corrupt(d));
    }
    if scan.records.len() as u64 != meta.events {
        return Err(StoreError::Corrupt(format!(
            "{}: {} events on disk, manifest says {}",
            meta.file_name(),
            scan.records.len(),
            meta.events
        )));
    }
    Ok(())
}

/// A segment as the read-ahead helper hands it over: its bytes, and their
/// scan or why the file could not be read.
type Loaded = (Vec<u8>, Result<SegmentScan, StoreError>);

/// Reads a list of segments in order on a helper thread, one ahead of
/// the caller: while the caller consumes segment k, the helper reads and
/// CRC-scans segment k+1. Two byte buffers circulate — the caller's and
/// one seeded here — so neither side allocates one per segment. Dropping
/// it stops the helper and joins it.
#[derive(Debug)]
pub(crate) struct ReadAhead {
    /// Loaded segments coming in, and the caller's spent buffers going
    /// back; `None` once dropped.
    link: Option<(Receiver<Loaded>, Sender<Vec<u8>>)>,
    helper: Option<JoinHandle<()>>,
}

impl ReadAhead {
    fn spawn(paths: Vec<PathBuf>) -> Self {
        let (ready, loaded) = mpsc::sync_channel(1);
        let (spent, buffers) = mpsc::channel();
        // Cannot fail: `buffers` is alive.
        let _ = spent.send(Vec::new());
        let helper = thread::Builder::new()
            .name("store-read-ahead".to_string())
            .spawn(move || read_ahead(&paths, &ready, &buffers))
            .expect("start the store read-ahead thread");
        ReadAhead {
            link: Some((loaded, spent)),
            helper: Some(helper),
        }
    }

    /// The next segment's scan, its bytes swapped into `buf` and `buf`'s
    /// old contents handed back to the helper.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the helper; and panics when called past the
    /// end of the list.
    pub(crate) fn next(&mut self, buf: &mut Vec<u8>) -> Result<SegmentScan, StoreError> {
        let (loaded, spent) = self.link.as_ref().expect("the link lives until drop");
        let Ok((bytes, scan)) = loaded.recv() else {
            if let Some(Err(panic)) = self.helper.take().map(JoinHandle::join) {
                std::panic::resume_unwind(panic);
            }
            panic!("read past the end of the read-ahead list");
        };
        // The helper stops taking buffers once the list is done.
        let _ = spent.send(mem::replace(buf, bytes));
        scan
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        // Closing both channels unblocks a helper waiting on either.
        self.link = None;
        if let Some(helper) = self.helper.take() {
            // A panic of the helper after the caller stopped reading has
            // nothing left to report to.
            let _ = helper.join();
        }
    }
}

/// The read-ahead helper: reads each segment into a spent buffer, scans
/// it and hands both over, until the list ends or the caller drops its
/// end.
fn read_ahead(paths: &[PathBuf], ready: &SyncSender<Loaded>, buffers: &Receiver<Vec<u8>>) {
    for path in paths {
        let Ok(mut bytes) = buffers.recv() else {
            return;
        };
        let scan = read_file(path, &mut bytes).map(|()| wire::scan_segment(&bytes));
        if ready.send((bytes, scan)).is_err() {
            return;
        }
    }
}
