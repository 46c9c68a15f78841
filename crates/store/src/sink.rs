//! The streaming [`StoreSink`]: an [`ObsSink`] that appends a run's
//! event stream to an on-disk segmented store as the simulation runs.
//!
//! Events are binary-encoded in the current segment format
//! ([`fleetio_obs::wire::WireFormat::CURRENT`]), CRC-framed and
//! buffered into a fixed-target-size segment; when the buffer reaches
//! the target the segment is sealed — indexed in the manifest, then
//! written via [`fleetio_model::AtomicBatch`] (tmp + fsync + rename, the
//! group form of the only sanctioned file-write path in sim crates) and
//! listed by a later manifest snapshot. Alongside the bytes the sink
//! maintains the streaming FNV-1a fingerprint and per-segment
//! sparse-index facts (min/max sim-time, tenant and kind bitmaps).
//!
//! The work runs in three stages, each on its own thread, joined by FIFO
//! queues, so every byte is produced and written in the order a
//! synchronous sink would produce and write it:
//!
//! * **Recording** (the caller's thread) only appends each event to a
//!   batch. A full batch goes to the encoder and an emptied one comes
//!   back; the pool is `BATCHES` batches of `BATCH_EVENTS` events,
//!   and a recorder that needs an empty batch blocks until one returns.
//! * **Encoding** frames, fingerprints, indexes and seals, filling one of
//!   `SEGMENT_BUFFERS` segment buffers; the writer hands each back once
//!   its file is written, so no seal allocates a buffer. Anchors are
//!   queued to it like batches; the final seal and [`StoreSink::error`]
//!   are round trips through it.
//! * **Writing** makes each segment file durable as it arrives and, once
//!   per group, syncs the directory and writes the group's one manifest
//!   snapshot. A group ends at every `GROUP_SEALS`-th seal,
//!   at every anchor and at the final seal — positions in the stream, not
//!   queue timing. The writer keeps the manifest itself and updates it
//!   only for files already written, so the manifest on disk only ever
//!   lists durable files, also after a failed write: it then commits the
//!   files written before the failure and stops.
//!
//! Sinks must never influence the simulation, and `ObsSink::record`
//! returns nothing — so I/O errors are *latched*: the writer stops at its
//! first failure, the encoder stops when it finds the writer gone, the
//! recorder stops recording once it finds the encoder gone, and the
//! failure is surfaced by [`StoreSink::finish`] (or sooner by
//! [`StoreSink::error`]). A crashed or failed run leaves a manifest with
//! `sealed = false`, which `verify`/`replay` refuse to trust. Dropping a
//! sink without `finish` (a panicking recorder) hands its partial batch
//! on and waits for both threads to drain their queues, so it leaves
//! every segment its events filled, listed.

use std::any::Any;
use std::io;
use std::mem;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

use fleetio_des::hash::Fnv64;
use fleetio_model::AtomicBatch;
use fleetio_obs::wire::{self, WireFormat};
use fleetio_obs::{ObsEvent, ObsSink};

use crate::manifest::{AnchorMeta, Manifest, SegmentMeta, MANIFEST_FILE, STORE_VERSION};

/// Default segment target size (256 KiB ≈ a few thousand events).
pub const DEFAULT_SEGMENT_BYTES: usize = 256 * 1024;

/// Events per batch the recording thread hands to the encoder (48 KiB).
const BATCH_EVENTS: usize = 1024;

/// Batches in the recording thread's pool.
const BATCHES: usize = 4;

/// Segment buffers in the encoder's pool: one filling, the others sealed
/// and queued for, or being written by, the writer. A seal takes a free
/// buffer before it hands the full one over.
const SEGMENT_BUFFERS: usize = 3;

/// Seals per group commit. A kill loses at most the sealed segments not
/// yet listed — `SEGMENT_BUFFERS - 1` queued or being written plus
/// `GROUP_SEALS` written but waiting for their group's manifest, 6 in
/// all — and the events not yet sealed.
const GROUP_SEALS: u32 = 4;

/// A streaming run-store writer: the recording stage, and the handle to
/// the encoding and writing stages behind it.
#[derive(Debug)]
pub struct StoreSink {
    /// Events not yet handed to the encoder.
    batch: Vec<ObsEvent>,
    /// Emptied batches coming back from the encoder.
    empties: Receiver<Vec<ObsEvent>>,
    /// The encoder's answers to [`ToEncoder::Sync`].
    synced: Receiver<()>,
    encoder: Stage<ToEncoder, Option<Manifest>>,
    total_events: u64,
    /// First I/O failure; latches the sink into a no-op.
    error: Option<String>,
}

/// What the recording thread sends the encoder, in stream order.
#[derive(Debug)]
enum ToEncoder {
    Batch(Vec<ObsEvent>),
    Anchor(AnchorMeta),
    /// Answered once every earlier write has been made or has failed.
    Sync,
    Finish,
}

impl StoreSink {
    /// Creates the store directory (if needed) and an empty, unsealed
    /// manifest, then returns a sink ready to record.
    ///
    /// `spec` is the serialized [`fleetio::RunSpec`] (its fingerprint
    /// and the run's seed/window ride into the manifest for provenance
    /// and replay).
    ///
    /// # Errors
    ///
    /// Directory creation, the initial manifest write or starting the
    /// encoder or writer thread failing.
    pub fn create(
        dir: &Path,
        spec: Vec<u8>,
        spec_fingerprint: u32,
        seed: u64,
        window_ns: u64,
        segment_bytes: usize,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let manifest = Manifest {
            version: STORE_VERSION,
            seed,
            window_ns,
            spec_fingerprint,
            spec,
            sealed: false,
            total_events: 0,
            stream_fingerprint: 0,
            segments: Vec::new(),
            anchors: Vec::new(),
        };
        manifest.save(dir)?;
        let seg_target = segment_bytes.max(wire::SEG_HEADER_LEN + 64);
        let seg_capacity = seg_target + 256;

        let (give_back, written) = mpsc::channel();
        let (ack, synced) = mpsc::channel();
        let files = AtomicBatch::new(dir);
        let writer = Stage::spawn("store-writer", move |jobs| {
            write_jobs(files, manifest, seg_capacity, jobs, &give_back, &ack)
        })?;
        let enc = Encoder {
            seg_target,
            seg_capacity,
            seg_buf: Vec::new(),
            seg_events: 0,
            seg_min_at: u64::MAX,
            seg_max_at: 0,
            seg_tenant_bits: 0,
            seg_kind_bits: 0,
            next_seq: 0,
            total_events: 0,
            fp: Fnv64::new(),
            written,
            synced,
            writer,
        };

        let (give_empty, empties) = mpsc::channel();
        for _ in 1..BATCHES {
            // Cannot fail: `empties` is alive.
            let _ = give_empty.send(Vec::with_capacity(BATCH_EVENTS));
        }
        let (answer, synced) = mpsc::channel();
        let encoder = Stage::spawn("store-encoder", move |queue| {
            encode(enc, queue, &give_empty, &answer)
        })?;
        Ok(StoreSink {
            batch: Vec::with_capacity(BATCH_EVENTS),
            empties,
            synced,
            encoder,
            total_events: 0,
            error: None,
        })
    }

    /// Events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.total_events
    }

    /// The first latched I/O error, if recording has failed. Waits until
    /// every event recorded so far is encoded and every file it filled
    /// has been written or has failed, so a failure is never missed.
    pub fn error(&mut self) -> Option<&str> {
        if self.send(ToEncoder::Sync).is_ok() && self.synced.recv().is_err() {
            // Latches the failure in `self.error`.
            let _ = self.encoder_failed();
        }
        self.error.as_deref()
    }

    /// Hands the current batch to the encoder and takes an emptied one,
    /// waiting for it if the encoder holds the whole pool.
    fn flush(&mut self) -> io::Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let Ok(empty) = self.empties.recv() else {
            return Err(self.encoder_failed());
        };
        let full = mem::replace(&mut self.batch, empty);
        if self.encoder.send(ToEncoder::Batch(full)) {
            Ok(())
        } else {
            Err(self.encoder_failed())
        }
    }

    /// Flushes, then queues `msg` behind the events recorded so far.
    fn send(&mut self, msg: ToEncoder) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(io::Error::other(e.clone()));
        }
        self.flush()?;
        if self.encoder.send(msg) {
            Ok(())
        } else {
            Err(self.encoder_failed())
        }
    }

    /// Joins the encoder, which has stopped on its first failure (or the
    /// writer's), and latches that failure.
    fn encoder_failed(&mut self) -> io::Error {
        let e = match self.encoder.close() {
            Err(e) => e.to_string(),
            Ok(_) => "the store encoder has stopped".to_string(),
        };
        self.error = Some(e.clone());
        io::Error::other(e)
    }

    /// Records a replay anchor at the current stream position: a
    /// manifest entry (window, sim-time, events so far), queued behind the
    /// events recorded so far. Its manifest snapshot ends a commit group.
    /// Call between windows, never mid-window.
    ///
    /// # Errors
    ///
    /// A previously latched failure, or the encoder having stopped on
    /// one. A failure of the writes it queues surfaces at a later call or
    /// at [`StoreSink::finish`].
    pub fn anchor(&mut self, window: u64, at_ns: u64) -> io::Result<()> {
        let meta = AnchorMeta {
            window,
            at_ns,
            event_count: self.total_events,
        };
        self.send(ToEncoder::Anchor(meta))
    }

    /// Seals the final segment, marks the manifest sealed, waits for the
    /// encoder and the writer to make every queued write durable and
    /// returns the final manifest.
    ///
    /// # Errors
    ///
    /// The first write failure of the run, naming what it was writing —
    /// either way the on-disk manifest stays `sealed = false`.
    pub fn finish(mut self) -> io::Result<Manifest> {
        self.send(ToEncoder::Finish)?;
        self.encoder
            .close()?
            .ok_or_else(|| io::Error::other("the store encoder stopped before sealing"))
    }
}

impl Drop for StoreSink {
    fn drop(&mut self) {
        // Dropped without `finish`: the partial batch is still encoded,
        // and every segment it fills written, before `encoder` joins.
        if !self.batch.is_empty() {
            self.encoder
                .send(ToEncoder::Batch(mem::take(&mut self.batch)));
        }
    }
}

impl ObsSink for StoreSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        if self.error.is_some() {
            return;
        }
        self.batch.push(ev);
        self.total_events += 1;
        if self.batch.len() == BATCH_EVENTS {
            // A failure is latched in `self.error` and surfaces at `finish`.
            let _ = self.flush();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A pipeline thread fed by one FIFO queue. Dropping it closes the queue
/// and waits for the thread to finish what was queued.
#[derive(Debug)]
struct Stage<In, Out> {
    name: &'static str,
    /// `None` once closed.
    queue: Option<Sender<In>>,
    thread: Option<JoinHandle<io::Result<Out>>>,
}

impl<In: Send + 'static, Out: Send + 'static> Stage<In, Out> {
    fn spawn(
        name: &'static str,
        body: impl FnOnce(Receiver<In>) -> io::Result<Out> + Send + 'static,
    ) -> io::Result<Self> {
        let (queue, work) = mpsc::channel();
        let thread = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(work))?;
        Ok(Stage {
            name,
            queue: Some(queue),
            thread: Some(thread),
        })
    }

    /// Queues `item`; false if the thread has stopped.
    fn send(&self, item: In) -> bool {
        self.queue.as_ref().is_some_and(|q| q.send(item).is_ok())
    }

    /// Closes the queue, waits for the thread to drain it and returns
    /// what the thread returned.
    fn close(&mut self) -> io::Result<Out> {
        self.queue = None;
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other(format!("the {} panicked", self.name)))),
            None => Err(io::Error::other(format!("the {} has stopped", self.name))),
        }
    }
}

impl<In, Out> Drop for Stage<In, Out> {
    fn drop(&mut self) {
        self.queue = None;
        if let Some(t) = self.thread.take() {
            // A failure leaves the manifest unsealed; `finish` reports it.
            let _ = t.join();
        }
    }
}

/// The encoding stage's state: the current segment and the stream so far.
#[derive(Debug)]
struct Encoder {
    seg_target: usize,
    seg_capacity: usize,
    /// Current segment buffer, header included.
    seg_buf: Vec<u8>,
    seg_events: u64,
    seg_min_at: u64,
    seg_max_at: u64,
    seg_tenant_bits: u64,
    seg_kind_bits: u32,
    next_seq: u32,
    total_events: u64,
    fp: Fnv64,
    /// Segment buffers coming back once written.
    written: Receiver<Vec<u8>>,
    /// The writer's answers to [`Job::Sync`].
    synced: Receiver<()>,
    writer: Stage<Job, Manifest>,
}

/// The encoder thread: encodes each batch and queues each anchor in
/// queue order, handing every batch back emptied and answering each sync.
fn encode(
    mut enc: Encoder,
    queue: Receiver<ToEncoder>,
    empties: &Sender<Vec<ObsEvent>>,
    synced: &Sender<()>,
) -> io::Result<Option<Manifest>> {
    enc.seg_buf = Vec::with_capacity(enc.seg_capacity);
    enc.begin_segment();
    // The recorder keeps both receivers until it has joined this thread.
    for msg in queue {
        match msg {
            ToEncoder::Batch(mut events) => {
                for ev in &events {
                    enc.record(ev)?;
                }
                events.clear();
                let _ = empties.send(events);
            }
            ToEncoder::Anchor(meta) => enc.queue(Job::Anchor(meta))?,
            ToEncoder::Sync => {
                enc.queue(Job::Sync)?;
                if enc.synced.recv().is_err() {
                    return Err(enc.writer_failed());
                }
                let _ = synced.send(());
            }
            ToEncoder::Finish => return enc.finish().map(Some),
        }
    }
    // Dropped without `finish`: the writer commits what it wrote.
    enc.writer.close().map(|_| None)
}

impl Encoder {
    fn begin_segment(&mut self) {
        self.seg_buf.clear();
        WireFormat::CURRENT.push_segment_header(&mut self.seg_buf, self.next_seq);
        self.seg_events = 0;
        self.seg_min_at = u64::MAX;
        self.seg_max_at = 0;
        self.seg_tenant_bits = 0;
        self.seg_kind_bits = 0;
    }

    fn record(&mut self, ev: &ObsEvent) -> io::Result<()> {
        let payload = WireFormat::CURRENT.push_event_record(&mut self.seg_buf, ev);
        self.fp.update(&self.seg_buf[payload]);
        let at = ev.at().as_nanos();
        self.seg_min_at = self.seg_min_at.min(at);
        self.seg_max_at = self.seg_max_at.max(at);
        if let Some(t) = ev.tenant() {
            self.seg_tenant_bits |= 1u64 << (t % 64);
        }
        self.seg_kind_bits |= 1u32 << ev.kind_index();
        self.seg_events += 1;
        self.total_events += 1;
        if self.seg_buf.len() >= self.seg_target {
            self.seal_segment()?;
        }
        Ok(())
    }

    /// Seals the current segment (if it holds any events): the segment
    /// and its index entry go to the writer, and encoding continues in a
    /// buffer the writer has handed back.
    ///
    /// # Errors
    ///
    /// The writer has stopped on a failure.
    fn seal_segment(&mut self) -> io::Result<()> {
        if self.seg_events == 0 {
            return Ok(());
        }
        let Ok(next) = self.written.recv() else {
            return Err(self.writer_failed());
        };
        let bytes = mem::replace(&mut self.seg_buf, next);
        let seq = self.next_seq;
        let meta = SegmentMeta {
            seq,
            events: self.seg_events,
            bytes: bytes.len() as u64,
            first_event: self.total_events - self.seg_events,
            min_at_ns: self.seg_min_at,
            max_at_ns: self.seg_max_at,
            tenant_bits: self.seg_tenant_bits,
            kind_bits: self.seg_kind_bits,
        };
        self.queue(Job::Segment {
            bytes,
            meta,
            fingerprint: self.fp.finish(),
            commit: (seq + 1).is_multiple_of(GROUP_SEALS),
        })?;
        self.next_seq += 1;
        self.begin_segment();
        Ok(())
    }

    /// Joins the writer, which has stopped on its first failure, and
    /// returns that failure.
    fn writer_failed(&mut self) -> io::Error {
        match self.writer.close() {
            Err(e) => e,
            Ok(_) => io::Error::other("the store writer has stopped"),
        }
    }

    /// Queues `job` behind the segments sealed so far.
    ///
    /// # Errors
    ///
    /// The writer has stopped on a failure.
    fn queue(&mut self, job: Job) -> io::Result<()> {
        if self.writer.send(job) {
            Ok(())
        } else {
            Err(self.writer_failed())
        }
    }

    /// Seals the final segment and the manifest and waits for the writer.
    fn finish(mut self) -> io::Result<Manifest> {
        self.seal_segment()?;
        self.queue(Job::Seal {
            total_events: self.total_events,
            fingerprint: self.fp.finish(),
        })?;
        self.writer.close()
    }
}

/// One unit of the writer's queue.
#[derive(Debug)]
enum Job {
    /// A sealed segment, with its index entry and the stream fingerprint
    /// through it; its buffer goes back to the encoder once written.
    /// `commit` ends a group.
    Segment {
        bytes: Vec<u8>,
        meta: SegmentMeta,
        fingerprint: u64,
        commit: bool,
    },
    /// A replay anchor's manifest entry; ends a group.
    Anchor(AnchorMeta),
    /// The end of the run; ends the last group with the sealed manifest.
    Seal { total_events: u64, fingerprint: u64 },
    /// Answered on the writer's `synced` channel.
    Sync,
}

impl Job {
    /// Writes the job's file, records it in `manifest` and commits the
    /// group if the job ends one.
    fn write(&self, files: &mut AtomicBatch, manifest: &mut Manifest) -> io::Result<()> {
        let commit = match self {
            Job::Segment {
                bytes,
                meta,
                fingerprint,
                commit,
            } => {
                files.write(&meta.file_name(), bytes)?;
                manifest.segments.push(meta.clone());
                manifest.total_events = meta.first_event + meta.events;
                manifest.stream_fingerprint = *fingerprint;
                *commit
            }
            Job::Anchor(meta) => {
                manifest.anchors.push(meta.clone());
                true
            }
            Job::Seal {
                total_events,
                fingerprint,
            } => {
                manifest.sealed = true;
                manifest.total_events = *total_events;
                manifest.stream_fingerprint = *fingerprint;
                true
            }
            Job::Sync => false,
        };
        if commit {
            files.commit(MANIFEST_FILE, &manifest.to_container())?;
        }
        Ok(())
    }

    /// What the job writes, as an error names it.
    fn what(&self) -> String {
        match self {
            Job::Segment { meta, .. } => format!("sealing segment {}", meta.seq),
            Job::Anchor(meta) => format!("committing anchor {}", meta.window),
            Job::Seal { .. } => "sealing the manifest".to_string(),
            Job::Sync => "syncing".to_string(),
        }
    }
}

/// The writer thread: seeds the encoder's buffer pool, performs each
/// job's writes in queue order, hands each segment buffer back, and stops
/// at the first failure — after committing the files written before it.
fn write_jobs(
    mut files: AtomicBatch,
    mut manifest: Manifest,
    seg_capacity: usize,
    jobs: Receiver<Job>,
    give_back: &Sender<Vec<u8>>,
    synced: &Sender<()>,
) -> io::Result<Manifest> {
    // The encoder keeps both receivers until it has joined this thread.
    for _ in 1..SEGMENT_BUFFERS {
        let _ = give_back.send(Vec::with_capacity(seg_capacity));
    }
    for job in jobs {
        if let Err(e) = job.write(&mut files, &mut manifest) {
            if files.pending() {
                // Best-effort: the failure below is the one to report.
                let _ = files.commit(MANIFEST_FILE, &manifest.to_container());
            }
            return Err(io::Error::new(e.kind(), format!("{}: {e}", job.what())));
        }
        match job {
            Job::Segment { bytes, .. } => {
                let _ = give_back.send(bytes);
            }
            Job::Sync => {
                let _ = synced.send(());
            }
            Job::Anchor(_) | Job::Seal { .. } => {}
        }
    }
    // Closed without a seal: list what was written.
    if files.pending() {
        files.commit(MANIFEST_FILE, &manifest.to_container())?;
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimTime;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fleetio-store-sink-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn throttle(n: u64) -> ObsEvent {
        ObsEvent::Throttle {
            at: SimTime::from_nanos(n),
            channel: (n % 4) as u16,
            until: SimTime::from_nanos(n + 10),
        }
    }

    #[test]
    fn records_roll_segments_and_seal() {
        let dir = tmp_dir("roll");
        let mut sink =
            StoreSink::create(&dir, vec![9, 9], 0xAB, 7, 1_000, 256).expect("create sink");
        for i in 0..200u64 {
            sink.record(throttle(i));
        }
        sink.anchor(1, 150).expect("anchor");
        for i in 200..300u64 {
            sink.record(throttle(i));
        }
        let manifest = sink.finish().expect("finish");
        assert!(manifest.sealed);
        assert_eq!(manifest.total_events, 300);
        assert!(manifest.segments.len() > 1, "tiny target must roll");
        let total: u64 = manifest.segments.iter().map(|s| s.events).sum();
        assert_eq!(total, 300);
        // first_event indices partition the stream.
        let mut expect = 0u64;
        for s in &manifest.segments {
            assert_eq!(s.first_event, expect);
            assert_eq!(s.kind_bits, 1 << 8, "throttle kind bit");
            assert_eq!(s.tenant_bits, 0, "throttle names no tenant");
            expect += s.events;
        }
        let anchor = AnchorMeta {
            window: 1,
            at_ns: 150,
            event_count: 200,
        };
        assert_eq!(manifest.anchors, [anchor]);
        // Reload from disk: identical.
        let back = Manifest::load(&dir).expect("manifest reloads");
        assert_eq!(back, manifest);
        std::fs::remove_dir_all(&dir).ok();
    }
}
