//! The streaming [`StoreSink`]: an [`ObsSink`] that appends a run's
//! event stream to an on-disk segmented store as the simulation runs.
//!
//! Events are binary-encoded ([`fleetio_obs::wire`]), CRC-framed and
//! buffered into a fixed-target-size segment; when the buffer reaches
//! the target the segment is sealed — indexed in the manifest, then
//! written via [`fleetio_model::atomic_write`] (tmp + fsync + rename, the
//! only sanctioned file-write path in sim crates) followed by the
//! manifest snapshot that lists it. Alongside the bytes the sink
//! maintains the streaming FNV-1a fingerprint and per-segment
//! sparse-index facts (min/max sim-time, tenant and kind bitmaps).
//!
//! The writes run on the sink's one writer thread, so recording goes on
//! while a sealed segment is made durable. Every write is still made, in
//! the order a synchronous writer would make it: jobs go down one FIFO
//! queue, and each job is a file (segment or anchor) followed by the
//! manifest that lists it, so the manifest on disk only ever lists files
//! that are already durable. The sink owns exactly two segment buffers:
//! it fills one while the writer holds the other, and the writer hands
//! each back once it is written. So at most one segment is in flight, a
//! seal waits only for the previous segment's writes, and no seal
//! allocates a buffer.
//!
//! Sinks must never influence the simulation, and `ObsSink::record`
//! returns nothing — so I/O errors are *latched*: the writer stops at its
//! first failure, the sink stops recording once it sees the writer gone,
//! and the failure is surfaced when the recorder calls
//! [`StoreSink::finish`]. A crashed or failed run leaves a manifest with
//! `sealed = false`, which `verify`/`replay` refuse to trust. Dropping a
//! sink without `finish` (a panicking recorder) waits for the writer to
//! drain its queue, so it leaves every segment sealed so far.

use std::any::Any;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

use fleetio_des::hash::Fnv64;
use fleetio_model::{atomic_write, RunAnchor};
use fleetio_obs::wire;
use fleetio_obs::{ObsEvent, ObsSink};

use crate::manifest::{
    anchor_file_name, segment_file_name, AnchorMeta, Manifest, SegmentMeta, MANIFEST_FILE,
    STORE_VERSION,
};

/// Default segment target size (256 KiB ≈ a few thousand events).
pub const DEFAULT_SEGMENT_BYTES: usize = 256 * 1024;

/// A streaming run-store writer.
#[derive(Debug)]
pub struct StoreSink {
    manifest: Manifest,
    seg_target: usize,
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
    writer: Writer,
    /// First I/O failure; latches the sink into a no-op.
    error: Option<String>,
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
    /// writer thread failing.
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
        let mut sink = StoreSink {
            manifest,
            seg_target: segment_bytes.max(wire::SEG_HEADER_LEN + 64),
            seg_buf: Vec::with_capacity(segment_bytes + 256),
            seg_events: 0,
            seg_min_at: u64::MAX,
            seg_max_at: 0,
            seg_tenant_bits: 0,
            seg_kind_bits: 0,
            next_seq: 0,
            total_events: 0,
            fp: Fnv64::new(),
            writer: Writer::spawn(dir.to_path_buf(), Vec::with_capacity(segment_bytes + 256))?,
            error: None,
        };
        sink.begin_segment();
        Ok(sink)
    }

    /// Events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.total_events
    }

    /// The streaming FNV-1a fingerprint over all encoded payloads so far.
    pub fn fingerprint(&self) -> u64 {
        self.fp.finish()
    }

    /// The first latched I/O error, if recording has failed. A write
    /// failure is seen by the sink at the next seal or anchor after it.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn begin_segment(&mut self) {
        self.seg_buf.clear();
        wire::push_segment_header(&mut self.seg_buf, self.next_seq);
        self.seg_events = 0;
        self.seg_min_at = u64::MAX;
        self.seg_max_at = 0;
        self.seg_tenant_bits = 0;
        self.seg_kind_bits = 0;
    }

    /// Seals the current segment (if it holds any events): index entry,
    /// then the segment and the manifest that lists it go to the writer,
    /// and recording continues in the other buffer once the writer has
    /// handed it back.
    ///
    /// # Errors
    ///
    /// The writer has stopped on a failure, which is then latched.
    fn seal_segment(&mut self) -> io::Result<()> {
        if self.seg_events == 0 {
            return Ok(());
        }
        let Some(next) = self.writer.take_back() else {
            return Err(self.writer_failed());
        };
        let bytes = std::mem::replace(&mut self.seg_buf, next);
        let seq = self.next_seq;
        self.manifest.segments.push(SegmentMeta {
            seq,
            events: self.seg_events,
            bytes: bytes.len() as u64,
            first_event: self.total_events - self.seg_events,
            min_at_ns: self.seg_min_at,
            max_at_ns: self.seg_max_at,
            tenant_bits: self.seg_tenant_bits,
            kind_bits: self.seg_kind_bits,
        });
        self.manifest.total_events = self.total_events;
        self.manifest.stream_fingerprint = self.fp.finish();
        let manifest = self.manifest.to_container();
        if !self.writer.send(Job::Segment {
            seq,
            bytes,
            manifest,
        }) {
            return Err(self.writer_failed());
        }
        self.next_seq += 1;
        self.begin_segment();
        Ok(())
    }

    /// Joins the writer, which has stopped on its first failure, and
    /// latches that failure.
    fn writer_failed(&mut self) -> io::Error {
        let e = match self.writer.close() {
            Err(e) => e.to_string(),
            Ok(()) => "the store writer has stopped".to_string(),
        };
        self.error = Some(e.clone());
        io::Error::other(e)
    }

    /// Writes a replay anchor at the current stream position: an
    /// `anchor-<window>.fiom` container (via `fleetio-model`) plus a
    /// manifest entry, queued behind the segments sealed so far. Call
    /// between windows, never mid-window.
    ///
    /// # Errors
    ///
    /// A previously latched failure, or the writer having stopped on one.
    /// A failure of the anchor's own writes surfaces at a later seal or
    /// at [`StoreSink::finish`].
    pub fn anchor(&mut self, window: u64, at_ns: u64, model_tag: &str) -> io::Result<RunAnchor> {
        if let Some(e) = &self.error {
            return Err(io::Error::other(e.clone()));
        }
        let anchor = RunAnchor {
            window,
            at_ns,
            event_count: self.total_events,
            stream_fingerprint: self.fp.finish(),
            spec_fingerprint: self.manifest.spec_fingerprint,
            seed: self.manifest.seed,
            model_tag: model_tag.to_string(),
        };
        self.manifest.anchors.push(AnchorMeta {
            window,
            at_ns,
            event_count: self.total_events,
        });
        let job = Job::Anchor {
            window,
            bytes: anchor.to_container(),
            manifest: self.manifest.to_container(),
        };
        if !self.writer.send(job) {
            return Err(self.writer_failed());
        }
        Ok(anchor)
    }

    /// Seals the final segment, marks the manifest sealed, waits for the
    /// writer to make every queued write durable and returns the final
    /// manifest.
    ///
    /// # Errors
    ///
    /// The first write failure of the run, naming what it was writing —
    /// either way the on-disk manifest stays `sealed = false`.
    pub fn finish(mut self) -> io::Result<Manifest> {
        if let Some(e) = self.error.take() {
            return Err(io::Error::other(e));
        }
        self.seal_segment()?;
        self.manifest.sealed = true;
        self.manifest.total_events = self.total_events;
        self.manifest.stream_fingerprint = self.fp.finish();
        let manifest = self.manifest.to_container();
        if !self.writer.send(Job::Seal { manifest }) {
            return Err(self.writer_failed());
        }
        self.writer.close()?;
        Ok(self.manifest)
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
        let payload = wire::push_event_record(&mut self.seg_buf, &ev);
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
            // A failure is latched in `self.error` and surfaces at `finish`.
            let _ = self.seal_segment();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One unit of the writer's queue: a file, then the manifest snapshot
/// that lists it (or only the manifest), written in that order.
#[derive(Debug)]
enum Job {
    /// Segment `seq`; its buffer goes back to the sink once written.
    Segment {
        seq: u32,
        bytes: Vec<u8>,
        manifest: Vec<u8>,
    },
    /// The replay anchor taken after `window`.
    Anchor {
        window: u64,
        bytes: Vec<u8>,
        manifest: Vec<u8>,
    },
    /// The sealed manifest, last.
    Seal { manifest: Vec<u8> },
}

impl Job {
    fn write(&self, dir: &Path) -> io::Result<()> {
        let (file, manifest) = match self {
            Job::Segment {
                seq,
                bytes,
                manifest,
            } => (Some((segment_file_name(*seq), bytes)), manifest),
            Job::Anchor {
                window,
                bytes,
                manifest,
            } => (Some((anchor_file_name(*window), bytes)), manifest),
            Job::Seal { manifest } => (None, manifest),
        };
        if let Some((name, bytes)) = file {
            atomic_write(&dir.join(name), bytes)?;
        }
        atomic_write(&dir.join(MANIFEST_FILE), manifest)
    }

    /// What the job writes, as an error names it.
    fn what(&self) -> String {
        match self {
            Job::Segment { seq, .. } => format!("sealing segment {seq}"),
            Job::Anchor { window, .. } => format!("writing anchor {window}"),
            Job::Seal { .. } => "sealing the manifest".to_string(),
        }
    }
}

/// The sink's writer thread and its two queues. Dropping it closes the
/// job queue and waits for the thread to finish what was queued.
#[derive(Debug)]
struct Writer {
    /// Jobs in write order; `None` once closed.
    jobs: Option<Sender<Job>>,
    /// Segment buffers coming back once written.
    written: Receiver<Vec<u8>>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Writer {
    /// Starts the writer with `spare` already handed back, so the first
    /// seal takes it without waiting.
    fn spawn(dir: PathBuf, spare: Vec<u8>) -> io::Result<Writer> {
        let (jobs, queue) = mpsc::channel();
        let (give_back, written) = mpsc::channel();
        // Cannot fail: `written` is alive.
        let _ = give_back.send(spare);
        let thread = thread::Builder::new()
            .name("store-writer".to_string())
            .spawn(move || write_jobs(&dir, queue, give_back))?;
        Ok(Writer {
            jobs: Some(jobs),
            written,
            thread: Some(thread),
        })
    }

    /// Queues `job`; false if the writer has stopped.
    fn send(&self, job: Job) -> bool {
        self.jobs.as_ref().is_some_and(|q| q.send(job).is_ok())
    }

    /// Takes back the spare buffer, waiting for the segment in flight (if
    /// any) to be written; `None` if the writer stopped first.
    fn take_back(&self) -> Option<Vec<u8>> {
        self.written.recv().ok()
    }

    /// Closes the queue, waits for the writer to drain it and returns its
    /// first failure.
    fn close(&mut self) -> io::Result<()> {
        self.jobs = None;
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("the store writer panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        // The sink was dropped without `finish`: what was queued is still
        // written, and a failure leaves the manifest unsealed.
        let _ = self.close();
    }
}

/// The writer thread: performs each job's writes in queue order, hands
/// each segment buffer back, and stops at the first failure.
fn write_jobs(dir: &Path, queue: Receiver<Job>, give_back: Sender<Vec<u8>>) -> io::Result<()> {
    for job in queue {
        job.write(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", job.what())))?;
        if let Job::Segment { bytes, .. } = job {
            // The sink keeps the receiver until it has joined this thread.
            let _ = give_back.send(bytes);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimTime;

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
        let _ = sink.anchor(1, 150, "").expect("anchor");
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
        assert_eq!(manifest.anchors.len(), 1);
        assert_eq!(manifest.anchors[0].event_count, 200);
        // Reload from disk: identical.
        let back = Manifest::load(&dir).expect("manifest reloads");
        assert_eq!(back, manifest);
        // Anchor file verifies via fleetio-model.
        let anchor = RunAnchor::load(&dir.join(anchor_file_name(1))).expect("anchor loads");
        assert_eq!(anchor.event_count, 200);
        assert_eq!(anchor.spec_fingerprint, 0xAB);
        std::fs::remove_dir_all(&dir).ok();
    }
}
