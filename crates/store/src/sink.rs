//! The streaming [`StoreSink`]: an [`ObsSink`] that appends a run's
//! event stream to an on-disk segmented store as the simulation runs.
//!
//! Events are binary-encoded ([`fleetio_obs::wire`]), CRC-framed and
//! buffered into a fixed-target-size segment; when the buffer reaches
//! the target the segment is sealed — written via
//! [`fleetio_model::atomic_write`] (tmp + fsync + rename, the only
//! sanctioned file-write path in sim crates) and indexed in the
//! manifest. Alongside the bytes the sink maintains the streaming
//! FNV-1a fingerprint and per-segment sparse-index facts (min/max
//! sim-time, tenant and kind bitmaps).
//!
//! Sinks must never influence the simulation, and `ObsSink::record`
//! returns nothing — so I/O errors are *latched*: the first failure
//! stops all further writes and is surfaced when the recorder calls
//! [`StoreSink::finish`]. A crashed or failed run leaves a manifest
//! with `sealed = false`, which `verify`/`replay` refuse to trust.

use std::any::Any;
use std::io;
use std::path::{Path, PathBuf};

use fleetio_des::hash::Fnv64;
use fleetio_model::RunAnchor;
use fleetio_obs::wire;
use fleetio_obs::{ObsEvent, ObsSink};

use crate::manifest::{anchor_file_name, AnchorMeta, Manifest, SegmentMeta, STORE_VERSION};

/// Default segment target size (256 KiB ≈ a few thousand events).
pub const DEFAULT_SEGMENT_BYTES: usize = 256 * 1024;

/// A streaming run-store writer.
#[derive(Debug)]
pub struct StoreSink {
    dir: PathBuf,
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
    /// Directory creation or the initial manifest write failing.
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
            dir: dir.to_path_buf(),
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

    /// The first latched I/O error, if recording has failed.
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

    /// Seals the current segment (if it holds any events): atomic write
    /// of the segment file, index entry, manifest rewrite.
    fn seal_segment(&mut self) -> io::Result<()> {
        if self.seg_events == 0 {
            return Ok(());
        }
        let seq = self.next_seq;
        let path = self.dir.join(crate::manifest::segment_file_name(seq));
        fleetio_model::atomic_write(&path, &self.seg_buf)?;
        self.manifest.segments.push(SegmentMeta {
            seq,
            events: self.seg_events,
            bytes: self.seg_buf.len() as u64,
            first_event: self.total_events - self.seg_events,
            min_at_ns: self.seg_min_at,
            max_at_ns: self.seg_max_at,
            tenant_bits: self.seg_tenant_bits,
            kind_bits: self.seg_kind_bits,
        });
        self.manifest.total_events = self.total_events;
        self.manifest.stream_fingerprint = self.fp.finish();
        self.manifest.save(&self.dir)?;
        self.next_seq += 1;
        self.begin_segment();
        Ok(())
    }

    /// Writes a replay anchor at the current stream position: an
    /// `anchor-<window>.fiom` container (via `fleetio-model`) plus a
    /// manifest entry. Call between windows, never mid-window.
    ///
    /// # Errors
    ///
    /// A previously latched failure, or the anchor/manifest write
    /// failing.
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
        let path = self.dir.join(anchor_file_name(window));
        anchor.save(&path)?;
        self.manifest.anchors.push(AnchorMeta {
            window,
            at_ns,
            event_count: self.total_events,
        });
        self.manifest.save(&self.dir)?;
        Ok(anchor)
    }

    /// Seals the final segment, marks the manifest sealed and writes it.
    /// Returns the final manifest.
    ///
    /// # Errors
    ///
    /// A latched recording failure or the final writes failing — either
    /// way the on-disk manifest stays `sealed = false`.
    pub fn finish(mut self) -> io::Result<Manifest> {
        if let Some(e) = self.error.take() {
            return Err(io::Error::other(e));
        }
        self.seal_segment()?;
        self.manifest.sealed = true;
        self.manifest.total_events = self.total_events;
        self.manifest.stream_fingerprint = self.fp.finish();
        self.manifest.save(&self.dir)?;
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
            if let Err(e) = self.seal_segment() {
                self.error = Some(format!("sealing segment {}: {e}", self.next_seq));
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
