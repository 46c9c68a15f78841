//! The run manifest: the store directory's index and provenance record.
//!
//! One `manifest.fiom` per store directory, a `FIOM` container of kind
//! [`PayloadKind::StoreManifest`] so the container framing + CRC are
//! shared with model checkpoints (`fleetio model verify` can sanity-check
//! a manifest without understanding its payload). The payload carries:
//!
//! * provenance — seed, decision-window length, the serialized
//!   [`fleetio::RunSpec`] blob and its CRC-32 fingerprint,
//! * the per-segment sparse index ([`SegmentMeta`]: event count, byte
//!   size, running first-event index, min/max sim-time, tenant bitmap,
//!   event-kind bitmap) that lets `query` skip segments wholesale,
//! * every replay anchor recorded during the run ([`AnchorMeta`]: the
//!   window, its sim-time and the events before it), and
//! * stream totals (`total_events`, FNV-1a `stream_fingerprint`) plus a
//!   `sealed` flag distinguishing a finished run from a crashed one.
//!
//! The manifest is rewritten via [`fleetio_model::AtomicBatch::commit`]
//! once per group of segment seals, at every anchor and at the final
//! seal, each time after the directory sync that makes the files it lists
//! durable, so the on-disk index is never torn, lists only durable files,
//! and at worst trails the unsealed tail and the six sealed segments the
//! sink's writer may have queued or uncommitted (see `sink`).

use std::io;
use std::path::{Path, PathBuf};

use fleetio_des::codec::{decode_container, encode_container, Dec, DecodeError, Enc, PayloadKind};
use fleetio_model::atomic_write;

use crate::read::StoreError;

/// Store format version carried in the manifest payload.
pub const STORE_VERSION: u32 = 1;

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.fiom";

/// Sparse index entry for one sealed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment sequence number (also in the segment file's header).
    pub seq: u32,
    /// Events in the segment.
    pub events: u64,
    /// Segment file size in bytes (header + records).
    pub bytes: u64,
    /// Index of the segment's first event in the whole run stream.
    pub first_event: u64,
    /// Minimum event timestamp in the segment, nanoseconds.
    pub min_at_ns: u64,
    /// Maximum event timestamp in the segment, nanoseconds.
    pub max_at_ns: u64,
    /// Tenant bitmap: bit `vssd % 64` is set for every event that names
    /// a vSSD. Collisions (ids ≥ 64) only widen the filter — a query
    /// may read a segment needlessly, never skip one wrongly.
    pub tenant_bits: u64,
    /// Event-kind bitmap: bit [`fleetio_obs::ObsEvent::kind_index`].
    pub kind_bits: u32,
}

impl SegmentMeta {
    /// The segment's file name (`seg-<seq:05>.seg`).
    pub fn file_name(&self) -> String {
        segment_file_name(self.seq)
    }
}

/// The deterministic file name of segment `seq`.
pub fn segment_file_name(seq: u32) -> String {
    format!("seg-{seq:05}.seg")
}

/// Manifest entry for one replay anchor recorded during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorMeta {
    /// Decision windows completed at the anchor.
    pub window: u64,
    /// Simulation time of the anchor, nanoseconds.
    pub at_ns: u64,
    /// Events emitted strictly before the anchor.
    pub event_count: u64,
}

/// The decoded manifest payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Store format version ([`STORE_VERSION`]).
    pub version: u32,
    /// Top-level run seed (from the spec; inlined for `info` output).
    pub seed: u64,
    /// Decision-window length in nanoseconds (window aggregation).
    pub window_ns: u64,
    /// CRC-32 fingerprint of `spec`.
    pub spec_fingerprint: u32,
    /// The serialized [`fleetio::RunSpec`] (opaque at this layer).
    pub spec: Vec<u8>,
    /// Whether the recording finished cleanly (`StoreSink::finish`).
    pub sealed: bool,
    /// Total events across all sealed segments.
    pub total_events: u64,
    /// FNV-1a 64 over every encoded event payload, in stream order.
    pub stream_fingerprint: u64,
    /// Sealed segments, in sequence order.
    pub segments: Vec<SegmentMeta>,
    /// Replay anchors, in window order.
    pub anchors: Vec<AnchorMeta>,
}

impl Manifest {
    /// Encodes the manifest payload (no container framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Enc::new(&mut out);
        enc.u32(self.version);
        enc.u64(self.seed);
        enc.u64(self.window_ns);
        enc.u32(self.spec_fingerprint);
        enc.usize(self.spec.len());
        for &b in &self.spec {
            enc.u8(b);
        }
        enc.bool(self.sealed);
        enc.u64(self.total_events);
        enc.u64(self.stream_fingerprint);
        enc.usize(self.segments.len());
        for s in &self.segments {
            enc.u32(s.seq);
            enc.u64(s.events);
            enc.u64(s.bytes);
            enc.u64(s.first_event);
            enc.u64(s.min_at_ns);
            enc.u64(s.max_at_ns);
            enc.u64(s.tenant_bits);
            enc.u32(s.kind_bits);
        }
        enc.usize(self.anchors.len());
        for a in &self.anchors {
            enc.u64(a.window);
            enc.u64(a.at_ns);
            enc.u64(a.event_count);
        }
        out
    }

    /// Decodes a payload written by [`Manifest::encode`].
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes, an unsupported store version or
    /// implausible lengths.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Dec::new(payload);
        let version = dec.u32()?;
        if version != STORE_VERSION {
            return Err(DecodeError::Malformed(format!("store version {version}")));
        }
        let seed = dec.u64()?;
        let window_ns = dec.u64()?;
        let spec_fingerprint = dec.u32()?;
        let spec_len = dec.len(1)?;
        let mut spec = Vec::with_capacity(spec_len);
        for _ in 0..spec_len {
            spec.push(dec.u8()?);
        }
        let sealed = dec.bool()?;
        let total_events = dec.u64()?;
        let stream_fingerprint = dec.u64()?;
        let n_segments = dec.len(8)?;
        let mut segments = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            segments.push(SegmentMeta {
                seq: dec.u32()?,
                events: dec.u64()?,
                bytes: dec.u64()?,
                first_event: dec.u64()?,
                min_at_ns: dec.u64()?,
                max_at_ns: dec.u64()?,
                tenant_bits: dec.u64()?,
                kind_bits: dec.u32()?,
            });
        }
        let n_anchors = dec.len(8)?;
        let mut anchors = Vec::with_capacity(n_anchors);
        for _ in 0..n_anchors {
            anchors.push(AnchorMeta {
                window: dec.u64()?,
                at_ns: dec.u64()?,
                event_count: dec.u64()?,
            });
        }
        dec.finish()?;
        Ok(Manifest {
            version,
            seed,
            window_ns,
            spec_fingerprint,
            spec,
            sealed,
            total_events,
            stream_fingerprint,
            segments,
            anchors,
        })
    }

    /// The manifest wrapped in its `FIOM` container.
    pub fn to_container(&self) -> Vec<u8> {
        encode_container(PayloadKind::StoreManifest, &self.encode())
    }

    /// Parses a `FIOM` container holding a manifest.
    ///
    /// # Errors
    ///
    /// Container corruption or a payload of a different kind.
    pub fn from_container(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (kind, payload) = decode_container(bytes)?;
        if kind != PayloadKind::StoreManifest {
            return Err(DecodeError::Malformed(format!(
                "expected store-manifest container, found {}",
                kind.name()
            )));
        }
        Manifest::decode(payload)
    }

    /// Atomically writes the manifest into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failure.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_write(&dir.join(MANIFEST_FILE), &self.to_container())
    }

    /// Reads and verifies the manifest of the store at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read (a missing store
    /// among them); [`StoreError::Corrupt`] when it is read but fails
    /// its container check. Both name the file.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes =
            std::fs::read(&path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        Manifest::from_container(&bytes)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Path of segment `seq` under `dir`.
    pub fn segment_path(&self, dir: &Path, seq: u32) -> PathBuf {
        dir.join(segment_file_name(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: STORE_VERSION,
            seed: 42,
            window_ns: 500_000_000,
            spec_fingerprint: 0xABCD_EF01,
            spec: vec![1, 2, 3, 4, 5],
            sealed: true,
            total_events: 1000,
            stream_fingerprint: 0x1122_3344_5566_7788,
            segments: vec![
                SegmentMeta {
                    seq: 0,
                    events: 600,
                    bytes: 40_000,
                    first_event: 0,
                    min_at_ns: 0,
                    max_at_ns: 900_000_000,
                    tenant_bits: 0b1111,
                    kind_bits: 0b111_1111_1111,
                },
                SegmentMeta {
                    seq: 1,
                    events: 400,
                    bytes: 27_000,
                    first_event: 600,
                    min_at_ns: 900_000_001,
                    max_at_ns: 3_000_000_000,
                    tenant_bits: 0b0011,
                    kind_bits: 0b000_0000_1111,
                },
            ],
            anchors: vec![
                AnchorMeta {
                    window: 2,
                    at_ns: 1_000_000_000,
                    event_count: 640,
                },
                AnchorMeta {
                    window: 4,
                    at_ns: 2_000_000_000,
                    event_count: 800,
                },
            ],
        }
    }

    #[test]
    fn container_round_trip() {
        let m = sample();
        let back = Manifest::from_container(&m.to_container()).expect("fresh manifest decodes");
        assert_eq!(back, m);
    }

    #[test]
    fn corruption_never_panics_and_is_rejected() {
        let bytes = sample().to_container();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_container(&bytes[..cut]).is_err());
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x08;
            // The container CRC catches payload flips; header flips are
            // caught by field checks or re-tag to a non-manifest kind.
            assert!(
                Manifest::from_container(&bad).is_err(),
                "flip at byte {byte} decoded"
            );
        }
    }

    #[test]
    fn file_names_are_stable() {
        assert_eq!(segment_file_name(0), "seg-00000.seg");
        assert_eq!(segment_file_name(42), "seg-00042.seg");
    }
}
