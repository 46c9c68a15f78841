//! Run-store replay anchors.
//!
//! A [`RunAnchor`] is the checkpoint hook the deterministic run store
//! (`crates/store`) drops at window boundaries while recording a run. It
//! does *not* snapshot engine state — the DES engine's in-flight queues,
//! flash arrays and RNG streams are deliberately not serializable —
//! instead it pins three facts that make checkpoint-anchored replay
//! *verifiable*:
//!
//! * where the run was (`window`, `at_ns`, `event_count`),
//! * what the event stream looked like up to that point
//!   (`stream_fingerprint`, a streaming FNV-1a over the encoded event
//!   payloads), and
//! * what produced it (`seed`, `spec_fingerprint` of the serialized run
//!   spec, and optionally the `fleetio-model` registry tag of a model
//!   checkpoint saved at the same boundary).
//!
//! Replay re-simulates from the spec, hash-checks the prefix against the
//! nearest anchor, and byte-compares the suffix against the stored
//! stream. Anchors ride the same `FIOM` container format as model
//! checkpoints ([`PayloadKind::RunAnchor`]), so `fleetio model
//! inspect/verify` understands them and a torn write or bit flip is
//! caught by the container CRC before any field is trusted.

use std::io;
use std::path::Path;

use fleetio_des::codec::{decode_container, encode_container, Dec, DecodeError, Enc, PayloadKind};

use crate::atomic::atomic_write;

/// A replay anchor recorded at a decision-window boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunAnchor {
    /// Decision windows completed when the anchor was taken.
    pub window: u64,
    /// Simulation time of the anchor, nanoseconds.
    pub at_ns: u64,
    /// Events emitted to the store strictly before the anchor.
    pub event_count: u64,
    /// FNV-1a 64 over the concatenated binary event payloads emitted
    /// strictly before the anchor ([`fleetio_des::hash::Fnv64`]).
    pub stream_fingerprint: u64,
    /// CRC-32 of the serialized run spec this run was recorded from.
    pub spec_fingerprint: u32,
    /// Top-level run seed (redundant with the spec; kept inline so an
    /// anchor is interpretable on its own).
    pub seed: u64,
    /// Registry tag of a model checkpoint saved at the same boundary,
    /// or empty when the run records no model lifecycle.
    pub model_tag: String,
}

impl RunAnchor {
    /// Encodes the anchor payload (no container framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut enc = Enc::new(&mut out);
        enc.u64(self.window);
        enc.u64(self.at_ns);
        enc.u64(self.event_count);
        enc.u64(self.stream_fingerprint);
        enc.u32(self.spec_fingerprint);
        enc.u64(self.seed);
        enc.str(&self.model_tag);
        out
    }

    /// Decodes an anchor payload written by [`RunAnchor::encode`].
    ///
    /// # Errors
    ///
    /// Truncation, trailing bytes or a malformed string field.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Dec::new(payload);
        let anchor = RunAnchor {
            window: dec.u64()?,
            at_ns: dec.u64()?,
            event_count: dec.u64()?,
            stream_fingerprint: dec.u64()?,
            spec_fingerprint: dec.u32()?,
            seed: dec.u64()?,
            model_tag: dec.str()?,
        };
        dec.finish()?;
        Ok(anchor)
    }

    /// The anchor wrapped in its `FIOM` container.
    pub fn to_container(&self) -> Vec<u8> {
        encode_container(PayloadKind::RunAnchor, &self.encode())
    }

    /// Parses a `FIOM` container holding an anchor.
    ///
    /// # Errors
    ///
    /// Container-level corruption (magic/version/CRC) or a payload of a
    /// different kind.
    pub fn from_container(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (kind, payload) = decode_container(bytes)?;
        if kind != PayloadKind::RunAnchor {
            return Err(DecodeError::Malformed(format!(
                "expected run-anchor container, found {}",
                kind.name()
            )));
        }
        RunAnchor::decode(payload)
    }

    /// Atomically writes the anchor container to `path`
    /// (tmp + fsync + rename, the sanctioned [`atomic_write`] path).
    ///
    /// # Errors
    ///
    /// Propagates I/O failure.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_container())
    }

    /// Reads and CRC-verifies an anchor container from `path`.
    ///
    /// # Errors
    ///
    /// I/O failure is surfaced as a [`DecodeError::Malformed`] with the
    /// OS message; corruption as the underlying decode error.
    pub fn load(path: &Path) -> Result<Self, DecodeError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DecodeError::Malformed(format!("cannot read {}: {e}", path.display())))?;
        RunAnchor::from_container(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunAnchor {
        RunAnchor {
            window: 12,
            at_ns: 6_000_000_000,
            event_count: 123_456,
            stream_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            spec_fingerprint: 0x1234_5678,
            seed: 42,
            model_tag: "ycsb".to_string(),
        }
    }

    #[test]
    fn container_round_trip() {
        let anchor = sample();
        let bytes = anchor.to_container();
        let back = RunAnchor::from_container(&bytes).expect("fresh anchor decodes");
        assert_eq!(back, anchor);
    }

    #[test]
    fn wrong_kind_and_corruption_rejected() {
        let anchor = sample();
        let wrong = encode_container(PayloadKind::ModelCheckpoint, &anchor.encode());
        assert!(RunAnchor::from_container(&wrong).is_err());
        let bytes = anchor.to_container();
        for cut in 0..bytes.len() {
            assert!(RunAnchor::from_container(&bytes[..cut]).is_err());
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert!(
                RunAnchor::from_container(&bad).is_err(),
                "flip at byte {byte} decoded"
            );
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("fleetio-anchor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("anchor-00012.fiom");
        let anchor = sample();
        anchor.save(&path).expect("save anchor");
        assert_eq!(RunAnchor::load(&path).expect("load anchor"), anchor);
        std::fs::remove_dir_all(&dir).ok();
    }
}
