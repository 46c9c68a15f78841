//! Binary wire encoding of [`ObsEvent`] streams and the run-store
//! segment framing built on top of it.
//!
//! This module is the single source of truth for how events look on
//! disk, shared by the `fleetio-store` writer and reader (through which
//! `fleetio obs summarize` reads a store directory). Three layers:
//!
//! 1. **Event payload** — one tag byte ([`ObsEvent::kind_index`])
//!    followed by the variant's fields in declaration order, each in the
//!    form its type has in [`fleetio_des::codec`]: little-endian
//!    fixed-width integers, `f64` as IEEE bits (`to_bits`, bit-exact
//!    round-trip), `Option` as a one-byte flag, strings length-prefixed.
//!    The layout of each kind is generated from its one row in
//!    [`crate::event`]; nothing here knows a variant by name. Two events
//!    are equal iff their encodings are byte-equal, which is what makes
//!    run diffing and replay verification exact even for NaN-carrying
//!    window statistics.
//! 2. **Record frame** — `[len: u32][crc: u32][payload]` with
//!    CRC-32/IEEE over the payload, mirroring the `FIOM` container
//!    convention. The length is capped so a corrupt length can never
//!    over-allocate.
//! 3. **Segment** — a `FSG1` header (magic, format version, segment
//!    sequence number) followed by records to end-of-file.
//!
//! Scanning is *tolerant*: [`scan_segment`] never panics on arbitrary
//! bytes — it walks records until the first framing/CRC violation and
//! reports everything decoded up to that point plus a [`SegmentDamage`]
//! describing where and why it stopped. Because segments are
//! independently framed files, damage in one segment never hides the
//! others.

use std::fmt;
use std::ops::Range;

use fleetio_des::codec::{DecodeError, Enc};
use fleetio_des::hash::crc32;

use crate::event::ObsEvent;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: [u8; 4] = *b"FSG1";

/// Current segment format version.
pub const SEG_VERSION: u32 = 1;

/// Segment header length: magic + version + sequence number.
pub const SEG_HEADER_LEN: usize = 12;

/// Record frame header length: payload length + payload CRC.
pub const REC_HEADER_LEN: usize = 8;

/// Upper bound on a single record payload. Real events encode in well
/// under 100 bytes; the cap exists so a corrupt length field cannot
/// drive allocation or scanning past sanity.
pub const MAX_RECORD_LEN: u32 = 1 << 16;

/// Appends the binary encoding of `ev` to `out` (tag byte + fields).
pub fn encode_event(ev: &ObsEvent, out: &mut Vec<u8>) {
    ev.encode(out);
}

/// Decodes one event payload produced by [`encode_event`]. Rejects
/// unknown tags, truncation and trailing bytes; never panics.
pub fn decode_event(payload: &[u8]) -> Result<ObsEvent, DecodeError> {
    ObsEvent::decode(payload)
}

// ---------------------------------------------------------------------------
// Record framing and segment scanning
// ---------------------------------------------------------------------------

/// Appends one framed record (`len + crc + payload`) to `out`.
pub fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= u64::from(MAX_RECORD_LEN));
    let mut e = Enc::new(out);
    e.u32(payload.len() as u32);
    e.u32(crc32(payload));
    out.extend_from_slice(payload);
}

/// Appends `ev` to `out` as one framed record, encoding the payload in
/// place behind a reserved frame header that is patched once the length
/// and CRC are known — byte-for-byte what [`encode_event`] into a scratch
/// buffer followed by [`push_record`] appends, without the scratch copy.
/// Returns the payload's byte range in `out`.
pub fn push_event_record(out: &mut Vec<u8>, ev: &ObsEvent) -> Range<usize> {
    let head = out.len();
    out.extend_from_slice(&[0; REC_HEADER_LEN]);
    encode_event(ev, out);
    let start = head + REC_HEADER_LEN;
    let len = out.len() - start;
    debug_assert!(len as u64 <= u64::from(MAX_RECORD_LEN));
    let crc = crc32(&out[start..]);
    out[head..head + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[head + 4..start].copy_from_slice(&crc.to_le_bytes());
    start..out.len()
}

/// Appends the 12-byte segment header for segment `seq` to `out`.
pub fn push_segment_header(out: &mut Vec<u8>, seq: u32) {
    out.extend_from_slice(&SEG_MAGIC);
    let mut e = Enc::new(out);
    e.u32(SEG_VERSION);
    e.u32(seq);
}

/// Where and why a segment scan stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentDamage {
    /// Byte offset of the first violated frame.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for SegmentDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

/// Result of scanning one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Sequence number from the header, when the header was intact.
    pub seq: Option<u32>,
    /// Payload byte ranges of every record whose frame and CRC checked
    /// out, in file order. Index into the scanned byte slice.
    pub records: Vec<Range<usize>>,
    /// First framing/CRC violation, if any. Records before it are good.
    pub damage: Option<SegmentDamage>,
}

/// Walks a segment's bytes, CRC-validating each record frame. Stops at
/// the first violation and reports it; never panics on arbitrary input.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        seq: None,
        records: Vec::new(),
        damage: None,
    };
    if bytes.len() < SEG_HEADER_LEN {
        scan.damage = Some(SegmentDamage {
            offset: 0,
            reason: "segment shorter than header".to_string(),
        });
        return scan;
    }
    if bytes[..4] != SEG_MAGIC {
        scan.damage = Some(SegmentDamage {
            offset: 0,
            reason: "bad segment magic".to_string(),
        });
        return scan;
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != SEG_VERSION {
        scan.damage = Some(SegmentDamage {
            offset: 4,
            reason: format!("unsupported segment version {version}"),
        });
        return scan;
    }
    scan.seq = Some(u32::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11],
    ]));
    let mut pos = SEG_HEADER_LEN;
    while pos < bytes.len() {
        if pos + REC_HEADER_LEN > bytes.len() {
            scan.damage = Some(SegmentDamage {
                offset: pos,
                reason: "truncated record header".to_string(),
            });
            return scan;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len == 0 || len > MAX_RECORD_LEN {
            scan.damage = Some(SegmentDamage {
                offset: pos,
                reason: format!("implausible record length {len}"),
            });
            return scan;
        }
        let start = pos + REC_HEADER_LEN;
        let end = match start.checked_add(len as usize) {
            Some(e) if e <= bytes.len() => e,
            _ => {
                scan.damage = Some(SegmentDamage {
                    offset: pos,
                    reason: "record overruns segment".to_string(),
                });
                return scan;
            }
        };
        if crc32(&bytes[start..end]) != crc {
            scan.damage = Some(SegmentDamage {
                offset: pos,
                reason: "record CRC mismatch".to_string(),
            });
            return scan;
        }
        scan.records.push(start..end);
        pos = end;
    }
    scan
}

/// Scans a segment and decodes every intact record. A payload that
/// fails to decode (possible only via a CRC collision or a
/// writer/reader version skew) is reported as damage at its offset.
pub fn events_in_segment(bytes: &[u8]) -> (Vec<ObsEvent>, Option<SegmentDamage>) {
    events_in_scan(bytes, scan_segment(bytes))
}

/// [`events_in_segment`] for bytes already scanned: `scan` must be
/// [`scan_segment`]`(bytes)`, taken where the bytes were read.
pub fn events_in_scan(bytes: &[u8], scan: SegmentScan) -> (Vec<ObsEvent>, Option<SegmentDamage>) {
    let mut events = Vec::with_capacity(scan.records.len());
    for r in &scan.records {
        match decode_event(&bytes[r.clone()]) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                return (
                    events,
                    Some(SegmentDamage {
                        offset: r.start,
                        reason: format!("undecodable record: {e}"),
                    }),
                );
            }
        }
    }
    (events, scan.damage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::sample_events;

    #[test]
    fn every_event_round_trips_bit_exact() {
        for ev in sample_events() {
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            let back = decode_event(&buf).unwrap_or_else(|e| panic!("{}: {e}", ev.tag()));
            // Compare re-encodings: byte equality is the ground truth
            // (PartialEq on f64 would reject identical NaNs).
            let mut buf2 = Vec::new();
            encode_event(&back, &mut buf2);
            assert_eq!(buf, buf2, "{}", ev.tag());
            assert_eq!(back.kind_index(), ev.kind_index());
            assert_eq!(back.at(), ev.at());
        }
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        for ev in sample_events() {
            let mut buf = Vec::new();
            encode_event(&ev, &mut buf);
            for cut in 0..buf.len() {
                assert!(decode_event(&buf[..cut]).is_err() || cut == buf.len());
            }
            for bit in 0..buf.len() * 8 {
                let mut bad = buf.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_event(&bad); // must not panic; may or may not error
            }
        }
    }

    #[test]
    fn in_place_framing_equals_encode_then_push_record() {
        let mut in_place = vec![0xAA; 3];
        let mut copied = in_place.clone();
        for ev in sample_events() {
            let range = push_event_record(&mut in_place, &ev);
            let mut payload = Vec::new();
            encode_event(&ev, &mut payload);
            push_record(&mut copied, &payload);
            assert_eq!(in_place, copied, "{}", ev.tag());
            assert_eq!(&in_place[range], &payload[..], "{}", ev.tag());
        }
    }

    #[test]
    fn segment_round_trip_and_damage_isolation() {
        let events = sample_events();
        let mut seg = Vec::new();
        push_segment_header(&mut seg, 5);
        for ev in &events {
            let mut payload = Vec::new();
            encode_event(ev, &mut payload);
            push_record(&mut seg, &payload);
        }

        let scan = scan_segment(&seg);
        assert_eq!(scan.seq, Some(5));
        assert_eq!(scan.records.len(), events.len());
        assert!(scan.damage.is_none());
        let (decoded, damage) = events_in_segment(&seg);
        assert!(damage.is_none());
        assert_eq!(decoded.len(), events.len());

        // Flip one payload byte of the 3rd record: records before it
        // survive, the rest of the segment is reported damaged.
        let victim = scan.records[2].start;
        let mut bad = seg.clone();
        bad[victim] ^= 0x40;
        let bad_scan = scan_segment(&bad);
        assert_eq!(bad_scan.records.len(), 2);
        let dmg = bad_scan.damage.expect("flip must be detected");
        assert!(dmg.reason.contains("CRC"), "{dmg}");

        // Truncate mid-record: same isolation guarantee.
        let cut = scan.records[4].start + 1;
        let cut_scan = scan_segment(&seg[..cut]);
        assert_eq!(cut_scan.records.len(), 4);
        assert!(cut_scan.damage.is_some());

        // Arbitrary garbage: never panics.
        let garbage: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
        let g = scan_segment(&garbage);
        assert!(g.damage.is_some());
    }
}
