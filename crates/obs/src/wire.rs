//! Binary wire encoding of [`ObsEvent`] streams and the run-store
//! segment framing built on top of it.
//!
//! This module is the single source of truth for how events look on
//! disk, shared by the `fleetio-store` writer/reader and by
//! `fleetio-obs summarize` (which can read a store directory without
//! depending on the store crate). Three layers:
//!
//! 1. **Event payload** — one tag byte ([`ObsEvent::kind_index`])
//!    followed by the variant's fields, little-endian fixed-width
//!    integers, `f64` as IEEE bits (`to_bits`, bit-exact round-trip),
//!    `Option` as a one-byte flag, strings length-prefixed. Two events
//!    are equal iff their encodings are byte-equal, which is what makes
//!    run diffing and replay verification exact even for NaN-carrying
//!    window statistics.
//! 2. **Record frame** — `[len: u32][crc: u32][payload]` with
//!    CRC-32/IEEE over the payload, mirroring the `FIOM` container
//!    convention in `crates/model`. The length is capped so a corrupt
//!    length can never over-allocate.
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

use fleetio_des::hash::crc32;
use fleetio_des::{SimDuration, SimTime};

use crate::event::{GsbKind, MigrationCause, ModelKind, NandKind, ObsEvent};

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

/// Why a decode or scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the field being read required.
    Truncated,
    /// Unknown event kind or enum tag byte.
    BadTag(u8),
    /// A length field exceeded its cap or the remaining buffer.
    BadLength(u64),
    /// A string field was not UTF-8.
    BadString,
    /// Bytes remained after the last field of an event payload.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::BadString => write!(f, "non-UTF-8 string"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after event"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Event payload codec
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends the binary encoding of `ev` to `out` (tag byte + fields).
pub fn encode_event(ev: &ObsEvent, out: &mut Vec<u8>) {
    out.push(ev.kind_index());
    match *ev {
        ObsEvent::RequestSubmit {
            at,
            req,
            vssd,
            read,
            bytes,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, req);
            put_u32(out, vssd);
            put_bool(out, read);
            put_u64(out, bytes);
        }
        ObsEvent::RequestAdmit {
            at,
            req,
            vssd,
            pages,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, req);
            put_u32(out, vssd);
            put_u32(out, pages);
        }
        ObsEvent::ChipIssue {
            at,
            req,
            vssd,
            channel,
            chip,
            read,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, req);
            put_u32(out, vssd);
            put_u16(out, channel);
            put_u16(out, chip);
            put_bool(out, read);
        }
        ObsEvent::RequestComplete {
            at,
            req,
            vssd,
            read,
            bytes,
            arrival,
            service_start,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, req);
            put_u32(out, vssd);
            put_bool(out, read);
            put_u64(out, bytes);
            put_u64(out, arrival.as_nanos());
            put_u64(out, service_start.as_nanos());
        }
        ObsEvent::NandOp {
            start,
            end,
            vssd,
            channel,
            chip,
            kind,
            gc,
            bytes,
        } => {
            put_u64(out, start.as_nanos());
            put_u64(out, end.as_nanos());
            put_u32(out, vssd);
            put_u16(out, channel);
            put_u16(out, chip);
            out.push(kind.wire_tag());
            put_bool(out, gc);
            put_u64(out, bytes);
        }
        ObsEvent::GcStart {
            at,
            job,
            vssd,
            channel,
            chip,
            live_pages,
            emergency,
        } => {
            put_u64(out, at.as_nanos());
            match job {
                Some(j) => {
                    out.push(1);
                    put_u64(out, j);
                }
                None => out.push(0),
            }
            put_u32(out, vssd);
            put_u16(out, channel);
            put_u16(out, chip);
            put_u32(out, live_pages);
            put_bool(out, emergency);
        }
        ObsEvent::GcEnd {
            at,
            job,
            vssd,
            channel,
            chip,
            busy,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, job);
            put_u32(out, vssd);
            put_u16(out, channel);
            put_u16(out, chip);
            put_u64(out, busy.as_nanos());
        }
        ObsEvent::GsbTransition {
            at,
            gsb,
            home,
            harvester,
            kind,
            channels,
        } => {
            put_u64(out, at.as_nanos());
            put_u64(out, gsb);
            put_u32(out, home);
            match harvester {
                Some(h) => {
                    out.push(1);
                    put_u32(out, h);
                }
                None => out.push(0),
            }
            out.push(kind.wire_tag());
            put_u16(out, channels);
        }
        ObsEvent::Throttle { at, channel, until } => {
            put_u64(out, at.as_nanos());
            put_u16(out, channel);
            put_u64(out, until.as_nanos());
        }
        ObsEvent::WindowFlush {
            at,
            vssd,
            avg_bandwidth,
            avg_iops,
            p99_latency,
            slo_violation_rate,
            gc_busy_frac,
            total_bytes,
            total_ops,
        } => {
            put_u64(out, at.as_nanos());
            put_u32(out, vssd);
            put_f64(out, avg_bandwidth);
            put_f64(out, avg_iops);
            put_u64(out, p99_latency.as_nanos());
            put_f64(out, slo_violation_rate);
            put_f64(out, gc_busy_frac);
            put_u64(out, total_bytes);
            put_u64(out, total_ops);
        }
        ObsEvent::ModelLifecycle {
            at,
            kind,
            ref tag,
            update,
        } => {
            put_u64(out, at.as_nanos());
            out.push(kind.wire_tag());
            put_u32(out, tag.len() as u32);
            out.extend_from_slice(tag.as_bytes());
            put_u64(out, update);
        }
        ObsEvent::SloWindow {
            at,
            tenant,
            window,
            ops,
            p95,
            p99,
            throughput,
            p95_ok,
            p99_ok,
            throughput_ok,
            burn,
        } => {
            put_u64(out, at.as_nanos());
            put_u32(out, tenant);
            put_u32(out, window);
            put_u64(out, ops);
            put_u64(out, p95.as_nanos());
            put_u64(out, p99.as_nanos());
            put_f64(out, throughput);
            put_bool(out, p95_ok);
            put_bool(out, p99_ok);
            put_bool(out, throughput_ok);
            put_f64(out, burn);
        }
        ObsEvent::FleetMigration {
            at,
            window,
            tenant,
            from_shard,
            from_slot,
            to_shard,
            to_slot,
            cause,
            mean_util,
            src_util,
            dst_util,
            src_util_after,
            dst_util_after,
        } => {
            put_u64(out, at.as_nanos());
            put_u32(out, window);
            put_u32(out, tenant);
            put_u32(out, from_shard);
            put_u32(out, from_slot);
            put_u32(out, to_shard);
            put_u32(out, to_slot);
            out.push(cause.wire_tag());
            put_f64(out, mean_util);
            put_f64(out, src_util);
            put_f64(out, dst_util);
            put_f64(out, src_util_after);
            put_f64(out, dst_util_after);
        }
    }
}

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn time(&mut self) -> Result<SimTime, WireError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    fn dur(&mut self) -> Result<SimDuration, WireError> {
        Ok(SimDuration::from_nanos(self.u64()?))
    }

    fn str(&mut self, cap: usize) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(WireError::BadLength(len as u64));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

/// Decodes one event payload produced by [`encode_event`]. Rejects
/// unknown tags, truncation and trailing bytes; never panics.
pub fn decode_event(payload: &[u8]) -> Result<ObsEvent, WireError> {
    let mut r = Rd {
        buf: payload,
        pos: 0,
    };
    let kind = r.u8()?;
    let ev = match kind {
        0 => ObsEvent::RequestSubmit {
            at: r.time()?,
            req: r.u64()?,
            vssd: r.u32()?,
            read: r.bool()?,
            bytes: r.u64()?,
        },
        1 => ObsEvent::RequestAdmit {
            at: r.time()?,
            req: r.u64()?,
            vssd: r.u32()?,
            pages: r.u32()?,
        },
        2 => ObsEvent::ChipIssue {
            at: r.time()?,
            req: r.u64()?,
            vssd: r.u32()?,
            channel: r.u16()?,
            chip: r.u16()?,
            read: r.bool()?,
        },
        3 => ObsEvent::RequestComplete {
            at: r.time()?,
            req: r.u64()?,
            vssd: r.u32()?,
            read: r.bool()?,
            bytes: r.u64()?,
            arrival: r.time()?,
            service_start: r.time()?,
        },
        4 => ObsEvent::NandOp {
            start: r.time()?,
            end: r.time()?,
            vssd: r.u32()?,
            channel: r.u16()?,
            chip: r.u16()?,
            kind: {
                let t = r.u8()?;
                NandKind::from_wire_tag(t).ok_or(WireError::BadTag(t))?
            },
            gc: r.bool()?,
            bytes: r.u64()?,
        },
        5 => ObsEvent::GcStart {
            at: r.time()?,
            job: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                t => return Err(WireError::BadTag(t)),
            },
            vssd: r.u32()?,
            channel: r.u16()?,
            chip: r.u16()?,
            live_pages: r.u32()?,
            emergency: r.bool()?,
        },
        6 => ObsEvent::GcEnd {
            at: r.time()?,
            job: r.u64()?,
            vssd: r.u32()?,
            channel: r.u16()?,
            chip: r.u16()?,
            busy: r.dur()?,
        },
        7 => ObsEvent::GsbTransition {
            at: r.time()?,
            gsb: r.u64()?,
            home: r.u32()?,
            harvester: match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                t => return Err(WireError::BadTag(t)),
            },
            kind: {
                let t = r.u8()?;
                GsbKind::from_wire_tag(t).ok_or(WireError::BadTag(t))?
            },
            channels: r.u16()?,
        },
        8 => ObsEvent::Throttle {
            at: r.time()?,
            channel: r.u16()?,
            until: r.time()?,
        },
        9 => ObsEvent::WindowFlush {
            at: r.time()?,
            vssd: r.u32()?,
            avg_bandwidth: r.f64()?,
            avg_iops: r.f64()?,
            p99_latency: r.dur()?,
            slo_violation_rate: r.f64()?,
            gc_busy_frac: r.f64()?,
            total_bytes: r.u64()?,
            total_ops: r.u64()?,
        },
        10 => ObsEvent::ModelLifecycle {
            at: r.time()?,
            kind: {
                let t = r.u8()?;
                ModelKind::from_wire_tag(t).ok_or(WireError::BadTag(t))?
            },
            tag: r.str(4096)?,
            update: r.u64()?,
        },
        11 => ObsEvent::SloWindow {
            at: r.time()?,
            tenant: r.u32()?,
            window: r.u32()?,
            ops: r.u64()?,
            p95: r.dur()?,
            p99: r.dur()?,
            throughput: r.f64()?,
            p95_ok: r.bool()?,
            p99_ok: r.bool()?,
            throughput_ok: r.bool()?,
            burn: r.f64()?,
        },
        12 => ObsEvent::FleetMigration {
            at: r.time()?,
            window: r.u32()?,
            tenant: r.u32()?,
            from_shard: r.u32()?,
            from_slot: r.u32()?,
            to_shard: r.u32()?,
            to_slot: r.u32()?,
            cause: {
                let t = r.u8()?;
                MigrationCause::from_wire_tag(t).ok_or(WireError::BadTag(t))?
            },
            mean_util: r.f64()?,
            src_util: r.f64()?,
            dst_util: r.f64()?,
            src_util_after: r.f64()?,
            dst_util_after: r.f64()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(ev)
}

// ---------------------------------------------------------------------------
// Record framing and segment scanning
// ---------------------------------------------------------------------------

/// Appends one framed record (`len + crc + payload`) to `out`.
pub fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= u64::from(MAX_RECORD_LEN));
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
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
    put_u32(out, SEG_VERSION);
    put_u32(out, seq);
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
    let scan = scan_segment(bytes);
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

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::RequestSubmit {
                at: SimTime::from_micros(3),
                req: 7,
                vssd: 1,
                read: true,
                bytes: 4096,
            },
            ObsEvent::RequestAdmit {
                at: SimTime::from_micros(4),
                req: 7,
                vssd: 1,
                pages: 2,
            },
            ObsEvent::ChipIssue {
                at: SimTime::from_micros(5),
                req: 7,
                vssd: 1,
                channel: 3,
                chip: 2,
                read: false,
            },
            ObsEvent::RequestComplete {
                at: SimTime::from_micros(9),
                req: 7,
                vssd: 1,
                read: false,
                bytes: 512,
                arrival: SimTime::from_micros(3),
                service_start: SimTime::from_micros(5),
            },
            ObsEvent::NandOp {
                start: SimTime::ZERO,
                end: SimTime::from_micros(5),
                vssd: 0,
                channel: 0,
                chip: 0,
                kind: NandKind::BusGrant,
                gc: true,
                bytes: 4096,
            },
            ObsEvent::GcStart {
                at: SimTime::ZERO,
                job: None,
                vssd: 0,
                channel: 0,
                chip: 0,
                live_pages: 3,
                emergency: true,
            },
            ObsEvent::GcStart {
                at: SimTime::from_micros(1),
                job: Some(11),
                vssd: 0,
                channel: 0,
                chip: 1,
                live_pages: 9,
                emergency: false,
            },
            ObsEvent::GcEnd {
                at: SimTime::from_millis(1),
                job: 4,
                vssd: 0,
                channel: 0,
                chip: 0,
                busy: SimDuration::from_micros(800),
            },
            ObsEvent::GsbTransition {
                at: SimTime::ZERO,
                gsb: 1,
                home: 0,
                harvester: Some(1),
                kind: GsbKind::Harvested,
                channels: 2,
            },
            ObsEvent::GsbTransition {
                at: SimTime::from_micros(2),
                gsb: 1,
                home: 0,
                harvester: None,
                kind: GsbKind::Created,
                channels: 2,
            },
            ObsEvent::Throttle {
                at: SimTime::ZERO,
                channel: 3,
                until: SimTime::from_micros(50),
            },
            ObsEvent::WindowFlush {
                at: SimTime::from_secs(2),
                vssd: 1,
                avg_bandwidth: 1.5e8,
                avg_iops: 4000.0,
                p99_latency: SimDuration::from_micros(900),
                slo_violation_rate: 0.01,
                gc_busy_frac: f64::NAN,
                total_bytes: 1 << 30,
                total_ops: 12345,
            },
            ObsEvent::ModelLifecycle {
                at: SimTime::from_secs(3),
                kind: ModelKind::RolledBack,
                tag: "lc1".to_string(),
                update: 42,
            },
            ObsEvent::SloWindow {
                at: SimTime::from_secs(4),
                tenant: 17,
                window: 3,
                ops: 900,
                p95: SimDuration::from_micros(850),
                p99: SimDuration::from_millis(3),
                throughput: 2.5e7,
                p95_ok: true,
                p99_ok: false,
                throughput_ok: true,
                burn: 0.25,
            },
            ObsEvent::FleetMigration {
                at: SimTime::from_secs(5),
                window: 4,
                tenant: 17,
                from_shard: 2,
                from_slot: 1,
                to_shard: 7,
                to_slot: 0,
                cause: MigrationCause::SpreadFactor,
                mean_util: 0.22,
                src_util: 0.81,
                dst_util: 0.05,
                src_util_after: 0.44,
                dst_util_after: 0.42,
            },
        ]
    }

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
