//! Binary wire encoding of [`ObsEvent`] streams and the run-store
//! segment framing built on top of it.
//!
//! This module is the single source of truth for how events look on
//! disk, shared by the `fleetio-store` writer and reader (through which
//! `fleetio obs summarize` reads a store directory). Three layers:
//!
//! 1. **Event payload** — one tag byte ([`ObsEvent::kind_index`])
//!    followed by the variant's fields in declaration order. Integers
//!    (`u16`, `u32`, `u64`, times and durations as `u64` nanoseconds, and
//!    the value inside an `Option`) take the segment format's integer
//!    form (`IntForm`): little-endian fixed-width in format 1, canonical
//!    LEB128 in format 2. Everything else is the same in both: `f64` as
//!    IEEE bits (`to_bits`, bit-exact round-trip), `bool`, sub-enum and
//!    `Option` flag bytes, and strings behind a `u32` length. The layout
//!    of each kind is generated from its one row in [`crate::event`];
//!    nothing here knows a variant by name. Both integer forms are
//!    canonical, so within one format two events are equal iff their
//!    encodings are byte-equal, which is what makes run diffing and
//!    replay verification exact even for NaN-carrying window statistics.
//! 2. **Record frame** — `[len][crc: u32][payload]` with CRC-32/IEEE over
//!    the payload, mirroring the `FIOM` container convention; `len` is a
//!    `u32` in the format's integer form. The length is capped so a
//!    corrupt length can never over-allocate.
//! 3. **Segment** — a `FSG1` header (magic, format version, segment
//!    sequence number, all fixed-width) followed by records to
//!    end-of-file.
//!
//! Writers always write [`WireFormat::CURRENT`]; readers take the format
//! from each segment's header ([`SegmentScan::format`]), so stores
//! recorded in format 1 stay readable.
//!
//! Scanning is *tolerant*: [`scan_segment`] never panics on arbitrary
//! bytes — it walks records until the first framing/CRC violation and
//! reports everything decoded up to that point plus a [`SegmentDamage`]
//! describing where and why it stopped. Because segments are
//! independently framed files, damage in one segment never hides the
//! others. Decoding is strict: a LEB128 integer with a redundant zero
//! byte, or wider than its field, is an error, never a second spelling
//! of a value.

use std::fmt;
use std::ops::Range;

use fleetio_des::codec::{Dec, DecodeError, Enc};
use fleetio_des::hash::crc32;

use crate::event::ObsEvent;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: [u8; 4] = *b"FSG1";

/// Segment header length: magic + version + sequence number.
pub const SEG_HEADER_LEN: usize = 12;

/// Upper bound on a single record payload. Real events encode in well
/// under 100 bytes; the cap exists so a corrupt length field cannot
/// drive allocation or scanning past sanity.
pub const MAX_RECORD_LEN: u32 = 1 << 16;

/// A segment format: how its records frame and encode integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Version 1: fixed-width little-endian integers, `u32` record
    /// lengths.
    V1,
    /// Version 2: canonical LEB128 integers and record lengths.
    V2,
}

impl WireFormat {
    /// The format every writer writes.
    pub const CURRENT: WireFormat = WireFormat::V2;

    /// The format a segment header's version names, if this build reads
    /// it.
    pub fn from_version(version: u32) -> Option<Self> {
        match version {
            1 => Some(WireFormat::V1),
            2 => Some(WireFormat::V2),
            _ => None,
        }
    }

    /// The segment header version of this format.
    pub fn version(self) -> u32 {
        match self {
            WireFormat::V1 => 1,
            WireFormat::V2 => 2,
        }
    }

    /// Appends the payload of `ev` in this format (tag byte + fields).
    pub fn encode(self, ev: &ObsEvent, out: &mut Vec<u8>) {
        match self {
            WireFormat::V1 => ev.encode::<Fixed>(out),
            WireFormat::V2 => ev.encode::<Leb128>(out),
        }
    }

    /// Decodes one payload written in this format. Rejects unknown tags,
    /// truncation, trailing bytes and non-canonical or over-wide LEB128;
    /// never panics.
    pub fn decode(self, payload: &[u8]) -> Result<ObsEvent, DecodeError> {
        match self {
            WireFormat::V1 => ObsEvent::decode::<Fixed>(payload),
            WireFormat::V2 => ObsEvent::decode::<Leb128>(payload),
        }
    }

    /// Bytes of the length field framing a `len`-byte payload.
    fn len_width(self, len: usize) -> usize {
        match self {
            WireFormat::V1 => 4,
            WireFormat::V2 => leb128_len(len as u64),
        }
    }

    /// Writes the length field of a `len`-byte payload into `slot`, which
    /// is exactly [`WireFormat::len_width`] bytes long.
    fn write_len(self, slot: &mut [u8], len: usize) {
        match self {
            WireFormat::V1 => slot.copy_from_slice(&(len as u32).to_le_bytes()),
            WireFormat::V2 => slot.copy_from_slice(&leb128_bytes(len as u64)[..slot.len()]),
        }
    }

    /// Appends one framed record (`len + crc + payload`) to `out`.
    pub fn push_record(self, out: &mut Vec<u8>, payload: &[u8]) {
        debug_assert!(payload.len() as u64 <= u64::from(MAX_RECORD_LEN));
        let head = out.len();
        let width = self.len_width(payload.len());
        out.resize(head + width, 0);
        self.write_len(&mut out[head..], payload.len());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Appends `ev` to `out` as one framed record, encoding the payload
    /// in place behind a reserved frame header that is patched once the
    /// length and CRC are known — byte-for-byte what
    /// [`WireFormat::encode`] into a scratch buffer followed by
    /// [`WireFormat::push_record`] appends, without the scratch copy.
    /// Returns the payload's byte range in `out`.
    pub fn push_event_record(self, out: &mut Vec<u8>, ev: &ObsEvent) -> Range<usize> {
        let head = out.len();
        // Room for the header of a payload under 128 bytes, widened below
        // for a longer one.
        let mut start = head + self.len_width(0) + 4;
        out.resize(start, 0);
        self.encode(ev, out);
        let len = out.len() - start;
        debug_assert!(len as u64 <= u64::from(MAX_RECORD_LEN));
        let width = self.len_width(len);
        let grow = head + width + 4 - start;
        if grow > 0 {
            out.splice(start..start, std::iter::repeat_n(0, grow));
            start += grow;
        }
        let crc = crc32(&out[start..]);
        self.write_len(&mut out[head..head + width], len);
        out[start - 4..start].copy_from_slice(&crc.to_le_bytes());
        start..out.len()
    }

    /// Appends the 12-byte header of segment `seq` in this format.
    pub fn push_segment_header(self, out: &mut Vec<u8>, seq: u32) {
        out.extend_from_slice(&SEG_MAGIC);
        let mut e = Enc::new(out);
        e.u32(self.version());
        e.u32(seq);
    }
}

/// Appends the binary encoding of `ev` to `out` in
/// [`WireFormat::CURRENT`].
pub fn encode_event(ev: &ObsEvent, out: &mut Vec<u8>) {
    WireFormat::CURRENT.encode(ev, out);
}

/// Decodes one payload produced by [`encode_event`]. Rejects unknown
/// tags, truncation and trailing bytes; never panics.
pub fn decode_event(payload: &[u8]) -> Result<ObsEvent, DecodeError> {
    WireFormat::CURRENT.decode(payload)
}

// ---------------------------------------------------------------------------
// Integer forms
// ---------------------------------------------------------------------------

/// How a payload's integer fields are written; one per [`WireFormat`].
/// `ObsEvent`'s encoder and decoder are generic over it, so the choice is
/// made once per payload.
pub(crate) trait IntForm {
    fn put_u16(e: &mut Enc<'_>, v: u16);
    fn put_u32(e: &mut Enc<'_>, v: u32);
    fn put_u64(e: &mut Enc<'_>, v: u64);
    fn get_u16(d: &mut Dec<'_>) -> Result<u16, DecodeError>;
    fn get_u32(d: &mut Dec<'_>) -> Result<u32, DecodeError>;
    fn get_u64(d: &mut Dec<'_>) -> Result<u64, DecodeError>;
}

/// Format 1: little-endian fixed width, as in [`fleetio_des::codec`].
pub(crate) struct Fixed;

impl IntForm for Fixed {
    fn put_u16(e: &mut Enc<'_>, v: u16) {
        e.u16(v);
    }
    fn put_u32(e: &mut Enc<'_>, v: u32) {
        e.u32(v);
    }
    fn put_u64(e: &mut Enc<'_>, v: u64) {
        e.u64(v);
    }
    fn get_u16(d: &mut Dec<'_>) -> Result<u16, DecodeError> {
        d.u16()
    }
    fn get_u32(d: &mut Dec<'_>) -> Result<u32, DecodeError> {
        d.u32()
    }
    fn get_u64(d: &mut Dec<'_>) -> Result<u64, DecodeError> {
        d.u64()
    }
}

/// Format 2: unsigned LEB128, seven bits per byte, low group first, the
/// high bit set on every byte but the last — in its one canonical
/// spelling (no redundant high zero groups).
pub(crate) struct Leb128;

impl IntForm for Leb128 {
    fn put_u16(e: &mut Enc<'_>, v: u16) {
        put_leb128(e, u64::from(v));
    }
    fn put_u32(e: &mut Enc<'_>, v: u32) {
        put_leb128(e, u64::from(v));
    }
    fn put_u64(e: &mut Enc<'_>, v: u64) {
        put_leb128(e, v);
    }
    // `get_leb128` bounds each value to its field's bits, so the casts
    // are exact.
    fn get_u16(d: &mut Dec<'_>) -> Result<u16, DecodeError> {
        get_leb128(d, 16).map(|v| v as u16)
    }
    fn get_u32(d: &mut Dec<'_>) -> Result<u32, DecodeError> {
        get_leb128(d, 32).map(|v| v as u32)
    }
    fn get_u64(d: &mut Dec<'_>) -> Result<u64, DecodeError> {
        get_leb128(d, 64)
    }
}

/// Bytes of the LEB128 form of `v` (1 to 10).
fn leb128_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline(always)]
fn put_leb128(e: &mut Enc<'_>, v: u64) {
    if v < 0x80 {
        e.u8(v as u8);
    } else {
        put_leb128_long(e, v);
    }
}

/// [`put_leb128`] of a value of two bytes or more.
#[inline(never)]
fn put_leb128_long(e: &mut Enc<'_>, v: u64) {
    let n = leb128_len(v);
    if n <= 8 {
        e.le_prefix(spread_leb128(v, n), n);
    } else {
        e.bytes(&leb128_bytes(v)[..n]);
    }
}

/// The LEB128 spelling of a value of `n` ≤ 8 bytes, as a little-endian
/// word: its (at most 56) bits spread into seven-bit groups, one per
/// byte, with the continuation bit set on all but the last.
fn spread_leb128(v: u64, n: usize) -> u64 {
    let mut x = v;
    x = (x & 0x0fff_ffff) | ((x & 0x00ff_ffff_f000_0000) << 4);
    x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
    x | (0x8080_8080_8080_8080 & ((1 << (8 * (n - 1))) - 1))
}

/// The LEB128 spelling of `v`, in its first [`leb128_len`] bytes.
fn leb128_bytes(v: u64) -> [u8; 10] {
    let n = leb128_len(v);
    let mut out = [0u8; 10];
    if n <= 8 {
        out[..8].copy_from_slice(&spread_leb128(v, n).to_le_bytes());
    } else {
        for (i, b) in out[..n].iter_mut().enumerate() {
            *b = (v >> (7 * i)) as u8 | 0x80;
        }
        out[n - 1] &= 0x7f;
    }
    out
}

/// Reads a canonical LEB128 integer of at most `bits` bits. A last byte
/// of zero after others (a redundant group), a group past `bits` or set
/// bits above it are errors.
#[inline(always)]
fn get_leb128(d: &mut Dec<'_>, bits: u32) -> Result<u64, DecodeError> {
    let rest = d.peek();
    match rest.first() {
        Some(&b) if b < 0x80 => d.u8().map(u64::from),
        _ => match leb128_long(rest, bits) {
            (v, n) if n > 0 => d.take(n).map(|_| v),
            _ => Err(leb128_error(rest, bits)),
        },
    }
}

/// The value and length of the canonical LEB128 integer of at most
/// `bits` bits opening `rest`, or length 0 if there is none (the reason
/// is [`leb128_error`]'s to find, off the hot path).
#[inline(always)]
fn leb128_long(rest: &[u8], bits: u32) -> (u64, usize) {
    // The first eight bytes as one word, zero past the end of `rest`.
    let w = match rest.first_chunk::<8>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => rest
            .iter()
            .enumerate()
            .fold(0, |w, (i, &b)| w | u64::from(b) << (8 * i)),
    };
    let stops = !w & 0x8080_8080_8080_8080;
    let (v, n) = if stops != 0 {
        // The integer ends within the word: gather its groups at once.
        let n = (stops.trailing_zeros() / 8 + 1) as usize;
        let mut x = w & 0x7f7f_7f7f_7f7f_7f7f & (u64::MAX >> (64 - 8 * n));
        x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
        x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
        x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
        (x, n)
    } else {
        // Nine or ten bytes, a `u64` of 57 bits or more.
        let Some(last) = rest.iter().take(10).position(|&b| b < 0x80) else {
            return (0, 0);
        };
        // For the tenth byte the shift drops all but its lowest bit,
        // checked below.
        let v = rest[..=last]
            .iter()
            .enumerate()
            .fold(0, |v, (i, &b)| v | u64::from(b & 0x7f) << (7 * i));
        (v, last + 1)
    };
    // A stop found in the zero padding is a truncated integer.
    if n > rest.len() {
        return (0, 0);
    }
    let canonical = rest[n - 1] != 0;
    let fits = n <= bits.div_ceil(7) as usize
        && (bits >= 64 || v >> bits == 0)
        && (n < 10 || rest[9] <= 1);
    if canonical && fits {
        (v, n)
    } else {
        (0, 0)
    }
}

/// Why `rest` does not open with a canonical LEB128 integer of at most
/// `bits` bits.
#[cold]
fn leb128_error(rest: &[u8], bits: u32) -> DecodeError {
    let max = bits.div_ceil(7) as usize;
    match rest.iter().take(max).position(|&b| b < 0x80) {
        None if rest.len() < max => DecodeError::Truncated,
        Some(last) if last > 0 && rest[last] == 0 => DecodeError::Malformed(format!(
            "non-canonical LEB128 ({} bytes with a zero last byte)",
            last + 1
        )),
        _ => DecodeError::Malformed(format!("LEB128 wider than {bits} bits")),
    }
}

// ---------------------------------------------------------------------------
// Segment scanning
// ---------------------------------------------------------------------------

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
    /// The format the header names; [`WireFormat::CURRENT`] when the
    /// header was not intact (there are no records then).
    pub format: WireFormat,
    /// Payload byte ranges of every record whose frame and CRC checked
    /// out, in file order. Index into the scanned byte slice.
    pub records: Vec<Range<usize>>,
    /// First framing/CRC violation, if any. Records before it are good.
    pub damage: Option<SegmentDamage>,
}

/// Walks a segment's bytes, CRC-validating each record frame in the
/// format its header names. Stops at the first violation and reports it;
/// never panics on arbitrary input.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        seq: None,
        format: WireFormat::CURRENT,
        records: Vec::new(),
        damage: None,
    };
    let damage = |offset, reason: String| Some(SegmentDamage { offset, reason });
    let Some((header, body)) = bytes.split_first_chunk::<SEG_HEADER_LEN>() else {
        scan.damage = damage(0, "segment shorter than header".to_string());
        return scan;
    };
    if header[..4] != SEG_MAGIC {
        scan.damage = damage(0, "bad segment magic".to_string());
        return scan;
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let Some(format) = WireFormat::from_version(version) else {
        scan.damage = damage(4, format!("unsupported segment version {version}"));
        return scan;
    };
    scan.format = format;
    scan.seq = Some(u32::from_le_bytes([
        header[8], header[9], header[10], header[11],
    ]));
    let mut d = Dec::new(body);
    while d.remaining() > 0 {
        let pos = bytes.len() - d.remaining();
        let len = match format {
            WireFormat::V1 => Fixed::get_u32(&mut d),
            WireFormat::V2 => Leb128::get_u32(&mut d),
        };
        let (len, crc) = match (len, Fixed::get_u32(&mut d)) {
            (Ok(len), Ok(crc)) => (len, crc),
            (Err(DecodeError::Malformed(why)), _) => {
                scan.damage = damage(pos, format!("bad record length: {why}"));
                return scan;
            }
            _ => {
                scan.damage = damage(pos, "truncated record header".to_string());
                return scan;
            }
        };
        if len == 0 || len > MAX_RECORD_LEN {
            scan.damage = damage(pos, format!("implausible record length {len}"));
            return scan;
        }
        let start = bytes.len() - d.remaining();
        let end = start + len as usize;
        if end > bytes.len() {
            scan.damage = damage(pos, "record overruns segment".to_string());
            return scan;
        }
        if crc32(&bytes[start..end]) != crc {
            scan.damage = damage(pos, "record CRC mismatch".to_string());
            return scan;
        }
        scan.records.push(start..end);
        d = Dec::new(&bytes[end..]);
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
        match scan.format.decode(&bytes[r.clone()]) {
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
    use fleetio_des::SimTime;

    const FORMATS: [WireFormat; 2] = [WireFormat::V1, WireFormat::V2];

    fn encoded(format: WireFormat, ev: &ObsEvent) -> Vec<u8> {
        let mut buf = Vec::new();
        format.encode(ev, &mut buf);
        buf
    }

    /// A `model` event whose payload is `len` bytes or more.
    fn long_event(len: usize) -> ObsEvent {
        ObsEvent::ModelLifecycle {
            at: SimTime::from_nanos(1),
            kind: crate::ModelKind::Saved,
            tag: "x".repeat(len),
            update: 3,
        }
    }

    #[test]
    fn every_event_round_trips_bit_exact_in_both_formats() {
        for format in FORMATS {
            for ev in sample_events() {
                let buf = encoded(format, &ev);
                let back = format
                    .decode(&buf)
                    .unwrap_or_else(|e| panic!("{format:?} {}: {e}", ev.tag()));
                // Compare re-encodings: byte equality is the ground truth
                // (PartialEq on f64 would reject identical NaNs).
                assert_eq!(buf, encoded(format, &back), "{format:?} {}", ev.tag());
                assert_eq!(back.kind_index(), ev.kind_index());
                assert_eq!(back.at(), ev.at());
                // The other format's decoder refuses it or reads another
                // event; it never panics.
                let other = FORMATS
                    .into_iter()
                    .find(|f| *f != format)
                    .expect("two formats");
                let _ = other.decode(&buf);
            }
        }
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        for format in FORMATS {
            for ev in sample_events() {
                let buf = encoded(format, &ev);
                for cut in 0..buf.len() {
                    assert!(format.decode(&buf[..cut]).is_err(), "{format:?} cut {cut}");
                }
                for bit in 0..buf.len() * 8 {
                    let mut bad = buf.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    let _ = format.decode(&bad); // must not panic; may or may not error
                }
            }
        }
    }

    #[test]
    fn leb128_is_canonical_and_bounded() {
        let mut d_bytes = Vec::new();
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u16::MAX), 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            d_bytes.clear();
            put_leb128(&mut Enc::new(&mut d_bytes), v);
            assert_eq!((d_bytes.len(), leb128_len(v)), (len, len), "{v}");
            let mut d = Dec::new(&d_bytes);
            assert_eq!(get_leb128(&mut d, 64), Ok(v));
            assert_eq!(d.remaining(), 0);
        }
        let read = |bytes: &[u8], bits| get_leb128(&mut Dec::new(bytes), bits);
        // One value, one spelling: a redundant zero group is refused.
        assert!(read(&[0x80, 0x00], 64).is_err());
        assert!(read(&[0x85, 0x80, 0x00], 64).is_err());
        assert_eq!(read(&[0x85, 0x01], 64), Ok(133));
        // Wider than the field: a set bit above it, or one group too many.
        assert_eq!(read(&[0xff, 0xff, 0x03], 16), Ok(u64::from(u16::MAX)));
        assert!(read(&[0xff, 0xff, 0x04], 16).is_err());
        assert!(read(&[0x80, 0x80, 0x80, 0x01], 16).is_err());
        assert_eq!(
            read(&[0xff, 0xff, 0xff, 0xff, 0x0f], 32),
            Ok(u64::from(u32::MAX))
        );
        assert!(read(&[0xff, 0xff, 0xff, 0xff, 0x10], 32).is_err());
        assert!(read(&[0xff; 10], 64).is_err());
        assert!(read(
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            64
        )
        .is_err());
        // Truncated: the continuation bit promises a byte that is not there.
        assert_eq!(read(&[0x80], 64), Err(DecodeError::Truncated));
        assert_eq!(read(&[], 64), Err(DecodeError::Truncated));
    }

    /// The word-at-a-time encoder and decoder against a byte-at-a-time
    /// reference, at every length and around every power of two.
    #[test]
    fn leb128_matches_the_bytewise_reference() {
        let reference = |mut v: u64| {
            let mut out = Vec::new();
            loop {
                let b = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(b);
                    return out;
                }
                out.push(b | 0x80);
            }
        };
        let mut values = vec![0, u64::MAX];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for k in 0..64 {
            x = x.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            values.extend([(1 << k) - 1, 1 << k, (1 << k) + 1, x >> (63 - k)]);
        }
        for v in values {
            let want = reference(v);
            let mut got = Vec::new();
            put_leb128(&mut Enc::new(&mut got), v);
            assert_eq!(got, want, "{v:#x}");
            // Decoded alone, and followed by other bytes.
            for tail in [&[][..], &[0x05, 0x80, 0xff, 0, 0, 0, 0, 0, 0]] {
                let mut bytes = want.clone();
                bytes.extend_from_slice(tail);
                for bits in [16, 32, 64] {
                    let mut d = Dec::new(&bytes);
                    let read = get_leb128(&mut d, bits);
                    if bits == 64 || v >> bits == 0 {
                        assert_eq!(read, Ok(v), "{v:#x} in {bits} bits");
                        assert_eq!(d.remaining(), tail.len(), "{v:#x}");
                    } else {
                        assert!(read.is_err(), "{v:#x} does not fit {bits} bits");
                    }
                }
                for cut in 0..want.len() {
                    let read = get_leb128(&mut Dec::new(&want[..cut]), 64);
                    assert_eq!(read, Err(DecodeError::Truncated), "{v:#x} cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn in_place_framing_equals_encode_then_push_record() {
        for format in FORMATS {
            let mut in_place = vec![0xAA; 3];
            let mut copied = in_place.clone();
            let mut events = sample_events();
            events.extend([127, 128, 300, 20_000].map(long_event));
            for ev in &events {
                let range = format.push_event_record(&mut in_place, ev);
                let payload = encoded(format, ev);
                format.push_record(&mut copied, &payload);
                assert_eq!(in_place, copied, "{format:?} {}", ev.tag());
                assert_eq!(&in_place[range], &payload[..], "{format:?} {}", ev.tag());
            }
        }
    }

    #[test]
    fn segment_round_trip_and_damage_isolation() {
        for format in FORMATS {
            let mut events = sample_events();
            events.push(long_event(200));
            let mut seg = Vec::new();
            format.push_segment_header(&mut seg, 5);
            for ev in &events {
                format.push_record(&mut seg, &encoded(format, ev));
            }

            let scan = scan_segment(&seg);
            assert_eq!((scan.seq, scan.format), (Some(5), format));
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

            // Truncate mid-record or mid-header: same isolation guarantee.
            for cut in [scan.records[4].start + 1, scan.records[4].start - 2] {
                let cut_scan = scan_segment(&seg[..cut]);
                assert_eq!(cut_scan.records.len(), 4);
                assert!(cut_scan.damage.is_some());
            }

            // Arbitrary garbage: never panics.
            let garbage: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
            let g = scan_segment(&garbage);
            assert!(g.damage.is_some());
        }
    }

    /// A v2 record length that is non-canonical, wider than a `u32`, or
    /// above the cap is segment damage at the record, after the records
    /// before it.
    #[test]
    fn bad_v2_record_lengths_are_damage() {
        let ev = &sample_events()[0];
        let payload = encoded(WireFormat::V2, ev);
        let crc = crc32(&payload).to_le_bytes();
        let mut head = Vec::new();
        WireFormat::V2.push_segment_header(&mut head, 0);
        WireFormat::V2.push_record(&mut head, &payload);
        let good = head.len();
        let len = payload.len() as u8;
        let lengths: [&[u8]; 4] = [
            &[len | 0x80, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0x7f],
            &[0x81, 0x80, 0x04],
            &[0x80],
        ];
        for (field, want) in lengths.into_iter().zip([
            "bad record length: non-canonical",
            "bad record length: LEB128 wider",
            "implausible record length",
            "truncated record header",
        ]) {
            let mut seg = head.clone();
            seg.extend_from_slice(field);
            if field.len() > 1 {
                seg.extend_from_slice(&crc);
                seg.extend_from_slice(&payload);
            }
            let scan = scan_segment(&seg);
            assert_eq!(scan.records.len(), 1, "{field:02x?}");
            let dmg = scan.damage.expect("a bad length is damage");
            assert_eq!(dmg.offset, good, "{field:02x?}");
            assert!(dmg.reason.starts_with(want), "{field:02x?}: {dmg}");
        }
        // A non-canonical integer inside a CRC-valid payload is damage at
        // decode time.
        let throttle = ObsEvent::Throttle {
            at: SimTime::ZERO,
            channel: 3,
            until: SimTime::from_nanos(9),
        };
        let mut padded = encoded(WireFormat::V2, &throttle);
        assert_eq!(padded, [8, 0, 3, 9]);
        padded.splice(1..2, [0x80, 0x00]);
        let mut seg = head.clone();
        WireFormat::V2.push_record(&mut seg, &padded);
        let (events, damage) = events_in_segment(&seg);
        assert_eq!(events.len(), 1);
        let dmg = damage.expect("a padded field is damage");
        assert!(dmg.reason.contains("non-canonical"), "{dmg}");
    }
}
