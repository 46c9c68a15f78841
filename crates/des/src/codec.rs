//! The workspace's one binary codec: the `FIOM` container and the
//! little-endian primitive writer/reader under every on-disk record.
//!
//! It lives beside [`crate::hash`] at the bottom of the dependency
//! graph so that everything that serializes — model checkpoints
//! (`fleetio-model`), run and fleet specs, the run-store manifest, and the observability event wire (`fleetio_obs::wire`) —
//! shares one [`Enc`]/[`Dec`] pair and one [`DecodeError`].
//!
//! Every standalone artifact (trainer checkpoint, workload-typing
//! index, store manifest, and the run anchor older stores hold) is one
//! container:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"FIOM"
//! 4       4     format version, u32 LE (currently 1)
//! 8       1     payload kind tag (1 = model checkpoint, 2 = typing index,
//!               3 = run anchor, 4 = store manifest)
//! 9       8     payload length, u64 LE
//! 17      4     CRC-32/IEEE of the payload, u32 LE
//! 21      n     payload
//! ```
//!
//! The payload itself is a flat little-endian stream appended to a
//! caller-owned `Vec<u8>` by [`Enc`] (so a record can be encoded in
//! place behind a frame header that is patched afterwards) and read
//! back by [`Dec`]. Floating-point values travel as raw IEEE-754
//! bits (`f64::to_bits`), so every value — including NaNs, infinities and
//! subnormals — round-trips bit-exactly. `f32` network parameters are
//! widened to `f64` on the wire; the widening is exact for every finite
//! and infinite `f32`, so narrowing back is lossless.
//!
//! Decoding is strict: unknown magic/version/kind, a payload shorter than
//! the declared length, a checksum mismatch, or trailing bytes after the
//! last field all fail with a typed [`DecodeError`] rather than producing
//! a partially-initialized model.

use std::fmt;

use crate::hash::crc32;

/// First four bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"FIOM";

/// Current container format version.
pub const VERSION: u32 = 1;

/// Container header size in bytes (magic + version + kind + length + CRC).
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// What a container's payload encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A full PPO trainer checkpoint (`fleetio_model::ModelCheckpoint`).
    ModelCheckpoint,
    /// The workload-typing index (`fleetio_model::TypingIndex`).
    TypingIndex,
    /// A run-store replay-anchor file, `anchor-<window>.fiom`, as stores
    /// written by older builds hold. Only its framing is read:
    /// `fleetio model verify|inspect` CRC-check it.
    RunAnchor,
    /// A run-store manifest (`fleetio-store`). Like every payload layout it is
    /// owned by the crate that writes it; this module only frames and
    /// checksums it.
    StoreManifest,
}

impl PayloadKind {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            PayloadKind::ModelCheckpoint => 1,
            PayloadKind::TypingIndex => 2,
            PayloadKind::RunAnchor => 3,
            PayloadKind::StoreManifest => 4,
        }
    }

    /// Parses a tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            1 => Ok(PayloadKind::ModelCheckpoint),
            2 => Ok(PayloadKind::TypingIndex),
            3 => Ok(PayloadKind::RunAnchor),
            4 => Ok(PayloadKind::StoreManifest),
            other => Err(DecodeError::BadKind(other)),
        }
    }

    /// Human-readable name for CLI output.
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::ModelCheckpoint => "model-checkpoint",
            PayloadKind::TypingIndex => "typing-index",
            PayloadKind::RunAnchor => "run-anchor",
            PayloadKind::StoreManifest => "store-manifest",
        }
    }
}

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a field (or the header) requires.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown format version.
    BadVersion(u32),
    /// Unknown payload-kind tag.
    BadKind(u8),
    /// A one-byte tag inside a payload — a bool, an `Option` flag, a
    /// field-less enum — outside its range. Allocation-free, so readers
    /// on a per-record hot path can return it without a call.
    BadTag {
        /// What the byte was supposed to encode.
        what: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// Stored CRC disagrees with the payload's actual CRC.
    CrcMismatch {
        /// CRC recorded in the header.
        stored: u32,
        /// CRC computed over the payload bytes.
        computed: u32,
    },
    /// Bytes remain after the final field.
    TrailingBytes(usize),
    /// A field decoded but carries an invalid value.
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated: fewer bytes than declared"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected {MAGIC:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown payload kind tag {k}"),
            DecodeError::BadTag { what, tag } => write!(f, "{what} tag byte {tag} out of range"),
            DecodeError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after final field"),
            DecodeError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Wraps a payload in the `FIOM` container (header + checksum).
pub fn encode_container(kind: PayloadKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a container and returns its kind and payload slice.
///
/// # Errors
///
/// Any header field that fails validation, a payload length that
/// disagrees with the byte count, or a CRC mismatch.
pub fn decode_container(bytes: &[u8]) -> Result<(PayloadKind, &[u8]), DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = PayloadKind::from_tag(bytes[8])?;
    let declared = u64::from_le_bytes([
        bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16],
    ]);
    let stored_crc = u32::from_le_bytes([bytes[17], bytes[18], bytes[19], bytes[20]]);
    let payload = &bytes[HEADER_LEN..];
    if declared != payload.len() as u64 {
        // Shorter than declared is a torn write; longer is garbage after
        // the container. Both are corruption.
        return if (payload.len() as u64) < declared {
            Err(DecodeError::Truncated)
        } else {
            Err(DecodeError::TrailingBytes(
                payload.len() - declared as usize,
            ))
        };
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(DecodeError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok((kind, payload))
}

/// Little-endian payload writer appending to a caller-owned buffer.
#[derive(Debug)]
pub struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// A writer that appends to `buf`, leaving what it holds untouched.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Appends a byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16`, little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes, for a caller-defined field form.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends the low `n` bytes of `word`, little-endian (`n` ≤ 8): a
    /// variable-length field written as one 8-byte store (the event
    /// wire's LEB128 integers).
    #[inline]
    pub fn le_prefix(&mut self, word: u64, n: usize) {
        let len = self.buf.len() + n.min(8);
        self.buf.extend_from_slice(&word.to_le_bytes());
        self.buf.truncate(len);
    }

    /// Appends a `usize` as `u64` (sizes are platform-independent on disk).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits — bit-exact for every
    /// value, NaN payloads included.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an `f32` widened to `f64` (exact for finite and ±∞).
    pub fn f32(&mut self, v: f32) {
        self.f64(f64::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a UTF-8 string behind a `u32` length — the compact form
    /// for short strings inside small records ([`Dec::str32`]).
    pub fn str32(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }
}

/// Little-endian payload reader over a borrowed byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The bytes not yet consumed, without consuming them, for a
    /// caller-defined field form (the event wire's LEB128 integers).
    #[inline]
    pub fn peek(&self) -> &'a [u8] {
        self.rest
    }

    /// Consumes the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, for the fixed-width readers.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Succeeds only when every byte has been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an element count written by [`Enc::usize`], bounded by the
    /// bytes actually remaining (`elem_size` bytes per element) so a
    /// corrupt length field cannot trigger a huge allocation.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let cap = (self.remaining() / elem_size.max(1)) as u64;
        if n > cap {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a scalar `usize` (a dimension or hyper-parameter, not an
    /// element count) with a generous sanity cap.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > u64::from(u32::MAX) {
            return Err(DecodeError::Malformed(format!("implausible size {n}")));
        }
        Ok(n as usize)
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` stored as `f64`, rejecting values a finite-or-±∞
    /// `f32` cannot represent (a NaN parameter is already corrupt).
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        let wide = self.f64()?;
        let narrow = wide as f32;
        if f64::from(narrow).to_bits() != wide.to_bits() {
            return Err(DecodeError::Malformed(format!(
                "f64 {wide:?} is not an exactly-widened f32"
            )));
        }
        Ok(narrow)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len(1)?;
        self.utf8(n)
    }

    /// Reads a string written by [`Enc::str32`], rejecting a length
    /// above `cap` bytes before looking at the bytes.
    pub fn str32(&mut self, cap: usize) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        if n > cap {
            return Err(DecodeError::Malformed(format!(
                "string length {n} exceeds cap {cap}"
            )));
        }
        self.utf8(n)
    }

    fn utf8(&mut self, n: usize) -> Result<String, DecodeError> {
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| DecodeError::Malformed(format!("string not UTF-8: {e}")))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    /// Runs `fill` over a fresh buffer and returns the bytes.
    fn enc(fill: impl FnOnce(&mut Enc<'_>)) -> Vec<u8> {
        let mut buf = Vec::new();
        fill(&mut Enc::new(&mut buf));
        buf
    }

    #[test]
    fn container_roundtrip() {
        let payload = b"hello fleetio".to_vec();
        let bytes = encode_container(PayloadKind::ModelCheckpoint, &payload);
        let (kind, p) = decode_container(&bytes).expect("fresh container decodes");
        assert_eq!(kind, PayloadKind::ModelCheckpoint);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn container_rejects_bad_header_fields() {
        let bytes = encode_container(PayloadKind::TypingIndex, b"x");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_container(&bad),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_container(&bad),
            Err(DecodeError::BadVersion(_))
        ));
        let mut bad = bytes.clone();
        bad[8] = 7;
        assert!(matches!(
            decode_container(&bad),
            Err(DecodeError::BadKind(7))
        ));
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            decode_container(&long),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    /// Property: every strict prefix of a valid container fails to decode.
    #[test]
    fn every_truncation_rejected() {
        let payload = enc(|e| {
            e.f64s(&[1.0, -2.5, f64::NAN]);
            e.str("lc1");
        });
        let bytes = encode_container(PayloadKind::ModelCheckpoint, &payload);
        for cut in 0..bytes.len() {
            assert!(
                decode_container(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// Property: flipping any single bit of a valid container either
    /// fails to decode (header fields or CRC catch it) or — only for
    /// flips inside the one-byte kind tag, which the payload CRC does
    /// not cover — re-tags the container as a *different* valid kind.
    /// Mis-tagging is caught one level up: every typed reader
    /// (`ModelCheckpoint::decode` via the registry, the store's
    /// manifest loader) checks the kind before touching the payload.
    #[test]
    fn every_bit_flip_rejected() {
        let payload = enc(|e| {
            e.u64(0xDEAD_BEEF);
            e.f64s(&[0.25, 3.5e-9]);
            e.bool(true);
        });
        let bytes = encode_container(PayloadKind::TypingIndex, &payload);
        const KIND_BYTE: usize = 8;
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                match decode_container(&bad) {
                    Err(_) => {}
                    Ok((kind, payload)) => {
                        assert_eq!(byte, KIND_BYTE, "flip of byte {byte} bit {bit} decoded");
                        assert_ne!(kind, PayloadKind::TypingIndex);
                        assert_eq!(payload, &bytes[HEADER_LEN..]);
                    }
                }
            }
        }
    }

    /// Property: f64 values — NaN payloads, ±∞, subnormals, signed zeros —
    /// round-trip bit-exactly through the codec.
    #[test]
    fn f64_special_values_roundtrip_bit_exact() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling-ish NaN payload
            f64::from_bits(0xFFF8_DEAD_BEEF_CAFE), // negative NaN with payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,                     // smallest normal
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        let bytes = enc(|e| e.f64s(&specials));
        let mut dec = Dec::new(&bytes);
        let back = dec.f64s().expect("special values decode");
        dec.finish().expect("no trailing bytes");
        assert_eq!(back.len(), specials.len());
        for (a, b) in specials.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} vs {b:?}");
        }
    }

    /// Property: random f64 bit patterns round-trip bit-exactly.
    #[test]
    fn f64_random_bits_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0x0DEC_0DEC);
        let vals: Vec<f64> = (0..512).map(|_| f64::from_bits(rng.next_u64())).collect();
        let bytes = enc(|e| e.f64s(&vals));
        let back = Dec::new(&bytes).f64s().expect("random values decode");
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_specials_roundtrip_and_foreign_f64_rejected() {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest f32 subnormal
            f32::MAX,
            f32::MIN,
        ];
        let bytes = enc(|e| e.f32s(&specials));
        let back = Dec::new(&bytes).f32s().expect("f32 specials decode");
        for (a, b) in specials.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A f64 that is not an exactly-widened f32 is rejected.
        let bytes = enc(|e| {
            e.usize(1);
            e.f64(0.1); // 0.1f64 != widened 0.1f32
        });
        assert!(Dec::new(&bytes).f32s().is_err());
    }

    #[test]
    fn corrupt_length_field_cannot_overallocate() {
        let bytes = enc(|e| e.usize(usize::MAX)); // claims ~1.8e19 elements
        assert_eq!(Dec::new(&bytes).f64s(), Err(DecodeError::Truncated));
    }

    #[test]
    fn bool_rejects_junk_bytes() {
        let bytes = [2u8];
        assert!(Dec::new(&bytes).bool().is_err());
        let bytes = enc(|e| {
            e.bool(false);
            e.bool(true);
        });
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.bool(), Ok(false));
        assert_eq!(dec.bool(), Ok(true));
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_utf8() {
        let bytes = enc(|e| {
            e.str("lc1");
            e.str("");
        });
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.str().expect("ascii string decodes"), "lc1");
        assert_eq!(dec.str().expect("empty string decodes"), "");
        dec.finish().expect("no trailing bytes");
        let bytes = enc(|e| {
            e.usize(2);
            e.u8(0xFF);
            e.u8(0xFE);
        });
        assert!(Dec::new(&bytes).str().is_err());
    }

    #[test]
    fn u16_and_capped_strings_append_behind_existing_bytes() {
        let mut buf = vec![0xAA; 3];
        let mut e = Enc::new(&mut buf);
        e.u16(0xBEEF);
        e.str32("lc1");
        assert_eq!(buf[..5], [0xAA, 0xAA, 0xAA, 0xEF, 0xBE]);
        assert_eq!(buf[5..], [3, 0, 0, 0, b'l', b'c', b'1']);
        let mut dec = Dec::new(&buf[3..]);
        assert_eq!(dec.u16(), Ok(0xBEEF));
        assert_eq!(dec.str32(3).expect("at the cap"), "lc1");
        dec.finish().expect("no trailing bytes");
        // One byte over the cap is refused before the bytes are read,
        // whether or not they are there.
        assert!(Dec::new(&buf[5..]).str32(2).is_err());
        let huge = enc(|e| e.u32(u32::MAX));
        assert!(Dec::new(&huge).str32(4096).is_err());
        assert_eq!(Dec::new(&buf[5..9]).str32(3), Err(DecodeError::Truncated));
    }
}
