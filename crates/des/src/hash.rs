//! Dependency-free hashing primitives shared across the workspace.
//!
//! Two stable, seed-free functions used wherever the workspace needs a
//! deterministic digest of bytes:
//!
//! * [`crc32`] — CRC-32/IEEE, zlib's parameterization. Integrity check
//!   for every on-disk frame (`FIOM` checkpoint containers, run-store
//!   segment records), paid per record on ingest and again on every
//!   read-back, hence table-driven (slicing-by-8).
//! * [`fnv1a64`] / [`Fnv64`] — FNV-1a 64-bit. The golden-fingerprint
//!   hash for determinism tests and the run store's streaming event
//!   fingerprint (cheap, incremental, order-sensitive).
//!
//! Both are tiny and fully specified, so fingerprints recorded in golden
//! tests or run manifests stay comparable across machines and versions.

/// Reflected CRC-32/IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes — so eight input bytes fold into
/// the state with eight independent loads instead of 64 dependent
/// shift/xor steps. 8 KiB, built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE (poly `0xEDB88320`, reflected, init/xorout `0xFFFFFFFF`) —
/// the same parameterization as zlib's `crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher. Feeding the same byte sequence in
/// any chunking produces the same digest as [`fnv1a64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current digest. The hasher remains usable (streaming
    /// fingerprints snapshot mid-stream at checkpoint anchors).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition of CRC-32/IEEE (the kernel every
    /// on-disk frame up to PR 13 was written with): the reference the
    /// table-driven [`crc32`] must equal on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Seeded, host-independent test bytes (FNV-mixed counter).
    fn seeded_bytes(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (fnv1a64(&i.to_le_bytes()) >> 29) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b""), 0);
    }

    #[test]
    fn crc32_equals_bitwise_reference_at_every_length_and_offset() {
        let buf = seeded_bytes(8 + 300);
        for offset in 0..8 {
            for len in 0..=300 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn crc32_equals_bitwise_reference_on_one_mebibyte() {
        let buf = seeded_bytes(1 << 20);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Fnv64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(data));
        // Snapshotting mid-stream does not disturb the stream.
        let mut h2 = Fnv64::new();
        h2.update(&data[..10]);
        let _mid = h2.finish();
        h2.update(&data[10..]);
        assert_eq!(h2.finish(), fnv1a64(data));
    }
}
