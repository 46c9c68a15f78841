//! A `u32` table that pays for the chunks a run writes.
//!
//! The simulator's per-page tables (a chip's page state, a vSSD's L2P map)
//! are sized from the geometry but touched only where a run writes. A flat
//! zeroed `Vec` is free for that only while the allocator can hand out
//! fresh pages from the OS; once an earlier table has been freed, the next
//! same-sized zeroed request is served from recycled heap memory and the
//! allocator must clear every byte of it, so the whole table becomes
//! resident. A [`ChunkedTable`] instead holds its values in fixed 16 KiB
//! chunks, each allocated zeroed on its first write, so what is resident
//! tracks what was written whatever the allocator does with freed memory.
//!
//! An absent chunk reads as zeros. Chunks hold a power-of-two number of
//! values, at least the `align` the table was built with, so a range of
//! `align` values starting at a multiple of `align` never straddles two
//! chunks — callers keep one slice per such range (a flash block). The last
//! chunk is clipped to the table's end.
//!
//! A table under 128 KiB is one chunk, allocated whole when it is built,
//! as a flat table was. The allocator never maps one that small fresh
//! from the OS, so laziness would save it little, while its chunks would
//! be allocated by whichever thread first writes them: a fleet's shards
//! warm up and run on worker threads, whose per-thread malloc arenas then
//! each keep freed chunks the others cannot reuse (built lazily, a
//! 64-vSSD fleet's small tables raised its two-worker peak by 2.1 MiB,
//! and not at all with one arena).

/// Bytes per chunk of a table of 128 KiB or more (the last may be
/// shorter). With 4 KiB chunks `coloc-eval` peaked at 39.4–39.7 MiB
/// against 41.2, at 2.6 times the warm-up's allocations; with 64 KiB
/// chunks at 45.8–46.0 MiB.
const CHUNK_BYTES: usize = 16 * 1024;

/// Tables of fewer bytes than this are one chunk, allocated at
/// construction: glibc's smallest mmap threshold, below which a flat
/// zeroed table came from the heap too.
const LAZY_BYTES: usize = 128 * 1024;

/// A fixed-length table of `u32`s, zero until written, allocated in
/// chunks on first write.
///
/// Two tables compare equal when they have the same length and every
/// value is equal: an absent chunk equals an allocated all-zero one.
/// `Debug` prints the shape, not the values.
#[derive(Clone)]
pub struct ChunkedTable {
    len: usize,
    /// `log2` of the values per chunk.
    shift: u32,
    chunks: Vec<Option<Box<[u32]>>>,
}

impl ChunkedTable {
    /// An all-zero table of `len` values whose chunks each hold a whole
    /// number of `align`-value ranges: one chunk allocated now if it is
    /// under 128 KiB, 16 KiB chunks allocated at first write otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn new(len: usize, align: usize) -> Self {
        assert!(
            align.is_power_of_two(),
            "chunk alignment {align} is not a power of two"
        );
        let eager = len < LAZY_BYTES / std::mem::size_of::<u32>();
        let per_chunk = align.max(if eager {
            len.next_power_of_two()
        } else {
            CHUNK_BYTES / std::mem::size_of::<u32>()
        });
        let shift = per_chunk.trailing_zeros();
        ChunkedTable {
            len,
            shift,
            chunks: (0..len.div_ceil(per_chunk))
                .map(|index| eager.then(|| zeroed_chunk(len, shift, index)))
                .collect(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per chunk (the last chunk may hold fewer).
    fn chunk_len(&self) -> usize {
        1 << self.shift
    }

    /// Number of chunks allocated so far.
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// The value at `i`; `0` if its chunk was never written.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        // An allocated chunk's own bounds check covers `i < len` (the last
        // chunk is clipped to the table's end), so only an absent one needs
        // the explicit check.
        match &self.chunks[i >> self.shift] {
            Some(chunk) => chunk[i & (self.chunk_len() - 1)],
            None => {
                self.check(i);
                0
            }
        }
    }

    /// Stores `value` at `i`, allocating its chunk on first write.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) {
        let (index, offset) = (i >> self.shift, i & (self.chunk_len() - 1));
        let (len, shift) = (self.len, self.shift);
        // The chunk's bounds check covers `i < len`, as in `get`.
        self.chunks[index].get_or_insert_with(|| zeroed_chunk(len, shift, index))[offset] = value;
    }

    /// The values from `i` to the end of its chunk, or `None` when that
    /// chunk was never written (every value in it is zero).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn tail(&self, i: usize) -> Option<&[u32]> {
        self.check(i);
        let offset = i & (self.chunk_len() - 1);
        self.chunks[i >> self.shift]
            .as_deref()
            .map(|c| &c[offset..])
    }

    /// The values from `i` to the end of its chunk, for writing; the
    /// chunk is allocated zeroed if this is its first write.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn tail_mut(&mut self, i: usize) -> &mut [u32] {
        self.check(i);
        let (index, offset) = (i >> self.shift, i & (self.chunk_len() - 1));
        let (len, shift) = (self.len, self.shift);
        &mut self.chunks[index].get_or_insert_with(|| zeroed_chunk(len, shift, index))[offset..]
    }

    /// Panics unless `i` is in range.
    #[inline]
    fn check(&self, i: usize) {
        assert!(
            i < self.len,
            "index {i} out of range for a table of {}",
            self.len
        );
    }
}

/// Chunk `index` of a table of `len` values with `1 << shift` values per
/// chunk, zeroed; the last chunk stops at the table's end. Out of line:
/// it runs once per chunk, the lookups around it once per access.
#[cold]
#[inline(never)]
fn zeroed_chunk(len: usize, shift: u32, index: usize) -> Box<[u32]> {
    vec![0; (1 << shift).min(len - (index << shift))].into_boxed_slice()
}

impl PartialEq for ChunkedTable {
    fn eq(&self, other: &Self) -> bool {
        let zero = |c: &[u32]| c.iter().all(|&v| v == 0);
        self.len == other.len
            && if self.shift == other.shift {
                self.chunks
                    .iter()
                    .zip(&other.chunks)
                    .all(|pair| match pair {
                        (Some(a), Some(b)) => a == b,
                        (Some(c), None) | (None, Some(c)) => zero(c),
                        (None, None) => true,
                    })
            } else {
                (0..self.len).all(|i| self.get(i) == other.get(i))
            }
    }
}

impl Eq for ChunkedTable {}

impl std::fmt::Debug for ChunkedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedTable")
            .field("len", &self.len)
            .field("chunk_len", &self.chunk_len())
            .field("allocated_chunks", &self.allocated_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: usize = CHUNK_BYTES / 4;
    /// The smallest table allocated lazily: eight chunks.
    const LAZY: usize = LAZY_BYTES / 4;

    #[test]
    fn a_never_written_index_reads_zero() {
        let t = ChunkedTable::new(LAZY + 5, 1);
        assert_eq!(t.len(), LAZY + 5);
        assert!([0, WORDS, LAZY + 4].iter().all(|&i| t.get(i) == 0));
        assert!(t.tail(WORDS + 7).is_none());
        assert_eq!(t.allocated_chunks(), 0);
    }

    #[test]
    fn a_first_write_allocates_one_chunk_and_the_last_is_clipped() {
        let mut t = ChunkedTable::new(LAZY + 5, 1);
        t.set(WORDS + 3, 9);
        assert_eq!(t.allocated_chunks(), 1);
        assert_eq!(t.get(WORDS + 3), 9);
        assert_eq!(t.tail(WORDS).map(<[u32]>::len), Some(WORDS));
        assert!(t.tail(0).is_none() && t.tail(LAZY).is_none());
        t.set(WORDS + 4, 10);
        assert_eq!(t.allocated_chunks(), 1, "a second write reuses the chunk");
        t.set(LAZY + 4, 1);
        assert_eq!(t.allocated_chunks(), 2);
        assert_eq!(t.tail(LAZY).map(<[u32]>::len), Some(5));
        assert_eq!(t.tail_mut(LAZY + 1).len(), 4);
    }

    /// Under 128 KiB a table is one chunk, clipped to the table's end and
    /// allocated at construction.
    #[test]
    fn a_small_table_is_allocated_when_built() {
        let t = ChunkedTable::new(LAZY - 1, 1);
        assert_eq!(t.allocated_chunks(), 1);
        assert_eq!(t.tail(7 * WORDS).map(<[u32]>::len), Some(WORDS - 1));
        assert_eq!(ChunkedTable::new(3, 1).tail(0), Some(&[0, 0, 0][..]));
        assert_eq!(ChunkedTable::new(0, 1).allocated_chunks(), 0);
    }

    #[test]
    fn a_written_then_zeroed_chunk_equals_an_absent_one() {
        let (mut a, b) = (ChunkedTable::new(LAZY, 1), ChunkedTable::new(LAZY, 1));
        a.set(WORDS + 1, 4);
        assert_ne!(a, b);
        assert_ne!(b, a);
        a.set(WORDS + 1, 0);
        assert_eq!(a.allocated_chunks(), 1);
        assert_eq!(a, b);
        assert_eq!(b, a);
        // Equality is by value across chunk sizes and between a lazy and
        // an allocated table, and needs equal lengths.
        let mut wide = ChunkedTable::new(LAZY, 4 * WORDS);
        assert_eq!(wide, b);
        wide.set(3, 1);
        assert_ne!(wide, b);
        assert_ne!(ChunkedTable::new(LAZY + 1, 1), b);
        assert_eq!(
            ChunkedTable::new(LAZY - 1, 1),
            ChunkedTable::new(LAZY - 1, 1)
        );
        assert_eq!(
            format!("{a:?}"),
            format!("ChunkedTable {{ len: {LAZY}, chunk_len: {WORDS}, allocated_chunks: 1 }}")
        );
    }

    /// Every `align`-value range starting at a multiple of `align` lies in
    /// one chunk: 32- and 256-page blocks, and a block wider than the
    /// default chunk.
    #[test]
    fn an_aligned_range_never_crosses_a_chunk() {
        for align in [32, 256, 2 * WORDS] {
            let blocks = LAZY / align + 3;
            let mut t = ChunkedTable::new(blocks * align, align);
            assert_eq!(t.chunk_len() % align, 0);
            for b in 0..blocks {
                assert!(t.tail_mut(b * align).len() >= align, "block {b} of {align}");
            }
            assert_eq!(t.allocated_chunks(), t.len().div_ceil(t.chunk_len()));
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_non_power_of_two_alignment_panics() {
        ChunkedTable::new(96, 48);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_read_past_the_end_panics() {
        ChunkedTable::new(LAZY + 1, 1).get(LAZY + 1);
    }

    #[test]
    #[should_panic]
    fn a_read_past_the_end_of_an_allocated_chunk_panics() {
        ChunkedTable::new(WORDS + 1, 1).get(WORDS + 1);
    }
}
