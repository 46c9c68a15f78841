//! Flash block state: a per-chip page-state arena, append points, free
//! lists.
//!
//! Flash writes are out-of-place: a page is programmed once per erase cycle,
//! overwrites invalidate the old physical page, and whole blocks are erased
//! to reclaim space. [`BlockState`] tracks one block's lifecycle counters;
//! [`ChipBlocks`] owns every block on one chip, the page state behind them
//! and the free list.
//!
//! Page state costs 4 bytes per physical page, in one `u32` arena per chip
//! held in 16 KiB chunks that are allocated on their first write
//! ([`ChunkedTable`]; an arena under 128 KiB is allocated whole), so only
//! the chunks holding pages a run has written are resident — in every chip
//! of every engine a process builds, whatever the allocator recycles. A
//! slot holds
//! `lpa + 1`, which bounds an LPA below `u32::MAX`;
//! [`FlashConfig::validate`](crate::config::FlashConfig::validate) holds a
//! device's page count, and with it every in-range LPA, under `2^31`.

use fleetio_des::chunked::ChunkedTable;

use crate::addr::Lpa;

/// Lifecycle state of a single flash block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPhase {
    /// Erased and on the free list.
    Free,
    /// Allocated with unwritten pages remaining.
    Open,
    /// Every page written.
    Full,
}

/// Lifecycle counters of one physical flash block. The per-page state
/// (which pages are live, and for which LPA) lives in the owning
/// [`ChipBlocks`]' arena, so every page-level operation goes through the
/// chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockState {
    phase: BlockPhase,
    /// Next unwritten page (append point).
    next_page: u32,
    valid_count: u32,
    erase_count: u32,
}

impl BlockState {
    /// Current lifecycle phase.
    pub fn phase(&self) -> BlockPhase {
        self.phase
    }

    /// Number of live pages.
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Number of pages written so far this erase cycle.
    pub fn written_count(&self) -> u32 {
        self.next_page
    }

    /// Times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }
}

/// All blocks on one chip, with their page state and a free list.
///
/// Page state is one `u32` per physical page in a single arena indexed by
/// `block * block_stride + page`: `0` means *empty* (never written this
/// erase cycle, or invalidated since), anything else is the live page's
/// `lpa + 1`. Validity is derived from the slot, so there is no separate
/// bitmap to keep in step. The arena's chunks are allocated on first write
/// and hold whole blocks (the stride is the block size rounded up to a
/// power of two), so pages a run never touches cost no resident memory and
/// every block is one slice. Because a block can only be erased once every
/// page in it has been invalidated, erase leaves nothing to clear.
///
/// Two chips compare equal when every block's counters, the free list in
/// allocation order and every page-state slot are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipBlocks {
    blocks: Vec<BlockState>,
    free: Vec<u32>,
    pages_per_block: u32,
    /// Arena slots per block: `pages_per_block` rounded up to a power of
    /// two, so no block straddles two chunks.
    block_stride: u32,
    /// `lpa + 1` of each live page, `0` for an empty one.
    page_state: ChunkedTable,
}

impl ChipBlocks {
    /// Creates `count` fresh blocks of `pages` pages each.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(count: u32, pages: u32) -> Self {
        assert!(pages > 0, "a block needs at least one page");
        let block_stride = pages.next_power_of_two();
        ChipBlocks {
            blocks: vec![
                BlockState {
                    phase: BlockPhase::Free,
                    next_page: 0,
                    valid_count: 0,
                    erase_count: 0,
                };
                count as usize
            ],
            // Pop from the back: allocate low block ids first.
            free: (0..count).rev().collect(),
            pages_per_block: pages,
            block_stride,
            page_state: ChunkedTable::new(
                count as usize * block_stride as usize,
                block_stride as usize,
            ),
        }
    }

    /// Number of blocks on the chip.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chip has no blocks (never true for a real geometry).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of free (erased) blocks.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Fraction of the chip's blocks that are free.
    pub fn free_fraction(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.free.len() as f64 / self.blocks.len() as f64
        }
    }

    /// Allocates a free block and opens it, or `None` when exhausted.
    pub fn allocate(&mut self) -> Option<u32> {
        self.allocate_with_reserve(0)
    }

    /// Allocates a free block unless doing so would leave fewer than
    /// `reserve` free blocks (the GC reserve that guarantees emergency
    /// collection always has a migration destination).
    pub fn allocate_with_reserve(&mut self, reserve: usize) -> Option<u32> {
        if self.free.len() <= reserve {
            return None;
        }
        let id = self.free.pop()?;
        let b = &mut self.blocks[id as usize];
        assert_eq!(b.phase, BlockPhase::Free, "opening a non-free block");
        b.phase = BlockPhase::Open;
        Some(id)
    }

    /// Erases `block` and returns it to the free list. Its page state is
    /// already all-empty (every page was invalidated), so a later
    /// re-append starts from zeroed slots without any clearing here.
    ///
    /// # Panics
    ///
    /// Panics if the block still has live pages (callers must migrate
    /// them first).
    pub fn release(&mut self, block: u32) {
        let b = &mut self.blocks[block as usize];
        assert_eq!(b.valid_count, 0, "erasing a block with live pages");
        b.phase = BlockPhase::Free;
        b.next_page = 0;
        b.erase_count += 1;
        self.free.push(block);
    }

    /// Lifecycle counters of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: u32) -> &BlockState {
        &self.blocks[block as usize]
    }

    /// Pages of `block` still available for appending.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn free_pages(&self, block: u32) -> u32 {
        self.pages_per_block - self.blocks[block as usize].next_page
    }

    /// Arena index of `(block, page)`.
    #[inline]
    fn slot(&self, block: u32, page: u32) -> usize {
        block as usize * self.block_stride as usize + page as usize
    }

    /// Appends one page holding `lpa` to `block`, returning the page index
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if the block is full or not open, or if `lpa` is `u32::MAX`
    /// or more (its `lpa + 1` encoding would not fit the slot, or would
    /// wrap to the empty value).
    pub fn append(&mut self, block: u32, lpa: Lpa) -> u32 {
        assert!(
            lpa.0 < u64::from(u32::MAX),
            "{lpa} collides with the empty page-state encoding of a u32 slot"
        );
        let b = &mut self.blocks[block as usize];
        assert_eq!(b.phase, BlockPhase::Open, "appending to a non-open block");
        let page = b.next_page;
        b.valid_count += 1;
        b.next_page += 1;
        if b.next_page == self.pages_per_block {
            b.phase = BlockPhase::Full;
        }
        let slot = self.slot(block, page);
        self.page_state.set(slot, lpa.0 as u32 + 1);
        page
    }

    /// Appends `count` pages to `block` holding the LPAs `first`,
    /// `first + stride`, `first + 2 × stride`, …, returning the page index
    /// of the first. The result equals `count` calls of
    /// [`ChipBlocks::append`]; the phase, room and encoding checks run once
    /// for the run and the block's counters move once.
    ///
    /// # Panics
    ///
    /// Panics if the block is not open, has fewer than `count` free pages,
    /// or the run's last LPA is `u32::MAX` or more.
    pub fn append_run(&mut self, block: u32, first: Lpa, stride: u64, count: u32) -> u32 {
        let last = u64::from(count.saturating_sub(1))
            .checked_mul(stride)
            .and_then(|span| span.checked_add(first.0));
        assert!(
            last.is_some_and(|l| l < u64::from(u32::MAX)),
            "a run of {count} from {first} by {stride} collides with the empty page-state \
             encoding of a u32 slot"
        );
        let b = &mut self.blocks[block as usize];
        assert_eq!(b.phase, BlockPhase::Open, "appending to a non-open block");
        let page = b.next_page;
        assert!(
            count <= self.pages_per_block - page,
            "a run of {count} pages overflows block {block} at page {page}"
        );
        b.valid_count += count;
        b.next_page += count;
        if b.next_page == self.pages_per_block {
            b.phase = BlockPhase::Full;
        }
        if count == 0 {
            return page;
        }
        let start = self.slot(block, page);
        let mut lpa = first.0 + 1;
        for s in &mut self.page_state.tail_mut(start)[..count as usize] {
            *s = lpa as u32;
            lpa = lpa.wrapping_add(stride);
        }
        page
    }

    /// Invalidates `page` of `block` (its LPA was overwritten or trimmed).
    ///
    /// Idempotent: invalidating an already-invalid page is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `page` was never written.
    pub fn invalidate(&mut self, block: u32, page: u32) {
        let slot = self.slot(block, page);
        let b = &mut self.blocks[block as usize];
        assert!(page < b.next_page, "invalidating an unwritten page");
        // The page was written, so its chunk exists: this allocates nothing.
        let state = &mut self.page_state.tail_mut(slot)[0];
        if *state != 0 {
            *state = 0;
            b.valid_count -= 1;
        }
    }

    /// Whether `page` of `block` currently holds live data.
    pub fn is_valid(&self, block: u32, page: u32) -> bool {
        page < self.pages_per_block && self.page_state.get(self.slot(block, page)) != 0
    }

    /// Iterates over `(page, lpa)` pairs of all live pages of `block`.
    pub fn valid_pages(&self, block: u32) -> impl Iterator<Item = (u32, Lpa)> + '_ {
        let written = self.blocks[block as usize].next_page as usize;
        // An unwritten chunk holds no live page.
        self.block_slots(block)
            .map_or(&[][..], |slots| &slots[..written])
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(i, &s)| (i as u32, Lpa(u64::from(s - 1))))
    }

    /// The arena slots of `block`'s pages, or `None` while its chunk has
    /// never been written (every slot empty).
    fn block_slots(&self, block: u32) -> Option<&[u32]> {
        let slots = self.page_state.tail(self.slot(block, 0))?;
        Some(&slots[..self.pages_per_block as usize])
    }

    /// Audits the chip's structural invariants (the `audit` feature's
    /// periodic sweep calls this):
    ///
    /// * the free list and the per-block phases agree — every free-list
    ///   entry is in [`BlockPhase::Free`], no duplicates, and the cached
    ///   count matches a full census;
    /// * every block's `valid_count` matches the live slots of its written
    ///   pages in the arena, and every slot past its append point is empty
    ///   (what lets erase skip clearing).
    ///
    /// All checks are `debug_assert!`s. `marks` is scratch for the free
    /// list's duplicate check, reused across calls so that a sweep
    /// allocates nothing once it has grown to the largest chip.
    #[cfg(feature = "audit")]
    pub fn audit_invariants(&self, marks: &mut Vec<bool>) {
        marks.clear();
        marks.resize(self.blocks.len(), false);
        let on_free_list = marks;
        for &id in &self.free {
            let i = id as usize;
            debug_assert!(
                i < self.blocks.len(),
                "free list holds out-of-range block {id}"
            );
            debug_assert!(
                !on_free_list[i],
                "block {id} appears twice on the free list"
            );
            on_free_list[i] = true;
            debug_assert!(
                self.blocks[i].phase() == BlockPhase::Free,
                "block {id} is on the free list but in phase {:?}",
                self.blocks[i].phase()
            );
        }
        let census = self
            .blocks
            .iter()
            .filter(|b| b.phase() == BlockPhase::Free)
            .count();
        debug_assert!(
            census == self.free.len(),
            "free-block accounting drift: {} blocks in Free phase, free list holds {}",
            census,
            self.free.len()
        );
        for (id, b) in self.blocks.iter().enumerate() {
            let Some(slots) = self.block_slots(id as u32) else {
                debug_assert!(
                    b.valid_count == 0,
                    "block {id}: valid_count {} disagrees with arena census 0",
                    b.valid_count
                );
                continue;
            };
            let (written, unwritten) = slots.split_at(b.next_page as usize);
            let live = written.iter().filter(|&&s| s != 0).count() as u32;
            debug_assert!(
                live == b.valid_count,
                "block {id}: valid_count {} disagrees with arena census {live}",
                b.valid_count
            );
            debug_assert!(
                unwritten.iter().all(|&s| s == 0),
                "block {id}: non-empty page state past append point {}",
                b.next_page
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::{Rng, SmallRng};

    /// A chip with one allocated (open) block of `pages` pages.
    fn one_open_block(pages: u32) -> ChipBlocks {
        let mut c = ChipBlocks::new(1, pages);
        assert_eq!(c.allocate(), Some(0));
        c
    }

    #[test]
    fn block_lifecycle() {
        let mut c = ChipBlocks::new(1, 4);
        assert_eq!(c.block(0).phase(), BlockPhase::Free);
        c.allocate();
        assert_eq!(c.append(0, Lpa(10)), 0);
        assert_eq!(c.append(0, Lpa(11)), 1);
        assert_eq!(c.block(0).valid_count(), 2);
        assert_eq!(c.free_pages(0), 2);
        c.invalidate(0, 0);
        assert_eq!(c.block(0).valid_count(), 1);
        assert!(!c.is_valid(0, 0));
        assert!(c.is_valid(0, 1));
        assert!(!c.is_valid(0, 2), "unwritten pages are not valid");
        c.append(0, Lpa(12));
        c.append(0, Lpa(13));
        assert_eq!(c.block(0).phase(), BlockPhase::Full);
        let live: Vec<_> = c.valid_pages(0).collect();
        assert_eq!(live, vec![(1, Lpa(11)), (2, Lpa(12)), (3, Lpa(13))]);
    }

    #[test]
    fn lpa_zero_is_a_live_page() {
        // The empty encoding is the slot value 0, not LPA 0; the largest
        // LPA a slot holds is one below the boundary.
        let top = Lpa(u64::from(u32::MAX) - 1);
        let mut c = one_open_block(2);
        c.append(0, Lpa(0));
        c.append(0, top);
        assert!(c.is_valid(0, 0));
        assert_eq!(
            c.valid_pages(0).collect::<Vec<_>>(),
            vec![(0, Lpa(0)), (1, top)]
        );
    }

    #[test]
    #[should_panic(expected = "collides with the empty page-state encoding")]
    fn lpa_colliding_with_the_empty_encoding_panics() {
        let mut c = one_open_block(2);
        c.append(0, Lpa(u64::from(u32::MAX)));
    }

    /// A run equals its pages appended one by one: the same page indices,
    /// slots, counters and phases, across a block filling up part-way
    /// through a strided run and into the next block.
    #[test]
    fn append_run_equals_appends_one_by_one() {
        let (stride, first) = (7u64, 3u64);
        let (mut runs, mut pages) = (ChipBlocks::new(3, 8), ChipBlocks::new(3, 8));
        for c in [&mut runs, &mut pages] {
            c.allocate();
            c.append(0, Lpa(1_000));
        }
        // 3 + 4 pages fill block 0 (a 0-page run between them is a no-op),
        // 5 more go into block 1.
        let mut lpa = first;
        for (block, count) in [(0, 3u32), (0, 0), (0, 4), (1, 5)] {
            if block == 1 {
                assert_eq!(runs.allocate(), pages.allocate());
            }
            let got = runs.append_run(block, Lpa(lpa), stride, count);
            let want: Vec<u32> = (0..u64::from(count))
                .map(|i| pages.append(block, Lpa(lpa + i * stride)))
                .collect();
            assert_eq!(got, want.first().copied().unwrap_or(got));
            assert_eq!(runs, pages, "after {count} pages into block {block}");
            lpa += u64::from(count) * stride;
        }
        assert_eq!(runs.block(0).phase(), BlockPhase::Full);
        assert_eq!(runs.block(1).valid_count(), 5);
        assert_eq!(
            runs.valid_pages(1).collect::<Vec<_>>(),
            (0..5)
                .map(|p| (p, Lpa(first + (7 + u64::from(p)) * stride)))
                .collect::<Vec<_>>()
        );
    }

    /// Every block is one slice of one chunk, for the presets' 32- and
    /// 256-page blocks and for a block size that is not a power of two, in
    /// arenas large enough (over 128 KiB) to be allocated chunk by chunk:
    /// filling every block with one run reads back page for page.
    #[test]
    fn every_block_is_one_slice() {
        for pages in [32u32, 256, 48] {
            let blocks = 32 * 1024 / pages.next_power_of_two() + 8;
            let mut c = ChipBlocks::new(blocks, pages);
            for b in 0..blocks {
                assert_eq!(c.allocate(), Some(b));
                let first = Lpa(u64::from(b * pages));
                assert_eq!(c.append_run(b, first, 1, pages), 0);
            }
            for b in 0..blocks {
                let want: Vec<_> = (0..pages)
                    .map(|p| (p, Lpa(u64::from(b * pages + p))))
                    .collect();
                assert_eq!(
                    c.valid_pages(b).collect::<Vec<_>>(),
                    want,
                    "{pages}-page block {b}"
                );
            }
        }
    }

    /// Equality is by value: a chunk allocated by a write and cleared
    /// again equals one never written, and a live slot does not.
    #[test]
    fn chips_with_the_same_page_state_compare_equal() {
        let fresh = ChipBlocks::new(256, 256);
        let mut touched = fresh.clone();
        let slot = touched.slot(40, 3);
        touched.page_state.set(slot, 0);
        assert_eq!(touched.page_state.allocated_chunks(), 1);
        assert_eq!(touched, fresh);
        touched.page_state.set(slot, 5);
        assert_ne!(touched, fresh);
    }

    #[test]
    #[should_panic(expected = "non-open block")]
    fn append_run_to_a_non_open_block_panics() {
        let mut c = ChipBlocks::new(2, 4);
        c.append_run(1, Lpa(0), 1, 1);
    }

    #[test]
    #[should_panic(expected = "overflows block 0 at page 1")]
    fn append_run_past_the_end_of_the_block_panics() {
        let mut c = one_open_block(4);
        c.append(0, Lpa(9));
        c.append_run(0, Lpa(0), 2, 4);
    }

    /// The last LPA of a run is the one checked against the encoding: a
    /// run ending one below `u32::MAX` fits, one more stride does not.
    #[test]
    fn append_run_stops_at_the_encoding_boundary() {
        let top = u64::from(u32::MAX) - 1;
        let mut c = one_open_block(4);
        c.append_run(0, Lpa(top - 6), 3, 3);
        assert_eq!(c.valid_pages(0).last(), Some((2, Lpa(top))));
        let overflow = std::panic::catch_unwind(|| {
            one_open_block(4).append_run(0, Lpa(top - 6), 3, 4);
        });
        let msg = overflow.expect_err("a run reaching u32::MAX must panic");
        let msg = msg.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("collides with the empty page-state encoding"),
            "{msg}"
        );
        // A stride that overflows u64 is caught, not wrapped.
        let wrap = std::panic::catch_unwind(|| {
            one_open_block(4).append_run(0, Lpa(1), u64::MAX, 2);
        });
        assert!(wrap.is_err());
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut c = one_open_block(2);
        c.append(0, Lpa(1));
        c.invalidate(0, 0);
        c.invalidate(0, 0);
        assert_eq!(c.block(0).valid_count(), 0);
    }

    #[test]
    #[should_panic(expected = "unwritten page")]
    fn invalidating_an_unwritten_page_panics() {
        let mut c = one_open_block(2);
        c.append(0, Lpa(1));
        c.invalidate(0, 1);
    }

    #[test]
    fn erase_resets_and_counts() {
        let mut c = one_open_block(2);
        c.append(0, Lpa(1));
        c.invalidate(0, 0);
        c.release(0);
        assert_eq!(c.block(0).phase(), BlockPhase::Free);
        assert_eq!(c.block(0).erase_count(), 1);
        assert_eq!(c.free_pages(0), 2);
    }

    /// Erase clears nothing, so a re-allocated block must find its slots
    /// already empty: no page of the previous cycle may read back as live.
    #[test]
    fn erase_then_reappend_reuses_zeroed_state() {
        let mut c = ChipBlocks::new(2, 4);
        let a = c.allocate().unwrap();
        for i in 0..4 {
            c.append(a, Lpa(100 + i));
        }
        for p in 0..4 {
            c.invalidate(a, p);
        }
        c.release(a);
        assert_eq!(c.allocate(), Some(a), "the released block is reused first");
        assert_eq!(c.block(a).written_count(), 0);
        assert_eq!(c.valid_pages(a).count(), 0);
        assert_eq!(c.append(a, Lpa(7)), 0);
        assert_eq!(c.valid_pages(a).collect::<Vec<_>>(), vec![(0, Lpa(7))]);
        assert!((1..4).all(|p| !c.is_valid(a, p)));
        // The neighbouring block's slots were never touched.
        assert_eq!(c.valid_pages(1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "live pages")]
    fn erase_with_live_pages_panics() {
        let mut c = one_open_block(2);
        c.append(0, Lpa(1));
        c.release(0);
    }

    #[test]
    #[should_panic(expected = "non-open block")]
    fn append_to_full_block_panics() {
        let mut c = one_open_block(1);
        c.append(0, Lpa(1));
        c.append(0, Lpa(2));
    }

    #[test]
    fn blocks_do_not_share_page_state() {
        let mut c = ChipBlocks::new(3, 2);
        for _ in 0..3 {
            c.allocate();
        }
        c.append(1, Lpa(5));
        c.append(1, Lpa(6));
        c.append(2, Lpa(9));
        c.invalidate(1, 1);
        assert_eq!(c.valid_pages(0).count(), 0);
        assert_eq!(c.valid_pages(1).collect::<Vec<_>>(), vec![(0, Lpa(5))]);
        assert_eq!(c.valid_pages(2).collect::<Vec<_>>(), vec![(0, Lpa(9))]);
    }

    #[test]
    fn chip_allocation_and_release() {
        let mut c = ChipBlocks::new(4, 2);
        assert_eq!(c.free_count(), 4);
        let a = c.allocate().unwrap();
        assert_eq!(a, 0); // low ids first
        assert_eq!(c.free_count(), 3);
        assert_eq!(c.block(a).phase(), BlockPhase::Open);
        c.append(a, Lpa(1));
        c.invalidate(a, 0);
        c.release(a);
        assert_eq!(c.free_count(), 4);
        assert!((c.free_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chip_exhaustion_returns_none() {
        let mut c = ChipBlocks::new(1, 1);
        assert!(c.allocate().is_some());
        assert!(c.allocate().is_none());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_accepts_a_lifecycle() {
        let mut c = ChipBlocks::new(2, 4);
        c.audit_invariants(&mut Vec::new());
        let a = c.allocate().unwrap();
        c.append(a, Lpa(1));
        c.append(a, Lpa(2));
        c.invalidate(a, 0);
        c.audit_invariants(&mut Vec::new());
        c.invalidate(a, 1);
        c.release(a);
        c.audit_invariants(&mut Vec::new());
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "disagrees with arena census")]
    fn audit_catches_valid_count_drift() {
        let mut c = one_open_block(4);
        c.append(0, Lpa(1));
        c.blocks[0].valid_count = 2;
        c.audit_invariants(&mut Vec::new());
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "past append point")]
    fn audit_catches_state_past_the_append_point() {
        let mut c = one_open_block(4);
        c.append(0, Lpa(1));
        c.page_state.set(2, 9);
        c.audit_invariants(&mut Vec::new());
    }

    /// Property: each block's valid-count counter always matches the live
    /// slots of its slice of the arena, through appends, invalidations and
    /// erase cycles interleaved across blocks.
    #[test]
    fn prop_valid_count_matches_arena() {
        let mut rng = SmallRng::seed_from_u64(0xb10c);
        for _case in 0..256 {
            let n_ops = rng.gen_range(1usize..96);
            let mut c = ChipBlocks::new(3, 16);
            for _ in 0..3 {
                c.allocate();
            }
            let mut next_lpa = 0u64;
            for _ in 0..n_ops {
                let blk = rng.gen_range(0u32..3);
                let op = rng.gen_range(0u32..9);
                let written = c.block(blk).written_count();
                if c.block(blk).phase() == BlockPhase::Free {
                    // Re-allocation pops the most recently released block.
                    let got = c.allocate().expect("a block was released");
                    assert_eq!(c.block(got).written_count(), 0);
                } else if op < 6 {
                    if c.free_pages(blk) > 0 {
                        c.append(blk, Lpa(next_lpa));
                        next_lpa += 1;
                    }
                } else if op < 8 {
                    if written > 0 {
                        c.invalidate(blk, op % written);
                    }
                } else if c.block(blk).valid_count() == 0 && written > 0 {
                    c.release(blk);
                }
                for b in 0..3 {
                    let census = (0..c.block(b).written_count())
                        .filter(|p| c.is_valid(b, *p))
                        .count() as u32;
                    assert_eq!(census, c.block(b).valid_count());
                    assert_eq!(c.valid_pages(b).count() as u32, c.block(b).valid_count());
                    assert!((c.block(b).written_count()..16).all(|p| !c.is_valid(b, p)));
                }
            }
        }
    }
}
