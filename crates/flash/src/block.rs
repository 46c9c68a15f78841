//! Flash block state: a flat per-chip page-state arena, append points,
//! free lists.
//!
//! Flash writes are out-of-place: a page is programmed once per erase cycle,
//! overwrites invalidate the old physical page, and whole blocks are erased
//! to reclaim space. [`BlockState`] tracks one block's lifecycle counters;
//! [`ChipBlocks`] owns every block on one chip, the page state behind them
//! and the free list.
//!
//! Page state costs 4 bytes per physical page, in one zeroed `u32` arena
//! per chip, so pages a run never writes are never resident. A slot holds
//! `lpa + 1`, which bounds an LPA below `u32::MAX`;
//! [`FlashConfig::validate`](crate::config::FlashConfig::validate) holds a
//! device's page count, and with it every in-range LPA, under `2^31`.

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
#[derive(Debug, Clone)]
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
/// `block * pages_per_block + page`: `0` means *empty* (never written this
/// erase cycle, or invalidated since), anything else is the live page's
/// `lpa + 1`. Validity is derived from the slot, so there is no separate
/// bitmap to keep in step; the arena is allocated zeroed, so pages a run
/// never touches cost no resident memory; and because a block can only be
/// erased once every page in it has been invalidated, erase leaves nothing
/// to clear.
#[derive(Debug, Clone)]
pub struct ChipBlocks {
    blocks: Vec<BlockState>,
    free: Vec<u32>,
    pages_per_block: u32,
    /// `lpa + 1` of each live page, `0` for an empty one.
    page_state: Vec<u32>,
}

impl ChipBlocks {
    /// Creates `count` fresh blocks of `pages` pages each.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(count: u32, pages: u32) -> Self {
        assert!(pages > 0, "a block needs at least one page");
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
            page_state: vec![0; count as usize * pages as usize],
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
        block as usize * self.pages_per_block as usize + page as usize
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
        self.page_state[slot] = lpa.0 as u32 + 1;
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
        if self.page_state[slot] != 0 {
            self.page_state[slot] = 0;
            b.valid_count -= 1;
        }
    }

    /// Whether `page` of `block` currently holds live data.
    pub fn is_valid(&self, block: u32, page: u32) -> bool {
        page < self.pages_per_block && self.page_state[self.slot(block, page)] != 0
    }

    /// Iterates over `(page, lpa)` pairs of all live pages of `block`.
    pub fn valid_pages(&self, block: u32) -> impl Iterator<Item = (u32, Lpa)> + '_ {
        let start = self.slot(block, 0);
        let written = self.blocks[block as usize].next_page as usize;
        self.page_state[start..start + written]
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(i, &s)| (i as u32, Lpa(u64::from(s - 1))))
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
    /// All checks are `debug_assert!`s; in release builds this is a no-op.
    #[cfg(feature = "audit")]
    pub fn audit_invariants(&self) {
        let mut on_free_list = vec![false; self.blocks.len()];
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
            let start = self.slot(id as u32, 0);
            let (written, unwritten) = self.page_state
                [start..start + self.pages_per_block as usize]
                .split_at(b.next_page as usize);
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

    /// The non-free block with the fewest live pages among `candidates`,
    /// preferring lower ids on ties. Returns `None` when no candidate is
    /// eligible (free blocks and fully-valid open blocks are skipped only
    /// if `skip_open` is set).
    pub fn greedy_victim<I>(&self, candidates: I, skip_open: bool) -> Option<u32>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut best: Option<(u32, u32)> = None;
        for id in candidates {
            let b = &self.blocks[id as usize];
            if b.phase() == BlockPhase::Free {
                continue;
            }
            if skip_open && b.phase() == BlockPhase::Open {
                continue;
            }
            let key = b.valid_count();
            match best {
                Some((_, k)) if k <= key => {}
                _ => best = Some((id, key)),
            }
        }
        best.map(|(id, _)| id)
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

    #[test]
    fn greedy_victim_prefers_fewest_valid() {
        let mut c = ChipBlocks::new(3, 4);
        for _ in 0..3 {
            c.allocate();
        }
        // Block 0: 4 valid; block 1: 1 valid; block 2: 2 valid.
        for i in 0..4 {
            c.append(0, Lpa(i));
        }
        for i in 0..4 {
            c.append(1, Lpa(10 + i));
        }
        for p in 0..3 {
            c.invalidate(1, p);
        }
        for i in 0..4 {
            c.append(2, Lpa(20 + i));
        }
        for p in 0..2 {
            c.invalidate(2, p);
        }
        assert_eq!(c.greedy_victim(0..3, false), Some(1));
    }

    #[test]
    fn greedy_victim_skips_free_blocks() {
        let c = ChipBlocks::new(3, 4);
        assert_eq!(c.greedy_victim(0..3, false), None);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_accepts_a_lifecycle() {
        let mut c = ChipBlocks::new(2, 4);
        c.audit_invariants();
        let a = c.allocate().unwrap();
        c.append(a, Lpa(1));
        c.append(a, Lpa(2));
        c.invalidate(a, 0);
        c.audit_invariants();
        c.invalidate(a, 1);
        c.release(a);
        c.audit_invariants();
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "disagrees with arena census")]
    fn audit_catches_valid_count_drift() {
        let mut c = one_open_block(4);
        c.append(0, Lpa(1));
        c.blocks[0].valid_count = 2;
        c.audit_invariants();
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "past append point")]
    fn audit_catches_state_past_the_append_point() {
        let mut c = one_open_block(4);
        c.append(0, Lpa(1));
        c.page_state[2] = 9;
        c.audit_invariants();
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
