//! Per-vSSD runtime state inside the engine: configuration, the L2P map,
//! open blocks, the write stripe, priority, rate limiter and counters.
//!
//! The L2P map ([`PageMap`]) is the vSSD's per-page cost: 4 bytes per
//! logical page, sized once from the logical capacity and zero (unmapped)
//! until written. It is held in 16 KiB chunks allocated on their first
//! write ([`ChunkedTable`]; a map under 128 KiB is allocated whole), so
//! only the chunks holding pages a run has written are resident, in every
//! engine a process builds.

use fleetio_des::chunked::ChunkedTable;
use fleetio_des::window::WindowStats;
use fleetio_des::LatencyHistogram;
use fleetio_flash::addr::{BlockAddr, ChannelId, Ppa, PpaLayout};

use crate::gsb::{GsbId, GsbPool};
use crate::request::Priority;
use crate::token_bucket::TokenBucket;
use crate::vssd::{VssdConfig, VssdId};

/// One slot of a vSSD's write stripe: a channel to append on, through the
/// vSSD's own blocks (`None`) or through a harvested ghost superblock
/// striped over that channel.
pub(crate) type StripeTarget = (ChannelId, Option<GsbId>);

/// Metadata the engine keeps per allocated physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    /// The vSSD whose channel resources back the block.
    pub resource_owner: VssdId,
    /// The vSSD whose logical data the block holds (differs from
    /// `resource_owner` for harvested blocks).
    pub data_owner: VssdId,
    /// The ghost superblock containing the block, if any.
    pub gsb: Option<GsbId>,
}

/// Dense LPA → PPA mapping table, one packed `u32` per logical page.
///
/// The FTL map is touched once or twice per written page (lookup + insert)
/// and once per read — the single hottest lookup in the engine — so it is
/// one chunk lookup and a shift-and-mask unpack ([`PpaLayout`]). A slot
/// holds the packed address + 1 and `0` means unmapped, so the table
/// covers the full logical size from the start and never grows, while a
/// chunk costs memory only from its first written page
/// ([`ChunkedTable`]). Two maps are equal when they map every LPA alike.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PageMap {
    layout: PpaLayout,
    slots: ChunkedTable,
}

impl PageMap {
    /// An all-unmapped table over LPAs `0..pages`.
    pub fn new(layout: PpaLayout, pages: u64) -> Self {
        PageMap {
            layout,
            slots: ChunkedTable::new(pages as usize, 1),
        }
    }

    /// Number of LPAs the table covers.
    pub fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    /// The physical location of `lpa`, if mapped.
    #[inline]
    pub fn get(&self, lpa: u64) -> Option<Ppa> {
        if lpa >= self.len() {
            return None;
        }
        let slot = self.slots.get(lpa as usize);
        (slot != 0).then(|| self.layout.unpack(slot - 1))
    }

    /// Maps `lpa` to `ppa` (insert or overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is past the end of the table.
    pub fn set(&mut self, lpa: u64, ppa: Ppa) {
        let len = self.len();
        assert!(lpa < len, "lpa {lpa} is past the end of a {len}-page map");
        self.slots.set(lpa as usize, self.layout.pack(ppa) + 1);
    }

    /// Maps the LPAs `first`, `first + stride`, … to `count` consecutive
    /// pages of one block starting at `ppa`: `count` calls of
    /// [`PageMap::set`] with the page index rising by one each. The page
    /// index is the packed address's low field, so the run's slots are the
    /// first packed value plus `0..count`. The run is written one chunk at
    /// a time.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the last LPA is past the end of the
    /// table.
    pub fn set_run(&mut self, first: u64, stride: u64, ppa: Ppa, count: u32) {
        assert!(stride > 0, "a run needs a positive stride");
        if count == 0 {
            return;
        }
        let len = self.slots.len();
        let last = stride * u64::from(count - 1) + first;
        assert!(
            last < len as u64,
            "lpa {last} is past the end of a {len}-page map"
        );
        let packed = self.layout.pack(ppa);
        debug_assert_eq!(
            self.layout.unpack(packed + count - 1).block,
            ppa.block,
            "a run of {count} from {ppa} leaves its block"
        );
        let (mut lpa, mut value, end) = (first as usize, packed + 1, packed + 1 + count);
        while value < end {
            let chunk = self.slots.tail_mut(lpa);
            // LPAs of the run inside this chunk.
            let n = ((chunk.len() - 1) / stride as usize + 1).min((end - value) as usize);
            let values = value..value + n as u32;
            for (slot, v) in chunk.iter_mut().step_by(stride as usize).zip(values) {
                *slot = v;
            }
            lpa += n * stride as usize;
            value += n as u32;
        }
    }
}

/// Lifetime-cumulative per-vSSD counters (across all windows).
#[derive(Debug, Clone, Default)]
pub struct VssdCumulative {
    /// Host bytes completed (reads + writes).
    pub bytes: u64,
    /// Requests completed.
    pub requests: u64,
    /// Requests that violated the SLO.
    pub slo_violations: u64,
    /// Latency distribution over the whole run.
    pub latency: LatencyHistogram,
}

/// Full runtime state of one vSSD.
#[derive(Debug)]
pub(crate) struct VssdState {
    pub cfg: VssdConfig,
    /// LPA (page units) → physical page mapping.
    pub map: PageMap,
    /// Open append block per device chip slot (`channel × chips + chip`);
    /// `None` until the vSSD first writes there.
    pub open_blocks: Vec<Option<BlockAddr>>,
    /// The write stripe every page append walks: home channels first (so
    /// load ties favour them), then one slot per channel of each gSB in
    /// `harvested`. A cache of `cfg.channels` × `harvested` × the pool,
    /// rebuilt by [`VssdState::rebuild_stripe`] at every change of
    /// `harvested` — the only way a slot can go stale, because a gSB
    /// leaves the pool only after leaving `harvested` and its channel
    /// list never changes.
    pub stripe: Vec<StripeTarget>,
    pub stripe_pos: usize,
    /// Ghost superblocks currently harvested and active for writes,
    /// in acquisition order (released LIFO).
    pub harvested: Vec<GsbId>,
    /// Current I/O priority (the `Set_Priority` action's target).
    pub priority: Priority,
    /// Software-isolation rate limiter, if configured.
    pub bucket: Option<TokenBucket>,
    /// Current observation-window accumulator.
    pub window: WindowStats,
    /// Number of GC jobs currently running on this vSSD's blocks.
    pub gc_active: u32,
    /// Number of logical pages currently mapped.
    pub mapped_pages: u64,
    /// Lifetime counters.
    pub cumulative: VssdCumulative,
}

impl VssdState {
    /// Builds the state for one vSSD on a device with `chip_slots` total
    /// chips (`channels × chips_per_channel`), owning `map`.
    pub(crate) fn new(cfg: VssdConfig, chip_slots: usize, map: PageMap) -> Self {
        let bucket = cfg
            .rate_limit
            .map(|rate| TokenBucket::new(rate, rate * 0.05));
        let stripe = cfg.channels.iter().map(|&c| (c, None)).collect();
        VssdState {
            cfg,
            map,
            open_blocks: vec![None; chip_slots],
            stripe,
            stripe_pos: 0,
            harvested: Vec::new(),
            priority: Priority::default(),
            bucket,
            window: WindowStats::new(),
            gc_active: 0,
            mapped_pages: 0,
            cumulative: VssdCumulative::default(),
        }
    }

    /// Rebuilds the write stripe after `harvested` changed and restarts
    /// the rotation.
    pub(crate) fn rebuild_stripe(&mut self, pool: &GsbPool) {
        self.stripe.clear();
        self.stripe
            .extend(self.cfg.channels.iter().map(|&c| (c, None)));
        for &id in &self.harvested {
            if let Some(gsb) = pool.get(id) {
                self.stripe
                    .extend(gsb.channels.iter().map(|&c| (c, Some(id))));
            }
        }
        self.stripe_pos = 0;
    }

    /// Whether this vSSD is in GC (the paper's `In_GC` RL state).
    pub(crate) fn in_gc(&self) -> bool {
        self.gc_active > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::{Rng, SmallRng};
    use fleetio_flash::config::FlashConfig;

    fn cfg() -> VssdConfig {
        VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
    }

    fn map() -> PageMap {
        PageMap::new(FlashConfig::small_test().ppa_layout().expect("fits"), 0)
    }

    #[test]
    fn stripe_starts_on_home_channels() {
        let st = VssdState::new(cfg(), 4, map());
        assert_eq!(st.stripe, vec![(ChannelId(0), None), (ChannelId(1), None)]);
        assert!(st.bucket.is_none());
        assert!(st.open_blocks.iter().all(Option::is_none));
    }

    #[test]
    fn rate_limit_creates_bucket() {
        let c = cfg().with_rate_limit(1e6);
        let st = VssdState::new(c, 4, map());
        assert!(st.bucket.is_some());
    }

    #[test]
    fn rebuild_stripe_adds_one_slot_per_gsb_channel() {
        let blk = |ch| BlockAddr {
            channel: ChannelId(ch),
            chip: 0,
            block: 0,
        };
        let mut pool = GsbPool::new(8);
        let g = pool.create(
            VssdId(1),
            vec![ChannelId(6), ChannelId(4)],
            vec![blk(6), blk(4)],
        );
        let mut st = VssdState::new(cfg(), 4, map());
        st.harvested.push(g);
        // An id the pool does not know contributes no slot.
        st.harvested.push(GsbId(99));
        st.stripe_pos = 3;
        st.rebuild_stripe(&pool);
        assert_eq!(
            st.stripe,
            vec![
                (ChannelId(0), None),
                (ChannelId(1), None),
                (ChannelId(6), Some(g)),
                (ChannelId(4), Some(g)),
            ]
        );
        assert_eq!(st.stripe_pos, 0);
    }

    #[test]
    fn in_gc_tracks_counter() {
        let mut st = VssdState::new(cfg(), 4, map());
        assert!(!st.in_gc());
        st.gc_active = 2;
        assert!(st.in_gc());
    }

    /// Property, on every preset geometry: the address `set` stores is the
    /// address `get` returns — for every corner (first and last channel,
    /// chip, block and page, in all 16 combinations) and for seeded random
    /// addresses — an overwrite returns the new address, and nothing else
    /// reads as mapped.
    #[test]
    fn page_map_round_trips_every_geometry() {
        const LPAS: u64 = 4096;
        let mut rng = SmallRng::seed_from_u64(0x12b_ab1e);
        for flash in [
            FlashConfig::small_test(),
            FlashConfig::training_test(),
            FlashConfig::experiment_default(),
            FlashConfig::paper_default(),
        ] {
            let (ch, chips) = (flash.channels, flash.chips_per_channel);
            let (blocks, pages) = (flash.blocks_per_chip, flash.pages_per_block);
            let mut ppas = Vec::new();
            for c in [0, ch - 1] {
                for chip in [0, chips - 1] {
                    for b in [0, blocks - 1] {
                        for p in [0, pages - 1] {
                            ppas.push(Ppa::new(ChannelId(c), chip, b, p));
                        }
                    }
                }
            }
            for _ in 0..512 {
                ppas.push(Ppa::new(
                    ChannelId(rng.gen_range(0..ch)),
                    rng.gen_range(0..chips),
                    rng.gen_range(0..blocks),
                    rng.gen_range(0..pages),
                ));
            }
            let mut m = PageMap::new(flash.ppa_layout().expect("presets fit"), LPAS);
            assert_eq!(m.len(), LPAS);
            assert!(
                (0..LPAS).all(|l| m.get(l).is_none()),
                "a fresh table maps nothing"
            );
            let mut expect = vec![None; LPAS as usize];
            // The first and last LPA, then random ones (some repeat, so
            // some sets already overwrite).
            for (i, &ppa) in ppas.iter().enumerate() {
                let lpa = match i {
                    0 => 0,
                    1 => LPAS - 1,
                    _ => rng.gen_range(0..LPAS),
                };
                m.set(lpa, ppa);
                expect[lpa as usize] = Some(ppa);
                assert_eq!(m.get(lpa), Some(ppa), "{ppa} at lpa {lpa}");
            }
            // Overwrite every mapped LPA with another address.
            for lpa in 0..LPAS {
                if expect[lpa as usize].is_some() {
                    let ppa = ppas[rng.gen_range(0..ppas.len())];
                    m.set(lpa, ppa);
                    expect[lpa as usize] = Some(ppa);
                }
            }
            for lpa in 0..LPAS {
                assert_eq!(m.get(lpa), expect[lpa as usize], "lpa {lpa}");
            }
            for past_the_end in [LPAS, LPAS + 1, u64::MAX] {
                assert_eq!(m.get(past_the_end), None);
            }
        }
    }

    /// A run equals its LPAs set one by one, up to the last page of a
    /// block and the last LPA of the table.
    #[test]
    fn page_map_set_run_equals_sets_one_by_one() {
        let flash = FlashConfig::experiment_default();
        let layout = flash.ppa_layout().expect("fits");
        let last_page = flash.pages_per_block - 1;
        let (mut runs, mut sets) = (PageMap::new(layout, 100), PageMap::new(layout, 100));
        for (first, stride, ppa, count) in [
            (35, 32, Ppa::new(ChannelId(15), 3, 255, last_page - 2), 3),
            (5, 1, Ppa::new(ChannelId(0), 0, 0, 0), 0),
            (0, 7, Ppa::new(ChannelId(2), 1, 17, 40), 15),
        ] {
            runs.set_run(first, stride, ppa, count);
            for i in 0..count {
                let page = Ppa::new(ppa.channel(), ppa.chip(), ppa.block.block, ppa.page + i);
                sets.set(first + stride * u64::from(i), page);
            }
            assert!(runs == sets, "run of {count} from lpa {first} by {stride}");
        }
        assert_eq!(
            runs.get(99),
            Some(Ppa::new(ChannelId(15), 3, 255, last_page))
        );
    }

    /// Equality is by value: a map whose chunk was written and cleared
    /// equals one never written, and a run across several chunks equals
    /// its sets one by one.
    #[test]
    fn page_maps_mapping_the_same_lpas_compare_equal() {
        let layout = FlashConfig::experiment_default()
            .ppa_layout()
            .expect("fits");
        // Over 128 KiB, so chunks are allocated at first write.
        let pages = 9 * 4096 + 17;
        let (mut runs, mut sets) = (PageMap::new(layout, pages), PageMap::new(layout, pages));
        let ppa = Ppa::new(ChannelId(3), 1, 9, 0);
        runs.set_run(100, 4096, ppa, 5);
        for i in 0..5u32 {
            sets.set(100 + 4096 * u64::from(i), Ppa::new(ChannelId(3), 1, 9, i));
        }
        assert!(runs == sets);
        assert_eq!(runs.slots.allocated_chunks(), 5);
        sets.slots.set(pages as usize - 1, 0);
        assert_eq!(sets.slots.allocated_chunks(), 6);
        assert!(runs == sets, "a cleared chunk equals an absent one");
        sets.set(pages - 1, ppa);
        assert!(runs != sets);
    }

    #[test]
    #[should_panic(expected = "lpa 100 is past the end of a 100-page map")]
    fn page_map_set_run_past_the_end_panics() {
        let layout = FlashConfig::small_test().ppa_layout().expect("fits");
        PageMap::new(layout, 100).set_run(10, 30, Ppa::new(ChannelId(0), 0, 0, 0), 4);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn page_map_set_past_the_end_panics() {
        let layout = FlashConfig::small_test().ppa_layout().expect("fits");
        PageMap::new(layout, 8).set(8, Ppa::new(ChannelId(0), 0, 0, 0));
    }
}
