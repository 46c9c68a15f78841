//! Per-vSSD runtime state inside the engine.

use fleetio_des::window::WindowStats;
use fleetio_des::LatencyHistogram;
use fleetio_flash::addr::{BlockAddr, ChannelId, Ppa};

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

/// The sentinel page index marking an unmapped [`PageMap`] slot (no real
/// page index comes near `u32::MAX`).
const UNMAPPED: u32 = u32::MAX;

/// Dense LPA → PPA mapping table.
///
/// The FTL map is touched once or twice per written page (lookup + insert)
/// and once per read — the single hottest lookup in the engine — so it is
/// one array index into a `Vec` of 12-byte slots with an in-band
/// "unmapped" sentinel. [`PageMap::grow_to`] sizes it once for a known
/// range (warm-up's pre-fill); a write past the end at least doubles it,
/// so a foreground write stream regrows it O(log n) times.
#[derive(Debug, Default)]
pub(crate) struct PageMap {
    pages: Vec<Ppa>,
}

impl PageMap {
    /// The physical location of `lpa`, if mapped.
    #[inline]
    pub fn get(&self, lpa: u64) -> Option<Ppa> {
        let ppa = *self.pages.get(lpa as usize)?;
        (ppa.page != UNMAPPED).then_some(ppa)
    }

    /// Maps `lpa` to `ppa` (insert or overwrite).
    pub fn set(&mut self, lpa: u64, ppa: Ppa) {
        debug_assert!(ppa.page != UNMAPPED, "real pages never use the sentinel");
        let i = lpa as usize;
        if i >= self.pages.len() {
            self.grow_to((i + 1).max(self.pages.len() * 2));
        }
        self.pages[i] = ppa;
    }

    /// Grows the table to cover LPAs `0..len` (new slots unmapped). Never
    /// shrinks.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.pages.len() {
            self.pages.resize(
                len,
                Ppa {
                    block: BlockAddr {
                        channel: ChannelId(0),
                        chip: 0,
                        block: 0,
                    },
                    page: UNMAPPED,
                },
            );
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
    /// chips (`channels × chips_per_channel`).
    pub(crate) fn new(cfg: VssdConfig, chip_slots: usize) -> Self {
        let bucket = cfg
            .rate_limit
            .map(|rate| TokenBucket::new(rate, rate * 0.05));
        let stripe = cfg.channels.iter().map(|&c| (c, None)).collect();
        VssdState {
            cfg,
            map: PageMap::default(),
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

    fn cfg() -> VssdConfig {
        VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
    }

    #[test]
    fn stripe_starts_on_home_channels() {
        let st = VssdState::new(cfg(), 4);
        assert_eq!(st.stripe, vec![(ChannelId(0), None), (ChannelId(1), None)]);
        assert!(st.bucket.is_none());
        assert!(st.open_blocks.iter().all(Option::is_none));
    }

    #[test]
    fn rate_limit_creates_bucket() {
        let c = cfg().with_rate_limit(1e6);
        let st = VssdState::new(c, 4);
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
        let mut st = VssdState::new(cfg(), 4);
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
        let mut st = VssdState::new(cfg(), 4);
        assert!(!st.in_gc());
        st.gc_active = 2;
        assert!(st.in_gc());
    }

    #[test]
    fn page_map_grows_and_overwrites() {
        let mut m = PageMap::default();
        assert!(m.get(0).is_none());
        assert!(m.get(1_000).is_none());
        let ppa = |page| Ppa {
            block: BlockAddr {
                channel: ChannelId(1),
                chip: 2,
                block: 3,
            },
            page,
        };
        m.set(7, ppa(9));
        assert_eq!(m.get(7), Some(ppa(9)));
        assert!(m.get(6).is_none(), "growth must not fabricate mappings");
        m.set(7, ppa(10));
        assert_eq!(m.get(7), Some(ppa(10)));
        m.set(100_000, ppa(1));
        assert_eq!(m.get(100_000), Some(ppa(1)));
        assert!(m.get(99_999).is_none());
        // Pre-sizing maps nothing, keeps what is mapped and never shrinks.
        m.grow_to(300_000);
        assert!(m.get(299_999).is_none());
        m.grow_to(8);
        assert_eq!(m.get(7), Some(ppa(10)));
        assert_eq!(m.get(100_000), Some(ppa(1)));
    }
}
