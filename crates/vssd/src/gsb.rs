//! The ghost superblock (gSB) abstraction (§3.6 of the paper).
//!
//! A gSB is a harvestable superblock striped across one or more channels of
//! its *home* vSSD. The gSB manager keeps unharvested gSBs in a pool of
//! lists indexed by channel count (`n_chls`); harvesting takes the first gSB
//! from the exact list, falling back to smaller lists first and then larger
//! ones, exactly as the paper describes. Harvested gSBs carry the harvesting
//! vSSD's writes until they are reclaimed.
//!
//! The paper stores gSB metadata as `{n_chls, capacity, in_use, home_vssd,
//! harvest_vssd}` (Figure 7); [`GhostSuperblock`] carries the same fields
//! plus the concrete block list and an append cursor, which on real hardware
//! live in the block-level mapping the gSB manager initializes at creation.

use std::collections::BTreeMap;

use fleetio_flash::addr::{BlockAddr, ChannelId};

use crate::vssd::VssdId;

/// Identifier of a ghost superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GsbId(pub u64);

impl std::fmt::Display for GsbId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gsb{}", self.0)
    }
}

/// One ghost superblock.
#[derive(Debug, Clone)]
pub struct GhostSuperblock {
    /// Identifier within the pool.
    pub id: GsbId,
    /// Channels the superblock stripes across (`n_chls = channels.len()`).
    pub channels: Vec<ChannelId>,
    /// The flash blocks backing the superblock, grouped round-robin across
    /// channels for striping.
    pub blocks: Vec<BlockAddr>,
    /// The vSSD that gave up these resources.
    pub home: VssdId,
    /// The vSSD currently harvesting the gSB, if any.
    pub harvester: Option<VssdId>,
    /// Append rotation cursor over `blocks`.
    cursor: usize,
}

impl GhostSuperblock {
    /// Builds a gSB over `blocks` striped across `channels`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `blocks` is empty.
    pub fn new(id: GsbId, home: VssdId, channels: Vec<ChannelId>, blocks: Vec<BlockAddr>) -> Self {
        assert!(
            !channels.is_empty(),
            "gSB must stripe across at least one channel"
        );
        assert!(!blocks.is_empty(), "gSB must contain at least one block");
        GhostSuperblock {
            id,
            channels,
            blocks,
            home,
            harvester: None,
            cursor: 0,
        }
    }

    /// Number of channels the gSB stripes across (the paper's `n_chls`).
    pub fn n_chls(&self) -> usize {
        self.channels.len()
    }

    /// Capacity in blocks (the paper's `capacity`, in superblock units).
    pub fn capacity_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the gSB is currently harvested (the paper's `in_use` bit).
    pub fn in_use(&self) -> bool {
        self.harvester.is_some()
    }

    /// Advances the append rotation and returns the next backing block.
    ///
    /// Rotating across blocks (which are grouped across channels) stripes
    /// the harvester's writes over all of the gSB's channels.
    pub fn rotate_block(&mut self) -> BlockAddr {
        // GC may have shrunk the block list since the last rotation.
        self.cursor %= self.blocks.len();
        let b = self.blocks[self.cursor];
        self.cursor = (self.cursor + 1) % self.blocks.len();
        b
    }
}

/// Outcome of a harvest attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarvestError {
    /// No gSB is available for this harvester (pool empty or only own gSBs).
    NoneAvailable,
}

impl std::fmt::Display for HarvestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarvestError::NoneAvailable => write!(f, "no harvestable ghost superblock available"),
        }
    }
}

impl std::error::Error for HarvestError {}

/// The gSB pool: available gSBs in per-`n_chls` lists (§3.6, Figure 8).
#[derive(Debug, Clone)]
pub struct GsbPool {
    /// `lists[n]` holds available (unharvested) gSBs with `n_chls == n + 1`,
    /// newest first (the paper inserts at the head of the list).
    lists: Vec<Vec<GsbId>>,
    gsbs: BTreeMap<GsbId, GhostSuperblock>,
    next_id: u64,
}

impl GsbPool {
    /// Creates an empty pool for a device with `max_channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `max_channels` is zero.
    pub fn new(max_channels: usize) -> Self {
        assert!(max_channels > 0, "pool needs at least one channel class");
        GsbPool {
            lists: vec![Vec::new(); max_channels],
            gsbs: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Creates a gSB from `blocks` striped over `channels` and inserts it at
    /// the head of its `n_chls` list. Returns the new id.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len()` exceeds the pool's channel classes, or if
    /// `channels`/`blocks` is empty.
    pub fn create(
        &mut self,
        home: VssdId,
        channels: Vec<ChannelId>,
        blocks: Vec<BlockAddr>,
    ) -> GsbId {
        assert!(
            channels.len() <= self.lists.len(),
            "n_chls exceeds device channels"
        );
        let id = GsbId(self.next_id);
        self.next_id += 1;
        let gsb = GhostSuperblock::new(id, home, channels, blocks);
        self.lists[gsb.n_chls() - 1].insert(0, id);
        self.gsbs.insert(id, gsb);
        id
    }

    /// Looks up a gSB by id.
    pub fn get(&self, id: GsbId) -> Option<&GhostSuperblock> {
        self.gsbs.get(&id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: GsbId) -> Option<&mut GhostSuperblock> {
        self.gsbs.get_mut(&id)
    }

    /// Sum of `n_chls` over all available (unharvested) gSBs — the pool's
    /// harvestable channel supply.
    pub fn available_channels_total(&self) -> usize {
        self.lists
            .iter()
            .enumerate()
            .map(|(i, l)| (i + 1) * l.len())
            .sum()
    }

    /// Sum of `n_chls` of gSBs currently harvested by `harvester`.
    pub fn harvested_channels_by(&self, harvester: VssdId) -> usize {
        self.gsbs
            .values()
            .filter(|g| g.harvester == Some(harvester))
            .map(|g| g.n_chls())
            .sum()
    }

    /// Total available (unharvested) gSBs.
    pub fn available_total(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Ids of every gSB (available or harvested) whose home is `home`.
    pub fn of_home(&self, home: VssdId) -> Vec<GsbId> {
        let mut ids: Vec<GsbId> = self
            .gsbs
            .values()
            .filter(|g| g.home == home)
            .map(|g| g.id)
            .collect();
        ids.sort();
        ids
    }

    /// Harvests a gSB with the desired `n_chls` for `harvester`.
    ///
    /// Search order follows §3.6: the exact list first, then lists with
    /// *smaller* `n_chls` (largest of those first), then larger lists
    /// (smallest first). A vSSD never harvests its own gSBs.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::NoneAvailable`] when no eligible gSB exists.
    pub fn harvest(&mut self, harvester: VssdId, n_chls: usize) -> Result<GsbId, HarvestError> {
        let want = n_chls.clamp(1, self.lists.len());
        let exact = want - 1;
        let order = std::iter::once(exact)
            .chain((0..exact).rev())
            .chain(exact + 1..self.lists.len());
        for li in order {
            let pos = self.lists[li]
                .iter()
                .position(|id| self.gsbs[id].home != harvester);
            if let Some(pos) = pos {
                let id = self.lists[li].remove(pos);
                let gsb = self.gsbs.get_mut(&id).expect("listed gSB exists");
                gsb.harvester = Some(harvester);
                return Ok(id);
            }
        }
        Err(HarvestError::NoneAvailable)
    }

    /// Audits the pool's structural invariants (the `audit` feature's
    /// periodic sweep calls this):
    ///
    /// * every listed id resolves to an unharvested gSB filed under its own
    ///   `n_chls` class, with no duplicates across lists;
    /// * conversely, every unharvested gSB is listed (available ⇔ not
    ///   `in_use`), so harvest/destroy bookkeeping conserves gSBs.
    ///
    /// All checks are `debug_assert!`s, made without allocating: a gSB has
    /// one class, so it can sit only in its own list, where a duplicate is
    /// a linear search away (lists hold a handful of gSBs); and distinct
    /// listed gSBs, all unharvested and as many as the pool's unharvested
    /// gSBs, are all of them.
    #[cfg(feature = "audit")]
    pub fn audit_invariants(&self) {
        for (li, list) in self.lists.iter().enumerate() {
            for (i, id) in list.iter().enumerate() {
                debug_assert!(
                    !list[..i].contains(id),
                    "{id} appears twice on availability list {}",
                    li + 1
                );
                match self.gsbs.get(id) {
                    None => debug_assert!(false, "{id} is listed but not in the pool map"),
                    Some(g) => {
                        debug_assert!(!g.in_use(), "{id} is listed available while harvested");
                        debug_assert!(
                            g.n_chls() == li + 1,
                            "{id} with n_chls {} filed under class {}",
                            g.n_chls(),
                            li + 1
                        );
                    }
                }
            }
        }
        let listed: usize = self.lists.iter().map(Vec::len).sum();
        let available = self.gsbs.values().filter(|g| !g.in_use()).count();
        debug_assert!(
            listed == available,
            "{available} unharvested gSBs but {listed} on the availability lists"
        );
    }

    /// Removes an *available* gSB from the pool entirely (destroy path of
    /// reclamation), returning it. Returns `None` if the gSB is currently
    /// harvested or unknown.
    pub fn destroy_available(&mut self, id: GsbId) -> Option<GhostSuperblock> {
        let gsb = self.gsbs.get(&id)?;
        if gsb.in_use() {
            return None;
        }
        let li = gsb.n_chls() - 1;
        self.lists[li].retain(|g| *g != id);
        self.gsbs.remove(&id)
    }

    /// Removes a *harvested* gSB once its blocks have been migrated (lazy
    /// reclamation completion). Returns `None` if the gSB is unknown.
    pub fn destroy_harvested(&mut self, id: GsbId) -> Option<GhostSuperblock> {
        let gsb = self.gsbs.get(&id)?;
        if !gsb.in_use() {
            return None;
        }
        self.gsbs.remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(channel: u16, n: u32) -> Vec<BlockAddr> {
        (0..n)
            .map(|b| BlockAddr {
                channel: ChannelId(channel),
                chip: 0,
                block: b,
            })
            .collect()
    }

    fn pool() -> GsbPool {
        GsbPool::new(8)
    }

    #[test]
    fn create_inserts_at_head() {
        let mut p = pool();
        let a = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        let b = p.create(VssdId(0), vec![ChannelId(1)], blocks(1, 4));
        assert_eq!(p.available_channels_total(), 2);
        // Head insertion: harvesting takes the newest (b) first.
        let got = p.harvest(VssdId(1), 1).unwrap();
        assert_eq!(got, b);
        assert_eq!(p.harvest(VssdId(1), 1).unwrap(), a);
    }

    #[test]
    fn harvest_prefers_exact_then_smaller_then_larger() {
        let mut p = pool();
        let one = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        let three = p.create(
            VssdId(0),
            vec![ChannelId(1), ChannelId(2), ChannelId(3)],
            blocks(1, 12),
        );
        // Want 2: no exact → smaller (1) first.
        assert_eq!(p.harvest(VssdId(1), 2).unwrap(), one);
        // Want 2 again: only larger (3) remains.
        assert_eq!(p.harvest(VssdId(1), 2).unwrap(), three);
        assert!(p.harvest(VssdId(1), 2).is_err());
    }

    #[test]
    fn harvest_skips_own_gsbs() {
        let mut p = pool();
        p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        assert_eq!(p.harvest(VssdId(0), 1), Err(HarvestError::NoneAvailable));
        assert!(p.harvest(VssdId(1), 1).is_ok());
    }

    #[test]
    fn harvest_sets_metadata() {
        let mut p = pool();
        let id = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        let got = p.harvest(VssdId(2), 1).unwrap();
        assert_eq!(got, id);
        let g = p.get(id).unwrap();
        assert!(g.in_use());
        assert_eq!(g.harvester, Some(VssdId(2)));
        assert_eq!(g.home, VssdId(0));
        assert_eq!(p.available_total(), 0);
    }

    #[test]
    fn destroy_available_only_when_unharvested() {
        let mut p = pool();
        let id = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        assert!(p.destroy_available(id).is_some());
        assert_eq!(p.available_total(), 0);

        let id2 = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        p.harvest(VssdId(1), 1).unwrap();
        assert!(p.destroy_available(id2).is_none());
        assert!(p.destroy_harvested(id2).is_some());
        assert!(p.get(id2).is_none());
    }

    #[test]
    fn of_home_lists_all_states() {
        let mut p = pool();
        let a = p.create(VssdId(0), vec![ChannelId(0)], blocks(0, 4));
        let b = p.create(VssdId(0), vec![ChannelId(1)], blocks(1, 4));
        let _c = p.create(VssdId(1), vec![ChannelId(2)], blocks(2, 4));
        p.harvest(VssdId(1), 1).unwrap();
        assert_eq!(p.of_home(VssdId(0)), vec![a, b]);
    }

    #[test]
    fn rotate_block_stripes() {
        let mut g = GhostSuperblock::new(
            GsbId(0),
            VssdId(0),
            vec![ChannelId(0), ChannelId(1)],
            vec![
                BlockAddr {
                    channel: ChannelId(0),
                    chip: 0,
                    block: 0,
                },
                BlockAddr {
                    channel: ChannelId(1),
                    chip: 0,
                    block: 0,
                },
            ],
        );
        let a = g.rotate_block();
        let b = g.rotate_block();
        let c = g.rotate_block();
        assert_ne!(a.channel, b.channel);
        assert_eq!(a, c);
        assert_eq!(g.n_chls(), 2);
        assert_eq!(g.capacity_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_channels_panics() {
        let _ = GhostSuperblock::new(GsbId(0), VssdId(0), vec![], blocks(0, 1));
    }
}
