//! The Harvested Block Table (HBT, §3.7 of the paper).
//!
//! FleetIO's GC prioritizes blocks that were harvested by another vSSD or
//! reclaimed from a destroyed gSB over a vSSD's regular blocks. The paper
//! tracks this with one bit per physical block (regular = 0,
//! harvested/reclaimed = 1), costing at most 0.5 MB for a 1 TB SSD with
//! 4 MB blocks. The table below is exactly that: a dense bitmap over the
//! device geometry, so the per-overwrite and per-victim-scan class checks
//! on the engine's hot paths are a shift-and-mask, not a tree walk.

use fleetio_flash::addr::BlockAddr;

/// Classification of a physical block for GC purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockClass {
    /// A block in normal vSSD use.
    Regular,
    /// A block inside a (possibly reclaimed) ghost superblock; GC migrates
    /// these first.
    Harvested,
}

/// One-bit-per-block table of harvested/reclaimed blocks, laid out over a
/// fixed device geometry.
///
/// # Example
///
/// ```
/// use fleetio_flash::addr::{BlockAddr, ChannelId};
/// use fleetio_vssd::hbt::{BlockClass, HarvestedBlockTable};
///
/// let mut hbt = HarvestedBlockTable::new(2, 4, 64);
/// let blk = BlockAddr { channel: ChannelId(0), chip: 0, block: 7 };
/// assert_eq!(hbt.class(blk), BlockClass::Regular);
/// hbt.mark_harvested(blk);
/// assert_eq!(hbt.class(blk), BlockClass::Harvested);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HarvestedBlockTable {
    bits: Vec<u64>,
    chips_per_channel: u16,
    blocks_per_chip: u32,
}

impl HarvestedBlockTable {
    /// Creates a table for `channels × chips_per_channel × blocks_per_chip`
    /// physical blocks, all regular.
    pub fn new(channels: u16, chips_per_channel: u16, blocks_per_chip: u32) -> Self {
        let blocks =
            usize::from(channels) * usize::from(chips_per_channel) * blocks_per_chip as usize;
        HarvestedBlockTable {
            bits: vec![0; blocks.div_ceil(64)],
            chips_per_channel,
            blocks_per_chip,
        }
    }

    #[inline]
    fn index(&self, block: BlockAddr) -> usize {
        (usize::from(block.channel.0) * usize::from(self.chips_per_channel)
            + usize::from(block.chip))
            * self.blocks_per_chip as usize
            + block.block as usize
    }

    /// The class of `block`.
    #[inline]
    pub fn class(&self, block: BlockAddr) -> BlockClass {
        let i = self.index(block);
        if self.bits[i / 64] >> (i % 64) & 1 != 0 {
            BlockClass::Harvested
        } else {
            BlockClass::Regular
        }
    }

    /// Marks `block` as harvested/reclaimed. The gSB manager calls this for
    /// every block of a gSB at creation time.
    pub fn mark_harvested(&mut self, block: BlockAddr) {
        let i = self.index(block);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Marks `block` regular again. GC calls this after erasing the block.
    pub fn mark_regular(&mut self, block: BlockAddr) {
        let i = self.index(block);
        self.bits[i / 64] &= !(1 << (i % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;

    fn table() -> HarvestedBlockTable {
        HarvestedBlockTable::new(2, 2, 32)
    }

    fn blk(b: u32) -> BlockAddr {
        BlockAddr {
            channel: ChannelId(0),
            chip: 0,
            block: b,
        }
    }

    /// Blocks of [`table`]'s geometry the table classes as harvested.
    fn harvested(hbt: &HarvestedBlockTable) -> usize {
        let mut n = 0;
        for channel in 0..2 {
            for chip in 0..2 {
                for block in 0..32 {
                    let addr = BlockAddr {
                        channel: ChannelId(channel),
                        chip,
                        block,
                    };
                    n += usize::from(hbt.class(addr) == BlockClass::Harvested);
                }
            }
        }
        n
    }

    #[test]
    fn default_class_is_regular() {
        let hbt = table();
        assert_eq!(hbt.class(blk(0)), BlockClass::Regular);
        assert_eq!(harvested(&hbt), 0);
    }

    #[test]
    fn mark_and_clear_roundtrip() {
        let mut hbt = table();
        hbt.mark_harvested(blk(1));
        hbt.mark_harvested(blk(2));
        assert_eq!(harvested(&hbt), 2);
        assert_eq!(hbt.class(blk(1)), BlockClass::Harvested);
        hbt.mark_regular(blk(1));
        assert_eq!(hbt.class(blk(1)), BlockClass::Regular);
        assert_eq!(hbt.class(blk(2)), BlockClass::Harvested);
    }

    #[test]
    fn marks_are_idempotent() {
        let mut hbt = table();
        hbt.mark_harvested(blk(1));
        hbt.mark_harvested(blk(1));
        assert_eq!(harvested(&hbt), 1);
        hbt.mark_regular(blk(1));
        hbt.mark_regular(blk(1));
        assert_eq!(harvested(&hbt), 0);
    }

    #[test]
    fn distinct_chips_and_channels_do_not_alias() {
        let mut hbt = table();
        let a = BlockAddr {
            channel: ChannelId(0),
            chip: 1,
            block: 5,
        };
        let b = BlockAddr {
            channel: ChannelId(1),
            chip: 0,
            block: 5,
        };
        hbt.mark_harvested(a);
        assert_eq!(hbt.class(a), BlockClass::Harvested);
        assert_eq!(hbt.class(b), BlockClass::Regular);
        assert_eq!(hbt.class(blk(5)), BlockClass::Regular);
    }
}
