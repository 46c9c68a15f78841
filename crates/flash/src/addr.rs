//! Typed flash addresses.
//!
//! Logical page addresses ([`Lpa`]) are what tenants see; physical page
//! addresses ([`Ppa`]) name a page on a specific chip of a specific channel.
//! The newtypes keep the two address spaces from being mixed up at compile
//! time. [`PpaLayout`] packs a physical address into the `u32` that a
//! per-page table stores.

use std::fmt;

/// A flash channel index on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A logical page address within one tenant's (vSSD's) address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lpa(pub u64);

impl fmt::Display for Lpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpa:{}", self.0)
    }
}

/// The address of a physical flash block: `(channel, chip, block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Channel the block lives on.
    pub channel: ChannelId,
    /// Chip within the channel.
    pub chip: u16,
    /// Block within the chip.
    pub block: u32,
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:chip{}:blk{}", self.channel, self.chip, self.block)
    }
}

/// A physical page address: a [`BlockAddr`] plus the page within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppa {
    /// The block containing this page.
    pub block: BlockAddr,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Builds a physical page address.
    pub fn new(channel: ChannelId, chip: u16, block: u32, page: u32) -> Self {
        Ppa {
            block: BlockAddr {
                channel,
                chip,
                block,
            },
            page,
        }
    }

    /// The channel this page lives on.
    pub fn channel(&self) -> ChannelId {
        self.block.channel
    }

    /// The chip within the channel.
    pub fn chip(&self) -> u16 {
        self.block.chip
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:pg{}", self.block, self.page)
    }
}

/// Bits needed to hold every index below `count` (`0` for a count of 1).
fn index_bits(count: u32) -> u32 {
    u32::BITS - count.saturating_sub(1).leading_zeros()
}

/// How one device geometry packs a [`Ppa`] into a `u32`: the page index in
/// the low bits, then block, chip and channel, each field exactly as wide
/// as its largest index needs. Shifts and masks are fixed at construction,
/// so [`PpaLayout::unpack`] is three shifts and three masks, no division.
///
/// A layout is at most [`PpaLayout::MAX_BITS`] wide, so every packed
/// address is below `2^31` and `packed + 1` is a nonzero `u32` — what lets
/// a table of them use `0` for "no address".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpaLayout {
    block_shift: u32,
    chip_shift: u32,
    channel_shift: u32,
    page_mask: u32,
    block_mask: u32,
    chip_mask: u32,
}

impl PpaLayout {
    /// Widest packed address accepted: one bit short of a `u32`, so that a
    /// packed address + 1 always fits.
    pub const MAX_BITS: u32 = u32::BITS - 1;

    /// The layout for `channels × chips × blocks × pages`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the four field widths when together they
    /// exceed [`PpaLayout::MAX_BITS`].
    pub fn new(channels: u16, chips: u16, blocks: u32, pages: u32) -> Result<Self, String> {
        let channel_bits = index_bits(u32::from(channels));
        let chip_bits = index_bits(u32::from(chips));
        let block_bits = index_bits(blocks);
        let page_bits = index_bits(pages);
        let total = channel_bits + chip_bits + block_bits + page_bits;
        if total > Self::MAX_BITS {
            return Err(format!(
                "a packed page address needs {total} bits (channel {channel_bits} + chip \
                 {chip_bits} + block {block_bits} + page {page_bits}); at most {} fit, so \
                 that the address + 1 fits in a u32",
                Self::MAX_BITS
            ));
        }
        let mask = |bits: u32| (1u32 << bits) - 1;
        Ok(PpaLayout {
            block_shift: page_bits,
            chip_shift: page_bits + block_bits,
            channel_shift: page_bits + block_bits + chip_bits,
            page_mask: mask(page_bits),
            block_mask: mask(block_bits),
            chip_mask: mask(chip_bits),
        })
    }

    /// `ppa` as one `u32`. Fields must be inside the geometry.
    #[inline]
    pub fn pack(&self, ppa: Ppa) -> u32 {
        let v = u32::from(ppa.block.channel.0) << self.channel_shift
            | u32::from(ppa.block.chip) << self.chip_shift
            | ppa.block.block << self.block_shift
            | ppa.page;
        debug_assert_eq!(self.unpack(v), ppa, "{ppa} is outside the geometry");
        v
    }

    /// The address [`PpaLayout::pack`] packed into `v`.
    #[inline]
    pub fn unpack(&self, v: u32) -> Ppa {
        Ppa::new(
            ChannelId((v >> self.channel_shift) as u16),
            ((v >> self.chip_shift) & self.chip_mask) as u16,
            (v >> self.block_shift) & self.block_mask,
            v & self.page_mask,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppa_accessors() {
        let p = Ppa::new(ChannelId(3), 1, 42, 7);
        assert_eq!(p.channel(), ChannelId(3));
        assert_eq!(p.chip(), 1);
        assert_eq!(p.block.block, 42);
        assert_eq!(p.page, 7);
    }

    #[test]
    fn display_formats() {
        let p = Ppa::new(ChannelId(2), 0, 5, 9);
        assert_eq!(p.to_string(), "ch2:chip0:blk5:pg9");
        assert_eq!(Lpa(12).to_string(), "lpa:12");
    }

    #[test]
    fn layout_fields_are_exactly_as_wide_as_the_geometry() {
        // 16 channels (4 bits), 4 chips (2), 4096 blocks (12), 256 pages (8).
        let l = PpaLayout::new(16, 4, 4096, 256).expect("26 bits fit");
        let last = Ppa::new(ChannelId(15), 3, 4095, 255);
        assert_eq!(l.pack(last), (1 << 26) - 1);
        assert_eq!(l.pack(Ppa::new(ChannelId(1), 0, 0, 0)), 1 << 22);
        assert_eq!(l.unpack(l.pack(last)), last);
        // Non-power-of-two counts round up; a count of one takes no bits.
        let l = PpaLayout::new(1, 3, 96, 1).expect("fits");
        let p = Ppa::new(ChannelId(0), 2, 95, 0);
        assert_eq!(l.pack(p), 2 << 7 | 95);
        assert_eq!(l.unpack(l.pack(p)), p);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Ppa::new(ChannelId(0), 0, 0, 1);
        let b = Ppa::new(ChannelId(0), 0, 1, 0);
        let c = Ppa::new(ChannelId(1), 0, 0, 0);
        assert!(a < b && b < c);
    }
}
