//! The assembled flash device.
//!
//! [`FlashDevice`] combines per-channel occupancy simulation with per-chip
//! block state and device-wide accounting. It exposes the raw operations an
//! open-channel SSD offers the host FTL: page reads and programs, block
//! erases, block allocation/release, and free-space inspection. Everything
//! policy-shaped (mapping, superblocks, GC victim choice, harvesting) lives
//! in `fleetio-vssd`.

use fleetio_des::{SimDuration, SimTime};

use crate::addr::{BlockAddr, ChannelId, Lpa};
use crate::block::ChipBlocks;
use crate::channel::{ChannelSim, OpTimes};
use crate::config::FlashConfig;
use crate::stats::DeviceStats;

/// Point-in-time occupancy snapshot of one channel, taken via
/// [`FlashDevice::channel_obs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelObs {
    /// Chips booked past the snapshot time.
    pub busy_chips: u16,
    /// How far past the snapshot time the bus is booked.
    pub bus_backlog: SimDuration,
    /// Cumulative bus-busy time.
    pub bus_busy: SimDuration,
    /// Cumulative bytes moved over the bus.
    pub bytes_moved: u64,
    /// Cumulative GC migration bytes.
    pub gc_bytes: u64,
    /// Per-chip booking backlog past the snapshot time.
    pub chip_backlog: Vec<SimDuration>,
}

/// A simulated open-channel flash device.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    config: FlashConfig,
    channels: Vec<ChannelSim>,
    /// Indexed by `channel * chips_per_channel + chip`.
    chips: Vec<ChipBlocks>,
    stats: DeviceStats,
}

impl FlashDevice {
    /// Builds an idle device from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FlashConfig::validate`].
    pub fn new(config: FlashConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid flash config: {e}");
        }
        let channels = (0..config.channels)
            .map(|_| ChannelSim::new(config.chips_per_channel))
            .collect();
        let chips = (0..config.total_chips())
            .map(|_| ChipBlocks::new(config.blocks_per_chip, config.pages_per_block))
            .collect();
        FlashDevice {
            config,
            channels,
            chips,
            stats: DeviceStats::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Cumulative device counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn chip_index(&self, channel: ChannelId, chip: u16) -> usize {
        debug_assert!(channel.0 < self.config.channels, "channel out of range");
        debug_assert!(chip < self.config.chips_per_channel, "chip out of range");
        usize::from(channel.0) * usize::from(self.config.chips_per_channel) + usize::from(chip)
    }

    /// Occupancy state of one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel(&self, channel: ChannelId) -> &ChannelSim {
        &self.channels[usize::from(channel.0)]
    }

    /// Mutable occupancy state of one channel (for chip rotation).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_mut(&mut self, channel: ChannelId) -> &mut ChannelSim {
        &mut self.channels[usize::from(channel.0)]
    }

    /// Block state of one chip.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn chip(&self, channel: ChannelId, chip: u16) -> &ChipBlocks {
        &self.chips[self.chip_index(channel, chip)]
    }

    /// Simulates a host read of `bytes` (≤ one page) from `chip` on
    /// `channel`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn read_page(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        chip: u16,
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.read_page");
        self.stats.host_read_bytes += bytes;
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        self.channels[usize::from(channel.0)].read_page(now, chip, bytes, &timing)
    }

    /// Simulates a host program of `bytes` (≤ one page) to `chip` on
    /// `channel`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn write_page(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        chip: u16,
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.write_page");
        self.stats.host_write_bytes += bytes;
        self.stats.flash_write_bytes += bytes;
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        self.channels[usize::from(channel.0)].write_page(now, chip, bytes, &timing)
    }

    /// A high-priority host read that may preempt suspendable background
    /// chip work (program/erase suspend).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn read_page_preempting(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        chip: u16,
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.read_page_preempting");
        self.stats.host_read_bytes += bytes;
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        self.channels[usize::from(channel.0)].read_page_preempting(now, chip, bytes, &timing)
    }

    /// Simulates reading `bytes` for a GC migration (internal traffic:
    /// no host bytes are counted).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn gc_read_page(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        chip: u16,
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.gc_read_page");
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        let times = self.channels[usize::from(channel.0)].read_page(now, chip, bytes, &timing);
        self.channels[usize::from(channel.0)].note_gc_bytes(bytes);
        times
    }

    /// Simulates programming `bytes` for a GC migration (internal traffic:
    /// counted as flash writes and GC bytes, not host bytes).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn gc_write_page(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        chip: u16,
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.gc_write_page");
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        let times = self.channels[usize::from(channel.0)].write_page(now, chip, bytes, &timing);
        self.stats.flash_write_bytes += bytes;
        self.stats.gc_migrated_bytes += bytes;
        self.channels[usize::from(channel.0)].note_gc_bytes(bytes);
        times
    }

    /// Simulates one GC migration step: read a live page and program it to
    /// a new location. Both operations stay on the device (no host bytes).
    ///
    /// `src` and `dst` may be on different channels; the page data crosses
    /// both buses, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if either address is out of range.
    pub fn migrate_page(
        &mut self,
        now: SimTime,
        src: (ChannelId, u16),
        dst: (ChannelId, u16),
        bytes: u64,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.migrate_page");
        self.stats.nand_ops += 2;
        let timing = self.config.timing.clone();
        let read = self.channels[usize::from(src.0 .0)].read_page(now, src.1, bytes, &timing);
        let write =
            self.channels[usize::from(dst.0 .0)].write_page(read.end, dst.1, bytes, &timing);
        self.stats.flash_write_bytes += bytes;
        self.stats.gc_migrated_bytes += bytes;
        self.channels[usize::from(src.0 .0)].note_gc_bytes(bytes);
        OpTimes {
            start: read.start,
            end: write.end,
        }
    }

    /// Books one bus grant of a time-sliced transfer (stats attributed per
    /// the flags: host vs GC, read vs write).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn bus_grant(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        bytes: u64,
        read: bool,
        gc: bool,
    ) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.bus_grant");
        match (read, gc) {
            (true, false) => self.stats.host_read_bytes += bytes,
            (false, false) => {
                self.stats.host_write_bytes += bytes;
                self.stats.flash_write_bytes += bytes;
            }
            (false, true) => {
                self.stats.flash_write_bytes += bytes;
                self.stats.gc_migrated_bytes += bytes;
            }
            (true, true) => {}
        }
        let timing = self.config.timing.clone();
        let times = self.channels[usize::from(channel.0)].bus_grant(now, bytes, &timing);
        if gc {
            self.channels[usize::from(channel.0)].note_gc_bytes(bytes);
        }
        times
    }

    /// Occupies a chip for its cell-read latency (time-sliced read).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn chip_read_occupy(&mut self, now: SimTime, channel: ChannelId, chip: u16) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.chip_read_occupy");
        self.stats.nand_ops += 1;
        let dur = self.config.timing.read_latency;
        self.channels[usize::from(channel.0)].chip_occupy(now, chip, dur, false)
    }

    /// Occupies a chip for its program latency (time-sliced write).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn chip_program_occupy(&mut self, now: SimTime, channel: ChannelId, chip: u16) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.chip_program_occupy");
        self.stats.nand_ops += 1;
        let dur = self.config.timing.program_latency;
        // Low-priority programs issued grant-by-grant are suspendable.
        self.channels[usize::from(channel.0)].chip_occupy(now, chip, dur, true)
    }

    /// Simulates a block erase.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn erase(&mut self, now: SimTime, channel: ChannelId, chip: u16) -> OpTimes {
        let _prof = fleetio_obs::prof::span("flash.erase");
        self.stats.erases += 1;
        self.stats.nand_ops += 1;
        let timing = self.config.timing.clone();
        self.channels[usize::from(channel.0)].erase_block(now, chip, &timing)
    }

    /// Notes the start of a GC run (for accounting).
    pub fn note_gc_run(&mut self) {
        self.stats.gc_runs += 1;
    }

    /// Allocates a free block on `(channel, chip)`, returning its address.
    ///
    /// Returns `None` when the chip has no free blocks.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn allocate_block(&mut self, channel: ChannelId, chip: u16) -> Option<BlockAddr> {
        let i = self.chip_index(channel, chip);
        // Keep one block per chip in reserve for GC migrations.
        self.chips[i]
            .allocate_with_reserve(1)
            .map(|block| BlockAddr {
                channel,
                chip,
                block,
            })
    }

    /// Allocates a block for GC use, dipping into the per-chip reserve.
    ///
    /// Returns `None` only when the chip is completely exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn allocate_block_gc(&mut self, channel: ChannelId, chip: u16) -> Option<BlockAddr> {
        let i = self.chip_index(channel, chip);
        self.chips[i].allocate().map(|block| BlockAddr {
            channel,
            chip,
            block,
        })
    }

    /// Erases `block` (bookkeeping only — call [`FlashDevice::erase`] for
    /// the timing side) and returns it to its chip's free list.
    ///
    /// # Panics
    ///
    /// Panics if live pages remain or the address is out of range.
    pub fn release_block(&mut self, block: BlockAddr) {
        let i = self.chip_index(block.channel, block.chip);
        self.chips[i].release(block.block);
    }

    /// Appends `lpa` to `block`'s next free page, returning the page index.
    ///
    /// # Panics
    ///
    /// Panics if the block is not open, the address is out of range, or
    /// `lpa` is `u32::MAX` or more (outside the page-state encoding).
    pub fn append_page(&mut self, block: BlockAddr, lpa: Lpa) -> u32 {
        let i = self.chip_index(block.channel, block.chip);
        self.chips[i].append(block.block, lpa)
    }

    /// Appends the LPAs `first`, `first + stride`, … to `count` consecutive
    /// pages of `block`, returning the first page index
    /// ([`ChipBlocks::append_run`]).
    ///
    /// # Panics
    ///
    /// Panics if the block is not open or has fewer than `count` free
    /// pages, the address is out of range, or the run's last LPA is
    /// `u32::MAX` or more.
    pub fn append_run(&mut self, block: BlockAddr, first: Lpa, stride: u64, count: u32) -> u32 {
        let i = self.chip_index(block.channel, block.chip);
        self.chips[i].append_run(block.block, first, stride, count)
    }

    /// Invalidates one page (its LPA was overwritten or trimmed).
    ///
    /// # Panics
    ///
    /// Panics if the page was never written or the address is out of range.
    pub fn invalidate_page(&mut self, block: BlockAddr, page: u32) {
        let i = self.chip_index(block.channel, block.chip);
        self.chips[i].invalidate(block.block, page);
    }

    /// Free-block fraction of the least-free chip among `channels`.
    ///
    /// GC urgency is driven by the tightest chip, since writes stripe over
    /// all of a vSSD's chips.
    pub fn min_free_fraction(&self, channels: &[ChannelId]) -> f64 {
        let mut min = 1.0f64;
        for &ch in channels {
            for chip in 0..self.config.chips_per_channel {
                min = min.min(self.chip(ch, chip).free_fraction());
            }
        }
        min
    }

    /// Total free blocks across `channels`.
    pub fn free_blocks(&self, channels: &[ChannelId]) -> usize {
        channels
            .iter()
            .flat_map(|&ch| (0..self.config.chips_per_channel).map(move |chip| (ch, chip)))
            .map(|(ch, chip)| self.chip(ch, chip).free_count())
            .sum()
    }

    /// Audits every chip's block accounting (free list vs phases, valid
    /// counts vs the page-state arena). Called from the `audit` feature's periodic
    /// structural sweep; all checks are `debug_assert!`s. `marks` is the
    /// chips' reused scratch ([`ChipBlocks::audit_invariants`]).
    #[cfg(feature = "audit")]
    pub fn audit_invariants(&self, marks: &mut Vec<bool>) {
        for chip in &self.chips {
            chip.audit_invariants(marks);
        }
    }

    /// Point-in-time occupancy snapshot of every channel, in channel
    /// order. Read-only and never consulted by the simulation itself:
    /// the engine's lockstep reference test compares two devices'
    /// channels through it.
    pub fn channel_obs(&self, now: SimTime) -> Vec<ChannelObs> {
        self.channels
            .iter()
            .map(|ch| ChannelObs {
                busy_chips: ch.busy_chips(now),
                bus_backlog: ch.bus_backlog(now),
                bus_busy: ch.bus_busy(),
                bytes_moved: ch.bytes_moved(),
                gc_bytes: ch.gc_bytes(),
                chip_backlog: (0..ch.chips())
                    .map(|c| ch.chip_free_at(c).saturating_since(now))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::small_test())
    }

    #[test]
    fn construction_matches_geometry() {
        let d = dev();
        assert_eq!(d.config().channels, 4);
        assert_eq!(d.chip(ChannelId(0), 0).free_count(), 16);
    }

    #[test]
    fn read_write_update_stats() {
        let mut d = dev();
        d.read_page(SimTime::ZERO, ChannelId(0), 0, 4096);
        d.write_page(SimTime::ZERO, ChannelId(1), 1, 8192);
        let s = d.stats();
        assert_eq!(s.host_read_bytes, 4096);
        assert_eq!(s.host_write_bytes, 8192);
        assert_eq!(s.flash_write_bytes, 8192);
    }

    #[test]
    fn migrate_counts_as_gc_not_host() {
        let mut d = dev();
        let op = d.migrate_page(SimTime::ZERO, (ChannelId(0), 0), (ChannelId(1), 0), 16384);
        let s = d.stats();
        assert_eq!(s.host_write_bytes, 0);
        assert_eq!(s.gc_migrated_bytes, 16384);
        assert_eq!(s.flash_write_bytes, 16384);
        assert!(op.end > op.start);
        assert_eq!(d.channel(ChannelId(0)).gc_bytes(), 16384);
    }

    #[test]
    fn block_alloc_append_invalidate_release_roundtrip() {
        let mut d = dev();
        let blk = d.allocate_block(ChannelId(2), 1).unwrap();
        assert_eq!(blk.channel, ChannelId(2));
        let page = d.append_page(blk, Lpa(77));
        assert_eq!(page, 0);
        d.invalidate_page(blk, page);
        d.release_block(blk);
        assert_eq!(d.chip(ChannelId(2), 1).free_count(), 16);
    }

    #[test]
    fn free_fraction_tracks_allocation() {
        let mut d = dev();
        let chans = [ChannelId(0)];
        assert!((d.min_free_fraction(&chans) - 1.0).abs() < 1e-12);
        for _ in 0..8 {
            d.allocate_block(ChannelId(0), 0).unwrap();
        }
        assert!((d.min_free_fraction(&chans) - 0.5).abs() < 1e-12);
        assert_eq!(d.free_blocks(&chans), 8 + 16);
    }

    #[test]
    fn erase_increments_counter() {
        let mut d = dev();
        d.erase(SimTime::ZERO, ChannelId(0), 0);
        assert_eq!(d.stats().erases, 1);
    }

    #[test]
    #[should_panic(expected = "invalid flash config")]
    fn invalid_config_panics() {
        let mut c = FlashConfig::small_test();
        c.pages_per_block = 0;
        let _ = FlashDevice::new(c);
    }
}
