//! Device geometry and configuration.

use crate::addr::PpaLayout;
use crate::timing::FlashTiming;

/// Full configuration of a simulated flash device.
///
/// The defaults mirror Table 3 of the paper: 1 TB capacity, 16 channels,
/// 4 chips per channel, 16 KB pages and a 20 % over-provisioning ratio,
/// with 4 MB flash blocks (§3.7). Table 3's maximum queue depth of 16 is
/// not a device parameter here: how many page ops the engine keeps in
/// flight per channel is `EngineConfig::dispatch_ahead` in `fleetio-vssd`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Number of independent flash channels.
    pub channels: u16,
    /// NAND chips (dies) behind each channel.
    pub chips_per_channel: u16,
    /// Flash blocks per chip.
    pub blocks_per_chip: u32,
    /// Pages per flash block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// Fraction of raw capacity reserved as over-provisioning (not exposed
    /// through logical capacity).
    pub overprovisioning: f64,
    /// NAND and bus timing parameters.
    pub timing: FlashTiming,
}

impl FlashConfig {
    /// The paper's full-scale device (Table 3): 16 channels × 4 chips,
    /// 4 MB blocks (256 × 16 KB pages), 1 TB raw capacity.
    pub fn paper_default() -> Self {
        FlashConfig {
            channels: 16,
            chips_per_channel: 4,
            // 1 TB / (16 ch × 4 chips) = 16 GiB per chip; 4 MiB blocks.
            blocks_per_chip: 4096,
            pages_per_block: 256,
            page_bytes: 16 * 1024,
            overprovisioning: 0.20,
            timing: FlashTiming::default(),
        }
    }

    /// A smaller device with identical per-channel performance, used for
    /// experiments: same 16 × 4 geometry and timing, 64 GiB raw capacity.
    ///
    /// Capacity only affects how long it takes GC pressure to build, not the
    /// bandwidth/latency behaviour the paper's figures measure; experiments
    /// warm the device to the same free-block ratios as the paper.
    pub fn experiment_default() -> Self {
        FlashConfig {
            blocks_per_chip: 256,
            ..Self::paper_default()
        }
    }

    /// A small-but-roomy device for RL/driver tests: the `small_test`
    /// geometry with 96 blocks per chip, enough to absorb a closed-loop
    /// tenant's in-flight writes (concurrency × request size) plus its
    /// working set.
    pub fn training_test() -> Self {
        FlashConfig {
            blocks_per_chip: 96,
            ..Self::small_test()
        }
    }

    /// A tiny device for unit tests: 4 channels × 2 chips, 16 blocks of
    /// 32 pages per chip.
    pub fn small_test() -> Self {
        FlashConfig {
            channels: 4,
            chips_per_channel: 2,
            blocks_per_chip: 16,
            pages_per_block: 32,
            page_bytes: 16 * 1024,
            overprovisioning: 0.20,
            timing: FlashTiming::default(),
        }
    }

    /// Total number of chips on the device.
    pub fn total_chips(&self) -> u32 {
        u32::from(self.channels) * u32::from(self.chips_per_channel)
    }

    /// Total number of flash blocks on the device.
    pub fn total_blocks(&self) -> u64 {
        u64::from(self.total_chips()) * u64::from(self.blocks_per_chip)
    }

    /// Bytes per flash block.
    pub fn block_bytes(&self) -> u64 {
        u64::from(self.pages_per_block) * u64::from(self.page_bytes)
    }

    /// Blocks per chip after subtracting the over-provisioned share
    /// (rounded down, minimum 1).
    pub fn logical_blocks_per_chip(&self) -> u32 {
        (((self.blocks_per_chip as f64) * (1.0 - self.overprovisioning)) as u32).max(1)
    }

    /// Peak one-direction bandwidth of a single channel bus, bytes/second.
    pub fn channel_peak_bytes_per_sec(&self) -> f64 {
        self.timing.bus_bytes_per_sec()
    }

    /// Peak aggregate bandwidth across all channels, bytes/second.
    pub fn device_peak_bytes_per_sec(&self) -> f64 {
        self.channel_peak_bytes_per_sec() * f64::from(self.channels)
    }

    /// How this geometry packs a physical page address into a `u32`.
    ///
    /// # Errors
    ///
    /// Returns the field widths when a packed address needs more than
    /// [`PpaLayout::MAX_BITS`] bits, the most for which it + 1 always fits
    /// a `u32`.
    pub fn ppa_layout(&self) -> Result<PpaLayout, String> {
        PpaLayout::new(
            self.channels,
            self.chips_per_channel,
            self.blocks_per_chip,
            self.pages_per_block,
        )
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when any dimension is
    /// zero or the over-provisioning ratio is outside `[0, 0.9]`, and the
    /// field widths when a packed page address + 1 might not fit in a
    /// `u32` ([`FlashConfig::ppa_layout`]) — the bound that lets every
    /// per-page word (an L2P entry, a chip's page-state slot holding
    /// `lpa + 1`) be four bytes.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("channels must be positive".into());
        }
        if self.chips_per_channel == 0 {
            return Err("chips_per_channel must be positive".into());
        }
        if self.blocks_per_chip == 0 {
            return Err("blocks_per_chip must be positive".into());
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be positive".into());
        }
        if self.page_bytes == 0 {
            return Err("page_bytes must be positive".into());
        }
        if !(0.0..=0.9).contains(&self.overprovisioning) {
            return Err("overprovisioning must be in [0, 0.9]".into());
        }
        self.ppa_layout().map(drop)
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        Self::experiment_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_3() {
        let c = FlashConfig::paper_default();
        assert_eq!(c.channels, 16);
        assert_eq!(c.chips_per_channel, 4);
        assert_eq!(c.page_bytes, 16 * 1024);
        assert!((c.overprovisioning - 0.20).abs() < 1e-12);
        // 1 TiB raw capacity, 4 MiB blocks.
        assert_eq!(c.total_blocks() * c.block_bytes(), 1 << 40);
        assert_eq!(c.block_bytes(), 4 << 20);
    }

    #[test]
    fn capacity_math_is_consistent() {
        let c = FlashConfig::small_test();
        assert_eq!(c.total_chips(), 8);
        assert_eq!(c.total_blocks(), 128);
        assert_eq!(c.block_bytes(), 32 * 16 * 1024);
    }

    #[test]
    fn validate_catches_zeroes() {
        let mut c = FlashConfig::small_test();
        assert!(c.validate().is_ok());
        c.channels = 0;
        assert!(c.validate().unwrap_err().contains("channels"));
        c = FlashConfig::small_test();
        c.overprovisioning = 0.95;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_packed_page_address() {
        // The paper's geometry needs 4 + 2 + 12 + 8 = 26 bits.
        for c in [
            FlashConfig::paper_default(),
            FlashConfig::small_test(),
            FlashConfig::training_test(),
            FlashConfig::experiment_default(),
        ] {
            assert!(c.validate().is_ok());
        }
        // 32 times the paper's blocks per chip is 31 bits and fits; 64
        // times is 4 + 2 + 18 + 8 = 32 and does not.
        let blocks = |blocks_per_chip| FlashConfig {
            blocks_per_chip,
            ..FlashConfig::paper_default()
        };
        assert!(blocks(4096 * 32).validate().is_ok());
        let err = blocks(4096 * 64).validate().unwrap_err();
        assert!(err.contains("32 bits"), "{err}");
        assert!(
            err.contains("channel 4 + chip 2 + block 18 + page 8"),
            "{err}"
        );
    }

    #[test]
    fn peak_bandwidth_scales_with_channels() {
        let c = FlashConfig::paper_default();
        let one = c.channel_peak_bytes_per_sec();
        assert!((c.device_peak_bytes_per_sec() - one * 16.0).abs() < 1e-6);
    }
}
