//! Device-level accounting: utilization and write amplification.

/// Cumulative device counters.
///
/// `host_*` counts bytes the host asked to move; `flash_write_bytes` counts
/// bytes physically programmed (host writes plus GC migrations), so the
/// write-amplification factor is `flash_write_bytes / host_write_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes read on behalf of the host.
    pub host_read_bytes: u64,
    /// Bytes written on behalf of the host.
    pub host_write_bytes: u64,
    /// Bytes physically programmed (host + GC).
    pub flash_write_bytes: u64,
    /// Bytes migrated by garbage collection.
    pub gc_migrated_bytes: u64,
    /// Blocks erased.
    pub erases: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// NAND array operations issued (page reads, page programs, chip
    /// occupies and erases; host + GC). Bus grants are transfer slices,
    /// not array operations, and are excluded.
    pub nand_ops: u64,
}

impl DeviceStats {
    /// Write-amplification factor, or `None` before any host write.
    pub fn waf(&self) -> Option<f64> {
        (self.host_write_bytes > 0)
            .then(|| self.flash_write_bytes as f64 / self.host_write_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waf_requires_host_writes() {
        let mut s = DeviceStats::default();
        assert_eq!(s.waf(), None);
        s.host_write_bytes = 100;
        s.flash_write_bytes = 150;
        assert_eq!(s.waf(), Some(1.5));
    }
}
