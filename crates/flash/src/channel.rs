//! Per-channel bus and chip occupancy simulation.
//!
//! Each channel has one shared command/data bus and several NAND chips. The
//! simulator tracks a "next free" time for the bus and for each chip and
//! derives start/end times for every operation from those, which reproduces
//! the two first-order performance effects of real flash channels:
//!
//! * the bus serializes data transfers (≈64 MB/s per channel), and
//! * cell operations (read/program/erase) occupy only their chip, so
//!   transfers to one chip overlap with programs on another.

use fleetio_des::{SimDuration, SimTime};

use crate::timing::FlashTiming;

/// Start/end times of one simulated flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTimes {
    /// When the operation began occupying its first resource.
    pub start: SimTime,
    /// When the data was fully transferred / the cell operation finished.
    pub end: SimTime,
}

impl OpTimes {
    /// Total service latency of the operation.
    pub fn latency(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Occupancy state of one flash channel.
#[derive(Debug, Clone)]
pub struct ChannelSim {
    bus_free: SimTime,
    chip_free: Vec<SimTime>,
    /// Cumulative time the bus spent transferring data.
    bus_busy: SimDuration,
    /// Cumulative bytes moved over the bus (reads + writes + GC traffic).
    bytes_moved: u64,
    /// Bytes moved for garbage collection only.
    gc_bytes: u64,
    /// Round-robin rotation for page-to-chip placement.
    next_chip: u16,
    /// Whether each chip's current booking is a suspendable background
    /// operation (low-priority program or erase). High-priority reads may
    /// preempt those, as program/erase-suspend does on real NAND.
    chip_suspendable: Vec<bool>,
}

impl ChannelSim {
    /// Creates an idle channel with `chips` NAND chips.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    pub fn new(chips: u16) -> Self {
        assert!(chips > 0, "a channel needs at least one chip");
        ChannelSim {
            bus_free: SimTime::ZERO,
            chip_free: vec![SimTime::ZERO; usize::from(chips)],
            bus_busy: SimDuration::ZERO,
            bytes_moved: 0,
            gc_bytes: 0,
            next_chip: 0,
            chip_suspendable: vec![false; usize::from(chips)],
        }
    }

    /// Number of chips behind this channel.
    pub fn chips(&self) -> u16 {
        self.chip_free.len() as u16
    }

    /// Earliest time the bus can accept a new transfer.
    pub fn bus_free_at(&self) -> SimTime {
        self.bus_free
    }

    /// Earliest time `chip` can accept a new cell operation.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_free_at(&self, chip: u16) -> SimTime {
        self.chip_free[usize::from(chip)]
    }

    /// Cumulative bus-busy time (data transfer only).
    pub fn bus_busy(&self) -> SimDuration {
        self.bus_busy
    }

    /// Cumulative bytes moved over this channel.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Cumulative bytes moved for GC migrations.
    pub fn gc_bytes(&self) -> u64 {
        self.gc_bytes
    }

    /// Picks the next chip in round-robin order (used for page placement).
    pub fn rotate_chip(&mut self) -> u16 {
        let c = self.next_chip;
        self.next_chip = (self.next_chip + 1) % self.chips();
        c
    }

    /// The chip the next [`ChannelSim::rotate_chip`] will pick.
    pub fn next_chip(&self) -> u16 {
        self.next_chip
    }

    /// Advances the rotation by `n` picks, as `n` calls of
    /// [`ChannelSim::rotate_chip`] would.
    pub fn advance_rotation(&mut self, n: u64) {
        let chips = u64::from(self.chips());
        self.next_chip = ((u64::from(self.next_chip) + n % chips) % chips) as u16;
    }

    /// Simulates reading `bytes` from one page on `chip`.
    ///
    /// The cell read occupies the chip; the data transfer then occupies the
    /// bus. The chip is held until its data has left the register.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn read_page(
        &mut self,
        now: SimTime,
        chip: u16,
        bytes: u64,
        timing: &FlashTiming,
    ) -> OpTimes {
        let c = usize::from(chip);
        let cell_start = now.max(self.chip_free[c]);
        let cell_end = cell_start + timing.read_latency;
        let bus_start = cell_end.max(self.bus_free);
        let xfer = timing.transfer(bytes);
        let end = bus_start + xfer;
        self.chip_free[c] = end;
        self.chip_suspendable[c] = false;
        self.bus_free = end;
        self.bus_busy += xfer;
        self.bytes_moved += bytes;
        OpTimes {
            start: cell_start,
            end,
        }
    }

    /// Like [`ChannelSim::read_page`], but preempts a suspendable chip
    /// booking (low-priority program or erase) the way program/erase
    /// suspend works on real NAND: the read starts immediately and the
    /// suspended operation resumes afterwards (its completion slips by the
    /// cell-read time).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn read_page_preempting(
        &mut self,
        now: SimTime,
        chip: u16,
        bytes: u64,
        timing: &FlashTiming,
    ) -> OpTimes {
        let c = usize::from(chip);
        if self.chip_suspendable[c] && self.chip_free[c] > now {
            let cell_end = now + timing.read_latency;
            let bus_start = cell_end.max(self.bus_free);
            let xfer = timing.transfer(bytes);
            let end = bus_start + xfer;
            // The suspended background op finishes later by the suspension.
            self.chip_free[c] += timing.read_latency;
            self.bus_free = end;
            self.bus_busy += xfer;
            self.bytes_moved += bytes;
            return OpTimes { start: now, end };
        }
        self.read_page(now, chip, bytes, timing)
    }

    /// Simulates writing `bytes` into one page on `chip`.
    ///
    /// The transfer occupies the bus first; the program then occupies only
    /// the chip, so the bus is free to feed another chip while this one
    /// programs.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn write_page(
        &mut self,
        now: SimTime,
        chip: u16,
        bytes: u64,
        timing: &FlashTiming,
    ) -> OpTimes {
        let c = usize::from(chip);
        let xfer = timing.transfer(bytes);
        let bus_start = now.max(self.bus_free);
        let xfer_end = bus_start + xfer;
        let prog_start = xfer_end.max(self.chip_free[c]);
        let end = prog_start + timing.program_latency;
        self.bus_free = xfer_end;
        self.chip_free[c] = end;
        self.chip_suspendable[c] = false;
        self.bus_busy += xfer;
        self.bytes_moved += bytes;
        OpTimes {
            start: bus_start,
            end,
        }
    }

    /// Simulates erasing a block on `chip`. Only the chip is occupied.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn erase_block(&mut self, now: SimTime, chip: u16, timing: &FlashTiming) -> OpTimes {
        let c = usize::from(chip);
        let start = now.max(self.chip_free[c]);
        let end = start + timing.erase_latency;
        self.chip_free[c] = end;
        // Erases are long (milliseconds) and always suspendable.
        self.chip_suspendable[c] = true;
        OpTimes { start, end }
    }

    /// Books a bare bus transfer of `bytes` (one grant of a time-sliced
    /// transfer). The chip is not touched.
    pub fn bus_grant(&mut self, now: SimTime, bytes: u64, timing: &FlashTiming) -> OpTimes {
        let start = now.max(self.bus_free);
        let xfer = timing.transfer(bytes);
        let end = start + xfer;
        self.bus_free = end;
        self.bus_busy += xfer;
        self.bytes_moved += bytes;
        OpTimes { start, end }
    }

    /// Occupies `chip` for `duration` (cell read or program half of a
    /// time-sliced operation). The bus is not touched.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn chip_occupy(
        &mut self,
        now: SimTime,
        chip: u16,
        duration: SimDuration,
        suspendable: bool,
    ) -> OpTimes {
        let c = usize::from(chip);
        let start = now.max(self.chip_free[c]);
        let end = start + duration;
        self.chip_free[c] = end;
        self.chip_suspendable[c] = suspendable;
        OpTimes { start, end }
    }

    /// Records `bytes` of internal GC migration traffic (for accounting).
    pub fn note_gc_bytes(&mut self, bytes: u64) {
        self.gc_bytes += bytes;
    }

    /// Number of chips still busy (booked past `now`).
    pub fn busy_chips(&self, now: SimTime) -> u16 {
        self.chip_free.iter().filter(|&&f| f > now).count() as u16
    }

    /// How far past `now` the bus is booked (zero when idle).
    pub fn bus_backlog(&self, now: SimTime) -> SimDuration {
        self.bus_free.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> FlashTiming {
        FlashTiming::default()
    }

    #[test]
    fn read_after_idle_has_base_latency() {
        let mut ch = ChannelSim::new(4);
        let op = ch.read_page(SimTime::ZERO, 0, 16 * 1024, &t());
        // 50 µs cell read + ~244 µs transfer.
        let us = op.latency().as_micros();
        assert!((290..=300).contains(&us), "latency {us}us");
    }

    #[test]
    fn bus_serializes_reads_from_different_chips() {
        let mut ch = ChannelSim::new(4);
        let a = ch.read_page(SimTime::ZERO, 0, 16 * 1024, &t());
        let b = ch.read_page(SimTime::ZERO, 1, 16 * 1024, &t());
        // Chip 1's cell read overlaps chip 0's transfer, but the transfers
        // are serialized on the bus.
        assert!(b.end > a.end);
        let gap = b.end.saturating_since(a.end).as_micros();
        assert!((240..=250).contains(&gap), "gap {gap}us");
    }

    #[test]
    fn writes_pipeline_across_chips() {
        let mut ch = ChannelSim::new(4);
        let a = ch.write_page(SimTime::ZERO, 0, 16 * 1024, &t());
        let b = ch.write_page(SimTime::ZERO, 1, 16 * 1024, &t());
        // Second transfer starts right after the first (bus), its program
        // overlaps chip 0's program.
        let serial = (t().transfer(16 * 1024) * 2 + t().program_latency * 2).as_micros();
        let actual = b.end.saturating_since(SimTime::ZERO).as_micros();
        assert!(actual < serial, "no pipelining: {actual} >= {serial}");
        assert_eq!(
            a.end.as_micros(),
            (t().transfer(16 * 1024) + t().program_latency).as_micros()
        );
    }

    #[test]
    fn same_chip_writes_serialize_on_program() {
        let mut ch = ChannelSim::new(1);
        let _ = ch.write_page(SimTime::ZERO, 0, 16 * 1024, &t());
        let b = ch.write_page(SimTime::ZERO, 0, 16 * 1024, &t());
        // End ≈ xfer + max(xfer, prog) + prog relative to zero.
        let want = t().transfer(16 * 1024) + t().program_latency + t().program_latency;
        assert_eq!(b.end.as_micros(), (SimTime::ZERO + want).as_micros());
    }

    #[test]
    fn erase_occupies_only_chip() {
        let mut ch = ChannelSim::new(2);
        let e = ch.erase_block(SimTime::ZERO, 0, &t());
        assert_eq!(e.latency().as_millis_f64() as u64, 3);
        // Bus untouched: a read on another chip starts its transfer
        // immediately after its cell read.
        let r = ch.read_page(SimTime::ZERO, 1, 4096, &t());
        assert!(r.end < e.end);
    }

    #[test]
    fn rotate_chip_cycles() {
        let mut ch = ChannelSim::new(3);
        let seq: Vec<u16> = (0..7).map(|_| ch.rotate_chip()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    /// Advancing by `n` lands where `n` picks would, from every start and
    /// for counts past several full turns, on chip counts that do and do
    /// not divide them.
    #[test]
    fn advance_rotation_equals_n_picks() {
        for chips in [1u16, 2, 3, 4] {
            for start in 0..chips {
                for n in [0u64, 1, 2, 3, 5, 8, 64, 10_007] {
                    let (mut picked, mut advanced) =
                        (ChannelSim::new(chips), ChannelSim::new(chips));
                    for _ in 0..start {
                        picked.rotate_chip();
                        advanced.rotate_chip();
                    }
                    assert_eq!(advanced.next_chip(), start);
                    for _ in 0..n {
                        picked.rotate_chip();
                    }
                    advanced.advance_rotation(n);
                    assert_eq!(
                        advanced.next_chip(),
                        picked.next_chip(),
                        "{chips} chips, {start} + {n}"
                    );
                    assert_eq!(advanced.rotate_chip(), picked.rotate_chip());
                }
            }
        }
    }

    #[test]
    fn accounting_tracks_bytes_and_busy_time() {
        let mut ch = ChannelSim::new(2);
        ch.read_page(SimTime::ZERO, 0, 8192, &t());
        ch.write_page(SimTime::ZERO, 1, 8192, &t());
        ch.note_gc_bytes(4096);
        assert_eq!(ch.bytes_moved(), 16384);
        assert_eq!(ch.gc_bytes(), 4096);
        assert_eq!(ch.bus_busy().as_nanos(), t().transfer(8192).as_nanos() * 2);
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_chips_panics() {
        let _ = ChannelSim::new(0);
    }
}
