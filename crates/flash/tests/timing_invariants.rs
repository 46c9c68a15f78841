//! Property tests over the channel resource model: the bus and chips are
//! single-server resources, so their "next free" clocks must be monotone
//! and ops must never overlap on the same resource.

use fleetio_des::rng::{Rng, SmallRng};
use fleetio_des::{SimDuration, SimTime};
use fleetio_flash::channel::ChannelSim;
use fleetio_flash::FlashTiming;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { chip: u16, bytes: u64 },
    Write { chip: u16, bytes: u64 },
    Erase { chip: u16 },
    Grant { bytes: u64 },
    HighRead { chip: u16, bytes: u64 },
}

fn random_op(rng: &mut SmallRng, chips: u16) -> Op {
    let kind = rng.gen_range(0u32..5);
    let chip = rng.gen_range(0u16..chips);
    let bytes = rng.gen_range(512u64..16384);
    match kind {
        0 => Op::Read { chip, bytes },
        1 => Op::Write { chip, bytes },
        2 => Op::Erase { chip },
        3 => Op::Grant { bytes },
        _ => Op::HighRead { chip, bytes },
    }
}

/// Every operation ends after it starts, starts no earlier than
/// requested, and the bus-busy accumulator never exceeds elapsed time.
#[test]
fn ops_are_well_ordered() {
    let mut rng = SmallRng::seed_from_u64(0x0b5);
    for _case in 0..64 {
        let n = rng.gen_range(1usize..120);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng, 4)).collect();
        let gaps: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..500)).collect();
        let timing = FlashTiming::default();
        let mut ch = ChannelSim::new(4);
        let mut now = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        for (op, gap) in ops.iter().zip(gaps.iter()) {
            now += SimDuration::from_micros(*gap);
            let times = match *op {
                Op::Read { chip, bytes } => ch.read_page(now, chip, bytes, &timing),
                Op::Write { chip, bytes } => ch.write_page(now, chip, bytes, &timing),
                Op::Erase { chip } => ch.erase_block(now, chip, &timing),
                Op::Grant { bytes } => ch.bus_grant(now, bytes, &timing),
                Op::HighRead { chip, bytes } => ch.read_page_preempting(now, chip, bytes, &timing),
            };
            assert!(times.end > times.start, "zero-length op");
            assert!(times.start >= now, "op started before request");
            last_end = last_end.max(times.end);
        }
        // Bus can never have been busy longer than the span it had.
        assert!(
            ch.bus_busy() <= last_end.saturating_since(SimTime::ZERO),
            "bus busy {} exceeds horizon {}",
            ch.bus_busy(),
            last_end
        );
    }
}

/// The bus serializes: consecutive transfer-bearing ops never share
/// bus time (each next transfer starts at or after the previous
/// booking's end).
#[test]
fn bus_free_clock_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0xb05);
    for _case in 0..64 {
        let n = rng.gen_range(2usize..80);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(512u64..32768)).collect();
        let timing = FlashTiming::default();
        let mut ch = ChannelSim::new(2);
        let mut prev_free = SimTime::ZERO;
        for (i, bytes) in sizes.iter().enumerate() {
            let chip = (i % 2) as u16;
            let _ = ch.read_page(SimTime::ZERO, chip, *bytes, &timing);
            let free = ch.bus_free_at();
            assert!(free >= prev_free, "bus_free went backwards");
            prev_free = free;
        }
    }
}

/// Time-sliced transfers — each booking its next 4 KiB grant at the bus
/// tail the moment its previous one ends — interleaved with every other
/// op: the bus clock stays monotone, no grant overlaps the booking before
/// it, and every byte joined is moved exactly once.
#[test]
fn sliced_transfers_conserve_bytes_and_order() {
    const GRANT: u64 = 4096;
    let mut rng = SmallRng::seed_from_u64(0x51_1ce);
    let timing = FlashTiming::default();
    for _case in 0..64 {
        let mut ch = ChannelSim::new(4);
        // In-flight transfers as (next grant's booking instant, bytes left).
        let mut sliced: Vec<(SimTime, u64)> = Vec::new();
        let (mut now, mut joined, mut other) = (SimTime::ZERO, 0u64, 0u64);
        for _ in 0..rng.gen_range(20usize..200) {
            now += SimDuration::from_micros(rng.gen_range(0u64..300));
            // Every grant due by now, earliest first.
            while let Some(i) = (0..sliced.len())
                .filter(|&i| sliced[i].0 <= now)
                .min_by_key(|&i| sliced[i].0)
            {
                let (at, left) = sliced[i];
                let before = ch.bus_free_at();
                let g = ch.bus_grant(at, GRANT.min(left), &timing);
                assert!(g.start >= before && g.start >= at && ch.bus_free_at() == g.end);
                sliced[i] = (g.end, left - GRANT.min(left));
                if sliced[i].1 == 0 {
                    sliced.swap_remove(i);
                }
            }
            if sliced.len() < 3 && rng.gen_range(0u32..3) == 0 {
                let bytes = rng.gen_range(GRANT + 1..5 * GRANT);
                sliced.push((now, bytes));
                joined += bytes;
                continue;
            }
            let before = ch.bus_free_at();
            match random_op(&mut rng, 4) {
                Op::Read { chip, bytes } => {
                    ch.read_page(now, chip, bytes, &timing);
                    other += bytes;
                }
                Op::Write { chip, bytes } => {
                    ch.write_page(now, chip, bytes, &timing);
                    other += bytes;
                }
                Op::HighRead { chip, bytes } => {
                    ch.read_page_preempting(now, chip, bytes, &timing);
                    other += bytes;
                }
                Op::Erase { chip } => {
                    ch.erase_block(now, chip, &timing);
                }
                Op::Grant { bytes } => {
                    ch.bus_grant(now, bytes, &timing);
                    other += bytes;
                }
            }
            assert!(ch.bus_free_at() >= before, "bus_free went backwards");
        }
        let waiting: u64 = sliced.iter().map(|s| s.1).sum();
        assert_eq!(ch.bytes_moved() + waiting, joined + other);
    }
}

/// Preempting reads really do beat plain reads when the chip is busy
/// with a suspendable background operation.
#[test]
fn preempting_read_never_slower() {
    let mut rng = SmallRng::seed_from_u64(0x93e);
    for _case in 0..64 {
        let bytes = rng.gen_range(512u64..16384);
        let timing = FlashTiming::default();
        // Plain read behind an erase.
        let mut a = ChannelSim::new(1);
        a.erase_block(SimTime::ZERO, 0, &timing);
        let plain = a.read_page(SimTime::ZERO, 0, bytes, &timing);
        // Preempting read behind an identical erase.
        let mut b = ChannelSim::new(1);
        let erase = b.erase_block(SimTime::ZERO, 0, &timing);
        let preempting = b.read_page_preempting(SimTime::ZERO, 0, bytes, &timing);
        assert!(preempting.end <= plain.end);
        // Suspension pushes the suspended erase's completion past its
        // original end (the chip clock slips by the cell-read time).
        assert!(b.chip_free_at(0) > erase.end);
    }
}
