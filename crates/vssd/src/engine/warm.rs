//! Warm-up pre-fill (§4.1), laid out stream by stream.
//!
//! On an idle device the foreground write path places a warm-up's pages
//! in a fixed pattern. LPA `l` goes to stripe slot
//! `(stripe_pos + l) mod n`, and each channel hands the pages it receives
//! to its chips in rotation. So every `(stripe slot, chip)` pair — a
//! *stream* — receives an arithmetic run of LPAs with stride
//! `n × chips_per_channel`, whose first LPA and count are known up front.
//! [`Engine::warm_up`] computes those streams, checks that every one fits
//! its chip before changing anything, and writes them with the run
//! primitives [`FlashDevice::append_run`](fleetio_flash::device::FlashDevice::append_run)
//! and [`PageMap::set_run`](super::vstate::PageMap::set_run). Blocks open
//! per chip in the order the page walk opens them, and the channel
//! rotations, `stripe_pos` and `mapped_pages` end where the walk leaves
//! them, so the device and every event after warm-up are unchanged.
//!
//! When the pattern does not hold — see [`WalkReason`] — warm-up writes
//! page by page through [`Engine::write_page_bookkeeping`], the function
//! every foreground write uses.

use fleetio_flash::addr::{ChannelId, Lpa, Ppa};

use super::Engine;
use crate::vssd::VssdId;

/// Pages a stream writes per round. A round writes this many pages of
/// every stream, so its L2P stores fall in a window of
/// `WARM_ROUND × stride` entries — 8 KiB for an 8-channel, 4-chip vSSD —
/// instead of sweeping the whole table once per stream. On a 2-core x86
/// host, writing one stream to the end before the next took 13.9 ms per
/// `experiment_default` colocation, rounds of 64 took 3.2–4.2 ms.
const WARM_ROUND: u64 = 64;

/// Why a warm-up takes the page-by-page walk instead of the stream plan.
/// No production caller meets any of these: every experiment, environment
/// and fleet shard warms freshly built vSSDs before their first request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkReason {
    /// The vSSD already maps a page, so a warm-up write may overwrite and
    /// invalidate.
    AlreadyMapped,
    /// A gSB is harvested: its stripe slots append through the gSB's own
    /// block rotation, not the channel's chip rotation.
    HarvestedGsb,
    /// A stripe channel has queued, in-flight or planned ops, so the
    /// load-aware pick may pass over the rotated slot.
    BusyChannel,
    /// A stream has more pages than its chip has room for (free pages of
    /// the open block plus the free blocks above the one-block GC
    /// reserve), so the walk's fallback chips would take some of them.
    ChipShort,
}

/// The stream layout of one warm-up: LPAs `0..pages` over a stripe of
/// `slots` channels, LPA 0 going to slot `start`, each channel rotating
/// over `chips` chips.
#[derive(Debug, Clone, Copy)]
struct WarmPlan {
    pages: u64,
    slots: u64,
    start: u64,
    chips: u64,
}

/// One `(stripe slot, chip)` stream: LPAs `first + stride × i` for
/// `i < count`, all on `chip`.
#[derive(Debug, Clone, Copy)]
struct Stream {
    chip: u16,
    first: u64,
    count: u64,
}

impl WarmPlan {
    /// LPA distance between consecutive pages of one stream.
    fn stride(&self) -> u64 {
        self.slots * self.chips
    }

    /// First LPA that stripe slot `k` receives.
    fn slot_first(&self, k: u64) -> u64 {
        (k + self.slots - self.start) % self.slots
    }

    /// Pages stripe slot `k` receives.
    fn slot_pages(&self, k: u64) -> u64 {
        (self.pages + self.slots - 1 - self.slot_first(k)) / self.slots
    }

    /// The stream of the `m`-th chip slot `k`'s channel picks, given the
    /// chip its rotation picks next.
    fn stream(&self, k: u64, m: u64, next_chip: u16) -> Stream {
        Stream {
            chip: ((u64::from(next_chip) + m) % self.chips) as u16,
            first: self.slot_first(k) + self.slots * m,
            count: (self.slot_pages(k) + self.chips - 1 - m) / self.chips,
        }
    }

    /// Rounds of [`WARM_ROUND`] pages the longest stream needs: the first
    /// chip of the slot LPA 0 goes to.
    fn rounds(&self) -> u64 {
        self.slot_pages(self.start)
            .div_ceil(self.chips)
            .div_ceil(WARM_ROUND)
    }
}

impl Engine {
    /// Pre-fills `fraction` of the vSSD's logical space (bookkeeping only,
    /// no simulated time), so GC pressure matches a warmed device as in
    /// §4.1 of the paper.
    ///
    /// The result is the foreground write path's, page for page; on an
    /// idle device it is laid out stream by stream (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]` or `id` is unknown.
    pub fn warm_up(&mut self, id: VssdId, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let idx = self.idx(id);
        let pages = (self.logical_capacity_pages(id) as f64 * fraction) as u64;
        self.warming = true;
        match self.warm_plan(idx, pages) {
            #[cfg(test)]
            Ok(_) if self.walk_oracle => self.warm_walk(idx, pages),
            Ok(plan) => self.warm_lay_out(idx, plan),
            Err(_) => {
                #[cfg(test)]
                {
                    self.warm_fallbacks += 1;
                }
                self.warm_walk(idx, pages);
            }
        }
        self.warming = false;
    }

    /// The stream plan for warming LPAs `0..pages` of vSSD `idx`, or why
    /// the page walk must run instead. Changes nothing.
    fn warm_plan(&self, idx: usize, pages: u64) -> Result<WarmPlan, WalkReason> {
        let v = &self.vssds[idx];
        if v.mapped_pages > 0 {
            return Err(WalkReason::AlreadyMapped);
        }
        if !v.harvested.is_empty() {
            return Err(WalkReason::HarvestedGsb);
        }
        if v.stripe.iter().any(|&(ch, _)| self.channel_load(ch) > 0) {
            return Err(WalkReason::BusyChannel);
        }
        let plan = WarmPlan {
            pages,
            slots: v.stripe.len() as u64,
            start: (v.stripe_pos % v.stripe.len()) as u64,
            chips: u64::from(self.cfg.flash.chips_per_channel),
        };
        let ppb = u64::from(self.cfg.flash.pages_per_block);
        for (k, &(ch, _)) in (0..).zip(&v.stripe) {
            let next_chip = self.device.channel(ch).next_chip();
            for m in 0..plan.chips {
                let s = plan.stream(k, m, next_chip);
                let chip = self.device.chip(ch, s.chip);
                let open = v.open_blocks[self.chip_slot(ch.0, s.chip)]
                    .map_or(0, |blk| chip.free_pages(blk.block));
                let room = u64::from(open) + chip.free_count().saturating_sub(1) as u64 * ppb;
                if s.count > room {
                    return Err(WalkReason::ChipShort);
                }
            }
        }
        Ok(plan)
    }

    /// Writes a checked plan in rounds of [`WARM_ROUND`] pages per stream,
    /// then moves the rotations and counters to where the page walk
    /// leaves them.
    fn warm_lay_out(&mut self, idx: usize, plan: WarmPlan) {
        let stride = plan.stride();
        for round in 0..plan.rounds() {
            let done = round * WARM_ROUND;
            for k in 0..plan.slots {
                let ch = self.vssds[idx].stripe[k as usize].0;
                let next_chip = self.device.channel(ch).next_chip();
                // Counts fall with `m`, so the first finished stream ends
                // the slot's round.
                for m in 0..plan.chips {
                    let s = plan.stream(k, m, next_chip);
                    if s.count <= done {
                        break;
                    }
                    let n = (s.count - done).min(WARM_ROUND);
                    self.warm_stream(idx, ch, s.chip, s.first + done * stride, stride, n);
                }
            }
        }
        for k in 0..plan.slots {
            let ch = self.vssds[idx].stripe[k as usize].0;
            self.device
                .channel_mut(ch)
                .advance_rotation(plan.slot_pages(k));
        }
        let v = &mut self.vssds[idx];
        v.stripe_pos = v.stripe_pos.wrapping_add(plan.pages as usize);
        v.mapped_pages += plan.pages;
    }

    /// Appends the LPAs `first`, `first + stride`, … (`count` of them) to
    /// the vSSD's blocks on `(ch, chip)`, opening blocks as they fill, and
    /// maps them.
    fn warm_stream(
        &mut self,
        idx: usize,
        ch: ChannelId,
        chip: u16,
        mut first: u64,
        stride: u64,
        mut count: u64,
    ) {
        while count > 0 {
            let block = self
                .open_block_with_room(idx, ch, chip)
                .expect("warm_plan checked the chip's room");
            let room = self.device.chip(ch, chip).free_pages(block.block);
            let n = u64::from(room).min(count) as u32;
            let page = self.device.append_run(block, Lpa(first), stride, n);
            self.vssds[idx]
                .map
                .set_run(first, stride, Ppa { block, page }, n);
            first += stride * u64::from(n);
            count -= u64::from(n);
        }
    }

    /// The foreground write path, one page at a time.
    fn warm_walk(&mut self, idx: usize, pages: u64) {
        for lpa in 0..pages {
            self.write_page_bookkeeping(idx, lpa);
        }
    }
}

#[cfg(test)]
mod tests {
    use fleetio_des::rng::{Rng, SmallRng};
    use fleetio_des::{SimDuration, SimTime};
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;

    use super::WalkReason;
    use crate::engine::{Engine, EngineConfig};
    use crate::request::{IoOp, IoRequest};
    use crate::vssd::{VssdConfig, VssdId};

    const PAGE: u64 = 16 * 1024;
    const TICK: SimDuration = SimDuration::from_millis(1);
    const TICKS_PER_WINDOW: u64 = 25;

    /// How much of each vSSD a warm-up fills: `None` is exactly one page.
    const FILLS: [Option<f64>; 6] = [Some(0.0), None, Some(0.3), Some(0.5), Some(0.9), Some(1.0)];

    /// The vSSD layouts experiments, environments and fleet shards warm.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Two hardware-isolated vSSDs on disjoint halves of the channels.
        HardwareHalves,
        /// Two vSSDs software-sharing every channel at `capacity_share`
        /// 0.5, warmed one after the other: the second starts from the
        /// chip rotation the first left behind.
        SoftwareShared,
        /// One single-channel hardware vSSD per channel, as the fleet
        /// uses.
        SingleChannel,
        /// A hardware vSSD on channel 0 and two software vSSDs sharing the
        /// rest: a stripe whose length is not a power of two.
        Mixed,
    }

    const LAYOUTS: [Layout; 4] = [
        Layout::HardwareHalves,
        Layout::SoftwareShared,
        Layout::SingleChannel,
        Layout::Mixed,
    ];

    fn vssds(flash: &FlashConfig, layout: Layout) -> Vec<VssdConfig> {
        let n = flash.channels;
        let chans = |from: u16, to: u16| (from..to).map(ChannelId).collect::<Vec<_>>();
        let shared = |id: u32, from: u16| {
            VssdConfig::software(VssdId(id), chans(from, n)).with_capacity_share(0.5)
        };
        match layout {
            Layout::HardwareHalves => vec![
                VssdConfig::hardware(VssdId(0), chans(0, n / 2)),
                VssdConfig::hardware(VssdId(1), chans(n / 2, n)),
            ],
            Layout::SoftwareShared => vec![shared(0, 0), shared(1, 0)],
            Layout::SingleChannel => (0..n)
                .map(|c| VssdConfig::hardware(VssdId(u32::from(c)), vec![ChannelId(c)]))
                .collect(),
            Layout::Mixed => vec![
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0)]),
                shared(1, 1),
                shared(2, 1),
            ],
        }
    }

    fn engine(flash: &FlashConfig, vssds: Vec<VssdConfig>) -> Engine {
        let cfg = EngineConfig {
            flash: flash.clone(),
            ..Default::default()
        };
        Engine::new(cfg, vssds)
    }

    /// Every structure a warm-up writes, compared between the engine that
    /// ran the plan and the one that walked.
    fn assert_same_state(plan: &Engine, walk: &Engine, at: &str) {
        for (i, (p, w)) in plan.vssds.iter().zip(&walk.vssds).enumerate() {
            if p.map != w.map {
                let lpa = (0..p.map.len()).find(|&l| p.map.get(l) != w.map.get(l));
                panic!(
                    "{at}: vssd {i} L2P first differs at lpa {lpa:?}: plan {:?}, walk {:?}",
                    lpa.and_then(|l| p.map.get(l)),
                    lpa.and_then(|l| w.map.get(l))
                );
            }
            assert_eq!(p.open_blocks, w.open_blocks, "{at}: vssd {i} open blocks");
            assert_eq!(p.stripe_pos, w.stripe_pos, "{at}: vssd {i} stripe_pos");
            assert_eq!(
                p.mapped_pages, w.mapped_pages,
                "{at}: vssd {i} mapped pages"
            );
        }
        fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
            a.iter().zip(b).position(|(x, y)| x != y)
        }
        assert!(
            plan.block_meta == walk.block_meta,
            "{at}: block_meta first differs at {:?}",
            first_diff(&plan.block_meta, &walk.block_meta)
        );
        assert_eq!(plan.n_block_meta, walk.n_block_meta, "{at}");
        assert!(
            plan.chip_blocks == walk.chip_blocks,
            "{at}: chip_blocks first differ at slot {:?}",
            first_diff(&plan.chip_blocks, &walk.chip_blocks)
        );
        let flash = &plan.cfg.flash;
        for ch in (0..flash.channels).map(ChannelId) {
            assert_eq!(
                plan.device.channel(ch).next_chip(),
                walk.device.channel(ch).next_chip(),
                "{at}: {ch} chip rotation"
            );
            for chip in 0..flash.chips_per_channel {
                // Block counters and phases, free list order, every slot.
                assert!(
                    plan.device.chip(ch, chip) == walk.device.chip(ch, chip),
                    "{at}: {ch} chip {chip} block state"
                );
            }
        }
        assert_eq!(plan.device.stats(), walk.device.stats(), "{at}");
    }

    /// Two windows of seeded reads and writes over each vSSD's whole
    /// logical space on both engines: every completion, window summary
    /// and device counter must agree tick by tick.
    fn assert_same_traffic(plan: &mut Engine, walk: &mut Engine, seed: u64, at: &str) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = plan.vssd_ids();
        let (mut done_p, mut done_w) = (Vec::new(), Vec::new());
        let mut completed = 0;
        for tick in 0..2 * TICKS_PER_WINDOW {
            let t0 = SimTime::ZERO + TICK * tick;
            for &id in &ids {
                let cap = plan.logical_capacity_pages(id);
                for _ in 0..rng.gen_range(0u32..3) {
                    let pages = rng.gen_range(1u64..4).min(cap);
                    let req = IoRequest {
                        vssd: id,
                        op: if rng.gen_range(0u32..2) == 0 {
                            IoOp::Read
                        } else {
                            IoOp::Write
                        },
                        offset: rng.gen_range(0..cap - pages + 1) * PAGE,
                        len: pages * PAGE,
                        arrival: t0 + SimDuration::from_nanos(rng.gen_range(0..TICK.as_nanos())),
                    };
                    assert_eq!(plan.submit(req), walk.submit(req));
                }
            }
            let t1 = t0 + TICK;
            plan.run_until(t1);
            walk.run_until(t1);
            plan.drain_completed_into(&mut done_p);
            walk.drain_completed_into(&mut done_w);
            assert_eq!(done_p, done_w, "{at} tick {tick}: completions");
            completed += done_p.len() as u64;
            done_p.clear();
            done_w.clear();
            assert_eq!(
                plan.device().stats(),
                walk.device().stats(),
                "{at} tick {tick}"
            );
            if (tick + 1) % TICKS_PER_WINDOW == 0 {
                for &id in &ids {
                    assert_eq!(plan.finish_window(id), walk.finish_window(id), "{at}");
                    assert_eq!(plan.snapshot(id), walk.snapshot(id), "{at}");
                }
            }
        }
        assert_eq!(plan.events_processed(), walk.events_processed(), "{at}");
        completed
    }

    /// Every layout × fill on `flash`: twin engines, one on the stream
    /// plan and one on the page walk, warmed vSSD by vSSD and compared
    /// after each warm-up and through two windows of traffic.
    fn plan_equals_walk(flash: &FlashConfig, name: &str) {
        let (mut warmed, mut completed) = (0u64, 0u64);
        for (l, layout) in LAYOUTS.into_iter().enumerate() {
            for (f, fill) in FILLS.into_iter().enumerate() {
                let at = format!("{name} {layout:?} fill {fill:?}");
                let (mut plan, mut walk) = (
                    engine(flash, vssds(flash, layout)),
                    engine(flash, vssds(flash, layout)),
                );
                walk.walk_oracle = true;
                for id in plan.vssd_ids() {
                    let cap = plan.logical_capacity_pages(id);
                    let fraction = fill.unwrap_or(1.5 / cap as f64);
                    plan.warm_up(id, fraction);
                    walk.warm_up(id, fraction);
                    let pages = plan.vssds[plan.idx(id)].mapped_pages;
                    if fill.is_none() {
                        assert_eq!(pages, 1, "{at}: one page");
                    }
                    warmed += pages;
                    assert_same_state(&plan, &walk, &format!("{at} after warming {id}"));
                }
                // A silent fallback would give the same state, slowly.
                assert_eq!(plan.warm_fallbacks, 0, "{at}: the plan did not run");
                let seed = 0x3a12 ^ (l as u64) << 8 ^ f as u64;
                completed += assert_same_traffic(&mut plan, &mut walk, seed, &at);
            }
        }
        println!(
            "warm-up plan vs page walk on {name}: {} layouts x {} fills, {warmed} pages \
             warmed, {completed} requests after: identical",
            LAYOUTS.len(),
            FILLS.len()
        );
        assert!(completed > 0);
    }

    #[test]
    fn warm_up_plan_equals_the_page_walk() {
        plan_equals_walk(&FlashConfig::small_test(), "small_test");
        plan_equals_walk(&FlashConfig::training_test(), "training_test");
    }

    /// The device every experiment warms; 36 M walked pages are too slow
    /// for the debug suite.
    #[test]
    #[ignore = "experiment-scale; CI runs it in release"]
    fn warm_up_plan_equals_the_page_walk_on_experiment_default() {
        plan_equals_walk(&FlashConfig::experiment_default(), "experiment_default");
    }

    /// Each fallback case, met on purpose: the plan names it, and warm-up
    /// maps every page through the walk instead.
    #[test]
    fn each_fallback_case_takes_the_page_walk() {
        type Setup = fn(&mut Engine);
        let flash = FlashConfig::small_test();
        let cases: [(WalkReason, Setup); 4] = [
            (WalkReason::AlreadyMapped, |e| {
                e.warm_up(VssdId(0), 0.25);
                assert_eq!(e.warm_fallbacks, 0);
            }),
            (WalkReason::HarvestedGsb, |e| {
                e.set_harvestable_target(VssdId(1), 2);
                e.set_harvest_target(VssdId(0), 2);
                assert_eq!(e.vssds[0].stripe.len(), 4);
            }),
            (WalkReason::BusyChannel, |e| {
                e.submit(IoRequest {
                    vssd: VssdId(0),
                    op: IoOp::Read,
                    offset: 0,
                    len: PAGE,
                    arrival: SimTime::ZERO,
                });
                e.run_until(SimTime::from_micros(1));
                assert!(e.vssds[0]
                    .stripe
                    .iter()
                    .any(|&(ch, _)| e.channel_load(ch) > 0));
            }),
            (WalkReason::ChipShort, |e| {
                // Leave chip 0 of channel 0 two blocks above the reserve.
                while e.device.chip(ChannelId(0), 0).free_count() > 3 {
                    e.device.allocate_block(ChannelId(0), 0);
                }
            }),
        ];
        for (reason, setup) in cases {
            let mut e = engine(&flash, vssds(&flash, Layout::HardwareHalves));
            setup(&mut e);
            let pages = e.logical_capacity_pages(VssdId(0)) / 2;
            assert_eq!(e.warm_plan(0, pages).err(), Some(reason));
            e.warm_up(VssdId(0), 0.5);
            assert_eq!(e.warm_fallbacks, 1, "{reason:?}");
            assert!(
                (0..pages).all(|lpa| e.vssds[0].map.get(lpa).is_some()),
                "{reason:?}: the walk left a page unmapped"
            );
        }
    }
}
