//! Request arrival processing: FTL bookkeeping and op enqueueing.
//!
//! Address-mapping updates happen at arrival time; the queued page ops only
//! carry timing. This keeps GC's view of valid data coherent without
//! tracking in-flight writes, at the cost of treating data as durable the
//! moment it is accepted — indistinguishable for the bandwidth/latency
//! metrics this simulation reports.
//!
//! This is the hottest event handler in the engine, so its working vectors
//! (`arrival_ops`, `arrival_touched`, `home_candidates`) live on the
//! [`Engine`] and are reused across events: at steady state an arrival
//! performs no heap allocation.

use fleetio_des::Handle;
use fleetio_flash::addr::{BlockAddr, ChannelId, Ppa};

use crate::request::IoOp;

use super::vstate::{BlockMeta, StripeTarget};
use super::{Engine, PageOp};

impl Engine {
    pub(crate) fn process_arrival(&mut self, h: Handle) {
        let r = self.reqs[h];
        let idx = usize::from(r.vssd_idx);
        let owner = PageOp::request_owner(h);
        let page_bytes = u64::from(self.cfg.flash.page_bytes);
        let first = r.offset / page_bytes;
        let last = (r.offset + r.len - 1) / page_bytes;
        self.planned.fill(0);
        let mut ops = std::mem::take(&mut self.arrival_ops);
        ops.clear();
        for lpa in first..=last {
            // Bytes of this request that fall inside page `lpa`.
            let page_start = lpa * page_bytes;
            let lo = r.offset.max(page_start);
            let hi = (r.offset + r.len).min(page_start + page_bytes);
            let portion = u32::try_from(hi - lo).expect("a page's share fits the u32 page size");
            match r.op {
                IoOp::Read => {
                    let ppa = self.read_page_lookup(idx, lpa);
                    self.planned[usize::from(ppa.channel().0)] += 1;
                    ops.push((
                        ppa.channel().0,
                        PageOp {
                            vssd: u32::from(r.vssd_idx),
                            chip: ppa.chip(),
                            read: true,
                            bytes: portion,
                            owner,
                        },
                    ));
                }
                IoOp::Write => {
                    let ppa = self.write_page_bookkeeping(idx, lpa);
                    self.planned[usize::from(ppa.channel().0)] += 1;
                    // Programs always burn a full page on the bus and chip.
                    ops.push((
                        ppa.channel().0,
                        PageOp {
                            vssd: u32::from(r.vssd_idx),
                            chip: ppa.chip(),
                            read: false,
                            bytes: self.cfg.flash.page_bytes,
                            owner,
                        },
                    ));
                }
            }
        }
        if let Some(r) = self.reqs.get_mut(h) {
            r.remaining = ops.len() as u32;
        }
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::RequestAdmit {
                at: self.now,
                req: r.ext_id,
                vssd: self.vssds[idx].cfg.id.0,
                pages: ops.len() as u32,
            });
        }
        let prio = self.vssds[idx].priority;
        let mut touched = std::mem::take(&mut self.arrival_touched);
        touched.clear();
        for (ch, op) in ops.drain(..) {
            let chan = &mut self.chans[usize::from(ch)];
            if !chan.stride.contains(idx) {
                chan.stride.add_client(idx, self.vssds[idx].cfg.tickets);
                chan.members.push(idx);
            }
            chan.queues[idx][prio.rank()].push_back(op);
            chan.pending[prio.rank()] += 1;
            if !touched.contains(&ch) {
                touched.push(ch);
            }
        }
        self.arrival_ops = ops;
        for &ch in &touched {
            self.try_dispatch(ch);
        }
        touched.clear();
        self.arrival_touched = touched;
    }

    /// Maps a logical page for reading. Unwritten pages read from a
    /// deterministic home location (real devices return zeroes but still
    /// occupy the channel).
    pub(crate) fn read_page_lookup(&mut self, idx: usize, lpa: u64) -> Ppa {
        if let Some(ppa) = self.vssds[idx].map.get(lpa) {
            return ppa;
        }
        let homes = &self.vssds[idx].cfg.channels;
        let ch = homes[(lpa as usize) % homes.len()];
        let chip =
            ((lpa / homes.len() as u64) % u64::from(self.cfg.flash.chips_per_channel)) as u16;
        Ppa::new(ch, chip, 0, 0)
    }

    /// Performs the FTL bookkeeping for writing one logical page: picks the
    /// next stripe target (home channel or harvested gSB), appends there,
    /// updates the mapping and triggers GC checks. Returns the physical
    /// location written.
    pub(crate) fn write_page_bookkeeping(&mut self, idx: usize, lpa: u64) -> Ppa {
        // Invalidate the previous version, if any; a loaned (harvested)
        // block whose last live page dies goes straight back to its home.
        if let Some(old) = self.vssds[idx].map.get(lpa) {
            self.device.invalidate_page(old.block, old.page);
            self.maybe_reclaim_dead_harvested(old.block);
        } else {
            self.vssds[idx].mapped_pages += 1;
        }
        let (block, page) = self.append_page_striped(idx, lpa);
        let ppa = Ppa { block, page };
        self.vssds[idx].map.set(lpa, ppa);
        if !self.warming {
            self.maybe_trigger_gc(block.channel, block.chip, idx);
        }
        ppa
    }

    /// Appends one page using dynamic (least-loaded-channel) allocation
    /// over the vSSD's write stripe: its home channels plus the channels
    /// of every harvested gSB. Load-aware placement is what real host FTLs
    /// do, and it is what makes harvesting *idle-bandwidth* harvesting: a
    /// busy loaned channel simply attracts no pages, so a straggling
    /// channel never gates a striped request. Exhausted gSBs are retired
    /// on encounter so the harvest level frees up for a fresh one.
    fn append_page_striped(&mut self, idx: usize, lpa: u64) -> (BlockAddr, u32) {
        loop {
            let (ch, via) = self.pick_stripe_target(idx);
            match via {
                None => break self.append_home_page(idx, ch, lpa),
                Some(g) => {
                    if let Some(out) = self.append_gsb_page_on(idx, g, ch, lpa) {
                        break out;
                    }
                    // No room on that channel: if the whole gSB is
                    // exhausted retire it, else fall back to any gSB slot.
                    if let Some(out) = self.append_gsb_page(idx, g, lpa) {
                        break out;
                    }
                    self.retire_gsb_from_stripe(idx, g);
                }
            }
        }
    }

    /// Advances the vSSD's stripe rotation and returns the least-loaded
    /// target, walking the stripe from the rotated start so equal-load
    /// ties spread out. Only a strictly lower load displaces the best so
    /// far, so the first idle target met is the winner and ends the walk —
    /// on an idle device (all of warm-up) that is the start slot itself.
    fn pick_stripe_target(&mut self, idx: usize) -> StripeTarget {
        let v = &mut self.vssds[idx];
        let start = v.stripe_pos % v.stripe.len();
        v.stripe_pos = v.stripe_pos.wrapping_add(1);
        #[cfg(test)]
        if self.stripe_oracle {
            return self.pick_stripe_target_reference(idx, start);
        }
        let stripe = &self.vssds[idx].stripe;
        let mut best = (u32::MAX, start);
        for i in (start..stripe.len()).chain(0..start) {
            let load = self.channel_load(stripe[i].0);
            if load < best.0 {
                best = (load, i);
                if load == 0 {
                    break;
                }
            }
        }
        stripe[best.1]
    }

    /// The per-page candidate rebuild the cached stripe replaced, kept as
    /// the oracle the differential striping test runs a second engine on:
    /// candidates from `cfg.channels` and `harvested` × pool, full scan.
    #[cfg(test)]
    fn pick_stripe_target_reference(&self, idx: usize, start: usize) -> StripeTarget {
        let v = &self.vssds[idx];
        let mut candidates: Vec<StripeTarget> = v.cfg.channels.iter().map(|&c| (c, None)).collect();
        for &g in &v.harvested {
            if let Some(gsb) = self.pool.get(g) {
                candidates.extend(gsb.channels.iter().map(|&c| (c, Some(g))));
            }
        }
        assert_eq!(
            candidates.len(),
            v.stripe.len(),
            "the rotation modulus must not depend on which walk runs"
        );
        let mut best: Option<(u32, usize)> = None;
        let mut i = start;
        for _ in 0..candidates.len() {
            let load = self.channel_load(candidates[i].0);
            if best.is_none_or(|(l, _)| load < l) {
                best = Some((load, i));
            }
            i += 1;
            if i == candidates.len() {
                i = 0;
            }
        }
        candidates[best.expect("candidates non-empty").1]
    }

    /// Queued + in-flight page ops on a channel (the write-placement load
    /// signal).
    pub(crate) fn channel_load(&self, ch: ChannelId) -> u32 {
        let c = &self.chans[usize::from(ch.0)];
        c.pending.iter().sum::<u32>() + c.in_flight + self.planned[usize::from(ch.0)]
    }

    /// Appends into a gSB, restricted to its blocks on channel `ch`.
    fn append_gsb_page_on(
        &mut self,
        idx: usize,
        id: crate::gsb::GsbId,
        ch: ChannelId,
        lpa: u64,
    ) -> Option<(BlockAddr, u32)> {
        let blk = {
            let gsb = self.pool.get(id)?;
            gsb.blocks.iter().copied().find(|b| {
                b.channel == ch && self.device.chip(b.channel, b.chip).free_pages(b.block) > 0
            })?
        };
        let page = self.device.append_page(blk, fleetio_flash::addr::Lpa(lpa));
        let harvester = self.vssds[idx].cfg.id;
        if let Some(meta) = self.block_meta_get_mut(blk) {
            meta.data_owner = harvester;
        }
        Some((blk, page))
    }

    /// Appends into a harvested gSB, rotating across its blocks. Returns
    /// `None` when the gSB has no free pages left.
    fn append_gsb_page(
        &mut self,
        idx: usize,
        id: crate::gsb::GsbId,
        lpa: u64,
    ) -> Option<(BlockAddr, u32)> {
        let capacity = self.pool.get(id)?.capacity_blocks();
        for _ in 0..capacity {
            let blk = self.pool.get_mut(id)?.rotate_block();
            if self
                .device
                .chip(blk.channel, blk.chip)
                .free_pages(blk.block)
                > 0
            {
                let page = self.device.append_page(blk, fleetio_flash::addr::Lpa(lpa));
                // First write into a gSB block stamps its data owner.
                let harvester = self.vssds[idx].cfg.id;
                if let Some(meta) = self.block_meta_get_mut(blk) {
                    meta.data_owner = harvester;
                }
                return Some((blk, page));
            }
        }
        None
    }

    /// Removes an exhausted gSB from the vSSD's write stripe (it remains
    /// harvested for reads until GC reclaims it).
    pub(crate) fn retire_gsb_from_stripe(&mut self, idx: usize, id: crate::gsb::GsbId) {
        self.vssds[idx].harvested.retain(|g| *g != id);
        self.vssds[idx].rebuild_stripe(&self.pool);
    }

    /// Appends one page to the vSSD's own blocks on home channel `ch`
    /// (used by foreground writes and GC migration targets).
    pub(crate) fn append_home_page(
        &mut self,
        idx: usize,
        ch: ChannelId,
        lpa: u64,
    ) -> (BlockAddr, u32) {
        let chips = self.cfg.flash.chips_per_channel;
        let start_chip = self.device.channel_mut(ch).rotate_chip();
        // The rotated chip takes the page unless it is out of blocks.
        if let Some(out) = self.try_append_on(idx, ch, start_chip, lpa) {
            return out;
        }
        // Fallback order: the rest of the channel, then the vSSD's other
        // home channels (the failed chip stays first for the emergency
        // pass below).
        let mut candidates = std::mem::take(&mut self.home_candidates);
        candidates.clear();
        for off in 0..chips {
            candidates.push((ch, (start_chip + off) % chips));
        }
        for i in 0..self.vssds[idx].cfg.channels.len() {
            let other = self.vssds[idx].cfg.channels[i];
            if other == ch {
                continue;
            }
            for chip in 0..chips {
                candidates.push((other, chip));
            }
        }
        for pos in 1..candidates.len() {
            let (c, chip) = candidates[pos];
            if let Some((blk, page)) = self.try_append_on(idx, c, chip, lpa) {
                self.home_candidates = candidates;
                return (blk, page);
            }
        }
        // Out of space everywhere: emergency synchronous GC, then retry.
        if !self.in_emergency {
            self.in_emergency = true;
            for pos in 0..candidates.len() {
                let (c, chip) = candidates[pos];
                if self.run_gc_emergency(c, chip) {
                    if let Some((blk, page)) = self.try_append_on(idx, c, chip, lpa) {
                        self.in_emergency = false;
                        self.home_candidates = candidates;
                        return (blk, page);
                    }
                }
            }
            self.in_emergency = false;
        }
        panic!(
            "vssd {} out of flash space: no free block on any home channel. \
             The device is too small for the offered load — in-flight \
             writes (closed-loop concurrency x request size) plus the \
             working set must fit the vSSD's raw capacity",
            self.vssds[idx].cfg.id
        );
    }

    /// Appends on a specific `(channel, chip)`, opening a new block if the
    /// current one is full. Returns `None` when the chip is out of blocks.
    fn try_append_on(
        &mut self,
        idx: usize,
        ch: ChannelId,
        chip: u16,
        lpa: u64,
    ) -> Option<(BlockAddr, u32)> {
        let blk = self.open_block_with_room(idx, ch, chip)?;
        let page = self.device.append_page(blk, fleetio_flash::addr::Lpa(lpa));
        Some((blk, page))
    }

    /// The vSSD's open block on `(channel, chip)`, opening a new one if the
    /// current one is full. Returns `None` when the chip is out of blocks.
    pub(crate) fn open_block_with_room(
        &mut self,
        idx: usize,
        ch: ChannelId,
        chip: u16,
    ) -> Option<BlockAddr> {
        let slot = self.chip_slot(ch.0, chip);
        if let Some(blk) = self.vssds[idx].open_blocks[slot] {
            if self.device.chip(ch, chip).free_pages(blk.block) > 0 {
                return Some(blk);
            }
        }
        let blk = if self.in_emergency {
            self.device.allocate_block_gc(ch, chip)?
        } else {
            self.device.allocate_block(ch, chip)?
        };
        let id = self.vssds[idx].cfg.id;
        self.block_meta_insert(
            blk,
            BlockMeta {
                resource_owner: id,
                data_owner: id,
                gsb: None,
            },
        );
        self.chip_blocks[slot].push(blk);
        self.vssds[idx].open_blocks[slot] = Some(blk);
        Some(blk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::gsb::GsbId;
    use crate::request::IoRequest;
    use crate::vssd::{VssdConfig, VssdId};
    use fleetio_des::rng::{Rng, SmallRng};
    use fleetio_des::SimTime;
    use fleetio_flash::config::FlashConfig;

    const PAGE: u64 = 16 * 1024;
    /// LPAs each tenant touches: small enough that overwrites build GC
    /// pressure within the run, large enough that victims keep live pages.
    const WORKING_SET: u64 = 400;

    /// Lender (vSSD 0, channels 0–1) and harvester (vSSD 1, channels 2–3)
    /// on the tiny device, with 4-block gSBs so they exhaust quickly.
    fn engine(oracle: bool) -> Engine {
        let cfg = EngineConfig {
            flash: FlashConfig::small_test(),
            gsb_blocks_per_channel: 2,
            ..Default::default()
        };
        let mut e = Engine::new(
            cfg,
            vec![
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)]),
                VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
            ],
        );
        e.stripe_oracle = oracle;
        e
    }

    /// Where every working-set LPA of every vSSD currently lives.
    fn placements(e: &Engine) -> Vec<Option<Ppa>> {
        e.vssds
            .iter()
            .flat_map(|v| (0..WORKING_SET).map(|lpa| v.map.get(lpa)))
            .collect()
    }

    /// Differential striping: one seeded stream of writes, reads, direct
    /// page writes and harvest-level changes drives an engine on the
    /// cached stripe walk and one on the per-page reference. After every
    /// step both must have put every page at the same `(BlockAddr, page)`,
    /// and the run must have met every way the stripe changes: harvest,
    /// release, gSB exhaustion and GC emptying a gSB under its harvester.
    #[test]
    fn cached_stripe_walk_places_pages_like_the_per_page_reference() {
        let mut rng = SmallRng::seed_from_u64(0x0057_a19e);
        let (mut cached, mut oracle) = (engine(false), engine(true));
        let mut t_us = 0u64;
        let (mut harvests, mut releases, mut exhausted, mut gc_emptied) = (0, 0, 0, 0);
        let mut direct_writes = 0;
        let mut via_gsb = 0usize;
        for step in 0..4_000 {
            let held: Vec<GsbId> = cached.vssds[1].harvested.clone();
            let mut released_by_test = false;
            match rng.gen_range(0u32..40) {
                0 => {
                    let n = rng.gen_range(0usize..3);
                    for e in [&mut cached, &mut oracle] {
                        e.set_harvestable_target(VssdId(0), n);
                    }
                }
                1 => {
                    let n = rng.gen_range(0usize..3);
                    released_by_test = true;
                    for e in [&mut cached, &mut oracle] {
                        e.set_harvestable_target(VssdId(0), 2);
                        e.set_harvest_target(VssdId(1), n);
                    }
                }
                2 | 3 => {
                    // A bare bookkeeping write, as warm-up issues them.
                    let lpa = rng.gen_range(0..WORKING_SET);
                    let a = cached.write_page_bookkeeping(1, lpa);
                    let b = oracle.write_page_bookkeeping(1, lpa);
                    assert_eq!(a, b, "step {step}: direct write of lpa {lpa}");
                    direct_writes += 1;
                }
                op => {
                    // A burst of requests, then too little time to drain
                    // it: the next step sees loaded channels.
                    let vssd = if op < 20 { 0 } else { 1 };
                    let op = if op % 4 == 0 { IoOp::Read } else { IoOp::Write };
                    for _ in 0..rng.gen_range(1u32..4) {
                        let pages = rng.gen_range(1u64..5);
                        let lpa = rng.gen_range(0..WORKING_SET - pages);
                        t_us += rng.gen_range(0u64..200);
                        for e in [&mut cached, &mut oracle] {
                            e.submit(IoRequest {
                                vssd: VssdId(vssd),
                                op,
                                offset: lpa * PAGE,
                                len: pages * PAGE,
                                arrival: SimTime::from_micros(t_us),
                            });
                        }
                    }
                    t_us += rng.gen_range(100u64..1_500);
                    for e in [&mut cached, &mut oracle] {
                        e.run_until(SimTime::from_micros(t_us));
                    }
                }
            }
            assert_eq!(placements(&cached), placements(&oracle), "step {step}");
            assert_eq!(cached.vssds[1].harvested, oracle.vssds[1].harvested);
            assert_eq!(cached.vssds[1].stripe_pos, oracle.vssds[1].stripe_pos);
            let now = &cached.vssds[1].harvested;
            harvests += now.iter().filter(|g| !held.contains(g)).count();
            for g in held.iter().filter(|g| !now.contains(g)) {
                if released_by_test {
                    releases += 1;
                } else if cached.pool.get(*g).is_some() {
                    exhausted += 1;
                } else {
                    gc_emptied += 1;
                }
            }
            let homes = &cached.vssds[1].cfg.channels;
            via_gsb = via_gsb.max(
                (0..WORKING_SET)
                    .filter_map(|lpa| cached.vssds[1].map.get(lpa))
                    .filter(|ppa| !homes.contains(&ppa.channel()))
                    .count(),
            );
        }
        assert_eq!(
            cached.device().stats(),
            oracle.device().stats(),
            "same placements must cost the same device work"
        );
        assert_eq!(cached.events_processed(), oracle.events_processed());
        assert!(cached.device().stats().gc_runs > 0, "GC never ran");
        assert!(direct_writes > 0);
        assert!(via_gsb > 0, "no page was ever placed through a gSB");
        assert!(
            harvests > 0 && releases > 0 && exhausted > 0 && gc_emptied > 0,
            "stripe changes not all exercised: {harvests} harvests, {releases} releases, \
             {exhausted} exhausted, {gc_emptied} GC-emptied"
        );
    }
}
