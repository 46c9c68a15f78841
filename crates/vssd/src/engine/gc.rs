//! Garbage collection (§3.7 of the paper).
//!
//! GC is lazy: it triggers when a chip's free-block fraction drops below
//! the configured threshold (20 % by default). Victim selection prioritizes
//! harvested/reclaimed blocks (per the Harvested Block Table) over regular
//! blocks, and among those picks the fewest live pages (greedy). Valid data
//! in a harvested block is migrated to blocks owned by the vSSD whose data
//! it is (the harvester), exactly as Figure 9 describes; regular blocks
//! migrate within their own vSSD.
//!
//! Migration traffic flows through the normal per-channel dispatcher as
//! *low-priority* page operations, so foreground I/O preempts GC instead of
//! stalling behind a monolithic collection (as on real controllers with
//! program/erase suspend). When free space becomes critical the GC ops
//! escalate to higher priorities, and an out-of-space allocation falls back
//! to a fully synchronous emergency collection.

use fleetio_des::{Handle, SimDuration};
use fleetio_flash::addr::{BlockAddr, ChannelId};
use fleetio_flash::block::BlockPhase;

use crate::hbt::BlockClass;
use crate::request::Priority;

use super::{Engine, Ev, GcJob, PageOp};

impl Engine {
    /// Checks GC pressure on `(ch, chip)` after a write by vSSD `idx` and
    /// starts a GC job if needed.
    pub(crate) fn maybe_trigger_gc(&mut self, ch: ChannelId, chip: u16, idx: usize) {
        if self.warming || self.gc_running[self.chip_slot(ch.0, chip)] {
            return;
        }
        if self.device.chip(ch, chip).free_fraction() >= self.cfg.gc_free_threshold {
            return;
        }
        self.run_gc(ch, chip, idx);
    }

    /// Starts one GC pass (single victim) on `(ch, chip)`.
    ///
    /// Bookkeeping (mapping updates, invalidation, destination allocation)
    /// happens immediately; the data movement is enqueued as page ops whose
    /// priority reflects how urgent the space pressure is. The victim's
    /// erase and release happen when the last migration op completes.
    pub(crate) fn run_gc(&mut self, ch: ChannelId, chip: u16, idx: usize) {
        let Some(victim) = self.select_victim(ch, chip) else {
            return;
        };
        let owner = self
            .block_meta_get(victim)
            .map(|m| m.resource_owner)
            .unwrap_or(self.vssds[idx].cfg.id);
        let owner_idx = self.idx(owner);
        self.device.note_gc_run();
        let slot = self.chip_slot(ch.0, chip);
        self.gc_running[slot] = true;
        self.vssds[owner_idx].gc_active += 1;

        let priority = self.gc_priority(ch, chip);
        let page_bytes = self.cfg.flash.page_bytes;
        let live: Vec<(u32, u64)> = self
            .device
            .chip(victim.channel, victim.chip)
            .valid_pages(victim.block)
            .map(|(p, lpa)| (p, lpa.0))
            .collect();
        let data_owner = self
            .block_meta_get(victim)
            .map(|m| m.data_owner)
            .unwrap_or(owner);
        let dst_idx = self.idx(data_owner);

        let ext_id = self.next_gc_job;
        self.next_gc_job += 1;
        // Register the job *before* allocating migration destinations: a
        // destination append can trigger emergency GC, which must not pick
        // this victim (it would erase it mid-migration).
        let job = self.gc_jobs.insert(GcJob {
            ext_id,
            owner,
            ch: ch.0,
            chip,
            victim,
            remaining: u32::MAX,
            started: self.now,
            owns_chip_slot: true,
        });
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::GcStart {
                at: self.now,
                job: Some(ext_id),
                vssd: owner.0,
                channel: ch.0,
                chip,
                live_pages: live.len() as u32,
                emergency: false,
            });
        }
        self.detach_from_gsb(victim);
        let mut ops = std::mem::take(&mut self.gc_op_buf);
        ops.clear();
        for (page, lpa) in &live {
            let dst_ch = self.next_home_channel(dst_idx);
            let (dst_blk, dst_page) = self.append_home_page(dst_idx, dst_ch, *lpa);
            let ppa = fleetio_flash::addr::Ppa {
                block: dst_blk,
                page: dst_page,
            };
            self.vssds[dst_idx].map.set(*lpa, ppa);
            self.device.invalidate_page(victim, *page);
            ops.push((
                victim.channel.0,
                PageOp {
                    vssd: owner_idx as u32,
                    chip: victim.chip,
                    read: true,
                    bytes: page_bytes,
                    owner: PageOp::gc_owner(job),
                },
            ));
            ops.push((
                dst_blk.channel.0,
                PageOp {
                    vssd: dst_idx as u32,
                    chip: dst_blk.chip,
                    read: false,
                    bytes: page_bytes,
                    owner: PageOp::gc_owner(job),
                },
            ));
        }
        self.gc_jobs.get_mut(job).expect("job registered").remaining = ops.len() as u32;
        if ops.is_empty() {
            // Fully dead block: erase right away.
            self.gc_op_buf = ops;
            self.finish_gc_job(job);
            return;
        }
        let rank = priority.rank();
        let mut touched = std::mem::take(&mut self.gc_touched);
        touched.clear();
        for (channel, op) in ops.drain(..) {
            let idx = op.vssd as usize;
            let tickets = self.vssds[idx].cfg.tickets;
            let chan = &mut self.chans[usize::from(channel)];
            if !chan.stride.contains(idx) {
                chan.stride.add_client(idx, tickets);
                chan.members.push(idx);
            }
            chan.queues[idx][rank].push_back(op);
            chan.pending[rank] += 1;
            if !touched.contains(&channel) {
                touched.push(channel);
            }
        }
        self.gc_op_buf = ops;
        for &ch in &touched {
            self.try_dispatch(ch);
        }
        touched.clear();
        self.gc_touched = touched;
    }

    /// GC scheduling priority from space pressure. The default matches the
    /// foreground default (Medium) so GC keeps pace with a saturating
    /// writer via FIFO fairness instead of starving; when space is critical
    /// it escalates, and while pressure is far off it politely yields.
    fn gc_priority(&self, ch: ChannelId, chip: u16) -> Priority {
        let free = self.device.chip(ch, chip).free_fraction();
        if free < self.cfg.gc_free_threshold * 0.5 {
            Priority::High
        } else if free < self.cfg.gc_free_threshold {
            Priority::Medium
        } else {
            Priority::Low
        }
    }

    /// Called by the dispatcher when a GC page op completes.
    pub(crate) fn process_gc_op_done(&mut self, job: Handle) {
        let done = {
            let j = self.gc_jobs.get_mut(job).expect("GC op for unknown job");
            j.remaining -= 1;
            j.remaining == 0
        };
        if done {
            self.finish_gc_job(job);
        }
    }

    /// Erases the victim and schedules the job's completion.
    fn finish_gc_job(&mut self, job: Handle) {
        let j = self.gc_jobs[job];
        let erase = self.device.erase(self.now, j.victim.channel, j.victim.chip);
        let busy = erase.end.saturating_since(j.started);
        self.events.push(erase.end, Ev::GcDone { job, busy });
    }

    /// Picks a GC victim among the full blocks on `(ch, chip)`, preferring
    /// harvested/reclaimed blocks (per the HBT), then fewest live pages.
    fn select_victim(&self, ch: ChannelId, chip: u16) -> Option<BlockAddr> {
        let blocks = &self.chip_blocks[self.chip_slot(ch.0, chip)];
        // Sort key: harvested-class blocks first (false < true, so negate),
        // then fewest live pages (greedy).
        let mut best: Option<(BlockAddr, (bool, u32))> = None;
        for &blk in blocks {
            if self.block_meta_get(blk).is_none() {
                continue;
            }
            // A block already being collected must not be picked twice
            // (emergency GC ignores the per-chip in-progress guard).
            if self.gc_jobs.values().any(|j| j.victim == blk) {
                continue;
            }
            let state = self.device.chip(ch, chip).block(blk.block);
            let harvested = self.hbt.class(blk) == BlockClass::Harvested;
            // Eligible victims: full blocks, plus partially-written
            // harvested/reclaimed blocks (zombie gSB remnants would
            // otherwise leak as permanently-open blocks).
            let eligible = state.phase() == BlockPhase::Full
                || (harvested && state.phase() == BlockPhase::Open && state.written_count() > 0);
            if !eligible {
                continue;
            }
            let key = (!harvested, state.valid_count());
            if best.as_ref().is_none_or(|(_, k)| key < *k) {
                best = Some((blk, key));
            }
        }
        best.map(|(blk, _)| blk)
    }

    /// Detaches a victim from its ghost superblock at GC-bookkeeping time,
    /// so harvesters stop appending into it while its migration is queued.
    fn detach_from_gsb(&mut self, victim: BlockAddr) {
        let Some(gsb_id) = self.block_meta_get(victim).and_then(|m| m.gsb) else {
            return;
        };
        let emptied = match self.pool.get_mut(gsb_id) {
            Some(g) => {
                g.blocks.retain(|b| *b != victim);
                g.blocks.is_empty()
            }
            None => false,
        };
        if emptied {
            self.destroy_emptied_gsb(gsb_id);
        }
    }

    /// Returns an erased victim block to the device and scrubs engine
    /// metadata; shrinks/destroys its gSB if it had one.
    fn release_victim(&mut self, victim: BlockAddr) {
        self.device.release_block(victim);
        self.hbt.mark_regular(victim);
        let slot = self.chip_slot(victim.channel.0, victim.chip);
        self.chip_blocks[slot].retain(|b| *b != victim);
        let meta = self.block_meta_remove(victim);
        for v in &mut self.vssds {
            if v.open_blocks[slot] == Some(victim) {
                v.open_blocks[slot] = None;
            }
        }
        if let Some(gsb_id) = meta.and_then(|m| m.gsb) {
            let emptied = {
                match self.pool.get_mut(gsb_id) {
                    Some(g) => {
                        g.blocks.retain(|b| *b != victim);
                        g.blocks.is_empty()
                    }
                    None => false,
                }
            };
            if emptied {
                self.destroy_emptied_gsb(gsb_id);
            }
        }
    }

    /// Round-robin over a vSSD's home channels for GC migration targets.
    pub(crate) fn next_home_channel(&mut self, idx: usize) -> ChannelId {
        let v = &mut self.vssds[idx];
        let n = v.cfg.channels.len();
        let pos = v.stripe_pos % n;
        v.stripe_pos = (v.stripe_pos + 1) % v.stripe.len().max(1);
        v.cfg.channels[pos]
    }

    /// Handles GC completion: releases the victim, clears flags, records
    /// the busy time in the owner's window, and re-checks pressure.
    pub(crate) fn process_gc_done(&mut self, job: Handle, busy: SimDuration) {
        let j = self.gc_jobs.remove(job);
        self.release_victim(j.victim);
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::GcEnd {
                at: self.now,
                job: j.ext_id,
                vssd: j.owner.0,
                channel: j.ch,
                chip: j.chip,
                busy,
            });
        }
        let idx = self.idx(j.owner);
        self.vssds[idx].window.record_gc(busy);
        if !j.owns_chip_slot {
            // Erase-only reclaims run outside the per-chip GC slot and
            // never set gc_active; they must not decrement it (masking a
            // concurrent real collection's In_GC state) nor retrigger a
            // second collection on a chip that already has one.
            return;
        }
        let slot = self.chip_slot(j.ch, j.chip);
        self.gc_running[slot] = false;
        self.vssds[idx].gc_active = self.vssds[idx].gc_active.saturating_sub(1);
        // Still under pressure? Run another pass.
        let channel = ChannelId(j.ch);
        if self.device.chip(channel, j.chip).free_fraction() < self.cfg.gc_free_threshold {
            self.run_gc(channel, j.chip, idx);
        }
    }

    /// Eagerly reclaims a harvested/reclaimed block the moment its last
    /// live page is invalidated (§3.6: loaned blocks return to their home
    /// vSSD). Without this, fully-dead gSB blocks would wait for ordinary
    /// GC pressure, which the 25 % lending floor prevents from building —
    /// stalling the harvest pipeline.
    pub(crate) fn maybe_reclaim_dead_harvested(&mut self, blk: BlockAddr) {
        if self.warming {
            return;
        }
        let Some(meta) = self.block_meta_get(blk) else {
            return;
        };
        let owner = meta.resource_owner;
        if self.hbt.class(blk) != BlockClass::Harvested {
            return;
        }
        let state = self.device.chip(blk.channel, blk.chip).block(blk.block);
        if state.phase() != BlockPhase::Full || state.valid_count() != 0 {
            return;
        }
        if self.gc_jobs.values().any(|j| j.victim == blk) {
            return;
        }
        self.device.note_gc_run();
        let ext_id = self.next_gc_job;
        self.next_gc_job += 1;
        let job = self.gc_jobs.insert(GcJob {
            ext_id,
            owner,
            ch: blk.channel.0,
            chip: blk.chip,
            victim: blk,
            remaining: 0,
            started: self.now,
            owns_chip_slot: false,
        });
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::GcStart {
                at: self.now,
                job: Some(ext_id),
                vssd: owner.0,
                channel: blk.channel.0,
                chip: blk.chip,
                live_pages: 0,
                emergency: false,
            });
        }
        self.detach_from_gsb(blk);
        self.finish_gc_job(job);
    }

    /// Emergency synchronous GC: frees one block on `(ch, chip)` with
    /// immediate (resource-chained) migrations. Called only from the
    /// out-of-space allocation path; returns whether a block was freed.
    pub(crate) fn run_gc_emergency(&mut self, ch: ChannelId, chip: u16) -> bool {
        let Some(victim) = self.select_victim(ch, chip) else {
            return false;
        };
        self.device.note_gc_run();
        self.detach_from_gsb(victim);
        let page_bytes = u64::from(self.cfg.flash.page_bytes);
        let live: Vec<(u32, u64)> = self
            .device
            .chip(victim.channel, victim.chip)
            .valid_pages(victim.block)
            .map(|(p, lpa)| (p, lpa.0))
            .collect();
        let data_owner = self
            .block_meta_get(victim)
            .map(|m| m.data_owner)
            .unwrap_or_else(|| self.vssds[0].cfg.id);
        let dst_idx = self.idx(data_owner);
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::GcStart {
                at: self.now,
                job: None,
                vssd: data_owner.0,
                channel: ch.0,
                chip,
                live_pages: live.len() as u32,
                emergency: true,
            });
        }
        for (page, lpa) in live {
            let dst_ch = self.next_home_channel(dst_idx);
            let (dst_blk, dst_page) = self.append_home_page(dst_idx, dst_ch, lpa);
            let ppa = fleetio_flash::addr::Ppa {
                block: dst_blk,
                page: dst_page,
            };
            self.vssds[dst_idx].map.set(lpa, ppa);
            self.device.invalidate_page(victim, page);
            let _ = self.device.migrate_page(
                self.now,
                (victim.channel, victim.chip),
                (dst_blk.channel, dst_blk.chip),
                page_bytes,
            );
        }
        let _ = self.device.erase(self.now, victim.channel, victim.chip);
        self.release_victim(victim);
        true
    }
}
