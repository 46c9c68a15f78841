//! Harvesting: gSB creation, harvesting, reclamation, admission batches.
//!
//! RL agents express *target levels* each decision window: how many channels
//! of bandwidth to make harvestable and how many to harvest. The engine
//! reconciles the current gSB state toward those targets, which maps the
//! paper's `Make_Harvestable(gsb_bw)` / `Harvest(gsb_bw)` actions onto
//! idempotent level-setting (issuing the same action twice is a no-op
//! rather than doubling the harvest).

use fleetio_flash::addr::{BlockAddr, ChannelId};

use crate::admission::{HarvestAction, BATCH_INTERVAL};
use crate::gsb::GsbId;
use crate::vssd::VssdId;

use super::{Engine, Ev};

impl Engine {
    /// Sets the number of channels of this vSSD's bandwidth that should be
    /// harvestable (the `Make_Harvestable` action, in channel units).
    ///
    /// Creates a new gSB when the target exceeds current offerings (subject
    /// to the 25 % free-block rule) and reclaims gSBs when it shrinks:
    /// unharvested gSBs are destroyed immediately, harvested ones are
    /// reclaimed lazily through GC.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn set_harvestable_target(&mut self, id: VssdId, n_chls: usize) {
        let idx = self.idx(id);
        // The target governs the *available* (unharvested) supply: gSBs
        // already harvested are loans that return through GC, so they do
        // not count against the offer level — otherwise the supply pipeline
        // would stall the moment one gSB is taken. The free-block rules
        // (25 % creation floor, allocation failures) bound total lending.
        let available: usize = self
            .pool
            .of_home(id)
            .iter()
            .filter_map(|g| self.pool.get(*g))
            .filter(|g| !g.in_use())
            .map(|g| g.n_chls())
            .sum();
        if n_chls > available {
            self.create_gsb(idx, n_chls - available);
        } else if n_chls < available {
            self.reclaim_gsbs(id, available - n_chls);
        }
        if n_chls == 0 {
            // A zero offer is a full reclamation signal: stop harvesters
            // from writing into any of this home's in-use gSBs (§3.6 lazy
            // reclamation; GC migrates the remaining data).
            self.reclaim_gsbs(id, usize::MAX);
        }
    }

    /// Sets the number of channels this vSSD should be harvesting *from
    /// others* (the `Harvest` action, in channel units).
    ///
    /// Acquires gSBs from the pool while below target (best-fit per §3.6)
    /// and releases the most recently acquired ones while above it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn set_harvest_target(&mut self, id: VssdId, n_chls: usize) {
        let idx = self.idx(id);
        loop {
            let current: usize = self.vssds[idx]
                .harvested
                .iter()
                .filter_map(|g| self.pool.get(*g))
                .map(|g| g.n_chls())
                .sum();
            if current < n_chls {
                match self.pool.harvest(id, n_chls - current) {
                    Ok(gsb) => {
                        self.vssds[idx].harvested.push(gsb);
                        self.vssds[idx].rebuild_stripe(&self.pool);
                        if self.obs_on {
                            if let Some(g) = self.pool.get(gsb) {
                                let ev = fleetio_obs::ObsEvent::GsbTransition {
                                    at: self.now,
                                    gsb: gsb.0,
                                    home: g.home.0,
                                    harvester: Some(id.0),
                                    kind: fleetio_obs::GsbKind::Harvested,
                                    channels: g.n_chls() as u16,
                                };
                                self.obs.record(ev);
                            }
                        }
                    }
                    Err(_) => return,
                }
            } else if current > n_chls && !self.vssds[idx].harvested.is_empty() {
                let gsb = self.vssds[idx]
                    .harvested
                    .pop()
                    .expect("branch checked harvested non-empty");
                self.vssds[idx].rebuild_stripe(&self.pool);
                self.release_harvested_gsb(gsb);
            } else {
                return;
            }
        }
    }

    /// Creates one gSB spanning up to `want_chls` of the vSSD's home
    /// channels, honouring the 25 % free-block rule. No-op when no channel
    /// qualifies.
    fn create_gsb(&mut self, idx: usize, want_chls: usize) {
        let id = self.vssds[idx].cfg.id;
        let chips = self.cfg.flash.chips_per_channel;
        // Candidate home channels, most free blocks first.
        let mut candidates: Vec<(usize, ChannelId)> = self.vssds[idx]
            .cfg
            .channels
            .iter()
            .filter(|&&ch| self.device.min_free_fraction(&[ch]) >= self.cfg.gsb_min_free_fraction)
            .map(|&ch| (self.device.free_blocks(&[ch]), ch))
            .collect();
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let chosen: Vec<ChannelId> = candidates
            .into_iter()
            .take(want_chls)
            .map(|(_, ch)| ch)
            .collect();
        if chosen.is_empty() {
            return;
        }
        // Harvest a fixed number of blocks per channel, striped evenly
        // across the channel's chips (§3.6).
        let per_chip = (self.cfg.gsb_blocks_per_channel / u32::from(chips)).max(1);
        let mut blocks: Vec<BlockAddr> = Vec::new();
        // Interleave channels so the gSB's block rotation stripes writes.
        for round in 0..per_chip {
            for &ch in &chosen {
                for chip in 0..chips {
                    let _ = round;
                    if let Some(blk) = self.device.allocate_block(ch, chip) {
                        blocks.push(blk);
                    }
                }
            }
        }
        if blocks.is_empty() {
            return;
        }
        let n_chosen = chosen.len() as u16;
        let gsb = self.pool.create(id, chosen, blocks.clone());
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::GsbTransition {
                at: self.now,
                gsb: gsb.0,
                home: id.0,
                harvester: None,
                kind: fleetio_obs::GsbKind::Created,
                channels: n_chosen,
            });
        }
        for blk in blocks {
            self.hbt.mark_harvested(blk);
            self.block_meta_insert(
                blk,
                super::vstate::BlockMeta {
                    resource_owner: id,
                    data_owner: id,
                    gsb: Some(gsb),
                },
            );
            let slot = self.chip_slot(blk.channel.0, blk.chip);
            self.chip_blocks[slot].push(blk);
        }
    }

    /// Reclaims roughly `excess_chls` channels of this home's gSBs:
    /// available ones are destroyed immediately (blocks returned),
    /// harvested ones wait for GC.
    fn reclaim_gsbs(&mut self, home: VssdId, mut excess_chls: usize) {
        // Destroy largest available gSBs first to converge fast.
        let mut avail: Vec<(usize, GsbId)> = self
            .pool
            .of_home(home)
            .into_iter()
            .filter_map(|g| {
                self.pool
                    .get(g)
                    .filter(|x| !x.in_use())
                    .map(|x| (x.n_chls(), g))
            })
            .collect();
        avail.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
        for (n, gsb) in avail {
            if excess_chls == 0 {
                break;
            }
            if let Some(g) = self.pool.destroy_available(gsb) {
                if self.obs_on {
                    self.obs.record(fleetio_obs::ObsEvent::GsbTransition {
                        at: self.now,
                        gsb: gsb.0,
                        home: home.0,
                        harvester: None,
                        kind: fleetio_obs::GsbKind::Destroyed,
                        channels: n as u16,
                    });
                }
                for blk in g.blocks {
                    self.return_gsb_block(blk);
                }
                excess_chls = excess_chls.saturating_sub(n);
            }
        }
        // Remaining excess sits in harvested gSBs: lazy reclamation. Stop
        // the harvester from writing new data into them (retire the gSB
        // from its stripe); the blocks are already HBT-marked, so GC
        // migrates the remaining live data first and destroys the gSB when
        // its last block empties (§3.6 "Reclaiming gSBs").
        if excess_chls > 0 {
            let in_use: Vec<(usize, GsbId, VssdId)> = self
                .pool
                .of_home(home)
                .into_iter()
                .filter_map(|g| self.pool.get(g))
                .filter_map(|g| g.harvester.map(|h| (g.n_chls(), g.id, h)))
                .collect();
            for (n, gsb, harvester) in in_use {
                if excess_chls == 0 {
                    break;
                }
                let idx = self.idx(harvester);
                if self.vssds[idx].harvested.contains(&gsb) {
                    self.retire_gsb_from_stripe(idx, gsb);
                    if self.obs_on {
                        self.obs.record(fleetio_obs::ObsEvent::GsbTransition {
                            at: self.now,
                            gsb: gsb.0,
                            home: home.0,
                            harvester: Some(harvester.0),
                            kind: fleetio_obs::GsbKind::ReclaimRequested,
                            channels: n as u16,
                        });
                    }
                    excess_chls = excess_chls.saturating_sub(n);
                }
            }
        }
    }

    /// Releases a gSB this vSSD was harvesting. Untouched gSBs go straight
    /// back to the home vSSD; written ones become GC-reclaimed zombies.
    fn release_harvested_gsb(&mut self, id: GsbId) {
        if self.obs_on {
            if let Some(g) = self.pool.get(id) {
                let ev = fleetio_obs::ObsEvent::GsbTransition {
                    at: self.now,
                    gsb: id.0,
                    home: g.home.0,
                    harvester: g.harvester.map(|h| h.0),
                    kind: fleetio_obs::GsbKind::Released,
                    channels: g.n_chls() as u16,
                };
                self.obs.record(ev);
            }
        }
        let untouched = self.pool.get(id).is_some_and(|g| {
            g.blocks.iter().all(|b| {
                self.device
                    .chip(b.channel, b.chip)
                    .block(b.block)
                    .written_count()
                    == 0
            })
        });
        if untouched {
            if let Some(g) = self.pool.destroy_harvested(id) {
                for blk in g.blocks {
                    self.return_gsb_block(blk);
                }
            }
        }
        // Otherwise: blocks hold harvester data; GC migrates them (they are
        // HBT-marked) and destroys the gSB when its last block empties.
    }

    /// Returns one never/no-longer-needed gSB block to the device.
    fn return_gsb_block(&mut self, blk: BlockAddr) {
        self.hbt.mark_regular(blk);
        self.block_meta_remove(blk);
        let slot = self.chip_slot(blk.channel.0, blk.chip);
        self.chip_blocks[slot].retain(|b| *b != blk);
        self.device.release_block(blk);
    }

    /// Destroys a harvested gSB whose last block was collected.
    pub(crate) fn destroy_emptied_gsb(&mut self, id: GsbId) {
        if self.obs_on {
            if let Some(g) = self.pool.get(id) {
                let ev = fleetio_obs::ObsEvent::GsbTransition {
                    at: self.now,
                    gsb: id.0,
                    home: g.home.0,
                    harvester: g.harvester.map(|h| h.0),
                    kind: fleetio_obs::GsbKind::Destroyed,
                    channels: g.n_chls() as u16,
                };
                self.obs.record(ev);
            }
        }
        if let Some(g) = self.pool.get(id) {
            if let Some(harvester) = g.harvester {
                let idx = self.idx(harvester);
                if self.vssds[idx].harvested.contains(&id) {
                    self.vssds[idx].harvested.retain(|x| *x != id);
                    self.vssds[idx].rebuild_stripe(&self.pool);
                }
                self.pool.destroy_harvested(id);
            } else {
                self.pool.destroy_available(id);
            }
        }
    }

    /// Executes one admission batch (§3.5) and schedules the next tick.
    pub(crate) fn process_admission_tick(&mut self) {
        let supply = self.pool.available_channels_total();
        // Sorted by id (vssd construction order is arbitrary) so
        // `drain_batch` can binary-search its per-vSSD holdings.
        let mut holdings: Vec<(VssdId, usize)> = self
            .vssds
            .iter()
            .map(|v| (v.cfg.id, self.pool.harvested_channels_by(v.cfg.id)))
            .collect();
        holdings.sort_unstable_by_key(|(id, _)| *id);
        let ch_bw = self.channel_peak_bytes_per_sec();
        let batch = self.admission.drain_batch(supply, &holdings, ch_bw);
        // Actions update the persistent level targets; afterwards every
        // vSSD is reconciled toward its targets, so a gSB exhausted
        // mid-window is replaced at the next 50 ms tick without the agent
        // having to re-issue its action (the actions are *levels*, §3.3.2).
        for action in batch {
            match action {
                HarvestAction::MakeHarvestable {
                    vssd,
                    bytes_per_sec,
                } => {
                    let target = self.channels_for_bandwidth(bytes_per_sec);
                    let i = self.idx(vssd);
                    self.harvest_targets[i].get_or_insert((0, 0)).1 = target;
                }
                HarvestAction::Harvest {
                    vssd,
                    bytes_per_sec,
                } => {
                    let target = self.channels_for_bandwidth(bytes_per_sec);
                    let i = self.idx(vssd);
                    self.harvest_targets[i].get_or_insert((0, 0)).0 = target;
                }
            }
        }
        let targets: Vec<(VssdId, usize, usize)> = self
            .vssds
            .iter()
            .enumerate()
            .filter_map(|(i, v)| self.harvest_targets[i].map(|(h, m)| (v.cfg.id, h, m)))
            .collect();
        for (id, harvest, make) in targets {
            self.set_harvestable_target(id, make);
            self.set_harvest_target(id, harvest);
        }
        let next = self.now + BATCH_INTERVAL;
        self.events.push(next, Ev::AdmissionTick);
    }
}
