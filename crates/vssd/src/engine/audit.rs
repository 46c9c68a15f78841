//! Runtime invariant sweeps for the engine (the `audit` cargo feature).
//!
//! Every event dispatched by [`Engine::run_until`] is fed to a
//! [`fleetio_des::audit::SimAuditor`] (event-time monotonicity), and every
//! [`SWEEP_INTERVAL`] events the engine runs a full structural sweep over
//! the cross-crate bookkeeping that no single method can see end to end:
//!
//! * **Free-block accounting** — per chip, the device's free list plus the
//!   engine's registered-block lists must census to the full geometry.
//!   This is the count the §3.4 GC trigger (`gc_free_threshold`, 20%)
//!   reads via `free_fraction()`, so drift here silently breaks GC timing.
//! * **Block registry consistency** — `block_meta` and `chip_blocks` hold
//!   exactly the same blocks, each filed under its own chip, each in a
//!   non-free device phase, and each `gsb` back-reference resolves (or the
//!   block is the victim of an in-flight GC job, detached at job start).
//! * **gSB harvest conservation** — the pool's `harvester` fields and the
//!   per-vSSD `harvested` lists are two views of one relation; a gSB is
//!   harvested by exactly the vSSD that lists it (§3.6).
//! * **Write-stripe coherence** — each vSSD's cached write stripe equals a
//!   from-scratch rebuild from its home channels, its `harvested` list and
//!   the pool, so no page can be placed through a stale slot.
//! * **Bus arbiter** — its steps are in key order, none is overdue (the
//!   run loop merges the arbiter into the event queue's order, so a step
//!   left in the past is a grant booked late), every sliced byte ever
//!   joined is booked or still waiting, and no channel holds more sliced
//!   transfers than ops in flight.
//!
//! Checks are `debug_assert!`s: release builds with the feature enabled
//! still skip them, and default builds do not compile this module at all.
//! A sweep allocates nothing once the engine has run one: the free-list
//! census marks blocks in a buffer the engine keeps, and every other
//! check counts or searches in place.

use fleetio_flash::block::BlockPhase;

use super::Engine;

/// Events between structural sweeps. Sweeps are O(blocks + gSBs); every
/// 256 events keeps them well under timing noise for tiny-scale tests
/// while still catching drift long before a run completes.
pub const SWEEP_INTERVAL: u64 = 256;

impl Engine {
    /// Feeds one dispatched event to the auditor and runs the periodic
    /// structural sweep when due. Called from `run_until` after the event
    /// handler returns, with `self.now` at the event's timestamp.
    pub(crate) fn audit_event(&mut self) {
        self.auditor.observe_event(self.now);
        if self.auditor.sweep_due(SWEEP_INTERVAL) {
            let mut marks = std::mem::take(&mut self.audit_marks);
            self.sweep(&mut marks);
            self.audit_marks = marks;
            self.auditor.note_sweep();
        }
    }

    /// Number of (events, sweeps) the auditor has recorded — lets tests
    /// assert that auditing actually ran.
    pub fn audit_counts(&self) -> (u64, u64) {
        (self.auditor.events_observed(), self.auditor.sweeps())
    }

    /// Runs the full structural sweep immediately. `run_until` runs it
    /// periodically; tests may call it at any quiescent point.
    pub fn audit_sweep(&self) {
        self.sweep(&mut Vec::new());
    }

    /// The structural sweep, with `marks` as the free-list census's
    /// scratch.
    fn sweep(&self, marks: &mut Vec<bool>) {
        self.device.audit_invariants(marks);
        self.pool.audit_invariants();
        self.audit_block_registry();
        self.audit_gsb_conservation();
        self.audit_stripes();
        self.audit_arbiter();
    }

    /// The arbiter's steps are all due now or later, account for every
    /// sliced byte, and fit inside their channels' in-flight counts.
    fn audit_arbiter(&self) {
        // The eager reference model keeps its transfers elsewhere.
        #[cfg(test)]
        if self.eager_oracle {
            return;
        }
        let mut waiting = 0u64;
        debug_assert!(
            self.sliced
                .iter()
                .zip(self.sliced.iter().skip(1))
                .all(|(a, b)| a.key() < b.key()),
            "arbiter steps out of order"
        );
        for step in &self.sliced {
            debug_assert!(
                step.at >= self.now,
                "arbiter step on channel {} was due at {} but it is {}",
                step.ch,
                step.at,
                self.now
            );
            waiting += step.remaining;
        }
        debug_assert!(
            self.sliced_booked + waiting == self.sliced_joined,
            "sliced bytes: {} booked + {waiting} waiting != {} joined",
            self.sliced_booked,
            self.sliced_joined
        );
        for (ch, chan) in self.chans.iter().enumerate() {
            let sliced = self
                .sliced
                .iter()
                .filter(|s| usize::from(s.ch) == ch)
                .count();
            debug_assert!(
                sliced as u64 <= u64::from(chan.in_flight),
                "channel {ch}: {sliced} sliced transfers but {} ops in flight",
                chan.in_flight
            );
        }
    }

    /// Every vSSD's cached write stripe must equal what the per-page
    /// candidate rebuild used to produce: its home channels, then one slot
    /// per channel of each harvested gSB still in the pool, in acquisition
    /// order. A mismatch means `harvested` or the pool changed without a
    /// `rebuild_stripe`.
    fn audit_stripes(&self) {
        for v in &self.vssds {
            let homes = v.cfg.channels.iter().map(|&c| (c, None));
            let harvested = v
                .harvested
                .iter()
                .filter_map(|&g| self.pool.get(g))
                .flat_map(|gsb| gsb.channels.iter().map(|&c| (c, Some(gsb.id))));
            debug_assert!(
                v.stripe.iter().copied().eq(homes.chain(harvested)),
                "{}: cached write stripe {:?} is stale (harvested {:?})",
                v.cfg.id,
                v.stripe,
                v.harvested
            );
        }
    }

    /// Free-block accounting and `block_meta`/`chip_blocks` agreement.
    fn audit_block_registry(&self) {
        let f = &self.cfg.flash;
        let per_chip = f.blocks_per_chip as usize;
        let chips = usize::from(f.chips_per_channel);
        let mut registered_total = 0usize;
        for ch in 0..f.channels {
            for chip in 0..f.chips_per_channel {
                let registered = self.chip_blocks[self.chip_slot(ch, chip)].len();
                registered_total += registered;
                let free = self
                    .device
                    .chip(fleetio_flash::addr::ChannelId(ch), chip)
                    .free_count();
                debug_assert!(
                    free + registered == per_chip,
                    "chip ({ch}, {chip}): {free} free + {registered} registered != {per_chip} \
                     blocks — the count behind the {}% GC trigger has drifted",
                    self.cfg.gc_free_threshold * 100.0
                );
            }
        }
        debug_assert!(
            registered_total == self.n_block_meta,
            "{registered_total} blocks in chip_blocks but {} block_meta entries",
            self.n_block_meta
        );
        for (slot, list) in self.chip_blocks.iter().enumerate() {
            let (ch, chip) = ((slot / chips) as u16, (slot % chips) as u16);
            for blk in list {
                debug_assert!(
                    (blk.channel.0, blk.chip) == (ch, chip),
                    "{blk:?} filed under chip ({ch}, {chip})"
                );
                debug_assert!(
                    self.device
                        .chip(blk.channel, blk.chip)
                        .block(blk.block)
                        .phase()
                        != BlockPhase::Free,
                    "{blk:?} is registered as allocated but free on the device"
                );
                let meta = self.block_meta_get(*blk);
                debug_assert!(
                    meta.is_some(),
                    "{blk:?} is in chip_blocks but has no block_meta"
                );
                if let Some(gsb) = meta.and_then(|m| m.gsb) {
                    // A GC victim is detached from its gSB when the job
                    // starts and keeps its metadata until the erase
                    // completes, so it may outlive a gSB it emptied.
                    debug_assert!(
                        self.pool.get(gsb).is_some()
                            || self.gc_jobs.values().any(|j| j.victim == *blk),
                        "{blk:?} references {gsb} which is not in the pool"
                    );
                }
            }
        }
    }

    /// Every gSB in a vSSD's harvested (stripe) list must be marked
    /// harvested *by that vSSD* in the pool, and no gSB may sit in two
    /// lists. The pool may mark more gSBs harvested than the lists claim:
    /// lazy reclamation (§3.6) retires a gSB from its harvester's stripe
    /// while the pool keeps `harvester` set until GC empties its blocks
    /// and `destroy_emptied_gsb` removes it. The pool names one harvester
    /// per gSB, so a gSB listed by two vSSDs fails the harvester check for
    /// one of them, and a repeat within one list is a search of that
    /// (short) list.
    fn audit_gsb_conservation(&self) {
        for v in &self.vssds {
            for (i, id) in v.harvested.iter().enumerate() {
                debug_assert!(
                    !v.harvested[..i].contains(id),
                    "{id} appears twice in {}'s harvested list",
                    v.cfg.id
                );
                match self.pool.get(*id) {
                    None => {
                        debug_assert!(false, "{} lists {id} which is not in the pool", v.cfg.id)
                    }
                    Some(g) => debug_assert!(
                        g.harvester == Some(v.cfg.id),
                        "{} lists {id} but the pool says harvester={:?}",
                        v.cfg.id,
                        g.harvester
                    ),
                }
            }
        }
    }
}
