//! The bus arbiter: time-sliced transfers' grants, kept off the event
//! queue but in its order.
//!
//! A Low-priority or GC page transfer books its channel bus one
//! [`GRANT_BYTES`] grant at a time — each grant at the bus tail, the
//! moment the previous one ends — so that a latency-critical op arriving
//! mid-transfer queues behind at most one booked grant per sliced transfer
//! in flight. Every such booking used to be an event in the engine's
//! event queue: five pushes and pops per 16 KiB page for steps that
//! only ever touch the transfer itself and one bus clock.
//!
//! The arbiter holds those steps instead, in a sorted list a few entries
//! long, under the *same* `(at, seq)` key the queue would have given them:
//! every sequence number is drawn from the queue's own counter
//! ([`fleetio_des::EventQueue::reserve_seq`]) at exactly the point the
//! event would have been pushed, and [`Engine::run_until`] takes the next
//! step from whichever of queue and arbiter holds the smaller key. Steps
//! and events therefore run in precisely the order one queue would have
//! popped them in — including when several fall on the same nanosecond,
//! which phase-locked transfers on neighbouring channels do all the time —
//! and no simulated outcome can tell the difference. DESIGN.md § "DES
//! internals" has the argument and what was tried first.

use fleetio_des::SimTime;
use fleetio_flash::addr::ChannelId;

use super::{Engine, Ev};

/// Bus-grant granularity of time-sliced transfers. Real controllers
/// arbitrate the channel bus in sub-page units, which is what keeps a bulk
/// transfer from head-of-line-blocking a latency-critical request for a
/// whole page time: every `GRANT_BYTES` is a preemption point.
pub const GRANT_BYTES: u64 = 4096;

/// A time-sliced page transfer in flight and the instant of its next step.
/// [`Engine::sliced`] holds one per transfer, earliest step first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sliced {
    /// When the next step happens: the first grant's booking instant, then
    /// the end of each grant — the last of which is the completion.
    pub at: SimTime,
    /// Tie-break among equal `at`, from the event queue's counter.
    pub seq: u64,
    pub ch: u16,
    pub chip: u16,
    /// Id of the vSSD the op was issued for (trace attribution).
    pub vssd: u32,
    pub read: bool,
    pub gc: bool,
    /// Packed `PageDone` tag of the op's owner.
    pub tag: u64,
    /// Bytes not yet booked on the bus.
    pub remaining: u64,
}

impl Sliced {
    pub fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl Engine {
    /// Starts time-slicing a transfer whose first grant is booked at
    /// `first.at` — a step of its own, so that a program issued at `now`
    /// still yields the bus to everything else this instant books.
    pub(crate) fn join_sliced(&mut self, mut first: Sliced) {
        #[cfg(feature = "audit")]
        {
            self.sliced_joined += first.remaining;
        }
        #[cfg(test)]
        if self.eager_oracle {
            let h = self.grants.insert(first);
            self.events.push(first.at, Ev::Grant { h });
            return;
        }
        first.seq = self.events.reserve_seq();
        self.schedule_sliced(first);
    }

    /// Files `step` in key order, scanning from the back. A step's key is
    /// the end of a grant just booked at its channel's bus tail, so it
    /// lands near the back: in FleetIO evaluation runs the list averages
    /// 15–20 transfers and a step files 3–5 places from the back.
    fn schedule_sliced(&mut self, step: Sliced) {
        let after = self.sliced.iter().rposition(|s| s.key() < step.key());
        self.sliced.insert(after.map_or(0, |i| i + 1), step);
    }

    /// Runs the arbiter's earliest step. The caller has established that
    /// no queued event precedes it.
    pub(crate) fn step_sliced(&mut self) {
        let Some(mut step) = self.sliced.pop_front() else {
            return;
        };
        self.now = step.at;
        // The span of the per-grant event this step used to be.
        let _ev_prof = fleetio_obs::prof::span("engine.ev.grant");
        if let Some((at, remaining)) = self.advance_sliced(&step) {
            (step.at, step.remaining) = (at, remaining);
            step.seq = self.events.reserve_seq();
            self.schedule_sliced(step);
        }
        #[cfg(feature = "audit")]
        self.audit_event();
    }

    /// One step of a time-sliced transfer at `self.now`: books its next
    /// grant and returns when the one after is due and what will then be
    /// left, or — nothing left to book — finishes the op and returns
    /// `None`.
    fn advance_sliced(&mut self, x: &Sliced) -> Option<(SimTime, u64)> {
        let channel = ChannelId(x.ch);
        if x.remaining == 0 {
            if x.read {
                self.events.push(
                    self.now,
                    Ev::PageDone {
                        ch: x.ch,
                        tag: x.tag,
                    },
                );
                return None;
            }
            let p = self.device.chip_program_occupy(self.now, channel, x.chip);
            if self.obs_on {
                self.obs.record(fleetio_obs::ObsEvent::NandOp {
                    start: p.start,
                    end: p.end,
                    vssd: x.vssd,
                    channel: x.ch,
                    chip: x.chip,
                    kind: fleetio_obs::NandKind::ChipOccupy,
                    gc: x.gc,
                    bytes: 0,
                });
            }
            self.events.push(
                p.end,
                Ev::PageDone {
                    ch: x.ch,
                    tag: x.tag,
                },
            );
            return None;
        }
        let bytes = GRANT_BYTES.min(x.remaining);
        let g = self
            .device
            .bus_grant(self.now, channel, bytes, x.read, x.gc);
        #[cfg(feature = "audit")]
        {
            self.sliced_booked += bytes;
        }
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::NandOp {
                start: g.start,
                end: g.end,
                vssd: x.vssd,
                channel: x.ch,
                chip: x.chip,
                kind: fleetio_obs::NandKind::BusGrant,
                gc: x.gc,
                bytes,
            });
        }
        Some((g.end, x.remaining - bytes))
    }

    /// Reference model: the same step as an event of its own.
    #[cfg(test)]
    pub(crate) fn process_grant(&mut self, h: fleetio_des::Handle) {
        let step = self.grants[h];
        match self.advance_sliced(&step) {
            Some((at, remaining)) => {
                (self.grants[h].at, self.grants[h].remaining) = (at, remaining);
                self.events.push(at, Ev::Grant { h });
            }
            None => {
                self.grants.remove(h);
            }
        }
    }
}
