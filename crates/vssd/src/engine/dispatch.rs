//! Per-channel dispatch: priority levels, stride scheduling, token buckets.

use fleetio_des::{Handle, SimTime};
use fleetio_flash::addr::ChannelId;

use crate::request::CompletedRequest;

use super::arbiter::{Sliced, GRANT_BYTES};
use super::{Engine, Ev, PageOp};

/// High bit of a `PageDone` tag marks a GC op (low bits = GC job handle).
const GC_OP_BIT: u64 = 1 << 63;

/// `PageDone` tag meaning "no attached request or GC job". Slab handles
/// never collide with it: their slot half is never `u32::MAX`.
const NONE_TAG: u64 = u64::MAX;

impl Engine {
    /// Packs a page op's owner into a `PageDone` tag: request handle bits,
    /// GC job handle bits with [`GC_OP_BIT`] set, or [`NONE_TAG`].
    fn page_done_tag(op: &PageOp) -> u64 {
        if let Some(h) = op.req {
            let bits = h.to_bits();
            debug_assert!(bits & GC_OP_BIT == 0, "request handle collides with GC bit");
            bits
        } else if let Some(g) = op.gc {
            let bits = g.to_bits();
            debug_assert!(bits & GC_OP_BIT == 0, "gc handle collides with GC bit");
            GC_OP_BIT | bits
        } else {
            NONE_TAG
        }
    }

    /// Dispatches queued page ops on channel `ch` while in-flight slots
    /// remain, honouring priority levels, stride shares and token buckets.
    pub(crate) fn try_dispatch(&mut self, ch: u16) {
        // When a high-priority tenant is active on this channel, keep one
        // in-flight slot in reserve for it: combined with time-sliced bus
        // grants this bounds both the bus wait (one booked grant per
        // low-priority transfer in flight, so `low_cap` grants) and the
        // number of concurrent low-priority chip programs a
        // latency-critical read can collide with. Computed lazily: most
        // calls select nothing (or only rank-0 ops) and never need the
        // membership scan.
        let mut high_present: Option<bool> = None;
        let low_cap = self.cfg.dispatch_ahead.saturating_sub(1).max(1);
        loop {
            if self.chans[usize::from(ch)].in_flight >= self.cfg.dispatch_ahead {
                return;
            }
            match self.select_op(ch) {
                Some((vssd_idx, rank)) => {
                    let high = rank > 0
                        && *high_present.get_or_insert_with(|| {
                            self.chans[usize::from(ch)].stride_members().any(|idx| {
                                self.vssds[idx].priority == crate::request::Priority::High
                            })
                        });
                    if high && self.chans[usize::from(ch)].in_flight >= low_cap {
                        self.maybe_schedule_token_retry(ch);
                        return;
                    }
                    let op = self.chans[usize::from(ch)].queues[vssd_idx][rank]
                        .pop_front()
                        .expect("selected queue is non-empty");
                    self.chans[usize::from(ch)].pending[rank] -= 1;
                    self.issue_op(ch, op, rank);
                }
                None => {
                    self.maybe_schedule_token_retry(ch);
                    return;
                }
            }
        }
    }

    /// Picks the next `(vssd_idx, priority_rank)` to serve on `ch`:
    /// highest non-empty priority level first, stride scheduling among the
    /// vSSDs runnable at that level, token buckets gating runnability.
    fn select_op(&mut self, ch: u16) -> Option<(usize, usize)> {
        let now = self.now;
        let mut runnable = std::mem::take(&mut self.runnable_buf);
        let mut result = None;
        for rank in 0..3 {
            if self.chans[usize::from(ch)].pending[rank] == 0 {
                continue;
            }
            runnable.clear();
            for idx in 0..self.vssds.len() {
                let (head_bytes, is_gc) = {
                    let q = &self.chans[usize::from(ch)].queues[idx][rank];
                    match q.front() {
                        Some(op) => (op.bytes, op.gc.is_some()),
                        None => continue,
                    }
                };
                // GC ops bypass tenant rate limits (internal traffic).
                let ok = is_gc
                    || match self.vssds[idx].bucket.as_mut() {
                        Some(bucket) => bucket.would_allow(now, head_bytes),
                        None => true,
                    };
                if ok {
                    runnable.push(idx);
                }
            }
            if runnable.is_empty() {
                // Everyone at this level is token-blocked; lower levels may
                // still proceed (they are different vSSDs).
                continue;
            }
            let chan = &mut self.chans[usize::from(ch)];
            // A `None` pick (nothing registered) aborts selection entirely,
            // matching the historical `?` behaviour.
            result = chan
                .stride
                .pick(runnable.iter().copied())
                .map(|pick| (pick, rank));
            break;
        }
        runnable.clear();
        self.runnable_buf = runnable;
        result
    }

    /// Issues one page op on the device and schedules its completion.
    ///
    /// Low-priority and GC transfers longer than a grant are time-sliced:
    /// the bus is booked one [`GRANT_BYTES`] grant at a time, each at the
    /// bus tail when the previous one ends, so a high-priority op arriving
    /// mid-transfer queues behind at most one booked grant per sliced
    /// transfer in flight — `low_cap` grants — rather than whole page
    /// times. The steps in between are the arbiter's
    /// (`super::arbiter`), not queue events.
    fn issue_op(&mut self, ch: u16, op: PageOp, rank: usize) {
        let now = self.now;
        if op.gc.is_none() {
            if let Some(bucket) = self.vssds[op.vssd].bucket.as_mut() {
                // Selection verified affordability; consume now.
                let _ = bucket.try_take(now, op.bytes);
            }
        }
        let channel = ChannelId(ch);
        let tag = Self::page_done_tag(&op);
        self.chans[usize::from(ch)].in_flight += 1;
        let vssd_id = self.vssds[op.vssd].cfg.id.0;
        if self.obs_on {
            if let Some(h) = op.req {
                let ext_id = self.reqs[h].ext_id;
                self.obs.record(fleetio_obs::ObsEvent::ChipIssue {
                    at: now,
                    req: ext_id,
                    vssd: vssd_id,
                    channel: ch,
                    chip: op.chip,
                    read: op.read,
                });
            }
        }
        if (rank == crate::request::Priority::Low.rank() || op.gc.is_some())
            && op.bytes > GRANT_BYTES
        {
            // Time-sliced path.
            if let Some(h) = op.req {
                if let Some(r) = self.reqs.get_mut(h) {
                    r.first_start = Some(r.first_start.map_or(now, |t| t.min(now)));
                }
            }
            let gc = op.gc.is_some();
            let first_at = if op.read {
                // Cell read first; transfers start when the data is in the
                // chip register.
                let occupy = self.device.chip_read_occupy(now, channel, op.chip);
                if self.obs_on {
                    self.obs.record(fleetio_obs::ObsEvent::NandOp {
                        start: occupy.start,
                        end: occupy.end,
                        vssd: vssd_id,
                        channel: ch,
                        chip: op.chip,
                        kind: fleetio_obs::NandKind::ChipOccupy,
                        gc,
                        bytes: 0,
                    });
                }
                occupy.end
            } else {
                now
            };
            self.join_sliced(Sliced {
                at: first_at,
                seq: 0,
                ch,
                chip: op.chip,
                vssd: vssd_id,
                read: op.read,
                gc,
                tag,
                remaining: op.bytes,
            });
            return;
        }
        let times = match (op.read, op.gc.is_some()) {
            (true, false) if rank == 0 => {
                // High-priority reads use program/erase suspend.
                self.device
                    .read_page_preempting(now, channel, op.chip, op.bytes)
            }
            (true, false) => self.device.read_page(now, channel, op.chip, op.bytes),
            (false, false) => self.device.write_page(now, channel, op.chip, op.bytes),
            (true, true) => self.device.gc_read_page(now, channel, op.chip, op.bytes),
            (false, true) => self.device.gc_write_page(now, channel, op.chip, op.bytes),
        };
        if self.obs_on {
            self.obs.record(fleetio_obs::ObsEvent::NandOp {
                start: times.start,
                end: times.end,
                vssd: vssd_id,
                channel: ch,
                chip: op.chip,
                kind: if op.read {
                    fleetio_obs::NandKind::Read
                } else {
                    fleetio_obs::NandKind::Program
                },
                gc: op.gc.is_some(),
                bytes: op.bytes,
            });
        }
        if let Some(h) = op.req {
            if let Some(r) = self.reqs.get_mut(h) {
                r.first_start = Some(match r.first_start {
                    Some(t) => t.min(times.start),
                    None => times.start,
                });
            }
        }
        self.events.push(times.end, Ev::PageDone { ch, tag });
    }

    /// Handles a page-op completion: frees the slot, finishes the request
    /// if this was its last op, and keeps the channel busy.
    pub(crate) fn process_page_done(&mut self, ch: u16, tag: u64) {
        self.chans[usize::from(ch)].in_flight -= 1;
        if tag == NONE_TAG {
            self.try_dispatch(ch);
            return;
        }
        if tag & GC_OP_BIT != 0 {
            self.process_gc_op_done(Handle::from_bits(tag & !GC_OP_BIT));
            self.try_dispatch(ch);
            return;
        }
        let h = Handle::from_bits(tag);
        let finished = {
            let r = self.reqs.get_mut(h).expect("page op for unknown request");
            r.remaining -= 1;
            r.remaining == 0
        };
        if finished {
            let r = self.reqs.remove(h);
            let idx = r.vssd_idx as usize;
            let vssd = self.vssds[idx].cfg.id;
            let completion = self.now;
            let record = CompletedRequest {
                id: crate::request::RequestId(r.ext_id),
                vssd,
                op: r.op,
                offset: r.offset,
                len: r.len,
                arrival: r.arrival,
                service_start: r.first_start.unwrap_or(r.arrival),
                completion,
            };
            let latency = record.latency();
            let violated = self.vssds[idx]
                .cfg
                .slo
                .map(|slo| latency > slo)
                .unwrap_or(false);
            self.vssds[idx].window.record_request(
                r.op.is_read(),
                r.len,
                latency,
                record.queue_delay(),
                violated,
            );
            let cum = &mut self.vssds[idx].cumulative;
            cum.bytes += r.len;
            cum.requests += 1;
            if violated {
                cum.slo_violations += 1;
            }
            cum.latency.record(latency);
            if self.obs_on {
                self.obs.record(fleetio_obs::ObsEvent::RequestComplete {
                    at: completion,
                    req: r.ext_id,
                    vssd: vssd.0,
                    read: r.op.is_read(),
                    bytes: r.len,
                    arrival: r.arrival,
                    service_start: record.service_start,
                });
            }
            self.completed.push(record);
        }
        self.try_dispatch(ch);
    }

    /// If ops are queued but all are token-blocked, schedules a retry at
    /// the earliest token-availability time.
    fn maybe_schedule_token_retry(&mut self, ch: u16) {
        if self.chans[usize::from(ch)].retry_pending {
            return;
        }
        if self.chans[usize::from(ch)].pending.iter().all(|p| *p == 0) {
            return;
        }
        let now = self.now;
        let mut earliest: Option<SimTime> = None;
        for idx in 0..self.vssds.len() {
            let mut head: Option<u64> = None;
            for rank in 0..3 {
                if let Some(op) = self.chans[usize::from(ch)].queues[idx][rank].front() {
                    head = Some(op.bytes);
                    break;
                }
            }
            let Some(bytes) = head else { continue };
            if let Some(bucket) = self.vssds[idx].bucket.as_mut() {
                let at = bucket.ready_at(now, bytes);
                earliest = Some(match earliest {
                    Some(t) => t.min(at),
                    None => at,
                });
            }
        }
        if let Some(at) = earliest {
            // Guard against a zero-delay livelock.
            let at = at.max(now + fleetio_des::SimDuration::from_micros(1));
            self.chans[usize::from(ch)].retry_pending = true;
            if self.obs_on {
                self.obs.record(fleetio_obs::ObsEvent::Throttle {
                    at: now,
                    channel: ch,
                    until: at,
                });
            }
            self.events.push(at, Ev::TokenRetry { ch });
        }
    }
}
