//! Per-channel dispatch: priority levels, stride scheduling, token buckets.

use fleetio_des::{Handle, SimTime};
use fleetio_flash::addr::ChannelId;

use crate::request::CompletedRequest;

use super::arbiter::{Sliced, GRANT_BYTES};
use super::{Engine, Ev, PageOp, GC_OP_BIT};

impl Engine {
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
                        Some(op) => (u64::from(op.bytes), op.is_gc()),
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
        let (gc, req, bytes) = (op.is_gc(), op.request(), u64::from(op.bytes));
        let vssd = &mut self.vssds[op.vssd as usize];
        if !gc {
            if let Some(bucket) = vssd.bucket.as_mut() {
                // Selection verified affordability; consume now.
                let _ = bucket.try_take(now, bytes);
            }
        }
        let vssd_id = vssd.cfg.id.0;
        let channel = ChannelId(ch);
        self.chans[usize::from(ch)].in_flight += 1;
        if self.obs_on {
            if let Some(h) = req {
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
        if (rank == crate::request::Priority::Low.rank() || gc) && bytes > GRANT_BYTES {
            // Time-sliced path.
            if let Some(h) = req {
                if let Some(r) = self.reqs.get_mut(h) {
                    r.first_start = r.first_start.min(now);
                }
            }
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
                tag: op.owner,
                remaining: bytes,
            });
            return;
        }
        let times = match (op.read, gc) {
            (true, false) if rank == 0 => {
                // High-priority reads use program/erase suspend.
                self.device
                    .read_page_preempting(now, channel, op.chip, bytes)
            }
            (true, false) => self.device.read_page(now, channel, op.chip, bytes),
            (false, false) => self.device.write_page(now, channel, op.chip, bytes),
            (true, true) => self.device.gc_read_page(now, channel, op.chip, bytes),
            (false, true) => self.device.gc_write_page(now, channel, op.chip, bytes),
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
                gc,
                bytes,
            });
        }
        if let Some(h) = req {
            if let Some(r) = self.reqs.get_mut(h) {
                r.first_start = r.first_start.min(times.start);
            }
        }
        self.events
            .push(times.end, Ev::PageDone { ch, tag: op.owner });
    }

    /// Handles a page-op completion: frees the slot, finishes the request
    /// if this was its last op, and keeps the channel busy.
    pub(crate) fn process_page_done(&mut self, ch: u16, tag: u64) {
        self.chans[usize::from(ch)].in_flight -= 1;
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
            let idx = usize::from(r.vssd_idx);
            let vssd = self.vssds[idx].cfg.id;
            let completion = self.now;
            let record = CompletedRequest {
                id: crate::request::RequestId(r.ext_id),
                vssd,
                op: r.op,
                offset: r.offset,
                len: r.len,
                arrival: r.arrival,
                service_start: if r.first_start == SimTime::MAX {
                    r.arrival
                } else {
                    r.first_start
                },
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
                    head = Some(u64::from(op.bytes));
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
