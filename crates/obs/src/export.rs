//! Exporters: JSONL event dumps and Chrome `trace_event` JSON.
//!
//! The Chrome format is the subset `chrome://tracing` and Perfetto load:
//! a `{"traceEvents": [...]}` document of complete spans (`ph:"X"`),
//! counters (`ph:"C"`), instants (`ph:"i"`) and name metadata (`ph:"M"`).
//! Timestamps are microseconds; we render nanosecond [`SimTime`]s as
//! `µs.nnn` strings via integer math so output never depends on float
//! formatting.
//!
//! Track layout:
//! * pid 1 `device` — one thread per (channel, chip): NAND op spans.
//! * pid 2 `bus` — one thread per channel: time-sliced bus grants and
//!   throttle instants.
//! * pid 3 `gc` — one thread per channel: GC job spans (paired by job
//!   id) and emergency-GC instants.
//! * pid 4 `requests` — one thread per vSSD: request arrival→completion
//!   spans and per-window counter series.

use std::collections::BTreeMap;
use std::fmt;

use fleetio_des::SimTime;

use crate::event::{FleetMigration, NandKind, ObsEvent, WindowFlush};
use crate::json::{self, Arr};

const PID_DEVICE: u32 = 1;
const PID_BUS: u32 = 2;
const PID_GC: u32 = 3;
const PID_REQUESTS: u32 = 4;

/// Renders events as JSONL, one event per line, in emission order.
pub fn jsonl<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a ObsEvent>,
{
    let mut out = String::new();
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A nanosecond timestamp as fractional microseconds (`ts` / `dur`
/// fields), formatted with integer math only.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

fn span(a: &mut Arr<'_>, name: &str, pid: u32, tid: u64, start: SimTime, end: SimTime) {
    a.item().obj(|o| {
        o.key("ph").str("X");
        o.key("name").str(name);
        o.key("pid").u64(pid.into());
        o.key("tid").u64(tid);
        o.key("ts").num(Micros(start.as_nanos()));
        o.key("dur")
            .num(Micros(end.saturating_since(start).as_nanos()));
    });
}

fn instant(a: &mut Arr<'_>, name: &str, pid: u32, tid: u64, at: SimTime) {
    a.item().obj(|o| {
        o.key("ph").str("i");
        o.key("s").str("t");
        o.key("name").str(name);
        o.key("pid").u64(pid.into());
        o.key("tid").u64(tid);
        o.key("ts").num(Micros(at.as_nanos()));
    });
}

fn counter(
    a: &mut Arr<'_>,
    name: &str,
    pid: u32,
    tid: u64,
    at: SimTime,
    series: &'static str,
    value: u64,
) {
    a.item().obj(|o| {
        o.key("ph").str("C");
        o.key("name").str(name);
        o.key("pid").u64(pid.into());
        o.key("tid").u64(tid);
        o.key("ts").num(Micros(at.as_nanos()));
        o.key("args").obj(|args| args.key(series).u64(value));
    });
}

/// Name metadata: `what` is `process_name` or `thread_name`.
fn name_meta(a: &mut Arr<'_>, what: &str, pid: u32, tid: u64, name: &str) {
    a.item().obj(|o| {
        o.key("ph").str("M");
        o.key("name").str(what);
        o.key("pid").u64(pid.into());
        o.key("tid").u64(tid);
        o.key("args").obj(|args| args.key("name").str(name));
    });
}

/// Device-track thread id for a (channel, chip) pair.
fn device_tid(channel: u16, chip: u16) -> u64 {
    u64::from(channel) * 1000 + u64::from(chip)
}

/// Renders events as a Chrome `trace_event` JSON document.
///
/// GC spans are reconstructed by pairing `GcStart`/`GcEnd` on job id;
/// unmatched starts (run still in flight, or emergency GC) render as
/// instants so nothing is silently dropped.
pub fn chrome_trace<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a ObsEvent>,
{
    let mut out = String::new();
    json::object(&mut out, |doc| {
        doc.key("traceEvents")
            .lines(|a| trace_events(a, events.into_iter()))
    });
    out.push('\n');
    out
}

/// The elements of [`chrome_trace`]'s `traceEvents` array.
fn trace_events<'a>(out: &mut Arr<'_>, events: impl Iterator<Item = &'a ObsEvent>) {
    name_meta(out, "process_name", PID_DEVICE, 0, "device");
    name_meta(out, "process_name", PID_BUS, 0, "bus");
    name_meta(out, "process_name", PID_GC, 0, "gc");
    name_meta(out, "process_name", PID_REQUESTS, 0, "requests");

    // (pid, tid) pairs that need thread_name metadata, named lazily so
    // only tracks that carry events appear in the viewer.
    let mut named: BTreeMap<(u32, u64), String> = BTreeMap::new();
    // Open GC jobs: job id -> start event fields.
    let mut gc_open: BTreeMap<u64, (SimTime, u16, u16)> = BTreeMap::new();

    for ev in events {
        match *ev {
            ObsEvent::NandOp {
                start,
                end,
                channel,
                chip,
                kind,
                gc,
                ..
            } => match kind {
                NandKind::BusGrant => {
                    let tid = u64::from(channel);
                    named
                        .entry((PID_BUS, tid))
                        .or_insert_with(|| format!("chan{channel}"));
                    span(out, "bus_grant", PID_BUS, tid, start, end);
                }
                _ => {
                    let tid = device_tid(channel, chip);
                    named
                        .entry((PID_DEVICE, tid))
                        .or_insert_with(|| format!("chan{channel}/chip{chip}"));
                    let name = match (kind, gc) {
                        (NandKind::Read, true) => "gc_read",
                        (NandKind::Read, false) => "read",
                        (NandKind::Program, true) => "gc_program",
                        (NandKind::Program, false) => "program",
                        (NandKind::ChipOccupy, _) => "chip_occupy",
                        (NandKind::BusGrant, _) => unreachable!(),
                    };
                    span(out, name, PID_DEVICE, tid, start, end);
                }
            },
            ObsEvent::GcStart {
                at,
                job,
                channel,
                chip,
                emergency,
                ..
            } => {
                let tid = u64::from(channel);
                named
                    .entry((PID_GC, tid))
                    .or_insert_with(|| format!("chan{channel}"));
                match job {
                    Some(j) if !emergency => {
                        gc_open.insert(j, (at, channel, chip));
                    }
                    _ => instant(out, "gc_emergency", PID_GC, tid, at),
                }
            }
            ObsEvent::GcEnd {
                at, job, channel, ..
            } => {
                let tid = u64::from(channel);
                named
                    .entry((PID_GC, tid))
                    .or_insert_with(|| format!("chan{channel}"));
                if let Some((start, ch, _chip)) = gc_open.remove(&job) {
                    span(out, "gc", PID_GC, u64::from(ch), start, at);
                } else {
                    instant(out, "gc_end", PID_GC, tid, at);
                }
            }
            ObsEvent::RequestComplete {
                at,
                vssd,
                read,
                arrival,
                ..
            } => {
                let tid = u64::from(vssd);
                named
                    .entry((PID_REQUESTS, tid))
                    .or_insert_with(|| format!("vssd{vssd}"));
                let name = if read { "read_req" } else { "write_req" };
                span(out, name, PID_REQUESTS, tid, arrival, at);
            }
            ObsEvent::Throttle { at, channel, .. } => {
                let tid = u64::from(channel);
                named
                    .entry((PID_BUS, tid))
                    .or_insert_with(|| format!("chan{channel}"));
                instant(out, "throttle", PID_BUS, tid, at);
            }
            ObsEvent::WindowFlush(ref w) => {
                let WindowFlush {
                    at,
                    vssd,
                    total_ops,
                    total_bytes,
                    ..
                } = **w;
                let tid = u64::from(vssd);
                named
                    .entry((PID_REQUESTS, tid))
                    .or_insert_with(|| format!("vssd{vssd}"));
                counter(
                    out,
                    &format!("vssd{vssd}.window_ops"),
                    PID_REQUESTS,
                    tid,
                    at,
                    "ops",
                    total_ops,
                );
                counter(
                    out,
                    &format!("vssd{vssd}.window_bytes"),
                    PID_REQUESTS,
                    tid,
                    at,
                    "bytes",
                    total_bytes,
                );
            }
            ObsEvent::GsbTransition { at, gsb, kind, .. } => {
                // gSB transitions appear on the GC process's tid 0 track.
                named
                    .entry((PID_GC, 0))
                    .or_insert_with(|| "gsb".to_string());
                instant(out, &format!("gsb{gsb}_{}", kind.tag()), PID_GC, 0, at);
            }
            ObsEvent::ModelLifecycle { at, kind, .. } => {
                // Model lifecycle events live on the GC process's tid 0
                // track alongside other cluster-wide transitions.
                named
                    .entry((PID_GC, 0))
                    .or_insert_with(|| "gsb".to_string());
                instant(out, &format!("model_{}", kind.tag()), PID_GC, 0, at);
            }
            // Only violations are worth a mark in the timeline; the
            // JSONL export retains every verdict.
            ObsEvent::SloWindow(ref w) if !(w.p95_ok && w.p99_ok && w.throughput_ok) => {
                named
                    .entry((PID_GC, 0))
                    .or_insert_with(|| "gsb".to_string());
                instant(
                    out,
                    &format!("slo_violation_t{}_w{}", w.tenant, w.window),
                    PID_GC,
                    0,
                    w.at,
                );
            }
            ObsEvent::FleetMigration(ref m) => {
                let FleetMigration {
                    at,
                    tenant,
                    from_shard,
                    to_shard,
                    ..
                } = **m;
                named
                    .entry((PID_GC, 0))
                    .or_insert_with(|| "gsb".to_string());
                instant(
                    out,
                    &format!("migrate_t{tenant}_s{from_shard}_to_s{to_shard}"),
                    PID_GC,
                    0,
                    at,
                );
            }
            // A kind is drawn only if it has an arm above. Per-request
            // bookkeeping (submit, admit, chip-issue) would add noise in
            // the timeline view; the JSONL export retains every kind in
            // full.
            _ => {}
        }
    }

    // GC jobs still open at export time render as instants.
    for (_, (start, ch, _chip)) in gc_open {
        instant(out, "gc_open", PID_GC, u64::from(ch), start);
    }

    for ((pid, tid), name) in named {
        name_meta(out, "thread_name", pid, tid, &name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimDuration;

    #[test]
    fn jsonl_is_one_line_per_event() {
        let events = [
            ObsEvent::Throttle {
                at: SimTime::from_nanos(10),
                channel: 0,
                until: SimTime::from_nanos(20),
            },
            ObsEvent::Throttle {
                at: SimTime::from_nanos(30),
                channel: 1,
                until: SimTime::from_nanos(40),
            },
        ];
        let text = jsonl(events.iter());
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::json::parse(line).expect("line parses");
        }
    }

    #[test]
    fn microsecond_rendering_uses_integer_math() {
        assert_eq!(Micros(1_234_567).to_string(), "1234.567");
        assert_eq!(Micros(999).to_string(), "0.999");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_paired_gc_span() {
        let events = [
            ObsEvent::NandOp {
                start: SimTime::from_micros(1),
                end: SimTime::from_micros(5),
                vssd: 0,
                channel: 2,
                chip: 3,
                kind: NandKind::Read,
                gc: false,
                bytes: 4096,
            },
            ObsEvent::GcStart {
                at: SimTime::from_micros(2),
                job: Some(7),
                vssd: 0,
                channel: 2,
                chip: 3,
                live_pages: 4,
                emergency: false,
            },
            ObsEvent::GcEnd {
                at: SimTime::from_micros(9),
                job: 7,
                vssd: 0,
                channel: 2,
                chip: 3,
                busy: SimDuration::from_micros(7),
            },
            ObsEvent::RequestComplete {
                at: SimTime::from_micros(6),
                req: 1,
                vssd: 1,
                read: true,
                bytes: 4096,
                arrival: SimTime::from_micros(1),
                service_start: SimTime::from_micros(2),
            },
        ];
        let doc = chrome_trace(events.iter());
        let v = crate::json::parse(&doc).expect("trace parses as JSON");
        let arr = v
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|t| t.as_array())
            .expect("traceEvents array");
        // 4 process_name + nand span + gc span + request span + 3
        // thread_name (device chan2/chip3, gc chan2, requests vssd1).
        assert_eq!(arr.len(), 10);
        let gc = arr
            .iter()
            .find(|e| {
                e.as_object()
                    .and_then(|o| o.get("name"))
                    .and_then(|n| n.as_str())
                    == Some("gc")
            })
            .expect("paired gc span present");
        let obj = gc.as_object().unwrap();
        assert_eq!(obj.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(obj.get("dur").and_then(|d| d.as_f64()), Some(7.0));
    }

    #[test]
    fn unmatched_gc_start_renders_as_instant() {
        let events = [ObsEvent::GcStart {
            at: SimTime::from_micros(2),
            job: Some(1),
            vssd: 0,
            channel: 0,
            chip: 0,
            live_pages: 0,
            emergency: false,
        }];
        let doc = chrome_trace(events.iter());
        crate::json::parse(&doc).expect("trace parses as JSON");
        assert!(doc.contains("gc_open"));
    }
}
