//! The [`ObsSink`] trait and its two stock implementations.
//!
//! The engine owns a `Box<dyn ObsSink>` and calls [`ObsSink::enabled`]
//! before building any event — with the default [`NullSink`] installed
//! every hook is a single predictable branch and no allocation happens.
//! [`RecordingSink`] captures events into a bounded ring.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

use crate::event::ObsEvent;
use crate::json;

/// Receiver for observability events.
///
/// Implementations must never influence simulation state: the engine
/// produces identical event streams and identical results whether a
/// sink is installed or not. `Send` is required because RL rollouts run
/// engines on scoped worker threads.
pub trait ObsSink: fmt::Debug + Send {
    /// Whether event construction is worth the cost. Emission sites
    /// check this before allocating or formatting anything.
    fn enabled(&self) -> bool {
        false
    }

    /// Accepts one event. The default discards it.
    fn record(&mut self, ev: ObsEvent) {
        let _ = ev;
    }

    /// Downcast support for retrieving a concrete sink after a run.
    fn as_any(&self) -> &dyn Any;

    /// Consuming downcast support.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The default sink: drops everything, reports disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Ring-buffered in-memory sink.
///
/// Memory is bounded: once `cap` events are held, each new event evicts
/// the oldest and increments [`RecordingSink::dropped`]. The default
/// capacity (1 Mi events) is plenty for the workspace's short traced
/// runs while keeping worst-case memory around a hundred MB.
#[derive(Debug, Clone)]
pub struct RecordingSink {
    events: VecDeque<ObsEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::with_capacity(1 << 20)
    }
}

impl RecordingSink {
    /// A sink with the default event capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that keeps at most `cap` events (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        RecordingSink {
            events: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> &VecDeque<ObsEvent> {
        &self.events
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of held [`ObsEvent::RequestComplete`] events.
    pub fn completed_requests(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, ObsEvent::RequestComplete { .. }))
            .count() as u64
    }

    /// Held events as a JSONL string, one [`ObsEvent::write_json`] line
    /// per event in emission order. When the ring evicted events, a final
    /// `trace_truncated` meta line records how many, so downstream tooling
    /// can tell a short run from a clipped one.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        if self.dropped > 0 {
            let at = self.events.front().map_or(0, |e| e.at().as_nanos());
            json::object(&mut out, |o| {
                o.key("type").str("trace_truncated");
                o.key("at").u64(at);
                o.key("dropped").u64(self.dropped);
            });
            out.push('\n');
        }
        out
    }

    /// The eviction count of a `trace_truncated` line exactly as
    /// [`RecordingSink::to_jsonl`] writes it, read in place as
    /// [`ObsEvent::from_json_line`] reads an event; `None` for any other
    /// line.
    pub fn evicted_of(line: &str) -> Option<u64> {
        let mut obj = json::InOrder::new(line)?;
        if obj.str("type")? != "trace_truncated" {
            return None;
        }
        obj.value("at")?.as_u64()?;
        let dropped = obj.value("dropped")?.as_u64()?;
        obj.finish()?;
        Some(dropped)
    }
}

impl ObsSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimTime;

    fn throttle(n: u64) -> ObsEvent {
        ObsEvent::Throttle {
            at: SimTime::from_nanos(n),
            channel: 0,
            until: SimTime::from_nanos(n + 1),
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(throttle(0));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut s = RecordingSink::with_capacity(2);
        assert!(s.enabled());
        s.record(throttle(1));
        s.record(throttle(2));
        s.record(throttle(3));
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.events()[0], throttle(2));
        assert_eq!(s.events()[1], throttle(3));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut s = RecordingSink::new();
        s.record(throttle(10));
        s.record(throttle(30));
        let text = s.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for (line, ev) in text.lines().zip(s.events()) {
            json::parse(line).expect("line parses");
            assert_eq!(ObsEvent::from_json_line(line).as_ref(), Some(ev));
        }
    }

    #[test]
    fn jsonl_appends_truncation_meta_only_when_dropped() {
        let mut s = RecordingSink::with_capacity(1);
        s.record(throttle(1));
        assert!(!s.to_jsonl().contains("trace_truncated"));
        assert_eq!(s.dropped(), 0);
        s.record(throttle(2));
        assert_eq!(s.dropped(), 1, "one event evicted");
        let jsonl = s.to_jsonl();
        let meta = jsonl.lines().last().expect("meta line");
        assert_eq!(
            meta,
            "{\"type\":\"trace_truncated\",\"at\":2,\"dropped\":1}"
        );
        assert_eq!(RecordingSink::evicted_of(meta), Some(1));
        assert_eq!(
            ObsEvent::from_json_line(meta),
            None,
            "the meta line is no event"
        );
        let event = jsonl.lines().next().expect("event");
        assert_eq!(RecordingSink::evicted_of(event), None);
        // Only the writer's form is read: another order, spacing or an
        // extra key is no meta line.
        for other in [
            "{\"type\":\"trace_truncated\",\"dropped\":1,\"at\":2}",
            "{\"type\":\"trace_truncated\",\"at\": 2,\"dropped\":1}",
            "{\"type\":\"trace_truncated\",\"at\":2,\"dropped\":1,\"x\":0}",
            "{\"type\":\"trace_truncated\",\"at\":2,\"dropped\":-1}",
        ] {
            assert_eq!(RecordingSink::evicted_of(other), None, "{other}");
        }
    }

    #[test]
    fn downcast_round_trip() {
        let boxed: Box<dyn ObsSink> = Box::new(RecordingSink::with_capacity(4));
        let back = boxed
            .into_any()
            .downcast::<RecordingSink>()
            .expect("downcast to RecordingSink");
        assert_eq!(back.dropped(), 0);
    }

    #[test]
    fn completed_requests_counts_only_completions() {
        let mut s = RecordingSink::new();
        s.record(throttle(0));
        s.record(ObsEvent::RequestComplete {
            at: SimTime::from_nanos(5),
            req: 1,
            vssd: 0,
            read: true,
            bytes: 4096,
            arrival: SimTime::ZERO,
            service_start: SimTime::from_nanos(2),
        });
        assert_eq!(s.completed_requests(), 1);
    }
}
