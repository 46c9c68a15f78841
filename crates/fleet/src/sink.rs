//! A fingerprinting observability sink for determinism checks.
//!
//! [`FingerprintSink`] folds every event's canonical wire encoding
//! (`fleetio_obs::wire::encode_event`) into a streaming FNV-1a digest —
//! the same byte form the run store persists, so a fingerprint match
//! here implies the stored streams would be byte-identical too. One
//! sink per shard makes "same seed ⇒ same per-shard stream, any worker
//! count" a two-u64 comparison per shard.

use std::any::Any;

use fleetio_des::hash::Fnv64;
use fleetio_obs::{wire, ObsEvent, ObsSink};

/// Streams events into an FNV-1a fingerprint of their wire encodings.
#[derive(Debug)]
pub struct FingerprintSink {
    fp: Fnv64,
    events: u64,
    buf: Vec<u8>,
}

impl FingerprintSink {
    /// An empty fingerprint (FNV offset basis, zero events).
    pub fn new() -> Self {
        FingerprintSink {
            fp: Fnv64::new(),
            events: 0,
            buf: Vec::new(),
        }
    }

    /// The running digest.
    pub fn fingerprint(&self) -> u64 {
        self.fp.finish()
    }

    /// Events folded in.
    pub fn event_count(&self) -> u64 {
        self.events
    }
}

impl Default for FingerprintSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsSink for FingerprintSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        self.buf.clear();
        wire::encode_event(&ev, &mut self.buf);
        self.fp.update(&self.buf);
        self.events += 1;
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
    use fleetio_obs::WindowFlush;

    fn ev(at: u64) -> ObsEvent {
        ObsEvent::WindowFlush(Box::new(WindowFlush {
            at: SimTime::from_nanos(at),
            vssd: 0,
            avg_bandwidth: 0.0,
            avg_iops: 0.0,
            p99_latency: fleetio_des::SimDuration::ZERO,
            slo_violation_rate: 0.0,
            gc_busy_frac: 0.0,
            total_bytes: 0,
            total_ops: 0,
        }))
    }

    #[test]
    fn fingerprint_tracks_event_stream() {
        let mut a = FingerprintSink::new();
        let mut b = FingerprintSink::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.record(ev(1));
        a.record(ev(2));
        b.record(ev(1));
        assert_eq!(a.event_count(), 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.record(ev(2));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Order matters.
        let mut c = FingerprintSink::new();
        c.record(ev(2));
        c.record(ev(1));
        assert_ne!(c.fingerprint(), a.fingerprint());
    }
}
