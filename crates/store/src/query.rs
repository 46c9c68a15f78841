//! Indexed queries over a run store.
//!
//! A query is an [`EventFilter`] evaluated against the whole stream;
//! the sparse per-segment index lets whole segments be skipped when
//! their sim-time range, tenant bitmap or kind bitmap proves no event
//! inside can match. Skip decisions are conservative by construction —
//! [`EventFilter::may_match_segment`] errs toward reading — so a query
//! always returns exactly the events a full linear scan would.

use std::collections::BTreeMap;

use fleetio_obs::ObsEvent;

use crate::manifest::SegmentMeta;
use crate::read::{RunStore, StoreError};

/// Which events a query selects. Empty filter selects everything.
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    /// Only events attributed to this vSSD id.
    pub tenant: Option<u32>,
    /// Only events with `at >= from_ns`.
    pub from_ns: Option<u64>,
    /// Only events with `at < to_ns` (half-open).
    pub to_ns: Option<u64>,
    /// Only events of this kind ([`ObsEvent::kind_index`]).
    pub kind: Option<u8>,
}

impl EventFilter {
    /// Whether `ev` passes the filter.
    pub fn matches(&self, ev: &ObsEvent) -> bool {
        let at = ev.at().as_nanos();
        if let Some(from) = self.from_ns {
            if at < from {
                return false;
            }
        }
        if let Some(to) = self.to_ns {
            if at >= to {
                return false;
            }
        }
        if let Some(kind) = self.kind {
            if ev.kind_index() != kind {
                return false;
            }
        }
        if let Some(tenant) = self.tenant {
            if ev.tenant() != Some(tenant) {
                return false;
            }
        }
        true
    }

    /// Whether the segment described by `meta` could hold a matching
    /// event. `false` is a proof (safe to skip); `true` is a maybe.
    pub fn may_match_segment(&self, meta: &SegmentMeta) -> bool {
        if meta.events == 0 {
            return false;
        }
        if let Some(from) = self.from_ns {
            if meta.max_at_ns < from {
                return false;
            }
        }
        if let Some(to) = self.to_ns {
            if meta.min_at_ns >= to {
                return false;
            }
        }
        if let Some(kind) = self.kind {
            if meta.kind_bits & (1u32 << kind) == 0 {
                return false;
            }
        }
        if let Some(tenant) = self.tenant {
            // Bit collisions (ids ≥ 64) widen the filter, never narrow it.
            if meta.tenant_bits & (1u64 << (tenant % 64)) == 0 {
                return false;
            }
        }
        true
    }
}

/// Events selected by a query, plus how much index skipping helped.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching events, in stream order.
    pub events: Vec<ObsEvent>,
    /// Segments actually read and decoded.
    pub segments_scanned: usize,
    /// Segments in the manifest.
    pub segments_total: usize,
}

/// Per-window aggregate of a query's events.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Window index (`at / window_ns`).
    pub window: u64,
    /// Events in the window.
    pub events: u64,
    /// Sum of `bytes` across byte-carrying events in the window.
    pub bytes: u64,
}

/// Runs `filter` over the store, skipping segments the index rules out.
///
/// # Errors
///
/// I/O failure or damage in a segment the query had to read.
pub fn query(store: &RunStore, filter: &EventFilter) -> Result<QueryResult, StoreError> {
    // Reserved once (at most 2^20 events; untouched pages cost nothing): a
    // result copied as it grows leaves a peak that varies with heap state.
    let mut events = Vec::with_capacity(store.manifest().total_events.min(1 << 20) as usize);
    let segments_scanned = query_each(store, filter, |ev| events.push(ev))?;
    events.shrink_to_fit();
    Ok(QueryResult {
        events,
        segments_scanned,
        segments_total: store.manifest().segments.len(),
    })
}

/// [`query`] without collecting: hands each matching event to `visit` in
/// stream order as it is decoded, so memory stays one segment's bytes
/// whatever the run's length. Returns the number of segments read.
///
/// # Errors
///
/// As [`query`]. The matches before the failing record or segment have
/// been visited by then.
pub fn query_each(
    store: &RunStore,
    filter: &EventFilter,
    mut visit: impl FnMut(ObsEvent),
) -> Result<usize, StoreError> {
    let wanted: Vec<&SegmentMeta> = store
        .manifest()
        .segments
        .iter()
        .filter(|meta| filter.may_match_segment(meta))
        .collect();
    // The helper reads and CRC-scans the next segment while this thread
    // decodes and filters the current one.
    store.decode_each(wanted.iter().copied(), |ev| {
        if filter.matches(&ev) {
            visit(ev);
        }
    })?;
    Ok(wanted.len())
}

/// The payload bytes an event accounts for, for window aggregation.
fn bytes_of(ev: &ObsEvent) -> u64 {
    match *ev {
        ObsEvent::RequestSubmit { bytes, .. }
        | ObsEvent::RequestComplete { bytes, .. }
        | ObsEvent::NandOp { bytes, .. } => bytes,
        ObsEvent::WindowFlush(ref w) => w.total_bytes,
        _ => 0,
    }
}

/// Buckets events into decision windows of a fixed length, one event at
/// a time.
#[derive(Debug, Clone)]
pub struct WindowAggregator {
    window_ns: u64,
    /// Per window: events and bytes.
    buckets: BTreeMap<u64, (u64, u64)>,
}

impl WindowAggregator {
    /// An empty aggregation into windows of `window_ns` (at least 1).
    pub fn new(window_ns: u64) -> Self {
        WindowAggregator {
            window_ns: window_ns.max(1),
            buckets: BTreeMap::new(),
        }
    }

    /// Counts `ev` in its window.
    pub fn add(&mut self, ev: &ObsEvent) {
        let w = ev.at().as_nanos() / self.window_ns;
        let slot = self.buckets.entry(w).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += bytes_of(ev);
    }

    /// The windows that saw an event, in order.
    pub fn finish(self) -> Vec<WindowAggregate> {
        self.buckets
            .into_iter()
            .map(|(window, (events, bytes))| WindowAggregate {
                window,
                events,
                bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(min: u64, max: u64, tenants: u64, kinds: u32) -> SegmentMeta {
        SegmentMeta {
            seq: 0,
            events: 10,
            bytes: 100,
            first_event: 0,
            min_at_ns: min,
            max_at_ns: max,
            tenant_bits: tenants,
            kind_bits: kinds,
        }
    }

    #[test]
    fn skip_logic_is_conservative() {
        let m = meta(100, 200, 0b0110, 1 << 8);
        let all = EventFilter::default();
        assert!(all.may_match_segment(&m));
        // Time window misses entirely.
        assert!(!EventFilter {
            to_ns: Some(100),
            ..Default::default()
        }
        .may_match_segment(&m));
        assert!(!EventFilter {
            from_ns: Some(201),
            ..Default::default()
        }
        .may_match_segment(&m));
        // Boundary inclusion: max == from, min < to.
        assert!(EventFilter {
            from_ns: Some(200),
            ..Default::default()
        }
        .may_match_segment(&m));
        assert!(EventFilter {
            to_ns: Some(101),
            ..Default::default()
        }
        .may_match_segment(&m));
        // Tenant and kind bitmaps.
        assert!(!EventFilter {
            tenant: Some(0),
            ..Default::default()
        }
        .may_match_segment(&m));
        assert!(EventFilter {
            tenant: Some(2),
            ..Default::default()
        }
        .may_match_segment(&m));
        assert!(!EventFilter {
            kind: Some(0),
            ..Default::default()
        }
        .may_match_segment(&m));
        assert!(EventFilter {
            kind: Some(8),
            ..Default::default()
        }
        .may_match_segment(&m));
        // Empty segments never match.
        let mut empty = meta(0, u64::MAX, u64::MAX, u32::MAX);
        empty.events = 0;
        assert!(!all.may_match_segment(&empty));
    }

    #[test]
    fn window_aggregation_buckets_by_sim_time() {
        use fleetio_des::SimTime;
        let evs: Vec<ObsEvent> = (0..6u64)
            .map(|i| ObsEvent::Throttle {
                at: SimTime::from_nanos(i * 50),
                channel: 0,
                until: SimTime::from_nanos(i * 50 + 1),
            })
            .collect();
        let mut agg = WindowAggregator::new(100);
        evs.iter().for_each(|ev| agg.add(ev));
        let agg = agg.finish();
        assert_eq!(agg.len(), 3);
        assert!(agg.iter().all(|w| w.events == 2));
        assert_eq!(agg[0].window, 0);
        assert_eq!(agg[2].window, 2);
    }
}
