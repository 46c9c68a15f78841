//! Metrics registry: counters, gauges, and latency histograms.
//!
//! Handles are registered by name once (typically per vSSD / per channel /
//! per chip, e.g. `chan3.queue_depth`) and then updated through cheap
//! index lookups — no string hashing on the hot path. The registry's
//! text rendering is sorted by name, so same-seed runs snapshot
//! identically.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fleetio_des::{LatencyHistogram, SimDuration};

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a last-value-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Name-addressed collection of counters, gauges, and histograms.
///
/// Registration is idempotent: asking for an existing name returns the
/// existing handle. Registering a name under a different metric kind
/// panics — that is always a wiring bug, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    names: BTreeMap<String, (Kind, usize)>,
    counters: Vec<u64>,
    gauges: Vec<i64>,
    histograms: Vec<LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.names.get(name) {
            Some(&(Kind::Counter, idx)) => CounterId(idx),
            Some(&(kind, _)) => panic!("metric {name:?} already registered as {kind:?}"),
            None => {
                let idx = self.counters.len();
                self.counters.push(0);
                self.names.insert(name.to_string(), (Kind::Counter, idx));
                CounterId(idx)
            }
        }
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.names.get(name) {
            Some(&(Kind::Gauge, idx)) => GaugeId(idx),
            Some(&(kind, _)) => panic!("metric {name:?} already registered as {kind:?}"),
            None => {
                let idx = self.gauges.len();
                self.gauges.push(0);
                self.names.insert(name.to_string(), (Kind::Gauge, idx));
                GaugeId(idx)
            }
        }
    }

    /// Gets or registers the histogram `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        match self.names.get(name) {
            Some(&(Kind::Histogram, idx)) => HistogramId(idx),
            Some(&(kind, _)) => panic!("metric {name:?} already registered as {kind:?}"),
            None => {
                let idx = self.histograms.len();
                self.histograms.push(LatencyHistogram::new());
                self.names.insert(name.to_string(), (Kind::Histogram, idx));
                HistogramId(idx)
            }
        }
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Sets a gauge to `value`.
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0] = value;
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0]
    }

    /// Records `value` into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: SimDuration) {
        self.histograms[id.0].record(value);
    }

    /// Read access to a histogram.
    pub fn histogram_ref(&self, id: HistogramId) -> &LatencyHistogram {
        &self.histograms[id.0]
    }

    /// Number of registered metrics of all kinds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Renders every metric as plain text, sorted by name.
    ///
    /// Counters: `name = value`. Gauges: `name = value (gauge)`.
    /// Histograms: one line with count/mean/min/p50/p95/p99/max in
    /// nanoseconds (percentiles are bucket upper bounds, ≤ 1.6 % high).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, &(kind, idx)) in &self.names {
            match kind {
                Kind::Counter => {
                    let _ = writeln!(out, "{name} = {}", self.counters[idx]);
                }
                Kind::Gauge => {
                    let _ = writeln!(out, "{name} = {} (gauge)", self.gauges[idx]);
                }
                Kind::Histogram => {
                    let h = &self.histograms[idx];
                    let ns = |d: Option<SimDuration>| d.map_or(0, SimDuration::as_nanos);
                    if h.is_empty() {
                        let _ = writeln!(out, "{name} = empty (histogram)");
                    } else {
                        let _ = writeln!(
                            out,
                            "{name} = count {} mean {} min {} p50 {} p95 {} p99 {} max {} (histogram)",
                            h.count(),
                            ns(h.mean()),
                            ns(h.min()),
                            ns(h.percentile(50.0)),
                            ns(h.percentile(95.0)),
                            ns(h.percentile(99.0)),
                            ns(h.max()),
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("vssd0.requests");
        let g = reg.gauge("chan0.queue_depth");
        let h = reg.histogram("vssd0.latency_ns");
        reg.add(c, 3);
        reg.add(c, 2);
        reg.set(g, -4);
        reg.observe(h, SimDuration::from_nanos(500));
        assert_eq!(reg.counter_value(c), 5);
        assert_eq!(reg.gauge_value(g), -4);
        assert_eq!(reg.histogram_ref(h).count(), 1);
        // Idempotent registration returns the same handle.
        assert_eq!(reg.counter("vssd0.requests"), c);
        assert_eq!(reg.len(), 3);
        let text = reg.render_text();
        assert!(text.contains("vssd0.requests = 5"));
        assert!(text.contains("chan0.queue_depth = -4 (gauge)"));
        assert!(text.contains("vssd0.latency_ns = count 1 mean 500 min 500 p50 500"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
