//! Fixed-capacity windowed time-series, one flat ring per metric.
//!
//! The fleet records one point per metric per decision window —
//! per-tenant latency percentiles, per-shard utilization and queue
//! depth, harvest and GC rates. Capacities are fixed at registration,
//! so the steady state allocates nothing: when a ring is full the
//! oldest point is overwritten and a drop counter ticks (surfaced by
//! the exporters — a truncated series never silently reads as a
//! complete one).
//!
//! Points are `(window, f64)` pairs keyed by window index, not wall
//! time; rendering is a pure function of the recorded bits, so a
//! same-seed run exports byte-identical CSV/JSONL regardless of worker
//! count.

use std::fmt::Write as _;

use crate::json;

/// Handle returned by [`SeriesSet::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

#[derive(Debug, Clone)]
struct Series {
    name: String,
    /// Ring capacity; `windows`/`values` are pre-sized to this.
    cap: usize,
    windows: Vec<u32>,
    values: Vec<f64>,
    /// Next write position.
    head: usize,
    /// Live points, `≤ cap`.
    len: usize,
    /// Points overwritten after the ring filled.
    dropped: u64,
}

/// A set of named fixed-capacity series. Registration order is the
/// export order.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: Vec<Series>,
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// Registers a series and pre-allocates its ring.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn register(&mut self, name: &str, capacity: usize) -> SeriesId {
        assert!(capacity > 0, "series capacity must be positive");
        self.series.push(Series {
            name: name.to_string(),
            cap: capacity,
            windows: vec![0; capacity],
            values: vec![0.0; capacity],
            head: 0,
            len: 0,
            dropped: 0,
        });
        SeriesId(self.series.len() - 1)
    }

    /// Appends one point; overwrites the oldest when the ring is full.
    pub fn push(&mut self, id: SeriesId, window: u32, value: f64) {
        let s = &mut self.series[id.0];
        s.windows[s.head] = window;
        s.values[s.head] = value;
        s.head = (s.head + 1) % s.cap;
        if s.len == s.cap {
            s.dropped += 1;
        } else {
            s.len += 1;
        }
    }

    /// Number of registered series.
    pub fn n_series(&self) -> usize {
        self.series.len()
    }

    /// The registered name of `id`.
    pub fn name(&self, id: SeriesId) -> &str {
        &self.series[id.0].name
    }

    /// Points of `id`, oldest → newest.
    pub fn points(&self, id: SeriesId) -> impl Iterator<Item = (u32, f64)> + '_ {
        let s = &self.series[id.0];
        let start = if s.len == s.cap { s.head } else { 0 };
        (0..s.len).map(move |i| {
            let idx = (start + i) % s.cap;
            (s.windows[idx], s.values[idx])
        })
    }

    /// Total points overwritten across all series (0 = nothing lost).
    pub fn total_dropped(&self) -> u64 {
        self.series.iter().map(|s| s.dropped).sum()
    }

    /// CSV export: `series,window,value` rows in registration order,
    /// oldest point first. A final comment row reports drops, if any.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,window,value\n");
        for (i, s) in self.series.iter().enumerate() {
            for (w, v) in self.points(SeriesId(i)) {
                let _ = writeln!(out, "{},{},{}", s.name, w, finite(v));
            }
        }
        if self.total_dropped() > 0 {
            let _ = writeln!(out, "# dropped_points,{},", self.total_dropped());
        }
        out
    }

    /// JSONL export: one `{"series":…,"window":…,"value":…}` object per
    /// point, registration order, oldest first; a trailing meta object
    /// reports drops, if any.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.series.iter().enumerate() {
            for (w, v) in self.points(SeriesId(i)) {
                json::object(&mut out, |o| {
                    o.key("series").str(&s.name);
                    o.key("window").u64(u64::from(w));
                    o.key("value").f64(v);
                });
                out.push('\n');
            }
        }
        if self.total_dropped() > 0 {
            json::object(&mut out, |o| {
                o.key("meta").str("series_dropped");
                o.key("count").u64(self.total_dropped());
            });
            out.push('\n');
        }
        out
    }
}

/// Non-finite values have no CSV form; zero matches the JSON writer's
/// rule.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_come_back_in_insertion_order() {
        let mut set = SeriesSet::new();
        let id = set.register("shard0.util", 8);
        for w in 0..5u32 {
            set.push(id, w, f64::from(w) * 0.1);
        }
        let pts: Vec<_> = set.points(id).collect();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], (0, 0.0));
        assert_eq!(pts[4].0, 4);
        assert_eq!(set.total_dropped(), 0);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let mut set = SeriesSet::new();
        let id = set.register("m", 3);
        for w in 0..5u32 {
            set.push(id, w, f64::from(w));
        }
        let pts: Vec<_> = set.points(id).collect();
        assert_eq!(pts, vec![(2, 2.0), (3, 3.0), (4, 4.0)]);
        assert_eq!(set.total_dropped(), 2);
        assert!(set.to_csv().contains("# dropped_points,2,"));
        assert!(set.to_jsonl().contains("\"series_dropped\",\"count\":2"));
    }

    #[test]
    fn csv_and_jsonl_are_deterministic_and_ordered() {
        let build = || {
            let mut set = SeriesSet::new();
            let a = set.register("a.p99_ns", 4);
            let b = set.register("b.util", 4);
            for w in 0..4u32 {
                set.push(a, w, f64::from(w) * 1.5);
                set.push(b, w, 0.25);
            }
            set
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1.to_csv(), s2.to_csv());
        assert_eq!(s1.to_jsonl(), s2.to_jsonl());
        let csv = s1.to_csv();
        let a_pos = csv.find("a.p99_ns").expect("series a exported");
        let b_pos = csv.find("b.util").expect("series b exported");
        assert!(a_pos < b_pos, "registration order preserved");
    }

    #[test]
    fn non_finite_values_export_as_zero() {
        let mut set = SeriesSet::new();
        let id = set.register("m", 2);
        set.push(id, 0, f64::NAN);
        set.push(id, 1, f64::INFINITY);
        assert_eq!(set.to_csv(), "series,window,value\nm,0,0\nm,1,0\n");
        assert_eq!(
            set.to_jsonl(),
            "{\"series\":\"m\",\"window\":0,\"value\":0}\n\
             {\"series\":\"m\",\"window\":1,\"value\":0}\n"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SeriesSet::new().register("m", 0);
    }
}
