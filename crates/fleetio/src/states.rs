//! RL state extraction (Table 1 of the paper, plus the two shared states).
//!
//! Each 2-second window yields 11 raw features per vSSD: the nine Table 1
//! states (average bandwidth, IOPS, latency, SLO violations, queue delay,
//! read/write ratio, available capacity, GC flag, current priority) plus
//! two states shared across collocated agents (the sums of everyone's IOPS
//! and SLO violations, §3.3.1). Three consecutive windows are stacked into
//! the 33-float observation.

use std::collections::VecDeque;

use fleetio_des::window::WindowSummary;
use fleetio_vssd::engine::{Engine, VssdSnapshot};
use fleetio_vssd::request::Priority;
use fleetio_vssd::vssd::VssdId;

/// Raw features per observation window (9 Table 1 states + 2 shared).
pub const STATES_PER_WINDOW: usize = 11;

/// One window's raw RL state for one vSSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateVector {
    /// `Avg_BW`: average I/O bandwidth, bytes/second.
    pub avg_bw: f64,
    /// `Avg_IOPS`: average request rate, requests/second.
    pub avg_iops: f64,
    /// `Avg_Lat`: average request latency, microseconds.
    pub avg_lat_us: f64,
    /// `SLO_Vio`: fraction of requests violating the SLO, `[0, 1]`.
    pub slo_vio: f64,
    /// `QDelay`: mean queueing delay, microseconds.
    pub qdelay_us: f64,
    /// `RW_Ratio`: read fraction of operations, `[0, 1]`.
    pub rw_ratio: f64,
    /// `Avail_Capacity`: free logical capacity, gigabytes.
    pub avail_capacity_gb: f64,
    /// `In_GC`: whether the vSSD is garbage-collecting (0 or 1).
    pub in_gc: f64,
    /// `Cur_Priority`: current priority as 0 (low) / 0.5 (medium) / 1.
    pub cur_priority: f64,
    /// Shared: sum of collocated agents' `Avg_IOPS`.
    pub shared_iops: f64,
    /// Shared: sum of collocated agents' `SLO_Vio`.
    pub shared_slo_vio: f64,
}

impl StateVector {
    /// Builds the raw state from a window summary and an engine snapshot;
    /// the shared terms must be aggregated by the caller over all agents.
    pub fn from_window(
        window: &WindowSummary,
        snapshot: &VssdSnapshot,
        shared_iops: f64,
        shared_slo_vio: f64,
    ) -> Self {
        StateVector {
            avg_bw: window.avg_bandwidth,
            avg_iops: window.avg_iops,
            avg_lat_us: window.avg_latency.as_micros_f64(),
            slo_vio: window.slo_violation_rate,
            qdelay_us: window.avg_queue_delay.as_micros_f64(),
            rw_ratio: window.read_ratio,
            avail_capacity_gb: snapshot.free_capacity_bytes as f64 / 1e9,
            in_gc: if snapshot.in_gc { 1.0 } else { 0.0 },
            cur_priority: match snapshot.priority {
                Priority::Low => 0.0,
                Priority::Medium => 0.5,
                Priority::High => 1.0,
            },
            shared_iops,
            shared_slo_vio,
        }
    }

    /// The 11 features as floats, in a stable order.
    pub fn to_features(self) -> [f32; STATES_PER_WINDOW] {
        [
            self.avg_bw as f32,
            self.avg_iops as f32,
            self.avg_lat_us as f32,
            self.slo_vio as f32,
            self.qdelay_us as f32,
            self.rw_ratio as f32,
            self.avail_capacity_gb as f32,
            self.in_gc as f32,
            self.cur_priority as f32,
            self.shared_iops as f32,
            self.shared_slo_vio as f32,
        ]
    }

    /// An all-zero state (used to pad history before enough windows exist).
    pub fn zero() -> Self {
        StateVector {
            avg_bw: 0.0,
            avg_iops: 0.0,
            avg_lat_us: 0.0,
            slo_vio: 0.0,
            qdelay_us: 0.0,
            rw_ratio: 0.0,
            avail_capacity_gb: 0.0,
            in_gc: 0.0,
            cur_priority: 0.5,
            shared_iops: 0.0,
            shared_slo_vio: 0.0,
        }
    }
}

/// Extracts every agent's [`StateVector`] from one round of window
/// summaries, computing the two shared states (sums of the *other*
/// agents' IOPS and SLO violations, §3.3.1) from the full set.
pub fn extract_states(engine: &Engine, summaries: &[(VssdId, WindowSummary)]) -> Vec<StateVector> {
    let total_iops: f64 = summaries.iter().map(|(_, w)| w.avg_iops).sum();
    let total_vio: f64 = summaries.iter().map(|(_, w)| w.slo_violation_rate).sum();
    summaries
        .iter()
        .map(|(id, w)| {
            let snap = engine.snapshot(*id);
            StateVector::from_window(
                w,
                &snap,
                total_iops - w.avg_iops,
                total_vio - w.slo_violation_rate,
            )
        })
        .collect()
}

/// A fixed-depth history of state windows, concatenated oldest-first into
/// the observation (§3.3.1: three windows).
#[derive(Debug, Clone, PartialEq)]
pub struct StateHistory {
    depth: usize,
    windows: VecDeque<StateVector>,
}

impl StateHistory {
    /// Creates a zero-padded history of `depth` windows.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be positive");
        let windows = (0..depth).map(|_| StateVector::zero()).collect();
        StateHistory { depth, windows }
    }

    /// Pushes the newest window, evicting the oldest.
    pub fn push(&mut self, state: StateVector) {
        self.windows.pop_front();
        self.windows.push_back(state);
        debug_assert_eq!(self.windows.len(), self.depth);
    }

    /// The concatenated observation (`depth × 11` floats, oldest first).
    pub fn observation(&self) -> Vec<f32> {
        let mut obs = Vec::with_capacity(self.depth * STATES_PER_WINDOW);
        for w in &self.windows {
            obs.extend_from_slice(&w.to_features());
        }
        obs
    }

    /// Resets the history to zeros.
    pub fn reset(&mut self) {
        for w in &mut self.windows {
            *w = StateVector::zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::{SimDuration, SimTime};

    fn snapshot() -> VssdSnapshot {
        VssdSnapshot {
            free_capacity_bytes: 2_000_000_000,
            in_gc: true,
            priority: Priority::High,
            harvested_channels: 1,
            harvestable_channels: 0,
        }
    }

    fn window() -> WindowSummary {
        let mut w = WindowSummary::idle(SimTime::ZERO, SimDuration::from_secs(2));
        w.avg_bandwidth = 1e6;
        w.avg_iops = 500.0;
        w.avg_latency = SimDuration::from_micros(120);
        w.slo_violation_rate = 0.02;
        w.avg_queue_delay = SimDuration::from_micros(30);
        w.read_ratio = 0.8;
        w
    }

    #[test]
    fn from_window_maps_table_1() {
        let s = StateVector::from_window(&window(), &snapshot(), 900.0, 0.05);
        assert_eq!(s.avg_bw, 1e6);
        assert_eq!(s.avg_iops, 500.0);
        assert_eq!(s.avg_lat_us, 120.0);
        assert_eq!(s.slo_vio, 0.02);
        assert_eq!(s.qdelay_us, 30.0);
        assert_eq!(s.rw_ratio, 0.8);
        assert_eq!(s.avail_capacity_gb, 2.0);
        assert_eq!(s.in_gc, 1.0);
        assert_eq!(s.cur_priority, 1.0);
        assert_eq!(s.shared_iops, 900.0);
        assert_eq!(s.shared_slo_vio, 0.05);
    }

    #[test]
    fn feature_vector_has_11_entries() {
        let s = StateVector::from_window(&window(), &snapshot(), 0.0, 0.0);
        assert_eq!(s.to_features().len(), STATES_PER_WINDOW);
    }

    #[test]
    fn history_concatenates_oldest_first() {
        let mut h = StateHistory::new(3);
        assert_eq!(h.observation().len(), 33);
        let s = StateVector::from_window(&window(), &snapshot(), 0.0, 0.0);
        h.push(s);
        let obs = h.observation();
        // Oldest two windows are zero-padded, newest fills the tail.
        assert_eq!(obs[0], 0.0);
        assert_eq!(obs[22], 1e6);
        assert_eq!(obs[22..], s.to_features());
    }

    #[test]
    fn history_evicts_and_resets() {
        let mut h = StateHistory::new(2);
        let s = StateVector::from_window(&window(), &snapshot(), 0.0, 0.0);
        h.push(s);
        h.push(s);
        assert_eq!(h.observation()[0], 1e6);
        h.reset();
        assert_eq!(h.observation()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_panics() {
        let _ = StateHistory::new(0);
    }
}
